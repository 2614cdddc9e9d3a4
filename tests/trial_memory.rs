//! Trial memory does not grow with the trial count. `Scenario::run`
//! turns each attacked trial into its `TrialReport` inside the trial,
//! so a trial's reconstruction pool (one candidate image per attacked
//! neuron) and processed batch are freed with it, and every trial's
//! model shares the attack's malicious weights copy-on-write. The
//! live heap of a cell is then set-up plus what the trials in flight
//! hold, whatever the trial count. A counting global allocator
//! measures it.
//!
//! The same allocator counts allocation calls, which pins what a
//! tensor costs: a `Tensor` (and an `Image`, a tensor of dims
//! `[c, h, w]`) is one allocation, and a clone or a write to an
//! unshared buffer allocates nothing. It also counts the calls of at
//! least a given size, which pins what a local step costs: one update
//! buffer, allocated once at its final size.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use oasis_attacks::{ActiveAttack, RtfAttack};
use oasis_data::{imagenette_like_with, Batch};
use oasis_fl::DefenseStack;
use oasis_image::Image;
use oasis_scenario::{Scale, Scenario, ScenarioReport};
use oasis_tensor::{parallel, Tensor};
use rand::{rngs::StdRng, SeedableRng};

/// The system allocator, counting live bytes and their peak, and
/// each thread's allocation calls (`alloc`, `alloc_zeroed` and
/// `realloc`), with those of at least [`LARGE`] bytes counted apart.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// The size from which an allocation call counts as large.
static LARGE: AtomicUsize = AtomicUsize::new(usize::MAX);

thread_local! {
    /// Per thread, so the test harness's own allocations on other
    /// threads never land in a count.
    static CALLS: Cell<usize> = const { Cell::new(0) };
    /// `alloc` and `alloc_zeroed` calls of at least [`LARGE`] bytes.
    static LARGE_ALLOCS: Cell<usize> = const { Cell::new(0) };
    /// `realloc` calls to at least [`LARGE`] bytes.
    static LARGE_REALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count_call() {
    CALLS.with(|calls| calls.set(calls.get() + 1));
}

fn count_large(counter: &'static std::thread::LocalKey<Cell<usize>>, size: usize) {
    if size >= LARGE.load(Ordering::Relaxed) {
        counter.with(|n| n.set(n.get() + 1));
    }
}

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters only observe sizes and calls.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_call();
        count_large(&LARGE_ALLOCS, layout.size());
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_call();
        count_large(&LARGE_ALLOCS, layout.size());
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_call();
        count_large(&LARGE_REALLOCS, new_size);
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            if new_size > layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The counters are process-wide: tests that measure take this lock so
/// no other test of this binary allocates meanwhile.
static MEASURE: Mutex<()> = Mutex::new(());

/// Attacked neurons `n`. Under DP noise every row of the malicious
/// layer's gradient inverts to a distinct candidate, so each trial's
/// reconstruction pool holds about `n` images: one model-sized buffer.
const NEURONS: usize = 512;
/// Input width `d` of the quick-scale `imagenette` stand-in (16×16×3).
const INPUT: usize = 16 * 16 * 3;
/// One model-sized buffer: the `n × d` malicious layer in `f32`.
const MODEL_BYTES: usize = NEURONS * INPUT * 4;
/// Model-sized buffers of slack per trial in flight, for trials that
/// overlap at their peaks over a long cell but not within one wave.
const SLACK_PER_TRIAL: usize = 4;
/// Trials per cell: keeping every trial's pool would exceed the bound
/// several times over.
const TRIALS: usize = 24;

fn cell(trials: usize) -> Scenario {
    Scenario::builder()
        .attack(format!("rtf:{NEURONS}").parse().unwrap())
        .defense("dp:1,0.0003".parse().unwrap())
        .workload("imagenette".parse().unwrap())
        .scale(Scale::Quick)
        .trials(trials)
        .seed(5)
        .build()
        .unwrap()
}

/// The peak live heap above the starting live bytes while `f` runs.
fn peak_above_start<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let start = LIVE.load(Ordering::Relaxed);
    PEAK.store(start, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed) - start)
}

#[test]
fn live_heap_scales_with_pool_width_not_trial_count() {
    let _lock = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    for width in [1, 2] {
        parallel::with_threads(width, || {
            // Warm the worker pool so its threads are not charged to a
            // cell.
            cell(width).run().unwrap();
            // One wave of trials: set-up plus `width` trials in flight.
            let (_, wave) = peak_above_start(|| cell(width).run().unwrap());
            let bound = wave + width * SLACK_PER_TRIAL * MODEL_BYTES;
            let (report, peak) = peak_above_start(|| cell(TRIALS).run().unwrap());
            assert_eq!(report.trials.len(), TRIALS);
            println!(
                "width {width}: one wave {:.1} MiB, {TRIALS} trials {:.1} MiB, bound {:.1} MiB",
                wave as f64 / 1048576.0,
                peak as f64 / 1048576.0,
                bound as f64 / 1048576.0
            );
            assert!(
                peak <= bound,
                "{TRIALS} trials at pool width {width} peaked {peak} B above start; \
                 one wave peaked {wave} B, so the bound is {bound} B"
            );
        });
    }
}

/// `report` serialized with its wall-clock fields zeroed.
fn timeless(mut report: ScenarioReport) -> String {
    report.wall_clock_ms = 0.0;
    report.trial_wall_ns.iter_mut().for_each(|ns| *ns = 0);
    serde_json::to_string(&report).unwrap()
}

#[test]
fn streamed_report_equals_the_detailed_one_bit_for_bit() {
    let _lock = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    let scenario = cell(4);
    let (detailed, outcomes) = scenario.run_detailed().unwrap();
    assert_eq!(outcomes.len(), 4);
    assert!(outcomes.iter().all(|o| !o.reconstructions.is_empty()));
    assert_eq!(timeless(scenario.run().unwrap()), timeless(detailed));
}

/// The allocation calls this thread makes while `f` runs; what `f`
/// returns is dropped after the count.
fn calls<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let start = CALLS.get();
    let out = std::hint::black_box(f());
    (out, CALLS.get() - start)
}

#[test]
fn a_tensor_is_one_allocation_and_a_clone_or_unshared_write_none() {
    // Only so the live-heap peaks above never see these buffers.
    let _lock = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    let values = vec![0.25f32; 3 * 16 * 16];
    let (mut weights, n) = calls(|| Tensor::zeros(&[512, 768]));
    assert_eq!(n, 1, "Tensor::zeros");
    let (vector, n) = calls(|| Tensor::from_slice(&values));
    assert_eq!(n, 1, "Tensor::from_slice");
    let (image, n) = calls(|| Image::new(3, 16, 16));
    assert_eq!(n, 1, "Image::new");

    let (shared, n) = calls(|| weights.clone());
    assert_eq!(n, 0, "Tensor::clone");
    let (_, n) = calls(|| image.clone());
    assert_eq!(n, 0, "Image::clone");
    drop(shared);
    let (_, n) = calls(|| weights.data_mut()[7] = 1.0);
    assert_eq!(n, 0, "data_mut on an unshared tensor");
    assert_eq!(weights.data()[7], 1.0);
    assert_eq!(vector.data(), &values[..]);
}

#[test]
fn a_local_step_allocates_one_update_buffer_at_its_final_size() {
    let _lock = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    let data = imagenette_like_with(1, 16, 3);
    let batch = Batch::from_items(data.items().iter().take(8).cloned().collect());
    // At `d ≥ 2n` layer 0's forward product runs on the dot-product
    // kernel; at `d < 2n` (`n` = 512 here) `matmul_nt` materializes
    // `Wᵀ`, one more weight-sized buffer that belongs to the forward,
    // not to the update.
    for (neurons, forward_transposes) in [(256, 0), (NEURONS, 1)] {
        let attack = RtfAttack::new(neurons, 0.4, 0.1).unwrap();
        let mut model = attack.build_model(batch.images[0].dims(), 10, 0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        // Inline, so every allocation of the step lands on this thread.
        let (allocs, reallocs) = parallel::with_threads(1, || {
            LARGE.store(neurons * INPUT * 4, Ordering::Relaxed);
            let (a0, r0) = (LARGE_ALLOCS.get(), LARGE_REALLOCS.get());
            let step = DefenseStack::identity()
                .local_step(&mut model, &batch, &mut rng)
                .unwrap();
            let counts = (LARGE_ALLOCS.get() - a0, LARGE_REALLOCS.get() - r0);
            LARGE.store(usize::MAX, Ordering::Relaxed);
            assert_eq!(step.update.len(), oasis_nn::param_count(&model));
            counts
        });
        assert_eq!(
            allocs,
            1 + forward_transposes,
            "n = {neurons}: allocations of at least layer 0's weight bytes"
        );
        assert_eq!(reallocs, 0, "n = {neurons}: the update buffer never grows");
    }
}
