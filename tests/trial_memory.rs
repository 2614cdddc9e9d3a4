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
//! least a given size, which pins what a local step costs (one update
//! buffer, allocated once at its final size) and what an FL round
//! costs in model-sized buffers: the fold's accumulator, plus each
//! delivered client's update and, where a frame is model-sized, its
//! frame. A buffer added beside these fails the round's count, and so
//! does one that grows with the population a round samples from.
//!
//! Per thread, it also keeps the largest single request, which bounds
//! what a reader of hostile bytes (a wire frame, a checkpoint) asks
//! for by the length of its input rather than by a length it reads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use std::sync::Arc;

use oasis_attacks::{ActiveAttack, RtfAttack};
use oasis_data::{cifar_like_with, imagenette_like_with, Batch};
use oasis_fl::{DefenseStack, FlConfig, FlServer, ModelFactory, RoundReport, WireConfig};
use oasis_image::Image;
use oasis_nn::{param_count, Linear, Relu, Sequential};
use oasis_population::{CohortRunner, Population};
use oasis_scenario::{DefenseSpec, Scale, Scenario, ScenarioReport};
use oasis_tensor::{parallel, Tensor};
use oasis_wire::checkpoint::{load_model_bytes, model_to_bytes};
use oasis_wire::{CodecSpec, EncodedUpdate, NetSpec, WireView};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// The system allocator, counting live bytes and their peak, and
/// each thread's allocation calls (`alloc`, `alloc_zeroed` and
/// `realloc`), with those of at least [`LARGE`] bytes counted apart,
/// and the largest of them.
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
    /// The largest size an allocation call asked for (a `realloc`'s
    /// new size), since [`largest_request`] last reset it.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn count_call(size: usize) {
    CALLS.with(|calls| calls.set(calls.get() + 1));
    LARGEST.with(|largest| largest.set(largest.get().max(size)));
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
        count_call(layout.size());
        count_large(&LARGE_ALLOCS, layout.size());
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_call(layout.size());
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
        count_call(new_size);
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

/// Clients of the counted round, all of them in its cohort and all
/// delivered (ideal wire).
const ROUND_CLIENTS: usize = 16;
/// The round's fold accumulator: one `vec![0.0; n]`.
const ACCUMULATOR: usize = 1;
/// Each client's update buffer (`DefenseStack::local_step`).
const UPDATE_PER_CLIENT: usize = 1;
/// Each client's raw frame: the model's bytes plus a header. A q8
/// frame is a quarter of that, below the threshold.
const RAW_FRAME_PER_CLIENT: usize = 1;
/// Model-sized allocations of one round on the raw wire.
const ROUND_RAW: usize = ACCUMULATOR + ROUND_CLIENTS * (UPDATE_PER_CLIENT + RAW_FRAME_PER_CLIENT);
/// Model-sized allocations of one round on the q8 wire.
const ROUND_Q8: usize = ACCUMULATOR + ROUND_CLIENTS * UPDATE_PER_CLIENT;

/// The `perf` population fixture: an 80-image 16×16 pool and its MLP,
/// 768 → 64 → 10, 49 866 parameters. Its largest tensor (the 768 × 64
/// weight) is below the model's bytes, so building a client's model
/// counts nothing.
fn population_fixture() -> (oasis_data::Dataset, ModelFactory) {
    let data = cifar_like_with(10, 8, 16, 0);
    let d = data.feature_dim();
    let factory: ModelFactory = Arc::new(move || {
        let mut rng = StdRng::seed_from_u64(12);
        let mut m = Sequential::new();
        m.push(Linear::new(d, 64, &mut rng));
        m.push(Relu::new());
        m.push(Linear::new(64, 10, &mut rng));
        m
    });
    (data, factory)
}

/// One warm round of `runner` inline, so every allocation of the round
/// lands on this thread (the first round warms what is built once),
/// with its allocation and realloc calls of at least `large` bytes.
fn warm_round(runner: &mut CohortRunner, large: usize) -> (RoundReport, usize, usize) {
    parallel::with_threads(1, || {
        runner.run_round(&mut StdRng::seed_from_u64(0)).unwrap();
        LARGE.store(large, Ordering::Relaxed);
        let (a0, r0) = (LARGE_ALLOCS.get(), LARGE_REALLOCS.get());
        let report = runner.run_round(&mut StdRng::seed_from_u64(1)).unwrap();
        let (a1, r1) = (LARGE_ALLOCS.get(), LARGE_REALLOCS.get());
        LARGE.store(usize::MAX, Ordering::Relaxed);
        (report, a1 - a0, r1 - r0)
    })
}

#[test]
fn a_round_allocates_its_accumulator_and_one_update_and_frame_per_client() {
    let _lock = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    let (data, factory) = population_fixture();
    let model_bytes = 4 * param_count(&factory());
    for (codec, want) in [(CodecSpec::Raw, ROUND_RAW), (CodecSpec::Q8, ROUND_Q8)] {
        for defense in ["none", "oasis:MR", "dp:1,0.0003"] {
            let stack = defense.parse::<DefenseSpec>().unwrap().build();
            let mut rng = StdRng::seed_from_u64(13);
            let pop = Population::iid(&data, ROUND_CLIENTS, Arc::new(stack), &mut rng);
            let mut server = FlServer::new(Arc::clone(&factory), FlConfig::default()).unwrap();
            server.set_wire(WireConfig::new(codec, NetSpec::Ideal));
            let mut runner = CohortRunner::new(server, pop);
            let (report, allocs, reallocs) = warm_round(&mut runner, model_bytes);
            assert_eq!(report.participants, ROUND_CLIENTS, "{codec} {defense}");
            assert_eq!(
                allocs, want,
                "{codec} {defense}: allocations of at least the model's {model_bytes} bytes"
            );
            assert_eq!(reallocs, 0, "{codec} {defense}: no round buffer grows");
        }
    }
}

/// Clients of the population round's cohort.
const COHORT: usize = 64;
/// The larger population a round samples its cohort from.
const HUNDRED_K: usize = 100_000;
/// One `u32` per client of [`HUNDRED_K`]: the size of a buffer that
/// grows with the population, such as the cohort sampler's index
/// list if it were rebuilt each round. The fixture's model (199 464
/// bytes) is below it, so the per-client buffers of the count above
/// do not count here.
const PER_CLIENT_OF_HUNDRED_K: usize = 4 * HUNDRED_K;

#[test]
fn a_round_allocates_nothing_that_grows_with_the_population() {
    let _lock = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    let (data, factory) = population_fixture();
    assert!(4 * param_count(&factory()) < PER_CLIENT_OF_HUNDRED_K);
    for population in [1_000, HUNDRED_K] {
        let pop = Population::iid(
            &data,
            population,
            Arc::new(DefenseStack::identity()),
            &mut StdRng::seed_from_u64(13),
        );
        for codec in [CodecSpec::Raw, CodecSpec::Q8] {
            let config = FlConfig {
                clients_per_round: COHORT,
                ..FlConfig::default()
            };
            let mut server = FlServer::new(Arc::clone(&factory), config).unwrap();
            server.set_wire(WireConfig::new(codec, NetSpec::Ideal));
            let mut runner = CohortRunner::new(server, pop.clone());
            let (report, allocs, reallocs) = warm_round(&mut runner, PER_CLIENT_OF_HUNDRED_K);
            assert_eq!(report.cohort, COHORT, "{codec} over {population}");
            assert_eq!(
                (allocs, reallocs),
                (0, 0),
                "{codec} over {population} clients: allocation and realloc calls of at \
                 least {PER_CLIENT_OF_HUNDRED_K} bytes"
            );
        }
    }
}

/// The largest single allocation request this thread makes while `f`
/// runs.
fn largest_request<R>(f: impl FnOnce() -> R) -> (R, usize) {
    LARGEST.set(0);
    let out = std::hint::black_box(f());
    (out, LARGEST.get())
}

/// Bytes a reader of `L` hostile bytes may ask for in one allocation:
/// `READ_BYTES_PER_INPUT_BYTE · L + READ_FIXED_BYTES`.
///
/// Derivation. A frame is a length prefix, a JSON header and a
/// payload; a checkpoint is one frame. What the readers allocate
/// grows with what they read, never with a length they are told:
///
/// * the JSON parser builds a `serde::Value` tree. Its widest buffer
///   is an array's `Vec<Value>`: a `Value` is 32 bytes, each element
///   takes at least 2 input bytes (a digit and a comma), and `Vec`
///   growth at most doubles the capacity, so `2 · 32 · L/2 = 32 · L`.
///   An object's `(String, Value)` entry is 56 bytes per at least 5
///   input bytes (`"":0,`), so at most `22.4 · L`; a string at most
///   doubles its `L` bytes;
/// * the typed header: a shape's `Vec<usize>` is 8 bytes per at least
///   2 input bytes, doubled, `8 · L`; a `TensorMeta` is 72 bytes per
///   tensor entry of at least 40 input bytes;
/// * a payload copy (`to_f32_vec`, `to_u32_vec`) is at most the
///   tensor's extent, which the parser has checked against the
///   buffer: at most `L`;
/// * an error message quotes at most a name and a shape, each a
///   rewrite of input bytes under `2 · L` once grown.
///
/// The fixed term covers minimum capacities (four `Value`s are 128
/// bytes) and the fixed text of messages.
const READ_BYTES_PER_INPUT_BYTE: usize = 32;
/// See [`READ_BYTES_PER_INPUT_BYTE`].
const READ_FIXED_BYTES: usize = 4096;
/// The size every crafted header claims: 64 MiB. A reader that
/// allocates what it is told fails the bound on every such frame,
/// yet stays small enough not to exhaust memory.
const CLAIM: usize = 64 << 20;

/// A frame from a hand-written JSON header and a payload; only the
/// length prefix is computed.
fn hand_frame(header: &str, payload: &[u8]) -> Vec<u8> {
    let mut out = (header.len() as u64).to_le_bytes().to_vec();
    out.extend_from_slice(header.as_bytes());
    out.extend_from_slice(payload);
    out
}

/// One tensor's header entry.
fn entry(name: &str, dtype: &str, shape: &[usize], (start, end): (usize, usize)) -> String {
    format!(r#"{{"name":"{name}","dtype":"{dtype}","shape":{shape:?},"offsets":[{start},{end}]}}"#)
}

/// A header of the given tensor entries.
fn hand_header(entries: &[String]) -> String {
    format!(r#"{{"version":1,"tensors":[{}]}}"#, entries.join(","))
}

/// Frames whose header claims `CLAIM` bytes for a tensor named
/// `name` of `dtype` (`size` bytes per element), over a payload of
/// a few bytes: an extent past the buffer, a shape larger than its
/// extent, a two-dimensional claim, an offset far past the payload,
/// a claim behind a valid first tensor, and length prefixes that
/// claim a larger header than the buffer holds.
fn claims(name: &str, dtype: &str, size: usize) -> Vec<Vec<u8>> {
    let numel = CLAIM / size;
    let payload = [0u8; 16];
    let mut frames: Vec<Vec<u8>> = [
        vec![entry(name, dtype, &[numel], (0, CLAIM))],
        vec![entry(name, dtype, &[numel], (0, 16))],
        vec![entry(name, dtype, &[4096, numel / 4096], (0, CLAIM))],
        vec![entry(name, dtype, &[4 / size], (CLAIM, CLAIM + 4))],
        vec![
            entry("lead", "u8", &[16], (0, 16)),
            entry(name, dtype, &[numel], (16, 16 + CLAIM)),
        ],
    ]
    .iter()
    .map(|entries| hand_frame(&hand_header(entries), &payload))
    .collect();
    for prefix in [16u64 << 20, CLAIM as u64, u64::MAX] {
        let mut frame = prefix.to_le_bytes().to_vec();
        frame.extend_from_slice(br#"{"version":1,"tensors":[]}"#);
        frames.push(frame);
    }
    frames
}

/// A fixed-seed corpus of mutants of `valid`: byte flips anywhere,
/// truncations at every length up to the payload and at random ones
/// past it, and header element counts that lie by a little.
fn mutants(valid: &[u8], rng: &mut StdRng) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for _ in 0..96 {
        let mut m = valid.to_vec();
        for _ in 0..rng.gen_range(1..=4) {
            let at = rng.gen_range(0..m.len());
            m[at] ^= rng.gen_range(1..=255u8);
        }
        out.push(m);
    }
    let header_end = 8 + u64::from_le_bytes(valid[..8].try_into().unwrap()) as usize;
    for len in (0..header_end).chain((0..16).map(|_| rng.gen_range(header_end..valid.len()))) {
        out.push(valid[..len].to_vec());
    }
    let view = WireView::parse(valid).unwrap();
    for lie in [-1isize, 1, 1000] {
        let entries: Vec<String> = view
            .tensors()
            .map(|t| {
                let meta = t.meta();
                let mut shape = meta.shape.clone();
                if let Some(first) = shape.first_mut() {
                    *first = first.saturating_add_signed(lie);
                }
                entry(&meta.name, meta.dtype.as_str(), &shape, meta.offsets)
            })
            .collect();
        out.push(hand_frame(&hand_header(&entries), &valid[header_end..]));
    }
    out
}

/// Asserts that reading `input` asked for no more than the bound of
/// [`READ_BYTES_PER_INPUT_BYTE`] in one allocation.
fn assert_bounded(what: &str, input: usize, largest: usize) {
    let bound = READ_BYTES_PER_INPUT_BYTE * input + READ_FIXED_BYTES;
    assert!(
        largest <= bound,
        "{what}: a {input}-byte input made a {largest}-byte allocation (bound {bound})"
    );
}

#[test]
fn hostile_frames_and_checkpoints_never_allocate_by_a_length_they_claim() {
    let _lock = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    // The derivation's premise: a JSON value is 32 bytes.
    assert_eq!(std::mem::size_of::<serde::Value>(), 32);
    let mut rng = StdRng::seed_from_u64(50);
    let n = 1000;
    let update: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let codecs = [
        (CodecSpec::Raw, ("update", "f32", 4)),
        (CodecSpec::Q8, ("q", "u8", 1)),
        (CodecSpec::TopK { k: 100 }, ("idx", "u32", 4)),
        (CodecSpec::Sign, ("bits", "u8", 1)),
    ];
    for (spec, (name, dtype, size)) in codecs {
        let codec = spec.build();
        let valid = codec.encode(&update).unwrap().payload;
        let crafted = claims(name, dtype, size);
        let corpus = mutants(&valid, &mut rng).into_iter().chain(crafted.clone());
        for payload in corpus {
            let len = payload.len();
            let frame = EncodedUpdate { n, payload };
            let mut acc = vec![0.0f32; n];
            let (_, largest) = largest_request(|| codec.fold_into(&frame, 1.0, &mut acc));
            assert_bounded(&format!("{spec} fold"), len, largest);
        }
        for payload in crafted {
            let frame = EncodedUpdate { n, payload };
            assert!(codec.fold_into(&frame, 1.0, &mut vec![0.0; n]).is_err());
        }
        // Element counts that lie outside the frame: the update's
        // own count, against a frame of another length.
        for lie in [0, 1, n - 1, n + 1, 2 * n] {
            let frame = EncodedUpdate {
                n: lie,
                payload: valid.clone(),
            };
            let mut acc = vec![0.0f32; lie];
            let (_, largest) = largest_request(|| codec.fold_into(&frame, 1.0, &mut acc));
            assert_bounded(&format!("{spec} fold with n = {lie}"), valid.len(), largest);
        }
    }

    let model = || {
        let mut rng = StdRng::seed_from_u64(3);
        let mut m = Sequential::new();
        m.push(Linear::new(6, 4, &mut rng));
        m.push(Relu::new());
        m.push(Linear::new(4, 3, &mut rng));
        m
    };
    let valid = model_to_bytes(&model()).unwrap();
    let first = WireView::parse(&valid)
        .unwrap()
        .tensors()
        .next()
        .unwrap()
        .meta()
        .name
        .clone();
    let crafted = claims(&first, "f32", 4);
    let mut target = model();
    for bytes in mutants(&valid, &mut rng).into_iter().chain(crafted.clone()) {
        let (_, largest) = largest_request(|| load_model_bytes(&mut target, &bytes));
        assert_bounded("checkpoint load", bytes.len(), largest);
    }
    for bytes in crafted {
        assert!(load_model_bytes(&mut target, &bytes).is_err());
    }
}
