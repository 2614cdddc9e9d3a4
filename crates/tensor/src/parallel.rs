//! Data-parallel fronts over the persistent worker pool (`crate::pool`).
//!
//! The workspace deliberately avoids a full task-scheduling runtime;
//! the parallel patterns needed are "split a flat output buffer into
//! row blocks" (matmul, conv), "run one closure per index and collect
//! in order" (federated clients, per-neuron inversion), and "mutate
//! disjoint items in place" (wire decode). All are provided here as
//! thin fronts that chunk the work deterministically and dispatch the
//! chunks to the pool.
//!
//! ## Determinism
//!
//! Partitioning depends only on [`num_threads`] and the work size,
//! never on which worker runs a chunk, and every kernel in the
//! workspace keeps its per-row / per-item floating-point accumulation
//! order independent of the partition — so results are bit-identical
//! at any thread count (see `tests/thread_determinism.rs`).
//!
//! ## Nesting
//!
//! A thread that is already executing pool work (an FL client closure,
//! a scenario trial) runs any nested parallel front inline instead of
//! re-dispatching — parallel clients no longer fight their own matmuls
//! for cores.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::{pool, simd};

thread_local! {
    /// Per-thread override installed by [`with_threads`].
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Returns the worker count parallel fronts partition for (the pool
/// size requested at dispatch).
///
/// Resolution order: a [`with_threads`] override on the current
/// thread, then the `OASIS_THREADS` environment variable (a positive
/// integer; benchmarks and CI pin it so timings are comparable across
/// machines — zero or unparsable values are ignored), then
/// `std::thread::available_parallelism`, clamped to at least 1.
pub fn num_threads() -> usize {
    if let Some(n) = THREAD_OVERRIDE.get() {
        return n;
    }
    std::env::var("OASIS_THREADS")
        .ok()
        .and_then(|v| env_thread_override(&v))
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Parses an `OASIS_THREADS` value: a positive integer overrides the
/// machine default; zero or unparsable values yield `None` (ignored).
fn env_thread_override(v: &str) -> Option<usize> {
    v.trim().parse::<usize>().ok().filter(|&n| n >= 1)
}

/// Runs `f` with [`num_threads`] pinned to `threads` (clamped to at
/// least 1) on the current thread, restoring the previous value on
/// exit — including on panic.
///
/// This is the process-internal way to vary parallelism: unlike
/// mutating `OASIS_THREADS`, it is race-free under concurrent tests,
/// and it is how the `scale` perf suite measures the same workload at
/// several thread counts in one run. The override only affects
/// partitioning decisions made on *this* thread; work dispatched to
/// pool workers runs nested fronts inline regardless.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.set(self.0);
        }
    }
    let _restore = Restore(THREAD_OVERRIDE.replace(Some(threads.max(1))));
    f()
}

/// The concurrency a parallel front dispatched from this thread will
/// actually achieve: 1 inside a pool worker (nested fronts run
/// inline under the nesting guard), otherwise [`num_threads`].
///
/// Use this — not [`num_threads`] — to size scratch buffers that
/// exist only to feed a parallel dispatch, so nested callers don't
/// allocate capacity they can never use.
pub fn effective_parallelism() -> usize {
    if pool::in_parallel_region() {
        1
    } else {
        num_threads()
    }
}

/// Splits `data` (a flat row-major buffer with rows of `row_len`
/// elements) into contiguous row blocks and invokes
/// `kernel(first_row_index, block)` on pool workers.
///
/// The kernel must be pure per-block: blocks are disjoint, so no
/// synchronization is required inside.
///
/// # Panics
///
/// Panics if `row_len` is zero while `data` is non-empty, or if
/// `data.len()` is not a multiple of `row_len`.
pub fn for_each_row_block<F>(data: &mut [f32], row_len: usize, kernel: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    for_each_row_block_min(data, row_len, 0, kernel);
}

/// Like [`for_each_row_block`], but with a work-size cutoff: buffers
/// smaller than `min_len` elements run serially on the caller, never
/// paying pool-dispatch latency. This is how sub-threshold matmuls and
/// conv lowering fills stay as fast as they were before the pool.
pub fn for_each_row_block_min<F>(data: &mut [f32], row_len: usize, min_len: usize, kernel: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    if data.is_empty() {
        return;
    }
    assert!(
        row_len > 0,
        "row_len must be positive for a non-empty buffer"
    );
    assert_eq!(
        data.len() % row_len,
        0,
        "buffer must be a whole number of rows"
    );
    // Cheap thread-local / size checks first: nested fronts and
    // sub-threshold buffers must not pay the `OASIS_THREADS` env
    // lookup inside `num_threads`.
    if data.len() < min_len || pool::in_parallel_region() {
        kernel(0, data);
        return;
    }
    let rows = data.len() / row_len;
    let workers = num_threads().min(rows);
    if workers <= 1 {
        kernel(0, data);
        return;
    }
    let rows_per_block = rows.div_ceil(workers);
    let kernel = &kernel;
    // Workers inherit the caller's pinned SIMD backend (if any), so a
    // `simd::with_backend` region stays pinned across the dispatch.
    let backend = simd::thread_override();
    let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(workers);
    let mut rest = data;
    let mut row0 = 0usize;
    while !rest.is_empty() {
        let take = (rows_per_block * row_len).min(rest.len());
        let (block, tail) = rest.split_at_mut(take);
        let start = row0;
        tasks.push(Box::new(move || {
            simd::with_override(backend, || kernel(start, block));
        }));
        row0 += take / row_len;
        rest = tail;
    }
    pool::run_tasks(tasks);
}

/// Runs `f(index)` for every index in `0..len` on pool workers and
/// collects the results in index order.
///
/// Indices are handed out dynamically (one atomic fetch per item), so
/// heterogeneous items — FL clients with uneven sample counts, say —
/// balance across workers instead of serializing behind the largest
/// contiguous chunk. Each worker accumulates `(index, result)` pairs
/// in a private batch and the batches are merged by index afterwards:
/// no per-item locking, and the output (order and every bit) is
/// independent of the scheduling.
pub fn map_range<R, F>(len: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if len == 0 {
        return Vec::new();
    }
    if pool::in_parallel_region() {
        return (0..len).map(f).collect();
    }
    let workers = num_threads().min(len);
    if workers <= 1 {
        return (0..len).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut batches: Vec<Option<Vec<(usize, R)>>> = Vec::with_capacity(workers);
    batches.resize_with(workers, || None);
    {
        let f = &f;
        let next = &next;
        let backend = simd::thread_override();
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = batches
            .iter_mut()
            .map(|slot| {
                Box::new(move || {
                    simd::with_override(backend, || {
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= len {
                                break;
                            }
                            local.push((i, f(i)));
                        }
                        *slot = Some(local);
                    });
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool::run_tasks(tasks);
    }
    let mut out: Vec<Option<R>> = Vec::with_capacity(len);
    out.resize_with(len, || None);
    for batch in batches {
        for (i, r) in batch.expect("every worker completed") {
            debug_assert!(out[i].is_none(), "index {i} produced twice");
            out[i] = Some(r);
        }
    }
    out.into_iter()
        .map(|r| r.expect("every index was produced"))
        .collect()
}

/// Like [`map_range`], but serial when `total_work < min_work` —
/// sub-threshold sweeps never pay pool-dispatch latency. The caller
/// supplies `total_work` in whatever unit captures per-item cost
/// (e.g. total gradient elements `n·d` for a per-neuron inversion
/// sweep).
pub fn map_range_min<R, F>(len: usize, total_work: usize, min_work: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if total_work < min_work {
        return (0..len).map(f).collect();
    }
    map_range(len, f)
}

/// Runs `f(index, &items[index])` for every item on pool workers and
/// collects the results in input order.
///
/// Used by the FL server to evaluate clients concurrently and by the
/// scenario engine for parallel trials.
pub fn map_indexed<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    map_range(items.len(), |i| f(i, &items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn num_threads_is_positive() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn oasis_threads_override_parses_and_clamps() {
        // The parser is tested pure — mutating the process environment
        // from a multithreaded test binary would race concurrent
        // `getenv` calls in other tests.
        assert_eq!(env_thread_override("3"), Some(3));
        assert_eq!(env_thread_override(" 12 "), Some(12));
        assert_eq!(env_thread_override("0"), None, "zero falls back");
        assert_eq!(env_thread_override("-2"), None);
        assert_eq!(env_thread_override("not-a-number"), None);
        assert_eq!(env_thread_override(""), None);
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let outside = num_threads();
        let inside = with_threads(7, num_threads);
        assert_eq!(inside, 7);
        assert_eq!(num_threads(), outside, "override removed on exit");
        assert_eq!(with_threads(0, num_threads), 1, "clamped to at least 1");
    }

    #[test]
    fn with_threads_restores_on_panic() {
        let outside = num_threads();
        let result = std::panic::catch_unwind(|| {
            with_threads(5, || panic!("inner"));
        });
        assert!(result.is_err());
        assert_eq!(num_threads(), outside);
    }

    fn fill_rows(buf: &mut [f32], cols: usize) {
        for_each_row_block(buf, cols, |row0, block| {
            for (li, row) in block.chunks_mut(cols).enumerate() {
                for v in row.iter_mut() {
                    *v += (row0 + li) as f32;
                }
            }
        });
    }

    #[test]
    fn row_blocks_cover_every_row_once() {
        let (rows, cols) = (37, 5);
        for threads in [1, 3, 8] {
            let mut buf = vec![0.0f32; rows * cols];
            with_threads(threads, || fill_rows(&mut buf, cols));
            for (i, row) in buf.chunks(cols).enumerate() {
                assert!(
                    row.iter().all(|&v| v == i as f32),
                    "threads={threads} row {i} incorrect: {row:?}"
                );
            }
        }
    }

    #[test]
    fn empty_buffer_is_noop() {
        let mut buf: Vec<f32> = Vec::new();
        for_each_row_block(&mut buf, 4, |_, _| panic!("kernel must not run"));
    }

    #[test]
    #[should_panic(expected = "whole number of rows")]
    fn ragged_buffer_panics() {
        let mut buf = vec![0.0f32; 7];
        for_each_row_block(&mut buf, 3, |_, _| {});
    }

    #[test]
    fn kernel_panic_propagates_to_caller() {
        let result = std::panic::catch_unwind(|| {
            let mut buf = vec![0.0f32; 64];
            with_threads(4, || {
                for_each_row_block(&mut buf, 4, |row0, _| {
                    if row0 == 0 {
                        panic!("kernel failure");
                    }
                });
            });
        });
        assert!(result.is_err());
    }

    #[test]
    fn sub_threshold_buffers_stay_serial() {
        // A buffer below `min_len` must run as one serial block even
        // with a wide thread override: the kernel sees the whole
        // buffer at row 0 exactly once.
        let hits = std::sync::Mutex::new(Vec::new());
        let mut buf = vec![0.0f32; 32];
        with_threads(8, || {
            for_each_row_block_min(&mut buf, 4, 1024, |row0, block| {
                hits.lock().unwrap().push((row0, block.len()));
            });
        });
        assert_eq!(*hits.lock().unwrap(), vec![(0, 32)]);
    }

    #[test]
    fn map_indexed_preserves_order() {
        let items: Vec<u32> = (0..100).collect();
        for threads in [1, 4] {
            let out = with_threads(threads, || map_indexed(&items, |i, &v| (i as u32) * 2 + v));
            for (i, &v) in out.iter().enumerate() {
                assert_eq!(v, (i as u32) * 3, "threads={threads}");
            }
        }
    }

    #[test]
    fn map_indexed_handles_empty_input() {
        let items: Vec<u32> = Vec::new();
        let out: Vec<u32> = map_indexed(&items, |_, &v| v);
        assert!(out.is_empty());
    }

    #[test]
    fn map_indexed_single_item() {
        let out = map_indexed(&[41u32], |_, &v| v + 1);
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn map_range_matches_serial_at_any_width() {
        let serial: Vec<usize> = (0..53).map(|i| i * i).collect();
        for threads in [1, 2, 5, 16, 100] {
            let parallel = with_threads(threads, || map_range(53, |i| i * i));
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn nested_fronts_run_inline_and_stay_correct() {
        // map over items whose closure itself maps: the inner call
        // must not re-dispatch (nesting guard) and must produce the
        // same totals as fully-serial evaluation.
        let expected: Vec<usize> = (0..12).map(|i| (0..10).map(|j| i * j).sum()).collect();
        let got = with_threads(4, || {
            map_range(12, |i| map_range(10, |j| i * j).into_iter().sum::<usize>())
        });
        assert_eq!(got, expected);
    }
}
