//! Structured observability for the OASIS stack: hierarchical spans,
//! process-wide metrics, and two sinks (an in-memory self-time
//! summary and a JSON-lines trace file).
//!
//! # Design constraints
//!
//! The crate is std-only and sits below `oasis-tensor` in the
//! dependency graph so every layer — kernels, the worker pool, wire
//! codecs, FL rounds, scenario trials — can instrument itself.
//! Two properties are load-bearing:
//!
//! - **Disabled is (almost) free.** Everything is gated on one
//!   process-global [`AtomicBool`]; a [`span()`](fn@span) or counter update on
//!   the disabled path costs a relaxed load and a predictable branch.
//!   There is no compile-time feature flag to get wrong: the
//!   instrumentation is always compiled in. The perf suite's
//!   `fl_round_raw_telem`/`fl_round_raw` pair bounds what *recording*
//!   costs; no bench isolates the disabled path (see the README's
//!   Observability section).
//! - **Determinism is untouched.** Telemetry reads monotonic clocks
//!   and atomics but never RNG, and nothing downstream branches on a
//!   measured time. Runs with tracing on and off produce bit-identical
//!   weights, reports, and scenario JSON (`tests/telemetry_determinism.rs`).
//!
//! # Spans
//!
//! [`span()`](fn@span) returns an RAII guard; dropping it records a
//! [`SpanRecord`] into a lock-sharded global collector. Parent links
//! come from a thread-local cursor, so sibling tasks on the worker
//! pool nest under whatever span their thread was in (the caller's
//! phase span when the caller runs pool tasks inline, a fresh root on
//! a worker thread). [`take_spans`] drains the collector, sorted by
//! start time.
//!
//! ```
//! oasis_telemetry::enable();
//! {
//!     let _round = oasis_telemetry::span("fl.round");
//!     let decode = oasis_telemetry::span("fl.round.decode");
//!     let _elapsed_ns = decode.finish_ns();
//! }
//! let spans = oasis_telemetry::take_spans();
//! assert_eq!(spans.len(), 2);
//! oasis_telemetry::set_enabled(false);
//! ```
//!
//! # Metrics
//!
//! [`counter!`], [`gauge!`], and [`histogram!`] cache a `&'static`
//! handle per call site, so steady-state updates are one enabled-check
//! plus one atomic RMW. [`metrics_snapshot`] returns every registered
//! metric, sorted by name.

mod metrics;
mod summary;
mod trace;

pub use metrics::{
    counter, gauge, histogram, metrics_snapshot, reset_metrics, Counter, CounterSnapshot, Gauge,
    GaugeSnapshot, HistSnapshot, Histogram, MetricsSnapshot,
};
pub use summary::{coverage, fmt_ns, self_time_table, summarize, SpanStats};
pub use trace::{
    read_trace, read_trace_str, render_trace, validate_trace, write_trace, TraceData,
    TRACE_SCHEMA_VERSION,
};

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------
// The global switch
// ---------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether telemetry is currently recording. This is *the* hot-path
/// gate: a relaxed atomic load, nothing else.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on or off, returning the previous state so callers
/// (e.g. the perf harness) can save/restore around a measured region.
pub fn set_enabled(on: bool) -> bool {
    ENABLED.swap(on, Ordering::SeqCst)
}

/// Turns recording on. Prefer this over env-var mutation in tests:
/// `std::env::set_var` is unsound in multithreaded test binaries.
pub fn enable() {
    set_enabled(true);
}

/// The `OASIS_TRACE` trace-file path, if set and non-empty. CLIs call
/// this once at startup; the library never reads it on a hot path.
pub fn trace_path_from_env() -> Option<std::path::PathBuf> {
    match std::env::var("OASIS_TRACE") {
        Ok(p) if !p.is_empty() => Some(p.into()),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------

fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process-local telemetry epoch (first use).
/// Monotonic; never wall-clock.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// One closed span interval, as stored by the collector and written
/// to trace files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique per process run, assigned at entry; never 0.
    pub id: u64,
    /// Enclosing span's id on the same thread, or 0 for a root.
    pub parent: u64,
    /// Dotted static name, e.g. `fl.round.decode`.
    pub name: &'static str,
    /// Telemetry-local thread index (1-based, assignment order).
    pub tid: u64,
    /// Start offset from the telemetry epoch.
    pub start_ns: u64,
    /// Duration; `start_ns + dur_ns` is the end offset.
    pub dur_ns: u64,
}

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
    /// Innermost open span on this thread (0 = none).
    static CURRENT_SPAN: Cell<u64> = const { Cell::new(0) };
}

fn thread_tid() -> u64 {
    TID.with(|c| {
        let v = c.get();
        if v != 0 {
            v
        } else {
            let v = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            c.set(v);
            v
        }
    })
}

const SHARDS: usize = 16;

fn collector() -> &'static [Mutex<Vec<SpanRecord>>; SHARDS] {
    static COLLECTOR: OnceLock<[Mutex<Vec<SpanRecord>>; SHARDS]> = OnceLock::new();
    COLLECTOR.get_or_init(|| std::array::from_fn(|_| Mutex::new(Vec::new())))
}

fn push_record(record: SpanRecord) {
    let shard = (record.tid as usize) % SHARDS;
    collector()[shard]
        .lock()
        .expect("telemetry shard poisoned")
        .push(record);
}

/// Drains every collected span, sorted by `(start_ns, id)` so output
/// order is stable and parents precede their children.
pub fn take_spans() -> Vec<SpanRecord> {
    let mut all = Vec::new();
    for shard in collector() {
        all.append(&mut *shard.lock().expect("telemetry shard poisoned"));
    }
    all.sort_by_key(|r| (r.start_ns, r.id));
    all
}

/// Drops all collected spans and zeroes every metric. Test/bench
/// hygiene between measured regions.
pub fn reset() {
    take_spans();
    reset_metrics();
}

struct ActiveSpan {
    id: u64,
    prev: u64,
    name: &'static str,
    tid: u64,
    start_ns: u64,
}

/// RAII guard returned by [`span()`](fn@span); records the interval on drop.
///
/// Deliberately `!Send`: the parent link lives in a thread-local, so
/// a guard must close on the thread that opened it.
pub struct SpanGuard {
    inner: Option<ActiveSpan>,
    _not_send: PhantomData<*const ()>,
}

impl SpanGuard {
    /// Closes the span now and returns its duration in nanoseconds
    /// (0 if telemetry was disabled at entry). Lets instrumented code
    /// reuse the span clock for phase-timing fields instead of
    /// reading `Instant` twice.
    pub fn finish_ns(mut self) -> u64 {
        self.close()
    }

    fn close(&mut self) -> u64 {
        let Some(s) = self.inner.take() else { return 0 };
        let dur_ns = now_ns().saturating_sub(s.start_ns);
        CURRENT_SPAN.with(|c| c.set(s.prev));
        push_record(SpanRecord {
            id: s.id,
            parent: s.prev,
            name: s.name,
            tid: s.tid,
            start_ns: s.start_ns,
            dur_ns,
        });
        dur_ns
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.close();
    }
}

/// Opens a span. When telemetry is [`enabled`] the returned guard
/// records a [`SpanRecord`] on drop; when disabled this is a single
/// branch and the guard is inert.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            inner: None,
            _not_send: PhantomData,
        };
    }
    span_enabled(name)
}

#[cold]
fn span_enabled(name: &'static str) -> SpanGuard {
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let prev = CURRENT_SPAN.with(|c| c.replace(id));
    SpanGuard {
        inner: Some(ActiveSpan {
            id,
            prev,
            name,
            tid: thread_tid(),
            start_ns: now_ns(),
        }),
        _not_send: PhantomData,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The collector and the enabled flag are process-global and the
    // test harness is multithreaded; serialize tests that drain them.
    pub(crate) fn lock_telemetry() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: Mutex<()> = Mutex::new(());
        GUARD.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _t = lock_telemetry();
        let was = set_enabled(false);
        take_spans();
        {
            let _a = span("test.disabled");
        }
        assert!(take_spans().is_empty());
        set_enabled(was);
    }

    #[test]
    fn nested_spans_link_parents_and_contain_intervals() {
        let _t = lock_telemetry();
        let was = set_enabled(true);
        take_spans();
        {
            let _outer = span("test.outer");
            {
                let _inner = span("test.inner");
            }
            {
                let _inner = span("test.inner");
            }
        }
        let spans: Vec<SpanRecord> = take_spans()
            .into_iter()
            .filter(|s| s.name.starts_with("test."))
            .collect();
        set_enabled(was);
        assert_eq!(spans.len(), 3);
        let outer = spans.iter().find(|s| s.name == "test.outer").unwrap();
        let inners: Vec<_> = spans.iter().filter(|s| s.name == "test.inner").collect();
        assert_eq!(inners.len(), 2);
        for inner in inners {
            assert_eq!(inner.parent, outer.id);
            assert_eq!(inner.tid, outer.tid);
            assert!(inner.start_ns >= outer.start_ns);
            assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
        }
    }

    #[test]
    fn finish_ns_closes_early_and_restores_parent() {
        let _t = lock_telemetry();
        let was = set_enabled(true);
        take_spans();
        let outer = span("test.outer2");
        let inner = span("test.inner2");
        let dur = inner.finish_ns();
        // Sibling after an explicit finish must re-attach to outer,
        // not to the closed inner span.
        let sibling = span("test.sibling2");
        let sib_id_parent = {
            let _ = &sibling;
            sibling.finish_ns()
        };
        let _ = sib_id_parent;
        drop(outer);
        let spans: Vec<SpanRecord> = take_spans()
            .into_iter()
            .filter(|s| s.name.ends_with('2'))
            .collect();
        set_enabled(was);
        let outer = spans.iter().find(|s| s.name == "test.outer2").unwrap();
        let sibling = spans.iter().find(|s| s.name == "test.sibling2").unwrap();
        assert_eq!(sibling.parent, outer.id);
        assert!(dur <= outer.dur_ns);
    }

    #[test]
    fn spans_across_threads_get_distinct_tids_and_roots() {
        let _t = lock_telemetry();
        let was = set_enabled(true);
        take_spans();
        let main_tid = {
            let g = span("test.thread.main");
            let tid = g.inner.as_ref().unwrap().tid;
            drop(g);
            tid
        };
        let handle = std::thread::spawn(|| {
            let _g = span("test.thread.worker");
        });
        handle.join().unwrap();
        let spans: Vec<SpanRecord> = take_spans()
            .into_iter()
            .filter(|s| s.name.starts_with("test.thread."))
            .collect();
        set_enabled(was);
        let worker = spans
            .iter()
            .find(|s| s.name == "test.thread.worker")
            .unwrap();
        assert_ne!(worker.tid, main_tid);
        assert_eq!(worker.parent, 0, "fresh thread must start a root span");
    }
}
