//! Per-layer metrics of a traced pass, read from the spans and
//! counters the program already emits plus the benchmark's own spans
//! (`bench.*`, `data.build`, `campaign.build`, `fl.model_factory`).
//!
//! Times are totals over the traced pass in milliseconds, summed over
//! threads; counts are totals; shares and rates are ratios.

use std::collections::HashMap;

use oasis_campaign::TrajectoryRecord;
use oasis_telemetry::{summarize, SpanRecord, SpanStats};

use crate::host::ProcStat;

/// Every per-layer metric, with its unit, in output order.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("scenario.setup_ms", "ms"),
    ("scenario.trial_ms", "ms"),
    ("attack.setup_ms", "ms"),
    ("attack.client_step_self_ms", "ms"),
    ("attack.reconstruct_ms", "ms"),
    ("attack.score_ms", "ms"),
    ("tensor.matmul_ms", "ms"),
    ("tensor.matmul_calls", "count"),
    ("tensor.gflops", "GFLOP/s"),
    ("pool.busy_ms", "ms"),
    ("pool.task_wait_ms", "ms"),
    ("pool.inline_share", "ratio"),
    ("fl.model_factory.calls", "count"),
    ("fl.model_factory_ms", "ms"),
    ("fl.client_self_ms", "ms"),
    ("fl.round.step_ms", "ms"),
    ("fl.round.broadcast_ms", "ms"),
    ("fl.round.hydrate_ms", "ms"),
    ("fl.round.select_ms", "ms"),
    ("fl.round.deliver_ms", "ms"),
    ("fl.delivered_share", "ratio"),
    ("fl.updates_computed", "count"),
    ("wire.encode_ms", "ms"),
    ("wire.decode_ms", "ms"),
    ("wire.bytes_encoded", "bytes"),
    ("wire.decode.borrowed_share", "ratio"),
    ("agg.fold_ms", "ms"),
    ("agg.peak_accum_bytes", "bytes"),
    ("campaign.self_ms", "ms"),
    ("campaign.probe_ms", "ms"),
    ("campaign.probes", "count"),
    ("data.build_ms", "ms"),
    ("population.partition_ms", "ms"),
    ("proc.user_cpu_s", "s"),
    ("proc.sys_cpu_s", "s"),
    ("proc.minor_faults", "count"),
    ("trace.ops", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
    ("error_rate", "ratio"),
];

/// What a traced pass produced besides its spans.
pub struct TracedPass<'a> {
    pub spans: &'a [SpanRecord],
    pub records: &'a [TrajectoryRecord],
    pub ops: usize,
    pub pool_width: usize,
    /// Process counters around the untraced pass of the same ops.
    pub proc_untraced: ProcStat,
    pub untraced_s: f64,
    pub traced_s: f64,
    pub attempted: u64,
    pub failed: u64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

const MS: f64 = 1e6;

/// Computes every metric of [`PER_LAYER`], in that order.
pub fn per_layer(pass: &TracedPass<'_>) -> Vec<(&'static str, f64)> {
    let stats: HashMap<&str, SpanStats> = summarize(pass.spans)
        .into_iter()
        .map(|s| (s.name, s))
        .collect();
    let total = |name: &str| stats.get(name).map_or(0, |s| s.total_ns) as f64;
    let self_ns = |name: &str| stats.get(name).map_or(0, |s| s.self_ns) as f64;
    let count = |name: &str| stats.get(name).map_or(0, |s| s.count) as f64;
    let prefixed = |prefix: &str, f: &dyn Fn(&SpanStats) -> u64| -> f64 {
        stats
            .values()
            .filter(|s| s.name.starts_with(prefix))
            .map(f)
            .sum::<u64>() as f64
    };
    let counter = |name: &'static str| oasis_telemetry::counter(name).get() as f64;

    let matmuls = ["tensor.matmul", "tensor.matmul_tn", "tensor.matmul_nt"];
    let matmul_ns: f64 = matmuls.iter().map(|n| total(n)).sum();
    let matmul_calls: f64 = matmuls.iter().map(|n| count(n)).sum();
    let decode_spans = prefixed("wire.decode.", &|s| s.count);

    let ops: Vec<&SpanRecord> = pass
        .spans
        .iter()
        .filter(|s| s.name == "bench.cell" || s.name == "bench.round")
        .collect();
    let op_ids: std::collections::HashSet<u64> = ops.iter().map(|s| s.id).collect();
    let op_ns: f64 = ops.iter().map(|s| s.dur_ns as f64).sum();
    // Direct children of the ops: the program's top-level spans.
    let op_children_ns: f64 = pass
        .spans
        .iter()
        .filter(|s| op_ids.contains(&s.parent))
        .map(|s| s.dur_ns as f64)
        .sum();
    let probe_ns: f64 = pass
        .spans
        .iter()
        .filter(|s| op_ids.contains(&s.parent) && s.name.starts_with("attack."))
        .map(|s| s.dur_ns as f64)
        .sum();

    let delivered: usize = pass.records.iter().map(|r| r.delivered).sum();
    let cohort: usize = pass.records.iter().map(|r| r.cohort).sum();
    let probes = pass.records.iter().filter(|r| r.attack.is_some()).count();
    let peak_accum = oasis_telemetry::gauge("agg.peak_accum_bytes").max().max(0);

    vec![
        ("scenario.setup_ms", total("scenario.setup") / MS),
        ("scenario.trial_ms", total("scenario.trial") / MS),
        ("attack.setup_ms", total("attack.setup") / MS),
        (
            "attack.client_step_self_ms",
            self_ns("attack.client_step") / MS,
        ),
        ("attack.reconstruct_ms", total("attack.reconstruct") / MS),
        ("attack.score_ms", total("attack.score") / MS),
        ("tensor.matmul_ms", matmul_ns / MS),
        ("tensor.matmul_calls", matmul_calls),
        (
            "tensor.gflops",
            ratio(counter("tensor.matmul_flops"), matmul_ns),
        ),
        ("pool.busy_ms", counter("pool.busy_us") / 1e3),
        (
            "pool.task_wait_ms",
            oasis_telemetry::histogram("pool.task_wait_us").sum() as f64 / 1e3,
        ),
        (
            "pool.inline_share",
            ratio(counter("pool.inline_tasks"), counter("pool.tasks")),
        ),
        ("fl.model_factory.calls", counter("fl.model_factory.calls")),
        ("fl.model_factory_ms", total("fl.model_factory") / MS),
        ("fl.client_self_ms", client_self_ns(pass) / MS),
        ("fl.round.step_ms", total("fl.round.step") / MS),
        ("fl.round.broadcast_ms", total("fl.round.broadcast") / MS),
        ("fl.round.hydrate_ms", total("fl.round.hydrate") / MS),
        ("fl.round.select_ms", total("fl.round.select") / MS),
        ("fl.round.deliver_ms", total("fl.round.deliver") / MS),
        ("fl.delivered_share", ratio(delivered as f64, cohort as f64)),
        ("fl.updates_computed", counter("fl.clients_computed")),
        (
            "wire.encode_ms",
            prefixed("wire.encode.", &|s| s.total_ns) / MS,
        ),
        (
            "wire.decode_ms",
            prefixed("wire.decode.", &|s| s.total_ns) / MS,
        ),
        ("wire.bytes_encoded", counter("wire.bytes_encoded")),
        (
            "wire.decode.borrowed_share",
            ratio(counter("wire.decode.borrowed"), decode_spans),
        ),
        ("agg.fold_ms", total("agg.fold") / MS),
        ("agg.peak_accum_bytes", peak_accum as f64),
        ("campaign.self_ms", self_ns("bench.round") / MS),
        ("campaign.probe_ms", probe_ns / MS),
        ("campaign.probes", probes as f64),
        ("data.build_ms", total("data.build") / MS),
        ("population.partition_ms", self_ns("campaign.build") / MS),
        ("proc.user_cpu_s", pass.proc_untraced.user_s),
        ("proc.sys_cpu_s", pass.proc_untraced.sys_s),
        ("proc.minor_faults", pass.proc_untraced.minor_faults as f64),
        ("trace.ops", pass.ops as f64),
        ("trace.coverage", ratio(op_children_ns, op_ns)),
        (
            "trace.overhead_pct",
            (ratio(pass.traced_s, pass.untraced_s) - 1.0) * 100.0,
        ),
        (
            "error_rate",
            ratio(pass.failed as f64, pass.attempted as f64),
        ),
    ]
}

/// Client-step time no span explains, in thread-nanoseconds: the
/// compute phase's wall time on every pool thread, minus the named
/// spans running in it — children of `fl.round.compute` on the calling
/// thread and root spans a pool worker opened during it (the factory
/// wrapper, codecs, kernels). What remains is augmentation, the DP
/// stage, and nn-layer work outside matmul, which have no spans yet.
/// With one thread this is exactly compute self time minus factory
/// time; with more it also counts a worker left idle by an odd wave.
fn client_self_ns(pass: &TracedPass<'_>) -> f64 {
    let mut computes: Vec<&SpanRecord> = pass
        .spans
        .iter()
        .filter(|s| s.name == "fl.round.compute")
        .collect();
    computes.sort_by_key(|s| s.start_ns);
    let Some(caller) = computes.first().map(|s| s.tid) else {
        return 0.0;
    };
    let ids: std::collections::HashSet<u64> = computes.iter().map(|s| s.id).collect();
    let inside = |t: u64| {
        let i = computes.partition_point(|c| c.start_ns <= t);
        i > 0 && t < computes[i - 1].start_ns + computes[i - 1].dur_ns
    };
    let named: u64 = pass
        .spans
        .iter()
        .filter(|s| {
            ids.contains(&s.parent) || (s.tid != caller && s.parent == 0 && inside(s.start_ns))
        })
        .map(|s| s.dur_ns)
        .sum();
    let wall: u64 = computes.iter().map(|s| s.dur_ns).sum();
    (wall as f64 * pass.pool_width as f64 - named as f64).max(0.0)
}
