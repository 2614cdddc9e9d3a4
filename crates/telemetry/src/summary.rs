//! The in-memory sink: flamegraph-style self-time aggregation over a
//! batch of [`SpanRecord`]s and a fixed-width summary table.

use crate::SpanRecord;
use std::collections::HashMap;

/// Aggregated statistics for every span sharing one name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanStats {
    /// Span name (`fl.round.decode`, …).
    pub name: &'static str,
    /// How many spans closed under this name.
    pub count: u64,
    /// Sum of wall durations. Recursive same-name nesting double
    /// counts here, as in any flamegraph "total" column.
    pub total_ns: u64,
    /// Total minus time attributed to child spans — where the time
    /// was actually spent.
    pub self_ns: u64,
    /// Median single-span duration (exact, not bucketed).
    pub p50_ns: u64,
    /// 99th-percentile single-span duration (exact).
    pub p99_ns: u64,
    /// Longest single span.
    pub max_ns: u64,
}

/// Folds a batch of span records into per-name statistics, sorted by
/// self time descending (ties broken by name for determinism).
///
/// Self time is `duration − Σ(direct children durations)`, clamped at
/// zero; a child whose parent is absent from `records` (still open at
/// drain time, or drained separately) contributes to no parent.
pub fn summarize(records: &[SpanRecord]) -> Vec<SpanStats> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for r in records {
        if r.parent != 0 {
            *child_ns.entry(r.parent).or_insert(0) += r.dur_ns;
        }
    }
    let mut by_name: HashMap<&'static str, (u64, u64, u64, Vec<u64>)> = HashMap::new();
    for r in records {
        let self_ns = r
            .dur_ns
            .saturating_sub(child_ns.get(&r.id).copied().unwrap_or(0));
        let entry = by_name.entry(r.name).or_insert((0, 0, 0, Vec::new()));
        entry.0 += 1;
        entry.1 += r.dur_ns;
        entry.2 += self_ns;
        entry.3.push(r.dur_ns);
    }
    let mut stats: Vec<SpanStats> = by_name
        .into_iter()
        .map(|(name, (count, total_ns, self_ns, mut durs))| {
            durs.sort_unstable();
            SpanStats {
                name,
                count,
                total_ns,
                self_ns,
                p50_ns: percentile(&durs, 0.50),
                p99_ns: percentile(&durs, 0.99),
                max_ns: *durs.last().expect("count ≥ 1"),
            }
        })
        .collect();
    stats.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(b.name)));
    stats
}

/// How much of the ops' wall time their direct children account for:
/// `e2ebench`'s `trace.coverage`, the children's total duration over
/// the ops'. The ops are the root spans of the thread that opened the
/// earliest span, the thread driving the run; root spans of other
/// threads are pool work the ops dispatched, not ops. `None` when
/// there are no spans or the ops last 0 ns.
pub fn coverage(records: &[SpanRecord]) -> Option<f64> {
    let driver = records.iter().min_by_key(|r| (r.start_ns, r.id))?.tid;
    let ops: HashMap<u64, u64> = records
        .iter()
        .filter(|r| r.parent == 0 && r.tid == driver)
        .map(|r| (r.id, r.dur_ns))
        .collect();
    let op_ns: u64 = ops.values().sum();
    let child_ns: u64 = records
        .iter()
        .filter(|r| ops.contains_key(&r.parent))
        .map(|r| r.dur_ns)
        .sum();
    (op_ns > 0).then(|| child_ns as f64 / op_ns as f64)
}

/// Nearest-rank percentile over an ascending-sorted slice.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Renders `stats` as a fixed-width table (one header row, one row
/// per span name), durations scaled to a human unit per cell:
///
/// ```text
/// span                           count      total       self        p50        p99
/// fl.round.compute                   3    45.1ms     44.9ms     15.0ms     15.3ms
/// ```
pub fn self_time_table(stats: &[SpanStats]) -> String {
    let name_w = stats
        .iter()
        .map(|s| s.name.len())
        .chain(["span".len()])
        .max()
        .unwrap_or(4)
        .max(4);
    let mut out = String::new();
    out.push_str(&format!(
        "{:<name_w$} {:>7} {:>10} {:>10} {:>10} {:>10}\n",
        "span", "count", "total", "self", "p50", "p99"
    ));
    for s in stats {
        out.push_str(&format!(
            "{:<name_w$} {:>7} {:>10} {:>10} {:>10} {:>10}\n",
            s.name,
            s.count,
            fmt_ns(s.total_ns),
            fmt_ns(s.self_ns),
            fmt_ns(s.p50_ns),
            fmt_ns(s.p99_ns),
        ));
    }
    out
}

/// `1234567` → `"1.23ms"`; picks ns/µs/ms/s to keep 3 significant
/// digits readable.
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, name: &'static str, start: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name,
            tid: 1,
            start_ns: start,
            dur_ns: dur,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // round(100) ⊃ decode(60) ⊃ codec(40); round self = 40,
        // decode self = 20, codec self = 40.
        let records = vec![
            rec(1, 0, "round", 0, 100),
            rec(2, 1, "decode", 10, 60),
            rec(3, 2, "codec", 20, 40),
        ];
        let stats = summarize(&records);
        let get = |n: &str| stats.iter().find(|s| s.name == n).unwrap();
        assert_eq!(get("round").self_ns, 40);
        assert_eq!(get("decode").self_ns, 20);
        assert_eq!(get("codec").self_ns, 40);
        assert_eq!(get("round").total_ns, 100);
        // Sorted by self time descending, name ascending on ties.
        assert_eq!(stats[0].name, "codec");
        assert_eq!(stats[1].name, "round");
    }

    #[test]
    fn aggregates_counts_and_percentiles_per_name() {
        let records: Vec<SpanRecord> = (0..100)
            .map(|i| rec(i + 1, 0, "op", i * 10, i + 1))
            .collect();
        let stats = summarize(&records);
        assert_eq!(stats.len(), 1);
        let s = &stats[0];
        assert_eq!(s.count, 100);
        assert_eq!(s.total_ns, 5050);
        assert_eq!(s.self_ns, 5050);
        assert_eq!(s.p50_ns, 50);
        assert_eq!(s.p99_ns, 99);
        assert_eq!(s.max_ns, 100);
    }

    #[test]
    fn orphan_children_do_not_underflow_parents() {
        // A child pointing at an id that is not in the batch.
        let records = vec![rec(2, 99, "child", 0, 50)];
        let stats = summarize(&records);
        assert_eq!(stats[0].self_ns, 50);
    }

    #[test]
    fn coverage_is_the_driving_threads_ops_covered_by_their_children() {
        let on = |tid, r: SpanRecord| SpanRecord { tid, ..r };
        let records = vec![
            // Two ops on the driving thread: 80 of 100 and 10 of 20 ns
            // are children; a grandchild adds nothing.
            rec(1, 0, "op", 0, 100),
            rec(2, 1, "a", 0, 50),
            rec(3, 2, "deep", 0, 50),
            rec(4, 1, "b", 60, 30),
            rec(5, 0, "op", 200, 20),
            rec(6, 5, "c", 205, 10),
            // A worker's root span is not an op.
            on(2, rec(7, 0, "task", 10, 500)),
        ];
        assert_eq!(coverage(&records), Some(90.0 / 120.0));
        assert_eq!(coverage(&[]), None);
        assert_eq!(coverage(&[rec(1, 0, "op", 5, 0)]), None);
    }

    #[test]
    fn table_has_header_and_one_row_per_name() {
        let records = vec![rec(1, 0, "a", 0, 1_500), rec(2, 0, "b", 0, 2_000_000)];
        let table = self_time_table(&summarize(&records));
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("span"));
        assert!(table.contains("1.50us"));
        assert!(table.contains("2.00ms"));
    }
}
