//! `ab_e2e` — two `e2ebench` builds compared in alternating pairs.
//!
//! ```text
//! ab_e2e <parent-e2ebench> <change-e2ebench> <workload> <seconds> <pairs>
//! ```
//!
//! Runs each binary `pairs` times, untraced, at `--seed 1`, one run of
//! each per pair, and flips which of the two runs first in every pair,
//! so a slow phase of the host lands on both sides. Every run must end
//! with `"correct": true`, or the tool stops with exit status 1.
//!
//! For each end-to-end metric of `BENCHMARK.json` that the workload
//! reports, it prints the parent's and the change's median and q1–q3,
//! the number of pairs in which the change was better, and the ratio of
//! the medians (change / parent). `beyond IQR` says whether the medians
//! differ, in the better direction, by more than the parent's q3 − q1.
//! Under it, marked informational, come the `proc.*` metrics of the
//! `per_layer` list, from each whole run's accounting as a child. The
//! environment passes through, so `OASIS_SIMD` or `OASIS_THREADS`
//! apply to both builds. `tools/ab_e2e` wraps this binary.

use std::process::{Command, ExitCode};

const USAGE: &str = "ab_e2e <parent-e2ebench> <change-e2ebench> <workload> <seconds> <pairs>";

/// An end-to-end metric and whether higher values are better.
struct Metric {
    name: String,
    higher_is_better: bool,
}

/// The metrics of `list` (`end_to_end` or `per_layer`) declared in
/// `BENCHMARK.json`.
fn declared_metrics(list: &str) -> Result<Vec<Metric>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    let root: serde::Value = serde_json::from_str(&text).map_err(|e| format!("{e}"))?;
    let Some(serde::Value::Array(entries)) = root.get(list) else {
        return Err(format!("BENCHMARK.json has no {list} list"));
    };
    entries
        .iter()
        .map(|e| {
            let field = |k: &str| e.get(k).and_then(serde::Value::as_str);
            match (field("name"), field("better")) {
                (Some(name), Some(better)) => Ok(Metric {
                    name: name.to_owned(),
                    higher_is_better: better == "higher",
                }),
                _ => Err(format!("a {list} entry lacks its name or direction")),
            }
        })
        .collect()
}

/// The `proc.*` metrics of the `per_layer` list, as
/// [`children_counters`] reads them.
const PROC: [&str; 3] = ["proc.minor_faults", "proc.user_cpu_s", "proc.sys_cpu_s"];

/// Minor faults and user and system CPU seconds of this process's
/// waited-for children: `cminflt`, `cutime` and `cstime` of
/// `/proc/self/stat`, counted from the state letter after the
/// parenthesised command name, times in 100 Hz ticks (all zero where
/// `/proc` is unavailable).
fn children_counters() -> [f64; 3] {
    let text = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let rest = text.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |i: usize| -> f64 { fields.get(i).and_then(|v| v.parse().ok()).unwrap_or(0.0) };
    [field(8), field(13) / 100.0, field(14) / 100.0]
}

/// Runs one build and returns its metrics, `(name, value)`, after
/// checking that the run was correct, with its `proc.*` counters.
fn run(bin: &str, workload: &str, seconds: &str) -> Result<Vec<(String, f64)>, String> {
    let before = children_counters();
    let out = Command::new(bin)
        .args(["--workload", workload, "--seed", "1", "--seconds", seconds])
        .args(["--trace", "0"])
        .output()
        .map_err(|e| format!("cannot run {bin}: {e}"))?;
    let after = children_counters();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result: serde::Value =
        serde_json::from_str(last).map_err(|e| format!("{bin}: last line is not JSON: {e}"))?;
    if result.get("correct") != Some(&serde::Value::Bool(true)) {
        return Err(format!(
            "{bin} did not report \"correct\": true\n{}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let Some(serde::Value::Object(metrics)) = result.get("metrics") else {
        return Err(format!("{bin}: no metrics in its result line"));
    };
    let counters = PROC.into_iter().zip(after).zip(before);
    Ok(metrics
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .chain(counters.map(|((name, end), start)| (name.to_owned(), end - start)))
        .collect())
}

/// The `p`-quantile of `v` (sorted), interpolating between ranks.
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let at = p * (sorted.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
}

/// `(q1, median, q3)` of `values`.
fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    (
        quantile(&sorted, 0.25),
        quantile(&sorted, 0.5),
        quantile(&sorted, 0.75),
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [parent, change, workload, seconds, pairs] = &args[..] else {
        eprintln!("usage: {USAGE}");
        return ExitCode::from(2);
    };
    let Ok(pairs) = pairs.parse::<usize>() else {
        eprintln!("ab_e2e: bad pair count `{pairs}`\nusage: {USAGE}");
        return ExitCode::from(2);
    };
    match compare(parent, change, workload, seconds, pairs.max(1)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ab_e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

fn compare(
    parent: &str,
    change: &str,
    workload: &str,
    seconds: &str,
    pairs: usize,
) -> Result<(), String> {
    let mut metrics = declared_metrics("end_to_end")?;
    let end_to_end = metrics.len();
    let per_layer = declared_metrics("per_layer")?.into_iter();
    metrics.extend(per_layer.filter(|m| PROC.contains(&m.name.as_str())));
    // runs[side][pair]: side 0 is the parent, 1 the change.
    let mut runs: [Vec<Vec<(String, f64)>>; 2] = [Vec::new(), Vec::new()];
    for pair in 0..pairs {
        let order = if pair % 2 == 0 { [0, 1] } else { [1, 0] };
        for side in order {
            let bin = [parent, change][side];
            let values = run(bin, workload, seconds)?;
            let label = ["parent", "change"][side];
            let shown: Vec<String> = metrics[..end_to_end]
                .iter()
                .filter_map(|m| values.iter().find(|(k, _)| *k == m.name))
                .map(|(k, v)| format!("{k}={v:.4}"))
                .collect();
            eprintln!("pair {}/{pairs} {label}: {}", pair + 1, shown.join(" "));
            runs[side].push(values);
        }
    }
    println!(
        "{workload}, {seconds} s runs, {pairs} alternating pairs (parent {parent}, change {change})"
    );
    println!(
        "{:<18} {:<7} {:>30} {:>30} {:>7} {:>7} {:>11}",
        "metric",
        "better",
        "parent median [q1–q3]",
        "change median [q1–q3]",
        "wins",
        "ratio",
        "beyond IQR"
    );
    let num = |v: f64| format!("{v:.*}", if v.abs() >= 1e3 { 0 } else { 4 });
    for (i, m) in metrics.iter().enumerate() {
        if i == end_to_end {
            println!("informational: process counters of each whole run (per_layer proc.*)");
        }
        let side = |s: usize| -> Option<Vec<f64>> {
            runs[s]
                .iter()
                .map(|r| r.iter().find(|(k, _)| *k == m.name).map(|&(_, v)| v))
                .collect()
        };
        let (Some(p), Some(c)) = (side(0), side(1)) else {
            continue;
        };
        let better = |a: f64, b: f64| {
            if m.higher_is_better {
                a > b
            } else {
                a < b
            }
        };
        let wins = c.iter().zip(&p).filter(|(c, p)| better(**c, **p)).count();
        let (pq1, pm, pq3) = quartiles(&p);
        let (cq1, cm, cq3) = quartiles(&c);
        let beyond = better(cm, pm) && (cm - pm).abs() > pq3 - pq1;
        println!(
            "{:<18} {:<7} {:>30} {:>30} {:>7} {:>7.3} {:>11}",
            m.name,
            if m.higher_is_better {
                "higher"
            } else {
                "lower"
            },
            format!("{} [{}–{}]", num(pm), num(pq1), num(pq3)),
            format!("{} [{}–{}]", num(cm), num(cq1), num(cq3)),
            format!("{wins}/{pairs}"),
            cm / pm,
            if beyond { "yes" } else { "no" }
        );
    }
    Ok(())
}
