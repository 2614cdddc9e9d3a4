//! `trace_check` — validate an `oasis-telemetry` JSONL trace file.
//!
//! ```text
//! trace_check <trace.jsonl> [--summary] [--min-spans N] [--min-coverage F]
//! ```
//!
//! Checks the structural invariants the schema promises (see
//! `oasis_telemetry::validate_trace`): a version-1 meta line first,
//! unique nonzero span ids, file order monotone in `(start_ns, id)`,
//! and every parent present, on the same thread, and enclosing its
//! child's interval. `--summary` additionally prints the per-span
//! self-time table CI attaches as an artifact. `--min-coverage F`
//! prints the trace's coverage (`oasis_telemetry::coverage`: the share
//! of the driving thread's root spans that their direct children
//! account for, `e2ebench`'s `trace.coverage`) and requires it to be at
//! least `F`. Exit 1 on any violation, so CI can gate on it.

use std::path::PathBuf;
use std::process::ExitCode;

use oasis_telemetry::{coverage, read_trace, self_time_table, summarize, validate_trace};

const USAGE: &str = "trace_check <trace.jsonl> [--summary] [--min-spans N] [--min-coverage F]";

fn main() -> ExitCode {
    let mut path: Option<PathBuf> = None;
    let mut summary = false;
    let mut min_spans = 1usize;
    let mut min_coverage: Option<f64> = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--summary" => summary = true,
            "--min-spans" => {
                min_spans = match it.next().and_then(|v| v.parse().ok()) {
                    Some(n) => n,
                    None => {
                        eprintln!("trace_check: --min-spans needs a number\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--min-coverage" => {
                min_coverage = match it.next().and_then(|v| v.parse::<f64>().ok()) {
                    Some(f) if (0.0..=1.0).contains(&f) => Some(f),
                    _ => {
                        eprintln!("trace_check: --min-coverage needs a number in [0, 1]\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if path.is_none() && !other.starts_with('-') => {
                path = Some(PathBuf::from(other));
            }
            other => {
                eprintln!("trace_check: unknown argument `{other}`\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(path) = path else {
        eprintln!("trace_check: missing trace path\n{USAGE}");
        return ExitCode::FAILURE;
    };

    let trace = match read_trace(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trace_check: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = validate_trace(&trace) {
        eprintln!("trace_check: {}: invalid trace: {e}", path.display());
        return ExitCode::FAILURE;
    }
    if trace.spans.len() < min_spans {
        eprintln!(
            "trace_check: {}: only {} span(s), expected >= {min_spans}",
            path.display(),
            trace.spans.len()
        );
        return ExitCode::FAILURE;
    }
    println!(
        "{}: ok (schema v{}, {} spans, {} counters, {} gauges, {} histograms)",
        path.display(),
        trace.schema_version,
        trace.spans.len(),
        trace.metrics.counters.len(),
        trace.metrics.gauges.len(),
        trace.metrics.histograms.len(),
    );
    if let Some(floor) = min_coverage {
        let Some(got) = coverage(&trace.spans) else {
            eprintln!("trace_check: {}: no op time to cover", path.display());
            return ExitCode::FAILURE;
        };
        println!("coverage {got:.4} (floor {floor})");
        if got < floor {
            eprintln!(
                "trace_check: {}: coverage {got:.4} is below {floor}",
                path.display()
            );
            return ExitCode::FAILURE;
        }
    }
    if summary {
        print!("{}", self_time_table(&summarize(&trace.spans)));
    }
    ExitCode::SUCCESS
}
