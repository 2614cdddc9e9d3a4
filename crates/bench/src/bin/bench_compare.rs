//! `bench_compare` — the paired gate on one of `perf`'s
//! `BENCH_*.json` records.
//!
//! ```text
//! bench_compare <run.json>
//! ```
//!
//! It applies [`perf::paired_gate`]: every variant record (`_simd`,
//! `_wide`, `_telem`, `_100k`) against its reference sibling measured
//! in the same run, at the floors of [`perf::PAIR_RULES`]. The check is
//! machine-relative, so it holds on any host. A `_wide` record runs on
//! every core of its host ([`perf::wide_threads`], at least two), so
//! its pair gates on any host with two or more cores and prints as
//! `info` on one core. This is the CI gate.
//!
//! The file is validated first ([`perf::BenchSuite::from_json`]).
//! Exit status 1 on a failed pair, a refused input, or any argument
//! count but one. `tools/bench_compare` wraps this binary.

use std::process::ExitCode;

use oasis_bench::perf::{self, BenchSuite};

const USAGE: &str = "bench_compare <run.json>    paired gate within one run";

/// Prints every pair of one run and reports whether any failed.
fn run_paired_gate(path: &str) -> Result<bool, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let suite = BenchSuite::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
    let points = perf::paired_gate(&suite)?;
    println!(
        "suite `{}`: paired gate on {} ({} cores, {} threads, simd {})",
        suite.suite, suite.cpu, suite.nproc, suite.threads, suite.simd
    );
    for p in &points {
        let tag = if !p.gated {
            "info"
        } else if p.failed() {
            "FAIL"
        } else {
            "ok"
        };
        println!(
            "  {tag:<5} {:<26} {:>12} ns vs {:<26} {:>12} ns  ({:.2}x, floor {:.2})",
            p.variant,
            p.variant_ns,
            p.reference,
            p.reference_ns,
            p.ratio(),
            p.floor
        );
    }
    Ok(points.iter().any(perf::PairPoint::failed))
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        std::process::exit(0);
    }
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        return Err(format!("unknown flag `{flag}` (see --help)"));
    }
    match args.as_slice() {
        [run] => run_paired_gate(run),
        _ => Err(format!("expected one file\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => {
            eprintln!("bench_compare: performance gate failed");
            ExitCode::FAILURE
        }
        Err(msg) => {
            eprintln!("bench_compare: {msg}");
            ExitCode::FAILURE
        }
    }
}
