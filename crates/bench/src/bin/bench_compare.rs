//! `bench_compare` — checks `perf`'s `BENCH_*.json` records.
//!
//! ```text
//! bench_compare <run.json>                    # the paired gate
//! bench_compare <baseline.json> <current.json> # same-host absolute diff
//! ```
//!
//! With one file it applies [`perf::paired_gate`]: every variant
//! record (`_simd`, `_t4`, `_telem`, `_100k`) against its reference
//! sibling measured in the same run, at the floors of
//! [`perf::PAIR_RULES`]. The check is machine-relative, so it holds on
//! any host; pairs wider than the host's core count print as `info`.
//! This is the CI gate.
//!
//! With two files it diffs absolute medians ([`perf::compare_suites`]):
//! warn past [`perf::WARN_PCT`], fail past [`perf::FAIL_PCT`] or when
//! a bench disappeared. Runs from different hosts or settings are
//! refused — their medians track the machine, not the code.
//!
//! Every loaded file is validated first ([`perf::BenchSuite::from_json`]).
//! Exit status 1 on a failed pair, a failed or missing bench, or any
//! refused input. `tools/bench_compare` wraps this binary.

use std::process::ExitCode;

use oasis_bench::perf::{self, BenchSuite, DeltaClass};

const USAGE: &str = "bench_compare <run.json>                     paired gate within one run\n\
                     bench_compare <baseline.json> <current.json> same-host absolute diff";

fn load(path: &str) -> Result<BenchSuite, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    BenchSuite::from_json(&text).map_err(|e| format!("{path}: {e}"))
}

/// Prints every pair of one run and reports whether any failed.
fn run_paired_gate(path: &str) -> Result<bool, String> {
    let suite = load(path)?;
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

/// Prints the absolute diff of two same-host runs and reports whether
/// it failed.
fn run_diff(baseline_path: &str, current_path: &str) -> Result<bool, String> {
    let baseline = load(baseline_path)?;
    let current = load(current_path)?;
    let report = perf::compare_suites(&baseline, &current)?;
    println!(
        "suite `{}`: {} benches vs baseline (warn >{}%, fail >{}%)",
        baseline.suite,
        report.deltas.len(),
        perf::WARN_PCT,
        perf::FAIL_PCT
    );
    for d in &report.deltas {
        match d.class {
            DeltaClass::Missing => {
                println!("  FAIL  {:<26} missing from current run", d.name);
            }
            DeltaClass::New => {
                println!("  new   {:<26} {} ns (no baseline)", d.name, d.cur_ns);
            }
            class => {
                let tag = match class {
                    DeltaClass::Fail => "FAIL",
                    DeltaClass::Warn => "warn",
                    _ => "ok",
                };
                println!(
                    "  {tag:<5} {:<26} {:>12} -> {:>12} ns  ({:+.1}%)",
                    d.name, d.base_ns, d.cur_ns, d.pct
                );
            }
        }
    }
    Ok(report.failed)
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
        [baseline, current] => run_diff(baseline, current),
        _ => Err(format!("expected one or two files\n{USAGE}")),
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
