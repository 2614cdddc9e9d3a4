//! `perf` — the kernel record pairs and their paired gate.
//!
//! Runs the fixed micro-benchmark suites of [`oasis_bench::perf`]
//! (one line per record on stderr) and applies [`perf::paired_gate`]
//! to each suite it has just run (one line per pair on stdout). Exit
//! status 1 when a gated pair is below its floor, when the gate
//! refuses a suite (a variant without its reference, or no pair at
//! all), or when the filter leaves nothing to time. This is the CI
//! gate. No file is written unless `--trace` asks for one.
//!
//! ```text
//! perf [--quick] [--suite core|fl|scale|all]... [--filter SUBSTR]
//!      [--trace PATH] [--list]
//! ```
//!
//! `--suite` may repeat to select several suites. `--filter` keeps
//! every record pair with a member whose name contains `SUBSTR`, so a
//! filtered run still times and gates whole pairs. `OASIS_THREADS`
//! sets the pool width of the `core` and `fl` records (the `scale`
//! suite pins its own per-bench thread counts and ignores it).

use std::path::PathBuf;
use std::process::ExitCode;

use oasis_bench::perf::{self, BenchSuite};

struct Args {
    quick: bool,
    suites: Vec<String>,
    filter: Option<String>,
    list: bool,
    trace: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        quick: false,
        suites: perf::SUITE_NAMES.iter().map(|s| s.to_string()).collect(),
        filter: None,
        list: false,
        trace: oasis_telemetry::trace_path_from_env(),
    };
    let mut suites_explicit = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--list" => args.list = true,
            "--suite" => {
                let v = it
                    .next()
                    .ok_or("--suite needs a value (core|fl|scale|all)")?;
                if v == "all" {
                    args.suites = perf::SUITE_NAMES.iter().map(|s| s.to_string()).collect();
                    suites_explicit = true;
                } else if perf::suite(&v).is_some() {
                    if !suites_explicit {
                        args.suites.clear();
                        suites_explicit = true;
                    }
                    if !args.suites.contains(&v) {
                        args.suites.push(v);
                    }
                } else {
                    return Err(format!(
                        "unknown suite `{v}` (expected core, fl, scale, or all)"
                    ));
                }
            }
            "--filter" => {
                args.filter = Some(it.next().ok_or("--filter needs a substring")?);
            }
            "--trace" => {
                args.trace = Some(PathBuf::from(it.next().ok_or("--trace needs a path")?));
            }
            "--help" | "-h" => {
                println!(
                    "perf [--quick] [--suite core|fl|scale|all]... [--filter SUBSTR] \
                     [--trace PATH] [--list]\n\
                     Times each suite's record pairs and gates every variant against \
                     its reference from the same run (`PAIR_RULES`); exits 1 when a \
                     pair fails its floor or a suite cannot be gated.\n\
                     --trace PATH (or OASIS_TRACE=PATH) records a schema-v1 JSONL span \
                     trace of the run and prints a self-time table; bench medians are \
                     measured with telemetry in whatever state the bench pins."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}` (see --help)")),
        }
    }
    Ok(args)
}

/// Prints one suite's paired gate, a header naming the host and one
/// line per pair, and returns whether the suite passed: every gated
/// pair at its floor, and no refusal.
fn gate(suite: &BenchSuite) -> bool {
    let points = match perf::paired_gate(suite) {
        Ok(points) => points,
        Err(msg) => {
            eprintln!("perf: {msg}");
            return false;
        }
    };
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
    !points.iter().any(perf::PairPoint::failed)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perf: {msg}");
            return ExitCode::FAILURE;
        }
    };

    if args.list {
        for name in &args.suites {
            let mut benches = perf::suite(name).expect("validated suite name");
            if let Some(f) = &args.filter {
                benches = perf::apply_filter(benches, f);
            }
            for b in benches {
                println!("{name}::{}", b.name);
            }
        }
        println!(
            "# telemetry: --trace PATH or OASIS_TRACE=PATH writes a JSONL span trace \
             (schema v1) and prints a self-time table"
        );
        return ExitCode::SUCCESS;
    }
    if args.trace.is_some() {
        oasis_telemetry::enable();
    }

    let (mut passed, mut gated_any) = (true, false);
    for name in &args.suites {
        eprintln!(
            "suite `{name}` (threads={}, {}):",
            oasis_tensor::parallel::num_threads(),
            if args.quick { "quick" } else { "full budget" },
        );
        let suite = perf::run_suite(name, args.filter.as_deref(), args.quick)
            .expect("validated suite name");
        if suite.results.is_empty() {
            eprintln!("  (filter matched nothing)");
            continue;
        }
        gated_any = true;
        passed &= gate(&suite);
    }
    if !gated_any {
        eprintln!("perf: the filter left no record to gate");
        passed = false;
    }
    if let Some(path) = &args.trace {
        let spans = oasis_telemetry::take_spans();
        let metrics = oasis_telemetry::metrics_snapshot();
        match oasis_telemetry::write_trace(path, &spans, &metrics) {
            Ok(()) => {
                eprintln!("trace -> {} ({} spans)", path.display(), spans.len());
                eprint!(
                    "{}",
                    oasis_telemetry::self_time_table(&oasis_telemetry::summarize(&spans))
                );
            }
            Err(e) => {
                eprintln!("perf: cannot write trace {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    if !passed {
        eprintln!("perf: performance gate failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
