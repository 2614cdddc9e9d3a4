//! `perf` — the machine-readable kernel and record-pair record.
//!
//! Runs the fixed micro-benchmark suites of [`oasis_bench::perf`] and
//! serializes one versioned `BENCH_<suite>.json` per suite, stamped
//! with the host it ran on, into `out/` (or `$OASIS_OUT_DIR`, see
//! [`oasis_scenario::out_path`]). `tools/bench_compare <file>` applies
//! the paired gate to one run.
//!
//! ```text
//! perf [--quick] [--suite core|fl|scale|all]... [--filter SUBSTR]
//!      [--trace PATH] [--list]
//! ```
//!
//! `--suite` may repeat to select several suites. `--filter` keeps
//! every record pair with a member whose name contains `SUBSTR`, so a
//! filtered file stays gateable. `OASIS_THREADS`
//! sets the pool width of the `core` and `fl` records (the `scale`
//! suite pins its own per-bench thread counts and ignores it).

use std::path::PathBuf;
use std::process::ExitCode;

use oasis_bench::perf;

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

    for name in &args.suites {
        eprintln!(
            "suite `{name}` (threads={}, {}):",
            oasis_tensor::parallel::num_threads(),
            if args.quick { "quick" } else { "full budget" },
        );
        let suite = perf::run_suite(name, args.filter.as_deref(), args.quick)
            .expect("validated suite name");
        if suite.results.is_empty() {
            eprintln!("  (filter matched nothing — no JSON written)");
            continue;
        }
        let json = serde_json::to_string_pretty(&suite).expect("schema serializes");
        let path = oasis_scenario::out_path(&format!("BENCH_{name}.json"));
        if let Err(e) = std::fs::write(&path, json + "\n") {
            eprintln!("perf: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("{}", path.display());
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
    ExitCode::SUCCESS
}
