//! `e2ebench` — the end-to-end benchmark of the OASIS reproduction.
//!
//! ```text
//! e2ebench --workload attack_grid|fl_defended|fl_scale --seed N --seconds S --trace 0|1
//! e2ebench --write-reference [--workload NAME]
//! ```
//!
//! Drives the public library API (`Scenario::run`, `CampaignRunner`)
//! in a closed loop from one process. `--trace 0` measures the
//! end-to-end metrics with telemetry off; `--trace 1` runs the same ops
//! untraced and then traced, and prints the per-layer metrics. The last
//! stdout line is the JSON result. See README.md.

mod host;
mod layers;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use host::{json_str, peak_rss_mb, ProcStat};
use layers::{per_layer, TracedPass, PER_LAYER};
use workload::{compare, Bench, Kind, Outputs, Work, DEFAULT_SEED};

const USAGE: &str = "usage: e2ebench --workload attack_grid|fl_defended|fl_scale \
                     --seed N --seconds S --trace 0|1\n       \
                     e2ebench --write-reference [--workload NAME]";

/// Set-up runs at least `SETUP_REPS` times and for at least
/// `SETUP_MIN_S` seconds per run; `setup_s` is the median. The time
/// floor gives a cheap set-up (tens of ms) enough repetitions to outlast
/// a short slow spell of a shared host.
const SETUP_REPS: usize = 5;
const SETUP_MIN_S: f64 = 1.0;

/// Every end-to-end metric, with its unit, in output order.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("trials_per_s", "1/s"),
    ("rounds_per_s", "1/s"),
    ("updates_per_s", "1/s"),
    ("round_p50_ms", "ms"),
    ("round_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

struct Args {
    kind: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        kind: None,
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
        write_reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-reference" {
            args.write_reference = true;
            continue;
        }
        let value = it.next().ok_or(format!("`{flag}` needs a value"))?;
        let bad = || format!("bad value `{value}` for `{flag}`");
        match flag.as_str() {
            "--workload" => args.kind = Some(Kind::parse(&value).ok_or_else(bad)?),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if args.kind.is_none() && !args.write_reference {
        return Err("`--workload` is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let pool_width = pin_threads(args.kind.map_or(1, Kind::pool_width));
    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let repo = bench_dir.parent().unwrap_or(bench_dir);
    println!("{}", host::fingerprint_json(repo, pool_width));

    let result = if args.write_reference {
        let referenced = Kind::ALL.into_iter().filter(|k| k.has_reference());
        let kinds = args.kind.map_or(referenced.collect(), |k| vec![k]);
        kinds
            .into_iter()
            .try_for_each(|k| write_reference(k, args.seconds, bench_dir))
            .map(|()| None)
    } else {
        let kind = args.kind.expect("checked in parse_args");
        if args.trace {
            traced_run(kind, args.seed, args.seconds, pool_width, bench_dir).map(Some)
        } else {
            timed_run(kind, args.seed, args.seconds).map(Some)
        }
    };
    match result {
        Ok(Some(line)) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Ok(None) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Pins the worker pool through `OASIS_THREADS` (kept if the caller
/// set it, else `width` capped at the machine's parallelism) and
/// returns the resolved width. Runs before any thread exists.
fn pin_threads(width: usize) -> usize {
    if std::env::var_os("OASIS_THREADS").is_none() {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        std::env::set_var("OASIS_THREADS", width.min(nproc).to_string());
    }
    oasis_tensor::parallel::num_threads()
}

/// Attempted and failed ops, the work done, per-round wall times and
/// the wall time of all ops.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    work: Work,
    round_ms: Vec<f64>,
    elapsed_s: f64,
}

/// Runs `ops` closed-loop ops; each starts when the previous returns.
fn run_ops(bench: &mut Bench, ops: usize, tally: &mut Tally) {
    let run_started = Instant::now();
    for _ in 0..ops {
        tally.attempted += 1;
        let started = Instant::now();
        match bench.op() {
            Ok(work) => {
                let ms = started.elapsed().as_secs_f64() * 1e3;
                tally.round_ms.push(ms / work.rounds.max(1) as f64);
                tally.work += work;
            }
            Err(e) => {
                eprintln!("e2ebench: op failed: {e}");
                tally.failed += 1;
                if bench.broken() {
                    break;
                }
            }
        }
    }
    tally.elapsed_s += run_started.elapsed().as_secs_f64();
}

/// Checks outputs against the committed reference (at the default
/// seed) and counts mismatches as failures.
fn check_reference(kind: Kind, seed: u64, outputs: &Outputs, tally: &mut Tally) {
    if seed != DEFAULT_SEED {
        return;
    }
    if !kind.has_reference() {
        eprintln!("e2ebench: {} has no committed reference", kind.name());
        return;
    }
    let (checked, mismatched) = compare(outputs, &kind.reference(), "reference");
    eprintln!("e2ebench: {checked} outputs checked against reference, {mismatched} differ");
    if checked == 0 {
        eprintln!("e2ebench: no reference covers this run length");
    }
    tally.failed += mismatched;
}

/// Nearest-rank percentile of an unsorted sample.
fn percentile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn result_json(tally: &Tally, metrics: &[(&str, f64)], units: &[(&str, &str)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|&(name, value)| {
            let unit = units
                .iter()
                .find(|(n, _)| *n == name)
                .map_or("", |(_, u)| u);
            // `+ 0.0` turns the -0.0 of an empty float sum into 0.
            let value = if value.is_finite() { value + 0.0 } else { 0.0 };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    let failed = tally.failed.min(tally.attempted);
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && tally.attempted > 0,
        tally.attempted.max(1),
        fields.join(", ")
    )
}

/// The end-to-end run: the repeated set-up, then the timed ops with
/// telemetry off.
fn timed_run(kind: Kind, seed: u64, seconds: f64) -> Result<String, String> {
    let ops = kind.ops(seconds);
    let mut setup_s: Vec<f64> = Vec::new();
    let mut bench = None;
    while setup_s.len() < SETUP_REPS || setup_s.iter().sum::<f64>() < SETUP_MIN_S {
        drop(bench.take());
        let started = Instant::now();
        bench = Some(Bench::setup(kind, seed, ops, false)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("set-up ran at least once");

    let mut tally = Tally::default();
    run_ops(&mut bench, ops, &mut tally);

    let (outputs, failed) = bench.outputs();
    tally.failed += failed;
    check_reference(kind, seed, &outputs, &mut tally);
    let rate = |n: u64| n as f64 / tally.elapsed_s;
    eprintln!(
        "e2ebench: {} {ops} ops in {:.3} s; {} round times (p90 has {} above it)",
        kind.name(),
        tally.elapsed_s,
        tally.round_ms.len(),
        tally.round_ms.len() / 10
    );
    let metrics = [
        ("setup_s", percentile(&setup_s, 0.5)),
        ("trials_per_s", rate(tally.work.trials)),
        ("rounds_per_s", rate(tally.work.rounds)),
        ("updates_per_s", rate(tally.work.updates)),
        ("round_p50_ms", percentile(&tally.round_ms, 0.5)),
        ("round_p90_ms", percentile(&tally.round_ms, 0.9)),
        ("peak_rss_mb", peak_rss_mb()),
    ];
    Ok(result_json(&tally, &metrics, &END_TO_END))
}

/// The traced run: the same ops untraced, then traced from a fresh
/// set-up; the outputs of the two must be identical.
fn traced_run(
    kind: Kind,
    seed: u64,
    seconds: f64,
    pool_width: usize,
    bench_dir: &Path,
) -> Result<String, String> {
    let ops = kind.ops(seconds / 2.0);
    let mut untraced = Tally::default();
    let mut bench = Bench::setup(kind, seed, ops, false)?;
    let proc_before = ProcStat::read();
    run_ops(&mut bench, ops, &mut untraced);
    let untraced_s = untraced.elapsed_s;
    let proc_untraced = ProcStat::read().since(proc_before);
    let (plain_outputs, failed) = bench.outputs();
    untraced.failed += failed;
    drop(bench);

    oasis_telemetry::reset();
    oasis_telemetry::enable();
    let mut traced = Tally::default();
    let mut bench = Bench::setup(kind, seed, ops, true)?;
    run_ops(&mut bench, ops, &mut traced);
    let traced_s = traced.elapsed_s;
    oasis_telemetry::set_enabled(false);
    let spans = oasis_telemetry::take_spans();
    let metrics = oasis_telemetry::metrics_snapshot();

    let (traced_outputs, failed) = bench.outputs();
    traced.failed += failed + untraced.failed;
    traced.attempted += untraced.attempted;
    let (_, differ) = compare(&traced_outputs, &plain_outputs, "traced vs untraced");
    if traced_outputs.len() != plain_outputs.len() {
        eprintln!("e2ebench: traced and untraced runs produced different output sets");
        traced.failed += 1;
    }
    traced.failed += differ;
    check_reference(kind, seed, &traced_outputs, &mut traced);

    let path = trace_path(bench_dir, kind, seed);
    check_trace(&path, &spans, &metrics, &mut traced);

    if kind != Kind::AttackGrid {
        // Every client update builds one model, plus the global model.
        let calls = oasis_telemetry::counter("fl.model_factory.calls").get();
        let updates = oasis_telemetry::counter("fl.clients_computed").get();
        if calls != updates + 1 {
            eprintln!("e2ebench: {calls} factory calls for {updates} updates");
            traced.failed += 1;
        }
    }
    let layer = per_layer(&TracedPass {
        spans: &spans,
        records: bench.records(),
        ops,
        pool_width,
        proc_untraced,
        untraced_s,
        traced_s,
        attempted: traced.attempted,
        failed: traced.failed,
    });
    eprintln!(
        "e2ebench: traced {} {ops} ops: {untraced_s:.3} s untraced, {traced_s:.3} s traced; trace {}",
        kind.name(),
        path.display()
    );
    Ok(result_json(&traced, &layer, &PER_LAYER))
}

fn trace_path(bench_dir: &Path, kind: Kind, seed: u64) -> PathBuf {
    bench_dir
        .join("out")
        .join(format!("trace-{}-seed{seed}.jsonl", kind.name()))
}

/// Writes the trace through `write_trace` and checks it the way
/// `trace_check` does: it must parse, validate, and hold every span.
fn check_trace(
    path: &Path,
    spans: &[oasis_telemetry::SpanRecord],
    metrics: &oasis_telemetry::MetricsSnapshot,
    tally: &mut Tally,
) {
    let checked = oasis_telemetry::write_trace(path, spans, metrics)
        .map_err(|e| e.to_string())
        .and_then(|()| oasis_telemetry::read_trace(path).map_err(|e| e.to_string()))
        .and_then(|trace| {
            oasis_telemetry::validate_trace(&trace)?;
            if trace.spans.len() == spans.len() {
                Ok(())
            } else {
                Err(format!(
                    "{} of {} spans read back",
                    trace.spans.len(),
                    spans.len()
                ))
            }
        });
    if let Err(e) = checked {
        eprintln!("e2ebench: trace {} fails its check: {e}", path.display());
        tally.failed += 1;
    }
}

/// Regenerates `reference/<workload>.txt` at the default seed for the
/// run lengths of an end-to-end and a traced run of `seconds`.
fn write_reference(kind: Kind, seconds: f64, bench_dir: &Path) -> Result<(), String> {
    if !kind.has_reference() {
        return Err(format!("{} has no committed reference", kind.name()));
    }
    let mut outputs = Outputs::new();
    let mut lengths = vec![kind.ops(seconds), kind.ops(seconds / 2.0)];
    lengths.dedup();
    for ops in lengths {
        let mut bench = Bench::setup(kind, DEFAULT_SEED, ops, false)?;
        let mut tally = Tally::default();
        run_ops(&mut bench, ops, &mut tally);
        let (produced, failed) = bench.outputs();
        if tally.failed + failed > 0 {
            return Err(format!("{}: reference run failed", kind.name()));
        }
        outputs.extend(produced);
    }
    let mut text = format!(
        "# e2ebench reference outputs: {} at seed {DEFAULT_SEED}, --seconds {seconds}.\n\
         # Regenerate: cargo run --release --manifest-path e2ebench/Cargo.toml -- \
         --write-reference --workload {}\n",
        kind.name(),
        kind.name()
    );
    for (key, value) in &outputs {
        text.push_str(&format!("{key}\t{value}\n"));
    }
    let path = bench_dir
        .join("reference")
        .join(format!("{}.txt", kind.name()));
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "e2ebench: wrote {} ({} outputs)",
        path.display(),
        outputs.len()
    );
    Ok(())
}
