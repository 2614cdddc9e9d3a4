//! `scenario` — run any attack × defense × workload experiment, or a
//! sweep over comma-separated spec lists, from the command line.
//!
//! ```text
//! cargo run --release -p oasis-bench --bin scenario -- \
//!     --attack rtf:512 --defense oasis:MR --workload imagenette --quick
//!
//! # sweep: 2 attacks × 3 defenses × 2 batch sizes = 12 scenarios
//! cargo run --release -p oasis-bench --bin scenario -- \
//!     --attack rtf:512,cah:400 --defense none,oasis:MR,oasis:MR+SH \
//!     --batch 8,64 --quick
//! ```
//!
//! Every run prints its report and writes the serialized
//! `ScenarioReport` JSON under `out/` (or `$OASIS_OUT_DIR`). A sweep's
//! cells run through one [`Sweep`], so cells that share a dataset,
//! calibration set or calibrated attack build it once.
//! Unknown flags are errors, not silently ignored.

use oasis_bench::{
    out_path, run_campaign, spec_catalog, AttackSpec, CampaignSpec, CodecSpec, DefenseSpec,
    NetSpec, PopulationSpec, SampleSpec, Scale, Scenario, ScenarioError, Sweep, WorkloadSpec,
};
use oasis_scenario::ScenarioBuilder;
use std::process::ExitCode;

const USAGE: &str = "\
scenario — declarative OASIS experiment runner

USAGE:
    scenario [FLAGS]

FLAGS (comma-separated lists sweep the grid):
    --attack SPECS      rtf:N | cah:N[,G] | qbi:N[,B] |
                        linear                            [default: rtf:512]
    --defense SPECS     none | oasis:P | ats | dp:C,S | clip:C,
                        or a `+`-stack, e.g. oasis:MR+dp:1,0.01
                        (P ∈ WO, MR, mR, SH, HFlip, VFlip, MR+SH)
                                                          [default: none]
    --workload SPECS    imagenette | cifar100 |
                        imagenette100c | cifar100c        [default: imagenette]
    --codec SPECS       raw | q8 | topk:K | sign          [default: raw]
    --net SPECS         ideal | sim:LAT,BW,DROP[,DL]      [default: ideal]
                        (latency ms, bandwidth Mbit/s, drop
                        probability, straggler deadline ms)
    --population NS     deployment size(s) cohorts are
                        sampled from (population:N or N)   [default: legacy wire]
    --sample KS         cohort size(s) per attacked round
                        (sample:K or K; needs --population)
                                                          [default: min(N, 64)]
    --batch SIZES       client batch size(s) B            [default: 8]
    --trials N          attacked rounds pooled per cell   [default: per scale]
    --seed N            master seed                       [default: 0]
    --dataset-seed N    decouple the dataset build seed from --seed
    --calibration N     calibration images for the attacker
    --sampling MODE     uniform | unique-labels           [default: per attack]
    --leak-db DB        leak-rate PSNR threshold          [default: 60]
    --scale S           quick | default | full            [default: default]
    --quick / --full    shorthand for --scale
    --campaign SPEC     run a multi-phase campaign instead of
                        single-shot trials: campaign:PHASE[;PHASE...],
                        each phase ROUNDS[+join=F][+leave=F][+alpha=A]
                        [+net=SPEC][+attack=S[|S...]]; one campaign
                        per --defense, trajectory JSONL under out/
    --eval-every N      campaign adversary probe period (0 = never)
                                                          [default: 5]
    --no-save           print reports without writing out/*.json
    --trace PATH        enable telemetry: write a schema-v1 JSONL span
                        trace to PATH and print a self-time summary
                        table on exit (env: OASIS_TRACE=PATH)
    --list-specs        list every spec grammar and exit
    --help              this text

Artifacts go to out/ by default; set OASIS_OUT_DIR to redirect.
Tracing never changes results: reports are bit-identical with
--trace on or off (see README `Observability`).";

struct Args {
    attacks: Vec<AttackSpec>,
    defenses: Vec<DefenseSpec>,
    workloads: Vec<WorkloadSpec>,
    codecs: Vec<CodecSpec>,
    nets: Vec<NetSpec>,
    populations: Vec<usize>,
    samples: Vec<usize>,
    batches: Vec<usize>,
    /// The per-scenario flags every sweep cell shares.
    base: ScenarioBuilder,
    seed: u64,
    scale: Scale,
    save: bool,
    trace: Option<std::path::PathBuf>,
    campaign: Option<CampaignSpec>,
    eval_every: usize,
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if raw.iter().any(|a| a == "--list-specs") {
        print!("{}", spec_catalog());
        println!(
            "telemetry:\n    --trace PATH (or OASIS_TRACE=PATH) writes a schema-v1 JSONL \
             span trace\n    and prints a per-span self-time table; results are unchanged."
        );
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if args.trace.is_some() {
        oasis_telemetry::enable();
    }

    let (mut failures, noun) = match args.campaign.clone() {
        Some(spec) => (run_campaign_mode(&args, spec), "campaign"),
        None => (run_sweep_mode(&args), "scenario"),
    };
    if let Some(path) = &args.trace {
        let spans = oasis_telemetry::take_spans();
        let metrics = oasis_telemetry::metrics_snapshot();
        match oasis_telemetry::write_trace(path, &spans, &metrics) {
            Ok(()) => {
                println!("trace -> {} ({} spans)", path.display(), spans.len());
                print!(
                    "{}",
                    oasis_telemetry::self_time_table(&oasis_telemetry::summarize(&spans))
                );
            }
            Err(e) => {
                eprintln!("error: writing trace {} failed: {e}", path.display());
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("{failures} {noun}(s) failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Every cell of the sweep, labelled for its error line, in flag order
/// workload › attack › defense › codec › net › population › sample ›
/// batch (the last varies fastest).
fn cells(args: &Args) -> Vec<(String, Result<Scenario, ScenarioError>)> {
    let base = args.base.clone().scale(args.scale).seed(args.seed);
    let axes = [
        args.workloads.len(),
        args.attacks.len(),
        args.defenses.len(),
        args.codecs.len(),
        args.nets.len(),
        args.populations.len(),
        args.samples.len(),
        args.batches.len(),
    ];
    (0..axes.iter().product())
        .map(|mut i| {
            let mut pick = [0; 8];
            for (p, &len) in pick.iter_mut().zip(&axes).rev() {
                *p = i % len;
                i /= len;
            }
            let workload = args.workloads[pick[0]];
            let attack = &args.attacks[pick[1]];
            let defense = &args.defenses[pick[2]];
            let codec = args.codecs[pick[3]];
            let net = args.nets[pick[4]];
            let population = args.populations[pick[5]];
            let sample = args.samples[pick[6]];
            let batch = args.batches[pick[7]];
            let label = format!(
                "attack={attack} defense={defense} workload={workload} codec={codec} net={net} \
                 population={population} sample={sample} batch={batch}"
            );
            let cell = base
                .clone()
                .workload(workload)
                .attack(attack.clone())
                .defense(defense.clone())
                .codec(codec)
                .net(net)
                .population(population)
                .sample(sample)
                .batch_size(batch)
                .build();
            (label, cell)
        })
        .collect()
}

/// The sweep mode: every cell through one [`Sweep`], each printing its
/// report and (unless `--no-save`) writing it under `out/`. Returns
/// the number of failed cells.
fn run_sweep_mode(args: &Args) -> u32 {
    let cells = cells(args);
    if cells.len() > 1 {
        println!("sweep: {} scenarios", cells.len());
    }
    let mut sweep = Sweep::default();
    let mut failures = 0u32;
    for (label, cell) in cells {
        let report = match cell.and_then(|cell| sweep.run(&cell)) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("error: scenario {label} failed: {e}");
                failures += 1;
                continue;
            }
        };
        println!("{report}");
        if args.save {
            match report.save() {
                Ok(path) => println!("  report -> {}", path.display()),
                Err(e) => {
                    eprintln!("error: saving report failed: {e}");
                    failures += 1;
                }
            }
        }
        println!();
    }
    failures
}

/// The `--campaign` mode: one campaign per `--defense` over the
/// first `--workload`, each printing a per-phase summary and writing
/// its trajectory JSONL under `out/`. Returns the number of failed
/// campaigns.
fn run_campaign_mode(args: &Args, spec: CampaignSpec) -> u32 {
    let workload = args.workloads[0];
    let clients = match args.populations.first() {
        Some(&n) if n > 0 => n,
        _ => 24,
    };
    println!(
        "campaign {spec} — {} clients on {workload}, probe every {} round(s)",
        clients, args.eval_every
    );
    let mut failures = 0u32;
    for defense in &args.defenses {
        let runner = match run_campaign(
            spec.clone(),
            defense.clone(),
            workload,
            args.scale,
            clients,
            args.seed,
            args.eval_every,
        ) {
            Ok(runner) => runner,
            Err(e) => {
                eprintln!("error: campaign defense={defense} failed: {e}");
                failures += 1;
                continue;
            }
        };
        println!("\ndefense {defense}:");
        print_campaign_summary(&runner);
        if args.save {
            let label = defense.to_string();
            let file = format!("trajectory_{}.jsonl", label.replace([':', '+', ','], "-"));
            let path = out_path(&file);
            match runner.trajectory(&label).write(&path) {
                Ok(()) => println!("  trajectory -> {}", path.display()),
                Err(e) => {
                    eprintln!("error: writing {} failed: {e}", path.display());
                    failures += 1;
                }
            }
        }
    }
    failures
}

/// Per-phase aggregates of a finished campaign: delivery, churn,
/// utility proxy, and the adversary's worst probe.
fn print_campaign_summary(runner: &oasis_bench::CampaignRunner) {
    println!(
        "  {:>5} {:>7} {:>10} {:>8} {:>10} {:>12} {:>10}",
        "phase", "rounds", "delivered", "churned", "acc proxy", "peak PSNR", "leak max"
    );
    let phases = runner.spec().phases().len();
    for phase in 0..phases {
        let records: Vec<_> = runner
            .records()
            .iter()
            .filter(|r| r.phase == phase)
            .collect();
        if records.is_empty() {
            continue;
        }
        let rounds = records.len();
        let delivered: usize = records.iter().map(|r| r.delivered).sum();
        let cohort: usize = records.iter().map(|r| r.cohort).sum();
        let churned: usize = records.iter().map(|r| r.churn_left + r.churn_joined).sum();
        let acc = records.iter().map(|r| r.accuracy_proxy).sum::<f64>() / rounds as f64;
        let psnr = records
            .iter()
            .filter_map(|r| r.mean_psnr)
            .fold(f64::NEG_INFINITY, f64::max);
        let leak = records
            .iter()
            .filter_map(|r| r.leak_rate)
            .fold(f64::NEG_INFINITY, f64::max);
        println!(
            "  {:>5} {:>7} {:>9}% {:>8} {:>10.3} {:>12} {:>10}",
            phase,
            rounds,
            (delivered * 100).checked_div(cohort).unwrap_or(0),
            churned,
            acc,
            if psnr.is_finite() {
                format!("{psnr:.1} dB")
            } else {
                "-".into()
            },
            if leak.is_finite() {
                format!("{:.0}%", leak * 100.0)
            } else {
                "-".into()
            },
        );
    }
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        attacks: vec![AttackSpec::rtf(512)],
        defenses: vec![DefenseSpec::none()],
        workloads: vec![WorkloadSpec::ImageNette],
        codecs: vec![CodecSpec::Raw],
        nets: vec![NetSpec::Ideal],
        populations: vec![0],
        samples: vec![0],
        batches: vec![8],
        base: Scenario::builder(),
        seed: 0,
        scale: Scale::Default,
        save: true,
        trace: oasis_telemetry::trace_path_from_env(),
        campaign: None,
        eval_every: 5,
    };
    let mut base = Scenario::builder();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--attack" => args.attacks = parse_list(value("--attack")?, "attack")?,
            "--defense" => args.defenses = parse_list(value("--defense")?, "defense")?,
            "--workload" => args.workloads = parse_list(value("--workload")?, "workload")?,
            "--codec" => args.codecs = parse_list(value("--codec")?, "codec")?,
            "--net" => args.nets = parse_list(value("--net")?, "net")?,
            "--population" => {
                args.populations =
                    parse_list::<PopulationSpec>(value("--population")?, "population")?
                        .into_iter()
                        .map(|p| p.clients)
                        .collect();
            }
            "--sample" => {
                args.samples = parse_list::<SampleSpec>(value("--sample")?, "sample")?
                    .into_iter()
                    .map(|k| k.cohort)
                    .collect();
            }
            "--batch" => {
                args.batches = parse_list(value("--batch")?, "batch size")?;
            }
            "--trials" => base = base.trials(parse_one(value("--trials")?, "trial count")?),
            "--seed" => args.seed = parse_one(value("--seed")?, "seed")?,
            "--dataset-seed" => {
                base = base.dataset_seed(parse_one(value("--dataset-seed")?, "dataset seed")?);
            }
            "--calibration" => {
                base = base.calibration(parse_one(value("--calibration")?, "calibration count")?);
            }
            "--sampling" => base = base.sampling(parse_one(value("--sampling")?, "sampling")?),
            "--leak-db" => {
                base = base.leak_threshold_db(parse_one(value("--leak-db")?, "leak threshold")?);
            }
            "--scale" => args.scale = parse_one(value("--scale")?, "scale")?,
            "--quick" => args.scale = Scale::Quick,
            "--full" => args.scale = Scale::Full,
            "--no-save" => args.save = false,
            "--campaign" => {
                args.campaign = Some(parse_one(value("--campaign")?, "campaign spec")?);
            }
            "--eval-every" => {
                args.eval_every = parse_one(value("--eval-every")?, "probe period")?;
            }
            "--trace" => args.trace = Some(value("--trace")?.into()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    args.base = base;
    Ok(args)
}

/// Parses one value, mapping the error to a CLI message.
fn parse_one<T>(value: &str, what: &str) -> Result<T, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    value
        .parse()
        .map_err(|e| format!("bad {what} `{value}`: {e}"))
}

/// Parses a comma-separated sweep list.
///
/// Some specs contain commas themselves (`cah:N,G`, `dp:C,S`), so
/// list items are matched greedily: each item consumes as many
/// comma-separated segments as still parse as one spec.
fn parse_list<T>(value: &str, what: &str) -> Result<Vec<T>, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    let segments: Vec<&str> = value.split(',').filter(|s| !s.is_empty()).collect();
    let mut items = Vec::new();
    let mut i = 0;
    while i < segments.len() {
        let mut candidate = String::new();
        let mut matched: Option<(usize, T)> = None;
        for (j, segment) in segments.iter().enumerate().skip(i) {
            if j > i {
                candidate.push(',');
            }
            candidate.push_str(segment);
            if let Ok(item) = candidate.parse::<T>() {
                matched = Some((j, item));
            }
        }
        match matched {
            Some((j, item)) => {
                items.push(item);
                i = j + 1;
            }
            // Nothing starting at segment `i` parses; surface the
            // single-segment error for context.
            None => match parse_one::<T>(segments[i], what) {
                Err(msg) => return Err(msg),
                Ok(_) => unreachable!("greedy match missed a parseable segment"),
            },
        }
    }
    if items.is_empty() {
        return Err(format!("empty {what} list"));
    }
    Ok(items)
}
