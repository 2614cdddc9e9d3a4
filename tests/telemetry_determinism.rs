//! Tracing is observation, not participation: running the exact same
//! workload with telemetry recording on and off produces bit-identical
//! weights, round reports, and scenario trial JSON — at any thread
//! count — while the traced run additionally emits a valid schema-v1
//! span trace whose per-round phase breakdown accounts for ≥ 90 % of
//! the round wall clock.
//!
//! A traced [`Sweep`] also shows its sharing: a grid of cells builds
//! each distinct dataset, calibration set and attack once, and every
//! report equals the cell's standalone run.
//!
//! Telemetry state is process-global, so every test here serializes
//! on one mutex and restores the enabled flag it found.

use std::sync::{Arc, Mutex, MutexGuard};

use oasis_data::cifar_like_with;
use oasis_fl::{DefenseStack, FlConfig, FlServer, ModelFactory, RoundReport};
use oasis_nn::{flatten_params, Linear, Relu, Sequential};
use oasis_population::{CohortRunner, Population};
use oasis_scenario::{Scale, Scenario, ScenarioReport, Sweep};
use oasis_tensor::parallel;
use rand::rngs::StdRng;
use rand::SeedableRng;

static TELEMETRY_LOCK: Mutex<()> = Mutex::new(());

/// Serializes telemetry-touching tests and leaves global state clean.
fn telemetry_test() -> MutexGuard<'static, ()> {
    let guard = TELEMETRY_LOCK
        .lock()
        .unwrap_or_else(|poison| poison.into_inner());
    oasis_telemetry::set_enabled(false);
    oasis_telemetry::reset();
    guard
}

/// The `thread_determinism` FL fixture: 4 clients, 3 rounds.
fn run_fl(threads: usize, traced: bool) -> (Vec<f32>, Vec<RoundReport>) {
    parallel::with_threads(threads, || {
        let was = oasis_telemetry::set_enabled(traced);
        let data = cifar_like_with(10, 8, 16, 0);
        let d = data.feature_dim();
        let factory: ModelFactory = Arc::new(move || {
            let mut rng = StdRng::seed_from_u64(12);
            let mut m = Sequential::new();
            m.push(Linear::new(d, 64, &mut rng));
            m.push(Relu::new());
            m.push(Linear::new(64, 10, &mut rng));
            m
        });
        let clients = Population::iid(
            &data,
            4,
            Arc::new(DefenseStack::identity()),
            &mut StdRng::seed_from_u64(13),
        );
        let server = FlServer::new(factory, FlConfig::default()).expect("server");
        let mut runner = CohortRunner::new(server, clients);
        let reports: Vec<RoundReport> = runner.run(3, 14).expect("rounds");
        oasis_telemetry::set_enabled(was);
        (flatten_params(runner.server().model()), reports)
    })
}

/// The `thread_determinism` scenario fixture, returning the trial
/// JSON (every matched-PSNR bit pattern).
fn run_scenario(threads: usize, traced: bool) -> String {
    parallel::with_threads(threads, || {
        let was = oasis_telemetry::set_enabled(traced);
        let scenario = Scenario::builder()
            .workload("imagenette".parse().expect("workload"))
            .attack("rtf:48".parse().expect("attack"))
            .batch_size(4)
            .trials(2)
            .scale(Scale::Quick)
            .seed(0x5EED)
            .calibration(32)
            .build()
            .expect("scenario");
        let report = scenario.run().expect("run");
        oasis_telemetry::set_enabled(was);
        serde_json::to_string(&report.trials).expect("serialize")
    })
}

#[test]
fn traced_fl_run_is_bit_identical_to_untraced() {
    let _guard = telemetry_test();
    let (weights_off, reports_off) = run_fl(1, false);
    for threads in [1, 2, 4] {
        let (weights_on, reports_on) = run_fl(threads, true);
        let counters = oasis_telemetry::metrics_snapshot().counters;
        oasis_telemetry::reset();
        let counter = |name: &str| {
            counters
                .iter()
                .find(|c| c.name == name)
                .map_or(0, |c| c.value)
        };
        // Every frame a round encodes is delivered and decoded once:
        // sizing the delivery plan encodes nothing.
        assert!(counter("wire.bytes_encoded") > 0, "no frames traced");
        assert_eq!(
            counter("wire.bytes_encoded"),
            counter("wire.bytes_decoded"),
            "encoded bytes that were never sent at t={threads}"
        );
        assert_eq!(weights_on, weights_off, "weights diverged at t={threads}");
        // RoundReport equality deliberately ignores `timings`
        // (wall-clock measurement, not protocol outcome) — every
        // protocol field must match bit for bit.
        assert_eq!(reports_on, reports_off, "reports diverged at t={threads}");
        for (a, b) in reports_on.iter().zip(&reports_off) {
            assert_eq!(a.participants, b.participants);
            assert_eq!(a.mean_loss.to_bits(), b.mean_loss.to_bits());
            assert_eq!(a.update_norm.to_bits(), b.update_norm.to_bits());
            assert!(a.timings.is_some(), "traced run must record timings");
            assert!(b.timings.is_none(), "untraced run must not");
        }
    }
}

#[test]
fn traced_scenario_trials_are_bit_identical_to_untraced() {
    let _guard = telemetry_test();
    let off = run_scenario(1, false);
    for threads in [1, 2, 4] {
        let on = run_scenario(threads, true);
        oasis_telemetry::reset();
        assert_eq!(on, off, "trial JSON diverged at t={threads}");
    }
}

#[test]
fn traced_round_phases_cover_ninety_percent_of_wall_clock() {
    let _guard = telemetry_test();
    let (_, reports) = run_fl(2, true);
    oasis_telemetry::reset();
    for report in &reports {
        let timings = report.timings.expect("traced run records timings");
        assert!(
            timings.coverage() >= 0.9,
            "phase breakdown covers {:.1} % of round {} (< 90 %): {:?}",
            timings.coverage() * 100.0,
            report.round,
            timings,
        );
        assert!(timings.total_ns > 0);
    }
}

#[test]
fn traced_run_emits_a_valid_nested_trace() {
    let _guard = telemetry_test();
    let _ = run_fl(2, true);
    let spans = oasis_telemetry::take_spans();
    let metrics = oasis_telemetry::metrics_snapshot();
    oasis_telemetry::reset();
    assert!(
        spans.iter().any(|s| s.name == "fl.round"),
        "round spans recorded"
    );
    assert!(
        spans.iter().any(|s| s.name.starts_with("tensor.matmul")),
        "kernel spans recorded"
    );
    assert!(
        metrics.counters.iter().any(|c| c.name == "fl.rounds"),
        "metrics recorded"
    );

    // The JSONL round-trips and satisfies every schema invariant:
    // meta line first, unique ids, (start_ns, id)-monotone file
    // order, parents present on the same thread and enclosing their
    // children's intervals.
    let text = oasis_telemetry::render_trace(&spans, &metrics);
    let trace = oasis_telemetry::read_trace_str(&text).expect("trace parses");
    oasis_telemetry::validate_trace(&trace).expect("trace invariants hold");
    assert_eq!(trace.schema_version, oasis_telemetry::TRACE_SCHEMA_VERSION);
    assert_eq!(trace.spans.len(), spans.len());

    // The self-time summary names every span family.
    let stats = oasis_telemetry::summarize(&spans);
    let table = oasis_telemetry::self_time_table(&stats);
    for name in ["fl.round", "fl.round.compute", "fl.round.step"] {
        assert!(table.contains(name), "summary table lists {name}");
    }
}

/// The fig_stack grid at quick scale: RTF and CAH, each at its
/// default calibration count, against the four {OASIS, DP} stacking
/// cells. The 8 cells share one dataset and two calibration sets.
fn stack_grid() -> Vec<Scenario> {
    let mut cells = Vec::new();
    for attack in ["rtf:32", "cah:32"] {
        for defense in ["none", "oasis:MR", "dp:1,0.0003", "oasis:MR+dp:1,0.0003"] {
            let cell = Scenario::builder()
                .workload("cifar100".parse().expect("workload"))
                .attack(attack.parse().expect("attack"))
                .defense(defense.parse().expect("defense"))
                .batch_size(4)
                .trials(2)
                .scale(Scale::Quick)
                .seed(31)
                .dataset_seed(3131)
                .build()
                .expect("grid cell");
            cells.push(cell);
        }
    }
    cells
}

/// The report's JSON with its wall-clock fields zeroed.
fn timeless(mut report: ScenarioReport) -> String {
    report.wall_clock_ms = 0.0;
    report.trial_wall_ns.clear();
    report.to_json()
}

#[test]
fn sweep_shares_preparation_and_matches_standalone_runs() {
    let _guard = telemetry_test();
    let cells = stack_grid();
    let standalone: Vec<String> = parallel::with_threads(1, || {
        cells
            .iter()
            .map(|cell| timeless(cell.run().expect("standalone run")))
            .collect()
    });
    let run_sweep = || -> Vec<String> {
        let mut sweep = Sweep::default();
        cells
            .iter()
            .map(|cell| timeless(sweep.run(cell).expect("sweep run")))
            .collect()
    };
    for threads in [1, 2] {
        let swept = parallel::with_threads(threads, run_sweep);
        assert_eq!(swept, standalone, "sweep diverged at t={threads}");
    }

    let was = oasis_telemetry::set_enabled(true);
    let traced = run_sweep();
    oasis_telemetry::set_enabled(was);
    let spans = oasis_telemetry::take_spans();
    oasis_telemetry::reset();
    assert_eq!(traced, standalone, "traced sweep diverged");
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
    // Every cell still runs and sets up; only the shared inputs are
    // built once per distinct key.
    assert_eq!(count("scenario.run"), 8);
    assert_eq!(count("scenario.setup"), 8);
    assert_eq!(count("scenario.dataset"), 1);
    assert_eq!(count("scenario.calibration"), 2);
    assert_eq!(count("attack.calibrate"), 2);
}

#[test]
fn disabled_telemetry_records_nothing() {
    let _guard = telemetry_test();
    let _ = run_fl(1, false);
    assert!(oasis_telemetry::take_spans().is_empty());
    // Instruments registered by earlier tests stay registered, but
    // nothing may have moved while disabled.
    let metrics = oasis_telemetry::metrics_snapshot();
    assert!(metrics.counters.iter().all(|c| c.value == 0));
    assert!(metrics.histograms.iter().all(|h| h.count == 0));
}
