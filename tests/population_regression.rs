//! The round engine against the round it replaced. Golden cases:
//! every former bridge case (full participation on the raw wire,
//! `clients_per_round: 2`, `q8` over `sim:5,10,0.25`, the
//! thread-invariance shape) plus `fl_protocol`'s OASIS-defended
//! federation and its mixed defended/undefended federation must
//! reproduce the former resident-client round **bit-exactly** — final
//! weights as f32 bit patterns and every `RoundReport` field — at 1,
//! 2 and 4 threads. Plus the scale-side guarantees: bounded
//! aggregation memory at 100k clients and split-resumable keyed runs.
//!
//! The fixture `golden_rounds.json` was captured from the former
//! round, `FlServer::run(&clients, rounds, seed)` — one sequential
//! `StdRng::seed_from_u64(seed)` across all rounds — at commit
//! `fc18cd6`, the last commit that has it. Recipe: copy this file
//! into that checkout, replace the body of `run_case` with
//!
//! ```text
//! let mut server = FlServer::new(case_factory(case.model), case.config.clone()).unwrap();
//! server.set_wire((case.wire)());
//! let reports = server.run(&(case.clients)(), case.rounds, case.seed).unwrap();
//! (flatten_params(server.model()), reports)
//! ```
//!
//! and run the ignored capture test, which rewrites the fixture:
//!
//! ```text
//! cargo test --release --test population_regression -- --ignored capture_golden_rounds
//! ```
//!
//! The engine keys delivery fates by cohort position; every case here
//! has `id == position`, so its fates match the former id-keyed ones.

use std::fmt::Write as _;
use std::sync::Arc;

use oasis::Oasis;
use oasis_augment::PolicyKind;
use oasis_data::cifar_like_with;
use oasis_fl::{DefenseStack, FlClient, FlConfig, FlServer, ModelFactory, RoundReport, WireConfig};
use oasis_nn::{flatten_params, Linear, Relu, Sequential};
use oasis_population::{CohortRunner, Population};
use oasis_tensor::parallel;
use oasis_wire::CodecSpec;
use rand::{rngs::StdRng, SeedableRng};
use serde::{Deserialize, Serialize};

const CLASSES: usize = 3;
const SIDE: usize = 8;
const HIDDEN: usize = 12;

fn factory() -> ModelFactory {
    case_factory((SIDE * SIDE * 3, HIDDEN, CLASSES, 11))
}

fn model_params() -> usize {
    SIDE * SIDE * 3 * HIDDEN + HIDDEN + HIDDEN * CLASSES + CLASSES
}

/// One protocol run: who trains, on what model, over which wire.
struct Case {
    name: &'static str,
    clients: fn() -> Population,
    /// `(input dim, hidden, classes, init seed)` of the two-layer MLP.
    model: Mlp,
    config: FlConfig,
    wire: fn() -> WireConfig,
    rounds: usize,
    seed: u64,
}

type Mlp = (usize, usize, usize, u64);

fn case_factory((d, hidden, classes, seed): Mlp) -> ModelFactory {
    Arc::new(move || {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = Sequential::new();
        m.push(Linear::new(d, hidden, &mut rng));
        m.push(Relu::new());
        m.push(Linear::new(hidden, classes, &mut rng));
        m
    })
}

fn bridge_clients(n: usize) -> Population {
    Population::iid(
        &cifar_like_with(CLASSES, 8, SIDE, 3),
        n,
        Arc::new(DefenseStack::identity()),
        &mut StdRng::seed_from_u64(5),
    )
}

fn oasis(policy: PolicyKind) -> Arc<DefenseStack> {
    Arc::new(DefenseStack::of(Oasis::new(policy)))
}

fn oasis_mr_clients() -> Population {
    let ds = cifar_like_with(4, 12, 10, 3);
    let mut rng = StdRng::seed_from_u64(0);
    let clients: Vec<FlClient> = (0..3)
        .map(|i| {
            let (a, _) = ds.split(0.5, &mut rng);
            FlClient::new(i, a, oasis(PolicyKind::MajorRotation))
        })
        .collect();
    clients.into()
}

fn mixed_clients() -> Population {
    let ds = cifar_like_with(3, 8, 10, 5);
    let (a, b) = ds.split(0.5, &mut StdRng::seed_from_u64(0));
    Population::from(vec![
        FlClient::new(0, a, oasis(PolicyKind::MajorRotationShearing)),
        FlClient::new(1, b, Arc::new(DefenseStack::identity())),
    ])
}

fn lossy_q8() -> WireConfig {
    WireConfig::new(CodecSpec::Q8, "sim:5,10,0.25".parse().unwrap())
}

fn cases() -> Vec<Case> {
    let bridge = (SIDE * SIDE * 3, HIDDEN, CLASSES, 11);
    vec![
        Case {
            name: "bridge_full_raw",
            clients: || bridge_clients(4),
            model: bridge,
            config: FlConfig::default(),
            wire: WireConfig::default,
            rounds: 3,
            seed: 42,
        },
        Case {
            name: "bridge_subset_raw",
            clients: || bridge_clients(6),
            model: bridge,
            config: FlConfig {
                clients_per_round: 2,
                ..FlConfig::default()
            },
            wire: WireConfig::default,
            rounds: 4,
            seed: 7,
        },
        Case {
            name: "bridge_q8_lossy",
            clients: || bridge_clients(6),
            model: bridge,
            config: FlConfig::default(),
            wire: lossy_q8,
            rounds: 5,
            seed: 99,
        },
        Case {
            name: "bridge_thread_shape",
            clients: || bridge_clients(5),
            model: bridge,
            config: FlConfig::default(),
            wire: WireConfig::default,
            rounds: 2,
            seed: 3,
        },
        Case {
            name: "fl_protocol_defended",
            clients: oasis_mr_clients,
            model: (10 * 10 * 3, 32, 4, 13),
            config: FlConfig {
                learning_rate: 0.5,
                local_batch_size: 6,
                clients_per_round: 0,
            },
            wire: WireConfig::default,
            rounds: 25,
            seed: 1,
        },
        Case {
            name: "fl_protocol_mixed",
            clients: mixed_clients,
            model: (10 * 10 * 3, 32, 3, 13),
            config: FlConfig::default(),
            wire: WireConfig::default,
            rounds: 1,
            seed: 9,
        },
    ]
}

/// Runs `case` through the round engine off one sequential rng.
fn run_case(case: &Case) -> (Vec<f32>, Vec<RoundReport>) {
    let mut server = FlServer::new(case_factory(case.model), case.config.clone()).unwrap();
    server.set_wire((case.wire)());
    let mut runner = CohortRunner::new(server, (case.clients)());
    let mut rng = StdRng::seed_from_u64(case.seed);
    let reports = (0..case.rounds)
        .map(|_| runner.run_round(&mut rng).unwrap().round_report)
        .collect();
    (flatten_params(runner.server().model()), reports)
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct GoldenReport {
    round: usize,
    participants: usize,
    cohort: usize,
    dropped: usize,
    mean_loss_bits: u32,
    update_norm_bits: u32,
    bytes_up: u64,
    bytes_down: u64,
    sim_ms_bits: u64,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct GoldenCase {
    name: String,
    /// Final weights, eight hex digits of f32 bits per parameter.
    weights: String,
    reports: Vec<GoldenReport>,
}

fn golden(name: &str, weights: &[f32], reports: &[RoundReport]) -> GoldenCase {
    let mut hex = String::with_capacity(8 * weights.len());
    for w in weights {
        write!(hex, "{:08x}", w.to_bits()).unwrap();
    }
    GoldenCase {
        name: name.to_string(),
        weights: hex,
        reports: reports
            .iter()
            .map(|r| GoldenReport {
                round: r.round,
                participants: r.participants,
                cohort: r.cohort,
                dropped: r.dropped,
                mean_loss_bits: r.mean_loss.to_bits(),
                update_norm_bits: r.update_norm.to_bits(),
                bytes_up: r.bytes_up,
                bytes_down: r.bytes_down,
                sim_ms_bits: r.sim_ms.to_bits(),
            })
            .collect(),
    }
}

const FIXTURE: &str = include_str!("golden_rounds.json");

/// Runs the named case at 1, 2 and 4 threads and checks each run
/// against the fixture; returns the reports.
fn check_golden(name: &str) -> Vec<RoundReport> {
    let case = cases()
        .into_iter()
        .find(|c| c.name == name)
        .expect("known case");
    let fixture: Vec<GoldenCase> = serde_json::from_str(FIXTURE).expect("fixture parses");
    let want = fixture
        .iter()
        .find(|c| c.name == name)
        .expect("case in fixture");
    let mut reports = Vec::new();
    for threads in [1, 2, 4] {
        let (weights, got_reports) = parallel::with_threads(threads, || run_case(&case));
        let got = golden(name, &weights, &got_reports);
        assert_eq!(
            got.reports, want.reports,
            "{name}: reports diverged at t={threads}"
        );
        let first_diff = got
            .weights
            .as_bytes()
            .chunks(8)
            .zip(want.weights.as_bytes().chunks(8))
            .position(|(a, b)| a != b);
        assert!(
            got.weights.len() == want.weights.len() && first_diff.is_none(),
            "{name}: weights diverged at t={threads}, first at parameter {first_diff:?}"
        );
        reports = got_reports;
    }
    reports
}

#[test]
#[ignore = "rewrites tests/golden_rounds.json"]
fn capture_golden_rounds() {
    let captured: Vec<GoldenCase> = cases()
        .iter()
        .map(|case| {
            let (weights, reports) = parallel::with_threads(1, || run_case(case));
            golden(case.name, &weights, &reports)
        })
        .collect();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_rounds.json");
    std::fs::write(
        path,
        serde_json::to_string_pretty(&captured).unwrap() + "\n",
    )
    .unwrap();
}

#[test]
fn streaming_rounds_match_legacy_bit_exactly() {
    check_golden("bridge_full_raw");
}

#[test]
fn subset_selection_matches_legacy_bit_exactly() {
    let reports = check_golden("bridge_subset_raw");
    assert!(reports.iter().all(|r| r.cohort == 2));
}

#[test]
fn lossy_compressed_wire_matches_legacy_bit_exactly() {
    let reports = check_golden("bridge_q8_lossy");
    assert!(
        reports.iter().any(|r| r.dropped > 0),
        "a 25% drop rate should lose something over 5 rounds"
    );
}

#[test]
fn bridge_is_thread_count_invariant() {
    check_golden("bridge_thread_shape");
}

#[test]
fn defended_federation_matches_legacy_bit_exactly() {
    check_golden("fl_protocol_defended");
}

#[test]
fn mixed_federation_matches_legacy_bit_exactly() {
    let reports = check_golden("fl_protocol_mixed");
    assert_eq!(reports[0].participants, 2);
}

#[test]
fn zero_delivered_cohort_round_is_a_noop() {
    let data = cifar_like_with(CLASSES, 4, SIDE, 0);
    let pop = Population::iid(
        &data,
        32,
        Arc::new(DefenseStack::identity()),
        &mut StdRng::seed_from_u64(1),
    );
    let mut server = FlServer::new(
        factory(),
        FlConfig {
            clients_per_round: 8,
            ..FlConfig::default()
        },
    )
    .unwrap();
    // A deadline no update can meet: everything is a straggler.
    server.set_wire(WireConfig::new(
        CodecSpec::Raw,
        "sim:1000,1,0,1".parse().unwrap(),
    ));
    let before = flatten_params(server.model());
    let mut runner = CohortRunner::new(server, pop);
    let report = runner.run_round(&mut StdRng::seed_from_u64(0)).unwrap();
    assert_eq!(report.round_report.participants, 0);
    assert_eq!(report.round_report.dropped, 8);
    assert_eq!(report.computed, 0, "no-op rounds must not compute anyone");
    assert_eq!(report.round_report.update_norm, 0.0);
    assert_eq!(flatten_params(runner.server().model()), before);
    assert_eq!(runner.server().round(), 1, "the protocol must not wedge");
}

#[test]
fn hundred_k_population_round_has_bounded_memory() {
    let data = cifar_like_with(CLASSES, 8, SIDE, 2);
    let pop = Population::iid(
        &data,
        100_000,
        Arc::new(DefenseStack::identity()),
        &mut StdRng::seed_from_u64(5),
    );
    let mut server = FlServer::new(
        factory(),
        FlConfig {
            clients_per_round: 64,
            ..FlConfig::default()
        },
    )
    .unwrap();
    server.set_wire(WireConfig::new(
        CodecSpec::Q8,
        "sim:10,20,0.1".parse().unwrap(),
    ));
    let mut runner = CohortRunner::new(server, pop);
    let report = runner.run_round(&mut StdRng::seed_from_u64(8)).unwrap();
    assert_eq!(report.population, 100_000);
    assert_eq!(report.round_report.cohort, 64);
    assert!(report.round_report.participants > 0);
    // The ISSUE's memory bound, asserted: decode + accumulator
    // scratch stays within 2× the model's own bytes no matter the
    // population.
    let model_bytes = 4 * model_params();
    assert!(
        report.peak_accum_bytes <= 2 * model_bytes,
        "aggregation scratch {} exceeds 2x model bytes {}",
        report.peak_accum_bytes,
        2 * model_bytes
    );
    // Frame scratch is O(threads), never O(cohort): even at the
    // maximum wave width the frames alive at once stay under the
    // cohort total.
    assert!(report.peak_frame_bytes <= parallel::num_threads().max(1) * (model_bytes + 64));
}

#[test]
fn keyed_runs_split_and_replay() {
    let data = cifar_like_with(CLASSES, 6, SIDE, 4);
    let make = || {
        let pop = Population::iid(
            &data,
            40,
            Arc::new(DefenseStack::identity()),
            &mut StdRng::seed_from_u64(2),
        );
        let server = FlServer::new(
            factory(),
            FlConfig {
                clients_per_round: 8,
                ..FlConfig::default()
            },
        )
        .unwrap();
        CohortRunner::new(server, pop)
    };
    let mut whole = make();
    let all = whole.run(4, 1234).unwrap();
    let mut split = make();
    let head = split.run(2, 1234).unwrap();
    let tail = split.run(2, 1234).unwrap();
    let rejoined: Vec<_> = head.into_iter().chain(tail).collect();
    assert_eq!(all, rejoined);
    assert_eq!(
        flatten_params(whole.server().model()),
        flatten_params(split.server().model()),
    );
}
