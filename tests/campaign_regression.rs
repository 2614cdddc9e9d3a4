//! The campaign-engine bridge: a one-phase campaign with no churn,
//! drift, or adversary must reproduce [`CohortRunner::run`]
//! **bit-exactly** — reports and final weights — at 1, 2, and 4
//! threads. Multi-phase campaigns with churn, drift, and an adaptive
//! adversary must be bit-deterministic across reruns and thread
//! counts, and must resume from a checkpoint via
//! [`CampaignRunner::seek`] onto the identical trajectory.

use std::sync::Arc;

use oasis_campaign::{
    linear_relu_factory, CampaignError, CampaignRunner, CampaignSetup, CampaignSpec,
};
use oasis_data::{cifar_like_with, Dataset};
use oasis_fl::{FlConfig, FlServer};
use oasis_nn::flatten_params;
use oasis_population::{CohortRunner, Population};
use oasis_scenario::{DefenseSpec, ScenarioError};
use oasis_tensor::parallel;
use rand::{rngs::StdRng, SeedableRng};

const CLASSES: usize = 3;
const SIDE: usize = 8;
const D: usize = SIDE * SIDE * 3;
const HIDDEN: usize = 12;
const MODEL_SEED: u64 = 11;

fn data() -> Dataset {
    cifar_like_with(CLASSES, 8, SIDE, 3)
}

fn setup(clients: usize, seed: u64) -> CampaignSetup {
    let mut s = CampaignSetup::new(
        data(),
        clients,
        linear_relu_factory(D, HIDDEN, CLASSES, MODEL_SEED),
    );
    s.seed = seed;
    s.partition_seed = 5;
    s
}

/// An empty dataset is a bad setup, reported as an error — also when
/// a phase declares attack candidates, which size the adversary's
/// probe batch by the dataset.
#[test]
fn empty_dataset_is_rejected_as_a_bad_spec() {
    for spec in ["campaign:2+attack=rtf:24", "campaign:2"] {
        let mut s = setup(2, 1);
        s.dataset = Dataset::new("empty", CLASSES, Vec::new());
        let result = CampaignRunner::new(spec.parse().unwrap(), s);
        assert!(
            matches!(result, Err(CampaignError::Spec(ScenarioError::BadSpec(_)))),
            "{spec}: an empty dataset must be a BadSpec error"
        );
    }
}

/// One phase, no dynamics: the campaign IS `CohortRunner::run`.
#[test]
fn one_phase_campaign_matches_cohort_runner_bit_exactly() {
    let rounds = 4;
    let seed = 42;

    // Reference: the plain cohort runner over the same population.
    let dataset = data();
    let defense = Arc::new(DefenseSpec::none().build());
    let population = Population::iid(&dataset, 6, defense, &mut StdRng::seed_from_u64(5));
    let server = FlServer::new(
        linear_relu_factory(D, HIDDEN, CLASSES, MODEL_SEED),
        FlConfig::default(),
    )
    .unwrap();
    let mut reference = CohortRunner::new(server, population);
    let reports = reference.run(rounds, seed).unwrap();
    let reference_weights = flatten_params(reference.server().model());

    let spec: CampaignSpec = format!("campaign:{rounds}").parse().unwrap();
    let mut campaign = CampaignRunner::new(spec, setup(6, seed)).unwrap();
    campaign.run().unwrap();

    assert_eq!(
        flatten_params(campaign.server().model()),
        reference_weights,
        "one-phase campaign weights must be bit-identical to CohortRunner::run"
    );
    assert_eq!(campaign.records().len(), reports.len());
    for (record, report) in campaign.records().iter().zip(&reports) {
        let report = &report.round_report;
        assert_eq!(record.round, report.round as u64);
        assert_eq!(record.cohort, report.cohort);
        assert_eq!(record.delivered, report.participants);
        assert_eq!(record.dropped, report.dropped);
        assert_eq!(record.bytes_up, report.bytes_up);
        assert_eq!(record.bytes_down, report.bytes_down);
        assert_eq!(record.mean_loss, report.mean_loss as f64);
        assert_eq!(record.churn_left, 0);
        assert_eq!(record.churn_joined, 0);
    }
}

#[test]
fn one_phase_campaign_is_thread_count_invariant() {
    let run = || {
        let spec: CampaignSpec = "campaign:3".parse().unwrap();
        let mut campaign = CampaignRunner::new(spec, setup(5, 3)).unwrap();
        campaign.run().unwrap();
        (
            campaign.records().to_vec(),
            flatten_params(campaign.server().model()),
        )
    };
    let (r1, w1) = parallel::with_threads(1, run);
    let (r2, w2) = parallel::with_threads(2, run);
    let (r4, w4) = parallel::with_threads(4, run);
    assert_eq!(r1, r2);
    assert_eq!(r1, r4);
    assert_eq!(w1, w2);
    assert_eq!(w1, w4);
}

const DYNAMIC_SPEC: &str = "campaign:3;3+leave=0.4+join=0.5+alpha=0.4+net=sim:10,16,0.2;\
                            3+attack=rtf:24|qbi:24,4";

fn run_dynamic(seed: u64) -> (Vec<oasis_campaign::TrajectoryRecord>, Vec<f32>, String) {
    let spec: CampaignSpec = DYNAMIC_SPEC.parse().unwrap();
    let mut s = setup(6, seed);
    s.eval_every = 2;
    let mut campaign = CampaignRunner::new(spec, s).unwrap();
    campaign.run().unwrap();
    let log = campaign
        .adversary_log()
        .iter()
        .map(|e| {
            format!(
                "{}:{}:{:.6}:{:.6}:{}",
                e.round, e.spec, e.mean_psnr, e.leak_rate, e.picked
            )
        })
        .collect::<Vec<_>>()
        .join("\n");
    (
        campaign.records().to_vec(),
        flatten_params(campaign.server().model()),
        log,
    )
}

/// Churn + drift + adaptive adversary: reruns and thread counts all
/// land on the identical trajectory, adversary probes included.
#[test]
fn dynamic_campaign_is_bit_deterministic() {
    let (r_a, w_a, log_a) = run_dynamic(17);
    let (r_b, w_b, log_b) = run_dynamic(17);
    assert_eq!(r_a, r_b, "rerun must reproduce the trajectory");
    assert_eq!(w_a, w_b);
    assert_eq!(log_a, log_b, "adversary probes must replay");

    let (r_t2, w_t2, log_t2) = parallel::with_threads(2, || run_dynamic(17));
    let (r_t4, w_t4, log_t4) = parallel::with_threads(4, || run_dynamic(17));
    assert_eq!(r_a, r_t2);
    assert_eq!(r_a, r_t4);
    assert_eq!(w_a, w_t2);
    assert_eq!(w_a, w_t4);
    assert_eq!(log_a, log_t2);
    assert_eq!(log_a, log_t4);

    // The dynamics actually exercised something.
    assert!(
        r_a.iter().any(|r| r.churn_left + r.churn_joined > 0),
        "40%/50% churn over 6 rounds should move someone"
    );
    assert!(
        r_a.iter().any(|r| r.mean_psnr.is_some()),
        "the adversary phase should have probed"
    );
    assert!(r_a.iter().all(|r| r.delivered + r.dropped == r.cohort));
}

/// Seek + checkpoint restore continues the identical trajectory.
#[test]
fn campaign_resumes_from_checkpoint_via_seek() {
    let seed = 23;
    let split = 5u64;
    let ckpt = std::env::temp_dir().join("oasis_campaign_resume_test.ckpt");

    // Full run for reference.
    let (full_records, full_weights, _) = run_dynamic(seed);

    // Head run: stop at `split`, checkpoint the model.
    let spec: CampaignSpec = DYNAMIC_SPEC.parse().unwrap();
    let mut s = setup(6, seed);
    s.eval_every = 2;
    let mut head = CampaignRunner::new(spec.clone(), s).unwrap();
    head.run_rounds(split as usize).unwrap();
    head.server().save_checkpoint(&ckpt).unwrap();

    // Resumed run: replay the dynamics without training, restore the
    // model, continue to the end.
    let mut s = setup(6, seed);
    s.eval_every = 2;
    let mut resumed = CampaignRunner::new(spec, s).unwrap();
    resumed.seek(split).unwrap();
    assert_eq!(resumed.round(), split);
    resumed.server_mut().restore_checkpoint(&ckpt).unwrap();
    resumed.run().unwrap();
    std::fs::remove_file(&ckpt).ok();

    assert_eq!(
        flatten_params(resumed.server().model()),
        full_weights,
        "resumed campaign must converge to the full run's weights"
    );
    let tail = &full_records[split as usize..];
    assert_eq!(
        resumed.records(),
        tail,
        "post-seek records must match the full run"
    );
}
