//! # oasis-bench
//!
//! The benchmark harness that regenerates every table and figure of
//! the OASIS paper's evaluation section. Each `src/bin/figN_*.rs`
//! binary prints the rows/series of one figure; see `EXPERIMENTS.md`
//! at the repository root for the full index and how the measured
//! numbers compare with the paper's.
//!
//! Figure binaries are thin loops over the declarative
//! [`oasis_scenario`] engine — the experiment definitions themselves
//! (attack, defense, workload, batch, trials, seeds) are values; the
//! `scenario` binary runs any such value or a sweep from the command
//! line.
//!
//! All binaries accept:
//!
//! * `--quick` — a smoke-test scale that finishes in seconds,
//! * `--full`  — the paper's full grid (slow on CPU),
//! * (default) — a reduced-resolution scale that preserves the
//!   paper's qualitative shape and finishes in minutes.

#![warn(missing_docs)]

pub mod perf;

use oasis_augment::PolicyKind;
use oasis_data::Batch;
use rand::rngs::StdRng;
use rand::SeedableRng;

pub use oasis_attacks::{
    run_attack, ActiveAttack, AttackOutcome, CahAttack, LinearModelAttack, QbiAttack, RtfAttack,
    DEFAULT_ACTIVATION_TARGET,
};
pub use oasis_campaign::{
    linear_relu_factory, validate_trajectory, CampaignError, CampaignRunner, CampaignSetup,
    CampaignSpec, TrajectoryReport, TrajectorySummary,
};
pub use oasis_scenario::{
    calibration_images, out_path, spec_catalog, AttackSpec, CodecSpec, DefenseSpec, NetSpec,
    PopulationSpec, SampleSpec, Sampling, Scale, Scenario, ScenarioError, ScenarioReport, Sweep,
    WorkloadSpec,
};

/// The two evaluation workloads of the paper (alias of
/// [`WorkloadSpec`], which also provides the 100-class synthetic
/// variants used by the linear-model experiment).
pub type Workload = WorkloadSpec;

/// Builds and runs one campaign of `spec` under `defense`: the
/// workload's dataset at `scale`, `clients` clients over the shared
/// linear-ReLU model, adversary probed every `eval_every` rounds.
/// Returns the finished runner (trajectory records, adversary log,
/// final server state). Shared by the `scenario --campaign` mode and
/// `fig_trajectory`.
///
/// # Errors
///
/// Propagates setup and round failures from the campaign engine.
pub fn run_campaign(
    spec: CampaignSpec,
    defense: DefenseSpec,
    workload: Workload,
    scale: Scale,
    clients: usize,
    seed: u64,
    eval_every: usize,
) -> Result<CampaignRunner, CampaignError> {
    let dataset = workload.dataset(scale, 64, seed ^ 0xDA7A);
    let d = dataset.feature_dim();
    let classes = dataset.num_classes();
    let mut setup = CampaignSetup::new(dataset, clients, linear_relu_factory(d, 64, classes, 11));
    setup.defense = defense;
    setup.seed = seed;
    setup.partition_seed = seed ^ 0x5EED;
    setup.eval_every = eval_every;
    let mut runner = CampaignRunner::new(spec, setup)?;
    runner.run()?;
    Ok(runner)
}

/// The shared Figure 3/4 grid loop: one [`Scenario`] per
/// (batch size × attacked neurons) cell of each workload, printed as
/// the paper's grid with the strongest per-batch configuration
/// highlighted.
///
/// `attack` fixes the family (and CAH's activation target or QBI's
/// batch target); each cell sets its own neuron count through
/// [`AttackSpec::with_neurons`].
/// `seed_base` spreads the per-cell seeds (`seed_base + B·mult + n`,
/// the figure binaries' historical scheme); `dataset_seed` pins the
/// workload build. Each workload's cells run through one [`Sweep`]:
/// its dataset (sized for the largest batch) and calibration set are
/// built once, and each neuron count's calibrated attack once, shared
/// by every batch row.
pub fn attack_grid(
    scale: Scale,
    attack: AttackSpec,
    dataset_seed: u64,
    seed_base: u64,
    calibration: usize,
) {
    let seed_mult: u64 = match attack {
        AttackSpec::Cah { .. } => 19,
        _ => 17,
    };
    for workload in [Workload::ImageNette, Workload::Cifar100] {
        let mut sweep = Sweep::default();
        let batches = scale.grid_batches();
        let neurons = scale.grid_neurons();
        println!("\n--- {} ---", workload.label());
        print!("{:>7}", "B \\ n");
        for &n in &neurons {
            print!("{n:>9}");
        }
        println!();
        let max_batch = *batches.iter().max().expect("non-empty grid");
        let mut best: Vec<(usize, usize, f64)> = Vec::new();
        for &b in &batches {
            print!("{b:>7}");
            let mut row_best = (0usize, f64::MIN);
            for &n in &neurons {
                let cell = Scenario::builder()
                    .workload(workload)
                    .attack(attack.with_neurons(n))
                    .defense(DefenseSpec::none())
                    .batch_size(b)
                    .trials(scale.trials())
                    .scale(scale)
                    .seed(seed_base + b as u64 * seed_mult + n as u64)
                    .dataset_seed(dataset_seed)
                    .dataset_capacity(max_batch)
                    .calibration(calibration)
                    .build()
                    .expect("grid cell scenario");
                let report = sweep.run(&cell).expect("grid cell run");
                let mean = report.mean_psnr();
                if mean > row_best.1 {
                    row_best = (n, mean);
                }
                print!("{mean:>9.2}");
            }
            println!();
            best.push((b, row_best.0, row_best.1));
        }
        println!("strongest configuration per batch size:");
        for (b, n, mean) in best {
            println!("  B = {b:>4}: n = {n:>5} with mean PSNR {mean:.2} dB");
        }
    }
}

/// The shared Figure 5/6/13 transform-comparison loop: for each
/// (workload, B, n) configuration, one [`Scenario`] per policy in
/// `policies`, printed as the paper's per-policy summary rows. All
/// cells run through one [`Sweep`], so a configuration's policies
/// share its dataset, calibration set and calibrated attack.
///
/// `attack` fixes the family; each configuration sets its neuron
/// count through [`AttackSpec::with_neurons`]. `neuron_cap` bounds `n`
/// at quick scale so smoke tests stay in seconds; `linear` attacks
/// ignore the neuron axis entirely.
#[allow(clippy::too_many_arguments)]
pub fn transform_comparison(
    scale: Scale,
    attack: AttackSpec,
    configs: &[(Workload, usize, usize)],
    policies: &[PolicyKind],
    dataset_seed: u64,
    seed_base: u64,
    calibration: usize,
    neuron_cap: usize,
) {
    let mut sweep = Sweep::default();
    for &(workload, batch, neurons) in configs {
        let neurons = scale.cap_neurons(neurons, neuron_cap);
        let attack = attack.with_neurons(neurons);
        // The linear-model experiment historically pooled at least two
        // batches so unique-label draws cover the class space.
        let trials = match attack {
            AttackSpec::Linear => scale.trials().max(2),
            _ => scale.trials(),
        };
        match attack {
            AttackSpec::Linear => println!("\n--- {} | B = {batch} ---", workload.label()),
            _ => println!(
                "\n--- {} | B = {batch}, n = {neurons} ---",
                workload.label()
            ),
        }
        for &kind in policies {
            let defense = match kind {
                PolicyKind::Without => DefenseSpec::none(),
                kind => DefenseSpec::oasis(kind),
            };
            let cell = Scenario::builder()
                .workload(workload)
                .attack(attack.clone())
                .defense(defense)
                .batch_size(batch)
                .trials(trials)
                .scale(scale)
                .seed(seed_base + batch as u64)
                .dataset_seed(dataset_seed)
                .calibration(calibration)
                .build()
                .expect("transform scenario");
            let report = sweep.run(&cell).expect("transform run");
            println!("{:>6}  {}", kind.abbrev(), report.summary);
        }
    }
}

/// The named policies in the order of the paper's Figure 5 legend.
pub fn figure5_policies() -> Vec<PolicyKind> {
    vec![
        PolicyKind::Without,
        PolicyKind::MajorRotation,
        PolicyKind::MinorRotation,
        PolicyKind::Shearing,
        PolicyKind::HorizontalFlip,
        PolicyKind::VerticalFlip,
    ]
}

/// The named policies in the order of the paper's Figure 6 legend.
pub fn figure6_policies() -> Vec<PolicyKind> {
    vec![
        PolicyKind::Without,
        PolicyKind::Shearing,
        PolicyKind::MajorRotation,
        PolicyKind::MajorRotationShearing,
    ]
}

/// Prints a standard experiment header.
pub fn banner(figure: &str, description: &str, scale: Scale) {
    println!("==========================================================");
    println!("{figure}: {description}");
    println!("scale: {scale} (use --quick / --full to change)");
    println!("==========================================================");
}

/// Batches drawn for the visual figures (fixed, documented seed).
pub fn visual_batch(workload: Workload, scale: Scale, batch_size: usize, seed: u64) -> Batch {
    let ds = workload.dataset(scale, batch_size, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF16);
    ds.sample_batch(batch_size.min(ds.len()), &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_datasets_have_expected_classes() {
        let i = Workload::ImageNette.dataset(Scale::Quick, 8, 1);
        assert_eq!(i.num_classes(), 10);
        let c = Workload::Cifar100.dataset(Scale::Quick, 8, 1);
        assert_eq!(c.num_classes(), 100);
    }

    #[test]
    fn datasets_are_large_enough_for_max_batch() {
        let ds = Workload::ImageNette.dataset(Scale::Quick, 64, 1);
        assert!(ds.len() >= 64);
    }

    #[test]
    fn figure_policy_lists_match_paper_legends() {
        assert_eq!(figure5_policies().len(), 6);
        assert_eq!(figure6_policies().len(), 4);
        assert_eq!(figure6_policies()[3], PolicyKind::MajorRotationShearing);
    }

    #[test]
    fn calibration_images_honor_count() {
        let imgs = calibration_images(Workload::Cifar100, Scale::Quick, 12);
        assert_eq!(imgs.len(), 12);
    }

    #[test]
    fn out_path_honors_env_override() {
        // `out_path` lives in oasis-scenario; spot-check the re-export
        // creates files where the figure binaries expect them.
        let p = out_path("bench_test_artifact.txt");
        assert!(p.parent().is_some_and(std::path::Path::exists));
    }
}
