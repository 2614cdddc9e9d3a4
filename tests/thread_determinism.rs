//! Multi-threaded execution is bit-deterministic: the worker pool's
//! row-block partitioning and ordered result merges keep every
//! floating-point accumulation sequence independent of the thread
//! count, so weights, round reports, and reconstruction PSNRs are
//! identical at `OASIS_THREADS=1` and `=4` (or any other width).
//!
//! Thread counts are pinned per run with
//! [`oasis_tensor::parallel::with_threads`] — the race-free in-process
//! equivalent of setting `OASIS_THREADS`.

use std::sync::Arc;

use oasis_attacks::{
    reconstruct, ActiveAttack, CahAttack, LinearModelAttack, QbiAttack, RtfAttack,
};
use oasis_data::cifar_like_with;
use oasis_fl::{DefenseStack, FlConfig, FlServer, ModelFactory, RoundReport};
use oasis_nn::{flatten_params, param_count, Conv2d, Layer, Linear, Mode, Relu, Sequential};
use oasis_population::{CohortRunner, Population};
use oasis_scenario::{Scale, Scenario};
use oasis_tensor::{parallel, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One full FL deployment (the `fl_round_raw` perf workload shape):
/// 4 clients, 3 rounds, returning final weights and every report.
fn run_fl(threads: usize) -> (Vec<f32>, Vec<RoundReport>) {
    parallel::with_threads(threads, || {
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
        let reports: Vec<RoundReport> = runner
            .run(3, 14)
            .expect("rounds")
            .into_iter()
            .map(|r| r.round_report)
            .collect();
        (flatten_params(runner.server().model()), reports)
    })
}

#[test]
fn fl_weights_and_reports_are_bit_identical_across_thread_counts() {
    let (weights_1, reports_1) = run_fl(1);
    for threads in [2, 4] {
        let (weights_n, reports_n) = run_fl(threads);
        assert_eq!(weights_n, weights_1, "weights diverged at t={threads}");
        assert_eq!(reports_n, reports_1, "reports diverged at t={threads}");
    }
}

/// One scenario trial batch (the `scenario --quick` workload): RTF
/// over the wire under `defense`, 2 trials.
fn run_scenario(threads: usize, defense: &str) -> String {
    parallel::with_threads(threads, || {
        let scenario = Scenario::builder()
            .workload("imagenette".parse().expect("workload"))
            .attack("rtf:48".parse().expect("attack"))
            .defense(defense.parse().expect("defense"))
            .batch_size(4)
            .trials(2)
            .scale(Scale::Quick)
            .seed(0x5EED)
            .calibration(32)
            .build()
            .expect("scenario");
        let report = scenario.run().expect("run");
        // Serialized trials carry every matched PSNR bit pattern.
        serde_json::to_string(&report.trials).expect("serialize")
    })
}

#[test]
fn scenario_trial_reports_are_bit_identical_across_thread_counts() {
    let serial = run_scenario(1, "oasis:MR");
    assert_eq!(run_scenario(4, "oasis:MR"), serial);
}

/// A stacked defense — the OASIS batch stage plus the DP update
/// stage's per-sample path and Gaussian noise stream — is bit
/// identical at 1, 2, and 4 worker threads.
#[test]
fn stacked_defense_trials_are_bit_identical_across_thread_counts() {
    let serial = run_scenario(1, "oasis:MR+dp:1,0.01");
    for threads in [2, 4] {
        assert_eq!(
            run_scenario(threads, "oasis:MR+dp:1,0.01"),
            serial,
            "stacked trials diverged at t={threads}"
        );
    }
}

/// Every pixel bit of a workload's dataset and of its attacker
/// calibration prefix, rendered at `threads` pool threads.
fn render_workload(threads: usize, workload: &str) -> Vec<Vec<u32>> {
    parallel::with_threads(threads, || {
        let scenario = Scenario::builder()
            .workload(workload.parse().expect("workload"))
            .attack("cah:64".parse().expect("attack"))
            .batch_size(32)
            .scale(Scale::Quick)
            .calibration(148)
            .build()
            .expect("scenario");
        let bits = |image: &oasis_image::Image| image.data().iter().map(|v| v.to_bits()).collect();
        let dataset = scenario.dataset();
        let calibration = scenario.calibration_images();
        assert!(!dataset.is_empty() && calibration.len() == 148);
        dataset
            .items()
            .iter()
            .map(|it| &it.image)
            .chain(&calibration)
            .map(bits)
            .collect()
    })
}

/// The class-parallel renderer: the `imagenette` and `cifar100`
/// datasets and calibration prefixes (which end inside a class) are
/// identical at 1 and 4 worker threads.
#[test]
fn workload_rendering_is_bit_identical_across_thread_counts() {
    for workload in ["imagenette", "cifar100"] {
        assert!(
            render_workload(4, workload) == render_workload(1, workload),
            "{workload} rendering diverged at t=4"
        );
    }
}

/// The `conv2d_forward_b32` perf workload plus its backward, at model
/// shape: forward activations, weight/bias gradients, and the input
/// gradient must not move by a bit.
fn run_conv(threads: usize) -> (Tensor, Tensor, Vec<f32>) {
    parallel::with_threads(threads, || {
        let mut conv = Conv2d::new(3, 16, 3, 1, 1, (16, 16), &mut StdRng::seed_from_u64(9));
        let x = Tensor::randn(&[32, 3 * 16 * 16], &mut StdRng::seed_from_u64(10));
        let y = conv.forward(&x, Mode::Train).expect("forward");
        let mut grads = vec![0.0f32; param_count(&conv)];
        let gx = conv
            .backward(&Tensor::ones(y.dims()), &mut grads)
            .expect("backward");
        (y, gx, grads)
    })
}

#[test]
fn conv_batch32_is_bit_identical_across_thread_counts() {
    let (y1, gx1, grads1) = run_conv(1);
    for threads in [2, 4, 8] {
        let (yn, gxn, gradsn) = run_conv(threads);
        assert_eq!(yn.data(), y1.data(), "forward diverged at t={threads}");
        assert_eq!(gxn.data(), gx1.data(), "backward diverged at t={threads}");
        assert_eq!(
            gradsn, grads1,
            "parameter gradients diverged at t={threads}"
        );
    }
}

/// Gradients shaped like the `rtf_invert_128` perf workload's, whose
/// second half of rows repeats the first, so every sweep also feeds
/// dedupe duplicates.
fn sweep_gradients(rows: usize, d: usize) -> (Tensor, Tensor) {
    let half = rows / 2;
    let base = Tensor::randn(&[half, d], &mut StdRng::seed_from_u64(16));
    let mut grad_w = base.data().to_vec();
    grad_w.extend_from_slice(base.data());
    let grad_b = (0..rows).map(|i| 1.0 + (half - i % half) as f32 * 0.01);
    (
        Tensor::from_vec(grad_w, &[rows, d]).expect("weight"),
        Tensor::from_vec(grad_b.collect(), &[rows]).expect("bias"),
    )
}

/// The shared reconstruction sweep for every attack family must
/// reconstruct the same pool in the same order at any thread count.
/// At 128 rows of a 3×16×16 input every sweep is wide enough to fan
/// out across the pool.
fn run_inversion_sweeps(threads: usize) -> Vec<Vec<Vec<f32>>> {
    let neurons = 128;
    let geometry = (3, 16, 16);
    let d = geometry.0 * geometry.1 * geometry.2;
    let calibration: Vec<_> = cifar_like_with(4, 8, 16, 2)
        .items()
        .iter()
        .map(|it| it.image.clone())
        .collect();
    let attacks: Vec<Box<dyn ActiveAttack>> = vec![
        Box::new(RtfAttack::new(neurons, 0.5, 0.15).expect("rtf")),
        Box::new(CahAttack::calibrated(neurons, 0.1, &calibration, 3).expect("cah")),
        Box::new(QbiAttack::calibrated(neurons, 8, &calibration, 3).expect("qbi")),
        Box::new(LinearModelAttack::new(neurons).expect("linear")),
    ];
    let (grad_w, grad_b) = sweep_gradients(neurons, d);
    parallel::with_threads(threads, || {
        attacks
            .iter()
            .map(|attack| {
                reconstruct(attack.as_ref(), grad_w.data(), grad_b.data(), geometry)
                    .into_iter()
                    .map(|img| img.data().to_vec())
                    .collect()
            })
            .collect()
    })
}

#[test]
fn rtf_inversion_sweep_is_bit_identical_across_thread_counts() {
    let serial = run_inversion_sweeps(1);
    for pool in &serial {
        assert!(!pool.is_empty());
        assert!(pool.len() < 128, "dedupe kept every repeated row");
    }
    assert_eq!(run_inversion_sweeps(4), serial);
}
