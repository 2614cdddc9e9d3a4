//! Curious Abandon Honesty (CAH) — the trap-weights attack of
//! Boenisch et al. (EuroS&P 2023), reimplemented from the paper's
//! construction.
//!
//! The malicious layer's rows are *trap weights*: random vectors in
//! which a random half of the coordinates is negated. For
//! non-negative inputs (images), each row's bias controls the
//! probability that its neuron activates; the attacker tunes it so
//! each neuron fires for only a small fraction of inputs. A neuron
//! activated by exactly one sample yields that sample *exactly* via
//! Eq. 6 inversion.
//!
//! [`CahAttack::calibrated`] is the one constructor: the
//! strongest-attack configuration used by the evaluation (the OASIS
//! paper configures every attack "to have the highest success rate",
//! §IV-A). Each row's bias is set at the `1−p` quantile of that row's
//! response over a calibration set, pinning every neuron's activation
//! probability at the target `p` — the construction QBI also uses.
//! The original paper's zero-bias form, which scales the negated half
//! by a global γ instead, leaves per-row activation over-dispersed
//! (some rows fire for most inputs, many never fire) and is not built.

use oasis_image::Image;
use oasis_nn::Sequential;
use oasis_tensor::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::calibrate::CalibratedLayer;
use crate::{ActiveAttack, AttackError, Result};

/// Default activation probability target.
///
/// A fixed 10% target (rather than `1/B` per batch size) reproduces
/// the paper's qualitative findings: near-perfect reconstruction of
/// undefended small batches, degradation at batch 64 (Figure 4's
/// trend), and the MR-fails-at-B=8 / MR+SH-succeeds contrast of
/// Figure 6. The mechanism is binomial collision: a neuron leaks a
/// sample with probability `p·(1−p)^{m−1}` where `m` is the effective
/// batch size, so expanding `m` from 32 (MR) to 56 (MR+SH) multiplies
/// the leak rate by `(1−p)^{24} ≈ 0.08` — exactly the integration
/// effect the paper reports.
pub const DEFAULT_ACTIVATION_TARGET: f64 = 0.10;

/// The CAH trap-weights attack.
#[derive(Debug, Clone)]
pub struct CahAttack {
    /// Trap weights with per-row quantile biases.
    layer: CalibratedLayer,
}

impl CahAttack {
    /// Trap weights with per-row biases at the `1−target` response
    /// quantile over `calibration` images, pinning each
    /// neuron's activation probability at `target`. The trap weights
    /// fitted here are the ones every built model carries.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::BadConfig`] for zero neurons, and
    /// [`AttackError::Calibration`] if the calibration set is empty,
    /// its images differ in size, or the target is not in `(0, 1)`.
    pub fn calibrated(
        neurons: usize,
        target: f64,
        calibration: &[Image],
        weight_seed: u64,
    ) -> Result<Self> {
        if neurons == 0 {
            return Err(AttackError::BadConfig("CAH needs at least 1 neuron".into()));
        }
        let first = calibration
            .first()
            .ok_or_else(|| AttackError::Calibration("empty calibration set".into()))?;
        let w = trap_weights(neurons, first.numel(), weight_seed);
        Ok(CahAttack {
            layer: CalibratedLayer::fit(w, calibration, target)?,
        })
    }
}

/// Builds `rows` trap-weight rows of width `d`: |N(0,1)| magnitudes, a
/// random half of coordinates negated, each row scaled by `1/√d` so
/// pre-activations stay O(1) for unit images.
///
/// All normals are drawn first, then one shuffle per row. The scale
/// is applied before the negation, which is exact: `(−|z|)·s` and
/// `−(|z|·s)` are the same float.
fn trap_weights(rows: usize, d: usize, seed: u64) -> Tensor {
    let _span = oasis_telemetry::span("attack.calibrate.trap_weights");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut w = Tensor::randn(&[rows, d], &mut rng);
    let scale = 1.0 / (d as f32).sqrt();
    let mut indices: Vec<usize> = (0..d).collect();
    for row in w.data_mut().chunks_exact_mut(d.max(1)) {
        for v in row.iter_mut() {
            *v = v.abs() * scale;
        }
        indices.shuffle(&mut rng);
        for &i in indices.iter().take(d / 2) {
            row[i] = -row[i];
        }
    }
    w
}

impl ActiveAttack for CahAttack {
    fn name(&self) -> &'static str {
        "CAH"
    }

    fn build_model(
        &self,
        geometry: (usize, usize, usize),
        classes: usize,
        seed: u64,
    ) -> Result<Sequential> {
        let (c, h, w) = geometry;
        self.layer.model(c * h * w, classes, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::tests::malicious_grads;
    use crate::reconstruct;
    use oasis_data::cifar_like_with;
    use oasis_data::Batch;
    use oasis_fl::DefenseStack;
    use oasis_metrics::match_greedy;
    use oasis_nn::Linear;

    fn structured_images(count: usize, side: usize, seed: u64) -> Vec<Image> {
        let ds = cifar_like_with(count, 1, side, seed);
        ds.items().iter().map(|it| it.image.clone()).collect()
    }

    #[test]
    fn trap_weights_have_half_negative_entries() {
        let w = trap_weights(10, 100, 0);
        for r in 0..10 {
            let neg = w.row(r).unwrap().iter().filter(|&&v| v < 0.0).count();
            assert_eq!(neg, 50, "row {r} has {neg} negative entries");
        }
    }

    #[test]
    fn trap_weights_match_the_three_pass_construction_bit_exactly() {
        // The construction before the draw was fused, verbatim: abs into
        // a second tensor, negate the shuffled halves, then scale.
        fn three_pass(rows: usize, d: usize, seed: u64) -> Tensor {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut w = Tensor::randn(&[rows, d], &mut rng).map(f32::abs);
            let mut indices: Vec<usize> = (0..d).collect();
            for r in 0..rows {
                indices.shuffle(&mut rng);
                let row = w.row_mut(r).expect("row in bounds");
                for &i in indices.iter().take(d / 2) {
                    row[i] = -row[i];
                }
            }
            w.scale_in_place(1.0 / (d as f32).sqrt());
            w
        }
        for (rows, d, seed) in [(1, 1, 0), (3, 7, 1), (10, 100, 2), (17, 3072, 3)] {
            let (got, want) = (trap_weights(rows, d, seed), three_pass(rows, d, seed));
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "rows={rows} d={d}");
        }
    }

    #[test]
    fn calibration_pins_per_row_activation_probability() {
        let imgs = structured_images(96, 12, 5);
        let target = 0.1;
        let attack = CahAttack::calibrated(32, target, &imgs, 7).unwrap();
        // Measure per-row activation on a fresh sample of images.
        let fresh = structured_images(80, 12, 99);
        let (w, biases) = (attack.layer.weights(), attack.layer.biases());
        let mut rates = Vec::new();
        for (r, &bias) in biases.iter().enumerate().take(32) {
            let row = w.row(r).unwrap();
            let active = fresh
                .iter()
                .filter(|img| {
                    let z: f32 = row.iter().zip(img.data()).map(|(&a, &b)| a * b).sum();
                    z + bias > 0.0
                })
                .count();
            rates.push(active as f64 / fresh.len() as f64);
        }
        let mean_rate = rates.iter().sum::<f64>() / rates.len() as f64;
        assert!(
            (mean_rate - target).abs() < 0.08,
            "mean per-row activation {mean_rate} far from target {target}"
        );
    }

    #[test]
    fn undefended_batch_leaks_samples() {
        // CAH against an undefended batch: singleton-activated neurons
        // must reconstruct samples perfectly.
        let calib = structured_images(96, 12, 1);
        let attack = CahAttack::calibrated(192, DEFAULT_ACTIVATION_TARGET, &calib, 13).unwrap();
        let batch = structured_images(6, 12, 9);
        let geometry = batch[0].dims();
        let mut model = attack.build_model(geometry, 10, 0).unwrap();

        let labeled = Batch::new(batch.clone(), (0..6).collect());
        let step = DefenseStack::identity()
            .local_step(&mut model, &labeled, &mut StdRng::seed_from_u64(0))
            .unwrap();

        let (grad_weight, grad_bias) = malicious_grads(&model, &step.update);
        let recons = reconstruct(&attack, grad_weight, grad_bias, geometry);
        assert!(!recons.is_empty(), "no reconstructions at all");
        let matches = match_greedy(&recons, &batch);
        let perfect = matches.iter().filter(|m| m.psnr > 100.0).count();
        assert!(
            perfect >= 4,
            "only {perfect}/6 samples leaked; PSNRs: {:?}",
            matches.iter().map(|m| m.psnr as i64).collect::<Vec<_>>()
        );
    }

    #[test]
    fn calibrated_model_carries_the_trap_weights_of_its_seed() {
        let calib = structured_images(24, 8, 4);
        let attack = CahAttack::calibrated(20, 0.1, &calib, 17).unwrap();
        let model = attack.build_model((3, 8, 8), 5, 0).unwrap();
        let want = trap_weights(20, 3 * 8 * 8, 17);
        let lin = model.layer_as::<Linear>(0).unwrap();
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(lin.weight()), bits(&want));
        let bias = attack.layer.biases();
        assert_eq!(bits(lin.bias()), bits(&Tensor::from_slice(bias)));
        // Every model shares the fitted rows instead of copying them.
        let again = attack.build_model((3, 8, 8), 5, 1).unwrap();
        let weight = |m: &Sequential| m.layer_as::<Linear>(0).unwrap().weight().data().as_ptr();
        assert_eq!(weight(&model), weight(&again));
    }

    #[test]
    fn build_rejects_mismatched_dimension() {
        let calib = structured_images(16, 8, 2);
        let attack = CahAttack::calibrated(16, 0.1, &calib, 0).unwrap();
        assert!(attack.build_model((3, 8, 8), 4, 0).is_ok());
        assert!(attack.build_model((3, 16, 16), 4, 0).is_err());
    }

    #[test]
    fn calibration_rejects_empty_and_bad_targets() {
        let imgs = structured_images(4, 8, 0);
        assert!(CahAttack::calibrated(8, 0.1, &[], 0).is_err());
        assert!(CahAttack::calibrated(8, 0.0, &imgs, 0).is_err());
        assert!(CahAttack::calibrated(8, 1.5, &imgs, 0).is_err());
    }

    #[test]
    fn calibration_rejects_zero_neurons() {
        // A 0-row layer would otherwise build and panic in the first
        // backward pass.
        let imgs = structured_images(4, 8, 0);
        assert!(matches!(
            CahAttack::calibrated(0, 0.1, &imgs, 0),
            Err(AttackError::BadConfig(_))
        ));
    }
}
