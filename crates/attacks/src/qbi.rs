//! Quantile-based bias initialization (QBI) — the cheap,
//! optimization-free active attack of Krauß et al. (arXiv
//! 2406.18745), reimplemented from the paper's construction.
//!
//! Where CAH engineers sparse activation through *trap weights*
//! (negated-and-rescaled coordinate halves), QBI keeps the first
//! layer's weights as plain Gaussian rows and does all the work in
//! the **biases**: each row's bias is placed at a response quantile
//! over a calibration set so that the neuron activates for a target
//! fraction `p` of inputs. For a batch of size `B`, the probability
//! that a neuron is activated by *exactly one* sample — the
//! single-activation condition under which Eq. 6 inversion returns
//! that sample verbatim — is `B·p·(1−p)^{B−1}`, maximized at
//! `p* = 1/B`. That is the whole attack: no optimization loop, no
//! weight crafting, just one quantile scan per neuron. Between
//! rounds an adversary can re-tune `p*` to a new batch size at the
//! cost of re-sorting cached responses, which is what makes QBI the
//! natural "switch target" for adaptive campaign adversaries.

use oasis_image::Image;
use oasis_nn::Sequential;
use oasis_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::calibrate::CalibratedLayer;
use crate::{ActiveAttack, AttackError, Result};

/// The batch size the default activation target is tuned for:
/// `p* = 1/B` with `B = 8`, the evaluation's default local batch.
pub const DEFAULT_QBI_BATCH: usize = 8;

/// The QBI attack: Gaussian first-layer rows, biases at the
/// `1 − 1/B` response quantile.
#[derive(Debug, Clone)]
pub struct QbiAttack {
    /// The Gaussian rows and the biases fitted against them.
    layer: CalibratedLayer,
}

impl QbiAttack {
    /// Calibrates a QBI layer tuned for batch size `batch`: each
    /// row's bias is set at the `1 − 1/batch` quantile of that row's
    /// response over `calibration`, so every neuron fires for
    /// `p* = 1/batch` of inputs — the single-activation optimum.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::BadConfig`] for zero neurons or a batch
    /// size below 2, and [`AttackError::Calibration`] for an empty
    /// calibration set or images of differing sizes.
    pub fn calibrated(
        neurons: usize,
        batch: usize,
        calibration: &[Image],
        weight_seed: u64,
    ) -> Result<Self> {
        if neurons == 0 {
            return Err(AttackError::BadConfig("QBI needs at least 1 neuron".into()));
        }
        if batch < 2 {
            return Err(AttackError::BadConfig(
                "QBI batch target must be at least 2 (p* = 1/B)".into(),
            ));
        }
        let first = calibration
            .first()
            .ok_or_else(|| AttackError::Calibration("empty calibration set".into()))?;
        let w = gaussian_rows(neurons, first.numel(), weight_seed);
        Ok(QbiAttack {
            layer: CalibratedLayer::fit(w, calibration, 1.0 / batch as f64)?,
        })
    }
}

/// Plain Gaussian rows scaled `1/√d` — no trap structure; QBI's
/// selectivity comes entirely from the calibrated biases.
fn gaussian_rows(rows: usize, d: usize, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut w = Tensor::randn(&[rows, d], &mut rng);
    w.scale_in_place(1.0 / (d as f32).sqrt());
    w
}

impl ActiveAttack for QbiAttack {
    fn name(&self) -> &'static str {
        "QBI"
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
    fn calibration_pins_activation_near_one_over_b() {
        let imgs = structured_images(96, 12, 5);
        let batch = 8;
        let attack = QbiAttack::calibrated(32, batch, &imgs, 7).unwrap();
        assert_eq!(attack.layer.biases().len(), 32);
        let target = 1.0 / batch as f64;
        let fresh = structured_images(80, 12, 99);
        let (w, biases) = (attack.layer.weights(), attack.layer.biases());
        let mut rates = Vec::new();
        for (r, &bias) in biases.iter().enumerate() {
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
            "mean per-row activation {mean_rate} far from 1/{batch}"
        );
    }

    #[test]
    fn undefended_batch_leaks_samples_without_optimization() {
        let calib = structured_images(96, 12, 1);
        let attack = QbiAttack::calibrated(192, 6, &calib, 13).unwrap();
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
            perfect >= 3,
            "only {perfect}/6 samples leaked; PSNRs: {:?}",
            matches.iter().map(|m| m.psnr as i64).collect::<Vec<_>>()
        );
    }

    #[test]
    fn calibrated_model_carries_the_gaussian_rows_of_its_seed() {
        let calib = structured_images(24, 8, 4);
        let attack = QbiAttack::calibrated(20, 8, &calib, 17).unwrap();
        let model = attack.build_model((3, 8, 8), 5, 0).unwrap();
        let want = gaussian_rows(20, 3 * 8 * 8, 17);
        let lin = model.layer_as::<Linear>(0).unwrap();
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(lin.weight()), bits(&want));
        assert_eq!(
            bits(lin.bias()),
            bits(&Tensor::from_slice(attack.layer.biases()))
        );
    }

    #[test]
    fn build_rejects_mismatched_dimension() {
        let calib = structured_images(16, 8, 2);
        let attack = QbiAttack::calibrated(16, 8, &calib, 0).unwrap();
        assert!(attack.build_model((3, 8, 8), 4, 0).is_ok());
        assert!(attack.build_model((3, 16, 16), 4, 0).is_err());
    }

    #[test]
    fn constructor_validates() {
        let imgs = structured_images(4, 8, 0);
        assert!(QbiAttack::calibrated(0, 8, &imgs, 0).is_err());
        assert!(QbiAttack::calibrated(8, 1, &imgs, 0).is_err());
        assert!(QbiAttack::calibrated(8, 8, &[], 0).is_err());
        assert!(QbiAttack::calibrated(8, 8, &imgs, 0).is_ok());
    }
}
