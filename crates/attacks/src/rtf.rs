//! Robbing the Fed (RTF) — the imprint-module attack of Fowl et al.
//! (ICLR 2022), reimplemented from the paper's construction.
//!
//! The dishonest server replaces the first fully-connected layer with
//! an *imprint module* of `n` neurons:
//!
//! * every row of `W` is the same measurement functional `h` — here
//!   the mean pixel intensity, `h(x) = (1/d)·Σ x_i`;
//! * bias `i` is `−c_i`, where `c_i` is the `(i+1)/(n+1)` quantile of
//!   `h(x)` under the data distribution (the server knows coarse data
//!   statistics and models `h` as a Gaussian).
//!
//! With ReLU, neuron `i` activates iff `h(x) > c_i`, so consecutive
//! neurons differ by exactly the samples landing in measurement bin
//! `(c_i, c_{i+1}]` — and the gradient *difference* of adjacent
//! neurons isolates those samples for Eq. 6 inversion.

use oasis_image::Image;
use oasis_nn::Sequential;
use oasis_tensor::Tensor;
use std::sync::OnceLock;

use crate::evaluate::grad_row;
use crate::{
    attacked_model, invert_neuron, invert_neuron_difference, probit, ActiveAttack, AttackError,
    Result,
};

/// The RTF imprint attack.
#[derive(Debug, Clone)]
pub struct RtfAttack {
    neurons: usize,
    measurement_mean: f32,
    measurement_std: f32,
    /// The imprint layer's weight and bias, built by the first
    /// [`ActiveAttack::build_model`] and shared copy-on-write by every
    /// later model of the same input width.
    imprint: OnceLock<(Tensor, Tensor)>,
}

impl RtfAttack {
    /// Creates the attack with explicit Gaussian measurement
    /// statistics.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::BadConfig`] for zero neurons or
    /// non-positive std.
    pub fn new(neurons: usize, measurement_mean: f32, measurement_std: f32) -> Result<Self> {
        if neurons < 2 {
            return Err(AttackError::BadConfig(
                "RTF needs at least 2 neurons".into(),
            ));
        }
        if measurement_std <= 0.0 {
            return Err(AttackError::BadConfig(
                "measurement std must be positive".into(),
            ));
        }
        Ok(RtfAttack {
            neurons,
            measurement_mean,
            measurement_std,
            imprint: OnceLock::new(),
        })
    }

    /// Calibrates the measurement distribution from sample images —
    /// the paper's assumption that the server knows coarse statistics
    /// of the data domain.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Calibration`] when fewer than two
    /// calibration images are supplied or they have zero variance.
    pub fn calibrated(neurons: usize, calibration: &[Image]) -> Result<Self> {
        if calibration.len() < 2 {
            return Err(AttackError::Calibration(
                "need at least 2 calibration images".into(),
            ));
        }
        let means: Vec<f32> = calibration.iter().map(Image::mean).collect();
        let mu = means.iter().sum::<f32>() / means.len() as f32;
        let var = means.iter().map(|m| (m - mu) * (m - mu)).sum::<f32>() / means.len() as f32;
        if var <= 0.0 {
            return Err(AttackError::Calibration(
                "calibration images have no variance".into(),
            ));
        }
        Self::new(neurons, mu, var.sqrt())
    }

    /// The bias cutoffs `c_1 < … < c_n`.
    pub fn cutoffs(&self) -> Vec<f32> {
        (0..self.neurons)
            .map(|i| {
                let p = (i + 1) as f64 / (self.neurons + 1) as f64;
                self.measurement_mean + self.measurement_std * probit(p) as f32
            })
            .collect()
    }
}

impl ActiveAttack for RtfAttack {
    fn name(&self) -> &'static str {
        "RTF"
    }

    fn build_model(
        &self,
        geometry: (usize, usize, usize),
        classes: usize,
        seed: u64,
    ) -> Result<Sequential> {
        let (c, h, w) = geometry;
        let d = c * h * w;
        let imprint = || {
            // Every row is the measurement functional h(x) = mean(x).
            let weight = Tensor::full(&[self.neurons, d], 1.0 / d as f32);
            let bias = Tensor::from_slice(&self.cutoffs().iter().map(|&c| -c).collect::<Vec<_>>());
            (weight, bias)
        };
        let (weight, bias) = match self.imprint.get_or_init(imprint) {
            layer if layer.0.dims()[1] == d => layer.clone(),
            _ => imprint(),
        };
        attacked_model(weight, bias, classes, seed)
    }

    /// The adjacent-bin difference: bin `i` holds the samples that
    /// activate neuron `i` but not `i + 1`. The top bin, `h(x) > c_n`,
    /// is the last neuron alone.
    fn invert(&self, i: usize, grad_weight: &[f32], grad_bias: &[f32]) -> Option<Tensor> {
        let row = |j: usize| grad_row(grad_weight, grad_bias, j);
        if i + 1 < self.neurons {
            invert_neuron_difference(row(i), grad_bias[i], row(i + 1), grad_bias[i + 1])
        } else {
            invert_neuron(row(i), grad_bias[i])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::tests::malicious_grads;
    use crate::reconstruct;
    use oasis_data::Batch;
    use oasis_fl::DefenseStack;
    use oasis_metrics::{match_greedy, PSNR_CAP};
    use oasis_nn::Linear;
    use rand::{rngs::StdRng, SeedableRng};

    fn structured_images(count: usize, side: usize, seed: u64) -> Vec<Image> {
        let ds = oasis_data::cifar_like_with(count, 1, side, seed);
        ds.items().iter().map(|it| it.image.clone()).collect()
    }

    #[test]
    fn cutoffs_are_increasing_quantiles() {
        let attack = RtfAttack::new(100, 0.4, 0.1).unwrap();
        let cuts = attack.cutoffs();
        assert_eq!(cuts.len(), 100);
        for pair in cuts.windows(2) {
            assert!(pair[0] < pair[1]);
        }
        // Median cutoff near the mean.
        assert!((cuts[49] - 0.4).abs() < 0.01);
    }

    #[test]
    fn calibration_fits_sample_statistics() {
        let imgs = structured_images(40, 16, 3);
        let attack = RtfAttack::calibrated(64, &imgs).unwrap();
        let emp_mean = imgs.iter().map(Image::mean).sum::<f32>() / imgs.len() as f32;
        assert!((attack.measurement_mean - emp_mean).abs() < 1e-5);
        assert!(attack.measurement_std > 0.0);
    }

    #[test]
    fn calibration_requires_variance() {
        let imgs = vec![Image::new(1, 4, 4), Image::new(1, 4, 4)];
        assert!(RtfAttack::calibrated(8, &imgs).is_err());
    }

    #[test]
    fn undefended_small_batch_is_perfectly_reconstructed() {
        // End-to-end: RTF against an undefended batch of 4 structured
        // images with plenty of bins must reconstruct every sample at
        // (numerically) perfect PSNR — the paper's WO baseline.
        let imgs = structured_images(64, 12, 7);
        let attack = RtfAttack::calibrated(256, &imgs).unwrap();
        let batch: Vec<Image> = imgs[..4].to_vec();
        let geometry = batch[0].dims();
        let mut model = attack.build_model(geometry, 10, 0).unwrap();

        let labeled = Batch::new(batch.clone(), (0..4).collect());
        let step = DefenseStack::identity()
            .local_step(&mut model, &labeled, &mut StdRng::seed_from_u64(0))
            .unwrap();

        let (grad_weight, grad_bias) = malicious_grads(&model, &step.update);
        let recons = reconstruct(&attack, grad_weight, grad_bias, geometry);
        assert!(!recons.is_empty());
        let matches = match_greedy(&recons, &batch);
        assert_eq!(matches.len(), 4);
        for m in &matches {
            assert!(
                m.psnr > 100.0,
                "sample {} reconstructed at only {:.1} dB",
                m.original_idx,
                m.psnr
            );
        }
        assert!(matches.iter().any(|m| m.psnr >= PSNR_CAP - 30.0));
    }

    #[test]
    fn models_of_one_width_share_the_imprint_weights() {
        let attack = RtfAttack::new(16, 0.4, 0.1).unwrap();
        let weight = |geometry| {
            let model = attack.build_model(geometry, 4, 0).unwrap();
            model.layer_as::<Linear>(0).unwrap().weight().clone()
        };
        let (a, b) = (weight((3, 4, 4)), weight((3, 4, 4)));
        assert_eq!(a.data().as_ptr(), b.data().as_ptr());
        // Another width gets its own rows of 1/d.
        let wide = weight((3, 8, 8));
        assert_eq!(wide.dims(), &[16, 192]);
        assert!(wide.data().iter().all(|&v| v == 1.0 / 192.0));
        assert_eq!(a, weight((3, 4, 4)));
    }

    #[test]
    fn new_rejects_degenerate_configs() {
        assert!(RtfAttack::new(1, 0.5, 0.1).is_err());
        assert!(RtfAttack::new(10, 0.5, 0.0).is_err());
    }
}
