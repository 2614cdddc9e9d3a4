//! DP-SGD utility baseline.
//!
//! The related-work comparison: differentially-private SGD bounds
//! reconstruction leakage by clipping per-sample gradients and adding
//! Gaussian noise, but the noise needed to hide image content also
//! degrades accuracy (paper §I and §V). The attack harness measures
//! the privacy side when the defense stack carries a DP update stage
//! (`run_attack` with `oasis_fl::DpStage`); this module measures the
//! utility side by training a classifier under the same mechanism.

use oasis_data::{Batch, Dataset};
use oasis_fl::{ClipStage, DefenseStack};
use oasis_nn::{Linear, Sequential};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::Result;

/// DP-SGD hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct DpConfig {
    /// Per-sample gradient L2 clipping bound `C`.
    pub clip_norm: f32,
    /// Noise multiplier σ (noise std = `σ·C/B`).
    pub noise_multiplier: f32,
    /// Learning rate.
    pub learning_rate: f32,
    /// Training epochs.
    pub epochs: usize,
    /// Batch size.
    pub batch_size: usize,
}

impl Default for DpConfig {
    fn default() -> Self {
        DpConfig {
            clip_norm: 1.0,
            noise_multiplier: 1.0,
            learning_rate: 0.1,
            epochs: 5,
            batch_size: 16,
        }
    }
}

/// Trains a linear softmax classifier with DP-SGD and returns the
/// final test accuracy — one point of the DP utility/privacy
/// trade-off curve.
///
/// # Errors
///
/// Propagates model execution failures.
///
/// # Panics
///
/// Panics if `config.clip_norm` is not positive.
pub fn train_linear_with_dp(
    train: &Dataset,
    test: &Dataset,
    config: DpConfig,
    seed: u64,
) -> Result<f64> {
    let d = train.feature_dim();
    let classes = train.num_classes();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model = Sequential::new();
    model.push(Linear::new(d, classes, &mut rng));
    let clip = DefenseStack::of(ClipStage::new(config.clip_norm));

    for _ in 0..config.epochs {
        for batch in train.shuffled_batches(config.batch_size, &mut rng) {
            // Per-sample clipped gradients, summed: the clip stack's
            // local step on each one-sample batch.
            let b = batch.len() as f32;
            let mut update = Vec::new();
            for (image, label) in batch.images.into_iter().zip(batch.labels) {
                let sample = Batch::new(vec![image], vec![label]);
                let g = clip.local_step(&mut model, &sample, &mut rng)?.update;
                if update.is_empty() {
                    update = g;
                } else {
                    update.iter_mut().zip(&g).for_each(|(u, v)| *u += v);
                }
            }
            let sigma = config.noise_multiplier * config.clip_norm / b;
            for u in update.iter_mut() {
                *u /= b;
            }
            oasis_tensor::add_randn_scaled(&mut update, 0.0, sigma, &mut rng);
            // SGD step.
            let mut params = oasis_nn::flatten_params(&model);
            for (p, &g) in params.iter_mut().zip(&update) {
                *p -= config.learning_rate * g;
            }
            oasis_nn::load_params(&mut model, &params)?;
        }
    }
    oasis_fl::evaluate_accuracy(&mut model, test, config.batch_size).map_err(|e| match e {
        oasis_fl::FlError::Nn(nn) => crate::AttackError::Nn(nn),
        other => crate::AttackError::BadConfig(other.to_string()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_data::cifar_like_with;

    fn split() -> (Dataset, Dataset) {
        let ds = cifar_like_with(3, 24, 8, 2);
        let mut rng = StdRng::seed_from_u64(0);
        ds.split(0.75, &mut rng)
    }

    #[test]
    fn no_noise_learns_separable_classes() {
        let (train, test) = split();
        let cfg = DpConfig {
            noise_multiplier: 0.0,
            clip_norm: 5.0,
            epochs: 12,
            learning_rate: 0.5,
            batch_size: 8,
        };
        let acc = train_linear_with_dp(&train, &test, cfg, 1).unwrap();
        assert!(acc > 0.5, "accuracy {acc} too low without noise");
    }

    #[test]
    fn heavy_noise_destroys_utility() {
        let (train, test) = split();
        let low_noise = DpConfig {
            noise_multiplier: 0.0,
            clip_norm: 5.0,
            epochs: 12,
            learning_rate: 0.5,
            batch_size: 8,
        };
        let heavy_noise = DpConfig {
            noise_multiplier: 50.0,
            ..low_noise
        };
        let clean = train_linear_with_dp(&train, &test, low_noise, 1).unwrap();
        let noisy = train_linear_with_dp(&train, &test, heavy_noise, 1).unwrap();
        assert!(
            noisy < clean,
            "heavy DP noise should reduce accuracy: {noisy} vs {clean}"
        );
    }
}
