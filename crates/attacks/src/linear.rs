//! Gradient inversion on linear models (paper §IV-D).
//!
//! The most restrictive setting from the literature: the model is a
//! single fully-connected layer trained with softmax (logistic
//! regression) loss, and each training batch contains images with
//! **unique labels**. The server needs no malicious modification at
//! all — the gradient row of each class is already dominated by the
//! one sample of that class, so plain Eq. 6 inversion per class row
//! reveals the data.

use oasis_nn::{Linear, Sequential};
use oasis_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::evaluate::grad_row;
use crate::{invert_neuron, ActiveAttack, AttackError, Result};

/// The linear-model inversion attack.
///
/// `classes` doubles as the number of "attacked neurons": each class
/// row of the weight matrix is one reconstruction channel.
#[derive(Debug, Clone)]
pub struct LinearModelAttack {
    classes: usize,
}

impl LinearModelAttack {
    /// Creates the attack for a `classes`-way linear model.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::BadConfig`] for fewer than 2 classes.
    pub fn new(classes: usize) -> Result<Self> {
        if classes < 2 {
            return Err(AttackError::BadConfig("need at least 2 classes".into()));
        }
        Ok(LinearModelAttack { classes })
    }
}

impl ActiveAttack for LinearModelAttack {
    fn name(&self) -> &'static str {
        "LinearInv"
    }

    fn build_model(
        &self,
        geometry: (usize, usize, usize),
        classes: usize,
        seed: u64,
    ) -> Result<Sequential> {
        if classes != self.classes {
            return Err(AttackError::BadConfig(format!(
                "attack configured for {} classes, asked to build {classes}",
                self.classes
            )));
        }
        let (c, h, w) = geometry;
        let d = c * h * w;
        // An ordinary, honestly-initialized single-layer model: this
        // attack requires no tampering.
        let mut rng = StdRng::seed_from_u64(seed);
        let model_layer = Linear::new(d, classes, &mut rng);
        let mut model = Sequential::new();
        model.push(model_layer);
        Ok(model)
    }

    /// Eq. 6 on class row `i`, min-max normalized: the softmax
    /// cross-terms scale the dominant sample by `(1−p)/(…)`, so the raw
    /// ratio over- or under-shoots the `[0, 1]` range, and min-max
    /// normalization (the standard presentation step for
    /// gradient-inversion outputs) restores a comparable intensity
    /// range.
    fn invert(&self, i: usize, grad_weight: &[f32], grad_bias: &[f32]) -> Option<Tensor> {
        let mut values = invert_neuron(grad_row(grad_weight, grad_bias, i), grad_bias[i])?;
        // Normalized in place: the fresh candidate shares no buffer.
        let data = values.data_mut();
        let lo = data.iter().copied().fold(f32::INFINITY, f32::min);
        let hi = data.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        if hi - lo > 1e-9 {
            for v in data {
                *v = (*v - lo) / (hi - lo);
            }
        }
        Some(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_attack;
    use oasis_data::{cifar_like_with, Batch};
    use oasis_fl::DefenseStack;

    #[test]
    fn unique_label_batch_leaks_content() {
        let ds = cifar_like_with(8, 3, 12, 4);
        let mut rng = StdRng::seed_from_u64(0);
        let batch = ds.sample_batch_unique_labels(6, &mut rng);
        let attack = LinearModelAttack::new(8).unwrap();
        let outcome = run_attack(&attack, &batch, &DefenseStack::identity(), 8, 1).unwrap();
        // Linear inversion is approximate (softmax cross-terms), but
        // content must be clearly recognizable for most samples.
        assert!(
            outcome.mean_psnr() > 14.0,
            "mean PSNR {:.1} dB too low for undefended linear inversion",
            outcome.mean_psnr()
        );
    }

    #[test]
    fn duplicate_labels_blur_the_class_row() {
        // With two samples sharing a class, that class row mixes them:
        // the linear combination the paper's defense leverages via
        // same-label augmentation. Invert the target sample's class
        // row directly in both settings and compare.
        use crate::evaluate::tests::malicious_grads;
        use oasis_metrics::psnr;
        use rand::{rngs::StdRng, SeedableRng};

        // Many classes keep the softmax cross-terms small (p ≈ 1/k),
        // as with the paper's CIFAR100/ImageNet label spaces — the
        // regime where the undefended class row is clean enough for
        // the blur effect to be visible.
        let classes = 100;
        let ds = cifar_like_with(classes, 2, 12, 4);
        let mut rng = StdRng::seed_from_u64(3);
        let unique = ds.sample_batch_unique_labels(3, &mut rng);
        let mut dup_images = unique.images.clone();
        let mut dup_labels = unique.labels.clone();
        // Add a *rotated* copy of sample 0 with the same label —
        // exactly what the OASIS preprocessor does.
        dup_images.push(unique.images[0].rotate90(1));
        dup_labels.push(unique.labels[0]);
        let dup = Batch::new(dup_images, dup_labels);

        let attack = LinearModelAttack::new(classes).unwrap();
        let geometry = unique.images[0].dims();
        let class_row = unique.labels[0];

        let invert_class_row = |batch: &Batch| -> f64 {
            let mut model = attack.build_model(geometry, classes, 1).unwrap();
            let step = DefenseStack::identity()
                .local_step(&mut model, batch, &mut StdRng::seed_from_u64(0))
                .unwrap();
            let (grad_weight, grad_bias) = malicious_grads(&model, &step.update);
            let values = attack
                .invert(class_row, grad_weight, grad_bias)
                .expect("class row has signal");
            let rec = oasis_image::Image::from_tensor(geometry.0, geometry.1, geometry.2, values)
                .unwrap();
            psnr(&rec, &unique.images[0])
        };

        let clean = invert_class_row(&unique);
        let blurred = invert_class_row(&dup);
        assert!(
            blurred < clean,
            "mixing a rotated copy into the class row must blur it: {blurred:.1} vs {clean:.1} dB"
        );
    }

    #[test]
    fn constructor_validates() {
        assert!(LinearModelAttack::new(1).is_err());
        assert!(LinearModelAttack::new(2).is_ok());
    }

    #[test]
    fn build_rejects_mismatched_classes() {
        let attack = LinearModelAttack::new(4).unwrap();
        assert!(attack.build_model((1, 4, 4), 5, 0).is_err());
    }
}
