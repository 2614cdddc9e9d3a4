//! Executable Proposition 1: activation-set overlap analysis.
//!
//! Paper Proposition 1 gives the defense's success condition — for a
//! sample `x_t`, if some `x′_t ∈ D′` activates the *same set* of
//! malicious-layer neurons, the attacker cannot isolate
//! `(∂L_t/∂W, ∂L_t/∂b)` from the summed gradients. This module checks
//! that condition directly against any concrete malicious layer, so
//! experiments can correlate *predicted* protection with *measured*
//! reconstruction PSNR.

use oasis_data::Batch;
use oasis_nn::Linear;

use crate::Oasis;

/// The per-batch result of the Proposition 1 check.
#[derive(Debug, Clone)]
pub struct ActivationAnalysis {
    /// For each original sample: does some augmented sibling share its
    /// exact activation set (or does it activate nothing)?
    pub per_sample_protected: Vec<bool>,
    /// Fraction of protected samples.
    pub protection_rate: f64,
    /// Mean number of active malicious neurons per original sample.
    pub mean_active_neurons: f64,
    /// For each original, how many of its siblings share its set.
    pub twin_counts: Vec<usize>,
}

/// Evaluates Proposition 1 for `batch` under `defense` against the
/// given malicious layer.
///
/// The defended batch is laid out as [`Oasis::defend`] produces it:
/// originals first, then augment groups in sample order.
///
/// # Panics
///
/// Panics if the layer's input width does not match the image size.
pub fn activation_set_analysis(
    malicious_layer: &Linear,
    batch: &Batch,
    defense: &Oasis,
) -> ActivationAnalysis {
    let defended = defense.defend(batch.clone());
    let b = batch.len();
    let group = defense.config().augmentation().expansion_factor() - 1;
    let x = defended.to_matrix();
    assert_eq!(
        x.dims()[1],
        malicious_layer.in_features(),
        "layer width must match image size"
    );

    // Pre-activations of the malicious layer for every defended image.
    let z = x
        .matmul_nt(malicious_layer.weight())
        .and_then(|zz| zz.add_row_broadcast(malicious_layer.bias()))
        .expect("shapes validated above");
    let n = malicious_layer.out_features();
    let active = |row: usize| -> Vec<bool> {
        z.row(row)
            .expect("row in bounds")
            .iter()
            .map(|&v| v > 0.0)
            .collect()
    };

    let mut per_sample_protected = Vec::with_capacity(b);
    let mut twin_counts = Vec::with_capacity(b);
    let mut total_active = 0usize;
    for t in 0..b {
        let set_t = active(t);
        total_active += set_t.iter().filter(|&&a| a).count();
        // A sample that activates nothing contributes no gradient and
        // cannot be reconstructed at all.
        if set_t.iter().all(|&a| !a) {
            per_sample_protected.push(true);
            twin_counts.push(0);
            continue;
        }
        let mut twins = 0usize;
        for k in 0..group {
            let sibling_row = b + t * group + k;
            if active(sibling_row) == set_t {
                twins += 1;
            }
        }
        per_sample_protected.push(twins > 0);
        twin_counts.push(twins);
    }
    let protection_rate = if b == 0 {
        0.0
    } else {
        per_sample_protected.iter().filter(|&&p| p).count() as f64 / b as f64
    };
    let _ = n;
    ActivationAnalysis {
        protection_rate,
        mean_active_neurons: if b == 0 {
            0.0
        } else {
            total_active as f64 / b as f64
        },
        per_sample_protected,
        twin_counts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OasisConfig;
    use oasis_augment::PolicyKind;
    use oasis_data::cifar_like_with;
    use oasis_tensor::Tensor;

    fn batch(n: usize, side: usize) -> Batch {
        let ds = cifar_like_with(n, 1, side, 3);
        Batch::from_items(ds.items().to_vec())
    }

    /// An RTF-style measurement layer: every row is the mean
    /// functional, biases are spread cutoffs.
    fn rtf_style_layer(d: usize, n: usize, mean: f32, spread: f32) -> Linear {
        let w = Tensor::full(&[n, d], 1.0 / d as f32);
        let cuts: Vec<f32> = (0..n)
            .map(|i| -(mean - spread + 2.0 * spread * (i as f32 + 1.0) / (n as f32 + 1.0)))
            .collect();
        Linear::from_parts(w, Tensor::from_slice(&cuts)).unwrap()
    }

    #[test]
    fn major_rotation_protects_against_measurement_layers() {
        // Major rotation preserves the mean measurement exactly →
        // every sample's rotations share its activation set →
        // protection rate 1.0 (the paper's Proposition 1 + §IV-B).
        let b = batch(6, 12);
        let d = b.images[0].numel();
        let layer = rtf_style_layer(d, 64, 0.35, 0.15);
        let defense = Oasis::new(OasisConfig::policy(PolicyKind::MajorRotation));
        let analysis = activation_set_analysis(&layer, &b, &defense);
        assert_eq!(analysis.protection_rate, 1.0, "{:?}", analysis.twin_counts);
        // Every *activating* sample should be twinned by (nearly) all
        // three rotations; samples with an empty activation set report
        // zero twins and are protected trivially. Float summation
        // order can cost a stray twin when a pre-activation lands
        // within ~1e-5 of a cutoff.
        for &count in &analysis.twin_counts {
            assert!(count == 0 || count >= 2, "twins {:?}", analysis.twin_counts);
        }
    }

    #[test]
    fn flips_also_protect_measurement_layers() {
        let b = batch(5, 12);
        let d = b.images[0].numel();
        let layer = rtf_style_layer(d, 32, 0.35, 0.15);
        for kind in [PolicyKind::HorizontalFlip, PolicyKind::VerticalFlip] {
            let defense = Oasis::new(OasisConfig::policy(kind));
            let analysis = activation_set_analysis(&layer, &b, &defense);
            assert_eq!(analysis.protection_rate, 1.0, "policy {}", kind.abbrev());
        }
    }

    #[test]
    fn no_augmentation_gives_no_protection() {
        let b = batch(5, 12);
        let d = b.images[0].numel();
        let layer = rtf_style_layer(d, 32, 0.35, 0.15);
        let defense = Oasis::new(OasisConfig::policy(PolicyKind::Without));
        let analysis = activation_set_analysis(&layer, &b, &defense);
        // Samples activating at least one neuron are unprotected.
        let active_samples = analysis
            .per_sample_protected
            .iter()
            .filter(|&&p| !p)
            .count();
        assert!(
            active_samples > 0,
            "test layer should activate for some samples"
        );
    }

    #[test]
    fn random_layer_defeats_single_transforms_sometimes() {
        // Against trap-style random weights, a rotation rarely lands in
        // the identical activation set — the Figure 6 phenomenon that
        // motivates MR+SH. The protection rate must be below 1.
        use rand::{rngs::StdRng, SeedableRng};
        let b = batch(6, 12);
        let d = b.images[0].numel();
        let mut rng = StdRng::seed_from_u64(0);
        let w = Tensor::randn(&[64, d], &mut rng).scale(1.0 / (d as f32).sqrt());
        let layer = Linear::from_parts(w, Tensor::zeros(&[64])).unwrap();
        let defense = Oasis::new(OasisConfig::policy(PolicyKind::MajorRotation));
        let analysis = activation_set_analysis(&layer, &b, &defense);
        assert!(
            analysis.protection_rate < 1.0,
            "random layers should not be universally twinned: {:?}",
            analysis.twin_counts
        );
    }

    #[test]
    fn mean_active_neurons_is_plausible() {
        let b = batch(4, 12);
        let d = b.images[0].numel();
        let layer = rtf_style_layer(d, 50, 0.35, 0.15);
        let defense = Oasis::new(OasisConfig::policy(PolicyKind::Without));
        let analysis = activation_set_analysis(&layer, &b, &defense);
        assert!(analysis.mean_active_neurons > 0.0);
        assert!(analysis.mean_active_neurons <= 50.0);
    }
}
