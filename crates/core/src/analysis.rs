//! Executable Proposition 1: activation-set overlap analysis.
//!
//! Paper Proposition 1 gives the defense's success condition — for a
//! sample `x_t`, if some `x′_t ∈ D′` activates the *same set* of
//! malicious-layer neurons, the attacker cannot isolate
//! `(∂L_t/∂W, ∂L_t/∂b)` from the summed gradients. This module checks
//! that condition on the batch a trial actually trained on, against
//! any concrete malicious layer, so experiments can correlate
//! *predicted* protection with *measured* reconstruction PSNR.

use oasis_image::Image;
use oasis_nn::Linear;
use oasis_tensor::Tensor;

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

/// The malicious layer's activation set of every image: entry `[i][j]`
/// says whether neuron `j` fires for image `i` (`w_j·x_i + b_j > 0`).
///
/// # Panics
///
/// Panics if the images differ in size or the layer's input width
/// does not match it.
pub fn activation_sets(layer: &Linear, images: &[Image]) -> Vec<Vec<bool>> {
    let Some(first) = images.first() else {
        return Vec::new();
    };
    let d = first.numel();
    assert_eq!(d, layer.in_features(), "layer width must match image size");
    let mut data = Vec::with_capacity(images.len() * d);
    for img in images {
        assert_eq!(img.numel(), d, "inconsistent image dims in batch");
        data.extend_from_slice(img.data());
    }
    let z = Tensor::from_vec(data, &[images.len(), d])
        .and_then(|x| x.matmul_nt(layer.weight()))
        .and_then(|zz| zz.add_row_broadcast(layer.bias()))
        .expect("shapes validated above");
    z.data()
        .chunks_exact(layer.out_features())
        .map(|row| row.iter().map(|&v| v > 0.0).collect())
        .collect()
}

/// Evaluates Proposition 1 on `processed`, the batch a client trained
/// on ([`oasis_fl::DefenseStack::process_batch`], or an attack
/// outcome's processed images), against the given malicious layer.
///
/// `processed` is laid out as [`crate::Oasis`] builds `D′`: the
/// `originals` first, then one equal-sized augment group per original,
/// in sample order. A stack that does not expand the batch has empty
/// groups, so no original has a twin.
///
/// # Panics
///
/// Panics if `processed` is not `originals` plus a whole number of
/// augments per original, or if the layer's input width does not
/// match the image size.
pub fn activation_set_analysis(
    malicious_layer: &Linear,
    processed: &[Image],
    originals: usize,
) -> ActivationAnalysis {
    let b = originals;
    assert!(
        processed.len() >= b && processed.len().is_multiple_of(b),
        "{} processed images are not {b} originals plus equal augment groups",
        processed.len()
    );
    let group = processed.len().checked_div(b).map_or(0, |k| k - 1);
    let sets = activation_sets(malicious_layer, processed);

    let mut per_sample_protected = Vec::with_capacity(b);
    let mut twin_counts = Vec::with_capacity(b);
    let mut total_active = 0usize;
    for (t, set_t) in sets[..b].iter().enumerate() {
        let active = set_t.iter().filter(|&&a| a).count();
        total_active += active;
        // A sample that activates nothing contributes no gradient and
        // cannot be reconstructed at all.
        if active == 0 {
            per_sample_protected.push(true);
            twin_counts.push(0);
            continue;
        }
        let siblings = &sets[b + t * group..b + (t + 1) * group];
        let twins = siblings.iter().filter(|s| *s == set_t).count();
        per_sample_protected.push(twins > 0);
        twin_counts.push(twins);
    }
    let (protection_rate, mean_active_neurons) = if b == 0 {
        (0.0, 0.0)
    } else {
        let protected = per_sample_protected.iter().filter(|&&p| p).count();
        (protected as f64 / b as f64, total_active as f64 / b as f64)
    };
    ActivationAnalysis {
        per_sample_protected,
        protection_rate,
        mean_active_neurons,
        twin_counts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Oasis;
    use oasis_augment::PolicyKind;
    use oasis_data::{cifar_like_with, Batch};

    fn batch(n: usize, side: usize) -> Batch {
        let ds = cifar_like_with(n, 1, side, 3);
        Batch::from_items(ds.items().to_vec())
    }

    /// Proposition 1 for `b` under the OASIS policy `kind`.
    fn analyse(layer: &Linear, b: &Batch, kind: PolicyKind) -> ActivationAnalysis {
        let defended = Oasis::new(kind).defend(b.clone());
        activation_set_analysis(layer, &defended.images, b.len())
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
        let analysis = analyse(&layer, &b, PolicyKind::MajorRotation);
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
            let analysis = analyse(&layer, &b, kind);
            assert_eq!(analysis.protection_rate, 1.0, "policy {}", kind.abbrev());
        }
    }

    #[test]
    fn no_augmentation_gives_no_protection() {
        let b = batch(5, 12);
        let d = b.images[0].numel();
        let layer = rtf_style_layer(d, 32, 0.35, 0.15);
        let analysis = analyse(&layer, &b, PolicyKind::Without);
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
        let analysis = analyse(&layer, &b, PolicyKind::MajorRotation);
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
        let analysis = analyse(&layer, &b, PolicyKind::Without);
        assert!(analysis.mean_active_neurons > 0.0);
        assert!(analysis.mean_active_neurons <= 50.0);
    }

    #[test]
    fn activation_sets_follow_the_pre_activation_sign() {
        let mut lit = Image::new(1, 1, 2);
        lit.fill(1.0);
        let dark = Image::new(1, 1, 2);
        let w = Tensor::from_vec(vec![1.0, 1.0, -1.0, -1.0], &[2, 2]).unwrap();
        let layer = Linear::from_parts(w, Tensor::from_slice(&[-0.5, 0.5])).unwrap();
        let sets = activation_sets(&layer, &[lit, dark]);
        assert_eq!(sets, vec![vec![true, false], vec![false, true]]);
        assert!(activation_sets(&layer, &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "equal augment groups")]
    fn ragged_groups_are_refused() {
        let b = batch(3, 8);
        let layer = rtf_style_layer(b.images[0].numel(), 4, 0.35, 0.15);
        activation_set_analysis(&layer, &b.images, 2);
    }
}
