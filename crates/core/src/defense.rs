//! The OASIS defense: batch augmentation per paper Eq. 7.

use oasis_augment::{AugmentationPolicy, PolicyKind};
use oasis_data::Batch;
use oasis_fl::Defense;
use rand::rngs::StdRng;

/// The OASIS defense.
///
/// As a [`Defense`] that transforms the batch (and can be stacked with
/// others, e.g. DP-SGD's update clip and noise), `Oasis` plugs
/// directly into the FL client pipeline: before gradients are
/// computed, the local batch `D = {x_t}` is expanded to
///
/// ```text
/// D′ = D ∪ ⋃_t X′_t        (paper Eq. 7)
/// ```
///
/// where `X′_t` contains the policy's transformations of `x_t`, each
/// labeled like `x_t`. Originals come first in the output batch,
/// followed by the augment groups in sample order — the layout
/// [`crate::activation_set_analysis`] reads.
#[derive(Debug, Clone)]
pub struct Oasis {
    policy: AugmentationPolicy,
}

impl Oasis {
    /// The defense running one of the paper's named policies.
    pub fn new(kind: PolicyKind) -> Self {
        Oasis {
            policy: kind.policy(),
        }
    }

    /// Expands a batch to `D′` in place, appending each sample's
    /// augment group after the originals (deterministic; the paper's
    /// transforms have fixed parameters, so no randomness is consumed).
    pub fn defend(&self, mut batch: Batch) -> Batch {
        let n = batch.len();
        for t in 0..n {
            let label = batch.labels[t];
            for transformed in self.policy.expand(&batch.images[t]) {
                batch.images.push(transformed);
                batch.labels.push(label);
            }
        }
        batch
    }
}

impl Defense for Oasis {
    fn name(&self) -> &str {
        "oasis"
    }

    fn process(&self, batch: Batch, _rng: &mut StdRng) -> Batch {
        self.defend(batch)
    }

    /// Each sample becomes itself plus its augment group.
    fn processed_len(&self, n: usize) -> usize {
        n * self.policy.expansion_factor()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_augment::PolicyKind;
    use oasis_data::cifar_like_with;
    use rand::SeedableRng;

    fn batch(n: usize) -> Batch {
        let ds = cifar_like_with(n, 1, 12, 0);
        Batch::from_items(ds.items().to_vec())
    }

    #[test]
    fn defend_expands_by_policy_factor() {
        for kind in PolicyKind::all() {
            let defense = Oasis::new(kind);
            let out = defense.defend(batch(5));
            assert_eq!(
                out.len(),
                5 * kind.policy().expansion_factor(),
                "policy {}",
                kind.abbrev()
            );
        }
    }

    #[test]
    fn originals_come_first_unchanged() {
        let defense = Oasis::new(PolicyKind::MajorRotation);
        let b = batch(3);
        let out = defense.defend(b.clone());
        for i in 0..3 {
            assert_eq!(out.images[i], b.images[i]);
            assert_eq!(out.labels[i], b.labels[i]);
        }
    }

    #[test]
    fn augments_inherit_labels() {
        let defense = Oasis::new(PolicyKind::MajorRotationShearing);
        let b = batch(4);
        let out = defense.defend(b.clone());
        // Layout: originals, then 6 augments per sample in order.
        for t in 0..4 {
            for k in 0..6 {
                let idx = 4 + t * 6 + k;
                assert_eq!(out.labels[idx], b.labels[t], "augment {k} of sample {t}");
            }
        }
    }

    #[test]
    fn without_policy_is_identity() {
        let defense = Oasis::new(PolicyKind::Without);
        let b = batch(4);
        assert_eq!(defense.defend(b.clone()), b);
    }

    #[test]
    fn process_is_deterministic() {
        let defense = Oasis::new(PolicyKind::MajorRotation);
        let b = batch(2);
        let mut rng1 = StdRng::seed_from_u64(1);
        let mut rng2 = StdRng::seed_from_u64(999);
        assert_eq!(
            defense.process(b.clone(), &mut rng1),
            defense.process(b, &mut rng2)
        );
    }

    #[test]
    fn oasis_client_computes_update_on_expanded_batch() {
        use oasis_fl::{DefenseStack, FlClient, ModelFactory};
        use oasis_nn::{shared_params, Linear, Relu, Sequential};
        use std::sync::Arc;

        let data = cifar_like_with(3, 4, 8, 0);
        let d = data.feature_dim();
        let factory: ModelFactory = Arc::new(move || {
            let mut rng = StdRng::seed_from_u64(0);
            let mut m = Sequential::new();
            m.push(Linear::new(d, 8, &mut rng));
            m.push(Relu::new());
            m.push(Linear::new(8, 3, &mut rng));
            m
        });
        let global = shared_params(&factory());
        let oasis = Oasis::new(PolicyKind::MajorRotation);
        let client = FlClient::new(0, data.clone(), Arc::new(DefenseStack::of(oasis)));
        let update = client.compute_update(&factory, &global, 4, 1).unwrap();
        assert_eq!(update.samples, 16, "4 samples × (1 + 3 rotations)");

        let plain = FlClient::new(1, data, Arc::new(DefenseStack::identity()));
        let update2 = plain.compute_update(&factory, &global, 4, 1).unwrap();
        assert_eq!(update2.samples, 4);
    }
}
