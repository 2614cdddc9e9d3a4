//! ATSPrivacy-style baseline defense (Gao et al., CVPR 2021).
//!
//! This defense *replaces* each training image with a transformed
//! version (found by automatic transformation search in the original
//! work). The paper's Figure 14 shows why it fails against active
//! reconstruction attacks: the attack principle still applies — a
//! neuron activated by exactly one (transformed) image reconstructs
//! that image perfectly, and a rotated or sheared photo is still
//! recognizable content. OASIS differs structurally: it *adds*
//! transformed copies so that only linear combinations can be
//! extracted.

use oasis_augment::Transform;
use oasis_data::Batch;
use oasis_fl::Defense;
use rand::rngs::StdRng;
use rand::Rng;

/// The transform-replacement defense.
#[derive(Debug, Clone)]
pub struct AtsDefense {
    transforms: Vec<Transform>,
}

impl AtsDefense {
    /// Uses an explicit transform pool; each image is replaced by a
    /// random pool member's output.
    pub fn new(transforms: Vec<Transform>) -> Self {
        assert!(!transforms.is_empty(), "ATS needs at least one transform");
        AtsDefense { transforms }
    }

    /// The policy-search result modeled after the ATSPrivacy search
    /// space: rotations and shears of moderate strength.
    pub fn searched() -> Self {
        AtsDefense::new(vec![
            Transform::rotation(30.0),
            Transform::rotation(45.0),
            Transform::MajorRotation { quarter_turns: 1 },
            Transform::shear(0.55),
            Transform::Compose(vec![Transform::rotation(30.0), Transform::shear(0.55)]),
        ])
    }
}

impl Defense for AtsDefense {
    fn name(&self) -> &str {
        "ats"
    }

    fn process(&self, mut batch: Batch, rng: &mut StdRng) -> Batch {
        for img in &mut batch.images {
            let t = &self.transforms[rng.gen_range(0..self.transforms.len())];
            *img = t.apply(img);
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_data::cifar_like_with;
    use rand::SeedableRng;

    fn batch(n: usize) -> Batch {
        let ds = cifar_like_with(n, 1, 12, 0);
        Batch::from_items(ds.items().to_vec())
    }

    #[test]
    fn batch_size_is_preserved_not_expanded() {
        // The structural difference from OASIS: ATS replaces, OASIS adds.
        let b = batch(5);
        let mut rng = StdRng::seed_from_u64(1);
        let out = AtsDefense::searched().process(b, &mut rng);
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn images_are_transformed() {
        let b = batch(5);
        let mut rng = StdRng::seed_from_u64(1);
        let out = AtsDefense::searched().process(b.clone(), &mut rng);
        let changed = out
            .images
            .iter()
            .zip(&b.images)
            .filter(|(a, o)| a != o)
            .count();
        assert_eq!(changed, 5, "every image must be replaced");
    }

    #[test]
    fn labels_are_preserved() {
        let b = batch(4);
        let mut rng = StdRng::seed_from_u64(2);
        let out = AtsDefense::searched().process(b.clone(), &mut rng);
        assert_eq!(out.labels, b.labels);
    }

    #[test]
    #[should_panic(expected = "at least one transform")]
    fn rejects_empty_pool() {
        AtsDefense::new(vec![]);
    }
}
