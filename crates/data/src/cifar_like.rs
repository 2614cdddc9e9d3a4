//! The CIFAR100 stand-in: 100 classes of 32×32×3 procedural images.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{ClassSpec, Dataset, Generator};

/// Generator with explicit class count and resolution (used by tests
/// and by experiments that subsample classes for speed).
pub fn cifar_like_with(
    classes: usize,
    samples_per_class: usize,
    side: usize,
    seed: u64,
) -> Dataset {
    synthetic_dataset("CIFAR100-like", classes, samples_per_class, side, seed)
}

/// Fully generic procedural dataset constructor: `classes` procedural
/// class identities rendered `samples_per_class` times at
/// `side`×`side`, through [`Generator::synthetic`].
pub fn synthetic_dataset(
    name: &str,
    classes: usize,
    samples_per_class: usize,
    side: usize,
    seed: u64,
) -> Dataset {
    Generator::synthetic(classes, samples_per_class, side, seed).dataset(name)
}

/// The identity and jitter streams of `class` in the synthetic
/// family under `seed`.
pub(crate) fn class_streams(seed: u64, class: usize) -> (ClassSpec, StdRng) {
    let rng = StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(class as u64) ^ SALT);
    (ClassSpec::derive(seed, class), rng)
}

/// Salt mixed into per-class RNG streams so sample jitter is
/// decorrelated from the class-identity stream.
const SALT: u64 = 0xC1FA_5EED;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn has_expected_shape() {
        let ds = cifar_like_with(10, 3, 32, 1);
        assert_eq!(ds.len(), 30);
        assert_eq!(ds.num_classes(), 10);
        assert_eq!(ds.geometry(), (3, 32, 32));
        assert_eq!(ds.feature_dim(), 3 * 32 * 32);
    }

    #[test]
    fn deterministic_in_seed() {
        let a = cifar_like_with(5, 2, 16, 7);
        let b = cifar_like_with(5, 2, 16, 7);
        assert_eq!(a.items(), b.items());
    }

    #[test]
    fn different_seeds_differ() {
        let a = cifar_like_with(5, 2, 16, 7);
        let b = cifar_like_with(5, 2, 16, 8);
        assert_ne!(a.items(), b.items());
    }

    #[test]
    fn full_dataset_has_100_classes() {
        let ds = cifar_like_with(100, 1, 32, 0);
        assert_eq!(ds.num_classes(), 100);
        assert_eq!(ds.len(), 100);
    }
}
