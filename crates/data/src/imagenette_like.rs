//! The ImageNet stand-in.
//!
//! The paper evaluates on a 10-class ImageNet subset (the Imagenette
//! classes: tench, English springer, cassette player, …). This
//! generator produces 10 classes of 64×64×3 procedural images — the
//! same class count, at a resolution that keeps the `n×d` malicious
//! layer (`d = 12288`) CPU-friendly while remaining 4× larger than the
//! CIFAR stand-in, preserving the paper's two-dataset size contrast.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{ClassSpec, Dataset, Generator};

/// The ten Imagenette class names, kept for readable experiment
/// output.
pub const IMAGENETTE_CLASSES: [&str; 10] = [
    "tench",
    "english_springer",
    "cassette_player",
    "chain_saw",
    "church",
    "french_horn",
    "garbage_truck",
    "gas_pump",
    "golf_ball",
    "parachute",
];

/// Generates the ImageNette-like dataset: 10 classes, 64×64×3.
pub fn imagenette_like(samples_per_class: usize, seed: u64) -> Dataset {
    imagenette_like_with(samples_per_class, 64, seed)
}

/// Generator with explicit resolution, through
/// [`Generator::imagenette`].
pub fn imagenette_like_with(samples_per_class: usize, side: usize, seed: u64) -> Dataset {
    Generator::imagenette(samples_per_class, side, seed).dataset("ImageNette-like")
}

/// The identity and jitter streams of `class` in the ImageNette
/// family under `seed`.
pub(crate) fn class_streams(seed: u64, class: usize) -> (ClassSpec, StdRng) {
    let rng = StdRng::seed_from_u64(seed.wrapping_mul(131).wrapping_add(class as u64) ^ SALT);
    (ClassSpec::derive(seed ^ SALT, class), rng)
}

const SALT: u64 = 0x1A6E_7E77;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn has_ten_classes_at_64px() {
        let ds = imagenette_like(2, 0);
        assert_eq!(ds.num_classes(), 10);
        assert_eq!(ds.len(), 20);
        assert_eq!(ds.geometry(), (3, 64, 64));
    }

    #[test]
    fn class_names_count_matches() {
        assert_eq!(IMAGENETTE_CLASSES.len(), 10);
    }

    #[test]
    fn deterministic_in_seed() {
        let a = imagenette_like_with(2, 32, 5);
        let b = imagenette_like_with(2, 32, 5);
        assert_eq!(a.items(), b.items());
    }

    #[test]
    fn differs_from_cifar_generator() {
        let a = imagenette_like_with(1, 32, 5);
        let b = crate::cifar_like_with(10, 1, 32, 5);
        assert_ne!(a.items(), b.items());
    }
}
