//! The one renderer of the procedural datasets.

use oasis_tensor::parallel;
use rand::rngs::StdRng;

use crate::{ClassSpec, Dataset, LabeledImage};

/// A procedural dataset before rendering: `classes` class identities
/// rendered `samples_per_class` times each at `side`×`side`, all
/// deterministic in `seed`.
///
/// Dataset order is class-major (every image of class 0, then class 1,
/// …). Every class draws its identity and its instance jitter from its
/// own rng streams, so [`Generator::render`] can render any prefix of
/// that order, classes in parallel, bit-identical to the same prefix of
/// the full dataset at any pool width.
#[derive(Debug, Clone, Copy)]
pub struct Generator {
    classes: usize,
    samples_per_class: usize,
    side: usize,
    seed: u64,
    /// The identity and jitter streams of `(seed, class)`.
    streams: fn(u64, usize) -> (ClassSpec, StdRng),
}

impl Generator {
    /// The ImageNette stand-in: 10 classes (see
    /// [`IMAGENETTE_CLASSES`](crate::IMAGENETTE_CLASSES)).
    pub fn imagenette(samples_per_class: usize, side: usize, seed: u64) -> Self {
        Generator {
            classes: crate::IMAGENETTE_CLASSES.len(),
            samples_per_class,
            side,
            seed,
            streams: crate::imagenette_like::class_streams,
        }
    }

    /// The generic procedural family behind the CIFAR100 stand-in and
    /// the 100-class synthetic workloads.
    pub fn synthetic(classes: usize, samples_per_class: usize, side: usize, seed: u64) -> Self {
        Generator {
            classes,
            samples_per_class,
            side,
            seed,
            streams: crate::cifar_like::class_streams,
        }
    }

    /// Number of images in the full dataset.
    pub fn len(&self) -> usize {
        self.classes * self.samples_per_class
    }

    /// Whether the full dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The first `n` items of the dataset in dataset order (all of
    /// them when `n >= len()`).
    ///
    /// Only the classes the prefix reaches are rendered, and of the
    /// last one only the images it needs. Classes fan out over the
    /// worker pool ([`parallel::map_range`]); each worker's images are
    /// moved, not copied, into the result.
    pub fn render(&self, n: usize) -> Vec<LabeledImage> {
        let spc = self.samples_per_class;
        let n = n.min(self.len());
        let per_class = parallel::map_range(n.div_ceil(spc.max(1)), |class| {
            let (spec, mut rng) = (self.streams)(self.seed, class);
            let count = spc.min(n - class * spc);
            (0..count)
                .map(|_| LabeledImage {
                    image: spec.render(self.side, self.side, &mut rng),
                    label: class,
                })
                .collect::<Vec<_>>()
        });
        per_class.into_iter().flatten().collect()
    }

    /// The full dataset, named `name`.
    pub fn dataset(&self, name: &str) -> Dataset {
        Dataset::new(name, self.classes, self.render(self.len()))
    }
}
