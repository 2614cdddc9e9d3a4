//! Dataset containers and splits.

use std::ops::Range;
use std::sync::Arc;

use oasis_image::Image;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::Batch;

/// An image with its class label.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledImage {
    /// The image.
    pub image: Image,
    /// Class index in `[0, num_classes)`.
    pub label: usize,
}

/// An in-memory labeled image dataset.
///
/// A dataset is an immutable window of shared sample storage: cloning
/// it, or taking a [`Dataset::window`] of it, copies no sample and
/// allocates nothing. Samples share their pixels too (an [`Image`]
/// clone is copy-on-write), so [`Dataset::split`], the batch samplers
/// and any reordered copy of the samples copy image handles, never
/// pixels.
#[derive(Clone)]
pub struct Dataset {
    name: Arc<str>,
    num_classes: usize,
    pool: Arc<[LabeledImage]>,
    window: Range<usize>,
}

impl Dataset {
    /// Creates a dataset from parts.
    ///
    /// # Panics
    ///
    /// Panics if any label is `>= num_classes`.
    pub fn new(name: impl Into<String>, num_classes: usize, items: Vec<LabeledImage>) -> Self {
        for it in &items {
            assert!(
                it.label < num_classes,
                "label {} out of range for {num_classes} classes",
                it.label
            );
        }
        Dataset {
            name: name.into().into(),
            num_classes,
            window: 0..items.len(),
            pool: items.into(),
        }
    }

    /// The samples at `range` of this dataset, sharing its storage and
    /// its name.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds.
    pub fn window(&self, range: Range<usize>) -> Dataset {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "window {range:?} out of bounds for {} samples",
            self.len()
        );
        let start = self.window.start;
        Dataset {
            window: start + range.start..start + range.end,
            ..self.clone()
        }
    }

    /// The dataset's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// The samples.
    pub fn items(&self) -> &[LabeledImage] {
        &self.pool[self.window.clone()]
    }

    /// `(channels, height, width)` of the first sample, or `(0,0,0)`
    /// when empty.
    pub fn geometry(&self) -> (usize, usize, usize) {
        self.items()
            .first()
            .map(|it| it.image.dims())
            .unwrap_or((0, 0, 0))
    }

    /// Flat feature dimension `c·h·w`.
    pub fn feature_dim(&self) -> usize {
        let (c, h, w) = self.geometry();
        c * h * w
    }

    /// Splits into train/test by shuffling with `rng` and taking
    /// `train_fraction` of samples for training.
    pub fn split(&self, train_fraction: f32, rng: &mut impl Rng) -> (Dataset, Dataset) {
        let mut items = self.items().to_vec();
        items.shuffle(rng);
        let cut = ((items.len() as f32) * train_fraction.clamp(0.0, 1.0)).round() as usize;
        let test = items.split_off(cut.min(items.len()));
        (
            Dataset::new(format!("{}-train", self.name), self.num_classes, items),
            Dataset::new(format!("{}-test", self.name), self.num_classes, test),
        )
    }

    /// Draws one batch of `size` samples uniformly without replacement.
    ///
    /// # Panics
    ///
    /// Panics if `size > len()`.
    pub fn sample_batch(&self, size: usize, rng: &mut impl Rng) -> Batch {
        let items = self.items();
        assert!(
            size <= items.len(),
            "batch {size} > dataset {}",
            items.len()
        );
        let mut idx: Vec<usize> = (0..items.len()).collect();
        idx.shuffle(rng);
        let chosen = &idx[..size];
        Batch::from_items(chosen.iter().map(|&i| items[i].clone()).collect())
    }

    /// Draws a batch whose labels are all distinct (one sample per
    /// sampled class) — the setting of the linear-model gradient
    /// inversion experiment (paper §IV-D).
    ///
    /// # Panics
    ///
    /// Panics if fewer than `size` classes have samples.
    pub fn sample_batch_unique_labels(&self, size: usize, rng: &mut impl Rng) -> Batch {
        let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); self.num_classes];
        let items = self.items();
        for (i, it) in items.iter().enumerate() {
            by_class[it.label].push(i);
        }
        let mut classes: Vec<usize> = (0..self.num_classes)
            .filter(|&c| !by_class[c].is_empty())
            .collect();
        assert!(
            classes.len() >= size,
            "only {} populated classes for batch {size}",
            classes.len()
        );
        classes.shuffle(rng);
        let items = classes[..size]
            .iter()
            .map(|&c| {
                let i = by_class[c][rng.gen_range(0..by_class[c].len())];
                items[i].clone()
            })
            .collect();
        Batch::from_items(items)
    }

    /// Iterates over sequential (non-shuffled) batches of `size`,
    /// including a trailing partial batch.
    pub fn batches(&self, size: usize) -> impl Iterator<Item = Batch> + '_ {
        self.items()
            .chunks(size.max(1))
            .map(|chunk| Batch::from_items(chunk.to_vec()))
    }

    /// Iterates over shuffled batches of `size` (one epoch).
    pub fn shuffled_batches(&self, size: usize, rng: &mut impl Rng) -> Vec<Batch> {
        let mut items = self.items().to_vec();
        items.shuffle(rng);
        items
            .chunks(size.max(1))
            .map(|chunk| Batch::from_items(chunk.to_vec()))
            .collect()
    }
}

impl std::fmt::Debug for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dataset")
            .field("name", &self.name)
            .field("num_classes", &self.num_classes)
            .field("items", &self.items())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn tiny_dataset(classes: usize, per_class: usize) -> Dataset {
        let mut items = Vec::new();
        for c in 0..classes {
            for s in 0..per_class {
                let mut img = Image::new(1, 2, 2);
                img.fill((c * per_class + s) as f32 / 100.0);
                items.push(LabeledImage {
                    image: img,
                    label: c,
                });
            }
        }
        Dataset::new("tiny", classes, items)
    }

    #[test]
    fn split_partitions_everything() {
        let ds = tiny_dataset(4, 5);
        let (train, test) = ds.split(0.8, &mut StdRng::seed_from_u64(0));
        assert_eq!(train.len() + test.len(), ds.len());
        assert_eq!(train.len(), 16);
    }

    #[test]
    fn sample_batch_has_requested_size() {
        let ds = tiny_dataset(3, 4);
        let b = ds.sample_batch(5, &mut StdRng::seed_from_u64(1));
        assert_eq!(b.len(), 5);
    }

    #[test]
    fn unique_label_batch_has_distinct_labels() {
        let ds = tiny_dataset(10, 3);
        let b = ds.sample_batch_unique_labels(8, &mut StdRng::seed_from_u64(2));
        let mut labels = b.labels.clone();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 8);
    }

    #[test]
    #[should_panic(expected = "populated classes")]
    fn unique_label_batch_requires_enough_classes() {
        let ds = tiny_dataset(3, 2);
        ds.sample_batch_unique_labels(5, &mut StdRng::seed_from_u64(0));
    }

    #[test]
    fn batches_cover_dataset() {
        let ds = tiny_dataset(2, 5);
        let total: usize = ds.batches(3).map(|b| b.len()).sum();
        assert_eq!(total, 10);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn new_rejects_bad_labels() {
        let img = Image::new(1, 2, 2);
        Dataset::new(
            "bad",
            1,
            vec![LabeledImage {
                image: img,
                label: 1,
            }],
        );
    }

    #[test]
    fn clones_and_windows_read_the_shared_storage() {
        let ds = tiny_dataset(3, 4);
        assert_eq!(ds.clone().items().as_ptr(), ds.items().as_ptr());
        let w = ds.window(2..9);
        assert_eq!(w.len(), 7);
        assert_eq!(w.name(), "tiny");
        assert_eq!(w.items(), &ds.items()[2..9]);
        assert_eq!(w.items().as_ptr(), ds.items()[2..].as_ptr());
        let inner = w.window(1..3);
        assert_eq!(inner.items().as_ptr(), ds.items()[3..].as_ptr());
        assert_eq!(inner.window(2..2).len(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn window_rejects_out_of_bounds_ranges() {
        tiny_dataset(2, 2).window(1..5);
    }

    #[test]
    fn geometry_and_feature_dim() {
        let ds = tiny_dataset(1, 1);
        assert_eq!(ds.geometry(), (1, 2, 2));
        assert_eq!(ds.feature_dim(), 4);
    }
}
