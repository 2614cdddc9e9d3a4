//! Training batches.

use oasis_image::Image;
use oasis_tensor::Tensor;

use crate::LabeledImage;

/// A batch of images with labels — the user's local training data `D`
/// in the paper's notation.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// The images `x_j`.
    pub images: Vec<Image>,
    /// Their labels.
    pub labels: Vec<usize>,
}

impl Batch {
    /// Builds a batch from labeled samples.
    pub fn from_items(items: Vec<LabeledImage>) -> Self {
        let mut images = Vec::with_capacity(items.len());
        let mut labels = Vec::with_capacity(items.len());
        for it in items {
            images.push(it.image);
            labels.push(it.label);
        }
        Batch { images, labels }
    }

    /// Builds a batch from parallel vectors.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn new(images: Vec<Image>, labels: Vec<usize>) -> Self {
        assert_eq!(images.len(), labels.len(), "images/labels length mismatch");
        Batch { images, labels }
    }

    /// Batch size `B`.
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }

    /// Flattens the batch into a `[B, c·h·w]` design matrix.
    ///
    /// # Panics
    ///
    /// Panics if images have inconsistent dimensions.
    pub fn to_matrix(&self) -> Tensor {
        let d = self.images.first().map(|i| i.numel()).unwrap_or(0);
        let mut x = Tensor::zeros(&[self.images.len(), d]);
        let data = x.data_mut();
        for (i, img) in self.images.iter().enumerate() {
            assert_eq!(img.numel(), d, "inconsistent image dims in batch");
            data[i * d..(i + 1) * d].copy_from_slice(img.data());
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn to_matrix_stacks_rows() {
        let mut a = Image::new(1, 1, 2);
        a.fill(0.25);
        let mut b = Image::new(1, 1, 2);
        b.fill(0.75);
        let batch = Batch::new(vec![a, b], vec![0, 1]);
        let m = batch.to_matrix();
        assert_eq!(m.dims(), &[2, 2]);
        assert_eq!(m.row(0).unwrap(), &[0.25, 0.25]);
        assert_eq!(m.row(1).unwrap(), &[0.75, 0.75]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn new_checks_lengths() {
        Batch::new(vec![Image::new(1, 1, 1)], vec![]);
    }

    #[test]
    fn empty_batch_matrix() {
        let b = Batch::new(vec![], vec![]);
        assert_eq!(b.to_matrix().dims(), &[0, 0]);
        assert!(b.is_empty());
    }
}
