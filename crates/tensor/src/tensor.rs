//! The dense row-major `f32` tensor.

use std::fmt;
use std::sync::Arc;

use crate::{Result, Shape, TensorError};

/// A dense, row-major `f32` tensor.
///
/// All tensors are contiguous; transposes and slices copy. This keeps
/// every downstream algorithm (manual backprop, gradient inversion)
/// trivially auditable.
///
/// Clones share their values, copy-on-write: `clone` bumps a reference
/// count, and the first write through a shared tensor
/// ([`Tensor::data_mut`] or anything built on it) copies the buffer
/// once, so the other clones never see it. A model template, the
/// models cloned from it and the malicious layer every attacked trial
/// receives therefore hold their weights once. Each write call checks
/// whether the buffer is shared, so a loop that writes element by
/// element takes one `data_mut()` slice before the loop. Equality
/// compares values, not buffers.
///
/// ```
/// use oasis_tensor::Tensor;
///
/// # fn main() -> Result<(), oasis_tensor::TensorError> {
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3])?;
/// assert_eq!(t.get(&[1, 2])?, 6.0);
/// assert_eq!(t.row(1)?, &[4.0, 5.0, 6.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    data: Arc<Vec<f32>>,
    shape: Shape,
}

impl Tensor {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Creates a tensor from a flat buffer and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` is not the
    /// product of `dims`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self> {
        let shape = Shape::new(dims);
        if data.len() != shape.numel() {
            return Err(TensorError::LengthMismatch {
                len: data.len(),
                expected: shape.numel(),
            });
        }
        Ok(Tensor {
            data: Arc::new(data),
            shape,
        })
    }

    /// Creates an all-zero tensor.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: Arc::new(vec![0.0; shape.numel()]),
            shape,
        }
    }

    /// Creates an all-one tensor.
    pub fn ones(dims: &[usize]) -> Self {
        Self::full(dims, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: Arc::new(vec![value; shape.numel()]),
            shape,
        }
    }

    /// Creates the `n`×`n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        let data = t.data_mut();
        for i in 0..n {
            data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a rank-1 tensor from a slice.
    pub fn from_slice(values: &[f32]) -> Self {
        Tensor {
            data: Arc::new(values.to_vec()),
            shape: Shape::new(&[values.len()]),
        }
    }

    /// Creates a scalar (rank-0) tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            data: Arc::new(vec![value]),
            shape: Shape::new(&[]),
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The axis lengths as a slice.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// The rank (number of axes).
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.shape.numel()
    }

    /// The flat row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the flat row-major buffer. Copies the buffer
    /// first if another clone shares it, so call it once outside a
    /// loop.
    pub fn data_mut(&mut self) -> &mut [f32] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// Overwrites every value with `values`. An unshared buffer is
    /// written in place; a shared one is replaced by a fresh copy of
    /// `values`, so the write never first copies the values it is
    /// about to overwrite.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from [`Tensor::numel`].
    pub fn copy_from_slice(&mut self, values: &[f32]) {
        assert_eq!(values.len(), self.numel(), "copy_from_slice length");
        match Arc::get_mut(&mut self.data) {
            Some(data) => data.copy_from_slice(values),
            None => self.data = Arc::new(values.to_vec()),
        }
    }

    /// Consumes the tensor and returns its buffer (a copy when another
    /// clone shares it).
    pub fn into_vec(self) -> Vec<f32> {
        Arc::unwrap_or_clone(self.data)
    }

    /// Reads the element at a multi-index.
    ///
    /// # Errors
    ///
    /// Returns an error if the index has the wrong rank or is out of
    /// bounds.
    pub fn get(&self, index: &[usize]) -> Result<f32> {
        Ok(self.data[self.shape.flat_index(index)?])
    }

    /// Writes the element at a multi-index.
    ///
    /// # Errors
    ///
    /// Returns an error if the index has the wrong rank or is out of
    /// bounds.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let flat = self.shape.flat_index(index)?;
        self.data_mut()[flat] = value;
        Ok(())
    }

    /// Borrow row `i` of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns an error if the tensor is not rank-2 or `i` is out of
    /// bounds.
    pub fn row(&self, i: usize) -> Result<&[f32]> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "row",
                expected: 2,
                actual: self.rank(),
            });
        }
        let (rows, cols) = (self.dims()[0], self.dims()[1]);
        if i >= rows {
            return Err(TensorError::IndexOutOfRange {
                index: i,
                bound: rows,
            });
        }
        Ok(&self.data[i * cols..(i + 1) * cols])
    }

    /// Mutable borrow of row `i` of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Tensor::row`].
    pub fn row_mut(&mut self, i: usize) -> Result<&mut [f32]> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "row_mut",
                expected: 2,
                actual: self.rank(),
            });
        }
        let (rows, cols) = (self.dims()[0], self.dims()[1]);
        if i >= rows {
            return Err(TensorError::IndexOutOfRange {
                index: i,
                bound: rows,
            });
        }
        Ok(&mut self.data_mut()[i * cols..(i + 1) * cols])
    }

    // ------------------------------------------------------------------
    // Shape manipulation
    // ------------------------------------------------------------------

    /// Transposes a rank-2 tensor (copies).
    ///
    /// # Errors
    ///
    /// Returns an error if the tensor is not rank-2.
    pub fn transpose(&self) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "transpose",
                expected: 2,
                actual: self.rank(),
            });
        }
        let (r, c) = (self.dims()[0], self.dims()[1]);
        let mut out = Tensor::zeros(&[c, r]);
        let dst = out.data_mut();
        for i in 0..r {
            for j in 0..c {
                dst[j * r + i] = self.data[i * c + j];
            }
        }
        Ok(out)
    }

    /// Copies rows `[start, end)` of a rank-2 tensor into a new tensor.
    ///
    /// # Errors
    ///
    /// Returns an error on rank/bounds violations or `start > end`.
    pub fn slice_rows(&self, start: usize, end: usize) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "slice_rows",
                expected: 2,
                actual: self.rank(),
            });
        }
        let (rows, cols) = (self.dims()[0], self.dims()[1]);
        if start > end || end > rows {
            return Err(TensorError::IndexOutOfRange {
                index: end,
                bound: rows,
            });
        }
        Ok(Tensor {
            data: Arc::new(self.data[start * cols..end * cols].to_vec()),
            shape: Shape::new(&[end - start, cols]),
        })
    }

    /// Stacks rank-N tensors along a new leading axis.
    ///
    /// # Errors
    ///
    /// Returns an error if `items` is empty or shapes differ.
    pub fn stack(items: &[Tensor]) -> Result<Tensor> {
        let first = items.first().ok_or(TensorError::EmptyTensor)?;
        let mut data = Vec::with_capacity(first.numel() * items.len());
        for t in items {
            if !t.shape.same_as(&first.shape) {
                return Err(TensorError::ShapeMismatch {
                    op: "stack",
                    lhs: first.dims().to_vec(),
                    rhs: t.dims().to_vec(),
                });
            }
            data.extend_from_slice(&t.data);
        }
        let mut dims = vec![items.len()];
        dims.extend_from_slice(first.dims());
        Tensor::from_vec(data, &dims)
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        const PREVIEW: usize = 8;
        if self.numel() <= PREVIEW {
            write!(f, "{:?}", self.data)
        } else {
            write!(f, "{:?}…({} elems)", &self.data[..PREVIEW], self.numel())
        }
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros(&[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0; 5], &[2, 3]).is_err());
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
    }

    #[test]
    fn eye_has_unit_diagonal() {
        let i3 = Tensor::eye(3);
        for r in 0..3 {
            for c in 0..3 {
                let expect = if r == c { 1.0 } else { 0.0 };
                assert_eq!(i3.get(&[r, c]).unwrap(), expect);
            }
        }
    }

    #[test]
    fn get_set_round_trip() {
        let mut t = Tensor::zeros(&[2, 2, 2]);
        t.set(&[1, 0, 1], 7.5).unwrap();
        assert_eq!(t.get(&[1, 0, 1]).unwrap(), 7.5);
        assert_eq!(t.get(&[0, 0, 0]).unwrap(), 0.0);
    }

    #[test]
    fn transpose_is_involution() {
        let t = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[2, 3]).unwrap();
        let tt = t.transpose().unwrap().transpose().unwrap();
        assert_eq!(tt, t);
    }

    #[test]
    fn transpose_swaps_entries() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let tr = t.transpose().unwrap();
        assert_eq!(tr.get(&[2, 1]).unwrap(), t.get(&[1, 2]).unwrap());
        assert_eq!(tr.dims(), &[3, 2]);
    }

    #[test]
    fn slice_rows_copies_expected_rows() {
        let t = Tensor::from_vec((0..12).map(|i| i as f32).collect(), &[4, 3]).unwrap();
        let s = t.slice_rows(1, 3).unwrap();
        assert_eq!(s.dims(), &[2, 3]);
        assert_eq!(s.data(), &[3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
    }

    #[test]
    fn stack_builds_leading_axis() {
        let a = Tensor::from_slice(&[1.0, 2.0]);
        let b = Tensor::from_slice(&[3.0, 4.0]);
        let s = Tensor::stack(&[a, b]).unwrap();
        assert_eq!(s.dims(), &[2, 2]);
        assert_eq!(s.data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn stack_rejects_mixed_shapes() {
        let a = Tensor::from_slice(&[1.0, 2.0]);
        let b = Tensor::from_slice(&[3.0]);
        assert!(Tensor::stack(&[a, b]).is_err());
    }

    #[test]
    fn row_accessors_enforce_rank() {
        let t = Tensor::zeros(&[4]);
        assert!(t.row(0).is_err());
    }

    #[test]
    fn debug_never_empty() {
        let t = Tensor::zeros(&[100]);
        assert!(!format!("{t:?}").is_empty());
    }

    #[test]
    fn clones_share_values_until_a_write() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let mut b = a.clone();
        assert_eq!(a.data().as_ptr(), b.data().as_ptr());
        b.row_mut(1).unwrap()[0] = 9.0;
        assert_ne!(a.data().as_ptr(), b.data().as_ptr());
        assert_eq!(a.data(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(b.data(), &[1.0, 2.0, 9.0, 4.0]);
        assert_ne!(a, b);
        b.set(&[1, 0], 3.0).unwrap();
        assert_eq!(a, b, "equality compares values, not buffers");
        assert_eq!(a.clone().into_vec(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn copy_from_slice_writes_in_place_only_when_unshared() {
        let mut t = Tensor::zeros(&[3]);
        let ptr = t.data().as_ptr();
        t.copy_from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(t.data().as_ptr(), ptr, "an unshared buffer is reused");
        let template = t.clone();
        t.copy_from_slice(&[4.0, 5.0, 6.0]);
        assert_ne!(t.data().as_ptr(), ptr, "a shared buffer is replaced");
        assert_eq!(template.data(), &[1.0, 2.0, 3.0]);
        assert_eq!(t.data(), &[4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "copy_from_slice length")]
    fn copy_from_slice_rejects_a_wrong_length() {
        Tensor::zeros(&[3]).copy_from_slice(&[1.0]);
    }

    #[test]
    fn tensor_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Tensor>();
    }
}
