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
/// A tensor is one heap allocation: an `Arc<[f32]>`, whose reference
/// counts sit in front of the values, plus a [`Shape`] stored inline.
/// Clones share their values, copy-on-write: `clone` bumps a reference
/// count, and the first write through a shared tensor
/// ([`Tensor::data_mut`] or anything built on it) copies the buffer
/// once, so the other clones never see it. A model template, the
/// models cloned from it and the malicious layer every attacked trial
/// receives therefore hold their weights once, and an
/// `oasis_image::Image` is a tensor of dims `[c, h, w]`, so a dataset's
/// partitions and batches share its pixels the same way. Each write
/// call checks whether the buffer is shared, so a loop that writes
/// element by element takes one `data_mut()` slice before the loop.
/// Equality compares values, not buffers.
///
/// A buffer cannot grow in place, so build one in its final size:
/// [`Tensor::from_values`] collects an exact-size iterator straight
/// into it, while [`Tensor::from_vec`] copies its `Vec` once.
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
    data: Arc<[f32]>,
    shape: Shape,
}

/// The shape of `dims`, for constructors that panic on dims
/// [`Shape::new`] rejects.
fn valid_shape(dims: &[usize]) -> Shape {
    Shape::new(dims).unwrap_or_else(|e| panic!("{e}"))
}

impl Tensor {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Creates a tensor of dims `dims` from its row-major values,
    /// collected straight into the tensor's buffer: one allocation when
    /// the iterator knows its exact length, as a slice iterator or a
    /// range does through `map`, `zip` or `copied`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::TooLarge`] for dims of rank above four or
    /// an element count that overflows `usize`, and
    /// [`TensorError::LengthMismatch`] if the iterator does not yield
    /// exactly that many values.
    pub fn from_values(values: impl IntoIterator<Item = f32>, dims: &[usize]) -> Result<Self> {
        let shape = Shape::new(dims)?;
        let data: Arc<[f32]> = values.into_iter().collect();
        if data.len() != shape.numel() {
            return Err(TensorError::LengthMismatch {
                len: data.len(),
                expected: shape.numel(),
            });
        }
        Ok(Tensor { data, shape })
    }

    /// Creates a tensor from a flat buffer and a shape, copying the
    /// buffer once into the tensor's.
    ///
    /// # Errors
    ///
    /// As [`Tensor::from_values`].
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self> {
        Self::from_values(data, dims)
    }

    /// Creates an all-zero tensor.
    ///
    /// # Panics
    ///
    /// Panics on more than four axes or an element count that overflows
    /// `usize`.
    pub fn zeros(dims: &[usize]) -> Self {
        Self::full(dims, 0.0)
    }

    /// Creates an all-one tensor.
    ///
    /// # Panics
    ///
    /// As [`Tensor::zeros`].
    pub fn ones(dims: &[usize]) -> Self {
        Self::full(dims, 1.0)
    }

    /// Creates a tensor filled with `value`.
    ///
    /// # Panics
    ///
    /// As [`Tensor::zeros`].
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = valid_shape(dims);
        Tensor {
            data: std::iter::repeat_n(value, shape.numel()).collect(),
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
            data: Arc::from(values),
            shape: valid_shape(&[values.len()]),
        }
    }

    /// Creates a scalar (rank-0) tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            data: Arc::from([value]),
            shape: valid_shape(&[]),
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
        self.data.len()
    }

    /// The flat row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the flat row-major buffer. Copies the buffer
    /// first if another clone shares it, so call it once outside a
    /// loop.
    pub fn data_mut(&mut self) -> &mut [f32] {
        Arc::make_mut(&mut self.data)
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
            None => self.data = Arc::from(values),
        }
    }

    /// The same values under new dims, sharing the buffer: nothing is
    /// copied.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::TooLarge`] for dims [`Shape::new`]
    /// rejects, and [`TensorError::LengthMismatch`] if `dims` do not
    /// hold [`Tensor::numel`] elements.
    pub fn reshape(self, dims: &[usize]) -> Result<Tensor> {
        let shape = Shape::new(dims)?;
        if shape.numel() != self.numel() {
            return Err(TensorError::LengthMismatch {
                len: self.numel(),
                expected: shape.numel(),
            });
        }
        Ok(Tensor {
            data: self.data,
            shape,
        })
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
            data: Arc::from(&self.data[start * cols..end * cols]),
            shape: valid_shape(&[end - start, cols]),
        })
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
    fn overflowing_dims_are_an_error_not_an_empty_tensor() {
        // 2³² · 2³² wraps to 0, which an unchecked product would accept
        // for an empty buffer.
        let dims = [1usize << 32, 1 << 32];
        let err = Tensor::from_vec(vec![], &dims).unwrap_err();
        assert_eq!(
            err,
            TensorError::TooLarge {
                dims: dims.to_vec()
            }
        );
        assert!(err.to_string().contains("overflows usize"));
        assert!(std::panic::catch_unwind(|| Tensor::zeros(&dims)).is_err());
    }

    #[test]
    fn reshape_shares_the_buffer_and_checks_the_count() {
        let t = Tensor::from_values((0..6).map(|i| i as f32), &[6]).unwrap();
        let ptr = t.data().as_ptr();
        let m = t.clone().reshape(&[2, 3]).unwrap();
        assert_eq!((m.dims(), m.data().as_ptr()), (&[2, 3][..], ptr));
        assert_eq!(m.get(&[1, 0]).unwrap(), 3.0);
        assert!(t.clone().reshape(&[4]).is_err());
        assert!(t.reshape(&[1 << 32, 1 << 32]).is_err());
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
