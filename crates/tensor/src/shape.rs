//! Shape arithmetic for dense row-major tensors.

use std::fmt;

use crate::TensorError;

/// The dimensions of a dense row-major tensor.
///
/// A `Shape` is an ordered list of axis lengths. The rightmost axis is
/// the fastest-varying one (row-major / C order).
///
/// ```
/// use oasis_tensor::Shape;
///
/// let s = Shape::new(&[2, 3, 4]);
/// assert_eq!(s.numel(), 24);
/// assert_eq!(s.strides(), vec![12, 4, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from axis lengths.
    pub fn new(dims: &[usize]) -> Self {
        Shape {
            dims: dims.to_vec(),
        }
    }

    /// The number of axes.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// The axis lengths as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Length of axis `axis`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] if `axis >= rank`.
    pub fn dim(&self, axis: usize) -> Result<usize, TensorError> {
        self.dims
            .get(axis)
            .copied()
            .ok_or(TensorError::AxisOutOfRange {
                axis,
                rank: self.rank(),
            })
    }

    /// Total number of elements (product of dims; 1 for a scalar shape).
    pub fn numel(&self) -> usize {
        self.dims.iter().product()
    }

    /// Row-major strides, in elements.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Converts a multi-index to a flat row-major offset.
    ///
    /// # Errors
    ///
    /// Returns an error if the index rank differs from the shape rank or
    /// any component is out of bounds.
    pub fn flat_index(&self, index: &[usize]) -> Result<usize, TensorError> {
        if index.len() != self.rank() {
            return Err(TensorError::RankMismatch {
                op: "flat_index",
                expected: self.rank(),
                actual: index.len(),
            });
        }
        let strides = self.strides();
        let mut flat = 0usize;
        for (axis, (&i, (&d, &s))) in index
            .iter()
            .zip(self.dims.iter().zip(strides.iter()))
            .enumerate()
        {
            if i >= d {
                let _ = axis;
                return Err(TensorError::IndexOutOfRange { index: i, bound: d });
            }
            flat += i * s;
        }
        Ok(flat)
    }

    /// Whether two shapes are elementwise-compatible (identical dims).
    pub fn same_as(&self, other: &Shape) -> bool {
        self.dims == other.dims
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape { dims }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_of_scalar_shape_is_one() {
        assert_eq!(Shape::new(&[]).numel(), 1);
    }

    #[test]
    fn strides_are_row_major() {
        let s = Shape::new(&[4, 3, 2]);
        assert_eq!(s.strides(), vec![6, 2, 1]);
    }

    #[test]
    fn strides_of_vector() {
        assert_eq!(Shape::new(&[7]).strides(), vec![1]);
    }

    #[test]
    fn flat_index_round_trip() {
        let s = Shape::new(&[2, 3, 4]);
        let mut seen = vec![false; s.numel()];
        for i in 0..2 {
            for j in 0..3 {
                for k in 0..4 {
                    let f = s.flat_index(&[i, j, k]).unwrap();
                    assert!(!seen[f], "offset {f} visited twice");
                    seen[f] = true;
                }
            }
        }
        assert!(seen.into_iter().all(|b| b));
    }

    #[test]
    fn flat_index_rejects_bad_rank() {
        let s = Shape::new(&[2, 2]);
        assert!(matches!(
            s.flat_index(&[1]),
            Err(TensorError::RankMismatch { .. })
        ));
    }

    #[test]
    fn flat_index_rejects_out_of_bounds() {
        let s = Shape::new(&[2, 2]);
        assert!(matches!(
            s.flat_index(&[2, 0]),
            Err(TensorError::IndexOutOfRange { .. })
        ));
    }

    #[test]
    fn display_formats_dims() {
        assert_eq!(Shape::new(&[2, 3]).to_string(), "(2, 3)");
        assert_eq!(Shape::new(&[]).to_string(), "()");
    }

    #[test]
    fn zero_dim_yields_zero_numel() {
        assert_eq!(Shape::new(&[3, 0, 2]).numel(), 0);
    }
}
