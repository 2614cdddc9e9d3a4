//! Shape arithmetic for dense row-major tensors.

use std::fmt;

use crate::TensorError;

/// The largest rank a [`Shape`] holds: NCHW, the widest layout any
/// layer uses.
pub(crate) const MAX_RANK: usize = 4;

/// The dimensions of a dense row-major tensor.
///
/// A `Shape` is an ordered list of at most four axis lengths, stored
/// inline, whose product fits in `usize`. The rightmost axis is
/// the fastest-varying one (row-major / C order).
///
/// ```
/// use oasis_tensor::Shape;
///
/// # fn main() -> Result<(), oasis_tensor::TensorError> {
/// let s = Shape::new(&[2, 3, 4])?;
/// assert_eq!(s.numel(), 24);
/// assert_eq!(s.flat_index(&[1, 2, 3])?, 23);
/// assert!(Shape::new(&[1 << 32, 1 << 32]).is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape {
    /// The axis lengths, zero past `rank`.
    dims: [usize; MAX_RANK],
    rank: usize,
}

impl Shape {
    /// Creates a shape from axis lengths.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::TooLarge`] if there are more than four
    /// axes or their product overflows `usize`.
    pub fn new(dims: &[usize]) -> Result<Self, TensorError> {
        let counted = dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d));
        if dims.len() > MAX_RANK || counted.is_none() {
            return Err(TensorError::TooLarge {
                dims: dims.to_vec(),
            });
        }
        let mut inline = [0; MAX_RANK];
        inline[..dims.len()].copy_from_slice(dims);
        Ok(Shape {
            dims: inline,
            rank: dims.len(),
        })
    }

    /// The number of axes.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The axis lengths as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.dims[..self.rank]
    }

    /// Total number of elements (product of dims; 1 for a scalar shape).
    pub fn numel(&self) -> usize {
        self.dims().iter().product()
    }

    /// Converts a multi-index to a flat row-major offset.
    ///
    /// # Errors
    ///
    /// Returns an error if the index rank differs from the shape rank or
    /// any component is out of bounds.
    pub fn flat_index(&self, index: &[usize]) -> Result<usize, TensorError> {
        if index.len() != self.rank {
            return Err(TensorError::RankMismatch {
                op: "flat_index",
                expected: self.rank,
                actual: index.len(),
            });
        }
        let mut flat = 0usize;
        for (&i, &d) in index.iter().zip(self.dims()) {
            if i >= d {
                return Err(TensorError::IndexOutOfRange { index: i, bound: d });
            }
            flat = flat * d + i;
        }
        Ok(flat)
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Shape").field(&self.dims()).finish()
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.dims().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(dims: &[usize]) -> Shape {
        Shape::new(dims).unwrap()
    }

    #[test]
    fn numel_of_scalar_shape_is_one() {
        assert_eq!(shape(&[]).numel(), 1);
    }

    #[test]
    fn flat_index_is_row_major() {
        let s = shape(&[4, 3, 2]);
        assert_eq!(s.flat_index(&[1, 0, 0]).unwrap(), 6);
        assert_eq!(s.flat_index(&[0, 1, 0]).unwrap(), 2);
        assert_eq!(s.flat_index(&[0, 0, 1]).unwrap(), 1);
        assert_eq!(shape(&[7]).flat_index(&[5]).unwrap(), 5);
    }

    #[test]
    fn flat_index_round_trip() {
        let s = shape(&[2, 3, 4]);
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
        let s = shape(&[2, 2]);
        assert!(matches!(
            s.flat_index(&[1]),
            Err(TensorError::RankMismatch { .. })
        ));
    }

    #[test]
    fn flat_index_rejects_out_of_bounds() {
        let s = shape(&[2, 2]);
        assert!(matches!(
            s.flat_index(&[2, 0]),
            Err(TensorError::IndexOutOfRange { .. })
        ));
    }

    #[test]
    fn display_formats_dims() {
        assert_eq!(shape(&[2, 3]).to_string(), "(2, 3)");
        assert_eq!(shape(&[]).to_string(), "()");
    }

    #[test]
    fn zero_dim_yields_zero_numel() {
        assert_eq!(shape(&[3, 0, 2]).numel(), 0);
    }

    #[test]
    fn rank_above_four_and_overflowing_counts_are_rejected() {
        assert_eq!(shape(&[1, 2, 3, 4]).dims(), &[1, 2, 3, 4]);
        for dims in [&[1, 1, 1, 1, 1][..], &[1 << 32, 1 << 32], &[usize::MAX, 2]] {
            assert_eq!(
                Shape::new(dims),
                Err(TensorError::TooLarge {
                    dims: dims.to_vec()
                })
            );
        }
        // A zero axis makes any product fit.
        assert_eq!(shape(&[usize::MAX, 0, 2]).numel(), 0);
    }

    #[test]
    fn equal_shapes_have_equal_rank_and_dims() {
        assert_eq!(shape(&[2, 3]), shape(&[2, 3]));
        assert_ne!(shape(&[2, 3]), shape(&[2, 3, 1]));
        assert_ne!(shape(&[6]), shape(&[2, 3]));
    }
}
