//! Reductions: sums, means, extrema, argmax.

use crate::{Result, Tensor, TensorError};

impl Tensor {
    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data().iter().sum()
    }

    /// Mean of all elements.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyTensor`] for zero-element tensors.
    pub fn mean(&self) -> Result<f32> {
        if self.numel() == 0 {
            return Err(TensorError::EmptyTensor);
        }
        Ok(self.sum() / self.numel() as f32)
    }

    /// Maximum element.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyTensor`] for zero-element tensors.
    pub fn max(&self) -> Result<f32> {
        self.data()
            .iter()
            .copied()
            .fold(None, |acc: Option<f32>, v| {
                Some(acc.map_or(v, |a| a.max(v)))
            })
            .ok_or(TensorError::EmptyTensor)
    }

    /// Minimum element.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyTensor`] for zero-element tensors.
    pub fn min(&self) -> Result<f32> {
        self.data()
            .iter()
            .copied()
            .fold(None, |acc: Option<f32>, v| {
                Some(acc.map_or(v, |a| a.min(v)))
            })
            .ok_or(TensorError::EmptyTensor)
    }

    /// Sums a rank-2 tensor over axis 0, producing a length-`cols`
    /// vector (column sums).
    ///
    /// # Errors
    ///
    /// Returns an error if the tensor is not rank-2.
    pub fn sum_axis0(&self) -> Result<Tensor> {
        let cols = if self.rank() == 2 { self.dims()[1] } else { 0 };
        let mut out = Tensor::zeros(&[cols]);
        self.add_rows_to(out.data_mut())?;
        Ok(out)
    }

    /// Adds every row of a rank-2 tensor into `out`, row by row: from
    /// a `+0` start this is [`Tensor::sum_axis0`], bit for bit,
    /// without allocating the sum.
    ///
    /// # Errors
    ///
    /// Returns an error if the tensor is not rank-2 or `out` does not
    /// hold one value per column.
    pub fn add_rows_to(&self, out: &mut [f32]) -> Result<()> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "sum_axis0",
                expected: 2,
                actual: self.rank(),
            });
        }
        let cols = self.dims()[1];
        if out.len() != cols {
            return Err(TensorError::LengthMismatch {
                len: out.len(),
                expected: cols,
            });
        }
        if cols == 0 {
            return Ok(());
        }
        for row in self.data().chunks_exact(cols) {
            for (o, &v) in out.iter_mut().zip(row) {
                *o += v;
            }
        }
        Ok(())
    }

    /// Index of the maximum element of each row of a rank-2 tensor.
    ///
    /// Ties resolve to the first maximal index.
    ///
    /// # Errors
    ///
    /// Returns an error if the tensor is not rank-2 or has zero columns.
    pub fn argmax_rows(&self) -> Result<Vec<usize>> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "argmax_rows",
                expected: 2,
                actual: self.rank(),
            });
        }
        let (rows, cols) = (self.dims()[0], self.dims()[1]);
        if cols == 0 {
            return Err(TensorError::EmptyTensor);
        }
        let mut out = Vec::with_capacity(rows);
        for r in 0..rows {
            let row = &self.data()[r * cols..(r + 1) * cols];
            let mut best = 0usize;
            for (j, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = j;
                }
            }
            out.push(best);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_and_mean() {
        let t = Tensor::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.sum(), 10.0);
        assert_eq!(t.mean().unwrap(), 2.5);
    }

    #[test]
    fn mean_of_empty_errors() {
        assert!(Tensor::zeros(&[0]).mean().is_err());
    }

    #[test]
    fn max_min() {
        let t = Tensor::from_slice(&[3.0, -1.0, 2.0]);
        assert_eq!(t.max().unwrap(), 3.0);
        assert_eq!(t.min().unwrap(), -1.0);
    }

    #[test]
    fn axis0_sums() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        assert_eq!(t.sum_axis0().unwrap().data(), &[5.0, 7.0, 9.0]);
    }

    #[test]
    fn axis0_sums_agree_with_total() {
        let t = Tensor::from_vec((0..20).map(|i| i as f32).collect(), &[4, 5]).unwrap();
        assert_eq!(t.sum_axis0().unwrap().sum(), t.sum());
    }

    #[test]
    fn argmax_rows_first_tie_wins() {
        let t = Tensor::from_vec(vec![1.0, 5.0, 5.0, 0.0, -1.0, -2.0], &[2, 3]).unwrap();
        assert_eq!(t.argmax_rows().unwrap(), vec![1, 0]);
    }
}
