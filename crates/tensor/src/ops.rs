//! Elementwise and broadcast arithmetic.

use crate::{Result, Tensor, TensorError};

impl Tensor {
    /// Applies `f` to every element, returning a new tensor built in
    /// one pass into its own buffer.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor::from_values(self.data().iter().map(|&v| f(v)), self.dims())
            .expect("same dims, same count")
    }

    /// Applies `f` to every element in place.
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32) {
        for v in self.data_mut() {
            *v = f(*v);
        }
    }

    /// Combines two same-shape tensors elementwise with `f`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "zip_map",
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        let values = self.data().iter().zip(other.data()).map(|(&a, &b)| f(a, b));
        Tensor::from_values(values, self.dims())
    }

    /// Elementwise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_map(other, |a, b| a - b)
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|v| v * s)
    }

    /// In-place scalar multiply.
    pub fn scale_in_place(&mut self, s: f32) {
        self.map_in_place(|v| v * s);
    }

    /// Adds `bias` (length = columns) to each row of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns an error on rank or length mismatch.
    pub fn add_row_broadcast(&self, bias: &Tensor) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "add_row_broadcast",
                expected: 2,
                actual: self.rank(),
            });
        }
        if bias.rank() != 1 || bias.numel() != self.dims()[1] {
            return Err(TensorError::ShapeMismatch {
                op: "add_row_broadcast",
                lhs: self.dims().to_vec(),
                rhs: bias.dims().to_vec(),
            });
        }
        let cols = self.dims()[1];
        let mut out = self.clone();
        for (i, v) in out.data_mut().iter_mut().enumerate() {
            *v += bias.data()[i % cols];
        }
        Ok(out)
    }

    /// Rectified linear unit applied elementwise.
    pub fn relu(&self) -> Tensor {
        self.map(|v| v.max(0.0))
    }

    /// Squared L2 norm of all elements.
    pub fn norm_sq(&self) -> f32 {
        self.data().iter().map(|&v| v * v).sum()
    }

    /// L2 norm of all elements.
    pub fn norm(&self) -> f32 {
        self.norm_sq().sqrt()
    }

    /// Clamps every element to `[lo, hi]`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        self.map(|v| v.clamp(lo, hi))
    }
}

impl std::ops::Add for &Tensor {
    type Output = Tensor;

    /// # Panics
    ///
    /// Panics on shape mismatch; use [`Tensor::add`] for a fallible
    /// version.
    fn add(self, rhs: &Tensor) -> Tensor {
        Tensor::add(self, rhs).expect("operator + requires identical shapes")
    }
}

impl std::ops::Sub for &Tensor {
    type Output = Tensor;

    /// # Panics
    ///
    /// Panics on shape mismatch; use [`Tensor::sub`] for a fallible
    /// version.
    fn sub(self, rhs: &Tensor) -> Tensor {
        Tensor::sub(self, rhs).expect("operator - requires identical shapes")
    }
}

impl std::ops::Mul<f32> for &Tensor {
    type Output = Tensor;

    fn mul(self, rhs: f32) -> Tensor {
        self.scale(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: &[f32]) -> Tensor {
        Tensor::from_slice(v)
    }

    #[test]
    fn add_sub_elementwise() {
        let a = t(&[1.0, 2.0, 4.0]);
        let b = t(&[2.0, 2.0, 2.0]);
        assert_eq!(a.add(&b).unwrap().data(), &[3.0, 4.0, 6.0]);
        assert_eq!(a.sub(&b).unwrap().data(), &[-1.0, 0.0, 2.0]);
    }

    #[test]
    fn shape_mismatch_is_error() {
        let a = t(&[1.0]);
        let b = t(&[1.0, 2.0]);
        assert!(a.add(&b).is_err());
    }

    #[test]
    fn add_row_broadcast_adds_bias_per_row() {
        let m = Tensor::from_vec(vec![0.0, 0.0, 1.0, 1.0], &[2, 2]).unwrap();
        let b = t(&[10.0, 20.0]);
        let out = m.add_row_broadcast(&b).unwrap();
        assert_eq!(out.data(), &[10.0, 20.0, 11.0, 21.0]);
    }

    #[test]
    fn add_row_broadcast_checks_shapes() {
        let m = Tensor::zeros(&[2, 2]);
        assert!(m.add_row_broadcast(&t(&[1.0, 2.0, 3.0])).is_err());
        assert!(Tensor::zeros(&[4]).add_row_broadcast(&t(&[1.0])).is_err());
    }

    #[test]
    fn relu_zeroes_negatives() {
        assert_eq!(t(&[-1.0, 0.0, 2.0]).relu().data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn norm_matches_hand_computation() {
        let v = t(&[3.0, 4.0]);
        assert_eq!(v.norm_sq(), 25.0);
        assert_eq!(v.norm(), 5.0);
    }

    #[test]
    fn clamp_bounds_values() {
        assert_eq!(
            t(&[-2.0, 0.5, 9.0]).clamp(0.0, 1.0).data(),
            &[0.0, 0.5, 1.0]
        );
    }

    #[test]
    fn operator_overloads_match_methods() {
        let a = t(&[1.0, 2.0]);
        let b = t(&[3.0, 4.0]);
        assert_eq!((&a + &b).data(), a.add(&b).unwrap().data());
        assert_eq!((&a - &b).data(), a.sub(&b).unwrap().data());
        assert_eq!((&a * 2.0).data(), a.scale(2.0).data());
    }
}
