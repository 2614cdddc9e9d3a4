//! Loss functions.

use oasis_tensor::Tensor;

use crate::{NnError, Result};

/// A loss value together with the gradient of the loss with respect to
/// the network output — the starting point for backpropagation.
#[derive(Debug, Clone)]
pub struct LossOutput {
    /// Mean loss over the batch.
    pub loss: f32,
    /// `∂L/∂logits`, shape `[batch, classes]`.
    pub grad: Tensor,
}

/// Row-wise softmax with the max-subtraction trick.
///
/// # Errors
///
/// Returns an error if `logits` is not rank-2.
pub fn softmax(logits: &Tensor) -> Result<Tensor> {
    if logits.rank() != 2 {
        return Err(NnError::BadInput {
            layer: "softmax",
            expected: "[batch, classes]".into(),
            actual: logits.dims().to_vec(),
        });
    }
    let (rows, cols) = (logits.dims()[0], logits.dims()[1]);
    let mut out = logits.clone();
    for r in 0..rows {
        let row = &mut out.data_mut()[r * cols..(r + 1) * cols];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
    Ok(out)
}

/// Softmax cross-entropy with mean reduction over the batch.
///
/// Returns the loss and `∂L/∂logits = (softmax(z) − onehot(y)) / B` —
/// the per-sample signal whose magnitude becomes the coefficient of
/// each sample in the attacker's reconstructed linear combination
/// (paper §III-A: "the coefficient for each sample … depends on how
/// much the sample contributes to the loss").
///
/// # Errors
///
/// Returns an error on rank mismatch, label/batch length mismatch, or
/// out-of-range labels.
pub fn softmax_cross_entropy(logits: &Tensor, labels: &[usize]) -> Result<LossOutput> {
    if logits.rank() != 2 {
        return Err(NnError::BadInput {
            layer: "softmax_cross_entropy",
            expected: "[batch, classes]".into(),
            actual: logits.dims().to_vec(),
        });
    }
    let (batch, classes) = (logits.dims()[0], logits.dims()[1]);
    if labels.len() != batch {
        return Err(NnError::BadInput {
            layer: "softmax_cross_entropy",
            expected: format!("{batch} labels"),
            actual: vec![labels.len()],
        });
    }
    let probs = softmax(logits)?;
    let mut loss = 0.0f64;
    let mut grad = probs.clone();
    for (r, &label) in labels.iter().enumerate() {
        if label >= classes {
            return Err(NnError::BadLabel { label, classes });
        }
        let p = probs.get(&[r, label])?.max(1e-12);
        loss -= (p as f64).ln();
        let old = grad.get(&[r, label])?;
        grad.set(&[r, label], old - 1.0)?;
    }
    grad.scale_in_place(1.0 / batch as f32);
    Ok(LossOutput {
        loss: (loss / batch as f64) as f32,
        grad,
    })
}

/// Mean-squared-error loss with mean reduction.
///
/// # Errors
///
/// Returns an error on shape mismatch.
pub fn mse_loss(output: &Tensor, target: &Tensor) -> Result<LossOutput> {
    let diff = output.sub(target)?;
    let n = diff.numel().max(1) as f32;
    let loss = diff.norm_sq() / n;
    let grad = diff.scale(2.0 / n);
    Ok(LossOutput { loss, grad })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let z = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]).unwrap();
        let p = softmax(&z).unwrap();
        for r in 0..2 {
            let s: f32 = p.row(r).unwrap().iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let z = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]).unwrap();
        let z_shift = z.map(|v| v + 100.0);
        let p = softmax(&z).unwrap();
        let q = softmax(&z_shift).unwrap();
        for (a, b) in p.data().iter().zip(q.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn cross_entropy_of_perfect_prediction_is_small() {
        let z = Tensor::from_vec(vec![100.0, 0.0, 0.0], &[1, 3]).unwrap();
        let out = softmax_cross_entropy(&z, &[0]).unwrap();
        assert!(out.loss < 1e-6);
    }

    #[test]
    fn cross_entropy_of_uniform_is_ln_k() {
        let z = Tensor::zeros(&[1, 4]);
        let out = softmax_cross_entropy(&z, &[2]).unwrap();
        assert!((out.loss - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_grad_sums_to_zero_per_row() {
        let z = Tensor::from_vec(vec![0.3, -1.0, 2.0, 0.0, 0.0, 0.0], &[2, 3]).unwrap();
        let out = softmax_cross_entropy(&z, &[1, 2]).unwrap();
        for r in 0..2 {
            let s: f32 = out.grad.row(r).unwrap().iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn cross_entropy_rejects_bad_labels() {
        let z = Tensor::zeros(&[1, 3]);
        assert!(softmax_cross_entropy(&z, &[3]).is_err());
        assert!(softmax_cross_entropy(&z, &[0, 1]).is_err());
    }

    #[test]
    fn cross_entropy_grad_matches_finite_difference() {
        let z = Tensor::from_vec(vec![0.5, -0.2, 0.1, 1.0, -1.0, 0.3], &[2, 3]).unwrap();
        let labels = [2usize, 0];
        let out = softmax_cross_entropy(&z, &labels).unwrap();
        let eps = 1e-3f32;
        for i in 0..z.numel() {
            let mut zp = z.clone();
            zp.data_mut()[i] += eps;
            let mut zm = z.clone();
            zm.data_mut()[i] -= eps;
            let lp = softmax_cross_entropy(&zp, &labels).unwrap().loss;
            let lm = softmax_cross_entropy(&zm, &labels).unwrap().loss;
            let fd = (lp - lm) / (2.0 * eps);
            let an = out.grad.data()[i];
            assert!((fd - an).abs() < 2e-3, "elem {i}: fd {fd} vs analytic {an}");
        }
    }

    #[test]
    fn mse_loss_and_grad() {
        let y = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
        let t = Tensor::zeros(&[1, 2]);
        let out = mse_loss(&y, &t).unwrap();
        assert!((out.loss - 2.5).abs() < 1e-6);
        assert_eq!(out.grad.data(), &[1.0, 2.0]);
    }
}
