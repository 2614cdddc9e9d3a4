//! Rectified linear unit.

use oasis_tensor::Tensor;
use std::any::Any;

use crate::{Layer, Mode, NnError, Result};

/// Elementwise `max(0, x)`.
///
/// The ReLU's gating behaviour is the crux of the attacks: a neuron
/// only contributes gradient for samples that *activate* it
/// (pre-activation > 0), which is what lets a dishonest server isolate
/// per-sample gradients (paper Eq. 6 and Proposition 1).
#[derive(Debug, Default)]
pub struct Relu {
    mask: Option<Vec<bool>>,
}

impl Relu {
    /// Creates a new ReLU layer.
    pub fn new() -> Self {
        Relu { mask: None }
    }
}

impl Layer for Relu {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        if mode == Mode::Train {
            self.mask = Some(input.data().iter().map(|&v| v > 0.0).collect());
        }
        Ok(input.relu())
    }

    fn backward(&mut self, grad_output: &Tensor, _grads: &mut [f32]) -> Result<Tensor> {
        let mask = self
            .mask
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "relu" })?;
        if mask.len() != grad_output.numel() {
            return Err(NnError::BadInput {
                layer: "relu",
                expected: format!("{} elements", mask.len()),
                actual: grad_output.dims().to_vec(),
            });
        }
        let mut out = grad_output.clone();
        for (v, &m) in out.data_mut().iter_mut().zip(mask) {
            if !m {
                *v = 0.0;
            }
        }
        Ok(out)
    }

    fn visit_params_mut(&mut self, _f: &mut dyn FnMut(&mut Tensor)) {}

    fn visit_params_ref(&self, _f: &mut dyn FnMut(&Tensor)) {}

    fn name(&self) -> &'static str {
        "relu"
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_clamps_negatives() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[1, 3]).unwrap();
        let y = r.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn backward_gates_by_activation() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 0.5, 2.0], &[1, 3]).unwrap();
        r.forward(&x, Mode::Train).unwrap();
        let g = Tensor::from_vec(vec![10.0, 10.0, 10.0], &[1, 3]).unwrap();
        let gx = r.backward(&g, &mut []).unwrap();
        assert_eq!(gx.data(), &[0.0, 10.0, 10.0]);
    }

    #[test]
    fn zero_preactivation_does_not_pass_gradient() {
        // The subgradient at exactly 0 is taken as 0, matching the
        // "activated" definition (z > 0) in the attack analysis.
        let mut r = Relu::new();
        let x = Tensor::from_vec(vec![0.0], &[1, 1]).unwrap();
        r.forward(&x, Mode::Train).unwrap();
        let gx = r.backward(&Tensor::ones(&[1, 1]), &mut []).unwrap();
        assert_eq!(gx.data(), &[0.0]);
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut r = Relu::new();
        assert!(r.backward(&Tensor::ones(&[1, 1]), &mut []).is_err());
    }

    #[test]
    fn has_no_params() {
        let mut r = Relu::new();
        let mut count = 0;
        r.visit_params_mut(&mut |_| count += 1);
        assert_eq!(count, 0);
        assert_eq!(crate::param_count(&r), 0);
    }
}
