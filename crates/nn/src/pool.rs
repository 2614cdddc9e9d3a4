//! Pooling layers: global average pooling.

use oasis_tensor::Tensor;
use std::any::Any;

use crate::{Layer, Mode, NnError, Result};

/// Global average pooling: `[batch, C·P] → [batch, C]`.
#[derive(Debug)]
pub struct AvgPoolAll {
    channels: usize,
    spatial: Option<usize>,
}

impl AvgPoolAll {
    /// Creates a global average pool over `channels` channels; the
    /// spatial size is inferred from the first forward pass.
    pub fn new(channels: usize) -> Self {
        AvgPoolAll {
            channels,
            spatial: None,
        }
    }
}

impl Layer for AvgPoolAll {
    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Result<Tensor> {
        if input.rank() != 2 || !input.dims()[1].is_multiple_of(self.channels) {
            return Err(NnError::BadInput {
                layer: "avgpool_all",
                expected: format!("[batch, {}·P]", self.channels),
                actual: input.dims().to_vec(),
            });
        }
        let batch = input.dims()[0];
        let p = input.dims()[1] / self.channels;
        self.spatial = Some(p);
        let mut out = Tensor::zeros(&[batch, self.channels]);
        for b in 0..batch {
            let x = &input.data()[b * self.channels * p..(b + 1) * self.channels * p];
            for c in 0..self.channels {
                let sum: f32 = x[c * p..(c + 1) * p].iter().sum();
                out.row_mut(b)?[c] = sum / p as f32;
            }
        }
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor, _grads: &mut [f32]) -> Result<Tensor> {
        let p = self.spatial.ok_or(NnError::BackwardBeforeForward {
            layer: "avgpool_all",
        })?;
        let batch = grad_output.dims()[0];
        let mut gx = Tensor::zeros(&[batch, self.channels * p]);
        for b in 0..batch {
            for c in 0..self.channels {
                let g = grad_output.row(b)?[c] / p as f32;
                for v in &mut gx.row_mut(b)?[c * p..(c + 1) * p] {
                    *v = g;
                }
            }
        }
        Ok(gx)
    }

    fn visit_params_mut(&mut self, _f: &mut dyn FnMut(&mut Tensor)) {}

    fn visit_params_ref(&self, _f: &mut dyn FnMut(&Tensor)) {}

    fn name(&self) -> &'static str {
        "avgpool_all"
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
    fn avgpool_averages_per_channel() {
        let mut pool = AvgPoolAll::new(2);
        let x = Tensor::from_vec(vec![1.0, 3.0, 10.0, 20.0], &[1, 4]).unwrap();
        let y = pool.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.data(), &[2.0, 15.0]);
    }

    #[test]
    fn avgpool_backward_spreads_uniformly() {
        let mut pool = AvgPoolAll::new(1);
        let x = Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0], &[1, 4]).unwrap();
        pool.forward(&x, Mode::Train).unwrap();
        let gx = pool
            .backward(&Tensor::from_vec(vec![8.0], &[1, 1]).unwrap(), &mut [])
            .unwrap();
        assert_eq!(gx.data(), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn avgpool_rejects_nondivisible_width() {
        let mut pool = AvgPoolAll::new(3);
        assert!(pool.forward(&Tensor::zeros(&[1, 4]), Mode::Eval).is_err());
    }
}
