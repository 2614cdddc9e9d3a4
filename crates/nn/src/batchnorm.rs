//! Batch normalization over channels of CHW activations.

use oasis_tensor::Tensor;
use std::any::Any;

use crate::layer::check_window;
use crate::{Layer, Mode, NnError, Result};

/// Per-channel batch normalization.
///
/// Input is `[batch, C·P]` (flat CHW); statistics are taken over the
/// batch and all `P` spatial positions of each channel, exactly like
/// `nn.BatchNorm2d`.
#[derive(Debug)]
pub struct BatchNorm {
    channels: usize,
    eps: f32,
    momentum: f32,
    gamma: Tensor,
    beta: Tensor,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    cache: Option<Cache>,
}

#[derive(Debug)]
struct Cache {
    x_hat: Tensor,
    inv_std: Vec<f32>,
    spatial: usize,
}

impl BatchNorm {
    /// Creates a batch-norm layer for `channels` channels with the
    /// standard ε = 1e-5 and running-stat momentum 0.1.
    pub fn new(channels: usize) -> Self {
        BatchNorm {
            channels,
            eps: 1e-5,
            momentum: 0.1,
            gamma: Tensor::ones(&[channels]),
            beta: Tensor::zeros(&[channels]),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            cache: None,
        }
    }

    fn check_input(&self, input: &Tensor) -> Result<usize> {
        if input.rank() != 2 || !input.dims()[1].is_multiple_of(self.channels) {
            return Err(NnError::BadInput {
                layer: "batchnorm",
                expected: format!("[batch, {}·P]", self.channels),
                actual: input.dims().to_vec(),
            });
        }
        Ok(input.dims()[1] / self.channels)
    }
}

impl Layer for BatchNorm {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        let p = self.check_input(input)?;
        let batch = input.dims()[0];
        let n = (batch * p) as f32;
        let mut out = input.clone();
        match mode {
            Mode::Train => {
                let mut inv_std = vec![0.0f32; self.channels];
                let mut x_hat = input.clone();
                let (xh_data, out_data) = (x_hat.data_mut(), out.data_mut());
                for c in 0..self.channels {
                    // Mean and variance over batch × spatial.
                    let mut mean = 0.0f64;
                    for b in 0..batch {
                        let x = &input.data()[b * self.channels * p..];
                        for v in &x[c * p..(c + 1) * p] {
                            mean += *v as f64;
                        }
                    }
                    let mean = (mean / n as f64) as f32;
                    let mut var = 0.0f64;
                    for b in 0..batch {
                        let x = &input.data()[b * self.channels * p..];
                        for v in &x[c * p..(c + 1) * p] {
                            let d = (*v - mean) as f64;
                            var += d * d;
                        }
                    }
                    let var = (var / n as f64) as f32;
                    let istd = 1.0 / (var + self.eps).sqrt();
                    inv_std[c] = istd;
                    self.running_mean[c] =
                        (1.0 - self.momentum) * self.running_mean[c] + self.momentum * mean;
                    self.running_var[c] =
                        (1.0 - self.momentum) * self.running_var[c] + self.momentum * var;
                    let (g, be) = (self.gamma.data()[c], self.beta.data()[c]);
                    for b in 0..batch {
                        let base = b * self.channels * p + c * p;
                        for i in 0..p {
                            let xh = (input.data()[base + i] - mean) * istd;
                            xh_data[base + i] = xh;
                            out_data[base + i] = g * xh + be;
                        }
                    }
                }
                self.cache = Some(Cache {
                    x_hat,
                    inv_std,
                    spatial: p,
                });
            }
            Mode::Eval => {
                let out_data = out.data_mut();
                for c in 0..self.channels {
                    let istd = 1.0 / (self.running_var[c] + self.eps).sqrt();
                    let mean = self.running_mean[c];
                    let (g, be) = (self.gamma.data()[c], self.beta.data()[c]);
                    for b in 0..batch {
                        let base = b * self.channels * p + c * p;
                        for i in 0..p {
                            let xh = (input.data()[base + i] - mean) * istd;
                            out_data[base + i] = g * xh + be;
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor, grads: &mut [f32]) -> Result<Tensor> {
        let cache = self
            .cache
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "batchnorm" })?;
        check_window(self, grads)?;
        let (grad_gamma, grad_beta) = grads.split_at_mut(self.channels);
        let p = cache.spatial;
        let batch = grad_output.dims()[0];
        let n = (batch * p) as f32;
        let mut gx = grad_output.clone();
        let gx_data = gx.data_mut();
        for c in 0..self.channels {
            // Accumulate Σδy and Σδy·x̂ per channel.
            let mut sum_dy = 0.0f64;
            let mut sum_dy_xhat = 0.0f64;
            for b in 0..batch {
                let base = b * self.channels * p + c * p;
                for i in 0..p {
                    let dy = grad_output.data()[base + i] as f64;
                    sum_dy += dy;
                    sum_dy_xhat += dy * cache.x_hat.data()[base + i] as f64;
                }
            }
            grad_gamma[c] += sum_dy_xhat as f32;
            grad_beta[c] += sum_dy as f32;
            let g = self.gamma.data()[c];
            let istd = cache.inv_std[c];
            let mean_dy = sum_dy as f32 / n;
            let mean_dy_xhat = sum_dy_xhat as f32 / n;
            for b in 0..batch {
                let base = b * self.channels * p + c * p;
                for i in 0..p {
                    let dy = grad_output.data()[base + i];
                    let xh = cache.x_hat.data()[base + i];
                    gx_data[base + i] = g * istd * (dy - mean_dy - xh * mean_dy_xhat);
                }
            }
        }
        Ok(gx)
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    fn visit_params_ref(&self, f: &mut dyn FnMut(&Tensor)) {
        f(&self.gamma);
        f(&self.beta);
    }

    fn name(&self) -> &'static str {
        "batchnorm"
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
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn train_output_is_normalized() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut bn = BatchNorm::new(2);
        let x = Tensor::randn_scaled(&[16, 2 * 9], 5.0, 3.0, &mut rng);
        let y = bn.forward(&x, Mode::Train).unwrap();
        // Per channel: mean ≈ 0, var ≈ 1 (γ=1, β=0 at init).
        for c in 0..2 {
            let mut vals = Vec::new();
            for b in 0..16 {
                vals.extend_from_slice(&y.row(b).unwrap()[c * 9..(c + 1) * 9]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut bn = BatchNorm::new(1);
        // Several training passes to converge the running stats.
        for _ in 0..200 {
            let x = Tensor::randn_scaled(&[32, 4], 2.0, 1.5, &mut rng);
            bn.forward(&x, Mode::Train).unwrap();
        }
        // In eval, a sample at the running mean maps to ≈ β = 0.
        let x = Tensor::full(&[1, 4], 2.0);
        let y = bn.forward(&x, Mode::Eval).unwrap();
        for &v in y.data() {
            assert!(v.abs() < 0.25, "value {v}");
        }
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut bn = BatchNorm::new(1);
        assert!(bn.backward(&Tensor::zeros(&[1, 4]), &mut [0.0; 2]).is_err());
    }

    #[test]
    fn grad_beta_is_sum_of_upstream() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut bn = BatchNorm::new(1);
        let x = Tensor::randn(&[4, 3], &mut rng);
        bn.forward(&x, Mode::Train).unwrap();
        let g = Tensor::ones(&[4, 3]);
        let mut grads = [0.0f32; 2];
        bn.backward(&g, &mut grads).unwrap();
        assert!((grads[1] - 12.0).abs() < 1e-4);
    }

    #[test]
    fn rejects_nondivisible_width() {
        let mut bn = BatchNorm::new(3);
        assert!(bn.forward(&Tensor::zeros(&[1, 4]), Mode::Train).is_err());
    }

    #[test]
    fn input_gradient_sums_to_zero_per_channel() {
        // BN output is invariant to adding a constant per channel, so
        // the input gradient must be orthogonal to constants.
        let mut rng = StdRng::seed_from_u64(3);
        let mut bn = BatchNorm::new(1);
        let x = Tensor::randn(&[8, 5], &mut rng);
        bn.forward(&x, Mode::Train).unwrap();
        let g = Tensor::randn(&[8, 5], &mut rng);
        let gx = bn.backward(&g, &mut [0.0; 2]).unwrap();
        let total: f32 = gx.data().iter().sum();
        assert!(total.abs() < 1e-3, "sum {total}");
    }
}
