//! Finite-difference gradient checking.
//!
//! The reconstruction attacks consume the *exact values* of gradient
//! buffers, so a silent backprop bug would invalidate every experiment
//! downstream. This module verifies each layer's analytic gradients
//! against central finite differences through a scalar probe loss
//! `L(x) = Σ r ⊙ layer(x)` with a fixed random projection `r`.

use oasis_tensor::Tensor;
use rand::Rng;

use crate::{param_count, Layer, Mode, Result};

/// Result of a gradient check.
///
/// Besides the maxima, the report carries 90th-percentile errors:
/// layers that compose ReLUs with batch normalization have many
/// pre-activations near the ReLU kink, where a finite-difference probe
/// can flip an activation and produce a spurious O(1) error on a few
/// coordinates. For such layers, assert on the percentile instead of
/// the max.
#[derive(Debug, Clone, Copy)]
pub struct GradCheckReport {
    /// Maximum relative error over checked input coordinates.
    pub max_input_err: f32,
    /// Maximum relative error over checked parameter coordinates.
    pub max_param_err: f32,
    /// 90th-percentile relative error over checked input coordinates.
    pub p90_input_err: f32,
    /// 90th-percentile relative error over checked parameter coords.
    pub p90_param_err: f32,
}

fn percentile(errors: &mut [f32], q: f32) -> f32 {
    if errors.is_empty() {
        return 0.0;
    }
    errors.sort_by(f32::total_cmp);
    let idx = ((errors.len() as f32 - 1.0) * q).round() as usize;
    errors[idx]
}

fn relative_error(a: f32, b: f32) -> f32 {
    (a - b).abs() / 1.0f32.max(a.abs()).max(b.abs())
}

/// Probe loss: elementwise product with `r`, summed.
fn probe_loss(y: &Tensor, r: &Tensor) -> f32 {
    y.data().iter().zip(r.data()).map(|(&a, &b)| a * b).sum()
}

/// Checks `layer`'s input and parameter gradients at `input` against
/// central finite differences.
///
/// `max_coords` bounds how many coordinates of each tensor are probed
/// (probing all coordinates of a conv layer would be slow); the probed
/// subset is deterministic given `rng`.
///
/// # Errors
///
/// Propagates any layer execution error.
pub fn check_layer(
    layer: &mut dyn Layer,
    input: &Tensor,
    eps: f32,
    max_coords: usize,
    rng: &mut impl Rng,
) -> Result<GradCheckReport> {
    // Fixed projection to make the output scalar.
    let y0 = layer.forward(input, Mode::Train)?;
    let r = Tensor::rand_uniform(y0.dims(), -1.0, 1.0, rng);

    // Analytic gradients, into one flat buffer.
    let mut grads = vec![0.0f32; param_count(layer)];
    let _ = layer.forward(input, Mode::Train)?;
    let gx = layer.backward(&r, &mut grads)?;
    let mut param_sizes = Vec::new();
    layer.visit_params_ref(&mut |p| param_sizes.push(p.numel()));

    // --- Input coordinates ---
    let mut input_errs = Vec::new();
    let n_in = input.numel();
    let stride_in = (n_in / max_coords.max(1)).max(1);
    let mut x = input.clone();
    for i in (0..n_in).step_by(stride_in) {
        let orig = x.data()[i];
        x.data_mut()[i] = orig + eps;
        let lp = probe_loss(&layer.forward(&x, Mode::Train)?, &r);
        x.data_mut()[i] = orig - eps;
        let lm = probe_loss(&layer.forward(&x, Mode::Train)?, &r);
        x.data_mut()[i] = orig;
        let fd = (lp - lm) / (2.0 * eps);
        input_errs.push(relative_error(fd, gx.data()[i]));
    }

    // --- Parameter coordinates ---
    let mut param_errs = Vec::new();
    let mut offset = 0usize;
    for (pi, &count) in param_sizes.iter().enumerate() {
        let param_grad = &grads[offset..offset + count];
        offset += count;
        let stride = (count / max_coords.max(1)).max(1);
        for i in (0..count).step_by(stride) {
            let analytic = param_grad[i];
            // Perturb parameter pi[i] in place via the visitor.
            let perturb = |layer: &mut dyn Layer, delta: f32| {
                let mut k = 0usize;
                layer.visit_params_mut(&mut |p| {
                    if k == pi {
                        p.data_mut()[i] += delta;
                    }
                    k += 1;
                });
            };
            perturb(layer, eps);
            let lp = probe_loss(&layer.forward(input, Mode::Train)?, &r);
            perturb(layer, -2.0 * eps);
            let lm = probe_loss(&layer.forward(input, Mode::Train)?, &r);
            perturb(layer, eps);
            let fd = (lp - lm) / (2.0 * eps);
            param_errs.push(relative_error(fd, analytic));
        }
    }

    let max_input_err = input_errs.iter().copied().fold(0.0f32, f32::max);
    let max_param_err = param_errs.iter().copied().fold(0.0f32, f32::max);
    Ok(GradCheckReport {
        max_input_err,
        max_param_err,
        p90_input_err: percentile(&mut input_errs, 0.9),
        p90_param_err: percentile(&mut param_errs, 0.9),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AvgPoolAll, BatchNorm, Conv2d, Linear, Relu, ResidualBlock, Sequential};
    use rand::{rngs::StdRng, SeedableRng};

    const EPS: f32 = 5e-3;
    const TOL: f32 = 3e-2;

    fn assert_grads_ok(layer: &mut dyn Layer, input: &Tensor, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let report = check_layer(layer, input, EPS, 40, &mut rng).unwrap();
        assert!(
            report.max_input_err < TOL,
            "input gradient error {} (layer {})",
            report.max_input_err,
            layer.name()
        );
        assert!(
            report.max_param_err < TOL,
            "param gradient error {} (layer {})",
            report.max_param_err,
            layer.name()
        );
    }

    #[test]
    fn linear_gradcheck() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut layer = Linear::new(6, 4, &mut rng);
        let x = Tensor::randn(&[5, 6], &mut rng);
        assert_grads_ok(&mut layer, &x, 100);
    }

    #[test]
    fn relu_gradcheck() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut layer = Relu::new();
        // Keep values away from the kink at 0.
        let x = Tensor::randn(&[4, 7], &mut rng).map(|v| if v.abs() < 0.05 { 0.2 } else { v });
        assert_grads_ok(&mut layer, &x, 101);
    }

    #[test]
    fn conv_gradcheck() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut layer = Conv2d::new(2, 3, 3, 1, 1, (5, 5), &mut rng);
        let x = Tensor::randn(&[2, 2 * 25], &mut rng);
        assert_grads_ok(&mut layer, &x, 102);
    }

    #[test]
    fn strided_conv_gradcheck() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = Conv2d::new(2, 4, 3, 2, 1, (6, 6), &mut rng);
        let x = Tensor::randn(&[2, 2 * 36], &mut rng);
        assert_grads_ok(&mut layer, &x, 103);
    }

    #[test]
    fn batchnorm_gradcheck() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut layer = BatchNorm::new(3);
        let x = Tensor::randn(&[6, 3 * 4], &mut rng);
        assert_grads_ok(&mut layer, &x, 104);
    }

    #[test]
    fn avgpool_gradcheck() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut layer = AvgPoolAll::new(4);
        let x = Tensor::randn(&[3, 4 * 9], &mut rng);
        assert_grads_ok(&mut layer, &x, 106);
    }

    #[test]
    fn residual_block_gradcheck() {
        // The block ends in a ReLU fed by batch-norm outputs (centered
        // at zero), so a handful of probes straddle the kink; assert on
        // the robust percentile error instead of the max.
        let mut rng = StdRng::seed_from_u64(7);
        let mut layer = ResidualBlock::new(2, 4, 2, (4, 4), &mut rng);
        let x = Tensor::randn(&[3, 2 * 16], &mut rng);
        let mut check_rng = StdRng::seed_from_u64(107);
        let report = check_layer(&mut layer, &x, EPS, 40, &mut check_rng).unwrap();
        assert!(
            report.p90_input_err < TOL,
            "p90 input err {}",
            report.p90_input_err
        );
        assert!(
            report.p90_param_err < TOL,
            "p90 param err {}",
            report.p90_param_err
        );
    }

    #[test]
    fn mlp_gradcheck() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut net = Sequential::new();
        net.push(Linear::new(5, 8, &mut rng));
        net.push(Relu::new());
        net.push(Linear::new(8, 3, &mut rng));
        let x = Tensor::randn(&[4, 5], &mut rng).map(|v| v + 0.1);
        assert_grads_ok(&mut net, &x, 108);
    }
}
