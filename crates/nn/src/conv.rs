//! 2-D convolution via batched, transposed im2col.
//!
//! The whole workspace passes activations as rank-2 tensors
//! `[batch, features]`; convolution layers therefore carry their
//! input geometry `(channels, height, width)` and reinterpret the flat
//! features as CHW. This keeps the `Layer` interface uniform — which
//! is exactly what the attacks need, since they treat the first layer
//! as an `n×d` matrix regardless of what sits behind it.
//!
//! ## Hot-path layout
//!
//! The lowering matrix is built **once per batch** and **transposed**:
//! `col` is `(C·k·k, B·P)` with column index `b·P + oy·ow + ox`. This
//! shape is what makes the layer fast:
//!
//! * each `col` row walks the input along `ox`, so filling (and its
//!   adjoint, the input-gradient scatter) is contiguous runs instead
//!   of per-element gathers;
//! * forward is one long-row product `W (oc, C·k²) · col → (oc, B·P)`
//!   for the whole batch — `B` per-sample matmuls of awkward aspect
//!   ratio collapse into a single kernel-friendly one;
//! * the `(oc, B·P)` result is channel-major, so reshaping to the
//!   workspace's `[batch, oc·P]` rows is a bias-fused copy of
//!   contiguous `P`-long segments.
//!
//! The buffers are held on the layer and reused across calls, and a
//! training-mode forward leaves `col` valid so backward skips the
//! rebuild entirely.

use oasis_tensor::{parallel, Tensor};
use rand::Rng;
use std::any::Any;

use crate::layer::check_window;
use crate::{Layer, Mode, NnError, Result};

/// Minimum buffer size (elements) before a lowering fill, gradient
/// transpose, or scatter enters the worker pool. These fills are pure
/// memory traffic (~1 ns/element), so below a few tens of KiB the
/// pool's dispatch latency would dominate — sub-threshold batches run
/// serially on the caller.
const PAR_MIN_ELEMS: usize = 16 * 1024;

/// Eight-lane unrolled sum (deterministic lane-combine order; the
/// independent accumulators let the reduction vectorize).
fn lane_sum(row: &[f32]) -> f32 {
    let mut acc = [0.0f32; 8];
    let mut chunks = row.chunks_exact(8);
    for c in &mut chunks {
        for l in 0..8 {
            acc[l] += c[l];
        }
    }
    let tail: f32 = chunks.remainder().iter().sum();
    ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7])) + tail
}

/// `held` as a tensor of dims `dims` to overwrite: the held scratch
/// when its dims match (nothing else shares it, so writes land in
/// place), else a fresh one.
fn scratch(held: Option<Tensor>, dims: &[usize]) -> Tensor {
    held.filter(|t| t.dims() == dims)
        .unwrap_or_else(|| Tensor::zeros(dims))
}

/// A 2-D convolution with square kernels, zero padding and stride.
#[derive(Debug)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    in_h: usize,
    in_w: usize,
    weight: Tensor,
    bias: Tensor,
    cached_input: Option<Tensor>,
    /// Reused `(C·k·k, B·P)` transposed-im2col scratch.
    scratch_col: Option<Tensor>,
    /// Whether `scratch_col` holds the lowering of `cached_input`
    /// (set by a training-mode forward, cleared by an eval forward).
    col_valid: bool,
    /// Reused `(out_c, B·P)` gradient-transpose scratch.
    scratch_dy: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution layer.
    ///
    /// `input_hw` fixes the spatial geometry of incoming activations;
    /// inputs must be `[batch, in_channels * h * w]`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        input_hw: (usize, usize),
        rng: &mut impl Rng,
    ) -> Self {
        let fan_in = (in_channels * kernel * kernel) as f32;
        let bound = (1.0 / fan_in).sqrt();
        let ckk = in_channels * kernel * kernel;
        Conv2d {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            in_h: input_hw.0,
            in_w: input_hw.1,
            weight: Tensor::rand_uniform(&[out_channels, ckk], -bound, bound, rng),
            bias: Tensor::rand_uniform(&[out_channels], -bound, bound, rng),
            cached_input: None,
            scratch_col: None,
            col_valid: false,
            scratch_dy: None,
        }
    }

    /// Output height.
    pub fn out_h(&self) -> usize {
        (self.in_h + 2 * self.padding - self.kernel) / self.stride + 1
    }

    /// Output width.
    pub fn out_w(&self) -> usize {
        (self.in_w + 2 * self.padding - self.kernel) / self.stride + 1
    }

    /// Flat output feature count `out_channels * out_h * out_w`.
    pub fn out_features(&self) -> usize {
        self.out_channels * self.out_h() * self.out_w()
    }

    /// Flat input feature count `in_channels * in_h * in_w`.
    pub fn in_features(&self) -> usize {
        self.in_channels * self.in_h * self.in_w
    }

    /// `(out_channels, out_h, out_w)` — geometry for the next layer.
    pub fn output_geometry(&self) -> (usize, usize, usize) {
        (self.out_channels, self.out_h(), self.out_w())
    }

    /// The valid `ox` window `[lo, hi)` for kernel column `kx`: the
    /// positions whose source column `ox·stride + kx − padding` lands
    /// inside `[0, w)`.
    fn ox_window(&self, kx: usize) -> (usize, usize) {
        let (stride, pad, w, ow) = (self.stride, self.padding, self.in_w, self.out_w());
        let lo = if pad > kx {
            (pad - kx).div_ceil(stride)
        } else {
            0
        };
        let hi = (w + pad).saturating_sub(kx).div_ceil(stride).min(ow);
        (lo.min(hi), hi)
    }

    /// Fills the whole batch's transposed im2col matrix: `col` is
    /// `(C·k·k, B·P)` with column index `b·P + oy·ow + ox`.
    ///
    /// Each `(row, b, oy)` triple is one `ow`-long destination run
    /// whose in-bounds span is a single contiguous (stride 1) or
    /// fixed-stride copy from the input; the padded remainder is
    /// zero-filled, so a dirty reused buffer needs no separate clear.
    fn im2col_t(&self, input: &[f32], batch: usize, col: &mut [f32]) {
        let _span = oasis_telemetry::span("nn.conv.im2col");
        let (c, h, w) = (self.in_channels, self.in_h, self.in_w);
        let (k, stride, pad) = (self.kernel, self.stride, self.padding);
        let (oh, ow) = (self.out_h(), self.out_w());
        let p = oh * ow;
        let bp = batch * p;
        let in_f = self.in_features();
        debug_assert_eq!(col.len(), c * k * k * bp);
        parallel::for_each_row_block_min(col, bp, PAR_MIN_ELEMS, |q0, rows| {
            for (lq, row) in rows.chunks_mut(bp).enumerate() {
                let q = q0 + lq;
                let (ch, ky, kx) = (q / (k * k), q / k % k, q % k);
                let (ox_lo, ox_hi) = self.ox_window(kx);
                for b in 0..batch {
                    let x = &input[b * in_f..(b + 1) * in_f];
                    for oy in 0..oh {
                        let dst = &mut row[b * p + oy * ow..b * p + (oy + 1) * ow];
                        let sy = (oy * stride + ky) as isize - pad as isize;
                        if sy < 0 || sy as usize >= h || ox_lo >= ox_hi {
                            dst.fill(0.0);
                            continue;
                        }
                        let base = (ch * h + sy as usize) * w;
                        let sx_lo = ox_lo * stride + kx - pad;
                        dst[..ox_lo].fill(0.0);
                        if stride == 1 {
                            dst[ox_lo..ox_hi]
                                .copy_from_slice(&x[base + sx_lo..base + sx_lo + (ox_hi - ox_lo)]);
                        } else {
                            for (i, d) in dst[ox_lo..ox_hi].iter_mut().enumerate() {
                                *d = x[base + sx_lo + i * stride];
                            }
                        }
                        dst[ox_hi..].fill(0.0);
                    }
                }
            }
        });
    }

    /// Scatter-adds one sample's slice of the `(C·k·k, B·P)`
    /// column-gradient back into its flat CHW input gradient (the
    /// adjoint of [`Conv2d::im2col_t`], same contiguous runs).
    fn col2im_t(&self, dcol: &[f32], bp: usize, b: usize, gx: &mut [f32]) {
        let (c, h, w) = (self.in_channels, self.in_h, self.in_w);
        let (k, stride, pad) = (self.kernel, self.stride, self.padding);
        let (oh, ow) = (self.out_h(), self.out_w());
        let p = oh * ow;
        for q in 0..c * k * k {
            let (ch, ky, kx) = (q / (k * k), q / k % k, q % k);
            let (ox_lo, ox_hi) = self.ox_window(kx);
            if ox_lo >= ox_hi {
                continue;
            }
            let row = &dcol[q * bp..(q + 1) * bp];
            for oy in 0..oh {
                let sy = (oy * stride + ky) as isize - pad as isize;
                if sy < 0 || sy as usize >= h {
                    continue;
                }
                let base = (ch * h + sy as usize) * w;
                let sx_lo = ox_lo * stride + kx - pad;
                let src = &row[b * p + oy * ow + ox_lo..b * p + oy * ow + ox_hi];
                if stride == 1 {
                    let dst = &mut gx[base + sx_lo..base + sx_lo + (ox_hi - ox_lo)];
                    for (d, &s) in dst.iter_mut().zip(src) {
                        *d += s;
                    }
                } else {
                    for (i, &s) in src.iter().enumerate() {
                        gx[base + sx_lo + i * stride] += s;
                    }
                }
            }
        }
    }

    fn check_input(&self, input: &Tensor) -> Result<()> {
        if input.rank() != 2 || input.dims()[1] != self.in_features() {
            return Err(NnError::BadInput {
                layer: "conv2d",
                expected: format!("[batch, {}]", self.in_features()),
                actual: input.dims().to_vec(),
            });
        }
        Ok(())
    }

    /// The one backward pass behind [`Layer::backward`] and
    /// [`Layer::backward_params`]: adds the parameter gradients into
    /// the `+0` window `grads` and, when `input_grad` is set, also
    /// computes and returns `δx` (`Wᵀ·δY` scattered back through
    /// col2im).
    fn backward_with(
        &mut self,
        grad_output: &Tensor,
        grads: &mut [f32],
        input_grad: bool,
    ) -> Result<Option<Tensor>> {
        let _span = oasis_telemetry::span("nn.conv.backward");
        let batch = self
            .cached_input
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "conv2d" })?
            .dims()[0];
        check_window(self, grads)?;
        let p = self.out_h() * self.out_w();
        let bp = batch * p;
        let oc = self.out_channels;
        if grad_output.rank() != 2
            || grad_output.dims()[0] != batch
            || grad_output.dims()[1] != oc * p
        {
            return Err(NnError::BadInput {
                layer: "conv2d",
                expected: format!("[{batch}, {}]", oc * p),
                actual: grad_output.dims().to_vec(),
            });
        }
        // Taken by value so the scratch buffers can be borrowed
        // mutably alongside it; restored before returning.
        let input = self.cached_input.take().expect("checked above");
        let in_f = self.in_features();
        let ckk = self.weight.dims()[1];

        let col = match self.scratch_col.take() {
            Some(col) if self.col_valid && col.dims() == [ckk, bp] => col,
            held => {
                let mut col = scratch(held, &[ckk, bp]);
                self.im2col_t(input.data(), batch, col.data_mut());
                self.col_valid = true;
                col
            }
        };

        // δY as (oc, B·P): contiguous P-long segment copies from the
        // channel-major layer output gradient.
        let mut dy = scratch(self.scratch_dy.take(), &[oc, bp]);
        let go = grad_output.data();
        parallel::for_each_row_block_min(dy.data_mut(), bp, PAR_MIN_ELEMS, |c0, rows| {
            for (lc, drow) in rows.chunks_mut(bp).enumerate() {
                let c = c0 + lc;
                for (b, dst) in drow.chunks_mut(p).enumerate() {
                    dst.copy_from_slice(&go[b * oc * p + c * p..b * oc * p + (c + 1) * p]);
                }
            }
        });
        let gw = dy.matmul_nt(&col)?; // (oc, C·k·k)
        let (grad_weight, grad_bias) = grads.split_at_mut(gw.numel());
        for (g, &v) in grad_weight.iter_mut().zip(gw.data()) {
            *g += v;
        }
        // Bias gradient = per-channel row sums.
        for (g, row) in grad_bias.iter_mut().zip(dy.data().chunks(bp)) {
            *g += lane_sum(row);
        }

        let grad_input = if input_grad {
            let dcol = self.weight.matmul_tn(&dy)?; // (C·k·k, B·P)
            let mut grad_input = Tensor::zeros(&[batch, in_f]);
            let dcol_data = dcol.data();
            parallel::for_each_row_block_min(
                grad_input.data_mut(),
                in_f,
                PAR_MIN_ELEMS,
                |b0, rows| {
                    for (lb, gx) in rows.chunks_mut(in_f).enumerate() {
                        self.col2im_t(dcol_data, bp, b0 + lb, gx);
                    }
                },
            );
            Some(grad_input)
        } else {
            None
        };
        self.scratch_col = Some(col);
        self.scratch_dy = Some(dy);
        self.cached_input = Some(input);
        Ok(grad_input)
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        self.check_input(input)?;
        let _span = oasis_telemetry::span("nn.conv.forward");
        let batch = input.dims()[0];
        let p = self.out_h() * self.out_w();
        let bp = batch * p;
        let oc = self.out_channels;
        let ckk = self.weight.dims()[1];
        if mode == Mode::Train {
            self.cached_input = Some(input.clone());
        }
        let mut col = scratch(self.scratch_col.take(), &[ckk, bp]);
        self.im2col_t(input.data(), batch, col.data_mut());
        let y = self.weight.matmul(&col)?; // (oc, B·P)
        self.scratch_col = Some(col);
        // A training forward leaves `col` describing `cached_input`,
        // so the next backward can skip the rebuild.
        self.col_valid = mode == Mode::Train;

        // (oc, B·P) → per-sample channel-major rows, bias fused into
        // the copy.
        let mut out = Tensor::zeros(&[batch, oc * p]);
        let ydata = y.data();
        let bias = self.bias.data();
        parallel::for_each_row_block_min(out.data_mut(), oc * p, PAR_MIN_ELEMS, |b0, rows| {
            for (lb, orow) in rows.chunks_mut(oc * p).enumerate() {
                let b = b0 + lb;
                for (c, dst) in orow.chunks_mut(p).enumerate() {
                    let src = &ydata[c * bp + b * p..c * bp + (b + 1) * p];
                    let bv = bias[c];
                    for (d, &s) in dst.iter_mut().zip(src) {
                        *d = s + bv;
                    }
                }
            }
        });
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor, grads: &mut [f32]) -> Result<Tensor> {
        Ok(self
            .backward_with(grad_output, grads, true)?
            .expect("input gradient requested"))
    }

    fn backward_params(&mut self, grad_output: &Tensor, grads: &mut [f32]) -> Result<()> {
        self.backward_with(grad_output, grads, false).map(drop)
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn visit_params_ref(&self, f: &mut dyn FnMut(&Tensor)) {
        f(&self.weight);
        f(&self.bias);
    }

    fn name(&self) -> &'static str {
        "conv2d"
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
    fn identity_kernel_reproduces_input() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, (4, 4), &mut rng);
        conv.weight_set_for_test(&[1.0]);
        conv.bias_set_for_test(&[0.0]);
        let x = Tensor::randn(&[2, 16], &mut rng);
        let y = conv.forward(&x, Mode::Eval).unwrap();
        for (a, b) in x.data().iter().zip(y.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn averaging_kernel_averages() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(1, 1, 2, 2, 0, (2, 2), &mut rng);
        conv.weight_set_for_test(&[0.25, 0.25, 0.25, 0.25]);
        conv.bias_set_for_test(&[0.0]);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 4]).unwrap();
        let y = conv.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.dims(), &[1, 1]);
        assert!((y.data()[0] - 2.5).abs() < 1e-6);
    }

    #[test]
    fn geometry_with_stride_and_padding() {
        let mut rng = StdRng::seed_from_u64(0);
        let conv = Conv2d::new(3, 16, 3, 2, 1, (32, 32), &mut rng);
        assert_eq!(conv.out_h(), 16);
        assert_eq!(conv.out_w(), 16);
        assert_eq!(conv.out_features(), 16 * 16 * 16);
        assert_eq!(conv.output_geometry(), (16, 16, 16));
    }

    #[test]
    fn forward_rejects_wrong_width() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, (4, 4), &mut rng);
        assert!(conv.forward(&Tensor::zeros(&[1, 15]), Mode::Eval).is_err());
    }

    #[test]
    fn bias_shifts_every_position() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, (2, 2), &mut rng);
        conv.weight_set_for_test(&[0.0]);
        conv.bias_set_for_test(&[0.7]);
        let y = conv.forward(&Tensor::zeros(&[1, 4]), Mode::Eval).unwrap();
        assert!(y.data().iter().all(|&v| (v - 0.7).abs() < 1e-6));
    }

    #[test]
    fn backward_shapes_are_consistent() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, (5, 5), &mut rng);
        let x = Tensor::randn(&[4, 2 * 25], &mut rng);
        let y = conv.forward(&x, Mode::Train).unwrap();
        let mut grads = vec![0.0f32; crate::param_count(&conv)];
        let gx = conv.backward(&Tensor::ones(y.dims()), &mut grads).unwrap();
        assert_eq!(gx.dims(), x.dims());
        assert_eq!(grads.len(), 3 * 2 * 9 + 3);
    }

    #[test]
    fn eval_forward_between_train_and_backward_is_safe() {
        // An eval-mode forward (different batch) must not poison the
        // cached lowering the next backward uses.
        let mut rng = StdRng::seed_from_u64(1);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, (5, 5), &mut rng);
        let x = Tensor::randn(&[4, 2 * 25], &mut rng);
        let y = conv.forward(&x, Mode::Train).unwrap();

        let mut reference = Conv2d::new(2, 3, 3, 1, 1, (5, 5), &mut StdRng::seed_from_u64(1));
        reference.forward(&x, Mode::Train).unwrap();

        // Same-size eval batch with different contents.
        let other = Tensor::randn(&[4, 2 * 25], &mut rng);
        conv.forward(&other, Mode::Eval).unwrap();

        let mut grads = vec![0.0f32; crate::param_count(&conv)];
        let mut grads_ref = grads.clone();
        let gx = conv.backward(&Tensor::ones(y.dims()), &mut grads).unwrap();
        let gx_ref = reference
            .backward(&Tensor::ones(y.dims()), &mut grads_ref)
            .unwrap();
        assert_eq!(gx, gx_ref);
        assert_eq!(grads, grads_ref);
    }

    impl Conv2d {
        fn weight_set_for_test(&mut self, values: &[f32]) {
            self.weight.data_mut().copy_from_slice(values);
        }
        fn bias_set_for_test(&mut self, values: &[f32]) {
            self.bias.data_mut().copy_from_slice(values);
        }
    }
}
