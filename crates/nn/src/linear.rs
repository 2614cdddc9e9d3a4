//! Fully-connected layer — the layer type the active reconstruction
//! attacks weaponize (paper §III-A).

use oasis_tensor::{simd, Tensor};
use rand::Rng;
use std::any::Any;

use crate::{Layer, Mode, NnError, Result};

/// A fully-connected layer `y = x · Wᵀ + b`.
///
/// `W` has shape `(out_features, in_features)` so that row `i` of `W`
/// (together with `b[i]`) parameterizes neuron `i` — matching the
/// paper's notation `(W ∈ R^{n×d}, b ∈ R^n)` for the malicious layer.
///
/// The weight and bias (and their gradients) are directly accessible:
/// the dishonest server edits them, and the attacks read the gradient
/// buffers after a client's backward pass.
///
/// The layer knows when both gradient slots hold `+0`: construction
/// and [`Layer::zero_grad`] leave them so, and every write to a slot
/// (a backward, or a [`Layer::visit_params`] that hands them out)
/// forgets it. While they are known to be `+0`, `zero_grad` skips its
/// fill and the backward writes `δᵀx` and `Σδ` straight into the slots
/// instead of adding a freshly allocated product, with the same bits:
/// the products are sums from `+0`, so none of them is `−0`, and
/// adding one to `+0` leaves it unchanged.
#[derive(Debug)]
pub struct Linear {
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    /// Whether both gradient slots are known to hold `+0`.
    grads_zero: bool,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Creates a layer with Kaiming-uniform initialized weights.
    pub fn new(in_features: usize, out_features: usize, rng: &mut impl Rng) -> Self {
        let bound = (1.0 / in_features as f32).sqrt();
        Linear {
            weight: Tensor::rand_uniform(&[out_features, in_features], -bound, bound, rng),
            bias: Tensor::rand_uniform(&[out_features], -bound, bound, rng),
            grad_weight: Tensor::zeros(&[out_features, in_features]),
            grad_bias: Tensor::zeros(&[out_features]),
            grads_zero: true,
            cached_input: None,
        }
    }

    /// Creates a layer from explicit weights — how an attacker builds
    /// a malicious layer.
    ///
    /// # Errors
    ///
    /// Returns an error if `weight` is not rank-2 or `bias` length
    /// differs from the weight's row count.
    pub fn from_parts(weight: Tensor, bias: Tensor) -> Result<Self> {
        if weight.rank() != 2 || bias.rank() != 1 || bias.numel() != weight.dims()[0] {
            return Err(NnError::BadInput {
                layer: "linear",
                expected: "weight (out,in) and bias (out)".into(),
                actual: weight.dims().to_vec(),
            });
        }
        let (out_f, in_f) = (weight.dims()[0], weight.dims()[1]);
        Ok(Linear {
            weight,
            bias,
            grad_weight: Tensor::zeros(&[out_f, in_f]),
            grad_bias: Tensor::zeros(&[out_f]),
            grads_zero: true,
            cached_input: None,
        })
    }

    /// Number of input features `d`.
    pub fn in_features(&self) -> usize {
        self.weight.dims()[1]
    }

    /// Number of output neurons `n`.
    pub fn out_features(&self) -> usize {
        self.weight.dims()[0]
    }

    /// The weight matrix `W (out, in)`.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// The bias vector `b (out)`.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// Accumulated weight gradient `∂L/∂W` — what a client uploads and
    /// the attacker inverts.
    pub fn grad_weight(&self) -> &Tensor {
        &self.grad_weight
    }

    /// Accumulated bias gradient `∂L/∂b`.
    pub fn grad_bias(&self) -> &Tensor {
        &self.grad_bias
    }

    /// Record-level clipped mean gradient (DP-SGD's clip-and-sum) of
    /// a `Linear` layer, without materializing any per-sample
    /// gradient.
    ///
    /// `inputs` is the layer's `(b, d)` input and `deltas` the
    /// `(b, n)` upstream gradients, one row per sample. Sample `s`'s
    /// gradient is the rank-one `∂L/∂W = δ_sᵀ x_s`, `∂L/∂b = δ_s`;
    /// each is scaled to L2 norm at most `clip`, and the mean over
    /// the batch comes back flat, weight `(n×d)` row-major then bias
    /// `(n)` — the layer's [`crate::flatten_grads`] order.
    ///
    /// The result is bit-identical to materializing each sample's
    /// gradient with a B = 1 backward pass, taking its
    /// [`Tensor::norm_sq`] (weight, then bias), `axpy`-ing it into a
    /// running sum in sample order, and scaling the sum by `1/b`.
    /// Every output element goes through the same IEEE operations in
    /// the same order (separate multiplies and adds, never fused);
    /// only the loop nest changes:
    ///
    /// * the norms run one lane per sample, [`simd::NORM_LANES`]
    ///   samples advancing together through their sequential sums
    ///   ([`simd::masked_sq_norms`]);
    /// * the sum ([`simd::clip_sum`]) adds `scale_s · (δ_si · x_s)` to
    ///   each weight row for `s` ascending; its vector backend holds 64
    ///   outputs of a row in registers while a packed panel of the
    ///   inputs stays in L1.
    ///
    /// Terms with `δ_si = 0` are skipped, as `matmul_tn` skips them
    /// when it builds the gradient: they contribute exactly `+0` to
    /// sums that start at `+0`.
    ///
    /// # Errors
    ///
    /// Returns an error unless both operands are non-empty rank-2
    /// tensors with the same number of rows.
    pub fn clipped_grad_mean(inputs: &Tensor, deltas: &Tensor, clip: f32) -> Result<Vec<f32>> {
        let (b, d, n) = match (inputs.dims(), deltas.dims()) {
            (&[b, d], &[b2, n]) if b == b2 && b > 0 && d > 0 && n > 0 => (b, d, n),
            _ => {
                return Err(NnError::BadInput {
                    layer: "linear",
                    expected: "non-empty inputs (b, d) and deltas (b, n)".into(),
                    actual: deltas.dims().to_vec(),
                })
            }
        };
        let (x, delta) = (inputs.data(), deltas.data());
        let scales = clip_scales(x, delta, n, d, clip);
        let inv_b = 1.0 / b as f32;
        let mut out = vec![0.0f32; n * d + n];
        let (gw, gb) = out.split_at_mut(n * d);
        simd::clip_sum(x, delta, &scales, inv_b, gw);
        for (i, gbi) in gb.iter_mut().enumerate() {
            for (row, &scale) in delta.chunks_exact(n).zip(&scales) {
                let c = row[i];
                if c != 0.0 {
                    *gbi += scale * c;
                }
            }
            *gbi *= inv_b;
        }
        Ok(out)
    }
}

/// Per-sample clip factors: `clip / ‖g_s‖` when the norm of sample
/// `s`'s gradient exceeds `clip`, else `1`.
///
/// `‖g_s‖² = Σ_i Σ_j (δ_si·x_sj)² + Σ_i δ_si²`, each sum strictly
/// sequential in row-major order from `+0` — exactly what
/// [`Tensor::norm_sq`] computes on the materialized weight and bias
/// gradients, minus the exact `+0` terms of rows with `δ_si = 0`.
///
/// The weight sums run in [`simd::masked_sq_norms`], one lane per
/// sample: each lane walks its own sample's nonzero `δ_si` in row
/// order against that sample's `x_s`. Samples are grouped
/// [`simd::NORM_LANES`] to a block by their count of nonzero rows, so
/// lanes in a block run similar lengths; lanes that have run out (and
/// padding lanes) hold `δ = 0`, which the kernel masks to `+0` terms.
fn clip_scales(x: &[f32], delta: &[f32], n: usize, d: usize, clip: f32) -> Vec<f32> {
    const L: usize = simd::NORM_LANES;
    let active: Vec<Vec<f32>> = delta
        .chunks_exact(n)
        .map(|row| row.iter().copied().filter(|&v| v != 0.0).collect())
        .collect();
    let mut order: Vec<usize> = (0..active.len()).collect();
    order.sort_by_key(|&s| active[s].len());
    let mut weight_sq = vec![0.0f32; active.len()];
    let mut xt = vec![[0.0f32; L]; d];
    let mut dt: Vec<[f32; L]> = Vec::with_capacity(n);
    for block in order.chunks(L) {
        let rows = block.iter().map(|&s| active[s].len()).max().unwrap_or(0);
        dt.clear();
        dt.resize(rows, [0.0; L]);
        for l in 0..L {
            let sample = block.get(l).copied();
            for (j, xj) in xt.iter_mut().enumerate() {
                xj[l] = sample.map_or(0.0, |s| x[s * d + j]);
            }
            if let Some(s) = sample {
                for (dk, &v) in dt.iter_mut().zip(&active[s]) {
                    dk[l] = v;
                }
            }
        }
        let acc = simd::masked_sq_norms(&dt, &xt);
        for (&s, &sq) in block.iter().zip(&acc) {
            weight_sq[s] = sq;
        }
    }
    delta
        .chunks_exact(n)
        .zip(weight_sq)
        .map(|(row, sq)| {
            let bias_sq = row.iter().fold(0.0f32, |a, &v| a + v * v);
            let norm = (sq + bias_sq).sqrt();
            if norm > clip {
                clip / norm
            } else {
                1.0
            }
        })
        .collect()
}

impl Layer for Linear {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        if input.rank() != 2 || input.dims()[1] != self.in_features() {
            return Err(NnError::BadInput {
                layer: "linear",
                expected: format!("[batch, {}]", self.in_features()),
                actual: input.dims().to_vec(),
            });
        }
        if mode == Mode::Train {
            self.cached_input = Some(input.clone());
        }
        let y = input.matmul_nt(&self.weight)?;
        Ok(y.add_row_broadcast(&self.bias)?)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        self.backward_params(grad_output)?;
        // ∂L/∂x = δ · W
        Ok(grad_output.matmul(&self.weight)?)
    }

    fn backward_params(&mut self, grad_output: &Tensor) -> Result<()> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "linear" })?;
        if std::mem::take(&mut self.grads_zero) {
            // The slots are +0, what both sums start from: write
            // ∂L/∂W = δᵀ · x and ∂L/∂b = Σ_batch δ in place.
            grad_output.matmul_tn_into(input, self.grad_weight.data_mut())?;
            grad_output.add_rows_to(self.grad_bias.data_mut())?;
        } else {
            self.grad_weight
                .add_assign(&grad_output.matmul_tn(input)?)?;
            self.grad_bias.add_assign(&grad_output.sum_axis0()?)?;
        }
        Ok(())
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        self.grads_zero = false;
        f(&mut self.weight, &mut self.grad_weight);
        f(&mut self.bias, &mut self.grad_bias);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn zero_grad(&mut self) {
        if !self.grads_zero {
            self.grad_weight.data_mut().fill(0.0);
            self.grad_bias.data_mut().fill(0.0);
            self.grads_zero = true;
        }
    }

    fn visit_params_ref(&self, f: &mut dyn FnMut(&Tensor)) {
        f(&self.weight);
        f(&self.bias);
    }

    fn name(&self) -> &'static str {
        "linear"
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
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_matches_hand_computation() {
        let w = Tensor::from_vec(vec![1.0, 0.0, 0.0, 2.0], &[2, 2]).unwrap();
        let b = Tensor::from_slice(&[0.5, -0.5]);
        let mut l = Linear::from_parts(w, b).unwrap();
        let x = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
        let y = l.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.data(), &[1.5, 3.5]);
    }

    #[test]
    fn forward_rejects_wrong_width() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut l = Linear::new(3, 2, &mut rng);
        assert!(l.forward(&Tensor::zeros(&[1, 4]), Mode::Eval).is_err());
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut l = Linear::new(3, 2, &mut rng);
        assert!(l.backward(&Tensor::zeros(&[1, 2])).is_err());
    }

    #[test]
    fn single_sample_gradient_is_outer_product() {
        // For one sample x and upstream signal g, ∂L/∂W_i = g_i · x and
        // ∂L/∂b_i = g_i — the identity that makes Eq. 6 inversion work.
        let mut rng = StdRng::seed_from_u64(1);
        let mut l = Linear::new(3, 2, &mut rng);
        let x = Tensor::from_vec(vec![0.3, -0.7, 0.2], &[1, 3]).unwrap();
        let y = l.forward(&x, Mode::Train).unwrap();
        let g = Tensor::from_vec(vec![2.0, -1.5], &[1, 2]).unwrap();
        l.backward(&g).unwrap();
        let _ = y;
        for i in 0..2 {
            let gi = g.data()[i];
            assert!((l.grad_bias().data()[i] - gi).abs() < 1e-6);
            for j in 0..3 {
                let expect = gi * x.data()[j];
                let got = l.grad_weight().get(&[i, j]).unwrap();
                assert!((got - expect).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn batch_gradients_are_summed_over_samples() {
        // Paper §III-A: "all derivatives are summed over the batch
        // dimension".
        let mut rng = StdRng::seed_from_u64(2);
        let make = |rng: &mut StdRng| Linear::new(3, 2, rng);
        let mut l_batch = make(&mut rng);
        let mut l_single =
            Linear::from_parts(l_batch.weight().clone(), l_batch.bias().clone()).unwrap();

        let x = Tensor::randn(&[4, 3], &mut rng);
        let g = Tensor::randn(&[4, 2], &mut rng);

        l_batch.forward(&x, Mode::Train).unwrap();
        l_batch.backward(&g).unwrap();

        for s in 0..4 {
            let xs = x.slice_rows(s, s + 1).unwrap();
            let gs = g.slice_rows(s, s + 1).unwrap();
            l_single.forward(&xs, Mode::Train).unwrap();
            l_single.backward(&gs).unwrap(); // accumulates
        }
        for (a, b) in l_batch
            .grad_weight()
            .data()
            .iter()
            .zip(l_single.grad_weight().data())
        {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Inputs and upstream gradients with signed zeros, zero rows and
    /// subnormals mixed into normal values.
    fn tricky(dims: &[usize], rng: &mut StdRng) -> Tensor {
        let mut t = Tensor::randn(dims, rng);
        for (i, v) in t.data_mut().iter_mut().enumerate() {
            match i % 7 {
                0 => *v = -0.0,
                3 => *v = 0.0,
                5 => *v *= 1e-40,
                _ => {}
            }
        }
        t
    }

    #[test]
    fn in_place_backward_equals_a_temporary_plus_add_assign() {
        for (in_f, out_f, batch) in [(3, 2, 1), (70, 33, 5), (257, 64, 8), (300, 17, 40)] {
            let mut rng = StdRng::seed_from_u64(in_f as u64);
            let mut l = Linear::new(in_f, out_f, &mut rng);
            let x = tricky(&[batch, in_f], &mut rng);
            let delta = tricky(&[batch, out_f], &mut rng);
            assert!(l.grads_zero);
            l.forward(&x, Mode::Train).unwrap();
            l.backward_params(&delta).unwrap();
            assert!(!l.grads_zero);
            let mut gw = Tensor::zeros(&[out_f, in_f]);
            gw.add_assign(&delta.matmul_tn(&x).unwrap()).unwrap();
            let mut gb = Tensor::zeros(&[out_f]);
            gb.add_assign(&delta.sum_axis0().unwrap()).unwrap();
            assert_eq!(bits(l.grad_weight()), bits(&gw), "{in_f}x{out_f} b={batch}");
            assert_eq!(bits(l.grad_bias()), bits(&gb), "{in_f}x{out_f} b={batch}");

            // A second backward without zero_grad accumulates.
            let delta2 = tricky(&[batch, out_f], &mut rng);
            l.backward(&delta2).unwrap();
            gw.add_assign(&delta2.matmul_tn(&x).unwrap()).unwrap();
            gb.add_assign(&delta2.sum_axis0().unwrap()).unwrap();
            assert_eq!(bits(l.grad_weight()), bits(&gw));
            assert_eq!(bits(l.grad_bias()), bits(&gb));

            // zero_grad really zeroes once the slots have been written.
            l.zero_grad();
            assert!(l.grads_zero);
            assert!(l.grad_weight().data().iter().all(|v| v.to_bits() == 0));
            assert!(l.grad_bias().data().iter().all(|v| v.to_bits() == 0));
        }
    }

    #[test]
    fn writing_the_gradient_slots_clears_the_zero_flag() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut l = Linear::new(3, 2, &mut rng);
        crate::load_grads(&mut l, &[1.0; 8]).unwrap();
        assert!(!l.grads_zero);
        l.zero_grad();
        assert_eq!(crate::flatten_grads(&mut l), vec![0.0; 8]);

        l.visit_params(&mut |_, g| g.data_mut().fill(2.0));
        assert!(!l.grads_zero);
        l.zero_grad();
        assert_eq!(crate::flatten_grads(&mut l), vec![0.0; 8]);

        // Loading weights leaves the gradient slots, and the flag, alone.
        l.zero_grad();
        crate::load_params(&mut l, &[0.5; 8]).unwrap();
        assert!(l.grads_zero);

        // A backward after load_grads adds to the loaded values.
        let x = Tensor::randn(&[4, 3], &mut rng);
        let delta = Tensor::randn(&[4, 2], &mut rng);
        crate::load_grads(&mut l, &[0.25; 8]).unwrap();
        l.forward(&x, Mode::Train).unwrap();
        l.backward(&delta).unwrap();
        let mut gw = Tensor::full(&[2, 3], 0.25);
        gw.add_assign(&delta.matmul_tn(&x).unwrap()).unwrap();
        assert_eq!(bits(l.grad_weight()), bits(&gw));
    }

    #[test]
    fn from_parts_validates_shapes() {
        let w = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[3]);
        assert!(Linear::from_parts(w, b).is_err());
    }
}
