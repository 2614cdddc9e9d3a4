//! The [`Layer`] trait and parameter-vector helpers.

use oasis_tensor::Tensor;
use std::any::Any;

use crate::Result;

/// Whether a forward pass is part of training (batch statistics,
/// cached activations) or evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Training: layers cache activations for `backward` and use batch
    /// statistics.
    Train,
    /// Evaluation: no caching obligations, running statistics used.
    Eval,
}

/// A differentiable network component.
///
/// The contract mirrors classic define-by-run frameworks:
///
/// 1. `forward(x, Mode::Train)` caches whatever `backward` needs.
/// 2. `backward(δy)` **accumulates** parameter gradients (they are not
///    overwritten — call [`Layer::zero_grad`] between steps) and
///    returns `δx`.
/// 3. `backward_params(δy)` accumulates the same parameter gradients,
///    bit for bit, and skips `δx`: the backward of a network's first
///    layer, whose input gradient nothing reads (a client uploads
///    parameter gradients only).
/// 4. [`Layer::visit_params`] yields `(param, grad)` pairs in a stable
///    order; optimizers and the FL protocol rely on that order.
pub trait Layer: Send {
    /// Runs the layer on `input` (rank-2: `[batch, features]`).
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible.
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor>;

    /// Backpropagates `grad_output`, accumulating parameter gradients
    /// and returning the gradient with respect to the layer input.
    ///
    /// # Errors
    ///
    /// Returns an error if called before `forward` or on shape
    /// mismatch.
    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor>;

    /// Backpropagates `grad_output` into the parameter gradients only:
    /// the accumulation of [`Layer::backward`], bit for bit, without
    /// computing the input gradient. The default runs `backward` and
    /// drops its result; layers whose input gradient costs real work
    /// override it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Layer::backward`].
    fn backward_params(&mut self, grad_output: &Tensor) -> Result<()> {
        self.backward(grad_output).map(drop)
    }

    /// Visits every `(parameter, gradient)` pair in a stable order.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor));

    /// Visits every parameter tensor mutably, in the same stable order
    /// as [`Layer::visit_params`], without handing out the gradients:
    /// how weights are loaded or installed. The default goes through
    /// `visit_params`; a layer that tracks the state of its gradient
    /// slots overrides it, so loading weights does not forget that
    /// state.
    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        self.visit_params(&mut |p, _| f(p));
    }

    /// Visits every parameter tensor read-only, in the same stable
    /// order as [`Layer::visit_params`]. Serialization paths
    /// (checkpointing, broadcast snapshots) use this so inspecting a
    /// model never requires `&mut` access.
    fn visit_params_ref(&self, f: &mut dyn FnMut(&Tensor));

    /// Resets all accumulated gradients to zero.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |_, g| g.map_in_place(|_| 0.0));
    }

    /// A short human-readable layer name.
    fn name(&self) -> &'static str;

    /// Upcast for runtime downcasting (used by the dishonest server to
    /// reach into specific layers of the global model).
    fn as_any(&self) -> &dyn Any;

    /// Mutable upcast for runtime downcasting.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Total number of scalar parameters in `layer`.
pub fn param_count(layer: &dyn Layer) -> usize {
    let mut n = 0usize;
    layer.visit_params_ref(&mut |p| n += p.numel());
    n
}

/// Flattens all parameters into a single `Vec<f32>` in visit order —
/// the "global model weights `w`" that the FL server broadcasts.
pub fn flatten_params(layer: &dyn Layer) -> Vec<f32> {
    let mut out = Vec::new();
    layer.visit_params_ref(&mut |p| out.extend_from_slice(p.data()));
    out
}

/// Flattens all accumulated gradients into a single `Vec<f32>` in
/// visit order — the "model update `G_j`" a client uploads.
pub fn flatten_grads(layer: &mut dyn Layer) -> Vec<f32> {
    let mut out = Vec::new();
    layer.visit_params(&mut |_, g| out.extend_from_slice(g.data()));
    out
}

/// Loads a flat parameter vector produced by [`flatten_params`].
///
/// # Errors
///
/// Returns [`crate::NnError::ParamLength`] if `flat` has the wrong
/// length.
pub fn load_params(layer: &mut dyn Layer, flat: &[f32]) -> Result<()> {
    let expected = param_count(layer);
    if flat.len() != expected {
        return Err(crate::NnError::ParamLength {
            len: flat.len(),
            expected,
        });
    }
    // `Tensor::copy_from_slice`, not `data_mut`: a parameter still
    // shared with the template a model was cloned from gets a fresh
    // buffer instead of a copy of the values it is about to lose.
    let mut offset = 0usize;
    layer.visit_params_mut(&mut |p| {
        let n = p.numel();
        p.copy_from_slice(&flat[offset..offset + n]);
        offset += n;
    });
    Ok(())
}

/// The parameter tensors of `layer` in visit order, each sharing its
/// values with the layer copy-on-write: the global weights as a
/// server hands them to its clients, without copying one value.
pub fn shared_params(layer: &dyn Layer) -> Vec<Tensor> {
    let mut out = Vec::new();
    layer.visit_params_ref(&mut |p| out.push(p.clone()));
    out
}

/// Installs tensors from [`shared_params`] as `layer`'s parameters,
/// without copying: each parameter becomes one more copy-on-write
/// handle on the given tensor's values, so the layer reads them in
/// place until something writes to them. Gradients are untouched.
///
/// # Errors
///
/// Returns [`crate::NnError::ParamLength`] when the tensor count
/// differs from the layer's, and [`crate::NnError::BadInput`] when a
/// tensor's shape does; nothing is installed then.
pub fn install_params(layer: &mut dyn Layer, params: &[Tensor]) -> Result<()> {
    let mut expected = Vec::new();
    layer.visit_params_ref(&mut |p| expected.push(p.dims().to_vec()));
    if expected.len() != params.len() {
        return Err(crate::NnError::ParamLength {
            len: params.iter().map(Tensor::numel).sum(),
            expected: param_count(layer),
        });
    }
    if let Some((want, got)) = expected
        .iter()
        .zip(params)
        .find(|(d, p)| d[..] != *p.dims())
    {
        return Err(crate::NnError::BadInput {
            layer: "install_params",
            expected: format!("a parameter of dims {want:?}"),
            actual: got.dims().to_vec(),
        });
    }
    let mut given = params.iter();
    layer.visit_params_mut(&mut |p| {
        if let Some(t) = given.next() {
            *p = t.clone();
        }
    });
    Ok(())
}

/// Loads a flat gradient vector produced by [`flatten_grads`] — how a
/// server materializes a client update received over the wire back
/// into a model's gradient slots.
///
/// # Errors
///
/// Returns [`crate::NnError::ParamLength`] if `flat` has the wrong
/// length.
pub fn load_grads(layer: &mut dyn Layer, flat: &[f32]) -> Result<()> {
    let expected = param_count(layer);
    if flat.len() != expected {
        return Err(crate::NnError::ParamLength {
            len: flat.len(),
            expected,
        });
    }
    let mut offset = 0usize;
    layer.visit_params(&mut |_, g| {
        let n = g.numel();
        g.copy_from_slice(&flat[offset..offset + n]);
        offset += n;
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Linear;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn flatten_load_round_trip() {
        let mut rng = StdRng::seed_from_u64(0);
        let a = Linear::new(3, 2, &mut rng);
        let flat = flatten_params(&a);
        assert_eq!(flat.len(), 3 * 2 + 2);

        let mut b = Linear::new(3, 2, &mut rng);
        load_params(&mut b, &flat).unwrap();
        assert_eq!(flatten_params(&b), flat);
    }

    #[test]
    fn load_rejects_wrong_length() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut a = Linear::new(3, 2, &mut rng);
        assert!(load_params(&mut a, &[0.0; 4]).is_err());
    }

    #[test]
    fn load_grads_round_trips_flatten_grads() {
        use crate::Mode;
        let mut rng = StdRng::seed_from_u64(1);
        let mut l = Linear::new(3, 2, &mut rng);
        let x = Tensor::randn(&[4, 3], &mut rng);
        let y = l.forward(&x, Mode::Train).unwrap();
        l.backward(&Tensor::ones(y.dims())).unwrap();
        let grads = flatten_grads(&mut l);
        l.zero_grad();
        load_grads(&mut l, &grads).unwrap();
        assert_eq!(flatten_grads(&mut l), grads);
        assert!(load_grads(&mut l, &[0.0; 3]).is_err());
    }

    #[test]
    fn zero_grad_clears_gradients() {
        use crate::Mode;
        let mut rng = StdRng::seed_from_u64(0);
        let mut l = Linear::new(2, 2, &mut rng);
        let x = Tensor::randn(&[4, 2], &mut rng);
        let y = l.forward(&x, Mode::Train).unwrap();
        l.backward(&Tensor::ones(y.dims())).unwrap();
        assert!(flatten_grads(&mut l).iter().any(|&g| g != 0.0));
        l.zero_grad();
        assert!(flatten_grads(&mut l).iter().all(|&g| g == 0.0));
    }
}
