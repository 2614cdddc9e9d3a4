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
/// Gradients are not layer state: the caller owns one flat buffer of
/// [`param_count`] floats, laid out in [`Layer::visit_params_ref`]
/// order (the "model update `G_j`" a client uploads), and every
/// backward pass writes into the caller's window of it.
///
/// 1. `forward(x, Mode::Train)` caches whatever `backward` needs.
/// 2. `backward(δy, grads)` writes this batch's parameter gradients
///    into `grads` and returns `δx`. `grads` is the layer's own window
///    of the flat buffer — [`param_count`] floats in visit order — and
///    must hold `+0` on entry; a layer writes its products into it, or
///    adds them to those zeros, so the window ends holding exactly the
///    batch's gradient. A composite layer splits its window among its
///    children, in visit order.
/// 3. `backward_params(δy, grads)` writes the same parameter
///    gradients, bit for bit, and skips `δx`: the backward of a
///    network's first layer, whose input gradient nothing reads (a
///    client uploads parameter gradients only).
/// 4. Two visitors walk the parameters in that one stable order:
///    [`Layer::visit_params_ref`] reads them (serialization, counting,
///    broadcast snapshots) and [`Layer::visit_params_mut`] writes them
///    (loading weights, installing shared ones, optimizer steps).
pub trait Layer: Send {
    /// Runs the layer on `input` (rank-2: `[batch, features]`).
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible.
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor>;

    /// Backpropagates `grad_output`, writing the parameter gradients
    /// into `grads` (the layer's `+0` window, see the trait docs) and
    /// returning the gradient with respect to the layer input.
    ///
    /// # Errors
    ///
    /// Returns an error if called before `forward`, on shape mismatch,
    /// and [`crate::NnError::ParamLength`] when `grads` is not one
    /// float per parameter.
    fn backward(&mut self, grad_output: &Tensor, grads: &mut [f32]) -> Result<Tensor>;

    /// Backpropagates `grad_output` into the parameter gradients only:
    /// what [`Layer::backward`] writes into `grads`, bit for bit,
    /// without computing the input gradient. The default runs
    /// `backward` and drops its result; layers whose input gradient
    /// costs real work override it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Layer::backward`].
    fn backward_params(&mut self, grad_output: &Tensor, grads: &mut [f32]) -> Result<()> {
        self.backward(grad_output, grads).map(drop)
    }

    /// Visits every parameter tensor mutably, in the same stable order
    /// as [`Layer::visit_params_ref`]: how weights are loaded,
    /// installed and stepped.
    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Tensor));

    /// Visits every parameter tensor read-only, in a stable order —
    /// the order of the flat parameter and gradient buffers.
    /// Serialization paths (checkpointing, broadcast snapshots) use
    /// this so inspecting a model never requires `&mut` access.
    fn visit_params_ref(&self, f: &mut dyn FnMut(&Tensor));

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

/// Loads a flat parameter vector produced by [`flatten_params`].
///
/// # Errors
///
/// Returns [`crate::NnError::ParamLength`] if `flat` has the wrong
/// length.
pub fn load_params(layer: &mut dyn Layer, flat: &[f32]) -> Result<()> {
    // `Tensor::copy_from_slice`, not `data_mut`: a parameter still
    // shared with the template a model was cloned from gets a fresh
    // buffer instead of a copy of the values it is about to lose.
    zip_params(layer, flat, &mut |p, values| p.copy_from_slice(values))
}

/// Visits every parameter of `layer` mutably, in visit order, together
/// with its window of `flat` — one float per parameter in the same
/// order, like a flat gradient or parameter vector.
///
/// # Errors
///
/// Returns [`crate::NnError::ParamLength`] if `flat` has the wrong
/// length; nothing is visited then.
pub fn zip_params(
    layer: &mut dyn Layer,
    flat: &[f32],
    f: &mut dyn FnMut(&mut Tensor, &[f32]),
) -> Result<()> {
    check_window(layer, flat)?;
    let mut rest = flat;
    layer.visit_params_mut(&mut |p| {
        let (window, tail) = rest.split_at(p.numel());
        rest = tail;
        f(p, window);
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
/// place until something writes to them.
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

/// Checks that `grads` is `layer`'s gradient window: one float per
/// parameter.
pub(crate) fn check_window(layer: &dyn Layer, grads: &[f32]) -> Result<()> {
    check_len(grads.len(), param_count(layer))
}

/// [`crate::NnError::ParamLength`] unless `len == expected`.
pub(crate) fn check_len(len: usize, expected: usize) -> Result<()> {
    if len != expected {
        return Err(crate::NnError::ParamLength { len, expected });
    }
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
}
