//! Layer composition.

use oasis_tensor::Tensor;
use std::any::Any;

use crate::layer::{check_len, check_window};
use crate::{param_count, Layer, Mode, Result};

/// A stack of layers applied in order.
///
/// `Sequential` is itself a [`Layer`], so blocks nest. The dishonest
/// server reaches specific layers through [`Sequential::layer_mut`]
/// plus `as_any_mut` downcasting.
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates an empty stack.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: impl Layer + 'static) -> &mut Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the stack is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Borrow layer `i`.
    pub fn layer(&self, i: usize) -> Option<&dyn Layer> {
        self.layers.get(i).map(|b| b.as_ref())
    }

    /// Mutably borrow layer `i`.
    pub fn layer_mut(&mut self, i: usize) -> Option<&mut (dyn Layer + 'static)> {
        self.layers.get_mut(i).map(|b| b.as_mut() as _)
    }

    /// Downcast layer `i` to a concrete type.
    pub fn layer_as<T: 'static>(&self, i: usize) -> Option<&T> {
        self.layers.get(i).and_then(|b| b.as_any().downcast_ref())
    }

    /// Mutably downcast layer `i` to a concrete type.
    pub fn layer_as_mut<T: 'static>(&mut self, i: usize) -> Option<&mut T> {
        self.layers
            .get_mut(i)
            .and_then(|b| b.as_any_mut().downcast_mut())
    }

    /// Backpropagates `grad_output` through layers `from..` only, in
    /// reverse, and returns the gradient at layer `from`'s input.
    /// `grads` is the `+0` window of those layers alone, which each
    /// layer's own window is split off the end of as the pass walks
    /// back.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::ParamLength`] when `grads` is not one
    /// float per parameter of layers `from..`, and propagates the
    /// layers' backward errors.
    pub fn backward_from(
        &mut self,
        from: usize,
        grad_output: &Tensor,
        grads: &mut [f32],
    ) -> Result<Tensor> {
        let layers = self.layers.get_mut(from..).unwrap_or_default();
        check_len(grads.len(), layers.iter().map(|l| param_count(&**l)).sum())?;
        let mut g = grad_output.clone();
        let mut rest = grads;
        for layer in layers.iter_mut().rev() {
            let taken = std::mem::take(&mut rest);
            let split = taken.len() - param_count(&**layer);
            let (head, window) = taken.split_at_mut(split);
            g = layer.backward(&g, window)?;
            rest = head;
        }
        Ok(g)
    }
}

impl Layer for Sequential {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, mode)?;
        }
        Ok(x)
    }

    fn backward(&mut self, grad_output: &Tensor, grads: &mut [f32]) -> Result<Tensor> {
        self.backward_from(0, grad_output, grads)
    }

    /// Runs `backward` through layers `1..` in reverse
    /// ([`Sequential::backward_from`]), then `backward_params` on
    /// layer 0, so the stack's input gradient is never formed.
    fn backward_params(&mut self, grad_output: &Tensor, grads: &mut [f32]) -> Result<()> {
        check_window(self, grads)?;
        let Some(first) = self.layers.first() else {
            return Ok(());
        };
        let (first_window, rest) = grads.split_at_mut(param_count(&**first));
        let g = self.backward_from(1, grad_output, rest)?;
        self.layers[0].backward_params(&g, first_window)
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        for layer in &mut self.layers {
            layer.visit_params_mut(f);
        }
    }

    fn visit_params_ref(&self, f: &mut dyn FnMut(&Tensor)) {
        for layer in &self.layers {
            layer.visit_params_ref(f);
        }
    }

    fn name(&self) -> &'static str {
        "sequential"
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Sequential[")?;
        for (i, l) in self.layers.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", l.name())?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Linear, Relu};
    use rand::{rngs::StdRng, SeedableRng};

    fn mlp(rng: &mut StdRng) -> Sequential {
        let mut s = Sequential::new();
        s.push(Linear::new(4, 8, rng));
        s.push(Relu::new());
        s.push(Linear::new(8, 3, rng));
        s
    }

    #[test]
    fn forward_chains_layers() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut m = mlp(&mut rng);
        let y = m
            .forward(&Tensor::randn(&[5, 4], &mut rng), Mode::Eval)
            .unwrap();
        assert_eq!(y.dims(), &[5, 3]);
    }

    #[test]
    fn backward_returns_input_grad_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut m = mlp(&mut rng);
        let x = Tensor::randn(&[5, 4], &mut rng);
        let y = m.forward(&x, Mode::Train).unwrap();
        let mut grads = vec![0.0f32; crate::param_count(&m)];
        let gx = m.backward(&Tensor::ones(y.dims()), &mut grads).unwrap();
        assert_eq!(gx.dims(), x.dims());
        assert!(m.backward(&Tensor::ones(y.dims()), &mut [0.0; 3]).is_err());
    }

    #[test]
    fn downcast_reaches_concrete_layer() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut m = mlp(&mut rng);
        assert!(m.layer_as::<Linear>(0).is_some());
        assert!(m.layer_as::<Relu>(0).is_none());
        assert!(m.layer_as_mut::<Linear>(2).is_some());
        assert!(m.layer_as::<Linear>(9).is_none());
    }

    #[test]
    fn param_visit_covers_all_layers() {
        let mut rng = StdRng::seed_from_u64(0);
        let m = mlp(&mut rng);
        let n = crate::param_count(&m);
        assert_eq!(n, (4 * 8 + 8) + (8 * 3 + 3));
    }

    #[test]
    fn debug_lists_layer_names() {
        let mut rng = StdRng::seed_from_u64(0);
        let m = mlp(&mut rng);
        assert_eq!(format!("{m:?}"), "Sequential[linear, relu, linear]");
    }
}
