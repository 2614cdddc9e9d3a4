//! Layer composition.

use oasis_tensor::Tensor;
use std::any::Any;

use crate::{Layer, Mode, Result};

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
}

impl Layer for Sequential {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, mode)?;
        }
        Ok(x)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let mut g = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g)?;
        }
        Ok(g)
    }

    /// Runs `backward` through layers `1..` in reverse, then
    /// `backward_params` on layer 0, so the stack's input gradient is
    /// never formed.
    fn backward_params(&mut self, grad_output: &Tensor) -> Result<()> {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return Ok(());
        };
        let mut g = None;
        for layer in rest.iter_mut().rev() {
            g = Some(layer.backward(g.as_ref().unwrap_or(grad_output))?);
        }
        first.backward_params(g.as_ref().unwrap_or(grad_output))
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
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
        let gx = m.backward(&Tensor::ones(y.dims())).unwrap();
        assert_eq!(gx.dims(), x.dims());
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
