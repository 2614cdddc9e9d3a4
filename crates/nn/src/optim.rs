//! Optimizers: SGD (with momentum) and Adam.

use oasis_tensor::Tensor;

use crate::{zip_params, Layer, Result};

/// A gradient-based parameter updater.
///
/// Optimizers rely on [`Layer::visit_params_mut`] yielding parameters
/// in a stable order; per-parameter state (momentum, Adam moments) is
/// indexed by visit position.
pub trait Optimizer {
    /// Applies one update step to `model`'s parameters from the flat
    /// gradient `grads`, laid out in visit order (the buffer a
    /// backward pass writes, or a defended update).
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::ParamLength`] when `grads` is not one
    /// float per parameter; the parameters are untouched then.
    fn step(&mut self, model: &mut dyn Layer, grads: &[f32]) -> Result<()>;

    /// The current learning rate.
    fn learning_rate(&self) -> f32;

    /// Overrides the learning rate (e.g. for schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Stochastic gradient descent with optional momentum and weight
/// decay — the update the FL server applies to the global model
/// (paper Eq. 1 uses plain SGD).
#[derive(Debug)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Plain SGD with learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        Sgd {
            lr,
            momentum: 0.0,
            weight_decay: 0.0,
            velocity: Vec::new(),
        }
    }

    /// SGD with momentum and L2 weight decay.
    pub fn with_momentum(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        Sgd {
            lr,
            momentum,
            weight_decay,
            velocity: Vec::new(),
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, model: &mut dyn Layer, grads: &[f32]) -> Result<()> {
        let mut idx = 0usize;
        let lr = self.lr;
        let momentum = self.momentum;
        let wd = self.weight_decay;
        let velocity = &mut self.velocity;
        zip_params(model, grads, &mut |p, g| {
            if velocity.len() <= idx {
                velocity.push(Tensor::zeros(p.dims()));
            }
            let v = &mut velocity[idx];
            for ((pv, gv), vv) in p.data_mut().iter_mut().zip(g).zip(v.data_mut().iter_mut()) {
                let grad = gv + wd * *pv;
                *vv = momentum * *vv + grad;
                *pv -= lr * *vv;
            }
            idx += 1;
        })
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adam (Kingma & Ba) with decoupled L2 weight decay — used for the
/// Table I model-performance experiment (the paper trains with Adam,
/// lr 1e-3).
#[derive(Debug)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    step_count: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Adam with the standard β₁=0.9, β₂=0.999, ε=1e-8.
    pub fn new(lr: f32, weight_decay: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay,
            step_count: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, model: &mut dyn Layer, grads: &[f32]) -> Result<()> {
        let t = (self.step_count + 1) as f32;
        let bias1 = 1.0 - self.beta1.powf(t);
        let bias2 = 1.0 - self.beta2.powf(t);
        let (lr, b1, b2, eps, wd) = (self.lr, self.beta1, self.beta2, self.eps, self.weight_decay);
        let m = &mut self.m;
        let v = &mut self.v;
        let mut idx = 0usize;
        zip_params(model, grads, &mut |p, g| {
            if m.len() <= idx {
                m.push(Tensor::zeros(p.dims()));
                v.push(Tensor::zeros(p.dims()));
            }
            let (mi, vi) = (&mut m[idx], &mut v[idx]);
            for (((pv, gv), mv), vv) in p
                .data_mut()
                .iter_mut()
                .zip(g)
                .zip(mi.data_mut().iter_mut())
                .zip(vi.data_mut().iter_mut())
            {
                let grad = gv + wd * *pv;
                *mv = b1 * *mv + (1.0 - b1) * grad;
                *vv = b2 * *vv + (1.0 - b2) * grad * grad;
                let m_hat = *mv / bias1;
                let v_hat = *vv / bias2;
                *pv -= lr * m_hat / (v_hat.sqrt() + eps);
            }
            idx += 1;
        })?;
        // Counted once the step is taken: a rejected one moves nothing.
        self.step_count += 1;
        Ok(())
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{param_count, softmax_cross_entropy, Linear, Mode};
    use rand::{rngs::StdRng, SeedableRng};

    /// One linear layer trained on a trivially separable problem must
    /// reduce the loss.
    fn train_with(optimizer: &mut dyn Optimizer) -> (f32, f32) {
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = Linear::new(2, 2, &mut rng);
        let x = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 0.1, 0.1, 1.0], &[4, 2]).unwrap();
        let labels = [0usize, 1, 0, 1];
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..200 {
            let logits = model.forward(&x, Mode::Train).unwrap();
            let out = softmax_cross_entropy(&logits, &labels).unwrap();
            let mut grads = vec![0.0f32; param_count(&model)];
            model.backward(&out.grad, &mut grads).unwrap();
            optimizer.step(&mut model, &grads).unwrap();
            first.get_or_insert(out.loss);
            last = out.loss;
        }
        (first.unwrap(), last)
    }

    #[test]
    fn sgd_reduces_loss() {
        let (first, last) = train_with(&mut Sgd::new(0.5));
        assert!(last < first * 0.5, "first {first}, last {last}");
    }

    #[test]
    fn sgd_momentum_reduces_loss() {
        let (first, last) = train_with(&mut Sgd::with_momentum(0.1, 0.9, 1e-4));
        assert!(last < first * 0.5, "first {first}, last {last}");
    }

    #[test]
    fn adam_reduces_loss() {
        let (first, last) = train_with(&mut Adam::new(0.05, 0.0));
        assert!(last < first * 0.5, "first {first}, last {last}");
    }

    #[test]
    fn learning_rate_accessors() {
        let mut s = Sgd::new(0.1);
        assert_eq!(s.learning_rate(), 0.1);
        s.set_learning_rate(0.01);
        assert_eq!(s.learning_rate(), 0.01);
    }

    #[test]
    fn step_reads_the_flat_gradient_in_visit_order() {
        // Plain SGD moves each parameter by `lr · g` for its own slot of
        // the flat gradient: weight rows first, then the bias.
        let w = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let mut model = Linear::from_parts(w, Tensor::from_slice(&[5.0, 6.0])).unwrap();
        let grads = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        Sgd::new(0.5).step(&mut model, &grads).unwrap();
        assert_eq!(model.weight().data(), &[0.5, 1.0, 1.5, 2.0]);
        assert_eq!(model.bias().data(), &[2.5, 3.0]);
        // A gradient of the wrong length moves nothing.
        assert!(Adam::new(0.1, 0.0).step(&mut model, &grads[..5]).is_err());
        assert_eq!(model.bias().data(), &[2.5, 3.0]);
    }
}
