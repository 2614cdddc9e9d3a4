//! ResNet-lite — the classifier for the Table I model-performance
//! experiment.
//!
//! The paper trains ResNet-18; this is a narrower residual network of
//! the same family (conv-BN-ReLU stem, three residual stages with
//! stride-2 downsampling, global average pooling, linear head) sized
//! so CPU training finishes in minutes. Table I only compares
//! *with-OASIS vs without-OASIS* accuracy, for which the family — not
//! the width — is what matters.

use oasis_tensor::Tensor;
use rand::Rng;
use std::any::Any;

use crate::layer::check_window;
use crate::{
    param_count, BatchNorm, Conv2d, Layer, Linear, Mode, NnError, Relu, Result, Sequential,
};

/// A basic residual block: `y = relu(bn2(conv2(relu(bn1(conv1(x))))) + skip(x))`.
///
/// When the channel count or stride changes, the skip path is a 1×1
/// convolution + batch norm (projection shortcut).
pub struct ResidualBlock {
    conv1: Conv2d,
    bn1: BatchNorm,
    relu1: Relu,
    conv2: Conv2d,
    bn2: BatchNorm,
    skip: Option<(Conv2d, BatchNorm)>,
    out_mask: Option<Vec<bool>>,
}

impl ResidualBlock {
    /// Creates a block mapping `(in_channels, h, w)` activations to
    /// `(out_channels, h/stride, w/stride)`.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        stride: usize,
        input_hw: (usize, usize),
        rng: &mut impl Rng,
    ) -> Self {
        let conv1 = Conv2d::new(in_channels, out_channels, 3, stride, 1, input_hw, rng);
        let (_, oh, ow) = conv1.output_geometry();
        let conv2 = Conv2d::new(out_channels, out_channels, 3, 1, 1, (oh, ow), rng);
        let skip = if stride != 1 || in_channels != out_channels {
            let proj = Conv2d::new(in_channels, out_channels, 1, stride, 0, input_hw, rng);
            let bn = BatchNorm::new(out_channels);
            Some((proj, bn))
        } else {
            None
        };
        ResidualBlock {
            conv1,
            bn1: BatchNorm::new(out_channels),
            relu1: Relu::new(),
            conv2,
            bn2: BatchNorm::new(out_channels),
            skip,
            out_mask: None,
        }
    }

    /// `(out_channels, out_h, out_w)` of this block.
    pub fn output_geometry(&self) -> (usize, usize, usize) {
        self.conv2.output_geometry()
    }
}

impl Layer for ResidualBlock {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        let f = self.conv1.forward(input, mode)?;
        let f = self.bn1.forward(&f, mode)?;
        let f = self.relu1.forward(&f, mode)?;
        let f = self.conv2.forward(&f, mode)?;
        let f = self.bn2.forward(&f, mode)?;
        let s = match &mut self.skip {
            Some((proj, bn)) => {
                let s = proj.forward(input, mode)?;
                bn.forward(&s, mode)?
            }
            None => input.clone(),
        };
        let pre = f.add(&s)?;
        if mode == Mode::Train {
            self.out_mask = Some(pre.data().iter().map(|&v| v > 0.0).collect());
        }
        Ok(pre.relu())
    }

    fn backward(&mut self, grad_output: &Tensor, grads: &mut [f32]) -> Result<Tensor> {
        let mask = self
            .out_mask
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward {
                layer: "residual_block",
            })?;
        check_window(self, grads)?;
        // The children's windows, in visit order.
        let (w_conv1, rest) = grads.split_at_mut(param_count(&self.conv1));
        let (w_bn1, rest) = rest.split_at_mut(param_count(&self.bn1));
        let (w_conv2, rest) = rest.split_at_mut(param_count(&self.conv2));
        let (w_bn2, w_skip) = rest.split_at_mut(param_count(&self.bn2));
        let mut g = grad_output.clone();
        for (v, &m) in g.data_mut().iter_mut().zip(mask) {
            if !m {
                *v = 0.0;
            }
        }
        // Residual path.
        let gf = self.bn2.backward(&g, w_bn2)?;
        let gf = self.conv2.backward(&gf, w_conv2)?;
        let gf = self.relu1.backward(&gf, &mut [])?;
        let gf = self.bn1.backward(&gf, w_bn1)?;
        let gx_res = self.conv1.backward(&gf, w_conv1)?;
        // Skip path.
        let gx_skip = match &mut self.skip {
            Some((proj, bn)) => {
                let (w_proj, w_bn) = w_skip.split_at_mut(param_count(&*proj));
                let gs = bn.backward(&g, w_bn)?;
                proj.backward(&gs, w_proj)?
            }
            None => g,
        };
        Ok(gx_res.add(&gx_skip)?)
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        self.conv1.visit_params_mut(f);
        self.bn1.visit_params_mut(f);
        self.conv2.visit_params_mut(f);
        self.bn2.visit_params_mut(f);
        if let Some((proj, bn)) = &mut self.skip {
            proj.visit_params_mut(f);
            bn.visit_params_mut(f);
        }
    }

    fn visit_params_ref(&self, f: &mut dyn FnMut(&Tensor)) {
        self.conv1.visit_params_ref(f);
        self.bn1.visit_params_ref(f);
        self.conv2.visit_params_ref(f);
        self.bn2.visit_params_ref(f);
        if let Some((proj, bn)) = &self.skip {
            proj.visit_params_ref(f);
            bn.visit_params_ref(f);
        }
    }

    fn name(&self) -> &'static str {
        "residual_block"
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Builds the ResNet-lite classifier used by the Table I experiment.
///
/// Architecture for input geometry `(c, h, w)` and `base` width `W`:
///
/// ```text
/// conv3×3(c→W) – BN – ReLU
/// ResidualBlock(W→W,   stride 1)
/// ResidualBlock(W→2W,  stride 2)
/// ResidualBlock(2W→4W, stride 2)
/// GlobalAvgPool – Linear(4W → classes)
/// ```
pub fn resnet_lite(
    input: (usize, usize, usize),
    base: usize,
    classes: usize,
    rng: &mut impl Rng,
) -> Sequential {
    let (c, h, w) = input;
    let mut net = Sequential::new();
    let stem = Conv2d::new(c, base, 3, 1, 1, (h, w), rng);
    let (_, h1, w1) = stem.output_geometry();
    net.push(stem);
    net.push(BatchNorm::new(base));
    net.push(Relu::new());

    let b1 = ResidualBlock::new(base, base, 1, (h1, w1), rng);
    let (_, h2, w2) = b1.output_geometry();
    net.push(b1);

    let b2 = ResidualBlock::new(base, base * 2, 2, (h2, w2), rng);
    let (_, h3, w3) = b2.output_geometry();
    net.push(b2);

    let b3 = ResidualBlock::new(base * 2, base * 4, 2, (h3, w3), rng);
    net.push(b3);

    net.push(crate::AvgPoolAll::new(base * 4));
    net.push(Linear::new(base * 4, classes, rng));
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{param_count, softmax_cross_entropy};
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn identity_block_preserves_geometry() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut block = ResidualBlock::new(4, 4, 1, (8, 8), &mut rng);
        let x = Tensor::randn(&[2, 4 * 64], &mut rng);
        let y = block.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.dims(), x.dims());
    }

    #[test]
    fn downsampling_block_halves_spatial_dims() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut block = ResidualBlock::new(4, 8, 2, (8, 8), &mut rng);
        assert_eq!(block.output_geometry(), (8, 4, 4));
        let x = Tensor::randn(&[2, 4 * 64], &mut rng);
        let y = block.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.dims(), &[2, 8 * 16]);
    }

    #[test]
    fn block_backward_matches_input_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut block = ResidualBlock::new(3, 6, 2, (6, 6), &mut rng);
        let x = Tensor::randn(&[2, 3 * 36], &mut rng);
        let y = block.forward(&x, Mode::Train).unwrap();
        let mut grads = vec![0.0f32; param_count(&block)];
        let gx = block.backward(&Tensor::ones(y.dims()), &mut grads).unwrap();
        assert_eq!(gx.dims(), x.dims());
    }

    #[test]
    fn resnet_lite_forward_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = resnet_lite((3, 16, 16), 8, 10, &mut rng);
        let x = Tensor::randn(&[2, 3 * 256], &mut rng);
        let y = net.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.dims(), &[2, 10]);
    }

    #[test]
    fn resnet_lite_produces_gradients_everywhere() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = resnet_lite((3, 8, 8), 4, 5, &mut rng);
        let x = Tensor::randn(&[4, 3 * 64], &mut rng);
        let logits = net.forward(&x, Mode::Train).unwrap();
        let out = softmax_cross_entropy(&logits, &[0, 1, 2, 3]).unwrap();
        let mut grads = vec![0.0f32; param_count(&net)];
        net.backward(&out.grad, &mut grads).unwrap();
        let nonzero = grads.iter().filter(|&&g| g != 0.0).count();
        assert!(
            nonzero * 2 > grads.len(),
            "only {nonzero}/{} gradients nonzero",
            grads.len()
        );
    }

    #[test]
    fn resnet_lite_trains_on_tiny_problem() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut net = resnet_lite((1, 8, 8), 4, 2, &mut rng);
        // Two trivially separable classes: bright vs dark images.
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..8 {
            let v = if i % 2 == 0 { 0.9 } else { 0.1 };
            data.extend(std::iter::repeat_n(v, 64));
            labels.push(i % 2);
        }
        let x = Tensor::from_vec(data, &[8, 64]).unwrap();
        let mut opt = crate::Sgd::with_momentum(0.05, 0.9, 0.0);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..30 {
            let logits = net.forward(&x, Mode::Train).unwrap();
            let out = softmax_cross_entropy(&logits, &labels).unwrap();
            let mut grads = vec![0.0f32; param_count(&net)];
            net.backward(&out.grad, &mut grads).unwrap();
            crate::Optimizer::step(&mut opt, &mut net, &grads).unwrap();
            first.get_or_insert(out.loss);
            last = out.loss;
        }
        assert!(
            last < first.unwrap(),
            "loss did not decrease: {first:?} -> {last}"
        );
    }
}
