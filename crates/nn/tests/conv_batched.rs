//! Batched-conv vs naive-conv equivalence.
//!
//! `Conv2d` runs one whole-batch transposed-im2col matmul; these
//! tests pin it to a direct quadruple-loop convolution (and its
//! adjoint) at several shapes, paddings, strides, and batch sizes —
//! including odd batches that exercise the matmul kernel's paired-row
//! leftover lane. Everything is compared with a floating-point
//! tolerance: the batched path reorders summation, so bit equality is
//! not expected, but agreement must be at the level of rounding
//! error.

use oasis_nn::{param_count, Conv2d, Layer, Mode};
use oasis_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

const TOL: f32 = 2e-4;

/// Conv hyper-parameters for one comparison case.
#[derive(Clone, Copy, Debug)]
struct Case {
    cin: usize,
    cout: usize,
    k: usize,
    stride: usize,
    pad: usize,
    h: usize,
    w: usize,
    batch: usize,
}

const CASES: [Case; 6] = [
    // stride 1, pad 1 — the workloads' standard 3×3.
    Case {
        cin: 3,
        cout: 4,
        k: 3,
        stride: 1,
        pad: 1,
        h: 6,
        w: 6,
        batch: 8,
    },
    // no padding.
    Case {
        cin: 1,
        cout: 2,
        k: 3,
        stride: 1,
        pad: 0,
        h: 5,
        w: 5,
        batch: 3,
    },
    // stride 2 downsampling.
    Case {
        cin: 2,
        cout: 3,
        k: 2,
        stride: 2,
        pad: 0,
        h: 6,
        w: 6,
        batch: 4,
    },
    // stride 2 with padding, non-square input.
    Case {
        cin: 3,
        cout: 5,
        k: 3,
        stride: 2,
        pad: 1,
        h: 7,
        w: 9,
        batch: 8,
    },
    // large kernel, wide padding.
    Case {
        cin: 2,
        cout: 2,
        k: 5,
        stride: 1,
        pad: 2,
        h: 8,
        w: 8,
        batch: 2,
    },
    // odd batch (paired-row kernel leftover) at batch 9.
    Case {
        cin: 2,
        cout: 4,
        k: 3,
        stride: 1,
        pad: 1,
        h: 5,
        w: 5,
        batch: 9,
    },
];

struct NaiveResult {
    y: Vec<f32>,
    gx: Vec<f32>,
    gw: Vec<f32>,
    gb: Vec<f32>,
}

/// Direct convolution + adjoint, one loop nest per quantity, summing
/// in the plainest possible order.
#[allow(clippy::needless_range_loop)]
fn naive_conv(c: Case, x: &[f32], weight: &[f32], bias: &[f32], grad_out: &[f32]) -> NaiveResult {
    let oh = (c.h + 2 * c.pad - c.k) / c.stride + 1;
    let ow = (c.w + 2 * c.pad - c.k) / c.stride + 1;
    let p = oh * ow;
    let in_f = c.cin * c.h * c.w;
    let kk = c.k * c.k;
    let ckk = c.cin * kk;
    let mut y = vec![0.0f32; c.batch * c.cout * p];
    let mut gx = vec![0.0f32; c.batch * in_f];
    let mut gw = vec![0.0f32; c.cout * ckk];
    let mut gb = vec![0.0f32; c.cout];
    for b in 0..c.batch {
        let xb = &x[b * in_f..(b + 1) * in_f];
        for co in 0..c.cout {
            for oy in 0..oh {
                for ox in 0..ow {
                    let pos = oy * ow + ox;
                    let go = grad_out[b * c.cout * p + co * p + pos];
                    let mut acc = bias[co];
                    gb[co] += go;
                    for ci in 0..c.cin {
                        for ky in 0..c.k {
                            let sy = (oy * c.stride + ky) as isize - c.pad as isize;
                            if sy < 0 || sy as usize >= c.h {
                                continue;
                            }
                            for kx in 0..c.k {
                                let sx = (ox * c.stride + kx) as isize - c.pad as isize;
                                if sx < 0 || sx as usize >= c.w {
                                    continue;
                                }
                                let xi = (ci * c.h + sy as usize) * c.w + sx as usize;
                                let wi = co * ckk + ci * kk + ky * c.k + kx;
                                acc += weight[wi] * xb[xi];
                                gw[wi] += go * xb[xi];
                                gx[b * in_f + xi] += go * weight[wi];
                            }
                        }
                    }
                    y[b * c.cout * p + co * p + pos] = acc;
                }
            }
        }
    }
    NaiveResult { y, gx, gw, gb }
}

fn assert_close(actual: &[f32], expected: &[f32], what: &str, case: Case) {
    assert_eq!(actual.len(), expected.len(), "{what} length for {case:?}");
    for (i, (&a, &e)) in actual.iter().zip(expected).enumerate() {
        let denom = 1.0f32.max(a.abs()).max(e.abs());
        assert!(
            (a - e).abs() / denom < TOL,
            "{what}[{i}] diverges for {case:?}: batched {a} vs naive {e}"
        );
    }
}

fn weights_of(conv: &Conv2d) -> (Vec<f32>, Vec<f32>) {
    let mut tensors = Vec::new();
    conv.visit_params_ref(&mut |p| tensors.push(p.data().to_vec()));
    let bias = tensors.pop().expect("bias");
    let weight = tensors.pop().expect("weight");
    (weight, bias)
}

/// One backward pass of `conv` into a fresh `+0` window, split into
/// the weight and bias gradients.
fn backward_grads(conv: &mut Conv2d, grad_out: &Tensor) -> (Tensor, Vec<f32>, Vec<f32>) {
    let mut grads = vec![0.0f32; param_count(&*conv)];
    let gx = conv.backward(grad_out, &mut grads).unwrap();
    let gb = grads.split_off(grads.len() - conv.output_geometry().0);
    (gx, grads, gb)
}

#[test]
fn batched_conv_matches_naive_conv() {
    for case in CASES {
        let mut rng = StdRng::seed_from_u64(0xC0_4F + case.batch as u64);
        let mut conv = Conv2d::new(
            case.cin,
            case.cout,
            case.k,
            case.stride,
            case.pad,
            (case.h, case.w),
            &mut rng,
        );
        let in_f = case.cin * case.h * case.w;
        let x = Tensor::randn(&[case.batch, in_f], &mut rng);
        let y = conv.forward(&x, Mode::Train).unwrap();
        let grad_out = Tensor::randn(y.dims(), &mut rng);
        let (gx, gw, gb) = backward_grads(&mut conv, &grad_out);

        let (weight, bias) = weights_of(&conv);
        let naive = naive_conv(case, x.data(), &weight, &bias, grad_out.data());

        assert_close(y.data(), &naive.y, "forward", case);
        assert_close(gx.data(), &naive.gx, "grad_x", case);
        assert_close(&gw, &naive.gw, "grad_w", case);
        assert_close(&gb, &naive.gb, "grad_b", case);
    }
}

#[test]
fn repeated_backward_windows_sum_like_naive() {
    // A second backward pass reuses the layer's lowering and scratch
    // buffers; its window, added to the first one's, must equal 2× one.
    let case = CASES[0];
    let mut rng = StdRng::seed_from_u64(7);
    let mut conv = Conv2d::new(
        case.cin,
        case.cout,
        case.k,
        case.stride,
        case.pad,
        (case.h, case.w),
        &mut rng,
    );
    let x = Tensor::randn(&[case.batch, case.cin * case.h * case.w], &mut rng);
    let y = conv.forward(&x, Mode::Train).unwrap();
    let grad_out = Tensor::randn(y.dims(), &mut rng);
    let (_, gw1, gb1) = backward_grads(&mut conv, &grad_out);
    let (_, mut gw2, mut gb2) = backward_grads(&mut conv, &grad_out);
    for (g2, &g1) in gw2.iter_mut().chain(&mut gb2).zip(gw1.iter().chain(&gb1)) {
        *g2 += g1;
    }
    for (&g2, &g1) in gw2.iter().zip(&gw1) {
        assert!((g2 - 2.0 * g1).abs() < TOL * 1.0f32.max(g2.abs()));
    }
    for (&g2, &g1) in gb2.iter().zip(&gb1) {
        assert!((g2 - 2.0 * g1).abs() < TOL * 1.0f32.max(g2.abs()));
    }
}
