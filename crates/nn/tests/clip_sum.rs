//! `Linear::clipped_grad_mean` against the materialized reference.
//!
//! The reference builds every sample's gradient with a B = 1
//! `Linear` backward pass, takes its `norm_sq` (weight, then bias),
//! `axpy`s it into a running sum in sample order, and scales the sum
//! by `1/b` — the record-level DP-SGD clip-and-sum the fused kernel
//! replaces. The two must agree bit for bit, so nothing here has a
//! tolerance.

use oasis_nn::{Layer, Linear, Mode};
use oasis_tensor::simd::{self, Backend};
use oasis_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `Tensor::norm_sq` of a window: the same sequential sum of squares.
fn norm_sq(values: &[f32]) -> f32 {
    values.iter().map(|&v| v * v).sum()
}

fn reference(x: &Tensor, delta: &Tensor, clip: f32) -> Vec<f32> {
    let (b, d) = (x.dims()[0], x.dims()[1]);
    let n = delta.dims()[1];
    let mut layer = Linear::from_parts(Tensor::zeros(&[n, d]), Tensor::zeros(&[n])).unwrap();
    let mut sum_gw = Tensor::zeros(&[n, d]);
    let mut sum_gb = Tensor::zeros(&[n]);
    for s in 0..b {
        let mut grads = vec![0.0f32; n * d + n];
        layer
            .forward(&x.slice_rows(s, s + 1).unwrap(), Mode::Train)
            .unwrap();
        layer
            .backward(&delta.slice_rows(s, s + 1).unwrap(), &mut grads)
            .unwrap();
        let (grad_weight, grad_bias) = grads.split_at(n * d);
        let norm = (norm_sq(grad_weight) + norm_sq(grad_bias)).sqrt();
        let scale = if norm > clip { clip / norm } else { 1.0 };
        simd::axpy(sum_gw.data_mut(), scale, grad_weight);
        simd::axpy(sum_gb.data_mut(), scale, grad_bias);
    }
    let inv_b = 1.0 / b as f32;
    sum_gw.scale_in_place(inv_b);
    sum_gb.scale_in_place(inv_b);
    let mut out = sum_gw.data().to_vec();
    out.extend_from_slice(sum_gb.data());
    out
}

/// A random `(x, δ)` pair: about a third of the δ entries are zero.
/// For b ≥ 2, one sample has an all-zero δ row and a non-finite input
/// value — it must contribute nothing at all — and another sample's
/// input holds a non-finite value too, so its norm is `∞` or NaN and
/// its zero-δ rows must still add exactly nothing to it.
fn case(b: usize, n: usize, d: usize, seed: u64) -> (Tensor, Tensor) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x = Tensor::rand_uniform(&[b, d], -2.0, 2.0, &mut rng);
    let mut delta = Tensor::rand_uniform(&[b, n], -1.0, 1.0, &mut rng);
    for v in delta.data_mut() {
        if rng.gen_range(0..3) == 0 {
            *v = 0.0;
        }
    }
    if b >= 2 {
        let silent = rng.gen_range(0..b);
        delta.data_mut()[silent * n..(silent + 1) * n].fill(0.0);
        let loud = (silent + rng.gen_range(1..b)) % b;
        for s in [silent, loud] {
            let j = rng.gen_range(0..d);
            x.data_mut()[s * d + j] = if seed.is_multiple_of(2) {
                f32::INFINITY
            } else {
                f32::NAN
            };
        }
    }
    (x, delta)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #[test]
    fn fused_clip_sum_is_bit_equal_to_the_materialized_reference(
        b in 1usize..=20,
        n in 1usize..=13,
        d in 1usize..=40,
        seed in 0u64..1_000_000,
        // Always clips, clips some samples, never clips.
        clip in prop_oneof![Just(1e-3f32), 0.5f32..8.0, Just(1e30f32)],
    ) {
        let (x, delta) = case(b, n, d, seed);
        let fused = Linear::clipped_grad_mean(&x, &delta, clip).unwrap();
        prop_assert_eq!(bits(&fused), bits(&reference(&x, &delta, clip)));
    }
}

#[test]
fn wide_layer_with_lane_and_quad_tails_is_bit_equal() {
    // 19 samples: a partial norm block; rows with 1–3 surviving terms
    // exercise the scalar four-sample pass's tail.
    let (x, delta) = case(19, 67, 203, 7);
    for clip in [1e-2, 3.0, 1e30] {
        let fused = Linear::clipped_grad_mean(&x, &delta, clip).unwrap();
        assert_eq!(
            bits(&fused),
            bits(&reference(&x, &delta, clip)),
            "clip {clip}"
        );
    }
}

#[test]
fn batches_and_widths_across_the_blocked_kernels_are_bit_equal_on_every_backend() {
    // B spans one sample, a norm block one short of full, one full
    // block and four of them (32 lanes each); n crosses the 16-row
    // blocks of the clip-and-sum and d its 64-column register tile.
    // `case` puts a non-finite input in a sample with an all-zero δ
    // and in one other sample. The reference runs on the scalar
    // backend; every available backend must match it.
    let backends: Vec<Backend> = Backend::ALL
        .into_iter()
        .filter(|b| b.is_available())
        .collect();
    let shapes = [
        (1, 5, 64),
        (31, 15, 63),
        (32, 16, 65),
        (32, 17, 130),
        (128, 33, 70),
    ];
    for (seed, (b, n, d)) in shapes.into_iter().enumerate() {
        let (x, delta) = case(b, n, d, seed as u64);
        for clip in [1e-3, 2.0, 1e30] {
            let want = simd::with_backend(Backend::Scalar, || reference(&x, &delta, clip));
            for &backend in &backends {
                let fused = simd::with_backend(backend, || {
                    Linear::clipped_grad_mean(&x, &delta, clip).unwrap()
                });
                assert_eq!(
                    bits(&fused),
                    bits(&want),
                    "{backend:?} b={b} n={n} d={d} clip {clip}"
                );
            }
        }
    }
}

#[test]
fn all_zero_deltas_give_a_zero_update() {
    let x = Tensor::rand_uniform(&[5, 9], -1.0, 1.0, &mut StdRng::seed_from_u64(1));
    let fused = Linear::clipped_grad_mean(&x, &Tensor::zeros(&[5, 4]), 1.0).unwrap();
    assert_eq!(fused.len(), 4 * 9 + 4);
    assert!(fused.iter().all(|v| v.to_bits() == 0));
}

#[test]
fn mismatched_or_empty_batches_are_rejected() {
    let x = Tensor::zeros(&[3, 4]);
    assert!(Linear::clipped_grad_mean(&x, &Tensor::zeros(&[2, 5]), 1.0).is_err());
    assert!(Linear::clipped_grad_mean(&x, &Tensor::zeros(&[15]), 1.0).is_err());
    let empty = Tensor::zeros(&[0, 4]);
    assert!(Linear::clipped_grad_mean(&empty, &Tensor::zeros(&[0, 5]), 1.0).is_err());
    let featureless = Tensor::zeros(&[3, 0]);
    assert!(Linear::clipped_grad_mean(&featureless, &Tensor::zeros(&[3, 5]), 1.0).is_err());
    assert!(Linear::clipped_grad_mean(&x, &Tensor::zeros(&[3, 0]), 1.0).is_err());
}
