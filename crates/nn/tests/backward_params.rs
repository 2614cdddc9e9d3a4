//! `Layer::backward_params` against `Layer::backward`.
//!
//! The parameter-only backward skips the input gradient and nothing
//! else, so the parameter gradients it writes into its window must be
//! bit-equal to `backward`'s — on two successive batches — for every
//! layer that overrides it, on every SIMD backend and at 1 and 2 pool
//! threads.

use oasis_nn::{param_count, Conv2d, Layer, Linear, Mode, NnError, Relu, Sequential};
use oasis_tensor::simd::{with_backend, Backend};
use oasis_tensor::{parallel, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Conv cases `[cin, cout, k, stride, pad, h, w, batch]`: the stride
/// and padding cases of `conv_batched.rs`, plus one batch large enough
/// for the lowering and gradient transpose to enter the worker pool.
const CONV_CASES: [[usize; 8]; 7] = [
    [3, 4, 3, 1, 1, 6, 6, 8],
    [1, 2, 3, 1, 0, 5, 5, 3],
    [2, 3, 2, 2, 0, 6, 6, 4],
    [3, 5, 3, 2, 1, 7, 9, 8],
    [2, 2, 5, 1, 2, 8, 8, 2],
    [2, 4, 3, 1, 1, 5, 5, 9],
    [3, 8, 3, 1, 1, 16, 16, 32],
];

/// Runs `check` under every available backend at 1 and 2 threads.
fn everywhere(check: impl Fn()) {
    for backend in Backend::ALL {
        if !backend.is_available() {
            continue;
        }
        for threads in [1, 2] {
            with_backend(backend, || parallel::with_threads(threads, &check));
        }
    }
}

fn bits(grads: &[f32]) -> Vec<u32> {
    grads.iter().map(|v| v.to_bits()).collect()
}

/// Builds two identical layers with `make`, runs two `Mode::Train`
/// steps on each — `backward` on one, `backward_params` on the other,
/// each into a fresh `+0` window — and requires bit-equal parameter
/// gradients after each step.
fn assert_param_grads_match<L: Layer>(
    what: &str,
    make: impl Fn() -> L,
    in_features: usize,
    batch: usize,
) {
    let mut full = make();
    let mut params_only = make();
    let mut rng = StdRng::seed_from_u64(0xBAC + batch as u64);
    for step in 0..2 {
        let x = Tensor::randn(&[batch, in_features], &mut rng);
        let y = full.forward(&x, Mode::Train).unwrap();
        assert_eq!(params_only.forward(&x, Mode::Train).unwrap(), y);
        let g = Tensor::randn(y.dims(), &mut rng);
        let mut full_grads = vec![0.0f32; param_count(&full)];
        let mut params_only_grads = full_grads.clone();
        let gx = full.backward(&g, &mut full_grads).unwrap();
        assert_eq!(gx.dims(), &[batch, in_features]);
        params_only
            .backward_params(&g, &mut params_only_grads)
            .unwrap();
        assert_eq!(
            bits(&params_only_grads),
            bits(&full_grads),
            "{what}: parameter gradients differ after step {step}"
        );
    }
}

#[test]
fn linear_backward_params_matches_backward() {
    everywhere(|| {
        for (d, n, batch) in [(1, 1, 1), (7, 5, 3), (64, 32, 16), (48, 300, 9)] {
            assert_param_grads_match(
                &format!("linear {d}→{n}, batch {batch}"),
                || Linear::new(d, n, &mut StdRng::seed_from_u64(1)),
                d,
                batch,
            );
        }
    });
}

#[test]
fn conv_backward_params_matches_backward() {
    everywhere(|| {
        for [cin, cout, k, stride, pad, h, w, batch] in CONV_CASES {
            assert_param_grads_match(
                &format!("conv {cin}→{cout} k{k} s{stride} p{pad} {h}×{w}, batch {batch}"),
                || {
                    Conv2d::new(
                        cin,
                        cout,
                        k,
                        stride,
                        pad,
                        (h, w),
                        &mut StdRng::seed_from_u64(2),
                    )
                },
                cin * h * w,
                batch,
            );
        }
    });
}

/// `[[conv, relu], linear, relu, linear]` or `[[linear, relu], …]`:
/// the first layer of the outer stack is itself a stack, so the
/// parameter-only pass has to recurse into it.
fn nested(conv_first: bool) -> Sequential {
    let mut rng = StdRng::seed_from_u64(3);
    let mut inner = Sequential::new();
    if conv_first {
        inner.push(Conv2d::new(2, 3, 3, 1, 1, (5, 5), &mut rng));
        inner.push(Relu::new());
    } else {
        inner.push(Linear::new(50, 75, &mut rng));
        inner.push(Relu::new());
    }
    let mut outer = Sequential::new();
    outer.push(inner);
    outer.push(Linear::new(75, 12, &mut rng));
    outer.push(Relu::new());
    outer.push(Linear::new(12, 4, &mut rng));
    outer
}

#[test]
fn nested_sequential_backward_params_matches_backward() {
    everywhere(|| {
        for conv_first in [false, true] {
            assert_param_grads_match(
                &format!("nested sequential, conv first: {conv_first}"),
                || nested(conv_first),
                50,
                6,
            );
        }
    });
}

#[test]
fn backward_params_before_forward_errors() {
    let mut rng = StdRng::seed_from_u64(4);
    let g = Tensor::ones(&[2, 3]);
    let mut linear = Linear::new(4, 3, &mut rng);
    assert!(matches!(
        linear.backward_params(&g, &mut [0.0; 15]),
        Err(NnError::BackwardBeforeForward { layer: "linear" })
    ));
    let mut conv = Conv2d::new(1, 3, 1, 1, 0, (1, 1), &mut rng);
    assert!(matches!(
        conv.backward_params(&g, &mut [0.0; 6]),
        Err(NnError::BackwardBeforeForward { layer: "conv2d" })
    ));
    for conv_first in [false, true] {
        let mut model = nested(conv_first);
        let mut grads = vec![0.0f32; param_count(&model)];
        assert!(model
            .backward_params(&Tensor::ones(&[2, 4]), &mut grads)
            .is_err());
    }
}

#[test]
fn backward_params_rejects_a_window_of_the_wrong_length() {
    for conv_first in [false, true] {
        let mut model = nested(conv_first);
        let x = Tensor::ones(&[2, 50]);
        model.forward(&x, Mode::Train).unwrap();
        let n = param_count(&model);
        for len in [0, n - 1, n + 1] {
            assert!(matches!(
                model.backward_params(&Tensor::ones(&[2, 4]), &mut vec![0.0; len]),
                Err(NnError::ParamLength { .. })
            ));
        }
    }
}

#[test]
fn empty_sequential_backward_params_is_a_no_op() {
    assert!(Sequential::new()
        .backward_params(&Tensor::ones(&[2, 3]), &mut [])
        .is_ok());
}
