//! SIMD-vs-scalar parity at lane boundaries.
//!
//! Every dispatched kernel is specified to be *bit-identical* to the
//! scalar reference (see `oasis_tensor::simd`), so these tests pin
//! equality of bit patterns, not tolerances: proptests sweep lengths
//! through `1..=33` (covering empty vector-chunk counts, exact lane
//! multiples, and every tail length for both 8- and 4-lane backends)
//! plus misaligned sub-slices (vector loads must not assume an
//! aligned base), with tricky values — signed zeros, subnormal-scale
//! magnitudes, large magnitudes — mixed in. On hardware where the
//! best backend *is* scalar the comparisons are trivially true; the
//! CI perf leg runs on AVX2 where they are load-bearing.
//!
//! Where the vector backend compiles the scalar source itself (`dot`,
//! `axpy`, plain `matmul`'s `axpy4`/`axpy4x2` and the q8 fold), a
//! scalar-vs-vector comparison would only test the compiler, so those
//! kernels are pinned on every backend against their specification
//! written out per element: `dot` against its eight-lane sum, fixed
//! combine and sequential tail, `axpy` against `out[i] + alpha·x[i]`,
//! the fold against `acc[i] + weight·dequantize(q[i])` and plain
//! `matmul` against the four-step block sum.
//!
//! The blocked kernels are pinned against per-element loops on every
//! available backend and at 1 and 2 threads, with ±0, ±∞, NaN and
//! subnormals added to the mix: `matmul_nt` against one `dot` per
//! output and `matmul_tn` against the four-step block sum per output,
//! at shapes crossing every register-tile, panel and k-block edge.
//! Plain `matmul`, and `matmul_nt` below its dot-path k, are pinned
//! against the same block sum.
//! `sq_err_tile` is pinned against the single-pair sum,
//! `sq_err_tile_bounded` against `sq_err_tile` (an output is the full
//! sum or a sound early stop) and `box_sums8` against the per-pixel
//! box loop. `lane_dots` (the calibration responses) and
//! `sq_and_sums8` (dedupe's norms and means) are pinned against the
//! sequential `Iterator::sum` per output.

use oasis_tensor::simd::{self, Backend};
use oasis_tensor::{parallel, Tensor};
use proptest::prelude::*;

/// Element strategy biased toward lane-combine edge cases.
fn tricky_f32() -> impl Strategy<Value = f32> {
    prop_oneof![
        -100.0f32..100.0,
        -100.0f32..100.0,
        -100.0f32..100.0,
        Just(0.0f32),
        Just(-0.0f32),
        -1e-6f32..1e-6,
        -1e30f32..1e30,
    ]
}

/// A vector sweeping every lane/tail split for 8- and 4-lane kernels.
fn lane_vec() -> impl Strategy<Value = Vec<f32>> {
    (1usize..=33).prop_flat_map(|n| proptest::collection::vec(tricky_f32(), n))
}

/// Same-length vector pair.
fn lane_pair() -> impl Strategy<Value = (Vec<f32>, Vec<f32>)> {
    (1usize..=33).prop_flat_map(|n| {
        (
            proptest::collection::vec(tricky_f32(), n),
            proptest::collection::vec(tricky_f32(), n),
        )
    })
}

fn best() -> Backend {
    Backend::detect()
}

/// Every backend this CPU can run.
fn backends() -> Vec<Backend> {
    Backend::ALL
        .into_iter()
        .filter(|b| b.is_available())
        .collect()
}

/// The non-finite values and true subnormals the pairwise tiles must
/// pass through exactly as the single-pair kernels do.
fn special_f32() -> impl Strategy<Value = f32> {
    prop_oneof![
        Just(f32::INFINITY),
        Just(f32::NEG_INFINITY),
        Just(f32::NAN),
        Just(1e-40f32),
        Just(-1e-40f32),
    ]
}

/// Bit equality, except that any NaN equals any NaN: Rust does not
/// pin NaN payloads, so "same output" means NaN exactly where the
/// reference is NaN and the same bits everywhere else.
fn same<T: Into<f64> + Copy>(got: T, want: T) -> bool {
    let (g, w) = (got.into(), want.into());
    (g.is_nan() && w.is_nan()) || g.to_bits() == w.to_bits()
}

/// `rows` vectors of one length, swept across lane and tail splits,
/// of [`tricky_f32`] values; in about half the cases one element of
/// one row is a [`special_f32`] (rarely enough that most outputs stay
/// finite and their bits stay meaningful).
fn lane_rows(rows: usize) -> impl Strategy<Value = Vec<Vec<f32>>> {
    (0usize..=41).prop_flat_map(move |n| {
        (
            proptest::collection::vec(proptest::collection::vec(tricky_f32(), n), rows),
            0..2 * rows,
            0..n.max(1),
            special_f32(),
        )
            .prop_map(move |(mut v, r, i, x)| {
                if r < rows && n > 0 {
                    v[r][i] = x;
                }
                v
            })
    })
}

/// `dot`'s specification written out: lane `l` adds `a[i]·b[i]` for
/// each `i ≡ l (mod 8)` of the whole eight-element chunks, in order
/// from `+0`; the lanes combine as
/// `((l0 + l4) + (l1 + l5)) + ((l2 + l6) + (l3 + l7))`, and the
/// remaining products follow as one sequential sum.
fn dot_oracle(a: &[f32], b: &[f32]) -> f32 {
    let whole = a.len() / 8 * 8;
    let mut l = [0.0f32; 8];
    for i in 0..whole {
        l[i % 8] += a[i] * b[i];
    }
    let tail: f32 = (whole..a.len()).map(|i| a[i] * b[i]).sum();
    ((l[0] + l[4]) + (l[1] + l[5])) + ((l[2] + l[6]) + (l[3] + l[7])) + tail
}

/// The per-element loop `matmul_nt` ran before its register tile,
/// kept verbatim as the oracle: one `dot` per output.
fn matmul_nt_oracle(a: &Tensor, b: &Tensor) -> Vec<f32> {
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let n = b.dims()[0];
    let (a, b) = (a.data(), b.data());
    let mut out = vec![0.0f32; m * n];
    for (i, out_row) in out.chunks_mut(n).enumerate() {
        let arow = &a[i * k..(i + 1) * k];
        for (j, o) in out_row.iter_mut().enumerate() {
            *o = simd::dot(arow, &b[j * k..(j + 1) * k]);
        }
    }
    out
}

/// `matmul_tn`'s specification written out per output: from `+0`,
/// each block of four k-steps whose coefficients `a[p..p + 4][i]` are
/// not all zero adds `((a0·b0 + a1·b1) + a2·b2) + a3·b3`, then each
/// remaining k-step with a nonzero coefficient adds `a·b`.
fn matmul_tn_oracle(a: &Tensor, b: &Tensor) -> Vec<f32> {
    let (k, m) = (a.dims()[0], a.dims()[1]);
    let n = b.dims()[1];
    let (a, b) = (a.data(), b.data());
    let blocks = k / 4 * 4;
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let (c, x) = (|p: usize| a[p * m + i], |p: usize| b[p * n + j]);
            let mut o = 0.0f32;
            for p in (0..blocks).step_by(4) {
                if [c(p), c(p + 1), c(p + 2), c(p + 3)] != [0.0; 4] {
                    o += c(p) * x(p)
                        + c(p + 1) * x(p + 1)
                        + c(p + 2) * x(p + 2)
                        + c(p + 3) * x(p + 3);
                }
            }
            for p in blocks..k {
                if c(p) != 0.0 {
                    o += c(p) * x(p);
                }
            }
            out[i * n + j] = o;
        }
    }
    out
}

/// A `rows × cols` matrix of values in ±2 with signed zeros and
/// subnormals sprinkled in, and each listed `(row, value)` written at a
/// random column of that row.
fn sprinkled(
    rng: &mut rand::rngs::StdRng,
    rows: usize,
    cols: usize,
    loud: &[(usize, f32)],
) -> Tensor {
    use rand::Rng;
    let quiet = [0.0f32, -0.0, 1e-40, -1e-40];
    let mut data: Vec<f32> = (0..rows * cols)
        .map(|_| {
            if rng.gen_range(0..16) == 0 {
                quiet[rng.gen_range(0..quiet.len())]
            } else {
                rng.gen_range(-2.0f32..2.0)
            }
        })
        .collect();
    for &(row, v) in loud {
        if row < rows && cols > 0 {
            data[row * cols + rng.gen_range(0..cols)] = v;
        }
    }
    Tensor::from_vec(data, &[rows, cols]).unwrap()
}

/// Asserts `got` equals `want` under [`same`], naming the first output
/// that differs.
fn assert_same(got: &Tensor, want: &[f32], what: &str) {
    assert_eq!(got.data().len(), want.len(), "{what}: length");
    for (o, (&g, &w)) in got.data().iter().zip(want).enumerate() {
        assert!(same(g, w), "{what} out {o}: {g} vs {w}");
    }
}

proptest! {
    #[test]
    fn dot_is_bit_identical((a, b) in lane_pair()) {
        let want = dot_oracle(&a, &b).to_bits();
        for backend in backends() {
            let got = simd::with_backend(backend, || simd::dot(&a, &b));
            prop_assert_eq!(got.to_bits(), want, "{:?}", backend);
        }
    }

    #[test]
    fn dot_on_misaligned_subslices_is_bit_identical(
        (a, b) in lane_pair(), off in 0usize..4,
    ) {
        let off = off % a.len();
        let (sa, sb) = (&a[off..], &b[off..]);
        let want = dot_oracle(sa, sb).to_bits();
        for backend in backends() {
            let got = simd::with_backend(backend, || simd::dot(sa, sb));
            prop_assert_eq!(got.to_bits(), want, "{:?}", backend);
        }
    }

    #[test]
    fn axpy_is_bit_identical((out, x) in lane_pair(), alpha in tricky_f32()) {
        let want: Vec<u32> = out
            .iter()
            .zip(&x)
            .map(|(&o, &v)| (o + alpha * v).to_bits())
            .collect();
        for backend in backends() {
            let mut got = out.clone();
            simd::with_backend(backend, || simd::axpy(&mut got, alpha, &x));
            let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(&got, &want, "{:?}", backend);
        }
    }

    #[test]
    fn min_max_finite_is_bit_identical(x in lane_vec(), off in 0usize..4) {
        let off = off % x.len();
        let s = &x[off..];
        let bits = |b| {
            simd::with_backend(b, || simd::min_max_finite(s))
                .map(|(lo, hi)| (lo.to_bits(), hi.to_bits()))
        };
        let reference = bits(Backend::Scalar);
        prop_assert!(reference.is_some());
        for backend in backends() {
            prop_assert_eq!(bits(backend), reference, "{:?}", backend);
        }
    }

    #[test]
    fn q8_bytes_are_bit_identical(x in lane_vec(), off in 0usize..4) {
        let off = off % x.len();
        let src = &x[off..];
        let (lo, hi) = simd::min_max_finite(src).unwrap();
        let scale = (f64::from(hi) - f64::from(lo)) / 255.0;
        if scale <= 0.0 {
            continue; // constant vector: the codec never calls the kernel
        }
        let mut q_scalar = vec![0u8; src.len()];
        let mut q_vector = vec![0u8; src.len()];
        simd::with_backend(Backend::Scalar, || {
            simd::quantize_q8(src, lo, scale, &mut q_scalar);
        });
        simd::with_backend(best(), || {
            simd::quantize_q8(src, lo, scale, &mut q_vector);
        });
        prop_assert_eq!(&q_scalar, &q_vector, "wire bytes must not depend on backend");

        // The one-pass fold adds `weight · dequantize(q)` to each
        // value on every backend, `dequantize(q)` being `lo + scale·q`
        // in f64 clamped into f32's finite range.
        let scale32 = scale as f32;
        let weight = 0.3125f32 - off as f32;
        let dequantize = |q: u8| {
            (f64::from(lo) + f64::from(scale32) * f64::from(q))
                .clamp(f64::from(f32::MIN), f64::from(f32::MAX)) as f32
        };
        let expected: Vec<u32> = src
            .iter()
            .zip(&q_scalar)
            .map(|(&a, &q)| (a + weight * dequantize(q)).to_bits())
            .collect();
        for backend in backends() {
            let mut acc = src.to_vec();
            simd::with_backend(backend, || {
                simd::dequantize_add_q8(&q_scalar, lo, scale32, weight, &mut acc);
            });
            let got: Vec<u32> = acc.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(&got, &expected, "{:?}", backend);
        }
    }

    #[test]
    fn sign_bytes_are_bit_identical(x in lane_vec(), off in 0usize..4) {
        let off = off % x.len();
        let src = &x[off..];
        let mut b_scalar = vec![0xAAu8; src.len().div_ceil(8)];
        let mut b_vector = vec![0x55u8; src.len().div_ceil(8)];
        simd::with_backend(Backend::Scalar, || simd::pack_signs(src, &mut b_scalar));
        simd::with_backend(best(), || simd::pack_signs(src, &mut b_vector));
        prop_assert_eq!(&b_scalar, &b_vector, "wire bytes must not depend on backend");
    }

    #[test]
    fn sq_err_sum_is_bit_identical((a, b) in lane_pair(), off in 0usize..4) {
        let off = off % a.len();
        let (sa, sb) = (&a[off..], &b[off..]);
        let scalar = simd::with_backend(Backend::Scalar, || simd::sq_err_sum(sa, sb));
        let vector = simd::with_backend(best(), || simd::sq_err_sum(sa, sb));
        prop_assert_eq!(scalar.to_bits(), vector.to_bits());
    }
}

proptest! {
    #[test]
    fn sq_err_tile_is_the_single_pair_sum_per_output(rows in lane_rows(5)) {
        let b: [&[f32]; 4] = std::array::from_fn(|j| &rows[1 + j][..]);
        let want: Vec<f64> = simd::with_backend(Backend::Scalar, || {
            b.iter().map(|bj| simd::sq_err_sum(&rows[0], bj)).collect()
        });
        for backend in backends() {
            let tile = simd::with_backend(backend, || simd::sq_err_tile(&rows[0], b));
            for (j, (&got, &w)) in tile.iter().zip(&want).enumerate() {
                prop_assert!(same(got, w), "{:?} output {}: {} vs {}", backend, j, got, w);
            }
        }
    }
}

#[test]
fn tiled_matmul_nt_matches_the_per_element_dot_loop() {
    // m and n cover the register tile's edges: whole 6×2 tiles,
    // every count of leftover rows (m % 6) and an odd last column. k = 64 is the
    // smallest dot-path k, 65 adds a one-element tail, 1100 spans two
    // k-blocks (128 chunks each, the second partial) and 3079 three,
    // long enough to cross the parallel threshold at 2 threads.
    // Signed zeros and subnormals are sprinkled everywhere; non-finite
    // values sit in the last A row (NaN) and the first and last B rows
    // (±∞), so the other outputs stay finite and their bits
    // meaningful.
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    for k in [64, 65, 1100, 3079] {
        for m in 1..=13 {
            for n in 1..=7 {
                let a = sprinkled(&mut rng, m, k, &[(m - 1, f32::NAN)]);
                let b = sprinkled(
                    &mut rng,
                    n,
                    k,
                    &[(0, f32::INFINITY), (n - 1, f32::NEG_INFINITY)],
                );
                let want = simd::with_backend(Backend::Scalar, || matmul_nt_oracle(&a, &b));
                for backend in backends() {
                    for threads in [1, 2] {
                        let got = simd::with_backend(backend, || {
                            parallel::with_threads(threads, || a.matmul_nt(&b).unwrap())
                        });
                        assert_eq!(got.dims(), &[m, n]);
                        assert_same(
                            &got,
                            &want,
                            &format!("{backend:?} t={threads} m={m} n={n} k={k}"),
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn matmul_nt_panels_match_the_per_element_dot_loop() {
    // A long reduction axis shrinks the panel of B rows the vector
    // kernel keeps in L2 to a few rows (about 10 at k = 12 000), so
    // n = 9–23 crosses one and two panel edges, odd panel widths
    // included; m = 5 and 9 leave partial row tiles in every panel.
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(23);
    let k = 12_000;
    for m in [5, 9] {
        for n in [9, 10, 11, 21, 23] {
            let a = sprinkled(&mut rng, m, k, &[(0, f32::NAN)]);
            let b = sprinkled(&mut rng, n, k, &[(n - 1, f32::INFINITY)]);
            let want = simd::with_backend(Backend::Scalar, || matmul_nt_oracle(&a, &b));
            for backend in backends() {
                for threads in [1, 2] {
                    let got = simd::with_backend(backend, || {
                        parallel::with_threads(threads, || a.matmul_nt(&b).unwrap())
                    });
                    assert_same(&got, &want, &format!("{backend:?} t={threads} m={m} n={n}"));
                }
            }
        }
    }
}

#[test]
fn blocked_products_match_the_per_element_block_sum() {
    // a is (k × m), b (k × n). `a.matmul_tn(b)`, `aᵀ.matmul(b)` and,
    // below the dot path's k of 64, `aᵀ.matmul_nt(bᵀ)` (which
    // multiplies by a materialized transpose) share one per-output
    // specification. n crosses `matmul_tn`'s 64-column register tile
    // (and the 8-lane chunks inside it), m the 16-row blocks and
    // `matmul`'s row pairs, and k the four-step blocks (tails of 1–3
    // steps) and the 128-step packed panels. Every column of a gets
    // all-zero four-step blocks of signed zeros, zero tail steps and
    // a third of its other coefficients zeroed, so most blocks mix
    // zero and nonzero terms; a NaN sits in a's first row. Each shape
    // runs with a finite b (where the vector kernel drops zero terms
    // inside a block) and with ±∞ in b's first and last rows (where
    // it must not: 0·∞ is NaN, and an all-zero block must still be
    // skipped).
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(29);
    let shapes = [
        (1, 1, 1),
        (3, 2, 7),
        (4, 5, 8),
        (5, 15, 63),
        (7, 16, 64),
        (9, 17, 65),
        (33, 3, 130),
        (129, 18, 9),
        (261, 4, 66),
    ];
    for (k, m, n) in shapes {
        let mut a = sprinkled(&mut rng, k, m, &[(0, f32::NAN)]);
        for i in 0..m {
            for p in 0..k {
                let in_zero_block = p / 4 % 3 == i % 3 && p < k / 4 * 4;
                let tail = p >= k / 4 * 4;
                if in_zero_block || rng.gen_range(0..3) == 0 || (tail && rng.gen_range(0..2) == 0) {
                    a.data_mut()[p * m + i] = if rng.gen_range(0..2) == 0 { 0.0 } else { -0.0 };
                }
            }
        }
        for loud in [
            &[][..],
            &[(0, f32::INFINITY), (k - 1, f32::NEG_INFINITY)][..],
        ] {
            let b = sprinkled(&mut rng, k, n, loud);
            let (at, bt) = (a.transpose().unwrap(), b.transpose().unwrap());
            let want = matmul_tn_oracle(&a, &b);
            for backend in backends() {
                for threads in [1, 2] {
                    let run = |product: &dyn Fn() -> Tensor| {
                        simd::with_backend(backend, || parallel::with_threads(threads, product))
                    };
                    let what = format!("{backend:?} t={threads} k={k} m={m} n={n} loud={loud:?}");
                    let got = run(&|| a.matmul_tn(&b).unwrap());
                    assert_eq!(got.dims(), &[m, n]);
                    assert_same(&got, &want, &format!("matmul_tn {what}"));
                    assert_same(
                        &run(&|| at.matmul(&b).unwrap()),
                        &want,
                        &format!("matmul {what}"),
                    );
                    if k < 64 {
                        let got = run(&|| at.matmul_nt(&bt).unwrap());
                        assert_same(&got, &want, &format!("matmul_nt {what}"));
                    }
                }
            }
        }
    }
}

#[test]
fn matmul_tn_k_blocks_match_the_per_element_block_sum() {
    // A wide b shrinks the vector kernel's k-block so its packed
    // panels stay within L2: at n = 4160 a k-block is 60 steps, so
    // k = 130 runs two full blocks and a partial one (with a two-step
    // tail), and the partial sums are stored and reloaded between
    // them. Rows of a hold enough all-zero blocks that a row can be
    // silent for a whole k-block; the NaN in b makes one k-block
    // non-finite, so that block adds every term of a block while the
    // finite ones drop the zero terms.
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(31);
    let (k, m, n) = (130, 6, 4160);
    let mut a = sprinkled(&mut rng, k, m, &[]);
    for i in 0..m {
        for p in 0..k {
            if (p / 60 + i) % 3 == 0 || rng.gen_range(0..4) == 0 {
                a.data_mut()[p * m + i] = 0.0;
            }
        }
    }
    let b = sprinkled(&mut rng, k, n, &[(64, f32::NAN)]);
    let want = matmul_tn_oracle(&a, &b);
    for backend in backends() {
        for threads in [1, 2] {
            let got = simd::with_backend(backend, || {
                parallel::with_threads(threads, || a.matmul_tn(&b).unwrap())
            });
            assert_same(&got, &want, &format!("{backend:?} t={threads}"));
        }
    }
}

#[test]
fn signed_zero_minmax_is_canonical_on_every_backend() {
    // f32::min(-0.0, 0.0) is fold-order sensitive; both backends must
    // canonicalize so the q8 affine header never leaks lane order.
    for x in [
        vec![-0.0f32, 0.0],
        vec![0.0f32, -0.0],
        vec![-0.0f32; 17],
        vec![0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, -0.0],
    ] {
        for backend in [Backend::Scalar, best()] {
            let (lo, hi) = simd::with_backend(backend, || simd::min_max_finite(&x)).unwrap();
            assert_eq!(lo.to_bits(), 0.0f32.to_bits(), "{backend:?} {x:?}");
            assert_eq!(hi.to_bits(), 0.0f32.to_bits(), "{backend:?} {x:?}");
        }
    }
}

#[test]
fn min_max_finite_flags_non_finite_values_at_every_lane_position() {
    for len in 0..=41usize {
        let base: Vec<f32> = (0..len).map(|i| (i as f32 * 0.37).sin() * 10.0).collect();
        let (lo, hi) = base
            .iter()
            .fold((f32::INFINITY, f32::NEG_INFINITY), |(l, h), &v| {
                (l.min(v), h.max(v))
            });
        for backend in backends() {
            let got = simd::with_backend(backend, || simd::min_max_finite(&base));
            assert_eq!(got, Some((lo, hi)), "{backend:?} len={len}");
        }
        for pos in 0..len {
            for bad in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -f32::NAN] {
                let mut x = base.clone();
                x[pos] = bad;
                for backend in backends() {
                    let got = simd::with_backend(backend, || simd::min_max_finite(&x));
                    assert_eq!(got, None, "{backend:?} len={len} {bad} at {pos}");
                }
            }
        }
    }
}

/// The f64 specification of the q8 levels.
fn q8_spec(src: &[f32], lo: f32, scale: f64) -> Vec<u8> {
    src.iter()
        .map(|&v| (((f64::from(v) - f64::from(lo)) / scale).round() as i32).clamp(0, 255) as u8)
        .collect()
}

#[test]
fn guarded_q8_quantize_matches_the_f64_specification() {
    // The cases the vector kernel's f32 fast path guards: values on a
    // half level and one f32 step either side of it; a one-step range
    // (the nearest a called kernel gets to `lo == hi`, which scale 0
    // keeps away from it); ranges at f32::MAX, where `v − lo` or
    // `1/scale` overflows f32; and subnormal ranges. Every length
    // 0–41 slides over each range's values.
    let ranges: [(f32, f32); 9] = [
        (0.0, 255.0),
        (-1.3, 7.9),
        (-3e-3, 2e-3),
        (1.0, 1.0f32.next_up()),
        (-f32::MAX, f32::MAX),
        (f32::MAX / 4.0, f32::MAX),
        (-f32::MAX, -1.0),
        (0.0, 1e-40),
        (-1e-44, 3e-42),
    ];
    for (lo, hi) in ranges {
        let scale = (f64::from(hi) - f64::from(lo)) / 255.0;
        let mut values = vec![lo, hi];
        for k in 0..255 {
            let half = (f64::from(lo) + (f64::from(k) + 0.5) * scale) as f32;
            values.extend([half.next_down(), half, half.next_up()]);
        }
        values.retain(|&v| v.is_finite() && v >= lo && v <= hi);
        for len in 0..=41usize {
            let windows: Vec<&[f32]> = if len == 0 {
                vec![&[]]
            } else {
                values.chunks(len).collect()
            };
            for src in windows {
                let expected = q8_spec(src, lo, scale);
                for backend in backends() {
                    let mut q = vec![0xAAu8; src.len()];
                    simd::with_backend(backend, || simd::quantize_q8(src, lo, scale, &mut q));
                    assert_eq!(q, expected, "{backend:?} range ({lo}, {hi}) len={len}");
                }
            }
        }
    }
}

#[test]
fn q8_fold_clamps_levels_into_f32_range() {
    // `lo + scale·q` leaves f32's range from q = 128 on: above
    // f32::MAX with the first scale, below f32::MIN with the second.
    // Each such level folds as f32::MAX (or MIN), never as ±∞.
    let ranges = [
        (f32::MAX / 2.0, f32::MAX / 255.0),
        (f32::MIN / 2.0, f32::MIN / 255.0),
    ];
    for (lo, scale) in ranges {
        for len in 0..=41usize {
            let q: Vec<u8> = (0..len).map(|i| (i * 255 / 40) as u8).collect();
            let acc: Vec<f32> = (0..len).map(|i| i as f32 - 20.0).collect();
            let want: Vec<u32> = acc
                .iter()
                .zip(&q)
                .map(|(&a, &q)| {
                    let level = (f64::from(lo) + f64::from(scale) * f64::from(q))
                        .clamp(f64::from(f32::MIN), f64::from(f32::MAX));
                    (a + 0.5 * level as f32).to_bits()
                })
                .collect();
            for backend in backends() {
                let mut got = acc.clone();
                simd::with_backend(backend, || {
                    simd::dequantize_add_q8(&q, lo, scale, 0.5, &mut got);
                });
                assert!(got.iter().all(|v| v.is_finite()), "{backend:?} len={len}");
                let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "{backend:?} lo={lo} len={len}");
            }
        }
    }
}

#[test]
fn q8_rounding_boundaries_match_rust_round() {
    // Levels landing exactly on .5 (ties away from zero) and just
    // below it — where a `floor(x + 0.5)` emulation would diverge
    // from Rust's `round`. lo = 0, scale = 1 makes the quantized
    // quantity equal the input value.
    let src: Vec<f32> = vec![
        0.5, 1.5, 2.5, 3.5, 100.5, 254.5, 0.49999997, 1.4999999, 0.50000006, 127.49999,
    ];
    let mut q_scalar = vec![0u8; src.len()];
    let mut q_vector = vec![0u8; src.len()];
    simd::with_backend(Backend::Scalar, || {
        simd::quantize_q8(&src, 0.0, 1.0, &mut q_scalar);
    });
    simd::with_backend(best(), || {
        simd::quantize_q8(&src, 0.0, 1.0, &mut q_vector);
    });
    let expected: Vec<u8> = src
        .iter()
        .map(|&v| (f64::from(v).round() as i32).clamp(0, 255) as u8)
        .collect();
    assert_eq!(q_scalar, expected);
    assert_eq!(q_vector, expected);
}

#[test]
fn matmul_is_bit_identical_across_backends_and_threads() {
    // End-to-end: the matmul kernels run through the dispatched
    // dot/axpy4 paths, above the parallel threshold, with the backend
    // pinned around the pool dispatch — the override must propagate
    // into the workers for the scalar run to actually be scalar.
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(9);
    let a = Tensor::randn(&[96, 130], &mut rng);
    let b = Tensor::randn(&[130, 80], &mut rng);
    let bt = Tensor::randn(&[40, 130], &mut rng);
    let at = Tensor::randn(&[130, 96], &mut rng);
    let run = || {
        (
            a.matmul(&b).unwrap(),
            a.matmul_nt(&bt).unwrap(),
            at.matmul_tn(&b).unwrap(),
        )
    };
    let reference = simd::with_backend(Backend::Scalar, || parallel::with_threads(1, run));
    for backend in [Backend::Scalar, best()] {
        for threads in [1, 4] {
            let got = simd::with_backend(backend, || parallel::with_threads(threads, run));
            assert_eq!(
                got.0.data(),
                reference.0.data(),
                "matmul {backend:?} t={threads}"
            );
            assert_eq!(
                got.1.data(),
                reference.1.data(),
                "matmul_nt {backend:?} t={threads}"
            );
            assert_eq!(
                got.2.data(),
                reference.2.data(),
                "matmul_tn {backend:?} t={threads}"
            );
        }
    }
}

/// The outputs `sq_err_tile_bounded` may give for original `j`: the
/// full sum, or (stopped at a checkpoint) a partial that is above the
/// bound and no more than the full sum — which may itself have turned
/// NaN after the checkpoint.
fn bounded_output_is_sound(got: f64, full: f64, bound: f64) -> bool {
    same(got, full) || (got > bound && (full.is_nan() || got <= full))
}

#[test]
fn sq_err_tile_bounded_prices_or_stops_soundly_on_every_backend() {
    // Lengths 0–200 cross every 8-lane tail and the first two
    // checkpoints (128 and 256 elements would be the next). Each case
    // pins one original's bound to its own full sum, a tie that must
    // never stop, so one output per tile is always the full sum.
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(26);
    let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 1e-40];
    let mut stopped = 0;
    for n in 0..=200usize {
        let mut rows: Vec<Vec<f32>> = (0..5)
            .map(|_| (0..n).map(|_| rng.gen_range(0.0f32..1.0)).collect())
            .collect();
        // A special value in one row of every third length, placed
        // before or after the first checkpoint.
        if n % 3 == 0 && n > 0 {
            let row = rng.gen_range(0..5);
            let at = rng.gen_range(0..n);
            rows[row][at] = specials[n / 3 % specials.len()];
        }
        let a = &rows[0];
        let b: [&[f32]; 4] = std::array::from_fn(|j| &rows[1 + j][..]);
        let full = simd::with_backend(Backend::Scalar, || simd::sq_err_tile(a, b));
        for rot in 0..4 {
            // Slot `(rot + k) % 4` gets bound kind `k`: its own full
            // sum (a tie), +0, −0, and +∞ — or, on odd lengths, half
            // its full sum, which stops long rows at a checkpoint.
            let mut bound = [0.0f64; 4];
            for k in 0..4 {
                let j = (rot + k) % 4;
                bound[j] = match k {
                    0 => full[j],
                    1 => 0.0,
                    2 => -0.0,
                    _ if n % 2 == 1 => full[j] / 2.0,
                    _ => f64::INFINITY,
                };
            }
            let want =
                simd::with_backend(Backend::Scalar, || simd::sq_err_tile_bounded(a, b, bound));
            for backend in backends() {
                let got = simd::with_backend(backend, || simd::sq_err_tile_bounded(a, b, bound));
                for j in 0..4 {
                    assert!(
                        same(got[j], want[j]),
                        "{backend:?} n={n} rot={rot} output {j}: {} vs {}",
                        got[j],
                        want[j]
                    );
                    assert!(
                        bounded_output_is_sound(got[j], full[j], bound[j]),
                        "{backend:?} n={n} output {j}: {} for full {} bound {}",
                        got[j],
                        full[j],
                        bound[j]
                    );
                    if bound[j] == full[j] || bound[j] == f64::INFINITY || bound[j].is_nan() {
                        assert!(same(got[j], full[j]), "{backend:?} n={n}: a tie stopped");
                    }
                    stopped += usize::from(!same(got[j], full[j]));
                }
            }
        }
    }
    assert!(stopped > 0, "no output was ever stopped early");
}

#[test]
fn sq_err_tile_bounded_stops_at_the_checkpoint_with_the_partial() {
    // Every element differs by 1: after the first 16 chunks the
    // partial is exactly 128, above a bound of 100, so the output is
    // 128 and not the full 200. A NaN in the first chunk keeps its
    // original priced to the end; a bound of 128 (a tie at the
    // checkpoint) and +∞ are never stopped.
    let a = vec![1.0f32; 200];
    let zeros = vec![0.0f32; 200];
    let mut nan = zeros.clone();
    nan[3] = f32::NAN;
    let b: [&[f32]; 4] = [&zeros, &nan, &zeros, &zeros];
    for backend in backends() {
        let got = simd::with_backend(backend, || {
            simd::sq_err_tile_bounded(&a, b, [100.0, 100.0, 128.0, f64::INFINITY])
        });
        assert_eq!(got[0], 128.0, "{backend:?}");
        assert!(got[1].is_nan(), "{backend:?}");
        assert_eq!(got[2], 200.0, "{backend:?}");
        assert_eq!(got[3], 200.0, "{backend:?}");
    }
}

#[test]
fn box_sums8_matches_the_per_pixel_box_loop_on_every_backend() {
    // Box widths 1–9 cover the vector path (multiples of four) and
    // the scalar fallback; 0–6 groups cover every interleave width and
    // a second pass of four.
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(8);
    let quiet = [0.0f32, -0.0, 1e-40, -1e-40];
    for bw in 1..=9usize {
        for rows in 0..=4usize {
            for groups in 0..=6usize {
                let stride = 8 * bw + rng.gen_range(0..5);
                let step = rows.max(1) * stride + rng.gen_range(0..7);
                let len = groups.max(1) * step + rows * stride + 8 * bw;
                let src: Vec<f32> = (0..len)
                    .map(|_| {
                        if rng.gen_range(0..10) == 0 {
                            quiet[rng.gen_range(0..quiet.len())]
                        } else {
                            rng.gen_range(-1.0f32..1.0)
                        }
                    })
                    .collect();
                let want: Vec<[f32; 8]> = (0..groups)
                    .map(|g| {
                        std::array::from_fn(|k| {
                            let mut acc = 0.0f32;
                            for y in 0..rows {
                                for x in 0..bw {
                                    acc += src[g * step + y * stride + k * bw + x];
                                }
                            }
                            acc
                        })
                    })
                    .collect();
                for backend in backends() {
                    let mut got = vec![[f32::NAN; 8]; groups];
                    simd::with_backend(backend, || {
                        simd::box_sums8(&src, step, stride, rows, bw, &mut got)
                    });
                    for (g, (got, want)) in got.iter().zip(&want).enumerate() {
                        for k in 0..8 {
                            assert_eq!(
                                got[k].to_bits(),
                                want[k].to_bits(),
                                "{backend:?} bw={bw} rows={rows} group {g} box {k}"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// `x`'s values with, in about one case in eight, a ±∞, NaN, ±0 or
/// subnormal in place of a uniform value.
fn sprinkled_values(n: usize, rng: &mut impl rand::Rng) -> Vec<f32> {
    let specials = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 0.0, -0.0, 1e-40];
    (0..n)
        .map(|_| {
            if rng.gen_range(0..40) == 0 {
                specials[rng.gen_range(0..specials.len())]
            } else {
                rng.gen_range(-1.0f32..1.0)
            }
        })
        .collect()
}

#[test]
fn lane_dots_match_the_sequential_sum_per_response_on_every_backend() {
    // Image counts 1, 31, 32, 33 and 384 fill one group partly, exactly
    // and into a second (13 groups for 384); most row counts leave
    // rows past the vector backend's 6-row tiles, and one is zero; odd widths leave no vector-friendly k, and
    // width 0 leaves every response at the sum's start value.
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    const L: usize = simd::DOT_LANES;
    let mut rng = StdRng::seed_from_u64(30);
    for (n, rows, d) in [
        (1, 1, 1),
        (31, 5, 7),
        (32, 13, 33),
        (33, 9, 64),
        (384, 17, 3),
        (40, 0, 5),
        (7, 3, 0),
        (65, 23, 257),
    ] {
        let w = sprinkled_values(rows * d, &mut rng);
        let images: Vec<Vec<f32>> = (0..n).map(|_| sprinkled_values(d, &mut rng)).collect();
        let mut fill = || rng.gen_range(-1.0f32..1.0);
        for (g, group) in images.chunks(L).enumerate() {
            // Lanes past the last image hold values never compared.
            let x: Vec<[f32; L]> = (0..d)
                .map(|k| std::array::from_fn(|l| group.get(l).map_or_else(&mut fill, |img| img[k])))
                .collect();
            for backend in backends() {
                let mut out = vec![[f32::NAN; L]; rows];
                simd::with_backend(backend, || simd::lane_dots(&w, &x, &mut out));
                for (r, got) in out.iter().enumerate() {
                    let row = &w[r * d..(r + 1) * d];
                    for (l, img) in group.iter().enumerate() {
                        let want: f32 = row.iter().zip(img).map(|(&a, &b)| a * b).sum();
                        assert!(
                            same(got[l], want),
                            "{backend:?} n={n} rows={rows} d={d}: row {r} image {}: {} vs {want}",
                            g * L + l,
                            got[l]
                        );
                    }
                }
            }
        }
    }
}

#[test]
#[should_panic(expected = "lane_dots needs one weight row")]
fn lane_dots_reject_a_short_weight_set() {
    let x = vec![[0.0f32; simd::DOT_LANES]; 4];
    simd::lane_dots(&[0.0; 7], &x, &mut [[0.0; simd::DOT_LANES]; 2]);
}

#[test]
fn sq_and_sums8_match_the_sequential_sums_on_every_backend() {
    // Lengths 0–41 cross every eight-value block and tail; every third
    // length gets ±∞, NaN or a subnormal somewhere.
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(31);
    for n in 0..=41usize {
        for _ in 0..4 {
            let x: Vec<Vec<f32>> = (0..8).map(|_| sprinkled_values(n, &mut rng)).collect();
            let view: [&[f32]; 8] = std::array::from_fn(|j| &x[j][..]);
            for backend in backends() {
                let (sq, sum) = simd::with_backend(backend, || simd::sq_and_sums8(view));
                for j in 0..8 {
                    let want_sq: f32 = x[j].iter().map(|v| v * v).sum();
                    let want_sum: f64 = x[j].iter().map(|&v| v as f64).sum();
                    assert!(same(sq[j], want_sq), "{backend:?} n={n} lane {j} squares");
                    assert!(same(sum[j], want_sum), "{backend:?} n={n} lane {j} sum");
                }
            }
        }
    }
}

#[test]
#[should_panic(expected = "vectors of one length")]
fn sq_and_sums8_reject_unequal_lengths() {
    let (a, b) = ([0.0f32; 9], [0.0f32; 8]);
    simd::sq_and_sums8([&a, &a, &a, &b, &a, &a, &a, &a]);
}
