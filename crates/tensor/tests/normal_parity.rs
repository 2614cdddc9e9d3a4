//! Gaussian-sampler parity: every backend's `simd::normal_pairs` and
//! `simd::cos_normals` must equal the scalar (libm) specification bit
//! for bit.
//!
//! The vector kernels (AVX2, and f64x8 on AVX-512) approximate `ln`,
//! `sin` and `cos` with polynomials and rely on a rounding guard plus
//! a scalar fallback for exactness, so these tests aim at the guard's
//! edges: whole fills at block and batch boundaries, hand-built rng
//! words at the ends of the uniforms' ranges and at angles within a few
//! ulps of multiples of π/4, and (ignored by default, run in CI) a
//! sweep of 10⁸ normals on every vector backend. On a host whose best
//! backend is scalar the comparisons are trivially true.

use oasis_tensor::simd::{self, Backend};
use oasis_tensor::{for_each_cos_normal, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Every backend this CPU can run.
fn backends() -> Vec<Backend> {
    Backend::ALL
        .into_iter()
        .filter(|b| b.is_available())
        .collect()
}

/// Every vector backend this CPU can run.
fn vector_backends() -> Vec<Backend> {
    backends()
        .into_iter()
        .filter(|&b| b != Backend::Scalar)
        .collect()
}

/// `normal_pairs` on `backend`: the outputs and the fallback count.
fn pairs_on(backend: Backend, words: &[u64]) -> (Vec<f32>, usize) {
    let mut out = vec![0.0f32; words.len()];
    let fallbacks = simd::with_backend(backend, || simd::normal_pairs(words, &mut out));
    (out, fallbacks)
}

/// `cos_normals` on `backend`: the outputs and the fallback count.
fn cosines_on(backend: Backend, words: &[u64]) -> (Vec<f32>, usize) {
    let mut out = vec![0.0f32; words.len() / 2];
    let fallbacks = simd::with_backend(backend, || simd::cos_normals(words, &mut out));
    (out, fallbacks)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The word whose `w >> 11` is `x`, with junk in the 11 bits the
/// conversion drops.
fn word(x: u64, junk: &mut StdRng) -> u64 {
    assert!(x < 1 << 53);
    x << 11 | junk.next_u64() >> 53
}

#[test]
fn fills_match_the_scalar_spec_and_consume_the_same_draws() {
    // Lengths straddle the 4- and 8-draw blocks, the 128-draw batch
    // and the odd tail; 197 322 is the `fl_defended` model size.
    for len in [0, 1, 2, 3, 7, 15, 16, 17, 255, 256, 257, 197_322] {
        for seed in 0..64u64 {
            let mut spec_rng = StdRng::seed_from_u64(seed);
            let spec = simd::with_backend(Backend::Scalar, || Tensor::randn(&[len], &mut spec_rng));
            for backend in backends() {
                let mut rng = StdRng::seed_from_u64(seed);
                let got = simd::with_backend(backend, || Tensor::randn(&[len], &mut rng));
                assert_eq!(
                    bits(got.data()),
                    bits(spec.data()),
                    "{} len {len} seed {seed}",
                    backend.label()
                );
                assert_eq!(rng, spec_rng, "rng state, len {len} seed {seed}");
            }
        }
    }
}

#[test]
fn cosine_fills_match_the_scalar_spec_and_consume_the_same_draws() {
    // One draw per element: lengths straddle the 8-draw block and the
    // 128-draw batch.
    for len in [0, 1, 3, 4, 5, 7, 8, 9, 127, 128, 129, 255, 256, 257, 1000] {
        for seed in 0..32u64 {
            let fill = |backend, rng: &mut StdRng| {
                let mut out: Vec<f32> = (0..len).map(|i| i as f32 * 0.25).collect();
                simd::with_backend(backend, || {
                    for_each_cos_normal(&mut out, rng, |o, z| *o += 0.5 * z)
                });
                out
            };
            let mut spec_rng = StdRng::seed_from_u64(seed);
            let spec = fill(Backend::Scalar, &mut spec_rng);
            for backend in backends() {
                let mut rng = StdRng::seed_from_u64(seed);
                let got = fill(backend, &mut rng);
                assert_eq!(
                    bits(&got),
                    bits(&spec),
                    "{} len {len} seed {seed}",
                    backend.label()
                );
                assert_eq!(rng, spec_rng, "rng state, len {len} seed {seed}");
            }
        }
    }
}

#[test]
fn edge_words_match_the_scalar_spec() {
    let mut junk = StdRng::seed_from_u64(3);
    let top = (1u64 << 53) - 1;
    // u1 = 1 − (w >> 11)·2⁻⁵³: 1 (the zero-output fallback), 1 − 2⁻⁵³,
    // both sides of 0.5 and the smallest value, 2⁻⁵³.
    let x1s = [0, 1, 2, (1 << 52) - 1, 1 << 52, (1 << 52) + 1, top - 1, top];
    // u2 = (w >> 11)·2⁻⁵³: its ends, and θ = 2π·u2 within a few ulps of
    // kπ/4 (u2 = k/8).
    let mut x2s = vec![0, 1, 1 << 52, top];
    for k in 0..=8u64 {
        let centre = k << 50;
        for d in 0..=4 {
            x2s.extend(
                [centre.checked_sub(d), centre.checked_add(d)]
                    .into_iter()
                    .flatten(),
            );
        }
    }
    x2s.retain(|&x| x <= top);
    let words: Vec<u64> = x1s
        .iter()
        .flat_map(|&a| x2s.iter().map(move |&b| (a, b)))
        .flat_map(|(a, b)| [word(a, &mut junk), word(b, &mut junk)])
        .collect();
    assert_matches_spec(&words);
}

#[test]
fn pairs_at_f32_rounding_midpoints_match_the_scalar_spec() {
    // Solve u1 so that r·cos θ (or r·sin θ) lands within an ulp or two
    // of the midpoint between two adjacent f32s: the polynomials and
    // libm then round to different f32s about half the time, so only
    // the guard keeps these draws exact. u1 is rounded to the 2⁻⁵³ grid
    // a word can express; for r ≤ 4 (u1 ≥ e⁻⁸) that moves r by less
    // than 2⁻⁴⁶ relative, far inside the guard.
    let mut rng = StdRng::seed_from_u64(7);
    let (mut cos_words, mut sin_words) = (Vec::new(), Vec::new());
    while cos_words.len() + sin_words.len() < 2 * 4096 {
        let x2 = rng.next_u64() >> 11;
        let theta = 2.0 * std::f64::consts::PI * (x2 as f64 / (1u64 << 53) as f64);
        let use_cos = cos_words.len() <= sin_words.len();
        let trig = if use_cos { theta.cos() } else { theta.sin() };
        let x = rng.gen_range(0.05f32..4.0);
        let midpoint = (f64::from(x) + f64::from(x.next_up())) / 2.0;
        let r = midpoint / trig.abs();
        if trig.abs() < 0.1 || r > 4.0 {
            continue;
        }
        let u1 = (-r * r / 2.0).exp();
        let x1 = ((1.0 - u1) * (1u64 << 53) as f64).round() as u64;
        let pair = [word(x1, &mut rng), word(x2, &mut rng)];
        let words = if use_cos {
            &mut cos_words
        } else {
            &mut sin_words
        };
        words.extend(pair);
    }
    assert_matches_spec(&cos_words);
    assert_matches_spec(&sin_words);
    for backend in vector_backends() {
        let draws = cos_words.len() / 2;
        let fallbacks = pairs_on(backend, &cos_words).1;
        assert!(
            fallbacks > draws * 9 / 10,
            "{} {fallbacks} fallbacks",
            backend.label()
        );
        let fallbacks = cosines_on(backend, &cos_words).1;
        assert!(
            fallbacks > draws * 9 / 10,
            "{} {fallbacks} fallbacks",
            backend.label()
        );
        // Only the sine lands on a midpoint here, and the cosine-only
        // kernel never looks at it.
        let fallbacks = cosines_on(backend, &sin_words).1;
        assert!(
            fallbacks < draws / 100,
            "{} {fallbacks} fallbacks",
            backend.label()
        );
    }
}

/// Every backend's `normal_pairs` and `cos_normals` equal the scalar
/// specification bit for bit.
fn assert_matches_spec(words: &[u64]) {
    let (spec, _) = pairs_on(Backend::Scalar, words);
    for backend in backends() {
        let (got, _) = pairs_on(backend, words);
        let (cosines, _) = cosines_on(backend, words);
        for (i, (pair, &cos)) in got.chunks_exact(2).zip(&cosines).enumerate() {
            let want = &spec[2 * i..2 * i + 2];
            assert!(
                bits(pair) == bits(want) && cos.to_bits() == want[0].to_bits(),
                "{} words ({:#x}, {:#x}): {pair:?} and cosine {cos:e} vs spec {want:?}",
                backend.label(),
                words[2 * i],
                words[2 * i + 1],
            );
        }
    }
}

#[test]
fn only_vector_backends_report_fallbacks() {
    // u1 = 1 (w >> 11 = 0: a zero output, its sign from cos/sin) and
    // u2 = 0 (reduced angle 0) are the fallback cases; u1 = 0.5,
    // u2 = 0.1 is not.
    let words = [
        0x7ff,
        0x4cc_cccc_cccc_cccc,
        1 << 63,
        0x3ff,
        1 << 63,
        0x1999_9999_9999_9999,
    ];
    assert_eq!(pairs_on(Backend::Scalar, &words).1, 0);
    assert_eq!(cosines_on(Backend::Scalar, &words).1, 0);
    for backend in vector_backends() {
        assert_eq!(pairs_on(backend, &words).1, 2, "{}", backend.label());
        assert_eq!(cosines_on(backend, &words).1, 2, "{}", backend.label());
    }
}

/// 10⁸ normals per vector backend, both kernels; the guard fallback
/// must stay rare (about 4·10⁻⁵ of draws), or the fast path is not the
/// fast path.
#[test]
#[ignore = "sweeps 10^8 draws; CI runs it with --include-ignored"]
fn sweep_of_1e8_draws_is_bit_exact() {
    const BATCH: usize = 4096;
    const BATCHES: usize = 100_000_000 / (2 * BATCH) + 1;
    let backends = vector_backends();
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let mut words = vec![0u64; 2 * BATCH];
    let mut fallbacks = vec![0; backends.len()];
    for _ in 0..BATCHES {
        words.iter_mut().for_each(|w| *w = rng.next_u64());
        let (spec, _) = pairs_on(Backend::Scalar, &words);
        let spec_cos: Vec<f32> = spec.iter().step_by(2).copied().collect();
        for (&backend, fallbacks) in backends.iter().zip(&mut fallbacks) {
            let (got, n) = pairs_on(backend, &words);
            assert_eq!(bits(&got), bits(&spec), "{}", backend.label());
            let (cosines, _) = cosines_on(backend, &words);
            assert_eq!(
                bits(&cosines),
                bits(&spec_cos),
                "{} cosines",
                backend.label()
            );
            *fallbacks += n;
        }
    }
    for (backend, fallbacks) in backends.iter().zip(fallbacks) {
        let rate = fallbacks as f64 / (BATCHES * BATCH) as f64;
        eprintln!("{}: fallback rate {rate:e}", backend.label());
        assert!(rate < 1e-3, "{} fallback rate {rate:e}", backend.label());
    }
}
