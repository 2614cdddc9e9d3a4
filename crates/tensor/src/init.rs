//! Random tensor initialization.
//!
//! All randomness in the workspace flows through explicit
//! [`rand::Rng`] instances so every experiment is reproducible from a
//! single `u64` seed.

use rand::Rng;

use crate::{simd, Tensor};

impl Tensor {
    /// Samples every element i.i.d. from the standard normal
    /// distribution via the Box–Muller transform.
    pub fn randn(dims: &[usize], rng: &mut impl Rng) -> Tensor {
        let mut t = Tensor::zeros(dims);
        for_each_normal::<2>(t.data_mut(), rng, |o, v| *o = v);
        t
    }

    /// Samples every element i.i.d. from `N(mean, std²)`.
    pub fn randn_scaled(dims: &[usize], mean: f32, std: f32, rng: &mut impl Rng) -> Tensor {
        let mut t = Tensor::zeros(dims);
        for_each_normal::<2>(t.data_mut(), rng, |o, v| *o = v * std + mean);
        t
    }

    /// Samples every element i.i.d. uniformly from `[lo, hi)`.
    pub fn rand_uniform(dims: &[usize], lo: f32, hi: f32, rng: &mut impl Rng) -> Tensor {
        let mut t = Tensor::zeros(dims);
        for v in t.data_mut() {
            *v = rng.gen_range(lo..hi);
        }
        t
    }
}

/// Adds i.i.d. `N(mean, std²)` noise to every element of `out`, in
/// place: `out[i] += v_i * std + mean`, as separate f32 operations.
///
/// `v` is exactly the stream [`Tensor::randn_scaled`] would draw for a
/// tensor of `out.len()` elements (same rng consumption, same values),
/// without the temporary tensor.
///
/// The sampler is f64 Box–Muller cast to f32 (`u1 ∈ [2⁻⁵³, 1]`, so its
/// support is `|v| ≤ √(−2 ln 2⁻⁵³) ≈ 8.57`), fed the rng's raw 64-bit
/// words: [`crate::simd::normal_pairs`] forms each uniform from its
/// word exactly as `rng.gen::<f64>()` would. Its vector paths (AVX2,
/// and f64x8 on AVX-512) are bit-exact with the libm path: they
/// approximate `ln`, `sin` and `cos` with polynomials but keep a
/// result only when its f32 rounding cannot differ from the libm
/// value's, and recompute the rest on the libm path. Floating-point
/// samplers like this one can void formal differential privacy
/// (Mironov, "On Significance of the Least Significant Bits for
/// Differential Privacy", CCS 2012): callers use it to measure attack
/// success under noise, and it certifies no privacy guarantee.
pub fn add_randn_scaled(out: &mut [f32], mean: f32, std: f32, rng: &mut impl Rng) {
    for_each_normal::<2>(out, rng, |o, v| *o += v * std + mean);
}

/// Applies `f(out[i], z_i)` to every element of `out`, in index order,
/// where `z_i` is the cosine normal `√(−2 ln u1)·cos(2π·u2)` (f64, cast
/// to f32) of element `i`'s own Box–Muller draw (`u1 = 1 − U`, then
/// `u2 = U`, two rng words per element).
///
/// This is the pixel noise of `oasis_image`'s `Image::add_noise`: the
/// same rng consumption and the same bits as one libm Box–Muller per
/// element, computed by the batched, guarded [`simd::cos_normals`]
/// kernel, which never computes the sine.
pub fn for_each_cos_normal(out: &mut [f32], rng: &mut impl Rng, f: impl FnMut(&mut f32, f32)) {
    for_each_normal::<1>(out, rng, f);
}

/// Box–Muller draws per [`simd::normal_pairs`] or
/// [`simd::cos_normals`] call.
const NORMAL_BATCH: usize = 128;

/// Visits every element of `out` with one standard normal, in index
/// order, from one Box–Muller draw (two rng words: `u1 = 1 − U`, then
/// `u2 = U`, so `ln` never sees 0) per `PER_DRAW` elements.
/// `PER_DRAW = 2` uses both normals of a draw, cosine first, and
/// discards the second normal of the last draw when the length is odd;
/// `PER_DRAW = 1` uses the cosine normal only
/// ([`for_each_cos_normal`]).
///
/// Draws are batched [`NORMAL_BATCH`] at a time: their words go into a
/// stack buffer and the kernel forms the uniforms itself, so the rng
/// consumption is the same as one `gen::<f64>()` per uniform. The draws
/// the kernel recomputed on its libm path are added to the
/// `tensor.normal_fallbacks` counter once per call.
fn for_each_normal<const PER_DRAW: usize>(
    out: &mut [f32],
    rng: &mut impl Rng,
    mut f: impl FnMut(&mut f32, f32),
) {
    let mut words = [0u64; 2 * NORMAL_BATCH];
    let mut z = [0.0f32; 2 * NORMAL_BATCH];
    let mut fallbacks = 0;
    for chunk in out.chunks_mut(PER_DRAW * NORMAL_BATCH) {
        let draws = chunk.len().div_ceil(PER_DRAW);
        let words = &mut words[..2 * draws];
        for w in words.iter_mut() {
            *w = rng.next_u64();
        }
        let z = &mut z[..PER_DRAW * draws];
        fallbacks += if PER_DRAW == 2 {
            simd::normal_pairs(words, z)
        } else {
            simd::cos_normals(words, z)
        };
        for (o, &v) in chunk.iter_mut().zip(z.iter()) {
            f(o, v);
        }
    }
    oasis_telemetry::counter!("tensor.normal_fallbacks").add(fallbacks as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn randn_is_deterministic_per_seed() {
        let a = Tensor::randn(&[32], &mut StdRng::seed_from_u64(7));
        let b = Tensor::randn(&[32], &mut StdRng::seed_from_u64(7));
        let c = Tensor::randn(&[32], &mut StdRng::seed_from_u64(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn randn_has_roughly_standard_moments() {
        let t = Tensor::randn(&[20_000], &mut StdRng::seed_from_u64(42));
        let mean = t.mean().unwrap();
        let var = t.map(|v| (v - mean) * (v - mean)).mean().unwrap();
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn randn_scaled_shifts_moments() {
        let t = Tensor::randn_scaled(&[20_000], 3.0, 0.5, &mut StdRng::seed_from_u64(1));
        let mean = t.mean().unwrap();
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn add_randn_scaled_adds_the_randn_scaled_stream() {
        // Odd length: the discarded second normal of the last pair must
        // leave the rng where randn_scaled leaves it.
        for len in [0, 1, 6, 7] {
            let base: Vec<f32> = (0..len).map(|i| i as f32 * 0.5 - 1.0).collect();
            let mut rng_a = StdRng::seed_from_u64(11);
            let noise = Tensor::randn_scaled(&[len], 0.25, 0.7, &mut rng_a);
            let mut rng_b = StdRng::seed_from_u64(11);
            let mut got = base.clone();
            add_randn_scaled(&mut got, 0.25, 0.7, &mut rng_b);
            for ((g, b), n) in got.iter().zip(&base).zip(noise.data()) {
                assert_eq!(g.to_bits(), (b + n).to_bits());
            }
            assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>(), "len {len}");
        }
    }

    #[test]
    fn noise_draws_two_gen_f64_words_per_draw_on_every_backend() {
        // The kernels take raw words and form each uniform in registers;
        // the rng must end where one `gen::<f64>()` per uniform leaves it.
        for backend in simd::Backend::ALL.into_iter().filter(|b| b.is_available()) {
            for len in [0, 1, 7, 8, 9, 255, 256, 257] {
                let mut buf = vec![0.0f32; len];
                for (per_draw, fill) in [(2, true), (1, false)] {
                    let mut rng = StdRng::seed_from_u64(len as u64);
                    simd::with_backend(backend, || {
                        if fill {
                            add_randn_scaled(&mut buf, 0.0, 1.0, &mut rng);
                        } else {
                            for_each_cos_normal(&mut buf, &mut rng, |o, z| *o = z);
                        }
                    });
                    let mut want = StdRng::seed_from_u64(len as u64);
                    for _ in 0..2 * len.div_ceil(per_draw) {
                        want.gen::<f64>();
                    }
                    assert_eq!(rng, want, "{} len {len}", backend.label());
                }
            }
        }
    }

    #[test]
    fn rand_uniform_respects_bounds() {
        let t = Tensor::rand_uniform(&[1000], -2.0, 5.0, &mut StdRng::seed_from_u64(3));
        assert!(t.min().unwrap() >= -2.0);
        assert!(t.max().unwrap() < 5.0);
    }
}
