//! Random tensor initialization.
//!
//! All randomness in the workspace flows through explicit
//! [`rand::Rng`] instances so every experiment is reproducible from a
//! single `u64` seed.

use rand::Rng;

use crate::Tensor;

impl Tensor {
    /// Samples every element i.i.d. from the standard normal
    /// distribution via the Box–Muller transform.
    pub fn randn(dims: &[usize], rng: &mut impl Rng) -> Tensor {
        let mut t = Tensor::zeros(dims);
        for_each_normal(t.data_mut(), rng, |o, v| *o = v);
        t
    }

    /// Samples every element i.i.d. from `N(mean, std²)`.
    pub fn randn_scaled(dims: &[usize], mean: f32, std: f32, rng: &mut impl Rng) -> Tensor {
        let mut t = Tensor::zeros(dims);
        for_each_normal(t.data_mut(), rng, |o, v| *o = v * std + mean);
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
/// place: `out[i] += v_i * std + mean`.
///
/// `v` is exactly the stream [`Tensor::randn_scaled`] would draw for a
/// tensor of `out.len()` elements (same rng consumption, same values),
/// without the temporary tensor.
pub fn add_randn_scaled(out: &mut [f32], mean: f32, std: f32, rng: &mut impl Rng) {
    for_each_normal(out, rng, |o, v| *o += v * std + mean);
}

/// Visits every element of `out` with one standard normal, in index
/// order: one Box–Muller draw per pair of elements, the second normal
/// of the last draw discarded when the length is odd.
fn for_each_normal(out: &mut [f32], rng: &mut impl Rng, mut f: impl FnMut(&mut f32, f32)) {
    let mut pairs = out.chunks_exact_mut(2);
    for pair in &mut pairs {
        let (a, b) = box_muller(rng);
        f(&mut pair[0], a);
        f(&mut pair[1], b);
    }
    if let [last] = pairs.into_remainder() {
        f(last, box_muller(rng).0);
    }
}

/// One Box–Muller draw producing two independent standard normals.
fn box_muller(rng: &mut impl Rng) -> (f32, f32) {
    // Avoid ln(0) by sampling u1 from (0, 1].
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * std::f64::consts::PI * u2;
    ((r * theta.cos()) as f32, (r * theta.sin()) as f32)
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
    fn rand_uniform_respects_bounds() {
        let t = Tensor::rand_uniform(&[1000], -2.0, 5.0, &mut StdRng::seed_from_u64(3));
        assert!(t.min().unwrap() >= -2.0);
        assert!(t.max().unwrap() < 5.0);
    }
}
