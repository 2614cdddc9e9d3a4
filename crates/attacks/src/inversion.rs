//! The gradient-inversion primitive (paper Eq. 6) and reconstruction
//! pool hygiene.

use oasis_image::Image;
use oasis_tensor::{simd, Tensor};

/// Minimum `|∂L/∂b_i|` for a neuron to be considered informative.
pub const BIAS_GRAD_EPS: f32 = 1e-9;

/// Paper Eq. 6: `(∂L/∂b_i)⁻¹ · ∂L/∂W_i = x̂`.
///
/// If neuron `i` was activated by exactly one sample `x_t`, the result
/// is exactly `x_t`; if several samples activated it, the result is
/// the loss-weighted linear combination the paper's defense aims to
/// force. The result is a rank-1 tensor of the row's length, built in
/// one pass into its own buffer. Returns `None` when the bias gradient
/// is (numerically) zero — the neuron saw no samples.
pub fn invert_neuron(grad_w_row: &[f32], grad_b: f32) -> Option<Tensor> {
    if grad_b.abs() < BIAS_GRAD_EPS {
        return None;
    }
    let values = grad_w_row.iter().map(|&g| g / grad_b);
    Some(Tensor::from_values(values, &[grad_w_row.len()]).expect("one value per weight"))
}

/// The RTF bin extraction: inverts the *difference* of two adjacent
/// neurons' gradients, isolating samples whose measurement fell
/// strictly between the two bias cutoffs. The result is shaped and
/// built as [`invert_neuron`]'s.
///
/// # Panics
///
/// Panics if the two rows differ in length.
pub fn invert_neuron_difference(
    grad_w_hi: &[f32],
    grad_b_hi: f32,
    grad_w_lo: &[f32],
    grad_b_lo: f32,
) -> Option<Tensor> {
    let db = grad_b_hi - grad_b_lo;
    if db.abs() < BIAS_GRAD_EPS {
        return None;
    }
    let values = grad_w_hi.iter().zip(grad_w_lo).map(|(&a, &b)| (a - b) / db);
    Some(Tensor::from_values(values, &[grad_w_hi.len()]).expect("rows of one length"))
}

/// PSNR above which two reconstructions are considered the same image.
const DUPLICATE_PSNR: f64 = 45.0;

/// Whether `b` duplicates `a`: squared error below the
/// [`DUPLICATE_PSNR`] threshold (peak value 1.0).
///
/// Equivalent to `psnr_data(a, b) > DUPLICATE_PSNR` but allocation-free
/// and short-circuiting: the squared-error sum is monotone, so the
/// comparison aborts as soon as it provably exceeds the duplicate
/// bound — for a non-duplicate pair only a prefix of the pixels is
/// ever read. Terms accumulate in the same left-to-right order as the
/// full PSNR computation, so no pair classifies differently.
fn is_duplicate(a: &[f32], b: &[f32]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    // psnr > t  ⟺  mse < 10^(−t/10)  (with the saturated "perfect"
    // band below the MSE floor landing on the duplicate side too).
    let limit = 10f64.powf(-DUPLICATE_PSNR / 10.0) * a.len() as f64;
    let mut sum = 0.0f64;
    for (ca, cb) in a.chunks(256).zip(b.chunks(256)) {
        for (&x, &y) in ca.iter().zip(cb) {
            let d = x as f64 - y as f64;
            sum += d * d;
        }
        if sum >= limit {
            return false;
        }
    }
    sum < limit
}

/// Removes near-duplicate reconstructions (many trap neurons catch the
/// same singleton) and obviously degenerate outputs (≈ all-zero).
///
/// One pass over the pool, near-linear: bucketing by quantized mean
/// means duplicates (which have almost identical means) are the only
/// candidates compared pixel-wise, and the comparison itself
/// short-circuits (`is_duplicate`) as soon as a candidate is
/// provably distinct. The squared norms and means are taken first,
/// eight candidates at a time ([`simd::sq_and_sums8`]).
pub fn dedupe_images(pool: Vec<Image>) -> Vec<Image> {
    use std::collections::HashMap;
    let stats = candidate_stats(&pool);
    let mut kept: Vec<Image> = Vec::new();
    let mut buckets: HashMap<i64, Vec<usize>> = HashMap::new();
    'outer: for (img, (norm_sq, mean)) in pool.into_iter().zip(stats) {
        if !norm_sq.is_finite() || norm_sq < 1e-8 {
            continue; // degenerate
        }
        // Saturates for |mean| beyond ~9.2·10¹⁴; the neighbours must too.
        let key = (mean as f64 * 1e4).round() as i64;
        // Duplicates can straddle a bucket boundary; check neighbors.
        for k in [key.saturating_sub(1), key, key.saturating_add(1)] {
            if let Some(indices) = buckets.get(&k) {
                for &i in indices {
                    if kept[i].dims() == img.dims() && is_duplicate(kept[i].data(), img.data()) {
                        continue 'outer;
                    }
                }
            }
        }
        buckets.entry(key).or_default().push(kept.len());
        kept.push(img);
    }
    kept
}

/// Each image's `(Σ v², mean)`: the f32 `Iterator::sum` of its squared
/// values and [`Image::mean`], bit for bit.
///
/// Both are sequential add chains, so one image at a time waits on
/// the add latency at every value. Runs of eight images of one size go
/// through [`simd::sq_and_sums8`] together, so their chains overlap;
/// every chain keeps its own order.
fn candidate_stats(pool: &[Image]) -> Vec<(f32, f32)> {
    let mut stats = Vec::with_capacity(pool.len());
    let mut rest = pool;
    while let Some(first) = rest.first() {
        let n = first.numel();
        let run = rest
            .iter()
            .take(8)
            .take_while(|img| img.numel() == n)
            .count();
        if run == 8 && n > 0 {
            let (sq, sum) = simd::sq_and_sums8(std::array::from_fn(|j| rest[j].data()));
            stats.extend(
                sq.into_iter()
                    .zip(sum)
                    .map(|(sq, sum)| (sq, (sum / n as f64) as f32)),
            );
        } else {
            stats.extend(
                rest[..run]
                    .iter()
                    .map(|img| (img.data().iter().map(|v| v * v).sum(), img.mean())),
            );
        }
        rest = &rest[run..];
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_sample_inversion_is_exact() {
        // Simulate: one sample x with backprop signal g.
        let x = [0.2f32, 0.7, 0.4];
        let g = -1.7f32;
        let grad_w: Vec<f32> = x.iter().map(|&v| g * v).collect();
        let rec = invert_neuron(&grad_w, g).unwrap();
        assert_eq!(rec.dims(), &[3]);
        for (a, b) in rec.data().iter().zip(&x) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn zero_bias_gradient_yields_none() {
        assert!(invert_neuron(&[1.0, 2.0], 0.0).is_none());
    }

    #[test]
    fn two_sample_inversion_is_convex_combination() {
        // Two samples activating the same neuron produce the weighted
        // average — the paper's "linear combination".
        let x1 = [1.0f32, 0.0];
        let x2 = [0.0f32, 1.0];
        let (g1, g2) = (0.3f32, 0.7f32);
        let grad_w = [g1 * x1[0] + g2 * x2[0], g1 * x1[1] + g2 * x2[1]];
        let rec = invert_neuron(&grad_w, g1 + g2).unwrap();
        assert!((rec.data()[0] - 0.3).abs() < 1e-6);
        assert!((rec.data()[1] - 0.7).abs() < 1e-6);
    }

    #[test]
    fn difference_extraction_isolates_bin() {
        // Neuron hi is activated by {x1, x2}; neuron lo by {x2} only.
        // The difference isolates x1 (the RTF mechanism).
        let x1 = [0.9f32, 0.1];
        let x2 = [0.2f32, 0.8];
        let (g1, g2) = (0.5f32, -1.2f32);
        let gw_hi = [g1 * x1[0] + g2 * x2[0], g1 * x1[1] + g2 * x2[1]];
        let gb_hi = g1 + g2;
        let gw_lo = [g2 * x2[0], g2 * x2[1]];
        let gb_lo = g2;
        let rec = invert_neuron_difference(&gw_hi, gb_hi, &gw_lo, gb_lo).unwrap();
        for (a, b) in rec.data().iter().zip(&x1) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn identical_gradients_yield_none() {
        let gw = [0.5f32, 0.5];
        assert!(invert_neuron_difference(&gw, 1.0, &gw, 1.0).is_none());
    }

    fn img(vals: &[f32]) -> Image {
        Image::from_vec(1, 1, vals.len(), vals.to_vec()).unwrap()
    }

    #[test]
    fn dedupe_removes_exact_duplicates() {
        let pool = vec![img(&[0.5, 0.6]), img(&[0.5, 0.6]), img(&[0.9, 0.1])];
        let kept = dedupe_images(pool);
        assert_eq!(kept.len(), 2);
    }

    #[test]
    fn dedupe_drops_degenerate_zero_images() {
        let pool = vec![img(&[0.0, 0.0]), img(&[0.4, 0.4])];
        let kept = dedupe_images(pool);
        assert_eq!(kept.len(), 1);
    }

    #[test]
    fn dedupe_keeps_distinct_images() {
        let pool = vec![img(&[0.1, 0.9]), img(&[0.9, 0.1]), img(&[0.5, 0.5])];
        assert_eq!(dedupe_images(pool).len(), 3);
    }

    #[test]
    fn dedupe_drops_nonfinite() {
        let pool = vec![img(&[f32::NAN, 0.3]), img(&[0.4, 0.4])];
        assert_eq!(dedupe_images(pool).len(), 1);
    }

    #[test]
    fn dedupe_empty_pool_is_noop() {
        assert!(dedupe_images(Vec::new()).is_empty());
    }

    #[test]
    fn duplicate_check_matches_full_psnr_comparison() {
        // The short-circuiting comparison must agree with the full
        // PSNR computation on exact duplicates, f32-noise duplicates,
        // borderline pairs, and clearly distinct images.
        let base: Vec<f32> = (0..768).map(|i| (i as f32 * 0.013).fract()).collect();
        let noisy: Vec<f32> = base.iter().map(|&v| v + 1e-6).collect();
        let distinct: Vec<f32> = base.iter().map(|&v| 1.0 - v).collect();
        // ~40 dB of uniform offset: below the 45 dB duplicate bar.
        let offset: Vec<f32> = base.iter().map(|&v| v + 0.01).collect();
        for (a, b) in [
            (&base, &base),
            (&base, &noisy),
            (&base, &distinct),
            (&base, &offset),
        ] {
            assert_eq!(
                is_duplicate(a, b),
                oasis_metrics::psnr_data(a, b) > DUPLICATE_PSNR,
                "divergence from psnr_data"
            );
        }
    }

    #[test]
    fn heavy_duplicate_pool_dedupes_in_one_pass() {
        // 500 reconstructions, only 10 distinct underlying samples —
        // the shape of a wide imprint layer catching few singletons.
        // Duplicates carry f32-level noise (well above 45 dB against
        // their original), and a sprinkle of degenerate zeros rides
        // along.
        let d = 48;
        let sample = |s: usize| -> Vec<f32> {
            (0..d)
                .map(|i| ((i * 31 + s * 97) % 100) as f32 / 100.0)
                .collect()
        };
        let mut pool = Vec::new();
        for rep in 0..50 {
            for s in 0..10 {
                let mut v = sample(s);
                if rep % 7 == 3 {
                    v.iter_mut().for_each(|x| *x = 0.0); // degenerate
                } else {
                    let eps = rep as f32 * 1e-7;
                    v.iter_mut().for_each(|x| *x += eps);
                }
                pool.push(img(&v));
            }
        }
        assert_eq!(pool.len(), 500);
        let kept = dedupe_images(pool);
        assert_eq!(kept.len(), 10, "one survivor per distinct sample");
    }

    /// `dedupe_images` before its sums ran side by side, verbatim: each
    /// candidate's norm and mean taken one at a time inside the loop.
    fn dedupe_oracle(pool: Vec<Image>) -> Vec<Image> {
        use std::collections::HashMap;
        let mut kept: Vec<Image> = Vec::new();
        let mut buckets: HashMap<i64, Vec<usize>> = HashMap::new();
        'outer: for img in pool {
            let norm_sq: f32 = img.data().iter().map(|v| v * v).sum();
            if !norm_sq.is_finite() || norm_sq < 1e-8 {
                continue; // degenerate
            }
            let key = (img.mean() as f64 * 1e4).round() as i64;
            // Duplicates can straddle a bucket boundary; check neighbors.
            for k in [key - 1, key, key + 1] {
                if let Some(indices) = buckets.get(&k) {
                    for &i in indices {
                        if kept[i].dims() == img.dims() && is_duplicate(kept[i].data(), img.data())
                        {
                            continue 'outer;
                        }
                    }
                }
            }
            buckets.entry(key).or_default().push(kept.len());
            kept.push(img);
        }
        kept
    }

    fn bits(images: &[Image]) -> Vec<((usize, usize, usize), Vec<u32>)> {
        images
            .iter()
            .map(|img| (img.dims(), img.data().iter().map(|v| v.to_bits()).collect()))
            .collect()
    }

    /// A shuffled pool of `d`-value candidates: near-duplicates whose
    /// means straddle a bucket edge, exact copies, distinct images, and
    /// degenerate ones (all-zero, NaN, ±∞, a squared norm that
    /// overflows, and squared norms a hair either side of 1e-8), with
    /// a few candidates of another size breaking the runs.
    fn hostile_pool(d: usize, seed: u64) -> Vec<Image> {
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pool = Vec::new();
        for _ in 0..12 {
            // A mean of (k + ½)·1e-4 puts the bucket edge between two
            // copies a few 1e-7 apart (far above 45 dB).
            let edge = (rng.gen_range(0..10_000) as f32 + 0.5) * 1e-4;
            let spread: Vec<f32> = (0..d).map(|_| rng.gen_range(-0.01f32..0.01)).collect();
            let centred = spread.iter().sum::<f32>() / d as f32;
            for offset in [-3e-7f32, 3e-7, 0.0] {
                pool.push(img(&spread
                    .iter()
                    .map(|&v| v - centred + edge + offset)
                    .collect::<Vec<_>>()));
            }
        }
        for _ in 0..10 {
            let v: Vec<f32> = (0..d).map(|_| rng.gen::<f32>()).collect();
            pool.push(img(&v));
            if rng.gen_bool(0.5) {
                pool.push(img(&v));
            }
        }
        let tiny = (1e-8f32 / d as f32).sqrt();
        for special in [0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1e20] {
            let mut v = vec![special; d];
            v[0] = 0.25;
            pool.push(img(&v));
            pool.push(img(&vec![special; d]));
        }
        for scale in [0.999f32, 0.999_999, 1.0, 1.000_001, 1.001] {
            pool.push(img(&vec![tiny * scale; d]));
        }
        for _ in 0..5 {
            pool.push(img(&(0..d + 3)
                .map(|_| rng.gen::<f32>())
                .collect::<Vec<_>>()));
        }
        pool.shuffle(&mut rng);
        pool
    }

    #[test]
    fn dedupe_matches_the_one_candidate_at_a_time_oracle() {
        for (d, seed) in [(1, 0), (7, 1), (8, 2), (48, 3), (61, 4), (3072, 5)] {
            let pool = hostile_pool(d, seed);
            let want = dedupe_oracle(pool.clone());
            let got = dedupe_images(pool);
            assert_eq!(bits(&got), bits(&want), "d={d}");
        }
    }

    #[test]
    fn dedupe_candidate_stats_equal_the_sums_they_replace() {
        let pool = hostile_pool(33, 6);
        for (img, (norm_sq, mean)) in pool.iter().zip(candidate_stats(&pool)) {
            let want: f32 = img.data().iter().map(|v| v * v).sum();
            assert!(
                (norm_sq.is_nan() && want.is_nan()) || norm_sq.to_bits() == want.to_bits(),
                "{norm_sq} vs {want}"
            );
            let want = img.mean();
            assert!((mean.is_nan() && want.is_nan()) || mean.to_bits() == want.to_bits());
        }
    }

    #[test]
    fn dedupe_survives_means_beyond_the_bucket_key_range() {
        // (1e15·1e4).round() saturates the i64 key at i64::MAX; its
        // neighbour key used to overflow.
        for value in [1e15f32, -1e15] {
            let pool = vec![img(&[value; 4]), img(&[value; 4])];
            assert_eq!(dedupe_images(pool).len(), 1, "{value}");
        }
    }
}
