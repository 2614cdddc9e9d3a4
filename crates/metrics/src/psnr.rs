//! Peak signal-to-noise ratio.

use oasis_image::Image;
use oasis_tensor::simd::{self, SQ_TILE};

/// The PSNR value reported for (numerically) identical images.
///
/// True zero-MSE reconstructions would be +∞ dB; the paper's "perfect"
/// reconstructions land around 130–150 dB because of float round-off.
/// We cap at 160 dB, safely above anything float32 noise produces.
pub const PSNR_CAP: f64 = 160.0;

/// Mean-squared-error floor below which PSNR saturates at
/// [`PSNR_CAP`].
const MSE_FLOOR: f64 = 1e-16;

/// PSNR between two same-length signals with peak value 1.0, in dB.
///
/// The MSE reduction runs on the runtime-dispatched
/// [`oasis_tensor::simd`] squared-error kernel, whose eight-lane f64
/// accumulation (fixed combine order) is bit-identical across SIMD
/// backends and deterministic for a given input.
///
/// A NaN squared error (a NaN anywhere in either signal) scores 0 dB,
/// the floor an empty reconstruction pool scores, never the
/// [`PSNR_CAP`] of a perfect reconstruction.
///
/// # Panics
///
/// Panics if lengths differ or are zero.
pub fn psnr_data(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "psnr requires equal lengths");
    assert!(!a.is_empty(), "psnr of empty signals");
    db_from_sq_err(simd::sq_err_sum(a, b), a.len())
}

/// [`psnr`] of one image against [`SQ_TILE`] others at once, bit for
/// bit: the squared-error tile reads `a` once for all four.
///
/// # Panics
///
/// Panics if any dimensions differ or the images are empty.
pub(crate) fn psnr_tile(a: &Image, others: [&Image; SQ_TILE]) -> [f64; SQ_TILE] {
    check_tile(a, others);
    simd::sq_err_tile(a.data(), others.map(Image::data)).map(|sq| db_from_sq_err(sq, a.numel()))
}

/// [`psnr`]'s checks for one image against [`SQ_TILE`] others.
///
/// # Panics
///
/// Panics if any dimensions differ or the images are empty.
pub(crate) fn check_tile(a: &Image, others: [&Image; SQ_TILE]) {
    for o in others {
        assert_eq!(a.dims(), o.dims(), "psnr requires identical dimensions");
    }
    assert!(a.numel() > 0, "psnr of empty signals");
}

/// PSNR in dB of a squared-error sum over `len` elements; 0 dB for a
/// NaN sum (`f64::min` below would drop the NaN and report the cap).
pub(crate) fn db_from_sq_err(sq: f64, len: usize) -> f64 {
    let mse = sq / len as f64;
    if mse.is_nan() {
        return 0.0;
    }
    if mse < MSE_FLOOR {
        return PSNR_CAP;
    }
    (10.0 * (1.0 / mse).log10()).min(PSNR_CAP)
}

/// A squared-error sum over `len` elements above which a pair scores
/// strictly below `db` dB: `len · 10^(−db/10) · (1 + 2⁻²⁰)`.
///
/// The margin keeps the rule safe under rounding. A sum above the
/// bound has an MSE at least `(1 + 2⁻²⁰)(1 − 2⁻⁵⁰)` times the MSE
/// that scores `db`, so its exact PSNR is at least 4·10⁻⁶ dB lower,
/// while `db_from_sq_err`'s division, reciprocal, `log10` and scaling
/// err by under 10⁻¹² dB. The MSE floor is no exception: for
/// `db ≤ PSNR_CAP` the MSE of such a sum is above it.
pub(crate) fn sq_err_bound(db: f64, len: usize) -> f64 {
    const MARGIN: f64 = 1.0 + 1.0 / (1u64 << 20) as f64;
    len as f64 * 10f64.powf(-db / 10.0) * MARGIN
}

/// PSNR between two images of identical dimensions, in dB. Higher
/// means the reconstruction is closer to the original (paper §IV-A).
///
/// # Panics
///
/// Panics if image dimensions differ.
pub fn psnr(a: &Image, b: &Image) -> f64 {
    assert_eq!(a.dims(), b.dims(), "psnr requires identical dimensions");
    psnr_data(a.data(), b.data())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_images_hit_cap() {
        let mut a = Image::new(1, 4, 4);
        a.fill(0.3);
        assert_eq!(psnr(&a, &a.clone()), PSNR_CAP);
    }

    #[test]
    fn known_mse_maps_to_expected_db() {
        // MSE = 0.01 → PSNR = 10·log10(1/0.01) = 20 dB.
        let a = vec![0.0f32; 100];
        let b = vec![0.1f32; 100];
        let p = psnr_data(&a, &b);
        assert!((p - 20.0).abs() < 1e-5, "psnr {p}");
    }

    #[test]
    fn more_noise_means_lower_psnr() {
        let base = vec![0.5f32; 64];
        let small: Vec<f32> = base.iter().map(|v| v + 0.01).collect();
        let large: Vec<f32> = base.iter().map(|v| v + 0.2).collect();
        assert!(psnr_data(&base, &small) > psnr_data(&base, &large));
    }

    #[test]
    fn nan_reconstruction_scores_zero_not_the_cap() {
        let original = vec![0.5f32; 9];
        let mut recon = original.clone();
        recon[4] = f32::NAN;
        assert_eq!(psnr_data(&recon, &original), 0.0);
        assert_eq!(psnr_data(&original, &recon), 0.0);
        let a = Image::from_vec(1, 3, 3, original).unwrap();
        let r = Image::from_vec(1, 3, 3, recon).unwrap();
        assert_eq!(psnr(&r, &a), 0.0);
        assert_eq!(psnr_tile(&r, [&a; SQ_TILE]), [0.0; SQ_TILE]);
    }

    #[test]
    fn symmetric() {
        let a = vec![0.1f32, 0.5, 0.9];
        let b = vec![0.2f32, 0.4, 0.8];
        assert_eq!(psnr_data(&a, &b), psnr_data(&b, &a));
    }

    #[test]
    fn float32_round_off_lands_in_perfect_band() {
        // A reconstruction that differs only by f32 noise (≈1e-7
        // relative) must land in the paper's 120–160 dB "perfect" band.
        let a: Vec<f32> = (0..1000).map(|i| (i as f32) / 1000.0).collect();
        let b: Vec<f32> = a.iter().map(|&v| v * (1.0 + 1e-7) + 1e-8).collect();
        let p = psnr_data(&a, &b);
        assert!(p > 120.0, "psnr {p}");
    }

    #[test]
    fn psnr_is_bit_identical_across_simd_backends() {
        // The MSE reduction dispatches to the SIMD backend; golden
        // fixtures pin PSNR f64s bit-exactly, so the score must not
        // depend on which backend scored it.
        use oasis_tensor::simd::{self, Backend};
        for n in [1usize, 7, 8, 9, 31, 32, 33, 1000] {
            let a: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin()).collect();
            let b: Vec<f32> = (0..n).map(|i| (i as f32 * 0.11).cos()).collect();
            let scalar = simd::with_backend(Backend::Scalar, || psnr_data(&a, &b));
            let best = simd::with_backend(Backend::detect(), || psnr_data(&a, &b));
            assert_eq!(scalar.to_bits(), best.to_bits(), "n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn rejects_mismatched_lengths() {
        psnr_data(&[0.0], &[0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "identical dimensions")]
    fn rejects_mismatched_images() {
        let a = Image::new(1, 2, 2);
        let b = Image::new(1, 2, 3);
        psnr(&a, &b);
    }
}
