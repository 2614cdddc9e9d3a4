//! NEON kernels (aarch64, where Advanced SIMD is architectural).
//!
//! Same bit-exactness contract as the AVX2 backend: per lane, the
//! identical IEEE operation sequence as [`super::scalar`] — separate
//! `vmulq`/`vaddq` (never `vfmaq`, which rounds once instead of
//! twice), the reference's fixed lane-combine order, sequential
//! tails. The eight scalar accumulator lanes map onto two `float32x4`
//! registers (low = lanes 0–3, high = 4–7).
//!
//! The f64- and bit-manipulation kernels (q8 quantize/dequantize,
//! sign pack/unpack, squared-error sum and tile) delegate to the scalar
//! reference: their cost is dominated by f64 arithmetic NEON widens
//! only 2×, and delegation keeps the bytes-on-wire guarantee trivial
//! on hardware this workspace's CI cannot exercise.
//!
//! # Safety
//!
//! Functions here are `unsafe` only for symmetry with the dispatch
//! macro (NEON is baseline on aarch64, so `target_feature` is always
//! satisfied); all loads/stores use unaligned intrinsics and slice
//! bounds mirror the scalar reference's.
#![allow(unsafe_op_in_unsafe_fn)]

use std::arch::aarch64::*;

use super::scalar;
use super::{SQ_TILE, TILE_COLS, TILE_ROWS};

/// See [`scalar::dot`]: two f32x4 accumulators carry the eight scalar
/// lanes; the pairwise combine `vaddq(lo, hi)` reproduces the
/// reference's `acc[l] + acc[l+4]` sums, then the fixed scalar fold.
pub(crate) unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "dot requires equal lengths");
    let n = a.len().min(b.len());
    let chunks = n / 8;
    let mut acc_lo = vdupq_n_f32(0.0);
    let mut acc_hi = vdupq_n_f32(0.0);
    for c in 0..chunks {
        let p_a = a.as_ptr().add(c * 8);
        let p_b = b.as_ptr().add(c * 8);
        acc_lo = vaddq_f32(acc_lo, vmulq_f32(vld1q_f32(p_a), vld1q_f32(p_b)));
        acc_hi = vaddq_f32(
            acc_hi,
            vmulq_f32(vld1q_f32(p_a.add(4)), vld1q_f32(p_b.add(4))),
        );
    }
    finish_dot(acc_lo, acc_hi, a, b, chunks * 8)
}

/// The end of one [`dot`]: the pairwise `vaddq(lo, hi)`, the fixed
/// scalar fold, and the sequential tail of `a[from..] · b[from..]`.
unsafe fn finish_dot(
    acc_lo: float32x4_t,
    acc_hi: float32x4_t,
    a: &[f32],
    b: &[f32],
    from: usize,
) -> f32 {
    let s = vaddq_f32(acc_lo, acc_hi);
    let mut tail = 0.0f32;
    for (&x, &y) in a[from..].iter().zip(&b[from..]) {
        tail += x * y;
    }
    (vgetq_lane_f32::<0>(s) + vgetq_lane_f32::<1>(s))
        + (vgetq_lane_f32::<2>(s) + vgetq_lane_f32::<3>(s))
        + tail
}

/// See [`scalar::dot_tile`]: two f32x4 accumulators per output, so
/// each output runs [`dot`]'s exact sequence; each chunk of the four
/// A rows and two B rows is loaded once for all eight outputs.
pub(crate) unsafe fn dot_tile(
    a: [&[f32]; TILE_ROWS],
    b: [&[f32]; TILE_COLS],
) -> [f32; TILE_ROWS * TILE_COLS] {
    debug_assert!(
        a.iter().chain(&b).all(|r| r.len() == a[0].len()),
        "dot_tile requires equal lengths"
    );
    let n = a.iter().chain(&b).map(|r| r.len()).min().unwrap_or(0);
    let chunks = n / 8;
    let mut acc_lo = [vdupq_n_f32(0.0); TILE_ROWS * TILE_COLS];
    let mut acc_hi = [vdupq_n_f32(0.0); TILE_ROWS * TILE_COLS];
    for c in 0..chunks {
        let p_b0 = b[0].as_ptr().add(c * 8);
        let p_b1 = b[1].as_ptr().add(c * 8);
        let (b0_lo, b0_hi) = (vld1q_f32(p_b0), vld1q_f32(p_b0.add(4)));
        let (b1_lo, b1_hi) = (vld1q_f32(p_b1), vld1q_f32(p_b1.add(4)));
        for r in 0..TILE_ROWS {
            let p_a = a[r].as_ptr().add(c * 8);
            let (a_lo, a_hi) = (vld1q_f32(p_a), vld1q_f32(p_a.add(4)));
            let (o0, o1) = (2 * r, 2 * r + 1);
            acc_lo[o0] = vaddq_f32(acc_lo[o0], vmulq_f32(a_lo, b0_lo));
            acc_hi[o0] = vaddq_f32(acc_hi[o0], vmulq_f32(a_hi, b0_hi));
            acc_lo[o1] = vaddq_f32(acc_lo[o1], vmulq_f32(a_lo, b1_lo));
            acc_hi[o1] = vaddq_f32(acc_hi[o1], vmulq_f32(a_hi, b1_hi));
        }
    }
    let mut out = [0.0f32; TILE_ROWS * TILE_COLS];
    for (o, v) in out.iter_mut().enumerate() {
        let (a_row, b_row) = (a[o / TILE_COLS], b[o % TILE_COLS]);
        *v = finish_dot(acc_lo[o], acc_hi[o], a_row, b_row, chunks * 8);
    }
    out
}

/// See [`scalar::axpy`].
pub(crate) unsafe fn axpy(out: &mut [f32], alpha: f32, x: &[f32]) {
    debug_assert_eq!(out.len(), x.len(), "axpy requires equal lengths");
    let n = out.len().min(x.len());
    let chunks = n / 4;
    let va = vdupq_n_f32(alpha);
    for c in 0..chunks {
        let p = out.as_mut_ptr().add(c * 4);
        let vo = vld1q_f32(p);
        let vx = vld1q_f32(x.as_ptr().add(c * 4));
        vst1q_f32(p, vaddq_f32(vo, vmulq_f32(va, vx)));
    }
    for i in chunks * 4..n {
        out[i] += alpha * x[i];
    }
}

/// See [`scalar::axpy4`]: per output lane
/// `((c0·b0 + c1·b1) + c2·b2) + c3·b3`, added once to the output.
pub(crate) unsafe fn axpy4(
    out_row: &mut [f32],
    coeff: [f32; 4],
    b0: &[f32],
    b1: &[f32],
    b2: &[f32],
    b3: &[f32],
) {
    let n = out_row.len();
    let chunks = n / 4;
    let va0 = vdupq_n_f32(coeff[0]);
    let va1 = vdupq_n_f32(coeff[1]);
    let va2 = vdupq_n_f32(coeff[2]);
    let va3 = vdupq_n_f32(coeff[3]);
    for c in 0..chunks {
        let j = c * 4;
        let p = out_row.as_mut_ptr().add(j);
        let mut s = vaddq_f32(
            vmulq_f32(va0, vld1q_f32(b0.as_ptr().add(j))),
            vmulq_f32(va1, vld1q_f32(b1.as_ptr().add(j))),
        );
        s = vaddq_f32(s, vmulq_f32(va2, vld1q_f32(b2.as_ptr().add(j))));
        s = vaddq_f32(s, vmulq_f32(va3, vld1q_f32(b3.as_ptr().add(j))));
        vst1q_f32(p, vaddq_f32(vld1q_f32(p), s));
    }
    if chunks * 4 < n {
        scalar::axpy4(
            &mut out_row[chunks * 4..],
            coeff,
            &b0[chunks * 4..],
            &b1[chunks * 4..],
            &b2[chunks * 4..],
            &b3[chunks * 4..],
        );
    }
}

/// See [`scalar::axpy4x2`]: the four right-hand chunks are loaded
/// once and feed both output rows.
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn axpy4x2(
    o0: &mut [f32],
    o1: &mut [f32],
    c0: [f32; 4],
    c1: [f32; 4],
    b0: &[f32],
    b1: &[f32],
    b2: &[f32],
    b3: &[f32],
) {
    debug_assert_eq!(o0.len(), o1.len(), "axpy4x2 rows must match");
    let n = o0.len();
    let chunks = n / 4;
    let a = [
        vdupq_n_f32(c0[0]),
        vdupq_n_f32(c0[1]),
        vdupq_n_f32(c0[2]),
        vdupq_n_f32(c0[3]),
    ];
    let b = [
        vdupq_n_f32(c1[0]),
        vdupq_n_f32(c1[1]),
        vdupq_n_f32(c1[2]),
        vdupq_n_f32(c1[3]),
    ];
    for c in 0..chunks {
        let j = c * 4;
        let v0 = vld1q_f32(b0.as_ptr().add(j));
        let v1 = vld1q_f32(b1.as_ptr().add(j));
        let v2 = vld1q_f32(b2.as_ptr().add(j));
        let v3 = vld1q_f32(b3.as_ptr().add(j));
        let p0 = o0.as_mut_ptr().add(j);
        let p1 = o1.as_mut_ptr().add(j);
        let mut s0 = vaddq_f32(vmulq_f32(a[0], v0), vmulq_f32(a[1], v1));
        s0 = vaddq_f32(s0, vmulq_f32(a[2], v2));
        s0 = vaddq_f32(s0, vmulq_f32(a[3], v3));
        vst1q_f32(p0, vaddq_f32(vld1q_f32(p0), s0));
        let mut s1 = vaddq_f32(vmulq_f32(b[0], v0), vmulq_f32(b[1], v1));
        s1 = vaddq_f32(s1, vmulq_f32(b[2], v2));
        s1 = vaddq_f32(s1, vmulq_f32(b[3], v3));
        vst1q_f32(p1, vaddq_f32(vld1q_f32(p1), s1));
    }
    if chunks * 4 < n {
        scalar::axpy4x2(
            &mut o0[chunks * 4..],
            &mut o1[chunks * 4..],
            c0,
            c1,
            &b0[chunks * 4..],
            &b1[chunks * 4..],
            &b2[chunks * 4..],
            &b3[chunks * 4..],
        );
    }
}

/// See [`scalar::minmax`]; signed zeros canonicalize to `+0.0` after
/// the fold, as in every backend.
pub(crate) unsafe fn minmax(x: &[f32]) -> (f32, f32) {
    let n = x.len();
    let chunks = n / 4;
    let mut vlo = vdupq_n_f32(f32::INFINITY);
    let mut vhi = vdupq_n_f32(f32::NEG_INFINITY);
    for c in 0..chunks {
        let v = vld1q_f32(x.as_ptr().add(c * 4));
        vlo = vminq_f32(vlo, v);
        vhi = vmaxq_f32(vhi, v);
    }
    let mut lo = vminvq_f32(vlo);
    let mut hi = vmaxvq_f32(vhi);
    for &v in &x[chunks * 4..] {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    (
        if lo == 0.0 { 0.0 } else { lo },
        if hi == 0.0 { 0.0 } else { hi },
    )
}

/// See [`scalar::quantize_q8`] — delegated (f64-bound; see module docs).
pub(crate) unsafe fn quantize_q8(src: &[f32], lo: f32, scale: f64, dst: &mut [u8]) {
    scalar::quantize_q8(src, lo, scale, dst);
}

/// See [`scalar::dequantize_q8`] — delegated (f64-bound; see module docs).
pub(crate) unsafe fn dequantize_q8(q: &[u8], lo: f32, scale: f32, out: &mut [f32]) {
    scalar::dequantize_q8(q, lo, scale, out);
}

/// See [`scalar::pack_signs`] — delegated (bit-bound; see module docs).
pub(crate) unsafe fn pack_signs(src: &[f32], bits: &mut [u8]) {
    scalar::pack_signs(src, bits);
}

/// See [`scalar::unpack_signs`] — delegated (bit-bound; see module docs).
pub(crate) unsafe fn unpack_signs(bits: &[u8], mag: f32, out: &mut [f32]) {
    scalar::unpack_signs(bits, mag, out);
}

/// See [`scalar::sq_err_sum`] — delegated (f64-bound; see module docs).
pub(crate) unsafe fn sq_err_sum(a: &[f32], b: &[f32]) -> f64 {
    scalar::sq_err_sum(a, b)
}

/// See [`scalar::sq_err_tile`] — delegated (f64-bound; see module docs).
pub(crate) unsafe fn sq_err_tile(a: &[f32], b: [&[f32]; SQ_TILE]) -> [f64; SQ_TILE] {
    scalar::sq_err_tile(a, b)
}

/// See [`scalar::normal_pairs`] — delegated: the guarded vector kernel
/// exists for AVX2 only (see [`super::normal_pairs`]).
pub(crate) unsafe fn normal_pairs(u1: &[f64], u2: &[f64], out: &mut [f32]) -> usize {
    scalar::normal_pairs(u1, u2, out)
}
