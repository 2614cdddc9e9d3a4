//! AVX2 kernels (x86_64, runtime-detected).
//!
//! Every function performs, per lane, the *identical sequence of IEEE
//! operations* as its [`super::scalar`] reference: separate multiply
//! then add (never a fused multiply-add, which would round once
//! instead of twice), the same fixed lane-combine order for
//! reductions, and the same sequential scalar tail. The parity suite
//! (`crates/tensor/tests/simd_parity.rs`) pins the resulting
//! bit-identity; if a kernel here is ever "optimized" with FMA or a
//! horizontal-add shuffle, that suite is the tripwire.
//!
//! # Safety
//!
//! Every function is `#[target_feature(enable = "avx2")]` and thus
//! unsafe to call: the caller must guarantee the CPU supports AVX2.
//! The only callers are the dispatchers in [`super`], which reach
//! this module exclusively through a [`super::Backend::Avx2`] value,
//! and `Backend::Avx2` is only ever constructed after
//! `is_x86_feature_detected!("avx2")` returned true (at env
//! resolution or via the availability assert in
//! [`super::with_backend`]). No other invariant is required: all
//! loads/stores use unaligned forms, and slice bounds are the same
//! ones the scalar reference checks.
#![allow(unsafe_op_in_unsafe_fn)]

use std::arch::x86_64::*;

use super::scalar;
use super::{SQ_TILE, TILE_COLS, TILE_ROWS};

/// Reads the 8 lanes of an f32x8 register into an array (for scalar
/// fixed-order combines).
#[target_feature(enable = "avx2")]
unsafe fn lanes_f32(v: __m256) -> [f32; 8] {
    let mut out = [0.0f32; 8];
    _mm256_storeu_ps(out.as_mut_ptr(), v);
    out
}

/// Reads the 4 lanes of an f64x4 register into an array.
#[target_feature(enable = "avx2")]
unsafe fn lanes_f64(v: __m256d) -> [f64; 4] {
    let mut out = [0.0f64; 4];
    _mm256_storeu_pd(out.as_mut_ptr(), v);
    out
}

/// See [`scalar::dot`]: one f32x8 accumulator holds the eight scalar
/// lanes; mul+add per chunk, fixed combine, sequential tail.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "dot requires equal lengths");
    let n = a.len().min(b.len());
    let chunks = n / 8;
    let mut acc = _mm256_setzero_ps();
    for c in 0..chunks {
        let va = _mm256_loadu_ps(a.as_ptr().add(c * 8));
        let vb = _mm256_loadu_ps(b.as_ptr().add(c * 8));
        acc = _mm256_add_ps(acc, _mm256_mul_ps(va, vb));
    }
    finish_dot(acc, a, b, chunks * 8)
}

/// The end of one [`dot`]: the fixed lane combine of `acc` plus the
/// sequential tail of `a[from..] · b[from..]`.
#[target_feature(enable = "avx2")]
unsafe fn finish_dot(acc: __m256, a: &[f32], b: &[f32], from: usize) -> f32 {
    let l = lanes_f32(acc);
    let mut tail = 0.0f32;
    for (&x, &y) in a[from..].iter().zip(&b[from..]) {
        tail += x * y;
    }
    ((l[0] + l[4]) + (l[1] + l[5])) + ((l[2] + l[6]) + (l[3] + l[7])) + tail
}

/// See [`scalar::dot_tile`]: one f32x8 accumulator per output, so
/// each output runs [`dot`]'s exact sequence; each chunk of the four
/// A rows and two B rows is loaded once for all eight outputs.
#[target_feature(enable = "avx2")]
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
    let mut acc = [_mm256_setzero_ps(); TILE_ROWS * TILE_COLS];
    for c in 0..chunks {
        let vb0 = _mm256_loadu_ps(b[0].as_ptr().add(c * 8));
        let vb1 = _mm256_loadu_ps(b[1].as_ptr().add(c * 8));
        for r in 0..TILE_ROWS {
            let va = _mm256_loadu_ps(a[r].as_ptr().add(c * 8));
            acc[2 * r] = _mm256_add_ps(acc[2 * r], _mm256_mul_ps(va, vb0));
            acc[2 * r + 1] = _mm256_add_ps(acc[2 * r + 1], _mm256_mul_ps(va, vb1));
        }
    }
    let mut out = [0.0f32; TILE_ROWS * TILE_COLS];
    for (o, v) in out.iter_mut().enumerate() {
        *v = finish_dot(acc[o], a[o / TILE_COLS], b[o % TILE_COLS], chunks * 8);
    }
    out
}

/// See [`scalar::axpy`].
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn axpy(out: &mut [f32], alpha: f32, x: &[f32]) {
    debug_assert_eq!(out.len(), x.len(), "axpy requires equal lengths");
    let n = out.len().min(x.len());
    let chunks = n / 8;
    let va = _mm256_set1_ps(alpha);
    for c in 0..chunks {
        let p = out.as_mut_ptr().add(c * 8);
        let vo = _mm256_loadu_ps(p);
        let vx = _mm256_loadu_ps(x.as_ptr().add(c * 8));
        _mm256_storeu_ps(p, _mm256_add_ps(vo, _mm256_mul_ps(va, vx)));
    }
    for i in chunks * 8..n {
        out[i] += alpha * x[i];
    }
}

/// See [`scalar::axpy4`]: per output lane
/// `((c0·b0 + c1·b1) + c2·b2) + c3·b3`, added once to the output.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn axpy4(
    out_row: &mut [f32],
    coeff: [f32; 4],
    b0: &[f32],
    b1: &[f32],
    b2: &[f32],
    b3: &[f32],
) {
    let n = out_row.len();
    let chunks = n / 8;
    let va0 = _mm256_set1_ps(coeff[0]);
    let va1 = _mm256_set1_ps(coeff[1]);
    let va2 = _mm256_set1_ps(coeff[2]);
    let va3 = _mm256_set1_ps(coeff[3]);
    for c in 0..chunks {
        let j = c * 8;
        let p = out_row.as_mut_ptr().add(j);
        let mut s = _mm256_add_ps(
            _mm256_mul_ps(va0, _mm256_loadu_ps(b0.as_ptr().add(j))),
            _mm256_mul_ps(va1, _mm256_loadu_ps(b1.as_ptr().add(j))),
        );
        s = _mm256_add_ps(s, _mm256_mul_ps(va2, _mm256_loadu_ps(b2.as_ptr().add(j))));
        s = _mm256_add_ps(s, _mm256_mul_ps(va3, _mm256_loadu_ps(b3.as_ptr().add(j))));
        _mm256_storeu_ps(p, _mm256_add_ps(_mm256_loadu_ps(p), s));
    }
    if chunks * 8 < n {
        scalar::axpy4(
            &mut out_row[chunks * 8..],
            coeff,
            &b0[chunks * 8..],
            &b1[chunks * 8..],
            &b2[chunks * 8..],
            &b3[chunks * 8..],
        );
    }
}

/// See [`scalar::axpy4x2`]: the four right-hand chunks are loaded
/// once and feed both output rows.
#[target_feature(enable = "avx2")]
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
    let chunks = n / 8;
    let a = [
        _mm256_set1_ps(c0[0]),
        _mm256_set1_ps(c0[1]),
        _mm256_set1_ps(c0[2]),
        _mm256_set1_ps(c0[3]),
    ];
    let b = [
        _mm256_set1_ps(c1[0]),
        _mm256_set1_ps(c1[1]),
        _mm256_set1_ps(c1[2]),
        _mm256_set1_ps(c1[3]),
    ];
    for c in 0..chunks {
        let j = c * 8;
        let v0 = _mm256_loadu_ps(b0.as_ptr().add(j));
        let v1 = _mm256_loadu_ps(b1.as_ptr().add(j));
        let v2 = _mm256_loadu_ps(b2.as_ptr().add(j));
        let v3 = _mm256_loadu_ps(b3.as_ptr().add(j));
        let p0 = o0.as_mut_ptr().add(j);
        let p1 = o1.as_mut_ptr().add(j);
        let mut s0 = _mm256_add_ps(_mm256_mul_ps(a[0], v0), _mm256_mul_ps(a[1], v1));
        s0 = _mm256_add_ps(s0, _mm256_mul_ps(a[2], v2));
        s0 = _mm256_add_ps(s0, _mm256_mul_ps(a[3], v3));
        _mm256_storeu_ps(p0, _mm256_add_ps(_mm256_loadu_ps(p0), s0));
        let mut s1 = _mm256_add_ps(_mm256_mul_ps(b[0], v0), _mm256_mul_ps(b[1], v1));
        s1 = _mm256_add_ps(s1, _mm256_mul_ps(b[2], v2));
        s1 = _mm256_add_ps(s1, _mm256_mul_ps(b[3], v3));
        _mm256_storeu_ps(p1, _mm256_add_ps(_mm256_loadu_ps(p1), s1));
    }
    if chunks * 8 < n {
        scalar::axpy4x2(
            &mut o0[chunks * 8..],
            &mut o1[chunks * 8..],
            c0,
            c1,
            &b0[chunks * 8..],
            &b1[chunks * 8..],
            &b2[chunks * 8..],
            &b3[chunks * 8..],
        );
    }
}

/// See [`scalar::minmax`]. min/max over finite floats is fold-order
/// independent except for signed zeros, which both backends
/// canonicalize to `+0.0` after the fold.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn minmax(x: &[f32]) -> (f32, f32) {
    let n = x.len();
    let chunks = n / 8;
    let mut vlo = _mm256_set1_ps(f32::INFINITY);
    let mut vhi = _mm256_set1_ps(f32::NEG_INFINITY);
    for c in 0..chunks {
        let v = _mm256_loadu_ps(x.as_ptr().add(c * 8));
        vlo = _mm256_min_ps(vlo, v);
        vhi = _mm256_max_ps(vhi, v);
    }
    let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
    for l in lanes_f32(vlo) {
        lo = lo.min(l);
    }
    for l in lanes_f32(vhi) {
        hi = hi.max(l);
    }
    for &v in &x[chunks * 8..] {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    (
        if lo == 0.0 { 0.0 } else { lo },
        if hi == 0.0 { 0.0 } else { hi },
    )
}

/// See [`scalar::quantize_q8`].
///
/// Rust's `f64::round` rounds half away from zero, which no AVX
/// rounding mode provides; for the kernel's non-negative domain it is
/// emulated exactly as `floor(x) + (x − floor(x) ≥ 0.5)`. The
/// fraction `x − floor(x)` is exact for every non-negative finite x
/// (Sterbenz for x ≥ 1, trivially for x < 1), so the emulation agrees
/// with `round` on every input — including the half-ulp-below-half
/// values where the classic `floor(x + 0.5)` shortcut is wrong.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn quantize_q8(src: &[f32], lo: f32, scale: f64, dst: &mut [u8]) {
    debug_assert_eq!(src.len(), dst.len(), "quantize_q8 requires equal lengths");
    debug_assert!(scale > 0.0, "quantize_q8 requires a positive scale");
    let n = src.len();
    let chunks = n / 8;
    let vlo = _mm256_set1_pd(f64::from(lo));
    let vscale = _mm256_set1_pd(scale);
    let vhalf = _mm256_set1_pd(0.5);
    let vone = _mm256_set1_pd(1.0);
    let vmax = _mm256_set1_pd(255.0);
    let vzero = _mm256_setzero_pd();
    for c in 0..chunks {
        let v8 = src.as_ptr().add(c * 8);
        let quant4 = |p: *const f32| -> __m128i {
            let x = _mm256_div_pd(_mm256_sub_pd(_mm256_cvtps_pd(_mm_loadu_ps(p)), vlo), vscale);
            let fl = _mm256_floor_pd(x);
            let frac = _mm256_sub_pd(x, fl);
            let bump = _mm256_and_pd(_mm256_cmp_pd::<_CMP_GE_OQ>(frac, vhalf), vone);
            let rounded = _mm256_add_pd(fl, bump);
            let clamped = _mm256_max_pd(_mm256_min_pd(rounded, vmax), vzero);
            _mm256_cvtpd_epi32(clamped)
        };
        let ia = quant4(v8);
        let ib = quant4(v8.add(4));
        let packed16 = _mm_packs_epi32(ia, ib);
        let packed8 = _mm_packus_epi16(packed16, _mm_setzero_si128());
        _mm_storel_epi64(dst.as_mut_ptr().add(c * 8).cast(), packed8);
    }
    if chunks * 8 < n {
        scalar::quantize_q8(&src[chunks * 8..], lo, scale, &mut dst[chunks * 8..]);
    }
}

/// See [`scalar::dequantize_q8`]: `lo + scale·q` in f64 (mul then
/// add), clamped into f32's finite range, rounded to f32 by the
/// correctly-rounded `vcvtpd2ps`.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn dequantize_q8(q: &[u8], lo: f32, scale: f32, out: &mut [f32]) {
    debug_assert_eq!(q.len(), out.len(), "dequantize_q8 requires equal lengths");
    let n = q.len();
    let chunks = n / 8;
    let vlo = _mm256_set1_pd(f64::from(lo));
    let vscale = _mm256_set1_pd(f64::from(scale));
    let vmin = _mm256_set1_pd(f64::from(f32::MIN));
    let vmax = _mm256_set1_pd(f64::from(f32::MAX));
    for c in 0..chunks {
        let bytes = _mm_loadl_epi64(q.as_ptr().add(c * 8).cast());
        let deq4 = |i32x4: __m128i| -> __m128 {
            let v = _mm256_add_pd(vlo, _mm256_mul_pd(vscale, _mm256_cvtepi32_pd(i32x4)));
            _mm256_cvtpd_ps(_mm256_max_pd(_mm256_min_pd(v, vmax), vmin))
        };
        let fa = deq4(_mm_cvtepu8_epi32(bytes));
        let fb = deq4(_mm_cvtepu8_epi32(_mm_srli_si128::<4>(bytes)));
        _mm256_storeu_ps(out.as_mut_ptr().add(c * 8), _mm256_set_m128(fb, fa));
    }
    if chunks * 8 < n {
        scalar::dequantize_q8(&q[chunks * 8..], lo, scale, &mut out[chunks * 8..]);
    }
}

/// See [`scalar::pack_signs`]: `movemask` extracts the eight IEEE
/// sign bits (lane i → bit i) in one instruction; positive means the
/// sign bit is *clear*, so the stored byte is the complement.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn pack_signs(src: &[f32], bits: &mut [u8]) {
    debug_assert_eq!(
        bits.len(),
        src.len().div_ceil(8),
        "pack_signs destination must hold one bit per element"
    );
    let n = src.len();
    let chunks = n / 8;
    for (c, bit) in bits[..chunks].iter_mut().enumerate() {
        let mask = _mm256_movemask_ps(_mm256_loadu_ps(src.as_ptr().add(c * 8)));
        *bit = !(mask as u8);
    }
    if chunks * 8 < n {
        scalar::pack_signs(&src[chunks * 8..], &mut bits[chunks..]);
    }
}

/// See [`scalar::unpack_signs`]: each byte is broadcast, tested
/// against per-lane bit masks, and blended between `+mag` and `−mag`.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn unpack_signs(bits: &[u8], mag: f32, out: &mut [f32]) {
    debug_assert!(
        bits.len() >= out.len().div_ceil(8),
        "unpack_signs needs one bit per output element"
    );
    let n = out.len();
    let chunks = n / 8;
    let vpos = _mm256_set1_ps(mag);
    let vneg = _mm256_set1_ps(-mag);
    let lane_bits = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
    for (c, &byte) in bits[..chunks].iter().enumerate() {
        let vb = _mm256_set1_epi32(i32::from(byte));
        let hit = _mm256_cmpeq_epi32(_mm256_and_si256(vb, lane_bits), lane_bits);
        let v = _mm256_blendv_ps(vneg, vpos, _mm256_castsi256_ps(hit));
        _mm256_storeu_ps(out.as_mut_ptr().add(c * 8), v);
    }
    if chunks * 8 < n {
        scalar::unpack_signs(&bits[chunks..], mag, &mut out[chunks * 8..]);
    }
}

/// See [`scalar::sq_err_sum`]: two f64x4 accumulators carry the eight
/// scalar lanes (low register = lanes 0–3, high = 4–7); the combine
/// is done scalarly in the reference's fixed order.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn sq_err_sum(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "sq_err_sum requires equal lengths");
    let n = a.len().min(b.len());
    let chunks = n / 8;
    let mut acc_lo = _mm256_setzero_pd();
    let mut acc_hi = _mm256_setzero_pd();
    for c in 0..chunks {
        let va = _mm256_loadu_ps(a.as_ptr().add(c * 8));
        let vb = _mm256_loadu_ps(b.as_ptr().add(c * 8));
        let d_lo = _mm256_sub_pd(
            _mm256_cvtps_pd(_mm256_castps256_ps128(va)),
            _mm256_cvtps_pd(_mm256_castps256_ps128(vb)),
        );
        let d_hi = _mm256_sub_pd(
            _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(va)),
            _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(vb)),
        );
        acc_lo = _mm256_add_pd(acc_lo, _mm256_mul_pd(d_lo, d_lo));
        acc_hi = _mm256_add_pd(acc_hi, _mm256_mul_pd(d_hi, d_hi));
    }
    finish_sq_err(acc_lo, acc_hi, a, b, chunks * 8)
}

/// The end of one [`sq_err_sum`]: the fixed combine of the two f64x4
/// accumulators, then the sequential tail from `from`.
#[target_feature(enable = "avx2")]
unsafe fn finish_sq_err(
    acc_lo: __m256d,
    acc_hi: __m256d,
    a: &[f32],
    b: &[f32],
    from: usize,
) -> f64 {
    let l = lanes_f64(acc_lo);
    let h = lanes_f64(acc_hi);
    let mut sum = ((l[0] + h[0]) + (l[1] + h[1])) + ((l[2] + h[2]) + (l[3] + h[3]));
    for (&x, &y) in a[from..].iter().zip(&b[from..]) {
        let d = f64::from(x) - f64::from(y);
        sum += d * d;
    }
    sum
}

/// See [`scalar::sq_err_tile`]: two f64x4 accumulators per original,
/// each running [`sq_err_sum`]'s exact sequence; each chunk of `a` is
/// loaded and widened once for all four originals.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn sq_err_tile(a: &[f32], b: [&[f32]; SQ_TILE]) -> [f64; SQ_TILE] {
    debug_assert!(
        b.iter().all(|r| r.len() == a.len()),
        "sq_err_tile requires equal lengths"
    );
    let n = b.iter().map(|r| r.len()).fold(a.len(), usize::min);
    let chunks = n / 8;
    let mut acc_lo = [_mm256_setzero_pd(); SQ_TILE];
    let mut acc_hi = [_mm256_setzero_pd(); SQ_TILE];
    for c in 0..chunks {
        let va = _mm256_loadu_ps(a.as_ptr().add(c * 8));
        let a_lo = _mm256_cvtps_pd(_mm256_castps256_ps128(va));
        let a_hi = _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(va));
        for j in 0..SQ_TILE {
            let vb = _mm256_loadu_ps(b[j].as_ptr().add(c * 8));
            let d_lo = _mm256_sub_pd(a_lo, _mm256_cvtps_pd(_mm256_castps256_ps128(vb)));
            let d_hi = _mm256_sub_pd(a_hi, _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(vb)));
            acc_lo[j] = _mm256_add_pd(acc_lo[j], _mm256_mul_pd(d_lo, d_lo));
            acc_hi[j] = _mm256_add_pd(acc_hi[j], _mm256_mul_pd(d_hi, d_hi));
        }
    }
    let mut out = [0.0f64; SQ_TILE];
    for (j, v) in out.iter_mut().enumerate() {
        *v = finish_sq_err(acc_lo[j], acc_hi[j], a, b[j], chunks * 8);
    }
    out
}
