//! Portable scalar reference kernels.
//!
//! Every SIMD backend is specified against these implementations:
//! same per-lane operation sequence, same fixed lane-combine order,
//! same sequential tail — so a vector backend that performs the
//! identical IEEE operations per lane (mul then add, never a fused
//! multiply-add) reproduces these results *bit for bit*. That
//! invariance is what lets the golden-fixture and determinism suites
//! pass under every `OASIS_SIMD` setting.
//!
//! The loops are written with fixed-width independent accumulator
//! lanes (the shape LLVM can auto-vectorize without `-ffast-math`),
//! so the "scalar" backend is itself reasonably fast — the explicit
//! backends buy the full register width plus runtime dispatch.

use super::{SQ_BOUND_CHUNKS, SQ_TILE, TILE_COLS, TILE_ROWS};

/// Lane width every reduction kernel is blocked to. Vector backends
/// must use the same logical lane count (one f32x8, two f32x4, …) to
/// stay bit-identical.
pub(crate) const LANES: usize = 8;

/// Eight-lane unrolled dot product.
///
/// The eight independent accumulators break the serial float-add
/// dependency chain. The lane-combine order is fixed, so results are
/// deterministic (but differ in the last ulp from a strictly
/// sequential sum).
pub(crate) fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "dot requires equal lengths");
    let mut acc = [0.0f32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for l in 0..LANES {
            acc[l] += xa[l] * xb[l];
        }
    }
    let tail: f32 = ca
        .remainder()
        .iter()
        .zip(cb.remainder())
        .map(|(&x, &y)| x * y)
        .sum();
    ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7])) + tail
}

/// Register tile of dot products: `out[r·TILE_COLS + c] = dot(a[r], b[c])`.
///
/// This is the specification, not a fast path: every output is the
/// single-pair [`dot`] of its row pair, so a vector backend that keeps
/// one accumulator per output (with [`dot`]'s lane order, combine and
/// tail) matches it bit for bit while loading each chunk once per tile.
pub(crate) fn dot_tile(
    a: [&[f32]; TILE_ROWS],
    b: [&[f32]; TILE_COLS],
) -> [f32; TILE_ROWS * TILE_COLS] {
    std::array::from_fn(|o| dot(a[o / TILE_COLS], b[o % TILE_COLS]))
}

/// In-place single-coefficient AXPY: `out[j] += alpha * x[j]`.
pub(crate) fn axpy(out: &mut [f32], alpha: f32, x: &[f32]) {
    debug_assert_eq!(out.len(), x.len(), "axpy requires equal lengths");
    for (o, &v) in out.iter_mut().zip(x) {
        *o += alpha * v;
    }
}

/// Register-blocked AXPY accumulation of four right-hand rows into
/// one output row: `out += c0·b0 + c1·b1 + c2·b2 + c3·b3`.
///
/// Four k-steps share one traversal of the output row, quartering the
/// store traffic of the plain rank-1 update.
pub(crate) fn axpy4(
    out_row: &mut [f32],
    coeff: [f32; 4],
    b0: &[f32],
    b1: &[f32],
    b2: &[f32],
    b3: &[f32],
) {
    let [a0, a1, a2, a3] = coeff;
    for (j, o) in out_row.iter_mut().enumerate() {
        *o += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
    }
}

/// Two-row variant of [`axpy4`]: both output rows consume the same
/// four right-hand rows in one pass, halving their read traffic (the
/// dominant cost when the right-hand matrix outgrows cache). Each
/// row's accumulation sequence is identical to [`axpy4`]'s.
#[allow(clippy::too_many_arguments)]
pub(crate) fn axpy4x2(
    o0: &mut [f32],
    o1: &mut [f32],
    c0: [f32; 4],
    c1: [f32; 4],
    b0: &[f32],
    b1: &[f32],
    b2: &[f32],
    b3: &[f32],
) {
    for (j, (x0, x1)) in o0.iter_mut().zip(o1.iter_mut()).enumerate() {
        let (v0, v1, v2, v3) = (b0[j], b1[j], b2[j], b3[j]);
        *x0 += c0[0] * v0 + c0[1] * v1 + c0[2] * v2 + c0[3] * v3;
        *x1 += c1[0] * v0 + c1[1] * v1 + c1[2] * v2 + c1[3] * v3;
    }
}

/// Canonicalizes a signed zero to `+0.0` so the min/max result does
/// not depend on fold order (`f32::min(-0.0, 0.0)` is
/// order-sensitive; everything else over finite floats is not).
fn canonical_zero(v: f32) -> f32 {
    if v == 0.0 {
        0.0
    } else {
        v
    }
}

/// `(min, max)` over `x`, `(+∞, −∞)` when empty.
///
/// Precondition: all values finite (NaN would poison the fold
/// differently per backend). Signed zeros canonicalize to `+0.0`.
pub(crate) fn minmax(x: &[f32]) -> (f32, f32) {
    let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
    for &v in x {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    (canonical_zero(lo), canonical_zero(hi))
}

/// Affine int8 quantization: `dst[i] = round((src[i] − lo) / scale)`
/// clamped to `0..=255`, computed in f64.
///
/// Preconditions: `scale > 0`, every `src[i]` finite and `≥ lo` (the
/// quantity rounded is therefore non-negative — the domain on which
/// the vector backends' round-half-away-from-zero emulation is exact).
pub(crate) fn quantize_q8(src: &[f32], lo: f32, scale: f64, dst: &mut [u8]) {
    debug_assert_eq!(src.len(), dst.len(), "quantize_q8 requires equal lengths");
    debug_assert!(scale > 0.0, "quantize_q8 requires a positive scale");
    for (d, &v) in dst.iter_mut().zip(src) {
        *d = (((f64::from(v) - f64::from(lo)) / scale).round() as i32).clamp(0, 255) as u8;
    }
}

/// Affine int8 dequantization: `out[i] = lo + scale · q[i]` in f64,
/// clamped into f32's finite range (for extreme updates
/// `lo + 255·scale` can land one rounding step past `f32::MAX`, and
/// the decoder must never emit inf/NaN).
pub(crate) fn dequantize_q8(q: &[u8], lo: f32, scale: f32, out: &mut [f32]) {
    debug_assert_eq!(q.len(), out.len(), "dequantize_q8 requires equal lengths");
    for (o, &q) in out.iter_mut().zip(q) {
        let v = f64::from(lo) + f64::from(scale) * f64::from(q);
        *o = v.clamp(f64::from(f32::MIN), f64::from(f32::MAX)) as f32;
    }
}

/// Packs one sign bit per element, LSB-first within each byte: bit
/// `i % 8` of `bits[i / 8]` is set iff `src[i]` has a positive sign
/// (i.e. the IEEE sign bit is clear — `+0.0` counts as positive).
/// Every byte of `bits` is fully written; tail padding bits are 0.
pub(crate) fn pack_signs(src: &[f32], bits: &mut [u8]) {
    debug_assert_eq!(
        bits.len(),
        src.len().div_ceil(8),
        "pack_signs destination must hold one bit per element"
    );
    bits.fill(0);
    for (i, &v) in src.iter().enumerate() {
        if v.is_sign_positive() {
            bits[i / 8] |= 1 << (i % 8);
        }
    }
}

/// Expands packed sign bits back to `±mag` (bit set ⇒ `+mag`).
pub(crate) fn unpack_signs(bits: &[u8], mag: f32, out: &mut [f32]) {
    debug_assert!(
        bits.len() >= out.len().div_ceil(8),
        "unpack_signs needs one bit per output element"
    );
    let neg = -mag;
    for (i, o) in out.iter_mut().enumerate() {
        *o = if bits[i / 8] & (1 << (i % 8)) != 0 {
            mag
        } else {
            neg
        };
    }
}

/// Sum of squared differences `Σ (a[i] − b[i])²` accumulated in f64,
/// blocked into [`LANES`] independent lanes with the same fixed
/// combine order as [`dot`] (then a sequential tail) — the MSE
/// reduction behind PSNR scoring.
pub(crate) fn sq_err_sum(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "sq_err_sum requires equal lengths");
    let mut acc = [0.0f64; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for l in 0..LANES {
            let d = f64::from(xa[l]) - f64::from(xb[l]);
            acc[l] += d * d;
        }
    }
    let mut sum = combine_sq(&acc);
    for (&x, &y) in ca.remainder().iter().zip(cb.remainder()) {
        let d = f64::from(x) - f64::from(y);
        sum += d * d;
    }
    sum
}

/// The fixed lane combine of [`sq_err_sum`] (the order of [`dot`]'s).
fn combine_sq(acc: &[f64; LANES]) -> f64 {
    ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7]))
}

/// [`sq_err_sum`] that may stop early. After every
/// [`SQ_BOUND_CHUNKS`] chunks the lanes are combined in the fixed
/// order; once that partial sum is strictly above `bound` it is
/// returned as is. Otherwise the result is [`sq_err_sum`], bit for
/// bit.
///
/// Every lane adds non-negative terms (or NaN), so a returned partial
/// is a lower bound on the full sum: the full sum is above `bound`
/// too, or NaN if a NaN comes later. A NaN partial never compares
/// above, so it never stops.
pub(crate) fn sq_err_bounded(a: &[f32], b: &[f32], bound: f64) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "sq_err_bounded requires equal lengths");
    let mut acc = [0.0f64; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (c, (xa, xb)) in (&mut ca).zip(&mut cb).enumerate() {
        for l in 0..LANES {
            let d = f64::from(xa[l]) - f64::from(xb[l]);
            acc[l] += d * d;
        }
        if (c + 1).is_multiple_of(SQ_BOUND_CHUNKS) {
            let partial = combine_sq(&acc);
            if partial > bound {
                return partial;
            }
        }
    }
    let mut sum = combine_sq(&acc);
    for (&x, &y) in ca.remainder().iter().zip(cb.remainder()) {
        let d = f64::from(x) - f64::from(y);
        sum += d * d;
    }
    sum
}

/// One reconstruction against [`SQ_TILE`] originals:
/// `out[j] = sq_err_sum(a, b[j])`.
///
/// The specification, like [`dot_tile`]: each output is the
/// single-pair kernel, so a vector backend that keeps two f64x4
/// accumulators per original reproduces it while loading `a` once.
pub(crate) fn sq_err_tile(a: &[f32], b: [&[f32]; SQ_TILE]) -> [f64; SQ_TILE] {
    b.map(|bj| sq_err_sum(a, bj))
}

/// [`sq_err_tile`] with a bound per original:
/// `out[j] = sq_err_bounded(a, b[j], bound[j])`.
///
/// The specification: a vector backend runs [`sq_err_tile`]'s lanes,
/// checks all four originals at each [`sq_err_bounded`] checkpoint and
/// returns once all four have stopped.
pub(crate) fn sq_err_tile_bounded(
    a: &[f32],
    b: [&[f32]; SQ_TILE],
    bound: [f64; SQ_TILE],
) -> [f64; SQ_TILE] {
    std::array::from_fn(|j| sq_err_bounded(a, b[j], bound[j]))
}

/// Sums of eight side-by-side boxes `bw` wide over `rows` rows
/// `stride` apart, for `out.len()` groups `step` apart:
/// `out[i][k] = Σ src[i·step + y·stride + k·bw + x]` over `y < rows`,
/// `x < bw`, each box summed from 0.0 in (y, x) order.
pub(crate) fn box_sums8(
    src: &[f32],
    step: usize,
    stride: usize,
    rows: usize,
    bw: usize,
    out: &mut [[f32; 8]],
) {
    for (i, acc) in out.iter_mut().enumerate() {
        *acc = [0.0; 8];
        for y in 0..rows {
            let row = &src[i * step + y * stride..][..8 * bw];
            for (a, cell) in acc.iter_mut().zip(row.chunks_exact(bw)) {
                for &v in cell {
                    *a += v;
                }
            }
        }
    }
}

/// One Box–Muller pair from `u1 ∈ (0, 1]` and `u2 ∈ [0, 1)`:
/// `r = √(−2 ln u1)`, `θ = 2π·u2`, then `(r·cos θ, r·sin θ)`, all in
/// f64 with the platform libm's `ln`, `cos` and `sin`, each result
/// cast to f32.
///
/// The specification of [`normal_pairs`]. Unlike every other kernel
/// here, vector backends do not replicate it operation by operation;
/// they approximate it inside a rounding guard (see
/// [`super::normal_pairs`]).
pub(crate) fn normal_pair(u1: f64, u2: f64) -> (f32, f32) {
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * std::f64::consts::PI * u2;
    ((r * theta.cos()) as f32, (r * theta.sin()) as f32)
}

/// [`normal_pair`] of every `(u1[i], u2[i])` into `out[2i]` (the
/// cosine branch) and `out[2i + 1]` (the sine branch). Returns the
/// number of pairs recomputed on a fallback path: always 0 here.
pub(crate) fn normal_pairs(u1: &[f64], u2: &[f64], out: &mut [f32]) -> usize {
    debug_assert!(
        u1.len() == u2.len() && out.len() == 2 * u1.len(),
        "normal_pairs needs equal uniform lengths and two outputs per pair"
    );
    for ((&a, &b), o) in u1.iter().zip(u2).zip(out.chunks_exact_mut(2)) {
        (o[0], o[1]) = normal_pair(a, b);
    }
    0
}
