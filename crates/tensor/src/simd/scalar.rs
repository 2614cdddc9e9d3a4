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
//! so the "scalar" backend is itself reasonably fast.
//!
//! Five of them are also the AVX2 backend's code: [`dot`], [`axpy`],
//! [`axpy4`], [`axpy4x2`] and [`dequantize_add_q8`] run there compiled
//! with AVX2 enabled (`super::avx2::compiled`). They are
//! `#[inline(always)]` so that their loops are compiled inside the
//! trampoline; `axpy4` and `axpy4x2` slice every operand to the
//! loop's length first so that no bounds check stops the vectorizer.
//! Rustc never fuses or reassociates float operations, so the vector
//! code they compile to has these bits.

use super::{DOT_LANES, NORM_LANES, SQ_BOUND_CHUNKS, SQ_TILE};

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
#[inline(always)]
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

/// Rows of `a · bᵀ` from `row0`: every output is the single-pair
/// [`dot`] of its row pair.
///
/// The specification, not a fast path: a vector backend that keeps
/// one eight-lane accumulator per output (with [`dot`]'s lane order,
/// combine and tail) matches it bit for bit however it blocks the
/// loops.
pub(crate) fn matmul_nt_rows(a: &[f32], b: &[f32], k: usize, row0: usize, out: &mut [f32]) {
    let n = b.len() / k;
    if n == 0 {
        return;
    }
    for (r, out_row) in out.chunks_exact_mut(n).enumerate() {
        let arow = &a[(row0 + r) * k..(row0 + r + 1) * k];
        for (o, brow) in out_row.iter_mut().zip(b.chunks_exact(k)) {
            *o = dot(arow, brow);
        }
    }
}

/// Rows of `aᵀ · b` from `i0`, added into `out` (`+0` on entry): per
/// output, one [`axpy4`] term for every block of four k-steps whose
/// coefficients are not all zero, then the remaining k-steps one at a
/// time, skipping zero coefficients.
///
/// Each [`axpy4`] updates a whole output row, so every output row is
/// loaded and stored once per block; the order of the IEEE operations
/// per output is what a vector backend reproduces.
pub(crate) fn matmul_tn_rows(a: &[f32], b: &[f32], m: usize, n: usize, i0: usize, out: &mut [f32]) {
    if m == 0 || n == 0 {
        return;
    }
    let k = a.len() / m;
    let blocks = k / 4 * 4;
    let mut p = 0;
    while p < blocks {
        let a0 = &a[p * m..(p + 1) * m];
        let a1 = &a[(p + 1) * m..(p + 2) * m];
        let a2 = &a[(p + 2) * m..(p + 3) * m];
        let a3 = &a[(p + 3) * m..(p + 4) * m];
        let b0 = &b[p * n..(p + 1) * n];
        let b1 = &b[(p + 1) * n..(p + 2) * n];
        let b2 = &b[(p + 2) * n..(p + 3) * n];
        let b3 = &b[(p + 3) * n..(p + 4) * n];
        for (li, orow) in out.chunks_exact_mut(n).enumerate() {
            let i = i0 + li;
            let coeff = [a0[i], a1[i], a2[i], a3[i]];
            if coeff != [0.0; 4] {
                axpy4(orow, coeff, b0, b1, b2, b3);
            }
        }
        p += 4;
    }
    for p in blocks..k {
        let arow = &a[p * m..(p + 1) * m];
        let brow = &b[p * n..(p + 1) * n];
        for (li, orow) in out.chunks_exact_mut(n).enumerate() {
            let av = arow[i0 + li];
            if av == 0.0 {
                continue;
            }
            for (ov, &bv) in orow.iter_mut().zip(brow) {
                *ov += av * bv;
            }
        }
    }
}

/// The clipped sum of rank-one gradients, one output row at a time:
/// row `i` collects its terms `(x_s, δ_si, scale_s)` with `δ_si ≠ 0`
/// in sample order and adds `scale_s·(δ_si·x_s)` to every element,
/// four samples per pass over the row, each element still adding its
/// terms one at a time; then scales the row by `inv_b`.
pub(crate) fn clip_sum(x: &[f32], delta: &[f32], scales: &[f32], inv_b: f32, out: &mut [f32]) {
    let b = scales.len();
    let (d, n) = (x.len() / b, delta.len() / b);
    if d == 0 || n == 0 {
        return;
    }
    let mut terms: Vec<(&[f32], f32, f32)> = Vec::with_capacity(b);
    for (i, row) in out.chunks_exact_mut(d).enumerate() {
        row.fill(0.0);
        terms.clear();
        for (s, (xs, &scale)) in x.chunks_exact(d).zip(scales).enumerate() {
            let c = delta[s * n + i];
            if c != 0.0 {
                terms.push((xs, c, scale));
            }
        }
        let mut quads = terms.chunks_exact(4);
        for quad in &mut quads {
            let [(x0, c0, s0), (x1, c1, s1), (x2, c2, s2), (x3, c3, s3)] =
                [quad[0], quad[1], quad[2], quad[3]];
            let (x0, x1, x2, x3) = (&x0[..d], &x1[..d], &x2[..d], &x3[..d]);
            for (j, o) in row.iter_mut().enumerate() {
                let mut v = *o;
                v += s0 * (c0 * x0[j]);
                v += s1 * (c1 * x1[j]);
                v += s2 * (c2 * x2[j]);
                v += s3 * (c3 * x3[j]);
                *o = v;
            }
        }
        for &(xs, c, scale) in quads.remainder() {
            for (o, &xv) in row.iter_mut().zip(xs) {
                *o += scale * (c * xv);
            }
        }
        for o in row.iter_mut() {
            *o *= inv_b;
        }
    }
}

/// Masked squared norms, one independent lane per sample: for each
/// δ row in order, every input adds `p·p` with `p = δ·x`, or `+0` in a
/// lane whose δ is zero (so `0·∞` never turns into NaN). The lanes are
/// the shape LLVM vectorizes without reassociating anything.
pub(crate) fn masked_sq_norms(
    delta: &[[f32; NORM_LANES]],
    x: &[[f32; NORM_LANES]],
) -> [f32; NORM_LANES] {
    let mut acc = [0.0f32; NORM_LANES];
    for dv in delta {
        let keep = dv.map(|v| if v != 0.0 { u32::MAX } else { 0 });
        // A local copy keeps the accumulators in registers.
        let mut a = acc;
        for xv in x {
            let mut p = [0.0f32; NORM_LANES];
            for l in 0..NORM_LANES {
                p[l] = f32::from_bits((dv[l] * xv[l]).to_bits() & keep[l]);
            }
            for l in 0..NORM_LANES {
                a[l] += p[l] * p[l];
            }
        }
        acc = a;
    }
    acc
}

/// The eight vectors' sums of squares (f32) and sums (f64), each a
/// sequential sum in index order from `Sum`'s start value; the
/// vectors advance together, one lane each.
pub(crate) fn sq_and_sums8(x: [&[f32]; 8]) -> ([f32; 8], [f64; 8]) {
    let n = x[0].len();
    let x = x.map(|v| &v[..n]);
    let mut sq = [std::iter::empty::<f32>().sum::<f32>(); 8];
    let mut sum = [std::iter::empty::<f64>().sum::<f64>(); 8];
    for v in (0..n).map(|k| x.map(|x| x[k])) {
        for j in 0..8 {
            sq[j] += v[j] * v[j];
            sum[j] += v[j] as f64;
        }
    }
    (sq, sum)
}

/// One row at a time, the group's [`DOT_LANES`] dots advance
/// together: lane `l` adds `w_k·x[k][l]` to `Sum`'s start value in
/// ascending `k`, the sequence `Iterator::sum` runs for one vector.
/// LLVM vectorizes the lanes without reassociating anything.
pub(crate) fn lane_dots(w: &[f32], x: &[[f32; DOT_LANES]], out: &mut [[f32; DOT_LANES]]) {
    let start: f32 = std::iter::empty::<f32>().sum();
    let d = x.len();
    for (r, o) in out.iter_mut().enumerate() {
        let mut acc = [start; DOT_LANES];
        for (&wk, xk) in w[r * d..(r + 1) * d].iter().zip(x) {
            for l in 0..DOT_LANES {
                acc[l] += wk * xk[l];
            }
        }
        *o = acc;
    }
}

/// In-place single-coefficient AXPY: `out[j] += alpha * x[j]`.
#[inline(always)]
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
#[inline(always)]
pub(crate) fn axpy4(
    out_row: &mut [f32],
    coeff: [f32; 4],
    b0: &[f32],
    b1: &[f32],
    b2: &[f32],
    b3: &[f32],
) {
    let [a0, a1, a2, a3] = coeff;
    // Cut to the row so the compiler drops the per-element bounds
    // checks and can vectorize the loop.
    let n = out_row.len();
    let (b0, b1, b2, b3) = (&b0[..n], &b1[..n], &b2[..n], &b3[..n]);
    for (j, o) in out_row.iter_mut().enumerate() {
        *o += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
    }
}

/// Two-row variant of [`axpy4`]: both output rows consume the same
/// four right-hand rows in one pass, halving their read traffic (the
/// dominant cost when the right-hand matrix outgrows cache). Each
/// row's accumulation sequence is identical to [`axpy4`]'s.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
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
    debug_assert_eq!(o0.len(), o1.len(), "axpy4x2 rows must match");
    // As in `axpy4`, every slice is cut to the loop's length. Indexed,
    // not zipped: over zipped rows the compiled AVX2 loop spilled two
    // of its eight broadcast coefficients and ran about 10 % slower.
    let n = o0.len().min(o1.len());
    let (o0, o1) = (&mut o0[..n], &mut o1[..n]);
    let (b0, b1, b2, b3) = (&b0[..n], &b1[..n], &b2[..n], &b3[..n]);
    for j in 0..n {
        let (v0, v1, v2, v3) = (b0[j], b1[j], b2[j], b3[j]);
        o0[j] += c0[0] * v0 + c0[1] * v1 + c0[2] * v2 + c0[3] * v3;
        o1[j] += c1[0] * v0 + c1[1] * v1 + c1[2] * v2 + c1[3] * v3;
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

/// `(min, max)` over `x` when every value is finite, `None` when any
/// is infinite or NaN; `Some((+∞, −∞))` when empty. Signed zeros
/// canonicalize to `+0.0`. One pass, no early exit: a value is
/// non-finite exactly when its exponent bits are all ones.
pub(crate) fn min_max_finite(x: &[f32]) -> Option<(f32, f32)> {
    const EXPONENT: u32 = 0x7f80_0000;
    let (mut lo, mut hi, mut bad) = (f32::INFINITY, f32::NEG_INFINITY, false);
    for &v in x {
        lo = lo.min(v);
        hi = hi.max(v);
        bad |= v.to_bits() & EXPONENT == EXPONENT;
    }
    (!bad).then(|| (canonical_zero(lo), canonical_zero(hi)))
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

/// Affine int8 dequantization folded into a weighted sum:
/// `acc[i] += weight · dequantize_one(q[i])`, multiply then add.
#[inline(always)]
pub(crate) fn dequantize_add_q8(q: &[u8], lo: f32, scale: f32, weight: f32, acc: &mut [f32]) {
    debug_assert_eq!(
        q.len(),
        acc.len(),
        "dequantize_add_q8 requires equal lengths"
    );
    for (a, &q) in acc.iter_mut().zip(q) {
        *a += weight * dequantize_one(lo, scale, q);
    }
}

/// One dequantized level: `lo + scale · q` in f64, clamped into f32's
/// finite range (for extreme updates `lo + 255·scale` can land one
/// rounding step past `f32::MAX`, and the fold must never add inf/NaN).
#[inline(always)]
fn dequantize_one(lo: f32, scale: f32, q: u8) -> f32 {
    let v = f64::from(lo) + f64::from(scale) * f64::from(q);
    v.clamp(f64::from(f32::MIN), f64::from(f32::MAX)) as f32
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
/// The specification, like [`matmul_nt_rows`]: each output is the
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

/// The uniforms of one Box–Muller draw from its two rng words:
/// `u1 = 1 − U(w1)` and `u2 = U(w2)`, with `U(w) = (w >> 11)·2⁻⁵³`,
/// the value `rand`'s `gen::<f64>()` makes of the word. Every step is
/// exact, so `u1 ∈ [2⁻⁵³, 1]` and `u2 ∈ [0, 1 − 2⁻⁵³]`.
pub(crate) fn uniforms(w1: u64, w2: u64) -> (f64, f64) {
    let u = |w: u64| (w >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    (1.0 - u(w1), u(w2))
}

/// One Box–Muller draw from the words `w[0]` and `w[1]` (see
/// [`uniforms`]): `r = √(−2 ln u1)`, `θ = 2π·u2`, then `r·cos θ` into
/// `out[0]` and, when `PER_DRAW = 2`, `r·sin θ` into `out[1]`, all in
/// f64 with the platform libm's `ln`, `cos` and `sin`, each result
/// cast to f32.
///
/// The specification of [`super::normal_pairs`] and
/// [`super::cos_normals`]. Unlike every other kernel here, vector
/// backends do not replicate it operation by operation; they
/// approximate it inside a rounding guard (see the [`super`] docs).
pub(crate) fn normal_draw<const PER_DRAW: usize>(w: &[u64], out: &mut [f32]) {
    let (u1, u2) = uniforms(w[0], w[1]);
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * std::f64::consts::PI * u2;
    out[0] = (r * theta.cos()) as f32;
    if PER_DRAW == 2 {
        out[1] = (r * theta.sin()) as f32;
    }
}

/// [`normal_draw`] of every word pair: `PER_DRAW` outputs per draw.
/// Returns the number of draws recomputed on a fallback path: always 0
/// here.
pub(crate) fn normals<const PER_DRAW: usize>(words: &[u64], out: &mut [f32]) -> usize {
    for (w, o) in words.chunks_exact(2).zip(out.chunks_exact_mut(PER_DRAW)) {
        normal_draw::<PER_DRAW>(w, o);
    }
    0
}
