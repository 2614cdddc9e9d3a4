//! AVX2 kernels (x86_64, runtime-detected).
//!
//! Two kinds of kernel run on this backend.
//!
//! * The elementwise ones — `dot`, `axpy`, `axpy4`, `axpy4x2` and
//!   `dequantize_add_q8` — and the Box–Muller block have no body
//!   here. [`compiled`] runs their safe source ([`super::scalar`], and
//!   `super::normal` for the sampler) with AVX2 enabled, and LLVM
//!   vectorizes it. The bits are the source's because the compiler
//!   keeps every IEEE operation: it does not fuse a multiply and an
//!   add into an FMA, nor reassociate float adds, whatever
//!   instruction set it targets.
//! * The rest are written out in intrinsics, where the compiler's
//!   vector code measured well short of them: the blocked products,
//!   the q8 scan and quantize, sign packing, the PSNR reductions, the
//!   box filter and the lane-parallel sums.
//!   Each performs, per lane, the *identical sequence of IEEE
//!   operations* as its scalar reference: separate multiply then add
//!   (never a fused multiply-add, which would round once instead of
//!   twice), the same fixed lane-combine order for reductions, and
//!   the same sequential scalar tail. The parity suite
//!   (`crates/tensor/tests/simd_parity.rs`) pins the resulting
//!   bit-identity; if a kernel here is ever "optimized" with FMA or a
//!   horizontal-add shuffle, that suite is the tripwire.
//!
//! # Safety
//!
//! Every function is `#[target_feature(enable = "avx2")]` and thus
//! unsafe to call: the caller must guarantee the CPU supports AVX2.
//! The only callers are the dispatchers in [`super`], which reach
//! this module exclusively through a [`super::Backend::Avx2`] or
//! [`super::Backend::Avx512`] value, and neither is ever constructed
//! before `is_x86_feature_detected!("avx2")` returned true (at env
//! resolution or via the availability assert in
//! [`super::with_backend`]). No other invariant is required: all
//! loads/stores use unaligned forms, and slice bounds are the same
//! ones the scalar reference checks. Where a kernel loads through a
//! raw pointer, the pointer comes from a bounds-checked subslice taken
//! just before, and the offsets added to it stay inside that subslice.
//! [`compiled`] adds nothing to check: its body is safe code.
#![allow(unsafe_op_in_unsafe_fn)]

use std::arch::x86_64::*;

use super::scalar;
use super::{DOT_LANES, NORM_LANES, SQ_BOUND_CHUNKS, SQ_TILE};

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

/// Runs `f` with AVX2 enabled: a safe kernel body inlined into `f` is
/// vectorized for this backend, with the same IEEE operations in the
/// same order (see the module docs).
///
/// # Safety
///
/// The CPU must support AVX2.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn compiled<R>(f: impl FnOnce() -> R) -> R {
    f()
}

/// The end of one [`scalar::dot`]: the fixed lane combine of `acc`
/// plus the sequential tail of `a[from..] · b[from..]`.
#[target_feature(enable = "avx2")]
unsafe fn finish_dot(acc: __m256, a: &[f32], b: &[f32], from: usize) -> f32 {
    let l = lanes_f32(acc);
    let mut tail = 0.0f32;
    for (&x, &y) in a[from..].iter().zip(&b[from..]) {
        tail += x * y;
    }
    ((l[0] + l[4]) + (l[1] + l[5])) + ((l[2] + l[6]) + (l[3] + l[7])) + tail
}

/// A rows per [`matmul_nt_rows`] register tile.
const NT_ROWS: usize = 6;

/// B rows per [`matmul_nt_rows`] register tile.
const NT_COLS: usize = 2;

/// Eight-lane chunks per k-block of [`matmul_nt_rows`]: a tile's A
/// rows over one k-block (24 KiB) stay in L1.
const NT_KC: usize = 128;

/// Bytes of B rows per [`matmul_nt_rows`] panel, sized to stay in L2
/// while every A tile of the row range streams past it.
const NT_PANEL_BYTES: usize = 512 * 1024;

/// See [`scalar::matmul_nt_rows`]: each output's eight
/// [`scalar::dot`] lanes live in one f32x8 accumulator, and the loops
/// are blocked around it.
///
/// * B rows go in panels of at most [`NT_PANEL_BYTES`], so B is read
///   from memory once per call instead of once per A tile.
/// * Within a panel, each tile of [`NT_ROWS`] A rows walks the k-axis
///   in blocks of [`NT_KC`] chunks. A block's A rows stay in L1 while
///   every [`NT_COLS`] B rows of the panel pass: the tile's
///   accumulators run the block in registers, then wait in `parked`
///   until the next block resumes them. Lanes still add their chunks
///   in order, so every output is [`scalar::dot`]'s sequence, bit for
///   bit.
/// * After the last block, each output gets [`scalar::dot`]'s combine
///   and tail.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn matmul_nt_rows(a: &[f32], b: &[f32], k: usize, row0: usize, out: &mut [f32]) {
    let n = b.len() / k;
    if n == 0 || out.is_empty() {
        return;
    }
    let rows = out.len() / n;
    let a = &a[row0 * k..(row0 + rows) * k];
    let chunks = k / 8;
    let panels = n.div_ceil((NT_PANEL_BYTES / (4 * k)).max(NT_COLS));
    let panel_rows = n.div_ceil(panels).next_multiple_of(NT_COLS);
    let mut parked = vec![_mm256_setzero_ps(); NT_ROWS * panel_rows];
    for j0 in (0..n).step_by(panel_rows) {
        let panel = &b[j0 * k..(j0 + panel_rows).min(n) * k];
        for t0 in (0..rows).step_by(NT_ROWS) {
            let h = NT_ROWS.min(rows - t0);
            let a_tile = &a[t0 * k..(t0 + h) * k];
            let out_tile = &mut out[t0 * n..(t0 + h) * n];
            match h {
                6 => nt_tile::<6>(a_tile, panel, k, chunks, &mut parked, out_tile, j0),
                5 => nt_tile::<5>(a_tile, panel, k, chunks, &mut parked, out_tile, j0),
                4 => nt_tile::<4>(a_tile, panel, k, chunks, &mut parked, out_tile, j0),
                3 => nt_tile::<3>(a_tile, panel, k, chunks, &mut parked, out_tile, j0),
                2 => nt_tile::<2>(a_tile, panel, k, chunks, &mut parked, out_tile, j0),
                _ => nt_tile::<1>(a_tile, panel, k, chunks, &mut parked, out_tile, j0),
            }
        }
    }
}

/// One tile of `R` A rows against one panel of B rows (see
/// [`matmul_nt_rows`]); writes the outputs of columns
/// `j0..j0 + panel rows` of the tile's output rows. An odd last panel
/// row is paired with itself, and its duplicate output dropped.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn nt_tile<const R: usize>(
    a: &[f32],
    panel: &[f32],
    k: usize,
    chunks: usize,
    parked: &mut [__m256],
    out: &mut [f32],
    j0: usize,
) {
    let n = out.len() / R;
    let cols = panel.len() / k;
    let ar: [&[f32]; R] = std::array::from_fn(|r| &a[r * k..(r + 1) * k]);
    let mut kc0 = 0;
    loop {
        let kc1 = (kc0 + NT_KC).min(chunks);
        for (pair, j) in (0..cols).step_by(NT_COLS).enumerate() {
            let j1 = (j + 1).min(cols - 1);
            let br = [&panel[j * k..(j + 1) * k], &panel[j1 * k..(j1 + 1) * k]];
            let slot = &mut parked[pair * NT_ROWS * NT_COLS..][..NT_ROWS * NT_COLS];
            let mut acc = [[_mm256_setzero_ps(); NT_COLS]; R];
            if kc0 > 0 {
                for (r, acc) in acc.iter_mut().enumerate() {
                    acc.copy_from_slice(&slot[r * NT_COLS..(r + 1) * NT_COLS]);
                }
            }
            for c in kc0..kc1 {
                let vb0 = _mm256_loadu_ps(br[0].as_ptr().add(c * 8));
                let vb1 = _mm256_loadu_ps(br[1].as_ptr().add(c * 8));
                for (acc, ar) in acc.iter_mut().zip(&ar) {
                    let va = _mm256_loadu_ps(ar.as_ptr().add(c * 8));
                    acc[0] = _mm256_add_ps(acc[0], _mm256_mul_ps(va, vb0));
                    acc[1] = _mm256_add_ps(acc[1], _mm256_mul_ps(va, vb1));
                }
            }
            if kc1 < chunks {
                for (r, acc) in acc.iter().enumerate() {
                    slot[r * NT_COLS..(r + 1) * NT_COLS].copy_from_slice(acc);
                }
                continue;
            }
            for (r, acc) in acc.iter().enumerate() {
                for (c, &acc) in acc.iter().enumerate().take(cols - j) {
                    out[r * n + j0 + j + c] = finish_dot(acc, ar[r], br[c], chunks * 8);
                }
            }
        }
        if kc1 == chunks {
            break;
        }
        kc0 = kc1;
    }
}

/// Output columns per register tile and packed panel of
/// [`matmul_tn_rows`] and [`clip_sum`]: one output row's
/// [`ROW_VECS`] f32x8 accumulators.
const ROW_TILE: usize = 8 * ROW_VECS;

/// f32x8 accumulators per [`ROW_TILE`].
const ROW_VECS: usize = 8;

/// Output rows that share one pass over a packed panel (kept in L1)
/// in [`matmul_tn_rows`] and [`clip_sum`].
const ROW_BLOCK: usize = 16;

/// Most k-steps per packed panel of [`matmul_tn_rows`], a multiple of
/// four so no four-step block straddles two panels: a panel is at most
/// 32 KiB, inside L1.
const TN_KC: usize = 128;

/// Bytes of packed B panels per k-block of [`matmul_tn_rows`], sized
/// to stay in L2 while every block of rows sweeps them.
const TN_PACK_BYTES: usize = 1024 * 1024;

/// The eight accumulators of one output row segment (at most
/// [`ROW_TILE`] long); positions past its end read as `+0`.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn load_row(out: &[f32]) -> [__m256; ROW_VECS] {
    let mut buf = [0.0f32; ROW_TILE];
    let src = if out.len() == ROW_TILE {
        out
    } else {
        buf[..out.len()].copy_from_slice(out);
        &buf[..]
    };
    let mut acc = [_mm256_setzero_ps(); ROW_VECS];
    for (v, acc) in acc.iter_mut().enumerate() {
        *acc = _mm256_loadu_ps(src.as_ptr().add(8 * v));
    }
    acc
}

/// Stores [`load_row`]'s accumulators back, dropping positions past
/// the segment's end.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn store_row(acc: &[__m256; ROW_VECS], out: &mut [f32]) {
    let mut buf = [0.0f32; ROW_TILE];
    let full = out.len() == ROW_TILE;
    let dst = if full { &mut out[..] } else { &mut buf[..] };
    for (v, acc) in acc.iter().enumerate() {
        _mm256_storeu_ps(dst.as_mut_ptr().add(8 * v), *acc);
    }
    if !full {
        let w = out.len();
        out.copy_from_slice(&buf[..w]);
    }
}

thread_local! {
    /// Packed panels of [`matmul_tn_rows`] and [`clip_sum`], kept per
    /// thread so that each call reuses memory that is already mapped.
    static PANELS: std::cell::Cell<Vec<f32>> = const { std::cell::Cell::new(Vec::new()) };
}

/// Every row of `src` (`n` per row) cut into [`ROW_TILE`]-wide
/// panels: panel `pj`, row `p`, column `c` goes to
/// `(pj·rows + p)·ROW_TILE + c` of `packed`. Columns past the matrix
/// edge keep whatever `packed` held there: they only feed lanes that
/// are never stored. Returns whether every value of `src` is finite.
#[target_feature(enable = "avx2")]
unsafe fn pack_panels(src: &[f32], n: usize, packed: &mut Vec<f32>) -> bool {
    let rows = src.len() / n;
    let whole = n / ROW_TILE;
    let mut hit = _mm256_setzero_ps();
    let mut finite = true;
    packed.resize(n.div_ceil(ROW_TILE) * rows * ROW_TILE, 0.0);
    for (p, row) in src.chunks_exact(n).enumerate() {
        for pj in 0..whole {
            let from = row[pj * ROW_TILE..(pj + 1) * ROW_TILE].as_ptr();
            let to = packed[(pj * rows + p) * ROW_TILE..][..ROW_TILE].as_mut_ptr();
            for v in 0..ROW_VECS {
                let x = _mm256_loadu_ps(from.add(8 * v));
                hit = _mm256_or_ps(hit, non_finite(x));
                _mm256_storeu_ps(to.add(8 * v), x);
            }
        }
        let rest = &row[whole * ROW_TILE..];
        if !rest.is_empty() {
            packed[(whole * rows + p) * ROW_TILE..][..rest.len()].copy_from_slice(rest);
            finite &= rest.iter().all(|v| v.is_finite());
        }
    }
    finite && _mm256_movemask_ps(hit) == 0
}

/// A run of k-steps one output row of [`matmul_tn_rows`] adds as one
/// sum: the steps `q + at[i]` for `i < len`, in order.
#[derive(Clone, Copy)]
struct Terms {
    q: u32,
    len: u8,
    at: [u8; 4],
}

/// See [`scalar::matmul_tn_rows`]: each output row segment of
/// [`ROW_TILE`] columns stays in eight registers over a packed panel
/// of B, so it is loaded and stored once per k-block rather than once
/// per four k-steps.
///
/// B is packed into panels one k-block at a time, the block sized so
/// its panels stay in L2 ([`TN_PACK_BYTES`]) and each one in L1
/// ([`TN_KC`]). Each [`ROW_BLOCK`] of output rows lists, per row, the
/// four-step blocks with a nonzero coefficient (then the single steps
/// past them with one), exactly the sums the scalar specification
/// does not skip, and sweeps every panel with those lists. Each listed
/// block adds `((a0·b0 + a1·b1) + a2·b2) + a3·b3`, the scalar
/// sequence.
///
/// When B is finite, a listed block adds only its nonzero-coefficient
/// terms, in order. That is exact: a dropped term `0·b` is `±0`, and
/// adding a zero to a nonzero partial sum leaves it unchanged, so the
/// block's sum can differ only in the sign of a zero, which the output
/// (never `−0`) absorbs. With a non-finite B, `0·b` may be NaN, so
/// every block adds all four terms.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn matmul_tn_rows(
    a: &[f32],
    b: &[f32],
    m: usize,
    n: usize,
    i0: usize,
    out: &mut [f32],
) {
    if m == 0 || n == 0 || out.is_empty() {
        return;
    }
    let rows = out.len() / n;
    let k = a.len() / m;
    let blocks = k / 4 * 4;
    let panels = n.div_ceil(ROW_TILE);
    let kc = (TN_PACK_BYTES / (4 * panels * ROW_TILE)).clamp(4, TN_KC) / 4 * 4;
    let mut packed = PANELS.take();
    // One row block's coefficients for the k-block (row-major, `kc`
    // per row), and per row its sums: `live[ends[r - 1]..ends[r]]`.
    let mut coeff = vec![0.0f32; ROW_BLOCK * kc];
    let mut live: Vec<Terms> = Vec::new();
    let mut ends = [0usize; ROW_BLOCK];
    for kc0 in (0..k).step_by(kc) {
        let kc1 = (kc0 + kc).min(k);
        let steps = kc1 - kc0;
        let quads = kc1.min(blocks).saturating_sub(kc0);
        let finite = pack_panels(&b[kc0 * n..kc1 * n], n, &mut packed);
        for r0 in (0..rows).step_by(ROW_BLOCK) {
            let h = ROW_BLOCK.min(rows - r0);
            live.clear();
            for (r, (c, end)) in coeff
                .chunks_exact_mut(kc)
                .zip(&mut ends)
                .take(h)
                .enumerate()
            {
                let col = i0 + r0 + r;
                for (q, c) in c[..steps].iter_mut().enumerate() {
                    *c = a[(kc0 + q) * m + col];
                }
                for q in (0..quads).step_by(4) {
                    let block = &c[q..q + 4];
                    if block == [0.0; 4] {
                        continue;
                    }
                    let mut sum = Terms {
                        q: q as u32,
                        len: 0,
                        at: [0; 4],
                    };
                    for (i, &v) in block.iter().enumerate() {
                        if v != 0.0 || !finite {
                            sum.at[usize::from(sum.len)] = i as u8;
                            sum.len += 1;
                        }
                    }
                    live.push(sum);
                }
                for (q, &c) in c.iter().enumerate().take(steps).skip(quads) {
                    if c != 0.0 {
                        live.push(Terms {
                            q: q as u32,
                            len: 1,
                            at: [0; 4],
                        });
                    }
                }
                *end = live.len();
            }
            for (pj, j0) in (0..n).step_by(ROW_TILE).enumerate() {
                let panel = &packed[pj * steps * ROW_TILE..(pj + 1) * steps * ROW_TILE];
                let w = ROW_TILE.min(n - j0);
                let mut start = 0;
                for (r, &end) in ends.iter().take(h).enumerate() {
                    let row_live = &live[start..end];
                    start = end;
                    if row_live.is_empty() {
                        continue;
                    }
                    let dst = &mut out[(r0 + r) * n + j0..][..w];
                    // The first k-block starts from the `+0` that `out`
                    // holds on entry.
                    let acc = if kc0 == 0 {
                        [_mm256_setzero_ps(); ROW_VECS]
                    } else {
                        load_row(dst)
                    };
                    let acc = tn_row(acc, row_live, &coeff[r * kc..][..steps], panel);
                    store_row(&acc, dst);
                }
            }
        }
    }
    PANELS.set(packed);
}

/// One output row segment of [`matmul_tn_rows`] over one packed panel:
/// each listed sum in order, added to the segment. `c` holds the row's
/// coefficients for the panel's k-steps.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn tn_row(
    mut acc: [__m256; ROW_VECS],
    live: &[Terms],
    c: &[f32],
    panel: &[f32],
) -> [__m256; ROW_VECS] {
    for t in live {
        let q = t.q as usize;
        match t.len {
            1 => add_terms::<1>(&mut acc, t, q, c, panel),
            2 => add_terms::<2>(&mut acc, t, q, c, panel),
            3 => add_terms::<3>(&mut acc, t, q, c, panel),
            _ => add_terms::<4>(&mut acc, t, q, c, panel),
        }
    }
    acc
}

/// Adds `((c_0·b_0 + c_1·b_1) + …) + c_{N−1}·b_{N−1}` over the steps
/// `q + t.at[i]`, `i < N`, to every lane of the segment.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn add_terms<const N: usize>(
    acc: &mut [__m256; ROW_VECS],
    t: &Terms,
    q: usize,
    c: &[f32],
    panel: &[f32],
) {
    let mut cv = [_mm256_setzero_ps(); N];
    let mut b = [std::ptr::null::<f32>(); N];
    for i in 0..N {
        let step = q + usize::from(t.at[i]);
        cv[i] = _mm256_set1_ps(c[step]);
        b[i] = panel[step * ROW_TILE..(step + 1) * ROW_TILE].as_ptr();
    }
    for (v, acc) in acc.iter_mut().enumerate() {
        let mut sum = _mm256_mul_ps(cv[0], _mm256_loadu_ps(b[0].add(8 * v)));
        for i in 1..N {
            sum = _mm256_add_ps(sum, _mm256_mul_ps(cv[i], _mm256_loadu_ps(b[i].add(8 * v))));
        }
        *acc = _mm256_add_ps(*acc, sum);
    }
}

/// See [`scalar::clip_sum`]: each output row segment of [`ROW_TILE`]
/// columns stays in eight registers over a packed panel of every
/// sample's inputs. Each [`ROW_BLOCK`] of output rows lists, per row,
/// the samples with `δ_si ≠ 0` (the scalar specification's terms) and
/// sweeps every panel with those lists, so a panel stays in L1 while
/// the block's rows pass. Each term is `scale_s·(δ_si·x_sj)`, added in
/// sample order; the finished segment is scaled by `inv_b` on the way
/// out.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn clip_sum(
    x: &[f32],
    delta: &[f32],
    scales: &[f32],
    inv_b: f32,
    out: &mut [f32],
) {
    let b = scales.len();
    let (d, n) = (x.len() / b, delta.len() / b);
    if d == 0 || n == 0 {
        return;
    }
    let mut packed = PANELS.take();
    pack_panels(x, d, &mut packed);
    let vinv = _mm256_set1_ps(inv_b);
    // Per row of one row block, its terms `(s, δ_si, scale_s)`:
    // `live[ends[r - 1]..ends[r]]`.
    let mut live: Vec<(u32, f32, f32)> = Vec::with_capacity(ROW_BLOCK * b);
    let mut ends = [0usize; ROW_BLOCK];
    for r0 in (0..n).step_by(ROW_BLOCK) {
        let h = ROW_BLOCK.min(n - r0);
        live.clear();
        for (r, end) in ends.iter_mut().take(h).enumerate() {
            for (s, (row, &scale)) in delta.chunks_exact(n).zip(scales).enumerate() {
                let c = row[r0 + r];
                if c != 0.0 {
                    live.push((s as u32, c, scale));
                }
            }
            *end = live.len();
        }
        for (pj, j0) in (0..d).step_by(ROW_TILE).enumerate() {
            let panel = &packed[pj * b * ROW_TILE..(pj + 1) * b * ROW_TILE];
            let w = ROW_TILE.min(d - j0);
            let mut start = 0;
            for (r, &end) in ends.iter().take(h).enumerate() {
                let mut acc = clip_row(&live[start..end], panel);
                start = end;
                for acc in &mut acc {
                    *acc = _mm256_mul_ps(*acc, vinv);
                }
                store_row(&acc, &mut out[(r0 + r) * d + j0..][..w]);
            }
        }
    }
    PANELS.set(packed);
}

/// One output row segment of [`clip_sum`] over one packed panel: the
/// row's terms `(s, δ_si, scale_s)` in sample order, from `+0`.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn clip_row(terms: &[(u32, f32, f32)], panel: &[f32]) -> [__m256; ROW_VECS] {
    let mut acc = [_mm256_setzero_ps(); ROW_VECS];
    for &(s, c, scale) in terms {
        let s = s as usize;
        let xs = panel[s * ROW_TILE..(s + 1) * ROW_TILE].as_ptr();
        let vc = _mm256_set1_ps(c);
        let vs = _mm256_set1_ps(scale);
        for (v, acc) in acc.iter_mut().enumerate() {
            let t = _mm256_mul_ps(vs, _mm256_mul_ps(vc, _mm256_loadu_ps(xs.add(8 * v))));
            *acc = _mm256_add_ps(*acc, t);
        }
    }
    acc
}

/// All-ones in each lane of `x` that is ±∞ or NaN (all exponent bits
/// set).
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn non_finite(x: __m256) -> __m256 {
    let exp = _mm256_castsi256_ps(_mm256_set1_epi32(0x7f80_0000));
    _mm256_cmp_ps::<_CMP_EQ_OQ>(_mm256_and_ps(x, exp), exp)
}

/// Whether every value of `x` is finite.
#[target_feature(enable = "avx2")]
unsafe fn all_finite(x: &[f32]) -> bool {
    let mut hit = _mm256_setzero_ps();
    let chunks = x.len() / 8;
    for c in 0..chunks {
        hit = _mm256_or_ps(hit, non_finite(_mm256_loadu_ps(x.as_ptr().add(c * 8))));
    }
    _mm256_movemask_ps(hit) == 0 && x[chunks * 8..].iter().all(|v| v.is_finite())
}

/// f32x8 registers per [`NORM_LANES`] samples.
const NORM_VECS: usize = NORM_LANES / 8;

/// See [`scalar::masked_sq_norms`]: the [`NORM_LANES`] samples run in
/// [`NORM_VECS`] f32x8 accumulators, that many independent add chains.
/// A zero-δ lane adds `(0·x)² = +0` when `x` is finite, which leaves
/// its sum unchanged; only when an input is non-finite is the product
/// masked.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn masked_sq_norms(
    delta: &[[f32; NORM_LANES]],
    x: &[[f32; NORM_LANES]],
) -> [f32; NORM_LANES] {
    if all_finite(x.as_flattened()) {
        sq_norms::<false>(delta, x)
    } else {
        sq_norms::<true>(delta, x)
    }
}

/// [`masked_sq_norms`], masking zero-δ products when `MASKED`.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn sq_norms<const MASKED: bool>(
    delta: &[[f32; NORM_LANES]],
    x: &[[f32; NORM_LANES]],
) -> [f32; NORM_LANES] {
    let zero = _mm256_setzero_ps();
    let mut acc = [zero; NORM_VECS];
    for dv in delta {
        let mut d = [zero; NORM_VECS];
        let mut keep = [zero; NORM_VECS];
        for h in 0..NORM_VECS {
            d[h] = _mm256_loadu_ps(dv.as_ptr().add(8 * h));
            keep[h] = _mm256_cmp_ps::<_CMP_NEQ_UQ>(d[h], zero);
        }
        for xv in x {
            for h in 0..NORM_VECS {
                let mut p = _mm256_mul_ps(d[h], _mm256_loadu_ps(xv.as_ptr().add(8 * h)));
                if MASKED {
                    p = _mm256_and_ps(p, keep[h]);
                }
                acc[h] = _mm256_add_ps(acc[h], _mm256_mul_ps(p, p));
            }
        }
    }
    let mut out = [0.0f32; NORM_LANES];
    for (h, acc) in acc.iter().enumerate() {
        _mm256_storeu_ps(out.as_mut_ptr().add(8 * h), *acc);
    }
    out
}

/// See [`scalar::sq_and_sums8`]: eight values of each vector are
/// loaded at a time and transposed in registers, so one f32x8 holds
/// element `k` of all eight vectors; its squares add to one f32x8
/// accumulator and its f64 widenings to two f64x4 ones, in ascending
/// `k`. The last `n mod 8` elements run the scalar lanes.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn sq_and_sums8(x: [&[f32]; 8]) -> ([f32; 8], [f64; 8]) {
    let n = x[0].len();
    let x = x.map(|v| &v[..n]);
    let sq_start: f32 = std::iter::empty::<f32>().sum();
    let sum_start: f64 = std::iter::empty::<f64>().sum();
    let mut sq = _mm256_set1_ps(sq_start);
    let (mut lo, mut hi) = (_mm256_set1_pd(sum_start), _mm256_set1_pd(sum_start));
    let full = n / 8 * 8;
    for k in (0..full).step_by(8) {
        let mut r = [sq; 8];
        for (r, v) in r.iter_mut().zip(&x) {
            // k + 8 <= full <= v.len().
            *r = _mm256_loadu_ps(v.as_ptr().add(k));
        }
        for v in transpose8(r) {
            sq = _mm256_add_ps(sq, _mm256_mul_ps(v, v));
            lo = _mm256_add_pd(lo, _mm256_cvtps_pd(_mm256_castps256_ps128(v)));
            hi = _mm256_add_pd(hi, _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(v)));
        }
    }
    let mut sq = lanes_f32(sq);
    let (lo, hi) = (lanes_f64(lo), lanes_f64(hi));
    let mut sum: [f64; 8] = std::array::from_fn(|j| if j < 4 { lo[j] } else { hi[j - 4] });
    for v in (full..n).map(|k| x.map(|x| x[k])) {
        for j in 0..8 {
            sq[j] += v[j] * v[j];
            sum[j] += v[j] as f64;
        }
    }
    (sq, sum)
}

/// The 8 × 8 transpose: output `k` holds element `k` of every input.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn transpose8(r: [__m256; 8]) -> [__m256; 8] {
    // Within each 128-bit half: pairs, then fours.
    let t: [__m256; 8] = [
        _mm256_unpacklo_ps(r[0], r[1]),
        _mm256_unpackhi_ps(r[0], r[1]),
        _mm256_unpacklo_ps(r[2], r[3]),
        _mm256_unpackhi_ps(r[2], r[3]),
        _mm256_unpacklo_ps(r[4], r[5]),
        _mm256_unpackhi_ps(r[4], r[5]),
        _mm256_unpacklo_ps(r[6], r[7]),
        _mm256_unpackhi_ps(r[6], r[7]),
    ];
    // q[i] holds element i (low half) and i + 4 (high half) of inputs
    // 0–3, q[4 + i] the same of inputs 4–7.
    let q: [__m256; 8] = [
        _mm256_shuffle_ps::<0x44>(t[0], t[2]),
        _mm256_shuffle_ps::<0xEE>(t[0], t[2]),
        _mm256_shuffle_ps::<0x44>(t[1], t[3]),
        _mm256_shuffle_ps::<0xEE>(t[1], t[3]),
        _mm256_shuffle_ps::<0x44>(t[4], t[6]),
        _mm256_shuffle_ps::<0xEE>(t[4], t[6]),
        _mm256_shuffle_ps::<0x44>(t[5], t[7]),
        _mm256_shuffle_ps::<0xEE>(t[5], t[7]),
    ];
    [
        _mm256_permute2f128_ps::<0x20>(q[0], q[4]),
        _mm256_permute2f128_ps::<0x20>(q[1], q[5]),
        _mm256_permute2f128_ps::<0x20>(q[2], q[6]),
        _mm256_permute2f128_ps::<0x20>(q[3], q[7]),
        _mm256_permute2f128_ps::<0x31>(q[0], q[4]),
        _mm256_permute2f128_ps::<0x31>(q[1], q[5]),
        _mm256_permute2f128_ps::<0x31>(q[2], q[6]),
        _mm256_permute2f128_ps::<0x31>(q[3], q[7]),
    ]
}

/// f32x8 vectors per row of a [`lane_dots`] tile: half the group's
/// lanes, so the group runs as two tiles side by side.
const DOT_VECS: usize = 2;

/// Weight rows per [`lane_dots`] register tile: `DOT_ROWS × DOT_VECS`
/// accumulators, the `DOT_VECS` values of one `k` and a broadcast
/// weight fill 15 of the 16 registers.
const DOT_ROWS: usize = 6;

/// See [`scalar::lane_dots`]: a register tile of [`DOT_ROWS`] weight
/// rows × half the group's [`DOT_LANES`] lanes loads each `x[k]` half
/// once for all its rows, so the group streams from cache twice per
/// tile of rows rather than once per row. Every lane keeps the scalar
/// add sequence.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn lane_dots(w: &[f32], x: &[[f32; DOT_LANES]], out: &mut [[f32; DOT_LANES]]) {
    let d = x.len();
    let (mut w, mut out) = (w, out);
    while !out.is_empty() {
        // Full tiles, then the leftover rows one at a time.
        let rows = if out.len() >= DOT_ROWS { DOT_ROWS } else { 1 };
        let (tile_w, rest_w) = w.split_at(rows * d);
        let (tile_out, rest_out) = std::mem::take(&mut out).split_at_mut(rows);
        for lane0 in (0..DOT_LANES).step_by(8 * DOT_VECS) {
            if rows == DOT_ROWS {
                dots_tile::<DOT_ROWS>(tile_w, x, lane0, tile_out);
            } else {
                dots_tile::<1>(tile_w, x, lane0, tile_out);
            }
        }
        (w, out) = (rest_w, rest_out);
    }
}

/// `R` rows of [`lane_dots`] at lanes `lane0..lane0 + 8·DOT_VECS`: `w`
/// holds the `R` rows, `out` their outputs.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn dots_tile<const R: usize>(
    w: &[f32],
    x: &[[f32; DOT_LANES]],
    lane0: usize,
    out: &mut [[f32; DOT_LANES]],
) {
    let d = x.len();
    let (w, out) = (&w[..R * d], &mut out[..R]);
    assert!(lane0 + 8 * DOT_VECS <= DOT_LANES);
    let start = _mm256_set1_ps(std::iter::empty::<f32>().sum());
    let mut acc = [[start; DOT_VECS]; R];
    for (k, xk) in x.iter().enumerate() {
        let mut xv = [start; DOT_VECS];
        for (h, v) in xv.iter_mut().enumerate() {
            *v = _mm256_loadu_ps(xk.as_ptr().add(lane0 + 8 * h));
        }
        for (r, acc) in acc.iter_mut().enumerate() {
            // r·d + k < R·d = w.len().
            let wk = _mm256_set1_ps(*w.as_ptr().add(r * d + k));
            for (a, &v) in acc.iter_mut().zip(&xv) {
                *a = _mm256_add_ps(*a, _mm256_mul_ps(wk, v));
            }
        }
    }
    for (o, acc) in out.iter_mut().zip(&acc) {
        for (h, &a) in acc.iter().enumerate() {
            _mm256_storeu_ps(o.as_mut_ptr().add(lane0 + 8 * h), a);
        }
    }
}

/// See [`scalar::min_max_finite`]. min/max over finite floats is
/// fold-order independent except for signed zeros, which both backends
/// canonicalize to `+0.0` after the fold; a NaN lane can poison the
/// vector fold, but any non-finite value also sets the exponent flag
/// and the result is `None` regardless.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn min_max_finite(x: &[f32]) -> Option<(f32, f32)> {
    let chunks = x.len() / 8;
    let exponent = _mm256_set1_epi32(0x7f80_0000);
    let mut vlo = _mm256_set1_ps(f32::INFINITY);
    let mut vhi = _mm256_set1_ps(f32::NEG_INFINITY);
    let mut vbad = _mm256_setzero_si256();
    for c in 0..chunks {
        let v = _mm256_loadu_ps(x.as_ptr().add(c * 8));
        vlo = _mm256_min_ps(vlo, v);
        vhi = _mm256_max_ps(vhi, v);
        let e = _mm256_and_si256(_mm256_castps_si256(v), exponent);
        vbad = _mm256_or_si256(vbad, _mm256_cmpeq_epi32(e, exponent));
    }
    if _mm256_testz_si256(vbad, vbad) == 0 {
        return None;
    }
    let (mut lo, mut hi) = scalar::min_max_finite(&x[chunks * 8..])?;
    for l in lanes_f32(vlo) {
        lo = lo.min(l);
    }
    for l in lanes_f32(vhi) {
        hi = hi.max(l);
    }
    Some((
        if lo == 0.0 { 0.0 } else { lo },
        if hi == 0.0 { 0.0 } else { hi },
    ))
}

/// Distance from ½ below which [`quantize_q8`]'s f32 fast path hands a
/// block to the f64 specification: 2⁻¹², four times the fast path's
/// worst error (see there).
const Q8_GUARD: f32 = 1.0 / 4096.0;

/// See [`scalar::quantize_q8`]. Eight values at a time, first in f32
/// without a divider, under a rounding guard:
///
/// * the fast path computes `y = (v − lo)·(1/scale)` in f32, with
///   `1/scale` rounded once to f32. Each of the three roundings is
///   within a relative 2⁻²⁴ and the exact quotient is at most 255, so
///   `y` is within 255·4·2⁻²⁴ ≈ 2⁻¹⁴ of the exact `(v − lo)/scale`,
///   and the specification's f64 quotient is within 2⁻⁴⁵ of it;
/// * rounding is discontinuous only at half-integers, so when every
///   lane's fractional part is more than [`Q8_GUARD`] (2⁻¹²) from ½,
///   `y` and the f64 quotient round to the same level, and the fast
///   path's bytes are kept;
/// * otherwise (a value near a half level, or `y` infinite or NaN
///   because `v − lo` or `1/scale` overflowed f32, which fails every
///   ordered compare) the block is redone in f64 as the specification
///   does.
///
/// `f64::round` rounds half away from zero, which no AVX rounding mode
/// provides; for the kernel's non-negative domain the f64 path
/// emulates it exactly as `floor(x) + (x − floor(x) ≥ 0.5)`. The
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
    let flo = _mm256_set1_ps(lo);
    let inv = _mm256_set1_ps((1.0 / scale) as f32);
    let half = _mm256_set1_ps(0.5);
    let guard = _mm256_set1_ps(Q8_GUARD);
    let magnitude = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff));
    let one = _mm256_set1_ps(1.0);
    let top = _mm256_set1_ps(255.0);
    for c in 0..chunks {
        let p = src.as_ptr().add(c * 8);
        let y = _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(p), flo), inv);
        let fl = _mm256_floor_ps(y);
        let frac = _mm256_sub_ps(y, fl);
        let off_half = _mm256_and_ps(_mm256_sub_ps(frac, half), magnitude);
        let safe = _mm256_cmp_ps::<_CMP_GT_OQ>(off_half, guard);
        let bytes = if _mm256_movemask_ps(safe) == 0xff {
            let bump = _mm256_and_ps(_mm256_cmp_ps::<_CMP_GT_OQ>(frac, half), one);
            let level = _mm256_cvtps_epi32(_mm256_min_ps(_mm256_add_ps(fl, bump), top));
            let packed16 = _mm_packs_epi32(
                _mm256_castsi256_si128(level),
                _mm256_extracti128_si256::<1>(level),
            );
            _mm_packus_epi16(packed16, _mm_setzero_si128())
        } else {
            quantize8_f64(p, lo, scale)
        };
        _mm_storel_epi64(dst.as_mut_ptr().add(c * 8).cast(), bytes);
    }
    if chunks * 8 < n {
        scalar::quantize_q8(&src[chunks * 8..], lo, scale, &mut dst[chunks * 8..]);
    }
}

/// [`quantize_q8`]'s f64 path for the eight values at `p`: the
/// specification's quotient and rounding, levels in the low 8 bytes.
#[target_feature(enable = "avx2")]
unsafe fn quantize8_f64(p: *const f32, lo: f32, scale: f64) -> __m128i {
    let vlo = _mm256_set1_pd(f64::from(lo));
    let vscale = _mm256_set1_pd(scale);
    let quant4 = |p: *const f32| -> __m128i {
        let x = _mm256_div_pd(_mm256_sub_pd(_mm256_cvtps_pd(_mm_loadu_ps(p)), vlo), vscale);
        let fl = _mm256_floor_pd(x);
        let frac = _mm256_sub_pd(x, fl);
        let half = _mm256_set1_pd(0.5);
        let bump = _mm256_and_pd(_mm256_cmp_pd::<_CMP_GE_OQ>(frac, half), _mm256_set1_pd(1.0));
        let rounded = _mm256_add_pd(fl, bump);
        let clamped = _mm256_max_pd(
            _mm256_min_pd(rounded, _mm256_set1_pd(255.0)),
            _mm256_setzero_pd(),
        );
        _mm256_cvtpd_epi32(clamped)
    };
    let packed16 = _mm_packs_epi32(quant4(p), quant4(p.add(4)));
    _mm_packus_epi16(packed16, _mm_setzero_si128())
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
    sq_chunks(a, b, 0..chunks, &mut acc_lo, &mut acc_hi);
    finish_sq_err(acc_lo, acc_hi, a, b, chunks * 8)
}

/// The chunks `range` of a [`sq_err_sum`] into its two accumulators.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn sq_chunks(
    a: &[f32],
    b: &[f32],
    range: std::ops::Range<usize>,
    acc_lo: &mut __m256d,
    acc_hi: &mut __m256d,
) {
    for c in range {
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
        *acc_lo = _mm256_add_pd(*acc_lo, _mm256_mul_pd(d_lo, d_lo));
        *acc_hi = _mm256_add_pd(*acc_hi, _mm256_mul_pd(d_hi, d_hi));
    }
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
    let mut sum = combine_sq(acc_lo, acc_hi);
    for (&x, &y) in a[from..].iter().zip(&b[from..]) {
        let d = f64::from(x) - f64::from(y);
        sum += d * d;
    }
    sum
}

/// The fixed lane combine of [`sq_err_sum`]'s two f64x4 accumulators.
#[target_feature(enable = "avx2")]
unsafe fn combine_sq(acc_lo: __m256d, acc_hi: __m256d) -> f64 {
    let l = lanes_f64(acc_lo);
    let h = lanes_f64(acc_hi);
    ((l[0] + h[0]) + (l[1] + h[1])) + ((l[2] + h[2]) + (l[3] + h[3]))
}

/// The chunks `range` of a [`sq_err_tile`]: each chunk of `a` is
/// loaded and widened once, then squared against all four originals
/// into their lanes (`acc_lo`: lanes 0–3, `acc_hi`: lanes 4–7).
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn sq_tile_chunks(
    a: &[f32],
    b: [&[f32]; SQ_TILE],
    range: std::ops::Range<usize>,
    acc_lo: &mut [__m256d; SQ_TILE],
    acc_hi: &mut [__m256d; SQ_TILE],
) {
    for c in range {
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
    sq_tile_chunks(a, b, 0..chunks, &mut acc_lo, &mut acc_hi);
    let mut out = [0.0f64; SQ_TILE];
    for (j, v) in out.iter_mut().enumerate() {
        *v = finish_sq_err(acc_lo[j], acc_hi[j], a, b[j], chunks * 8);
    }
    out
}

/// See [`scalar::sq_err_tile_bounded`]: [`sq_err_tile`]'s loop in
/// blocks of [`SQ_BOUND_CHUNKS`] chunks, all four originals checked
/// at once after each block. An original above its bound keeps that
/// partial as its output. From the first checkpoint that stops one,
/// the others continue one at a time ([`sq_err_bounded_from`]).
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn sq_err_tile_bounded(
    a: &[f32],
    b: [&[f32]; SQ_TILE],
    bound: [f64; SQ_TILE],
) -> [f64; SQ_TILE] {
    debug_assert!(
        b.iter().all(|r| r.len() == a.len()),
        "sq_err_tile_bounded requires equal lengths"
    );
    let n = b.iter().map(|r| r.len()).fold(a.len(), usize::min);
    let chunks = n / 8;
    let mut acc_lo = [_mm256_setzero_pd(); SQ_TILE];
    let mut acc_hi = [_mm256_setzero_pd(); SQ_TILE];
    let bounds = _mm256_loadu_pd(bound.as_ptr());
    let mut out = [0.0f64; SQ_TILE];
    const ALL: i32 = (1 << SQ_TILE) - 1;
    let mut live = ALL;
    let mut c = 0;
    while live == ALL && c + SQ_BOUND_CHUNKS <= chunks {
        sq_tile_chunks(a, b, c..c + SQ_BOUND_CHUNKS, &mut acc_lo, &mut acc_hi);
        c += SQ_BOUND_CHUNKS;
        let partial = combine_sq_tile(&acc_lo, &acc_hi);
        // Ordered compare: a NaN partial is never above its bound.
        let above = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_GT_OQ>(partial, bounds));
        if above != 0 {
            let p = lanes_f64(partial);
            for j in 0..SQ_TILE {
                if above & (1 << j) != 0 {
                    out[j] = p[j];
                }
            }
            live &= !above;
        }
    }
    if live == ALL {
        sq_tile_chunks(a, b, c..chunks, &mut acc_lo, &mut acc_hi);
        for j in 0..SQ_TILE {
            out[j] = finish_sq_err(acc_lo[j], acc_hi[j], a, b[j], chunks * 8);
        }
        return out;
    }
    // Some original stopped at checkpoint `c`: the rest go on alone,
    // so a stopped one costs nothing more.
    for j in 0..SQ_TILE {
        if live & (1 << j) != 0 {
            out[j] = sq_err_bounded_from(a, b[j], acc_lo[j], acc_hi[j], c, chunks, bound[j]);
        }
    }
    out
}

/// The rest of one original's [`sq_err_tile_bounded`] from checkpoint
/// `from` (a multiple of [`SQ_BOUND_CHUNKS`]) with its lanes so far:
/// the same chunks, checkpoints and finish as in the tile.
#[target_feature(enable = "avx2")]
unsafe fn sq_err_bounded_from(
    a: &[f32],
    b: &[f32],
    mut acc_lo: __m256d,
    mut acc_hi: __m256d,
    from: usize,
    chunks: usize,
    bound: f64,
) -> f64 {
    let mut c = from;
    while c + SQ_BOUND_CHUNKS <= chunks {
        sq_chunks(a, b, c..c + SQ_BOUND_CHUNKS, &mut acc_lo, &mut acc_hi);
        c += SQ_BOUND_CHUNKS;
        let partial = combine_sq(acc_lo, acc_hi);
        if partial > bound {
            return partial;
        }
    }
    sq_chunks(a, b, c..chunks, &mut acc_lo, &mut acc_hi);
    finish_sq_err(acc_lo, acc_hi, a, b, chunks * 8)
}

/// [`combine_sq`] of all four originals at once, lane `j` holding
/// original `j`'s `((l0 + h0) + (l1 + h1)) + ((l2 + h2) + (l3 + h3))`:
/// the same adds on the same operands, so the same bits.
#[target_feature(enable = "avx2")]
unsafe fn combine_sq_tile(acc_lo: &[__m256d; SQ_TILE], acc_hi: &[__m256d; SQ_TILE]) -> __m256d {
    let s: [__m256d; SQ_TILE] = [
        _mm256_add_pd(acc_lo[0], acc_hi[0]),
        _mm256_add_pd(acc_lo[1], acc_hi[1]),
        _mm256_add_pd(acc_lo[2], acc_hi[2]),
        _mm256_add_pd(acc_lo[3], acc_hi[3]),
    ];
    // (s0[0] + s0[1], s1[0] + s1[1], s0[2] + s0[3], s1[2] + s1[3]).
    let h01 = _mm256_hadd_pd(s[0], s[1]);
    let h23 = _mm256_hadd_pd(s[2], s[3]);
    _mm256_add_pd(
        _mm256_permute2f128_pd::<0x20>(h01, h23),
        _mm256_permute2f128_pd::<0x31>(h01, h23),
    )
}

/// See [`scalar::box_sums8`]: one f32x8 accumulator per group, box
/// `k` in lane `k`. Four pixels of boxes `k` and `k + 4` load into the
/// two halves of one register; an in-lane 4×4 transpose of four such
/// registers yields one register per pixel column, added in column
/// order, so every box keeps its (y, x) add order. Up to four groups
/// run interleaved to hide the add latency of each box's serial sum.
/// Box widths that are not a multiple of four take the scalar loop.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn box_sums8(
    src: &[f32],
    step: usize,
    stride: usize,
    rows: usize,
    bw: usize,
    out: &mut [[f32; 8]],
) {
    if !bw.is_multiple_of(4) {
        return scalar::box_sums8(src, step, stride, rows, bw, out);
    }
    for (q, quad) in out.chunks_mut(4).enumerate() {
        let src = &src[q * 4 * step..];
        match quad.len() {
            4 => box_sums8_n::<4>(src, step, stride, rows, bw, quad),
            3 => box_sums8_n::<3>(src, step, stride, rows, bw, quad),
            2 => box_sums8_n::<2>(src, step, stride, rows, bw, quad),
            _ => box_sums8_n::<1>(src, step, stride, rows, bw, quad),
        }
    }
}

/// [`box_sums8`] of exactly `N` groups, their accumulators in
/// registers. `bw` is a multiple of four.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn box_sums8_n<const N: usize>(
    src: &[f32],
    step: usize,
    stride: usize,
    rows: usize,
    bw: usize,
    out: &mut [[f32; 8]],
) {
    let mut acc = [_mm256_setzero_ps(); N];
    for y in 0..rows {
        for x in (0..bw).step_by(4) {
            for (i, acc) in acc.iter_mut().enumerate() {
                let row = src[i * step + y * stride..][..8 * bw].as_ptr();
                let r0 = _mm256_loadu2_m128(row.add(4 * bw + x), row.add(x));
                let r1 = _mm256_loadu2_m128(row.add(5 * bw + x), row.add(bw + x));
                let r2 = _mm256_loadu2_m128(row.add(6 * bw + x), row.add(2 * bw + x));
                let r3 = _mm256_loadu2_m128(row.add(7 * bw + x), row.add(3 * bw + x));
                let t0 = _mm256_unpacklo_ps(r0, r1);
                let t1 = _mm256_unpackhi_ps(r0, r1);
                let t2 = _mm256_unpacklo_ps(r2, r3);
                let t3 = _mm256_unpackhi_ps(r2, r3);
                *acc = _mm256_add_ps(*acc, _mm256_shuffle_ps::<0x44>(t0, t2));
                *acc = _mm256_add_ps(*acc, _mm256_shuffle_ps::<0xEE>(t0, t2));
                *acc = _mm256_add_ps(*acc, _mm256_shuffle_ps::<0x44>(t1, t3));
                *acc = _mm256_add_ps(*acc, _mm256_shuffle_ps::<0xEE>(t1, t3));
            }
        }
    }
    for (o, acc) in out.iter_mut().zip(acc) {
        *o = lanes_f32(acc);
    }
}
