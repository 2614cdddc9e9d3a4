//! Runtime-dispatched SIMD kernels for the workspace's hot loops.
//!
//! The hot inner loops — matmul dot/axpy, the q8 codec's scan,
//! quantize, dequantize-and-add, sign packing, MSE
//! reduction, Gaussian sampling, calibration responses — each have a
//! scalar body, the specification. There are three backends:
//!
//! * `avx512` ([`Backend::Avx512`], `x86_64` with AVX2, AVX-512F and
//!   AVX-512DQ, runtime-detected): the AVX2 kernels, plus an f64x8
//!   Box–Muller sampler, its only kernel of its own;
//! * `avx2` ([`Backend::Avx2`], `x86_64` with AVX2): f32x8 kernels and
//!   an f64x4 Box–Muller sampler;
//! * `scalar` ([`Backend::Scalar`]): the portable reference,
//!   everywhere (including `aarch64`).
//!
//! The elementwise kernels — [`dot`], [`axpy`], `axpy4`, `axpy4x2`
//! and [`dequantize_add_q8`] — have no AVX2 body: on `avx2` and `avx512`
//! their scalar body runs compiled with AVX2 enabled, through one
//! trampoline (`dispatch!(compiled …)`), and LLVM vectorizes it. Every
//! other kernel has an AVX2 body written in intrinsics, kept where
//! the compiled scalar body measured well short of it.
//!
//! Dispatch is resolved **once per process** from the `OASIS_SIMD`
//! environment variable (`auto` | `avx512` | `avx2` | `scalar`,
//! mirroring `OASIS_THREADS`) plus CPU feature detection, then read
//! from a [`std::sync::OnceLock`]; per-call overhead is one relaxed
//! atomic load and a thread-local check. `auto` picks the first
//! available backend in that order, and `OASIS_SIMD=avx2` pins AVX2
//! without the AVX-512 sampler.
//!
//! [`sq_err_tile`] is a register tile over a pairwise kernel (one
//! reconstruction × 4 originals, for all-pairs PSNR): it loads each
//! chunk once for all its outputs, and each output keeps
//! [`sq_err_sum`]'s lane order, combine and tail, so it equals the
//! single-pair sum bit for bit. [`sq_err_tile_bounded`] is
//! [`sq_err_tile`] with early abandon: it runs the same lanes, checks a
//! per-original bound every [`SQ_BOUND_CHUNKS`] chunks and stops once
//! all four originals are above theirs; an output it does not abandon
//! is [`sq_err_sum`]'s. [`box_sums8`] is one output row of an
//! equal-width box filter (the coarse shrink of PSNR matching), eight
//! boxes in eight lanes.
//!
//! Two kernels run sequential sums side by side, one lane per sum, so
//! the lanes' add chains overlap while each keeps `Iterator::sum`'s
//! order. [`lane_dots`] (the quantile calibration's responses) dots
//! weight rows with a `k`-major group of [`DOT_LANES`] images; its
//! vector body holds a register tile of 6 rows × 16 lanes and loads
//! each half of `x[k]` once for all of its rows. [`sq_and_sums8`] (the
//! reconstruction dedupe's norms and means) takes eight vectors in
//! their own layout and, on the vector backend, transposes eight
//! values of each in registers.
//!
//! Four kernels carry the dense products of the client step, each
//! cache- and register-blocked on the vector backend and specified by
//! the scalar backend's plain loop:
//!
//! * `matmul_nt_rows` (`x · Wᵀ`): every output is the [`dot`] of its
//!   row pair. The vector backend walks panels of B rows sized for L2
//!   and k-blocks sized for L1, keeping each output's eight dot lanes
//!   in a 6 × 2 register tile and parking them between k-blocks.
//! * `matmul_tn_rows` (`δᵀ · x`): each output adds one four-step
//!   block at a time, skipping all-zero blocks. The vector backend
//!   holds 64 outputs of a row in registers over a packed panel of B
//!   and walks a per-row list of the blocks the specification keeps.
//! * [`clip_sum`] and [`masked_sq_norms`] (DP-SGD's per-sample clip
//!   and sum of rank-one gradients): the sum is `matmul_tn_rows`'s
//!   layout with one scaled term per nonzero δ; the norms run
//!   [`NORM_LANES`] samples in independent lanes.
//!
//! ## Bit-exactness contract
//!
//! The scalar backend is the reference semantics. The hand-written
//! vector kernels replicate its exact per-lane IEEE operation
//! sequence (separate multiply and add — never FMA — same fixed
//! lane-combine order, same sequential tails). The compiled ones are
//! the scalar source itself, and that keeps its bits on any target:
//! rustc neither fuses a multiply and an add into an FMA nor
//! reassociates float arithmetic, so LLVM vectorizes only what it can
//! vectorize exactly (independent elements, or the eight independent
//! lanes of [`dot`]). So **every kernel is bit-identical across
//! backends**, not merely close: golden fixtures, thread-determinism
//! suites, and bytes-on-wire (q8/sign payloads are part of the threat
//! model) hold under any `OASIS_SIMD` setting. The parity suite
//! (`tests/simd_parity.rs`) pins this across lane-boundary shapes,
//! holding the compiled kernels to their specification written out
//! per element.
//! That includes [`sq_err_tile_bounded`], whose abandoned outputs (the
//! partial sum at the checkpoint that stopped them) are bit-identical
//! too, and [`box_sums8`], whose vector backend keeps each box's
//! (y, x) add order by giving every box its own lane. Rust leaves NaN
//! payloads unspecified, so a NaN output is only pinned as NaN
//! ([`lane_dots`] and [`sq_and_sums8`] say so; the calibration redoes
//! its NaN responses sequentially).
//!
//! ### The guarded q8 quantize: [`quantize_q8`]
//!
//! [`quantize_q8`] is specified in f64, with one division per value.
//! The vector backend computes each level in f32 without a divider and
//! keeps an eight-value block only where that provably rounds like the
//! specification: its error is at most 255·4·2⁻²⁴ ≈ 2⁻¹⁴ of a level,
//! so a block is kept when every value's fraction is more than 2⁻¹²
//! from ½, and any other block is redone in f64 (the AVX2 kernel's
//! docs give the derivation). The bytes are the specification's by
//! construction; `tests/simd_parity.rs` pins them at half levels, at
//! ranges near `f32::MAX` and at subnormal ranges.
//!
//! ### The libm-referenced kernels: [`normal_pairs`] and [`cos_normals`]
//!
//! Two kernels follow a different rule. Their input is raw rng words,
//! two per Box–Muller draw: `u1 = 1 − U(w₀)` and `u2 = U(w₁)`, with
//! `U(w) = (w >> 11)·2⁻⁵³`. That is exactly the value `rand`'s
//! `gen::<f64>()` makes of the word, and every step is exact, so each
//! backend forms the uniforms itself (in registers on the vector ones)
//! and the stream equals a `gen::<f64>()` per uniform. It also fixes
//! the domain: `u1 ∈ [2⁻⁵³, 1]` and `u2 ∈ [0, 1 − 2⁻⁵³]`.
//!
//! The reference is the platform libm's f64 `ln`, `cos` and `sin`,
//! which no vector backend can replicate lane by lane. The AVX2 and
//! AVX-512 samplers evaluate in-repo polynomials instead (fdlibm's log
//! and sin/cos kernels, within 3 ulps of libm), so approximation is
//! allowed — but only inside a rounding guard. A lane's f64 result `v`
//! is accepted only when `|v|` is in f32's normal range and the 29
//! mantissa bits that rounding to f32 drops are more than
//! 2¹⁴ ulps from the rounding midpoint; every value within 2¹⁴ ulps of
//! `v`, the libm value among them, then rounds to the same f32. Draws
//! that fail the guard are recomputed by the scalar specification, and
//! so are the two cases the polynomials do not cover: `u1 = 1` (for the
//! sign of its zero output) and a reduced angle below 2⁻³⁰. The output
//! therefore still equals the scalar backend bit for bit, by
//! construction; about 1.2·10⁻⁴ of draws take the fallback.
//! [`cos_normals`] keeps only the cosine normal of each draw and never
//! forms or guards the sine normal. The parity suite for these kernels is
//! `tests/normal_parity.rs`.
//!
//! ## Safety
//!
//! This module's `unsafe` (the dispatchers here and the kernels in
//! `avx2.rs` and `avx512.rs`) exists because calling a
//! `#[target_feature]` function requires the CPU feature. For the
//! compiled kernels that call, to the trampoline, is the only
//! `unsafe`: their body is safe scalar code. The invariant is
//! enforced structurally:
//! a feature-gated [`Backend`] value is only obtainable after its
//! detection predicate passed ([`Backend::detect`] checks
//! `is_x86_feature_detected!`, [`with_backend`] asserts
//! [`Backend::is_available`]). `avx2.rs` and `avx512.rs` document
//! this at the top; the dispatchers carry the per-call SAFETY notes.
//!
//! It is not the workspace's only `unsafe`. The worker pool erases
//! task lifetimes in `pool.rs` (sound because `run_tasks` joins every
//! task before it returns), and `oasis-wire`'s frame format casts
//! aligned f32 payloads to and from bytes. CI runs `oasis-wire` and this crate's
//! pool, parallel and dispatch unit tests under miri (with
//! `OASIS_SIMD=scalar`). The compiled kernels hold no `unsafe` beyond
//! the trampoline call, and their body is the scalar source that
//! CI's forced-scalar steps run. The hand-written AVX2 and AVX-512
//! kernels are not miri-checked and are held by the parity suites and
//! the forced-scalar end-to-end reference check instead.

use std::cell::Cell;
use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
mod avx2;
#[cfg(target_arch = "x86_64")]
mod avx512;
pub(crate) mod scalar;

/// Samples per [`masked_sq_norms`] call: one independent lane each.
pub const NORM_LANES: usize = 32;

/// Originals per [`sq_err_tile`].
pub const SQ_TILE: usize = 4;

/// Eight-lane chunks between the checkpoints of
/// [`sq_err_tile_bounded`] (128 elements).
pub const SQ_BOUND_CHUNKS: usize = 16;

/// Vectors per [`lane_dots`] group: one accumulator lane each.
pub const DOT_LANES: usize = 32;

/// A SIMD instruction-set backend the kernels can dispatch to.
///
/// All variants exist on every architecture so `OASIS_SIMD` values
/// parse uniformly; [`Backend::is_available`] reports whether the
/// current CPU can actually execute a variant, and only available
/// backends can become active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The AVX2 kernels plus an f64x8 Box–Muller sampler (`x86_64`
    /// with runtime-detected AVX2, AVX-512F and AVX-512DQ).
    Avx512,
    /// AVX2 f32x8 kernels (`x86_64` with runtime-detected AVX2).
    Avx2,
    /// Portable scalar reference kernels (always available).
    Scalar,
}

impl Backend {
    /// Every variant, best first.
    pub const ALL: [Backend; 3] = [Backend::Avx512, Backend::Avx2, Backend::Scalar];

    /// Best backend the current CPU supports.
    pub fn detect() -> Backend {
        Backend::ALL
            .into_iter()
            .find(|b| b.is_available())
            .unwrap_or(Backend::Scalar)
    }

    /// Whether this backend can execute on the current CPU.
    pub fn is_available(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512 => {
                is_x86_feature_detected!("avx2")
                    && is_x86_feature_detected!("avx512f")
                    && is_x86_feature_detected!("avx512dq")
            }
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            Backend::Avx512 | Backend::Avx2 => false,
            Backend::Scalar => true,
        }
    }

    /// Stable lowercase name (the `OASIS_SIMD` spelling); used in
    /// bench records and logs.
    pub fn label(self) -> &'static str {
        match self {
            Backend::Avx512 => "avx512",
            Backend::Avx2 => "avx2",
            Backend::Scalar => "scalar",
        }
    }
}

/// Parses an `OASIS_SIMD` value. `Some(backend)` forces that backend
/// *if available*; `None` means auto-detect (also the fallback for
/// unknown strings and for explicit choices the CPU lacks — a config
/// asking for `avx2` on an ARM host degrades gracefully rather than
/// aborting every process).
fn parse_choice(v: &str) -> Option<Backend> {
    let forced = match v.trim().to_ascii_lowercase().as_str() {
        "avx512" => Backend::Avx512,
        "avx2" => Backend::Avx2,
        "scalar" => return Some(Backend::Scalar),
        _ => return None, // "auto", empty, unknown
    };
    forced.is_available().then_some(forced)
}

/// The process-wide backend: `OASIS_SIMD` if it names an available
/// backend, otherwise [`Backend::detect`]. Resolved once.
pub fn resolved() -> Backend {
    static RESOLVED: OnceLock<Backend> = OnceLock::new();
    *RESOLVED.get_or_init(|| {
        std::env::var("OASIS_SIMD")
            .ok()
            .and_then(|v| parse_choice(&v))
            .unwrap_or_else(Backend::detect)
    })
}

thread_local! {
    /// Per-thread override installed by [`with_backend`].
    static BACKEND_OVERRIDE: Cell<Option<Backend>> = const { Cell::new(None) };
}

/// The backend kernel calls on the current thread will use: a
/// [`with_backend`] override if one is installed, else [`resolved`].
pub fn active() -> Backend {
    BACKEND_OVERRIDE.get().unwrap_or_else(resolved)
}

/// Runs `f` with the kernel backend pinned to `backend` on the
/// current thread, restoring the previous setting on exit — including
/// on panic.
///
/// This is the process-internal way to compare backends (the perf
/// suite's `_simd`/`_scalar` record pairs, the parity tests): unlike
/// mutating `OASIS_SIMD`, it is race-free under concurrent tests.
/// Parallel fronts propagate the override into pool workers, so a
/// pinned region stays pinned even when the kernel inside it
/// dispatches to the pool.
///
/// # Panics
///
/// Panics if `backend` is not [available](Backend::is_available) on
/// this CPU — pinning an unsupported instruction set would otherwise
/// be undefined behavior at the first kernel call.
pub fn with_backend<R>(backend: Backend, f: impl FnOnce() -> R) -> R {
    assert!(
        backend.is_available(),
        "backend {} is not available on this CPU",
        backend.label()
    );
    struct Restore(Option<Backend>);
    impl Drop for Restore {
        fn drop(&mut self) {
            BACKEND_OVERRIDE.set(self.0);
        }
    }
    let _restore = Restore(BACKEND_OVERRIDE.replace(Some(backend)));
    f()
}

/// The current thread's [`with_backend`] override, if any — captured
/// by parallel fronts at dispatch so pool workers inherit it.
pub(crate) fn thread_override() -> Option<Backend> {
    BACKEND_OVERRIDE.get()
}

/// Runs `f` with the given override installed (restoring on exit) —
/// the worker-side half of override propagation. An override captured
/// by [`thread_override`] was validated by [`with_backend`], so no
/// availability re-check is needed.
pub(crate) fn with_override<R>(o: Option<Backend>, f: impl FnOnce() -> R) -> R {
    match o {
        Some(b) => with_backend(b, f),
        None => f(),
    }
}

/// Dispatches one kernel call to the active backend.
///
/// SAFETY: the vector arms require their instruction set, and are
/// only reachable through a `Backend` value whose detection predicate
/// passed (see module docs) — `Backend::Avx2` cannot become active on
/// a CPU that lacks AVX2, nor `Backend::Avx512` on one that lacks AVX2
/// or the AVX-512 subsets it names. Every kernel but the Box–Muller
/// block runs its AVX2 body on both; `compiled kernel(..)` runs the
/// scalar body compiled for AVX2 there ([`avx2::compiled`]).
macro_rules! dispatch {
    ($kernel:ident ( $($arg:expr),* $(,)? )) => {
        match active() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: Avx2 and Avx512 are only constructed after
            // `is_x86_feature_detected!("avx2")` returned true.
            Backend::Avx2 | Backend::Avx512 => unsafe { avx2::$kernel($($arg),*) },
            _ => scalar::$kernel($($arg),*),
        }
    };
    (compiled $kernel:ident ( $($arg:expr),* $(,)? )) => {
        match active() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above; the closure itself is safe code.
            Backend::Avx2 | Backend::Avx512 => unsafe {
                avx2::compiled(|| scalar::$kernel($($arg),*))
            },
            _ => scalar::$kernel($($arg),*),
        }
    };
}

/// Dot product `Σ a[i]·b[i]` with eight-lane blocked accumulation
/// (fixed combine order, sequential tail) — deterministic and
/// bit-identical across backends and thread counts.
///
/// Both slices must have the same length (debug-asserted; release
/// builds reduce over the shorter length).
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    dispatch!(compiled dot(a, b))
}

/// Rows `[row0, row0 + out.len() / n)` of `a · bᵀ` for `a (m×k)` and
/// `b (n×k)` row-major, with `n = b.len() / k`: every output is
/// `dot(a_row(i), b_row(j))`, bit for bit.
///
/// Requires `k > 0` and `out.len()` a multiple of `n` with those rows
/// inside `a`.
pub(crate) fn matmul_nt_rows(a: &[f32], b: &[f32], k: usize, row0: usize, out: &mut [f32]) {
    dispatch!(matmul_nt_rows(a, b, k, row0, out))
}

/// Rows `[i0, i0 + out.len() / n)` of `aᵀ · b` for `a (k×m)` and
/// `b (k×n)` row-major, added into `out`, which must hold `+0` on
/// entry.
///
/// Each output adds `((a0·b0 + a1·b1) + a2·b2) + a3·b3` for every
/// block of four k-steps in order, skipping a block whose four
/// coefficients `a[p..p + 4][i]` are all zero, then `a·b` for each
/// remaining k-step with a nonzero coefficient. A skip is exact: the
/// output starts at `+0` and so never holds `−0`, and skipping avoids
/// `0·∞`.
///
/// Requires `out.len()` a multiple of `n` with those rows inside `a`.
pub(crate) fn matmul_tn_rows(a: &[f32], b: &[f32], m: usize, n: usize, i0: usize, out: &mut [f32]) {
    dispatch!(matmul_tn_rows(a, b, m, n, i0, out))
}

/// The clipped sum of rank-one gradients behind DP-SGD's per-sample
/// clip-and-sum: for `x (b×d)` and `delta (b×n)` row-major, with
/// `b = scales.len()`, writes `out (n×d)` as
/// `out[i][j] = (Σ_s scales[s]·(delta[s][i]·x[s][j]))·inv_b`, each sum
/// from `+0` in sample order, skipping the terms with
/// `delta[s][i] = 0` (they would add exactly `+0`, or NaN from `0·∞`).
///
/// With no samples every sum is empty and `out` becomes `+0`.
/// Otherwise requires `x.len() = b·d`, `delta.len() = b·n` and
/// `out.len() = n·d` (debug-asserted).
pub fn clip_sum(x: &[f32], delta: &[f32], scales: &[f32], inv_b: f32, out: &mut [f32]) {
    if scales.is_empty() {
        out.fill(0.0);
        return;
    }
    debug_assert!(
        x.len().is_multiple_of(scales.len())
            && delta.len().is_multiple_of(scales.len())
            && out.len() == x.len() / scales.len() * (delta.len() / scales.len()),
        "clip_sum shapes disagree"
    );
    dispatch!(clip_sum(x, delta, scales, inv_b, out))
}

/// Squared norms of [`NORM_LANES`] samples' rank-one gradients,
/// transposed one sample per lane: `delta[r][l]` is the `r`-th value
/// of sample `l`'s δ and `x[j][l]` its `j`-th input. Lane `l` returns
/// `Σ_r Σ_j p²`, with `p = delta[r][l]·x[j][l]` when `delta[r][l] ≠ 0`
/// and `+0` otherwise, summed strictly in `(r, j)` order from `+0`.
pub fn masked_sq_norms(delta: &[[f32; NORM_LANES]], x: &[[f32; NORM_LANES]]) -> [f32; NORM_LANES] {
    dispatch!(masked_sq_norms(delta, x))
}

/// In-place AXPY `out[i] += alpha · x[i]`.
///
/// Both slices must have the same length (debug-asserted).
pub fn axpy(out: &mut [f32], alpha: f32, x: &[f32]) {
    dispatch!(compiled axpy(out, alpha, x))
}

/// Four-row AXPY accumulation
/// `out += c0·b0 + c1·b1 + c2·b2 + c3·b3`; all `b*` slices must be at
/// least as long as `out_row`.
pub(crate) fn axpy4(
    out_row: &mut [f32],
    coeff: [f32; 4],
    b0: &[f32],
    b1: &[f32],
    b2: &[f32],
    b3: &[f32],
) {
    dispatch!(compiled axpy4(out_row, coeff, b0, b1, b2, b3))
}

/// Two-output-row variant of [`axpy4`]: both rows consume the same
/// four right-hand rows in one pass.
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
    dispatch!(compiled axpy4x2(o0, o1, c0, c1, b0, b1, b2, b3))
}

/// `(min, max)` over `x` in one pass, or `None` when any value is
/// infinite or NaN; `Some((+∞, −∞))` when empty. Signed zeros
/// canonicalize to `+0.0` so the result is fold-order free, and the
/// result is bit-identical across backends.
pub fn min_max_finite(x: &[f32]) -> Option<(f32, f32)> {
    dispatch!(min_max_finite(x))
}

/// Affine int8 quantization `dst[i] = round((src[i] − lo) / scale)`
/// clamped to `0..=255`, specified in f64 with round-half-away-from-
/// zero (Rust [`f64::round`] semantics). The vector backend computes
/// in f32 without a divider and redoes in f64 any block where that
/// could round differently (its guard and bound are documented on
/// the kernel).
///
/// Preconditions (debug-asserted where cheap): `src.len() ==
/// dst.len()`, `scale > 0` and finite, every `src[i]` finite and
/// `≥ lo`. Output bytes are bit-identical across backends — they go
/// on the wire.
pub fn quantize_q8(src: &[f32], lo: f32, scale: f64, dst: &mut [u8]) {
    dispatch!(quantize_q8(src, lo, scale, dst))
}

/// Affine int8 dequantization folded into a weighted sum in one pass:
/// `acc[i] += weight · dequantize(q[i])`, where `dequantize(q) = lo +
/// scale · q` in f64, clamped into f32's finite range. The multiply
/// and the add round separately, so the result equals dequantizing
/// into a buffer and then adding `weight · out[i]`, bit for bit.
/// `q.len() == acc.len()` required (debug-asserted).
pub fn dequantize_add_q8(q: &[u8], lo: f32, scale: f32, weight: f32, acc: &mut [f32]) {
    dispatch!(compiled dequantize_add_q8(q, lo, scale, weight, acc))
}

/// Packs one IEEE sign bit per element, LSB-first within each byte
/// (bit set ⇔ sign positive, `+0.0` counts as positive). `bits` must
/// be exactly `src.len().div_ceil(8)` bytes (debug-asserted); every
/// byte is fully written, tail padding bits are 0. Bit-identical
/// across backends — these bytes go on the wire.
pub fn pack_signs(src: &[f32], bits: &mut [u8]) {
    dispatch!(pack_signs(src, bits))
}

/// Sum of squared differences `Σ (a[i] − b[i])²` accumulated in f64
/// with eight-lane blocking (fixed combine order, sequential tail) —
/// the MSE reduction behind PSNR scoring. Both slices must have the
/// same length (debug-asserted).
pub fn sq_err_sum(a: &[f32], b: &[f32]) -> f64 {
    dispatch!(sq_err_sum(a, b))
}

/// One reconstruction against [`SQ_TILE`] originals:
/// `out[j] = sq_err_sum(a, b[j])`, bit for bit, with each chunk of `a`
/// loaded once.
///
/// All slices must have the same length (debug-asserted).
pub fn sq_err_tile(a: &[f32], b: [&[f32]; SQ_TILE]) -> [f64; SQ_TILE] {
    dispatch!(sq_err_tile(a, b))
}

/// [`sq_err_tile`] that stops pricing an original once it cannot
/// come in at or under `bound[j]`.
///
/// Every [`SQ_BOUND_CHUNKS`] chunks each original's lanes are combined
/// in the fixed order. Once that partial sum is strictly above
/// `bound[j]`, `out[j]` is that partial and original `j` is done; the
/// tile returns as soon as all four are done. Otherwise `out[j]` is
/// `sq_err_sum(a, b[j])`, bit for bit.
///
/// Exact, not approximate: every lane sums non-negative squares, f64
/// addition is monotone and the tail only adds, so a partial above
/// the bound means the full sum is above it too (or NaN, if a NaN
/// comes after the checkpoint). A tie never stops, and neither does a
/// NaN partial (it never compares above). So `out[j] > bound[j]`
/// means the full sum is above the bound or NaN, and otherwise
/// `out[j]` is the full sum. Bit-identical across backends, including
/// the partials.
///
/// All slices must have the same length (debug-asserted).
pub fn sq_err_tile_bounded(
    a: &[f32],
    b: [&[f32]; SQ_TILE],
    bound: [f64; SQ_TILE],
) -> [f64; SQ_TILE] {
    dispatch!(sq_err_tile_bounded(a, b, bound))
}

/// Sums of eight side-by-side boxes, each `bw` wide, over `rows` rows
/// `stride` apart — one output row of an equal-width box filter — for
/// `out.len()` such groups `step` apart (e.g. the channels of an
/// image): `out[i][k] = Σ src[i·step + y·stride + k·bw + x]` for
/// `y < rows`, `x < bw`, each box summed from 0.0 in (y, x) order.
///
/// # Panics
///
/// Panics if `bw` is zero or `src` is too short for the last group's
/// last row.
pub fn box_sums8(
    src: &[f32],
    step: usize,
    stride: usize,
    rows: usize,
    bw: usize,
    out: &mut [[f32; 8]],
) {
    assert!(bw > 0, "box_sums8 needs a positive box width");
    if rows > 0 && !out.is_empty() {
        assert!(
            src.len() >= (out.len() - 1) * step + (rows - 1) * stride + 8 * bw,
            "box_sums8 source too short"
        );
    }
    dispatch!(box_sums8(src, step, stride, rows, bw, out))
}

/// Eight vectors' sums of squares and plain sums, side by side:
/// `sq[j]` is `x[j].iter().map(|v| v * v).sum::<f32>()` and `sum[j]`
/// is `x[j].iter().map(|&v| v as f64).sum::<f64>()`, each the
/// sequential `Iterator::sum` (from `Sum`'s start value, in index
/// order) bit for bit. One vector at a time, both sums wait on the add
/// latency at every element; eight at a time their sixteen chains
/// overlap.
///
/// A NaN result is NaN on every backend, with an unspecified payload
/// (as for [`lane_dots`]); every other result is bit-identical.
///
/// # Panics
///
/// Panics unless the eight vectors have one length.
pub fn sq_and_sums8(x: [&[f32]; 8]) -> ([f32; 8], [f64; 8]) {
    assert!(
        x.iter().all(|v| v.len() == x[0].len()),
        "sq_and_sums8 needs vectors of one length"
    );
    dispatch!(sq_and_sums8(x))
}

/// Dots of weight rows with a group of [`DOT_LANES`] vectors stored
/// `k`-major (`x[k][l]` is element `k` of vector `l`): for the
/// `out.len()` rows `w_r` of width `d = x.len()` packed in `w`,
/// `out[r][l]` is `w_r · x_l` as the sequential
/// `Iterator::sum` of `w_rk * x[k][l]` computes it: from `Sum`'s start
/// value, adding each product in ascending `k`, multiply then add,
/// never fused.
///
/// Every output that is not NaN is bit-identical on every backend. A
/// NaN output is NaN on every backend, but which NaN depends on the
/// operand order each backend gives the add (Rust leaves NaN payloads
/// unspecified); a caller that needs the sequential sum's NaN redoes
/// that output.
///
/// # Panics
///
/// Panics unless `w.len() == out.len() · x.len()`.
pub fn lane_dots(w: &[f32], x: &[[f32; DOT_LANES]], out: &mut [[f32; DOT_LANES]]) {
    assert_eq!(
        w.len(),
        out.len() * x.len(),
        "lane_dots needs one weight row of x.len() values per output"
    );
    dispatch!(lane_dots(w, x, out))
}

/// Box–Muller over raw rng words: draw `i` takes the uniforms
/// `u1 = 1 − U(words[2i])` and `u2 = U(words[2i + 1])`, with
/// `U(w) = (w >> 11)·2⁻⁵³` (exactly `rand`'s `gen::<f64>()` of that
/// word), and writes `out[2i]` and `out[2i + 1]` as `r·cos θ` and
/// `r·sin θ` cast to f32, with `r = √(−2 ln u1)` and `θ = 2π·u2`
/// evaluated in f64 with the platform libm — the stream
/// [`Tensor::randn`](crate::Tensor::randn) draws. Returns the number of
/// draws the backend recomputed on the libm path (0 on the scalar
/// backend).
///
/// The output is bit-identical on every backend, under the rule in
/// the module docs' "libm-referenced kernel" section. Requires
/// `out.len() == words.len()`, an even length (debug-asserted).
pub fn normal_pairs(words: &[u64], out: &mut [f32]) -> usize {
    debug_assert!(
        words.len().is_multiple_of(2) && out.len() == words.len(),
        "normal_pairs needs two words and two outputs per draw"
    );
    normals::<2>(words, out)
}

/// [`normal_pairs`] keeping only the cosine normal of each draw:
/// `out[i]` is `r·cos θ` of draw `i` (words `2i` and `2i + 1`), and
/// no sine normal is formed. Requires `words.len() == 2·out.len()`
/// (debug-asserted).
pub fn cos_normals(words: &[u64], out: &mut [f32]) -> usize {
    debug_assert!(
        words.len() == 2 * out.len(),
        "cos_normals needs two words per output"
    );
    normals::<1>(words, out)
}

/// The Box–Muller kernels' dispatch: `PER_DRAW` outputs per draw.
fn normals<const PER_DRAW: usize>(words: &[u64], out: &mut [f32]) -> usize {
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx512 is only constructed after AVX2, AVX-512F and
        // AVX-512DQ were detected.
        Backend::Avx512 => guarded_blocks::<8, PER_DRAW>(words, out, |w, o| unsafe {
            avx512::normal_block::<PER_DRAW>(w, o)
        }),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 is only constructed after AVX2 was detected.
        Backend::Avx2 => guarded_blocks::<4, PER_DRAW>(words, out, |w, o| unsafe {
            avx2::normal_block::<PER_DRAW>(w, o)
        }),
        _ => scalar::normals::<PER_DRAW>(words, out),
    }
}

/// The vector samplers' rounding guard, in f64 ulps: a lane is kept
/// only when the 29 low mantissa bits that rounding to f32 drops are
/// more than this far from the rounding midpoint (and `|v|` is in f32's
/// normal range, where those are the dropped bits). Any value within
/// that many ulps of the lane then rounds to the same f32. Their
/// polynomial results differ from libm's by at most 3 ulps (measured
/// over 4·10⁶ values; the kernels' unit tests hold them to 64), far
/// inside it.
#[cfg(target_arch = "x86_64")]
const GUARD_ULPS: i64 = 1 << 14;

/// The loop of a vector Box–Muller backend, `L` draws per block.
/// `block` reads `2·L` words, writes `PER_DRAW·L` outputs and returns
/// the mask of draws it left undecided, which are recomputed by the
/// scalar specification. A final partial block runs on words padded
/// with a fast-path draw whose outputs are discarded. Returns the
/// number of recomputed draws.
#[cfg(target_arch = "x86_64")]
fn guarded_blocks<const L: usize, const PER_DRAW: usize>(
    words: &[u64],
    out: &mut [f32],
    mut block: impl FnMut(&[u64], &mut [f32]) -> u32,
) -> usize {
    let draws = (words.len() / 2).min(out.len() / PER_DRAW);
    let mut fallbacks = 0;
    let mut recompute = |fail: u32, words: &[u64], out: &mut [f32]| {
        for l in (0..L).filter(|l| fail & (1 << l) != 0) {
            scalar::normal_draw::<PER_DRAW>(&words[2 * l..2 * l + 2], &mut out[PER_DRAW * l..]);
        }
        fallbacks += fail.count_ones() as usize;
    };
    let full = draws / L * L;
    for (w, o) in words[..2 * full]
        .chunks_exact(2 * L)
        .zip(out.chunks_exact_mut(PER_DRAW * L))
    {
        let fail = block(w, o);
        if fail != 0 {
            recompute(fail, w, o);
        }
    }
    if full < draws {
        let m = draws - full;
        const { assert!(L <= 8 && PER_DRAW <= 2) };
        let (mut w, mut z) = ([0u64; 16], [0.0f32; 16]);
        let (w, z) = (&mut w[..2 * L], &mut z[..PER_DRAW * L]);
        for pad in w.chunks_exact_mut(2) {
            // u1 = 0.5, u2 = 0.125: far from every fallback case.
            pad.copy_from_slice(&[1 << 63, 1 << 61]);
        }
        w[..2 * m].copy_from_slice(&words[2 * full..2 * draws]);
        let fail = block(w, z) & ((1 << m) - 1);
        let out = &mut out[PER_DRAW * full..PER_DRAW * draws];
        out.copy_from_slice(&z[..PER_DRAW * m]);
        recompute(fail, w, out);
    }
    fallbacks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_is_always_available() {
        assert!(Backend::Scalar.is_available());
        assert!(Backend::detect().is_available());
    }

    #[test]
    fn labels_are_the_env_spellings() {
        for backend in Backend::ALL {
            assert_eq!(
                parse_choice(backend.label()),
                backend.is_available().then_some(backend)
            );
        }
        assert_eq!(Backend::Avx512.label(), "avx512");
        assert_eq!(Backend::Avx2.label(), "avx2");
        assert_eq!(Backend::Scalar.label(), "scalar");
    }

    #[test]
    fn detect_prefers_the_widest_available_backend() {
        let best = Backend::detect();
        let first = Backend::ALL.into_iter().find(|b| b.is_available());
        assert_eq!(Some(best), first);
        // Avx512 needs everything Avx2 does.
        assert!(!Backend::Avx512.is_available() || Backend::Avx2.is_available());
    }

    #[test]
    fn oasis_simd_choices_parse() {
        // Pure parser test — mutating the process environment from a
        // multithreaded test binary would race concurrent `getenv`.
        assert_eq!(parse_choice("scalar"), Some(Backend::Scalar));
        assert_eq!(parse_choice(" SCALAR "), Some(Backend::Scalar));
        assert_eq!(parse_choice("auto"), None);
        assert_eq!(parse_choice(""), None);
        assert_eq!(parse_choice("sse9"), None, "unknown falls back to auto");
        assert_eq!(parse_choice("neon"), None, "retired name: auto");
        // An explicit request degrades to auto when the CPU lacks it;
        // when available it is honored.
        let avx2 = Backend::Avx2.is_available().then_some(Backend::Avx2);
        assert_eq!(parse_choice("avx2"), avx2);
        let avx512 = Backend::Avx512.is_available().then_some(Backend::Avx512);
        assert_eq!(parse_choice("AVX512"), avx512);
    }

    #[test]
    fn with_backend_overrides_and_restores() {
        let outside = active();
        let inside = with_backend(Backend::Scalar, active);
        assert_eq!(inside, Backend::Scalar);
        assert_eq!(active(), outside, "override removed on exit");
    }

    #[test]
    fn with_backend_restores_on_panic() {
        let outside = active();
        let result = std::panic::catch_unwind(|| {
            with_backend(Backend::Scalar, || panic!("inner"));
        });
        assert!(result.is_err());
        assert_eq!(active(), outside);
    }

    #[test]
    fn nested_overrides_unwind_in_order() {
        let best = Backend::detect();
        with_backend(best, || {
            assert_eq!(active(), best);
            with_backend(Backend::Scalar, || assert_eq!(active(), Backend::Scalar));
            assert_eq!(active(), best);
        });
    }

    #[test]
    #[cfg(not(target_arch = "x86_64"))]
    fn pinning_unavailable_backend_panics() {
        for backend in [Backend::Avx512, Backend::Avx2] {
            let result = std::panic::catch_unwind(|| with_backend(backend, || ()));
            assert!(result.is_err());
        }
    }

    #[test]
    fn clip_sum_of_no_samples_is_zero() {
        let mut out = [f32::NAN; 6];
        clip_sum(&[], &[], &[], 0.5, &mut out);
        assert!(out.iter().all(|v| v.to_bits() == 0));
    }

    #[test]
    fn dispatched_dot_matches_scalar_reference() {
        let a: Vec<f32> = (0..67).map(|i| (i as f32 * 0.37).sin()).collect();
        let b: Vec<f32> = (0..67).map(|i| (i as f32 * 0.11).cos()).collect();
        let reference = scalar::dot(&a, &b);
        let best = with_backend(Backend::detect(), || dot(&a, &b));
        let forced_scalar = with_backend(Backend::Scalar, || dot(&a, &b));
        assert_eq!(best.to_bits(), reference.to_bits());
        assert_eq!(forced_scalar.to_bits(), reference.to_bits());
    }
}
