//! The vector Box–Muller sampler: one safe body for every vector
//! backend.
//!
//! [`normal_block`] evaluates `L` draws with in-repo polynomials in
//! place of libm (fdlibm's log and sin/cos kernels) and leaves to the
//! caller every draw whose f32 rounding the guard does not decide (see
//! [`super::normal_pairs`]; `crates/tensor/tests/normal_parity.rs` is
//! its tripwire). The dispatcher runs it inside a backend's
//! `compiled` trampoline, `L = 4` under AVX2 and `L = 8` under
//! AVX-512, and LLVM turns its per-draw loop into one vector lane per
//! draw. Every step below is an IEEE operation the vector code keeps
//! as it is (rustc neither fuses nor reassociates), and the integer
//! steps are written in forms AVX2 has: it has no u64 → f64 or
//! f64 → i64 convert.
//!
//! Every function is `#[inline(always)]`, so that the whole body is
//! compiled inside the trampoline.

use std::f64::consts::{FRAC_2_PI, PI};

use super::GUARD_ULPS;

/// `L` Box–Muller draws from `2·L` rng words (`words[2l]` and
/// `words[2l + 1]` for draw `l`): writes `PER_DRAW` outputs per draw
/// to `out` (interleaved `a0 b0 a1 b1 …` when both are kept) and
/// returns the mask of draws whose f32 rounding the guard leaves
/// undecided. A decided draw's outputs are
/// [`super::scalar::normal_draw`]'s.
///
/// The fast path does not take `u1 = 1` (from `w >> 11 = 0`), for the
/// sign of its zero output: its `r` is 0, which the guard leaves
/// undecided as outside f32's normal range. Nor does it take a reduced
/// angle below 2⁻³⁰.
///
/// # Panics
///
/// Panics unless `words` holds `2·L` words and `out` `PER_DRAW·L`
/// floats.
#[inline(always)]
pub(crate) fn normal_block<const L: usize, const PER_DRAW: usize>(
    words: &[u64],
    out: &mut [f32],
) -> u32 {
    let (words, out) = (&words[..2 * L], &mut out[..PER_DRAW * L]);
    let mut decided = [false; L];
    for l in 0..L {
        let u1 = 1.0 - uniform(words[2 * l]);
        let r = (-2.0 * ln(u1)).sqrt();
        let (sin, cos, reduced_ok) = sincos(2.0 * PI * uniform(words[2 * l + 1]));
        let (a, a_ok) = guarded_f32(r * cos);
        out[PER_DRAW * l] = a;
        decided[l] = reduced_ok & a_ok;
        if PER_DRAW == 2 {
            let (b, b_ok) = guarded_f32(r * sin);
            out[PER_DRAW * l + 1] = b;
            decided[l] &= b_ok;
        }
    }
    // One test for the common all-decided block: a mask built lane by
    // lane in every block compiles to a chain of per-lane extracts and
    // cost about 5 % of the sampler.
    if decided == [true; L] {
        return 0;
    }
    (0..L)
        .filter(|&l| !decided[l])
        .fold(0, |mask, l| mask | 1 << l)
}

/// `(w >> 11)·2⁻⁵³` of the word, exactly (`rand`'s `gen::<f64>()`):
/// the low 52 bits of `w >> 11` under the exponent of 0.5 give
/// `0.5 + m·2⁻⁵³`, from which 0.5 is taken back unless bit 52 of
/// `w >> 11` (the sign bit of `w`) is set. Both steps are exact.
#[inline(always)]
fn uniform(w: u64) -> f64 {
    let v = f64::from_bits((w >> 11) & 0x000f_ffff_ffff_ffff | 0x3fe0_0000_0000_0000);
    if (w as i64) < 0 {
        v
    } else {
        v - 0.5
    }
}

/// `v` rounded to f32, and whether the guard decides that rounding:
/// the 29 bits it drops are more than [`GUARD_ULPS`] from its midpoint
/// and `|v|` is in f32's normal range.
#[inline(always)]
fn guarded_f32(v: f64) -> (f32, bool) {
    let off = (v.to_bits() & ((1 << 29) - 1)) as i64 - (1 << 28);
    let decided = !(-GUARD_ULPS..=GUARD_ULPS).contains(&off);
    (
        v as f32,
        decided & (v.abs() >= f64::from(f32::MIN_POSITIVE)),
    )
}

/// Horner's rule `k[0] + x·(k[1] + x·(… + x·k[N−1]))`, mul then add.
#[inline(always)]
fn horner<const N: usize>(x: f64, k: [f64; N]) -> f64 {
    k[..N - 1]
        .iter()
        .rev()
        .fold(k[N - 1], |acc, &k| k + x * acc)
}

/// Natural log of a normal positive `x`: fdlibm's `__ieee754_log`
/// (x = 2ᵏ·(1+f) with 1+f ∈ [√2/2, √2), `s = f/(2+f)`, the `Lg1..Lg7`
/// polynomial in s²), always on its `hfsq` branch. Constants are
/// fdlibm's, as bit patterns.
#[inline(always)]
fn ln(x: f64) -> f64 {
    const LN2_HI: f64 = f64::from_bits(0x3fe62e42_fee00000);
    const LN2_LO: f64 = f64::from_bits(0x3dea39ef_35793c76);
    const LG: [f64; 7] = [
        f64::from_bits(0x3fe55555_55555593),
        f64::from_bits(0x3fd99999_9997fa04),
        f64::from_bits(0x3fd24924_94229359),
        f64::from_bits(0x3fcc71c5_1d8e78af),
        f64::from_bits(0x3fc74664_96cb03de),
        f64::from_bits(0x3fc39a09_d078c69f),
        f64::from_bits(0x3fc2f112_df3e5244),
    ];
    let bits = x.to_bits();
    let mant = bits & 0x000f_ffff_ffff_ffff;
    // Bit 52 set iff 1+f ≥ √2 (high mantissa word ≥ 0x6a09c): then
    // use (1+f)/2 and k+1.
    let carry = (mant + (0x95f64 << 32)) & (1 << 52);
    let m = f64::from_bits(mant | (carry ^ 0x3ff0_0000_0000_0000));
    // k + 1023 is a small integer: place it in the mantissa of 2⁵².
    let biased_k = (bits >> 52) + (carry >> 52);
    let k = f64::from_bits(biased_k | 0x4330_0000_0000_0000) - ((1u64 << 52) as f64 + 1023.0);
    let f = m - 1.0;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * horner(w, [LG[1], LG[3], LG[5]]);
    let t2 = z * horner(w, [LG[0], LG[2], LG[4], LG[6]]);
    let r = t2 + t1;
    let hfsq = 0.5 * f * f;
    k * LN2_HI - ((hfsq - (s * (hfsq + r) + k * LN2_LO)) - f)
}

/// `(sin θ, cos θ, ok)` for θ ∈ [0, 2π): Cody–Waite reduction
/// `y = θ − n·π/2` with fdlibm's 33-bit `pio2_1` (so `n·pio2_1` and the
/// first subtraction are exact), fdlibm's `__kernel_sin`/`__kernel_cos`
/// on `y` (the latter without the `qx` split that buys its last ulp,
/// which the guard does not need), then a branch-free quadrant select
/// on `n ∈ 0..=4`. `ok` is false when `|y| < 2⁻³⁰`, where the
/// reduction's absolute error (about 2⁻⁸⁴) is no longer small relative
/// to `y`. Constants are fdlibm's, as bit patterns.
#[inline(always)]
fn sincos(theta: f64) -> (f64, f64, bool) {
    const PIO2_1: f64 = f64::from_bits(0x3ff921fb_54400000);
    const PIO2_1T: f64 = f64::from_bits(0x3dd0b461_1a626331);
    const S: [f64; 6] = [
        f64::from_bits(0xbfc55555_55555549),
        f64::from_bits(0x3f811111_1110f8a6),
        f64::from_bits(0xbf2a01a0_19c161d5),
        f64::from_bits(0x3ec71de3_57b1fe7d),
        f64::from_bits(0xbe5ae5e6_8a2b9ceb),
        f64::from_bits(0x3de5d93a_5acfd57c),
    ];
    const C: [f64; 6] = [
        f64::from_bits(0x3fa55555_5555554c),
        f64::from_bits(0xbf56c16c_16c15177),
        f64::from_bits(0x3efa01a0_19cb1590),
        f64::from_bits(0xbe927e4f_809c52ad),
        f64::from_bits(0x3e21ee9e_bdb4b1c4),
        f64::from_bits(0xbda8fae9_be8838d4),
    ];
    let n = (theta * FRAC_2_PI).round_ties_even();
    let y = (theta - n * PIO2_1) - n * PIO2_1T;
    let ok = y.abs() >= 1.0 / (1u64 << 30) as f64;
    let z = y * y;
    // __kernel_sin(y, 0, 0) = y + y³·(S1 + z·(S2 + z·(… + z·S6)))
    let sr = horner(z, [S[1], S[2], S[3], S[4], S[5]]);
    let sin_y = y + z * y * (S[0] + z * sr);
    // __kernel_cos(y, 0) without its qx split: 1 − (z/2 − z·r).
    let cr = z * horner(z, C);
    let cos_y = 1.0 - (0.5 * z - z * cr);
    // Quadrant n mod 4: sin θ = (s, c, −s, −c), cos θ = (c, −s, −c, s).
    let swap = (n == 1.0) | (n == 3.0);
    let (s, c) = if swap { (cos_y, sin_y) } else { (sin_y, cos_y) };
    let sin = if (n == 2.0) | (n == 3.0) { -s } else { s };
    let cos = if (n == 1.0) | (n == 2.0) { -c } else { c };
    (sin, cos, ok)
}

#[cfg(test)]
mod tests {
    use super::super::scalar;
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    /// Random cases per test: fewer under the interpreter.
    const CASES: usize = if cfg!(miri) { 200 } else { 1 << 20 };

    #[test]
    fn uniform_is_gen_f64_of_the_word() {
        for w in [0, 0x7ff, 0x800, 1 << 63, (1 << 63) - 1, u64::MAX] {
            let want = (w >> 11) as f64 / (1u64 << 53) as f64;
            assert_eq!(uniform(w).to_bits(), want.to_bits(), "word {w:#x}");
        }
        let mut words = StdRng::seed_from_u64(5);
        let mut draws = words.clone();
        for _ in 0..CASES {
            let w = words.next_u64();
            assert_eq!(
                uniform(w).to_bits(),
                draws.gen::<f64>().to_bits(),
                "word {w:#x}"
            );
        }
        assert_eq!(words, draws);
    }

    #[test]
    fn polynomials_stay_within_a_few_ulps_of_libm() {
        let ulps = |got: f64, want: f64| got.to_bits().abs_diff(want.to_bits());
        let mut rng = StdRng::seed_from_u64(11);
        let mut worst = 0u64;
        for _ in 0..CASES {
            let (u1, u2) = scalar::uniforms(rng.next_u64(), rng.next_u64());
            worst = worst.max(ulps(ln(u1), u1.ln()));
            let theta = 2.0 * PI * u2;
            let (sin, cos, ok) = sincos(theta);
            // Angles the reduction check sends to the fallback are not
            // the polynomials' to answer for.
            if ok {
                worst = worst
                    .max(ulps(sin, theta.sin()))
                    .max(ulps(cos, theta.cos()));
            }
        }
        assert!(worst <= 64, "{worst} ulps from libm");
    }

    /// `normal_block::<L, PER_DRAW>` over random blocks, each with one
    /// lane set to a case the fast path must leave to the fallback
    /// (`u1 = 1`, or `θ` a multiple of π/2): that lane is flagged, and
    /// every lane the block decides is the specification's.
    fn block_matches_the_spec<const L: usize, const PER_DRAW: usize>() {
        // (w₀ >> 11, w₁ >> 11): u1 = 1 at θ = π/4, then u2 ∈ {0, ¼, ½, ¾}.
        let edges = [
            (0, 1 << 50),
            (7, 0),
            (7, 1 << 51),
            (7, 1 << 52),
            (7, 3 << 51),
        ];
        let mut rng = StdRng::seed_from_u64(L as u64 * 10 + PER_DRAW as u64);
        let mut flagged = 0;
        for i in 0..CASES / L {
            let mut words: [u64; 16] = std::array::from_fn(|_| rng.next_u64());
            let edge = i % L;
            let (x0, x1) = edges[i % edges.len()];
            // Junk in the 11 bits the conversion drops.
            words[2 * edge] = x0 << 11 | rng.next_u64() >> 53;
            words[2 * edge + 1] = x1 << 11 | rng.next_u64() >> 53;
            let mut out = [f32::NAN; 16];
            let fail = normal_block::<L, PER_DRAW>(&words, &mut out);
            assert_eq!(fail >> L, 0, "mask beyond the block");
            assert_ne!(fail & 1 << edge, 0, "edge lane {edge} not flagged");
            for l in (0..L).filter(|l| fail & 1 << l == 0) {
                let mut want = [0.0f32; PER_DRAW];
                scalar::normal_draw::<PER_DRAW>(&words[2 * l..], &mut want);
                for (got, want) in out[PER_DRAW * l..].iter().zip(want) {
                    assert_eq!(got.to_bits(), want.to_bits(), "lane {l}");
                }
            }
            flagged += fail.count_ones();
        }
        // The guard sends about 10⁻⁴ of random draws to the fallback.
        assert!(
            flagged as usize <= CASES / L + CASES / 100,
            "{flagged} flagged"
        );
    }

    #[test]
    fn block_of_4_matches_the_spec() {
        block_matches_the_spec::<4, 1>();
        block_matches_the_spec::<4, 2>();
    }

    #[test]
    fn block_of_8_matches_the_spec() {
        block_matches_the_spec::<8, 1>();
        block_matches_the_spec::<8, 2>();
    }
}
