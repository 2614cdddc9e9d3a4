//! AVX-512 kernels (x86_64, runtime-detected).
//!
//! [`super::Backend::Avx512`] has one kernel of its own, the
//! Box–Muller block [`normal_block`]: eight draws per f64x8 vector with
//! the AVX2 block's fdlibm polynomials and rounding guard. Every other
//! kernel of the backend is the AVX2 body in [`super::avx2`]. Like the
//! AVX2 block, this one approximates libm inside the guard, and the
//! caller recomputes every undecided lane with the scalar
//! specification (see [`super::normal_pairs`];
//! `crates/tensor/tests/normal_parity.rs` is its tripwire).
//!
//! # Safety
//!
//! Every function is `#[target_feature(enable = "avx512f,avx512dq")]`
//! and thus unsafe to call: the caller
//! must guarantee the CPU supports those subsets. The only caller is
//! the dispatcher in [`super`], which reaches this module exclusively
//! through a [`super::Backend::Avx512`] value, and `Backend::Avx512` is
//! only ever constructed after `is_x86_feature_detected!` returned true
//! for AVX2, AVX-512F and AVX-512DQ (at env resolution or via the
//! availability assert in [`super::with_backend`]). Loads and
//! stores use unaligned forms through pointers into subslices whose
//! length is checked on entry.
#![allow(unsafe_op_in_unsafe_fn)]

use std::arch::x86_64::*;

use super::GUARD_ULPS;

/// Eight Box–Muller draws from sixteen rng words (`words[2l]` and
/// `words[2l + 1]` for draw `l`): writes `PER_DRAW` outputs per draw to
/// `out` (interleaved `a0 b0 a1 b1 …` when both are kept) and returns
/// the mask of draws whose f32 rounding the guard leaves undecided.
/// Lane for lane the same values as the AVX2 block.
///
/// # Panics
///
/// Panics unless `words` holds 16 words and `out` `8·PER_DRAW` floats.
#[target_feature(enable = "avx512f,avx512dq")]
pub(crate) unsafe fn normal_block<const PER_DRAW: usize>(words: &[u64], out: &mut [f32]) -> u32 {
    let (words, out) = (&words[..16], &mut out[..8 * PER_DRAW]);
    let c = |v: f64| _mm512_set1_pd(v);
    let x = _mm512_loadu_si512(words.as_ptr().cast());
    let y = _mm512_loadu_si512(words.as_ptr().add(8).cast());
    let w1 = _mm512_permutex2var_epi64(x, _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14), y);
    let w2 = _mm512_permutex2var_epi64(x, _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15), y);
    let u1 = _mm512_sub_pd(c(1.0), uniform(w1));
    let u2 = uniform(w2);
    let r = _mm512_sqrt_pd(_mm512_mul_pd(c(-2.0), ln(u1)));
    let theta = _mm512_mul_pd(c(2.0 * std::f64::consts::PI), u2);
    let (sin, cos, reduced_ok) = sincos(theta);
    let (a, a_ok) = guarded_f32(_mm512_mul_pd(r, cos));
    let mut ok = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(u1, c(1.0)) & reduced_ok & a_ok;
    if PER_DRAW == 2 {
        let (b, b_ok) = guarded_f32(_mm512_mul_pd(r, sin));
        let ab = _mm512_permutex2var_ps(
            _mm512_castps256_ps512(a),
            _mm512_setr_epi32(0, 16, 1, 17, 2, 18, 3, 19, 4, 20, 5, 21, 6, 22, 7, 23),
            _mm512_castps256_ps512(b),
        );
        _mm512_storeu_ps(out.as_mut_ptr(), ab);
        ok &= b_ok;
    } else {
        _mm256_storeu_ps(out.as_mut_ptr(), a);
    }
    u32::from(!ok)
}

/// `(w >> 11)·2⁻⁵³` of each word, exactly (`rand`'s `gen::<f64>()`).
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn uniform(w: __m512i) -> __m512d {
    _mm512_mul_pd(
        _mm512_cvtepu64_pd(_mm512_srli_epi64::<11>(w)),
        _mm512_set1_pd(1.0 / (1u64 << 53) as f64),
    )
}

/// `v` rounded to f32, and the mask of lanes whose rounding the guard
/// decides: the 29 bits the rounding drops are more than
/// [`GUARD_ULPS`] from its midpoint and `|v|` is in f32's normal range.
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn guarded_f32(v: __m512d) -> (__m256, __mmask8) {
    let dropped = _mm512_and_si512(_mm512_castpd_si512(v), _mm512_set1_epi64((1 << 29) - 1));
    let off = _mm512_abs_epi64(_mm512_sub_epi64(dropped, _mm512_set1_epi64(1 << 28)));
    let decided = _mm512_cmpgt_epi64_mask(off, _mm512_set1_epi64(GUARD_ULPS));
    let normal = _mm512_cmp_pd_mask::<_CMP_GE_OQ>(
        _mm512_abs_pd(v),
        _mm512_set1_pd(f64::from(f32::MIN_POSITIVE)),
    );
    (_mm512_cvtpd_ps(v), decided & normal)
}

/// Horner's rule `k[0] + x·(k[1] + x·(… + x·k[n−1]))`, mul then add.
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn horner(x: __m512d, k: &[f64]) -> __m512d {
    let (last, rest) = k.split_last().expect("coefficients");
    rest.iter().rev().fold(_mm512_set1_pd(*last), |acc, &k| {
        _mm512_add_pd(_mm512_set1_pd(k), _mm512_mul_pd(x, acc))
    })
}

/// Natural log of normal positive lanes: the AVX2 block's fdlibm
/// `__ieee754_log` port, eight lanes wide.
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn ln(x: __m512d) -> __m512d {
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
    let c = |v: f64| _mm512_set1_pd(v);
    let bits = _mm512_castpd_si512(x);
    let mant = _mm512_and_si512(bits, _mm512_set1_epi64(0x000f_ffff_ffff_ffff));
    // Bit 52 set iff 1+f ≥ √2: then use (1+f)/2 and k+1.
    let carry = _mm512_and_si512(
        _mm512_add_epi64(mant, _mm512_set1_epi64(0x95f64 << 32)),
        _mm512_set1_epi64(1 << 52),
    );
    let m = _mm512_castsi512_pd(_mm512_or_si512(
        mant,
        _mm512_xor_si512(carry, _mm512_set1_epi64(0x3ff0_0000_0000_0000)),
    ));
    let biased_k = _mm512_add_epi64(
        _mm512_srli_epi64::<52>(bits),
        _mm512_srli_epi64::<52>(carry),
    );
    let k = _mm512_sub_pd(_mm512_cvtepi64_pd(biased_k), c(1023.0));
    let f = _mm512_sub_pd(m, c(1.0));
    let s = _mm512_div_pd(f, _mm512_add_pd(c(2.0), f));
    let z = _mm512_mul_pd(s, s);
    let w = _mm512_mul_pd(z, z);
    let t1 = _mm512_mul_pd(w, horner(w, &[LG[1], LG[3], LG[5]]));
    let t2 = _mm512_mul_pd(z, horner(w, &[LG[0], LG[2], LG[4], LG[6]]));
    let r = _mm512_add_pd(t2, t1);
    let hfsq = _mm512_mul_pd(_mm512_mul_pd(c(0.5), f), f);
    // k·ln2_hi − ((hfsq − (s·(hfsq + R) + k·ln2_lo)) − f)
    let inner = _mm512_add_pd(
        _mm512_mul_pd(s, _mm512_add_pd(hfsq, r)),
        _mm512_mul_pd(k, c(LN2_LO)),
    );
    _mm512_sub_pd(
        _mm512_mul_pd(k, c(LN2_HI)),
        _mm512_sub_pd(_mm512_sub_pd(hfsq, inner), f),
    )
}

/// `(sin θ, cos θ, ok)` for θ ∈ [0, 2π): the AVX2 block's Cody–Waite
/// reduction and fdlibm kernels, eight lanes wide, with the quadrant
/// taken from the integer `n`. `ok` clears lanes with a reduced angle
/// below 2⁻³⁰.
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn sincos(theta: __m512d) -> (__m512d, __m512d, __mmask8) {
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
    let c = |v: f64| _mm512_set1_pd(v);
    let n = _mm512_roundscale_pd::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(
        _mm512_mul_pd(theta, c(std::f64::consts::FRAC_2_PI)),
    );
    let y = _mm512_sub_pd(
        _mm512_sub_pd(theta, _mm512_mul_pd(n, c(PIO2_1))),
        _mm512_mul_pd(n, c(PIO2_1T)),
    );
    let ay = _mm512_abs_pd(y);
    let ok = _mm512_cmp_pd_mask::<_CMP_GE_OQ>(ay, c(1.0 / (1u64 << 30) as f64));
    let z = _mm512_mul_pd(y, y);
    // __kernel_sin(y, 0, 0) = y + y³·(S1 + z·(S2 + z·(… + z·S6)))
    let sr = horner(z, &S[1..]);
    let v = _mm512_mul_pd(z, y);
    let sin_y = _mm512_add_pd(
        y,
        _mm512_mul_pd(v, _mm512_add_pd(c(S[0]), _mm512_mul_pd(z, sr))),
    );
    // __kernel_cos(y, 0) without its qx split: 1 − (z/2 − z·r).
    let cr = _mm512_mul_pd(z, horner(z, &C));
    let cos_y = _mm512_sub_pd(
        c(1.0),
        _mm512_sub_pd(_mm512_mul_pd(c(0.5), z), _mm512_mul_pd(z, cr)),
    );
    // Quadrant n mod 4: sin θ = (s, c, −s, −c), cos θ = (c, −s, −c, s).
    let q = _mm512_cvtpd_epi64(n);
    let swap = _mm512_test_epi64_mask(q, _mm512_set1_epi64(1));
    let neg = |q: __m512i| {
        _mm512_castsi512_pd(_mm512_slli_epi64::<62>(_mm512_and_si512(
            q,
            _mm512_set1_epi64(2),
        )))
    };
    let sin_neg = neg(q);
    let cos_neg = neg(_mm512_add_epi64(q, _mm512_set1_epi64(1)));
    let sin = _mm512_xor_pd(_mm512_mask_blend_pd(swap, sin_y, cos_y), sin_neg);
    let cos = _mm512_xor_pd(_mm512_mask_blend_pd(swap, cos_y, sin_y), cos_neg);
    (sin, cos, ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    #[test]
    fn polynomials_stay_within_a_few_ulps_of_libm() {
        if !super::super::Backend::Avx512.is_available() {
            return;
        }
        let mut rng = StdRng::seed_from_u64(11);
        let mut worst = 0u64;
        for _ in 0..250_000 {
            let w1: [u64; 8] = std::array::from_fn(|_| rng.next_u64());
            let w2: [u64; 8] = std::array::from_fn(|_| rng.next_u64());
            let (mut a, mut b) = ([0.0f64; 8], [0.0f64; 8]);
            // SAFETY: the AVX-512 subsets were detected above.
            let ok = unsafe {
                let u1 = _mm512_sub_pd(
                    _mm512_set1_pd(1.0),
                    uniform(_mm512_loadu_si512(w1.as_ptr().cast())),
                );
                let u2 = uniform(_mm512_loadu_si512(w2.as_ptr().cast()));
                let r = _mm512_sqrt_pd(_mm512_mul_pd(_mm512_set1_pd(-2.0), ln(u1)));
                let (sin, cos, ok) = sincos(_mm512_mul_pd(
                    _mm512_set1_pd(2.0 * std::f64::consts::PI),
                    u2,
                ));
                _mm512_storeu_pd(a.as_mut_ptr(), _mm512_mul_pd(r, cos));
                _mm512_storeu_pd(b.as_mut_ptr(), _mm512_mul_pd(r, sin));
                ok
            };
            // Lanes the reduction check sends to the fallback are not
            // the polynomials' to answer for.
            for l in (0..8).filter(|l| ok & (1 << l) != 0) {
                let (u1, u2) = super::super::scalar::uniforms(w1[l], w2[l]);
                let r = (-2.0 * u1.ln()).sqrt();
                let theta = 2.0 * std::f64::consts::PI * u2;
                for (got, want) in [(a[l], r * theta.cos()), (b[l], r * theta.sin())] {
                    worst = worst.max(got.to_bits().abs_diff(want.to_bits()));
                }
            }
        }
        assert!(worst <= 64, "{worst} ulps from libm");
    }

    #[test]
    fn uniform_is_gen_f64_of_the_word() {
        if !super::super::Backend::Avx512.is_available() {
            return;
        }
        let mut words = StdRng::seed_from_u64(5);
        let mut draws = words.clone();
        let edges = [0, 0x7ff, 0x800, 1 << 63, (1 << 63) - 1, u64::MAX];
        for i in 0..4096 {
            let w: [u64; 8] = if i == 0 {
                std::array::from_fn(|l| edges[l % edges.len()])
            } else {
                std::array::from_fn(|_| words.next_u64())
            };
            let mut got = [0.0f64; 8];
            // SAFETY: the AVX-512 subsets were detected above.
            unsafe {
                _mm512_storeu_pd(
                    got.as_mut_ptr(),
                    uniform(_mm512_loadu_si512(w.as_ptr().cast())),
                );
            }
            for (g, w) in got.iter().zip(w) {
                let want = if i == 0 {
                    (w >> 11) as f64 / (1u64 << 53) as f64
                } else {
                    draws.gen::<f64>()
                };
                assert_eq!(g.to_bits(), want.to_bits(), "word {w:#x}");
            }
        }
        assert_eq!(words, draws);
    }
}
