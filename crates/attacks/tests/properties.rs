//! Property tests for the attack algebra — the invariants behind
//! paper Eq. 6 and the RTF/CAH constructions.

use oasis_attacks::{invert_neuron, invert_neuron_difference, probit, RtfAttack};
use proptest::prelude::*;

proptest! {
    /// Eq. 6 inverts exactly for any single sample and any nonzero
    /// signal: (g·x, g) ↦ x.
    #[test]
    fn single_sample_inversion_is_exact(
        x in proptest::collection::vec(0.0f32..1.0, 4..32),
        g in prop_oneof![-5.0f32..-0.01, 0.01f32..5.0],
    ) {
        let grad_w: Vec<f32> = x.iter().map(|&v| g * v).collect();
        let rec = invert_neuron(&grad_w, g).expect("nonzero signal");
        for (a, b) in rec.data().iter().zip(&x) {
            prop_assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    /// A two-sample neuron yields the loss-weighted convex combination
    /// — never either original exactly (for distinct samples and
    /// same-sign weights).
    #[test]
    fn mixture_inversion_is_convex_combination(
        n in 4usize..16,
        g1 in 0.01f32..2.0,
        g2 in 0.01f32..2.0,
        seed in 0u64..1000,
    ) {
        use rand::{rngs::StdRng, SeedableRng, Rng};
        let mut rng = StdRng::seed_from_u64(seed);
        let x1: Vec<f32> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
        let x2: Vec<f32> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
        let grad_w: Vec<f32> = x1.iter().zip(&x2).map(|(&a, &b)| g1 * a + g2 * b).collect();
        let rec = invert_neuron(&grad_w, g1 + g2).expect("nonzero signal");
        let (w1, w2) = (g1 / (g1 + g2), g2 / (g1 + g2));
        for ((r, &a), &b) in rec.data().iter().zip(&x1).zip(&x2) {
            let expect = w1 * a + w2 * b;
            prop_assert!((r - expect).abs() < 1e-3, "{r} vs {expect}");
        }
    }

    /// The RTF bin-difference extraction recovers the isolated sample
    /// for any signals and any second-bin contents.
    #[test]
    fn bin_difference_isolates_sample(
        n in 4usize..16,
        g_t in prop_oneof![-2.0f32..-0.05, 0.05f32..2.0],
        g_other in -2.0f32..2.0,
        seed in 0u64..1000,
    ) {
        use rand::{rngs::StdRng, SeedableRng, Rng};
        let mut rng = StdRng::seed_from_u64(seed);
        let xt: Vec<f32> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
        let xo: Vec<f32> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
        // Neuron hi: activated by {xt, xo}; neuron lo: {xo} only.
        let gw_hi: Vec<f32> = xt.iter().zip(&xo).map(|(&a, &b)| g_t * a + g_other * b).collect();
        let gw_lo: Vec<f32> = xo.iter().map(|&b| g_other * b).collect();
        let rec = invert_neuron_difference(&gw_hi, g_t + g_other, &gw_lo, g_other)
            .expect("nonzero difference");
        for (r, &a) in rec.data().iter().zip(&xt) {
            prop_assert!((r - a).abs() < 2e-3, "{r} vs {a}");
        }
    }

    /// The probit function is the inverse CDF: monotone, symmetric,
    /// and consistent with the CDF implementation.
    #[test]
    fn probit_is_monotone_and_symmetric(p in 0.001f64..0.999) {
        let q = probit(p);
        prop_assert!((probit(1.0 - p) + q).abs() < 1e-6);
        prop_assert!((oasis_attacks::normal_cdf(q) - p).abs() < 5e-4);
    }

    /// RTF cutoffs are strictly increasing for any Gaussian fit.
    #[test]
    fn rtf_cutoffs_strictly_increase(
        neurons in 2usize..256,
        mean in -1.0f32..1.0,
        std in 0.01f32..2.0,
    ) {
        let attack = RtfAttack::new(neurons, mean, std).expect("valid config");
        let cuts = attack.cutoffs();
        prop_assert_eq!(cuts.len(), neurons);
        for pair in cuts.windows(2) {
            prop_assert!(pair[0] < pair[1]);
        }
    }
}
