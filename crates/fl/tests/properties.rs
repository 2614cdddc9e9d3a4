//! Property tests for the FL aggregation algebra, run on the round
//! engine's fold: updates travel the raw wire and fold through the
//! codec's `fold_into` into one accumulator, which must match a
//! directly written sample-weighted FedAvg oracle bit for bit.

use oasis_fl::ClientUpdate;
use oasis_wire::CodecSpec;
use proptest::prelude::*;

fn upd(grads: Vec<f32>, samples: usize) -> ClientUpdate {
    ClientUpdate {
        grads,
        loss: 0.0,
        samples,
    }
}

/// The oracle: sample-weighted FedAvg, `Ḡ = Σ (n_j / N) G_j`.
fn fedavg_oracle(updates: &[ClientUpdate]) -> Vec<f32> {
    let total: usize = updates.iter().map(|u| u.samples).sum();
    let mut acc = vec![0.0f32; updates[0].grads.len()];
    for u in updates {
        let w = u.samples as f32 / total as f32;
        for (a, &g) in acc.iter_mut().zip(&u.grads) {
            *a += w * g;
        }
    }
    acc
}

/// The engine's fold over `updates` in order, checked against the
/// oracle before it is returned.
fn fedavg(updates: &[ClientUpdate]) -> Vec<f32> {
    let codec = CodecSpec::Raw.build();
    let total: usize = updates.iter().map(|u| u.samples).sum();
    let mut streamed = vec![0.0f32; updates[0].grads.len()];
    for u in updates {
        let frame = codec.encode(&u.grads).expect("encode");
        codec
            .fold_into(&frame, u.samples as f32 / total as f32, &mut streamed)
            .expect("fold");
    }
    assert_eq!(
        streamed,
        fedavg_oracle(updates),
        "fold diverged from oracle"
    );
    streamed
}

proptest! {
    /// FedAvg of identical updates is the identity.
    #[test]
    fn fedavg_identity(
        g in proptest::collection::vec(-10.0f32..10.0, 1..64),
        k in 1usize..8,
    ) {
        let updates: Vec<ClientUpdate> =
            (0..k).map(|_| upd(g.clone(), 1)).collect();
        let avg = fedavg(&updates);
        for (a, b) in avg.iter().zip(&g) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    /// FedAvg is permutation invariant.
    #[test]
    fn fedavg_is_permutation_invariant(
        seed in 0u64..1000,
        n in 1usize..32,
        k in 2usize..6,
    ) {
        use rand::{rngs::StdRng, SeedableRng, Rng};
        let mut rng = StdRng::seed_from_u64(seed);
        let updates: Vec<ClientUpdate> = (0..k)
            .map(|i| upd((0..n).map(|_| rng.gen_range(-5.0f32..5.0)).collect(), i + 1))
            .collect();
        let mut reversed = updates.clone();
        reversed.reverse();
        let a = fedavg(&updates);
        let b = fedavg(&reversed);
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// FedAvg is linear: avg(α·G) = α·avg(G).
    #[test]
    fn fedavg_is_homogeneous(
        seed in 0u64..1000,
        n in 1usize..32,
        alpha in -3.0f32..3.0,
    ) {
        use rand::{rngs::StdRng, SeedableRng, Rng};
        let mut rng = StdRng::seed_from_u64(seed);
        let updates: Vec<ClientUpdate> = (0..3)
            .map(|_| upd((0..n).map(|_| rng.gen_range(-5.0f32..5.0)).collect(), 1))
            .collect();
        let scaled: Vec<ClientUpdate> = updates
            .iter()
            .map(|u| upd(u.grads.iter().map(|g| g * alpha).collect(), 1))
            .collect();
        let base = fedavg(&updates);
        let scaled_avg = fedavg(&scaled);
        for (x, y) in scaled_avg.iter().zip(&base) {
            prop_assert!((x - alpha * y).abs() < 1e-3_f32.max(y.abs() * 1e-4));
        }
    }

    /// Equal sample counts weight every client equally, whatever the
    /// count: the result is the arithmetic mean.
    #[test]
    fn equal_samples_give_the_arithmetic_mean(
        seed in 0u64..1000,
        n in 1usize..32,
        samples in 1usize..100,
    ) {
        use rand::{rngs::StdRng, SeedableRng, Rng};
        let mut rng = StdRng::seed_from_u64(seed);
        let updates: Vec<ClientUpdate> = (0..4)
            .map(|_| upd((0..n).map(|_| rng.gen_range(-5.0f32..5.0)).collect(), samples))
            .collect();
        let weighted = fedavg(&updates);
        for (i, w) in weighted.iter().enumerate() {
            let mean = updates.iter().map(|u| u.grads[i]).sum::<f32>() / 4.0;
            prop_assert!((w - mean).abs() < 1e-4);
        }
    }

    /// Weighted FedAvg returns a convex combination: bounded by the
    /// per-coordinate min/max of the inputs.
    #[test]
    fn weighted_fedavg_is_convex(
        seed in 0u64..1000,
        n in 1usize..16,
        s1 in 1usize..50,
        s2 in 1usize..50,
    ) {
        use rand::{rngs::StdRng, SeedableRng, Rng};
        let mut rng = StdRng::seed_from_u64(seed);
        let g1: Vec<f32> = (0..n).map(|_| rng.gen_range(-5.0f32..5.0)).collect();
        let g2: Vec<f32> = (0..n).map(|_| rng.gen_range(-5.0f32..5.0)).collect();
        let updates = vec![upd(g1.clone(), s1), upd(g2.clone(), s2)];
        let w = fedavg(&updates);
        for i in 0..n {
            let lo = g1[i].min(g2[i]) - 1e-4;
            let hi = g1[i].max(g2[i]) + 1e-4;
            prop_assert!(w[i] >= lo && w[i] <= hi, "{} not in [{lo}, {hi}]", w[i]);
        }
    }
}
