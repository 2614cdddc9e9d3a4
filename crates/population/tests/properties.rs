//! Property tests for the population crate: spec round-trips in the
//! style of the scenario spec proptests, scheduler determinism, and
//! the streaming-fold weight identity.

use oasis_population::{CohortScheduler, PopulationSpec, SampleSpec, StreamingAggregator};
use oasis_wire::CodecSpec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    /// `population:N` round-trips `FromStr` ⇄ `Display`.
    #[test]
    fn population_specs_round_trip(clients in 1usize..2_000_000) {
        let spec = PopulationSpec { clients };
        let printed = spec.to_string();
        let parsed: PopulationSpec = printed.parse().expect("printed spec parses");
        prop_assert_eq!(parsed, spec, "`{}` did not round-trip", printed);
        prop_assert!(!printed.contains(char::is_whitespace));
    }

    /// `sample:K` round-trips `FromStr` ⇄ `Display`.
    #[test]
    fn sample_specs_round_trip(cohort in 1usize..100_000) {
        let spec = SampleSpec { cohort };
        let printed = spec.to_string();
        let parsed: SampleSpec = printed.parse().expect("printed spec parses");
        prop_assert_eq!(parsed, spec, "`{}` did not round-trip", printed);
        prop_assert!(!printed.contains(char::is_whitespace));
    }

    /// Bare counts parse to the same value as the prefixed form — the
    /// contract CLI comma-list sweeps rely on.
    #[test]
    fn bare_counts_parse_like_prefixed(n in 1usize..1_000_000) {
        let bare: PopulationSpec = n.to_string().parse().expect("bare count parses");
        let prefixed: PopulationSpec = format!("population:{n}").parse().unwrap();
        prop_assert_eq!(bare, prefixed);
        let bare_k: SampleSpec = n.to_string().parse().expect("bare count parses");
        let prefixed_k: SampleSpec = format!("sample:{n}").parse().unwrap();
        prop_assert_eq!(bare_k, prefixed_k);
    }

    /// One scheduler replayed with equal rng streams replays equal
    /// cohorts (the identity-reset invariant), and every cohort is a
    /// duplicate-free subset of the population.
    #[test]
    fn cohorts_are_deterministic_duplicate_free_subsets(
        population in 1usize..500,
        cohort in 1usize..500,
        seed in 0u64..1_000_000,
        rounds in 1usize..4,
    ) {
        let mut sched = CohortScheduler::new(population);
        let mut replay = CohortScheduler::new(population);
        for round in 0..rounds as u64 {
            let m = sched.cohort_size(cohort);
            let (ids, s1) = sched.sample(m, &mut CohortScheduler::round_rng(seed, round));
            let ids: Vec<u32> = ids.to_vec();
            let (ids2, s2) = replay.sample(m, &mut CohortScheduler::round_rng(seed, round));
            prop_assert_eq!(&ids, &ids2.to_vec());
            prop_assert_eq!(s1, s2);
            prop_assert_eq!(ids.len(), cohort.min(population));
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), ids.len(), "cohort has duplicates");
            prop_assert!(ids.iter().all(|&i| (i as usize) < population));
        }
    }

    /// Streaming folds equal the direct weighted sum for lossless
    /// codecs, element for element.
    #[test]
    fn streaming_fold_is_the_weighted_sum(
        updates in proptest::collection::vec(
            proptest::collection::vec(-10.0f32..10.0, 6..7),
            1..6,
        ),
        weights in proptest::collection::vec(0.01f32..1.0, 6),
    ) {
        let codec = CodecSpec::Raw.build();
        let n = updates[0].len();
        let mut agg = StreamingAggregator::new(n);
        let mut direct = vec![0.0f32; n];
        for (u, &w) in updates.iter().zip(&weights) {
            agg.fold(&*codec, &codec.encode(u).unwrap(), w).unwrap();
            for (d, &g) in direct.iter_mut().zip(u) {
                *d += w * g;
            }
        }
        prop_assert_eq!(agg.as_slice(), &direct[..]);
        prop_assert_eq!(agg.folded(), updates.len());
        // The aggregator holds only the accumulator (copies inside the
        // raw fold are counted by `fold_copies.rs`).
        prop_assert_eq!(agg.peak_bytes(), 4 * n);
    }
}

/// The keyed round stream is thread-count independent by
/// construction (it never touches the pool); pin that it is also
/// stable across scheduler instances.
#[test]
fn round_rng_is_instance_free() {
    use rand::Rng;
    let mut a = CohortScheduler::round_rng(7, 3);
    let mut b = CohortScheduler::round_rng(7, 3);
    let xs: Vec<u64> = (0..8).map(|_| a.gen()).collect();
    let ys: Vec<u64> = (0..8).map(|_| b.gen()).collect();
    assert_eq!(xs, ys);
}

/// Sampling the whole population is a permutation — the
/// `clients_per_round: 0` "everyone participates" mode.
#[test]
fn full_cohort_is_a_permutation() {
    let mut sched = CohortScheduler::new(100);
    let (ids, _) = sched.sample(100, &mut StdRng::seed_from_u64(4));
    let mut sorted: Vec<u32> = ids.to_vec();
    sorted.sort_unstable();
    let identity: Vec<u32> = (0..100).collect();
    assert_eq!(sorted, identity);
}
