//! Property tests for the population crate: spec round-trips in the
//! style of the scenario spec proptests, scheduler determinism, the
//! fold's weight identity, and rounds over the runner's active list.

use std::sync::Arc;

use oasis_data::cifar_like_with;
use oasis_fl::{DefenseStack, FlClient, FlConfig, FlServer, ModelFactory, WireConfig};
use oasis_nn::{flatten_params, Linear, Relu, Sequential};
use oasis_population::{CohortRunner, CohortScheduler, Population, PopulationSpec, SampleSpec};
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
        let mut sched = CohortScheduler::default();
        let mut replay = CohortScheduler::default();
        for round in 0..rounds as u64 {
            let m = CohortScheduler::cohort_size(population, cohort);
            let (ids, s1) = sched.sample(population, m, &mut CohortScheduler::round_rng(seed, round));
            let ids: Vec<u32> = ids.to_vec();
            let (ids2, s2) = replay.sample(population, m, &mut CohortScheduler::round_rng(seed, round));
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

    /// The round's fold equals the direct weighted sum for a lossless
    /// codec, element for element.
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
        let mut acc = vec![0.0f32; n];
        let mut direct = vec![0.0f32; n];
        for (u, &w) in updates.iter().zip(&weights) {
            codec.fold_into(&codec.encode(u).unwrap(), w, &mut acc).unwrap();
            for (d, &g) in direct.iter_mut().zip(u) {
                *d += w * g;
            }
        }
        prop_assert_eq!(acc, direct);
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
    let mut sched = CohortScheduler::default();
    let (ids, _) = sched.sample(100, 100, &mut StdRng::seed_from_u64(4));
    let mut sorted: Vec<u32> = ids.to_vec();
    sorted.sort_unstable();
    let identity: Vec<u32> = (0..100).collect();
    assert_eq!(sorted, identity);
}

/// A two-layer MLP on 8×8×3 inputs and 3 classes, the same weights at
/// every call.
fn small_factory() -> ModelFactory {
    Arc::new(|| {
        let mut rng = StdRng::seed_from_u64(11);
        let mut m = Sequential::new();
        m.push(Linear::new(8 * 8 * 3, 6, &mut rng));
        m.push(Relu::new());
        m.push(Linear::new(6, 3, &mut rng));
        m
    })
}

/// A runner over `clients` on a lossy wire, so delivery fates (keyed
/// by cohort position) decide which updates arrive.
fn lossy_runner(clients: Population, cohort: usize) -> CohortRunner {
    let config = FlConfig {
        clients_per_round: cohort,
        ..FlConfig::default()
    };
    let mut server = FlServer::new(small_factory(), config).expect("valid config");
    server.set_wire(WireConfig::new(
        CodecSpec::Raw,
        "sim:5,10,0.3".parse().expect("valid net"),
    ));
    CohortRunner::new(server, clients)
}

proptest! {
    /// Rounds over an active list equal, bit for bit, rounds over a
    /// population of just the kept clients: clients leave and rejoin
    /// between rounds through random keep-masks, and one round swaps
    /// in a new partition.
    #[test]
    fn active_list_rounds_equal_rounds_over_the_kept_clients(
        masks in proptest::collection::vec(proptest::collection::vec(0u8..2, 10), 2..6),
        swap_at in 0usize..6,
        cohort in 0usize..8,
        seed in 0u64..1_000_000,
    ) {
        let data = cifar_like_with(3, 6, 8, 3);
        let defense = Arc::new(DefenseStack::identity());
        let partition = |s: u64| {
            Population::iid(&data, 10, Arc::clone(&defense), &mut StdRng::seed_from_u64(s))
        };
        let mut population = partition(seed);
        let mut active = lossy_runner(population.clone(), cohort);
        let mut reference = lossy_runner(population.clone(), cohort);
        for (round, mask) in masks.iter().enumerate() {
            if round == swap_at {
                population = partition(seed ^ 1);
                active.set_population(population.clone());
            }
            let mut kept: Vec<u32> = (0..10).filter(|&p| mask[p as usize] == 1).collect();
            if kept.is_empty() {
                kept.push(0);
            }
            active.set_active(|pos, _| kept.binary_search(&(pos as u32)).is_ok());
            prop_assert_eq!(active.active(), &kept[..]);
            let clients: Vec<FlClient> = kept
                .iter()
                .map(|&p| population.clients()[p as usize].clone())
                .collect();
            reference.set_population(Population::from(clients));

            let mut rng = CohortScheduler::round_rng(seed, round as u64);
            let got = active.run_round(&mut rng).expect("round runs");
            let mut rng = CohortScheduler::round_rng(seed, round as u64);
            let want = reference.run_round(&mut rng).expect("round runs");
            prop_assert_eq!(got, want);
        }
        prop_assert_eq!(
            flatten_params(active.server().model()),
            flatten_params(reference.server().model())
        );
    }
}
