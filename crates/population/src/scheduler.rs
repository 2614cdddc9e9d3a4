//! Seeded deterministic cohort sampling.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Samples the K participants of each round from a population of N.
///
/// Selection shuffles an identity index buffer of length N and takes
/// a prefix. The vendored Fisher–Yates consumes rng draws that depend
/// only on the buffer **length**, so the draw sequence — and with it
/// the protocol's rng stream — is the same as shuffling the clients
/// themselves, whatever N is.
///
/// The index buffer is owned and reused across rounds (`O(N)` once,
/// not per round) and reset to identity before every shuffle: a
/// shuffle of an already-shuffled buffer would compose permutations,
/// and the same rng would no longer select the same cohort.
#[derive(Debug)]
pub struct CohortScheduler {
    population: usize,
    indices: Vec<u32>,
}

impl CohortScheduler {
    /// A scheduler over `population` clients.
    pub fn new(population: usize) -> Self {
        CohortScheduler {
            population,
            indices: Vec::new(),
        }
    }

    /// The population size this scheduler samples from.
    pub fn population(&self) -> usize {
        self.population
    }

    /// Resolves a configured cohort size against the population:
    /// `0` means everyone, anything else is capped at the population
    /// — the exact rule [`oasis_fl::FlConfig::clients_per_round`]
    /// uses.
    pub fn cohort_size(&self, clients_per_round: usize) -> usize {
        if clients_per_round == 0 {
            self.population
        } else {
            clients_per_round.min(self.population)
        }
    }

    /// Draws one round's cohort: shuffles the identity index buffer
    /// with `rng`, then draws the round seed (shuffle first, seed
    /// second). Returns the
    /// selected ids in selection order plus the `round_seed` that
    /// keys every client's local rng and the wire transport.
    pub fn sample(&mut self, cohort: usize, rng: &mut StdRng) -> (&[u32], u64) {
        self.indices.clear();
        self.indices.extend(0..self.population as u32);
        self.indices.shuffle(rng);
        let round_seed: u64 = rng.gen();
        let m = cohort.min(self.population);
        (&self.indices[..m], round_seed)
    }

    /// The per-round rng stream for `(seed, round)` — splittable
    /// determinism for multi-round runs: round `r` of a run is
    /// reproducible without replaying rounds `0..r`, at any thread
    /// count.
    pub fn round_rng(seed: u64, round: u64) -> StdRng {
        StdRng::seed_from_u64(seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_matches_a_slice_shuffle() {
        // Shuffling any same-length slice consumes identical draws:
        // shuffle a Vec of values directly and compare.
        let n = 37usize;
        let mut direct: Vec<usize> = (0..n).collect();
        let mut rng_a = StdRng::seed_from_u64(77);
        direct.shuffle(&mut rng_a);
        let direct_seed: u64 = rng_a.gen();

        let mut sched = CohortScheduler::new(n);
        let mut rng_b = StdRng::seed_from_u64(77);
        let (ids, seed) = sched.sample(n, &mut rng_b);
        assert_eq!(seed, direct_seed);
        let got: Vec<usize> = ids.iter().map(|&i| i as usize).collect();
        assert_eq!(got, direct);
    }

    #[test]
    fn buffer_resets_to_identity_between_rounds() {
        let mut sched = CohortScheduler::new(16);
        let mut rng1 = StdRng::seed_from_u64(5);
        let first: Vec<u32> = sched.sample(8, &mut rng1).0.to_vec();
        let mut rng2 = StdRng::seed_from_u64(9);
        sched.sample(8, &mut rng2);
        // Replaying the first rng must replay the first cohort — it
        // would not if the buffer kept the previous permutation.
        let mut rng1_again = StdRng::seed_from_u64(5);
        assert_eq!(sched.sample(8, &mut rng1_again).0, &first[..]);
    }

    #[test]
    fn cohort_size_follows_clients_per_round_rule() {
        let sched = CohortScheduler::new(100);
        assert_eq!(sched.cohort_size(0), 100);
        assert_eq!(sched.cohort_size(64), 64);
        assert_eq!(sched.cohort_size(1000), 100);
    }

    #[test]
    fn round_rng_streams_differ_by_round() {
        let mut a = CohortScheduler::round_rng(42, 0);
        let mut b = CohortScheduler::round_rng(42, 1);
        let mut a2 = CohortScheduler::round_rng(42, 0);
        let xs: Vec<u64> = (0..4).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..4).map(|_| b.gen()).collect();
        let xs2: Vec<u64> = (0..4).map(|_| a2.gen()).collect();
        assert_eq!(xs, xs2);
        assert_ne!(xs, ys);
    }
}
