//! The deployment as data: clients over one shared sample pool.

use std::ops::Range;
use std::sync::Arc;

use oasis_data::Dataset;
use oasis_fl::{DefenseStack, FlClient};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// The largest Dirichlet concentration [`Population::dirichlet`]
/// accepts. Each Gamma(α) draw costs O(α), and at α = 10⁴ each
/// client's share of each class is already 1/n to within about 1 %
/// (relative standard deviation ≈ 1/√α), so larger values buy
/// nothing but time.
pub const MAX_DIRICHLET_ALPHA: f64 = 1e4;

/// The clients a [`CohortRunner`](crate::CohortRunner) draws its
/// cohorts from, in position order.
///
/// This is the workspace's partitioner: [`Population::iid`] and
/// [`Population::dirichlet`] reorder a dataset into one shared pool
/// and give each client a contiguous [`Dataset::window`] of it. The
/// pool holds the dataset's own images, whose clones share pixels, so
/// building moves one image handle per sample and copies no pixel.
/// A client reads its samples in place, so cloning or taking a
/// [`Population::subset`] copies no sample; an idle client costs one
/// [`FlClient`] (72 bytes on 64-bit targets).
///
/// Hand-built client lists, such as a federation that mixes defended
/// and undefended clients, convert with `From<Vec<FlClient>>`.
#[derive(Clone)]
pub struct Population {
    clients: Vec<FlClient>,
}

impl Population {
    /// Builds an i.i.d. population of `n` clients: one shuffle of the
    /// dataset, then `n` contiguous windows of `len / n` samples, the
    /// last taking the remainder.
    ///
    /// When `n` exceeds the sample count, every client gets a single
    /// sample, assigned round-robin from the shuffled pool, so all
    /// clients stay trainable.
    pub fn iid(dataset: &Dataset, n: usize, defense: Arc<DefenseStack>, rng: &mut StdRng) -> Self {
        let mut items = dataset.items().to_vec();
        items.shuffle(rng);
        let pool = Dataset::new(dataset.name(), dataset.num_classes(), items);
        let total = pool.len();
        let n = n.max(1);
        let per = total / n;
        let windows = (0..n).map(|i| {
            if per == 0 {
                // More clients than samples: wrap round-robin.
                let start = i % total.max(1);
                start..start + total.min(1)
            } else {
                let end = if i == n - 1 { total } else { (i + 1) * per };
                i * per..end
            }
        });
        Population::of_windows(&pool, windows, &defense)
    }

    /// Builds a label-skewed population of `n` clients via a
    /// symmetric Dirichlet(α) allocation per class, the standard
    /// heterogeneity model in the FL literature. Per class, the
    /// class's samples are shuffled and split by `n` Gamma(α) draws;
    /// small α (e.g. 0.1) gives near-pathological skew, large α
    /// approaches IID.
    ///
    /// # Panics
    ///
    /// Panics when `alpha` is not in `(0, MAX_DIRICHLET_ALPHA]` or `n`
    /// is zero.
    pub fn dirichlet(
        dataset: &Dataset,
        n: usize,
        alpha: f64,
        defense: Arc<DefenseStack>,
        rng: &mut StdRng,
    ) -> Self {
        // NaN must fail too, so compare on the accepting side.
        assert!(
            alpha > 0.0 && alpha <= MAX_DIRICHLET_ALPHA,
            "Dirichlet concentration must be positive and at most \
             {MAX_DIRICHLET_ALPHA}, got {alpha}"
        );
        assert!(n > 0, "need at least one client");

        let mut shards: Vec<Vec<_>> = (0..n).map(|_| Vec::new()).collect();
        for class in 0..dataset.num_classes() {
            let mut class_items: Vec<_> = dataset
                .items()
                .iter()
                .filter(|it| it.label == class)
                .cloned()
                .collect();
            if class_items.is_empty() {
                continue;
            }
            class_items.shuffle(rng);
            let weights: Vec<f64> = (0..n).map(|_| gamma(alpha, rng).max(1e-12)).collect();
            let total: f64 = weights.iter().sum();
            let mut start = 0usize;
            for (client, &w) in weights.iter().enumerate() {
                let count = if client == n - 1 {
                    class_items.len() - start
                } else {
                    ((w / total) * class_items.len() as f64).round() as usize
                };
                let end = (start + count).min(class_items.len());
                shards[client].extend(class_items[start..end].iter().cloned());
                start = end;
            }
        }

        // Flatten the shards into one pool so each client is a
        // contiguous window, exactly like the i.i.d. layout.
        let mut items = Vec::with_capacity(dataset.len());
        let mut windows = Vec::with_capacity(n);
        for shard in shards {
            let start = items.len();
            items.extend(shard);
            windows.push(start..items.len());
        }
        let pool = Dataset::new(dataset.name(), dataset.num_classes(), items);
        Population::of_windows(&pool, windows, &defense)
    }

    /// Client `i` of the result trains on window `i` of `pool`.
    fn of_windows(
        pool: &Dataset,
        windows: impl IntoIterator<Item = Range<usize>>,
        defense: &Arc<DefenseStack>,
    ) -> Self {
        let clients = windows
            .into_iter()
            .enumerate()
            .map(|(id, window)| FlClient::new(id, pool.window(window), Arc::clone(defense)))
            .collect();
        Population { clients }
    }

    /// A population restricted to the clients at `positions`, sharing
    /// their datasets. Clients keep their ids, so a churned-out client
    /// that later rejoins trains on the *same* shard — data lives on
    /// the device across connectivity gaps.
    ///
    /// # Panics
    ///
    /// Panics when any position is out of range.
    pub fn subset(&self, positions: &[usize]) -> Population {
        Population {
            clients: positions.iter().map(|&p| self.clients[p].clone()).collect(),
        }
    }

    /// Number of clients in the population.
    pub fn len(&self) -> usize {
        self.clients.len()
    }

    /// Whether the population has no clients.
    pub fn is_empty(&self) -> bool {
        self.clients.is_empty()
    }

    /// The clients, in position order.
    pub fn clients(&self) -> &[FlClient] {
        &self.clients
    }
}

impl From<Vec<FlClient>> for Population {
    fn from(clients: Vec<FlClient>) -> Self {
        Population { clients }
    }
}

/// One Gamma(`alpha`) draw: a sum of Exp(1) draws for the integer
/// part of the shape, then Johnk's generator for the fractional part.
/// Costs O(`alpha`) draws, which is what [`MAX_DIRICHLET_ALPHA`]
/// bounds.
fn gamma(alpha: f64, rng: &mut StdRng) -> f64 {
    let mut acc = 0.0f64;
    let mut shape = alpha;
    while shape >= 1.0 {
        // Gamma(1) = Exp(1).
        acc += -(1.0 - rng.gen::<f64>()).ln();
        shape -= 1.0;
    }
    if shape > 1e-9 {
        loop {
            let u: f64 = rng.gen();
            let v: f64 = rng.gen();
            let x = u.powf(1.0 / shape);
            let y = v.powf(1.0 / (1.0 - shape));
            if x + y <= 1.0 {
                let e = -(1.0 - rng.gen::<f64>()).ln();
                acc += e * x / (x + y);
                break;
            }
        }
    }
    acc
}

impl std::fmt::Debug for Population {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Population(clients={})", self.clients.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_data::cifar_like_with;
    use rand::SeedableRng;

    /// The clients of a Dirichlet(α) population.
    fn dirichlet_clients(data: &Dataset, n: usize, alpha: f64, seed: u64) -> Vec<FlClient> {
        Population::dirichlet(
            data,
            n,
            alpha,
            Arc::new(DefenseStack::identity()),
            &mut StdRng::seed_from_u64(seed),
        )
        .clients()
        .to_vec()
    }

    /// Where each client's samples start, in samples past client 0's.
    /// Every window of a partition starts at its offset into the
    /// pool, and client 0's starts at 0, so these are pool offsets.
    fn pool_offsets(pop: &Population) -> Vec<usize> {
        let base = pop.clients()[0].data().items().as_ptr() as usize;
        pop.clients()
            .iter()
            .map(|c| {
                let at = c.data().items().as_ptr() as usize;
                (at - base) / std::mem::size_of::<oasis_data::LabeledImage>()
            })
            .collect()
    }

    /// Asserts that `pop`'s clients read their samples in place from
    /// one pool of `total` samples, as consecutive windows.
    fn assert_consecutive_windows(pop: &Population, total: usize) {
        let mut end = 0;
        for (c, offset) in pop.clients().iter().zip(pool_offsets(pop)) {
            assert_eq!(offset, end, "client {} starts off its window", c.id());
            end += c.data().len();
        }
        assert_eq!(end, total, "the windows tile the pool");
    }

    /// Asserts that every client of `view` is `pop`'s client at the
    /// matching position and reads the very same samples.
    fn assert_shares_clients(view: &Population, pop: &Population, positions: &[usize]) {
        assert_eq!(view.len(), positions.len());
        for (c, &p) in view.clients().iter().zip(positions) {
            let original = &pop.clients()[p];
            assert_eq!(c.id(), original.id());
            assert_eq!(c.data().len(), original.data().len());
            assert_eq!(c.data().items().as_ptr(), original.data().items().as_ptr());
        }
    }

    #[test]
    fn every_client_reads_its_samples_in_place_from_the_pool() {
        let data = cifar_like_with(4, 6, 8, 0);
        let defense = Arc::new(DefenseStack::identity());
        let iid = Population::iid(&data, 5, defense.clone(), &mut StdRng::seed_from_u64(9));
        assert_consecutive_windows(&iid, data.len());
        let dirichlet = Population::dirichlet(
            &data,
            6,
            0.3,
            defense.clone(),
            &mut StdRng::seed_from_u64(4),
        );
        assert_consecutive_windows(&dirichlet, data.len());

        // More clients than samples: client i reads pool sample i mod n.
        let wide = Population::iid(&data, 50, defense, &mut StdRng::seed_from_u64(0));
        let offsets: Vec<usize> = (0..50).map(|i| i % data.len()).collect();
        assert_eq!(pool_offsets(&wide), offsets);

        for pop in [&iid, &dirichlet, &wide] {
            let all: Vec<usize> = (0..pop.len()).collect();
            assert_shares_clients(&pop.clone(), pop, &all);
            assert_shares_clients(&pop.subset(&[3, 1, 4]), pop, &[3, 1, 4]);
        }
        // An idle client is one handle on the shared pool, not a shard.
        assert!(std::mem::size_of::<FlClient>() <= 80);
    }

    #[test]
    fn clients_are_in_id_order_over_the_shuffled_dataset() {
        let data = cifar_like_with(4, 6, 8, 0);
        let pop = Population::iid(
            &data,
            5,
            Arc::new(DefenseStack::identity()),
            &mut StdRng::seed_from_u64(9),
        );
        let mut items = data.items().to_vec();
        items.shuffle(&mut StdRng::seed_from_u64(9));
        let mut start = 0;
        for (i, c) in pop.clients().iter().enumerate() {
            assert_eq!(c.id(), i);
            assert_eq!(c.data().name(), data.name());
            let len = if i == 4 {
                items.len() - start
            } else {
                items.len() / 5
            };
            assert_eq!(c.data().items(), &items[start..start + len]);
            start += len;
        }
    }

    #[test]
    fn oversubscribed_population_gives_every_client_a_sample() {
        let data = cifar_like_with(2, 3, 8, 1); // 6 samples
        let pop = Population::iid(
            &data,
            50,
            Arc::new(DefenseStack::identity()),
            &mut StdRng::seed_from_u64(0),
        );
        assert_eq!(pop.len(), 50);
        for c in pop.clients() {
            assert_eq!(c.data().len(), 1);
        }
    }

    #[test]
    fn dirichlet_partition_covers_all_samples() {
        let ds = cifar_like_with(5, 12, 8, 1);
        let clients = dirichlet_clients(&ds, 4, 0.5, 3);
        assert_eq!(clients.len(), 4);
        let total: usize = clients.iter().map(|c| c.data().len()).sum();
        assert_eq!(total, ds.len());
    }

    #[test]
    fn small_alpha_skews_labels_more_than_large_alpha() {
        // Measure label skew as the mean (over clients) of the max
        // class share within each client's shard.
        let ds = cifar_like_with(4, 24, 8, 2);
        let skew = |alpha: f64| -> f64 {
            let mut total = 0.0;
            let mut counted = 0usize;
            for c in dirichlet_clients(&ds, 4, alpha, 7) {
                if c.data().is_empty() {
                    continue;
                }
                let mut counts = vec![0usize; ds.num_classes()];
                for it in c.data().items() {
                    counts[it.label] += 1;
                }
                let max = *counts.iter().max().unwrap() as f64;
                total += max / c.data().len() as f64;
                counted += 1;
            }
            total / counted.max(1) as f64
        };
        let skew_low_alpha = skew(0.05);
        let skew_high_alpha = skew(50.0);
        assert!(
            skew_low_alpha > skew_high_alpha,
            "alpha 0.05 skew {skew_low_alpha:.2} should exceed alpha 50 skew {skew_high_alpha:.2}"
        );
    }

    #[test]
    fn tiny_alpha_concentrates_each_class_on_one_client() {
        // As α → 0 the Dirichlet concentrates each class's mass on
        // one client: per class, a single winner should hold (nearly)
        // all of it, and no sample may be lost.
        let ds = cifar_like_with(4, 24, 8, 5);
        let clients = dirichlet_clients(&ds, 4, 0.05, 13);
        let total: usize = clients.iter().map(|c| c.data().len()).sum();
        assert_eq!(total, ds.len(), "extreme skew must still conserve samples");
        let mut per_class = vec![vec![0usize; clients.len()]; ds.num_classes()];
        for (ci, c) in clients.iter().enumerate() {
            for it in c.data().items() {
                per_class[it.label][ci] += 1;
            }
        }
        let concentrated = per_class
            .iter()
            .filter(|counts| *counts.iter().max().unwrap() * 4 >= 24 * 3)
            .count();
        assert!(
            concentrated >= 3,
            "α=0.05 should hand ≥75% of most classes to a single client, \
             got {concentrated}/4 concentrated classes ({per_class:?})"
        );
    }

    #[test]
    fn underflowing_alpha_is_numerically_safe() {
        // Below α ≈ 1/n·ln(1/u) the Gamma draws underflow `f64` and
        // hit the 1e-12 floor; the partition must stay well-defined —
        // all samples placed, no NaN shares, every count finite —
        // rather than collapsing or crashing.
        let ds = cifar_like_with(3, 12, 8, 4);
        let clients = dirichlet_clients(&ds, 3, 1e-4, 29);
        assert_eq!(clients.len(), 3);
        let total: usize = clients.iter().map(|c| c.data().len()).sum();
        assert_eq!(
            total,
            ds.len(),
            "underflowed weights must still place every sample"
        );
        for c in &clients {
            assert!(c.data().len() <= ds.len());
        }
    }

    #[test]
    fn large_alpha_approaches_iid_shares() {
        // At α = 100 the Dirichlet is nearly uniform: every client
        // holds data, and every client's share of every class stays
        // near 1/n.
        let ds = cifar_like_with(4, 40, 8, 6);
        let n = 4;
        let clients = dirichlet_clients(&ds, n, 100.0, 13);
        let total: usize = clients.iter().map(|c| c.data().len()).sum();
        assert_eq!(total, ds.len());
        let per_class = 40.0;
        for c in &clients {
            assert!(
                !c.data().is_empty(),
                "α=100 should leave no client empty-handed"
            );
            let mut counts = vec![0usize; ds.num_classes()];
            for it in c.data().items() {
                counts[it.label] += 1;
            }
            for (class, &count) in counts.iter().enumerate() {
                let share = count as f64 / per_class;
                assert!(
                    (share - 1.0 / n as f64).abs() < 0.15,
                    "client {} share of class {class} is {share:.2}, \
                     expected ~{:.2} at α=100",
                    c.id(),
                    1.0 / n as f64
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "Dirichlet concentration must be positive")]
    fn dirichlet_rejects_nonpositive_alpha() {
        let data = cifar_like_with(2, 4, 8, 0);
        Population::dirichlet(
            &data,
            2,
            0.0,
            Arc::new(DefenseStack::identity()),
            &mut StdRng::seed_from_u64(0),
        );
    }

    #[test]
    #[should_panic(expected = "at most 10000")]
    fn dirichlet_rejects_alpha_above_the_cap() {
        let data = cifar_like_with(2, 4, 8, 0);
        Population::dirichlet(
            &data,
            2,
            MAX_DIRICHLET_ALPHA * 10.0,
            Arc::new(DefenseStack::identity()),
            &mut StdRng::seed_from_u64(0),
        );
    }

    #[test]
    fn churned_client_rejoins_with_its_original_shard() {
        let data = cifar_like_with(3, 8, 8, 4);
        let pop = Population::iid(
            &data,
            6,
            Arc::new(DefenseStack::identity()),
            &mut StdRng::seed_from_u64(2),
        );
        let before: Vec<_> = pop
            .clients()
            .iter()
            .map(|c| c.data().items().to_vec())
            .collect();

        // Clients 1 and 4 churn out, then client 4 rejoins.
        let shrunk = pop.subset(&[0, 2, 3, 5]);
        assert_eq!(shrunk.len(), 4);
        assert_eq!(shrunk.clients()[2].id(), 3);
        let regrown = pop.subset(&[0, 2, 3, 4, 5]);
        let back = &regrown.clients()[3];
        assert_eq!(back.id(), 4);
        assert_eq!(back.data().items(), &before[4][..]);

        // Every surviving client still trains on its original shard
        // through the subset view.
        for (c, &id) in shrunk.clients().iter().zip(&[0usize, 2, 3, 5]) {
            assert_eq!(c.id(), id);
            assert_eq!(c.data().items(), &before[id][..]);
        }
    }
}
