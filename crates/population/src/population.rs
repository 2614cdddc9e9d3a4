//! The deployment as data: descriptors over a shared sample pool.

use std::borrow::Cow;
use std::sync::Arc;

use oasis_data::{Dataset, LabeledImage};
use oasis_fl::{DefenseStack, FlClient};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// Everything the server needs to remember about one client while it
/// is **not** participating: 12 bytes. A million clients cost ~12 MB
/// of descriptors; a million resident [`FlClient`]s would cost a data
/// shard and defense stack each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientDescriptor {
    id: u32,
    start: u32,
    len: u32,
}

impl ClientDescriptor {
    /// The client id — also its index in the population.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// How many samples the client's shard holds.
    pub fn shard_len(&self) -> usize {
        self.len as usize
    }
}

/// The largest Dirichlet concentration [`Population::dirichlet`]
/// accepts. Each Gamma(α) draw costs O(α), and at α = 10⁴ each
/// client's share of each class is already 1/n to within about 1 %
/// (relative standard deviation ≈ 1/√α), so larger values buy
/// nothing but time.
pub const MAX_DIRICHLET_ALPHA: f64 = 1e4;

/// A population of lightweight clients over one shared sample pool.
///
/// This is the workspace's partitioner: [`Population::iid`] and
/// [`Population::dirichlet`] split a dataset into client shards,
/// recording per client a `(start, len)` window into one shared,
/// reordered pool instead of materializing the shards.
/// [`Population::hydrate`] turns a descriptor into a full
/// [`FlClient`] (copying only that client's window) for the duration
/// of its local computation; the client is dropped when its update
/// has been computed. [`Population::clients`] hydrates every
/// descriptor at once, for callers that keep their clients resident.
#[derive(Clone)]
pub struct Population {
    items: Arc<Vec<LabeledImage>>,
    name: String,
    num_classes: usize,
    // Shard-name infix: "shard" for i.i.d. partitions, "dirichlet"
    // for label-skewed ones.
    shard_label: &'static str,
    defense: Arc<DefenseStack>,
    descriptors: Vec<ClientDescriptor>,
}

impl Population {
    /// Builds an i.i.d. population of `n` clients: one shuffle of the
    /// dataset, then `n` contiguous windows of `len / n` samples, the
    /// last taking the remainder. Client `i`'s shard is named
    /// `{dataset}-shard{i}`.
    ///
    /// When `n` exceeds the sample count, every client gets a single
    /// sample, assigned round-robin from the shuffled pool, so all
    /// clients stay trainable.
    pub fn iid(dataset: &Dataset, n: usize, defense: Arc<DefenseStack>, rng: &mut StdRng) -> Self {
        let mut items = dataset.items().to_vec();
        items.shuffle(rng);
        let total = items.len();
        let n = n.max(1);
        let per = total / n;
        let descriptors = (0..n)
            .map(|i| {
                if per == 0 {
                    // More clients than samples: wrap round-robin.
                    ClientDescriptor {
                        id: i as u32,
                        start: (i % total.max(1)) as u32,
                        len: total.min(1) as u32,
                    }
                } else {
                    let start = i * per;
                    let end = if i == n - 1 { total } else { (i + 1) * per };
                    ClientDescriptor {
                        id: i as u32,
                        start: start as u32,
                        len: (end - start) as u32,
                    }
                }
            })
            .collect();
        Population {
            items: Arc::new(items),
            name: dataset.name().to_string(),
            num_classes: dataset.num_classes(),
            shard_label: "shard",
            defense,
            descriptors,
        }
    }

    /// Builds a label-skewed population of `n` clients via a
    /// symmetric Dirichlet(α) allocation per class, the standard
    /// heterogeneity model in the FL literature. Per class, the
    /// class's samples are shuffled and split by `n` Gamma(α) draws;
    /// small α (e.g. 0.1) gives near-pathological skew, large α
    /// approaches IID. Client `i`'s shard is named
    /// `{dataset}-dirichlet{i}`.
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

        let mut per_client_items: Vec<Vec<LabeledImage>> = (0..n).map(|_| Vec::new()).collect();
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
                per_client_items[client].extend(class_items[start..end].iter().cloned());
                start = end;
            }
        }

        // Flatten client shards into one pool so each descriptor is a
        // contiguous window, exactly like the i.i.d. layout.
        let mut items = Vec::with_capacity(dataset.len());
        let mut descriptors = Vec::with_capacity(n);
        for (i, shard) in per_client_items.into_iter().enumerate() {
            descriptors.push(ClientDescriptor {
                id: i as u32,
                start: items.len() as u32,
                len: shard.len() as u32,
            });
            items.extend(shard);
        }
        Population {
            items: Arc::new(items),
            name: dataset.name().to_string(),
            num_classes: dataset.num_classes(),
            shard_label: "dirichlet",
            defense,
            descriptors,
        }
    }

    /// A population restricted to the clients at `positions` (indices
    /// into [`Population::descriptors`]), sharing the sample pool.
    /// Descriptors keep their original ids, so a churned-out client
    /// that later rejoins hydrates back into the *same* shard — data
    /// lives on the device across connectivity gaps.
    ///
    /// # Panics
    ///
    /// Panics when any position is out of range.
    pub fn subset(&self, positions: &[usize]) -> Population {
        Population {
            items: Arc::clone(&self.items),
            name: self.name.clone(),
            num_classes: self.num_classes,
            shard_label: self.shard_label,
            defense: Arc::clone(&self.defense),
            descriptors: positions.iter().map(|&p| self.descriptors[p]).collect(),
        }
    }

    /// Number of clients in the population.
    pub fn len(&self) -> usize {
        self.descriptors.len()
    }

    /// Whether the population has no clients.
    pub fn is_empty(&self) -> bool {
        self.descriptors.is_empty()
    }

    /// The descriptor of client `id`.
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range.
    pub fn descriptor(&self, id: usize) -> ClientDescriptor {
        self.descriptors[id]
    }

    /// All descriptors, in id order.
    pub fn descriptors(&self) -> &[ClientDescriptor] {
        &self.descriptors
    }

    /// The defense stack every hydrated client runs.
    pub fn defense(&self) -> &Arc<DefenseStack> {
        &self.defense
    }

    /// Materializes one client from its descriptor: copies the
    /// client's shard window out of the shared pool and wires up the
    /// shared defense stack. Its memory is reclaimed the moment the
    /// caller drops it.
    pub fn hydrate(&self, desc: ClientDescriptor) -> FlClient {
        let start = desc.start as usize;
        let end = start + desc.len as usize;
        let shard = Dataset::new(
            format!("{}-{}{}", self.name, self.shard_label, desc.id),
            self.num_classes,
            self.items[start..end].to_vec(),
        );
        FlClient::new(desc.id as usize, shard, Arc::clone(&self.defense))
    }

    /// Every client, hydrated in id order: the resident form of the
    /// population, for callers that keep their clients for a whole
    /// run. Costs one shard copy per client.
    pub fn clients(&self) -> Vec<FlClient> {
        self.descriptors.iter().map(|&d| self.hydrate(d)).collect()
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

/// The clients a [`CohortRunner`](crate::CohortRunner) draws its
/// cohorts from: a count, and a way to lend client `i` for the length
/// of one local computation.
///
/// A [`Population`] lends by hydrating a descriptor (the client is
/// dropped once its update is encoded); resident clients
/// (`Vec<FlClient>`) lend by reference.
pub trait ClientSource: Sync {
    /// How many clients there are. Cohorts are drawn from positions
    /// `0..client_count()`.
    fn client_count(&self) -> usize;

    /// Lends the client at position `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    fn client(&self, i: usize) -> Cow<'_, FlClient>;

    /// How many samples client `i` will report for a round at
    /// `batch_size`: its [`FlClient::round_samples`]. The default lends
    /// the client to ask it; a source that knows shard lengths answers
    /// without lending.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    fn round_samples(&self, i: usize, batch_size: usize) -> usize {
        self.client(i).round_samples(batch_size)
    }
}

impl ClientSource for Population {
    fn client_count(&self) -> usize {
        self.len()
    }

    fn client(&self, i: usize) -> Cow<'_, FlClient> {
        Cow::Owned(self.hydrate(self.descriptor(i)))
    }

    /// The hydrated client's count, from the descriptor's shard length
    /// and the shared defense stack alone: no shard is copied.
    fn round_samples(&self, i: usize, batch_size: usize) -> usize {
        self.defense
            .processed_len(batch_size.min(self.descriptor(i).shard_len()))
    }
}

impl ClientSource for Vec<FlClient> {
    fn client_count(&self) -> usize {
        self.len()
    }

    fn client(&self, i: usize) -> Cow<'_, FlClient> {
        Cow::Borrowed(&self[i])
    }
}

/// A borrowed source, so one set of resident clients can serve
/// several runners without being cloned.
impl<C: ClientSource> ClientSource for &C {
    fn client_count(&self) -> usize {
        (**self).client_count()
    }

    fn client(&self, i: usize) -> Cow<'_, FlClient> {
        (**self).client(i)
    }

    fn round_samples(&self, i: usize, batch_size: usize) -> usize {
        (**self).round_samples(i, batch_size)
    }
}

impl std::fmt::Debug for Population {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Population(clients={}, pool={}, defense={:?})",
            self.descriptors.len(),
            self.items.len(),
            self.defense.names(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_data::cifar_like_with;
    use rand::SeedableRng;

    #[test]
    fn descriptors_are_12_bytes() {
        assert_eq!(std::mem::size_of::<ClientDescriptor>(), 12);
    }

    /// The resident clients of a Dirichlet(α) population.
    fn dirichlet_clients(data: &Dataset, n: usize, alpha: f64, seed: u64) -> Vec<FlClient> {
        Population::dirichlet(
            data,
            n,
            alpha,
            Arc::new(DefenseStack::identity()),
            &mut StdRng::seed_from_u64(seed),
        )
        .clients()
    }

    #[test]
    fn clients_hydrate_every_descriptor_in_id_order() {
        let data = cifar_like_with(4, 6, 8, 0);
        let pop = Population::iid(
            &data,
            5,
            Arc::new(DefenseStack::identity()),
            &mut StdRng::seed_from_u64(9),
        );
        let clients = pop.clients();
        assert_eq!(clients.len(), 5);
        for (i, c) in clients.iter().enumerate() {
            let fresh = pop.hydrate(pop.descriptor(i));
            assert_eq!(c.id(), i);
            assert_eq!(c.data().name(), format!("{}-shard{i}", data.name()));
            assert_eq!(c.data().items(), fresh.data().items());
        }
    }

    #[test]
    fn population_counts_round_samples_without_hydrating() {
        // Triples every batch, so the count depends on the defense
        // stack as well as on the shard length.
        struct Tripler;
        impl oasis_fl::Defense for Tripler {
            fn name(&self) -> &str {
                "tripler"
            }
            fn processed_len(&self, n: usize) -> usize {
                3 * n
            }
        }
        let data = cifar_like_with(3, 7, 8, 2);
        for defense in [DefenseStack::identity(), DefenseStack::of(Tripler)] {
            let pop = Population::dirichlet(
                &data,
                6,
                0.5,
                Arc::new(defense),
                &mut StdRng::seed_from_u64(4),
            );
            for i in 0..pop.len() {
                for batch in [0, 1, 3, 64] {
                    assert_eq!(
                        ClientSource::round_samples(&pop, i, batch),
                        pop.hydrate(pop.descriptor(i)).round_samples(batch),
                        "client {i}, batch {batch}"
                    );
                }
            }
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
        for d in pop.descriptors() {
            assert_eq!(d.shard_len(), 1);
            assert_eq!(pop.hydrate(*d).data().len(), 1);
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
        let before: Vec<_> = (0..6)
            .map(|i| pop.hydrate(pop.descriptor(i)).data().items().to_vec())
            .collect();

        // Clients 1 and 4 churn out, then client 4 rejoins.
        let shrunk = pop.subset(&[0, 2, 3, 5]);
        assert_eq!(shrunk.len(), 4);
        assert_eq!(shrunk.descriptor(2).id(), 3);
        let regrown = pop.subset(&[0, 2, 3, 4, 5]);
        let back = regrown.hydrate(regrown.descriptor(3));
        assert_eq!(back.id(), 4);
        assert_eq!(back.data().items(), &before[4][..]);

        // Every surviving client still hydrates its original shard
        // (and shard name) through the subset view.
        for (slot, &id) in [0usize, 2, 3, 5].iter().enumerate() {
            let c = shrunk.hydrate(shrunk.descriptor(slot));
            assert_eq!(c.id(), id);
            assert_eq!(c.data().items(), &before[id][..]);
            assert_eq!(c.data().name(), format!("{}-shard{}", data.name(), id));
        }
    }

    #[test]
    fn subset_shares_the_sample_pool() {
        let data = cifar_like_with(2, 6, 8, 3);
        let pop = Population::iid(
            &data,
            4,
            Arc::new(DefenseStack::identity()),
            &mut StdRng::seed_from_u64(1),
        );
        let sub = pop.subset(&[1, 3]);
        assert!(Arc::ptr_eq(&pop.items, &sub.items));
        assert_eq!(sub.len(), 2);
    }

    #[test]
    fn hydrate_copies_only_the_window() {
        let data = cifar_like_with(3, 4, 8, 2);
        let pop = Population::iid(
            &data,
            4,
            Arc::new(DefenseStack::identity()),
            &mut StdRng::seed_from_u64(3),
        );
        let total: usize = pop
            .descriptors()
            .iter()
            .map(|d| pop.hydrate(*d).data().len())
            .sum();
        assert_eq!(total, data.len());
    }
}
