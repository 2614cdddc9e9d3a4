//! The deployment as data: descriptors over a shared sample pool.

use std::borrow::Cow;
use std::sync::Arc;

use oasis_data::{Dataset, LabeledImage};
use oasis_fl::{DefenseStack, FlClient};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

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

/// A population of lightweight clients over one shared sample pool.
///
/// Construction shuffles the dataset once and records, per client, a
/// `(start, len)` window into the shared pool — the same shards
/// [`partition_iid`](oasis_fl::partition_iid) would build, without
/// materializing them. [`Population::hydrate`] turns a descriptor
/// into a full [`FlClient`] (copying only that client's window) for
/// the duration of its local computation; the client is dropped when
/// its update has been computed.
#[derive(Clone)]
pub struct Population {
    items: Arc<Vec<LabeledImage>>,
    name: String,
    num_classes: usize,
    // Shard-name infix: "shard" for i.i.d. partitions, "dirichlet"
    // for label-skewed ones, matching the names the eager
    // `partition_*` helpers give their materialized clients.
    shard_label: &'static str,
    defense: Arc<DefenseStack>,
    descriptors: Vec<ClientDescriptor>,
}

impl Population {
    /// Builds an i.i.d. population of `n` clients, shard-compatible
    /// with [`partition_iid`](oasis_fl::partition_iid): the same
    /// `rng` produces descriptors that hydrate into bit-identical
    /// clients (same shard contents, names, and ids).
    ///
    /// When `n` exceeds the sample count — the population-scale
    /// regime `partition_iid` cannot express — every client gets a
    /// single sample, assigned round-robin from the shuffled pool, so
    /// all clients stay trainable.
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

    /// Builds a label-skewed population of `n` clients,
    /// shard-compatible with
    /// [`partition_dirichlet`](oasis_fl::partition_dirichlet): the
    /// same `rng` consumes the identical draw sequence (per-class
    /// shuffle, then `n` Gamma(α) draws per class), so descriptors
    /// hydrate into bit-identical clients — same shard contents,
    /// names, and ids as the eager partitioner would materialize.
    ///
    /// # Panics
    ///
    /// Panics when `alpha` is not positive and finite or `n` is zero,
    /// matching `partition_dirichlet`.
    pub fn dirichlet(
        dataset: &Dataset,
        n: usize,
        alpha: f64,
        defense: Arc<DefenseStack>,
        rng: &mut StdRng,
    ) -> Self {
        use rand::Rng;
        assert!(
            alpha > 0.0 && alpha.is_finite(),
            "Dirichlet concentration must be positive and finite"
        );
        assert!(n > 0, "need at least one client");

        // Johnk's Gamma(α) sampler — byte-for-byte the draw sequence
        // `partition_dirichlet` consumes, so the two constructions
        // stay interchangeable under one rng seed.
        let gamma_sample = |a: f64, rng: &mut StdRng| -> f64 {
            let mut acc = 0.0f64;
            let mut shape = a;
            while shape >= 1.0 {
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
        };

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
            let weights: Vec<f64> = (0..n)
                .map(|_| gamma_sample(alpha, rng).max(1e-12))
                .collect();
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

    /// Swaps the defense stack every subsequently hydrated client
    /// runs. The sample pool and descriptors are untouched, so this
    /// is how a campaign re-parameterizes defenses mid-run.
    pub fn set_defense(&mut self, defense: Arc<DefenseStack>) {
        self.defense = defense;
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
    /// shared defense stack. The result matches what
    /// [`partition_iid`](oasis_fl::partition_iid) would have built
    /// for the same id (same shard name, contents, defense), and its
    /// memory is reclaimed the moment the caller drops it.
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
}

impl ClientSource for Population {
    fn client_count(&self) -> usize {
        self.len()
    }

    fn client(&self, i: usize) -> Cow<'_, FlClient> {
        Cow::Owned(self.hydrate(self.descriptor(i)))
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

    #[test]
    fn iid_matches_partition_iid_shards() {
        let data = cifar_like_with(4, 6, 8, 0);
        let defense = Arc::new(DefenseStack::identity());
        let legacy = oasis_fl::partition_iid(
            &data,
            5,
            Arc::clone(&defense),
            &mut StdRng::seed_from_u64(9),
        );
        let pop = Population::iid(&data, 5, defense, &mut StdRng::seed_from_u64(9));
        assert_eq!(pop.len(), legacy.len());
        for (i, old) in legacy.iter().enumerate() {
            let fresh = pop.hydrate(pop.descriptor(i));
            assert_eq!(fresh.id(), old.id());
            assert_eq!(fresh.data().name(), old.data().name());
            assert_eq!(fresh.data().items(), old.data().items());
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
    fn dirichlet_matches_partition_dirichlet_shards() {
        let data = cifar_like_with(4, 12, 8, 6);
        let defense = Arc::new(DefenseStack::identity());
        for alpha in [0.3, 1.7] {
            let legacy = oasis_fl::partition_dirichlet(
                &data,
                5,
                alpha,
                Arc::clone(&defense),
                &mut StdRng::seed_from_u64(21),
            );
            let pop = Population::dirichlet(
                &data,
                5,
                alpha,
                Arc::clone(&defense),
                &mut StdRng::seed_from_u64(21),
            );
            assert_eq!(pop.len(), legacy.len());
            for (i, old) in legacy.iter().enumerate() {
                let fresh = pop.hydrate(pop.descriptor(i));
                assert_eq!(fresh.id(), old.id());
                assert_eq!(fresh.data().name(), old.data().name());
                assert_eq!(fresh.data().items(), old.data().items());
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
