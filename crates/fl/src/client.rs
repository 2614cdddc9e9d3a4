//! Federated clients.

use std::sync::Arc;

use oasis_data::Dataset;
use oasis_nn::{load_params, Sequential};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{DefenseStack, Result};

/// Builds a fresh instance of the model architecture. Every
/// participant constructs the same architecture and loads the
/// broadcast weights into it — the FL analogue of agreeing on a model
/// definition file.
pub type ModelFactory = Arc<dyn Fn() -> Sequential + Send + Sync>;

/// The gradients a client uploads after local training
/// (`G_j` in paper Eq. 1).
#[derive(Debug, Clone)]
pub struct ClientUpdate {
    /// The uploading client.
    pub client_id: usize,
    /// Flattened gradient vector in [`oasis_nn::flatten_grads`] order.
    pub grads: Vec<f32>,
    /// The client's local loss (diagnostic).
    pub loss: f32,
    /// How many samples contributed (after preprocessing — OASIS
    /// expands this).
    pub samples: usize,
}

/// A federated client and its local data shard.
///
/// The shard is a [`Dataset`], so clients built over one pool (as
/// `oasis_population::Population` builds them) read their samples in
/// place, and cloning a client copies no sample.
///
/// The client's defense hook is its [`DefenseStack`]: batch
/// transforms (e.g. the OASIS defense from crate `oasis`, which
/// replaces the local batch `D` with the augmented `D′` of Eq. 7) run
/// before gradient computation, and update perturbations (DP-SGD's
/// clip and noise) apply to the flattened update before it is
/// uploaded. The empty stack is the undefended baseline.
#[derive(Clone)]
pub struct FlClient {
    id: usize,
    data: Dataset,
    defense: Arc<DefenseStack>,
}

impl FlClient {
    /// Creates a client with a local shard and a defense stack.
    pub fn new(id: usize, data: Dataset, defense: Arc<DefenseStack>) -> Self {
        FlClient { id, data, defense }
    }

    /// The client id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The client's local dataset.
    pub fn data(&self) -> &Dataset {
        &self.data
    }

    /// The client's deterministic per-round rng stream, which
    /// [`FlClient::compute_update`] draws its batch and any update
    /// noise from.
    fn round_rng(&self, round_seed: u64) -> StdRng {
        StdRng::seed_from_u64(round_seed ^ (self.id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// How many samples [`FlClient::compute_update`] will report for a
    /// round at `batch_size` — without drawing a batch, building the
    /// model or computing gradients.
    ///
    /// The drawn batch holds `batch_size.min(len)` samples, and its
    /// processed size is [`DefenseStack::processed_len`] of that, a
    /// function of the length alone, so the round seed plays no part.
    /// Streaming aggregation needs every delivered client's sample
    /// count up front to form FedAvg weights before the first update
    /// is folded.
    pub fn round_samples(&self, batch_size: usize) -> usize {
        self.defense.processed_len(batch_size.min(self.data.len()))
    }

    /// Executes one round of local computation: loads the broadcast
    /// weights and runs [`DefenseStack::local_step`] on a sampled batch
    /// — the result is precisely what a dishonest server gets to
    /// inspect.
    ///
    /// Update clipping applies at client granularity here: the whole
    /// averaged update is clipped to [`DefenseStack::clip_norm`] and
    /// then perturbed (client-level DP). The per-sample record-level
    /// variant lives in the attack harness, which can afford
    /// per-sample gradients.
    ///
    /// Determinism: the drawn batch and any update noise depend
    /// only on `(round_seed, client id)`.
    ///
    /// # Errors
    ///
    /// Propagates model-execution failures.
    pub fn compute_update(
        &self,
        factory: &ModelFactory,
        global_params: &[f32],
        batch_size: usize,
        round_seed: u64,
    ) -> Result<ClientUpdate> {
        let mut rng = self.round_rng(round_seed);
        let batch = self
            .data
            .sample_batch(batch_size.min(self.data.len()), &mut rng);
        let mut model = factory();
        load_params(&mut model, global_params)?;
        let step = self.defense.local_step(&mut model, &batch, &mut rng)?;
        Ok(ClientUpdate {
            client_id: self.id,
            grads: step.update,
            loss: step.loss,
            samples: step.processed.len(),
        })
    }
}

impl std::fmt::Debug for FlClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FlClient(id={}, samples={})", self.id, self.data.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DefenseStack, DpStage};
    use oasis_data::{cifar_like_with, Batch};
    use oasis_nn::{flatten_params, Linear, Relu};

    fn factory(d: usize, classes: usize) -> ModelFactory {
        Arc::new(move || {
            let mut rng = StdRng::seed_from_u64(7);
            let mut m = Sequential::new();
            m.push(Linear::new(d, 16, &mut rng));
            m.push(Relu::new());
            m.push(Linear::new(16, classes, &mut rng));
            m
        })
    }

    #[test]
    fn update_has_model_parameter_count() {
        let data = cifar_like_with(3, 4, 8, 0);
        let d = data.feature_dim();
        let f = factory(d, 3);
        let template = f();
        let global = flatten_params(&template);
        let client = FlClient::new(0, data, Arc::new(DefenseStack::identity()));
        let update = client.compute_update(&f, &global, 4, 99).unwrap();
        assert_eq!(update.grads.len(), global.len());
        assert_eq!(update.samples, 4);
        assert!(update.loss.is_finite());
    }

    #[test]
    fn updates_are_deterministic_per_round_seed() {
        let data = cifar_like_with(3, 4, 8, 0);
        let d = data.feature_dim();
        let f = factory(d, 3);
        let global = flatten_params(&f());
        let client = FlClient::new(1, data, Arc::new(DefenseStack::identity()));
        let a = client.compute_update(&f, &global, 4, 5).unwrap();
        let b = client.compute_update(&f, &global, 4, 5).unwrap();
        let c = client.compute_update(&f, &global, 4, 6).unwrap();
        assert_eq!(a.grads, b.grads);
        assert_ne!(a.grads, c.grads);
    }

    #[test]
    fn update_stage_clips_and_perturbs_the_upload() {
        let data = cifar_like_with(3, 4, 8, 0);
        let d = data.feature_dim();
        let f = factory(d, 3);
        let global = flatten_params(&f());
        let exact = FlClient::new(0, data.clone(), Arc::new(DefenseStack::identity()))
            .compute_update(&f, &global, 4, 5)
            .unwrap();
        let clip = 0.05f32;
        let defended = FlClient::new(
            0,
            data.clone(),
            Arc::new(DefenseStack::of(DpStage::new(clip, 0.1))),
        )
        .compute_update(&f, &global, 4, 5)
        .unwrap();
        assert_ne!(exact.grads, defended.grads, "DP stage must move the update");
        // Client-level clipping alone bounds the uploaded norm exactly.
        let clipped = FlClient::new(
            0,
            data,
            Arc::new(DefenseStack::of(crate::ClipStage::new(clip))),
        )
        .compute_update(&f, &global, 4, 5)
        .unwrap();
        let norm: f32 = clipped.grads.iter().map(|v| v * v).sum::<f32>().sqrt();
        assert!(
            norm <= clip * 1.0001,
            "update norm {norm} above clip {clip}"
        );
    }

    #[test]
    fn round_samples_predicts_compute_update() {
        let data = cifar_like_with(3, 4, 8, 0);
        let d = data.feature_dim();
        let f = factory(d, 3);
        let global = flatten_params(&f());
        // An expanding batch defense: duplicates every sample, so the
        // reported count differs from the drawn batch size.
        struct Doubler;
        impl crate::Defense for Doubler {
            fn name(&self) -> &str {
                "doubler"
            }
            fn process(&self, mut batch: Batch, _rng: &mut StdRng) -> Batch {
                batch.images.extend_from_within(..);
                batch.labels.extend_from_within(..);
                batch
            }
            fn processed_len(&self, n: usize) -> usize {
                2 * n
            }
        }
        for (defense, seed) in [
            (Arc::new(DefenseStack::identity()), 5u64),
            (Arc::new(DefenseStack::of(Doubler)), 11u64),
        ] {
            let client = FlClient::new(3, data.clone(), defense);
            let update = client.compute_update(&f, &global, 4, seed).unwrap();
            assert_eq!(client.round_samples(4), update.samples);
        }
    }

    #[test]
    fn gradient_is_nonzero_for_untrained_model() {
        let data = cifar_like_with(2, 2, 8, 1);
        let d = data.feature_dim();
        let f = factory(d, 2);
        let global = flatten_params(&f());
        let client = FlClient::new(2, data, Arc::new(DefenseStack::identity()));
        let update = client.compute_update(&f, &global, 2, 0).unwrap();
        assert!(update.grads.iter().any(|&g| g.abs() > 1e-9));
    }
}
