//! Federated clients.

use std::sync::Arc;

use oasis_data::Dataset;
use oasis_nn::{install_params, Sequential};
use oasis_tensor::Tensor;
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

    /// Executes one round of local computation: builds the model
    /// (one `factory` call), installs the broadcast weights and runs
    /// [`DefenseStack::local_step`] on a sampled batch — the result is
    /// precisely what a dishonest server gets to inspect.
    ///
    /// `global_params` are the server's parameter tensors
    /// ([`crate::FlServer::global_params`]). They are installed without
    /// a copy: the local model reads the server's weight buffers in
    /// place, copy-on-write, and releases them when it is dropped at
    /// the end of the call.
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
    /// Propagates model-execution failures, and a `global_params` list
    /// that does not fit the factory's architecture.
    pub fn compute_update(
        &self,
        factory: &ModelFactory,
        global_params: &[Tensor],
        batch_size: usize,
        round_seed: u64,
    ) -> Result<ClientUpdate> {
        let mut rng = self.round_rng(round_seed);
        let batch = self
            .data
            .sample_batch(batch_size.min(self.data.len()), &mut rng);
        let mut model = factory();
        install_params(&mut model, global_params)?;
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
    use oasis_nn::{shared_params, Linear, Relu};

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
        let global = shared_params(&template);
        let client = FlClient::new(0, data, Arc::new(DefenseStack::identity()));
        let update = client.compute_update(&f, &global, 4, 99).unwrap();
        assert_eq!(update.grads.len(), oasis_nn::param_count(&template));
        assert_eq!(update.samples, 4);
        assert!(update.loss.is_finite());
    }

    #[test]
    fn updates_are_deterministic_per_round_seed() {
        let data = cifar_like_with(3, 4, 8, 0);
        let d = data.feature_dim();
        let f = factory(d, 3);
        let global = shared_params(&f());
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
        let global = shared_params(&f());
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
        let global = shared_params(&f());
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

    /// A `Linear` that records where its weights live at every
    /// forward.
    struct Probe {
        inner: Linear,
        seen: Arc<std::sync::Mutex<Vec<usize>>>,
    }

    impl oasis_nn::Layer for Probe {
        fn forward(&mut self, input: &Tensor, mode: oasis_nn::Mode) -> oasis_nn::Result<Tensor> {
            let at = self.inner.weight().data().as_ptr() as usize;
            self.seen.lock().unwrap().push(at);
            self.inner.forward(input, mode)
        }
        fn backward(&mut self, grad: &Tensor) -> oasis_nn::Result<Tensor> {
            self.inner.backward(grad)
        }
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
            self.inner.visit_params(f);
        }
        fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
            self.inner.visit_params_mut(f);
        }
        fn visit_params_ref(&self, f: &mut dyn FnMut(&Tensor)) {
            self.inner.visit_params_ref(f);
        }
        fn zero_grad(&mut self) {
            self.inner.zero_grad();
        }
        fn name(&self) -> &'static str {
            "probe"
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn client_models_read_the_server_weights_in_place() {
        let data = cifar_like_with(3, 4, 8, 0);
        let d = data.feature_dim();
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let probe_seen = seen.clone();
        let f: ModelFactory = Arc::new(move || {
            let mut rng = StdRng::seed_from_u64(7);
            let mut m = Sequential::new();
            m.push(Probe {
                inner: Linear::new(d, 16, &mut rng),
                seen: probe_seen.clone(),
            });
            m.push(Relu::new());
            m.push(Linear::new(16, 3, &mut rng));
            m
        });
        let mut server = crate::FlServer::new(f.clone(), crate::FlConfig::default()).unwrap();
        let global = server.global_params();
        let server_weights = global[0].data().as_ptr() as usize;
        let client = FlClient::new(0, data, Arc::new(DefenseStack::identity()));
        let update = client.compute_update(&f, &global, 4, 1).unwrap();
        assert_eq!(
            *seen.lock().unwrap(),
            vec![server_weights],
            "the client model must run on the server's weight buffer"
        );
        // With the round's handles dropped, the step writes in place.
        drop(global);
        server.apply_update(&update.grads).unwrap();
        let stepped = server.model().layer_as::<Probe>(0).unwrap();
        assert_eq!(
            stepped.inner.weight().data().as_ptr() as usize,
            server_weights
        );
    }

    #[test]
    fn gradient_is_nonzero_for_untrained_model() {
        let data = cifar_like_with(2, 2, 8, 1);
        let d = data.feature_dim();
        let f = factory(d, 2);
        let global = shared_params(&f());
        let client = FlClient::new(2, data, Arc::new(DefenseStack::identity()));
        let update = client.compute_update(&f, &global, 2, 0).unwrap();
        assert!(update.grads.iter().any(|&g| g.abs() > 1e-9));
    }
}
