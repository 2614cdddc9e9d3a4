//! The central server.

use oasis_nn::{flatten_params, param_count, shared_params, zip_params, Sequential};
use oasis_tensor::Tensor;
use oasis_wire::{CodecSpec, NetSpec};

use crate::{FlConfig, FlError, ModelFactory, Result};

/// How updates travel between clients and the server: the update
/// codec plus the simulated network condition.
///
/// The default — lossless [`CodecSpec::Raw`] over [`NetSpec::Ideal`]
/// — reproduces the in-process protocol bit-exactly while still
/// exercising the full encode → transport → decode path, so bytes on
/// the wire are always measured.
pub struct WireConfig {
    codec_spec: CodecSpec,
    /// The simulated network the round runs over.
    pub net: NetSpec,
}

impl WireConfig {
    /// Builds the wire from a codec and a network spec.
    pub fn new(codec: CodecSpec, net: NetSpec) -> Self {
        WireConfig {
            codec_spec: codec,
            net,
        }
    }

    /// The codec spec in use.
    pub fn codec(&self) -> CodecSpec {
        self.codec_spec
    }
}

impl Default for WireConfig {
    fn default() -> Self {
        WireConfig::new(CodecSpec::Raw, NetSpec::Ideal)
    }
}

impl std::fmt::Debug for WireConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "WireConfig(codec={}, net={})", self.codec_spec, self.net)
    }
}

/// Outcome of one protocol round.
#[derive(Debug, Clone)]
pub struct RoundReport {
    /// Round index (0-based).
    pub round: usize,
    /// How many clients' updates were aggregated (delivered in time).
    pub participants: usize,
    /// Cohort size after sampling — the number of clients the
    /// scheduler drew for this round.
    pub cohort: usize,
    /// How many selected clients' updates were lost or cut off.
    pub dropped: usize,
    /// Mean loss over the delivered clients (0 when none arrived).
    pub mean_loss: f32,
    /// L2 norm of the aggregated update (0 when none arrived).
    pub update_norm: f32,
    /// Encoded update bytes sent uplink (including lost updates).
    pub bytes_up: u64,
    /// Broadcast model bytes sent downlink.
    pub bytes_down: u64,
    /// Simulated wall-clock of the round in milliseconds (0 on the
    /// ideal network).
    pub sim_ms: f64,
    /// Wall-clock phase breakdown, populated only while telemetry is
    /// enabled (`None` otherwise). Measurement, not protocol outcome:
    /// ignored by `PartialEq` so traced and untraced runs compare
    /// equal.
    pub timings: Option<crate::RoundTimings>,
}

/// Equality over protocol outcomes only: `timings` is wall-clock
/// measurement and varies run to run, so it is deliberately excluded
/// — determinism tests compare traced vs untraced reports directly.
impl PartialEq for RoundReport {
    fn eq(&self, other: &Self) -> bool {
        self.round == other.round
            && self.participants == other.participants
            && self.cohort == other.cohort
            && self.dropped == other.dropped
            && self.mean_loss == other.mean_loss
            && self.update_norm == other.update_norm
            && self.bytes_up == other.bytes_up
            && self.bytes_down == other.bytes_down
            && self.sim_ms == other.sim_ms
    }
}

/// The server state of paper Eq. 1: the global model, the training
/// configuration, the [`WireConfig`] updates travel over, and the
/// round counter.
///
/// The round itself — cohort sampling, broadcast, delivery over the
/// wire, sample-weighted FedAvg of what arrived — is driven by
/// `oasis_population::CohortRunner`, which calls
/// [`FlServer::broadcast_weights`] to open a round and
/// [`FlServer::apply_update`] to close it.
pub struct FlServer {
    factory: ModelFactory,
    model: Sequential,
    config: FlConfig,
    wire: WireConfig,
    round: usize,
}

impl FlServer {
    /// Creates a server with a freshly initialized global model on the
    /// default wire (raw codec, ideal network).
    ///
    /// # Errors
    ///
    /// Returns [`FlError::BadConfig`] if the factory produces an empty
    /// model.
    pub fn new(factory: ModelFactory, config: FlConfig) -> Result<Self> {
        let model = factory();
        if param_count(&model) == 0 {
            return Err(FlError::BadConfig("model has no parameters".into()));
        }
        Ok(FlServer {
            factory,
            model,
            config,
            wire: WireConfig::default(),
            round: 0,
        })
    }

    /// Replaces the wire (codec + simulated network) the rounds run
    /// over.
    pub fn set_wire(&mut self, wire: WireConfig) {
        self.wire = wire;
    }

    /// The wire currently in use.
    pub fn wire(&self) -> &WireConfig {
        &self.wire
    }

    /// The training configuration the rounds run under.
    pub fn config(&self) -> &FlConfig {
        &self.config
    }

    /// The model factory clients instantiate their local copy from.
    pub fn factory(&self) -> &ModelFactory {
        &self.factory
    }

    /// The global model (e.g. for evaluation).
    pub fn model(&self) -> &Sequential {
        &self.model
    }

    /// Current round counter.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Overrides the round counter — used when resuming from a
    /// checkpoint.
    pub fn set_round(&mut self, round: usize) {
        self.round = round;
    }

    /// Writes the global model as a wire-format checkpoint file.
    ///
    /// # Errors
    ///
    /// Propagates serialization and filesystem failures.
    pub fn save_checkpoint(&self, path: impl AsRef<std::path::Path>) -> Result<()> {
        oasis_wire::checkpoint::save_model(path, &self.model)?;
        Ok(())
    }

    /// Restores the global model from a wire-format checkpoint file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures and architecture mismatches.
    pub fn restore_checkpoint(&mut self, path: impl AsRef<std::path::Path>) -> Result<()> {
        oasis_wire::checkpoint::load_model(path, &mut self.model)?;
        Ok(())
    }

    /// The flattened global weights `w_t` as broadcast this round.
    pub fn broadcast_weights(&self) -> Vec<f32> {
        flatten_params(&self.model)
    }

    /// The global weights `w_t` as the model's parameter tensors, each
    /// sharing its values with the server copy-on-write: what a round
    /// hands every client ([`crate::FlClient::compute_update`])
    /// instead of a flattened copy. Drop them before
    /// [`FlServer::apply_update`], which then steps the weights in
    /// place.
    pub fn global_params(&self) -> Vec<Tensor> {
        shared_params(&self.model)
    }

    /// Applies an aggregated mean update as one server SGD step:
    /// `w_{t+1} = w_t − η Ḡ` (paper Eq. 1's server side), in place on
    /// the model's parameters. A parameter still shared with a tensor
    /// from [`FlServer::global_params`] is copied before the step, so
    /// such a tensor keeps the weights it was handed.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::UpdateLength`] when `agg` disagrees with
    /// the model's parameter count; the weights are untouched then.
    pub fn apply_update(&mut self, agg: &[f32]) -> Result<()> {
        let lr = self.config.learning_rate;
        let expected = param_count(&self.model);
        if agg.len() != expected {
            return Err(FlError::UpdateLength {
                len: agg.len(),
                expected,
            });
        }
        zip_params(&mut self.model, agg, &mut |p, g| {
            for (w, &g) in p.data_mut().iter_mut().zip(g) {
                *w -= lr * g;
            }
        })?;
        Ok(())
    }
}

impl std::fmt::Debug for FlServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FlServer(round={}, wire={:?})", self.round, self.wire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_nn::{Linear, Relu};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn factory() -> ModelFactory {
        Arc::new(|| {
            let mut rng = StdRng::seed_from_u64(11);
            let mut m = Sequential::new();
            m.push(Linear::new(12, 6, &mut rng));
            m.push(Relu::new());
            m.push(Linear::new(6, 3, &mut rng));
            m
        })
    }

    #[test]
    fn apply_update_steps_against_the_mean_update() {
        let cfg = FlConfig {
            learning_rate: 0.5,
            ..FlConfig::default()
        };
        let mut server = FlServer::new(factory(), cfg).unwrap();
        let before = flatten_params(server.model());
        let agg: Vec<f32> = (0..before.len()).map(|i| i as f32 * 0.01).collect();
        server.apply_update(&agg).unwrap();
        let after = flatten_params(server.model());
        for ((w0, w1), g) in before.iter().zip(&after).zip(&agg) {
            assert_eq!(*w1, w0 - 0.5 * g);
        }
        assert!(matches!(
            server.apply_update(&agg[1..]),
            Err(FlError::UpdateLength { .. })
        ));
    }

    #[test]
    fn step_leaves_handed_out_weights_alone() {
        let cfg = FlConfig {
            learning_rate: 0.5,
            ..FlConfig::default()
        };
        let mut server = FlServer::new(factory(), cfg).unwrap();
        let handed = server.global_params();
        let before: Vec<f32> = handed.iter().flat_map(|t| t.data().to_vec()).collect();
        server.apply_update(&vec![1.0; before.len()]).unwrap();
        let after: Vec<f32> = handed.iter().flat_map(|t| t.data().to_vec()).collect();
        assert_eq!(after, before, "a client's handle must keep w_t");
        assert_ne!(flatten_params(server.model()), before);
    }

    #[test]
    fn checkpoint_restores_weights() {
        let mut server = FlServer::new(factory(), FlConfig::default()).unwrap();
        let n = flatten_params(server.model()).len();
        server.apply_update(&vec![0.25; n]).unwrap();
        server.set_round(2);
        let trained = flatten_params(server.model());
        let dir = std::env::temp_dir().join(format!("oasis_fl_ckpt_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("global.oasis");
        server.save_checkpoint(&path).unwrap();

        let mut fresh = FlServer::new(factory(), FlConfig::default()).unwrap();
        assert_ne!(flatten_params(fresh.model()), trained);
        fresh.restore_checkpoint(&path).unwrap();
        fresh.set_round(server.round());
        assert_eq!(flatten_params(fresh.model()), trained);
        assert_eq!(fresh.round(), 2);
        let _ = std::fs::remove_file(&path);
    }
}
