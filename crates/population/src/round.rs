//! The round engine: one FL round over a population.

use oasis_fl::{FlClient, FlError, FlServer, Result, RoundReport};
use oasis_tensor::parallel;
use oasis_wire::{DeliveryStatus, EncodedUpdate, Submission};
use rand::rngs::StdRng;

use crate::{CohortScheduler, Population};

/// The round engine: drives an [`FlServer`] through rounds sampled
/// from a [`Population`] — a partition, or any hand-built client list
/// converted into one.
///
/// Each round is cohort sampling → broadcast → delivery planning →
/// computing only the clients whose updates will arrive → folding
/// each frame into one model-sized accumulator → server step. Dropped
/// clients cost nothing, and the server's update memory is that one
/// accumulator whatever the population or the cohort, so a population
/// can grow to 10⁵–10⁶ while the server footprint stays flat.
///
/// Rounds sample from the **active list**, the ascending positions of
/// the online clients: churn rewrites it in place
/// ([`CohortRunner::set_active`]) and a re-partition resets it
/// ([`CohortRunner::set_population`]). Delivery fates are keyed by
/// cohort position, an index in the active list, not by
/// [`FlClient::id`](oasis_fl::FlClient::id), so a round over an active
/// list is bit-identical to one over a population of just its clients.
pub struct CohortRunner {
    server: FlServer,
    clients: Population,
    active: Vec<u32>,
    scheduler: CohortScheduler,
}

impl CohortRunner {
    /// Couples a server to its clients, all of them active. Cohort
    /// size comes from the server's
    /// [`oasis_fl::FlConfig::clients_per_round`]: `0` means every
    /// active client.
    pub fn new(server: FlServer, clients: impl Into<Population>) -> Self {
        let clients = clients.into();
        CohortRunner {
            server,
            active: (0..clients.len() as u32).collect(),
            clients,
            scheduler: CohortScheduler::default(),
        }
    }

    /// The server being driven.
    pub fn server(&self) -> &FlServer {
        &self.server
    }

    /// Mutable access to the server (evaluation, wire swaps).
    pub fn server_mut(&mut self) -> &mut FlServer {
        &mut self.server
    }

    /// The positions in the runner's population that rounds sample
    /// from, ascending.
    pub fn active(&self) -> &[u32] {
        &self.active
    }

    /// Rewrites the active list in place: the client at position
    /// `pos` is active when `keep(pos, client)` holds. No client is
    /// copied.
    pub fn set_active(&mut self, mut keep: impl FnMut(usize, &FlClient) -> bool) {
        let clients = self.clients.clients();
        self.active.clear();
        self.active.extend(
            (0..clients.len() as u32).filter(|&pos| keep(pos as usize, &clients[pos as usize])),
        );
    }

    /// Replaces the clients mid-run (a campaign's drift re-partition)
    /// and makes every one of them active.
    pub fn set_population(&mut self, clients: Population) {
        self.clients = clients;
        self.set_active(|_, _| true);
    }

    /// Runs one round off an explicit rng: the selection shuffle
    /// draws first, the round seed second. Driving successive rounds
    /// off one sequential `StdRng` reproduces the protocol's original
    /// rng stream bit-exactly (pinned by the repository's golden round
    /// fixture); [`CohortRunner::run`] keys a fresh stream per round
    /// instead.
    ///
    /// The round proceeds: sample cohort → broadcast → **delivery
    /// plan** (every codec's wire size is value-independent, so each
    /// cohort member's fate is decided before any gradient exists) →
    /// meta pre-pass summing the delivered clients' sample counts →
    /// wave-parallel compute/encode of **delivered clients only** →
    /// serial fold in delivery order → server SGD step.
    ///
    /// The fold is paper Eq. 1's sample-weighted FedAvg: each frame
    /// goes through its codec's
    /// [`UpdateCodec::fold_into`](oasis_wire::UpdateCodec::fold_into)
    /// with weight `samples_i / total` into one `vec![0.0; n]`
    /// accumulator, so the FP sequence, and the aggregate bit for bit,
    /// is the same at any thread count. `fold_into` checks the weight,
    /// the element count and every value before it adds anything.
    ///
    /// A round where nothing is delivered is a no-op, not an error,
    /// and computes nothing.
    ///
    /// # Errors
    ///
    /// [`FlError::NoClients`] when no client is active, client model
    /// errors, wire codec failures, a delivered set whose sample
    /// counts sum to zero, or an update whose sample count differs
    /// from the pre-pass count ([`FlError::BadConfig`]).
    pub fn run_round(&mut self, rng: &mut StdRng) -> Result<RoundReport> {
        let (clients, active) = (self.clients.clients(), &self.active[..]);
        if active.is_empty() {
            return Err(FlError::NoClients);
        }
        // The client at cohort position `i` (an index in the active list).
        let client = |i: u32| &clients[active[i as usize] as usize];
        let round_span = oasis_telemetry::span("fl.round");
        let mut timings = oasis_telemetry::enabled().then(oasis_fl::RoundTimings::default);
        let m = CohortScheduler::cohort_size(active.len(), self.server.config().clients_per_round);
        let select_span = oasis_telemetry::span("fl.round.select");
        let (cohort, round_seed) = self.scheduler.sample(active.len(), m, rng);
        let cohort: Vec<u32> = cohort.to_vec();
        let select_ns = select_span.finish_ns();

        let broadcast_span = oasis_telemetry::span("fl.round.broadcast");
        // The server's own parameter tensors, shared copy-on-write:
        // every client reads them in place, and they are dropped
        // before the step so it updates the weights in place.
        let global = self.server.global_params();
        let n: usize = global.iter().map(|t| t.numel()).sum();
        let bytes_down_each = n * 4;
        let codec = self.server.wire().codec().build();
        let bytes_up_each = codec.encoded_len(n);
        let net = self.server.wire().net;
        let round = self.server.round();
        let broadcast_ns = broadcast_span.finish_ns();

        // Delivery plan: per-submission fates are pure in
        // (seed, round, client, bytes), and bytes are value-
        // independent, so the whole wire outcome is known before a
        // single gradient is computed. Dropped clients cost nothing.
        let deliver_span = oasis_telemetry::span("fl.round.deliver");
        let submissions: Vec<Submission> = cohort
            .iter()
            .map(|&id| Submission {
                client_id: id as usize,
                bytes_up: bytes_up_each,
                bytes_down: bytes_down_each,
            })
            .collect();
        let traffic = net.deliver(round_seed, round as u64, &submissions);
        let delivered_ids: Vec<u32> = traffic
            .deliveries
            .iter()
            .filter(|d| d.status == DeliveryStatus::Delivered)
            .map(|d| d.client_id as u32)
            .collect();
        let deliver_ns = deliver_span.finish_ns();

        let batch = self.server.config().local_batch_size;
        let mut hydrate_ns = 0u64;
        let mut compute_ns = 0u64;
        let mut fold_ns = 0u64;
        let mut step_ns = 0u64;
        let (mean_loss, update_norm) = if delivered_ids.is_empty() {
            (0.0, 0.0)
        } else {
            // Meta pre-pass: FedAvg weights need the delivered total
            // before the first fold. `round_samples` is a count from
            // the shard length and the defense stack alone — no batch,
            // no model, no gradients. Each update's reported count is
            // checked against it at fold time. The pre-pass also
            // allocates the fold's accumulator, so that the allocation
            // falls inside a timed phase.
            let hydrate_span = oasis_telemetry::span("fl.round.hydrate");
            let samples: Vec<usize> = delivered_ids
                .iter()
                .map(|&id| client(id).round_samples(batch))
                .collect();
            let mut acc = vec![0.0f32; n];
            hydrate_ns = hydrate_span.finish_ns();
            let total: usize = samples.iter().sum();
            if total == 0 {
                return Err(FlError::BadConfig(
                    "weighted FedAvg over zero samples".into(),
                ));
            }
            // Waves of clients: compute → encode, then drop the
            // gradients; only the wire frame survives into the serial
            // fold, which runs in delivery order so the FP sequence is
            // the same at any thread count.
            let wave_width = parallel::effective_parallelism()
                .min(delivered_ids.len())
                .max(1);
            let factory = self.server.factory().clone();
            let mut loss_sum = 0.0f32;
            let mut predicted = samples.iter().copied();
            for wave in delivered_ids.chunks(wave_width) {
                let compute_span = oasis_telemetry::span("fl.round.compute");
                let frames: Vec<Result<(f32, usize, EncodedUpdate)>> =
                    parallel::map_indexed(wave, |_, &id| {
                        let update =
                            client(id).compute_update(&factory, &global, batch, round_seed)?;
                        let encoded = codec.encode(&update.grads)?;
                        Ok((update.loss, update.samples, encoded))
                    });
                compute_ns += compute_span.finish_ns();
                let fold_span = oasis_telemetry::span("fl.round.fold");
                for ((&id, frame), expected) in wave.iter().zip(frames).zip(&mut predicted) {
                    let (loss, samples, encoded) = frame?;
                    // A defense whose `processed_len` disagrees with
                    // its batch transform would skew every FedAvg
                    // weight of the round: refuse it before the step.
                    if samples != expected {
                        return Err(FlError::BadConfig(format!(
                            "client {id} reported {samples} samples, its defense stack predicted {expected}"
                        )));
                    }
                    let agg_span = oasis_telemetry::span("agg.fold");
                    codec.fold_into(&encoded, samples as f32 / total as f32, &mut acc)?;
                    drop(agg_span);
                    loss_sum += loss;
                }
                fold_ns += fold_span.finish_ns();
            }
            drop(global);
            oasis_telemetry::counter!("fl.clients_computed").add(delivered_ids.len() as u64);
            oasis_telemetry::gauge!("agg.peak_accum_bytes").set_max((acc.len() * 4) as i64);
            let mean_loss = loss_sum / delivered_ids.len() as f32;
            let step_span = oasis_telemetry::span("fl.round.step");
            let update_norm = acc.iter().map(|g| g * g).sum::<f32>().sqrt();
            self.server.apply_update(&acc)?;
            step_ns = step_span.finish_ns();
            (mean_loss, update_norm)
        };
        oasis_telemetry::counter!("fl.rounds").add(1);
        let total_ns = round_span.finish_ns();
        if let Some(t) = timings.as_mut() {
            t.select_ns = select_ns;
            t.broadcast_ns = broadcast_ns;
            t.hydrate_ns = hydrate_ns;
            t.compute_ns = compute_ns;
            t.deliver_ns = deliver_ns;
            t.fold_ns = fold_ns;
            t.step_ns = step_ns;
            t.total_ns = total_ns;
        }

        let report = RoundReport {
            round,
            participants: delivered_ids.len(),
            cohort: cohort.len(),
            dropped: traffic.dropped,
            mean_loss,
            update_norm,
            bytes_up: traffic.bytes_up,
            bytes_down: traffic.bytes_down,
            sim_ms: traffic.round_ms,
            timings,
        };
        self.server.set_round(round + 1);
        Ok(report)
    }

    /// Runs `rounds` rounds with per-round keyed rng streams
    /// ([`CohortScheduler::round_rng`]): round `r` depends only on
    /// `(seed, r)`, so long runs can be split, resumed, or replayed
    /// from any round without replaying the prefix. (One sequential
    /// rng across rounds is available by driving
    /// [`CohortRunner::run_round`] directly.)
    ///
    /// # Errors
    ///
    /// Stops at the first failing round.
    pub fn run(&mut self, rounds: usize, seed: u64) -> Result<Vec<RoundReport>> {
        (0..rounds)
            .map(|_| {
                let mut rng = CohortScheduler::round_rng(seed, self.server.round() as u64);
                self.run_round(&mut rng)
            })
            .collect()
    }
}

impl std::fmt::Debug for CohortRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CohortRunner(population={}, {:?})",
            self.clients.len(),
            self.server,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_data::cifar_like_with;
    use oasis_fl::{DefenseStack, FlClient, FlConfig, ModelFactory, WireConfig};
    use oasis_nn::{flatten_params, Linear, Relu, Sequential};
    use oasis_wire::{CodecSpec, NetSpec};
    use rand::SeedableRng;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Parameters of the default test model (hidden width 12).
    const PARAMS: usize = 8 * 8 * 3 * 12 + 12 + 12 * 3 + 3;

    /// A two-layer MLP on 8×8×3 inputs and 3 classes.
    fn server_with(hidden: usize, config: FlConfig) -> FlServer {
        let factory: ModelFactory = Arc::new(move || {
            let mut rng = StdRng::seed_from_u64(11);
            let mut m = Sequential::new();
            m.push(Linear::new(8 * 8 * 3, hidden, &mut rng));
            m.push(Relu::new());
            m.push(Linear::new(hidden, 3, &mut rng));
            m
        });
        FlServer::new(factory, config).unwrap()
    }

    fn server(config: FlConfig) -> FlServer {
        server_with(12, config)
    }

    fn runner(population: usize, cohort: usize) -> CohortRunner {
        let data = cifar_like_with(3, 8, 8, 3);
        let pop = Population::iid(
            &data,
            population,
            Arc::new(DefenseStack::identity()),
            &mut StdRng::seed_from_u64(5),
        );
        CohortRunner::new(
            server(FlConfig {
                clients_per_round: cohort,
                ..FlConfig::default()
            }),
            pop,
        )
    }

    /// Four clients over the whole 8×8 pool, as a hand-built list.
    fn resident_clients() -> Vec<FlClient> {
        Population::iid(
            &cifar_like_with(3, 8, 8, 3),
            4,
            Arc::new(DefenseStack::identity()),
            &mut StdRng::seed_from_u64(5),
        )
        .clients()
        .to_vec()
    }

    fn resident(config: FlConfig) -> CohortRunner {
        CohortRunner::new(server(config), resident_clients())
    }

    #[test]
    fn cohort_round_reports_sampling() {
        let mut r = runner(200, 16);
        assert_eq!(r.active().len(), 200);
        let report = r.run_round(&mut StdRng::seed_from_u64(0)).unwrap();
        assert_eq!(report.cohort, 16);
        assert_eq!(report.participants, 16);
        assert!(report.update_norm > 0.0);
    }

    #[test]
    fn dropped_cohort_members_are_never_computed() {
        // Counts the local steps: each computed client runs its
        // defense's batch transform once.
        struct Steps(Arc<AtomicUsize>);
        impl oasis_fl::Defense for Steps {
            fn name(&self) -> &str {
                "steps"
            }
            fn process(&self, batch: oasis_data::Batch, _rng: &mut StdRng) -> oasis_data::Batch {
                self.0.fetch_add(1, Ordering::Relaxed);
                batch
            }
        }
        let steps = Arc::new(AtomicUsize::new(0));
        let pop = Population::iid(
            &cifar_like_with(3, 8, 8, 3),
            100,
            Arc::new(DefenseStack::of(Steps(Arc::clone(&steps)))),
            &mut StdRng::seed_from_u64(5),
        );
        let config = FlConfig {
            clients_per_round: 32,
            ..FlConfig::default()
        };
        let mut r = CohortRunner::new(server(config), pop);
        r.server_mut().set_wire(WireConfig::new(
            CodecSpec::Raw,
            "sim:5,10,0.4".parse().unwrap(),
        ));
        let report = r.run_round(&mut StdRng::seed_from_u64(1)).unwrap();
        assert!(report.dropped > 0, "40% loss should drop");
        assert_eq!(report.participants + report.dropped, report.cohort);
        assert_eq!(steps.load(Ordering::Relaxed), report.participants);
    }

    #[test]
    fn keyed_run_splits_cleanly() {
        let mut whole = runner(64, 8);
        let all = whole.run(4, 99).unwrap();
        let mut split = runner(64, 8);
        let first = split.run(2, 99).unwrap();
        let rest = split.run(2, 99).unwrap();
        let rejoined: Vec<_> = first.into_iter().chain(rest).collect();
        assert_eq!(all, rejoined);
    }

    #[test]
    fn empty_population_errors() {
        let mut r = runner(4, 0);
        r.set_active(|_, _| false);
        assert!(matches!(
            r.run_round(&mut StdRng::seed_from_u64(0)),
            Err(FlError::NoClients)
        ));
        let mut resident = CohortRunner::new(server(FlConfig::default()), Vec::<FlClient>::new());
        assert!(matches!(
            resident.run_round(&mut StdRng::seed_from_u64(0)),
            Err(FlError::NoClients)
        ));
    }

    #[test]
    fn a_defense_whose_count_lies_fails_the_round_before_the_step() {
        // Doubles the batch but predicts it unchanged: the pre-pass
        // FedAvg weights would sum to 2 if the round went ahead.
        struct Liar;
        impl oasis_fl::Defense for Liar {
            fn name(&self) -> &str {
                "liar"
            }
            fn process(
                &self,
                mut batch: oasis_data::Batch,
                _rng: &mut StdRng,
            ) -> oasis_data::Batch {
                batch.images.extend_from_within(..);
                batch.labels.extend_from_within(..);
                batch
            }
        }
        let clients = Population::iid(
            &cifar_like_with(3, 8, 8, 3),
            4,
            Arc::new(DefenseStack::of(Liar)),
            &mut StdRng::seed_from_u64(5),
        );
        let mut r = CohortRunner::new(server(FlConfig::default()), clients);
        let before = r.server().broadcast_weights();
        let err = r.run_round(&mut StdRng::seed_from_u64(0)).unwrap_err();
        assert!(
            matches!(&err, FlError::BadConfig(m) if m.contains("predicted")),
            "{err}"
        );
        assert_eq!(r.server().broadcast_weights(), before);
        assert_eq!(r.server().round(), 0);
    }

    #[test]
    fn ideal_wire_reports_traffic() {
        let report = resident(FlConfig::default())
            .run_round(&mut StdRng::seed_from_u64(0))
            .unwrap();
        // Raw codec: every update is slightly larger than 4·n bytes
        // (wire header), broadcast is exactly 4·n per client.
        assert_eq!(report.bytes_down, 4 * (4 * PARAMS as u64));
        assert!(report.bytes_up > 4 * (4 * PARAMS as u64));
        assert_eq!(report.sim_ms, 0.0);
    }

    #[test]
    fn training_survives_a_lossy_wire() {
        let config = FlConfig {
            learning_rate: 0.5,
            local_batch_size: 8,
            clients_per_round: 0,
        };
        let mut r = CohortRunner::new(server_with(24, config), resident_clients());
        r.server_mut().set_wire(WireConfig::new(
            CodecSpec::Q8,
            "sim:5,10,0.2".parse().unwrap(),
        ));
        let mut rng = StdRng::seed_from_u64(42);
        let reports: Vec<RoundReport> = (0..30).map(|_| r.run_round(&mut rng).unwrap()).collect();
        let delivered: usize = reports.iter().map(|r| r.participants).sum();
        let dropped: usize = reports.iter().map(|r| r.dropped).sum();
        assert!(dropped > 0, "20% loss should drop something over 30 rounds");
        assert!(delivered > dropped, "most updates should still arrive");
        assert!(reports.iter().all(|r| r.sim_ms > 0.0));
        let first: f32 = reports[..3].iter().map(|r| r.mean_loss).sum::<f32>() / 3.0;
        let last: f32 = reports[reports.len() - 3..]
            .iter()
            .map(|r| r.mean_loss)
            .sum::<f32>()
            / 3.0;
        assert!(
            last < first,
            "lossy-wire FL did not learn: {first} -> {last}"
        );
    }

    #[test]
    fn q8_wire_compresses_uplink() {
        let mut raw = resident(FlConfig::default());
        let raw_report = raw.run_round(&mut StdRng::seed_from_u64(0)).unwrap();
        let mut q8 = resident(FlConfig::default());
        q8.server_mut()
            .set_wire(WireConfig::new(CodecSpec::Q8, NetSpec::Ideal));
        let q8_report = q8.run_round(&mut StdRng::seed_from_u64(0)).unwrap();
        let (q8_up, raw_up) = (q8_report.bytes_up, raw_report.bytes_up);
        assert!(
            q8_up * 3 < raw_up,
            "q8 uplink {q8_up} should be well under raw {raw_up}"
        );
    }

    #[test]
    fn resident_clients_match_their_population() {
        // A hand-built client list and a population built from the
        // same rng hold the same shards, so they run the same rounds.
        let data = cifar_like_with(3, 8, 8, 3);
        let pop = Population::iid(
            &data,
            4,
            Arc::new(DefenseStack::identity()),
            &mut StdRng::seed_from_u64(5),
        );
        let mut lazy = CohortRunner::new(server(FlConfig::default()), pop);
        let mut resident = resident(FlConfig::default());
        assert_eq!(lazy.run(2, 8).unwrap(), resident.run(2, 8).unwrap());
        assert_eq!(
            flatten_params(lazy.server().model()),
            flatten_params(resident.server().model())
        );
    }
}
