//! The round engine: one FL round over a population.

use oasis_fl::{FlError, FlServer, Result, RoundReport};
use oasis_tensor::parallel;
use oasis_wire::{DeliveryStatus, EncodedUpdate, Submission};
use rand::rngs::StdRng;

use crate::{CohortScheduler, Population, StreamingAggregator};

/// A [`RoundReport`] plus the resource facts of the streaming round.
#[derive(Debug, Clone, PartialEq)]
pub struct CohortReport {
    /// The protocol-level outcome.
    pub round_report: RoundReport,
    /// How many clients the cohort was sampled from.
    pub population: usize,
    /// How many clients actually computed an update. Dropped cohort
    /// members never compute — their delivery fate is known from the
    /// wire plan before any compute — so this equals
    /// `round_report.participants`, not the cohort.
    pub computed: usize,
    /// Peak accumulator + decode-scratch bytes held by the streaming
    /// fold, independent of population and cohort: `4·n` for an
    /// `n`-parameter model on the raw zero-copy wire (frames fold as
    /// borrowed views), `2 × 4·n` when a lossy codec needs a decode
    /// slot, and 0 when nothing is delivered.
    pub peak_accum_bytes: usize,
    /// Peak encoded-frame bytes alive at once: one wire frame per
    /// concurrent compute slot, `O(threads · frame)`, never
    /// `O(cohort · frame)`.
    pub peak_frame_bytes: usize,
}

/// The round engine: drives an [`FlServer`] through rounds sampled
/// from a [`Population`] — a partition, or any hand-built client list
/// converted into one.
///
/// Each round is cohort sampling → broadcast → delivery planning →
/// computing only the clients whose updates will arrive → streaming
/// aggregation → server step. Memory is `O(model + cohort_scratch)`
/// and dropped clients cost nothing, so a population can grow to
/// 10⁵–10⁶ while the server footprint stays flat.
///
/// Delivery fates are keyed by cohort position (the client's index in
/// the population), not by [`FlClient::id`](oasis_fl::FlClient::id).
pub struct CohortRunner {
    server: FlServer,
    clients: Population,
    scheduler: CohortScheduler,
}

impl CohortRunner {
    /// Couples a server to its clients. Cohort size comes from the
    /// server's [`oasis_fl::FlConfig::clients_per_round`]: `0` means
    /// every client.
    pub fn new(server: FlServer, clients: impl Into<Population>) -> Self {
        let clients = clients.into();
        let scheduler = CohortScheduler::new(clients.len());
        CohortRunner {
            server,
            clients,
            scheduler,
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

    /// The clients rounds sample from.
    pub fn population(&self) -> &Population {
        &self.clients
    }

    /// Replaces the clients mid-run — how campaigns express churn
    /// (an active-subset swap) and non-IID drift (a re-partition).
    /// The scheduler is rebuilt only when the client count changes,
    /// so a same-size swap leaves the sampling stream untouched.
    pub fn set_population(&mut self, clients: Population) {
        if clients.len() != self.scheduler.population() {
            self.scheduler = CohortScheduler::new(clients.len());
        }
        self.clients = clients;
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
    /// serial streaming fold in delivery order → server SGD step.
    ///
    /// A round where nothing is delivered is a no-op, not an error,
    /// and computes nothing.
    ///
    /// # Errors
    ///
    /// [`FlError::NoClients`] when there are no clients, client model
    /// errors, wire codec failures, a delivered set whose sample
    /// counts sum to zero, or an update whose sample count differs
    /// from the pre-pass count ([`FlError::BadConfig`]).
    pub fn run_round(&mut self, rng: &mut StdRng) -> Result<CohortReport> {
        let clients = self.clients.clients();
        if clients.is_empty() {
            return Err(FlError::NoClients);
        }
        let round_span = oasis_telemetry::span("fl.round");
        let mut timings = oasis_telemetry::enabled().then(oasis_fl::RoundTimings::default);
        let m = self
            .scheduler
            .cohort_size(self.server.config().clients_per_round);
        let select_span = oasis_telemetry::span("fl.round.select");
        let (cohort, round_seed) = self.scheduler.sample(m, rng);
        let cohort: Vec<u32> = cohort.to_vec();
        let select_ns = select_span.finish_ns();

        let broadcast_span = oasis_telemetry::span("fl.round.broadcast");
        let global = self.server.broadcast_weights();
        let n = global.len();
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
        let mut agg = None;
        let mut peak_frame_bytes = 0usize;
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
                .map(|&id| clients[id as usize].round_samples(batch))
                .collect();
            let agg = agg.insert(StreamingAggregator::new(n));
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
            peak_frame_bytes = wave_width * bytes_up_each;
            let factory = self.server.factory().clone();
            let mut loss_sum = 0.0f32;
            let mut predicted = samples.iter().copied();
            for wave in delivered_ids.chunks(wave_width) {
                let compute_span = oasis_telemetry::span("fl.round.compute");
                let frames: Vec<Result<(f32, usize, EncodedUpdate)>> =
                    parallel::map_indexed(wave, |_, &id| {
                        let update = clients[id as usize]
                            .compute_update(&factory, &global, batch, round_seed)?;
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
                    agg.fold(&*codec, &encoded, samples as f32 / total as f32)?;
                    loss_sum += loss;
                }
                fold_ns += fold_span.finish_ns();
            }
            oasis_telemetry::counter!("fl.clients_computed").add(delivered_ids.len() as u64);
            oasis_telemetry::gauge!("agg.peak_accum_bytes").set_max(agg.peak_bytes() as i64);
            let mean_loss = loss_sum / delivered_ids.len() as f32;
            let step_span = oasis_telemetry::span("fl.round.step");
            let update_norm = agg.norm();
            self.server.apply_update(agg.as_slice())?;
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
        Ok(CohortReport {
            round_report: report,
            population: clients.len(),
            computed: agg.as_ref().map_or(0, StreamingAggregator::folded),
            peak_accum_bytes: agg.as_ref().map_or(0, StreamingAggregator::peak_bytes),
            peak_frame_bytes,
        })
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
    pub fn run(&mut self, rounds: usize, seed: u64) -> Result<Vec<CohortReport>> {
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
        let report = r.run_round(&mut StdRng::seed_from_u64(0)).unwrap();
        assert_eq!(report.population, 200);
        assert_eq!(report.round_report.cohort, 16);
        assert_eq!(report.round_report.participants, 16);
        assert_eq!(report.computed, 16);
        assert!(report.round_report.update_norm > 0.0);
    }

    #[test]
    fn dropped_cohort_members_are_never_computed() {
        let mut r = runner(100, 32);
        r.server_mut().set_wire(WireConfig::new(
            CodecSpec::Raw,
            "sim:5,10,0.4".parse().unwrap(),
        ));
        let report = r.run_round(&mut StdRng::seed_from_u64(1)).unwrap();
        assert!(report.round_report.dropped > 0, "40% loss should drop");
        assert_eq!(report.computed, report.round_report.participants);
        assert_eq!(
            report.computed + report.round_report.dropped,
            report.round_report.cohort
        );
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
        let empty = runner(4, 0).population().subset(&[]);
        let mut r = CohortRunner::new(server(FlConfig::default()), empty);
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
            .unwrap()
            .round_report;
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
        let reports: Vec<RoundReport> = (0..30)
            .map(|_| r.run_round(&mut rng).unwrap().round_report)
            .collect();
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
        let (q8_up, raw_up) = (
            q8_report.round_report.bytes_up,
            raw_report.round_report.bytes_up,
        );
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

    #[test]
    fn raw_memory_stays_one_model_buffer_regardless_of_cohort() {
        // Raw frames fold as borrowed views — the streaming
        // aggregator never materializes a decode slot, so the peak is
        // exactly the accumulator however large the cohort.
        let mut r = runner(300, 64);
        let report = r.run_round(&mut StdRng::seed_from_u64(3)).unwrap();
        assert_eq!(report.peak_accum_bytes, 4 * PARAMS);
    }

    #[test]
    fn lossy_memory_stays_two_model_buffers_regardless_of_cohort() {
        let mut r = runner(300, 64);
        r.server_mut()
            .set_wire(WireConfig::new(CodecSpec::Q8, NetSpec::Ideal));
        let report = r.run_round(&mut StdRng::seed_from_u64(3)).unwrap();
        assert_eq!(report.peak_accum_bytes, 2 * 4 * PARAMS);
    }
}
