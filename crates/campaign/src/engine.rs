//! The campaign engine: drives a [`CohortRunner`] through the phases
//! of a [`CampaignSpec`], applying churn, drift, network changes, and
//! adversary probes round by round.
//!
//! ## Determinism and resumability
//!
//! Every round `r` trains under
//! [`CohortScheduler::round_rng`]`(seed, r)` — exactly the stream
//! [`CohortRunner::run`] uses — so a one-phase campaign with no
//! dynamics reproduces today's cohort rounds bit for bit at any
//! thread count. Every *dynamic* draws from its own salted stream
//! (churn keyed by round, drift by phase, adversary probes by round),
//! never from the training rng, so adding churn to a phase does not
//! perturb the rounds before it and any round's dynamics can be
//! replayed without training. That is what makes campaigns
//! checkpoint-resumable: [`CampaignRunner::seek`] fast-forwards the
//! population dynamics to a round, and restoring the model weights
//! there continues the campaign on the identical trajectory.

use std::sync::Arc;

use oasis_attacks::{run_attack, ActiveAttack, AttackError};
use oasis_data::{Batch, Dataset};
use oasis_fl::{DefenseStack, FlConfig, FlError, FlServer, ModelFactory, WireConfig};
use oasis_image::Image;
use oasis_population::{CohortRunner, CohortScheduler, Population};
use oasis_scenario::{AttackSpec, DefenseSpec, ScenarioError, LEAK_THRESHOLD_DB};
use oasis_wire::{CodecSpec, NetSpec};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::spec::{CampaignSpec, PhaseSpec};
use crate::trajectory::{TrajectoryRecord, TrajectoryReport};

/// A [`ModelFactory`] producing the evaluation workhorse model —
/// `Linear(d, hidden) → ReLU → Linear(hidden, classes)` with weights
/// drawn from `seed` — shared by the campaign binaries and tests.
///
/// The weights are drawn once, when the factory is built; every call
/// returns a fresh model sharing them copy-on-write, bit-identical to
/// drawing them anew, so a call copies no weight.
pub fn linear_relu_factory(d: usize, hidden: usize, classes: usize, seed: u64) -> ModelFactory {
    use oasis_nn::{Linear, Relu, Sequential};
    let mut rng = StdRng::seed_from_u64(seed);
    let drawn = [
        Linear::new(d, hidden, &mut rng),
        Linear::new(hidden, classes, &mut rng),
    ];
    let parts = drawn.map(|layer| (layer.weight().clone(), layer.bias().clone()));
    Arc::new(move || {
        let [first, second] = parts
            .clone()
            .map(|(w, b)| Linear::from_parts(w, b).expect("shapes drawn by Linear::new"));
        let mut model = Sequential::new();
        model.push(first);
        model.push(Relu::new());
        model.push(second);
        model
    })
}

/// The round-mixing multiplier shared with
/// [`CohortScheduler::round_rng`].
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Stream salts keeping each dynamic's rng disjoint from the training
/// stream (keyed bare `seed ^ round·GOLDEN`) and from each other.
const CHURN_SALT: u64 = 0xC482_91AD_55E1_0B7F;
const DRIFT_SALT: u64 = 0xD21F_7A3C_9B64_E015;
const ADV_SALT: u64 = 0xAD7E_4501_C3F8_269B;
const PROBE_SALT: u64 = 0x0B5E_55ED_71A2_D4C3;
const CAL_SALT: u64 = 0xCA1B_0A8E_6F3D_1257;

/// Size of the batch the adversary probes (capped at the dataset).
const PROBE_BATCH: usize = 8;

/// Per-round churn stream: which clients leave or rejoin at round
/// `round`. Keyed by round only, so churn replays without training.
pub fn churn_rng(seed: u64, round: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ CHURN_SALT ^ round.wrapping_mul(GOLDEN))
}

/// Per-phase drift stream: the Dirichlet re-partition applied when
/// phase `phase` is entered.
pub fn drift_rng(seed: u64, phase: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ DRIFT_SALT ^ phase.wrapping_mul(GOLDEN))
}

/// Per-round adversary probe seed (passed to
/// [`oasis_attacks::run_attack`]).
pub fn adversary_seed(seed: u64, round: u64) -> u64 {
    seed ^ ADV_SALT ^ round.wrapping_mul(GOLDEN)
}

/// Errors a campaign can raise.
#[derive(Debug)]
pub enum CampaignError {
    /// A spec could not be parsed or built.
    Spec(ScenarioError),
    /// The federation substrate failed.
    Fl(FlError),
    /// An adversary probe failed.
    Attack(AttackError),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Spec(e) => write!(f, "campaign spec error: {e}"),
            CampaignError::Fl(e) => write!(f, "campaign federation error: {e}"),
            CampaignError::Attack(e) => write!(f, "campaign adversary error: {e}"),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<ScenarioError> for CampaignError {
    fn from(e: ScenarioError) -> Self {
        CampaignError::Spec(e)
    }
}

impl From<FlError> for CampaignError {
    fn from(e: FlError) -> Self {
        CampaignError::Fl(e)
    }
}

impl From<AttackError> for CampaignError {
    fn from(e: AttackError) -> Self {
        CampaignError::Attack(e)
    }
}

/// Everything a campaign needs besides its [`CampaignSpec`].
pub struct CampaignSetup {
    /// The workload the population shards.
    pub dataset: Dataset,
    /// Population size (client count).
    pub clients: usize,
    /// Defense stack every client runs, fixed for the whole campaign.
    pub defense: DefenseSpec,
    /// Server model factory.
    pub factory: ModelFactory,
    /// Federation hyperparameters.
    pub fl: FlConfig,
    /// Update codec on the wire (networks come from the phases).
    pub codec: CodecSpec,
    /// Campaign seed — keys training, churn, drift, and probes.
    pub seed: u64,
    /// Seed for the initial i.i.d. partition (ignored when phase 0
    /// declares `alpha=`); separate from `seed` so a campaign can
    /// reproduce an existing population exactly.
    pub partition_seed: u64,
    /// Evaluate the adversary every `eval_every` rounds (0 = never,
    /// even when phases declare candidates).
    pub eval_every: usize,
}

impl CampaignSetup {
    /// A setup with the evaluation defaults: no defense, default FL
    /// hyperparameters, raw codec, adversary probed every round.
    pub fn new(dataset: Dataset, clients: usize, factory: ModelFactory) -> Self {
        CampaignSetup {
            dataset,
            clients,
            defense: DefenseSpec::none(),
            factory,
            fl: FlConfig::default(),
            codec: CodecSpec::Raw,
            seed: 0,
            partition_seed: 0,
            eval_every: 1,
        }
    }
}

/// One adversary candidate's probe outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct AdversaryEval {
    /// Round the probe ran at.
    pub round: u64,
    /// Canonical candidate spec.
    pub spec: String,
    /// Mean PSNR of the candidate's reconstructions.
    pub mean_psnr: f64,
    /// Leak rate at the campaign threshold.
    pub leak_rate: f64,
    /// Whether this candidate won the round (worst case for the
    /// defender).
    pub picked: bool,
}

/// Drives a [`CohortRunner`] through a [`CampaignSpec`].
pub struct CampaignRunner {
    spec: CampaignSpec,
    dataset: Dataset,
    clients: usize,
    seed: u64,
    codec: CodecSpec,
    eval_every: usize,
    probe: Option<Batch>,
    calibration_pool: Vec<Image>,
    runner: CohortRunner,
    defense: Arc<DefenseStack>,
    base: Population,
    active: Vec<bool>,
    active_count: usize,
    entered_phase: usize,
    attack_cache: Vec<(String, Box<dyn ActiveAttack>)>,
    adversary_log: Vec<AdversaryEval>,
    records: Vec<TrajectoryRecord>,
}

impl CampaignRunner {
    /// Builds the campaign at round 0: partitions the population
    /// (Dirichlet when phase 0 declares `alpha=`, i.i.d. otherwise),
    /// installs phase 0's network, and draws the adversary's probe
    /// batch and a shuffled calibration pool from the dataset.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Spec`] when there are no clients or
    /// the dataset is empty, and [`CampaignError::Fl`] when the server
    /// cannot be built.
    pub fn new(spec: CampaignSpec, setup: CampaignSetup) -> Result<Self, CampaignError> {
        let CampaignSetup {
            dataset,
            clients,
            defense,
            factory,
            fl,
            codec,
            seed,
            partition_seed,
            eval_every,
        } = setup;
        if clients == 0 {
            return Err(CampaignError::Spec(ScenarioError::BadSpec(
                "campaign needs at least one client".into(),
            )));
        }
        if dataset.is_empty() {
            return Err(CampaignError::Spec(ScenarioError::BadSpec(
                "campaign needs a non-empty dataset".into(),
            )));
        }
        let defense = Arc::new(defense.build());
        let phase0 = spec.phases()[0].clone();
        let base = match phase0.alpha {
            Some(alpha) => Population::dirichlet(
                &dataset,
                clients,
                alpha,
                Arc::clone(&defense),
                &mut drift_rng(seed, 0),
            ),
            None => Population::iid(
                &dataset,
                clients,
                Arc::clone(&defense),
                &mut StdRng::seed_from_u64(partition_seed),
            ),
        };
        let mut server = FlServer::new(factory, fl)?;
        server.set_wire(WireConfig::new(codec, phase0.net.unwrap_or(NetSpec::Ideal)));
        let runner = CohortRunner::new(server, base.clone());

        // The adversary's probe batch and calibration pool come from
        // the training dataset itself, on streams salted away from
        // training: the pool is a seeded shuffle of the dataset
        // (cycled when a family needs more images than it holds), so
        // it spans every class — unlike `Scenario::calibration_images`,
        // a class-major prefix of a separately seeded dataset. Each
        // family calibrates on the pool's first
        // `default_calibration()` images.
        let wants_adversary = eval_every > 0 && spec.phases().iter().any(|p| !p.attack.is_empty());
        let probe = if wants_adversary {
            let size = PROBE_BATCH.clamp(1, dataset.len());
            Some(dataset.sample_batch(size, &mut StdRng::seed_from_u64(seed ^ PROBE_SALT)))
        } else {
            None
        };
        let calibration_need = spec
            .phases()
            .iter()
            .flat_map(|p| p.attack.iter().map(|a| a.default_calibration()))
            .max()
            .unwrap_or(0);
        let calibration_pool = if wants_adversary && calibration_need > 0 {
            let mut rng = StdRng::seed_from_u64(seed ^ CAL_SALT);
            let mut idx: Vec<usize> = (0..dataset.len()).collect();
            idx.shuffle(&mut rng);
            (0..calibration_need)
                .map(|i| dataset.items()[idx[i % idx.len()]].image.clone())
                .collect()
        } else {
            Vec::new()
        };

        let dirichlet_start = phase0.alpha.is_some();
        let mut campaign = CampaignRunner {
            spec,
            dataset,
            clients,
            seed,
            codec,
            eval_every,
            probe,
            calibration_pool,
            runner,
            defense,
            base,
            active: vec![true; clients],
            active_count: clients,
            entered_phase: 0,
            attack_cache: Vec::new(),
            adversary_log: Vec::new(),
            records: Vec::new(),
        };
        if dirichlet_start {
            // Dirichlet partitions can starve clients of data; keep
            // starved clients offline from round 0.
            campaign.sync_population();
        }
        Ok(campaign)
    }

    /// The campaign spec.
    pub fn spec(&self) -> &CampaignSpec {
        &self.spec
    }

    /// The next round to run (== rounds completed or skipped so far).
    pub fn round(&self) -> u64 {
        self.runner.server().round() as u64
    }

    /// Whether every phase has run to completion.
    pub fn is_complete(&self) -> bool {
        self.round() >= self.spec.total_rounds() as u64
    }

    /// The server being driven (checkpointing, evaluation).
    pub fn server(&self) -> &FlServer {
        self.runner.server()
    }

    /// Mutable server access (checkpoint restore on resume).
    pub fn server_mut(&mut self) -> &mut FlServer {
        self.runner.server_mut()
    }

    /// Trajectory records produced so far, in round order.
    pub fn records(&self) -> &[TrajectoryRecord] {
        &self.records
    }

    /// Every adversary candidate probe run so far.
    pub fn adversary_log(&self) -> &[AdversaryEval] {
        &self.adversary_log
    }

    /// Clients currently active (not churned out).
    pub fn active_clients(&self) -> usize {
        self.active_count
    }

    /// Assembles the trajectory report for everything run so far.
    pub fn trajectory(&self, defense_label: &str) -> TrajectoryReport {
        TrajectoryReport {
            spec: self.spec.to_string(),
            seed: self.seed,
            defense: defense_label.to_string(),
            clients: self.clients,
            records: self.records.clone(),
        }
    }

    /// Runs at most `rounds` rounds, stopping at the campaign's end.
    /// Returns how many rounds actually ran.
    ///
    /// # Errors
    ///
    /// Propagates federation and adversary failures.
    pub fn run_rounds(&mut self, rounds: usize) -> Result<usize, CampaignError> {
        let mut ran = 0;
        for _ in 0..rounds {
            if self.is_complete() {
                break;
            }
            self.step()?;
            ran += 1;
        }
        Ok(ran)
    }

    /// Runs the remaining rounds of every phase.
    ///
    /// # Errors
    ///
    /// Propagates federation and adversary failures.
    pub fn run(&mut self) -> Result<(), CampaignError> {
        while !self.is_complete() {
            self.step()?;
        }
        Ok(())
    }

    /// Fast-forwards the population dynamics (phase entries, drift
    /// re-partitions, churn) to `to_round` **without training** — the
    /// resume path: seek, then restore the model checkpoint taken at
    /// that round, and the campaign continues on the identical
    /// trajectory. Skipped rounds produce no trajectory records.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Spec`] when `to_round` lies past the
    /// campaign's end or behind the current round.
    pub fn seek(&mut self, to_round: u64) -> Result<(), CampaignError> {
        if to_round > self.spec.total_rounds() as u64 || to_round < self.round() {
            return Err(CampaignError::Spec(ScenarioError::BadSpec(format!(
                "cannot seek to round {to_round} (current {}, campaign ends at {})",
                self.round(),
                self.spec.total_rounds()
            ))));
        }
        while self.round() < to_round {
            let r = self.round();
            let (pi, phase) = self
                .spec
                .phase_at(r)
                .map(|(i, p)| (i, p.clone()))
                .expect("round inside campaign");
            self.ensure_phase(pi, &phase);
            self.apply_churn(r, &phase);
            let next = self.runner.server().round() + 1;
            self.runner.server_mut().set_round(next);
        }
        Ok(())
    }

    /// Runs one campaign round: phase entry (network swap, drift),
    /// churn, the training round under the round-keyed rng, the
    /// adversary probe, and trajectory recording.
    fn step(&mut self) -> Result<(), CampaignError> {
        let r = self.round();
        let (pi, phase) = self
            .spec
            .phase_at(r)
            .map(|(i, p)| (i, p.clone()))
            .expect("step called past campaign end");
        self.ensure_phase(pi, &phase);
        let (churn_left, churn_joined) = self.apply_churn(r, &phase);

        // The training stream: identical to `CohortRunner::run`.
        let mut rng = CohortScheduler::round_rng(self.seed, r);
        let report = self.runner.run_round(&mut rng)?.round_report;

        let probe_due = self.eval_every > 0
            && !phase.attack.is_empty()
            && r.is_multiple_of(self.eval_every as u64);
        let probe = if probe_due {
            self.evaluate_adversary(r, &phase.attack)?
        } else {
            None
        };

        let record = TrajectoryRecord {
            round: r,
            phase: pi,
            active_clients: self.active_count,
            cohort: report.cohort,
            delivered: report.participants,
            dropped: report.dropped,
            churn_left,
            churn_joined,
            bytes_up: report.bytes_up,
            bytes_down: report.bytes_down,
            sim_ms: report.sim_ms,
            mean_loss: report.mean_loss as f64,
            accuracy_proxy: (-(report.mean_loss as f64)).exp(),
            attack: probe.as_ref().map(|p| p.spec.clone()),
            mean_psnr: probe.as_ref().map(|p| p.mean_psnr),
            leak_rate: probe.as_ref().map(|p| p.leak_rate),
            timings_ns: report.timings.map(|t| {
                t.phases()
                    .iter()
                    .map(|&(name, ns)| (name.to_string(), ns))
                    .collect()
            }),
        };
        self.records.push(record);
        Ok(())
    }

    /// Applies phase-entry actions exactly once per phase: the
    /// network swap (sticky until overridden) and the Dirichlet drift
    /// re-partition. Phase 0's actions run at construction.
    fn ensure_phase(&mut self, pi: usize, phase: &PhaseSpec) {
        if pi == self.entered_phase {
            return;
        }
        if let Some(net) = phase.net {
            self.runner
                .server_mut()
                .set_wire(WireConfig::new(self.codec, net));
        }
        if let Some(alpha) = phase.alpha {
            self.base = Population::dirichlet(
                &self.dataset,
                self.clients,
                alpha,
                Arc::clone(&self.defense),
                &mut drift_rng(self.seed, pi as u64),
            );
            self.sync_population();
        }
        self.entered_phase = pi;
    }

    /// Flips client membership for round `r` on the churn stream: one
    /// uniform draw per client (position-independent), actives leave
    /// with `leave`, departed rejoin with `join`. The last active
    /// client never leaves, so the population cannot die.
    fn apply_churn(&mut self, r: u64, phase: &PhaseSpec) -> (usize, usize) {
        if phase.join.is_none() && phase.leave.is_none() {
            return (0, 0);
        }
        let join = phase.join.unwrap_or(0.0);
        let leave = phase.leave.unwrap_or(0.0);
        let mut rng = churn_rng(self.seed, r);
        let (mut left, mut joined) = (0usize, 0usize);
        for id in 0..self.clients {
            let u: f64 = rng.gen();
            if self.active[id] {
                if u < leave && self.active_count > 1 {
                    self.active[id] = false;
                    self.active_count -= 1;
                    left += 1;
                }
            } else if u < join {
                self.active[id] = true;
                self.active_count += 1;
                joined += 1;
            }
        }
        if left > 0 || joined > 0 {
            self.sync_population();
        }
        (left, joined)
    }

    /// Rebuilds the runner's population as the active subset of the
    /// base partition (clients keep their ids, so rejoining clients
    /// train on their original shards). Clients whose current shard
    /// is empty — extreme-α Dirichlet drift can starve a
    /// client of data — stay offline until a later re-partition
    /// provisions them again.
    fn sync_population(&mut self) {
        let eligible = |id: usize| !self.base.clients()[id].data().is_empty();
        if self.active_count == self.clients && (0..self.clients).all(eligible) {
            self.runner.set_population(self.base.clone());
            return;
        }
        let mut positions: Vec<usize> = (0..self.clients)
            .filter(|&id| self.active[id] && eligible(id))
            .collect();
        if positions.is_empty() {
            // Every active client is starved; keep the protocol alive
            // on whoever still holds data.
            positions = (0..self.clients).filter(|&id| eligible(id)).collect();
        }
        self.runner.set_population(self.base.subset(&positions));
    }

    /// Probes every candidate against the campaign's defense and returns
    /// the winner (max leak rate, then max PSNR) — the adaptive
    /// adversary's worst-case report.
    fn evaluate_adversary(
        &mut self,
        r: u64,
        candidates: &[AttackSpec],
    ) -> Result<Option<AdversaryEval>, CampaignError> {
        let probe = match &self.probe {
            Some(batch) => batch.clone(),
            None => return Ok(None),
        };
        let classes = self.dataset.num_classes();
        let probe_seed = adversary_seed(self.seed, r);
        let mut evals = Vec::with_capacity(candidates.len());
        for spec in candidates {
            let key = spec.to_string();
            if !self.attack_cache.iter().any(|(k, _)| *k == key) {
                let need = spec.default_calibration().min(self.calibration_pool.len());
                let attack = spec.build(&self.calibration_pool[..need], classes)?;
                self.attack_cache.push((key.clone(), attack));
            }
            let attack = &self
                .attack_cache
                .iter()
                .find(|(k, _)| *k == key)
                .expect("just inserted")
                .1;
            let outcome = run_attack(attack.as_ref(), &probe, &self.defense, classes, probe_seed)?;
            evals.push(AdversaryEval {
                round: r,
                spec: key,
                mean_psnr: outcome.mean_psnr(),
                leak_rate: outcome.leak_rate(LEAK_THRESHOLD_DB),
                picked: false,
            });
        }
        let winner = worst_case(&evals);
        if let Some(i) = winner {
            evals[i].picked = true;
        }
        let picked = winner.map(|i| evals[i].clone());
        self.adversary_log.extend(evals);
        Ok(picked)
    }
}

/// The index of the candidate the adaptive adversary reports: the
/// highest leak rate, then the highest mean PSNR, and the last of
/// equals. A NaN metric (a probe of a diverged model) ranks below
/// every number instead of panicking the campaign.
fn worst_case(evals: &[AdversaryEval]) -> Option<usize> {
    fn rank(a: f64, b: f64) -> std::cmp::Ordering {
        a.partial_cmp(&b)
            .unwrap_or_else(|| b.is_nan().cmp(&a.is_nan()))
    }
    evals
        .iter()
        .enumerate()
        .max_by(|(_, a), (_, b)| {
            rank(a.leak_rate, b.leak_rate).then_with(|| rank(a.mean_psnr, b.mean_psnr))
        })
        .map(|(i, _)| i)
}

impl std::fmt::Debug for CampaignRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampaignRunner")
            .field("spec", &self.spec.to_string())
            .field("round", &self.round())
            .field("active", &self.active_count)
            .field("clients", &self.clients)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn evals(metrics: &[(f64, f64)]) -> Vec<AdversaryEval> {
        metrics
            .iter()
            .map(|&(leak_rate, mean_psnr)| AdversaryEval {
                round: 0,
                spec: String::new(),
                mean_psnr,
                leak_rate,
                picked: false,
            })
            .collect()
    }

    #[test]
    fn probe_batch_and_calibration_pool_read_the_dataset_pixels() {
        let dataset = oasis_data::cifar_like_with(3, 8, 8, 3);
        let source: Vec<_> = dataset
            .items()
            .iter()
            .map(|it| it.image.data().as_ptr())
            .collect();
        let setup = CampaignSetup::new(dataset, 4, linear_relu_factory(192, 12, 3, 11));
        let spec = "campaign:2+attack=rtf:24".parse().unwrap();
        let campaign = CampaignRunner::new(spec, setup).unwrap();
        let probe = campaign.probe.as_ref().expect("a phase declares an attack");
        assert!(!probe.images.is_empty() && !campaign.calibration_pool.is_empty());
        for img in probe.images.iter().chain(&campaign.calibration_pool) {
            assert!(source.contains(&img.data().as_ptr()), "a sample was copied");
        }
    }

    #[test]
    fn worst_case_ranks_leak_rate_then_psnr() {
        assert_eq!(worst_case(&evals(&[])), None);
        assert_eq!(worst_case(&evals(&[(0.5, 20.0), (0.25, 90.0)])), Some(0));
        assert_eq!(worst_case(&evals(&[(0.5, 20.0), (0.5, 30.0)])), Some(1));
        // Ties pick the last candidate, as `max_by` does.
        assert_eq!(
            worst_case(&evals(&[(0.5, 30.0), (0.5, 30.0), (0.0, 1.0)])),
            Some(1)
        );
        assert_eq!(worst_case(&evals(&[(0.0, 0.0), (0.0, -0.0)])), Some(1));
    }

    #[test]
    fn worst_case_ranks_nan_below_every_number() {
        let inf = f64::INFINITY;
        let nan = f64::NAN;
        assert_eq!(worst_case(&evals(&[(nan, 50.0), (0.0, 1.0)])), Some(1));
        assert_eq!(worst_case(&evals(&[(0.0, 1.0), (nan, 50.0)])), Some(0));
        assert_eq!(worst_case(&evals(&[(0.5, nan), (0.5, -inf)])), Some(1));
        assert_eq!(worst_case(&evals(&[(0.5, -inf), (0.5, nan)])), Some(0));
        assert_eq!(worst_case(&evals(&[(-inf, 0.0), (nan, 0.0)])), Some(0));
        assert_eq!(worst_case(&evals(&[(0.5, inf), (0.5, 300.0)])), Some(0));
        // All NaN still picks someone: the last, as in any tie.
        assert_eq!(worst_case(&evals(&[(nan, nan), (nan, nan)])), Some(1));
        assert_eq!(worst_case(&evals(&[(nan, 3.0), (nan, nan)])), Some(0));
    }
}
