//! The scenario engine: one declarative value describing an
//! attack × defense × workload experiment, a parallel runner, and a
//! serializable report.

use oasis_attacks::{run_attack_over_wire, ActiveAttack, AttackOutcome, WireTrace};
use oasis_data::{Batch, Dataset};
use oasis_image::Image;
use oasis_metrics::Summary;
use oasis_population::CohortScheduler;
use oasis_wire::{CodecSpec, NetSpec, Submission};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::convert::Infallible;
use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Instant;

use crate::{out_path, AttackSpec, DefenseSpec, Scale, ScenarioError, WorkloadSpec};

/// How trial batches are drawn from the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Sampling {
    /// Uniformly without replacement (the default).
    #[default]
    Uniform,
    /// One sample per sampled class — all labels distinct, the
    /// setting of the linear-model inversion (paper §IV-D).
    UniqueLabels,
}

impl fmt::Display for Sampling {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Sampling::Uniform => "uniform",
            Sampling::UniqueLabels => "unique-labels",
        })
    }
}

impl FromStr for Sampling {
    type Err = ScenarioError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "uniform" => Ok(Sampling::Uniform),
            "unique-labels" | "unique_labels" => Ok(Sampling::UniqueLabels),
            other => Err(ScenarioError::BadSpec(format!(
                "unknown sampling `{other}` (expected uniform or unique-labels)"
            ))),
        }
    }
}

string_serde!(Sampling, "sampling");

/// One fully specified experiment: every knob of an
/// attack × defense × workload cell, as a serializable value.
///
/// Build with [`Scenario::builder`], execute with [`Scenario::run`]
/// (the crate docs show one) or, cell by cell, with a [`Sweep`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// The attack under evaluation.
    pub attack: AttackSpec,
    /// The client-side defense (or `none`).
    pub defense: DefenseSpec,
    /// The workload attacked.
    pub workload: WorkloadSpec,
    /// Client batch size `B`.
    pub batch_size: usize,
    /// Number of independent attacked rounds pooled.
    pub trials: usize,
    /// Resolution / grid scale.
    pub scale: Scale,
    /// Master seed: drives batch sampling; trial `i` attacks with
    /// seed `seed ^ i`.
    pub seed: u64,
    /// Seed of the workload dataset build (defaults to `seed`).
    pub dataset_seed: u64,
    /// Dataset is provisioned for batches up to this size (defaults
    /// to `batch_size`; grid figures share one dataset sized for
    /// their largest batch).
    pub dataset_capacity: usize,
    /// Number of calibration images the attacker fits its
    /// measurement statistics on.
    pub calibration: usize,
    /// How trial batches are drawn.
    pub sampling: Sampling,
    /// PSNR threshold (dB) above which a sample counts as leaked.
    pub leak_threshold_db: f64,
    /// Update codec the victim's upload crosses (default `raw`, which
    /// reproduces the in-process numbers bit-exactly).
    #[serde(default)]
    pub codec: CodecSpec,
    /// Simulated network between the victim and the dishonest server
    /// (default `ideal`: no latency, no loss).
    #[serde(default)]
    pub net: NetSpec,
    /// Deployment population the attacked rounds' cohorts are sampled
    /// from (`0` = the legacy single-victim wire: each trial puts
    /// exactly one submission on the network).
    #[serde(default)]
    pub population: usize,
    /// Cohort size `K` drawn per attacked round when `population > 0`
    /// — the victim is one member of a K-client round, and the wire
    /// carries all K uploads.
    #[serde(default)]
    pub sample: usize,
}

/// Seed of the calibration split — disjoint from every experiment
/// seed, mirroring the attacker's "coarse public statistics".
const CALIBRATION_SEED: u64 = 0xCA11B;

/// PSNR (dB) above which a reconstruction counts as a leak: the
/// scenario default and the campaign adversary's threshold.
pub const LEAK_THRESHOLD_DB: f64 = 60.0;

/// The calibration images the attacker is assumed to know: the first
/// `count` images, in dataset order, of the `workload` dataset at
/// `scale` drawn at a fixed calibration seed (sized for batches of
/// `count`). Dataset order is class-major, so this is a prefix of the
/// label space, not a class-balanced sample — on `imagenette` the
/// default 384 images come from classes 0–4 only. Only the prefix is
/// rendered, its classes in parallel ([`oasis_data::Generator::render`]).
/// (Campaign probes instead calibrate on a seeded shuffle of the
/// training dataset; see `oasis-campaign`.)
pub fn calibration_images(workload: WorkloadSpec, scale: Scale, count: usize) -> Vec<Image> {
    workload
        .generator(scale, count, CALIBRATION_SEED)
        .render(count)
        .into_iter()
        .map(|it| it.image)
        .collect()
}

impl Scenario {
    /// Starts building a scenario (defaults: `rtf:512` vs `none` on
    /// `imagenette`, `B = 8`, scale-default trials, seed 0).
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::default()
    }

    /// The one-line spec string `attack=… defense=… workload=… …`.
    ///
    /// Covers every axis that differs from its default (secondary
    /// axes like `dataset_seed` appear only when decoupled), so the
    /// printed line reproduces the run; the serialized
    /// [`ScenarioReport`] always carries the complete scenario.
    pub fn spec_string(&self) -> String {
        let mut s = format!(
            "attack={} defense={} workload={} batch={} trials={} scale={} seed={}",
            self.attack,
            self.defense,
            self.workload,
            self.batch_size,
            self.trials,
            self.scale,
            self.seed
        );
        if self.dataset_seed != self.seed {
            s.push_str(&format!(" dataset_seed={}", self.dataset_seed));
        }
        if self.dataset_capacity != self.batch_size {
            s.push_str(&format!(" dataset_capacity={}", self.dataset_capacity));
        }
        if self.calibration != self.attack.default_calibration() {
            s.push_str(&format!(" calibration={}", self.calibration));
        }
        let default_sampling = if self.attack.unique_labels_default() {
            Sampling::UniqueLabels
        } else {
            Sampling::Uniform
        };
        if self.sampling != default_sampling {
            s.push_str(&format!(" sampling={}", self.sampling));
        }
        if self.codec != CodecSpec::default() {
            s.push_str(&format!(" codec={}", self.codec));
        }
        if self.net != NetSpec::default() {
            s.push_str(&format!(" net={}", self.net));
        }
        if self.population > 0 {
            s.push_str(&format!(
                " population={} sample={}",
                self.population, self.sample
            ));
        }
        s
    }

    /// The trial batches this scenario draws from its workload
    /// `dataset` ([`Scenario::dataset`], or [`Sweep::dataset`]) — the
    /// same sequence [`Scenario::run`] attacks (trial `i` is element
    /// `i`). Visual figures use this to recover the original private
    /// images.
    pub fn trial_batches(&self, dataset: &Dataset) -> Vec<Batch> {
        let batch_size = self.batch_size.min(dataset.len());
        let mut rng = StdRng::seed_from_u64(self.seed);
        (0..self.trials)
            .map(|_| match self.sampling {
                Sampling::Uniform => dataset.sample_batch(batch_size, &mut rng),
                Sampling::UniqueLabels => dataset.sample_batch_unique_labels(batch_size, &mut rng),
            })
            .collect()
    }

    /// The calibration images the attacker is assumed to know:
    /// [`calibration_images`] for this scenario's workload, scale and
    /// calibration count.
    pub fn calibration_images(&self) -> Vec<Image> {
        calibration_images(self.workload, self.scale, self.calibration)
    }

    /// Builds the workload dataset this scenario attacks.
    pub fn dataset(&self) -> Dataset {
        self.workload
            .dataset(self.scale, self.dataset_capacity, self.dataset_seed)
    }

    /// Executes the scenario as a [`Sweep`] of one, building its own
    /// dataset, calibration images and calibrated attack (see
    /// [`Sweep::run`], which also says what each trial keeps).
    ///
    /// # Errors
    ///
    /// See [`Sweep::run`].
    pub fn run(&self) -> Result<ScenarioReport, ScenarioError> {
        Sweep::default().run(self)
    }

    /// Like [`Scenario::run`], but also returns the raw
    /// [`AttackOutcome`] of every trial (reconstruction pools and
    /// processed batches) for visual figures. [`Scenario::run`] frees
    /// each trial's pool as the trial ends; this keeps every one until
    /// the cell returns.
    ///
    /// # Errors
    ///
    /// See [`Sweep::run`].
    pub fn run_detailed(&self) -> Result<(ScenarioReport, Vec<AttackOutcome>), ScenarioError> {
        Sweep::default().run_detailed(self)
    }
}

/// Shared preparation for a sequence of scenarios: each distinct
/// workload dataset, calibration set and calibrated attack is built
/// once, on the first cell that needs it, and reused by every later
/// cell that asks for the same one.
///
/// Each value is keyed by exactly what it is a pure function of, so a
/// cell run through a sweep reports bit-for-bit what
/// [`Scenario::run`] reports for it alone (wall-clock fields aside).
/// Nothing is evicted before the sweep is dropped. In a trace,
/// `scenario.setup` wraps the lookups, and `scenario.dataset`,
/// `scenario.calibration` and `attack.calibrate` appear only for the
/// values a cell builds.
///
/// ```
/// use oasis_scenario::{Scale, Scenario, Sweep};
///
/// let mut sweep = Sweep::default();
/// for defense in ["none", "oasis:MR"] {
///     let cell = Scenario::builder()
///         .attack("rtf:32".parse().unwrap())
///         .defense(defense.parse().unwrap())
///         .workload("cifar100".parse().unwrap())
///         .scale(Scale::Quick)
///         .calibration(32)
///         .build()
///         .unwrap();
///     println!("{}", sweep.run(&cell).unwrap());
/// }
/// ```
#[derive(Default)]
pub struct Sweep {
    datasets: Vec<(DatasetKey, Dataset)>,
    calibrations: Vec<(CalibrationKey, Arc<Vec<Image>>)>,
    attacks: Vec<(AttackKey, Arc<dyn ActiveAttack>)>,
}

// (workload, scale, dataset capacity, dataset seed); (workload, scale,
// image count); (attack spec, calibration key, classes).
type DatasetKey = (WorkloadSpec, Scale, usize, u64);
type CalibrationKey = (WorkloadSpec, Scale, usize);
type AttackKey = (AttackSpec, CalibrationKey, usize);

/// The value cached under `key`, built by `build` on the first
/// request. A failed build caches nothing.
fn cached<K: PartialEq, V: Clone, E>(
    cache: &mut Vec<(K, V)>,
    key: K,
    build: impl FnOnce() -> Result<V, E>,
) -> Result<V, E> {
    if let Some((_, value)) = cache.iter().find(|(k, _)| *k == key) {
        return Ok(value.clone());
    }
    let value = build()?;
    cache.push((key, value.clone()));
    Ok(value)
}

impl Sweep {
    /// The workload dataset `scenario` attacks ([`Scenario::dataset`]),
    /// built on the first request for it. Handing it out copies no
    /// sample.
    pub fn dataset(&mut self, scenario: &Scenario) -> Dataset {
        let key = (
            scenario.workload,
            scenario.scale,
            scenario.dataset_capacity,
            scenario.dataset_seed,
        );
        let Ok(dataset) = cached(&mut self.datasets, key, || {
            let _span = oasis_telemetry::span("scenario.dataset");
            Ok::<_, Infallible>(scenario.dataset())
        });
        dataset
    }

    /// Runs one cell on whatever earlier cells prepared: all trial
    /// batches are drawn up front from the master seed, then attacked
    /// rounds fan out across the persistent worker pool via
    /// [`oasis_tensor::parallel`] (each trial's own matmuls run inline
    /// under the pool's nesting guard); results are bit-identical for
    /// a fixed scenario at any thread count.
    ///
    /// Every trial's update crosses the scenario's wire: it is
    /// encoded with the [`CodecSpec`] codec, carried by the
    /// [`NetSpec`] simulated network, and the attacker reconstructs
    /// from what the server folds out of the frame — trials whose
    /// upload is lost or straggles contribute no reconstructions (and
    /// no leaks), and a frame the codec refuses (a non-finite update)
    /// fails the cell.
    ///
    /// Each trial keeps only what its [`TrialReport`] needs (matched
    /// PSNRs, leak rate, client loss and wire sizes): its
    /// reconstruction pool and processed batch are freed as the trial
    /// ends, so the memory a cell holds grows with the pool width, not
    /// with the trial count.
    ///
    /// # Errors
    ///
    /// Returns an error if the spec cannot be constructed (bad
    /// calibration, unique-label sampling without enough classes) or
    /// an attacked round fails.
    pub fn run(&mut self, scenario: &Scenario) -> Result<ScenarioReport, ScenarioError> {
        self.run_keeping(scenario, drop).map(|(report, _)| report)
    }

    /// Like [`Sweep::run`], but also returns every trial's raw
    /// [`AttackOutcome`] (see [`Scenario::run_detailed`]). Every
    /// trial's reconstruction pool and processed batch stay alive
    /// until the cell returns, so this is for visual figures, not for
    /// long trial counts. The report equals [`Sweep::run`]'s.
    ///
    /// # Errors
    ///
    /// See [`Sweep::run`].
    pub fn run_detailed(
        &mut self,
        scenario: &Scenario,
    ) -> Result<(ScenarioReport, Vec<AttackOutcome>), ScenarioError> {
        self.run_keeping(scenario, |outcome| outcome)
    }

    /// The one setup-and-trial path behind [`Sweep::run`] and
    /// [`Sweep::run_detailed`]: each trial's report inputs are taken
    /// inside its trial, then `keep` decides what else of the outcome
    /// outlives it.
    fn run_keeping<K: Send>(
        &mut self,
        scenario: &Scenario,
        keep: impl Fn(AttackOutcome) -> K + Sync,
    ) -> Result<(ScenarioReport, Vec<K>), ScenarioError> {
        let run_span = oasis_telemetry::span("scenario.run");
        let started = Instant::now();
        let setup_span = oasis_telemetry::span("scenario.setup");
        let dataset = self.dataset(scenario);
        let classes = dataset.num_classes();
        let calibration_key = (scenario.workload, scenario.scale, scenario.calibration);
        let attack = cached(
            &mut self.attacks,
            (scenario.attack.clone(), calibration_key, classes),
            || -> Result<_, ScenarioError> {
                let Ok(images) = cached(&mut self.calibrations, calibration_key, || {
                    let _span = oasis_telemetry::span("scenario.calibration");
                    Ok::<_, Infallible>(Arc::new(scenario.calibration_images()))
                });
                Ok(Arc::from(scenario.attack.build(&images, classes)?))
            },
        )?;
        let defense = scenario.defense.build();
        let codec = scenario.codec.build();

        // Batches are drawn sequentially from one rng (so trial `i`
        // sees the same batch however many workers run), then the
        // expensive attacked rounds fan out across threads.
        let batches = scenario.trial_batches(&dataset);
        drop(setup_span);

        let outcomes: Vec<Result<(TrialResult, K, u64), ScenarioError>> =
            oasis_tensor::parallel::map_indexed(&batches, |i, batch| {
                let trial_span = oasis_telemetry::span("scenario.trial");
                let trial_seed = scenario.seed ^ i as u64;
                let outcome = run_attack_over_wire(
                    attack.as_ref(),
                    batch,
                    &defense,
                    classes,
                    trial_seed,
                    codec.as_ref(),
                )?;
                let result = TrialResult::of(&outcome, scenario.leak_threshold_db);
                let kept = keep(outcome);
                Ok((result, kept, trial_span.finish_ns()))
            });
        oasis_telemetry::counter!("scenario.trials").add(outcomes.len() as u64);

        let mut trials = Vec::with_capacity(outcomes.len());
        let mut kept = Vec::with_capacity(outcomes.len());
        let mut pooled = Vec::new();
        let mut bytes_on_wire = 0u64;
        let mut ratio_sum = 0.0f64;
        let mut cohort_delivered = 0usize;
        let mut scheduler = CohortScheduler::default();
        let mut trial_wall_ns = Vec::new();
        for (i, outcome) in outcomes.into_iter().enumerate() {
            let (result, outcome, trial_ns) = outcome?;
            if oasis_telemetry::enabled() {
                trial_wall_ns.push(trial_ns);
            }
            let trace = &result.wire;

            // Trial i is FL round i of the simulated deployment: does
            // this victim's upload actually reach the server?
            let (clients, net_seed) = if scenario.population > 0 {
                // Population mode: the victim shares round i with a
                // seeded K-cohort; the wire carries all K uploads
                // (every codec's size is value-independent, so the
                // peers' frames are byte-for-byte the victim's size)
                // and the victim is the cohort's first member.
                let mut rng = CohortScheduler::round_rng(scenario.seed, i as u64);
                let (cohort, round_seed) =
                    scheduler.sample(scenario.population, scenario.sample, &mut rng);
                (cohort.iter().map(|&id| id as usize).collect(), round_seed)
            } else {
                (vec![i], scenario.seed)
            };
            let submissions: Vec<Submission> = clients
                .into_iter()
                .map(|client_id| Submission {
                    client_id,
                    bytes_up: trace.encoded_bytes,
                    bytes_down: trace.broadcast_bytes,
                })
                .collect();
            let traffic = scenario.net.deliver(net_seed, i as u64, &submissions);
            let delivered = traffic.deliveries[0].status == oasis_wire::DeliveryStatus::Delivered;
            cohort_delivered += traffic.delivered;
            bytes_on_wire += traffic.bytes_up;
            ratio_sum += trace.compression_ratio();

            let (matched_psnrs, mean_psnr, leak_rate) = if delivered {
                pooled.extend_from_slice(&result.matched_psnrs);
                (result.matched_psnrs, result.mean_psnr, result.leak_rate)
            } else {
                (Vec::new(), 0.0, 0.0)
            };
            trials.push(TrialReport {
                trial: i,
                attack_seed: scenario.seed ^ i as u64,
                matched_psnrs,
                mean_psnr,
                leak_rate,
                client_loss: result.client_loss,
                dropped: !delivered,
                bytes_on_wire: trace.encoded_bytes,
                sim_ms: traffic.round_ms,
            });
            kept.push(outcome);
        }

        let summary = Summary::from_values(&pooled);
        let leak_rate = if trials.is_empty() {
            0.0
        } else {
            trials.iter().map(|t| t.leak_rate).sum::<f64>() / trials.len() as f64
        };
        let dropped_trials = trials.iter().filter(|t| t.dropped).count();
        let report = ScenarioReport {
            scenario: scenario.clone(),
            dropped_trials,
            cohort_delivered,
            bytes_on_wire,
            compression_ratio: if trials.is_empty() {
                1.0
            } else {
                ratio_sum / trials.len() as f64
            },
            trials,
            summary,
            leak_rate,
            trial_wall_ns,
            wall_clock_ms: started.elapsed().as_secs_f64() * 1e3,
        };
        drop(run_span);
        Ok((report, kept))
    }
}

/// What a [`ScenarioReport`] needs of one attacked trial, taken inside
/// the trial so the rest of its [`AttackOutcome`] can be freed there.
struct TrialResult {
    matched_psnrs: Vec<f64>,
    mean_psnr: f64,
    leak_rate: f64,
    client_loss: f32,
    wire: WireTrace,
}

impl TrialResult {
    fn of(outcome: &AttackOutcome, leak_threshold_db: f64) -> Self {
        TrialResult {
            matched_psnrs: outcome.matched_psnrs.clone(),
            mean_psnr: outcome.mean_psnr(),
            leak_rate: outcome.leak_rate(leak_threshold_db),
            client_loss: outcome.client_loss,
            wire: outcome
                .wire
                .clone()
                .expect("attacked rounds over a codec always record a wire trace"),
        }
    }
}

/// Fluent constructor for [`Scenario`] (see [`Scenario::builder`]).
#[derive(Debug, Clone, Default)]
pub struct ScenarioBuilder {
    attack: Option<AttackSpec>,
    defense: Option<DefenseSpec>,
    workload: Option<WorkloadSpec>,
    batch_size: Option<usize>,
    trials: Option<usize>,
    scale: Scale,
    seed: u64,
    dataset_seed: Option<u64>,
    dataset_capacity: Option<usize>,
    calibration: Option<usize>,
    sampling: Option<Sampling>,
    leak_threshold_db: Option<f64>,
    codec: CodecSpec,
    net: NetSpec,
    population: usize,
    sample: usize,
}

impl ScenarioBuilder {
    /// Sets the attack (default `rtf:512`).
    pub fn attack(mut self, attack: AttackSpec) -> Self {
        self.attack = Some(attack);
        self
    }

    /// Sets the defense (default `none`).
    pub fn defense(mut self, defense: DefenseSpec) -> Self {
        self.defense = Some(defense);
        self
    }

    /// Sets the workload (default `imagenette`).
    pub fn workload(mut self, workload: WorkloadSpec) -> Self {
        self.workload = Some(workload);
        self
    }

    /// Sets the client batch size `B` (default 8).
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = Some(batch_size);
        self
    }

    /// Sets the trial count (default: the scale's trial count).
    pub fn trials(mut self, trials: usize) -> Self {
        self.trials = Some(trials);
        self
    }

    /// Sets the scale (default [`Scale::Default`]).
    pub fn scale(mut self, scale: Scale) -> Self {
        self.scale = scale;
        self
    }

    /// Sets the master seed (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Decouples the dataset seed from the master seed.
    pub fn dataset_seed(mut self, dataset_seed: u64) -> Self {
        self.dataset_seed = Some(dataset_seed);
        self
    }

    /// Provisions the dataset for batches up to `max_batch` (grid
    /// figures share one dataset across their batch axis).
    pub fn dataset_capacity(mut self, max_batch: usize) -> Self {
        self.dataset_capacity = Some(max_batch);
        self
    }

    /// Overrides the calibration-image count (default: the attack's
    /// [`AttackSpec::default_calibration`]).
    pub fn calibration(mut self, images: usize) -> Self {
        self.calibration = Some(images);
        self
    }

    /// Overrides batch sampling (default: unique labels for `linear`,
    /// uniform otherwise).
    pub fn sampling(mut self, sampling: Sampling) -> Self {
        self.sampling = Some(sampling);
        self
    }

    /// Sets the leak-rate PSNR threshold in dB (default
    /// [`LEAK_THRESHOLD_DB`]).
    pub fn leak_threshold_db(mut self, threshold: f64) -> Self {
        self.leak_threshold_db = Some(threshold);
        self
    }

    /// Sets the update codec the victim's upload crosses (default
    /// `raw`).
    pub fn codec(mut self, codec: CodecSpec) -> Self {
        self.codec = codec;
        self
    }

    /// Sets the simulated network condition (default `ideal`).
    pub fn net(mut self, net: NetSpec) -> Self {
        self.net = net;
        self
    }

    /// Samples each attacked round's cohort from a deployment of
    /// `clients` (default 0: the legacy single-victim wire).
    pub fn population(mut self, clients: usize) -> Self {
        self.population = clients;
        self
    }

    /// Sets the per-round cohort size `K` (default when a population
    /// is set: `min(population, 64)`).
    pub fn sample(mut self, cohort: usize) -> Self {
        self.sample = cohort;
        self
    }

    /// Validates and assembles the scenario.
    ///
    /// # Errors
    ///
    /// Rejects zero batch sizes / trial counts and unique-label
    /// sampling on workloads with fewer classes than the batch size
    /// (the linear attack needs one class per sample — use the
    /// `imagenette100c` / `cifar100c` workloads).
    pub fn build(self) -> Result<Scenario, ScenarioError> {
        let attack = self.attack.unwrap_or_else(|| AttackSpec::rtf(512));
        let workload = self.workload.unwrap_or(WorkloadSpec::ImageNette);
        let batch_size = self.batch_size.unwrap_or(8);
        let sampling = self.sampling.unwrap_or(if attack.unique_labels_default() {
            Sampling::UniqueLabels
        } else {
            Sampling::Uniform
        });
        if batch_size == 0 {
            return Err(ScenarioError::BadSpec("batch size must be positive".into()));
        }
        let trials = self.trials.unwrap_or_else(|| self.scale.trials());
        if trials == 0 {
            return Err(ScenarioError::BadSpec(
                "trial count must be positive".into(),
            ));
        }
        if sampling == Sampling::UniqueLabels {
            let classes = workload.num_classes();
            if classes < batch_size {
                return Err(ScenarioError::BadSpec(format!(
                    "unique-label batches of {batch_size} need ≥ {batch_size} classes but \
                     workload `{workload}` has {classes}; use `{}`",
                    workload.linear_variant()
                )));
            }
        }
        let calibration = self
            .calibration
            .unwrap_or_else(|| attack.default_calibration());
        if self.population == 0 && self.sample > 0 {
            return Err(ScenarioError::BadSpec(
                "sample:K needs a population:N to sample from".into(),
            ));
        }
        let sample = if self.population > 0 && self.sample == 0 {
            self.population.min(64)
        } else {
            self.sample
        };
        if sample > self.population {
            return Err(ScenarioError::BadSpec(format!(
                "cohort sample:{sample} exceeds population:{}",
                self.population
            )));
        }
        Ok(Scenario {
            attack,
            defense: self.defense.unwrap_or_else(DefenseSpec::none),
            workload,
            batch_size,
            trials,
            scale: self.scale,
            seed: self.seed,
            dataset_seed: self.dataset_seed.unwrap_or(self.seed),
            dataset_capacity: self.dataset_capacity.unwrap_or(batch_size).max(batch_size),
            calibration,
            sampling,
            leak_threshold_db: self.leak_threshold_db.unwrap_or(LEAK_THRESHOLD_DB),
            codec: self.codec,
            net: self.net,
            population: self.population,
            sample,
        })
    }
}

/// One attacked round's scored result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrialReport {
    /// Trial index.
    pub trial: usize,
    /// Seed the attacked round ran with.
    pub attack_seed: u64,
    /// PSNR of every matched reconstruction↔original pair (dB).
    pub matched_psnrs: Vec<f64>,
    /// Mean matched PSNR (dB).
    pub mean_psnr: f64,
    /// Fraction of originals leaked above the scenario threshold.
    pub leak_rate: f64,
    /// The client's training loss during the attacked round.
    pub client_loss: f32,
    /// Whether the victim's upload was lost or cut off (dropped
    /// trials contribute no reconstructions). Inverted so that
    /// pre-wire artifacts, where the field is absent, correctly read
    /// back as delivered.
    #[serde(default)]
    pub dropped: bool,
    /// Encoded update bytes this trial put on the wire.
    #[serde(default)]
    pub bytes_on_wire: usize,
    /// Simulated round wall-clock in milliseconds (0 on `ideal`).
    #[serde(default)]
    pub sim_ms: f64,
}

/// Everything one scenario execution produced, with full provenance:
/// serializing the report records the exact [`Scenario`] that made it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioReport {
    /// The scenario that produced these numbers.
    pub scenario: Scenario,
    /// Per-trial results.
    pub trials: Vec<TrialReport>,
    /// Summary over the delivered trials' matched PSNRs (the paper's
    /// boxplots).
    pub summary: Summary,
    /// Mean per-trial leak rate at the scenario threshold (lost
    /// trials leak nothing and count as 0).
    pub leak_rate: f64,
    /// Trials whose upload was lost or cut off (0 for pre-wire
    /// artifacts, which predate loss — see
    /// [`ScenarioReport::delivered_trials`]).
    #[serde(default)]
    pub dropped_trials: usize,
    /// Cohort updates delivered across all attacked rounds. In
    /// population mode each round carries `scenario.sample` uploads;
    /// on the legacy single-victim wire this equals
    /// [`ScenarioReport::delivered_trials`] (0 for pre-population
    /// artifacts).
    #[serde(default)]
    pub cohort_delivered: usize,
    /// Total encoded update bytes across all trials.
    #[serde(default)]
    pub bytes_on_wire: u64,
    /// Mean `raw / encoded` ratio of the scenario's codec (> 1 means
    /// the updates were compressed; 0 marks a pre-wire artifact that
    /// recorded no ratio).
    #[serde(default)]
    pub compression_ratio: f64,
    /// Per-trial wall-clock in nanoseconds, recorded only while
    /// telemetry is enabled (see `oasis-telemetry`). Empty on
    /// untraced runs and on pre-telemetry artifacts, so the
    /// determinism-relevant fields above stay byte-identical whether
    /// tracing is on or off.
    #[serde(default)]
    pub trial_wall_ns: Vec<u64>,
    /// Wall-clock of the run in milliseconds.
    pub wall_clock_ms: f64,
}

impl ScenarioReport {
    /// Trials whose upload reached the server. Derived (rather than
    /// stored) so pre-wire artifacts, which carry no delivery fields,
    /// read back as fully delivered.
    pub fn delivered_trials(&self) -> usize {
        self.trials.len() - self.dropped_trials
    }

    /// All matched PSNRs pooled across trials.
    pub fn pooled_psnrs(&self) -> Vec<f64> {
        self.trials
            .iter()
            .flat_map(|t| t.matched_psnrs.iter().copied())
            .collect()
    }

    /// Mean matched PSNR — the single number of the grid figures.
    pub fn mean_psnr(&self) -> f64 {
        self.summary.mean
    }

    /// The canonical artifact filename for this report. Seeds and
    /// trial count are part of the name so seed sweeps over one cell
    /// do not overwrite each other.
    pub fn file_name(&self) -> String {
        let s = &self.scenario;
        let mut raw = format!(
            "scenario_{}_{}_{}_b{}_{}_t{}_s{}",
            s.attack, s.defense, s.workload, s.batch_size, s.scale, s.trials, s.seed
        );
        if s.dataset_seed != s.seed {
            raw.push_str(&format!("_ds{}", s.dataset_seed));
        }
        if s.codec != CodecSpec::default() {
            raw.push_str(&format!("_c{}", s.codec));
        }
        if s.net != NetSpec::default() {
            raw.push_str(&format!("_n{}", s.net));
        }
        if s.population > 0 {
            raw.push_str(&format!("_p{}_k{}", s.population, s.sample));
        }
        raw.push_str(".json");
        raw.chars()
            .map(|c| match c {
                ':' | ',' | '+' => '-',
                c => c,
            })
            .collect()
    }

    /// Serializes the report as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialization is infallible")
    }

    /// Writes the report under the artifact directory (`out/`, or
    /// `$OASIS_OUT_DIR` when set) and returns the path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn save(&self) -> Result<PathBuf, ScenarioError> {
        let path = out_path(&self.file_name());
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

impl fmt::Display for ScenarioReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.scenario.spec_string())?;
        writeln!(f, "  {}", self.summary)?;
        write!(
            f,
            "  leak rate: {:.1} % (> {:.0} dB)   wall clock: {:.0} ms",
            self.leak_rate * 100.0,
            self.scenario.leak_threshold_db,
            self.wall_clock_ms
        )?;
        if self.scenario.codec != CodecSpec::default() || self.scenario.net != NetSpec::default() {
            write!(
                f,
                "\n  wire: codec={} ({:.1}x) net={}   {} B up   delivered {}/{}",
                self.scenario.codec,
                self.compression_ratio,
                self.scenario.net,
                self.bytes_on_wire,
                self.delivered_trials(),
                self.trials.len(),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scenario {
        Scenario::builder()
            .workload(WorkloadSpec::Cifar100)
            .attack(AttackSpec::rtf(32))
            .defense(DefenseSpec::none())
            .batch_size(3)
            .trials(2)
            .scale(Scale::Quick)
            .seed(11)
            .calibration(32)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_fills_defaults() {
        let s = Scenario::builder().scale(Scale::Quick).build().unwrap();
        assert_eq!(s.attack, AttackSpec::rtf(512));
        assert_eq!(s.defense, DefenseSpec::none());
        assert_eq!(s.workload, WorkloadSpec::ImageNette);
        assert_eq!(s.trials, Scale::Quick.trials());
        assert_eq!(s.dataset_seed, s.seed);
        assert_eq!(s.calibration, 256);
        assert_eq!(s.sampling, Sampling::Uniform);
        assert_eq!(s.codec, CodecSpec::Raw);
        assert_eq!(s.net, NetSpec::Ideal);
    }

    #[test]
    fn raw_ideal_wire_reproduces_in_process_numbers_exactly() {
        // The acceptance bar: running through the full
        // encode → transport → decode path with the lossless codec and
        // the ideal network must yield the same PSNRs as calling the
        // attack harness in-process.
        let scenario = tiny();
        let report = scenario.run().unwrap();
        let attack = scenario
            .attack
            .build(&scenario.calibration_images(), 100)
            .unwrap();
        let defense = scenario.defense.build();
        for (i, batch) in scenario
            .trial_batches(&scenario.dataset())
            .iter()
            .enumerate()
        {
            let outcome = oasis_attacks::run_attack(
                attack.as_ref(),
                batch,
                &defense,
                100,
                scenario.seed ^ i as u64,
            )
            .unwrap();
            assert_eq!(report.trials[i].matched_psnrs, outcome.matched_psnrs);
        }
        assert_eq!(report.delivered_trials(), report.trials.len());
        assert_eq!(report.dropped_trials, 0);
        assert!(report.bytes_on_wire > 0);
        assert!(report.trials.iter().all(|t| !t.dropped && t.sim_ms == 0.0));
    }

    #[test]
    fn lossy_codec_degrades_reconstruction() {
        let clean = tiny().run().unwrap();
        let mut lossy_scenario = tiny();
        lossy_scenario.codec = CodecSpec::Sign;
        let lossy = lossy_scenario.run().unwrap();
        assert!(
            lossy.mean_psnr() < clean.mean_psnr(),
            "sign codec should degrade the attack: {} vs {}",
            lossy.mean_psnr(),
            clean.mean_psnr()
        );
        assert!(
            lossy.compression_ratio > 10.0,
            "{}",
            lossy.compression_ratio
        );
        assert!(lossy.bytes_on_wire < clean.bytes_on_wire);
    }

    #[test]
    fn lossy_net_drops_trials_and_their_leaks() {
        let mut scenario = tiny();
        scenario.trials = 8;
        scenario.net = "sim:10,100,0.6".parse().unwrap();
        let report = scenario.run().unwrap();
        assert_eq!(report.delivered_trials() + report.dropped_trials, 8);
        assert!(report.dropped_trials > 0, "p=0.6 over 8 trials");
        for t in &report.trials {
            assert!(t.bytes_on_wire > 0);
            if !t.dropped {
                assert!(t.sim_ms > 0.0, "delivered trials take simulated time");
            } else {
                assert!(t.matched_psnrs.is_empty());
                assert_eq!(t.leak_rate, 0.0);
            }
        }
        assert_eq!(
            report.summary.count,
            report
                .trials
                .iter()
                .filter(|t| !t.dropped)
                .map(|t| t.matched_psnrs.len())
                .sum::<usize>()
        );
    }

    #[test]
    fn population_mode_rides_the_same_attack_numbers() {
        // A population changes who shares the round, not what the
        // victim's update contains: on the ideal network the PSNRs
        // must match the legacy single-victim run exactly.
        let legacy = tiny().run().unwrap();
        let mut populated = tiny();
        populated.population = 10_000;
        populated.sample = 32;
        let report = populated.run().unwrap();
        for (a, b) in report.trials.iter().zip(&legacy.trials) {
            assert_eq!(a.matched_psnrs, b.matched_psnrs);
        }
        // Ideal wire: all 32 cohort uploads of both rounds arrive,
        // and the wire carries the whole cohort's bytes.
        assert_eq!(report.cohort_delivered, 32 * report.trials.len());
        assert_eq!(report.bytes_on_wire, 32 * legacy.bytes_on_wire);
        assert_eq!(legacy.cohort_delivered, legacy.trials.len());
    }

    #[test]
    fn population_mode_is_deterministic() {
        let mut scenario = tiny();
        scenario.population = 1000;
        scenario.sample = 16;
        scenario.net = "sim:10,100,0.4".parse().unwrap();
        let a = scenario.run().unwrap();
        let b = scenario.run().unwrap();
        assert_eq!(a.trials, b.trials);
        assert_eq!(a.cohort_delivered, b.cohort_delivered);
        assert!(a.cohort_delivered < 16 * a.trials.len(), "40% loss");
        assert!(a.cohort_delivered > 0);
    }

    #[test]
    fn builder_validates_population_axes() {
        assert!(Scenario::builder().sample(8).build().is_err());
        assert!(Scenario::builder().population(4).sample(8).build().is_err());
        let defaulted = Scenario::builder().population(10_000).build().unwrap();
        assert_eq!(defaulted.sample, 64);
        let tiny_pop = Scenario::builder().population(3).build().unwrap();
        assert_eq!(tiny_pop.sample, 3);
        let explicit = Scenario::builder()
            .population(100)
            .sample(5)
            .build()
            .unwrap();
        assert_eq!(explicit.sample, 5);
        let legacy = Scenario::builder().build().unwrap();
        assert_eq!((legacy.population, legacy.sample), (0, 0));
    }

    #[test]
    fn population_axes_appear_in_spec_string_and_file_name() {
        let mut scenario = tiny();
        assert!(!scenario.spec_string().contains("population="));
        scenario.population = 100_000;
        scenario.sample = 64;
        let s = scenario.spec_string();
        assert!(s.contains("population=100000 sample=64"), "{s}");
        let report = scenario.run().unwrap();
        let name = report.file_name();
        assert!(name.contains("_p100000_k64"), "{name}");
        let json = report.to_json();
        let back: ScenarioReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.scenario.population, 100_000);
    }

    #[test]
    fn linear_defaults_to_unique_labels() {
        let s = Scenario::builder()
            .attack(AttackSpec::linear())
            .workload(WorkloadSpec::Cifar100c)
            .batch_size(8)
            .build()
            .unwrap();
        assert_eq!(s.sampling, Sampling::UniqueLabels);
    }

    #[test]
    fn unique_labels_rejects_small_label_spaces() {
        let err = Scenario::builder()
            .attack(AttackSpec::linear())
            .workload(WorkloadSpec::ImageNette)
            .batch_size(64)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("imagenette100c"), "{err}");
    }

    #[test]
    fn zero_knobs_are_rejected() {
        assert!(Scenario::builder().batch_size(0).build().is_err());
        assert!(Scenario::builder().trials(0).build().is_err());
    }

    #[test]
    fn run_produces_per_trial_reports() {
        let report = tiny().run().unwrap();
        assert_eq!(report.trials.len(), 2);
        assert_eq!(report.summary.count, report.pooled_psnrs().len());
        assert!(report.trials.iter().all(|t| !t.matched_psnrs.is_empty()));
        assert!(report.wall_clock_ms >= 0.0);
    }

    #[test]
    fn undefended_rtf_leaks_on_quick_scale() {
        let report = tiny().run().unwrap();
        assert!(
            report.mean_psnr() > 60.0,
            "undefended quick-scale RTF should reconstruct: {}",
            report.summary
        );
    }

    #[test]
    fn defense_reduces_psnr() {
        let undefended = tiny().run().unwrap();
        let mut defended_scenario = tiny();
        defended_scenario.defense = DefenseSpec::oasis(oasis_augment::PolicyKind::MajorRotation);
        let defended = defended_scenario.run().unwrap();
        assert!(
            defended.mean_psnr() < undefended.mean_psnr(),
            "OASIS MR must reduce PSNR: {} vs {}",
            defended.mean_psnr(),
            undefended.mean_psnr()
        );
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = tiny().run().unwrap();
        let json = report.to_json();
        let back: ScenarioReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn spec_string_names_every_axis() {
        let s = tiny().spec_string();
        for needle in [
            "attack=rtf:32",
            "defense=none",
            "workload=cifar100",
            "batch=3",
        ] {
            assert!(s.contains(needle), "`{s}` missing `{needle}`");
        }
        // Default wire axes are elided...
        assert!(!s.contains("codec="), "{s}");
        assert!(!s.contains("net="), "{s}");
        // ...and named once set.
        let mut wired = tiny();
        wired.codec = CodecSpec::TopK { k: 64 };
        wired.net = "sim:10,1,0.1".parse().unwrap();
        let s = wired.spec_string();
        assert!(s.contains("codec=topk:64"), "{s}");
        assert!(s.contains("net=sim:10,1,0.1"), "{s}");
    }

    #[test]
    fn file_name_has_no_spec_punctuation() {
        let mut scenario = tiny();
        scenario.codec = CodecSpec::TopK { k: 64 };
        scenario.net = "sim:10,1,0.1".parse().unwrap();
        let report = scenario.run().unwrap();
        let name = report.file_name();
        assert!(
            !name.contains(':') && !name.contains(',') && !name.contains('+'),
            "{name}"
        );
        assert!(name.contains("topk-64"), "{name}");
        assert!(name.ends_with(".json"));
        // Default-wire file names keep their pre-wire form so old
        // artifacts are overwritten in place, not duplicated.
        assert!(!tiny().run().unwrap().file_name().contains("_craw"));
    }
}
