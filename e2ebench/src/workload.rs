//! The three workloads: what each generates from the seed, what one
//! closed-loop op is, and which outputs are checked.

use std::collections::BTreeMap;
use std::sync::Arc;

use oasis_campaign::{linear_relu_factory, validate_trajectory, CampaignRunner, CampaignSetup};
use oasis_data::Dataset;
use oasis_fl::{FlConfig, ModelFactory};
use oasis_scenario::{Scale, Scenario, ScenarioReport, WorkloadSpec};

use crate::host::Fnv;

/// The seed whose outputs are committed under `reference/`.
pub const DEFAULT_SEED: u64 = 1;

/// Output fingerprints, keyed by what they describe.
pub type Outputs = BTreeMap<String, String>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    AttackGrid,
    FlDefended,
    FlScale,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::AttackGrid, Kind::FlDefended, Kind::FlScale];

    pub fn name(self) -> &'static str {
        match self {
            Kind::AttackGrid => "attack_grid",
            Kind::FlDefended => "fl_defended",
            Kind::FlScale => "fl_scale",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Closed-loop ops a run of `seconds` makes. The count is fixed by
    /// `seconds` (from the rate measured on a 2-vCPU AVX2 host), not by
    /// the clock, so every commit does the same work and the campaign
    /// phases always split the run in thirds.
    pub fn ops(self, seconds: f64) -> usize {
        match self {
            // Whole passes over the 8-cell grid (one pass ≈ 9.5 s).
            Kind::AttackGrid => GRID_CELLS * ((seconds / 9.5).round() as usize).max(1),
            // Rounds, a multiple of 3 (one per phase).
            Kind::FlDefended => 3 * ((seconds * 7.0 / 3.0).round() as usize).max(1),
            Kind::FlScale => 3 * ((seconds * 8.0 / 3.0).round() as usize).max(1),
        }
    }

    /// Worker-pool width the workload runs at (capped at the machine's
    /// parallelism). The grid fans its trials out over two threads.
    /// The campaigns run one: their cost is per-client serial work,
    /// and with two threads the kernel time of their model-sized
    /// allocations swung from 2.7 to 7.4 s per 5 s run on a 2-vCPU VM,
    /// making rounds/s bimodal (8 vs 16 on `fl_scale`); with one thread
    /// it is unimodal.
    pub fn pool_width(self) -> usize {
        match self {
            Kind::AttackGrid => 2,
            Kind::FlDefended | Kind::FlScale => 1,
        }
    }

    /// The committed reference, for the workloads `BENCHMARK.json`
    /// runs. `fl_scale` has none until it joins them.
    fn reference_text(self) -> Option<&'static str> {
        match self {
            Kind::AttackGrid => Some(include_str!("../reference/attack_grid.txt")),
            Kind::FlDefended => Some(include_str!("../reference/fl_defended.txt")),
            Kind::FlScale => None,
        }
    }

    pub fn has_reference(self) -> bool {
        self.reference_text().is_some()
    }

    /// The committed outputs at [`DEFAULT_SEED`].
    pub fn reference(self) -> Outputs {
        self.reference_text()
            .unwrap_or_default()
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
            .filter_map(|l| l.split_once('\t'))
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }
}

/// Derives an independent input seed from the workload seed.
fn mix(seed: u64, salt: u64) -> u64 {
    Fnv::default()
        .bytes(&seed.to_le_bytes())
        .bytes(&salt.to_le_bytes())
        .value()
}

/// Work an op completed: FL rounds (an attack trial is one attacked
/// round), attack trials (on campaigns, client steps plus probe
/// trials), and client updates computed and consumed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Work {
    pub rounds: u64,
    pub trials: u64,
    pub updates: u64,
}

impl std::ops::AddAssign for Work {
    fn add_assign(&mut self, o: Work) {
        self.rounds += o.rounds;
        self.trials += o.trials;
        self.updates += o.updates;
    }
}

pub enum Bench {
    Grid(Grid),
    Campaign(Box<Campaign>),
}

impl Bench {
    /// Generates the workload's inputs from `seed` and builds what the
    /// timed ops run on. Everything here counts as set-up time.
    ///
    /// `traced` wraps the model factory so every call is counted and
    /// timed.
    pub fn setup(kind: Kind, seed: u64, ops: usize, traced: bool) -> Result<Bench, String> {
        let _span = oasis_telemetry::span("bench.setup");
        Ok(match kind {
            Kind::AttackGrid => Bench::Grid(Grid::new(seed)?),
            _ => Bench::Campaign(Box::new(Campaign::new(kind, seed, ops, traced)?)),
        })
    }

    /// Runs one closed-loop op: one `Scenario::run` or one
    /// `run_rounds(1)`.
    pub fn op(&mut self) -> Result<Work, String> {
        match self {
            Bench::Grid(g) => g.op(),
            Bench::Campaign(c) => c.op(),
        }
    }

    /// Whether a failed op leaves the workload unable to continue.
    pub fn broken(&self) -> bool {
        matches!(self, Bench::Campaign(_))
    }

    /// The outputs to compare, plus the failures of the checks that
    /// need no reference (schema validation, finiteness).
    pub fn outputs(&mut self) -> (Outputs, u64) {
        match self {
            Bench::Grid(g) => (g.outputs.clone(), 0),
            Bench::Campaign(c) => c.outputs(),
        }
    }

    /// Campaign trajectory records so far (none on the grid).
    pub fn records(&self) -> &[oasis_campaign::TrajectoryRecord] {
        match self {
            Bench::Grid(_) => &[],
            Bench::Campaign(c) => c.runner.records(),
        }
    }
}

/// Counts output keys that differ from `expected`; keys absent from
/// `expected` are not checked. Returns `(checked, mismatched)`.
pub fn compare(outputs: &Outputs, expected: &Outputs, what: &str) -> (usize, u64) {
    let mut checked = 0;
    let mut mismatched = 0;
    for (key, value) in outputs {
        if let Some(want) = expected.get(key) {
            checked += 1;
            if want != value {
                mismatched += 1;
                eprintln!("e2ebench: {what} mismatch at `{key}`: got {value}, want {want}");
            }
        }
    }
    (checked, mismatched)
}

// ---------------------------------------------------------------------
// attack_grid
// ---------------------------------------------------------------------

const GRID_ATTACKS: [&str; 2] = ["rtf:512", "cah:400"];
const GRID_DEFENSES: [&str; 4] = ["none", "oasis:MR", "dp:1,0.0003", "oasis:MR+dp:1,0.0003"];
const GRID_CELLS: usize = GRID_ATTACKS.len() * GRID_DEFENSES.len();
const GRID_BATCH: usize = 32;
const GRID_TRIALS: usize = 8;

/// The fig_stack grid on `imagenette` at default scale: one scenario
/// per (defense, attack) cell, attacks interleaved so a pass is never
/// dominated by one family.
pub struct Grid {
    cells: Vec<(String, Scenario)>,
    next: usize,
    outputs: Outputs,
}

impl Grid {
    fn new(seed: u64) -> Result<Grid, String> {
        let dataset_seed = mix(seed, 0xDA7A);
        let mut cells = Vec::with_capacity(GRID_CELLS);
        for defense in GRID_DEFENSES {
            for attack in GRID_ATTACKS {
                let i = cells.len();
                let scenario = Scenario::builder()
                    .workload(WorkloadSpec::ImageNette)
                    .attack(attack.parse().map_err(|e| format!("{e}"))?)
                    .defense(defense.parse().map_err(|e| format!("{e}"))?)
                    .batch_size(GRID_BATCH)
                    .trials(GRID_TRIALS)
                    .scale(Scale::Default)
                    .seed(mix(seed, i as u64))
                    .dataset_seed(dataset_seed)
                    .build()
                    .map_err(|e| format!("grid cell {attack} × {defense}: {e}"))?;
                cells.push((format!("cell {i} {attack} {defense}"), scenario));
            }
        }
        // Fingerprint the generated inputs: the dataset every cell
        // shares and each attack's calibration set.
        let mut outputs = Outputs::new();
        let dataset = {
            let _span = oasis_telemetry::span("data.build");
            cells[0].1.dataset()
        };
        outputs.insert("input dataset".into(), dataset_digest(&dataset));
        for (attack, (_, scenario)) in GRID_ATTACKS.iter().zip(&cells) {
            let calibration = {
                let _span = oasis_telemetry::span("data.build");
                scenario.calibration_images()
            };
            let mut h = Fnv::default();
            for image in &calibration {
                h.f32s(image.data());
            }
            outputs.insert(format!("input calibration {attack}"), h.hex());
        }
        Ok(Grid {
            cells,
            next: 0,
            outputs,
        })
    }

    fn op(&mut self) -> Result<Work, String> {
        let (label, scenario) = &self.cells[self.next % self.cells.len()];
        self.next += 1;
        let report = {
            let _span = oasis_telemetry::span("bench.cell");
            scenario.run()
        }
        .map_err(|e| format!("{label}: {e}"))?;
        if report.trials.len() != GRID_TRIALS {
            return Err(format!(
                "{label}: {} trials, want {GRID_TRIALS}",
                report.trials.len()
            ));
        }
        let digest = cell_digest(&report);
        // Later passes must repeat the first bit for bit.
        match self.outputs.get(label) {
            Some(first) if *first != digest => {
                return Err(format!(
                    "{label}: output {digest} differs from first pass {first}"
                ))
            }
            Some(_) => {}
            None => {
                self.outputs.insert(label.clone(), digest);
            }
        }
        let trials = report.trials.len() as u64;
        Ok(Work {
            rounds: trials,
            trials,
            updates: trials,
        })
    }
}

/// Fingerprint of every pixel and label of a generated dataset.
fn dataset_digest(dataset: &Dataset) -> String {
    let mut h = Fnv::default();
    for item in dataset.items() {
        h.f32s(item.image.data()).bytes(&item.label.to_le_bytes());
    }
    h.hex()
}

/// The cell's pooled PSNR summary and leak rate, bit for bit.
fn cell_digest(report: &ScenarioReport) -> String {
    let s = &report.summary;
    let mut h = Fnv::default();
    h.f64s(&report.pooled_psnrs());
    format!(
        "n={} mean_db={:.3} leak_pct={:.2} | mean={:016x} median={:016x} min={:016x} \
         max={:016x} leak={:016x} psnrs={}",
        s.count,
        s.mean,
        report.leak_rate * 100.0,
        s.mean.to_bits(),
        s.median.to_bits(),
        s.min.to_bits(),
        s.max.to_bits(),
        report.leak_rate.to_bits(),
        h.hex()
    )
}

// ---------------------------------------------------------------------
// fl_defended, fl_scale
// ---------------------------------------------------------------------

struct CampaignPlan {
    clients: usize,
    cohort: usize,
    defense: &'static str,
    codec: &'static str,
    /// Dataset provisioning (the workload's `max_batch` argument).
    capacity: usize,
    eval_every: usize,
    phases: [&'static str; 3],
}

fn plan(kind: Kind) -> CampaignPlan {
    match kind {
        Kind::FlDefended => CampaignPlan {
            clients: 64,
            cohort: 16,
            defense: "oasis:MR+dp:1,0.01",
            codec: "q8",
            capacity: 1024,
            // Every 20 rounds keeps probe rounds at 5 %, so round_p90_ms
            // is not pinned to the boundary between probe and plain
            // rounds.
            eval_every: 20,
            phases: [
                "+attack=rtf:256|qbi:128",
                "+join=0.3+leave=0.05+net=sim:20,10,0.1+attack=rtf:256|qbi:128",
                "+alpha=0.5+attack=rtf:256|qbi:128",
            ],
        },
        Kind::FlScale => CampaignPlan {
            clients: 100_000,
            cohort: 64,
            defense: "none",
            codec: "raw",
            capacity: 64,
            eval_every: 0,
            phases: ["", "+join=0.1+leave=0.01+net=sim:20,10,0.05", "+net=ideal"],
        },
        Kind::AttackGrid => unreachable!("the grid is not a campaign"),
    }
}

/// Wraps a factory so every call is a `fl.model_factory` span and a
/// `fl.model_factory.calls` count (both no-ops while tracing is off).
fn counting_factory(inner: ModelFactory) -> ModelFactory {
    Arc::new(move || {
        let _span = oasis_telemetry::span("fl.model_factory");
        oasis_telemetry::counter!("fl.model_factory.calls").add(1);
        inner()
    })
}

pub struct Campaign {
    runner: CampaignRunner,
    /// Key prefix naming the campaign (its length fixes its phases).
    tag: String,
    outputs: Outputs,
    probes_seen: usize,
}

impl Campaign {
    fn new(kind: Kind, seed: u64, rounds: usize, traced: bool) -> Result<Campaign, String> {
        let plan = plan(kind);
        let third = rounds / 3;
        let [p0, p1, p2] = plan.phases;
        let spec = format!("campaign:{third}{p0};{third}{p1};{third}{p2}")
            .parse()
            .map_err(|e| format!("{e}"))?;
        let dataset = {
            let _span = oasis_telemetry::span("data.build");
            WorkloadSpec::ImageNette.dataset(Scale::Default, plan.capacity, mix(seed, 0xDA7A))
        };
        let tag = format!("rounds={rounds}");
        let mut outputs = Outputs::new();
        outputs.insert(format!("{tag} input dataset"), dataset_digest(&dataset));

        let factory = linear_relu_factory(
            dataset.feature_dim(),
            64,
            dataset.num_classes(),
            mix(seed, 0x30DE1),
        );
        let factory = if traced {
            counting_factory(factory)
        } else {
            factory
        };
        let mut setup = CampaignSetup::new(dataset, plan.clients, factory);
        setup.defense = plan.defense.parse().map_err(|e| format!("{e}"))?;
        setup.codec = plan.codec.parse().map_err(|e| format!("{e}"))?;
        setup.fl = FlConfig {
            clients_per_round: plan.cohort,
            ..FlConfig::default()
        };
        setup.seed = mix(seed, 0xCA);
        setup.partition_seed = mix(seed, 0x5EED);
        setup.eval_every = plan.eval_every;
        let runner = {
            let _span = oasis_telemetry::span("campaign.build");
            CampaignRunner::new(spec, setup).map_err(|e| e.to_string())?
        };
        Ok(Campaign {
            runner,
            tag,
            outputs,
            probes_seen: 0,
        })
    }

    fn op(&mut self) -> Result<Work, String> {
        let ran = {
            let _span = oasis_telemetry::span("bench.round");
            self.runner.run_rounds(1)
        }
        .map_err(|e| e.to_string())?;
        if ran != 1 {
            return Err("campaign ended before the run did".into());
        }
        let record = self.runner.records().last().expect("a round just ran");
        let delivered = record.delivered as u64;
        let probes = self.runner.adversary_log().len() - self.probes_seen;
        self.probes_seen += probes;
        Ok(Work {
            rounds: 1,
            trials: delivered + probes as u64,
            updates: delivered,
        })
    }

    /// Per-round trajectory records (telemetry timings stripped, since
    /// they are wall-clock) and the final weights, plus the schema
    /// check every trajectory must pass.
    fn outputs(&mut self) -> (Outputs, u64) {
        let mut failed = 0;
        let mut outputs = self.outputs.clone();
        let report = self.runner.trajectory("e2ebench");
        if let Err(e) = validate_trajectory(&report.to_jsonl()) {
            eprintln!("e2ebench: trajectory fails validation: {e}");
            failed += 1;
        }
        let mut stripped = report;
        for record in &mut stripped.records {
            record.timings_ns = None;
        }
        for (record, line) in stripped
            .records
            .iter()
            .zip(stripped.to_jsonl().lines().skip(1))
        {
            let mut h = Fnv::default();
            h.bytes(line.as_bytes());
            outputs.insert(format!("{} r={} record", self.tag, record.round), h.hex());
        }
        if let Some(last) = stripped.records.last() {
            let weights = self.runner.server_mut().broadcast_weights();
            if !weights.iter().all(|w| w.is_finite()) {
                eprintln!("e2ebench: final weights are not finite");
                failed += 1;
            }
            let mut h = Fnv::default();
            h.f32s(&weights);
            outputs.insert(format!("{} r={} weights", self.tag, last.round), h.hex());
        }
        (outputs, failed)
    }
}
