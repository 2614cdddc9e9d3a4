//! The `perf` micro-benchmark harness: kernels and machine-relative
//! record pairs, serialized as versioned `BENCH_<suite>.json` records.
//!
//! End-to-end throughput — the paper's attack grid, defended
//! campaigns — is measured by `e2ebench`, which fingerprints the host,
//! attributes time per layer and checks reference outputs. `perf`
//! keeps what a single process can time in isolation: every bench has
//! a stable name, a fixed workload shape and a self-calibrated
//! iteration count, and the output schema round-trips through serde.
//!
//! Three suites:
//!
//! * `core` — tensor, nn and codec kernels at model-relevant shapes
//!   (matmul / matmul_nt / matmul_tn, Conv2d forward and backward, the
//!   q8 codec, PSNR of one pair and all-pairs PSNR, a DP-noise fill of
//!   Gaussian normals, a rendered calibration set). Every kernel in
//!   [`CORE_KERNELS`] is recorded twice, with the SIMD backend pinned
//!   per bench via [`simd::with_backend`]: `_simd` (best detected
//!   backend) and `_scalar` (the reference kernels).
//! * `fl` — protocol paths: a full [`CohortRunner::run_round`] over
//!   four clients untraced and traced (`fl_round_raw` /
//!   `fl_round_raw_telem`), the raw codec, one RTF inversion step, one
//!   `oasis:MR` batch transform and one `dp:1,0.01` update perturbation
//!   (`defense_oasis` / `defense_dp`), and one cohort-64
//!   round sampled from 1 k and from 100 k clients over one shared
//!   sample pool (`pop_round_1k` / `pop_round_100k`).
//! * `scale` — the [`SCALE_BASES`] re-run at 1 and 4 worker threads
//!   (pinned per bench via [`parallel::with_threads`], independent of
//!   `OASIS_THREADS`), as `_t1` / `_t4` records.
//!
//! Two checks read the records, and neither compares hosts:
//!
//! * [`paired_gate`] times each variant record against its reference
//!   sibling *within one run*, per the fixed [`PAIR_RULES`] table, so
//!   it holds on any machine. This is the CI gate.
//! * [`compare_suites`] diffs the absolute medians of two runs, and
//!   refuses unless both ran on the same host ([`BenchSuite::cpu`],
//!   [`BenchSuite::nproc`], [`BenchSuite::simd`]) with the same
//!   settings. It is for before/after runs on one machine.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use oasis_attacks::{reconstruct, RtfAttack};
use oasis_data::{cifar_like_with, Dataset, Generator};
use oasis_fl::{DefenseStack, FlConfig, FlServer, ModelFactory, WireConfig};
use oasis_image::Image;
use oasis_metrics::{
    best_psnr_per_original, best_psnr_per_original_seeded, match_greedy_coarse, psnr_data,
};
use oasis_nn::{Conv2d, Layer, Linear, Mode, Relu, Sequential};
use oasis_population::{CohortRunner, Population};
use oasis_tensor::{parallel, simd, Tensor};
use oasis_wire::{CodecSpec, NetSpec, Q8Codec, RawCodec, UpdateCodec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Version of the `BENCH_*.json` schema. Bump on breaking changes;
/// files of any other version are refused on load.
pub const SCHEMA_VERSION: u32 = 2;

/// One benchmark's measured result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchRecord {
    /// Stable bench name (the comparison key).
    pub name: String,
    /// Iterations actually timed (after self-calibration).
    pub iters: u64,
    /// Median wall-clock per iteration, nanoseconds.
    pub median_ns: u64,
    /// Fastest observed iteration, nanoseconds.
    pub min_ns: u64,
    /// Work rate derived from the median (`None` when the bench has
    /// no natural unit).
    pub throughput: Option<f64>,
    /// Unit of [`BenchRecord::throughput`] (e.g. `flop/s`, `B/s`).
    pub throughput_unit: Option<String>,
}

/// A whole suite run, as serialized to `BENCH_<suite>.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchSuite {
    /// Schema version ([`SCHEMA_VERSION`] at write time).
    pub schema_version: u32,
    /// Suite name, one of [`SUITE_NAMES`].
    pub suite: String,
    /// CPU model of the host (the `model name` line of
    /// `/proc/cpuinfo`, `unknown` where there is none).
    pub cpu: String,
    /// Hardware threads available on the host.
    pub nproc: usize,
    /// Worker threads the run used (see `OASIS_THREADS`).
    pub threads: usize,
    /// SIMD backend label the run resolved (see `OASIS_SIMD`); `_simd`
    /// / `_scalar` record pairs pin their own backend per bench.
    pub simd: String,
    /// Whether the run used the reduced `--quick` calibration budget.
    pub quick: bool,
    /// Per-bench results, in suite order.
    pub results: Vec<BenchRecord>,
}

impl BenchSuite {
    /// Looks up a result by bench name.
    pub fn get(&self, name: &str) -> Option<&BenchRecord> {
        self.results.iter().find(|r| r.name == name)
    }

    /// Parses and validates a `BENCH_<suite>.json` document.
    ///
    /// # Errors
    ///
    /// Returns a message when the text is not JSON, its schema version
    /// is not [`SCHEMA_VERSION`], a field is missing, or the records
    /// cannot be compared at all: no result, a zero median, a minimum
    /// above its median, or a name recorded twice (a duplicate would
    /// shadow its twin in [`BenchSuite::get`]).
    pub fn from_json(text: &str) -> Result<Self, String> {
        let value: serde_json::Value = serde_json::from_str(text).map_err(|e| format!("{e:?}"))?;
        match value.get("schema_version").and_then(|v| v.as_u64()) {
            Some(v) if v == u64::from(SCHEMA_VERSION) => {}
            Some(v) => {
                return Err(format!(
                    "schema v{v} is not supported (expected v{SCHEMA_VERSION}); re-run `perf`"
                ))
            }
            None => return Err("no `schema_version` field".into()),
        }
        let suite: Self = serde_json::from_str(text).map_err(|e| format!("{e:?}"))?;
        suite.validate()?;
        Ok(suite)
    }

    /// Names the first record [`BenchSuite::from_json`] must reject.
    fn validate(&self) -> Result<(), String> {
        if self.results.is_empty() {
            return Err(format!("suite `{}` has no results", self.suite));
        }
        let mut seen = HashSet::new();
        for r in &self.results {
            if r.median_ns == 0 {
                return Err(format!("`{}` has a zero median", r.name));
            }
            if r.min_ns > r.median_ns {
                return Err(format!(
                    "`{}` has min_ns {} above median_ns {}",
                    r.name, r.min_ns, r.median_ns
                ));
            }
            if !seen.insert(r.name.as_str()) {
                return Err(format!("`{}` is recorded twice", r.name));
            }
        }
        Ok(())
    }
}

/// The host's CPU model, read as `e2ebench` reads it.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// A benchmark ready to run: an optional throughput denomination
/// (items of `unit` completed per iteration) plus the timed closure.
pub struct PreparedBench {
    /// `(items_per_iter, unit)` for throughput derivation.
    pub throughput: Option<(f64, &'static str)>,
    /// The routine timed per iteration.
    pub run: Box<dyn FnMut()>,
}

/// A named benchmark definition: construction is deferred so listing
/// a suite costs nothing.
pub struct BenchDef {
    /// Stable name (the comparison key across runs).
    pub name: String,
    build: Box<dyn Fn() -> PreparedBench>,
}

impl BenchDef {
    fn new(name: impl Into<String>, build: impl Fn() -> PreparedBench + 'static) -> Self {
        Self {
            name: name.into(),
            build: Box::new(build),
        }
    }
}

// ---------------------------------------------------------------------
// Suite definitions
// ---------------------------------------------------------------------

/// A bench base: its name and the builder of its workload.
type Base = (&'static str, fn() -> PreparedBench);

/// Every `core` kernel; [`core_suite`] records each as a
/// `_simd`/`_scalar` pair.
pub const CORE_KERNELS: [Base; 20] = [
    ("matmul_256", bench_matmul_256),
    ("matmul_conv_fwd", bench_matmul_conv_fwd),
    ("matmul_nt_conv_gw", bench_matmul_nt_conv_gw),
    ("matmul_tn_conv_gx", bench_matmul_tn_conv_gx),
    ("matmul_nt_linear", bench_matmul_nt_linear),
    ("matmul_nt_attack", bench_matmul_nt_attack),
    ("matmul_tn_attack", bench_matmul_tn_attack),
    ("clip_sum_attack", bench_clip_sum_attack),
    ("conv2d_forward_b8", || bench_conv_forward(8)),
    ("conv2d_backward_b8", bench_conv_backward_b8),
    ("conv2d_forward_b32", || bench_conv_forward(32)),
    ("codec_q8_encode", || bench_codec_encode(Box::new(Q8Codec))),
    ("codec_q8_decode", || bench_codec_decode(Box::new(Q8Codec))),
    ("codec_q8_fold", || bench_codec_fold(Box::new(Q8Codec))),
    ("psnr", bench_psnr),
    ("psnr_pairs", bench_psnr_pairs),
    ("score_pool", bench_score_pool),
    ("normal_fill", bench_normal_fill),
    ("cah_responses", bench_cah_responses),
    ("render_imagenette", bench_render_imagenette),
];

/// The benches [`scale_suite`] records at each of [`SCALE_WIDTHS`].
pub const SCALE_BASES: [Base; 4] = [
    ("fl_round_raw", bench_fl_round_raw),
    ("conv2d_forward_b32", || bench_conv_forward(32)),
    ("matmul_256", bench_matmul_256),
    ("rtf_invert_128", bench_rtf_invert),
];

/// Worker-thread widths of the `scale` suite (`_t<N>` records).
pub const SCALE_WIDTHS: [usize; 2] = [1, 4];

/// The `core` suite: each of [`CORE_KERNELS`] as a `_simd` record
/// (best detected backend) followed by a `_scalar` record.
///
/// Order is fixed; names are stable comparison keys.
pub fn core_suite() -> Vec<BenchDef> {
    let backends = [
        ("simd", simd::Backend::detect()),
        ("scalar", simd::Backend::Scalar),
    ];
    CORE_KERNELS
        .iter()
        .flat_map(|&(name, build)| {
            backends.map(|(tag, backend)| {
                BenchDef::new(format!("{name}_{tag}"), move || {
                    pinned(build(), move |run| simd::with_backend(backend, run))
                })
            })
        })
        .collect()
}

/// The `fl` suite: protocol round (untraced and traced), raw codec,
/// one attack step, each stage of the `oasis:MR+dp` stack, and
/// population rounds.
///
/// Order is fixed; names are stable comparison keys.
pub fn fl_suite() -> Vec<BenchDef> {
    vec![
        BenchDef::new("fl_round_raw", bench_fl_round_raw),
        BenchDef::new("fl_round_raw_telem", bench_fl_round_raw_telem),
        BenchDef::new("codec_raw_encode", || {
            bench_codec_encode(Box::new(RawCodec))
        }),
        BenchDef::new("codec_raw_decode", || {
            bench_codec_decode(Box::new(RawCodec))
        }),
        BenchDef::new("rtf_invert_128", bench_rtf_invert),
        BenchDef::new("defense_oasis", bench_defense_oasis),
        BenchDef::new("defense_dp", bench_defense_dp),
        BenchDef::new("pop_round_1k", || bench_pop_round(1_000)),
        BenchDef::new("pop_round_100k", || bench_pop_round(100_000)),
    ]
}

/// The `scale` suite: each of [`SCALE_BASES`] at every width of
/// [`SCALE_WIDTHS`].
///
/// Order is fixed; names are stable comparison keys. Thread count is
/// pinned per bench with [`parallel::with_threads`], so one run
/// measures every width regardless of `OASIS_THREADS`.
pub fn scale_suite() -> Vec<BenchDef> {
    SCALE_BASES
        .iter()
        .flat_map(|&(name, build)| {
            SCALE_WIDTHS.map(|threads| {
                BenchDef::new(format!("{name}_t{threads}"), move || {
                    pinned(build(), move |run| parallel::with_threads(threads, run))
                })
            })
        })
        .collect()
}

/// Re-times `inner` with `pin` (a backend, a thread count, a
/// telemetry state) wrapped around every iteration.
fn pinned(inner: PreparedBench, pin: impl Fn(&mut dyn FnMut()) + 'static) -> PreparedBench {
    let mut run = inner.run;
    PreparedBench {
        throughput: inner.throughput,
        run: Box::new(move || pin(&mut run)),
    }
}

/// All suite names, in run order.
pub const SUITE_NAMES: [&str; 3] = ["core", "fl", "scale"];

/// The benches of the named suite (one of [`SUITE_NAMES`]).
pub fn suite(name: &str) -> Option<Vec<BenchDef>> {
    match name {
        "core" => Some(core_suite()),
        "fl" => Some(fl_suite()),
        "scale" => Some(scale_suite()),
        _ => None,
    }
}

/// Retains only the benches whose name contains `filter`.
pub fn apply_filter(benches: Vec<BenchDef>, filter: &str) -> Vec<BenchDef> {
    benches
        .into_iter()
        .filter(|b| b.name.contains(filter))
        .collect()
}

// ---------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------

/// Self-calibrates one iteration count and times every bench of
/// `group` in alternating iterations.
///
/// One warmup iteration per bench estimates the cost of a round (one
/// iteration of each); the measured loop then sizes itself to roughly
/// the time budget per bench (`--quick` shrinks the budget, never the
/// workload shapes, so medians stay comparable across modes — just
/// noisier). Interleaving makes the group a paired measurement: a
/// host that slows down mid-run slows every member alike, so the
/// ratio of their medians tracks the code, not the moment.
pub fn run_group(mut group: Vec<(String, PreparedBench)>, quick: bool) -> Vec<BenchRecord> {
    let budget_ns: u128 = if quick { 60_000_000 } else { 400_000_000 };
    let warmup = Instant::now();
    for (_, prepared) in &mut group {
        (prepared.run)();
    }
    let est = warmup.elapsed().as_nanos().max(1);
    let iters = (budget_ns * group.len() as u128 / est).clamp(3, 1000) as u64;
    let mut samples = vec![Vec::with_capacity(iters as usize); group.len()];
    for _ in 0..iters {
        for ((_, prepared), samples) in group.iter_mut().zip(&mut samples) {
            let t = Instant::now();
            (prepared.run)();
            samples.push(t.elapsed().as_nanos() as u64);
        }
    }
    group
        .into_iter()
        .zip(samples)
        .map(|((name, prepared), mut samples)| {
            samples.sort_unstable();
            let median_ns = samples[samples.len() / 2].max(1);
            let (throughput, throughput_unit) = match prepared.throughput {
                Some((items, unit)) => {
                    (Some(items * 1e9 / median_ns as f64), Some(unit.to_string()))
                }
                None => (None, None),
            };
            BenchRecord {
                name,
                iters,
                median_ns,
                min_ns: samples[0].max(1),
                throughput,
                throughput_unit,
            }
        })
        .collect()
}

/// Runs a suite (optionally filtered) and collects the records. Each
/// variant of [`PAIR_RULES`] is timed in one group with its reference
/// sibling ([`run_group`]); records come out group by group, in suite
/// order of each group's first member.
pub fn run_suite(name: &str, filter: Option<&str>, quick: bool) -> Option<BenchSuite> {
    let mut benches = suite(name)?;
    if let Some(f) = filter {
        benches = apply_filter(benches, f);
    }
    let mut groups: Vec<(String, Vec<BenchDef>)> = Vec::new();
    for b in benches {
        let key = reference_of(&b.name).map_or_else(|| b.name.clone(), |(_, r)| r);
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, group)) => group.push(b),
            None => groups.push((key, vec![b])),
        }
    }
    let mut results = Vec::new();
    for (_, group) in groups {
        let prepared = group.into_iter().map(|b| (b.name, (b.build)())).collect();
        for rec in run_group(prepared, quick) {
            eprintln!("  {}", format_record(&rec));
            results.push(rec);
        }
    }
    Some(BenchSuite {
        schema_version: SCHEMA_VERSION,
        suite: name.to_string(),
        cpu: cpu_model(),
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        threads: parallel::num_threads(),
        simd: simd::resolved().label().to_string(),
        quick,
        results,
    })
}

/// One human-readable line per record (the JSON is the machine
/// record).
pub fn format_record(r: &BenchRecord) -> String {
    let tp = match (&r.throughput, &r.throughput_unit) {
        (Some(t), Some(u)) => format!("  {:>10.3e} {u}", t),
        _ => String::new(),
    };
    format!(
        "{:<26} median {:>12} ns  min {:>12} ns  ({} iters){tp}",
        r.name, r.median_ns, r.min_ns, r.iters
    )
}

// ---------------------------------------------------------------------
// The paired gate (machine-relative, one run)
// ---------------------------------------------------------------------

/// One row of the paired gate: a record named `<base><variant>` is
/// timed against its sibling `<base><reference>` from the same run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairRule {
    /// Name suffix of the variant record.
    pub variant: &'static str,
    /// Name suffix of the reference record (empty: the bare base).
    pub reference: &'static str,
    /// Lowest passing reference/variant median ratio.
    pub floor: f64,
    /// Worker threads the variant runs at; `None` is the run's own
    /// pool width ([`BenchSuite::threads`]).
    pub threads: Option<usize>,
}

/// The paired gate's fixed table. Ranges quoted are reference/variant
/// over ten `--quick` runs on a 2-vCPU Xeon (AVX2).
///
/// * `_simd`/`_scalar` and `_t4`/`_t1` at 0.9: vector lanes and worker
///   threads must never lose to the serial reference; 0.9 absorbs
///   `--quick` median jitter (and both halves time the same code on a
///   host without vector lanes). The `_simd` pairs range 1.12–4.73.
/// * `_telem`/bare at 0.5: recording a trace costs about 15 % of a
///   round; the pair ranges 0.95–1.06.
/// * `_100k`/`_1k` at 0.5: a round's cost must not grow with the
///   population (the selection shuffle is the only population term);
///   the pair ranges 0.86–0.97.
pub const PAIR_RULES: [PairRule; 4] = [
    PairRule {
        variant: "_simd",
        reference: "_scalar",
        floor: 0.9,
        threads: None,
    },
    PairRule {
        variant: "_t4",
        reference: "_t1",
        floor: 0.9,
        threads: Some(4),
    },
    PairRule {
        variant: "_telem",
        reference: "",
        floor: 0.5,
        threads: None,
    },
    PairRule {
        variant: "_100k",
        reference: "_1k",
        floor: 0.5,
        threads: None,
    },
];

/// The rule a record name is a variant of, with its reference
/// sibling's name; `None` for records no rule pairs as a variant.
fn reference_of(name: &str) -> Option<(&'static PairRule, String)> {
    PAIR_RULES.iter().find_map(|rule| {
        name.strip_suffix(rule.variant)
            .map(|base| (rule, format!("{base}{}", rule.reference)))
    })
}

/// One variant/reference pair measured in one run.
#[derive(Debug, Clone, PartialEq)]
pub struct PairPoint {
    /// Variant record name (e.g. `matmul_256_simd`).
    pub variant: String,
    /// Reference record name (e.g. `matmul_256_scalar`).
    pub reference: String,
    /// Variant median, ns.
    pub variant_ns: u64,
    /// Reference median, ns.
    pub reference_ns: u64,
    /// The rule's floor on [`PairPoint::ratio`].
    pub floor: f64,
    /// False when the variant runs wider than the host's core count:
    /// the pair is then informational, since extra threads can only
    /// timeslice.
    pub gated: bool,
}

impl PairPoint {
    /// Reference time over variant time — > 1 means the variant is
    /// faster.
    pub fn ratio(&self) -> f64 {
        self.reference_ns as f64 / self.variant_ns as f64
    }

    /// Whether this pair fails the gate.
    pub fn failed(&self) -> bool {
        self.gated && self.ratio() < self.floor
    }
}

/// Pairs every variant record of one run with its reference sibling
/// per [`PAIR_RULES`], in record order.
///
/// # Errors
///
/// Returns a message when a variant has no reference sibling, or when
/// the run holds no pair at all — the gate would be vacuous.
pub fn paired_gate(suite: &BenchSuite) -> Result<Vec<PairPoint>, String> {
    let mut points = Vec::new();
    for rec in &suite.results {
        let Some((rule, reference)) = reference_of(&rec.name) else {
            continue;
        };
        let base = suite
            .get(&reference)
            .ok_or_else(|| format!("`{}` has no `{reference}` record to pair with", rec.name))?;
        points.push(PairPoint {
            variant: rec.name.clone(),
            reference,
            variant_ns: rec.median_ns,
            reference_ns: base.median_ns,
            floor: rule.floor,
            gated: rule.threads.unwrap_or(suite.threads) <= suite.nproc,
        });
    }
    if points.is_empty() {
        return Err(format!(
            "suite `{}` has no paired records to gate on",
            suite.suite
        ));
    }
    Ok(points)
}

// ---------------------------------------------------------------------
// Absolute comparison (same host only)
// ---------------------------------------------------------------------

/// Warn threshold: median slower by more than this percent.
pub const WARN_PCT: f64 = 10.0;
/// Fail threshold: median slower by more than this percent.
pub const FAIL_PCT: f64 = 35.0;

/// How one bench moved between baseline and current.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaClass {
    /// Within thresholds (or faster).
    Ok,
    /// Slower than [`WARN_PCT`].
    Warn,
    /// Slower than [`FAIL_PCT`].
    Fail,
    /// Present in the baseline but missing from the current run —
    /// coverage silently shrank, treated as failure.
    Missing,
    /// New bench with no baseline (informational).
    New,
}

/// One bench's baseline-vs-current delta.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Bench name.
    pub name: String,
    /// Baseline median, ns (0 when [`DeltaClass::New`]).
    pub base_ns: u64,
    /// Current median, ns (0 when [`DeltaClass::Missing`]).
    pub cur_ns: u64,
    /// Signed regression percentage (positive = slower).
    pub pct: f64,
    /// Classification against the thresholds.
    pub class: DeltaClass,
}

/// Full comparison outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareReport {
    /// Per-bench deltas, baseline order first, then new benches.
    pub deltas: Vec<Delta>,
    /// Any delta at [`DeltaClass::Warn`].
    pub warned: bool,
    /// Any delta at [`DeltaClass::Fail`] or [`DeltaClass::Missing`].
    pub failed: bool,
}

/// Diffs `current` against `baseline` at [`WARN_PCT`] / [`FAIL_PCT`].
///
/// # Errors
///
/// Returns a message when the runs are not comparable: a different
/// schema, suite, host (CPU model, core count, SIMD backend), worker
/// threads or calibration budget. Medians from another host track the
/// host, not the code, so such a diff is refused rather than failed.
pub fn compare_suites(
    baseline: &BenchSuite,
    current: &BenchSuite,
) -> Result<CompareReport, String> {
    let conditions = |s: &BenchSuite| {
        [
            ("schema", s.schema_version.to_string()),
            ("suite", s.suite.clone()),
            ("host cpu", s.cpu.clone()),
            ("host nproc", s.nproc.to_string()),
            ("host simd", s.simd.clone()),
            ("threads", s.threads.to_string()),
            ("quick", s.quick.to_string()),
        ]
    };
    for ((what, base), (_, cur)) in conditions(baseline).into_iter().zip(conditions(current)) {
        if base != cur {
            return Err(format!(
                "{what} mismatch: baseline `{base}` vs current `{cur}` — \
                 absolute medians compare on the same host and settings only"
            ));
        }
    }
    let mut deltas = Vec::new();
    for base in &baseline.results {
        let delta = match current.get(&base.name) {
            Some(cur) => {
                let pct =
                    (cur.median_ns as f64 - base.median_ns as f64) / base.median_ns as f64 * 100.0;
                let class = if pct > FAIL_PCT {
                    DeltaClass::Fail
                } else if pct > WARN_PCT {
                    DeltaClass::Warn
                } else {
                    DeltaClass::Ok
                };
                Delta {
                    name: base.name.clone(),
                    base_ns: base.median_ns,
                    cur_ns: cur.median_ns,
                    pct,
                    class,
                }
            }
            None => Delta {
                name: base.name.clone(),
                base_ns: base.median_ns,
                cur_ns: 0,
                pct: 0.0,
                class: DeltaClass::Missing,
            },
        };
        deltas.push(delta);
    }
    for cur in &current.results {
        if baseline.get(&cur.name).is_none() {
            deltas.push(Delta {
                name: cur.name.clone(),
                base_ns: 0,
                cur_ns: cur.median_ns,
                pct: 0.0,
                class: DeltaClass::New,
            });
        }
    }
    let warned = deltas.iter().any(|d| d.class == DeltaClass::Warn);
    let failed = deltas
        .iter()
        .any(|d| matches!(d.class, DeltaClass::Fail | DeltaClass::Missing));
    Ok(CompareReport {
        deltas,
        warned,
        failed,
    })
}

// ---------------------------------------------------------------------
// core benches
// ---------------------------------------------------------------------

fn seeded_tensor(dims: &[usize], seed: u64) -> Tensor {
    Tensor::randn(dims, &mut StdRng::seed_from_u64(seed))
}

fn matmul_flops(m: usize, k: usize, n: usize) -> f64 {
    2.0 * m as f64 * k as f64 * n as f64
}

/// Square matmul — the generic dense workload.
fn bench_matmul_256() -> PreparedBench {
    let (m, k, n) = (256, 256, 256);
    let a = seeded_tensor(&[m, k], 1);
    let b = seeded_tensor(&[k, n], 2);
    PreparedBench {
        throughput: Some((matmul_flops(m, k, n), "flop/s")),
        run: Box::new(move || {
            std::hint::black_box(a.matmul(&b).expect("bench matmul"));
        }),
    }
}

/// The batched conv1 forward product: filter bank `(out_c, C·k·k)`
/// times the transposed im2col matrix `(C·k·k, B·P)` — the exact
/// call `Conv2d::forward` makes (B=8 of 16×16 positions, 3ch 3×3,
/// 16 filters).
fn bench_matmul_conv_fwd() -> PreparedBench {
    let (m, k, n) = (16, 27, 2048);
    let a = seeded_tensor(&[m, k], 3);
    let b = seeded_tensor(&[k, n], 4);
    PreparedBench {
        throughput: Some((matmul_flops(m, k, n), "flop/s")),
        run: Box::new(move || {
            std::hint::black_box(a.matmul(&b).expect("bench matmul"));
        }),
    }
}

/// The batched conv1 weight-gradient product: `δY (oc, B·P)` against
/// `col (C·k·k, B·P)` over the long shared axis — conv backward's
/// `matmul_nt` call.
fn bench_matmul_nt_conv_gw() -> PreparedBench {
    let (m, k, n) = (16, 2048, 27);
    let a = seeded_tensor(&[m, k], 5);
    let b = seeded_tensor(&[n, k], 6);
    PreparedBench {
        throughput: Some((matmul_flops(m, k, n), "flop/s")),
        run: Box::new(move || {
            std::hint::black_box(a.matmul_nt(&b).expect("bench matmul_nt"));
        }),
    }
}

/// The batched conv1 input-gradient product: `Wᵀ · δY` with the
/// short `out_c` leading axis — conv backward's `matmul_tn` call.
fn bench_matmul_tn_conv_gx() -> PreparedBench {
    let (k, m, n) = (16, 27, 2048);
    let a = seeded_tensor(&[k, m], 17);
    let b = seeded_tensor(&[k, n], 18);
    PreparedBench {
        throughput: Some((matmul_flops(m, k, n), "flop/s")),
        run: Box::new(move || {
            std::hint::black_box(a.matmul_tn(&b).expect("bench matmul_tn"));
        }),
    }
}

/// The malicious-layer shape of the attacks: a batch of flattened
/// images against a wide `Linear` (`x · Wᵀ`).
fn bench_matmul_nt_linear() -> PreparedBench {
    let (m, k, n) = (64, 768, 256); // B=64 of 3·16·16 features, 256 neurons
    let a = seeded_tensor(&[m, k], 7);
    let b = seeded_tensor(&[n, k], 8);
    PreparedBench {
        throughput: Some((matmul_flops(m, k, n), "flop/s")),
        run: Box::new(move || {
            std::hint::black_box(a.matmul_nt(&b).expect("bench matmul_nt"));
        }),
    }
}

/// The attack grid's malicious-layer forward: a B = 128 batch of
/// 3×32×32 images against 512 neurons (`x · Wᵀ`).
fn bench_matmul_nt_attack() -> PreparedBench {
    let (m, k, n) = (128, 3072, 512);
    let a = seeded_tensor(&[m, k], 19);
    let b = seeded_tensor(&[n, k], 20);
    PreparedBench {
        throughput: Some((matmul_flops(m, k, n), "flop/s")),
        run: Box::new(move || {
            std::hint::black_box(a.matmul_nt(&b).expect("bench matmul_nt"));
        }),
    }
}

/// Upstream gradients shaped like an RTF malicious layer's: neurons
/// are sorted by threshold, so sample `s` activates a prefix of them
/// (of seeded length) and its `δ` row is zero past that prefix.
fn rtf_like_deltas(b: usize, n: usize, seed: u64) -> Tensor {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut delta = Tensor::randn(&[b, n], &mut rng);
    for row in delta.data_mut().chunks_exact_mut(n) {
        let active = rng.gen_range(0..=n);
        row[active..].fill(0.0);
    }
    delta
}

/// The attack grid's malicious-layer weight gradient: ReLU-sparse
/// `δ (128×512)` against the batch `x (128×3072)` (`δᵀ · x`).
fn bench_matmul_tn_attack() -> PreparedBench {
    let (k, m, n) = (128, 512, 3072);
    let delta = rtf_like_deltas(k, m, 21);
    let x = seeded_tensor(&[k, n], 22);
    PreparedBench {
        throughput: Some((matmul_flops(m, k, n), "flop/s")),
        run: Box::new(move || {
            std::hint::black_box(delta.matmul_tn(&x).expect("bench matmul_tn"));
        }),
    }
}

/// The attack grid's record-level DP clip-and-sum
/// ([`Linear::clipped_grad_mean`]) at B = 128, n = 512, d = 3072, with
/// RTF-like `δ`.
fn bench_clip_sum_attack() -> PreparedBench {
    let (b, n, d) = (128, 512, 3072);
    let delta = rtf_like_deltas(b, n, 23);
    let x = Tensor::rand_uniform(&[b, d], 0.0, 1.0, &mut StdRng::seed_from_u64(24));
    PreparedBench {
        throughput: Some((b as f64, "sample/s")),
        run: Box::new(move || {
            std::hint::black_box(Linear::clipped_grad_mean(&x, &delta, 1.0).expect("bench clip"));
        }),
    }
}

fn conv_layer() -> Conv2d {
    // The workloads' first conv: 3→16 channels, 3×3, stride 1, pad 1
    // on 16×16 inputs.
    Conv2d::new(3, 16, 3, 1, 1, (16, 16), &mut StdRng::seed_from_u64(9))
}

fn bench_conv_forward(batch: usize) -> PreparedBench {
    let mut conv = conv_layer();
    let x = seeded_tensor(&[batch, 3 * 16 * 16], 10);
    PreparedBench {
        throughput: Some((batch as f64, "img/s")),
        run: Box::new(move || {
            std::hint::black_box(conv.forward(&x, Mode::Train).expect("bench conv fwd"));
        }),
    }
}

fn bench_conv_backward_b8() -> PreparedBench {
    let batch = 8;
    let mut conv = conv_layer();
    let x = seeded_tensor(&[batch, 3 * 16 * 16], 11);
    let y = conv.forward(&x, Mode::Train).expect("bench conv fwd");
    let grad = Tensor::ones(y.dims());
    PreparedBench {
        throughput: Some((batch as f64, "img/s")),
        run: Box::new(move || {
            std::hint::black_box(conv.backward(&grad).expect("bench conv bwd"));
        }),
    }
}

/// A ~1 MB update vector (262 144 parameters).
fn codec_update() -> Vec<f32> {
    seeded_tensor(&[262_144], 15).data().to_vec()
}

fn bench_codec_encode(codec: Box<dyn UpdateCodec>) -> PreparedBench {
    let update = codec_update();
    let bytes = update.len() as f64 * 4.0;
    PreparedBench {
        throughput: Some((bytes, "B/s")),
        run: Box::new(move || {
            std::hint::black_box(codec.encode(&update).expect("bench encode"));
        }),
    }
}

fn bench_codec_decode(codec: Box<dyn UpdateCodec>) -> PreparedBench {
    let update = codec_update();
    let bytes = update.len() as f64 * 4.0;
    let encoded = codec.encode(&update).expect("bench encode");
    // Measure the borrowed-view decode over one reused scratch slot:
    // raw frames resolve to a zero-copy borrow, lossy codecs fill the
    // slot. (The server's fold is timed by `bench_codec_fold`.)
    let mut scratch = Vec::new();
    PreparedBench {
        throughput: Some((bytes, "B/s")),
        run: Box::new(move || {
            std::hint::black_box(
                codec
                    .decode_view(&encoded, &mut scratch)
                    .expect("bench decode")
                    .len(),
            );
        }),
    }
}

/// The server's fold of one frame into a reused accumulator,
/// [`UpdateCodec::fold_into`] (for q8, `simd::dequantize_add_q8`).
fn bench_codec_fold(codec: Box<dyn UpdateCodec>) -> PreparedBench {
    let update = codec_update();
    let bytes = update.len() as f64 * 4.0;
    let encoded = codec.encode(&update).expect("bench encode");
    let mut acc = vec![0.0f32; update.len()];
    PreparedBench {
        throughput: Some((bytes, "B/s")),
        run: Box::new(move || {
            codec
                .fold_into(&encoded, 1e-3, &mut acc)
                .expect("bench fold");
            std::hint::black_box(&acc);
        }),
    }
}

/// PSNR over a ~1 MB signal pair — the metrics hot path every trial's
/// reconstruction matching runs per candidate image.
fn bench_psnr() -> PreparedBench {
    let a = codec_update();
    let b = seeded_tensor(&[262_144], 23).data().to_vec();
    PreparedBench {
        throughput: Some((a.len() as f64, "elem/s")),
        run: Box::new(move || {
            std::hint::black_box(psnr_data(&a, &b));
        }),
    }
}

/// One `fl_defended`-sized DP noise draw: 197 322 normals added in
/// place by [`oasis_tensor::add_randn_scaled`], rng draws included.
fn bench_normal_fill() -> PreparedBench {
    let mut update = vec![0.0f32; 197_322];
    let mut rng = StdRng::seed_from_u64(26);
    PreparedBench {
        throughput: Some((update.len() as f64, "normal/s")),
        run: Box::new(move || {
            oasis_tensor::add_randn_scaled(&mut update, 0.0, 0.01, &mut rng);
            std::hint::black_box(&update);
        }),
    }
}

/// One image group of `cah:400`'s calibration responses: 400 trap
/// rows of width 3072 against 32 images held `k`-major, the shape
/// every group of the 384-image fit runs.
fn bench_cah_responses() -> PreparedBench {
    let (rows, d) = (400, 3072);
    let w = seeded_tensor(&[rows, d], 28);
    let x: Vec<[f32; simd::DOT_LANES]> = seeded_tensor(&[d, simd::DOT_LANES], 29)
        .data()
        .as_chunks()
        .0
        .to_vec();
    let mut out = vec![[0.0f32; simd::DOT_LANES]; rows];
    PreparedBench {
        throughput: Some(((rows * simd::DOT_LANES) as f64, "dot/s")),
        run: Box::new(move || {
            simd::lane_dots(w.data(), &x, &mut out);
            std::hint::black_box(&out);
        }),
    }
}

/// The `cah` calibration set of `attack_grid`: the 384-image prefix of
/// a 77-per-class `imagenette` dataset at 32×32, through the public
/// renderer (classes on the run's pool, pixel noise on the pinned
/// backend).
fn bench_render_imagenette() -> PreparedBench {
    let generator = Generator::imagenette(77, 32, 27);
    PreparedBench {
        throughput: Some((384.0, "image/s")),
        run: Box::new(move || {
            std::hint::black_box(generator.render(384));
        }),
    }
}

/// All-pairs scoring: 128 reconstructions against 32 originals at
/// 3×32×32, unseeded, through the abandoning squared-error tile.
fn bench_psnr_pairs() -> PreparedBench {
    let images = |count: usize, seed: u64| -> Vec<Image> {
        let t = seeded_tensor(&[count, 3 * 32 * 32], seed);
        t.data()
            .chunks_exact(3 * 32 * 32)
            .map(|px| Image::from_vec(3, 32, 32, px.to_vec()).expect("3×32×32"))
            .collect()
    };
    let recons = images(128, 24);
    let originals = images(32, 25);
    PreparedBench {
        throughput: Some(((recons.len() * originals.len()) as f64, "pair/s")),
        run: Box::new(move || {
            std::hint::black_box(best_psnr_per_original(&recons, &originals));
        }),
    }
}

/// A structured pool the way `attack.score` sees a defended RTF trial:
/// 32 rendered `imagenette` originals at 3×32×32 and 256
/// reconstructions, clamped to [0, 1] — each original under uniform
/// noise of graded amplitude (0.02–0.09) and 224 decoys, two-image
/// mixtures under noise of amplitude 0.05.
fn structured_pool() -> (Vec<Image>, Vec<Image>) {
    use rand::Rng;
    let originals: Vec<Image> = Generator::imagenette(4, 32, 31)
        .render(32)
        .into_iter()
        .map(|item| item.image)
        .collect();
    let mut rng = StdRng::seed_from_u64(32);
    let mut noisy = |pixels: Vec<f32>, level: f32| {
        let data = pixels
            .into_iter()
            .map(|v| v + level * rng.gen_range(-1.0f32..1.0))
            .collect();
        Image::from_vec(3, 32, 32, data).expect("3×32×32").clamp01()
    };
    let mut recons: Vec<Image> = originals
        .iter()
        .enumerate()
        .map(|(i, o)| noisy(o.data().to_vec(), 0.02 + 0.01 * (i % 8) as f32))
        .collect();
    for k in 0..224 {
        let (a, b) = (&originals[k % 32], &originals[(k * 7 + 1) % 32]);
        let mix = a.data().iter().zip(b.data()).map(|(x, y)| 0.5 * (x + y));
        recons.push(noisy(mix.collect(), 0.05));
    }
    (recons, originals)
}

/// `attack.score`'s pricing of [`structured_pool`]: coarse 8×8
/// matching, then the best-PSNR pass seeded by its matches, where
/// most pairs are abandoned early. (In `psnr_pairs`' i.i.d. normal
/// pool every MSE is near 2, so each pair stops about halfway, at
/// the 0 dB floor.)
fn bench_score_pool() -> PreparedBench {
    let (recons, originals) = structured_pool();
    PreparedBench {
        throughput: Some(((recons.len() * originals.len()) as f64, "pair/s")),
        run: Box::new(move || {
            let matches = match_greedy_coarse(&recons, &originals, 8);
            std::hint::black_box(best_psnr_per_original_seeded(&recons, &originals, &matches));
        }),
    }
}

// ---------------------------------------------------------------------
// fl benches
// ---------------------------------------------------------------------

/// The protocol fixture's 80-image 16×16 pool and its two-layer MLP.
fn fl_data_and_factory() -> (Dataset, ModelFactory) {
    let data = cifar_like_with(10, 8, 16, 0);
    let d = data.feature_dim();
    let factory: ModelFactory = Arc::new(move || {
        let mut rng = StdRng::seed_from_u64(12);
        let mut m = Sequential::new();
        m.push(Linear::new(d, 64, &mut rng));
        m.push(Relu::new());
        m.push(Linear::new(64, 10, &mut rng));
        m
    });
    (data, factory)
}

/// One round over four clients on the raw wire.
fn bench_fl_round_raw() -> PreparedBench {
    let (data, factory) = fl_data_and_factory();
    let clients = Population::iid(
        &data,
        4,
        Arc::new(DefenseStack::identity()),
        &mut StdRng::seed_from_u64(13),
    );
    PreparedBench {
        throughput: Some((clients.len() as f64, "client/s")),
        run: Box::new(move || {
            // Fresh server + pinned rng per iteration: every round is
            // bit-identical work. A persistent server would train the
            // model across iterations, and round cost drifts with
            // activation sparsity (the matmul kernels skip zeros).
            let mut server =
                FlServer::new(Arc::clone(&factory), FlConfig::default()).expect("bench server");
            server.set_wire(WireConfig::new(CodecSpec::Raw, NetSpec::Ideal));
            let mut runner = CohortRunner::new(server, clients.clone());
            let mut rng = StdRng::seed_from_u64(14);
            std::hint::black_box(runner.run_round(&mut rng).expect("bench round"));
        }),
    }
}

/// `fl_round_raw` with telemetry recording forced on for the
/// iteration — the variant of the observability record pair. Its
/// reference, `fl_round_raw`, runs with telemetry compiled in but
/// disabled (the default), where each instrumentation point costs a
/// single relaxed atomic load.
fn bench_fl_round_raw_telem() -> PreparedBench {
    pinned(bench_fl_round_raw(), |run| {
        let was = oasis_telemetry::set_enabled(true);
        run();
        oasis_telemetry::set_enabled(was);
        // Drop the spans so long bench runs don't accumulate
        // unbounded records (and later benches start clean).
        oasis_telemetry::reset();
    })
}

/// The stack a defense spec string builds.
fn defense(spec: &str) -> DefenseStack {
    spec.parse::<oasis_scenario::DefenseSpec>()
        .expect("defense spec")
        .build()
}

/// The `oasis:MR` batch stage on a B = 8 batch (16×16×3): the
/// per-round client-side cost of OASIS's augmentation.
fn bench_defense_oasis() -> PreparedBench {
    let stack = defense("oasis:MR");
    let data = cifar_like_with(8, 1, 16, 21);
    let batch = oasis_data::Batch::from_items(data.items().to_vec());
    PreparedBench {
        throughput: Some((batch.len() as f64, "img/s")),
        run: Box::new(move || {
            let mut rng = StdRng::seed_from_u64(22);
            std::hint::black_box(stack.process_batch(&batch, &mut rng));
        }),
    }
}

/// The `dp:1,0.01` update stage on a 262 144-parameter update:
/// client-level clip plus Gaussian noise, mostly the noise sampler.
fn bench_defense_dp() -> PreparedBench {
    let stack = defense("dp:1,0.01");
    let update = codec_update();
    PreparedBench {
        throughput: Some((update.len() as f64, "param/s")),
        run: Box::new(move || {
            let mut rng = StdRng::seed_from_u64(22);
            let mut u = update.clone();
            stack.clip_update(&mut u);
            stack.perturb_update(&mut u, 8, &mut rng);
            std::hint::black_box(u);
        }),
    }
}

/// One RTF inversion step: invert a 128-neuron malicious layer's
/// gradients back into candidate images (paper Eq. 6 over every bin,
/// plus pool dedup).
fn bench_rtf_invert() -> PreparedBench {
    let neurons = 128;
    let geometry = (3, 16, 16);
    let d = geometry.0 * geometry.1 * geometry.2;
    let attack = RtfAttack::new(neurons, 0.5, 0.15).expect("bench rtf");
    let grad_w = seeded_tensor(&[neurons, d], 16);
    // Strictly decreasing bias gradients keep every adjacent
    // difference invertible, so all bins do work.
    let grad_b = Tensor::from_vec(
        (0..neurons)
            .map(|i| 1.0 + (neurons - i) as f32 * 0.01)
            .collect(),
        &[neurons],
    )
    .expect("bias gradient");
    PreparedBench {
        throughput: Some((neurons as f64, "neuron/s")),
        run: Box::new(move || {
            std::hint::black_box(reconstruct(&attack, &grad_w, &grad_b, geometry));
        }),
    }
}

/// The population-round fixture: the fl fixture's pool and model,
/// but `population` clients instead of four. Past the pool size
/// every client holds one sample (round-robin), so per-client compute
/// stays constant while the population axis grows.
fn pop_fixture(population: usize) -> (ModelFactory, Population) {
    let (data, factory) = fl_data_and_factory();
    let pop = Population::iid(
        &data,
        population,
        Arc::new(DefenseStack::identity()),
        &mut StdRng::seed_from_u64(13),
    );
    (factory, pop)
}

/// One cohort-64 round sampled from `population` clients. The
/// population and its runner are built once and kept across
/// iterations; the server is fresh per iteration so every round is
/// bit-identical work (see [`bench_fl_round_raw`]).
fn bench_pop_round(population: usize) -> PreparedBench {
    let (factory, pop) = pop_fixture(population);
    let server = move || {
        FlServer::new(
            Arc::clone(&factory),
            FlConfig {
                clients_per_round: 64,
                ..FlConfig::default()
            },
        )
        .expect("bench server")
    };
    let mut runner = CohortRunner::new(server(), pop);
    PreparedBench {
        throughput: Some((1.0, "round/s")),
        run: Box::new(move || {
            *runner.server_mut() = server();
            let mut rng = StdRng::seed_from_u64(14);
            std::hint::black_box(runner.run_round(&mut rng).expect("bench pop round"));
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(suite: Vec<BenchDef>) -> Vec<String> {
        suite.into_iter().map(|b| b.name).collect()
    }

    #[test]
    fn suite_listing_is_deterministic_and_stable() {
        let core = names(core_suite());
        assert_eq!(core.len(), 2 * CORE_KERNELS.len());
        assert_eq!(
            core[..6],
            [
                "matmul_256_simd",
                "matmul_256_scalar",
                "matmul_conv_fwd_simd",
                "matmul_conv_fwd_scalar",
                "matmul_nt_conv_gw_simd",
                "matmul_nt_conv_gw_scalar",
            ]
        );
        assert_eq!(
            core[10..16],
            [
                "matmul_nt_attack_simd",
                "matmul_nt_attack_scalar",
                "matmul_tn_attack_simd",
                "matmul_tn_attack_scalar",
                "clip_sum_attack_simd",
                "clip_sum_attack_scalar",
            ]
        );
        assert_eq!(
            core[core.len() - 2..],
            ["render_imagenette_simd", "render_imagenette_scalar"],
            "kernels keep their table order"
        );
        assert_eq!(core, names(core_suite()), "listing must be reproducible");
        assert_eq!(
            names(fl_suite()),
            [
                "fl_round_raw",
                "fl_round_raw_telem",
                "codec_raw_encode",
                "codec_raw_decode",
                "rtf_invert_128",
                "defense_oasis",
                "defense_dp",
                "pop_round_1k",
                "pop_round_100k",
            ]
        );
        assert_eq!(
            names(scale_suite()),
            [
                "fl_round_raw_t1",
                "fl_round_raw_t4",
                "conv2d_forward_b32_t1",
                "conv2d_forward_b32_t4",
                "matmul_256_t1",
                "matmul_256_t4",
                "rtf_invert_128_t1",
                "rtf_invert_128_t4",
            ]
        );
        for name in SUITE_NAMES {
            assert!(suite(name).is_some(), "{name}");
        }
        assert!(suite("nope").is_none());
        assert_eq!(SUITE_NAMES.len(), 3);
    }

    #[test]
    fn no_rename_can_ungate_a_pair() {
        // Listing only, no timing: every rule of the table must pair
        // something, and every variant must have its reference in the
        // same suite — otherwise a rename silently drops a gate.
        let mut matched = [false; PAIR_RULES.len()];
        for suite_name in SUITE_NAMES {
            let listed = names(suite(suite_name).expect("listed suite"));
            for name in &listed {
                let Some((rule, reference)) = reference_of(name) else {
                    continue;
                };
                assert!(
                    listed.contains(&reference),
                    "`{suite_name}::{name}` lacks its `{reference}` sibling"
                );
                let i = PAIR_RULES.iter().position(|r| r == rule).expect("rule");
                matched[i] = true;
            }
        }
        for (rule, hit) in PAIR_RULES.iter().zip(matched) {
            assert!(hit, "rule `{}` pairs no record", rule.variant);
        }
    }

    #[test]
    fn pop_suite_memory_stays_bounded() {
        // The bench fixture's promise: on the raw zero-copy wire the
        // server-side update memory is exactly one model buffer (the
        // accumulator — frames fold as borrowed views, so no decode
        // scratch is ever materialized), independent of population.
        // One round at the smallest population suffices — the
        // aggregator's footprint has no population term at all.
        let (factory, pop) = pop_fixture(1_000);
        let n = oasis_nn::param_count(&factory());
        let server = FlServer::new(
            factory,
            FlConfig {
                clients_per_round: 64,
                ..FlConfig::default()
            },
        )
        .expect("server");
        let mut runner = CohortRunner::new(server, pop);
        let report = runner
            .run_round(&mut StdRng::seed_from_u64(14))
            .expect("pop round");
        assert_eq!(report.population, 1_000);
        assert_eq!(report.round_report.cohort, 64);
        assert_eq!(report.peak_accum_bytes, 4 * n);
    }

    fn record(name: &str, median_ns: u64) -> BenchRecord {
        BenchRecord {
            name: name.into(),
            iters: 3,
            median_ns,
            min_ns: median_ns,
            throughput: None,
            throughput_unit: None,
        }
    }

    fn suite_of(medians: &[(&str, u64)]) -> BenchSuite {
        BenchSuite {
            schema_version: SCHEMA_VERSION,
            suite: "core".into(),
            cpu: "Test CPU".into(),
            nproc: 2,
            threads: 1,
            simd: "scalar".into(),
            quick: true,
            results: medians.iter().map(|&(n, m)| record(n, m)).collect(),
        }
    }

    #[test]
    fn paired_gate_applies_each_rule_floor() {
        let points = paired_gate(&suite_of(&[
            ("matmul_256_simd", 1000),
            ("matmul_256_scalar", 4000),
            ("psnr_simd", 1050),
            ("psnr_scalar", 1000), // 0.95: inside the 0.9 noise band
            ("fl_round_raw", 1000),
            ("fl_round_raw_telem", 1900), // 0.53 ≥ 0.5
            ("pop_round_1k", 1000),
            ("pop_round_100k", 2500), // 0.4 < 0.5
            ("unpaired", 10),
        ]))
        .expect("gate applies");
        let ratio_of = |v: &str| points.iter().find(|p| p.variant == v).expect(v);
        assert_eq!(points.len(), 4);
        assert!((ratio_of("matmul_256_simd").ratio() - 4.0).abs() < 1e-9);
        assert!(!ratio_of("psnr_simd").failed());
        assert_eq!(ratio_of("fl_round_raw_telem").reference, "fl_round_raw");
        assert!(!ratio_of("fl_round_raw_telem").failed());
        assert!(ratio_of("pop_round_100k").failed());

        // A vector backend slower than the scalar reference is a
        // dispatch or kernel regression, not noise.
        let bad = paired_gate(&suite_of(&[("q8_simd", 2000), ("q8_scalar", 1000)]));
        assert!(bad.expect("gate applies")[0].failed());
    }

    #[test]
    fn pairs_wider_than_the_host_are_informational() {
        let mut scale = suite_of(&[("matmul_256_t1", 1000), ("matmul_256_t4", 5000)]);
        let points = paired_gate(&scale).expect("gate applies");
        assert!(
            !points[0].gated && !points[0].failed(),
            "4 threads on 2 cores"
        );
        scale.nproc = 4;
        assert!(paired_gate(&scale).expect("gate applies")[0].failed());
    }

    #[test]
    fn paired_gate_refuses_orphans_and_vacuous_runs() {
        let orphan = paired_gate(&suite_of(&[("psnr_simd", 10), ("psnr", 10)]));
        assert!(orphan.unwrap_err().contains("psnr_scalar"));
        assert!(paired_gate(&suite_of(&[("matmul_256", 10)])).is_err());
    }

    #[test]
    fn loading_rejects_records_that_cannot_be_compared() {
        let json = |s: &BenchSuite| serde_json::to_string(s).expect("serialize");
        let good = suite_of(&[("a", 10), ("b", 20)]);
        assert_eq!(BenchSuite::from_json(&json(&good)), Ok(good.clone()));

        let empty = suite_of(&[]);
        assert!(BenchSuite::from_json(&json(&empty)).is_err());
        // Two zero medians would divide 0 by 0: a NaN delta that
        // classifies as `Ok`.
        let zero = suite_of(&[("a", 0)]);
        assert!(BenchSuite::from_json(&json(&zero))
            .unwrap_err()
            .contains("zero median"));
        let mut inverted = good.clone();
        inverted.results[0].min_ns = 11;
        assert!(BenchSuite::from_json(&json(&inverted)).is_err());
        let twice = suite_of(&[("a", 10), ("a", 20)]);
        assert!(BenchSuite::from_json(&json(&twice))
            .unwrap_err()
            .contains("twice"));
    }

    #[test]
    fn v1_files_are_refused_on_schema() {
        let v1 = r#"{
            "schema_version": 1,
            "suite": "core",
            "threads": 1,
            "simd": "avx2",
            "quick": true,
            "results": [{"name": "a", "iters": 3, "median_ns": 10, "min_ns": 9,
                         "throughput": null, "throughput_unit": null}]
        }"#;
        let err = BenchSuite::from_json(v1).unwrap_err();
        assert!(err.contains("schema v1"), "{err}");
        assert!(BenchSuite::from_json("not json").is_err());
    }

    #[test]
    fn filter_selects_expected_subset() {
        assert_eq!(
            names(apply_filter(core_suite(), "conv2d_forward")),
            [
                "conv2d_forward_b8_simd",
                "conv2d_forward_b8_scalar",
                "conv2d_forward_b32_simd",
                "conv2d_forward_b32_scalar",
            ]
        );
        assert_eq!(
            names(apply_filter(fl_suite(), "codec")),
            ["codec_raw_encode", "codec_raw_decode"]
        );
        assert!(apply_filter(core_suite(), "no-such-bench").is_empty());
    }

    #[test]
    fn schema_roundtrips_through_serde_json() {
        let mut suite = suite_of(&[("matmul_256_simd", 1_234_567), ("unitless", 10)]);
        suite.results[0].throughput = Some(2.5e9);
        suite.results[0].throughput_unit = Some("flop/s".into());
        let json = serde_json::to_string_pretty(&suite).expect("serialize");
        let back: BenchSuite = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, suite);
    }

    #[test]
    fn tiny_group_produces_sane_records() {
        let tiny = |n: u64| PreparedBench {
            throughput: Some((n as f64, "item/s")),
            run: Box::new(move || {
                std::hint::black_box((0..n).sum::<u64>());
            }),
        };
        let group = vec![("tiny".into(), tiny(100)), ("tiny_x4".into(), tiny(400))];
        let [a, b] = &run_group(group, true)[..] else {
            panic!("two benches, two records");
        };
        assert_eq!((a.name.as_str(), b.name.as_str()), ("tiny", "tiny_x4"));
        assert!(a.iters >= 3);
        assert_eq!(a.iters, b.iters, "a group shares one iteration count");
        for rec in [a, b] {
            assert!(rec.min_ns <= rec.median_ns);
            assert!(rec.throughput.unwrap() > 0.0);
            assert_eq!(rec.throughput_unit.as_deref(), Some("item/s"));
        }
    }

    #[test]
    fn compare_classifies_against_thresholds() {
        let baseline = suite_of(&[
            ("steady", 1000),
            ("warned", 1000),
            ("failed", 1000),
            ("gone", 1000),
        ]);
        let current = suite_of(&[
            ("steady", 1050),
            ("warned", 1200),
            ("failed", 1500),
            ("brand_new", 10),
        ]);
        let report = compare_suites(&baseline, &current).expect("comparable");
        let class_of = |n: &str| {
            report
                .deltas
                .iter()
                .find(|d| d.name == n)
                .expect("delta present")
                .class
        };
        assert_eq!(class_of("steady"), DeltaClass::Ok);
        assert_eq!(class_of("warned"), DeltaClass::Warn);
        assert_eq!(class_of("failed"), DeltaClass::Fail);
        assert_eq!(class_of("gone"), DeltaClass::Missing);
        assert_eq!(class_of("brand_new"), DeltaClass::New);
        assert!(report.warned);
        assert!(report.failed);
    }

    #[test]
    fn compare_refuses_another_host_or_setting() {
        let a = suite_of(&[("a", 10)]);
        let edits: [fn(&mut BenchSuite); 7] = [
            |s| s.schema_version += 1,
            |s| s.suite = "fl".into(),
            |s| s.cpu = "Other CPU".into(),
            |s| s.nproc = 64,
            |s| s.simd = "avx2".into(),
            |s| s.threads = 4,
            |s| s.quick = false,
        ];
        for edit in edits {
            let mut b = a.clone();
            edit(&mut b);
            assert!(compare_suites(&a, &b).is_err(), "{b:?}");
        }
        let err = compare_suites(&a, &{
            let mut b = a.clone();
            b.cpu = "Other CPU".into();
            b
        })
        .unwrap_err();
        assert!(err.contains("host cpu mismatch"), "{err}");
    }

    #[test]
    fn improvements_never_warn() {
        let report = compare_suites(&suite_of(&[("fast", 1000)]), &suite_of(&[("fast", 400)]))
            .expect("comparable");
        assert!(!report.warned && !report.failed);
        assert!(report.deltas[0].pct < 0.0);
    }
}
