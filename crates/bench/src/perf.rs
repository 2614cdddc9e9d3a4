//! The `perf` macro-benchmark harness: a fixed, deterministic suite
//! of hot-path measurements serialized as versioned `BENCH_<suite>.json`
//! records that CI compares across commits.
//!
//! This harness is the workspace's performance record: every bench
//! has a stable name, a fixed workload shape, and a self-calibrated
//! iteration count, and the output schema
//! round-trips through serde so `tools/bench_compare` can diff any
//! two runs. Thread count is pinned via `OASIS_THREADS` for
//! cross-machine comparability (the JSON records what was used).
//!
//! Five suites:
//!
//! * `core` — tensor/nn kernels: matmul / matmul_nt / matmul_tn at
//!   model-relevant shapes, Conv2d forward+backward. Also carries the
//!   SIMD record pairs: the lane-sensitive hot paths (matmul, q8
//!   codec, PSNR) re-run with the SIMD backend pinned to the best
//!   detected one (`_simd`) and to the scalar reference (`_scalar`)
//!   via [`simd::with_backend`], independent of `OASIS_SIMD`.
//!   Lane speedup is derived from the `_scalar`/`_simd` medians by
//!   [`simd_points`], and the CI gate ([`simd_gate`]) fails when the
//!   vector backend is slower than scalar on the same machine.
//! * `fl` — protocol macro paths: a full [`CohortRunner::run_round`]
//!   over four resident clients (raw and q8 wire), codec
//!   encode/decode, one RTF inversion step,
//!   one `oasis:MR+dp:1,0.01` defense-stack application, one attacked
//!   round under record-level DP, and one CAH calibration.
//! * `scale` — multi-core scaling: the core/fl macro-benches re-run
//!   at 1, 2, and 4 worker threads (pinned per bench via
//!   [`parallel::with_threads`], independent of `OASIS_THREADS`), as
//!   `<bench>_t<N>` records. Parallel efficiency is derived from the
//!   `_t1`/`_tN` medians by [`scale_points`], and the CI gate
//!   ([`scale_gate`]) fails when the multi-threaded run is slower
//!   than the serial one on the same machine.
//! * `pop` — population-scale rounds: one [`CohortRunner`] round
//!   (cohort 64, raw wire) sampled from 1 k / 10 k / 100 k
//!   descriptor clients, pinning rounds-per-second as the population
//!   grows. The streaming aggregator keeps server memory at two
//!   model buffers regardless of population (asserted by
//!   `pop_suite_memory_stays_bounded`), so the records should differ
//!   only by the O(population) selection shuffle.
//! * `campaign` — the long-horizon path: one full 100-round
//!   [`CampaignRunner`] campaign (three phases: plain, churn,
//!   churn + Dirichlet drift) over 16 clients, pinning
//!   rounds-per-second for the campaign engine's per-round
//!   bookkeeping (phase tracking, churn stream, population
//!   subsetting) on top of the cohort round itself.

use std::sync::Arc;
use std::time::Instant;

use oasis_attacks::{run_attack, ActiveAttack, CahAttack, RtfAttack, DEFAULT_ACTIVATION_TARGET};
use oasis_campaign::{CampaignRunner, CampaignSetup, CampaignSpec};
use oasis_data::cifar_like_with;
use oasis_fl::{DefenseStack, DpStage, FlConfig, FlServer, ModelFactory, WireConfig};
use oasis_metrics::psnr_data;
use oasis_nn::{Conv2d, Layer, Linear, Mode, Relu, Sequential};
use oasis_population::{CohortRunner, Population};
use oasis_tensor::{parallel, simd, Tensor};
use oasis_wire::{CodecSpec, NetSpec, Q8Codec, RawCodec, UpdateCodec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Version of the `BENCH_*.json` schema. Bump on breaking changes;
/// `bench_compare` refuses to diff mismatched versions.
pub const SCHEMA_VERSION: u32 = 1;

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
    /// Suite name (`core` or `fl`).
    pub suite: String,
    /// Worker threads the run used (see `OASIS_THREADS`).
    pub threads: usize,
    /// SIMD backend label the run resolved (see `OASIS_SIMD`); `_simd`
    /// / `_scalar` record pairs pin their own backend per bench, so
    /// this only describes the unpinned records. Empty in baselines
    /// captured before the field existed.
    #[serde(default)]
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
    /// Stable name (the comparison key across commits).
    pub name: &'static str,
    build: fn() -> PreparedBench,
}

// ---------------------------------------------------------------------
// Suite definitions
// ---------------------------------------------------------------------

/// The `core` suite: tensor and nn kernels at model-relevant shapes.
///
/// Order is fixed; names are stable comparison keys.
pub fn core_suite() -> Vec<BenchDef> {
    vec![
        BenchDef {
            name: "matmul_256",
            build: bench_matmul_256,
        },
        BenchDef {
            name: "matmul_conv_fwd",
            build: bench_matmul_conv_fwd,
        },
        BenchDef {
            name: "matmul_nt_conv_gw",
            build: bench_matmul_nt_conv_gw,
        },
        BenchDef {
            name: "matmul_tn_conv_gx",
            build: bench_matmul_tn_conv_gx,
        },
        BenchDef {
            name: "matmul_nt_linear",
            build: bench_matmul_nt_linear,
        },
        BenchDef {
            name: "conv2d_forward_b8",
            build: bench_conv_forward_b8,
        },
        BenchDef {
            name: "conv2d_backward_b8",
            build: bench_conv_backward_b8,
        },
        BenchDef {
            name: "conv2d_forward_b32",
            build: bench_conv_forward_b32,
        },
        BenchDef {
            name: "matmul_256_simd",
            build: bench_matmul_256_simd,
        },
        BenchDef {
            name: "matmul_256_scalar",
            build: bench_matmul_256_scalar,
        },
        BenchDef {
            name: "matmul_nt_linear_simd",
            build: bench_matmul_nt_linear_simd,
        },
        BenchDef {
            name: "matmul_nt_linear_scalar",
            build: bench_matmul_nt_linear_scalar,
        },
        BenchDef {
            name: "codec_q8_encode_simd",
            build: bench_codec_q8_encode_simd,
        },
        BenchDef {
            name: "codec_q8_encode_scalar",
            build: bench_codec_q8_encode_scalar,
        },
        BenchDef {
            name: "codec_q8_decode_simd",
            build: bench_codec_q8_decode_simd,
        },
        BenchDef {
            name: "codec_q8_decode_scalar",
            build: bench_codec_q8_decode_scalar,
        },
        BenchDef {
            name: "psnr_simd",
            build: bench_psnr_simd,
        },
        BenchDef {
            name: "psnr_scalar",
            build: bench_psnr_scalar,
        },
    ]
}

/// The `fl` suite: protocol round, codecs, and one attack step.
///
/// Order is fixed; names are stable comparison keys.
pub fn fl_suite() -> Vec<BenchDef> {
    vec![
        BenchDef {
            name: "fl_round_raw",
            build: bench_fl_round_raw,
        },
        BenchDef {
            name: "fl_round_raw_telem",
            build: bench_fl_round_raw_telem,
        },
        BenchDef {
            name: "fl_round_q8",
            build: bench_fl_round_q8,
        },
        BenchDef {
            name: "codec_raw_encode",
            build: bench_codec_raw_encode,
        },
        BenchDef {
            name: "codec_raw_decode",
            build: bench_codec_raw_decode,
        },
        BenchDef {
            name: "codec_q8_encode",
            build: bench_codec_q8_encode,
        },
        BenchDef {
            name: "codec_q8_decode",
            build: bench_codec_q8_decode,
        },
        BenchDef {
            name: "rtf_invert_128",
            build: bench_rtf_invert,
        },
        BenchDef {
            name: "defense_stack",
            build: bench_defense_stack,
        },
        BenchDef {
            name: "attack_dp_per_sample",
            build: bench_attack_dp_per_sample,
        },
        BenchDef {
            name: "attack_calibrate_cah",
            build: bench_attack_calibrate_cah,
        },
    ]
}

/// The `scale` suite: core/fl macro-benches at 1/2/4 worker threads.
///
/// Order is fixed; names are stable comparison keys. Thread count is
/// pinned per bench with [`parallel::with_threads`], so one run
/// measures every width regardless of `OASIS_THREADS`.
pub fn scale_suite() -> Vec<BenchDef> {
    vec![
        BenchDef {
            name: "fl_round_raw_t1",
            build: bench_fl_round_raw_t1,
        },
        BenchDef {
            name: "fl_round_raw_t2",
            build: bench_fl_round_raw_t2,
        },
        BenchDef {
            name: "fl_round_raw_t4",
            build: bench_fl_round_raw_t4,
        },
        BenchDef {
            name: "conv2d_forward_b32_t1",
            build: bench_conv_forward_b32_t1,
        },
        BenchDef {
            name: "conv2d_forward_b32_t2",
            build: bench_conv_forward_b32_t2,
        },
        BenchDef {
            name: "conv2d_forward_b32_t4",
            build: bench_conv_forward_b32_t4,
        },
        BenchDef {
            name: "matmul_256_t1",
            build: bench_matmul_256_t1,
        },
        BenchDef {
            name: "matmul_256_t2",
            build: bench_matmul_256_t2,
        },
        BenchDef {
            name: "matmul_256_t4",
            build: bench_matmul_256_t4,
        },
        BenchDef {
            name: "rtf_invert_128_t1",
            build: bench_rtf_invert_t1,
        },
        BenchDef {
            name: "rtf_invert_128_t2",
            build: bench_rtf_invert_t2,
        },
        BenchDef {
            name: "rtf_invert_128_t4",
            build: bench_rtf_invert_t4,
        },
    ]
}

/// The `pop` suite: one cohort-64 population round at growing
/// population sizes.
///
/// Order is fixed; names are stable comparison keys.
pub fn pop_suite() -> Vec<BenchDef> {
    vec![
        BenchDef {
            name: "pop_round_1k",
            build: bench_pop_round_1k,
        },
        BenchDef {
            name: "pop_round_10k",
            build: bench_pop_round_10k,
        },
        BenchDef {
            name: "pop_round_100k",
            build: bench_pop_round_100k,
        },
    ]
}

/// The `campaign` suite: the long-horizon campaign engine end to end.
///
/// Order is fixed; names are stable comparison keys.
pub fn campaign_suite() -> Vec<BenchDef> {
    vec![BenchDef {
        name: "campaign_100r",
        build: bench_campaign_100r,
    }]
}

/// All suite names, in run order.
pub const SUITE_NAMES: [&str; 5] = ["core", "fl", "scale", "pop", "campaign"];

/// The benches of the named suite (`core`, `fl`, `scale`, `pop`, or
/// `campaign`).
pub fn suite(name: &str) -> Option<Vec<BenchDef>> {
    match name {
        "core" => Some(core_suite()),
        "fl" => Some(fl_suite()),
        "scale" => Some(scale_suite()),
        "pop" => Some(pop_suite()),
        "campaign" => Some(campaign_suite()),
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

/// Self-calibrates the iteration count and times `prepared`.
///
/// One warmup iteration estimates the per-iter cost; the measured
/// loop then sizes itself to roughly the time budget (`--quick`
/// shrinks the budget, never the workload shapes, so medians stay
/// comparable across modes — just noisier).
pub fn run_prepared(name: &str, mut prepared: PreparedBench, quick: bool) -> BenchRecord {
    let budget_ns: u128 = if quick { 60_000_000 } else { 400_000_000 };
    let warmup = Instant::now();
    (prepared.run)();
    let est = warmup.elapsed().as_nanos().max(1);
    let iters = (budget_ns / est).clamp(3, 1000) as u64;
    let mut samples = Vec::with_capacity(iters as usize);
    for _ in 0..iters {
        let t = Instant::now();
        (prepared.run)();
        samples.push(t.elapsed().as_nanos() as u64);
    }
    samples.sort_unstable();
    let median_ns = samples[samples.len() / 2].max(1);
    let min_ns = samples[0].max(1);
    let (throughput, throughput_unit) = match prepared.throughput {
        Some((items, unit)) => (Some(items * 1e9 / median_ns as f64), Some(unit.to_string())),
        None => (None, None),
    };
    BenchRecord {
        name: name.to_string(),
        iters,
        median_ns,
        min_ns,
        throughput,
        throughput_unit,
    }
}

/// Runs a suite (optionally filtered) and collects the records.
pub fn run_suite(name: &str, filter: Option<&str>, quick: bool) -> Option<BenchSuite> {
    let mut benches = suite(name)?;
    if let Some(f) = filter {
        benches = apply_filter(benches, f);
    }
    let results = benches
        .into_iter()
        .map(|b| {
            let rec = run_prepared(b.name, (b.build)(), quick);
            eprintln!("  {}", format_record(&rec));
            rec
        })
        .collect();
    Some(BenchSuite {
        schema_version: SCHEMA_VERSION,
        suite: name.to_string(),
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
        "{:<22} median {:>12} ns  min {:>12} ns  ({} iters){tp}",
        r.name, r.median_ns, r.min_ns, r.iters
    )
}

// ---------------------------------------------------------------------
// Comparison (the CI regression gate)
// ---------------------------------------------------------------------

/// Default warn threshold: median slower by more than this percent.
pub const WARN_PCT: f64 = 10.0;
/// Default fail threshold: median slower by more than this percent.
pub const FAIL_PCT: f64 = 35.0;

/// How one bench moved between baseline and current.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaClass {
    /// Within thresholds (or faster).
    Ok,
    /// Slower than the warn threshold.
    Warn,
    /// Slower than the fail threshold.
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

/// Diffs `current` against `baseline` with the given thresholds.
///
/// # Errors
///
/// Returns a message when the schema versions or suite names
/// disagree — those runs are not comparable.
pub fn compare_suites(
    baseline: &BenchSuite,
    current: &BenchSuite,
    warn_pct: f64,
    fail_pct: f64,
) -> Result<CompareReport, String> {
    if baseline.schema_version != current.schema_version {
        return Err(format!(
            "schema version mismatch: baseline v{} vs current v{}",
            baseline.schema_version, current.schema_version
        ));
    }
    if baseline.suite != current.suite {
        return Err(format!(
            "suite mismatch: baseline `{}` vs current `{}`",
            baseline.suite, current.suite
        ));
    }
    let mut deltas = Vec::new();
    for base in &baseline.results {
        match current.get(&base.name) {
            Some(cur) => {
                let pct =
                    (cur.median_ns as f64 - base.median_ns as f64) / base.median_ns as f64 * 100.0;
                let class = if pct > fail_pct {
                    DeltaClass::Fail
                } else if pct > warn_pct {
                    DeltaClass::Warn
                } else {
                    DeltaClass::Ok
                };
                deltas.push(Delta {
                    name: base.name.clone(),
                    base_ns: base.median_ns,
                    cur_ns: cur.median_ns,
                    pct,
                    class,
                });
            }
            None => deltas.push(Delta {
                name: base.name.clone(),
                base_ns: base.median_ns,
                cur_ns: 0,
                pct: 0.0,
                class: DeltaClass::Missing,
            }),
        }
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

/// Re-times `inner` with [`simd::with_backend`] pinning `backend`
/// around every iteration (the worker pool inherits the pin), so one
/// run measures both backends regardless of `OASIS_SIMD`.
fn simd_pinned(backend: simd::Backend, inner: PreparedBench) -> PreparedBench {
    let mut run = inner.run;
    PreparedBench {
        throughput: inner.throughput,
        run: Box::new(move || simd::with_backend(backend, &mut run)),
    }
}

fn bench_matmul_256_simd() -> PreparedBench {
    simd_pinned(simd::Backend::detect(), bench_matmul_256())
}

fn bench_matmul_256_scalar() -> PreparedBench {
    simd_pinned(simd::Backend::Scalar, bench_matmul_256())
}

fn bench_matmul_nt_linear_simd() -> PreparedBench {
    simd_pinned(simd::Backend::detect(), bench_matmul_nt_linear())
}

fn bench_matmul_nt_linear_scalar() -> PreparedBench {
    simd_pinned(simd::Backend::Scalar, bench_matmul_nt_linear())
}

fn bench_codec_q8_encode_simd() -> PreparedBench {
    simd_pinned(simd::Backend::detect(), bench_codec_q8_encode())
}

fn bench_codec_q8_encode_scalar() -> PreparedBench {
    simd_pinned(simd::Backend::Scalar, bench_codec_q8_encode())
}

fn bench_codec_q8_decode_simd() -> PreparedBench {
    simd_pinned(simd::Backend::detect(), bench_codec_q8_decode())
}

fn bench_codec_q8_decode_scalar() -> PreparedBench {
    simd_pinned(simd::Backend::Scalar, bench_codec_q8_decode())
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

fn bench_psnr_simd() -> PreparedBench {
    simd_pinned(simd::Backend::detect(), bench_psnr())
}

fn bench_psnr_scalar() -> PreparedBench {
    simd_pinned(simd::Backend::Scalar, bench_psnr())
}

fn bench_conv_forward_b8() -> PreparedBench {
    bench_conv_forward(8)
}

fn bench_conv_forward_b32() -> PreparedBench {
    bench_conv_forward(32)
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

// ---------------------------------------------------------------------
// fl benches
// ---------------------------------------------------------------------

fn fl_fixture() -> (ModelFactory, Vec<oasis_fl::FlClient>) {
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
    let clients = oasis_fl::partition_iid(
        &data,
        4,
        Arc::new(DefenseStack::identity()),
        &mut StdRng::seed_from_u64(13),
    );
    (factory, clients)
}

fn bench_fl_round(codec: CodecSpec) -> PreparedBench {
    let (factory, clients) = fl_fixture();
    PreparedBench {
        throughput: Some((clients.len() as f64, "client/s")),
        run: Box::new(move || {
            // Fresh server + pinned rng per iteration: every round is
            // bit-identical work. A persistent server would train the
            // model across iterations, and round cost drifts with
            // activation sparsity (the matmul kernels skip zeros).
            let mut server =
                FlServer::new(Arc::clone(&factory), FlConfig::default()).expect("bench server");
            server.set_wire(WireConfig::new(codec, NetSpec::Ideal));
            let mut runner = CohortRunner::new(server, &clients);
            let mut rng = StdRng::seed_from_u64(14);
            std::hint::black_box(runner.run_round(&mut rng).expect("bench round"));
        }),
    }
}

fn bench_fl_round_raw() -> PreparedBench {
    bench_fl_round(CodecSpec::Raw)
}

/// `fl_round_raw` with telemetry recording forced on for the
/// iteration — the other half of the observability record pair.
/// Comparing its median against `fl_round_raw` (telemetry compiled
/// in but disabled, the default) bounds the cost of tracing a round;
/// the disabled path itself is a single relaxed atomic load per
/// instrumentation point.
fn bench_fl_round_raw_telem() -> PreparedBench {
    let mut base = bench_fl_round(CodecSpec::Raw);
    PreparedBench {
        throughput: base.throughput,
        run: Box::new(move || {
            let was = oasis_telemetry::set_enabled(true);
            (base.run)();
            oasis_telemetry::set_enabled(was);
            // Drop the spans so long bench runs don't accumulate
            // unbounded records (and later benches start clean).
            oasis_telemetry::reset();
        }),
    }
}

fn bench_fl_round_q8() -> PreparedBench {
    bench_fl_round(CodecSpec::Q8)
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
    // Measure the fold-path decode: a borrowed view over one reused
    // scratch slot — raw frames resolve to a zero-copy borrow, lossy
    // codecs fill the slot — exactly what the server does per frame.
    let mut scratch = oasis_wire::FrameBuf::new();
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

fn bench_codec_raw_encode() -> PreparedBench {
    bench_codec_encode(Box::new(RawCodec))
}

fn bench_codec_raw_decode() -> PreparedBench {
    bench_codec_decode(Box::new(RawCodec))
}

fn bench_codec_q8_encode() -> PreparedBench {
    bench_codec_encode(Box::new(Q8Codec))
}

fn bench_codec_q8_decode() -> PreparedBench {
    bench_codec_decode(Box::new(Q8Codec))
}

/// One `oasis:MR+dp:1,0.01` defense-stack application: the OASIS
/// batch stage on a B = 8 batch (16×16×3) plus the update stage
/// (client-level clip + Gaussian noise) on a 262 144-parameter
/// update — the per-round client-side cost of stacking defenses.
fn bench_defense_stack() -> PreparedBench {
    let stack: DefenseStack = "oasis:MR+dp:1,0.01"
        .parse::<oasis_scenario::DefenseSpec>()
        .expect("stack spec")
        .build()
        .expect("stack build");
    let data = cifar_like_with(8, 1, 16, 21);
    let batch = oasis_data::Batch::from_items(data.items().to_vec());
    let update = codec_update();
    PreparedBench {
        throughput: Some((batch.len() as f64, "img/s")),
        run: Box::new(move || {
            let mut rng = StdRng::seed_from_u64(22);
            let processed = stack.process_batch(&batch, &mut rng);
            let mut u = update.clone();
            stack.clip_update(&mut u);
            stack.perturb_update(&mut u, processed.len(), &mut rng);
            std::hint::black_box((processed, u));
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
            std::hint::black_box(attack.reconstruct(&grad_w, &grad_b, geometry));
        }),
    }
}

/// One attacked round under record-level DP (`dp:1,0.01`): RTF with
/// 128 neurons against a B = 32 batch of 16×16×3 images — the
/// per-sample clip-and-sum, the Gaussian noise, then inversion and
/// scoring.
fn bench_attack_dp_per_sample() -> PreparedBench {
    let calibration = oasis_data::Batch::from_items(cifar_like_with(8, 8, 16, 23).items().to_vec());
    let attack = RtfAttack::calibrated(128, &calibration.images).expect("bench rtf");
    let batch = oasis_data::Batch::from_items(cifar_like_with(8, 4, 16, 24).items().to_vec());
    let stack = DefenseStack::of(DpStage::new(1.0, 0.01));
    PreparedBench {
        throughput: Some((batch.len() as f64, "sample/s")),
        run: Box::new(move || {
            std::hint::black_box(run_attack(&attack, &batch, &stack, 8, 25).expect("dp attack"));
        }),
    }
}

/// The dishonest server's CAH setup at the evaluation's default size:
/// draw 400 trap rows for 32×32×3 inputs, then fit every row's bias at
/// its response quantile over 384 calibration images (153 600
/// responses of length 3072).
fn bench_attack_calibrate_cah() -> PreparedBench {
    let (neurons, images) = (400, 384);
    let calibration: Vec<_> = cifar_like_with(96, 4, 32, 26)
        .items()
        .iter()
        .map(|it| it.image.clone())
        .collect();
    PreparedBench {
        throughput: Some(((neurons * images) as f64, "resp/s")),
        run: Box::new(move || {
            std::hint::black_box(
                CahAttack::calibrated(neurons, DEFAULT_ACTIVATION_TARGET, &calibration, 27)
                    .expect("bench cah"),
            );
        }),
    }
}

// ---------------------------------------------------------------------
// scale benches (+ the parallel-efficiency gate)
// ---------------------------------------------------------------------

/// Re-times `inner` with [`parallel::with_threads`] pinned to
/// `threads` around every iteration.
fn scaled(threads: usize, inner: PreparedBench) -> PreparedBench {
    let mut run = inner.run;
    PreparedBench {
        throughput: inner.throughput,
        run: Box::new(move || parallel::with_threads(threads, &mut run)),
    }
}

fn bench_fl_round_raw_t1() -> PreparedBench {
    scaled(1, bench_fl_round_raw())
}

fn bench_fl_round_raw_t2() -> PreparedBench {
    scaled(2, bench_fl_round_raw())
}

fn bench_fl_round_raw_t4() -> PreparedBench {
    scaled(4, bench_fl_round_raw())
}

fn bench_conv_forward_b32_t1() -> PreparedBench {
    scaled(1, bench_conv_forward_b32())
}

fn bench_conv_forward_b32_t2() -> PreparedBench {
    scaled(2, bench_conv_forward_b32())
}

fn bench_conv_forward_b32_t4() -> PreparedBench {
    scaled(4, bench_conv_forward_b32())
}

fn bench_matmul_256_t1() -> PreparedBench {
    scaled(1, bench_matmul_256())
}

fn bench_matmul_256_t2() -> PreparedBench {
    scaled(2, bench_matmul_256())
}

fn bench_matmul_256_t4() -> PreparedBench {
    scaled(4, bench_matmul_256())
}

fn bench_rtf_invert_t1() -> PreparedBench {
    scaled(1, bench_rtf_invert())
}

fn bench_rtf_invert_t2() -> PreparedBench {
    scaled(2, bench_rtf_invert())
}

fn bench_rtf_invert_t4() -> PreparedBench {
    scaled(4, bench_rtf_invert())
}

// ---------------------------------------------------------------------
// pop benches
// ---------------------------------------------------------------------

/// The population-round fixture: the fl fixture's pool and model,
/// but `population` descriptor clients instead of four resident
/// ones. Past the pool size every client holds one sample
/// (round-robin), so per-client compute stays constant while the
/// population axis grows.
fn pop_fixture(population: usize) -> (ModelFactory, Population) {
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
    let pop = Population::iid(
        &data,
        population,
        Arc::new(DefenseStack::identity()),
        &mut StdRng::seed_from_u64(13),
    );
    (factory, pop)
}

/// One cohort-64 round sampled from `population` clients. The
/// population (descriptors + shared pool) is built once and shared
/// across iterations; the server and runner are fresh per iteration
/// so every round is bit-identical work (see [`bench_fl_round`]).
fn bench_pop_round(population: usize) -> PreparedBench {
    let (factory, pop) = pop_fixture(population);
    PreparedBench {
        throughput: Some((1.0, "round/s")),
        run: Box::new(move || {
            let server = FlServer::new(
                Arc::clone(&factory),
                FlConfig {
                    clients_per_round: 64,
                    ..FlConfig::default()
                },
            )
            .expect("bench server");
            let mut runner = CohortRunner::new(server, pop.clone());
            let mut rng = StdRng::seed_from_u64(14);
            std::hint::black_box(runner.run_round(&mut rng).expect("bench pop round"));
        }),
    }
}

fn bench_pop_round_1k() -> PreparedBench {
    bench_pop_round(1_000)
}

fn bench_pop_round_10k() -> PreparedBench {
    bench_pop_round(10_000)
}

fn bench_pop_round_100k() -> PreparedBench {
    bench_pop_round(100_000)
}

/// One full 100-round campaign: 40 plain rounds, 30 with 20%/30%
/// churn, 30 with churn plus an α=0.5 Dirichlet re-partition — no
/// adversary probes, so the record isolates the engine's per-round
/// bookkeeping over the cohort round. The dataset is built once and
/// shared; each iteration runs a fresh campaign, so every iteration
/// is bit-identical work.
fn bench_campaign_100r() -> PreparedBench {
    let data = cifar_like_with(3, 8, 8, 3);
    let d = data.feature_dim();
    PreparedBench {
        throughput: Some((100.0, "round/s")),
        run: Box::new(move || {
            let spec: CampaignSpec =
                "campaign:40;30+leave=0.2+join=0.3;30+leave=0.1+join=0.3+alpha=0.5"
                    .parse()
                    .expect("campaign bench spec parses");
            let mut setup = CampaignSetup::new(
                data.clone(),
                16,
                oasis_campaign::linear_relu_factory(d, 12, 3, 12),
            );
            setup.seed = 14;
            setup.partition_seed = 13;
            setup.eval_every = 0;
            let mut campaign =
                CampaignRunner::new(spec, setup).expect("campaign bench setup builds");
            campaign.run().expect("campaign bench run");
            std::hint::black_box(campaign.records().len());
        }),
    }
}

/// One bench's scaling datapoint, derived from a scale suite's
/// `<base>_t1` / `<base>_t<N>` medians.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalePoint {
    /// Bench base name (e.g. `fl_round_raw`).
    pub base: String,
    /// Worker threads of the multi-threaded record.
    pub threads: usize,
    /// Serial (`_t1`) median, ns.
    pub t1_ns: u64,
    /// Multi-threaded (`_t<threads>`) median, ns.
    pub tn_ns: u64,
}

impl ScalePoint {
    /// Serial time over parallel time — > 1 means threads helped.
    pub fn speedup(&self) -> f64 {
        self.t1_ns as f64 / self.tn_ns.max(1) as f64
    }

    /// Speedup normalized by thread count (1.0 = perfect scaling).
    pub fn efficiency(&self) -> f64 {
        self.speedup() / self.threads as f64
    }
}

/// Extracts every `_t1`/`_tN` pair from a scale-suite run, in record
/// order. Records without a `_t1` sibling are skipped.
pub fn scale_points(suite: &BenchSuite) -> Vec<ScalePoint> {
    let mut points = Vec::new();
    for rec in &suite.results {
        let Some((base, tn)) = rec.name.rsplit_once("_t") else {
            continue;
        };
        let Ok(threads) = tn.parse::<usize>() else {
            continue;
        };
        if threads <= 1 {
            continue;
        }
        let Some(t1) = suite.get(&format!("{base}_t1")) else {
            continue;
        };
        points.push(ScalePoint {
            base: base.to_string(),
            threads,
            t1_ns: t1.median_ns,
            tn_ns: rec.median_ns,
        });
    }
    points
}

/// Outcome of the parallel-efficiency gate.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleReport {
    /// Every `_t1`/`_tN` pair found, in record order.
    pub points: Vec<ScalePoint>,
    /// True when any pair at `at_threads` fell below `min_speedup`.
    pub failed: bool,
}

/// Gates a scale-suite run on parallel efficiency: every bench's
/// `_t<at_threads>` median must be at least `min_speedup` times
/// faster than its `_t1` median. `min_speedup = 1.0` asserts the old
/// failure mode is gone — multi-threaded must never be *slower* than
/// serial on the same machine.
///
/// # Errors
///
/// Returns a message when the suite contains no pair at `at_threads`
/// — the gate would be vacuous.
pub fn scale_gate(
    suite: &BenchSuite,
    at_threads: usize,
    min_speedup: f64,
) -> Result<ScaleReport, String> {
    let points = scale_points(suite);
    if !points.iter().any(|p| p.threads == at_threads) {
        return Err(format!(
            "suite `{}` has no _t1/_t{at_threads} pairs to gate on",
            suite.suite
        ));
    }
    let failed = points
        .iter()
        .any(|p| p.threads == at_threads && p.speedup() < min_speedup);
    Ok(ScaleReport { points, failed })
}

/// One bench's lane-scaling datapoint, derived from a core suite's
/// `<base>_scalar` / `<base>_simd` medians.
#[derive(Debug, Clone, PartialEq)]
pub struct SimdPoint {
    /// Bench base name (e.g. `matmul_nt_linear`).
    pub base: String,
    /// Scalar-reference (`_scalar`) median, ns.
    pub scalar_ns: u64,
    /// Best-backend (`_simd`) median, ns.
    pub simd_ns: u64,
}

impl SimdPoint {
    /// Scalar time over vector time — > 1 means lanes helped.
    pub fn speedup(&self) -> f64 {
        self.scalar_ns as f64 / self.simd_ns.max(1) as f64
    }
}

/// Extracts every `_scalar`/`_simd` pair from a suite run, in record
/// order of the `_simd` records. Records without a `_scalar` sibling
/// are skipped.
pub fn simd_points(suite: &BenchSuite) -> Vec<SimdPoint> {
    let mut points = Vec::new();
    for rec in &suite.results {
        let Some(base) = rec.name.strip_suffix("_simd") else {
            continue;
        };
        let Some(scalar) = suite.get(&format!("{base}_scalar")) else {
            continue;
        };
        points.push(SimdPoint {
            base: base.to_string(),
            scalar_ns: scalar.median_ns,
            simd_ns: rec.median_ns,
        });
    }
    points
}

/// Outcome of the lane-efficiency gate.
#[derive(Debug, Clone, PartialEq)]
pub struct SimdReport {
    /// Every `_scalar`/`_simd` pair found, in record order.
    pub points: Vec<SimdPoint>,
    /// True when any pair fell below `min_speedup`.
    pub failed: bool,
}

/// Gates a suite run on lane efficiency: every bench's `_simd` median
/// must be at least `min_speedup` times faster than its `_scalar`
/// median *within the same run*, so the gate is machine-relative.
/// On hardware where the best detected backend is scalar itself the
/// pairs time identical code and the gate degenerates to a noise
/// check — which is why the margin should sit below 1.0.
///
/// # Errors
///
/// Returns a message when the suite contains no `_scalar`/`_simd`
/// pairs — the gate would be vacuous.
pub fn simd_gate(suite: &BenchSuite, min_speedup: f64) -> Result<SimdReport, String> {
    let points = simd_points(suite);
    if points.is_empty() {
        return Err(format!(
            "suite `{}` has no _scalar/_simd pairs to gate on",
            suite.suite
        ));
    }
    let failed = points.iter().any(|p| p.speedup() < min_speedup);
    Ok(SimdReport { points, failed })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(suite: Vec<BenchDef>) -> Vec<&'static str> {
        suite.into_iter().map(|b| b.name).collect()
    }

    #[test]
    fn suite_listing_is_deterministic_and_stable() {
        let core = names(core_suite());
        assert_eq!(
            core,
            vec![
                "matmul_256",
                "matmul_conv_fwd",
                "matmul_nt_conv_gw",
                "matmul_tn_conv_gx",
                "matmul_nt_linear",
                "conv2d_forward_b8",
                "conv2d_backward_b8",
                "conv2d_forward_b32",
                "matmul_256_simd",
                "matmul_256_scalar",
                "matmul_nt_linear_simd",
                "matmul_nt_linear_scalar",
                "codec_q8_encode_simd",
                "codec_q8_encode_scalar",
                "codec_q8_decode_simd",
                "codec_q8_decode_scalar",
                "psnr_simd",
                "psnr_scalar",
            ]
        );
        assert_eq!(core, names(core_suite()), "listing must be reproducible");
        let fl = names(fl_suite());
        assert_eq!(
            fl,
            vec![
                "fl_round_raw",
                "fl_round_raw_telem",
                "fl_round_q8",
                "codec_raw_encode",
                "codec_raw_decode",
                "codec_q8_encode",
                "codec_q8_decode",
                "rtf_invert_128",
                "defense_stack",
                "attack_dp_per_sample",
                "attack_calibrate_cah",
            ]
        );
        let scale = names(scale_suite());
        assert_eq!(
            scale,
            vec![
                "fl_round_raw_t1",
                "fl_round_raw_t2",
                "fl_round_raw_t4",
                "conv2d_forward_b32_t1",
                "conv2d_forward_b32_t2",
                "conv2d_forward_b32_t4",
                "matmul_256_t1",
                "matmul_256_t2",
                "matmul_256_t4",
                "rtf_invert_128_t1",
                "rtf_invert_128_t2",
                "rtf_invert_128_t4",
            ]
        );
        let pop = names(pop_suite());
        assert_eq!(pop, vec!["pop_round_1k", "pop_round_10k", "pop_round_100k"]);
        let campaign = names(campaign_suite());
        assert_eq!(campaign, vec!["campaign_100r"]);
        assert!(suite("core").is_some());
        assert!(suite("fl").is_some());
        assert!(suite("scale").is_some());
        assert!(suite("pop").is_some());
        assert!(suite("campaign").is_some());
        assert!(suite("nope").is_none());
        assert_eq!(SUITE_NAMES.len(), 5);
    }

    #[test]
    fn pop_suite_memory_stays_bounded() {
        // The bench fixture's promise: on the raw zero-copy wire the
        // server-side update memory is exactly one model buffer (the
        // accumulator — frames fold as borrowed views, so no decode
        // scratch is ever materialized), independent of population. One round at the smallest population suffices —
        // the aggregator's footprint has no population term at all.
        let (factory, pop) = pop_fixture(1_000);
        let n = oasis_nn::param_count(&mut factory());
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

    fn scale_suite_of(medians: &[(&str, u64)]) -> BenchSuite {
        BenchSuite {
            schema_version: SCHEMA_VERSION,
            suite: "scale".into(),
            threads: 4,
            simd: "scalar".into(),
            quick: true,
            results: medians
                .iter()
                .map(|&(name, median_ns)| BenchRecord {
                    name: name.into(),
                    iters: 3,
                    median_ns,
                    min_ns: median_ns,
                    throughput: None,
                    throughput_unit: None,
                })
                .collect(),
        }
    }

    #[test]
    fn scale_points_derive_speedup_and_efficiency() {
        let suite = scale_suite_of(&[
            ("fl_round_raw_t1", 4000),
            ("fl_round_raw_t2", 2000),
            ("fl_round_raw_t4", 1000),
            ("orphan_t4", 10), // no _t1 sibling: skipped
            ("not_a_pair", 10),
        ]);
        let points = scale_points(&suite);
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].base, "fl_round_raw");
        assert_eq!(points[0].threads, 2);
        assert!((points[0].speedup() - 2.0).abs() < 1e-9);
        assert!((points[0].efficiency() - 1.0).abs() < 1e-9);
        assert_eq!(points[1].threads, 4);
        assert!((points[1].speedup() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn scale_gate_passes_speedups_and_fails_slowdowns() {
        let good = scale_suite_of(&[
            ("fl_round_raw_t1", 4000),
            ("fl_round_raw_t4", 1500),
            ("matmul_256_t1", 1000),
            ("matmul_256_t4", 900),
        ]);
        let report = scale_gate(&good, 4, 1.0).expect("gate applies");
        assert!(!report.failed);

        // The pre-pool failure mode: 4 threads slower than 1.
        let bad = scale_suite_of(&[("fl_round_raw_t1", 4000), ("fl_round_raw_t4", 5000)]);
        let report = scale_gate(&bad, 4, 1.0).expect("gate applies");
        assert!(report.failed);

        // A stricter bar: ≥2× at 4 threads.
        let report = scale_gate(&good, 4, 2.0).expect("gate applies");
        assert!(report.failed, "matmul_256 at 1.11x misses a 2x bar");

        // No pairs at the requested width ⇒ the gate refuses to be
        // vacuously green.
        assert!(scale_gate(&good, 8, 1.0).is_err());
    }

    #[test]
    fn simd_points_pair_scalar_and_simd_records() {
        let suite = scale_suite_of(&[
            ("matmul_nt_linear_simd", 1000),
            ("matmul_nt_linear_scalar", 5000),
            ("psnr_simd", 10), // no _scalar sibling: skipped
            ("matmul_256", 10),
        ]);
        let points = simd_points(&suite);
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].base, "matmul_nt_linear");
        assert_eq!(points[0].scalar_ns, 5000);
        assert_eq!(points[0].simd_ns, 1000);
        assert!((points[0].speedup() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn simd_gate_fails_when_lanes_lose_to_scalar() {
        let good = scale_suite_of(&[
            ("matmul_256_simd", 1000),
            ("matmul_256_scalar", 4000),
            ("psnr_simd", 980),
            ("psnr_scalar", 1000), // 1.02x: scalar-best hardware noise band
        ]);
        let report = simd_gate(&good, 0.9).expect("gate applies");
        assert!(!report.failed);
        assert_eq!(report.points.len(), 2);

        // A vector backend slower than the scalar reference is a
        // dispatch or kernel regression, not noise.
        let bad = scale_suite_of(&[
            ("codec_q8_encode_simd", 2000),
            ("codec_q8_encode_scalar", 1000),
        ]);
        let report = simd_gate(&bad, 0.9).expect("gate applies");
        assert!(report.failed);

        // A stricter bar: the 1.02x pair misses 2x.
        assert!(simd_gate(&good, 2.0).expect("gate applies").failed);

        // No pairs ⇒ the gate refuses to be vacuously green.
        assert!(simd_gate(&scale_suite_of(&[("matmul_256", 10)]), 0.9).is_err());
    }

    #[test]
    fn baselines_without_simd_field_still_parse() {
        // Committed BENCH_*.json files predating the `simd` field must
        // stay diffable without a schema bump.
        let json = r#"{
            "schema_version": 1,
            "suite": "core",
            "threads": 1,
            "quick": false,
            "results": []
        }"#;
        let suite: BenchSuite = serde_json::from_str(json).expect("old baseline parses");
        assert_eq!(suite.simd, "");
    }

    #[test]
    fn filter_selects_expected_subset() {
        assert_eq!(
            names(apply_filter(core_suite(), "conv2d")),
            vec![
                "conv2d_forward_b8",
                "conv2d_backward_b8",
                "conv2d_forward_b32"
            ]
        );
        assert_eq!(
            names(apply_filter(fl_suite(), "q8")),
            vec!["fl_round_q8", "codec_q8_encode", "codec_q8_decode"]
        );
        assert!(apply_filter(core_suite(), "no-such-bench").is_empty());
    }

    #[test]
    fn schema_roundtrips_through_serde_json() {
        let suite = BenchSuite {
            schema_version: SCHEMA_VERSION,
            suite: "core".into(),
            threads: 4,
            simd: "avx2".into(),
            quick: true,
            results: vec![
                BenchRecord {
                    name: "matmul_256".into(),
                    iters: 17,
                    median_ns: 1_234_567,
                    min_ns: 1_200_000,
                    throughput: Some(2.5e9),
                    throughput_unit: Some("flop/s".into()),
                },
                BenchRecord {
                    name: "unitless".into(),
                    iters: 3,
                    median_ns: 10,
                    min_ns: 9,
                    throughput: None,
                    throughput_unit: None,
                },
            ],
        };
        let json = serde_json::to_string_pretty(&suite).expect("serialize");
        let back: BenchSuite = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, suite);
    }

    #[test]
    fn tiny_bench_produces_sane_record() {
        let prepared = PreparedBench {
            throughput: Some((100.0, "item/s")),
            run: Box::new(|| {
                std::hint::black_box((0..100u64).sum::<u64>());
            }),
        };
        let rec = run_prepared("tiny", prepared, true);
        assert_eq!(rec.name, "tiny");
        assert!(rec.iters >= 3);
        assert!(rec.min_ns <= rec.median_ns);
        assert!(rec.throughput.unwrap() > 0.0);
        assert_eq!(rec.throughput_unit.as_deref(), Some("item/s"));
    }

    #[test]
    fn compare_classifies_against_thresholds() {
        let rec = |name: &str, median: u64| BenchRecord {
            name: name.into(),
            iters: 3,
            median_ns: median,
            min_ns: median,
            throughput: None,
            throughput_unit: None,
        };
        let suite_of = |results: Vec<BenchRecord>| BenchSuite {
            schema_version: SCHEMA_VERSION,
            suite: "core".into(),
            threads: 1,
            simd: "scalar".into(),
            quick: true,
            results,
        };
        let baseline = suite_of(vec![
            rec("steady", 1000),
            rec("warned", 1000),
            rec("failed", 1000),
            rec("gone", 1000),
        ]);
        let current = suite_of(vec![
            rec("steady", 1050),
            rec("warned", 1200),
            rec("failed", 1500),
            rec("brand_new", 10),
        ]);
        let report = compare_suites(&baseline, &current, WARN_PCT, FAIL_PCT).expect("comparable");
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
    fn compare_rejects_mismatched_runs() {
        let a = BenchSuite {
            schema_version: SCHEMA_VERSION,
            suite: "core".into(),
            threads: 1,
            simd: "scalar".into(),
            quick: true,
            results: vec![],
        };
        let mut b = a.clone();
        b.suite = "fl".into();
        assert!(compare_suites(&a, &b, WARN_PCT, FAIL_PCT).is_err());
        let mut c = a.clone();
        c.schema_version = SCHEMA_VERSION + 1;
        assert!(compare_suites(&a, &c, WARN_PCT, FAIL_PCT).is_err());
    }

    #[test]
    fn improvements_never_warn() {
        let rec = |median: u64| BenchRecord {
            name: "fast".into(),
            iters: 3,
            median_ns: median,
            min_ns: median,
            throughput: None,
            throughput_unit: None,
        };
        let mk = |median| BenchSuite {
            schema_version: SCHEMA_VERSION,
            suite: "fl".into(),
            threads: 1,
            simd: "scalar".into(),
            quick: false,
            results: vec![rec(median)],
        };
        let report = compare_suites(&mk(1000), &mk(400), WARN_PCT, FAIL_PCT).expect("comparable");
        assert!(!report.warned && !report.failed);
        assert!(report.deltas[0].pct < 0.0);
    }
}
