//! Population figure: what deployment scale does (and does not)
//! change. Two tables at a fixed cohort size:
//!
//! 1. **Attack surface vs population** — the dishonest server still
//!    observes one victim per attacked round, so reconstruction PSNR
//!    and leak rate are flat in the population axis; only the wire
//!    traffic grows (cohort peers ride along). `population = 0` is
//!    the legacy single-victim wire for reference.
//! 2. **Server throughput vs population** — rounds/s of the
//!    streaming [`CohortRunner`] as the population grows 1 k → 100 k
//!    with the cohort pinned (the median of 40 rounds, taken in turn
//!    across the populations after one warm-up round each, so the
//!    rows of one run share the host's phases), plus what a round
//!    holds by construction: one `f32` accumulator of the model's
//!    size, and one raw frame per concurrent compute slot (the raw
//!    wire folds borrowed frame views, so no decode copy materializes).
//!
//! ```text
//! cargo run --release -p oasis-bench --bin fig_population -- [--quick | --full]
//! ```

use std::sync::Arc;
use std::time::Instant;

use oasis_bench::{banner, AttackSpec, Scale, Scenario, Sweep, Workload};
use oasis_data::cifar_like_with;
use oasis_fl::{DefenseStack, FlConfig, FlServer, ModelFactory};
use oasis_nn::{param_count, Linear, Relu, Sequential};
use oasis_population::{CohortRunner, Population};
use oasis_tensor::parallel;
use oasis_wire::CodecSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let scale = Scale::from_args();
    banner(
        "Population",
        "attack surface and server throughput vs deployment scale",
        scale,
    );

    let cohort = 64usize;
    let populations: Vec<usize> = match scale {
        Scale::Quick => vec![0, 256, 1_024],
        Scale::Default => vec![0, 1_000, 10_000],
        Scale::Full => vec![0, 1_000, 10_000, 100_000],
    };

    println!(
        "\nRTF on {} (undefended, B=8, cohort {cohort}; population 0 = legacy wire):",
        Workload::Cifar100
    );
    println!(
        "{:>12} {:>10} {:>14} {:>12} {:>14}",
        "population", "cohort", "mean PSNR(dB)", "leak rate(%)", "bytes on wire"
    );
    let mut sweep = Sweep::default();
    for &population in &populations {
        let mut builder = Scenario::builder()
            .workload(Workload::Cifar100)
            .attack(AttackSpec::rtf(128))
            .batch_size(8)
            .scale(scale)
            .seed(7);
        if population > 0 {
            builder = builder.population(population).sample(cohort);
        }
        let cell = builder.build().expect("population scenario");
        let report = sweep.run(&cell).expect("population scenario run");
        println!(
            "{:>12} {:>10} {:>14.2} {:>12.1} {:>14}",
            population,
            if population > 0 {
                cohort.min(population)
            } else {
                1
            },
            report.mean_psnr(),
            report.leak_rate * 100.0,
            report.bytes_on_wire,
        );
    }

    // One untimed warm-up round per population (pool threads, first
    // touches of the model buffers), then timed rounds taken in turn
    // across the populations, so a slow phase of the host slows every
    // row alike, and each row reports its median round.
    let rounds = 40usize;
    println!(
        "\nStreaming cohort rounds (cohort {cohort}, raw wire, median of {rounds} rounds after a warm-up):"
    );
    println!(
        "{:>12} {:>10} {:>12} {:>16} {:>16}",
        "population", "rounds/s", "ms/round", "accum bytes", "frame bytes"
    );
    let mut rows: Vec<Row> = populations
        .iter()
        .filter(|&&population| population > 0) // the legacy wire has no population to sample
        .map(|&population| Row::new(population, cohort))
        .collect();
    for r in 0..=rounds {
        for row in &mut rows {
            row.round(r);
        }
    }
    for row in &mut rows {
        row.round_ms.sort_by(f64::total_cmp);
        let median_ms = row.round_ms[rounds / 2].max(1e-6);
        // Every cohort member is delivered on the ideal raw wire, and
        // the round computes them in waves as wide as the pool.
        let n = param_count(&(row.factory)());
        let wave = parallel::num_threads().min(cohort.min(row.population));
        println!(
            "{:>12} {:>10.2} {:>12.2} {:>16} {:>16}",
            row.population,
            1_000.0 / median_ms,
            median_ms,
            4 * n,
            wave.max(1) * CodecSpec::Raw.build().encoded_len(n),
        );
    }
    println!("\nExpected shape: PSNR and leak rate are flat across the population");
    println!("axis (the attack sees one victim either way) while bytes on wire");
    println!("scale with the cohort; rounds/s decays only with the O(population)");
    println!("selection shuffle, and the accumulator stays at one model buffer");
    println!("(raw frames fold as borrowed views) no matter how large the");
    println!("deployment grows.");
}

/// One population's streaming runner and what its rounds measured.
struct Row {
    population: usize,
    cohort: usize,
    factory: ModelFactory,
    runner: CohortRunner,
    /// Wall clock of every timed round (round 0 warms up untimed).
    round_ms: Vec<f64>,
}

impl Row {
    fn new(population: usize, cohort: usize) -> Row {
        let (factory, pop) = fixture(population);
        let runner = CohortRunner::new(server(&factory, cohort), pop);
        Row {
            population,
            cohort,
            factory,
            runner,
            round_ms: Vec::new(),
        }
    }

    /// Runs round `r` on a fresh server, so every round is the same
    /// work, and times it unless it is the warm-up round 0.
    fn round(&mut self, r: usize) {
        *self.runner.server_mut() = server(&self.factory, self.cohort);
        let start = Instant::now();
        self.runner
            .run_round(&mut StdRng::seed_from_u64(14 + r as u64))
            .expect("fig population round");
        if r > 0 {
            self.round_ms.push(start.elapsed().as_secs_f64() * 1_000.0);
        }
    }
}

fn server(factory: &ModelFactory, cohort: usize) -> FlServer {
    FlServer::new(
        Arc::clone(factory),
        FlConfig {
            clients_per_round: cohort,
            ..FlConfig::default()
        },
    )
    .expect("fig server")
}

/// The perf `pop` fixture's shape: a tiny linear model over the
/// shared pool, `population` single-sample clients.
fn fixture(population: usize) -> (ModelFactory, Population) {
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
