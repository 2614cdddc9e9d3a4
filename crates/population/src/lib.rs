//! # oasis-population
//!
//! Population-scale federated rounds: the machinery that lets the
//! OASIS evaluation run cohorts sampled from 10⁵–10⁶ clients with a
//! server footprint that does not grow with the population.
//!
//! Three pieces compose into a round:
//!
//! * [`Population`] — the deployment as data: one
//!   [`FlClient`](oasis_fl::FlClient) per client, each training on a
//!   zero-copy window of one shared sample pool, so an idle client
//!   costs 72 bytes and no sample. It is the workspace's partitioner
//!   ([`Population::iid`], [`Population::dirichlet`]), and hand-built
//!   client lists (say, a federation that mixes defended and
//!   undefended clients) convert into it.
//! * [`CohortScheduler`] — seeded deterministic sampling of the K
//!   participants of each round. The per-round rng stream is keyed by
//!   `(seed, round)`, so any round is reproducible in isolation and
//!   at any thread count.
//! * [`StreamingAggregator`] — folds each delivered update into a
//!   running `O(model)` accumulator as frames come off the wire, so
//!   server memory is `O(model + cohort_scratch)` regardless of
//!   population.
//!
//! [`CohortRunner`] ties them together and drives an
//! [`FlServer`](oasis_fl::FlServer) through rounds. It is the
//! workspace's one round engine, and the round is bit-identical at
//! any thread count.
//!
//! ```
//! use oasis_population::{CohortRunner, Population};
//! use oasis_fl::{DefenseStack, FlConfig, FlServer};
//! use oasis_data::cifar_like_with;
//! use oasis_nn::{Linear, Sequential};
//! use rand::{rngs::StdRng, SeedableRng};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), oasis_fl::FlError> {
//! let data = cifar_like_with(4, 6, 8, 0);
//! let d = data.feature_dim();
//! let factory: oasis_fl::ModelFactory = Arc::new(move || {
//!     let mut rng = StdRng::seed_from_u64(42);
//!     let mut m = Sequential::new();
//!     m.push(Linear::new(d, 4, &mut rng));
//!     m
//! });
//! // 1000 clients share one 24-sample pool: about 72 KB of clients.
//! let pop = Population::iid(
//!     &data,
//!     1000,
//!     Arc::new(DefenseStack::identity()),
//!     &mut StdRng::seed_from_u64(1),
//! );
//! let server = FlServer::new(factory, FlConfig { clients_per_round: 8, ..FlConfig::default() })?;
//! let mut runner = CohortRunner::new(server, pop);
//! let reports = runner.run(3, 2)?;
//! assert_eq!(reports.len(), 3);
//! assert_eq!(reports[0].round_report.cohort, 8);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod aggregate;
mod population;
mod round;
mod scheduler;
mod spec;

pub use aggregate::StreamingAggregator;
pub use population::{Population, MAX_DIRICHLET_ALPHA};
pub use round::{CohortReport, CohortRunner};
pub use scheduler::CohortScheduler;
pub use spec::{PopulationSpec, SampleSpec};
