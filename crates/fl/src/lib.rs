//! # oasis-fl
//!
//! A horizontal federated-learning protocol simulation (paper §II-A)
//! whose clients defend against **actively dishonest servers**
//! (paper §III-A threat model).
//!
//! The protocol is the iterative scheme of paper Eq. 1: each round the
//! server broadcasts the global weights `w_t`, a subset of clients
//! computes full-batch gradients `G_j = ∇ L(D_j, w_t)` on their local
//! data, and the server averages the updates and steps
//! `w_{t+1} = w_t − η·Ḡ`.
//!
//! The client's [`DefenseStack`] is the hook that makes this crate the
//! substrate for the OASIS evaluation: each [`Defense`] may transform
//! the training batch *before* gradients are computed (how the OASIS
//! defense augments `D` into `D′`) and clip or perturb the flattened
//! update *before* it is uploaded (how DP-SGD clips and noises).
//! [`DefenseStack::local_step`] is the one defended training step: the
//! FL client, centralized training, the attack harness's exact-gradient
//! path and the DP-SGD baseline all run it. The server side has no
//! hook: the attacks in `oasis-attacks` build their malicious model
//! through `ActiveAttack::build_model` in their own evaluation
//! harness, not on the round (ROADMAP item 2).
//!
//! Updates travel over a real wire: each selected client's update is
//! encoded with the server's [`WireConfig`] codec (`oasis_wire`), a
//! deterministic simulated transport delivers, delays, or drops it,
//! and the server aggregates **only what arrived**, weighted by the
//! examples each client contributed. The default wire (raw codec,
//! ideal network) is lossless.
//!
//! This crate holds the protocol's parts: clients, their defenses,
//! and the [`FlServer`] state (global model, config, wire, round).
//! The round that composes them — cohort sampling, delivery
//! planning, streaming FedAvg, the server step — is
//! `oasis_population::CohortRunner`, which runs over an
//! `oasis_population::Population` of [`FlClient`]s. Splitting a
//! dataset into client shards is `Population`'s job too; each shard
//! is a zero-copy window of one shared sample pool:
//!
//! ```
//! use oasis_fl::{DefenseStack, FlConfig, FlServer};
//! use oasis_data::cifar_like_with;
//! use oasis_nn::{Linear, Relu, Sequential};
//! use oasis_population::{CohortRunner, Population};
//! use rand::{rngs::StdRng, SeedableRng};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), oasis_fl::FlError> {
//! let data = cifar_like_with(4, 6, 8, 0); // tiny: 4 classes, 8×8
//! let d = data.feature_dim();
//! let factory: oasis_fl::ModelFactory = Arc::new(move || {
//!     let mut rng = StdRng::seed_from_u64(42);
//!     let mut m = Sequential::new();
//!     m.push(Linear::new(d, 32, &mut rng));
//!     m.push(Relu::new());
//!     m.push(Linear::new(32, 4, &mut rng));
//!     m
//! });
//! let clients = Population::iid(&data, 3, Arc::new(DefenseStack::identity()), &mut StdRng::seed_from_u64(1));
//! let server = FlServer::new(factory, FlConfig::default())?;
//! let mut runner = CohortRunner::new(server, clients);
//! let report = runner.run_round(&mut StdRng::seed_from_u64(2))?;
//! assert_eq!(report.participants, 3);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod client;
mod config;
mod defense;
mod error;
mod server;
mod timings;
mod training;

pub use client::{ClientUpdate, FlClient, ModelFactory};
pub use config::FlConfig;
pub use defense::{ClipStage, Defense, DefenseStack, DpStage, LocalStep};
pub use error::FlError;
pub use server::{FlServer, RoundReport, WireConfig};
pub use timings::RoundTimings;
pub use training::{evaluate_accuracy, train_centralized, TrainReport};

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, FlError>;
