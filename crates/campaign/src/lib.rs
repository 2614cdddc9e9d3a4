//! # oasis-campaign
//!
//! Long-horizon federation campaigns: multi-phase schedules of
//! **churn**, **drift**, and **adaptive adversaries** driven over an
//! [`oasis_population::CohortRunner`].
//!
//! Single-shot trials (one attack, one defense, one round) answer
//! "can this gradient leak?" — the scenario engine's job. Campaigns
//! answer the deployment question the paper's threat model implies:
//! what happens over *hundreds* of rounds while clients come and go,
//! the data distribution drifts, the network degrades, and the
//! adversary switches attack families mid-stream?
//!
//! * [`CampaignSpec`] — the declarative `campaign:` grammar: ordered
//!   phases, each a round count plus `+join=`/`+leave=` churn rates,
//!   `+alpha=` Dirichlet drift, `+net=` conditions, and an
//!   `+attack=a|b` adversary program (`FromStr` ⇄ `Display`,
//!   proptested).
//! * [`CampaignRunner`] — the engine: trains each round under the
//!   exact [`oasis_population::CohortScheduler::round_rng`] stream
//!   (a one-phase campaign is bit-identical to
//!   [`oasis_population::CohortRunner::run`]), applies dynamics on
//!   disjoint salted streams, and probes the adversary against the
//!   one [`oasis_fl::DefenseStack`] every client runs, fixed at setup
//!   by [`CampaignSetup::defense`].
//! * [`TrajectoryReport`] — one serde record per round (PSNR, leak
//!   rate, accuracy proxy, bytes on wire, delivered/dropped/churned
//!   counts, telemetry phase timings), written as schema-versioned
//!   JSONL and checked by [`validate_trajectory`].
//!
//! ```
//! use oasis_campaign::{linear_relu_factory, CampaignRunner, CampaignSetup, CampaignSpec};
//! use oasis_data::cifar_like_with;
//!
//! let spec: CampaignSpec = "campaign:2;2+leave=0.3+join=0.5".parse().unwrap();
//! let dataset = cifar_like_with(3, 8, 8, 3);
//! let setup = CampaignSetup::new(dataset, 6, linear_relu_factory(192, 12, 3, 11));
//! let mut campaign = CampaignRunner::new(spec, setup).unwrap();
//! campaign.run().unwrap();
//! assert_eq!(campaign.records().len(), 4);
//! ```

#![warn(missing_docs)]

mod engine;
mod spec;
mod trajectory;

pub use engine::{
    adversary_seed, churn_rng, drift_rng, linear_relu_factory, AdversaryEval, CampaignError,
    CampaignRunner, CampaignSetup,
};
pub use spec::{CampaignSpec, PhaseSpec};
pub use trajectory::{
    validate_trajectory, TrajectoryRecord, TrajectoryReport, TrajectorySummary,
    TRAJECTORY_SCHEMA_VERSION,
};
