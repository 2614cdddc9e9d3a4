//! Workspace umbrella crate for the OASIS reproduction.
//!
//! This crate exists to host the repository-level examples
//! (`examples/`) and integration tests (`tests/`) that span the member
//! crates. The actual library surface lives in the member crates:
//!
//! * [`oasis`] — the defense (the paper's contribution)
//! * [`oasis_attacks`] — RTF / CAH / QBI / linear-model attacks and baselines
//! * [`oasis_fl`] — the federated-learning protocol substrate
//! * [`oasis_campaign`] — multi-phase campaigns with churn, drift,
//!   and adaptive adversaries over the cohort runner
//! * [`oasis_wire`] — serialization, update codecs, simulated transport
//! * [`oasis_nn`] — manual-backprop neural networks
//! * [`oasis_tensor`], [`oasis_image`], [`oasis_augment`],
//!   [`oasis_data`], [`oasis_metrics`] — supporting substrates
//!
//! See `README.md` for a quickstart, the workspace layout and the
//! performance notes, and `ROADMAP.md` for the open work.

pub use oasis;
pub use oasis_attacks;
pub use oasis_augment;
pub use oasis_campaign;
pub use oasis_data;
pub use oasis_fl;
pub use oasis_image;
pub use oasis_metrics;
pub use oasis_nn;
pub use oasis_tensor;
pub use oasis_wire;
