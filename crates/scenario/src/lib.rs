//! # oasis-scenario
//!
//! The declarative experiment engine of the OASIS reproduction:
//! **every attack × defense × workload experiment is a value**, not a
//! hand-wired binary.
//!
//! The paper's evaluation is a grid — {RTF, CAH, linear-model}
//! attacks × {undefended, OASIS policies, ATSPrivacy, DP-SGD}
//! defenses × {ImageNette-like, CIFAR100-like} workloads. This crate
//! names every cell with compact spec strings
//! ([`AttackSpec`] / [`DefenseSpec`] / [`WorkloadSpec`], all
//! round-tripping through `FromStr` ⇄ `Display`). Attack and defense
//! specs are closed, typed enums whose parse is their validation;
//! defenses **stack** with `+` (`oasis:MR+dp:1,0.01` builds one
//! [`oasis_fl::DefenseStack`] applying the OASIS batch stage then
//! DP-SGD's update stage). The engine assembles a cell
//! with [`Scenario::builder`], executes trials in parallel, and
//! returns a [`ScenarioReport`] carrying per-trial matched PSNRs,
//! leak rates, wall clock, and the full provenance needed to
//! reproduce the numbers — serializable to JSON under `out/`.
//!
//! ```
//! use oasis_scenario::{Scale, Scenario};
//!
//! let report = Scenario::builder()
//!     .attack("rtf:64".parse().unwrap())
//!     .defense("oasis:MR".parse().unwrap())
//!     .workload("cifar100".parse().unwrap())
//!     .batch_size(4)
//!     .trials(1)
//!     .scale(Scale::Quick)
//!     .seed(1)
//!     .calibration(32)
//!     .build()
//!     .unwrap()
//!     .run()
//!     .unwrap();
//! println!("{report}");
//! assert!(report.summary.count > 0);
//! ```
//!
//! A grid runs through one [`Sweep`], which builds each dataset,
//! calibration set and calibrated attack once and shares it with every
//! later cell that asks for the same one. Each is keyed by all the
//! inputs it is a pure function of (the dataset by workload, scale,
//! capacity and dataset seed; the calibration images by workload,
//! scale and count, drawn at one fixed seed; the attack by its spec,
//! calibration key and class count), so sharing is bit-exact.
//! [`Scenario::run`] is a sweep of one.
//!
//! The `scenario` binary in `oasis-bench` exposes the same engine on
//! the command line, including sweeps over comma-separated spec
//! lists; the `figN_*` binaries are thin loops over this API.

#![warn(missing_docs)]

/// Serializes a spec type as its `Display` string and reads it back
/// through `FromStr`; `$what` names the type in the error for a
/// non-string value.
macro_rules! string_serde {
    ($ty:ty, $what:literal) => {
        impl serde::Serialize for $ty {
            fn to_value(&self) -> serde::Value {
                serde::Value::Str(self.to_string())
            }
        }

        impl serde::Deserialize for $ty {
            fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
                value
                    .as_str()
                    .ok_or_else(|| serde::Error::expected($what, value))?
                    .parse()
                    .map_err(|e: crate::ScenarioError| serde::Error::msg(e.to_string()))
            }
        }
    };
}

mod scale;
mod scenario;
mod spec;

pub use scale::Scale;
pub use scenario::{
    calibration_images, Sampling, Scenario, ScenarioBuilder, ScenarioReport, Sweep, TrialReport,
    LEAK_THRESHOLD_DB,
};
pub use spec::{
    spec_catalog, AttackSpec, DefenseSpec, WorkloadSpec, CAH_WEIGHT_SEED, QBI_WEIGHT_SEED,
};

// The wire dimensions of a scenario — re-exported so spec consumers
// need only this crate.
pub use oasis_wire::{CodecSpec, NetSpec};

// The population dimensions — same story.
pub use oasis_population::{PopulationSpec, SampleSpec};

use std::fmt;
use std::path::PathBuf;

/// Errors produced while parsing specs or executing scenarios.
#[derive(Debug)]
pub enum ScenarioError {
    /// A spec string or scenario configuration was invalid.
    BadSpec(String),
    /// An attacked round failed.
    Attack(oasis_attacks::AttackError),
    /// The wire layer rejected a codec or net configuration.
    Wire(oasis_wire::WireError),
    /// Writing an artifact failed.
    Io(std::io::Error),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::BadSpec(msg) => write!(f, "bad scenario spec: {msg}"),
            ScenarioError::Attack(e) => write!(f, "attack execution failed: {e}"),
            ScenarioError::Wire(e) => write!(f, "wire layer failed: {e}"),
            ScenarioError::Io(e) => write!(f, "artifact I/O failed: {e}"),
        }
    }
}

impl From<oasis_attacks::AttackError> for ScenarioError {
    fn from(e: oasis_attacks::AttackError) -> Self {
        ScenarioError::Attack(e)
    }
}

impl From<oasis_wire::WireError> for ScenarioError {
    fn from(e: oasis_wire::WireError) -> Self {
        ScenarioError::Wire(e)
    }
}

impl From<std::io::Error> for ScenarioError {
    fn from(e: std::io::Error) -> Self {
        ScenarioError::Io(e)
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::BadSpec(_) => None,
            ScenarioError::Attack(e) => Some(e),
            ScenarioError::Wire(e) => Some(e),
            ScenarioError::Io(e) => Some(e),
        }
    }
}

/// Returns `<artifact dir>/name`, creating the directory if needed.
///
/// The artifact directory is `out/` by default; set the
/// `OASIS_OUT_DIR` environment variable to redirect artifacts (CI,
/// parallel sweeps).
///
/// # Panics
///
/// Panics if the directory cannot be created.
pub fn out_path(name: &str) -> PathBuf {
    let dir = std::env::var_os("OASIS_OUT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("out"));
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| panic!("create artifact dir {}: {e}", dir.display()));
    dir.join(name)
}
