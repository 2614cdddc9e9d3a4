//! # oasis-attacks
//!
//! The adversary side of the OASIS evaluation: the two state-of-the-art
//! **active reconstruction attacks** the paper defends against, the
//! linear-model gradient inversion, the gradient-inversion primitive
//! they share (paper Eq. 6), baseline defenses (ATSPrivacy-style
//! transform replacement, DP-SGD noise), and the evaluation harness
//! that scores reconstructions with PSNR matching.
//!
//! ## Attacks
//!
//! * [`RtfAttack`] — *Robbing the Fed* (Fowl et al., ICLR '22): an
//!   imprint module whose rows measure mean pixel intensity and whose
//!   biases sit at CDF quantiles; adjacent-bin gradient differences
//!   isolate single samples.
//! * [`CahAttack`] — *Curious Abandon Honesty* (Boenisch et al.,
//!   EuroS&P '23): trap weights with a calibrated activation
//!   probability; neurons activated by exactly one sample invert
//!   perfectly.
//! * [`QbiAttack`] — *Quantile-based bias initialization* (Krauß et
//!   al., 2024): plain Gaussian rows with biases at the `1 − 1/B`
//!   response quantile; no optimization loop, cheap to re-tune
//!   between rounds.
//! * [`LinearModelAttack`] — gradient inversion on a single-layer
//!   softmax model with unique labels (paper §IV-D).
//!
//! All four rest on one primitive: if a neuron's
//! `(∂L/∂W_i, ∂L/∂b_i)` is dominated by one sample, then
//! `∂L/∂W_i ÷ ∂L/∂b_i` *is* that sample (Eq. 6) — see [`invert_neuron`].
//! They differ only in the first layer they broadcast
//! ([`ActiveAttack::build_model`]) and in how one gradient row is
//! inverted ([`ActiveAttack::invert`]: RTF divides adjacent-bin
//! differences, the linear attack min-max normalizes). One sweep,
//! [`reconstruct`], runs that rule over every row, assembles images
//! and dedupes them for all of them.

#![warn(missing_docs)]

mod ats;
mod cah;
mod calibrate;
mod dpsgd;
mod error;
mod evaluate;
mod gaussian;
mod inversion;
mod linear;
mod malicious;
mod qbi;
mod rtf;

pub use ats::AtsDefense;
pub use cah::{CahAttack, DEFAULT_ACTIVATION_TARGET};
pub use dpsgd::{train_linear_with_dp, DpConfig};
pub use error::AttackError;
pub use evaluate::{
    reconstruct, run_attack, run_attack_over_wire, ActiveAttack, AttackOutcome, WireTrace,
};
pub use gaussian::{normal_cdf, probit};
pub use inversion::{dedupe_images, invert_neuron, invert_neuron_difference};
pub use linear::LinearModelAttack;
pub use malicious::attacked_model;
pub use qbi::{QbiAttack, DEFAULT_QBI_BATCH};
pub use rtf::RtfAttack;

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, AttackError>;
