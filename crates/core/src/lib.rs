//! # oasis — Offsetting Active Reconstruction Attacks in Federated Learning
//!
//! A from-scratch reproduction of **OASIS** (Jeter, Nguyen, Alharbi,
//! Thai — ICDCS 2024): a client-side defense that counters *active
//! reconstruction attacks* by actively dishonest FL servers.
//!
//! ## How the defense works
//!
//! Active attacks (Robbing the Fed, Curious Abandon Honesty) plant a
//! malicious fully-connected layer whose per-neuron gradients
//! `(∂L/∂W_i, ∂L/∂b_i)` memorize individual samples; dividing them
//! (paper Eq. 6) reconstructs training images *exactly*. The paper's
//! Proposition 1 shows the inversion is blocked whenever every sample
//! `x_t` shares its malicious-layer **activation set** with some other
//! batch member `x′_t` — the attacker can then extract only a linear
//! combination of the two.
//!
//! OASIS manufactures those activation-set twins with **image
//! augmentation**: each batch `D` is expanded to
//! `D′ = D ∪ ⋃_t X′_t` (Eq. 7) where `X′_t` holds rotated / flipped /
//! sheared copies of `x_t` with the same label. Because augmentation
//! is also a generalization technique, accuracy is preserved
//! (paper Table I).
//!
//! An [`Oasis`] value is exactly one of the paper's policies
//! ([`oasis_augment::PolicyKind`]). [`activation_set_analysis`] checks
//! Proposition 1 on the batch a client trained on — the output of any
//! [`oasis_fl::DefenseStack`], or an attack outcome's processed images
//! — against a concrete malicious layer.
//!
//! ## Quickstart
//!
//! ```
//! use oasis::Oasis;
//! use oasis_augment::PolicyKind;
//! use oasis_data::{cifar_like_with, Batch};
//! use oasis_fl::Defense;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let defense = Oasis::new(PolicyKind::MajorRotation);
//! let ds = cifar_like_with(4, 2, 16, 0);
//! let batch = Batch::from_items(ds.items().to_vec());
//! let mut rng = StdRng::seed_from_u64(0);
//! let defended = defense.process(batch.clone(), &mut rng);
//! assert_eq!(defended.len(), batch.len() * 4); // original + 3 rotations
//!
//! // Proposition 1 against an RTF-style measurement row (the mean
//! // pixel, cut at 0.1): a rotation keeps the mean, so every sample
//! // has a twin.
//! use oasis::activation_set_analysis;
//! use oasis_nn::Linear;
//! use oasis_tensor::Tensor;
//! let d = batch.images[0].numel();
//! let row = Tensor::full(&[1, d], 1.0 / d as f32);
//! let layer = Linear::from_parts(row, Tensor::from_slice(&[-0.1])).unwrap();
//! let analysis = activation_set_analysis(&layer, &defended.images, batch.len());
//! assert_eq!(analysis.protection_rate, 1.0);
//! ```

#![warn(missing_docs)]

mod analysis;
mod defense;

pub use analysis::{activation_set_analysis, activation_sets, ActivationAnalysis};
pub use defense::Oasis;
