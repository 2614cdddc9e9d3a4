//! # oasis-data
//!
//! Synthetic image classification datasets standing in for the paper's
//! ImageNet (Imagenette 10-class subset) and CIFAR100 workloads.
//!
//! The real datasets cannot be downloaded in this environment, so the
//! generators in this crate produce *structured procedural images*:
//! every class has a deterministic visual identity (background
//! gradient, primary shape, texture overlay) and every sample adds
//! instance-level jitter (position, scale, brightness, pixel noise).
//! Two properties matter for faithfulness to the paper:
//!
//! 1. **Recognizable content** — PSNR-based reconstruction quality is
//!    only meaningful when images have structure an attacker would
//!    want to steal.
//! 2. **Natural-image statistics where the attacks care** — content is
//!    centrally concentrated with darker borders (vignette), so the
//!    pixel-mean "measurement" used by the RTF attack shifts only
//!    slightly under minor rotations, as with photographs; and
//!    per-image brightness jitter spreads the measurement distribution
//!    across RTF's CDF bins.
//!
//! ```
//! use oasis_data::imagenette_like;
//!
//! let ds = imagenette_like(4, 42); // 4 samples per class, seed 42
//! assert_eq!(ds.num_classes(), 10);
//! assert_eq!(ds.len(), 40);
//! ```

#![warn(missing_docs)]

mod batch;
mod cifar_like;
mod dataset;
mod imagenette_like;
mod patterns;
mod render;

pub use batch::Batch;
pub use cifar_like::{cifar_like_with, synthetic_dataset};
pub use dataset::{Dataset, LabeledImage};
pub use imagenette_like::{imagenette_like, imagenette_like_with, IMAGENETTE_CLASSES};
pub use patterns::ClassSpec;
pub use render::Generator;
