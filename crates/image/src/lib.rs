//! # oasis-image
//!
//! Image container, bilinear interpolation, procedural drawing and
//! PPM writing for the OASIS reproduction.
//!
//! Images are dense `f32` buffers in **CHW** (channel, height, width)
//! order with values nominally in `[0, 1]`. The augmentation transforms
//! in `oasis-augment` and the synthetic datasets in `oasis-data` are
//! built on this crate.
//!
//! ```
//! use oasis_image::Image;
//!
//! let mut img = Image::new(3, 8, 8);
//! img.fill(0.5);
//! assert_eq!(img.mean(), 0.5);
//! ```

#![warn(missing_docs)]

mod draw;
mod error;
mod image;
mod interpolate;
pub mod io;

pub use draw::Color;
pub use error::ImageError;
pub use image::Image;
pub use interpolate::{bilinear_sample_with, AffineMap, FillMode};

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, ImageError>;
