//! # oasis-tensor
//!
//! A small, dependency-light n-dimensional `f32` tensor library that
//! serves as the numerical substrate for the OASIS reproduction.
//!
//! The design goals are, in order:
//!
//! 1. **Exactness & auditability** — the gradient-inversion attacks in
//!    `oasis-attacks` consume *analytically exact* gradients, so every
//!    op here is a plain, readable loop with no approximation.
//! 2. **Row-major contiguity** — tensors are always dense row-major
//!    buffers; there are no lazy views, which keeps the manual
//!    backprop in `oasis-nn` easy to verify.
//! 3. **Enough speed** — cache-friendly `i-k-j` matmul, the
//!    [`parallel`] helpers (a lazily-initialized persistent worker
//!    pool), and the runtime-dispatched [`simd`] kernels, so the
//!    Table I training experiment finishes on a laptop-class CPU and
//!    the hot paths scale with both cores and vector lanes.
//!
//! ## Example
//!
//! ```
//! use oasis_tensor::Tensor;
//!
//! # fn main() -> Result<(), oasis_tensor::TensorError> {
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.data(), a.data());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod error;
mod init;
mod matmul;
mod ops;
pub mod parallel;
mod pool;
mod reduce;
mod shape;
pub mod simd;
mod tensor;

pub use error::TensorError;
pub use init::{add_randn_scaled, for_each_cos_normal};
pub use shape::Shape;
pub use tensor::Tensor;

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, TensorError>;
