//! # oasis-nn
//!
//! Neural networks with hand-derived backpropagation, built on
//! [`oasis_tensor`].
//!
//! Every layer implements [`Layer`]: a `forward` pass that caches what
//! backward needs, a `backward` pass that accumulates parameter
//! gradients and returns the input gradient, a `backward_params` pass
//! that accumulates the same parameter gradients without the input
//! gradient (what a network's first layer needs), and a parameter
//! visitor used by optimizers and the federated-learning protocol.
//!
//! The gradients are **analytically exact** — this matters because the
//! active reconstruction attacks in `oasis-attacks` invert gradient
//! algebra (paper Eq. 6); approximate gradients would corrupt the
//! attack itself rather than test the defense. `gradcheck` verifies
//! every layer against central finite differences.
//!
//! ```
//! use oasis_nn::{Linear, Layer, Mode, Relu, Sequential};
//! use oasis_tensor::Tensor;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! # fn main() -> Result<(), oasis_nn::NnError> {
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut model = Sequential::new();
//! model.push(Linear::new(4, 8, &mut rng));
//! model.push(Relu::new());
//! model.push(Linear::new(8, 2, &mut rng));
//!
//! let x = Tensor::randn(&[3, 4], &mut rng);
//! let logits = model.forward(&x, Mode::Train)?;
//! assert_eq!(logits.dims(), &[3, 2]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod batchnorm;
mod conv;
mod error;
pub mod gradcheck;
mod layer;
mod linear;
mod loss;
mod optim;
mod pool;
mod relu;
mod resnet;
mod sequential;

pub use batchnorm::BatchNorm;
pub use conv::Conv2d;
pub use error::NnError;
pub use layer::{
    flatten_grads, flatten_params, install_params, load_grads, load_params, param_count,
    shared_params, Layer, Mode,
};
pub use linear::Linear;
pub use loss::{mse_loss, softmax, softmax_cross_entropy, LossOutput};
pub use optim::{Adam, Optimizer, Sgd};
pub use pool::AvgPoolAll;
pub use relu::Relu;
pub use resnet::{resnet_lite, ResidualBlock};
pub use sequential::Sequential;

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, NnError>;
