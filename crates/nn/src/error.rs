//! Error type for network construction and execution.

use oasis_tensor::TensorError;
use std::fmt;

/// Errors produced while building or running networks.
#[derive(Debug)]
pub enum NnError {
    /// An underlying tensor operation failed (usually a shape bug).
    Tensor(TensorError),
    /// The input to a layer has the wrong width/shape.
    BadInput {
        /// The layer reporting the problem.
        layer: &'static str,
        /// Description of the expectation that was violated.
        expected: String,
        /// The actual dims received.
        actual: Vec<usize>,
    },
    /// `backward` was called before `forward` (no cached activations).
    BackwardBeforeForward {
        /// The layer reporting the problem.
        layer: &'static str,
    },
    /// A label index is outside `[0, classes)`.
    BadLabel {
        /// The offending label.
        label: usize,
        /// The number of classes.
        classes: usize,
    },
    /// A parameter buffer passed to `load_params`, or a tensor list
    /// passed to `install_params`, does not fit the model.
    ParamLength {
        /// Length provided.
        len: usize,
        /// Length required.
        expected: usize,
    },
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::Tensor(e) => write!(f, "tensor error: {e}"),
            NnError::BadInput {
                layer,
                expected,
                actual,
            } => {
                write!(f, "{layer}: expected {expected}, got dims {actual:?}")
            }
            NnError::BackwardBeforeForward { layer } => {
                write!(f, "{layer}: backward called before forward")
            }
            NnError::BadLabel { label, classes } => {
                write!(f, "label {label} out of range for {classes} classes")
            }
            NnError::ParamLength { len, expected } => {
                write!(f, "parameter buffer of length {len}, expected {expected}")
            }
        }
    }
}

impl std::error::Error for NnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NnError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for NnError {
    fn from(e: TensorError) -> Self {
        NnError::Tensor(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_nonempty() {
        let errs: Vec<NnError> = vec![
            NnError::Tensor(TensorError::EmptyTensor),
            NnError::BadInput {
                layer: "linear",
                expected: "width 4".into(),
                actual: vec![3],
            },
            NnError::BackwardBeforeForward { layer: "relu" },
            NnError::BadLabel {
                label: 7,
                classes: 5,
            },
            NnError::ParamLength {
                len: 1,
                expected: 2,
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn tensor_error_converts() {
        let e: NnError = TensorError::EmptyTensor.into();
        assert!(matches!(e, NnError::Tensor(_)));
    }
}
