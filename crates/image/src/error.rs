//! Error type for image operations.

use std::fmt;

/// Errors produced by image construction, conversion and IO.
#[derive(Debug)]
pub enum ImageError {
    /// Buffer length does not match `channels * height * width`.
    LengthMismatch {
        /// Length of the provided buffer.
        len: usize,
        /// Expected element count.
        expected: usize,
    },
    /// `channels * height * width` overflows `usize`.
    TooLarge {
        /// The requested dimensions `(c, h, w)`.
        dims: (usize, usize, usize),
    },
    /// Two images have different dimensions.
    DimensionMismatch {
        /// Human-readable name of the operation.
        op: &'static str,
        /// Dimensions `(c, h, w)` of the left operand.
        lhs: (usize, usize, usize),
        /// Dimensions `(c, h, w)` of the right operand.
        rhs: (usize, usize, usize),
    },
    /// The operation requires a specific channel count.
    ChannelMismatch {
        /// Human-readable name of the operation.
        op: &'static str,
        /// Expected channel count.
        expected: usize,
        /// Actual channel count.
        actual: usize,
    },
    /// A pixel index was out of range.
    OutOfRange {
        /// The offending index.
        index: usize,
        /// The bound it violated.
        bound: usize,
    },
    /// An IO failure while writing an image file.
    Io(std::io::Error),
    /// An input the operation cannot use, such as an empty image set.
    Format(String),
}

impl fmt::Display for ImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImageError::LengthMismatch { len, expected } => {
                write!(
                    f,
                    "buffer of length {len} does not match image with {expected} elements"
                )
            }
            ImageError::TooLarge { dims: (c, h, w) } => {
                write!(f, "image of {c}×{h}×{w} elements overflows usize")
            }
            ImageError::DimensionMismatch { op, lhs, rhs } => {
                write!(f, "dimension mismatch in {op}: {lhs:?} vs {rhs:?}")
            }
            ImageError::ChannelMismatch {
                op,
                expected,
                actual,
            } => {
                write!(f, "{op} requires {expected} channels, got {actual}")
            }
            ImageError::OutOfRange { index, bound } => {
                write!(f, "index {index} out of range (bound {bound})")
            }
            ImageError::Io(e) => write!(f, "io error: {e}"),
            ImageError::Format(msg) => write!(f, "unsupported image input: {msg}"),
        }
    }
}

impl std::error::Error for ImageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ImageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ImageError {
    fn from(e: std::io::Error) -> Self {
        ImageError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ImageError::LengthMismatch {
            len: 2,
            expected: 12,
        };
        assert!(e.to_string().contains("12"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "nope");
        let e: ImageError = io.into();
        assert!(matches!(e, ImageError::Io(_)));
    }
}
