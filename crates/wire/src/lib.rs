//! # oasis-wire
//!
//! The client↔server wire of the OASIS reproduction. The paper's
//! threat model lives on this wire — the dishonest server tampers the
//! model it *sends* and reconstructs private data from the updates it
//! *receives* — so the FL loop needs a substrate where updates are
//! actually serialized, compressed, delayed, and dropped.
//!
//! Three layers:
//!
//! 1. **Format** ([`format`]) — a safetensors-inspired zero-copy
//!    binary layout for named tensors: an 8-byte length prefix, a JSON
//!    header (names, dtypes, shapes, offsets), and a contiguous byte
//!    payload. Parsing is strict (every malformed buffer is a
//!    [`WireError`], never a panic) and zero-copy ([`WireView`]
//!    borrows, [`TensorView`] slices). [`checkpoint`] uses it for
//!    whole-model save/load.
//! 2. **Codecs** — pluggable [`UpdateCodec`]s turning
//!    flat update vectors into bytes: lossless [`RawCodec`], int8
//!    [`Q8Codec`], sparsifying [`TopKCodec`], and 1-bit [`SignCodec`],
//!    each reporting its exact encoded byte size.
//! 3. **Transport** — a deterministic simulated network
//!    ([`NetSpec`]) with per-client latency, bandwidth, loss, and a
//!    straggler cutoff, so FL rounds gain a simulated wall-clock and
//!    partial participation.
//!
//! ```
//! use oasis_wire::{CodecSpec, NetSpec, Submission};
//!
//! let codec = "q8".parse::<CodecSpec>().unwrap().build();
//! let update: Vec<f32> = (0..1000).map(|i| (i as f32 * 0.01).sin()).collect();
//! let encoded = codec.encode(&update).unwrap();
//! assert!(encoded.byte_size() < encoded.raw_byte_size());
//!
//! let net: NetSpec = "sim:20,10,0.1".parse().unwrap();
//! let traffic = net.deliver(7, 0, &[Submission {
//!     client_id: 0,
//!     bytes_up: encoded.byte_size(),
//!     bytes_down: update.len() * 4,
//! }]);
//! assert_eq!(traffic.deliveries.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod checkpoint;
mod codec;
mod format;
mod net;

pub use codec::{CodecSpec, EncodedUpdate, Q8Codec, RawCodec, SignCodec, TopKCodec, UpdateCodec};
pub use format::{Dtype, FrameWriter, TensorMeta, TensorView, WireView, PAYLOAD_ALIGN};
pub use net::{Delivery, DeliveryStatus, NetSpec, RoundTraffic, Submission};

use std::fmt;

/// Errors produced by the wire layer.
#[derive(Debug)]
pub enum WireError {
    /// A wire header was malformed (bad prefix, JSON, dtype, offsets,
    /// shapes, or names).
    Header(String),
    /// A payload disagreed with its header (truncated or trailing
    /// bytes).
    Payload(String),
    /// A codec could not encode or decode an update.
    Codec(String),
    /// A network spec was invalid.
    Net(String),
    /// A checkpoint file could not be read or written.
    Io(std::io::Error),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Header(msg) => write!(f, "bad wire header: {msg}"),
            WireError::Payload(msg) => write!(f, "bad wire payload: {msg}"),
            WireError::Codec(msg) => write!(f, "codec failure: {msg}"),
            WireError::Net(msg) => write!(f, "bad net spec: {msg}"),
            WireError::Io(e) => write!(f, "checkpoint I/O failed: {e}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}
