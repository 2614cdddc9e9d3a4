//! The wire tensor format: a safetensors-inspired binary layout for
//! named tensors.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! [ u64: header byte length N ][ N bytes: JSON header ][ payload bytes ]
//! ```
//!
//! The JSON header lists every tensor in payload order — name, dtype,
//! shape, and `[start, end)` byte offsets into the payload. Parsing is
//! **strict**: offsets must be contiguous from zero and cover the
//! payload exactly, shapes must match their byte extents, names must
//! be unique, and every violation is a [`WireError`] — never a panic.
//! Parsing is also **zero-copy**: a [`WireView`] only borrows the
//! buffer; tensor bytes are sliced, not copied, until a typed
//! conversion such as [`TensorView::to_f32_vec`] is requested.
//!
//! **Alignment.** [`FrameWriter::new`] pads the JSON header with
//! trailing spaces (valid JSON whitespace) so the payload starts at
//! an 8-byte-aligned offset *within the buffer*. When the buffer
//! itself lands on an aligned base address, as heap allocations do,
//! an `f32` tensor at a 4-byte-aligned payload offset can be borrowed
//! directly as `&[f32]` via [`TensorView::as_f32s`], no copy.
//! Alignment is checked at runtime, never assumed: a misaligned
//! buffer (old unpadded checkpoints, arbitrary slices) simply takes
//! the copying path instead.
//!
//! **Unsafe.** This module holds the crate's only `unsafe`, three
//! slice reinterpretations: the alignment-checked bytes → `f32` cast
//! behind the borrowed read, and the `f32` → bytes and `u32` → bytes
//! views the writer copies into the frame. Each documents its
//! invariants inline, and the crate's tests run all three under miri
//! in CI.

use serde::{Deserialize, Serialize};

use crate::WireError;

/// Element type of a wire tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dtype {
    /// 32-bit IEEE-754 float, little-endian.
    F32,
    /// Unsigned byte.
    U8,
    /// 32-bit unsigned integer, little-endian.
    U32,
}

impl Dtype {
    /// Bytes per element.
    pub fn size(&self) -> usize {
        match self {
            Dtype::F32 | Dtype::U32 => 4,
            Dtype::U8 => 1,
        }
    }

    /// The header tag ("f32", "u8", "u32").
    pub fn as_str(&self) -> &'static str {
        match self {
            Dtype::F32 => "f32",
            Dtype::U8 => "u8",
            Dtype::U32 => "u32",
        }
    }

    fn parse(s: &str) -> Result<Self, WireError> {
        match s {
            "f32" => Ok(Dtype::F32),
            "u8" => Ok(Dtype::U8),
            "u32" => Ok(Dtype::U32),
            other => Err(WireError::Header(format!("unknown dtype `{other}`"))),
        }
    }
}

impl Serialize for Dtype {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.as_str().to_owned())
    }
}

impl Deserialize for Dtype {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let s = value
            .as_str()
            .ok_or_else(|| serde::Error::expected("dtype string", value))?;
        Dtype::parse(s).map_err(|e| serde::Error::msg(e.to_string()))
    }
}

/// One tensor's header entry: name, dtype, shape, and its `[start,
/// end)` byte extent within the payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TensorMeta {
    /// Unique tensor name.
    pub name: String,
    /// Element type.
    pub dtype: Dtype,
    /// Dimensions (empty = scalar).
    pub shape: Vec<usize>,
    /// `[start, end)` byte offsets into the payload.
    pub offsets: (usize, usize),
}

impl TensorMeta {
    /// Number of elements (product of the shape).
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Header`] on arithmetic overflow.
    pub fn numel(&self) -> Result<usize, WireError> {
        self.shape.iter().try_fold(1usize, |acc, &d| {
            acc.checked_mul(d)
                .ok_or_else(|| WireError::Header(format!("shape overflow in `{}`", self.name)))
        })
    }
}

#[derive(Debug, Serialize, Deserialize)]
struct Header {
    version: u32,
    tensors: Vec<TensorMeta>,
}

/// Format version written by this crate.
const WIRE_VERSION: u32 = 1;

/// Hard cap on the JSON header size: a malformed length prefix must
/// not drive a huge allocation.
const MAX_HEADER_BYTES: usize = 16 << 20;

/// Payload alignment written by [`FrameWriter::new`]: the header
/// is space-padded so the payload begins at a multiple of this many
/// bytes from the buffer start. 8 covers every dtype the format can
/// carry (and any future f64/u64).
pub const PAYLOAD_ALIGN: usize = 8;

/// Reinterprets little-endian `f32` payload bytes as a borrowed
/// `&[f32]` — the zero-copy read underneath [`TensorView::as_f32s`].
/// Returns `None` (caller copies instead) unless every precondition
/// for the cast holds: little-endian target, whole number of
/// elements, and a 4-byte-aligned base pointer.
fn try_cast_f32s(bytes: &[u8]) -> Option<&[f32]> {
    if cfg!(target_endian = "big")
        || !bytes.len().is_multiple_of(4)
        || bytes.as_ptr().align_offset(std::mem::align_of::<f32>()) != 0
    {
        return None;
    }
    // SAFETY: the guards above establish everything the cast needs —
    // `bytes.as_ptr()` is 4-byte aligned, the length is an exact
    // element count, every bit pattern is a valid `f32`, and on a
    // little-endian target the in-memory byte order *is* the wire's.
    // The returned slice borrows `bytes` (same lifetime, same
    // provenance, length / 4 elements over the same extent), so the
    // borrow checker upholds the aliasing rules for us.
    Some(unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<f32>(), bytes.len() / 4) })
}

/// Decodes little-endian `f32` payload bytes into `out`, which must
/// be exactly the right length. Takes the memcpy fast path whenever
/// [`try_cast_f32s`] allows, falling back to per-element decoding.
fn copy_le_f32s(bytes: &[u8], out: &mut [f32]) {
    debug_assert_eq!(bytes.len(), out.len() * 4);
    if let Some(src) = try_cast_f32s(bytes) {
        out.copy_from_slice(src);
    } else {
        for (o, c) in out.iter_mut().zip(bytes.chunks_exact(4)) {
            *o = f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        }
    }
}

/// Appends `values` to `out` as little-endian bytes without an
/// intermediate allocation. On little-endian targets this is one
/// `memcpy` of the reinterpreted slice; the portable per-element loop
/// is kept as the big-endian fallback.
fn extend_f32_le_bytes(out: &mut Vec<u8>, values: &[f32]) {
    if cfg!(target_endian = "little") {
        // SAFETY: `f32` has size 4, alignment ≥ 1 (u8 needs none),
        // and no padding bytes, so viewing `values`' backing memory
        // as `4 · len` initialized bytes is always valid; on a
        // little-endian target those bytes are already in wire
        // order. The borrow lasts only for the extend call.
        let bytes =
            unsafe { std::slice::from_raw_parts(values.as_ptr().cast::<u8>(), values.len() * 4) };
        out.extend_from_slice(bytes);
    } else {
        for v in values {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// Appends `values` to `out` as little-endian bytes — the `u32` twin
/// of [`extend_f32_le_bytes`].
fn extend_u32_le_bytes(out: &mut Vec<u8>, values: &[u32]) {
    if cfg!(target_endian = "little") {
        // SAFETY: identical argument to `extend_f32_le_bytes` — u32
        // is 4 padding-free bytes already in wire order here.
        let bytes =
            unsafe { std::slice::from_raw_parts(values.as_ptr().cast::<u8>(), values.len() * 4) };
        out.extend_from_slice(bytes);
    } else {
        for v in values {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// A declared frame's layout, shared by [`FrameWriter::new`] and
/// [`FrameWriter::frame_len`]: the serialized JSON header and where
/// each tensor ends in the payload.
struct Layout {
    json: String,
    /// Payload-relative end offset of each tensor, in declaration
    /// order.
    ends: Vec<usize>,
}

impl Layout {
    fn new(tensors: &[(&str, Dtype, &[usize])]) -> Result<Self, WireError> {
        let mut metas: Vec<TensorMeta> = Vec::with_capacity(tensors.len());
        let mut payload_len = 0usize;
        for &(name, dtype, shape) in tensors {
            if metas.iter().any(|t| t.name == name) {
                return Err(WireError::Header(format!("duplicate tensor name `{name}`")));
            }
            let overflow = || WireError::Header(format!("byte-size overflow in `{name}`"));
            let bytes = shape
                .iter()
                .try_fold(dtype.size(), |acc, &d| acc.checked_mul(d))
                .ok_or_else(overflow)?;
            let end = payload_len.checked_add(bytes).ok_or_else(overflow)?;
            metas.push(TensorMeta {
                name: name.to_owned(),
                dtype,
                shape: shape.to_vec(),
                offsets: (payload_len, end),
            });
            payload_len = end;
        }
        let ends = metas.iter().map(|t| t.offsets.1).collect();
        let header = Header {
            version: WIRE_VERSION,
            tensors: metas,
        };
        let json = serde_json::to_string(&header).expect("header serialization is infallible");
        Ok(Layout { json, ends })
    }

    /// Buffer offset of the payload: the length prefix plus the JSON
    /// header, space-padded to a [`PAYLOAD_ALIGN`] boundary.
    fn payload_start(&self) -> usize {
        (8 + self.json.len()).next_multiple_of(PAYLOAD_ALIGN)
    }

    fn frame_len(&self) -> usize {
        self.payload_start() + self.ends.last().copied().unwrap_or(0)
    }
}

/// Writes a wire buffer (header + payload) in one pass.
///
/// Every tensor is declared up front — name, dtype and shape fix its
/// byte extent — so [`FrameWriter::new`] serializes the header and
/// its alignment padding first, into a buffer allocated at the
/// frame's final size. The payload then goes straight in behind it,
/// one tensor at a time in declaration order: no staging buffer, no
/// second copy.
///
/// ```
/// use oasis_wire::{Dtype, FrameWriter, WireView};
///
/// let mut w = FrameWriter::new(&[("update", Dtype::F32, &[3])]).unwrap();
/// w.write_f32(&[1.0, -2.0, 0.5]).unwrap();
/// let bytes = w.finish().unwrap();
/// let view = WireView::parse(&bytes).unwrap();
/// assert_eq!(view.tensor("update").unwrap().to_f32_vec().unwrap(), vec![1.0, -2.0, 0.5]);
/// ```
#[derive(Debug)]
pub struct FrameWriter {
    buf: Vec<u8>,
    /// Buffer offset where each declared tensor ends, in declaration
    /// order.
    ends: Vec<usize>,
    /// How many declared tensors have been written.
    written: usize,
}

impl FrameWriter {
    /// Declares the frame's tensors as `(name, dtype, shape)` in
    /// payload order and writes the header.
    ///
    /// The JSON header is space-padded to a [`PAYLOAD_ALIGN`]ed length
    /// so the payload's buffer offset supports the borrowed-`&[f32]`
    /// decode path (trailing whitespace is valid JSON, so old readers
    /// parse padded headers unchanged).
    ///
    /// # Errors
    ///
    /// Rejects duplicate names and shapes whose byte size overflows.
    pub fn new(tensors: &[(&str, Dtype, &[usize])]) -> Result<Self, WireError> {
        let layout = Layout::new(tensors)?;
        let base = layout.payload_start();
        let mut buf = Vec::with_capacity(layout.frame_len());
        buf.extend_from_slice(&((base - 8) as u64).to_le_bytes());
        buf.extend_from_slice(layout.json.as_bytes());
        buf.resize(base, b' ');
        Ok(FrameWriter {
            buf,
            ends: layout.ends.iter().map(|e| base + e).collect(),
            written: 0,
        })
    }

    /// Byte length of the frame [`FrameWriter::new`] writes for the
    /// same declaration, computed from the header alone: no frame is
    /// allocated and no payload is written.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FrameWriter::new`].
    pub fn frame_len(tensors: &[(&str, Dtype, &[usize])]) -> Result<usize, WireError> {
        Layout::new(tensors).map(|layout| layout.frame_len())
    }

    /// Byte length of the next declared tensor.
    fn next_len(&self) -> Result<usize, WireError> {
        self.ends
            .get(self.written)
            .map(|&end| end - self.buf.len())
            .ok_or_else(|| {
                WireError::Header(format!(
                    "all {} declared tensors are already written",
                    self.ends.len()
                ))
            })
    }

    /// Appends the next declared tensor through `write`, once its
    /// declared length is checked to be `byte_len`.
    fn append(
        &mut self,
        byte_len: usize,
        write: impl FnOnce(&mut Vec<u8>),
    ) -> Result<&mut Self, WireError> {
        let declared = self.next_len()?;
        if byte_len != declared {
            return Err(WireError::Header(format!(
                "tensor {} is declared with {declared} bytes, got {byte_len}",
                self.written
            )));
        }
        write(&mut self.buf);
        self.written += 1;
        Ok(self)
    }

    /// Writes the next declared tensor as little-endian `f32`s.
    ///
    /// # Errors
    ///
    /// Rejects a byte length other than the declared one, or a write
    /// past the last declared tensor.
    pub fn write_f32(&mut self, values: &[f32]) -> Result<&mut Self, WireError> {
        self.append(values.len() * 4, |buf| extend_f32_le_bytes(buf, values))
    }

    /// Writes the next declared tensor as little-endian `u32`s.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FrameWriter::write_f32`].
    pub fn write_u32(&mut self, values: &[u32]) -> Result<&mut Self, WireError> {
        self.append(values.len() * 4, |buf| extend_u32_le_bytes(buf, values))
    }

    /// Writes the next declared tensor in place: its bytes are
    /// appended zeroed and `fill` overwrites them inside the frame —
    /// the path for kernels that quantize or pack into a `&mut [u8]`.
    ///
    /// # Errors
    ///
    /// Rejects a write past the last declared tensor.
    pub fn write_with(&mut self, fill: impl FnOnce(&mut [u8])) -> Result<&mut Self, WireError> {
        let len = self.next_len()?;
        self.append(len, |buf| {
            let start = buf.len();
            buf.resize(start + len, 0);
            fill(&mut buf[start..]);
        })
    }

    /// The finished frame.
    ///
    /// # Errors
    ///
    /// Rejects a frame with declared tensors left unwritten.
    pub fn finish(self) -> Result<Vec<u8>, WireError> {
        if self.written != self.ends.len() {
            return Err(WireError::Header(format!(
                "{} of {} declared tensors written",
                self.written,
                self.ends.len()
            )));
        }
        Ok(self.buf)
    }
}

/// A zero-copy view over a parsed wire buffer.
#[derive(Debug)]
pub struct WireView<'a> {
    tensors: Vec<TensorMeta>,
    payload: &'a [u8],
}

impl<'a> WireView<'a> {
    /// Parses and strictly validates a wire buffer.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Header`] for any malformed header
    /// (truncated length prefix, non-UTF-8 or non-JSON header, unknown
    /// dtype, duplicate names, non-contiguous or out-of-bounds
    /// offsets, shape/extent mismatch) and [`WireError::Payload`] when
    /// the payload does not match the header's extents.
    pub fn parse(buffer: &'a [u8]) -> Result<Self, WireError> {
        if buffer.len() < 8 {
            return Err(WireError::Header(format!(
                "buffer of {} bytes is shorter than the 8-byte length prefix",
                buffer.len()
            )));
        }
        let mut len_bytes = [0u8; 8];
        len_bytes.copy_from_slice(&buffer[..8]);
        let header_len = u64::from_le_bytes(len_bytes);
        let header_len = usize::try_from(header_len)
            .ok()
            .filter(|&n| n <= MAX_HEADER_BYTES)
            .ok_or_else(|| WireError::Header(format!("header length {header_len} out of range")))?;
        let body = &buffer[8..];
        if body.len() < header_len {
            return Err(WireError::Header(format!(
                "header claims {header_len} bytes but only {} remain",
                body.len()
            )));
        }
        let json = std::str::from_utf8(&body[..header_len])
            .map_err(|_| WireError::Header("header is not valid UTF-8".into()))?;
        let header: Header = serde_json::from_str(json)
            .map_err(|e| WireError::Header(format!("header is not a valid wire header: {e}")))?;
        if header.version != WIRE_VERSION {
            return Err(WireError::Header(format!(
                "unsupported wire version {} (this build reads {WIRE_VERSION})",
                header.version
            )));
        }
        let payload = &body[header_len..];

        // Strict layout validation: tensors tile the payload exactly,
        // in order, with extents matching their shapes.
        let mut cursor = 0usize;
        for meta in &header.tensors {
            let (start, end) = meta.offsets;
            if start != cursor {
                return Err(WireError::Header(format!(
                    "tensor `{}` starts at {start}, expected {cursor} (offsets must be contiguous)",
                    meta.name
                )));
            }
            if end < start || end > payload.len() {
                return Err(WireError::Payload(format!(
                    "tensor `{}` extent [{start}, {end}) exceeds payload of {} bytes",
                    meta.name,
                    payload.len()
                )));
            }
            let expected = meta
                .numel()?
                .checked_mul(meta.dtype.size())
                .ok_or_else(|| {
                    WireError::Header(format!("byte-size overflow in `{}`", meta.name))
                })?;
            if end - start != expected {
                return Err(WireError::Header(format!(
                    "tensor `{}` occupies {} bytes but shape {:?} ({}) needs {expected}",
                    meta.name,
                    end - start,
                    meta.shape,
                    meta.dtype.as_str(),
                )));
            }
            if header
                .tensors
                .iter()
                .filter(|t| t.name == meta.name)
                .count()
                > 1
            {
                return Err(WireError::Header(format!(
                    "duplicate tensor name `{}`",
                    meta.name
                )));
            }
            cursor = end;
        }
        if cursor != payload.len() {
            return Err(WireError::Payload(format!(
                "payload has {} bytes but tensors cover {cursor} (trailing bytes rejected)",
                payload.len()
            )));
        }
        Ok(WireView {
            tensors: header.tensors,
            payload,
        })
    }

    /// Number of tensors in the buffer.
    pub fn len(&self) -> usize {
        self.tensors.len()
    }

    /// Whether the buffer holds no tensors.
    pub fn is_empty(&self) -> bool {
        self.tensors.is_empty()
    }

    /// All tensors in payload order.
    pub fn tensors(&self) -> impl Iterator<Item = TensorView<'a, '_>> {
        self.tensors.iter().map(|meta| TensorView {
            meta,
            bytes: &self.payload[meta.offsets.0..meta.offsets.1],
        })
    }

    /// Looks a tensor up by name.
    pub fn tensor(&self, name: &str) -> Option<TensorView<'a, '_>> {
        self.tensors
            .iter()
            .find(|t| t.name == name)
            .map(|meta| TensorView {
                meta,
                bytes: &self.payload[meta.offsets.0..meta.offsets.1],
            })
    }

    /// Like [`WireView::tensor`] but a missing name is a
    /// [`WireError::Header`] — for decoders that require the entry.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Header`] when `name` is absent.
    pub fn require(&self, name: &str) -> Result<TensorView<'a, '_>, WireError> {
        self.tensor(name)
            .ok_or_else(|| WireError::Header(format!("missing tensor `{name}`")))
    }
}

/// A borrowed view of one tensor's metadata and payload bytes.
#[derive(Debug, Clone, Copy)]
pub struct TensorView<'a, 'm> {
    meta: &'m TensorMeta,
    bytes: &'a [u8],
}

impl<'a> TensorView<'a, '_> {
    /// The tensor's header entry.
    pub fn meta(&self) -> &TensorMeta {
        self.meta
    }

    /// The raw payload bytes (zero-copy slice of the parsed buffer).
    pub fn bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// Borrows the payload directly as `&[f32]` — the zero-copy read.
    ///
    /// Returns `Some` when the bytes can be reinterpreted in place
    /// (little-endian target, 4-byte-aligned extent — which
    /// [`FrameWriter`]-padded buffers on heap bases
    /// always satisfy for a leading `f32` tensor) and `None` when the
    /// caller must fall back to a copying read such as
    /// [`TensorView::read_f32`]. The borrow lives as long as the
    /// parsed buffer, not the view.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Header`] when the dtype is not `f32`.
    pub fn as_f32s(&self) -> Result<Option<&'a [f32]>, WireError> {
        self.expect_dtype(Dtype::F32)?;
        Ok(try_cast_f32s(self.bytes))
    }

    /// Decodes the payload as little-endian `f32`s.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Header`] when the dtype is not `f32`.
    pub fn to_f32_vec(&self) -> Result<Vec<f32>, WireError> {
        let mut out = vec![0.0f32; self.bytes.len() / 4];
        self.read_f32(&mut out)?;
        Ok(out)
    }

    /// Decodes the payload as little-endian `f32`s into a
    /// caller-sized slice — exactly one copy, memcpy-speed when the
    /// source is aligned. This is the copying half of the zero-copy
    /// pair ([`TensorView::as_f32s`] is the borrowing half);
    /// checkpoint loads and the raw fold's misaligned fallback land
    /// here.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Header`] when the dtype is not `f32`, or
    /// [`WireError::Payload`] when `out.len()` disagrees with the
    /// tensor's element count.
    pub fn read_f32(&self, out: &mut [f32]) -> Result<(), WireError> {
        self.expect_dtype(Dtype::F32)?;
        if self.bytes.len() != out.len() * 4 {
            return Err(WireError::Payload(format!(
                "tensor `{}` holds {} f32s, destination expects {}",
                self.meta.name,
                self.bytes.len() / 4,
                out.len()
            )));
        }
        copy_le_f32s(self.bytes, out);
        Ok(())
    }

    /// Decodes the payload as little-endian `u32`s.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Header`] when the dtype is not `u32`.
    pub fn to_u32_vec(&self) -> Result<Vec<u32>, WireError> {
        self.expect_dtype(Dtype::U32)?;
        Ok(self
            .bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    /// The payload as bytes, checked to be dtype `u8`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Header`] when the dtype is not `u8`.
    pub fn to_u8_slice(&self) -> Result<&'a [u8], WireError> {
        self.expect_dtype(Dtype::U8)?;
        Ok(self.bytes)
    }

    fn expect_dtype(&self, want: Dtype) -> Result<(), WireError> {
        if self.meta.dtype != want {
            return Err(WireError::Header(format!(
                "tensor `{}` is {}, expected {}",
                self.meta.name,
                self.meta.dtype.as_str(),
                want.as_str()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_tensor_buffer() -> Vec<u8> {
        let mut w =
            FrameWriter::new(&[("w", Dtype::F32, &[2, 2]), ("mask", Dtype::U8, &[3])]).unwrap();
        w.write_f32(&[1.0, 2.0, 3.0, 4.0])
            .unwrap()
            .write_with(|mask| mask.copy_from_slice(&[0, 1, 255]))
            .unwrap();
        w.finish().unwrap()
    }

    #[test]
    fn round_trip_preserves_tensors() {
        let bytes = one_tensor_buffer();
        let view = WireView::parse(&bytes).unwrap();
        assert_eq!(view.len(), 2);
        let w = view.tensor("w").unwrap();
        assert_eq!(w.meta().shape, vec![2, 2]);
        assert_eq!(w.to_f32_vec().unwrap(), vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(
            view.tensor("mask").unwrap().to_u8_slice().unwrap(),
            &[0, 1, 255]
        );
        assert!(view.tensor("absent").is_none());
    }

    #[test]
    fn truncated_buffers_error() {
        let bytes = one_tensor_buffer();
        for cut in [0, 4, 9, bytes.len() - 1] {
            assert!(WireView::parse(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = one_tensor_buffer();
        bytes.push(0);
        assert!(matches!(
            WireView::parse(&bytes),
            Err(WireError::Payload(_))
        ));
    }

    #[test]
    fn huge_header_length_is_rejected_without_allocating() {
        let mut bytes = u64::MAX.to_le_bytes().to_vec();
        bytes.extend_from_slice(b"xxxx");
        assert!(matches!(WireView::parse(&bytes), Err(WireError::Header(_))));
    }

    #[test]
    fn garbage_header_is_rejected() {
        let json = b"not json at all";
        let mut bytes = (json.len() as u64).to_le_bytes().to_vec();
        bytes.extend_from_slice(json);
        assert!(matches!(WireView::parse(&bytes), Err(WireError::Header(_))));
    }

    #[test]
    fn writer_rejects_duplicates_overflow_and_wrong_extents() {
        assert!(FrameWriter::new(&[("w", Dtype::F32, &[1]), ("w", Dtype::U8, &[1])]).is_err());
        assert!(FrameWriter::new(&[("w", Dtype::F32, &[usize::MAX, 2])]).is_err());
        assert!(
            FrameWriter::new(&[("a", Dtype::U8, &[usize::MAX]), ("b", Dtype::U8, &[1])]).is_err()
        );
        let decl: &[(&str, Dtype, &[usize])] = &[("w", Dtype::F32, &[3])];
        let mut w = FrameWriter::new(decl).unwrap();
        assert!(w.write_f32(&[1.0]).is_err());
        assert!(w.write_f32(&[0.0; 3]).is_ok());
        assert!(
            w.write_with(|_| ()).is_err(),
            "write past the declared tensors"
        );
        assert!(
            FrameWriter::new(decl).unwrap().finish().is_err(),
            "unwritten tensor"
        );
    }

    #[test]
    fn wrong_dtype_reads_error() {
        let bytes = one_tensor_buffer();
        let view = WireView::parse(&bytes).unwrap();
        assert!(view.tensor("w").unwrap().to_u8_slice().is_err());
        assert!(view.tensor("mask").unwrap().to_f32_vec().is_err());
    }
}
