//! Pluggable update codecs: how a client's flat update vector becomes
//! bytes on the wire.
//!
//! Every codec frames its payload in the wire tensor format of
//! [`crate::format`], so an encoded update is self-describing and the
//! strict format validation guards every read. A frame has one reader,
//! [`UpdateCodec::fold_into`], which checks it and adds it into a
//! weighted sum; a receiver that wants the update itself folds it with
//! weight 1 into a `+0` buffer. Each [`EncodedUpdate`] reports its
//! exact byte size, making compression ratio a first-class metric of
//! the FL loop.
//!
//! | spec      | scheme                                   | error bound |
//! |-----------|------------------------------------------|-------------|
//! | `raw`     | lossless little-endian `f32`             | bit-exact |
//! | `q8`      | per-tensor affine int8 quantization      | ≤ `(max−min)/255 · ½` per element |
//! | `topk:K`  | K largest-magnitude entries, rest zeroed | kept entries bit-exact, dropped entries read 0 |
//! | `sign`    | 1-bit sign + shared mean magnitude       | sign preserved for non-zero entries |

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use crate::format::{Dtype, FrameWriter, WireView};
use crate::WireError;

/// A client update after encoding: the original element count and
/// the framed payload. The frame does not name its codec; whoever
/// folds it holds the codec that encoded it.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedUpdate {
    /// Element count of the original update vector.
    pub n: usize,
    /// Wire-format payload (see the `format` module).
    pub payload: Vec<u8>,
}

impl EncodedUpdate {
    /// Bytes this update occupies on the wire.
    pub fn byte_size(&self) -> usize {
        self.payload.len()
    }

    /// Bytes the update would occupy uncompressed (`4·n`).
    pub fn raw_byte_size(&self) -> usize {
        self.n * 4
    }

    /// `raw / encoded` — > 1 means the codec compresses.
    pub fn compression_ratio(&self) -> f64 {
        if self.payload.is_empty() {
            return 1.0;
        }
        self.raw_byte_size() as f64 / self.payload.len() as f64
    }
}

/// Encodes flat update vectors (the `G_j` of paper Eq. 1) for
/// transmission, and folds received frames into a weighted sum.
pub trait UpdateCodec: Send + Sync {
    /// The spec this codec implements.
    fn spec(&self) -> CodecSpec;

    /// Encodes a flat update vector.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Codec`] when the input cannot be encoded
    /// (e.g. non-finite values in a quantizing codec).
    fn encode(&self, update: &[f32]) -> Result<EncodedUpdate, WireError>;

    /// Folds a frame into a weighted sum in one pass: `acc[i] +=
    /// weight · g[i]` for the update `g` the frame carries, with no
    /// decode buffer. Each term is one f32 multiply, then one add, so
    /// folding with weight `w` equals `acc + w · fold(1)` bit for bit,
    /// where `fold(1)` is the same frame folded with weight 1 into a
    /// `+0` buffer: the update itself, except that a `−0` reads `+0`.
    /// (Top-k adds only its kept entries: the `+0` terms it skips
    /// cannot change an accumulator that started at `+0`, which never
    /// holds `−0`.)
    ///
    /// Before the first add, the frame is checked for everything the
    /// codec owns: the element count against `acc`, each tensor's
    /// length, and finiteness wherever the frame carries floats (q8's
    /// `affine` pair, the raw payload, top-k's values, sign's
    /// magnitude), plus top-k indices that ascend strictly below the
    /// element count, as its encoder writes them; `weight`
    /// must be finite too. A frame that fails is an error, and `acc`
    /// is then bit for bit what it was, so one hostile or corrupt
    /// update cannot poison the sum.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on a malformed or non-finite frame, a
    /// length that disagrees with `acc`, or a non-finite weight —
    /// never panics.
    fn fold_into(
        &self,
        encoded: &EncodedUpdate,
        weight: f32,
        acc: &mut [f32],
    ) -> Result<(), WireError>;

    /// Exact wire size of any `n`-element update under this codec.
    ///
    /// Every built-in codec's frame size is a pure function of the
    /// element count — values never change the byte count — which is
    /// what lets a round's delivery plan be computed before any update
    /// is materialized (the population scheduler relies on this). The
    /// built-in codecs compute it from their frame declaration and
    /// encode nothing, so sizing a round opens no `wire.encode.*`
    /// span and adds nothing to `wire.bytes_encoded`.
    fn encoded_len(&self, n: usize) -> usize;
}

/// A codec choice, as a value. Spec grammar (round-tripping through
/// `Display` / `FromStr`): `raw` · `q8` · `topk:K` · `sign`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CodecSpec {
    /// Lossless `f32` (the default; reproduces the in-process loop
    /// bit-exactly).
    #[default]
    Raw,
    /// Per-tensor affine int8 quantization.
    Q8,
    /// Magnitude sparsification keeping the `k` largest entries.
    TopK {
        /// How many entries survive.
        k: usize,
    },
    /// 1-bit sign-SGD style compression.
    Sign,
}

impl CodecSpec {
    /// Constructs the codec behind this spec.
    pub fn build(&self) -> Box<dyn UpdateCodec> {
        match *self {
            CodecSpec::Raw => Box::new(RawCodec),
            CodecSpec::Q8 => Box::new(Q8Codec),
            CodecSpec::TopK { k } => Box::new(TopKCodec { k }),
            CodecSpec::Sign => Box::new(SignCodec),
        }
    }
}

impl fmt::Display for CodecSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            CodecSpec::Raw => f.write_str("raw"),
            CodecSpec::Q8 => f.write_str("q8"),
            CodecSpec::TopK { k } => write!(f, "topk:{k}"),
            CodecSpec::Sign => f.write_str("sign"),
        }
    }
}

impl FromStr for CodecSpec {
    type Err = WireError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.split_once(':') {
            None => match s {
                "raw" => Ok(CodecSpec::Raw),
                "q8" => Ok(CodecSpec::Q8),
                "sign" => Ok(CodecSpec::Sign),
                other => Err(WireError::Codec(format!(
                    "unknown codec `{other}` (expected raw, q8, topk:K, or sign)"
                ))),
            },
            Some(("topk", k)) => {
                let k: usize = k
                    .trim()
                    .parse()
                    .map_err(|_| WireError::Codec(format!("bad K `{k}` in `topk:` codec")))?;
                if k == 0 {
                    return Err(WireError::Codec("topk needs K ≥ 1".into()));
                }
                Ok(CodecSpec::TopK { k })
            }
            Some((other, _)) => Err(WireError::Codec(format!(
                "unknown codec `{other}` (expected raw, q8, topk:K, or sign)"
            ))),
        }
    }
}

impl Serialize for CodecSpec {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.to_string())
    }
}

impl Deserialize for CodecSpec {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let s = value
            .as_str()
            .ok_or_else(|| serde::Error::expected("codec spec", value))?;
        s.parse()
            .map_err(|e: WireError| serde::Error::msg(e.to_string()))
    }
}

fn parse_payload(encoded: &EncodedUpdate) -> Result<WireView<'_>, WireError> {
    WireView::parse(&encoded.payload)
}

/// Whether every value is finite, in one pass without an early exit
/// (so it vectorizes): a value is infinite or NaN exactly when its
/// exponent bits are all ones, and those flags are OR-ed together.
fn all_finite(values: &[f32]) -> bool {
    const EXPONENT: u32 = 0x7f80_0000;
    values.iter().fold(0u32, |bad, v| {
        bad | u32::from(v.to_bits() & EXPONENT == EXPONENT)
    }) == 0
}

/// The checks every [`UpdateCodec::fold_into`] makes first: the frame
/// holds one value per accumulator slot, and the weight is finite.
fn check_fold(encoded: &EncodedUpdate, weight: f32, acc: &[f32]) -> Result<(), WireError> {
    if !weight.is_finite() {
        return Err(WireError::Codec(format!(
            "fold weight {weight} is not finite"
        )));
    }
    if acc.len() != encoded.n {
        return Err(WireError::Codec(format!(
            "fold destination holds {} elements, update frame says {}",
            acc.len(),
            encoded.n
        )));
    }
    Ok(())
}

/// A codec frame's tensors in payload order, as `(name, dtype,
/// length)`: every codec tensor is one-dimensional and its length
/// depends only on the update's element count. Each codec declares
/// its frame once, and both encoding and
/// [`UpdateCodec::encoded_len`] read that declaration.
type Decl<const K: usize> = [(&'static str, Dtype, usize); K];

/// Calls `f` with `decl` in [`FrameWriter`]'s declaration form.
fn declared<const K: usize, T>(
    decl: Decl<K>,
    f: impl FnOnce(&[(&str, Dtype, &[usize])]) -> T,
) -> T {
    let shapes = decl.map(|(_, _, len)| [len]);
    let tensors: [(&str, Dtype, &[usize]); K] =
        std::array::from_fn(|i| (decl[i].0, decl[i].1, &shapes[i][..]));
    f(&tensors)
}

/// Byte length of the frame `decl` declares.
fn frame_len<const K: usize>(decl: Decl<K>) -> usize {
    declared(decl, FrameWriter::frame_len).unwrap_or(0)
}

// ---------------------------------------------------------------------
// raw
// ---------------------------------------------------------------------

/// Lossless `f32` transport: a frame folded with weight 1 into a `+0`
/// buffer is the encoded update bit for bit, except that `−0` reads
/// `+0`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RawCodec;

impl RawCodec {
    fn tensors(n: usize) -> Decl<1> {
        [("update", Dtype::F32, n)]
    }
}

impl UpdateCodec for RawCodec {
    fn spec(&self) -> CodecSpec {
        CodecSpec::Raw
    }

    fn encoded_len(&self, n: usize) -> usize {
        frame_len(Self::tensors(n))
    }

    fn encode(&self, update: &[f32]) -> Result<EncodedUpdate, WireError> {
        let _span = oasis_telemetry::span("wire.encode.raw");
        let mut frame = declared(Self::tensors(update.len()), FrameWriter::new)?;
        frame.write_f32(update)?;
        let payload = frame.finish()?;
        oasis_telemetry::counter!("wire.bytes_encoded").add(payload.len() as u64);
        Ok(EncodedUpdate {
            n: update.len(),
            payload,
        })
    }

    /// The zero-copy fast path: the frame's `update` tensor is read
    /// straight off the wire payload when its extent is 4-byte aligned
    /// (which [`FrameWriter::new`]'s padded headers make the steady
    /// state, counted as `wire.decode.borrowed`), and copied once when
    /// it is not (`wire.decode.copied`). The payload must be finite.
    fn fold_into(
        &self,
        encoded: &EncodedUpdate,
        weight: f32,
        acc: &mut [f32],
    ) -> Result<(), WireError> {
        check_fold(encoded, weight, acc)?;
        let _span = oasis_telemetry::span("wire.decode.raw");
        oasis_telemetry::counter!("wire.bytes_decoded").add(encoded.payload.len() as u64);
        let view = parse_payload(encoded)?;
        let tensor = view.require("update")?;
        let copy;
        let values = match tensor.as_f32s()? {
            Some(borrowed) => {
                oasis_telemetry::counter!("wire.decode.borrowed").add(1);
                borrowed
            }
            None => {
                oasis_telemetry::counter!("wire.decode.copied").add(1);
                copy = tensor.to_f32_vec()?;
                &copy[..]
            }
        };
        if values.len() != encoded.n {
            return Err(WireError::Codec(format!(
                "raw payload has {} values, update frame says {}",
                values.len(),
                encoded.n
            )));
        }
        if !all_finite(values) {
            return Err(WireError::Codec(
                "raw update holds a non-finite value".into(),
            ));
        }
        for (a, &g) in acc.iter_mut().zip(values) {
            *a += weight * g;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// q8
// ---------------------------------------------------------------------

/// Per-tensor affine int8 quantization: the update range `[min, max]`
/// is split into 255 levels; each element becomes one byte plus a
/// shared `(min, scale)` pair. Worst-case error per element is half a
/// level, `(max − min)/255 · ½`.
///
/// Encoding scans the update once for its minimum, maximum and
/// finiteness ([`oasis_tensor::simd::min_max_finite`]). The level of
/// each value is specified as `round((v − min) / scale)` in f64; the
/// vector kernel computes `(v − min)·(1/scale)` in f32 instead, whose
/// error is at most 255·4·2⁻²⁴ ≈ 2⁻¹⁴ of a level, keeps an eight-value
/// block only when every value's fraction is more than 2⁻¹² from ½,
/// and redoes any other block in f64. The bytes on the wire are the
/// specification's on every backend.
///
/// Folding ([`UpdateCodec::fold_into`]) dequantizes and adds in one
/// pass, and refuses a frame whose `affine` values are not finite.
#[derive(Debug, Clone, Copy, Default)]
pub struct Q8Codec;

impl Q8Codec {
    fn tensors(n: usize) -> Decl<2> {
        [("q", Dtype::U8, n), ("affine", Dtype::F32, 2)]
    }

    /// A q8 frame's `n` levels and its `(lo, scale)` pair, which must
    /// be finite: dequantizing with a NaN or infinite one would emit
    /// non-finite values (and the backends' clamps treat NaN
    /// differently).
    fn levels<'a>(view: &WireView<'a>, n: usize) -> Result<(&'a [u8], f32, f32), WireError> {
        let affine = view.require("affine")?.to_f32_vec()?;
        let [lo, scale] = affine[..] else {
            return Err(WireError::Codec(format!(
                "q8 affine tensor has {} values, expected 2",
                affine.len()
            )));
        };
        if !(lo.is_finite() && scale.is_finite()) {
            return Err(WireError::Codec(format!(
                "q8 affine ({lo}, {scale}) is not finite"
            )));
        }
        let q = view.require("q")?.to_u8_slice()?;
        if q.len() != n {
            return Err(WireError::Codec(format!(
                "q8 payload has {} levels, update frame says {n}",
                q.len()
            )));
        }
        Ok((q, lo, scale))
    }
}

impl UpdateCodec for Q8Codec {
    fn spec(&self) -> CodecSpec {
        CodecSpec::Q8
    }

    fn encoded_len(&self, n: usize) -> usize {
        frame_len(Self::tensors(n))
    }

    fn encode(&self, update: &[f32]) -> Result<EncodedUpdate, WireError> {
        let _span = oasis_telemetry::span("wire.encode.q8");
        let Some((lo, hi)) = oasis_tensor::simd::min_max_finite(update) else {
            return Err(WireError::Codec("q8 requires finite values".into()));
        };
        let (lo, hi) = if update.is_empty() {
            (0.0, 0.0)
        } else {
            (lo, hi)
        };
        // The range arithmetic runs in f64: `hi − lo` can overflow
        // f32 (e.g. MAX..−MAX), which would poison every level with
        // inf/NaN while the finite-input guard still passes.
        let range = f64::from(hi) - f64::from(lo);
        let scale = if range > 0.0 { range / 255.0 } else { 0.0 };
        let mut frame = declared(Self::tensors(update.len()), FrameWriter::new)?;
        // Zero range (constant vector) quantizes everything to level
        // 0; otherwise the kernel's preconditions hold: positive
        // finite scale, every value finite and ≥ lo.
        frame.write_with(|q| {
            if scale > 0.0 {
                oasis_tensor::simd::quantize_q8(update, lo, scale, q);
            }
        })?;
        frame.write_f32(&[lo, scale as f32])?;
        let payload = frame.finish()?;
        oasis_telemetry::counter!("wire.bytes_encoded").add(payload.len() as u64);
        Ok(EncodedUpdate {
            n: update.len(),
            payload,
        })
    }

    fn fold_into(
        &self,
        encoded: &EncodedUpdate,
        weight: f32,
        acc: &mut [f32],
    ) -> Result<(), WireError> {
        let _span = oasis_telemetry::span("wire.decode.q8");
        oasis_telemetry::counter!("wire.bytes_decoded").add(encoded.payload.len() as u64);
        check_fold(encoded, weight, acc)?;
        let view = parse_payload(encoded)?;
        let (q, lo, scale) = Self::levels(&view, encoded.n)?;
        oasis_tensor::simd::dequantize_add_q8(q, lo, scale, weight, acc);
        Ok(())
    }
}

// ---------------------------------------------------------------------
// topk
// ---------------------------------------------------------------------

/// Magnitude sparsification: only the `k` largest-|·| entries travel
/// (as `(u32 index, f32 value)` pairs); the receiver reads zeros
/// elsewhere. Kept entries are bit-exact.
#[derive(Debug, Clone, Copy)]
pub struct TopKCodec {
    /// How many entries survive (clamped to the update length).
    pub k: usize,
}

impl TopKCodec {
    fn tensors(&self, n: usize) -> Decl<2> {
        let k = self.k.min(n);
        [("idx", Dtype::U32, k), ("val", Dtype::F32, k)]
    }
}

impl UpdateCodec for TopKCodec {
    fn spec(&self) -> CodecSpec {
        CodecSpec::TopK { k: self.k }
    }

    fn encoded_len(&self, n: usize) -> usize {
        frame_len(self.tensors(n))
    }

    fn encode(&self, update: &[f32]) -> Result<EncodedUpdate, WireError> {
        let _span = oasis_telemetry::span("wire.encode.topk");
        let k = self.k.min(update.len());
        // Linear-time selection of the k largest magnitudes (with a
        // deterministic index tiebreak) instead of a full O(n log n)
        // sort — this runs on every client every round.
        let magnitude_desc = |&a: &usize, &b: &usize| {
            f32::total_cmp(&update[b].abs(), &update[a].abs()).then(a.cmp(&b))
        };
        let mut kept: Vec<usize> = (0..update.len()).collect();
        if k < kept.len() {
            kept.select_nth_unstable_by(k, magnitude_desc);
            kept.truncate(k);
        }
        kept.sort_unstable();
        let indices: Vec<u32> = kept
            .iter()
            .map(|&i| {
                u32::try_from(i)
                    .map_err(|_| WireError::Codec(format!("index {i} exceeds u32 (topk)")))
            })
            .collect::<Result<_, _>>()?;
        let values: Vec<f32> = kept.iter().map(|&i| update[i]).collect();
        let mut frame = declared(self.tensors(update.len()), FrameWriter::new)?;
        frame.write_u32(&indices)?.write_f32(&values)?;
        let payload = frame.finish()?;
        oasis_telemetry::counter!("wire.bytes_encoded").add(payload.len() as u64);
        Ok(EncodedUpdate {
            n: update.len(),
            payload,
        })
    }

    /// Adds only the kept entries, after checking that the indices
    /// ascend strictly below `n` (as the encoder writes them) and the
    /// values are finite.
    fn fold_into(
        &self,
        encoded: &EncodedUpdate,
        weight: f32,
        acc: &mut [f32],
    ) -> Result<(), WireError> {
        let _span = oasis_telemetry::span("wire.decode.topk");
        oasis_telemetry::counter!("wire.bytes_decoded").add(encoded.payload.len() as u64);
        check_fold(encoded, weight, acc)?;
        let view = parse_payload(encoded)?;
        let indices = view.require("idx")?.to_u32_vec()?;
        let values = view.require("val")?.to_f32_vec()?;
        if indices.len() != values.len() {
            return Err(WireError::Codec(format!(
                "topk payload has {} indices but {} values",
                indices.len(),
                values.len()
            )));
        }
        if !ascending_below(&indices, encoded.n) {
            return Err(WireError::Codec(format!(
                "topk indices do not ascend strictly below n={}",
                encoded.n
            )));
        }
        if !all_finite(&values) {
            return Err(WireError::Codec("topk value is not finite".into()));
        }
        for (&i, &v) in indices.iter().zip(&values) {
            acc[i as usize] += weight * v;
        }
        Ok(())
    }
}

/// Whether the indices ascend strictly and stay below `n`, as
/// [`TopKCodec::encode`] writes them; any other frame is refused.
fn ascending_below(indices: &[u32], n: usize) -> bool {
    indices.windows(2).all(|w| w[0] < w[1]) && indices.last().is_none_or(|&i| (i as usize) < n)
}

// ---------------------------------------------------------------------
// sign
// ---------------------------------------------------------------------

/// 1-bit sign-SGD style compression: one sign bit per element plus a
/// single shared magnitude (the mean |·| of the update). Received
/// entries are `±magnitude` with the original sign.
#[derive(Debug, Clone, Copy, Default)]
pub struct SignCodec;

impl SignCodec {
    fn tensors(n: usize) -> Decl<2> {
        [("bits", Dtype::U8, n.div_ceil(8)), ("mag", Dtype::F32, 1)]
    }

    /// A sign frame's bit bytes (at least one bit per element) and
    /// its shared magnitude, which must be finite.
    fn signs<'a>(view: &WireView<'a>, n: usize) -> Result<(&'a [u8], f32), WireError> {
        let bits = view.require("bits")?.to_u8_slice()?;
        let mag_tensor = view.require("mag")?.to_f32_vec()?;
        let [mag] = mag_tensor[..] else {
            return Err(WireError::Codec(format!(
                "sign magnitude tensor has {} values, expected 1",
                mag_tensor.len()
            )));
        };
        if !mag.is_finite() {
            return Err(WireError::Codec(format!(
                "sign magnitude {mag} is not finite"
            )));
        }
        if bits.len() < n.div_ceil(8) {
            return Err(WireError::Codec(format!(
                "sign payload has {} bit-bytes, n={n} needs {}",
                bits.len(),
                n.div_ceil(8)
            )));
        }
        Ok((bits, mag))
    }
}

impl UpdateCodec for SignCodec {
    fn spec(&self) -> CodecSpec {
        CodecSpec::Sign
    }

    fn encoded_len(&self, n: usize) -> usize {
        frame_len(Self::tensors(n))
    }

    fn encode(&self, update: &[f32]) -> Result<EncodedUpdate, WireError> {
        let _span = oasis_telemetry::span("wire.encode.sign");
        if !all_finite(update) {
            return Err(WireError::Codec("sign requires finite values".into()));
        }
        let mut frame = declared(Self::tensors(update.len()), FrameWriter::new)?;
        frame.write_with(|bits| oasis_tensor::simd::pack_signs(update, bits))?;
        // Strictly sequential f64 accumulation: the magnitude goes on
        // the wire, so its bits must not depend on the SIMD backend —
        // lane-blocking this sum would change them.
        let mag = if update.is_empty() {
            0.0
        } else {
            (update.iter().map(|&v| f64::from(v.abs())).sum::<f64>() / update.len() as f64) as f32
        };
        frame.write_f32(&[mag])?;
        let payload = frame.finish()?;
        oasis_telemetry::counter!("wire.bytes_encoded").add(payload.len() as u64);
        Ok(EncodedUpdate {
            n: update.len(),
            payload,
        })
    }

    /// Adds `weight · (±mag)` per element.
    fn fold_into(
        &self,
        encoded: &EncodedUpdate,
        weight: f32,
        acc: &mut [f32],
    ) -> Result<(), WireError> {
        let _span = oasis_telemetry::span("wire.decode.sign");
        oasis_telemetry::counter!("wire.bytes_decoded").add(encoded.payload.len() as u64);
        check_fold(encoded, weight, acc)?;
        let view = parse_payload(encoded)?;
        let (bits, mag) = Self::signs(&view, encoded.n)?;
        let (pos, neg) = (weight * mag, weight * -mag);
        for (i, a) in acc.iter_mut().enumerate() {
            *a += if bits[i / 8] & (1 << (i % 8)) != 0 {
                pos
            } else {
                neg
            };
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<f32> {
        vec![0.5, -1.25, 3.0, 0.0, -0.125, 2.75, -3.5, 0.03125]
    }

    /// The update a frame carries, as a receiver reads it: folded with
    /// weight 1 into a `+0` buffer.
    fn received(codec: &dyn UpdateCodec, enc: &EncodedUpdate) -> Result<Vec<f32>, WireError> {
        let mut out = vec![0.0f32; enc.n];
        codec.fold_into(enc, 1.0, &mut out)?;
        Ok(out)
    }

    #[test]
    fn raw_is_bit_exact() {
        let x = sample();
        let enc = RawCodec.encode(&x).unwrap();
        assert_eq!(enc.raw_byte_size(), x.len() * 4);
        assert!(
            enc.byte_size() > enc.raw_byte_size(),
            "header adds overhead"
        );
        let back = received(&RawCodec, &enc).unwrap();
        for (a, b) in x.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn q8_error_within_half_level() {
        let x = sample();
        let enc = Q8Codec.encode(&x).unwrap();
        let back = received(&Q8Codec, &enc).unwrap();
        let (lo, hi) = (-3.5f32, 3.0f32);
        let bound = (hi - lo) / 255.0 * 0.5 + 1e-6;
        for (a, b) in x.iter().zip(&back) {
            assert!((a - b).abs() <= bound, "{a} vs {b}");
        }
    }

    #[test]
    fn q8_constant_vector_is_exact() {
        let x = vec![2.5f32; 10];
        let back = received(&Q8Codec, &Q8Codec.encode(&x).unwrap()).unwrap();
        assert_eq!(back, x);
    }

    #[test]
    fn q8_extreme_range_stays_finite() {
        // hi − lo overflows f32 here; the round trip must stay finite
        // (not NaN-poison downstream aggregation) and keep ordering.
        let x = vec![f32::MAX, -f32::MAX, 0.0];
        let back = received(&Q8Codec, &Q8Codec.encode(&x).unwrap()).unwrap();
        assert!(back.iter().all(|v| v.is_finite()), "{back:?}");
        assert!(back[0] > back[2] && back[2] > back[1], "{back:?}");
    }

    #[test]
    fn topk_keeps_largest_magnitudes_exactly() {
        let x = sample();
        let codec = TopKCodec { k: 3 };
        let back = received(&codec, &codec.encode(&x).unwrap()).unwrap();
        assert_eq!(back, vec![0.0, 0.0, 3.0, 0.0, 0.0, 2.75, -3.5, 0.0]);
    }

    #[test]
    fn topk_compresses() {
        let x = vec![1.0f32; 1000];
        let enc = TopKCodec { k: 10 }.encode(&x).unwrap();
        assert!(
            enc.compression_ratio() > 10.0,
            "{}",
            enc.compression_ratio()
        );
    }

    #[test]
    fn sign_preserves_signs_with_shared_magnitude() {
        let x = sample();
        let enc = SignCodec.encode(&x).unwrap();
        let back = received(&SignCodec, &enc).unwrap();
        let mag = x.iter().map(|v| v.abs()).sum::<f32>() / x.len() as f32;
        for (a, b) in x.iter().zip(&back) {
            assert!((b.abs() - mag).abs() < 1e-5);
            if *a != 0.0 {
                assert_eq!(a.is_sign_positive(), b.is_sign_positive(), "{a} vs {b}");
            }
        }
        // On a long update the 1-bit encoding approaches 32× compression.
        let long: Vec<f32> = (0..10_000).map(|i| (i as f32).sin()).collect();
        let enc = SignCodec.encode(&long).unwrap();
        assert!(
            enc.compression_ratio() > 20.0,
            "{}",
            enc.compression_ratio()
        );
    }

    #[test]
    fn specs_round_trip() {
        for spec in [
            CodecSpec::Raw,
            CodecSpec::Q8,
            CodecSpec::TopK { k: 128 },
            CodecSpec::Sign,
        ] {
            assert_eq!(spec.to_string().parse::<CodecSpec>().unwrap(), spec);
        }
        for bad in ["gzip", "topk", "topk:0", "topk:x", "q8:1"] {
            assert!(
                bad.parse::<CodecSpec>().is_err(),
                "`{bad}` should not parse"
            );
        }
    }

    #[test]
    fn folding_foreign_payload_errors_not_panics() {
        let enc = RawCodec.encode(&sample()).unwrap();
        // Feed the raw payload to the wrong codecs.
        assert!(received(&Q8Codec, &enc).is_err());
        assert!(received(&SignCodec, &enc).is_err());
        // Truncate the payload.
        let cut = EncodedUpdate {
            payload: enc.payload[..enc.payload.len() - 3].to_vec(),
            ..enc.clone()
        };
        assert!(received(&RawCodec, &cut).is_err());
    }

    #[test]
    fn encoded_len_is_value_independent() {
        // The size-determinism contract behind `encoded_len`: the
        // frame size of every codec depends only on the element
        // count, so a delivery plan computed from `encoded_len`
        // matches the bytes a real encode would put on the wire.
        let vectors: Vec<Vec<f32>> = vec![
            sample(),
            vec![0.0; 8],
            (0..257).map(|i| (i as f32).sin() * 1e3).collect(),
            vec![f32::MAX, -f32::MAX, 0.0, 1.0],
        ];
        for spec in [
            CodecSpec::Raw,
            CodecSpec::Q8,
            CodecSpec::TopK { k: 3 },
            CodecSpec::TopK { k: 1000 },
            CodecSpec::Sign,
        ] {
            let codec = spec.build();
            for v in &vectors {
                let enc = codec.encode(v).unwrap();
                assert_eq!(
                    codec.encoded_len(v.len()),
                    enc.byte_size(),
                    "codec {spec} size drifted for n={}",
                    v.len()
                );
            }
        }
    }

    #[test]
    fn empty_updates_round_trip() {
        for spec in [
            CodecSpec::Raw,
            CodecSpec::Q8,
            CodecSpec::TopK { k: 4 },
            CodecSpec::Sign,
        ] {
            let codec = spec.build();
            let enc = codec.encode(&[]).unwrap();
            assert_eq!(received(&*codec, &enc).unwrap(), Vec::<f32>::new());
        }
    }
}
