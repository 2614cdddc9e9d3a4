//! Frames written once are byte-identical to frames built in two
//! copies.
//!
//! The oracle is the encoder the single-pass `FrameWriter` replaced:
//! each tensor was first copied into a growing payload buffer, then
//! header and payload were copied into a second, freshly allocated
//! buffer. Every codec's frames must match it byte for byte — same
//! header JSON and padding, same offsets, same payload bits.

use oasis_wire::{CodecSpec, Dtype, TensorMeta, WireError};
use proptest::prelude::*;
use serde::Serialize;

/// The two-copy builder, as it was: entries append to `payload`, and
/// `finish` copies header and payload into the output.
#[derive(Default)]
struct TwoCopyBuilder {
    tensors: Vec<TensorMeta>,
    payload: Vec<u8>,
}

#[derive(Serialize)]
struct Header {
    version: u32,
    tensors: Vec<TensorMeta>,
}

impl TwoCopyBuilder {
    fn push(&mut self, name: &str, dtype: Dtype, bytes: &[u8]) {
        let start = self.payload.len();
        self.payload.extend_from_slice(bytes);
        self.tensors.push(TensorMeta {
            name: name.to_owned(),
            dtype,
            shape: vec![bytes.len() / dtype.size()],
            offsets: (start, self.payload.len()),
        });
    }

    fn push_f32(&mut self, name: &str, values: &[f32]) {
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.push(name, Dtype::F32, &bytes);
    }

    fn finish(self) -> Vec<u8> {
        let header = Header {
            version: 1,
            tensors: self.tensors,
        };
        let json = serde_json::to_string(&header).unwrap();
        let header_len = (8 + json.len()).next_multiple_of(oasis_wire::PAYLOAD_ALIGN) - 8;
        let mut out = Vec::with_capacity(8 + header_len + self.payload.len());
        out.extend_from_slice(&(header_len as u64).to_le_bytes());
        out.extend_from_slice(json.as_bytes());
        out.resize(8 + header_len, b' ');
        out.extend_from_slice(&self.payload);
        out
    }
}

/// Each codec's encoder over the two-copy builder.
fn two_copy_encode(spec: CodecSpec, update: &[f32]) -> Result<Vec<u8>, WireError> {
    let mut b = TwoCopyBuilder::default();
    match spec {
        CodecSpec::Raw => b.push_f32("update", update),
        CodecSpec::Q8 => {
            if update.iter().any(|v| !v.is_finite()) {
                return Err(WireError::Codec("q8 requires finite values".into()));
            }
            let (mut lo, mut hi) = oasis_tensor::simd::minmax(update);
            if update.is_empty() {
                lo = 0.0;
                hi = 0.0;
            }
            let range = f64::from(hi) - f64::from(lo);
            let scale = if range > 0.0 { range / 255.0 } else { 0.0 };
            let mut q = vec![0u8; update.len()];
            if scale > 0.0 {
                oasis_tensor::simd::quantize_q8(update, lo, scale, &mut q);
            }
            b.push("q", Dtype::U8, &q);
            b.push_f32("affine", &[lo, scale as f32]);
        }
        CodecSpec::TopK { k } => {
            let k = k.min(update.len());
            let mut kept: Vec<usize> = (0..update.len()).collect();
            if k < kept.len() {
                kept.select_nth_unstable_by(k, |&a, &b| {
                    f32::total_cmp(&update[b].abs(), &update[a].abs()).then(a.cmp(&b))
                });
                kept.truncate(k);
            }
            kept.sort_unstable();
            let idx: Vec<u8> = kept
                .iter()
                .flat_map(|&i| (i as u32).to_le_bytes())
                .collect();
            b.push("idx", Dtype::U32, &idx);
            let values: Vec<f32> = kept.iter().map(|&i| update[i]).collect();
            b.push_f32("val", &values);
        }
        CodecSpec::Sign => {
            if update.iter().any(|v| !v.is_finite()) {
                return Err(WireError::Codec("sign requires finite values".into()));
            }
            let mut bits = vec![0u8; update.len().div_ceil(8)];
            oasis_tensor::simd::pack_signs(update, &mut bits);
            let mag = if update.is_empty() {
                0.0
            } else {
                (update.iter().map(|&v| f64::from(v.abs())).sum::<f64>() / update.len() as f64)
                    as f32
            };
            b.push("bits", Dtype::U8, &bits);
            b.push_f32("mag", &[mag]);
        }
    }
    Ok(b.finish())
}

/// Checks every codec on `update`: byte-equal frames, or the same
/// error from both.
fn check(update: &[f32]) {
    let n = update.len();
    for spec in [
        CodecSpec::Raw,
        CodecSpec::Q8,
        CodecSpec::Sign,
        CodecSpec::TopK { k: 1 },
        CodecSpec::TopK { k: 7 },
        CodecSpec::TopK { k: n / 2 + 1 },
        CodecSpec::TopK { k: n + 5 },
    ] {
        let codec = spec.build();
        match (codec.encode(update), two_copy_encode(spec, update)) {
            (Ok(new), Ok(old)) => {
                assert!(new.payload == old, "{spec}: frames differ at n = {n}");
                assert_eq!(new.payload.len(), codec.encoded_len(n));
            }
            (Err(new), Err(old)) => assert_eq!(new.to_string(), old.to_string()),
            (new, old) => panic!(
                "{spec}: writer {:?} vs two-copy {:?}",
                new.map(|e| e.payload.len()),
                old.map(|o| o.len())
            ),
        }
    }
}

/// Values whose bits are drawn uniformly: NaNs, infinities and
/// subnormals included.
fn any_bits() -> impl Strategy<Value = f32> {
    (0u32..=u32::MAX).prop_map(f32::from_bits)
}

/// Finite values: mostly moderate, some from uniform bits (non-finite
/// draws become `-0.0`), some at the extremes q8's f64 range
/// arithmetic guards against.
fn finite() -> impl Strategy<Value = f32> {
    const EXTREMES: [f32; 5] = [0.0, -0.0, f32::MAX, -f32::MAX, f32::MIN_POSITIVE];
    prop_oneof![
        -1e3f32..1e3,
        -1e3f32..1e3,
        -1e3f32..1e3,
        any_bits().prop_map(|v| if v.is_finite() { v } else { -0.0 }),
        (0..EXTREMES.len()).prop_map(|i| EXTREMES[i]),
    ]
}

proptest! {
    #[test]
    fn finite_updates_frame_identically(update in collection::vec(finite(), 0..=1000)) {
        check(&update);
    }

    #[test]
    fn any_bits_frame_identically(update in collection::vec(any_bits(), 0..=1000)) {
        check(&update);
    }

    #[test]
    fn one_non_finite_value_fails_both(
        (mut update, at) in collection::vec(finite(), 1..=1000)
            .prop_flat_map(|u| { let n = u.len(); (Just(u), 0..n) }),
        bad in (0usize..4).prop_map(|i| [f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY][i]),
    ) {
        update[at] = bad;
        check(&update);
    }
}
