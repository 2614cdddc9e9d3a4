//! The streaming weighted-sum aggregator.

use oasis_fl::{FlError, Result};
use oasis_wire::{EncodedUpdate, UpdateCodec};

/// Folds delivered updates into a running sample-weighted sum, one
/// wire frame at a time.
///
/// Memory is the whole point: the aggregator owns exactly one
/// model-sized accumulator — `4·n` bytes — no matter how many clients
/// fold into it or which codec they use. Each codec folds its own
/// frame into it ([`UpdateCodec::fold_into`]): q8 dequantizes and adds
/// in one pass, raw adds straight off the borrowed wire payload, sign
/// and top-k add directly, and no frame is decoded into a buffer
/// first. [`StreamingAggregator::peak_bytes`] reports that
/// accumulator. It cannot see a temporary made inside a codec's fold;
/// `tests/fold_copies.rs` counts those for the raw codec, whose fold
/// adds from a view of the wire payload.
///
/// A frame is checked before anything is added (element count,
/// finite values; see [`UpdateCodec::fold_into`]), so a rejected
/// frame leaves the sum bit for bit as it was.
///
/// Folding is strictly sequential in call order, so the FP
/// accumulation sequence — and therefore the aggregated update, bit
/// for bit — is independent of thread count. Called in delivery order
/// with weights `samples_i / total`, it is sample-weighted FedAvg.
#[derive(Debug)]
pub struct StreamingAggregator {
    agg: Vec<f32>,
    folded: usize,
}

impl StreamingAggregator {
    /// An empty accumulator for an `n`-parameter model.
    pub fn new(n: usize) -> Self {
        StreamingAggregator {
            agg: vec![0.0; n],
            folded: 0,
        }
    }

    /// Folds one delivered frame in with FedAvg weight `weight`
    /// (`samples_i / total`), through its codec's
    /// [`UpdateCodec::fold_into`].
    ///
    /// # Errors
    ///
    /// Returns [`FlError::UpdateLength`] when the frame's element
    /// count disagrees with the model, and propagates the codec's
    /// rejection of a malformed or non-finite frame; either way the
    /// sum is unchanged.
    pub fn fold(
        &mut self,
        codec: &dyn UpdateCodec,
        frame: &EncodedUpdate,
        weight: f32,
    ) -> Result<()> {
        let _span = oasis_telemetry::span("agg.fold");
        if frame.n != self.agg.len() {
            return Err(FlError::UpdateLength {
                len: frame.n,
                expected: self.agg.len(),
            });
        }
        codec.fold_into(frame, weight, &mut self.agg)?;
        self.folded += 1;
        Ok(())
    }

    /// How many frames have been folded in.
    pub fn folded(&self) -> usize {
        self.folded
    }

    /// The running weighted sum.
    pub fn as_slice(&self) -> &[f32] {
        &self.agg
    }

    /// L2 norm of the running sum — the round report's
    /// `update_norm`.
    pub fn norm(&self) -> f32 {
        self.agg.iter().map(|g| g * g).sum::<f32>().sqrt()
    }

    /// The aggregator's own heap footprint in bytes: the accumulator,
    /// `4·n` for every codec. A temporary inside a codec's
    /// [`UpdateCodec::fold_into`] is not counted here.
    pub fn peak_bytes(&self) -> usize {
        self.agg.len() * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_wire::CodecSpec;

    #[test]
    fn fold_matches_direct_weighted_sum() {
        let codec = CodecSpec::Raw.build();
        let a = vec![1.0f32, -2.0, 3.0];
        let b = vec![0.5f32, 4.0, -1.0];
        let mut agg = StreamingAggregator::new(3);
        agg.fold(&*codec, &codec.encode(&a).unwrap(), 0.25).unwrap();
        agg.fold(&*codec, &codec.encode(&b).unwrap(), 0.75).unwrap();
        let expect: Vec<f32> = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| 0.25 * x + 0.75 * y)
            .collect();
        assert_eq!(agg.as_slice(), &expect[..]);
        assert_eq!(agg.folded(), 2);
    }

    #[test]
    fn footprint_is_one_model_buffer_for_every_codec() {
        // The aggregator holds no buffer beside the accumulator,
        // however many frames fold in (copies inside a codec's fold
        // are counted by `tests/fold_copies.rs`).
        let n = 4096usize;
        for spec in [
            CodecSpec::Raw,
            CodecSpec::Q8,
            CodecSpec::TopK { k: 64 },
            CodecSpec::Sign,
        ] {
            let codec = spec.build();
            let mut agg = StreamingAggregator::new(n);
            assert_eq!(agg.peak_bytes(), 4 * n);
            let frame = codec.encode(&vec![1.0f32; n]).unwrap();
            for _ in 0..100 {
                agg.fold(&*codec, &frame, 0.01).unwrap();
            }
            assert_eq!(agg.peak_bytes(), 4 * n, "{spec}");
        }
    }

    #[test]
    fn non_finite_frames_fail_and_leave_the_sum_alone() {
        let n = 37usize;
        let update: Vec<f32> = (0..n).map(|i| (i as f32 * 0.7).sin()).collect();
        // A q8 frame whose affine `lo` is NaN, and a raw frame with one
        // NaN value: built by patching valid frames' payload bytes.
        let q8 = CodecSpec::Q8.build();
        let mut bad_q8 = q8.encode(&update).unwrap();
        let lo = update.iter().copied().fold(f32::INFINITY, f32::min);
        patch_f32(&mut bad_q8.payload, lo, f32::NAN);
        let raw = CodecSpec::Raw.build();
        let mut bad_raw = raw.encode(&update).unwrap();
        patch_f32(&mut bad_raw.payload, update[5], f32::NAN);
        for (codec, bad) in [(&q8, bad_q8), (&raw, bad_raw)] {
            let mut agg = StreamingAggregator::new(n);
            agg.fold(&**codec, &codec.encode(&update).unwrap(), 0.5)
                .unwrap();
            let before: Vec<u32> = agg.as_slice().iter().map(|v| v.to_bits()).collect();
            assert!(agg.fold(&**codec, &bad, 0.5).is_err());
            let after: Vec<u32> = agg.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(after, before, "{}", codec.spec());
            assert_eq!(agg.folded(), 1);
        }
    }

    /// Overwrites the last occurrence of `old`'s bytes in a payload.
    fn patch_f32(payload: &mut [u8], old: f32, new: f32) {
        let pat = old.to_le_bytes();
        let at = (0..=payload.len() - 4)
            .rev()
            .find(|&i| payload[i..i + 4] == pat)
            .expect("value in payload");
        payload[at..at + 4].copy_from_slice(&new.to_le_bytes());
    }

    #[test]
    fn length_mismatch_is_an_error() {
        let codec = CodecSpec::Raw.build();
        let mut agg = StreamingAggregator::new(4);
        let frame = codec.encode(&[1.0, 2.0]).unwrap();
        assert!(matches!(
            agg.fold(&*codec, &frame, 1.0),
            Err(FlError::UpdateLength {
                len: 2,
                expected: 4
            })
        ));
    }
}
