//! The streaming weighted-sum aggregator.

use oasis_fl::{FlError, Result};
use oasis_wire::{EncodedUpdate, UpdateCodec};

/// Folds delivered updates into a running sample-weighted sum, one
/// wire frame at a time.
///
/// Memory is the whole point: the aggregator owns exactly one
/// model-sized accumulator — `4·n` bytes — no matter how many clients
/// fold into it. Each frame is consumed as a *borrowed view*
/// ([`UpdateCodec::decode_view`]): with the raw codec an aligned
/// frame folds straight off the wire with zero post-decode copies and
/// the scratch slot stays empty; lossy codecs decode into one reused
/// model-sized slot, for `2 × 4·n` total. It reports its own
/// footprint via [`StreamingAggregator::peak_bytes`] so tests can
/// assert the bound rather than trust the comment.
///
/// Folding is strictly sequential in call order, so the FP
/// accumulation sequence — and therefore the aggregated update, bit
/// for bit — is independent of thread count. Called in delivery order
/// with weights `samples_i / total`, it is sample-weighted FedAvg.
#[derive(Debug)]
pub struct StreamingAggregator {
    agg: Vec<f32>,
    scratch: Vec<f32>,
    folded: usize,
}

impl StreamingAggregator {
    /// An empty accumulator for an `n`-parameter model. The scratch
    /// slot starts empty and only materializes if a frame actually
    /// needs a decode copy (lossy codec or misaligned raw payload).
    pub fn new(n: usize) -> Self {
        StreamingAggregator {
            agg: vec![0.0; n],
            scratch: Vec::new(),
            folded: 0,
        }
    }

    /// Decodes one delivered frame to a borrowed view and folds it in
    /// with FedAvg weight `weight` (`samples_i / total`).
    ///
    /// # Errors
    ///
    /// Propagates codec failures; returns [`FlError::UpdateLength`]
    /// when the frame's element count disagrees with the model.
    pub fn fold(
        &mut self,
        codec: &dyn UpdateCodec,
        frame: &EncodedUpdate,
        weight: f32,
    ) -> Result<()> {
        let _span = oasis_telemetry::span("agg.fold");
        let view = codec.decode_view(frame, &mut self.scratch)?;
        if view.len() != self.agg.len() {
            return Err(FlError::UpdateLength {
                len: view.len(),
                expected: self.agg.len(),
            });
        }
        for (a, &g) in self.agg.iter_mut().zip(view) {
            *a += weight * g;
        }
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

    /// The aggregator's actual heap footprint in bytes: accumulator
    /// plus whatever scratch the codec forced. `4·n` on the raw
    /// zero-copy path, `2 × 4·n` for lossy codecs — the population
    /// memory bound tests assert on this.
    pub fn peak_bytes(&self) -> usize {
        (self.agg.len() + self.scratch.capacity()) * std::mem::size_of::<f32>()
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
    fn raw_footprint_is_one_model_buffer() {
        // The zero-copy pin: raw frames are folded as borrowed views,
        // so no matter how many fold in, the aggregator never
        // materializes decode scratch — its footprint is exactly the
        // accumulator.
        let n = 4096usize;
        let codec = CodecSpec::Raw.build();
        let mut agg = StreamingAggregator::new(n);
        assert_eq!(agg.peak_bytes(), 4 * n);
        let frame = codec.encode(&vec![1.0f32; n]).unwrap();
        for _ in 0..100 {
            agg.fold(&*codec, &frame, 0.01).unwrap();
        }
        assert_eq!(
            agg.peak_bytes(),
            4 * n,
            "raw fold must not copy frames into scratch"
        );
    }

    #[test]
    fn lossy_footprint_is_two_model_buffers() {
        let n = 4096usize;
        let codec = CodecSpec::Q8.build();
        let mut agg = StreamingAggregator::new(n);
        let frame = codec.encode(&vec![1.0f32; n]).unwrap();
        for _ in 0..100 {
            agg.fold(&*codec, &frame, 0.01).unwrap();
        }
        assert_eq!(
            agg.peak_bytes(),
            2 * 4 * n,
            "lossy fold needs exactly one reused decode slot"
        );
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
