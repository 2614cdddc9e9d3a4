//! The attack harness's record-level DP path against the per-sample
//! loop it replaced.
//!
//! `run_attack` computes a clipping stack's upload with one batched
//! malicious-layer forward, a per-sample tail through the later layers,
//! and the fused `Linear::clipped_grad_mean` kernel. [`oracle`] below
//! is the earlier implementation, kept verbatim: for every sample, a
//! B = 1 forward and backward through the whole model, the
//! materialized malicious-layer gradient's `norm_sq`, and an `axpy`
//! into a running sum. The uploaded update (captured off the wire
//! before any decoding) and the client loss must match it bit for bit
//! for every attack family, batch size, clip regime, and pool width.

use std::sync::Mutex;

use oasis::Oasis;
use oasis_attacks::{
    run_attack_over_wire, ActiveAttack, CahAttack, LinearModelAttack, QbiAttack, RtfAttack,
};
use oasis_augment::PolicyKind;
use oasis_data::{cifar_like_with, Batch};
use oasis_fl::{ClipStage, DefenseStack};
use oasis_nn::{softmax_cross_entropy, Layer, Linear, Mode, Sequential};
use oasis_tensor::{parallel, Tensor};
use oasis_wire::{CodecSpec, EncodedUpdate, RawCodec, UpdateCodec, WireError};
use rand::rngs::StdRng;
use rand::SeedableRng;

type Res<T> = std::result::Result<T, Box<dyn std::error::Error>>;

/// A lossless codec that keeps a copy of the last update it encoded:
/// the client's upload exactly as it left the update stages.
#[derive(Default)]
struct Capture(Mutex<Option<Vec<f32>>>);

impl UpdateCodec for Capture {
    fn spec(&self) -> CodecSpec {
        CodecSpec::Raw
    }

    fn encode(&self, update: &[f32]) -> Result<EncodedUpdate, WireError> {
        *self.0.lock().unwrap() = Some(update.to_vec());
        RawCodec.encode(update)
    }

    fn decode_to(&self, encoded: &EncodedUpdate, out: &mut [f32]) -> Result<(), WireError> {
        RawCodec.decode_to(encoded, out)
    }

    fn fold_into(
        &self,
        encoded: &EncodedUpdate,
        weight: f32,
        acc: &mut [f32],
    ) -> Result<(), WireError> {
        RawCodec.fold_into(encoded, weight, acc)
    }

    fn encoded_len(&self, n: usize) -> usize {
        RawCodec.encoded_len(n)
    }
}

fn malicious_layer(model: &Sequential) -> Res<&Linear> {
    Ok(model
        .layer_as::<Linear>(0)
        .ok_or("malicious layer missing")?)
}

/// The per-sample loop `run_attack` used before the fused kernel,
/// verbatim: returns the pre-noise upload and the client loss.
fn oracle(
    model: &mut Sequential,
    processed: &Batch,
    geometry: (usize, usize, usize),
    clip_norm: f32,
) -> Res<(Vec<f32>, f32)> {
    let b = processed.len();
    let d = geometry.0 * geometry.1 * geometry.2;
    let n = malicious_layer(model)?.bias().numel();
    let mut sum_gw = Tensor::zeros(&[n, d]);
    let mut sum_gb = Tensor::zeros(&[n]);
    let mut total_loss = 0.0f32;
    for i in 0..b {
        let xi = Tensor::from_vec(processed.images[i].data().to_vec(), &[1, d])?;
        model.zero_grad();
        let logits = model.forward(&xi, Mode::Train)?;
        let out = softmax_cross_entropy(&logits, &processed.labels[i..i + 1])?;
        model.backward(&out.grad)?;
        total_loss += out.loss;
        let lin = malicious_layer(model)?;
        let norm = (lin.grad_weight().norm_sq() + lin.grad_bias().norm_sq()).sqrt();
        let scale = if norm > clip_norm {
            clip_norm / norm
        } else {
            1.0
        };
        sum_gw.axpy(scale, lin.grad_weight())?;
        sum_gb.axpy(scale, lin.grad_bias())?;
    }
    let inv_b = 1.0 / b as f32;
    sum_gw.scale_in_place(inv_b);
    sum_gb.scale_in_place(inv_b);
    let mut update = sum_gw.data().to_vec();
    update.extend_from_slice(sum_gb.data());
    Ok((update, total_loss * inv_b))
}

const CLASSES: usize = 8;
const SEED: u64 = 5;

fn data(side: usize, seed: u64) -> Batch {
    let ds = cifar_like_with(CLASSES, 4, side, seed);
    Batch::from_items(ds.items().to_vec())
}

/// Attack families under test, at two malicious-layer widths where
/// it matters: `d ≥ 2n` keeps layer 0's product on the dot-product
/// kernel, `d < 2n` sends it through the transposed `matmul`.
fn attacks(calibration: &Batch) -> Vec<(String, Box<dyn ActiveAttack>)> {
    let cal = &calibration.images;
    vec![
        (
            "rtf:40".into(),
            Box::new(RtfAttack::calibrated(40, cal).unwrap()),
        ),
        (
            "rtf:120".into(),
            Box::new(RtfAttack::calibrated(120, cal).unwrap()),
        ),
        (
            "cah:40".into(),
            Box::new(CahAttack::calibrated(40, 0.3, cal, 3).unwrap()),
        ),
        (
            "qbi:40".into(),
            Box::new(QbiAttack::calibrated(40, 8, cal, 3).unwrap()),
        ),
        (
            "linear".into(),
            Box::new(LinearModelAttack::new(CLASSES).unwrap()),
        ),
    ]
}

fn stack(oasis: bool, clip: f32) -> DefenseStack {
    let mut stack = DefenseStack::identity();
    if oasis {
        stack.push(Box::new(Oasis::new(PolicyKind::MajorRotation)));
    }
    stack.push(Box::new(ClipStage::new(clip)));
    stack
}

#[test]
fn fused_clip_and_sum_matches_the_per_sample_loop_bit_exactly() {
    let calibration = data(8, 1);
    let pool = data(8, 2);
    // (batch, OASIS MR stage): MR expands 32 → 128 samples.
    let batches = [(1, false), (5, false), (32, false), (32, true)];
    // Inactive first (the unclipped mean), then active for some
    // samples, then for all.
    let clips = [1e30, 0.05, 1e-4];
    let mut clip_changed_an_update = false;
    for (name, attack) in attacks(&calibration) {
        for &(b, oasis) in &batches {
            let batch = Batch::new(pool.images[..b].to_vec(), pool.labels[..b].to_vec());
            let geometry = batch.images[0].dims();
            let mut unclipped = Vec::new();
            for &clip in &clips {
                let defense = stack(oasis, clip);
                let processed =
                    defense.process_batch(&batch, &mut StdRng::seed_from_u64(SEED ^ 0x00DE_F317));
                let mut model = attack.build_model(geometry, CLASSES, SEED).unwrap();
                let (want, want_loss) = oracle(&mut model, &processed, geometry, clip).unwrap();
                if unclipped.is_empty() {
                    unclipped = want.clone();
                } else {
                    clip_changed_an_update |= want != unclipped;
                }
                for threads in [1, 2] {
                    let capture = Capture::default();
                    let outcome = parallel::with_threads(threads, || {
                        run_attack_over_wire(
                            attack.as_ref(),
                            &batch,
                            &defense,
                            CLASSES,
                            SEED,
                            &capture,
                        )
                        .unwrap()
                    });
                    let case = format!("{name} b={b} oasis={oasis} clip={clip} t={threads}");
                    assert_eq!(outcome.processed_images, processed.images, "{case}");
                    let got = capture.0.lock().unwrap().take().expect("update captured");
                    assert_eq!(got.len(), want.len(), "{case}");
                    let differing = got
                        .iter()
                        .zip(&want)
                        .filter(|(g, w)| g.to_bits() != w.to_bits())
                        .count();
                    assert_eq!(differing, 0, "{case}: update elements differ");
                    assert_eq!(
                        outcome.client_loss.to_bits(),
                        want_loss.to_bits(),
                        "{case}: loss"
                    );
                }
            }
        }
    }
    assert!(clip_changed_an_update, "the active clips never engaged");
}
