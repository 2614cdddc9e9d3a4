//! The attack-evaluation harness: run an attack against a (possibly
//! defended) client batch, reconstruct, match, and summarize — the
//! code path behind every PSNR number in the paper's figures.

use oasis_data::Batch;
use oasis_fl::DefenseStack;
use oasis_image::Image;
use oasis_metrics::{
    best_psnr_per_original_seeded, match_greedy_coarse, ReconstructionMatch, Summary,
};
use oasis_nn::{param_count, softmax_cross_entropy, Layer, Linear, Mode, Sequential};
use oasis_tensor::{parallel, Tensor};
use oasis_wire::UpdateCodec;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{dedupe_images, invert_neuron, AttackError, Result};

/// An active reconstruction attack by a dishonest server.
///
/// An attack is a malicious global model ([`ActiveAttack::build_model`])
/// plus a rule ([`ActiveAttack::invert`]) that turns one row of the
/// malicious layer's gradients into a candidate input. The sweep over
/// the rows, image assembly and dedupe are shared ([`reconstruct`]), so
/// a new attack family is a `build_model` and, when plain Eq. 6 does
/// not fit, an `invert`. The harness below runs the victim's step on
/// that model directly; no attack runs on the real round yet
/// (ROADMAP item 2).
pub trait ActiveAttack: Send + Sync {
    /// Display name ("RTF", "CAH", …).
    fn name(&self) -> &'static str;

    /// Builds the malicious model for inputs of the given image
    /// geometry and `classes` output classes.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration cannot produce a model.
    fn build_model(
        &self,
        geometry: (usize, usize, usize),
        classes: usize,
        seed: u64,
    ) -> Result<Sequential>;

    /// Inverts row `i` of the malicious layer's gradients into a
    /// flattened candidate input (a rank-1 tensor whose buffer becomes
    /// the candidate image's), or `None` when the row carries no
    /// signal. `grad_weight` holds one row per entry of `grad_bias`,
    /// back to back: row `i` is `grad_weight[i·d..(i+1)·d]` with
    /// `d = grad_weight.len() / grad_bias.len()`. The default is the
    /// single-neuron Eq. 6 rule, [`invert_neuron`].
    fn invert(&self, i: usize, grad_weight: &[f32], grad_bias: &[f32]) -> Option<Tensor> {
        invert_neuron(grad_row(grad_weight, grad_bias, i), grad_bias[i])
    }
}

/// Row `i` of a weight gradient stored row after row, one row per
/// bias entry.
pub(crate) fn grad_row<'a>(grad_weight: &'a [f32], grad_bias: &[f32], i: usize) -> &'a [f32] {
    let d = grad_weight.len() / grad_bias.len();
    &grad_weight[i * d..(i + 1) * d]
}

/// Minimum total gradient elements (`rows · d`) before the inversion
/// sweep fans out across the worker pool. Each row's inversion is
/// only a `d`-long divide, so small sweeps would pay more in dispatch
/// latency than they save.
const PAR_MIN_SWEEP_ELEMS: usize = 64 * 1024;

/// Inverts every row of the malicious layer's gradients with
/// `attack`'s [`ActiveAttack::invert`] rule into candidate images of
/// the given geometry, then drops near-duplicates and degenerate
/// outputs ([`dedupe_images`]).
///
/// Rows invert independently, so the sweep fans out across the worker
/// pool; it keeps index order, so dedupe sees the same candidate
/// sequence at any thread count. Each candidate image adopts the
/// buffer its row inverted into: one allocation per candidate.
pub fn reconstruct(
    attack: &dyn ActiveAttack,
    grad_weight: &[f32],
    grad_bias: &[f32],
    geometry: (usize, usize, usize),
) -> Vec<Image> {
    let (c, h, w) = geometry;
    let n = grad_bias.len();
    let candidates = parallel::map_range_min(n, n * c * h * w, PAR_MIN_SWEEP_ELEMS, |i| {
        attack
            .invert(i, grad_weight, grad_bias)
            .and_then(|values| Image::from_tensor(c, h, w, values).ok())
    });
    let _span = oasis_telemetry::span("reconstruct.dedupe");
    dedupe_images(candidates.into_iter().flatten().collect())
}

/// What the client's update looked like on the wire during an
/// attacked round (present when the round ran over a codec).
#[derive(Debug, Clone, PartialEq)]
pub struct WireTrace {
    /// Uncompressed update size (`4·n` for the full model update).
    pub raw_bytes: usize,
    /// Encoded update size actually on the wire.
    pub encoded_bytes: usize,
    /// Malicious-model broadcast size (downlink).
    pub broadcast_bytes: usize,
}

impl WireTrace {
    /// `raw / encoded` — > 1 means the codec compresses.
    pub fn compression_ratio(&self) -> f64 {
        if self.encoded_bytes == 0 {
            return 1.0;
        }
        self.raw_bytes as f64 / self.encoded_bytes as f64
    }
}

/// Everything the figures need from one attack execution.
#[derive(Debug, Clone)]
pub struct AttackOutcome {
    /// One-to-one reconstruction↔original matches, best first.
    pub matches: Vec<ReconstructionMatch>,
    /// PSNR of each match (the values behind the paper's boxplots).
    pub matched_psnrs: Vec<f64>,
    /// Summary statistics of `matched_psnrs` (the reported averages).
    pub summary: Summary,
    /// For every original sample, the best PSNR any reconstruction
    /// achieved against it (per-sample leakage).
    pub per_original_best: Vec<f64>,
    /// The deduplicated reconstruction pool (for the visual figures).
    pub reconstructions: Vec<Image>,
    /// The batch the client actually trained on (`D` or `D′`).
    pub processed_images: Vec<Image>,
    /// The client's loss during the attacked round (diagnostic).
    pub client_loss: f32,
    /// Wire sizes of the attacked update (None when the round ran
    /// in-process, without a codec).
    pub wire: Option<WireTrace>,
}

impl AttackOutcome {
    /// Mean matched PSNR — the single number in the paper's grid
    /// figures (Figures 3 and 4).
    pub fn mean_psnr(&self) -> f64 {
        self.summary.mean
    }

    /// Fraction of originals whose best reconstruction exceeds
    /// `threshold_db` — a leak-rate view used by the Proposition 1
    /// ablation.
    pub fn leak_rate(&self, threshold_db: f64) -> f64 {
        if self.per_original_best.is_empty() {
            return 0.0;
        }
        let leaked = self
            .per_original_best
            .iter()
            .filter(|&&p| p > threshold_db)
            .count();
        leaked as f64 / self.per_original_best.len() as f64
    }
}

/// Side of coarse downsampling used for match *selection* (matched
/// pairs are re-scored at full resolution).
const COARSE_MATCH_SIDE: usize = 8;

/// Runs one attacked FL round: the server dispatches the malicious
/// model, the client runs its [`DefenseStack`] (batch stages on the
/// sampled batch, update stages on the uploaded update), the attacker
/// inverts what it receives.
///
/// Stacks without an update stage upload the exact full-batch
/// gradient. Stacks that clip ([`DefenseStack::clip_norm`]) switch
/// the client onto the per-sample gradient path: each sample's
/// malicious-layer gradient is clipped to the bound before averaging
/// (record-level DP-SGD), and only the malicious layer's update is
/// uploaded — then every update stage's perturbation applies.
///
/// PSNRs are always computed against the **original** batch `D` — the
/// private data the defense is protecting — regardless of what the
/// client trained on.
///
/// # Errors
///
/// Propagates model-construction and execution failures.
pub fn run_attack(
    attack: &dyn ActiveAttack,
    batch: &Batch,
    defense: &DefenseStack,
    classes: usize,
    seed: u64,
) -> Result<AttackOutcome> {
    run_attack_inner(attack, batch, defense, classes, seed, None)
}

/// Like [`run_attack`], but the client's update crosses the wire: the
/// flat update is encoded with `codec`, the server folds the frame
/// with weight 1 into a zeroed buffer ([`UpdateCodec::fold_into`], as
/// the FL round folds each frame), and the attacker inverts what the
/// *received* gradients say — lossy codecs therefore degrade
/// reconstruction, a new result surface. The outcome's
/// [`AttackOutcome::wire`] records the exact bytes on the wire. With
/// the lossless `raw` codec this reproduces the in-process numbers
/// bit-exactly.
///
/// # Errors
///
/// Propagates model-construction, execution, and codec failures; a
/// frame the codec refuses, such as a non-finite update, fails the
/// trial.
pub fn run_attack_over_wire(
    attack: &dyn ActiveAttack,
    batch: &Batch,
    defense: &DefenseStack,
    classes: usize,
    seed: u64,
    codec: &dyn UpdateCodec,
) -> Result<AttackOutcome> {
    run_attack_inner(attack, batch, defense, classes, seed, Some(codec))
}

/// The shared attacked-round harness behind [`run_attack`] and
/// [`run_attack_over_wire`]: build the malicious model, compute the
/// uploaded gradients on the defended batch (the stack's
/// [`DefenseStack::local_step`] when it does not clip; per-sample
/// clipped otherwise) and perturb them, optionally send the update
/// through a wire codec, invert layer 0's window of it, and score.
fn run_attack_inner(
    attack: &dyn ActiveAttack,
    batch: &Batch,
    defense: &DefenseStack,
    classes: usize,
    seed: u64,
    codec: Option<&dyn UpdateCodec>,
) -> Result<AttackOutcome> {
    let setup_span = oasis_telemetry::span("attack.setup");
    let geometry = batch
        .images
        .first()
        .ok_or_else(|| AttackError::BadConfig("empty batch".into()))?
        .dims();
    let mut model = attack.build_model(geometry, classes, seed)?;
    let lin = malicious_layer(&model)?;
    let (weight_len, bias_len) = (lin.weight().numel(), lin.bias().numel());
    let broadcast_bytes = param_count(&model) * 4;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x00DE_F317);
    drop(setup_span);
    let mut wire: Option<WireTrace> = None;
    // The server reconstructs from what it *receives*: when a codec
    // is installed, the client's flat update crosses the wire, and the
    // server zeroes the buffer the update left in and folds the frame
    // into it with weight 1, as the FL round folds each frame.
    let mut transmit = |mut update: Vec<f32>| -> Result<Vec<f32>> {
        if let Some(codec) = codec {
            let encoded = codec.encode(&update)?;
            wire = Some(WireTrace {
                raw_bytes: encoded.raw_byte_size(),
                encoded_bytes: encoded.byte_size(),
                broadcast_bytes,
            });
            update.fill(0.0);
            codec.fold_into(&encoded, 1.0, &mut update)?;
        }
        Ok(update)
    };

    let (loss, processed, received) = match defense.clip_norm() {
        None => {
            // The exact-gradient path: the client's local step.
            let _client_span = oasis_telemetry::span("attack.client_step");
            let step = defense.local_step(&mut model, batch, &mut rng)?;
            // Nothing reads the model after the step (the inversion
            // reads the received update): free it before the update
            // crosses the wire.
            drop(model);
            (step.loss, step.processed, transmit(step.update)?)
        }
        Some(clip_norm) => {
            // The per-sample path (record-level DP-SGD): per-sample
            // gradients, clipped then averaged, then the stack's
            // update perturbation (e.g. Gaussian noise of std
            // `σ · C / B` from the DP stage).
            let _client_span = oasis_telemetry::span("attack.client_step");
            let processed = defense.process_batch(batch, &mut rng);
            let b = processed.len();
            let x = processed.to_matrix();
            let (deltas, total_loss) = per_sample_deltas(&mut model, &x, &processed.labels)?;
            drop(model);
            // What is clipped is each sample's gradient of the
            // malicious layer's weight and bias — the only parameters
            // uploaded and all the attacker reads (real DP-SGD would
            // clip every layer's gradient jointly). The clip-and-sum
            // never builds a per-sample gradient tensor; it is
            // bit-identical to doing so (see `Linear::clipped_grad_mean`).
            let clip_span = oasis_telemetry::span("attack.clip");
            let mut update = Linear::clipped_grad_mean(&x, &deltas, clip_norm)?;
            drop(clip_span);
            // Only the (perturbed) malicious-layer update is uploaded;
            // that is what crosses the wire.
            defense.perturb_update(&mut update, b, &mut rng);
            (total_loss * (1.0 / b as f32), processed, transmit(update)?)
        }
    };
    // Layer 0 leads the flat update, its weight rows then its bias
    // (`Linear`'s visit order, which `clipped_grad_mean` also writes):
    // the per-sample update is that window alone.
    let (grad_weight, grad_bias) = received[..weight_len + bias_len].split_at(weight_len);
    let recon_span = oasis_telemetry::span("attack.reconstruct");
    let recons = reconstruct(attack, grad_weight, grad_bias, geometry);
    drop(recon_span);

    Ok(score(recons, batch, processed, loss, wire))
}

/// The attacked first layer the adversary reads gradients from.
fn malicious_layer(model: &Sequential) -> Result<&Linear> {
    model
        .layer_as::<Linear>(0)
        .ok_or_else(|| AttackError::BadConfig("malicious layer missing".into()))
}

/// Each sample's upstream gradient `δ_s = ∂L_s/∂z_s` at the malicious
/// layer's output `z`, as the rows of a `(b, n)` tensor, plus the
/// summed per-sample loss.
///
/// Layer 0 runs once on the whole `(b, d)` batch: its product computes
/// every output row independently, so each row equals the B = 1
/// forward. The layers after it and the loss then run per sample
/// (B = 1), as a per-sample backward pass would, writing their own
/// gradients (which nothing reads) into one tail buffer re-zeroed for
/// each sample. Layer 0's own backward is never run —
/// [`Linear::clipped_grad_mean`] takes its place.
fn per_sample_deltas(
    model: &mut Sequential,
    x: &Tensor,
    labels: &[usize],
) -> Result<(Tensor, f32)> {
    let malicious = model
        .layer_as_mut::<Linear>(0)
        .ok_or_else(|| AttackError::BadConfig("malicious layer missing".into()))?;
    // Eval: nothing reads a cached input, since layer 0 never runs
    // backward here.
    let z = malicious.forward(x, Mode::Eval)?;
    let malicious_params = param_count(malicious);
    let (b, n) = (z.dims()[0], z.dims()[1]);
    let mut deltas = Tensor::zeros(&[b, n]);
    let mut tail = vec![0.0f32; param_count(model) - malicious_params];
    let mut total_loss = 0.0f32;
    for (s, delta) in deltas.data_mut().chunks_exact_mut(n).enumerate() {
        let mut h = z.slice_rows(s, s + 1)?;
        for l in 1..model.len() {
            h = model
                .layer_mut(l)
                .expect("index in range")
                .forward(&h, Mode::Train)?;
        }
        let out = softmax_cross_entropy(&h, &labels[s..s + 1])?;
        tail.fill(0.0);
        let g = model.backward_from(1, &out.grad, &mut tail)?;
        delta.copy_from_slice(g.data());
        total_loss += out.loss;
    }
    Ok((deltas, total_loss))
}

fn score(
    mut recons: Vec<Image>,
    batch: &Batch,
    processed: Batch,
    client_loss: f32,
    wire: Option<WireTrace>,
) -> AttackOutcome {
    let _span = oasis_telemetry::span("attack.score");
    let matches = {
        let _span = oasis_telemetry::span("attack.score.match");
        // Clamp reconstructions into the displayable range before
        // scoring, mirroring how reconstructed images are rendered and
        // compared.
        for r in &mut recons {
            r.clamp01_in_place();
        }
        match_greedy_coarse(&recons, &batch.images, COARSE_MATCH_SIDE)
    };
    let matched_psnrs: Vec<f64> = matches.iter().map(|m| m.psnr).collect();
    let summary = Summary::from_values(&matched_psnrs);
    // The matched pairs seed the bounds: most other pairs then stop
    // after a few hundred pixels.
    let per_original_best = {
        let _span = oasis_telemetry::span("attack.score.best");
        best_psnr_per_original_seeded(&recons, &batch.images, &matches)
    };
    AttackOutcome {
        matches,
        matched_psnrs,
        summary,
        per_original_best,
        reconstructions: recons,
        processed_images: processed.images,
        client_loss,
        wire,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::RtfAttack;
    use oasis_data::cifar_like_with;
    use oasis_fl::DpStage;

    fn batch_of(n: usize, side: usize, seed: u64) -> Batch {
        let ds = cifar_like_with(n, 1, side, seed);
        Batch::from_items(ds.items().to_vec())
    }

    /// `model`'s malicious-layer window of a flat `update`: its weight
    /// rows, then its bias.
    pub(crate) fn malicious_grads<'a>(
        model: &Sequential,
        update: &'a [f32],
    ) -> (&'a [f32], &'a [f32]) {
        let lin = malicious_layer(model).expect("malicious layer");
        let weight_len = lin.weight().numel();
        update[..weight_len + lin.bias().numel()].split_at(weight_len)
    }

    #[test]
    fn undefended_rtf_outcome_is_near_perfect() {
        let calib = batch_of(64, 12, 1);
        let attack = RtfAttack::calibrated(128, &calib.images).unwrap();
        let batch = batch_of(6, 12, 2);
        let outcome = run_attack(&attack, &batch, &DefenseStack::identity(), 6, 3).unwrap();
        assert_eq!(outcome.matches.len(), 6);
        assert!(
            outcome.mean_psnr() > 80.0,
            "undefended mean PSNR {:.1} dB too low",
            outcome.mean_psnr()
        );
        assert!(outcome.leak_rate(60.0) > 0.5);
    }

    #[test]
    fn empty_batch_is_rejected() {
        let calib = batch_of(8, 8, 1);
        let attack = RtfAttack::calibrated(16, &calib.images).unwrap();
        let empty = Batch::new(vec![], vec![]);
        assert!(run_attack(&attack, &empty, &DefenseStack::identity(), 4, 0).is_err());
    }

    #[test]
    fn dp_noise_degrades_reconstruction() {
        let calib = batch_of(64, 10, 1);
        let attack = RtfAttack::calibrated(64, &calib.images).unwrap();
        let batch = batch_of(4, 10, 2);
        let clean = run_attack(&attack, &batch, &DefenseStack::identity(), 4, 3).unwrap();
        let dp = DefenseStack::of(DpStage::new(1.0, 10.0));
        let noisy = run_attack(&attack, &batch, &dp, 4, 3).unwrap();
        assert!(
            noisy.mean_psnr() < clean.mean_psnr(),
            "DP noise did not reduce PSNR: {:.1} vs {:.1}",
            noisy.mean_psnr(),
            clean.mean_psnr()
        );
    }

    #[test]
    fn raw_wire_reproduces_in_process_numbers_exactly() {
        let calib = batch_of(64, 10, 1);
        let attack = RtfAttack::calibrated(64, &calib.images).unwrap();
        let batch = batch_of(4, 10, 2);
        let codec = oasis_wire::CodecSpec::Raw.build();
        // The identity stack uploads every layer, and layer 0 is a
        // window of the frame; the DP stack takes the per-sample branch
        // and uploads layer 0 alone, so the window is the whole frame.
        for stack in [
            DefenseStack::identity(),
            DefenseStack::of(DpStage::new(1.0, 0.5)),
        ] {
            let in_process = run_attack(&attack, &batch, &stack, 4, 3).unwrap();
            let over_wire =
                run_attack_over_wire(&attack, &batch, &stack, 4, 3, codec.as_ref()).unwrap();
            assert_eq!(over_wire.matched_psnrs, in_process.matched_psnrs);
            assert_eq!(over_wire.per_original_best, in_process.per_original_best);
            assert_eq!(
                over_wire.client_loss.to_bits(),
                in_process.client_loss.to_bits()
            );
            let pixel_bits = |outcome: &AttackOutcome| -> Vec<Vec<u32>> {
                outcome
                    .reconstructions
                    .iter()
                    .map(|r| r.data().iter().map(|v| v.to_bits()).collect())
                    .collect()
            };
            assert!(!in_process.reconstructions.is_empty());
            assert_eq!(pixel_bits(&over_wire), pixel_bits(&in_process));
            let trace = over_wire.wire.expect("wire trace recorded");
            assert!(trace.encoded_bytes > trace.raw_bytes, "header overhead");
            assert!(trace.broadcast_bytes > 0);
            assert!(in_process.wire.is_none());
        }
    }

    #[test]
    fn non_finite_update_fails_the_wire_trial() {
        // Noise of std f32::MAX overflows the update; the raw fold
        // refuses the frame, so the trial errs instead of inverting it.
        let calib = batch_of(64, 10, 1);
        let attack = RtfAttack::calibrated(64, &calib.images).unwrap();
        let batch = batch_of(4, 10, 2);
        let stack = DefenseStack::of(DpStage::new(f32::MAX, f32::MAX));
        let codec = oasis_wire::CodecSpec::Raw.build();
        let result = run_attack_over_wire(&attack, &batch, &stack, 4, 3, codec.as_ref());
        assert!(
            matches!(result, Err(AttackError::Wire(_))),
            "{:?}",
            result.map(|o| o.matched_psnrs)
        );
    }

    #[test]
    fn lossy_wire_degrades_reconstruction() {
        let calib = batch_of(64, 10, 1);
        let attack = RtfAttack::calibrated(64, &calib.images).unwrap();
        let batch = batch_of(4, 10, 2);
        let clean = run_attack(&attack, &batch, &DefenseStack::identity(), 4, 3).unwrap();
        let sign = oasis_wire::CodecSpec::Sign.build();
        let noisy = run_attack_over_wire(
            &attack,
            &batch,
            &DefenseStack::identity(),
            4,
            3,
            sign.as_ref(),
        )
        .unwrap();
        assert!(
            noisy.mean_psnr() < clean.mean_psnr(),
            "1-bit updates should not reconstruct verbatim: {:.1} vs {:.1}",
            noisy.mean_psnr(),
            clean.mean_psnr()
        );
        assert!(noisy.wire.unwrap().compression_ratio() > 10.0);
    }

    #[test]
    fn leak_rate_bounds() {
        let calib = batch_of(16, 8, 1);
        let attack = RtfAttack::calibrated(32, &calib.images).unwrap();
        let batch = batch_of(3, 8, 2);
        let outcome = run_attack(&attack, &batch, &DefenseStack::identity(), 3, 0).unwrap();
        let rate = outcome.leak_rate(100.0);
        assert!((0.0..=1.0).contains(&rate));
    }
}
