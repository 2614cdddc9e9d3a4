//! The composable defense pipeline: the [`Defense`] trait, the
//! [`DefenseStack`] that composes defenses, and the one defended
//! training step every caller shares ([`DefenseStack::local_step`]).
//!
//! A client-side defense can act at two points of the round:
//!
//! 1. **On the batch** ([`Defense::process`]) — transform the sampled
//!    batch `D → D′` *before* gradients are computed: OASIS (paper
//!    Eq. 7) and ATSPrivacy-style replacement.
//! 2. **On the update** ([`Defense::clip_norm`], [`Defense::perturb`])
//!    — clip and perturb the flattened update *after* gradients are
//!    computed, before upload: DP-SGD and plain clipping.
//!
//! A [`DefenseStack`] applies its defenses' batch transforms in stack
//! order, then their update clips and perturbations in stack order;
//! the empty stack is the undefended baseline. Because the stack
//! *owns* the update perturbation, no caller can build the batch
//! transform and forget the DP noise.
//!
//! ```
//! use oasis_fl::{DefenseStack, DpStage};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let stack = DefenseStack::of(DpStage::new(1.0, 0.5));
//! assert_eq!(stack.clip_norm(), Some(1.0));
//! let mut update = vec![3.0f32, 4.0];
//! stack.clip_update(&mut update); // ‖(3,4)‖ = 5 → scaled to norm 1
//! let n: f32 = update.iter().map(|v| v * v).sum::<f32>().sqrt();
//! assert!((n - 1.0).abs() < 1e-6);
//! let mut rng = StdRng::seed_from_u64(0);
//! stack.perturb_update(&mut update, 8, &mut rng); // adds σ·C/B noise
//! ```

use oasis_data::Batch;
use oasis_nn::{param_count, softmax_cross_entropy, Layer, Mode};
use rand::rngs::StdRng;

/// One client-side defense, as a value. Every method but `name`
/// defaults to leaving its point of the round untouched, so a defense
/// overrides only the points it acts at.
pub trait Defense: Send + Sync {
    /// Short family name for reports ("oasis", "dp", …).
    fn name(&self) -> &str;

    /// Transforms the sampled batch before gradient computation. The
    /// OASIS defense returns the augmented batch `D′ = D ∪ ⋃ X′_t` of
    /// paper Eq. 7. The default returns the batch unchanged.
    fn process(&self, batch: Batch, _rng: &mut StdRng) -> Batch {
        batch
    }

    /// How many samples [`Defense::process`] returns for an `n`-sample
    /// batch, without building them. Every batch transform's output
    /// length is a function of its input length alone; the default,
    /// `n`, fits every defense that keeps the batch size.
    fn processed_len(&self, n: usize) -> usize {
        n
    }

    /// Per-sample gradient L2 clip bound, when this defense clips.
    ///
    /// Harnesses that can afford per-sample gradients (the attack
    /// evaluation harness) clip each sample's gradient to this bound
    /// before averaging — record-level DP-SGD. The FL training client
    /// falls back to clipping the whole averaged update
    /// ([`DefenseStack::clip_update`]) — client-level DP.
    fn clip_norm(&self) -> Option<f32> {
        None
    }

    /// Perturbs the averaged update in place. `samples` is the number
    /// of examples averaged into it (`B`), which DP noise scales by.
    /// The default adds nothing.
    fn perturb(&self, _update: &mut [f32], _samples: usize, _rng: &mut StdRng) {}
}

/// The DP-SGD update stage: clip (per-sample where the harness
/// supports it, whole-update otherwise) to `clip`, then add Gaussian
/// noise with standard deviation `noise · clip / B` to the averaged
/// update — the related-work baseline the paper trades off against.
///
/// The noise comes from [`oasis_tensor::add_randn_scaled`]: f64
/// Box–Muller cast to f32, with support `|z| ≤ √(−2 ln 2⁻⁵³) ≈ 8.57`
/// standard deviations, fed two raw rng words per draw. Its vector
/// paths (AVX2, and eight draws per f64x8 vector on AVX-512) are
/// bit-exact with the libm path, because they keep a polynomial result
/// only when its f32 rounding cannot differ from the libm value's and
/// recompute the rest, so the noise is the same under every
/// `OASIS_SIMD` setting. Floating-point samplers like this one can void formal DP
/// guarantees (Mironov, CCS 2012): the repository measures attack
/// success under this noise and certifies no privacy.
#[derive(Debug, Clone, Copy)]
pub struct DpStage {
    clip: f32,
    noise: f32,
}

impl DpStage {
    /// A DP stage with clip bound `clip` and noise multiplier `noise`.
    ///
    /// # Panics
    ///
    /// Panics if `clip` is not positive or `noise` is negative.
    pub fn new(clip: f32, noise: f32) -> Self {
        assert!(clip > 0.0, "DP clip bound must be positive");
        assert!(noise >= 0.0, "DP noise multiplier must be non-negative");
        DpStage { clip, noise }
    }
}

impl Defense for DpStage {
    fn name(&self) -> &str {
        "dp"
    }

    fn clip_norm(&self) -> Option<f32> {
        Some(self.clip)
    }

    fn perturb(&self, update: &mut [f32], samples: usize, rng: &mut StdRng) {
        let inv_b = 1.0 / samples.max(1) as f32;
        let sigma = self.noise * self.clip * inv_b;
        let _span = oasis_telemetry::span("dp.noise");
        // Drawn even at σ = 0 so the consumed rng stream (and thus any
        // downstream stage) is independent of the noise setting.
        oasis_tensor::add_randn_scaled(update, 0.0, sigma, rng);
    }
}

/// The clip-only update stage: DP-SGD's clipping without its noise —
/// bounds any single example's influence on the update but adds no
/// randomness.
#[derive(Debug, Clone, Copy)]
pub struct ClipStage {
    clip: f32,
}

impl ClipStage {
    /// A clipping stage with L2 bound `clip`.
    ///
    /// # Panics
    ///
    /// Panics if `clip` is not positive.
    pub fn new(clip: f32) -> Self {
        assert!(clip > 0.0, "clip bound must be positive");
        ClipStage { clip }
    }
}

impl Defense for ClipStage {
    fn name(&self) -> &str {
        "clip"
    }

    fn clip_norm(&self) -> Option<f32> {
        Some(self.clip)
    }
}

/// An ordered stack of [`Defense`]s. The empty stack
/// ([`DefenseStack::identity`]) is the undefended baseline:
/// `process_batch` clones the batch and the update is uploaded
/// untouched.
#[derive(Default)]
pub struct DefenseStack {
    defenses: Vec<Box<dyn Defense>>,
}

impl DefenseStack {
    /// The empty stack: the undefended baseline.
    pub fn identity() -> Self {
        DefenseStack::default()
    }

    /// A single-defense stack.
    pub fn of(defense: impl Defense + 'static) -> Self {
        DefenseStack {
            defenses: vec![Box::new(defense)],
        }
    }

    /// Appends a defense to the stack.
    pub fn push(&mut self, defense: Box<dyn Defense>) {
        self.defenses.push(defense);
    }

    /// The stacked defense names, in application order.
    pub fn names(&self) -> Vec<&str> {
        self.defenses.iter().map(|d| d.name()).collect()
    }

    /// Runs the batch pipeline: every defense's [`Defense::process`]
    /// in stack order, starting from one copy of `batch`. The empty
    /// stack returns that copy unchanged.
    pub fn process_batch(&self, batch: &Batch, rng: &mut StdRng) -> Batch {
        let _span = oasis_telemetry::span("defense.batch");
        self.defenses
            .iter()
            .fold(batch.clone(), |b, d| d.process(b, rng))
    }

    /// How many samples [`DefenseStack::process_batch`] returns for an
    /// `n`-sample batch: every defense's [`Defense::processed_len`],
    /// folded in stack order. Nothing is drawn or built.
    pub fn processed_len(&self, n: usize) -> usize {
        self.defenses.iter().fold(n, |n, d| d.processed_len(n))
    }

    /// The effective per-sample clip bound: the minimum over all
    /// defenses that clip (clipping to `C₁` then `C₂` equals clipping
    /// to `min(C₁, C₂)`), or `None` when nothing clips.
    pub fn clip_norm(&self) -> Option<f32> {
        self.defenses
            .iter()
            .filter_map(|d| d.clip_norm())
            .reduce(f32::min)
    }

    /// Clips the whole update vector to [`DefenseStack::clip_norm`]
    /// (no-op when nothing clips) — the client-level fallback for
    /// harnesses that do not compute per-sample gradients.
    pub fn clip_update(&self, update: &mut [f32]) {
        let Some(clip) = self.clip_norm() else { return };
        let _span = oasis_telemetry::span("defense.clip");
        let norm = update.iter().map(|v| v * v).sum::<f32>().sqrt();
        if norm > clip {
            let scale = clip / norm;
            for v in update.iter_mut() {
                *v *= scale;
            }
        }
    }

    /// Runs the update pipeline: every defense's [`Defense::perturb`]
    /// in stack order. `samples` is the number of examples averaged
    /// into the update.
    pub fn perturb_update(&self, update: &mut [f32], samples: usize, rng: &mut StdRng) {
        for defense in &self.defenses {
            defense.perturb(update, samples, rng);
        }
    }

    /// One defended local training step — the computation whose
    /// result a dishonest server gets to inspect. In order:
    /// [`DefenseStack::process_batch`], one full-batch `Mode::Train`
    /// forward, a softmax cross-entropy backward into one `+0` buffer
    /// of [`param_count`] floats, then [`DefenseStack::clip_update`]
    /// and [`DefenseStack::perturb_update`] over the processed batch
    /// size, in place on that buffer, which becomes
    /// [`LocalStep::update`]. The backward is
    /// [`Layer::backward_params`]: the update is made of parameter
    /// gradients only, so the model's input gradient is never
    /// computed.
    ///
    /// # Errors
    ///
    /// Propagates model-execution failures.
    pub fn local_step(
        &self,
        model: &mut dyn Layer,
        batch: &Batch,
        rng: &mut StdRng,
    ) -> oasis_nn::Result<LocalStep> {
        let processed = self.process_batch(batch, rng);
        let logits = model.forward(&processed.to_matrix(), Mode::Train)?;
        let out = softmax_cross_entropy(&logits, &processed.labels)?;
        let mut update = vec![0.0f32; param_count(model)];
        model.backward_params(&out.grad, &mut update)?;
        self.clip_update(&mut update);
        self.perturb_update(&mut update, processed.len(), rng);
        Ok(LocalStep {
            processed,
            update,
            loss: out.loss,
        })
    }
}

/// What [`DefenseStack::local_step`] produced.
#[derive(Debug, Clone)]
pub struct LocalStep {
    /// The defended batch `D′` the gradients were computed on.
    pub processed: Batch,
    /// The model's gradient after the stack's clip and perturbation,
    /// one float per parameter in [`Layer::visit_params_ref`] order:
    /// the buffer the backward pass wrote.
    pub update: Vec<f32>,
    /// The mean cross-entropy loss over `processed`.
    pub loss: f32,
}

impl std::fmt::Debug for DefenseStack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DefenseStack({})", self.names().join("+"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_data::cifar_like_with;
    use rand::SeedableRng;

    fn batch(n: usize) -> Batch {
        let ds = cifar_like_with(2, n.div_ceil(2), 8, 0);
        Batch::from_items(ds.items().iter().take(n).cloned().collect())
    }

    #[test]
    fn identity_stack_is_identity() {
        let stack = DefenseStack::identity();
        let b = batch(4);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(stack.process_batch(&b, &mut rng), b);
        assert!(stack.names().is_empty());
        assert_eq!(stack.clip_norm(), None);
        let mut update = vec![10.0f32, -20.0];
        let before = update.clone();
        stack.clip_update(&mut update);
        stack.perturb_update(&mut update, 4, &mut rng);
        assert_eq!(update, before);
    }

    #[test]
    fn dp_stage_clips_and_noises() {
        let stack = DefenseStack::of(DpStage::new(1.0, 2.0));
        assert_eq!(stack.clip_norm(), Some(1.0));
        let mut update = vec![3.0f32, 4.0];
        stack.clip_update(&mut update);
        let norm: f32 = update.iter().map(|v| v * v).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-6, "clipped norm {norm}");
        let clipped = update.clone();
        let mut rng = StdRng::seed_from_u64(7);
        stack.perturb_update(&mut update, 8, &mut rng);
        assert_ne!(update, clipped, "σ = 2 noise must move the update");
    }

    #[test]
    fn dp_noise_is_deterministic_per_seed() {
        let stack = DefenseStack::of(DpStage::new(1.0, 1.0));
        let run = |seed: u64| {
            let mut update = vec![0.5f32; 64];
            stack.perturb_update(&mut update, 8, &mut StdRng::seed_from_u64(seed));
            update
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn clip_stage_adds_no_noise() {
        let stack = DefenseStack::of(ClipStage::new(0.5));
        let mut update = vec![3.0f32, 4.0];
        stack.clip_update(&mut update);
        let clipped = update.clone();
        stack.perturb_update(&mut update, 8, &mut StdRng::seed_from_u64(0));
        assert_eq!(update, clipped);
        let norm: f32 = update.iter().map(|v| v * v).sum::<f32>().sqrt();
        assert!((norm - 0.5).abs() < 1e-6);
    }

    #[test]
    fn clip_norm_is_min_over_stages() {
        let mut stack = DefenseStack::of(DpStage::new(2.0, 0.1));
        stack.push(Box::new(ClipStage::new(0.25)));
        assert_eq!(stack.clip_norm(), Some(0.25));
        assert_eq!(stack.names(), vec!["dp", "clip"]);
    }

    #[test]
    fn updates_below_clip_are_untouched() {
        let stack = DefenseStack::of(ClipStage::new(100.0));
        let mut update = vec![3.0f32, 4.0];
        stack.clip_update(&mut update);
        assert_eq!(update, vec![3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "clip bound must be positive")]
    fn dp_rejects_nonpositive_clip() {
        DpStage::new(0.0, 1.0);
    }
}
