//! The composable defense pipeline: [`Defense`], its two stages
//! ([`BatchStage`], [`UpdateStage`]), and the [`DefenseStack`] that
//! composes them.
//!
//! A client-side defense can act at two points of the round:
//!
//! 1. **Batch stage** — transform the sampled batch `D → D′` *before*
//!    gradients are computed. OASIS (additive augmentation, paper
//!    Eq. 7) and ATSPrivacy-style replacement live here.
//! 2. **Update stage** — perturb the flattened update *after*
//!    gradients are computed and before it is uploaded. DP-SGD
//!    (clip + Gaussian noise) and plain clipping live here.
//!
//! A [`DefenseStack`] holds any number of [`Defense`]s and applies
//! their batch stages in stack order, then their update stages in
//! stack order. The empty stack is the undefended baseline. Because
//! the stack *owns* the update perturbation, a DP defense can no
//! longer be silently forgotten by a caller that builds the batch
//! preprocessor but never asks for the DP parameters — the historical
//! `dp_params()` side channel this design replaces.
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
use rand::rngs::StdRng;

/// Client-side batch preprocessing applied before gradients are
/// computed — the first stage of the defense pipeline.
///
/// The OASIS defense implements this trait: its `process` returns the
/// augmented batch `D′ = D ∪ ⋃ X′_t` of paper Eq. 7. The identity
/// stage (an empty [`DefenseStack`]) is the undefended baseline.
pub trait BatchStage: Send + Sync {
    /// Transforms the sampled batch before gradient computation.
    fn process(&self, batch: &Batch, rng: &mut StdRng) -> Batch;

    /// A short name for reports.
    fn name(&self) -> &str {
        "batch-stage"
    }
}

/// The undefended client: trains on `D` unchanged.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdentityPreprocessor;

impl BatchStage for IdentityPreprocessor {
    fn process(&self, batch: &Batch, _rng: &mut StdRng) -> Batch {
        batch.clone()
    }

    fn name(&self) -> &str {
        "identity"
    }
}

impl Defense for IdentityPreprocessor {
    fn name(&self) -> &str {
        "identity"
    }

    fn batch_stage(&self) -> Option<&dyn BatchStage> {
        Some(self)
    }
}

/// An update-perturbing defense stage — the second stage of the
/// pipeline, applied to the flattened update the client uploads.
pub trait UpdateStage: Send + Sync {
    /// A short name for reports.
    fn name(&self) -> &str;

    /// Per-sample gradient L2 clip bound, when this stage clips.
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
    fn perturb(&self, update: &mut [f32], samples: usize, rng: &mut StdRng);
}

/// One client-side defense, as a value: a named bundle of up to one
/// batch stage and up to one update stage.
///
/// Implementations return `self` from the stage accessor(s) they
/// participate in; a [`DefenseStack`] composes any number of
/// defenses. Batch-only defenses (OASIS, ATS) override
/// [`Defense::batch_stage`]; update-only defenses (DP-SGD, clipping)
/// override [`Defense::update_stage`].
pub trait Defense: Send + Sync {
    /// Short family name for reports ("oasis", "dp", …).
    fn name(&self) -> &str;

    /// The batch-transform stage, if this defense has one.
    fn batch_stage(&self) -> Option<&dyn BatchStage> {
        None
    }

    /// The update-perturbation stage, if this defense has one.
    fn update_stage(&self) -> Option<&dyn UpdateStage> {
        None
    }
}

/// The DP-SGD update stage: clip (per-sample where the harness
/// supports it, whole-update otherwise) to `clip`, then add Gaussian
/// noise with standard deviation `noise · clip / B` to the averaged
/// update — the related-work baseline the paper trades off against.
///
/// The noise comes from [`oasis_tensor::add_randn_scaled`]: f64
/// Box–Muller cast to f32, with support `|z| ≤ √(−2 ln 2⁻⁵³) ≈ 8.57`
/// standard deviations. Its vector path is bit-exact with the libm
/// path, because it keeps a polynomial result only when its f32
/// rounding cannot differ from the libm value's and recomputes the
/// rest. Floating-point samplers like this one can void formal DP
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

    /// The clip bound `C`.
    pub fn clip(&self) -> f32 {
        self.clip
    }

    /// The noise multiplier σ.
    pub fn noise(&self) -> f32 {
        self.noise
    }
}

impl UpdateStage for DpStage {
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

impl Defense for DpStage {
    fn name(&self) -> &str {
        "dp"
    }

    fn update_stage(&self) -> Option<&dyn UpdateStage> {
        Some(self)
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

    /// The clip bound `C`.
    pub fn clip(&self) -> f32 {
        self.clip
    }
}

impl UpdateStage for ClipStage {
    fn name(&self) -> &str {
        "clip"
    }

    fn clip_norm(&self) -> Option<f32> {
        Some(self.clip)
    }

    fn perturb(&self, _update: &mut [f32], _samples: usize, _rng: &mut StdRng) {}
}

impl Defense for ClipStage {
    fn name(&self) -> &str {
        "clip"
    }

    fn update_stage(&self) -> Option<&dyn UpdateStage> {
        Some(self)
    }
}

/// An ordered stack of [`Defense`]s, applied as a two-stage pipeline:
/// every batch stage in stack order, then every update stage in stack
/// order.
///
/// The empty stack ([`DefenseStack::identity`]) is the undefended
/// baseline: `process_batch` clones the batch and the update is
/// uploaded untouched.
#[derive(Default)]
pub struct DefenseStack {
    defenses: Vec<Box<dyn Defense>>,
}

impl DefenseStack {
    /// A stack over the given defenses, applied in order.
    pub fn new(defenses: Vec<Box<dyn Defense>>) -> Self {
        DefenseStack { defenses }
    }

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

    /// Number of defenses in the stack.
    pub fn len(&self) -> usize {
        self.defenses.len()
    }

    /// Whether the stack is the undefended baseline.
    pub fn is_empty(&self) -> bool {
        self.defenses.is_empty()
    }

    /// The stacked defense names, in application order.
    pub fn names(&self) -> Vec<&str> {
        self.defenses.iter().map(|d| d.name()).collect()
    }

    /// Whether any defense contributes an update stage — when true,
    /// the uploaded update is *not* the exact gradient.
    pub fn has_update_stage(&self) -> bool {
        self.defenses.iter().any(|d| d.update_stage().is_some())
    }

    /// Runs the batch pipeline: every batch stage in stack order.
    /// With no batch stages this clones the batch unchanged.
    pub fn process_batch(&self, batch: &Batch, rng: &mut StdRng) -> Batch {
        let mut stages = self.defenses.iter().filter_map(|d| d.batch_stage());
        let Some(first) = stages.next() else {
            return batch.clone();
        };
        let mut out = first.process(batch, rng);
        for stage in stages {
            out = stage.process(&out, rng);
        }
        out
    }

    /// The effective per-sample clip bound: the minimum over all
    /// update stages that clip (clipping to `C₁` then `C₂` equals
    /// clipping to `min(C₁, C₂)`), or `None` when nothing clips.
    pub fn clip_norm(&self) -> Option<f32> {
        self.defenses
            .iter()
            .filter_map(|d| d.update_stage().and_then(|s| s.clip_norm()))
            .reduce(f32::min)
    }

    /// Clips the whole update vector to [`DefenseStack::clip_norm`]
    /// (no-op when nothing clips) — the client-level fallback for
    /// harnesses that do not compute per-sample gradients.
    pub fn clip_update(&self, update: &mut [f32]) {
        let Some(clip) = self.clip_norm() else { return };
        let norm = update.iter().map(|v| v * v).sum::<f32>().sqrt();
        if norm > clip {
            let scale = clip / norm;
            for v in update.iter_mut() {
                *v *= scale;
            }
        }
    }

    /// Runs the update pipeline: every update stage's `perturb` in
    /// stack order. `samples` is the number of examples averaged into
    /// the update.
    pub fn perturb_update(&self, update: &mut [f32], samples: usize, rng: &mut StdRng) {
        for stage in self.defenses.iter().filter_map(|d| d.update_stage()) {
            stage.perturb(update, samples, rng);
        }
    }
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
        assert!(stack.is_empty());
        assert!(!stack.has_update_stage());
        assert_eq!(stack.clip_norm(), None);
        let mut update = vec![10.0f32, -20.0];
        let before = update.clone();
        stack.clip_update(&mut update);
        stack.perturb_update(&mut update, 4, &mut rng);
        assert_eq!(update, before);
    }

    #[test]
    fn single_batch_stage_matches_direct_call() {
        let stack = DefenseStack::of(IdentityPreprocessor);
        let b = batch(3);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(stack.process_batch(&b, &mut rng), b);
        assert_eq!(stack.names(), vec!["identity"]);
    }

    #[test]
    fn dp_stage_clips_and_noises() {
        let stack = DefenseStack::of(DpStage::new(1.0, 2.0));
        assert!(stack.has_update_stage());
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
        let stack = DefenseStack::new(vec![
            Box::new(DpStage::new(2.0, 0.1)),
            Box::new(ClipStage::new(0.25)),
        ]);
        assert_eq!(stack.clip_norm(), Some(0.25));
        assert_eq!(stack.names(), vec!["dp", "clip"]);
        assert_eq!(stack.len(), 2);
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
