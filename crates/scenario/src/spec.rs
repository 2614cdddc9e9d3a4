//! Spec strings: the declarative vocabulary naming every attack,
//! defense, and workload of the evaluation grid.
//!
//! Every spec round-trips through [`std::fmt::Display`] /
//! [`std::str::FromStr`], so a [`crate::ScenarioReport`] can record
//! the exact provenance of the numbers it holds and any experiment
//! can be reproduced from its printed spec alone.
//!
//! Attack and defense specs are **string-keyed**: `family[:args]`
//! values whose parsing and construction dispatch through the
//! [`crate::registry`] — new families plug in with one
//! [`crate::register_attack_family`] /
//! [`crate::register_defense_family`] call. Defense specs
//! additionally **stack** with `+` (`oasis:MR+dp:1,0.01`): the parts
//! build one [`DefenseStack`] applying batch stages then update
//! stages in spec order.

use oasis_attacks::{ActiveAttack, DEFAULT_ACTIVATION_TARGET};
use oasis_augment::PolicyKind;
use oasis_data::{imagenette_images, synthetic_images, Dataset, LabeledImage};
use oasis_fl::DefenseStack;
use oasis_image::Image;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

use crate::registry::{attack_family, cah_args, defense_family};
use crate::{Scale, ScenarioError};

/// An active reconstruction attack, as a string-keyed value.
///
/// Built-in spec grammar (round-tripping through `Display`; run
/// `scenario --list-specs` for whatever is registered):
///
/// * `rtf:N` — Robbing the Fed with `N` attacked neurons,
/// * `cah:N` — Curious Abandon Honesty with `N` trap neurons at the
///   default activation target, or `cah:N,G` for target `G`,
/// * `linear` — gradient inversion on a single-layer softmax model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackSpec {
    family: String,
    args: Option<String>,
}

impl AttackSpec {
    /// An RTF spec.
    pub fn rtf(neurons: usize) -> Self {
        AttackSpec {
            family: "rtf".into(),
            args: Some(neurons.to_string()),
        }
    }

    /// A CAH spec at the default activation target.
    pub fn cah(neurons: usize) -> Self {
        AttackSpec::cah_with_gamma(neurons, DEFAULT_ACTIVATION_TARGET)
    }

    /// A CAH spec with an explicit activation target γ.
    pub fn cah_with_gamma(neurons: usize, gamma: f64) -> Self {
        AttackSpec {
            family: "cah".into(),
            args: Some(cah_args(neurons, gamma)),
        }
    }

    /// The linear-model inversion spec (paper §IV-D).
    pub fn linear() -> Self {
        AttackSpec {
            family: "linear".into(),
            args: None,
        }
    }

    /// Short family name ("rtf", "cah", "linear", …) — the registry
    /// key.
    pub fn family(&self) -> &str {
        &self.family
    }

    /// The spec's canonical arguments, if the family takes any.
    pub fn args(&self) -> Option<&str> {
        self.args.as_deref()
    }

    /// The same spec with a different neuron count (no-op for
    /// families without a neuron knob, e.g. `linear`) — how grid
    /// sweeps vary one axis of an attack.
    pub fn with_neurons(&self, neurons: usize) -> Self {
        let family = attack_family(&self.family).expect("constructed specs have a family");
        match (family.with_neurons)(self.args(), neurons) {
            Some(args) => AttackSpec {
                family: self.family.clone(),
                args: Some(args),
            },
            None => self.clone(),
        }
    }

    /// How many calibration images the attack wants for its
    /// measurement statistics (0 = needs none).
    pub fn default_calibration(&self) -> usize {
        let family = attack_family(&self.family).expect("constructed specs have a family");
        (family.calibration)(self.args())
    }

    /// Whether trial batches should default to unique-label sampling
    /// (the linear-model inversion needs one class per sample).
    pub fn unique_labels_default(&self) -> bool {
        attack_family(&self.family)
            .expect("constructed specs have a family")
            .unique_labels
    }

    /// Constructs the attack behind this spec via the family
    /// registry, traced as `attack.calibrate`.
    ///
    /// `calibration` holds the public images the dishonest server fits
    /// its measurement statistics on; `classes` is the label-space
    /// size of the attacked workload (used by `linear`).
    ///
    /// # Errors
    ///
    /// Propagates construction failures (e.g. empty calibration for a
    /// calibrated attack).
    pub fn build(
        &self,
        calibration: &[Image],
        classes: usize,
    ) -> Result<Box<dyn ActiveAttack>, ScenarioError> {
        let family = attack_family(&self.family)?;
        let _span = oasis_telemetry::span("attack.calibrate");
        (family.build)(self.args(), calibration, classes)
    }
}

impl fmt::Display for AttackSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.args {
            Some(args) => write!(f, "{}:{args}", self.family),
            None => f.write_str(&self.family),
        }
    }
}

impl FromStr for AttackSpec {
    type Err = ScenarioError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (name, args) = split_spec(s);
        let family = attack_family(name)?;
        Ok(AttackSpec {
            family: name.to_string(),
            args: (family.canon)(args)?,
        })
    }
}

impl Serialize for AttackSpec {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.to_string())
    }
}

impl Deserialize for AttackSpec {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let s = value
            .as_str()
            .ok_or_else(|| serde::Error::expected("attack spec", value))?;
        s.parse()
            .map_err(|e: ScenarioError| serde::Error::msg(e.to_string()))
    }
}

/// One `family[:args]` part of a defense stack.
#[derive(Debug, Clone, PartialEq, Eq)]
struct DefensePart {
    family: String,
    args: Option<String>,
}

impl fmt::Display for DefensePart {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.args {
            Some(args) => write!(f, "{}:{args}", self.family),
            None => f.write_str(&self.family),
        }
    }
}

/// A client-side defense stack (possibly empty), as a string-keyed
/// value.
///
/// Built-in spec grammar (round-tripping through `Display`; run
/// `scenario --list-specs` for whatever is registered):
///
/// * `none` — undefended baseline (also parses from `wo`, `without`),
/// * `oasis:P` — the OASIS defense with policy abbreviation `P`
///   (`MR`, `mR`, `SH`, `HFlip`, `VFlip`, `MR+SH`, `WO`),
/// * `ats` — ATSPrivacy-style transform *replacement* baseline,
/// * `dp:C,S` — DP-SGD update stage with clip norm `C` and noise
///   multiplier `S`,
/// * `clip:C` — clip-only update stage,
/// * any `+`-joined stack of distinct families, applied in order:
///   `oasis:MR+dp:1,0.01` runs the OASIS batch stage, then DP-SGD's
///   clip + noise on the uploaded update.
///
/// Stacks compose in Rust with [`DefenseSpec::stacked`] or `+`:
///
/// ```
/// use oasis_scenario::DefenseSpec;
/// use oasis_augment::PolicyKind;
///
/// let stack = DefenseSpec::oasis(PolicyKind::MajorRotation) + DefenseSpec::dp(1.0, 0.01);
/// assert_eq!(stack.to_string(), "oasis:MR+dp:1,0.01");
/// assert_eq!(stack, "oasis:MR+dp:1,0.01".parse().unwrap());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DefenseSpec {
    parts: Vec<DefensePart>,
}

impl DefenseSpec {
    /// The undefended baseline: the empty stack.
    pub fn none() -> Self {
        DefenseSpec::default()
    }

    /// A single-part spec from a registered family's raw args.
    ///
    /// # Errors
    ///
    /// Rejects unknown families and invalid args.
    pub fn part(family: &str, args: Option<&str>) -> Result<Self, ScenarioError> {
        let f = defense_family(family)?;
        Ok(DefenseSpec {
            parts: vec![DefensePart {
                family: family.to_string(),
                args: (f.canon)(args)?,
            }],
        })
    }

    /// An OASIS defense spec with the given policy.
    pub fn oasis(kind: PolicyKind) -> Self {
        DefenseSpec {
            parts: vec![DefensePart {
                family: "oasis".into(),
                args: Some(kind.abbrev().to_string()),
            }],
        }
    }

    /// The ATSPrivacy-style replacement baseline spec.
    pub fn ats() -> Self {
        DefenseSpec {
            parts: vec![DefensePart {
                family: "ats".into(),
                args: None,
            }],
        }
    }

    /// A DP-SGD spec with clip norm `clip` and noise multiplier
    /// `noise`.
    ///
    /// # Panics
    ///
    /// Panics when `clip` is not positive or `noise` is negative —
    /// the same bounds the parse path enforces, so every constructed
    /// spec round-trips through `Display` ⇄ `FromStr`.
    pub fn dp(clip: f32, noise: f32) -> Self {
        assert!(clip > 0.0, "dp clip bound must be positive, got {clip}");
        assert!(
            noise >= 0.0,
            "dp noise multiplier must be non-negative, got {noise}"
        );
        DefenseSpec {
            parts: vec![DefensePart {
                family: "dp".into(),
                args: Some(format!("{clip},{noise}")),
            }],
        }
    }

    /// A clip-only spec with L2 bound `clip`.
    ///
    /// # Panics
    ///
    /// Panics when `clip` is not positive (the bound the parse path
    /// enforces).
    pub fn clip(clip: f32) -> Self {
        assert!(clip > 0.0, "clip bound must be positive, got {clip}");
        DefenseSpec {
            parts: vec![DefensePart {
                family: "clip".into(),
                args: Some(clip.to_string()),
            }],
        }
    }

    /// Whether this is the undefended baseline.
    pub fn is_none(&self) -> bool {
        self.parts.is_empty()
    }

    /// The stacked family names, in application order.
    pub fn families(&self) -> Vec<&str> {
        self.parts.iter().map(|p| p.family.as_str()).collect()
    }

    /// Appends `other`'s parts to this stack, preserving order.
    ///
    /// # Errors
    ///
    /// Rejects duplicate families (stacking a defense with itself has
    /// no defined semantics).
    pub fn stacked(mut self, other: DefenseSpec) -> Result<Self, ScenarioError> {
        for part in other.parts {
            if self.parts.iter().any(|p| p.family == part.family) {
                return Err(ScenarioError::BadSpec(format!(
                    "duplicate defense family `{}` in stack",
                    part.family
                )));
            }
            self.parts.push(part);
        }
        Ok(self)
    }

    /// Builds the [`DefenseStack`] behind this spec via the family
    /// registry: one [`oasis_fl::Defense`] per part, in spec order.
    ///
    /// The stack *owns* every stage of every part — batch transforms
    /// **and** update perturbations — so a DP part can no longer be
    /// dropped by a caller that forgets a side channel (the
    /// historical `dp_params()` bug class).
    ///
    /// # Errors
    ///
    /// Propagates registry lookup and construction failures.
    pub fn build(&self) -> Result<DefenseStack, ScenarioError> {
        let mut stack = DefenseStack::identity();
        for part in &self.parts {
            let family = defense_family(&part.family)?;
            stack.push((family.build)(part.args.as_deref())?);
        }
        Ok(stack)
    }
}

impl std::ops::Add for DefenseSpec {
    type Output = DefenseSpec;

    /// Stacks two defense specs.
    ///
    /// # Panics
    ///
    /// Panics on duplicate families; use [`DefenseSpec::stacked`] for
    /// a fallible version.
    fn add(self, other: DefenseSpec) -> DefenseSpec {
        self.stacked(other).expect("duplicate defense family")
    }
}

impl fmt::Display for DefenseSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.parts.is_empty() {
            return f.write_str("none");
        }
        for (i, part) in self.parts.iter().enumerate() {
            if i > 0 {
                f.write_str("+")?;
            }
            write!(f, "{part}")?;
        }
        Ok(())
    }
}

impl FromStr for DefenseSpec {
    type Err = ScenarioError;

    /// Parses a `+`-joined stack.
    ///
    /// Some part grammars contain `+` themselves (`oasis:MR+SH`), so
    /// parts are matched greedily: each part consumes as many
    /// `+`-separated segments as still parse as one part.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if matches!(s, "none" | "wo" | "without") {
            return Ok(DefenseSpec::none());
        }
        let segments: Vec<&str> = s.split('+').collect();
        let mut spec = DefenseSpec::none();
        let mut i = 0;
        while i < segments.len() {
            let mut candidate = String::new();
            let mut matched: Option<(usize, DefensePart)> = None;
            for (j, segment) in segments.iter().enumerate().skip(i) {
                if j > i {
                    candidate.push('+');
                }
                candidate.push_str(segment);
                if let Ok(part) = parse_part(&candidate) {
                    matched = Some((j, part));
                }
            }
            match matched {
                Some((j, part)) => {
                    spec = spec.stacked(DefenseSpec { parts: vec![part] })?;
                    i = j + 1;
                }
                // Nothing starting at segment `i` parses; surface the
                // single-segment error for context.
                None => return Err(parse_part(segments[i]).expect_err("greedy match missed")),
            }
        }
        Ok(spec)
    }
}

/// Parses one stack part. `none` is rejected here: the baseline is
/// the whole-spec `none`, never a stack member.
fn parse_part(s: &str) -> Result<DefensePart, ScenarioError> {
    let (name, args) = split_spec(s);
    if matches!(name, "none" | "wo" | "without") {
        return Err(ScenarioError::BadSpec(
            "`none` cannot be part of a stack (it is the empty stack)".into(),
        ));
    }
    let family = defense_family(name)?;
    Ok(DefensePart {
        family: name.to_string(),
        args: (family.canon)(args)?,
    })
}

impl Serialize for DefenseSpec {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.to_string())
    }
}

impl Deserialize for DefenseSpec {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let s = value
            .as_str()
            .ok_or_else(|| serde::Error::expected("defense spec", value))?;
        s.parse()
            .map_err(|e: ScenarioError| serde::Error::msg(e.to_string()))
    }
}

/// An evaluation workload, as a value.
///
/// Spec grammar: `imagenette`, `cifar100`, plus the 100-class
/// synthetic variants `imagenette100c` / `cifar100c` used by the
/// linear-model experiment, whose batches need ≥ 64 unique labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadSpec {
    /// The ImageNet (Imagenette subset) stand-in, 10 classes.
    ImageNette,
    /// The CIFAR100 stand-in, 100 classes.
    Cifar100,
    /// 100-class synthetic workload at ImageNette resolution.
    ImageNette100c,
    /// 100-class synthetic workload at CIFAR resolution.
    Cifar100c,
}

impl WorkloadSpec {
    /// Display name matching the paper's figure captions.
    pub fn label(&self) -> &'static str {
        match self {
            WorkloadSpec::ImageNette => "ImageNet (ImageNette-like)",
            WorkloadSpec::Cifar100 => "CIFAR100 (CIFAR100-like)",
            WorkloadSpec::ImageNette100c => "ImageNet-like (100-class synthetic)",
            WorkloadSpec::Cifar100c => "CIFAR100-like (100-class synthetic)",
        }
    }

    /// Number of classes in the workload's label space.
    pub fn num_classes(&self) -> usize {
        match self {
            WorkloadSpec::ImageNette => 10,
            WorkloadSpec::Cifar100 | WorkloadSpec::ImageNette100c | WorkloadSpec::Cifar100c => 100,
        }
    }

    /// Image side at the given scale.
    pub fn side(&self, scale: Scale) -> usize {
        match self {
            WorkloadSpec::ImageNette | WorkloadSpec::ImageNette100c => scale.imagenette_side(),
            WorkloadSpec::Cifar100 | WorkloadSpec::Cifar100c => scale.cifar_side(),
        }
    }

    /// Builds the dataset at the given scale with enough samples for
    /// batches up to `max_batch`.
    pub fn dataset(&self, scale: Scale, max_batch: usize, seed: u64) -> Dataset {
        let name = match self {
            WorkloadSpec::ImageNette => "ImageNette-like",
            WorkloadSpec::ImageNette100c => "ImageNet-like-100c",
            WorkloadSpec::Cifar100 | WorkloadSpec::Cifar100c => "CIFAR100-like",
        };
        let items = self.images(scale, max_batch, seed).collect();
        Dataset::new(name, self.num_classes(), items)
    }

    /// The items of [`WorkloadSpec::dataset`] in dataset order —
    /// class-major: every image of class 0, then class 1, … — rendered
    /// on demand, so `.take(n)` renders only the first `n`.
    pub(crate) fn images(
        &self,
        scale: Scale,
        max_batch: usize,
        seed: u64,
    ) -> Box<dyn Iterator<Item = LabeledImage>> {
        let side = self.side(scale);
        match self {
            WorkloadSpec::ImageNette => {
                let spc = (max_batch * 2).div_ceil(10).max(8);
                Box::new(imagenette_images(spc, side, seed))
            }
            WorkloadSpec::Cifar100 | WorkloadSpec::ImageNette100c | WorkloadSpec::Cifar100c => {
                let spc = (max_batch * 2).div_ceil(100).max(2);
                Box::new(synthetic_images(100, spc, side, seed))
            }
        }
    }

    /// The 100-class variant of this workload at its resolution — the
    /// label space the linear-model inversion needs (paper §IV-D).
    pub fn linear_variant(&self) -> WorkloadSpec {
        match self {
            WorkloadSpec::ImageNette | WorkloadSpec::ImageNette100c => WorkloadSpec::ImageNette100c,
            WorkloadSpec::Cifar100 | WorkloadSpec::Cifar100c => WorkloadSpec::Cifar100c,
        }
    }
}

impl fmt::Display for WorkloadSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            WorkloadSpec::ImageNette => "imagenette",
            WorkloadSpec::Cifar100 => "cifar100",
            WorkloadSpec::ImageNette100c => "imagenette100c",
            WorkloadSpec::Cifar100c => "cifar100c",
        };
        f.write_str(name)
    }
}

impl FromStr for WorkloadSpec {
    type Err = ScenarioError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "imagenette" | "imagenet" => Ok(WorkloadSpec::ImageNette),
            "cifar100" | "cifar" => Ok(WorkloadSpec::Cifar100),
            "imagenette100c" => Ok(WorkloadSpec::ImageNette100c),
            "cifar100c" => Ok(WorkloadSpec::Cifar100c),
            other => Err(ScenarioError::BadSpec(format!(
                "unknown workload `{other}` (expected imagenette, cifar100, imagenette100c, or cifar100c)"
            ))),
        }
    }
}

impl Serialize for WorkloadSpec {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.to_string())
    }
}

impl Deserialize for WorkloadSpec {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let s = value
            .as_str()
            .ok_or_else(|| serde::Error::expected("workload spec", value))?;
        s.parse()
            .map_err(|e: ScenarioError| serde::Error::msg(e.to_string()))
    }
}

/// Splits `family:args` into its two halves.
fn split_spec(s: &str) -> (&str, Option<&str>) {
    match s.split_once(':') {
        Some((family, args)) => (family, Some(args)),
        None => (s, None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attack_specs_round_trip() {
        for spec in [
            AttackSpec::rtf(512),
            AttackSpec::cah(700),
            AttackSpec::cah_with_gamma(64, 0.004),
            AttackSpec::linear(),
        ] {
            assert_eq!(spec.to_string().parse::<AttackSpec>().unwrap(), spec);
        }
    }

    #[test]
    fn defense_specs_round_trip() {
        let mut specs = vec![
            DefenseSpec::none(),
            DefenseSpec::ats(),
            DefenseSpec::dp(1.0, 0.5),
            DefenseSpec::clip(2.5),
        ];
        specs.extend(PolicyKind::all().map(DefenseSpec::oasis));
        for spec in specs {
            assert_eq!(spec.to_string().parse::<DefenseSpec>().unwrap(), spec);
        }
    }

    #[test]
    fn stacked_defense_specs_round_trip() {
        for stack in [
            DefenseSpec::oasis(PolicyKind::MajorRotation) + DefenseSpec::dp(1.0, 0.01),
            DefenseSpec::dp(1.0, 0.01) + DefenseSpec::oasis(PolicyKind::MajorRotation),
            DefenseSpec::oasis(PolicyKind::MajorRotationShearing) + DefenseSpec::dp(2.0, 0.5),
            DefenseSpec::ats() + DefenseSpec::clip(0.5),
            DefenseSpec::oasis(PolicyKind::Shearing)
                + DefenseSpec::dp(1.0, 0.25)
                + DefenseSpec::clip(3.0),
        ] {
            let printed = stack.to_string();
            assert_eq!(printed.parse::<DefenseSpec>().unwrap(), stack, "{printed}");
        }
    }

    #[test]
    fn stack_grammar_is_greedy_over_policy_plus() {
        // `oasis:MR+SH` is one part (the MR+SH policy), not a stack
        // of `oasis:MR` and an unknown `SH` family.
        let spec: DefenseSpec = "oasis:MR+SH".parse().unwrap();
        assert_eq!(spec.families(), vec!["oasis"]);
        // ...and still stacks with further parts.
        let spec: DefenseSpec = "oasis:MR+SH+dp:1,0.01".parse().unwrap();
        assert_eq!(spec.families(), vec!["oasis", "dp"]);
        assert_eq!(spec.to_string(), "oasis:MR+SH+dp:1,0.01");
    }

    #[test]
    fn stack_order_is_preserved() {
        let a: DefenseSpec = "oasis:MR+dp:1,0.01".parse().unwrap();
        let b: DefenseSpec = "dp:1,0.01+oasis:MR".parse().unwrap();
        assert_ne!(a, b);
        assert_eq!(a.families(), vec!["oasis", "dp"]);
        assert_eq!(b.families(), vec!["dp", "oasis"]);
    }

    #[test]
    fn duplicate_families_are_rejected() {
        let err = "oasis:MR+oasis:SH".parse::<DefenseSpec>().unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
        let err = "dp:1,0.5+ats+dp:2,0.1".parse::<DefenseSpec>().unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
        assert!(DefenseSpec::ats().stacked(DefenseSpec::ats()).is_err());
    }

    #[test]
    #[should_panic(expected = "duplicate defense family")]
    fn add_panics_on_duplicates() {
        let _ = DefenseSpec::dp(1.0, 0.5) + DefenseSpec::dp(2.0, 0.1);
    }

    #[test]
    #[should_panic(expected = "clip bound must be positive")]
    fn dp_constructor_enforces_parse_bounds() {
        let _ = DefenseSpec::dp(0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "clip bound must be positive")]
    fn clip_constructor_enforces_parse_bounds() {
        let _ = DefenseSpec::clip(-1.0);
    }

    #[test]
    fn none_aliases_parse_to_the_empty_stack() {
        for alias in ["none", "wo", "without"] {
            let spec: DefenseSpec = alias.parse().unwrap();
            assert!(spec.is_none());
            assert_eq!(spec, DefenseSpec::none());
            assert_eq!(spec.to_string(), "none");
        }
        assert!(DefenseSpec::none().build().unwrap().is_empty());
    }

    #[test]
    fn none_cannot_be_stacked() {
        for bad in ["none+oasis:MR", "oasis:MR+none", "wo+ats"] {
            let err = bad.parse::<DefenseSpec>().unwrap_err();
            assert!(
                err.to_string().contains("cannot be part of a stack"),
                "`{bad}`: {err}"
            );
        }
    }

    #[test]
    fn image_prefixes_match_the_dataset_prefix() {
        for spec in [
            WorkloadSpec::ImageNette,
            WorkloadSpec::Cifar100,
            WorkloadSpec::ImageNette100c,
            WorkloadSpec::Cifar100c,
        ] {
            let ds = spec.dataset(Scale::Quick, 24, 5);
            let per_class = ds.len() / ds.num_classes();
            // Inside class 0, on the first two class boundaries, one
            // past a boundary, the whole dataset and beyond it.
            for n in [
                0,
                1,
                per_class,
                per_class + 1,
                2 * per_class,
                ds.len(),
                ds.len() + 7,
            ] {
                let prefix: Vec<LabeledImage> = spec.images(Scale::Quick, 24, 5).take(n).collect();
                let want: Vec<LabeledImage> = ds.items().iter().take(n).cloned().collect();
                assert_eq!(prefix.len(), n.min(ds.len()), "{spec} n={n}");
                assert!(
                    prefix == want,
                    "{spec} n={n}: prefix differs from the dataset"
                );
            }
        }
    }

    #[test]
    fn workload_specs_round_trip() {
        for spec in [
            WorkloadSpec::ImageNette,
            WorkloadSpec::Cifar100,
            WorkloadSpec::ImageNette100c,
            WorkloadSpec::Cifar100c,
        ] {
            assert_eq!(spec.to_string().parse::<WorkloadSpec>().unwrap(), spec);
        }
    }

    #[test]
    fn bad_specs_are_rejected_with_context() {
        for bad in ["rtf", "rtf:abc", "cah:12,xyz", "linear:3", "warp:9"] {
            assert!(
                bad.parse::<AttackSpec>().is_err(),
                "`{bad}` should not parse"
            );
        }
        for bad in [
            "oasis",
            "oasis:XX",
            "dp:1",
            "dp:a,b",
            "dropout",
            "clip:0",
            "clip:-1",
            "dp:0,1",
            "oasis:MR+dp:1",
            "oasis:MR+warp",
            "",
        ] {
            assert!(
                bad.parse::<DefenseSpec>().is_err(),
                "`{bad}` should not parse"
            );
        }
        assert!("mnist".parse::<WorkloadSpec>().is_err());
    }

    #[test]
    fn default_gamma_is_elided() {
        assert_eq!(AttackSpec::cah(700).to_string(), "cah:700");
        let custom = AttackSpec::cah_with_gamma(700, 0.25);
        assert!(custom.to_string().starts_with("cah:700,"));
    }

    #[test]
    fn with_neurons_varies_only_that_axis() {
        assert_eq!(AttackSpec::rtf(100).with_neurons(900), AttackSpec::rtf(900));
        let cah = AttackSpec::cah_with_gamma(100, 0.1);
        assert_eq!(cah.with_neurons(300), AttackSpec::cah_with_gamma(300, 0.1));
        assert_eq!(AttackSpec::linear().with_neurons(5), AttackSpec::linear());
    }

    #[test]
    fn workload_datasets_have_expected_classes() {
        assert_eq!(
            WorkloadSpec::ImageNette
                .dataset(Scale::Quick, 8, 1)
                .num_classes(),
            10
        );
        assert_eq!(
            WorkloadSpec::Cifar100
                .dataset(Scale::Quick, 8, 1)
                .num_classes(),
            100
        );
        assert_eq!(
            WorkloadSpec::ImageNette100c
                .dataset(Scale::Quick, 8, 1)
                .num_classes(),
            100
        );
        assert_eq!(
            WorkloadSpec::Cifar100c
                .dataset(Scale::Quick, 8, 1)
                .num_classes(),
            100
        );
    }

    #[test]
    fn linear_variant_is_idempotent_and_100_class() {
        for w in [WorkloadSpec::ImageNette, WorkloadSpec::Cifar100] {
            let lv = w.linear_variant();
            assert_eq!(lv, lv.linear_variant());
            assert_eq!(lv.dataset(Scale::Quick, 64, 0).num_classes(), 100);
        }
    }

    #[test]
    fn dp_spec_builds_a_stack_that_owns_the_update_stage() {
        // The historical `dp_params()` side channel is gone: building
        // a dp spec yields a stack whose update stage is live — there
        // is no second call a harness could forget.
        let stack = DefenseSpec::dp(2.0, 0.1).build().unwrap();
        assert!(stack.has_update_stage());
        assert_eq!(stack.clip_norm(), Some(2.0));
        assert!(!DefenseSpec::none().build().unwrap().has_update_stage());
    }

    #[test]
    fn stacked_spec_builds_both_stages() {
        let stack = ("oasis:MR+dp:1,0.01".parse::<DefenseSpec>().unwrap())
            .build()
            .unwrap();
        assert_eq!(stack.names(), vec!["oasis", "dp"]);
        assert!(stack.has_update_stage());
        assert_eq!(stack.clip_norm(), Some(1.0));
        // The batch stage is live too: OASIS MR expands 1 → 4.
        let ds = oasis_data::cifar_like_with(2, 2, 8, 0);
        let batch = oasis_data::Batch::from_items(ds.items().to_vec());
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        use rand::SeedableRng;
        assert_eq!(stack.process_batch(&batch, &mut rng).len(), batch.len() * 4);
    }
}
