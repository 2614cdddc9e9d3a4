//! Spec strings: the declarative vocabulary naming every attack,
//! defense, and workload of the evaluation grid.
//!
//! Every spec round-trips through [`std::fmt::Display`] /
//! [`std::str::FromStr`], so a [`crate::ScenarioReport`] can record
//! the exact provenance of the numbers it holds and any experiment
//! can be reproduced from its printed spec alone.
//!
//! The vocabulary is closed: attack and defense specs are typed enums,
//! and parsing is their validation. Every numeric field is checked
//! once, by the same bounds the constructors enforce, so a spec that
//! parses prints back to itself and builds without panicking. Defense
//! specs additionally **stack** with `+` (`oasis:MR+dp:1,0.01`): the
//! parts build one [`DefenseStack`] applying batch stages then update
//! stages in spec order.

use std::fmt;
use std::str::FromStr;

use oasis_attacks::{
    ActiveAttack, AtsDefense, CahAttack, LinearModelAttack, QbiAttack, RtfAttack,
    DEFAULT_ACTIVATION_TARGET, DEFAULT_QBI_BATCH,
};
use oasis_augment::PolicyKind;
use oasis_data::{Dataset, Generator};
use oasis_fl::{ClipStage, Defense, DefenseStack, DpStage};
use oasis_image::Image;

use crate::{Scale, ScenarioError};

/// Weight seed used when constructing CAH trap weights from a spec.
///
/// The figure binaries historically used this constant; building
/// `cah:N` specs with it reproduces those numbers.
pub const CAH_WEIGHT_SEED: u64 = 0xCA11;

/// Weight seed used when constructing QBI Gaussian rows from a spec.
pub const QBI_WEIGHT_SEED: u64 = 0x0B1A;

/// An active reconstruction attack, as a value.
///
/// Spec grammar (round-tripping through `Display`; `scenario
/// --list-specs` prints it):
///
/// * `rtf:N` — Robbing the Fed with `N ≥ 2` attacked neurons,
/// * `cah:N` — Curious Abandon Honesty with `N ≥ 1` trap neurons at
///   the default activation target, or `cah:N,G` for a target `G`
///   in `(0, 1)`,
/// * `qbi:N` — quantile-based bias init with `N ≥ 1` neurons tuned
///   for the default batch size, or `qbi:N,B` for batch `B ≥ 2`,
/// * `linear` — gradient inversion on a single-layer softmax model.
///
/// Default targets are elided when printing (`cah:400,0.1` prints as
/// `cah:400`). The constructors enforce the same bounds as the parse
/// path and panic on a violation.
#[derive(Debug, Clone, PartialEq)]
pub enum AttackSpec {
    /// Robbing the Fed.
    Rtf {
        /// Attacked imprint neurons (≥ 2).
        neurons: usize,
    },
    /// Curious Abandon Honesty.
    Cah {
        /// Trap neurons (≥ 1).
        neurons: usize,
        /// Per-neuron activation target `p`, finite in `(0, 1)`.
        target: f64,
    },
    /// Quantile-based bias initialization.
    Qbi {
        /// Attacked neurons (≥ 1).
        neurons: usize,
        /// Batch size the biases are tuned for (≥ 2).
        batch: usize,
    },
    /// Gradient inversion on a single-layer softmax model.
    Linear,
}

impl AttackSpec {
    /// An RTF spec.
    ///
    /// # Panics
    ///
    /// Panics when `neurons < 2`.
    pub fn rtf(neurons: usize) -> Self {
        AttackSpec::Rtf { neurons }.checked()
    }

    /// A CAH spec at the default activation target.
    ///
    /// # Panics
    ///
    /// Panics when `neurons` is zero.
    pub fn cah(neurons: usize) -> Self {
        AttackSpec::cah_with_target(neurons, DEFAULT_ACTIVATION_TARGET)
    }

    /// A CAH spec with an explicit activation target `p`.
    ///
    /// # Panics
    ///
    /// Panics when `neurons` is zero or `p` is not finite in `(0, 1)`.
    pub fn cah_with_target(neurons: usize, target: f64) -> Self {
        AttackSpec::Cah { neurons, target }.checked()
    }

    /// A QBI spec tuned for batch size `batch`.
    ///
    /// # Panics
    ///
    /// Panics when `neurons` is zero or `batch < 2`.
    pub fn qbi(neurons: usize, batch: usize) -> Self {
        AttackSpec::Qbi { neurons, batch }.checked()
    }

    /// The linear-model inversion spec (paper §IV-D).
    pub fn linear() -> Self {
        AttackSpec::Linear
    }

    /// Checks the bounds every spec must satisfy — the single check
    /// behind both `FromStr` and the constructors.
    fn validated(self) -> Result<Self, ScenarioError> {
        let problem = match self {
            AttackSpec::Rtf { neurons } if neurons < 2 => {
                format!("rtf needs at least 2 neurons, got `{neurons}`")
            }
            AttackSpec::Cah { neurons: 0, .. } | AttackSpec::Qbi { neurons: 0, .. } => {
                format!("{} needs at least 1 neuron", self.family())
            }
            AttackSpec::Cah { target, .. } if !(target > 0.0 && target < 1.0) => {
                format!("cah activation target must be in (0, 1), got `{target}`")
            }
            AttackSpec::Qbi { batch, .. } if batch < 2 => {
                format!("qbi batch target must be at least 2, got `{batch}`")
            }
            _ => return Ok(self),
        };
        Err(ScenarioError::BadSpec(problem))
    }

    fn checked(self) -> Self {
        self.validated().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Short family name: `rtf`, `cah`, `qbi` or `linear`.
    pub fn family(&self) -> &'static str {
        match self {
            AttackSpec::Rtf { .. } => "rtf",
            AttackSpec::Cah { .. } => "cah",
            AttackSpec::Qbi { .. } => "qbi",
            AttackSpec::Linear => "linear",
        }
    }

    /// The same spec with a different neuron count (no-op for
    /// `linear`, which has no neuron knob) — how grid sweeps vary one
    /// axis of an attack.
    ///
    /// # Panics
    ///
    /// Panics when `neurons` is below the family's minimum.
    pub fn with_neurons(&self, neurons: usize) -> Self {
        match *self {
            AttackSpec::Rtf { .. } => AttackSpec::rtf(neurons),
            AttackSpec::Cah { target, .. } => AttackSpec::cah_with_target(neurons, target),
            AttackSpec::Qbi { batch, .. } => AttackSpec::qbi(neurons, batch),
            AttackSpec::Linear => AttackSpec::Linear,
        }
    }

    /// How many calibration images the attack wants for its
    /// measurement statistics (0 = needs none).
    pub fn default_calibration(&self) -> usize {
        match self {
            AttackSpec::Rtf { .. } | AttackSpec::Qbi { .. } => 256,
            AttackSpec::Cah { .. } => 384,
            AttackSpec::Linear => 0,
        }
    }

    /// Whether trial batches should default to unique-label sampling
    /// (the linear-model inversion needs one class per sample).
    pub fn unique_labels_default(&self) -> bool {
        matches!(self, AttackSpec::Linear)
    }

    /// Constructs the attack behind this spec, traced as
    /// `attack.calibrate`.
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
        let _span = oasis_telemetry::span("attack.calibrate");
        Ok(match *self {
            AttackSpec::Rtf { neurons } => Box::new(RtfAttack::calibrated(neurons, calibration)?),
            AttackSpec::Cah { neurons, target } => Box::new(CahAttack::calibrated(
                neurons,
                target,
                calibration,
                CAH_WEIGHT_SEED,
            )?),
            AttackSpec::Qbi { neurons, batch } => Box::new(QbiAttack::calibrated(
                neurons,
                batch,
                calibration,
                QBI_WEIGHT_SEED,
            )?),
            AttackSpec::Linear => Box::new(LinearModelAttack::new(classes)?),
        })
    }
}

impl fmt::Display for AttackSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            AttackSpec::Rtf { neurons } => write!(f, "rtf:{neurons}"),
            AttackSpec::Cah { neurons, target } if target == DEFAULT_ACTIVATION_TARGET => {
                write!(f, "cah:{neurons}")
            }
            AttackSpec::Cah { neurons, target } => write!(f, "cah:{neurons},{target}"),
            AttackSpec::Qbi { neurons, batch } if batch == DEFAULT_QBI_BATCH => {
                write!(f, "qbi:{neurons}")
            }
            AttackSpec::Qbi { neurons, batch } => write!(f, "qbi:{neurons},{batch}"),
            AttackSpec::Linear => f.write_str("linear"),
        }
    }
}

impl FromStr for AttackSpec {
    type Err = ScenarioError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (family, args) = split_first(s, ':');
        let spec = match family {
            "rtf" => AttackSpec::Rtf {
                neurons: field(family, "neurons", required(family, args)?)?,
            },
            "cah" => {
                let (neurons, target) = split_first(required(family, args)?, ',');
                AttackSpec::Cah {
                    neurons: field(family, "neurons", neurons)?,
                    target: match target {
                        Some(p) => field(family, "target", p)?,
                        None => DEFAULT_ACTIVATION_TARGET,
                    },
                }
            }
            "qbi" => {
                let (neurons, batch) = split_first(required(family, args)?, ',');
                AttackSpec::Qbi {
                    neurons: field(family, "neurons", neurons)?,
                    batch: match batch {
                        Some(b) => field(family, "batch", b)?,
                        None => DEFAULT_QBI_BATCH,
                    },
                }
            }
            "linear" => {
                no_args(family, args)?;
                AttackSpec::Linear
            }
            other => {
                return Err(ScenarioError::BadSpec(format!(
                    "unknown attack `{other}` (known: rtf, cah, qbi, linear)"
                )))
            }
        };
        spec.validated()
    }
}

string_serde!(AttackSpec, "attack spec");

/// One part of a defense stack.
#[derive(Debug, Clone, Copy, PartialEq)]
enum DefensePart {
    Oasis(PolicyKind),
    Ats,
    Dp { clip: f32, noise: f32 },
    Clip(f32),
}

impl DefensePart {
    fn family(&self) -> &'static str {
        match self {
            DefensePart::Oasis(_) => "oasis",
            DefensePart::Ats => "ats",
            DefensePart::Dp { .. } => "dp",
            DefensePart::Clip(_) => "clip",
        }
    }

    /// Checks the bounds every part must satisfy — the single check
    /// behind both `FromStr` and the constructors.
    fn validated(self) -> Result<Self, ScenarioError> {
        let problem = match self {
            DefensePart::Dp { clip, .. } if !(clip.is_finite() && clip > 0.0) => {
                format!("dp clip bound must be positive and finite, got `{clip}`")
            }
            DefensePart::Dp { noise, .. } if !(noise.is_finite() && noise >= 0.0) => {
                format!("dp noise multiplier must be non-negative and finite, got `{noise}`")
            }
            DefensePart::Clip(clip) if !(clip.is_finite() && clip > 0.0) => {
                format!("clip bound must be positive and finite, got `{clip}`")
            }
            _ => return Ok(self),
        };
        Err(ScenarioError::BadSpec(problem))
    }

    fn build(&self) -> Box<dyn Defense> {
        match *self {
            DefensePart::Oasis(kind) => Box::new(oasis::Oasis::new(kind)),
            DefensePart::Ats => Box::new(AtsDefense::searched()),
            DefensePart::Dp { clip, noise } => Box::new(DpStage::new(clip, noise)),
            DefensePart::Clip(clip) => Box::new(ClipStage::new(clip)),
        }
    }
}

impl fmt::Display for DefensePart {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DefensePart::Oasis(kind) => write!(f, "oasis:{}", kind.abbrev()),
            DefensePart::Ats => f.write_str("ats"),
            DefensePart::Dp { clip, noise } => write!(f, "dp:{clip},{noise}"),
            DefensePart::Clip(clip) => write!(f, "clip:{clip}"),
        }
    }
}

impl FromStr for DefensePart {
    type Err = ScenarioError;

    /// Parses one stack part. `none` is rejected here: the baseline
    /// is the whole-spec `none`, never a stack member.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (family, args) = split_first(s, ':');
        let part = match family {
            "none" | "wo" | "without" => {
                return Err(ScenarioError::BadSpec(
                    "`none` cannot be part of a stack (it is the empty stack)".into(),
                ))
            }
            "oasis" => DefensePart::Oasis(
                required(family, args)?
                    .parse::<PolicyKind>()
                    .map_err(|e| ScenarioError::BadSpec(e.to_string()))?,
            ),
            "ats" => {
                no_args(family, args)?;
                DefensePart::Ats
            }
            "dp" => {
                let (clip, noise) = required(family, args)?.split_once(',').ok_or_else(|| {
                    ScenarioError::BadSpec("dp spec needs `dp:CLIP,NOISE`".into())
                })?;
                DefensePart::Dp {
                    clip: field(family, "clip", clip)?,
                    noise: field(family, "noise", noise)?,
                }
            }
            "clip" => DefensePart::Clip(field(family, "clip", required(family, args)?)?),
            other => {
                return Err(ScenarioError::BadSpec(format!(
                    "unknown defense `{other}` (known: none, oasis, ats, dp, clip)"
                )))
            }
        };
        part.validated()
    }
}

/// A client-side defense stack (possibly empty), as a value.
///
/// Spec grammar (round-tripping through `Display`; `scenario
/// --list-specs` prints it):
///
/// * `none` — undefended baseline (also parses from `wo`, `without`),
/// * `oasis:P` — the OASIS defense with policy abbreviation `P`
///   (`MR`, `mR`, `SH`, `HFlip`, `VFlip`, `MR+SH`, `WO`),
/// * `ats` — ATSPrivacy-style transform *replacement* baseline,
/// * `dp:C,S` — DP-SGD update stage with clip norm `C` (finite, > 0)
///   and noise multiplier `S` (finite, ≥ 0). The clip granularity
///   depends on the harness: attack evaluation clips each sample's
///   gradient (record-level), FL training clips the whole update
///   (client-level, `FlClient::compute_update`). ROADMAP.md item 2
///   tracks giving `dp:` one meaning in both,
/// * `clip:C` — clip-only update stage (`C` finite, > 0),
/// * any `+`-joined stack of distinct families, applied in order:
///   `oasis:MR+dp:1,0.01` runs the OASIS batch stage, then DP-SGD's
///   clip + noise on the uploaded update.
///
/// Stacks compose in Rust with [`DefenseSpec::stacked`]:
///
/// ```
/// use oasis_scenario::DefenseSpec;
/// use oasis_augment::PolicyKind;
///
/// let stack = DefenseSpec::oasis(PolicyKind::MajorRotation)
///     .stacked(DefenseSpec::dp(1.0, 0.01))
///     .unwrap();
/// assert_eq!(stack.to_string(), "oasis:MR+dp:1,0.01");
/// assert_eq!(stack, "oasis:MR+dp:1,0.01".parse().unwrap());
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DefenseSpec {
    parts: Vec<DefensePart>,
}

impl DefenseSpec {
    /// The undefended baseline: the empty stack.
    pub fn none() -> Self {
        DefenseSpec::default()
    }

    fn single(part: DefensePart) -> Self {
        DefenseSpec {
            parts: vec![part.validated().unwrap_or_else(|e| panic!("{e}"))],
        }
    }

    /// An OASIS defense spec with the given policy.
    pub fn oasis(kind: PolicyKind) -> Self {
        DefenseSpec::single(DefensePart::Oasis(kind))
    }

    /// The ATSPrivacy-style replacement baseline spec.
    pub fn ats() -> Self {
        DefenseSpec::single(DefensePart::Ats)
    }

    /// A DP-SGD spec with clip norm `clip` and noise multiplier
    /// `noise`.
    ///
    /// # Panics
    ///
    /// Panics when `clip` is not finite and positive or `noise` is not
    /// finite and non-negative — the bounds the parse path enforces.
    pub fn dp(clip: f32, noise: f32) -> Self {
        DefenseSpec::single(DefensePart::Dp { clip, noise })
    }

    /// A clip-only spec with L2 bound `clip`.
    ///
    /// # Panics
    ///
    /// Panics when `clip` is not finite and positive (the bound the
    /// parse path enforces).
    pub fn clip(clip: f32) -> Self {
        DefenseSpec::single(DefensePart::Clip(clip))
    }

    /// The stacked family names, in application order.
    pub fn families(&self) -> Vec<&'static str> {
        self.parts.iter().map(DefensePart::family).collect()
    }

    /// Appends `other`'s parts to this stack, preserving order.
    ///
    /// # Errors
    ///
    /// Rejects duplicate families (stacking a defense with itself has
    /// no defined semantics).
    pub fn stacked(mut self, other: DefenseSpec) -> Result<Self, ScenarioError> {
        for part in other.parts {
            if self.parts.iter().any(|p| p.family() == part.family()) {
                return Err(ScenarioError::BadSpec(format!(
                    "duplicate defense family `{}` in stack",
                    part.family()
                )));
            }
            self.parts.push(part);
        }
        Ok(self)
    }

    /// Builds the [`DefenseStack`] behind this spec: one
    /// [`oasis_fl::Defense`] per part, in spec order.
    ///
    /// The stack *owns* every stage of every part — batch transforms
    /// **and** update perturbations — so a DP part can no longer be
    /// dropped by a caller that forgets a side channel (the
    /// historical `dp_params()` bug class).
    pub fn build(&self) -> DefenseStack {
        let mut stack = DefenseStack::identity();
        for part in &self.parts {
            stack.push(part.build());
        }
        stack
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
                if let Ok(part) = candidate.parse() {
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
                None => {
                    return Err(segments[i]
                        .parse::<DefensePart>()
                        .expect_err("greedy match missed"))
                }
            }
        }
        Ok(spec)
    }
}

string_serde!(DefenseSpec, "defense spec");

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
        self.generator(scale, max_batch, seed).dataset(name)
    }

    /// The unrendered [`WorkloadSpec::dataset`]: its
    /// [`Generator::render`] renders any class-major prefix of it
    /// (every image of class 0, then class 1, …), classes in parallel.
    pub(crate) fn generator(&self, scale: Scale, max_batch: usize, seed: u64) -> Generator {
        let side = self.side(scale);
        match self {
            WorkloadSpec::ImageNette => {
                let spc = (max_batch * 2).div_ceil(10).max(8);
                Generator::imagenette(spc, side, seed)
            }
            WorkloadSpec::Cifar100 | WorkloadSpec::ImageNette100c | WorkloadSpec::Cifar100c => {
                let spc = (max_batch * 2).div_ceil(100).max(2);
                Generator::synthetic(100, spc, side, seed)
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

string_serde!(WorkloadSpec, "workload spec");

/// Splits `s` at the first `sep` into its head and optional tail.
fn split_first(s: &str, sep: char) -> (&str, Option<&str>) {
    match s.split_once(sep) {
        Some((head, tail)) => (head, Some(tail)),
        None => (s, None),
    }
}

/// The `:` arguments of a family that requires them.
fn required<'a>(family: &str, args: Option<&'a str>) -> Result<&'a str, ScenarioError> {
    args.ok_or_else(|| ScenarioError::BadSpec(format!("`{family}` needs `:` arguments")))
}

/// Rejects `:` arguments on a family that takes none.
fn no_args(family: &str, args: Option<&str>) -> Result<(), ScenarioError> {
    match args {
        Some(_) => Err(ScenarioError::BadSpec(format!(
            "`{family}` takes no arguments"
        ))),
        None => Ok(()),
    }
}

/// Parses one numeric field of a `family:` spec.
fn field<T: FromStr>(family: &str, name: &str, value: &str) -> Result<T, ScenarioError> {
    value
        .trim()
        .parse()
        .map_err(|_| ScenarioError::BadSpec(format!("bad {name} `{value}` in `{family}:` spec")))
}

/// The full spec catalog, one grammar line per attack and defense
/// family and per workload, codec, net, population, campaign and scale
/// form — the text behind `scenario --list-specs`.
pub fn spec_catalog() -> &'static str {
    SPEC_CATALOG
}

const SPEC_CATALOG: &str = "\
attack families:
  rtf              Robbing the Fed with N attacked imprint neurons (rtf:N)
  cah              Curious Abandon Honesty, N trap neurons, activation target G (cah:N[,G])
  qbi              quantile-based bias init, N neurons tuned for batch B (qbi:N[,B])
  linear           gradient inversion on a single-layer softmax model (no arguments)
defense families (stack with `+`, e.g. oasis:MR+dp:1,0.01):
  none             undefended baseline (aliases: wo, without; never part of a stack)
  oasis            OASIS additive augmentation, policy P in WO|MR|mR|SH|HFlip|VFlip|MR+SH (oasis:P)
  ats              ATSPrivacy-style transform replacement (no arguments)
  dp               DP-SGD update stage: clip C, noise multiplier S (dp:C,S); attack
                   evaluation clips per sample, FL training the whole update (ROADMAP item 2)
  clip             clip-only update stage: bound the update's L2 norm, no noise (clip:C)
workloads:
  imagenette       ImageNet stand-in (Imagenette subset), 10 classes
  cifar100         CIFAR100 stand-in, 100 classes
  imagenette100c   100-class synthetic at ImageNette resolution
  cifar100c        100-class synthetic at CIFAR resolution
codecs:
  raw              lossless f32 updates
  q8               int8 affine quantization
  topk:K           K largest-magnitude coordinates
  sign             1-bit sign compression
nets:
  ideal            no latency, no loss
  sim:LAT,BW,DROP[,DL] latency ms, bandwidth Mbit/s, drop probability, straggler deadline ms
population (cohorts are sampled per attacked round; K peers share the victim's wire):
  population:N     deployment size the cohorts are drawn from (0 = legacy single-victim wire)
  sample:K         cohort size per round (default min(population, 64); requires a population)
campaigns (oasis-campaign; phases separated by `;`, fields by `+`):
  campaign:PHASES  multi-phase long-horizon run, e.g. campaign:20;30+alpha=0.5+attack=qbi:128
  R                each phase starts with its round count
  join=F/leave=F   per-round churn probabilities over the client population
  alpha=A          Dirichlet re-partition at phase entry (label-skew drift); A in
                   (0, 1e4], each draw costs O(A)
  net=SPEC         phase network conditions (same grammar as nets)
  attack=S[|S...]  adversary candidates for the phase; `|` sweeps pick the worst case
scales:
  quick            seconds-scale smoke test
  default          minutes-scale, preserves the paper's shape
  full             the paper's full grids (slow on CPU)
";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attack_specs_round_trip() {
        for spec in [
            AttackSpec::rtf(512),
            AttackSpec::cah(700),
            AttackSpec::cah_with_target(64, 0.004),
            AttackSpec::qbi(128, 8),
            AttackSpec::qbi(96, 4),
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

    /// Stacks `parts` in order with [`DefenseSpec::stacked`].
    fn stack_of<const N: usize>(parts: [DefenseSpec; N]) -> DefenseSpec {
        parts.into_iter().fold(DefenseSpec::none(), |stack, part| {
            stack.stacked(part).unwrap()
        })
    }

    #[test]
    fn stacked_defense_specs_round_trip() {
        for stack in [
            stack_of([
                DefenseSpec::oasis(PolicyKind::MajorRotation),
                DefenseSpec::dp(1.0, 0.01),
            ]),
            stack_of([
                DefenseSpec::dp(1.0, 0.01),
                DefenseSpec::oasis(PolicyKind::MajorRotation),
            ]),
            stack_of([
                DefenseSpec::oasis(PolicyKind::MajorRotationShearing),
                DefenseSpec::dp(2.0, 0.5),
            ]),
            stack_of([DefenseSpec::ats(), DefenseSpec::clip(0.5)]),
            stack_of([
                DefenseSpec::oasis(PolicyKind::Shearing),
                DefenseSpec::dp(1.0, 0.25),
                DefenseSpec::clip(3.0),
            ]),
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
            assert_eq!(spec, DefenseSpec::none());
            assert_eq!(spec.to_string(), "none");
        }
        assert!(DefenseSpec::none().build().names().is_empty());
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
                let prefix = spec.generator(Scale::Quick, 24, 5).render(n);
                assert_eq!(prefix.len(), n.min(ds.len()), "{spec} n={n}");
                assert!(
                    prefix[..] == ds.items()[..prefix.len()],
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
    fn default_target_is_elided() {
        assert_eq!(AttackSpec::cah(700).to_string(), "cah:700");
        let custom = AttackSpec::cah_with_target(700, 0.25);
        assert!(custom.to_string().starts_with("cah:700,"));
    }

    #[test]
    fn with_neurons_varies_only_that_axis() {
        assert_eq!(AttackSpec::rtf(100).with_neurons(900), AttackSpec::rtf(900));
        let cah = AttackSpec::cah_with_target(100, 0.1);
        assert_eq!(cah.with_neurons(300), AttackSpec::cah_with_target(300, 0.1));
        assert_eq!(
            AttackSpec::qbi(64, 4).with_neurons(32),
            AttackSpec::qbi(32, 4)
        );
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
    fn dp_spec_builds_a_stack_that_owns_the_update_clip() {
        // The historical `dp_params()` side channel is gone: building
        // a dp spec yields a stack whose update stage is live — there
        // is no second call a harness could forget.
        let stack = DefenseSpec::dp(2.0, 0.1).build();
        assert_eq!(stack.clip_norm(), Some(2.0));
        assert_eq!(DefenseSpec::none().build().clip_norm(), None);
    }

    #[test]
    fn stacked_spec_builds_both_stages() {
        let stack = ("oasis:MR+dp:1,0.01".parse::<DefenseSpec>().unwrap()).build();
        assert_eq!(stack.names(), vec!["oasis", "dp"]);
        assert_eq!(stack.clip_norm(), Some(1.0));
        // The batch stage is live too: OASIS MR expands 1 → 4.
        let ds = oasis_data::cifar_like_with(2, 2, 8, 0);
        let batch = oasis_data::Batch::from_items(ds.items().to_vec());
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        use rand::SeedableRng;
        assert_eq!(stack.process_batch(&batch, &mut rng).len(), batch.len() * 4);
    }

    #[test]
    fn processed_len_predicts_process_batch() {
        use rand::SeedableRng;
        let mut specs = vec![
            DefenseSpec::none(),
            DefenseSpec::ats(),
            DefenseSpec::dp(1.0, 0.5),
            DefenseSpec::clip(2.0),
            stack_of([
                DefenseSpec::ats(),
                DefenseSpec::oasis(PolicyKind::MajorRotation),
            ]),
            stack_of([
                DefenseSpec::oasis(PolicyKind::MajorRotationShearing),
                DefenseSpec::ats(),
                DefenseSpec::dp(1.0, 0.1),
                DefenseSpec::clip(0.5),
            ]),
        ];
        for kind in PolicyKind::all() {
            specs.push(DefenseSpec::oasis(kind));
            specs.push(stack_of([
                DefenseSpec::oasis(kind),
                DefenseSpec::dp(1.0, 0.01),
            ]));
        }
        let pool = oasis_data::cifar_like_with(4, 8, 8, 0);
        for spec in &specs {
            let stack = spec.build();
            for n in [0, 1, 7, 32] {
                let batch = oasis_data::Batch::from_items(pool.items()[..n].to_vec());
                let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64);
                assert_eq!(
                    stack.processed_len(n),
                    stack.process_batch(&batch, &mut rng).len(),
                    "{spec} at n = {n}"
                );
            }
        }
    }

    #[test]
    fn parse_is_validation() {
        // Each of these used to parse and then panic, hang or poison
        // the model downstream; now each is a spec error.
        for bad in [
            "dp:NaN,1",
            "dp:1,NaN",
            "dp:inf,0.1",
            "dp:1,inf",
            "clip:NaN",
            "clip:inf",
        ] {
            assert!(
                matches!(bad.parse::<DefenseSpec>(), Err(ScenarioError::BadSpec(_))),
                "`{bad}` should be a spec error"
            );
        }
        for bad in ["cah:0", "cah:8,NaN", "cah:8,2", "rtf:0", "rtf:1", "qbi:0"] {
            assert!(
                matches!(bad.parse::<AttackSpec>(), Err(ScenarioError::BadSpec(_))),
                "`{bad}` should be a spec error"
            );
        }
    }

    #[test]
    #[should_panic(expected = "cah activation target must be in (0, 1)")]
    fn cah_constructor_enforces_parse_bounds() {
        let _ = AttackSpec::cah_with_target(8, 2.0);
    }

    #[test]
    #[should_panic(expected = "rtf needs at least 2 neurons")]
    fn rtf_constructor_enforces_parse_bounds() {
        let _ = AttackSpec::rtf(1);
    }

    #[test]
    #[should_panic(expected = "qbi batch target must be at least 2")]
    fn qbi_constructor_enforces_parse_bounds() {
        let _ = AttackSpec::qbi(8, 1);
    }

    #[test]
    #[should_panic(expected = "noise multiplier must be non-negative and finite")]
    fn dp_constructor_rejects_infinite_noise() {
        let _ = DefenseSpec::dp(1.0, f32::INFINITY);
    }

    #[test]
    fn workspace_spec_strings_print_unchanged() {
        // Every spec string the figure binaries, CI and the end-to-end
        // benchmark name: `Display ∘ FromStr` is the identity on them,
        // so report provenance and file names cannot drift.
        for s in [
            "rtf:512",
            "rtf:128",
            "rtf:24",
            "cah:400",
            "cah:400,0.05",
            "cah:700",
            "qbi:128",
            "qbi:128,16",
            "qbi:96,4",
            "qbi:24",
            "linear",
        ] {
            assert_eq!(s.parse::<AttackSpec>().unwrap().to_string(), s);
        }
        for s in [
            "none",
            "oasis:MR",
            "oasis:MR+SH",
            "oasis:HFlip",
            "ats",
            "dp:1,0.0003",
            "dp:1,0.01",
            "dp:1,0",
            "dp:1,20",
            "oasis:MR+dp:1,0.0003",
            "oasis:MR+dp:1,0.01",
            "clip:0.5",
        ] {
            assert_eq!(s.parse::<DefenseSpec>().unwrap().to_string(), s);
        }
        for alias in ["wo", "without"] {
            assert_eq!(alias.parse::<DefenseSpec>().unwrap().to_string(), "none");
        }
        // Default targets are elided.
        assert_eq!(
            "cah:400,0.1".parse::<AttackSpec>().unwrap().to_string(),
            "cah:400"
        );
        assert_eq!(
            "qbi:128,8".parse::<AttackSpec>().unwrap().to_string(),
            "qbi:128"
        );
    }

    #[test]
    fn unknown_families_name_the_known_ones() {
        let err = "warp:3".parse::<AttackSpec>().unwrap_err().to_string();
        assert!(err.contains("rtf") && err.contains("qbi"), "{err}");
        let err = "dropout".parse::<DefenseSpec>().unwrap_err().to_string();
        assert!(err.contains("oasis") && err.contains("clip"), "{err}");
    }

    #[test]
    fn catalog_names_every_dimension() {
        let catalog = spec_catalog();
        for needle in [
            "attack families:",
            "defense families",
            "workloads:",
            "codecs:",
            "nets:",
            "population",
            "scales:",
            "rtf",
            "cah",
            "qbi",
            "linear",
            "oasis",
            "ats",
            "dp",
            "clip",
            "none",
            "imagenette100c",
            "topk:K",
            "sim:LAT",
            "population:N",
            "sample:K",
            "campaigns",
            "campaign:PHASES",
            "alpha=A",
            "full",
        ] {
            assert!(
                catalog.contains(needle),
                "catalog missing `{needle}`:\n{catalog}"
            );
        }
    }
}
