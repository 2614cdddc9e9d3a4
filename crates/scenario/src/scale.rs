//! Experiment scale: one knob shrinking every grid and resolution
//! from the paper's full evaluation down to a seconds-scale smoke
//! test.

use std::fmt;
use std::str::FromStr;

use crate::ScenarioError;

/// Scale of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// Seconds-scale smoke test.
    Quick,
    /// Minutes-scale default preserving the paper's shape.
    #[default]
    Default,
    /// The paper's full grids (slow on CPU).
    Full,
}

impl Scale {
    /// Parses `--quick` / `--full` from the process arguments,
    /// reporting any other `--flag` on stderr instead of silently
    /// ignoring it (binaries with richer flag sets parse explicitly
    /// and resolve the scale via [`Scale::from_flags`]).
    pub fn from_args() -> Scale {
        let args: Vec<String> = std::env::args().skip(1).collect();
        for arg in &args {
            if arg.starts_with("--") && arg != "--quick" && arg != "--full" {
                eprintln!(
                    "warning: unknown flag `{arg}` ignored (this binary accepts --quick / --full)"
                );
            }
        }
        Scale::from_flags(&args)
    }

    /// Resolves the scale from pre-collected flags. `--quick` wins
    /// when both flags are present (the historical behavior: the
    /// smoke-test scale is never silently escalated).
    pub fn from_flags(args: &[String]) -> Scale {
        if args.iter().any(|a| a == "--quick") {
            Scale::Quick
        } else if args.iter().any(|a| a == "--full") {
            Scale::Full
        } else {
            Scale::Default
        }
    }

    /// Batch sizes of the Figure 3/4 grid at this scale.
    pub fn grid_batches(&self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![8, 32],
            Scale::Default => vec![8, 16, 32, 64, 128, 256],
            Scale::Full => vec![8, 16, 32, 64, 96, 128, 160, 192, 224, 256],
        }
    }

    /// Attacked-neuron counts of the Figure 3/4 grid at this scale.
    pub fn grid_neurons(&self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![100, 400],
            Scale::Default => vec![100, 300, 500, 700, 900],
            Scale::Full => vec![100, 200, 300, 400, 500, 600, 700, 800, 900, 1000],
        }
    }

    /// Number of independent batches averaged per configuration.
    pub fn trials(&self) -> usize {
        match self {
            Scale::Quick => 1,
            Scale::Default => 2,
            Scale::Full => 3,
        }
    }

    /// Image side for the ImageNet stand-in at this scale.
    pub fn imagenette_side(&self) -> usize {
        match self {
            Scale::Quick => 16,
            Scale::Default => 32,
            Scale::Full => 64,
        }
    }

    /// Image side for the CIFAR100 stand-in at this scale.
    pub fn cifar_side(&self) -> usize {
        match self {
            Scale::Quick => 12,
            Scale::Default => 16,
            Scale::Full => 32,
        }
    }

    /// Caps a paper neuron count to what this scale's resolution
    /// supports (the figure binaries historically capped at quick
    /// scale to keep the smoke test in seconds).
    pub fn cap_neurons(&self, neurons: usize, cap_at_quick: usize) -> usize {
        match self {
            Scale::Quick => neurons.min(cap_at_quick),
            _ => neurons,
        }
    }
}

impl fmt::Display for Scale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Scale::Quick => "quick",
            Scale::Default => "default",
            Scale::Full => "full",
        };
        f.write_str(name)
    }
}

impl FromStr for Scale {
    type Err = ScenarioError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "quick" => Ok(Scale::Quick),
            "default" => Ok(Scale::Default),
            "full" => Ok(Scale::Full),
            other => Err(ScenarioError::BadSpec(format!(
                "unknown scale `{other}` (expected quick, default, or full)"
            ))),
        }
    }
}

string_serde!(Scale, "scale");

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_produce_monotone_grids() {
        assert!(Scale::Quick.grid_batches().len() < Scale::Full.grid_batches().len());
        assert!(Scale::Quick.grid_neurons().len() < Scale::Full.grid_neurons().len());
    }

    #[test]
    fn full_grid_matches_paper_axes() {
        assert_eq!(
            Scale::Full.grid_batches(),
            vec![8, 16, 32, 64, 96, 128, 160, 192, 224, 256]
        );
        assert_eq!(
            Scale::Full.grid_neurons(),
            vec![100, 200, 300, 400, 500, 600, 700, 800, 900, 1000]
        );
    }

    #[test]
    fn scale_round_trips() {
        for scale in [Scale::Quick, Scale::Default, Scale::Full] {
            assert_eq!(scale.to_string().parse::<Scale>().unwrap(), scale);
        }
        assert!("warp".parse::<Scale>().is_err());
    }

    #[test]
    fn flags_resolve_scale() {
        let quick = vec!["--quick".to_string()];
        let full = vec!["--full".to_string()];
        assert_eq!(Scale::from_flags(&quick), Scale::Quick);
        assert_eq!(Scale::from_flags(&full), Scale::Full);
        assert_eq!(Scale::from_flags(&[]), Scale::Default);
    }

    #[test]
    fn quick_caps_neurons() {
        assert_eq!(Scale::Quick.cap_neurons(900, 200), 200);
        assert_eq!(Scale::Default.cap_neurons(900, 200), 900);
    }
}
