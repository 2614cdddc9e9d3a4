//! The `campaign:` spec grammar — declarative multi-phase campaigns.
//!
//! A campaign is an ordered list of **phases** separated by `;`,
//! prefixed with the `campaign:` family tag so the string is
//! self-identifying next to attack/defense specs:
//!
//! ```text
//! campaign:20;30+alpha=0.5+attack=qbi:128;50+join=0.2+leave=0.1+net=sim:20,8,0.05
//! ```
//!
//! Each phase starts with its round count; optional `+key=value`
//! fields declare the phase's per-round dynamics:
//!
//! * `join=F` / `leave=F` — per-round churn probabilities over the
//!   client population (departed clients keep their shard and can
//!   rejoin);
//! * `alpha=A` — Dirichlet re-partition at phase entry (label-skew
//!   drift, [`oasis_population::Population::dirichlet`]); `A` is
//!   positive and at most [`MAX_DIRICHLET_ALPHA`] (10⁴): each
//!   Dirichlet draw costs O(A), and at the cap every share is already
//!   within about 1 % of IID;
//! * `net=SPEC` — network conditions for the phase
//!   ([`NetSpec`] grammar: `ideal` or `sim:LAT,BW,DROP[,DL]`),
//!   sticky until a later phase overrides it;
//! * `attack=S[|S...]` — the adversary program: candidate
//!   [`AttackSpec`]s evaluated each probe round; with several
//!   candidates the adversary adaptively reports its worst case.
//!
//! `Display` and `FromStr` are exact inverses on canonical specs
//! (proptested), so campaigns round-trip through filenames, CLI
//! flags, and trajectory metadata.

use std::fmt;
use std::str::FromStr;

use oasis_population::MAX_DIRICHLET_ALPHA;
use oasis_scenario::{AttackSpec, ScenarioError};
use oasis_wire::NetSpec;

/// One campaign phase: a round count plus per-round dynamics.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSpec {
    /// How many rounds the phase runs.
    pub rounds: usize,
    /// Per-round probability that an active client churns out.
    pub leave: Option<f64>,
    /// Per-round probability that a departed client rejoins.
    pub join: Option<f64>,
    /// Dirichlet concentration for a label-skew re-partition applied
    /// at phase entry; `None` keeps the current partition.
    pub alpha: Option<f64>,
    /// Network conditions installed at phase entry; `None` keeps the
    /// previous phase's network.
    pub net: Option<NetSpec>,
    /// Adversary candidates evaluated on probe rounds; empty = the
    /// adversary sits out this phase.
    pub attack: Vec<AttackSpec>,
}

impl PhaseSpec {
    /// A plain training phase: `rounds` rounds, no churn, no drift,
    /// no adversary.
    pub fn rounds(rounds: usize) -> Self {
        PhaseSpec {
            rounds,
            leave: None,
            join: None,
            alpha: None,
            net: None,
            attack: Vec::new(),
        }
    }

    fn validate(&self) -> Result<(), ScenarioError> {
        if self.rounds == 0 {
            return Err(ScenarioError::BadSpec(
                "campaign phase needs at least 1 round".into(),
            ));
        }
        for (field, v) in [("join", self.join), ("leave", self.leave)] {
            if let Some(v) = v {
                if !(0.0..=1.0).contains(&v) {
                    return Err(ScenarioError::BadSpec(format!(
                        "campaign `{field}` must be a probability in [0,1], got `{v}`"
                    )));
                }
            }
        }
        if let Some(a) = self.alpha {
            // NaN must fail too, so compare on the accepting side. The
            // Dirichlet sampler costs O(α) per draw, and never finishes
            // once α ≥ 2⁵³.
            if !(a > 0.0 && a <= MAX_DIRICHLET_ALPHA) {
                return Err(ScenarioError::BadSpec(format!(
                    "campaign `alpha` must be positive and at most \
                     {MAX_DIRICHLET_ALPHA}, got `{a}`"
                )));
            }
        }
        Ok(())
    }
}

impl fmt::Display for PhaseSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.rounds)?;
        if let Some(v) = self.join {
            write!(f, "+join={v}")?;
        }
        if let Some(v) = self.leave {
            write!(f, "+leave={v}")?;
        }
        if let Some(v) = self.alpha {
            write!(f, "+alpha={v}")?;
        }
        if let Some(net) = self.net {
            write!(f, "+net={net}")?;
        }
        if !self.attack.is_empty() {
            let specs: Vec<String> = self.attack.iter().map(|a| a.to_string()).collect();
            write!(f, "+attack={}", specs.join("|"))?;
        }
        Ok(())
    }
}

impl FromStr for PhaseSpec {
    type Err = ScenarioError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut fields = s.split('+');
        let rounds_str = fields.next().unwrap_or("");
        let rounds: usize = rounds_str.trim().parse().map_err(|_| {
            ScenarioError::BadSpec(format!(
                "campaign phase must start with its round count, got `{rounds_str}`"
            ))
        })?;
        let mut phase = PhaseSpec::rounds(rounds);
        for field in fields {
            let (key, value) = field.split_once('=').ok_or_else(|| {
                ScenarioError::BadSpec(format!("campaign phase field `{field}` is not `key=value`"))
            })?;
            let parse_f64 = |v: &str| -> Result<f64, ScenarioError> {
                v.trim().parse().map_err(|_| {
                    ScenarioError::BadSpec(format!("bad campaign `{key}` value `{v}`"))
                })
            };
            match key {
                "join" => phase.join = Some(parse_f64(value)?),
                "leave" => phase.leave = Some(parse_f64(value)?),
                "alpha" => phase.alpha = Some(parse_f64(value)?),
                "net" => {
                    phase.net = Some(value.parse::<NetSpec>().map_err(|e| {
                        ScenarioError::BadSpec(format!("bad campaign `net` value `{value}`: {e}"))
                    })?)
                }
                "attack" => {
                    phase.attack = value
                        .split('|')
                        .map(|spec| spec.parse::<AttackSpec>())
                        .collect::<Result<Vec<_>, _>>()?;
                    if phase.attack.is_empty() {
                        return Err(ScenarioError::BadSpec(
                            "campaign `attack` needs at least one candidate".into(),
                        ));
                    }
                }
                _ => {
                    return Err(ScenarioError::BadSpec(format!(
                        "unknown campaign phase field `{key}` \
                         (known: join, leave, alpha, net, attack)"
                    )))
                }
            }
        }
        phase.validate()?;
        Ok(phase)
    }
}

/// An ordered list of [`PhaseSpec`]s — the whole campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    phases: Vec<PhaseSpec>,
}

impl CampaignSpec {
    /// Builds a campaign from its phases.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::BadSpec`] when there are no phases or
    /// any phase is invalid.
    pub fn new(phases: Vec<PhaseSpec>) -> Result<Self, ScenarioError> {
        if phases.is_empty() {
            return Err(ScenarioError::BadSpec(
                "campaign needs at least one phase".into(),
            ));
        }
        for phase in &phases {
            phase.validate()?;
        }
        Ok(CampaignSpec { phases })
    }

    /// The phases in order.
    pub fn phases(&self) -> &[PhaseSpec] {
        &self.phases
    }

    /// Total rounds across all phases.
    pub fn total_rounds(&self) -> usize {
        self.phases.iter().map(|p| p.rounds).sum()
    }

    /// The phase index and spec active at global `round`, or `None`
    /// past the campaign's end.
    pub fn phase_at(&self, round: u64) -> Option<(usize, &PhaseSpec)> {
        let mut start = 0u64;
        for (i, phase) in self.phases.iter().enumerate() {
            let end = start + phase.rounds as u64;
            if round < end {
                return Some((i, phase));
            }
            start = end;
        }
        None
    }

    /// The global round at which phase `index` starts.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn phase_start(&self, index: usize) -> u64 {
        self.phases[..index].iter().map(|p| p.rounds as u64).sum()
    }
}

impl fmt::Display for CampaignSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let phases: Vec<String> = self.phases.iter().map(|p| p.to_string()).collect();
        write!(f, "campaign:{}", phases.join(";"))
    }
}

impl FromStr for CampaignSpec {
    type Err = ScenarioError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let body = s.strip_prefix("campaign:").ok_or_else(|| {
            ScenarioError::BadSpec(format!(
                "campaign spec must start with `campaign:`, got `{s}`"
            ))
        })?;
        let phases = body
            .split(';')
            .map(|p| p.parse::<PhaseSpec>())
            .collect::<Result<Vec<_>, _>>()?;
        CampaignSpec::new(phases)
    }
}

impl serde::Serialize for CampaignSpec {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.to_string())
    }
}

impl serde::Deserialize for CampaignSpec {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let s = value
            .as_str()
            .ok_or_else(|| serde::Error::expected("campaign spec string", value))?;
        s.parse().map_err(|e| serde::Error::msg(format!("{e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(s: &str) -> String {
        s.parse::<CampaignSpec>().expect(s).to_string()
    }

    #[test]
    fn minimal_single_phase_roundtrips() {
        assert_eq!(roundtrip("campaign:20"), "campaign:20");
    }

    #[test]
    fn full_grammar_roundtrips() {
        let s = "campaign:20+join=0.2+leave=0.1+alpha=0.5+net=sim:20,8,0.05+attack=rtf:128;\
                 30+attack=rtf:128|qbi:96,4;10";
        assert_eq!(roundtrip(s), s);
    }

    #[test]
    fn attack_args_canonicalize() {
        // `qbi:64,8` elides the default batch target, like bare specs.
        assert_eq!(
            roundtrip("campaign:5+attack=qbi:64,8"),
            "campaign:5+attack=qbi:64"
        );
    }

    #[test]
    fn phase_bookkeeping() {
        let spec: CampaignSpec = "campaign:3;4;5".parse().unwrap();
        assert_eq!(spec.total_rounds(), 12);
        assert_eq!(spec.phase_start(0), 0);
        assert_eq!(spec.phase_start(2), 7);
        assert_eq!(spec.phase_at(0).unwrap().0, 0);
        assert_eq!(spec.phase_at(2).unwrap().0, 0);
        assert_eq!(spec.phase_at(3).unwrap().0, 1);
        assert_eq!(spec.phase_at(11).unwrap().0, 2);
        assert!(spec.phase_at(12).is_none());
    }

    #[test]
    fn rejects_bad_specs() {
        for bad in [
            "20",                       // missing family tag
            "campaign:",                // no phases
            "campaign:0",               // zero rounds
            "campaign:5+join=1.5",      // probability out of range
            "campaign:5+alpha=0",       // non-positive alpha
            "campaign:3+alpha=inf",     // infinite alpha
            "campaign:3+alpha=NaN",     // NaN alpha
            "campaign:3+alpha=1e5",     // alpha above the cap
            "campaign:3+alpha=1e300",   // alpha far above the cap
            "campaign:5+warp=1",        // unknown field
            "campaign:5+join",          // not key=value
            "campaign:5+net=warp",      // bad net spec
            "campaign:5+attack=warp:1", // unknown attack family
            "campaign:5;x",             // bad round count
        ] {
            assert!(bad.parse::<CampaignSpec>().is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn serde_roundtrips_via_spec_string() {
        use serde::{Deserialize, Serialize};
        let spec: CampaignSpec = "campaign:5+alpha=0.3;7+attack=qbi:64".parse().unwrap();
        let back = CampaignSpec::from_value(&spec.to_value()).unwrap();
        assert_eq!(spec, back);
    }
}
