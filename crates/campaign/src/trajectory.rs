//! Per-round campaign trajectories: schema-v1 JSONL records of
//! privacy, utility, traffic, churn, and phase timings.
//!
//! A trajectory file is one `meta` line followed by one `round` line
//! per campaign round:
//!
//! ```text
//! {"kind":"meta","schema_version":1,"spec":"campaign:20;30",...}
//! {"kind":"round","round":0,"phase":0,"mean_psnr":8.1,...}
//! ```
//!
//! [`validate_trajectory`] is the `trace_check`-style schema gate CI
//! runs over every smoke trajectory: structural problems (bad JSON,
//! missing fields) and semantic ones (non-contiguous rounds,
//! delivered > cohort, dead population) both fail it.

use std::path::Path;

use serde::{Deserialize, Serialize};

/// Trajectory schema version this crate writes and validates.
pub const TRAJECTORY_SCHEMA_VERSION: u64 = 1;

/// One round of a campaign, as recorded in the trajectory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrajectoryRecord {
    /// Global campaign round (0-based, contiguous).
    pub round: u64,
    /// Index of the phase the round ran under.
    pub phase: usize,
    /// Clients the round's cohort was sampled from.
    pub active_clients: usize,
    /// Cohort size the scheduler drew this round.
    pub cohort: usize,
    /// Updates that arrived and were aggregated.
    pub delivered: usize,
    /// Cohort members whose update was lost or cut off.
    pub dropped: usize,
    /// Clients that churned out before this round.
    pub churn_left: usize,
    /// Departed clients that rejoined before this round.
    pub churn_joined: usize,
    /// Encoded update bytes uplink (including lost updates).
    pub bytes_up: u64,
    /// Broadcast model bytes downlink.
    pub bytes_down: u64,
    /// Simulated round wall-clock in milliseconds.
    pub sim_ms: f64,
    /// Mean local loss over delivered clients.
    pub mean_loss: f64,
    /// Utility proxy `exp(−mean_loss)` — the geometric-mean predicted
    /// probability of the true class under cross-entropy, in (0, 1].
    pub accuracy_proxy: f64,
    /// Spec of the adversary candidate that won this round's probe
    /// (`None` on rounds without an adversary evaluation).
    pub attack: Option<String>,
    /// Mean PSNR of the winning candidate's reconstructions.
    pub mean_psnr: Option<f64>,
    /// Leak rate of the winning candidate at the campaign threshold.
    pub leak_rate: Option<f64>,
    /// Telemetry phase breakdown `(name, ns)` in execution order,
    /// recorded only while telemetry is enabled.
    pub timings_ns: Option<Vec<(String, u64)>>,
}

/// A whole campaign trajectory: run metadata plus per-round records.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectoryReport {
    /// Canonical campaign spec string.
    pub spec: String,
    /// Campaign seed.
    pub seed: u64,
    /// Defense stack spec string (e.g. `oasis:MR+dp:1,0.01`).
    pub defense: String,
    /// Population size at campaign start.
    pub clients: usize,
    /// Per-round records in round order.
    pub records: Vec<TrajectoryRecord>,
}

fn tag_kind(value: serde::Value, kind: &str) -> serde::Value {
    match value {
        serde::Value::Object(mut fields) => {
            fields.insert(0, ("kind".to_string(), serde::Value::Str(kind.to_string())));
            serde::Value::Object(fields)
        }
        other => other,
    }
}

impl TrajectoryReport {
    /// Renders the schema-v1 JSONL text.
    pub fn to_jsonl(&self) -> String {
        let meta = serde::Value::Object(vec![
            ("kind".to_string(), serde::Value::Str("meta".to_string())),
            (
                "schema_version".to_string(),
                serde::Value::U64(TRAJECTORY_SCHEMA_VERSION),
            ),
            ("spec".to_string(), serde::Value::Str(self.spec.clone())),
            ("seed".to_string(), serde::Value::U64(self.seed)),
            (
                "defense".to_string(),
                serde::Value::Str(self.defense.clone()),
            ),
            (
                "clients".to_string(),
                serde::Value::U64(self.clients as u64),
            ),
        ]);
        let mut out = serde_json::to_string(&meta).expect("meta value serializes");
        out.push('\n');
        for record in &self.records {
            let line = serde_json::to_string(&tag_kind(record.to_value(), "round"))
                .expect("record value serializes");
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// Writes the trajectory as JSONL, creating parent directories.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_jsonl())
    }

    /// Parses schema-v1 JSONL text back into a report.
    ///
    /// # Errors
    ///
    /// Returns a line-numbered message on structural problems.
    pub fn from_jsonl_str(text: &str) -> Result<Self, String> {
        let mut lines = text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty());
        let (_, meta_line) = lines.next().ok_or("empty trajectory file")?;
        let meta: serde::Value =
            serde_json::from_str(meta_line).map_err(|e| format!("line 1: bad JSON: {e:?}"))?;
        if meta.get("kind").and_then(|k| k.as_str()) != Some("meta") {
            return Err("line 1: first line must be the `meta` record".into());
        }
        let version = meta
            .get("schema_version")
            .and_then(|v| v.as_u64())
            .ok_or("line 1: missing `schema_version`")?;
        if version != TRAJECTORY_SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema_version {version} (expected {TRAJECTORY_SCHEMA_VERSION})"
            ));
        }
        let str_field = |key: &str| -> Result<String, String> {
            Ok(meta
                .get(key)
                .and_then(|v| v.as_str())
                .ok_or(format!("line 1: missing `{key}`"))?
                .to_string())
        };
        let mut report = TrajectoryReport {
            spec: str_field("spec")?,
            seed: meta
                .get("seed")
                .and_then(|v| v.as_u64())
                .ok_or("line 1: missing `seed`")?,
            defense: str_field("defense")?,
            clients: meta
                .get("clients")
                .and_then(|v| v.as_u64())
                .ok_or("line 1: missing `clients`")? as usize,
            records: Vec::new(),
        };
        for (i, line) in lines {
            let line_no = i + 1;
            let value: serde_json::Value = serde_json::from_str(line)
                .map_err(|e| format!("line {line_no}: bad JSON: {e:?}"))?;
            match value.get("kind").and_then(|k| k.as_str()) {
                Some("round") => {}
                other => {
                    return Err(format!(
                        "line {line_no}: expected kind `round`, got {other:?}"
                    ))
                }
            }
            let record = TrajectoryRecord::from_value(&value)
                .map_err(|e| format!("line {line_no}: {e:?}"))?;
            report.records.push(record);
        }
        Ok(report)
    }
}

/// Summary returned by a successful [`validate_trajectory`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrajectorySummary {
    /// Rounds recorded.
    pub rounds: usize,
    /// Distinct phases seen.
    pub phases: usize,
    /// Rounds with an adversary evaluation.
    pub probed_rounds: usize,
    /// Total churn events (leaves + joins).
    pub churn_events: usize,
}

/// The schema gate: parses and semantically checks a trajectory.
///
/// # Errors
///
/// Returns a message naming the first violated invariant: rounds must
/// be contiguous from 0, phases monotonic, `delivered + dropped ==
/// cohort`, `delivered ≤ active_clients`, the population must never
/// be empty, and the utility proxy must stay in (0, 1].
pub fn validate_trajectory(text: &str) -> Result<TrajectorySummary, String> {
    let report = TrajectoryReport::from_jsonl_str(text)?;
    if report.records.is_empty() {
        return Err("trajectory has no round records".into());
    }
    let mut phases = 0usize;
    let mut probed = 0usize;
    let mut churn = 0usize;
    let mut last_phase = 0usize;
    for (i, r) in report.records.iter().enumerate() {
        let ctx = |msg: String| format!("round record {i}: {msg}");
        if r.round != i as u64 {
            return Err(ctx(format!(
                "round {} out of order (expected {i})",
                r.round
            )));
        }
        if r.phase < last_phase {
            return Err(ctx(format!(
                "phase went backwards ({} after {last_phase})",
                r.phase
            )));
        }
        if r.phase > last_phase || i == 0 {
            phases += 1;
        }
        last_phase = r.phase;
        if r.delivered.checked_add(r.dropped) != Some(r.cohort) {
            return Err(ctx(format!(
                "delivered {} + dropped {} != cohort {}",
                r.delivered, r.dropped, r.cohort
            )));
        }
        if r.cohort > r.active_clients {
            return Err(ctx(format!(
                "cohort {} exceeds active clients {}",
                r.cohort, r.active_clients
            )));
        }
        if r.active_clients == 0 {
            return Err(ctx("population died (0 active clients)".into()));
        }
        if r.delivered > 0 && r.bytes_up == 0 {
            return Err(ctx("delivered updates but no uplink bytes".into()));
        }
        if !(r.accuracy_proxy > 0.0 && r.accuracy_proxy <= 1.0 + 1e-9) {
            return Err(ctx(format!(
                "accuracy proxy {} outside (0, 1]",
                r.accuracy_proxy
            )));
        }
        let probe_fields = [
            r.attack.is_some(),
            r.mean_psnr.is_some(),
            r.leak_rate.is_some(),
        ];
        if probe_fields.iter().any(|&p| p) && !probe_fields.iter().all(|&p| p) {
            return Err(ctx("partial adversary evaluation fields".into()));
        }
        if r.attack.is_some() {
            probed += 1;
        }
        churn = churn.saturating_add(r.churn_left.saturating_add(r.churn_joined));
    }
    Ok(TrajectorySummary {
        rounds: report.records.len(),
        phases,
        probed_rounds: probed,
        churn_events: churn,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(round: u64) -> TrajectoryRecord {
        TrajectoryRecord {
            round,
            phase: 0,
            active_clients: 8,
            cohort: 4,
            delivered: 3,
            dropped: 1,
            churn_left: 0,
            churn_joined: 0,
            bytes_up: 4096,
            bytes_down: 8192,
            sim_ms: 1.5,
            mean_loss: 2.0,
            accuracy_proxy: (-2.0f64).exp(),
            attack: Some("qbi:64".into()),
            mean_psnr: Some(9.5),
            leak_rate: Some(0.0),
            timings_ns: Some(vec![("compute".into(), 1000)]),
        }
    }

    fn report() -> TrajectoryReport {
        TrajectoryReport {
            spec: "campaign:2".into(),
            seed: 7,
            defense: "oasis:MR".into(),
            clients: 8,
            records: vec![record(0), record(1)],
        }
    }

    #[test]
    fn jsonl_roundtrips() {
        let r = report();
        let text = r.to_jsonl();
        let back = TrajectoryReport::from_jsonl_str(&text).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn validate_accepts_a_good_trajectory() {
        let summary = validate_trajectory(&report().to_jsonl()).unwrap();
        assert_eq!(summary.rounds, 2);
        assert_eq!(summary.phases, 1);
        assert_eq!(summary.probed_rounds, 2);
    }

    #[test]
    fn validate_rejects_schema_violations() {
        // Non-contiguous rounds.
        let mut r = report();
        r.records[1].round = 5;
        assert!(validate_trajectory(&r.to_jsonl()).is_err());
        // Accounting mismatch.
        let mut r = report();
        r.records[0].dropped = 2;
        assert!(validate_trajectory(&r.to_jsonl()).is_err());
        // Counts whose sum overflows.
        let mut r = report();
        r.records[0].delivered = usize::MAX;
        r.records[0].dropped = 1;
        assert!(validate_trajectory(&r.to_jsonl()).is_err());
        // Dead population.
        let mut r = report();
        r.records[1].active_clients = 0;
        r.records[1].cohort = 0;
        r.records[1].delivered = 0;
        r.records[1].dropped = 0;
        assert!(validate_trajectory(&r.to_jsonl()).is_err());
        // Partial probe fields.
        let mut r = report();
        r.records[0].leak_rate = None;
        assert!(validate_trajectory(&r.to_jsonl()).is_err());
        // Missing meta line.
        assert!(validate_trajectory("{\"kind\":\"round\"}\n").is_err());
        // Wrong schema version.
        let text = report()
            .to_jsonl()
            .replace("\"schema_version\":1", "\"schema_version\":9");
        assert!(validate_trajectory(&text).is_err());
    }
}
