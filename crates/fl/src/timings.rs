//! Per-round wall-clock phase breakdowns.

/// Wall-clock breakdown of one round across the protocol phases, in
/// nanoseconds. Produced by the cohort round
/// (`oasis_population::CohortRunner`) **only while telemetry is
/// enabled** — `report.timings` is `None` on untraced runs, so the
/// report itself stays bit-identical whether tracing is on or off.
///
/// `compute` covers each delivered client's local training *and* its
/// update encode (both run in the same parallel task), and `fold`
/// covers decoding each frame as the streaming aggregator folds it.
/// The span trace (see `oasis-telemetry`) still splits them out: the
/// codecs record `wire.encode.*` / `wire.decode.*` spans wherever
/// they run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundTimings {
    /// Cohort selection / scheduler sampling.
    pub select_ns: u64,
    /// Global weight flattening.
    pub broadcast_ns: u64,
    /// The FedAvg pre-pass: summing the delivered clients' sample
    /// counts (from shard lengths, without drawing a batch) and
    /// allocating the fold's model-sized accumulator.
    pub hydrate_ns: u64,
    /// Parallel local training and update encoding across the
    /// delivered clients.
    pub compute_ns: u64,
    /// Simulated transport: submissions, delivery plan, drops.
    pub deliver_ns: u64,
    /// Decoding and sample-weighted folding of delivered updates.
    pub fold_ns: u64,
    /// The aggregated update's norm (the report's `update_norm`)
    /// and the server SGD step that applies it.
    pub step_ns: u64,
    /// Whole-round wall clock (the `fl.round` span).
    pub total_ns: u64,
}

impl RoundTimings {
    /// The named phases in execution order, `(name, ns)`.
    pub fn phases(&self) -> [(&'static str, u64); 7] {
        [
            ("select", self.select_ns),
            ("broadcast", self.broadcast_ns),
            ("deliver", self.deliver_ns),
            ("hydrate", self.hydrate_ns),
            ("compute", self.compute_ns),
            ("fold", self.fold_ns),
            ("step", self.step_ns),
        ]
    }

    /// Sum of the named phases (excludes `total_ns`).
    pub fn phase_sum_ns(&self) -> u64 {
        self.phases().iter().map(|(_, ns)| ns).sum()
    }

    /// Fraction of the round's wall clock the named phases account
    /// for, in `[0, 1]`-ish (can exceed 1 by clock granularity).
    /// The observability acceptance gate asserts this is ≥ 0.9.
    pub fn coverage(&self) -> f64 {
        if self.total_ns == 0 {
            return 0.0;
        }
        self.phase_sum_ns() as f64 / self.total_ns as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_is_phase_sum_over_total() {
        let t = RoundTimings {
            select_ns: 10,
            compute_ns: 70,
            step_ns: 10,
            total_ns: 100,
            ..RoundTimings::default()
        };
        assert_eq!(t.phase_sum_ns(), 90);
        assert!((t.coverage() - 0.9).abs() < 1e-12);
        assert_eq!(RoundTimings::default().coverage(), 0.0);
    }
}
