//! Scenario-level entry points for the `aba-obs` deterministic channel:
//! run a trial with the [`EventProbe`] attached and get back the event
//! log and metrics registry alongside the ordinary result, or run the
//! record/replay differential with probes on both sides.
//!
//! Everything returned here lives on **logical time**: the event log and
//! registry are pure functions of the scenario, so
//! [`observe_scenario`]'s output is part of the reproducibility surface
//! — byte-identical across processes, worker counts, and (as
//! [`observe_replay`] pins) between a live run and its trace replay.

use crate::check::lemma_suite_for;
use crate::runner::{self, Once, RecordReplay, TrialResult};
use crate::scenario::Scenario;
use aba_check::OracleReport;
use aba_obs::{EventKind, EventLog, EventProbe, MetricsRegistry};

/// Result of one probe-instrumented, oracle-checked trial.
#[derive(Debug, Clone, PartialEq)]
pub struct ObservedTrial {
    /// The ordinary trial result (bit-identical to an uninstrumented
    /// run — probes and oracles observe, they never influence).
    pub result: TrialResult,
    /// What the armed lemma oracles concluded.
    pub oracle: OracleReport,
    /// The deterministic event log (trial → round → phase spans, typed
    /// corruption/halt events, plus one `violation` event per retained
    /// oracle violation).
    pub events: EventLog,
    /// The deterministic metrics registry.
    pub metrics: MetricsRegistry,
}

impl ObservedTrial {
    /// Whether no armed oracle fired.
    pub fn is_clean(&self) -> bool {
        self.oracle.is_clean()
    }
}

/// Both sides of a record/replay differential with the deterministic
/// channel captured on each (see [`observe_replay`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ObservedReplay {
    /// The live run's trial result.
    pub live: TrialResult,
    /// The replayed run's trial result.
    pub replayed: TrialResult,
    /// Event log captured during the live run.
    pub live_events: EventLog,
    /// Event log captured during the replay.
    pub replayed_events: EventLog,
    /// Metrics registry from the live run.
    pub live_metrics: MetricsRegistry,
    /// Metrics registry from the replay.
    pub replayed_metrics: MetricsRegistry,
}

impl ObservedReplay {
    /// Whether the replay reproduced the live trial result bit for bit.
    pub fn is_faithful(&self) -> bool {
        self.live == self.replayed
    }

    /// Whether the deterministic channel matched byte for byte: equal
    /// rendered event logs and equal rendered registries.
    pub fn channels_match(&self) -> bool {
        self.live_events.render() == self.replayed_events.render()
            && self.live_metrics.render() == self.replayed_metrics.render()
    }
}

/// Runs one scenario with the deterministic observability channel (and
/// the scenario's lemma oracles) attached — the instrumented sibling of
/// [`crate::check_scenario`].
///
/// # Panics
///
/// Same preconditions as [`crate::run_scenario`].
pub fn observe_scenario(s: &Scenario) -> ObservedTrial {
    let ran = runner::drive_scenario(Once(lemma_suite_for(s), EventProbe::new()), s);
    let oracle = ran.oracle.report();
    let mut probe = ran.probe;
    log_violations(&mut probe, &oracle);
    let (events, metrics) = probe.into_parts();
    ObservedTrial {
        result: ran.result,
        oracle,
        events,
        metrics,
    }
}

/// Appends one `violation` event per retained oracle violation, so the
/// event log carries the full story of the trial.
pub(crate) fn log_violations(probe: &mut EventProbe, oracle: &OracleReport) {
    for v in &oracle.violations {
        probe.push(EventKind::Violation {
            round: v.round,
            oracle: v.oracle.to_string(),
            detail: v.detail.clone(),
        });
    }
}

/// Records one scenario's run with a probe attached, re-drives it from
/// the trace with a fresh probe, and returns both channels — the
/// differential pinning that the event log is a function of engine
/// behaviour, not of how the run was driven.
///
/// # Panics
///
/// Same preconditions as [`crate::run_scenario`].
pub fn observe_replay(s: &Scenario) -> ObservedReplay {
    let r = runner::drive_scenario(RecordReplay(EventProbe::new), s);
    let (live_events, live_metrics) = r.live_probe.into_parts();
    let (replayed_events, replayed_metrics) = r.replay_probe.into_parts();
    ObservedReplay {
        live: r.live,
        replayed: r.replayed,
        live_events,
        replayed_events,
        live_metrics,
        replayed_metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::AttackSpec;

    #[test]
    fn observed_trial_matches_plain_run() {
        let s = Scenario::new(16, 5).with_attack(AttackSpec::FullAttack);
        let plain = runner::run_scenario(&s);
        let observed = observe_scenario(&s);
        assert_eq!(plain, observed.result, "probe must not perturb the run");
        assert!(!observed.events.is_empty());
        assert!(observed.events.render().contains("trial-start n=16 t=5"));
        assert_eq!(
            observed.metrics.counter("sim.rounds"),
            plain.rounds,
            "registry round counter mirrors the report"
        );
    }

    #[test]
    fn observe_is_deterministic() {
        let s = Scenario::new(16, 5).with_attack(AttackSpec::SplitVote);
        let a = observe_scenario(&s);
        let b = observe_scenario(&s);
        assert_eq!(a.events.render(), b.events.render());
        assert_eq!(a.metrics.render(), b.metrics.render());
    }

    #[test]
    fn replay_reproduces_the_deterministic_channel() {
        let s = Scenario::new(16, 5).with_attack(AttackSpec::FullAttack);
        let r = observe_replay(&s);
        assert!(r.is_faithful());
        assert!(r.channels_match());
    }
}
