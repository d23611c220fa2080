//! Scenario-level entry points for causal provenance tracing: run a
//! trial with the [`ProvenanceProbe`] (and
//! the full deterministic channel) attached, getting back each node's
//! decision cone, the per-node communication profile, and — when honest
//! deciders disagree — the violation blame set; or run the live-vs-
//! replay differential over all of it.
//!
//! Everything here lives on **logical time**: the provenance artifacts
//! ([`ProvenanceProbe::summary`](aba_obs::ProvenanceProbe::summary),
//! the DOT/line-JSON causal graphs, the flow-annotated Chrome trace)
//! are pure functions of the scenario — byte-identical across
//! processes, worker counts, thread counts, and (as
//! [`provenance_replay`] pins) between a live run and its trace replay.

use crate::check::lemma_suite_for;
use crate::observe::log_violations;
use crate::runner::{self, Once, RecordReplay, TrialResult};
use crate::scenario::Scenario;
use aba_check::{BlameReport, OracleReport};
use aba_obs::{chrome_trace_with_flows, EventLog, EventProbe, MetricsRegistry, ProvenanceProbe};

/// Result of one provenance-traced, oracle-checked trial.
#[derive(Debug, Clone, PartialEq)]
pub struct ProvenancedTrial {
    /// The ordinary trial result (bit-identical to an uninstrumented
    /// run — probes and oracles observe, they never influence).
    pub result: TrialResult,
    /// What the armed lemma oracles concluded.
    pub oracle: OracleReport,
    /// The deterministic event log (with one `violation` event per
    /// retained oracle violation appended).
    pub events: EventLog,
    /// The deterministic metrics registry, including the `prov.*`
    /// per-node traffic and cone histograms.
    pub metrics: MetricsRegistry,
    /// The provenance layer: decision cones, influence sets, per-node
    /// traffic, per-round arrival relations, and the exporters.
    pub provenance: ProvenanceProbe,
    /// Blame for an honest-decider disagreement (empty when all honest
    /// deciders agreed — the common case).
    pub blame: BlameReport,
}

impl ProvenancedTrial {
    /// Whether no armed oracle fired.
    pub fn is_clean(&self) -> bool {
        self.oracle.is_clean()
    }

    /// Deterministic text artifact: the per-node provenance summary,
    /// followed by the blame line when a disagreement was traced.
    pub fn summary(&self) -> String {
        let mut out = self.provenance.summary();
        if !self.blame.is_empty() {
            out.push_str("blame ");
            out.push_str(&self.blame.render());
            out.push('\n');
        }
        out
    }

    /// The causal graph in DOT form (see
    /// [`ProvenanceProbe::dot_graph`](aba_obs::ProvenanceProbe::dot_graph)).
    pub fn dot_graph(&self) -> String {
        self.provenance.dot_graph()
    }

    /// The causal graph as line-JSON (see
    /// [`ProvenanceProbe::jsonl_graph`](aba_obs::ProvenanceProbe::jsonl_graph)).
    pub fn jsonl_graph(&self) -> String {
        self.provenance.jsonl_graph()
    }

    /// The trial's Chrome trace with adversary-influence flow events
    /// spliced in (see [`chrome_trace_with_flows`]).
    pub fn chrome_trace(&self) -> String {
        chrome_trace_with_flows(&self.events, &self.provenance)
    }
}

/// Both sides of a record/replay differential with the provenance layer
/// captured on each (see [`provenance_replay`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ProvenancedReplay {
    /// The live run's trial result.
    pub live: TrialResult,
    /// The replayed run's trial result.
    pub replayed: TrialResult,
    /// Event log captured during the live run (oracle-less, so it is
    /// comparable to the replay's).
    pub live_events: EventLog,
    /// Event log captured during the replay.
    pub replayed_events: EventLog,
    /// Provenance captured during the live run.
    pub live_provenance: ProvenanceProbe,
    /// Provenance captured during the replay.
    pub replayed_provenance: ProvenanceProbe,
}

impl ProvenancedReplay {
    /// Whether the replay reproduced the live trial result bit for bit.
    pub fn is_faithful(&self) -> bool {
        self.live == self.replayed
    }

    /// Whether every provenance artifact matched byte for byte: the
    /// per-node summaries, both causal-graph exports, and the
    /// flow-annotated Chrome traces.
    pub fn artifacts_match(&self) -> bool {
        let (a, b) = (&self.live_provenance, &self.replayed_provenance);
        a.summary() == b.summary()
            && a.dot_graph() == b.dot_graph()
            && a.jsonl_graph() == b.jsonl_graph()
            && chrome_trace_with_flows(&self.live_events, a)
                == chrome_trace_with_flows(&self.replayed_events, b)
    }
}

/// Runs one scenario with the causal provenance layer (plus the
/// deterministic channel and the scenario's lemma oracles) attached —
/// the provenance sibling of [`crate::observe_scenario`].
///
/// # Panics
///
/// Same preconditions as [`crate::run_scenario`].
pub fn provenance_scenario(s: &Scenario) -> ProvenancedTrial {
    let probes = (EventProbe::new(), ProvenanceProbe::new());
    let ran = runner::drive_scenario(Once(lemma_suite_for(s), probes), s);
    let oracle = ran.oracle.report();
    let (mut event_probe, provenance) = ran.probe;
    log_violations(&mut event_probe, &oracle);
    let blame = aba_check::blame_disagreement(&ran.report, |d, c| provenance.influenced(d, c));
    let (events, mut metrics) = event_probe.into_parts();
    // One registry for the trial: fold the probe's prov.* metrics
    // into the deterministic channel (merge is order-invariant).
    metrics.merge(provenance.metrics());
    ProvenancedTrial {
        result: ran.result,
        oracle,
        events,
        metrics,
        provenance,
        blame,
    }
}

/// Records one scenario's run with the provenance probe attached,
/// re-drives it from the trace with a fresh probe, and returns both
/// provenance layers — the differential pinning that decision cones and
/// causal graphs are functions of engine behaviour, not of how the run
/// was driven.
///
/// # Panics
///
/// Same preconditions as [`crate::run_scenario`].
pub fn provenance_replay(s: &Scenario) -> ProvenancedReplay {
    let r = runner::drive_scenario(
        RecordReplay(|| (EventProbe::new(), ProvenanceProbe::new())),
        s,
    );
    let (live_event_probe, live_provenance) = r.live_probe;
    let (replay_event_probe, replayed_provenance) = r.replay_probe;
    ProvenancedReplay {
        live: r.live,
        replayed: r.replayed,
        live_events: live_event_probe.into_parts().0,
        replayed_events: replay_event_probe.into_parts().0,
        live_provenance,
        replayed_provenance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::AttackSpec;
    use aba_sim::NodeId;

    #[test]
    fn provenanced_trial_matches_plain_run() {
        let s = Scenario::new(16, 5).with_attack(AttackSpec::FullAttack);
        let plain = runner::run_scenario(&s);
        let traced = provenance_scenario(&s);
        assert_eq!(plain, traced.result, "probes must not perturb the run");
        // Every node ends with a frozen cone, and a halted node's cone
        // includes itself.
        for i in 0..16 {
            let stats = traced.provenance.explain(NodeId::new(i)).expect("frozen");
            assert!(stats.width >= 1);
            assert!(traced.provenance.in_cone(NodeId::new(i), NodeId::new(i)));
        }
        // Per-node metrics landed in the registry.
        assert_eq!(traced.metrics.counter("prov.trials"), 1);
        assert!(traced.summary().contains("node v0 "));
    }

    #[test]
    fn provenance_is_deterministic() {
        let s = Scenario::new(16, 5).with_attack(AttackSpec::SplitVote);
        let a = provenance_scenario(&s);
        let b = provenance_scenario(&s);
        assert_eq!(a.summary(), b.summary());
        assert_eq!(a.dot_graph(), b.dot_graph());
        assert_eq!(a.jsonl_graph(), b.jsonl_graph());
        assert_eq!(a.chrome_trace(), b.chrome_trace());
    }

    #[test]
    fn replay_reproduces_provenance_artifacts() {
        let s = Scenario::new(16, 5).with_attack(AttackSpec::FullAttack);
        let r = provenance_replay(&s);
        assert!(r.is_faithful());
        assert!(r.artifacts_match());
    }

    #[test]
    fn clean_run_has_empty_blame() {
        let s = Scenario::new(16, 5).with_attack(AttackSpec::Benign);
        let traced = provenance_scenario(&s);
        assert!(traced.is_clean());
        assert!(traced.blame.is_empty());
        assert!(!traced.summary().contains("blame "));
    }
}
