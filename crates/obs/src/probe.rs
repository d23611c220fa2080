//! [`EventProbe`] — the deterministic-channel implementation of the
//! engine's [`Probe`] seam.
//!
//! It records every hook into an [`EventLog`] and a [`MetricsRegistry`];
//! both are functions of logical time only, so an instrumented run's
//! observability output is as reproducible as the run itself. The probe
//! is reusable across trials: the harness and sweep construct one per
//! trial and splice the results in deterministic order.

use aba_sim::probe::{Probe, RoundPhase};
use aba_sim::{NodeId, Round, RoundMetrics, RunReport, SimConfig};

use crate::event::{EventKind, EventLog};
use crate::metrics::{Histogram, MetricsRegistry};

/// Metric names emitted by [`EventProbe`], kept in one place so
/// exporters and tests don't scatter string literals.
pub mod names {
    /// Counter: rounds executed.
    pub const ROUNDS: &str = "sim.rounds";
    /// Counter: point-to-point messages emitted.
    pub const MESSAGES: &str = "sim.messages";
    /// Counter: bits on the wire.
    pub const BITS: &str = "sim.bits";
    /// Counter: messages actually delivered.
    pub const DELIVERED: &str = "sim.delivered";
    /// Counter: messages dropped by the network.
    pub const DROPPED: &str = "sim.dropped";
    /// Counter: delay events.
    pub const DELAYED: &str = "sim.delayed";
    /// Counter: adversary corruptions.
    pub const CORRUPTIONS: &str = "sim.corruptions";
    /// Counter: honest halts (decisions).
    pub const HALTS: &str = "sim.halts";
    /// Counter: trials observed.
    pub const TRIALS: &str = "sim.trials";
    /// Gauge: max bits crossing any edge in any round (CONGEST bound).
    pub const MAX_EDGE_BITS: &str = "sim.max_edge_bits";
    /// Histogram: messages per round.
    pub const ROUND_MESSAGES: &str = "sim.round_messages";
    /// Histogram: round at which honest nodes halted.
    pub const HALT_ROUND: &str = "sim.halt_round";
}

/// In-flight metric accumulators, held as plain fields so the per-round
/// and per-halt hooks never touch the registry's name-keyed maps; the
/// whole tally is folded into the [`MetricsRegistry`] once, at
/// `run_end`. This keeps the probe's hot path to a handful of integer
/// adds — what lets the probe-enabled engine sit inside the CI
/// overhead gate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Tally {
    rounds: u64,
    messages: u64,
    bits: u64,
    delivered: u64,
    dropped: u64,
    delayed: u64,
    corruptions: u64,
    halts: u64,
    max_edge_bits: i64,
    round_messages: Histogram,
    halt_round: Histogram,
}

/// A probe that fills an [`EventLog`] and a [`MetricsRegistry`] from the
/// engine's hooks. Purely logical-time: no clocks, no I/O.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventProbe {
    log: EventLog,
    metrics: MetricsRegistry,
    tally: Tally,
}

impl EventProbe {
    /// An empty probe.
    pub fn new() -> Self {
        EventProbe::default()
    }

    /// The recorded event log.
    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// The recorded metrics. Hot-path tallies land here when the
    /// engine calls `run_end` (i.e. once the run finishes); mid-run the
    /// registry holds only what previous flushes deposited.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Folds the in-flight tally into the registry and resets it, so a
    /// probe reused across runs keeps accumulating additively. Metric
    /// names appear only when the corresponding hook fired, matching
    /// what per-hook registry writes would have produced.
    fn flush_tally(&mut self) {
        let t = std::mem::take(&mut self.tally);
        if t.rounds > 0 {
            self.metrics.counter_add(names::ROUNDS, t.rounds);
            self.metrics.counter_add(names::MESSAGES, t.messages);
            self.metrics.counter_add(names::BITS, t.bits);
            self.metrics.counter_add(names::DELIVERED, t.delivered);
            self.metrics.counter_add(names::DROPPED, t.dropped);
            self.metrics.counter_add(names::DELAYED, t.delayed);
            self.metrics
                .gauge_max(names::MAX_EDGE_BITS, t.max_edge_bits);
            self.metrics
                .merge_histogram(names::ROUND_MESSAGES, &t.round_messages);
        }
        if t.corruptions > 0 {
            self.metrics.counter_add(names::CORRUPTIONS, t.corruptions);
        }
        if t.halts > 0 {
            self.metrics.counter_add(names::HALTS, t.halts);
            self.metrics
                .merge_histogram(names::HALT_ROUND, &t.halt_round);
        }
    }

    /// Appends an event outside the engine hooks (the harness uses this
    /// for oracle violations; the sweep for notes).
    pub fn push(&mut self, kind: EventKind) {
        self.log.push(kind);
    }

    /// Consumes the probe, yielding its two channels.
    pub fn into_parts(self) -> (EventLog, MetricsRegistry) {
        (self.log, self.metrics)
    }
}

impl Probe for EventProbe {
    fn run_start(&mut self, cfg: &SimConfig) {
        self.log.push(EventKind::TrialStart {
            n: cfg.n,
            t: cfg.t,
            seed: cfg.seed,
        });
        self.metrics.counter_add(names::TRIALS, 1);
    }

    fn round_start(&mut self, round: Round) {
        self.log.push(EventKind::RoundStart { round });
    }

    fn phase_end(&mut self, round: Round, phase: RoundPhase) {
        self.log.push(EventKind::PhaseEnd { round, phase });
    }

    fn corruption(&mut self, round: Round, node: NodeId, total: usize) {
        self.log.push(EventKind::Corruption { round, node, total });
        self.tally.corruptions += 1;
    }

    fn halt(&mut self, round: Round, node: NodeId, output: Option<bool>) {
        self.log.push(EventKind::Halt {
            round,
            node,
            output,
        });
        self.tally.halts += 1;
        self.tally.halt_round.observe(round.index());
    }

    fn round_end(&mut self, round: Round, rm: &RoundMetrics) {
        self.log.push(EventKind::RoundEnd {
            round,
            messages: rm.messages,
            bits: rm.bits,
            delivered: rm.delivered,
            dropped: rm.dropped,
            delayed: rm.delayed,
            corruptions: rm.corruptions,
        });
        self.tally.rounds += 1;
        self.tally.messages += rm.messages as u64;
        self.tally.bits += rm.bits as u64;
        self.tally.delivered += rm.delivered as u64;
        self.tally.dropped += rm.dropped as u64;
        self.tally.delayed += rm.delayed as u64;
        self.tally.round_messages.observe(rm.messages as u64);
        self.tally.max_edge_bits = self.tally.max_edge_bits.max(rm.max_edge_bits as i64);
    }

    fn run_end(&mut self, report: &RunReport) {
        self.log.push(EventKind::TrialEnd {
            rounds: report.rounds,
            all_halted: report.all_halted,
        });
        self.flush_tally();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aba_sim::RunMetrics;

    fn report() -> RunReport {
        RunReport {
            rounds: 1,
            all_halted: true,
            outputs: vec![Some(false); 4],
            honest: vec![true; 4],
            corruptions_used: 0,
            halt_rounds: vec![Some(0); 4],
            metrics: RunMetrics::default(),
        }
    }

    #[test]
    fn probe_records_trial_span_and_counters() {
        let mut p = EventProbe::new();
        let cfg = SimConfig::new(4, 1).with_seed(9);
        p.run_start(&cfg);
        p.round_start(Round::ZERO);
        for phase in RoundPhase::ALL {
            p.phase_end(Round::ZERO, phase);
        }
        p.halt(Round::ZERO, NodeId::new(2), Some(false));
        p.round_end(
            Round::ZERO,
            &RoundMetrics {
                messages: 12,
                bits: 120,
                max_edge_bits: 10,
                delivered: 12,
                ..RoundMetrics::default()
            },
        );
        // Hot-path tallies reach the registry at run_end.
        assert_eq!(p.metrics().counter(names::MESSAGES), 0);
        p.run_end(&report());
        assert_eq!(p.metrics().counter(names::TRIALS), 1);
        assert_eq!(p.metrics().counter(names::MESSAGES), 12);
        assert_eq!(p.metrics().counter(names::HALTS), 1);
        assert_eq!(p.metrics().gauge(names::MAX_EDGE_BITS), Some(10));
        let hist = p.metrics().histogram(names::HALT_ROUND).expect("hist");
        assert_eq!(hist.count(), 1);
        let text = p.log().render();
        assert!(text.starts_with("0 trial-start n=4 t=1 seed=9\n"));
        assert!(text.contains("phase-end round=0 phase=deliver"));
        assert!(text.contains("halt round=0 node=v2 output=false"));
    }

    #[test]
    fn flush_is_additive_across_reuse() {
        let mut p = EventProbe::new();
        let rm = RoundMetrics {
            messages: 5,
            ..RoundMetrics::default()
        };
        p.round_end(Round::ZERO, &rm);
        p.run_end(&report());
        p.round_end(Round::ZERO, &rm);
        p.run_end(&report());
        assert_eq!(p.metrics().counter(names::ROUNDS), 2);
        assert_eq!(p.metrics().counter(names::MESSAGES), 10);
    }
}
