//! The instrumentation seam: a [`Probe`] observes the engine's phase
//! structure without influencing it.
//!
//! This is the third observation seam after [`crate::delivery`] and
//! [`crate::oracle`], and it follows the same static-dispatch pattern:
//! the engine is generic over a `Probe` whose default, [`NoProbe`],
//! consists of empty `#[inline]` hooks that the optimizer deletes — the
//! uninstrumented engine is bit-identical in behaviour and cost to the
//! pre-probe engine. Concrete probes (the structured event log and the
//! metrics registry of `aba-obs`) live downstream, keeping `aba-sim`
//! dependency-free.
//!
//! The seam is the engine's only event channel. The engine keeps no
//! event log and no per-round history of its own: a caller that wants
//! round boundaries, corruptions, halts or each round's
//! [`RoundMetrics`] records them from these hooks, while the
//! [`RunReport`] carries only run totals.
//!
//! Probes differ from [`Oracle`](crate::oracle::Oracle)s in what they
//! see and what they are for: an oracle watches *protocol claims*
//! (agreement, budgets) through typed per-round context, while a probe
//! watches the *engine itself* — round/phase boundaries, corruptions,
//! halts — on the message-agnostic spine, so one probe type serves
//! every protocol without a generic parameter. Like oracles, probes
//! observe only: they receive no mutable access to nodes, mailboxes, or
//! RNGs, so an instrumented run's outcome is the uninstrumented one.

use crate::arrivals::ArrivalScan;
use crate::engine::{RunReport, SimConfig};
use crate::id::{NodeId, Round};
use crate::metrics::RoundMetrics;

/// The four phases of one engine round, in normative order (see the
/// [`crate::engine`] docs). A probe receives a [`Probe::phase_end`] hook
/// after each; the phase's start is the previous phase's end (or
/// [`Probe::round_start`] for [`RoundPhase::Emit`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RoundPhase {
    /// Phase 1: live honest nodes emit.
    Emit,
    /// Phase 2: the adversary acts (corruptions applied, sends placed).
    Adversary,
    /// Phase 3a: the delivery stage decides what arrives.
    Deliver,
    /// Phase 3b: live honest nodes process their inboxes.
    Receive,
}

impl RoundPhase {
    /// Stable lowercase name, used by event logs and exporters.
    pub fn name(self) -> &'static str {
        match self {
            RoundPhase::Emit => "emit",
            RoundPhase::Adversary => "adversary",
            RoundPhase::Deliver => "deliver",
            RoundPhase::Receive => "receive",
        }
    }

    /// All phases, in round order.
    pub const ALL: [RoundPhase; 4] = [
        RoundPhase::Emit,
        RoundPhase::Adversary,
        RoundPhase::Deliver,
        RoundPhase::Receive,
    ];
}

/// An engine instrumentation hook. Every method has an empty default
/// body, so a probe implements only what it observes.
///
/// Hooks fire on logical time (round and phase indices), never on the
/// wall clock: a probe that records exactly what it is handed is
/// deterministic by construction. Wall-clock *timing* probes are
/// possible (the hooks are `&mut self`, a probe may read a clock), but
/// such probes belong to the explicitly non-deterministic timing
/// channel of `aba-obs` and its lint-registered files.
pub trait Probe {
    /// Whether this probe wants the per-round [`ArrivalScan`].
    ///
    /// The scan costs O(n + deviations) per round to fill, so the
    /// engine skips it entirely — at compile time, for statically
    /// known probes — unless a probe opts in. Tuples opt in when
    /// either member does.
    const WANTS_ARRIVALS: bool = false;

    /// The run is configured and about to execute its first round.
    fn run_start(&mut self, cfg: &SimConfig) {
        let _ = cfg;
    }

    /// A round is starting.
    fn round_start(&mut self, round: Round) {
        let _ = round;
    }

    /// One of the round's phases just completed.
    fn phase_end(&mut self, round: Round, phase: RoundPhase) {
        let _ = (round, phase);
    }

    /// The adversary corrupted `node` (`total` = corruptions so far).
    fn corruption(&mut self, round: Round, node: NodeId, total: usize) {
        let _ = (round, node, total);
    }

    /// An honest node halted with `output`.
    fn halt(&mut self, round: Round, node: NodeId, output: Option<bool>) {
        let _ = (round, node, output);
    }

    /// The round's arrival relation and per-node traffic, post-delivery.
    ///
    /// Fires between [`RoundPhase::Deliver`] and the receive loop, only
    /// when [`Probe::WANTS_ARRIVALS`] is set. The scan is pooled and
    /// reused every round — copy out whatever must survive.
    fn arrivals(&mut self, round: Round, scan: &ArrivalScan) {
        let _ = (round, scan);
    }

    /// The round completed with these measurements.
    fn round_end(&mut self, round: Round, metrics: &RoundMetrics) {
        let _ = (round, metrics);
    }

    /// The run finished; `report` is final.
    fn run_end(&mut self, report: &RunReport) {
        let _ = report;
    }
}

/// The default probe: observes nothing, costs nothing. Its empty
/// inline hooks compile away entirely, so `Simulation` with `NoProbe`
/// is the uninstrumented engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoProbe;

impl Probe for NoProbe {}

/// Probes compose as tuples (mirroring [`crate::oracle::Oracle`]):
/// `(A, B)` forwards every hook to `A` then `B`, and tuples nest.
impl<A: Probe, B: Probe> Probe for (A, B) {
    const WANTS_ARRIVALS: bool = A::WANTS_ARRIVALS || B::WANTS_ARRIVALS;

    fn run_start(&mut self, cfg: &SimConfig) {
        self.0.run_start(cfg);
        self.1.run_start(cfg);
    }
    fn round_start(&mut self, round: Round) {
        self.0.round_start(round);
        self.1.round_start(round);
    }
    fn phase_end(&mut self, round: Round, phase: RoundPhase) {
        self.0.phase_end(round, phase);
        self.1.phase_end(round, phase);
    }
    fn corruption(&mut self, round: Round, node: NodeId, total: usize) {
        self.0.corruption(round, node, total);
        self.1.corruption(round, node, total);
    }
    fn halt(&mut self, round: Round, node: NodeId, output: Option<bool>) {
        self.0.halt(round, node, output);
        self.1.halt(round, node, output);
    }
    fn arrivals(&mut self, round: Round, scan: &ArrivalScan) {
        self.0.arrivals(round, scan);
        self.1.arrivals(round, scan);
    }
    fn round_end(&mut self, round: Round, metrics: &RoundMetrics) {
        self.0.round_end(round, metrics);
        self.1.round_end(round, metrics);
    }
    fn run_end(&mut self, report: &RunReport) {
        self.0.run_end(report);
        self.1.run_end(report);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts hook invocations — the shape every recording probe shares.
    #[derive(Debug, Default, Clone, PartialEq, Eq)]
    struct Counter {
        runs: usize,
        rounds: usize,
        phases: usize,
        ends: usize,
    }

    impl Probe for Counter {
        fn run_start(&mut self, _cfg: &SimConfig) {
            self.runs += 1;
        }
        fn round_start(&mut self, _round: Round) {
            self.rounds += 1;
        }
        fn phase_end(&mut self, _round: Round, _phase: RoundPhase) {
            self.phases += 1;
        }
        fn run_end(&mut self, _report: &RunReport) {
            self.ends += 1;
        }
    }

    #[test]
    fn tuple_composition_forwards_to_both() {
        let mut pair = (Counter::default(), Counter::default());
        pair.round_start(Round::ZERO);
        pair.phase_end(Round::ZERO, RoundPhase::Emit);
        assert_eq!(pair.0.rounds, 1);
        assert_eq!(pair.1.rounds, 1);
        assert_eq!(pair.0.phases, 1);
        assert_eq!(pair.1.phases, 1);
    }

    #[test]
    fn phase_names_are_stable_and_ordered() {
        let names: Vec<_> = RoundPhase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names, ["emit", "adversary", "deliver", "receive"]);
        assert!(RoundPhase::Emit < RoundPhase::Receive);
    }

    #[test]
    fn no_probe_ignores_everything() {
        let mut p = NoProbe;
        p.round_start(Round::ZERO);
        p.corruption(Round::ZERO, NodeId::new(0), 1);
        p.halt(Round::ZERO, NodeId::new(0), Some(true));
        assert_eq!(p, NoProbe);
    }
}
