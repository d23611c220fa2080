//! The deterministic structured event log.
//!
//! Events are stamped with a **logical tick** — a counter incremented on
//! every push — never with wall-clock time. A log is therefore a pure
//! function of what was pushed in what order, and two runs that observe
//! the same engine behaviour render byte-identical text. That makes the
//! rendered log part of the workspace's reproducibility surface,
//! alongside the campaign CSV/JSON artifacts: tests pin that it is
//! identical across sweep worker counts and between a live run and its
//! trace replay.

use std::fmt::Write as _;

use aba_sim::probe::RoundPhase;
use aba_sim::{NodeId, Round};

/// One hierarchy level or point event on the logical timeline.
///
/// The span levels nest campaign → cell → trial → round → phase; the
/// remaining variants are point events inside a round or annotations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A campaign (named grid of cells) began.
    CampaignStart {
        /// Campaign name.
        name: String,
    },
    /// A grid cell's trials begin.
    CellStart {
        /// The cell's stable key (label).
        key: String,
    },
    /// All of a cell's trials are accounted for.
    CellEnd {
        /// The cell's stable key (label).
        key: String,
    },
    /// One simulation run began.
    TrialStart {
        /// Network size.
        n: usize,
        /// Corruption budget.
        t: usize,
        /// Master seed.
        seed: u64,
    },
    /// One simulation run finished.
    TrialEnd {
        /// Rounds executed.
        rounds: u64,
        /// Whether every honest node halted.
        all_halted: bool,
    },
    /// An engine round began.
    RoundStart {
        /// The round.
        round: Round,
    },
    /// One of the round's four phases completed.
    PhaseEnd {
        /// The round.
        round: Round,
        /// Which phase ended.
        phase: RoundPhase,
    },
    /// The adversary corrupted a node.
    Corruption {
        /// The round.
        round: Round,
        /// The corrupted node.
        node: NodeId,
        /// Corruptions used so far, including this one.
        total: usize,
    },
    /// An honest node halted (decided).
    Halt {
        /// The round.
        round: Round,
        /// The halting node.
        node: NodeId,
        /// Its output, if it produced one.
        output: Option<bool>,
    },
    /// An oracle reported an invariant violation.
    Violation {
        /// Round the violation was observed.
        round: u64,
        /// Which oracle fired.
        oracle: String,
        /// Human-readable detail.
        detail: String,
    },
    /// An engine round completed, with its measurements.
    RoundEnd {
        /// The round.
        round: Round,
        /// Messages emitted this round.
        messages: usize,
        /// Bits on the wire this round.
        bits: usize,
        /// Messages actually delivered.
        delivered: usize,
        /// Messages dropped by the network.
        dropped: usize,
        /// Delay events.
        delayed: usize,
        /// Corruptions this round.
        corruptions: usize,
    },
    /// Free-form annotation (e.g. "cell restored from checkpoint").
    Note {
        /// The annotation.
        text: String,
    },
}

impl EventKind {
    /// Stable lowercase tag, the first token of the rendered line.
    pub fn tag(&self) -> &'static str {
        match self {
            EventKind::CampaignStart { .. } => "campaign-start",
            EventKind::CellStart { .. } => "cell-start",
            EventKind::CellEnd { .. } => "cell-end",
            EventKind::TrialStart { .. } => "trial-start",
            EventKind::TrialEnd { .. } => "trial-end",
            EventKind::RoundStart { .. } => "round-start",
            EventKind::PhaseEnd { .. } => "phase-end",
            EventKind::Corruption { .. } => "corruption",
            EventKind::Halt { .. } => "halt",
            EventKind::Violation { .. } => "violation",
            EventKind::RoundEnd { .. } => "round-end",
            EventKind::Note { .. } => "note",
        }
    }
}

/// An event stamped with its logical tick.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsEvent {
    /// Position on the logical timeline (0-based, dense).
    pub tick: u64,
    /// What happened.
    pub kind: EventKind,
}

/// An append-only log of [`ObsEvent`]s on a logical timeline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventLog {
    events: Vec<ObsEvent>,
}

impl EventLog {
    /// An empty log at tick 0.
    pub fn new() -> Self {
        EventLog::default()
    }

    /// Appends `kind` at the next tick.
    pub fn push(&mut self, kind: EventKind) {
        let tick = self.events.len() as u64;
        self.events.push(ObsEvent { tick, kind });
    }

    /// The recorded events, in tick order.
    pub fn events(&self) -> &[ObsEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Appends every event of `other`, re-stamping ticks onto this log's
    /// timeline. Campaign assembly splices per-trial logs into one
    /// campaign log with this; because ticks are re-assigned, the result
    /// depends only on splice order, not on which worker produced which
    /// piece.
    pub fn absorb(&mut self, other: &EventLog) {
        for ev in &other.events {
            self.push(ev.kind.clone());
        }
    }

    /// Renders the log as deterministic text: one `tick tag k=v ...`
    /// line per event, `\n`-terminated. Byte-identical logs ⇔ equal
    /// logs, so tests compare these strings directly.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 32);
        for ev in &self.events {
            let _ = write!(out, "{} {}", ev.tick, ev.kind.tag());
            match &ev.kind {
                EventKind::CampaignStart { name } => {
                    let _ = write!(out, " name={name}");
                }
                EventKind::CellStart { key } | EventKind::CellEnd { key } => {
                    let _ = write!(out, " key={key}");
                }
                EventKind::TrialStart { n, t, seed } => {
                    let _ = write!(out, " n={n} t={t} seed={seed}");
                }
                EventKind::TrialEnd { rounds, all_halted } => {
                    let _ = write!(out, " rounds={rounds} all_halted={all_halted}");
                }
                EventKind::RoundStart { round } => {
                    let _ = write!(out, " round={}", round.index());
                }
                EventKind::PhaseEnd { round, phase } => {
                    let _ = write!(out, " round={} phase={}", round.index(), phase.name());
                }
                EventKind::Corruption { round, node, total } => {
                    let _ = write!(out, " round={} node={} total={total}", round.index(), node);
                }
                EventKind::Halt {
                    round,
                    node,
                    output,
                } => {
                    let _ = write!(out, " round={} node={} output=", round.index(), node);
                    match output {
                        Some(b) => {
                            let _ = write!(out, "{b}");
                        }
                        None => out.push('-'),
                    }
                }
                EventKind::Violation {
                    round,
                    oracle,
                    detail,
                } => {
                    let _ = write!(out, " round={round} oracle={oracle} detail={detail}");
                }
                EventKind::RoundEnd {
                    round,
                    messages,
                    bits,
                    delivered,
                    dropped,
                    delayed,
                    corruptions,
                } => {
                    let _ = write!(
                        out,
                        " round={} messages={messages} bits={bits} delivered={delivered} \
                         dropped={dropped} delayed={delayed} corruptions={corruptions}",
                        round.index()
                    );
                }
                EventKind::Note { text } => {
                    let _ = write!(out, " text={text}");
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_are_dense_and_ordered() {
        let mut log = EventLog::new();
        log.push(EventKind::TrialStart {
            n: 4,
            t: 1,
            seed: 7,
        });
        log.push(EventKind::RoundStart { round: Round::ZERO });
        assert_eq!(log.len(), 2);
        assert_eq!(log.events()[0].tick, 0);
        assert_eq!(log.events()[1].tick, 1);
    }

    #[test]
    fn render_is_stable() {
        let mut log = EventLog::new();
        log.push(EventKind::TrialStart {
            n: 4,
            t: 1,
            seed: 7,
        });
        log.push(EventKind::PhaseEnd {
            round: Round::ZERO,
            phase: RoundPhase::Emit,
        });
        log.push(EventKind::Halt {
            round: Round::new(2),
            node: NodeId::new(3),
            output: Some(true),
        });
        assert_eq!(
            log.render(),
            "0 trial-start n=4 t=1 seed=7\n\
             1 phase-end round=0 phase=emit\n\
             2 halt round=2 node=v3 output=true\n"
        );
    }

    #[test]
    fn absorb_restamps_ticks() {
        let mut a = EventLog::new();
        a.push(EventKind::CampaignStart {
            name: "c".to_string(),
        });
        let mut b = EventLog::new();
        b.push(EventKind::Note {
            text: "x".to_string(),
        });
        a.absorb(&b);
        assert_eq!(a.events()[1].tick, 1);
        // Splicing equal pieces in equal order gives equal renders,
        // regardless of the logs they came from.
        let mut c = EventLog::new();
        c.push(EventKind::CampaignStart {
            name: "c".to_string(),
        });
        c.push(EventKind::Note {
            text: "x".to_string(),
        });
        assert_eq!(a.render(), c.render());
    }
}
