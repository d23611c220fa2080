//! Adaptive crash-fault adversary.
//!
//! Crash faults are the model in which Bar-Joseph and Ben-Or proved the
//! `Ω(t/√(n log n))` lower bound the paper compares against (Theorem 1):
//! a crashed node simply stops sending, possibly mid-round (here: from
//! the round of corruption onward, its messages are dropped entirely —
//! the harshest clean-cut variant). The *adaptive* part is the schedule:
//! the adversary chooses whom to crash and when, with full information.

use aba_sim::adversary::{Adversary, AdversaryAction, RoundView};
use aba_sim::{MessagePlane, NodeId, Protocol};
use rand::{seq::SliceRandom, RngCore};

/// When the crash adversary pulls the trigger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CrashSchedule {
    /// Crash `per_round` random live honest nodes every round until the
    /// budget runs out. Models steady attrition.
    Steady {
        /// Crashes per round.
        per_round: usize,
    },
    /// Crash everything the budget allows at one specific round. Models a
    /// coordinated mass failure at the worst moment.
    BigBang {
        /// The round at which all crashes happen.
        round: u64,
    },
    /// Crash one random node in each round in `from..to`.
    Window {
        /// First crashing round.
        from: u64,
        /// One past the last crashing round.
        to: u64,
    },
}

/// Adaptive crash adversary: crashed nodes go permanently silent.
#[derive(Debug, Clone)]
pub struct AdaptiveCrash {
    schedule: CrashSchedule,
}

impl AdaptiveCrash {
    /// Creates the adversary with a schedule.
    pub fn new(schedule: CrashSchedule) -> Self {
        AdaptiveCrash { schedule }
    }

    /// Steady attrition of `per_round` crashes per round.
    pub fn steady(per_round: usize) -> Self {
        Self::new(CrashSchedule::Steady { per_round })
    }

    fn pick<P: Protocol, L: MessagePlane<P::Msg>>(
        view: &RoundView<'_, P, L>,
        how_many: usize,
        rng: &mut dyn RngCore,
    ) -> Vec<NodeId> {
        let mut live: Vec<NodeId> = view.live_honest().collect();
        let quota = how_many.min(view.ledger.remaining()).min(live.len());
        live.shuffle(rng);
        live.truncate(quota);
        live
    }
}

impl<P: Protocol, L: MessagePlane<P::Msg>> Adversary<P, L> for AdaptiveCrash {
    fn act(
        &mut self,
        view: &RoundView<'_, P, L>,
        rng: &mut dyn RngCore,
    ) -> AdversaryAction<P::Msg> {
        let r = view.round.index();
        let corruptions = match self.schedule {
            CrashSchedule::Steady { per_round } => Self::pick(view, per_round, rng),
            CrashSchedule::BigBang { round } if r == round => {
                Self::pick(view, view.ledger.remaining(), rng)
            }
            CrashSchedule::BigBang { .. } => Vec::new(),
            CrashSchedule::Window { from, to } if r >= from && r < to => Self::pick(view, 1, rng),
            CrashSchedule::Window { .. } => Vec::new(),
        };
        // Crashed nodes send nothing: no `sends` entries means silence.
        AdversaryAction {
            corruptions,
            sends: Vec::new(),
        }
    }

    fn name(&self) -> &'static str {
        match self.schedule {
            CrashSchedule::Steady { .. } => "crash-steady",
            CrashSchedule::BigBang { .. } => "crash-bigbang",
            CrashSchedule::Window { .. } => "crash-window",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aba_sim::prelude::*;
    use rand::RngCore;

    #[derive(Debug, Clone)]
    struct Tick;
    impl Message for Tick {
        fn bit_size(&self) -> usize {
            1
        }
    }

    #[derive(Debug)]
    struct Runner {
        rounds: u64,
        halted: bool,
    }
    impl Protocol for Runner {
        type Msg = Tick;
        fn emit(&mut self, _r: Round, _rng: &mut dyn RngCore) -> Emission<Tick> {
            Emission::Broadcast(Tick)
        }
        fn receive(&mut self, r: Round, _inbox: Inbox<'_, Tick>, _rng: &mut dyn RngCore) {
            if r.index() + 1 >= self.rounds {
                self.halted = true;
            }
        }
        fn output(&self) -> Option<bool> {
            self.halted.then_some(true)
        }
        fn halted(&self) -> bool {
            self.halted
        }
    }

    fn nodes(n: usize, rounds: u64) -> Vec<Runner> {
        (0..n)
            .map(|_| Runner {
                rounds,
                halted: false,
            })
            .collect()
    }

    #[test]
    fn steady_crashes_respect_budget() {
        let report = Simulation::new(
            SimConfig::new(10, 3),
            nodes(10, 5),
            AdaptiveCrash::steady(2),
        )
        .run();
        assert_eq!(report.corruptions_used, 3, "2 in round 0, 1 in round 1");
        assert_eq!(report.honest.iter().filter(|h| !**h).count(), 3);
    }

    /// Runs `adv` on 8 nodes to completion; returns the report and the
    /// rounds of the ledger's corruption history, in order.
    fn crash_rounds(t: usize, adv: AdaptiveCrash) -> (RunReport, Vec<u64>) {
        let mut sim = Simulation::new(SimConfig::new(8, t), nodes(8, 6), adv);
        while sim.step() {}
        let rounds = sim
            .ledger()
            .history()
            .iter()
            .map(|(r, _)| r.index())
            .collect();
        (sim.into_report(), rounds)
    }

    #[test]
    fn bigbang_crashes_all_at_once() {
        let adv = AdaptiveCrash::new(CrashSchedule::BigBang { round: 2 });
        let (report, rounds) = crash_rounds(4, adv);
        assert_eq!(report.corruptions_used, 4);
        assert_eq!(rounds, vec![2; 4]);
    }

    #[test]
    fn window_crashes_one_per_round() {
        let adv = AdaptiveCrash::new(CrashSchedule::Window { from: 1, to: 4 });
        let (report, rounds) = crash_rounds(8, adv);
        assert_eq!(report.corruptions_used, 3);
        assert_eq!(rounds, vec![1, 2, 3]);
    }

    #[test]
    fn crash_never_exceeds_live_nodes() {
        // Budget bigger than the network: must not panic.
        let report =
            Simulation::new(SimConfig::new(3, 3), nodes(3, 4), AdaptiveCrash::steady(10)).run();
        assert_eq!(report.corruptions_used, 3);
    }
}
