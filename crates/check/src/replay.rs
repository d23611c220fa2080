//! Replay: re-driving the engine from a [`TraceRecording`].
//!
//! The replayed run keeps the original config and seed (so honest nodes
//! re-derive their RNG streams and emissions), but swaps the adversary
//! strategy for [`ReplayAdversary`] (which feeds the recorded actions
//! back verbatim) and the network delivery stage for [`ReplayDelivery`]
//! (which discards the wire and reconstructs the recorded arrivals).
//! A faithful recording therefore reproduces the live run bit for bit —
//! outputs, rounds, wire metrics, *and* the delivered/dropped/delayed
//! counters, which come back verbatim from the recorded per-round
//! stats — under every network model. The `trace_replay` integration
//! tests pin this differentially.

use crate::record::{ActionRecord, RoundRecord, RowRecord, TraceRecording};
use aba_sim::adversary::{Adversary, AdversaryAction, CorruptionLedger, RoundView};
use aba_sim::delivery::{Delivery, DeliveryStats};
use aba_sim::id::Round;
use aba_sim::message::Message;
use aba_sim::plane::MessagePlane;
use aba_sim::protocol::Protocol;
use rand::RngCore;
use std::collections::VecDeque;

impl<M: Message> TraceRecording<M> {
    /// Splits the recording into the adversary and delivery halves of a
    /// replay. `name` is reported as the replay adversary's strategy
    /// name — pass the live adversary's, so replayed trial results are
    /// field-for-field identical to the live ones.
    pub fn into_replay(self, name: &'static str) -> (ReplayAdversary<M>, ReplayDelivery<M>) {
        let mut actions = VecDeque::with_capacity(self.rounds.len());
        let mut deliveries = VecDeque::with_capacity(self.rounds.len());
        for RoundRecord {
            round,
            corruptions,
            sends,
            rows,
            stats,
        } in self.rounds
        {
            if !corruptions.is_empty() || !sends.is_empty() {
                actions.push_back((round, corruptions, sends));
            }
            deliveries.push_back((round, rows, stats));
        }
        (
            ReplayAdversary {
                script: actions,
                name,
            },
            ReplayDelivery { script: deliveries },
        )
    }
}

/// An adversary that replays recorded actions, round for round, and
/// ignores everything it sees.
#[derive(Debug, Clone)]
pub struct ReplayAdversary<M> {
    script: VecDeque<ActionRecord<M>>,
    name: &'static str,
}

impl<M: Message, P: Protocol<Msg = M>, L: MessagePlane<M>> Adversary<P, L> for ReplayAdversary<M> {
    fn act(&mut self, view: &RoundView<'_, P, L>, _rng: &mut dyn RngCore) -> AdversaryAction<M> {
        match self.script.front() {
            Some((round, _, _)) if *round == view.round => {
                let (_, corruptions, sends) = self.script.pop_front().expect("front exists");
                AdversaryAction { corruptions, sends }
            }
            _ => AdversaryAction::pass(),
        }
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

/// A delivery stage that discards the wire and reconstructs the recorded
/// arrivals — the recorded network decisions, replayed exactly, on
/// whichever message plane the run uses.
#[derive(Debug, Clone)]
pub struct ReplayDelivery<M> {
    script: VecDeque<(Round, Vec<RowRecord<M>>, DeliveryStats)>,
}

impl<M: Message, L: MessagePlane<M>> Delivery<M, L> for ReplayDelivery<M> {
    fn deliver(
        &mut self,
        round: Round,
        mut wire: L,
        _ledger: &CorruptionLedger,
    ) -> (L, DeliveryStats) {
        let n = wire.n();
        wire.reset(n);
        let Some((front, _, _)) = self.script.front() else {
            return (wire, DeliveryStats::default());
        };
        if *front != round {
            return (wire, DeliveryStats::default());
        }
        let (_, rows, stats) = self.script.pop_front().expect("front exists");
        for RowRecord {
            sender,
            base,
            knocked,
            overrides,
        } in rows
        {
            if let Some(base) = base {
                // aba-lint: allow(seam-bypass) — ReplayDelivery IS a delivery adapter: it reconstructs recorded wire state verbatim
                wire.set_broadcast_except(sender, base, &knocked);
            }
            for (receiver, m) in overrides {
                wire.insert(sender, receiver, m);
            }
        }
        (wire, stats)
    }

    fn in_flight(&self) -> usize {
        0
    }

    fn name(&self) -> &'static str {
        "replay"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TraceRecorder;
    use aba_sim::adversary::Benign;
    use aba_sim::mailbox::{Inbox, RoundMailbox};
    use aba_sim::message::Emission;
    use aba_sim::prelude::*;

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Val(u8);
    impl Message for Val {
        fn bit_size(&self) -> usize {
            8
        }
    }

    /// Broadcasts its input for `rounds` rounds, then outputs the
    /// majority of the final round.
    #[derive(Debug, Clone)]
    struct Maj {
        input: bool,
        n: usize,
        rounds: u64,
        out: Option<bool>,
        halted: bool,
    }
    impl Protocol for Maj {
        type Msg = Val;
        fn emit(&mut self, _r: Round, _rng: &mut dyn RngCore) -> Emission<Val> {
            Emission::Broadcast(Val(self.input as u8))
        }
        fn receive(&mut self, r: Round, inbox: Inbox<'_, Val>, _rng: &mut dyn RngCore) {
            if r.index() + 1 >= self.rounds {
                let ones = inbox.iter().filter(|(_, m)| m.0 == 1).count();
                self.out = Some(2 * ones >= self.n);
                self.halted = true;
            }
        }
        fn output(&self) -> Option<bool> {
            self.out
        }
        fn halted(&self) -> bool {
            self.halted
        }
    }

    fn nodes(n: usize, ones: usize, rounds: u64) -> Vec<Maj> {
        (0..n)
            .map(|i| Maj {
                input: i < ones,
                n,
                rounds,
                out: None,
                halted: false,
            })
            .collect()
    }

    /// Drops every message from even senders — an aggressive non-trivial
    /// delivery stage for the round-trip test.
    struct DropEven;
    impl<M: Message> Delivery<M> for DropEven {
        fn deliver(
            &mut self,
            _round: Round,
            mut wire: RoundMailbox<M>,
            _ledger: &CorruptionLedger,
        ) -> (RoundMailbox<M>, DeliveryStats) {
            let mut dropped = 0;
            for s in (0..wire.n()).step_by(2) {
                let id = NodeId::new(s as u32);
                if !wire.is_silent(id) {
                    dropped += wire.n() - 1;
                    wire.silence(id);
                }
            }
            let delivered = wire.message_count();
            (
                wire,
                DeliveryStats {
                    delivered,
                    dropped,
                    delayed: 0,
                },
            )
        }
        fn name(&self) -> &'static str {
            "drop-even"
        }
    }

    #[test]
    fn replay_reproduces_a_run_with_a_lossy_delivery_stage() {
        let cfg = SimConfig::new(5, 0).with_seed(7);
        let (live, recorder) = Simulation::with_oracle(
            cfg.clone(),
            nodes(5, 3, 3),
            Benign,
            DropEven,
            TraceRecorder::new(),
        )
        .run_with_oracle();
        let (adv, delivery) = recorder.into_recording().into_replay("benign");
        let replayed = Simulation::with_network(cfg, nodes(5, 3, 3), adv, delivery).run();
        assert_eq!(live.outputs, replayed.outputs);
        assert_eq!(live.rounds, replayed.rounds);
        assert_eq!(live.metrics, replayed.metrics);
        assert_eq!(live.halt_rounds, replayed.halt_rounds);
    }

    #[test]
    fn replay_past_the_recording_delivers_nothing() {
        let recording: TraceRecording<Val> = TraceRecording::default();
        let (_, mut delivery) = recording.into_replay("benign");
        let mut wire = RoundMailbox::new(3);
        wire.set(NodeId::new(0), Emission::Broadcast(Val(1)));
        let ledger = CorruptionLedger::new(3, 0);
        let (out, stats) = delivery.deliver(Round::ZERO, wire, &ledger);
        assert_eq!(out.message_count(), 0);
        assert_eq!(stats, DeliveryStats::default());
    }
}
