//! Trace capture: an [`Oracle`] that records everything nondeterministic
//! a run consumed, compactly enough to re-drive the engine later.
//!
//! A run is a pure function of `(config, seed)` *given* the adversary's
//! actions and the network's delivery decisions — honest emissions
//! replay for free from the node RNG streams. So the recording stores,
//! per round:
//!
//! * the adversary's action (corruptions + corrupt sends), cloned before
//!   the engine consumes it;
//! * the **arrivals** in the planes' shared recording view — one shared
//!   broadcast base per sender plus that row's deviations (knock-outs
//!   and per-receiver overrides), read through
//!   [`MessagePlane::deviations`] on whichever plane the run uses. A
//!   pure broadcast costs one message clone, never `n`;
//! * the round's [`DeliveryStats`], verbatim, so replayed delivery
//!   accounting is bit-identical by construction (the `delayed` counter
//!   in particular counts re-deferrals on busy links, which cannot be
//!   reconstructed from arrivals alone).
//!
//! [`crate::replay`] turns a recording back into an adversary and a
//! delivery stage.

use aba_sim::adversary::{AdversaryAction, CorruptSend};
use aba_sim::delivery::DeliveryStats;
use aba_sim::id::{NodeId, Round};
use aba_sim::message::Message;
use aba_sim::oracle::{Oracle, RoundCtx};
use aba_sim::plane::MessagePlane;

/// One recorded adversary turn: the round it belongs to, the
/// corruptions, and the dictated corrupt emissions.
pub type ActionRecord<M> = (Round, Vec<NodeId>, Vec<(NodeId, CorruptSend<M>)>);

/// One sender's arrivals row: the shared broadcast base (if any) plus
/// the receivers that deviate from it.
#[derive(Debug, Clone)]
pub struct RowRecord<M> {
    /// The sender.
    pub sender: NodeId,
    /// The row's shared broadcast message, one clone for all receivers.
    pub base: Option<M>,
    /// Receivers knocked out of the base (only meaningful with a base).
    pub knocked: Vec<u32>,
    /// Receivers with a specific message overriding the base (or the
    /// only traffic, when there is no base).
    pub overrides: Vec<(NodeId, M)>,
}

/// Everything recorded about one round.
#[derive(Debug, Clone)]
pub struct RoundRecord<M> {
    /// The round.
    pub round: Round,
    /// Nodes the adversary corrupted this round.
    pub corruptions: Vec<NodeId>,
    /// The corrupted nodes' dictated emissions.
    pub sends: Vec<(NodeId, CorruptSend<M>)>,
    /// The arrivals, row by row (senders that delivered nothing are
    /// omitted).
    pub rows: Vec<RowRecord<M>>,
    /// The delivery stage's accounting for the round, verbatim.
    pub stats: DeliveryStats,
}

/// A completed recording: the full per-round script of one run.
#[derive(Debug, Clone)]
pub struct TraceRecording<M> {
    /// Per-round records, in round order.
    pub rounds: Vec<RoundRecord<M>>,
}

impl<M> Default for TraceRecording<M> {
    fn default() -> Self {
        TraceRecording { rounds: Vec::new() }
    }
}

impl<M> TraceRecording<M> {
    /// Rounds recorded.
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }
}

/// The recording oracle. Attach to a run via
/// [`aba_sim::Simulation::with_oracle`]; retrieve the recording with
/// [`TraceRecorder::into_recording`] after
/// [`aba_sim::Simulation::run_with_oracle`].
#[derive(Debug, Clone)]
pub struct TraceRecorder<M> {
    recording: TraceRecording<M>,
    pending: Option<ActionRecord<M>>,
}

impl<M> Default for TraceRecorder<M> {
    fn default() -> Self {
        TraceRecorder {
            recording: TraceRecording::default(),
            pending: None,
        }
    }
}

impl<M: Message> TraceRecorder<M> {
    /// A fresh recorder.
    pub fn new() -> Self {
        TraceRecorder {
            recording: TraceRecording { rounds: Vec::new() },
            pending: None,
        }
    }

    /// The finished recording.
    pub fn into_recording(self) -> TraceRecording<M> {
        self.recording
    }
}

/// Captures `plane` as row records (senders with no traffic omitted).
fn snapshot_rows<M: Message, L: MessagePlane<M>>(plane: &L) -> Vec<RowRecord<M>> {
    let mut rows = Vec::new();
    for s in 0..plane.n() {
        let sender = NodeId::new(s as u32);
        let base = plane.broadcast_base(sender).cloned();
        let mut knocked = Vec::new();
        let mut overrides = Vec::new();
        for (receiver, deviation) in plane.deviations(sender) {
            match deviation {
                // A knock-out without a base delivers nothing: skip.
                None => {
                    if base.is_some() {
                        knocked.push(receiver.raw());
                    }
                }
                Some(m) => overrides.push((receiver, m)),
            }
        }
        if base.is_some() || !overrides.is_empty() {
            rows.push(RowRecord {
                sender,
                base,
                knocked,
                overrides,
            });
        }
    }
    rows
}

impl<M: Message, L: MessagePlane<M>> Oracle<M, L> for TraceRecorder<M> {
    fn observe_action(&mut self, round: Round, action: &AdversaryAction<M>) {
        self.pending = Some((round, action.corruptions.clone(), action.sends.clone()));
    }

    fn observe_round(&mut self, ctx: &RoundCtx<'_, M, L>) {
        let (corruptions, sends) = match self.pending.take() {
            Some((r, c, s)) if r == ctx.round => (c, s),
            _ => (Vec::new(), Vec::new()),
        };
        self.recording.rounds.push(RoundRecord {
            round: ctx.round,
            corruptions,
            sends,
            rows: snapshot_rows(ctx.arrivals),
            stats: DeliveryStats {
                delivered: ctx.metrics.delivered,
                dropped: ctx.metrics.dropped,
                delayed: ctx.metrics.delayed,
            },
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aba_sim::mailbox::RoundMailbox;
    use aba_sim::message::Emission;

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Tm(u8);
    impl Message for Tm {
        fn bit_size(&self) -> usize {
            8
        }
    }

    #[test]
    fn snapshot_captures_all_row_shapes() {
        let mut mb = RoundMailbox::new(4);
        mb.set(NodeId::new(0), Emission::Broadcast(Tm(1)));
        mb.knock_out(NodeId::new(0), NodeId::new(2));
        mb.insert(NodeId::new(0), NodeId::new(3), Tm(9));
        mb.set(
            NodeId::new(1),
            Emission::PerRecipient(vec![(NodeId::new(2), Tm(5))]),
        );
        // Sender 2 silent, sender 3 silent.
        let rows = snapshot_rows(&mb);
        assert_eq!(rows.len(), 2);
        let r0 = &rows[0];
        assert_eq!(r0.base, Some(Tm(1)));
        assert_eq!(r0.knocked, vec![2]);
        assert_eq!(r0.overrides, vec![(NodeId::new(3), Tm(9))]);
        let r1 = &rows[1];
        assert_eq!(r1.base, None);
        assert!(r1.knocked.is_empty());
        assert_eq!(r1.overrides, vec![(NodeId::new(2), Tm(5))]);
    }
}
