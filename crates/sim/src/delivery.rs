//! The delivery-stage seam of the engine.
//!
//! Between the adversary phase (step 2) and local processing (step 3)
//! the engine hands the round's *wire mailbox* — everything emitted this
//! round, after adversarial replacement — to a [`Delivery`]
//! implementation, which decides what actually arrives this round. The
//! default, [`PassThrough`], reproduces the paper's lock-step synchronous
//! model exactly: every message is delivered in its emission round.
//!
//! Richer policies (lossy links, bounded-delay partial synchrony,
//! partitions) live in the `aba-net` crate, which implements this trait
//! on top of a per-message `NetworkModel` and a cross-round flight
//! queue. Keeping the seam here and the policies there means `aba-sim`
//! stays dependency-free while the engine needs no knowledge of any
//! concrete network condition.

use crate::adversary::CorruptionLedger;
use crate::id::Round;
use crate::mailbox::RoundMailbox;
use crate::message::Message;
use crate::plane::MessagePlane;

/// What the delivery stage did with this round's traffic.
///
/// Under [`PassThrough`] (and any transparent model) `delivered` equals
/// the round's point-to-point message count and the other two are zero,
/// so the pre-delivery-stage engine semantics are preserved bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeliveryStats {
    /// Point-to-point messages handed to receivers this round (a node's
    /// local self-copy of its own broadcast is not counted, matching
    /// [`MessagePlane::message_count`]).
    pub delivered: usize,
    /// Messages dropped by the network this round.
    pub dropped: usize,
    /// Delay events this round: a message held back at emission counts
    /// once, and once more for every later round it is deferred again
    /// (e.g. by a busy link).
    pub delayed: usize,
}

/// The delivery stage: transforms the round's wire mailbox into the
/// mailbox receivers actually see, possibly holding messages for later
/// rounds or dropping them.
///
/// Implementations must be deterministic given their construction-time
/// seed: the engine guarantees `deliver` is called exactly once per
/// round, in round order, so any internal RNG stream replays identically
/// for identical runs.
///
/// The second parameter is the message plane the stage operates on,
/// defaulting to the dense [`RoundMailbox`] — implementations generic
/// over `L` (like `aba-net`'s `NetDelivery`) work unchanged on the
/// bit-packed plane.
pub trait Delivery<M: Message, L: MessagePlane<M> = RoundMailbox<M>> {
    /// Decides this round's arrivals.
    ///
    /// `wire` holds everything emitted this round (post-adversary);
    /// `ledger` identifies corrupted senders, letting adversarial
    /// schedulers discriminate honest traffic. Returns the mailbox to
    /// deliver plus the round's accounting.
    fn deliver(&mut self, round: Round, wire: L, ledger: &CorruptionLedger) -> (L, DeliveryStats);

    /// Messages currently held for future rounds.
    fn in_flight(&self) -> usize {
        0
    }

    /// Short name for reports.
    fn name(&self) -> &'static str;
}

/// The identity delivery stage: every message arrives in its emission
/// round. This is the engine's default and reproduces the strictly
/// synchronous model of the paper.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassThrough;

impl<M: Message, L: MessagePlane<M>> Delivery<M, L> for PassThrough {
    fn deliver(
        &mut self,
        _round: Round,
        wire: L,
        _ledger: &CorruptionLedger,
    ) -> (L, DeliveryStats) {
        let stats = DeliveryStats {
            delivered: wire.message_count(),
            ..DeliveryStats::default()
        };
        (wire, stats)
    }

    fn name(&self) -> &'static str {
        "pass-through"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::NodeId;
    use crate::message::Emission;

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Tm(u8);
    impl Message for Tm {
        fn bit_size(&self) -> usize {
            8
        }
    }

    #[test]
    fn pass_through_is_identity() {
        let mut mb = RoundMailbox::new(3);
        mb.set(NodeId::new(0), Emission::Broadcast(Tm(1)));
        mb.set(
            NodeId::new(2),
            Emission::PerRecipient(vec![(NodeId::new(1), Tm(9))]),
        );
        let ledger = CorruptionLedger::new(3, 0);
        let (out, stats) = PassThrough.deliver(Round::ZERO, mb, &ledger);
        assert_eq!(stats.delivered, 3);
        assert_eq!(stats.dropped, 0);
        assert_eq!(stats.delayed, 0);
        assert_eq!(out.resolve(NodeId::new(0), NodeId::new(1)), Some(&Tm(1)));
        assert_eq!(out.resolve(NodeId::new(2), NodeId::new(1)), Some(&Tm(9)));
        assert_eq!(<PassThrough as Delivery<Tm>>::in_flight(&PassThrough), 0);
        assert_eq!(
            <PassThrough as Delivery<Tm>>::name(&PassThrough),
            "pass-through"
        );
    }
}
