//! The message-plane seam of the engine.
//!
//! The engine never cares *how* a round's messages are stored — only
//! that it can install emissions, let the delivery stage reroute them,
//! and hand receivers an inbox. [`MessagePlane`] captures exactly that
//! contract, mirroring the Delivery/Oracle/Probe seams: a sixth generic
//! parameter on [`crate::Simulation`] defaulting to the dense
//! [`RoundMailbox`](crate::mailbox::RoundMailbox), chosen statically per
//! protocol family, so the default path compiles to the very same code
//! it always did.
//!
//! Three planes implement the trait:
//!
//! * [`crate::mailbox::RoundMailbox`] — the dense broadcast-base +
//!   deviation-cell mailbox (PR 3). General: any [`Message`] type, full
//!   by-reference access. This is the default.
//! * [`crate::packed::PackedMailbox`] — u64-word bitset rows for
//!   messages that fit a 32-bit code ([`crate::packed::PackedMessage`]),
//!   with word-parallel popcount tallies. Binary-BA protocols opt in
//!   for large-`n` throughput.
//! * [`crate::sparse::SparseMailbox`] — one flat per-round arena of
//!   deviation cells plus a receiver-major index built once per round
//!   ([`MessagePlane::build_inbox_index`]); memory follows the traffic,
//!   never `n × n`. The sampled protocols opt in for large `n`.
//!
//! # Semantics contract
//!
//! Every implementation must reproduce the dense mailbox's observable
//! behaviour exactly — same replace/merge rules, same inbox contents in
//! the same sender order. The packed-vs-dense and sparse-vs-dense
//! differential tests drive the planes through this whole surface and
//! compare every observable after every mutation. The counters are
//! shared rather than reproduced: every plane reports its row edits to
//! one `traffic` module, which holds the counting convention (a
//! broadcast is `n - 1` messages, the local self-copy is free, an
//! explicit self-message counts, a later per-recipient entry replaces
//! an earlier one) and the max-edge dirty rule.
//!
//! A plane knows nothing of the probes: the provenance seam's arrival
//! scan ([`crate::arrivals`]) is built for every plane in one place,
//! from [`MessagePlane::row_traffic`] on the wire and from
//! [`MessagePlane::broadcast_base`] + [`MessagePlane::deviations`] on the
//! arrivals — the same recording view the trace recorder reads. The
//! three plane differentials check that scan against
//! [`MessagePlane::has_message`] and the plane's counters after every
//! step.

use crate::id::NodeId;
use crate::mailbox::Inbox;
use crate::message::{Emission, Message};

/// A per-round message store, as the engine and the delivery stage see
/// it.
///
/// `Default` must produce an empty zero-node plane (the pooling
/// placeholder); [`MessagePlane::reset`] sizes it. The docs below are
/// the contract every implementation reproduces.
///
/// Methods that name a node panic when it is out of range.
pub trait MessagePlane<M: Message>: Default {
    /// Empties the plane and (re)sizes it for an `n`-node network,
    /// retaining allocations so that a pooled plane allocates nothing
    /// per round after warm-up.
    fn reset(&mut self, n: usize);

    /// Number of nodes in the network.
    fn n(&self) -> usize;

    /// Installs `emission` as `sender`'s contribution, replacing
    /// whatever was there (used both for honest emissions and for the
    /// adversary overriding a freshly corrupted node's message). A later
    /// per-recipient entry for a receiver overrides an earlier one.
    fn set(&mut self, sender: NodeId, emission: Emission<M>);

    /// Removes `sender`'s contribution entirely.
    fn silence(&mut self, sender: NodeId);

    /// Adds a single point-to-point message, merging with whatever
    /// `sender` already has: an existing message for the same pair is
    /// replaced, and the other receivers of a broadcast keep the shared
    /// copy — the broadcast is not expanded into per-recipient clones.
    fn insert(&mut self, sender: NodeId, receiver: NodeId, m: M);

    /// Installs a clone of `msg` from `sender` at every receiver in
    /// `receivers` whose pair is vacant, in order, and returns how many
    /// it installed. The busy receivers are compacted, in order, to the
    /// front of `receivers`: the first `receivers.len() - installed`
    /// entries are the ones left over. A pair is vacant when it holds no
    /// message: the row has no base and no explicit message there, or
    /// the receiver was knocked out. One row lookup and one counter
    /// update per call, with `msg` cloned per installed receiver only —
    /// the flight queue's drain primitive, one call per flight group,
    /// and the delivery stage's merge of a fresh point-to-point message
    /// as a group of one.
    fn insert_group_if_vacant(&mut self, sender: NodeId, receivers: &mut [u32], msg: &M) -> usize;

    /// Installs a broadcast of `msg` that skips the receivers in
    /// `except` — the delivery stage's way of storing "this broadcast
    /// reached everyone but these" as one shared copy instead of `n - 1`
    /// clones. Replaces whatever the row held. Duplicate entries in
    /// `except` are tolerated; `sender`'s free self-copy is unaffected
    /// unless explicitly listed.
    fn set_broadcast_except(&mut self, sender: NodeId, msg: M, except: &[u32]);

    /// Layers a broadcast of `msg` *under* the row's existing
    /// point-to-point messages: receivers with no message and no
    /// `except` entry now inherit the shared base (one copy, no clones);
    /// receivers that already hold a message keep it and are appended to
    /// `conflicts`, ascending, so the caller can re-route the fresh copy.
    /// The delivery stage uses this when older in-flight traffic has
    /// already landed on a broadcasting sender's row — the old message
    /// wins the link, exactly as in the flight queue's FIFO rule.
    ///
    /// `except` must be sorted ascending (duplicates are tolerated).
    ///
    /// # Panics
    ///
    /// Panics if the row already holds a broadcast base.
    fn merge_broadcast_except(
        &mut self,
        sender: NodeId,
        msg: M,
        except: &[u32],
        conflicts: &mut Vec<u32>,
    );

    /// Removes and returns `sender`'s *pure* broadcast message (no
    /// knock-outs, no overrides), leaving the row silent; `None` for any
    /// other row shape. The delivery stage moves the base into the
    /// arrivals plane with it, without cloning.
    fn take_broadcast(&mut self, sender: NodeId) -> Option<M>;

    /// The row's shared broadcast base, if any — present even when
    /// receivers have been knocked out or overridden (unlike
    /// [`MessagePlane::broadcast_of`], which only reports *pure*
    /// broadcasts).
    fn broadcast_base(&self, sender: NodeId) -> Option<&M>;

    /// The broadcast message of `sender`, if it (purely) broadcast.
    fn broadcast_of(&self, sender: NodeId) -> Option<&M>;

    /// The message `receiver` gets from `sender` this round, by value
    /// (packed planes materialize it from the stored code).
    fn resolve_value(&self, sender: NodeId, receiver: NodeId) -> Option<M>;

    /// Whether `receiver` gets a message from `sender` this round.
    fn has_message(&self, sender: NodeId, receiver: NodeId) -> bool;

    /// Whether `sender` sent nothing at all (to anyone, itself
    /// included).
    fn is_silent(&self, sender: NodeId) -> bool {
        self.row_traffic(sender).0 == 0 && !self.has_message(sender, sender)
    }

    /// `sender`'s deviations from its broadcast base, by value and in
    /// ascending receiver order: `(receiver, None)` for a knock-out,
    /// `(receiver, Some(m))` for an explicit message. Yields nothing for
    /// silent and pure-broadcast rows. With
    /// [`MessagePlane::broadcast_base`] this reproduces every
    /// [`MessagePlane::resolve_value`] without expanding a broadcast —
    /// the recording view that the trace recorder and the arrival scan
    /// ([`crate::arrivals`]) read. Walking
    /// every sender costs O(n²) on the dense plane, O(n²/64) words plus
    /// O(deviations) on the packed one and O(n + deviations) on the
    /// sparse one.
    fn deviations(&self, sender: NodeId) -> impl Iterator<Item = (NodeId, Option<M>)> + '_;

    /// Prepares the plane for inbox reads once the round's last
    /// mutation is done; the engine calls it once per round, between
    /// delivery and receive. The default does nothing — the dense and
    /// packed planes resolve inboxes straight from their rows. The
    /// sparse plane builds its receiver-major index here; any later
    /// mutation invalidates it, and its inbox reads panic until the next
    /// call.
    fn build_inbox_index(&mut self) {}

    /// Zero-allocation view of all messages addressed to `receiver`.
    /// Reading a sparse plane's inbox needs a current index
    /// ([`MessagePlane::build_inbox_index`]).
    fn inbox(&self, receiver: NodeId) -> Inbox<'_, M>;

    /// Total point-to-point messages this round, under the counting
    /// convention in the module docs. O(1).
    fn message_count(&self) -> usize;

    /// Total bits on the wire this round. O(1).
    fn total_bits(&self) -> usize;

    /// The largest message crossing any single edge this round, in
    /// bits. Because each ordered pair of nodes exchanges at most one
    /// message per round, this *is* the per-edge-per-round maximum that
    /// the CONGEST model bounds. O(1) unless a mutation lowered a row
    /// maximum since the reset, in which case the affected rows are
    /// rescanned.
    fn max_edge_bits(&self) -> usize;

    /// `sender`'s countable messages and their bits this round, under
    /// the counting convention: an O(1) read of the row counters behind
    /// [`MessagePlane::message_count`] / [`MessagePlane::total_bits`],
    /// which the per-sender values sum to exactly.
    fn row_traffic(&self, sender: NodeId) -> (usize, usize);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mailbox::RoundMailbox;

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Tm(u8);
    impl Message for Tm {
        fn bit_size(&self) -> usize {
            8
        }
    }

    /// The dense plane's trait surface: a quick spot check (the
    /// differential tests cover the packed and sparse planes against
    /// this same surface).
    #[test]
    fn dense_plane_forwards_to_inherent_api() {
        fn drive<L: MessagePlane<Tm>>(plane: &mut L) -> (usize, usize, usize, bool) {
            plane.reset(4);
            plane.set_broadcast_except(NodeId::new(0), Tm(7), &[3]);
            plane.set(
                NodeId::new(1),
                Emission::PerRecipient(vec![(NodeId::new(2), Tm(9))]),
            );
            assert_eq!(plane.row_traffic(NodeId::new(0)), (2, 16));
            assert_eq!(plane.row_traffic(NodeId::new(1)), (1, 8));
            assert_eq!(
                plane.resolve_value(NodeId::new(0), NodeId::new(1)),
                Some(Tm(7))
            );
            assert!(!plane.has_message(NodeId::new(0), NodeId::new(3)));
            assert!(plane.broadcast_base(NodeId::new(0)).is_some());
            assert!(
                plane.broadcast_of(NodeId::new(0)).is_none(),
                "knocked row is impure"
            );
            (
                plane.message_count(),
                plane.total_bits(),
                plane.max_edge_bits(),
                plane.is_silent(NodeId::new(3)),
            )
        }
        let mut mb = RoundMailbox::<Tm>::default();
        assert_eq!(drive(&mut mb), (3, 24, 8, true));
        assert_eq!(mb.inbox(NodeId::new(2)).len(), 2);
    }
}
