//! The message-plane seam of the engine.
//!
//! The engine never cares *how* a round's messages are stored — only
//! that it can install emissions, let the delivery stage reroute them,
//! and hand receivers an inbox. [`MessagePlane`] captures exactly that
//! contract, mirroring the Delivery/Oracle/Probe seams: a sixth generic
//! parameter on [`crate::Simulation`] defaulting to the dense
//! [`RoundMailbox`], chosen statically per protocol family, so the
//! default path compiles to the very same code it always did.
//!
//! Three planes implement the trait:
//!
//! * [`RoundMailbox`] — the dense broadcast-base + deviation-cell
//!   mailbox (PR 3). General: any [`Message`] type, full by-reference
//!   access. This is the default.
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
//! behaviour exactly — same counting convention (a broadcast is `n - 1`
//! messages, the local self-copy is free, an explicit self-message
//! counts), same replace/merge rules, same inbox contents in the same
//! sender order. The packed-vs-dense and sparse-vs-dense differential
//! tests drive the planes through this whole surface and compare every
//! observable after every mutation.
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
use crate::mailbox::{Inbox, RoundMailbox};
use crate::message::{Emission, Message};

/// A per-round message store, as the engine and the delivery stage see
/// it.
///
/// `Default` must produce an empty zero-node plane (the pooling
/// placeholder); [`MessagePlane::reset`] sizes it. All methods mirror
/// the inherent [`RoundMailbox`] API — see those docs for the precise
/// semantics each implementation must reproduce.
pub trait MessagePlane<M: Message>: Default {
    /// Empties the plane and (re)sizes it for an `n`-node network,
    /// retaining allocations for pooling.
    fn reset(&mut self, n: usize);

    /// Number of nodes in the network.
    fn n(&self) -> usize;

    /// Installs `emission` as `sender`'s contribution, replacing
    /// whatever was there.
    fn set(&mut self, sender: NodeId, emission: Emission<M>);

    /// Removes `sender`'s contribution entirely.
    fn silence(&mut self, sender: NodeId);

    /// Adds a single point-to-point message, replacing an existing one
    /// for the same pair.
    fn insert(&mut self, sender: NodeId, receiver: NodeId, m: M);

    /// Inserts `m` only if the pair is vacant, handing `m` back when
    /// the link is busy.
    fn insert_if_vacant(&mut self, sender: NodeId, receiver: NodeId, m: M) -> Option<M>;

    /// Installs a clone of `msg` from `sender` at every receiver in
    /// `receivers` whose pair is vacant, in order, and returns how many
    /// it installed. The busy receivers are compacted, in order, to the
    /// front of `receivers`: the first `receivers.len() - installed`
    /// entries are the ones left over. Same outcome as one
    /// [`MessagePlane::insert_if_vacant`] per receiver, for one row
    /// lookup and one counter update — the flight queue's drain
    /// primitive, one call per flight group.
    fn insert_group_if_vacant(&mut self, sender: NodeId, receivers: &mut [u32], msg: &M) -> usize;

    /// Installs a broadcast that skips the receivers in `except`.
    fn set_broadcast_except(&mut self, sender: NodeId, msg: M, except: &[u32]);

    /// Layers a broadcast *under* the row's existing point-to-point
    /// messages; receivers that already hold one are appended to
    /// `conflicts`. `except` must be sorted ascending; the row must not
    /// already hold a base.
    fn merge_broadcast_except(
        &mut self,
        sender: NodeId,
        msg: M,
        except: &[u32],
        conflicts: &mut Vec<u32>,
    );

    /// Removes and returns `sender`'s *pure* broadcast message, leaving
    /// the row silent; `None` for any other row shape.
    fn take_broadcast(&mut self, sender: NodeId) -> Option<M>;

    /// The row's shared broadcast base, if any — present even when
    /// receivers have been knocked out or overridden.
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
    fn is_silent(&self, sender: NodeId) -> bool;

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

    /// View of all messages addressed to `receiver`. Reading a sparse
    /// plane's inbox needs a current index
    /// ([`MessagePlane::build_inbox_index`]).
    fn inbox(&self, receiver: NodeId) -> Inbox<'_, M>;

    /// Total point-to-point messages this round (see the counting
    /// convention in the [`crate::mailbox`] docs).
    fn message_count(&self) -> usize;

    /// Total bits on the wire this round.
    fn total_bits(&self) -> usize;

    /// The largest message crossing any single edge this round.
    fn max_edge_bits(&self) -> usize;

    /// `sender`'s countable messages and their bits this round, under
    /// the counting convention: an O(1) read of the row counters behind
    /// [`MessagePlane::message_count`] / [`MessagePlane::total_bits`],
    /// which the per-sender values sum to exactly.
    fn row_traffic(&self, sender: NodeId) -> (usize, usize);
}

impl<M: Message> MessagePlane<M> for RoundMailbox<M> {
    fn reset(&mut self, n: usize) {
        RoundMailbox::reset(self, n);
    }

    fn n(&self) -> usize {
        RoundMailbox::n(self)
    }

    fn set(&mut self, sender: NodeId, emission: Emission<M>) {
        RoundMailbox::set(self, sender, emission);
    }

    fn silence(&mut self, sender: NodeId) {
        RoundMailbox::silence(self, sender);
    }

    fn insert(&mut self, sender: NodeId, receiver: NodeId, m: M) {
        RoundMailbox::insert(self, sender, receiver, m);
    }

    fn insert_if_vacant(&mut self, sender: NodeId, receiver: NodeId, m: M) -> Option<M> {
        RoundMailbox::insert_if_vacant(self, sender, receiver, m)
    }

    fn insert_group_if_vacant(&mut self, sender: NodeId, receivers: &mut [u32], msg: &M) -> usize {
        RoundMailbox::insert_group_if_vacant(self, sender, receivers, msg)
    }

    fn set_broadcast_except(&mut self, sender: NodeId, msg: M, except: &[u32]) {
        RoundMailbox::set_broadcast_except(self, sender, msg, except);
    }

    fn merge_broadcast_except(
        &mut self,
        sender: NodeId,
        msg: M,
        except: &[u32],
        conflicts: &mut Vec<u32>,
    ) {
        RoundMailbox::merge_broadcast_except(self, sender, msg, except, conflicts);
    }

    fn take_broadcast(&mut self, sender: NodeId) -> Option<M> {
        RoundMailbox::take_broadcast(self, sender)
    }

    fn broadcast_base(&self, sender: NodeId) -> Option<&M> {
        RoundMailbox::broadcast_base(self, sender)
    }

    fn broadcast_of(&self, sender: NodeId) -> Option<&M> {
        RoundMailbox::broadcast_of(self, sender)
    }

    fn resolve_value(&self, sender: NodeId, receiver: NodeId) -> Option<M> {
        self.resolve(sender, receiver).cloned()
    }

    fn has_message(&self, sender: NodeId, receiver: NodeId) -> bool {
        self.resolve(sender, receiver).is_some()
    }

    fn is_silent(&self, sender: NodeId) -> bool {
        RoundMailbox::is_silent(self, sender)
    }

    fn deviations(&self, sender: NodeId) -> impl Iterator<Item = (NodeId, Option<M>)> + '_ {
        RoundMailbox::deviations(self, sender)
    }

    fn inbox(&self, receiver: NodeId) -> Inbox<'_, M> {
        RoundMailbox::inbox(self, receiver)
    }

    fn message_count(&self) -> usize {
        RoundMailbox::message_count(self)
    }

    fn total_bits(&self) -> usize {
        RoundMailbox::total_bits(self)
    }

    fn max_edge_bits(&self) -> usize {
        RoundMailbox::max_edge_bits(self)
    }

    fn row_traffic(&self, sender: NodeId) -> (usize, usize) {
        RoundMailbox::row_traffic(self, sender)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Tm(u8);
    impl Message for Tm {
        fn bit_size(&self) -> usize {
            8
        }
    }

    /// The trait forwards to the dense mailbox without changing any
    /// observable: a quick spot check (the differential test covers the
    /// packed plane against this same surface).
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
