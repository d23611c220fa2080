//! The dense message plane.
//!
//! In a complete network most traffic is broadcast, so the mailbox stores
//! one *row* per sender: an optional shared broadcast message (`base`,
//! one copy for all receivers) plus a dense per-receiver deviation lane
//! that is only materialized when a sender deviates from pure broadcast —
//! equivocation, point-to-point inserts from the delivery stage, or
//! single receivers knocked out of a broadcast by the network. Receivers
//! resolve their inbox lazily without allocating.
//!
//! # Memory layout and complexity
//!
//! * A pure broadcast is one `M` and a flag — no per-receiver clones,
//!   ever. The delivery stage installs a pre-routed broadcast row that
//!   skips the receivers the network knocked out
//!   ([`MessagePlane::set_broadcast_except`]), or layers a broadcast
//!   under already-delivered messages
//!   ([`MessagePlane::merge_broadcast_except`]), without materializing
//!   `n` copies of the message.
//! * Deviation lanes live in **one flat `n × n` cell arena** per
//!   mailbox (`lanes[sender * n + receiver]`), allocated at most once
//!   and reused for the life of the mailbox: resolution is an array
//!   read, never a hash lookup; iteration order is receiver order —
//!   deterministic across processes by construction (the former
//!   `HashMap` slot was only deterministic per-process); and the hot
//!   loops walk a single stable allocation instead of `n` heap-scattered
//!   maps. A row's lane is stamped back to `Inherit` only when the row
//!   actually deviates in that round.
//! * The message, bit and max-edge counters live in the crate's shared
//!   `traffic` counters, updated on every mutation, so
//!   [`MessagePlane::message_count`] and [`MessagePlane::total_bits`]
//!   are O(1) reads and [`MessagePlane::max_edge_bits`] is O(1) unless
//!   an edit lowered a row maximum, when it rescans the dirty rows'
//!   lanes. The counting convention is in the [`crate::plane`] docs.
//! * [`MessagePlane::reset`] clears the mailbox while keeping every
//!   allocation (rows and the lane arena), so the engine and the
//!   delivery stage can pool mailboxes across rounds: after warm-up the
//!   message plane allocates nothing per round.

use crate::id::NodeId;
use crate::message::{Emission, Message};
use crate::plane::MessagePlane;
use crate::traffic::{Held, RowTraffic, Traffic};

/// One receiver's deviation from the row's broadcast base.
#[derive(Debug, Clone)]
enum Cell<M> {
    /// No deviation: the receiver gets the row's `base` (or nothing if
    /// the row has no base).
    Inherit,
    /// The receiver gets nothing, even if the row has a base (a
    /// broadcast knock-out).
    Knocked,
    /// The receiver gets this specific message instead of the base.
    Msg(M),
}

/// One sender's contribution to the round. The per-receiver deviation
/// lane lives in the mailbox's flat arena; `dense` says whether this
/// row's lane is live this round.
#[derive(Debug, Clone)]
struct Row<M> {
    base: Option<M>,
    /// Whether the row's lane slice is live (stamped this round).
    dense: bool,
}

impl<M> Default for Row<M> {
    fn default() -> Self {
        Row {
            base: None,
            dense: false,
        }
    }
}

impl<M: Message> Row<M> {
    /// Empties the row. If it was dense, its lane is stamped back to
    /// all-`Inherit` *now*, dropping any retained `Msg` payloads — the
    /// invariant is that a non-dense row's lane is always clean, which
    /// is what makes [`Row::ensure_dense`] O(1) and keeps pooled
    /// mailboxes from holding dead messages across rounds.
    fn clear(&mut self, lane: &mut [Cell<M>]) {
        if self.dense {
            lane.fill(Cell::Inherit);
        }
        self.base = None;
        self.dense = false;
    }

    /// The message receiver `r` gets from this row, if any. `lane` is
    /// the row's arena slice (ignored unless the row is dense).
    fn effective<'a>(&'a self, lane: &'a [Cell<M>], r: usize) -> Option<&'a M> {
        if !self.dense {
            self.base.as_ref()
        } else {
            match &lane[r] {
                Cell::Inherit => self.base.as_ref(),
                Cell::Knocked => None,
                Cell::Msg(m) => Some(m),
            }
        }
    }

    /// What receiver `r` gets from this row, as the counters see it.
    fn held(&self, lane: &[Cell<M>], r: usize) -> Held {
        match (self.dense.then(|| &lane[r]), &self.base) {
            (Some(Cell::Msg(m)), _) => Held::Explicit(m.bit_size()),
            (Some(Cell::Knocked), _) | (_, None) => Held::Nothing,
            (_, Some(base)) => Held::Base(base.bit_size()),
        }
    }

    /// Marks the row's lane live. O(1): a non-dense row's lane is
    /// all-`Inherit` by invariant (stamped at [`Row::clear`] time and by
    /// the arena's initial fill).
    fn ensure_dense(&mut self, lane: &mut [Cell<M>]) {
        debug_assert!(
            self.dense || lane.iter().all(|c| matches!(c, Cell::Inherit)),
            "lane of a non-dense row must be clean"
        );
        let _ = lane;
        self.dense = true;
    }

    /// The largest message the row delivers now: the walk a dirty row's
    /// maximum is rescanned with.
    fn max_bits(&self, lane: &[Cell<M>]) -> usize {
        let base_bits = self.base.as_ref().map_or(0, Message::bit_size);
        let mut max = if self.base.is_some()
            && (!self.dense || lane.iter().any(|c| matches!(c, Cell::Inherit)))
        {
            base_bits
        } else {
            0
        };
        if self.dense {
            for c in lane {
                if let Cell::Msg(m) = c {
                    max = max.max(m.bit_size());
                }
            }
        }
        max
    }
}

/// All messages emitted in a single round, indexed by sender.
///
/// See the module docs for the memory layout and pooling contract, and
/// [`MessagePlane`] for the operations.
#[derive(Debug, Clone)]
pub struct RoundMailbox<M> {
    n: usize,
    rows: Vec<Row<M>>,
    /// Flat `n × n` deviation-cell arena (`sender * n + receiver`),
    /// allocated on first use and retained across [`MessagePlane::reset`]
    /// while `n` is unchanged. Empty until some row deviates.
    lanes: Vec<Cell<M>>,
    traffic: Traffic,
}

impl<M> Default for RoundMailbox<M> {
    /// An empty zero-node mailbox — the pooling placeholder. Call
    /// [`MessagePlane::reset`] to size it before use.
    fn default() -> Self {
        RoundMailbox {
            n: 0,
            rows: Vec::new(),
            lanes: Vec::new(),
            traffic: Traffic::default(),
        }
    }
}

impl<M: Message> RoundMailbox<M> {
    /// Creates an empty mailbox for an `n`-node network.
    pub fn new(n: usize) -> Self {
        let mut mb = Self::default();
        mb.reset(n);
        mb
    }

    /// Materializes the flat lane arena (all-`Inherit`), if not yet
    /// allocated. One allocation for the life of the mailbox.
    fn alloc_lanes(&mut self) {
        if self.lanes.is_empty() {
            self.lanes.resize(self.n * self.n, Cell::Inherit);
        }
    }

    /// The arena slice of row `me` (empty if the arena is unallocated).
    fn lane(&self, me: usize) -> &[Cell<M>] {
        if self.lanes.is_empty() {
            &[]
        } else {
            &self.lanes[me * self.n..(me + 1) * self.n]
        }
    }

    /// Row `me` and its lane slice, for an edit (the slice is empty while
    /// the arena is unallocated — edits that materialize a lane call
    /// [`RoundMailbox::alloc_lanes`] first).
    fn row_mut(&mut self, me: usize) -> (&mut Row<M>, &mut [Cell<M>]) {
        let n = self.n;
        let lane = if self.lanes.is_empty() {
            &mut [][..]
        } else {
            &mut self.lanes[me * n..(me + 1) * n]
        };
        (&mut self.rows[me], lane)
    }

    /// The message `receiver` gets from `sender` this round, if any.
    pub fn resolve(&self, sender: NodeId, receiver: NodeId) -> Option<&M> {
        let me = sender.index();
        self.rows[me].effective(self.lane(me), receiver.index())
    }
}

impl<M: Message> MessagePlane<M> for RoundMailbox<M> {
    /// Keeps every allocation, rows and the lane arena, while `n` is
    /// unchanged.
    fn reset(&mut self, n: usize) {
        if n != self.n {
            // The arena layout depends on n; drop it and re-arm lazily
            // (which also drops every retained message in one free).
            self.lanes.clear();
            self.rows.truncate(n);
            for row in &mut self.rows {
                row.clear(&mut []);
            }
        } else {
            // Same size: clear rows against their lanes, so dense rows
            // drop their retained `Msg` payloads now.
            for me in 0..n {
                let (row, lane) = self.row_mut(me);
                row.clear(lane);
            }
        }
        self.rows.resize_with(n, Row::default);
        self.n = n;
        self.traffic.reset(n);
    }

    fn n(&self) -> usize {
        self.n
    }

    fn set(&mut self, sender: NodeId, emission: Emission<M>) {
        let me = sender.index();
        match emission {
            Emission::Silent => self.silence(sender),
            Emission::Broadcast(m) => {
                let bits = m.bit_size();
                let (row, lane) = self.row_mut(me);
                row.clear(lane);
                row.base = Some(m);
                self.traffic
                    .fold(me, RowTraffic::broadcast(self.n, 0, bits));
            }
            Emission::PerRecipient(v) => {
                if v.is_empty() {
                    return self.silence(sender);
                }
                self.alloc_lanes();
                let (row, lane) = self.row_mut(me);
                row.clear(lane);
                row.ensure_dense(lane);
                let mut traffic = RowTraffic::default();
                for (to, m) in v {
                    let bits = m.bit_size();
                    match std::mem::replace(&mut lane[to.index()], Cell::Msg(m)) {
                        Cell::Inherit | Cell::Knocked => traffic.add(1, bits),
                        Cell::Msg(old) => traffic.supersede(old.bit_size(), bits),
                    }
                }
                self.traffic.fold(me, traffic);
            }
        }
    }

    fn silence(&mut self, sender: NodeId) {
        let me = sender.index();
        let (row, lane) = self.row_mut(me);
        row.clear(lane);
        self.traffic.fold(me, RowTraffic::default());
    }

    /// O(1) per insert after the row's one-off lane stamp: the other
    /// receivers of a broadcast keep the shared copy.
    fn insert(&mut self, sender: NodeId, receiver: NodeId, m: M) {
        let me = sender.index();
        let r = receiver.index();
        let bits = m.bit_size();
        self.alloc_lanes();
        let (row, lane) = self.row_mut(me);
        row.ensure_dense(lane);
        let held = row.held(lane, r);
        lane[r] = Cell::Msg(m);
        self.traffic.replace(me, r, held, bits);
    }

    /// One row lookup and one counter update for the whole group; the
    /// shared message is cloned per *installed* receiver only.
    fn insert_group_if_vacant(&mut self, sender: NodeId, receivers: &mut [u32], msg: &M) -> usize {
        let me = sender.index();
        if receivers.is_empty() || (!self.rows[me].dense && self.rows[me].base.is_some()) {
            return 0; // nothing offered, or a pure broadcast: every pair is occupied
        }
        self.alloc_lanes();
        let (row, lane) = self.row_mut(me);
        row.ensure_dense(lane);
        let has_base = row.base.is_some();
        let mut busy = 0;
        for i in 0..receivers.len() {
            let r = receivers[i];
            let cell = &mut lane[r as usize];
            let vacant = match cell {
                Cell::Msg(_) => false,
                Cell::Inherit => !has_base,
                Cell::Knocked => true,
            };
            if vacant {
                *cell = Cell::Msg(msg.clone());
            } else {
                receivers[busy] = r;
                busy += 1;
            }
        }
        let installed = receivers.len() - busy;
        self.traffic.add(me, installed, msg.bit_size());
        installed
    }

    /// Cost: O(`except.len()`) plus a one-off tag fill of the row's lane
    /// when `except` is non-empty.
    fn set_broadcast_except(&mut self, sender: NodeId, msg: M, except: &[u32]) {
        let me = sender.index();
        if except.is_empty() {
            return self.set(sender, Emission::Broadcast(msg));
        }
        self.alloc_lanes();
        let (row, lane) = self.row_mut(me);
        row.clear(lane);
        row.ensure_dense(lane);
        let mut knocked = 0;
        for &r in except {
            let cell = &mut lane[r as usize];
            if !matches!(cell, Cell::Knocked) {
                *cell = Cell::Knocked;
                knocked += usize::from(r as usize != me);
            }
        }
        let bits = msg.bit_size();
        row.base = Some(msg);
        self.traffic
            .fold(me, RowTraffic::broadcast(self.n, knocked, bits));
    }

    fn merge_broadcast_except(
        &mut self,
        sender: NodeId,
        msg: M,
        except: &[u32],
        conflicts: &mut Vec<u32>,
    ) {
        let me = sender.index();
        debug_assert!(except.windows(2).all(|w| w[0] <= w[1]), "except not sorted");
        self.alloc_lanes();
        let (row, lane) = self.row_mut(me);
        assert!(
            row.base.is_none(),
            "merge_broadcast_except over an existing broadcast base"
        );
        row.ensure_dense(lane);
        let mut k = 0usize;
        let mut inherited = 0usize;
        // No branch on whether a receiver is knocked — a coin flip
        // per receiver under random delays: the `except` cursor moves
        // by a flag, and every receiver is written into room reserved
        // in `conflicts`, kept only when it is a conflict.
        let mut kept = conflicts.len();
        conflicts.resize(kept + lane.len(), 0);
        for (r, cell) in lane.iter_mut().enumerate() {
            let is_knocked = except.get(k).is_some_and(|&x| x as usize == r);
            k += usize::from(is_knocked);
            while except.get(k).is_some_and(|&x| x as usize == r) {
                k += 1; // a duplicate entry
            }
            let is_msg = matches!(cell, Cell::Msg(_));
            let is_inherit = matches!(cell, Cell::Inherit);
            conflicts[kept] = r as u32;
            kept += usize::from(is_msg && !is_knocked);
            inherited += usize::from(is_inherit && !is_knocked && r != me);
            if is_inherit && is_knocked {
                *cell = Cell::Knocked;
            }
        }
        conflicts.truncate(kept);
        let bits = msg.bit_size();
        row.base = Some(msg);
        let mut traffic = self.traffic.row(me);
        traffic.add(inherited, bits);
        self.traffic.fold(me, traffic);
    }

    /// Moves the base out without cloning; the delivery stage uses it to
    /// carry a pure broadcast into the arrivals mailbox.
    fn take_broadcast(&mut self, sender: NodeId) -> Option<M> {
        let me = sender.index();
        if self.rows[me].dense {
            return None;
        }
        let taken = self.rows[me].base.take()?;
        self.traffic.fold(me, RowTraffic::default());
        Some(taken)
    }

    fn broadcast_base(&self, sender: NodeId) -> Option<&M> {
        self.rows[sender.index()].base.as_ref()
    }

    fn broadcast_of(&self, sender: NodeId) -> Option<&M> {
        let row = &self.rows[sender.index()];
        if row.dense {
            None
        } else {
            row.base.as_ref()
        }
    }

    fn resolve_value(&self, sender: NodeId, receiver: NodeId) -> Option<M> {
        self.resolve(sender, receiver).cloned()
    }

    fn has_message(&self, sender: NodeId, receiver: NodeId) -> bool {
        self.resolve(sender, receiver).is_some()
    }

    /// Walks the row's whole lane: O(n) per deviating sender.
    fn deviations(&self, sender: NodeId) -> impl Iterator<Item = (NodeId, Option<M>)> + '_ {
        let me = sender.index();
        let row = &self.rows[me];
        let lane = self.lane(me);
        row.dense
            .then(|| {
                lane.iter().enumerate().filter_map(|(r, c)| match c {
                    Cell::Inherit => None,
                    Cell::Knocked => Some((NodeId::new(r as u32), None)),
                    Cell::Msg(m) => Some((NodeId::new(r as u32), Some(m.clone()))),
                })
            })
            .into_iter()
            .flatten()
    }

    fn inbox(&self, receiver: NodeId) -> Inbox<'_, M> {
        Inbox::dense(self, receiver)
    }

    fn message_count(&self) -> usize {
        self.traffic.message_count()
    }

    fn total_bits(&self) -> usize {
        self.traffic.total_bits()
    }

    fn max_edge_bits(&self) -> usize {
        self.traffic
            .max_edge_bits(|s| self.rows[s].max_bits(self.lane(s)))
    }

    fn row_traffic(&self, sender: NodeId) -> (usize, usize) {
        self.traffic.row_traffic(sender.index())
    }
}

/// Lazily-resolved view of one receiver's incoming messages.
///
/// Iteration yields `(sender, &message)` in sender-ID order, one entry per
/// sender that addressed this receiver. The receiver's own broadcast is
/// included (the paper's tallies count the node's own value).
///
/// The view is backend-polymorphic: the engine hands protocols the same
/// `Inbox` type whether the round's messages live in the dense
/// [`RoundMailbox`], the bit-packed
/// [`PackedMailbox`](crate::packed::PackedMailbox) or the
/// [`SparseMailbox`](crate::sparse::SparseMailbox). The packed backend
/// additionally answers word-parallel threshold queries through
/// [`Inbox::packed_match_count`]; the sparse backend reads through the
/// plane's receiver index and panics if that index is stale (see
/// [`MessagePlane::build_inbox_index`]).
#[derive(Debug, Clone)]
pub struct Inbox<'a, M> {
    backend: InboxBackend<'a, M>,
    receiver: NodeId,
}

#[derive(Debug, Clone)]
enum InboxBackend<'a, M> {
    Dense(&'a RoundMailbox<M>),
    Packed {
        plane: &'a crate::packed::PackedMailbox<M>,
        decode: fn(u32) -> M,
        /// Decoded `(sender, message)` pairs, materialized on first
        /// by-reference access (iteration / `from`); the fast paths
        /// (`len`, `packed_match_count`) never touch it.
        scratch: std::cell::OnceCell<Vec<(NodeId, M)>>,
    },
    Sparse(&'a crate::sparse::SparseMailbox<M>),
}

/// Iterator over any backend's inbox entries.
enum EitherIter<A, B, C> {
    Dense(A),
    Packed(B),
    Sparse(C),
}

impl<A: Iterator<Item = T>, B: Iterator<Item = T>, C: Iterator<Item = T>, T> Iterator
    for EitherIter<A, B, C>
{
    type Item = T;
    fn next(&mut self) -> Option<T> {
        match self {
            EitherIter::Dense(it) => it.next(),
            EitherIter::Packed(it) => it.next(),
            EitherIter::Sparse(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            EitherIter::Dense(it) => it.size_hint(),
            EitherIter::Packed(it) => it.size_hint(),
            EitherIter::Sparse(it) => it.size_hint(),
        }
    }

    // Internal iteration must reach the wrapped adapter: `count`,
    // `for_each`, and the `filter(..).count()` tallies the protocols
    // run per round all lower to `fold`, and the dense backend's
    // `filter_map` only vectorizes through its own `fold` — the default
    // `next()` loop over the enum costs ~4x on the hot path.
    fn fold<Acc, F>(self, init: Acc, f: F) -> Acc
    where
        F: FnMut(Acc, T) -> Acc,
    {
        match self {
            EitherIter::Dense(it) => it.fold(init, f),
            EitherIter::Packed(it) => it.fold(init, f),
            EitherIter::Sparse(it) => it.fold(init, f),
        }
    }
}

impl<'a, M: Message> Inbox<'a, M> {
    /// A dense-backed inbox (constructed by the dense plane's
    /// `MessagePlane::inbox`).
    pub(crate) fn dense(mailbox: &'a RoundMailbox<M>, receiver: NodeId) -> Self {
        Inbox {
            backend: InboxBackend::Dense(mailbox),
            receiver,
        }
    }

    /// A packed-backed inbox (constructed by the packed plane's
    /// `MessagePlane::inbox`).
    pub(crate) fn packed(
        plane: &'a crate::packed::PackedMailbox<M>,
        decode: fn(u32) -> M,
        receiver: NodeId,
    ) -> Self {
        Inbox {
            backend: InboxBackend::Packed {
                plane,
                decode,
                scratch: std::cell::OnceCell::new(),
            },
            receiver,
        }
    }

    /// A sparse-backed inbox (constructed by the sparse plane's
    /// `MessagePlane::inbox`).
    pub(crate) fn sparse(plane: &'a crate::sparse::SparseMailbox<M>, receiver: NodeId) -> Self {
        Inbox {
            backend: InboxBackend::Sparse(plane),
            receiver,
        }
    }

    /// The receiving node.
    pub fn receiver(&self) -> NodeId {
        self.receiver
    }

    /// Network size.
    pub fn n(&self) -> usize {
        match &self.backend {
            InboxBackend::Dense(mb) => mb.n,
            InboxBackend::Packed { plane, .. } => plane.n,
            InboxBackend::Sparse(plane) => plane.n,
        }
    }

    /// The packed backend's decoded entries, filled on first use.
    fn packed_entries(&self) -> Option<&Vec<(NodeId, M)>> {
        match &self.backend {
            InboxBackend::Dense(_) | InboxBackend::Sparse(_) => None,
            InboxBackend::Packed {
                plane,
                decode,
                scratch,
            } => Some(scratch.get_or_init(|| {
                let mut out = Vec::new();
                plane.fill_inbox(self.receiver, *decode, &mut out);
                out
            })),
        }
    }

    /// Iterates over `(sender, message)` pairs addressed to this receiver.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &M)> + '_ {
        match &self.backend {
            InboxBackend::Dense(mb) => {
                let r = self.receiver.index();
                let n = mb.n;
                let lanes = &mb.lanes;
                EitherIter::Dense(mb.rows.iter().enumerate().filter_map(move |(s, row)| {
                    let lane = if lanes.is_empty() {
                        &[][..]
                    } else {
                        &lanes[s * n..(s + 1) * n]
                    };
                    row.effective(lane, r).map(|m| (NodeId::new(s as u32), m))
                }))
            }
            InboxBackend::Packed { .. } => EitherIter::Packed(
                self.packed_entries()
                    .expect("packed backend")
                    .iter()
                    .map(|(s, m)| (*s, m)),
            ),
            InboxBackend::Sparse(plane) => EitherIter::Sparse(plane.inbox_iter(self.receiver)),
        }
    }

    /// The message from a specific sender, if any.
    pub fn from(&self, sender: NodeId) -> Option<&M> {
        match &self.backend {
            InboxBackend::Dense(mb) => mb.resolve(sender, self.receiver),
            InboxBackend::Packed { .. } => {
                let entries = self.packed_entries().expect("packed backend");
                entries
                    .binary_search_by_key(&sender, |(s, _)| *s)
                    .ok()
                    .map(|i| &entries[i].1)
            }
            InboxBackend::Sparse(plane) => plane.inbox_from(sender, self.receiver),
        }
    }

    /// Number of messages addressed to this receiver. On the packed
    /// backend this is a word-parallel popcount, O(n/64); on the sparse
    /// backend it walks the receiver's index entries and the base
    /// senders, O(|bases| + |devs(r)|).
    pub fn len(&self) -> usize {
        match &self.backend {
            InboxBackend::Dense(_) | InboxBackend::Sparse(_) => self.iter().count(),
            InboxBackend::Packed { plane, .. } => plane.inbox_len(self.receiver),
        }
    }

    /// Whether the inbox is empty.
    pub fn is_empty(&self) -> bool {
        match &self.backend {
            InboxBackend::Dense(_) | InboxBackend::Sparse(_) => self.iter().next().is_none(),
            InboxBackend::Packed { .. } => self.len() == 0,
        }
    }

    /// Word-parallel masked count: how many senders delivered this
    /// receiver a message whose packed code satisfies
    /// `code & mask == bits`, optionally restricted to a sender-ID
    /// range. Returns `None` on the dense and sparse backends —
    /// callers fall back to their by-reference iteration, keeping those
    /// planes' behaviour (and their goldens) untouched.
    pub fn packed_match_count(
        &self,
        mask: u32,
        bits: u32,
        senders: Option<std::ops::Range<u32>>,
    ) -> Option<usize> {
        match &self.backend {
            InboxBackend::Dense(_) | InboxBackend::Sparse(_) => None,
            InboxBackend::Packed { plane, .. } => {
                Some(plane.match_count(self.receiver, mask, bits, senders))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Tm(u8);
    impl Message for Tm {
        fn bit_size(&self) -> usize {
            8
        }
    }

    fn id(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn broadcast_reaches_everyone_including_self() {
        let mut mb = RoundMailbox::new(4);
        mb.set(id(1), Emission::Broadcast(Tm(9)));
        for r in 0..4 {
            assert_eq!(mb.resolve(id(1), id(r)), Some(&Tm(9)));
        }
        assert_eq!(mb.broadcast_of(id(1)), Some(&Tm(9)));
    }

    #[test]
    fn silence_by_default_and_after_clear() {
        let mut mb = RoundMailbox::new(3);
        assert!(mb.is_silent(id(0)));
        mb.set(id(0), Emission::Broadcast(Tm(1)));
        assert!(!mb.is_silent(id(0)));
        mb.silence(id(0));
        assert!(mb.is_silent(id(0)));
        assert_eq!(mb.resolve(id(0), id(1)), None);
    }

    #[test]
    fn equivocation_delivers_different_messages() {
        let mut mb = RoundMailbox::new(3);
        mb.set(
            id(2),
            Emission::PerRecipient(vec![(id(0), Tm(0)), (id(1), Tm(1))]),
        );
        assert_eq!(mb.resolve(id(2), id(0)), Some(&Tm(0)));
        assert_eq!(mb.resolve(id(2), id(1)), Some(&Tm(1)));
        assert_eq!(mb.resolve(id(2), id(2)), None);
        assert_eq!(mb.broadcast_of(id(2)), None);
    }

    #[test]
    fn later_per_recipient_entries_override() {
        let mut mb = RoundMailbox::new(2);
        mb.set(
            id(0),
            Emission::PerRecipient(vec![(id(1), Tm(1)), (id(1), Tm(2))]),
        );
        assert_eq!(mb.resolve(id(0), id(1)), Some(&Tm(2)));
        assert_eq!(mb.message_count(), 1);
        assert_eq!(mb.total_bits(), 8);
    }

    #[test]
    fn inbox_iterates_in_sender_order() {
        let mut mb = RoundMailbox::new(4);
        mb.set(id(3), Emission::Broadcast(Tm(3)));
        mb.set(id(1), Emission::Broadcast(Tm(1)));
        mb.set(id(2), Emission::PerRecipient(vec![(id(0), Tm(2))]));
        let inbox = mb.inbox(id(0));
        let got: Vec<_> = inbox.iter().map(|(s, m)| (s.index(), m.0)).collect();
        assert_eq!(got, vec![(1, 1), (2, 2), (3, 3)]);
        assert_eq!(inbox.len(), 3);
        assert!(!inbox.is_empty());
        assert_eq!(inbox.from(id(3)), Some(&Tm(3)));
        assert_eq!(inbox.from(id(0)), None);
    }

    #[test]
    fn counting_messages_and_bits() {
        let mut mb = RoundMailbox::new(4);
        mb.set(id(0), Emission::Broadcast(Tm(0))); // 3 msgs, 24 bits
        mb.set(
            id(1),
            Emission::PerRecipient(vec![(id(2), Tm(1)), (id(3), Tm(2))]),
        ); // 2 msgs, 16 bits
        assert_eq!(mb.message_count(), 5);
        assert_eq!(mb.total_bits(), 40);
        assert_eq!(mb.max_edge_bits(), 8);
    }

    #[test]
    fn empty_mailbox_counts_zero() {
        let mb: RoundMailbox<Tm> = RoundMailbox::new(8);
        assert_eq!(mb.message_count(), 0);
        assert_eq!(mb.total_bits(), 0);
        assert_eq!(mb.max_edge_bits(), 0);
        assert!(mb.inbox(id(5)).is_empty());
    }

    #[test]
    fn insert_merges_into_every_slot_kind() {
        let mut mb = RoundMailbox::new(3);
        // Into a silent slot.
        mb.insert(id(0), id(1), Tm(5));
        assert_eq!(mb.resolve(id(0), id(1)), Some(&Tm(5)));
        assert_eq!(mb.resolve(id(0), id(2)), None);
        // Into a per-recipient slot: same pair replaces, new pair adds.
        mb.insert(id(0), id(1), Tm(6));
        mb.insert(id(0), id(2), Tm(7));
        assert_eq!(mb.resolve(id(0), id(1)), Some(&Tm(6)));
        assert_eq!(mb.resolve(id(0), id(2)), Some(&Tm(7)));
        // Into a broadcast slot: other recipients keep the broadcast copy.
        mb.set(id(1), Emission::Broadcast(Tm(1)));
        mb.insert(id(1), id(0), Tm(9));
        assert_eq!(mb.resolve(id(1), id(0)), Some(&Tm(9)));
        assert_eq!(mb.resolve(id(1), id(1)), Some(&Tm(1)));
        assert_eq!(mb.resolve(id(1), id(2)), Some(&Tm(1)));
    }

    #[test]
    fn overriding_a_slot_replaces_it() {
        let mut mb = RoundMailbox::new(2);
        mb.set(id(0), Emission::Broadcast(Tm(1)));
        mb.set(id(0), Emission::PerRecipient(vec![(id(1), Tm(7))]));
        assert_eq!(mb.resolve(id(0), id(0)), None);
        assert_eq!(mb.resolve(id(0), id(1)), Some(&Tm(7)));
    }

    // --- dense-representation specifics -------------------------------

    /// A message whose clones are counted, to pin the zero-clone claims.
    #[derive(Debug)]
    struct Counted(u8);
    static CLONES: AtomicUsize = AtomicUsize::new(0);
    impl Clone for Counted {
        fn clone(&self) -> Self {
            CLONES.fetch_add(1, Ordering::Relaxed);
            Counted(self.0)
        }
    }
    impl Message for Counted {
        fn bit_size(&self) -> usize {
            8
        }
    }

    #[test]
    fn insert_into_broadcast_never_clones_the_base() {
        let mut mb: RoundMailbox<Counted> = RoundMailbox::new(64);
        let before = CLONES.load(Ordering::Relaxed);
        mb.set_broadcast_except(id(0), Counted(1), &[11]);
        mb.insert(id(0), id(7), Counted(2));
        mb.insert(id(0), id(9), Counted(3));
        assert_eq!(
            CLONES.load(Ordering::Relaxed),
            before,
            "broadcast expansion must not clone the base message"
        );
        assert_eq!(mb.resolve(id(0), id(7)).map(|m| m.0), Some(2));
        assert_eq!(mb.resolve(id(0), id(11)).map(|m| m.0), None);
        assert_eq!(mb.resolve(id(0), id(12)).map(|m| m.0), Some(1));
    }

    #[test]
    fn excepted_self_copy_is_free_but_effective() {
        let mut mb = RoundMailbox::new(3);
        mb.set_broadcast_except(id(0), Tm(1), &[0]);
        assert_eq!(mb.resolve(id(0), id(0)), None);
        assert_eq!(mb.message_count(), 2, "self-copy was never counted");
        assert_eq!(mb.total_bits(), 16);
    }

    #[test]
    fn excepted_then_override_counts_once() {
        let mut mb = RoundMailbox::new(4);
        mb.set_broadcast_except(id(0), Tm(1), &[2]);
        assert_eq!(mb.message_count(), 2);
        // Overriding a knocked-out cell re-adds exactly one message.
        mb.insert(id(0), id(2), Tm(7));
        assert_eq!(mb.resolve(id(0), id(2)), Some(&Tm(7)));
        assert_eq!(mb.message_count(), 3);
        assert_eq!(mb.total_bits(), 24);
    }

    #[test]
    fn knock_out_removes_single_broadcast_recipient() {
        let mut mb = RoundMailbox::new(4);
        mb.set(id(1), Emission::Broadcast(Tm(9)));
        assert_eq!(mb.message_count(), 3);
        mb.set_broadcast_except(id(1), Tm(9), &[3]);
        assert_eq!(mb.resolve(id(1), id(3)), None);
        assert_eq!(mb.resolve(id(1), id(0)), Some(&Tm(9)));
        assert_eq!(mb.resolve(id(1), id(1)), Some(&Tm(9)), "self-copy kept");
        assert_eq!(mb.broadcast_of(id(1)), None, "no longer a pure broadcast");
        assert_eq!(mb.message_count(), 2);
        assert_eq!(mb.total_bits(), 16);
        assert_eq!(mb.max_edge_bits(), 8, "base still crosses other edges");
    }

    #[test]
    fn set_broadcast_except_matches_knock_outs() {
        // Reference: the pure broadcast with each knocked receiver's cell
        // emptied by hand; the self-copy was never counted, so each
        // knocked non-self receiver takes one message and its bits away.
        let mut full = RoundMailbox::new(5);
        full.set(id(2), Emission::Broadcast(Tm(6)));
        let knocked = [0u32, 4];
        let mut b = RoundMailbox::new(5);
        b.set_broadcast_except(id(2), Tm(6), &knocked);
        for r in 0..5 {
            let want = if knocked.contains(&r) {
                None
            } else {
                full.resolve(id(2), id(r))
            };
            assert_eq!(b.resolve(id(2), id(r)), want, "r={r}");
        }
        let gone = knocked.iter().filter(|&&r| r != 2).count();
        assert_eq!(b.message_count(), full.message_count() - gone);
        assert_eq!(b.total_bits(), full.total_bits() - 8 * gone);
        // Duplicates in `except` are tolerated.
        let mut c = RoundMailbox::new(5);
        c.set_broadcast_except(id(2), Tm(6), &[0, 0, 4, 4]);
        assert_eq!(c.message_count(), b.message_count());
        assert_eq!(c.total_bits(), b.total_bits());
    }

    #[test]
    fn set_broadcast_except_empty_is_pure_broadcast() {
        let mut mb = RoundMailbox::new(4);
        mb.set_broadcast_except(id(1), Tm(3), &[]);
        assert_eq!(mb.message_count(), 3);
        assert_eq!(mb.broadcast_of(id(1)), Some(&Tm(3)));
    }

    #[test]
    fn take_broadcast_moves_the_base_out() {
        let mut mb = RoundMailbox::new(3);
        mb.set(id(0), Emission::Broadcast(Tm(5)));
        assert_eq!(mb.take_broadcast(id(0)), Some(Tm(5)));
        assert!(mb.is_silent(id(0)));
        assert_eq!(mb.message_count(), 0);
        assert_eq!(mb.total_bits(), 0);
        // Non-pure rows refuse.
        mb.set_broadcast_except(id(1), Tm(6), &[2]);
        assert_eq!(mb.take_broadcast(id(1)), None);
        assert_eq!(mb.take_broadcast(id(2)), None, "silent row");
    }

    #[test]
    fn reset_reuses_allocations_and_empties() {
        let mut mb = RoundMailbox::new(4);
        mb.set(id(0), Emission::Broadcast(Tm(1)));
        mb.insert(id(0), id(2), Tm(9));
        mb.set(id(3), Emission::PerRecipient(vec![(id(1), Tm(2))]));
        mb.reset(4);
        for s in 0..4 {
            assert!(mb.is_silent(id(s)));
            for r in 0..4 {
                assert_eq!(mb.resolve(id(s), id(r)), None);
            }
        }
        assert_eq!(mb.message_count(), 0);
        assert_eq!(mb.total_bits(), 0);
        assert_eq!(mb.max_edge_bits(), 0);
        // And it is fully usable again.
        mb.set(id(2), Emission::Broadcast(Tm(8)));
        assert_eq!(mb.message_count(), 3);
        // Resizing works in both directions.
        mb.reset(2);
        assert_eq!(mb.n(), 2);
        mb.set(id(1), Emission::Broadcast(Tm(1)));
        assert_eq!(mb.message_count(), 1);
        mb.reset(6);
        assert_eq!(mb.n(), 6);
        assert_eq!(mb.message_count(), 0);
    }

    /// Both max-edge scenarios, on all three planes: one replaces and
    /// silences rows around a broadcast, the other only point-to-point
    /// rows. `Var`'s packed code is its bit size.
    #[test]
    fn max_edge_bits_recovers_after_removals() {
        use crate::packed::{PackedMailbox, PackedMessage};
        use crate::sparse::SparseMailbox;

        #[derive(Debug, Clone, PartialEq, Eq)]
        struct Var(usize);
        impl Message for Var {
            fn bit_size(&self) -> usize {
                self.0
            }
        }
        impl PackedMessage for Var {
            fn pack(&self) -> Option<u32> {
                u32::try_from(self.0).ok()
            }
            fn unpack(code: u32) -> Self {
                Var(code as usize)
            }
        }
        fn drive<L: MessagePlane<Var>>() {
            let plane = std::any::type_name::<L>();
            let mut mb = L::default();
            mb.reset(3);
            mb.set(id(0), Emission::Broadcast(Var(4)));
            mb.set(
                id(1),
                Emission::PerRecipient(vec![(id(0), Var(32)), (id(2), Var(2))]),
            );
            assert_eq!(mb.max_edge_bits(), 32, "{plane}");
            mb.insert(id(1), id(0), Var(2)); // replaces the 32-bit maximum
            assert_eq!(mb.max_edge_bits(), 4, "{plane}");
            mb.silence(id(0));
            assert_eq!(mb.max_edge_bits(), 2, "{plane}");
            mb.insert(id(2), id(1), Var(64));
            assert_eq!(mb.max_edge_bits(), 64, "{plane}");
            mb.insert(id(2), id(1), Var(1)); // replacement shrinks the edge
            assert_eq!(mb.max_edge_bits(), 2, "{plane}");

            mb.reset(4);
            mb.insert(id(0), id(1), Var(32));
            mb.insert(id(1), id(2), Var(8));
            assert_eq!(mb.max_edge_bits(), 32, "{plane}");
            mb.insert(id(0), id(1), Var(2)); // replaces the 32-bit maximum
            assert_eq!(mb.max_edge_bits(), 8, "{plane}");
            mb.silence(id(1));
            assert_eq!(mb.max_edge_bits(), 2, "{plane}");
            mb.silence(id(0));
            assert_eq!(mb.max_edge_bits(), 0, "{plane}");
        }
        drive::<RoundMailbox<Var>>();
        drive::<PackedMailbox<Var>>();
        drive::<SparseMailbox<Var>>();
    }
}
