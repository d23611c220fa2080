//! The in-flight message queue.
//!
//! [`FlightQueue`] generalizes the engine's per-round mailbox across
//! rounds. Messages travel as **grouped flights**: one group per
//! `(sender, emission round, due round)` carrying a single shared
//! message and a run of receivers — a delayed broadcast is one group
//! with many receivers, not `n` cloned entries. The message is cloned
//! only per *delivered* receiver, at drain time.
//!
//! # The wheel
//!
//! Groups wait in a ring of slots keyed by due round: slot
//! `due & (len − 1)` holds the groups due that round, with one receiver
//! arena for all of them. The ring grows by powers of two to the longest
//! delay in flight, so under `BoundedDelay(d)` it has the next power of
//! two above `d` slots, each holding one due round. A drain touches the
//! slot due that round plus the **carry** — the groups the previous
//! drain deferred — and nothing else, so a round costs the traffic due
//! in it, not the whole backlog. Delays longer than the largest ring
//! (4,096 rounds) share slots with nearer rounds; a drain passes over
//! those not-yet-due groups and leaves them in place.
//!
//! # FIFO per link
//!
//! Each ordered node pair exchanges at most one message per round in
//! this engine (the CONGEST invariant `max_edge_bits` relies on), so a
//! link carries at most one queued message per *emission* round, and
//! FIFO per link means oldest emission first. Slots and the carry are
//! kept in emission order (the delivery stage pushes in round order, so
//! a push normally appends), and a drain merges the carry with the due
//! slot by emission round. Each group then makes one
//! [`MessagePlane::insert_group_if_vacant`] call, which is also the
//! conflict check: a receiver whose link already carries an older
//! message stays in the group's deferred tail, and the tail moves to the
//! carry, due next round. Appending those tails behind the next slot's
//! own groups instead would let a newer message win a link once delays
//! reach three rounds.
//!
//! # Saturated links
//!
//! With unit capacity per link, FIFO turns `BoundedDelay(d, Random)`
//! into a fixed `d`-round delay line once a link carries a message every
//! round: a message delayed less than `d` queues behind older traffic
//! until its turn, `d` rounds after its emission. A network where every
//! node broadcasts every round settles with `d` messages in flight per
//! link.

use aba_sim::{Message, MessagePlane, NodeId, Round};

#[cfg(test)]
use aba_sim::RoundMailbox;

/// Largest ring the wheel grows to: a due round less than this many
/// rounds ahead of the next drain has a slot to itself.
pub(crate) const RING_CAP: usize = 1 << 12;

/// One group of messages travelling between rounds: the same payload
/// from one sender to many receivers, emitted and due together.
#[derive(Debug, Clone)]
struct Flight<M> {
    /// Round index at which the group becomes deliverable.
    due: u64,
    /// Round index at which it was emitted (`due >= emit` always).
    emit: u64,
    sender: NodeId,
    /// Receivers still owed the message, in routing order: the span
    /// `start..start + len` of the slot's receiver arena.
    start: usize,
    /// A group never holds more receivers than the network has nodes,
    /// which [`NodeId`] numbers in `u32`.
    len: u32,
    msg: M,
}

impl<M> Flight<M> {
    fn span(&self) -> std::ops::Range<usize> {
        self.start..self.start + self.len as usize
    }
}

/// The groups of one due round (or of the carry), in emission order,
/// with one receiver arena for all of them.
#[derive(Debug, Clone)]
struct Slot<M> {
    groups: Vec<Flight<M>>,
    receivers: Vec<u32>,
}

impl<M> Default for Slot<M> {
    fn default() -> Self {
        Slot {
            groups: Vec::new(),
            receivers: Vec::new(),
        }
    }
}

impl<M> Slot<M> {
    /// Adds a group behind every group of its emission round or older.
    fn push(&mut self, emit: u64, due: u64, sender: NodeId, receivers: &[u32], msg: M) {
        let at = match self.groups.last() {
            Some(last) if last.emit > emit => self.groups.partition_point(|g| g.emit <= emit),
            _ => self.groups.len(),
        };
        let flight = Flight {
            due,
            emit,
            sender,
            start: self.receivers.len(),
            len: receivers.len() as u32,
            msg,
        };
        self.groups.insert(at, flight);
        self.receivers.extend_from_slice(receivers);
    }
}

/// Outcome of one [`FlightQueue::drain_due`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DrainOutcome {
    /// Messages moved into the arrivals mailbox.
    pub delivered: usize,
    /// Due messages deferred to the next round because their link was
    /// already carrying an older message.
    pub deferred: usize,
    /// Flight groups the drain walked.
    pub groups: usize,
}

/// Cross-round message store with FIFO per-link delivery.
#[derive(Debug, Clone)]
pub struct FlightQueue<M> {
    /// Slot `due & (ring.len() - 1)` holds the groups due at `due`; the
    /// length is zero or a power of two.
    ring: Vec<Slot<M>>,
    /// The next round to drain: every group in the ring is due then or
    /// later.
    cursor: u64,
    /// Groups due at the next drain that wait outside the ring: the
    /// deferred tails of the last drain.
    carry: Slot<M>,
    /// The old carry while a drain merges it; empty between drains.
    spare_carry: Slot<M>,
    /// Total receivers across all groups (the in-flight message count).
    messages: usize,
}

impl<M: Message> FlightQueue<M> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        FlightQueue {
            ring: Vec::new(),
            cursor: 0,
            carry: Slot::default(),
            spare_carry: Slot::default(),
            messages: 0,
        }
    }

    /// Messages currently in flight.
    pub fn len(&self) -> usize {
        self.messages
    }

    /// Whether nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.messages == 0
    }

    /// The slot a group emitted in `emit` and due at `due` joins.
    fn slot_for(&mut self, emit: Round, due: u64) -> &mut Slot<M> {
        assert!(
            due >= emit.index(),
            "message due r{due} before its emission {emit}"
        );
        if self.messages == 0 {
            // Nothing in flight: restart the wheel here, so rounds the
            // queue sat idle through never widen the ring.
            self.cursor = emit.index();
        }
        if due < self.cursor {
            return &mut self.carry; // already due: the next drain offers it
        }
        let offset = due - self.cursor;
        if offset >= self.ring.len() as u64 && self.ring.len() < RING_CAP {
            self.grow(offset);
        }
        let mask = self.ring.len() - 1;
        &mut self.ring[due as usize & mask]
    }

    /// Widens the ring to cover due rounds `offset` past the cursor.
    /// Below the cap every slot holds one due round, so each non-empty
    /// slot moves whole.
    fn grow(&mut self, offset: u64) {
        let len = (offset.min(RING_CAP as u64 - 1) as usize + 1).next_power_of_two();
        let old = std::mem::replace(&mut self.ring, (0..len).map(|_| Slot::default()).collect());
        for slot in old {
            if let Some(g) = slot.groups.first() {
                let i = g.due as usize & (len - 1);
                self.ring[i] = slot;
            }
        }
    }

    /// Enqueues a single message emitted in `emit` for delivery at `due`
    /// (a group of one).
    ///
    /// # Panics
    ///
    /// Panics if `due < emit`: a message cannot arrive before it was
    /// sent.
    pub fn push(&mut self, emit: Round, due: u64, sender: NodeId, receiver: NodeId, msg: M) {
        self.push_group(emit, due, sender, &[receiver.raw()], msg);
    }

    /// Enqueues one shared message from `sender` to every receiver in
    /// `receivers` (routing order), emitted in `emit` and due at `due`.
    /// The receiver list is copied into the slot's arena; the message is
    /// stored once.
    ///
    /// # Panics
    ///
    /// Panics if `due < emit`, or if `receivers` is empty or longer than
    /// any network (`u32::MAX` nodes).
    pub fn push_group(&mut self, emit: Round, due: u64, sender: NodeId, receivers: &[u32], msg: M) {
        assert!(!receivers.is_empty(), "flight group with no receivers");
        assert!(
            u32::try_from(receivers.len()).is_ok(),
            "flight group larger than any network"
        );
        self.slot_for(emit, due)
            .push(emit.index(), due, sender, receivers, msg);
        self.messages += receivers.len();
    }

    /// Moves every message due by `round` into `out`, oldest emission
    /// first; a due message whose link is already occupied in `out`
    /// slips to the next round. Messages due later stay queued
    /// untouched. Generic over the message plane: the queue drains into
    /// the packed and sparse planes exactly as into the dense mailbox.
    pub fn drain_due<L: MessagePlane<M>>(&mut self, round: Round, out: &mut L) -> DrainOutcome {
        let round = round.index();
        let mut outcome = DrainOutcome::default();
        // The ring slots due by `round`: one when every round is
        // drained, more only when rounds were skipped. Fold all but the
        // last into the carry, then offer the carry merged with the last.
        let visits = if round < self.cursor {
            0
        } else {
            (round - self.cursor)
                .saturating_add(1)
                .min(self.ring.len() as u64)
        };
        let (cursor, mask) = (self.cursor, self.ring.len().wrapping_sub(1));
        let slot = move |k: u64| (cursor + k) as usize & mask;
        for k in 0..visits.saturating_sub(1) {
            self.merge_slot(Some(slot(k)), round, None::<&mut L>, &mut outcome);
        }
        self.merge_slot(
            visits.checked_sub(1).map(slot),
            round,
            Some(out),
            &mut outcome,
        );
        self.cursor = self.cursor.max(round + 1);
        outcome
    }

    /// Walks the carry and ring slot `slot` together, oldest emission
    /// first, emptying both: a group not due by `round` goes back where
    /// it came from; a due one is offered to `out` — its deferred tail
    /// joining the new carry — or, without `out`, folded into the carry
    /// whole.
    fn merge_slot<L: MessagePlane<M>>(
        &mut self,
        slot: Option<usize>,
        round: u64,
        mut out: Option<&mut L>,
        outcome: &mut DrainOutcome,
    ) {
        let FlightQueue {
            ring,
            carry,
            spare_carry,
            messages,
            ..
        } = self;
        // The carry swaps with its empty spare and the due slot leaves
        // the ring; both return empty with their capacity, so a drain
        // allocates nothing after warm-up.
        std::mem::swap(carry, spare_carry);
        let mut due = Slot::default();
        let mut no_slot = Slot::default();
        let home = match slot {
            Some(i) => {
                std::mem::swap(&mut ring[i], &mut due);
                &mut ring[i]
            }
            None => &mut no_slot,
        };
        let Slot {
            groups: old_groups,
            receivers: old_receivers,
        } = spare_carry;
        let Slot {
            groups: due_groups,
            receivers: due_receivers,
        } = &mut due;
        let mut from_carry = old_groups.drain(..).peekable();
        let mut from_slot = due_groups.drain(..).peekable();
        loop {
            let take_slot = match (from_carry.peek(), from_slot.peek()) {
                (None, None) => break,
                (Some(c), Some(s)) => s.emit < c.emit,
                (c, _) => c.is_none(),
            };
            let (next, arena) = if take_slot {
                (from_slot.next(), &mut *due_receivers)
            } else {
                (from_carry.next(), &mut *old_receivers)
            };
            let Some(g) = next else { break };
            outcome.groups += 1;
            let receivers = &mut arena[g.span()];
            if g.due > round {
                let back = if take_slot { &mut *home } else { &mut *carry };
                back.push(g.emit, g.due, g.sender, receivers, g.msg);
                continue;
            }
            let Some(out) = out.as_deref_mut() else {
                carry.push(g.emit, g.due, g.sender, receivers, g.msg);
                continue;
            };
            let installed = out.insert_group_if_vacant(g.sender, receivers, &g.msg);
            let busy = receivers.len() - installed;
            outcome.delivered += installed;
            outcome.deferred += busy;
            *messages -= installed;
            if busy > 0 {
                carry.push(g.emit, round + 1, g.sender, &receivers[..busy], g.msg);
            }
        }
        drop((from_carry, from_slot));
        old_receivers.clear();
        due_receivers.clear();
        // Hand the drained slot's buffers back to the ring, unless
        // not-yet-due groups went back in its place.
        if home.groups.is_empty() {
            *home = due;
        }
    }
}

impl<M: Message> Default for FlightQueue<M> {
    fn default() -> Self {
        Self::new()
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

    fn id(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// Drains `round` into a fresh `n`-node mailbox.
    fn drain(q: &mut FlightQueue<Tm>, round: u64, n: usize) -> (DrainOutcome, RoundMailbox<Tm>) {
        let mut out = RoundMailbox::new(n);
        let o = q.drain_due(Round::new(round), &mut out);
        (o, out)
    }

    #[test]
    fn due_messages_deliver_future_ones_wait() {
        let mut q: FlightQueue<Tm> = FlightQueue::new();
        q.push(Round::ZERO, 0, id(0), id(1), Tm(1));
        q.push(Round::ZERO, 2, id(0), id(2), Tm(2));
        let (o, out) = drain(&mut q, 0, 3);
        assert_eq!(
            o,
            DrainOutcome {
                delivered: 1,
                deferred: 0,
                groups: 1,
            }
        );
        assert_eq!(out.resolve(id(0), id(1)), Some(&Tm(1)));
        assert_eq!(out.resolve(id(0), id(2)), None);
        assert_eq!(q.len(), 1);
        // Round 1: still not due, and its group is not even walked.
        assert_eq!(drain(&mut q, 1, 3).0, DrainOutcome::default());
        // Round 2: arrives.
        assert_eq!(drain(&mut q, 2, 3).0.delivered, 1);
        assert!(q.is_empty());
    }

    #[test]
    fn busy_link_defers_oldest_first() {
        let mut q: FlightQueue<Tm> = FlightQueue::new();
        // Two messages on the same link, emitted in rounds 0 and 1, both
        // due by round 1.
        q.push(Round::ZERO, 1, id(0), id(1), Tm(1));
        q.push(Round::new(1), 1, id(0), id(1), Tm(2));
        let (o, out) = drain(&mut q, 1, 2);
        assert_eq!(
            o,
            DrainOutcome {
                delivered: 1,
                deferred: 1,
                groups: 2,
            }
        );
        // The older message won the link.
        assert_eq!(out.resolve(id(0), id(1)), Some(&Tm(1)));
        // Draining round 1 again offers nothing: the loser is due at 2.
        assert_eq!(drain(&mut q, 1, 2).0.delivered, 0);
        // The younger one arrives next round.
        let (o, out) = drain(&mut q, 2, 2);
        assert_eq!(o.delivered, 1);
        assert_eq!(out.resolve(id(0), id(1)), Some(&Tm(2)));
        assert!(q.is_empty());
    }

    #[test]
    fn no_message_is_duplicated() {
        let mut q: FlightQueue<Tm> = FlightQueue::new();
        for r in 0..4u32 {
            q.push(Round::ZERO, 0, id(0), id(r + 1), Tm(r as u8));
        }
        assert_eq!(drain(&mut q, 0, 8).0.delivered, 4);
        // Draining again delivers nothing: the queue handed them off.
        let (o, out) = drain(&mut q, 0, 8);
        assert_eq!(o.delivered, 0);
        assert_eq!(out.message_count(), 0);
    }

    #[test]
    #[should_panic(expected = "before its emission")]
    fn delivery_before_emission_is_rejected() {
        let mut q: FlightQueue<Tm> = FlightQueue::new();
        q.push(Round::new(5), 3, id(0), id(1), Tm(0));
    }

    #[test]
    fn group_shares_one_message_across_receivers() {
        let mut q: FlightQueue<Tm> = FlightQueue::new();
        q.push_group(Round::ZERO, 1, id(0), &[1, 2, 3], Tm(7));
        assert_eq!(q.len(), 3);
        assert_eq!(drain(&mut q, 0, 4).0.delivered, 0, "not due");
        let (o, out) = drain(&mut q, 1, 4);
        assert_eq!(o.delivered, 3);
        assert_eq!(o.groups, 1, "one plane call for the whole group");
        for r in 1..4 {
            assert_eq!(out.resolve(id(0), id(r)), Some(&Tm(7)));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn group_splits_on_partially_busy_links() {
        let mut q: FlightQueue<Tm> = FlightQueue::new();
        // An older single already owns link (0, 2) at round 1.
        q.push(Round::ZERO, 1, id(0), id(2), Tm(9));
        q.push_group(Round::new(1), 1, id(0), &[1, 2, 3], Tm(7));
        let (o, out) = drain(&mut q, 1, 4);
        assert_eq!(o.delivered, 3, "single + two group receivers");
        assert_eq!(o.deferred, 1, "group receiver 2 lost its link");
        assert_eq!(out.resolve(id(0), id(2)), Some(&Tm(9)), "older wins");
        assert_eq!(out.resolve(id(0), id(1)), Some(&Tm(7)));
        assert_eq!(q.len(), 1);
        // The split-off tail lands next round.
        let (o, out) = drain(&mut q, 2, 4);
        assert_eq!(o.delivered, 1);
        assert_eq!(out.resolve(id(0), id(2)), Some(&Tm(7)));
        assert!(q.is_empty());
    }

    /// A deferred tail must beat a newer message due in the next round's
    /// own slot: the drain merges the carry with the slot by emission
    /// round. Appending the tail behind the slot instead would hand link
    /// (0, 1) to `Tm(2)` in round 4.
    #[test]
    fn deferred_tail_beats_a_newer_message_of_the_next_slot() {
        let mut q: FlightQueue<Tm> = FlightQueue::new();
        q.push(Round::ZERO, 3, id(0), id(1), Tm(0)); // delay 3
        q.push(Round::new(1), 3, id(0), id(1), Tm(1)); // delay 2
        q.push(Round::new(2), 4, id(0), id(1), Tm(2)); // delay 2
        let mut landed = Vec::new();
        for round in 0..6 {
            let (_, out) = drain(&mut q, round, 2);
            landed.push(out.resolve(id(0), id(1)).cloned());
        }
        assert_eq!(
            landed,
            [None, None, None, Some(Tm(0)), Some(Tm(1)), Some(Tm(2))]
        );
        assert!(q.is_empty());
    }

    /// Slots are kept in emission order even when pushes arrive out of
    /// it, so the oldest emission wins a shared link.
    #[test]
    fn out_of_order_pushes_still_deliver_oldest_emission_first() {
        let mut q: FlightQueue<Tm> = FlightQueue::new();
        q.push(Round::new(2), 3, id(1), id(0), Tm(2));
        q.push(Round::new(1), 3, id(1), id(0), Tm(1));
        assert_eq!(drain(&mut q, 3, 2).1.resolve(id(1), id(0)), Some(&Tm(1)));
        assert_eq!(drain(&mut q, 4, 2).1.resolve(id(1), id(0)), Some(&Tm(2)));
    }

    /// Skipping rounds between drains offers everything due by the
    /// drained round at once, still oldest emission first — even when
    /// the older message is due later than the newer one.
    #[test]
    fn skipped_rounds_drain_every_due_slot_in_emission_order() {
        let mut q: FlightQueue<Tm> = FlightQueue::new();
        q.push(Round::ZERO, 3, id(0), id(1), Tm(0));
        q.push(Round::new(1), 2, id(0), id(1), Tm(1));
        q.push(Round::new(1), 2, id(0), id(2), Tm(5));
        let (o, out) = drain(&mut q, 5, 3);
        assert_eq!((o.delivered, o.deferred), (2, 1));
        assert_eq!(out.resolve(id(0), id(1)), Some(&Tm(0)));
        assert_eq!(out.resolve(id(0), id(2)), Some(&Tm(5)));
        assert_eq!(drain(&mut q, 6, 3).1.resolve(id(0), id(1)), Some(&Tm(1)));
        assert!(q.is_empty());
    }

    /// A delay longer than the largest ring shares a slot with nearer
    /// rounds: drains pass over it until it is due.
    #[test]
    fn delays_past_the_ring_cap_wait_their_turn() {
        let mut q: FlightQueue<Tm> = FlightQueue::new();
        let far = RING_CAP as u64 + 7;
        q.push(Round::ZERO, far, id(0), id(1), Tm(1));
        q.push(Round::ZERO, 7, id(1), id(0), Tm(2));
        let mut arrivals = Vec::new();
        for round in 0..=far {
            let (o, _) = drain(&mut q, round, 2);
            if o.delivered > 0 {
                arrivals.push(round);
            }
        }
        assert_eq!(arrivals, [7, far]);
        assert!(q.is_empty());
    }
}
