//! [`NetDelivery`]: the driver that plugs a [`NetworkModel`] into the
//! engine's delivery seam.
//!
//! Per round it routes every point-to-point message of the wire mailbox
//! through the model; survivors of a broadcast stay one shared row while
//! delayed traffic parks in a [`FlightQueue`] (due later), which drains
//! into the arrivals mailbox — FIFO per link, one message per link per
//! round, so the CONGEST accounting invariant survives arbitrary delay
//! patterns.
//!
//! A round runs in four steps:
//!
//! 1. **Route.** Every link goes through the model in `(sender,
//!    receiver)` order — the network RNG's consumption order. A
//!    broadcast's delayed receivers collect in lists indexed by delay,
//!    and each list enters the queue as one flight group: a delayed
//!    broadcast costs one message clone per distinct delay.
//! 2. **Drain.** The queue lands the groups due this round, oldest
//!    emission first, with one plane call per group.
//! 3. **Merge broadcasts.** Each broadcast's survivors install as one
//!    shared row; where the drain already landed older traffic on the
//!    row, the base layers under it and the conflicting fresh copies
//!    re-queue for the next round.
//! 4. **Merge point-to-point survivors**, under the same rule.
//!
//! [`NetDelivery::work`] counts the work of each step, cumulatively and
//! deterministically, so a change in the stage's work shows as an exact
//! diff rather than as timing noise.
//!
//! When the model is transparent for the round and nothing is in flight,
//! the wire mailbox is passed through untouched: no broadcast expansion,
//! no RNG draws, no allocation — which is what makes
//! [`crate::Synchronous`] bit-for-bit identical to the pre-network
//! engine.

use crate::flight::{FlightQueue, RING_CAP};
use crate::model::{Fate, Link, NetworkModel};
use aba_sim::rng::{rng_for, streams};
use aba_sim::{
    CorruptionLedger, Delivery, DeliveryStats, Message, MessagePlane, NodeId, Round, RoundMailbox,
};
use rand::rngs::SmallRng;

/// Delivery stage backed by a pluggable network model and a cross-round
/// flight queue. Construct with the run's master seed: the model draws
/// from the dedicated network RNG stream, so enabling it never perturbs
/// node or adversary randomness.
///
/// The stage is broadcast-aware: a broadcast whose links survive is
/// stored in the arrivals mailbox as one shared row — the message is
/// *moved*, not cloned `n` times — and only delayed or deferred copies
/// are cloned into the flight queue. All scratch buffers and the
/// arrivals mailbox itself are pooled across rounds, so steady-state
/// delivery allocates nothing.
#[derive(Debug)]
pub struct NetDelivery<M, N, L = RoundMailbox<M>> {
    model: N,
    queue: FlightQueue<M>,
    rng: SmallRng,
    /// Pooled arrivals plane; swaps with the engine's wire plane
    /// every non-transparent round.
    pool: L,
    /// Receivers knocked out of this round's broadcasts (flat, ascending
    /// per sender), indexed by `bcast_spans`.
    knocked_flat: Vec<u32>,
    /// `(sender, start, end)` spans into `knocked_flat`, one per
    /// broadcasting sender this round.
    bcast_spans: Vec<(u32, usize, usize)>,
    /// This round's surviving non-broadcast messages, merged after the
    /// flight queue drains (older in-flight traffic wins a busy link).
    fresh: Vec<(u32, u32)>,
    /// Per-sender scratch: receivers whose link was already owned by an
    /// older in-flight message when a broadcast merged.
    conflicts: Vec<u32>,
    /// Per-sender scratch: `by_delay[d]` lists the receivers of the
    /// broadcast being routed that are delayed `d` rounds.
    by_delay: Vec<Vec<u32>>,
    /// The delays in `by_delay` holding receivers, in first-use order.
    delays: Vec<usize>,
    work: DeliveryWork,
}

/// Cumulative work counts of a [`NetDelivery`] over every round it has
/// delivered. They are a pure function of the run's inputs and seed.
/// A transparent round with nothing in flight does no work and counts
/// none.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeliveryWork {
    /// Links routed through the network model.
    pub routed: u64,
    /// Flight groups the queue's drains walked.
    pub groups: u64,
    /// Receivers those groups offered to the arrivals plane.
    pub attempts: u64,
    /// Offered receivers whose link was busy, deferred a round.
    pub deferrals: u64,
    /// Fresh broadcasts layered under traffic the drain had already
    /// landed on their row.
    pub merges: u64,
    /// Fresh messages that lost their link to older traffic and
    /// re-queued for the next round.
    pub conflicts: u64,
}

impl<M: Message, N: NetworkModel, L: MessagePlane<M>> NetDelivery<M, N, L> {
    /// Creates the stage for a run with the given master seed.
    pub fn new(model: N, master_seed: u64) -> Self {
        NetDelivery {
            model,
            queue: FlightQueue::new(),
            rng: rng_for(master_seed, streams::NETWORK),
            pool: L::default(),
            knocked_flat: Vec::new(),
            bcast_spans: Vec::new(),
            fresh: Vec::new(),
            conflicts: Vec::new(),
            by_delay: Vec::new(),
            delays: Vec::new(),
            work: DeliveryWork::default(),
        }
    }

    /// The wrapped model.
    pub fn model(&self) -> &N {
        &self.model
    }

    /// The work done so far (see [`DeliveryWork`]).
    pub fn work(&self) -> DeliveryWork {
        self.work
    }
}

impl<M: Message, N: NetworkModel, L: MessagePlane<M>> Delivery<M, L> for NetDelivery<M, N, L> {
    fn deliver(
        &mut self,
        round: Round,
        mut wire: L,
        ledger: &CorruptionLedger,
    ) -> (L, DeliveryStats) {
        let mut stats = DeliveryStats::default();
        if self.model.transparent(round) && self.queue.is_empty() {
            stats.delivered = wire.message_count();
            return (wire, stats);
        }

        let n = wire.n();
        let mut out = std::mem::take(&mut self.pool);
        out.reset(n);
        self.knocked_flat.clear();
        self.bcast_spans.clear();
        self.fresh.clear();

        // Route every fresh message through the model, in (sender,
        // receiver) order — the RNG consumption order is part of the
        // engine's determinism contract. Survivors are *not* placed in
        // the arrivals mailbox yet: older in-flight traffic must win a
        // busy link, so fresh survivors merge after the queue drains.
        // The pass draws from a local copy of the network stream,
        // written back after it: the compiler must reload a field of
        // `self` after every heap write, but keeps a local in registers.
        let mut rng = self.rng.clone();
        for s in 0..n as u32 {
            let sender = NodeId::new(s);
            if wire.is_silent(sender) {
                continue;
            }
            let sender_honest = !ledger.is_corrupted(sender);
            if let Some(m) = wire.broadcast_of(sender) {
                // Broadcast row: survivors stay implicit (one shared
                // copy); knocked-out receivers are recorded per sender,
                // and delayed receivers collect per delay into flight
                // groups — one queued clone per group, not per receiver.
                let start = self.knocked_flat.len();
                self.work.routed += n as u64 - 1;
                for r in 0..n as u32 {
                    if r == s {
                        continue; // the local self-copy never routes
                    }
                    let link = Link {
                        sender,
                        receiver: NodeId::new(r),
                        sender_honest,
                    };
                    match self.model.route(round, link, &mut rng) {
                        Fate::Deliver => {}
                        Fate::Delay(d) => {
                            stats.delayed += 1;
                            self.knocked_flat.push(r);
                            let d = d.max(1);
                            if d >= RING_CAP as u64 {
                                // Past the wheel's reach: not worth a list.
                                let receiver = NodeId::new(r);
                                let due = round.index() + d;
                                self.queue.push(round, due, sender, receiver, m.clone());
                                continue;
                            }
                            let d = d as usize;
                            if d >= self.by_delay.len() {
                                self.by_delay.resize_with(d + 1, Vec::new);
                            }
                            if self.by_delay[d].is_empty() {
                                self.delays.push(d);
                            }
                            self.by_delay[d].push(r);
                        }
                        Fate::Drop => {
                            stats.dropped += 1;
                            self.knocked_flat.push(r);
                        }
                    }
                }
                for d in self.delays.drain(..) {
                    let due = round.index() + d as u64;
                    let receivers = &mut self.by_delay[d];
                    self.queue
                        .push_group(round, due, sender, receivers, m.clone());
                    receivers.clear();
                }
                self.bcast_spans.push((s, start, self.knocked_flat.len()));
            } else {
                for r in 0..n as u32 {
                    let receiver = NodeId::new(r);
                    if !wire.has_message(sender, receiver) {
                        continue;
                    }
                    // A node's self-copy never touches the network:
                    // deliver it directly, unrouted and left out of
                    // `stats`. The planes' `message_count` counts an
                    // explicit self-message (only a base's self-copy is
                    // free), so the transparent fast path, which reports
                    // `message_count` as delivered, counts what this
                    // branch leaves out. It cannot conflict with queued
                    // traffic — the queue never carries self-links.
                    if r == s {
                        let m = wire
                            .resolve_value(sender, receiver)
                            .expect("present message resolves");
                        out.insert(sender, receiver, m);
                        continue;
                    }
                    let link = Link {
                        sender,
                        receiver,
                        sender_honest,
                    };
                    self.work.routed += 1;
                    match self.model.route(round, link, &mut rng) {
                        Fate::Deliver => self.fresh.push((s, r)),
                        Fate::Delay(d) => {
                            stats.delayed += 1;
                            let due = round.index() + d.max(1);
                            let m = wire
                                .resolve_value(sender, receiver)
                                .expect("present message resolves");
                            self.queue.push(round, due, sender, receiver, m);
                        }
                        Fate::Drop => stats.dropped += 1,
                    }
                }
            }
        }

        self.rng = rng;

        // Older in-flight traffic lands first (FIFO per link).
        let drained = self.queue.drain_due(round, &mut out);
        stats.delivered += drained.delivered;
        stats.delayed += drained.deferred;
        self.work.groups += drained.groups as u64;
        self.work.attempts += (drained.delivered + drained.deferred) as u64;
        self.work.deferrals += drained.deferred as u64;

        // Merge this round's surviving broadcasts. The common case — no
        // old traffic landed on the sender's row — installs one shared
        // row and moves the base out of the wire mailbox: zero clones.
        for &(s, start, end) in &self.bcast_spans {
            let sender = NodeId::new(s);
            let knocked = &self.knocked_flat[start..end];
            let base = wire
                .take_broadcast(sender)
                .expect("broadcast row vanished mid-round");
            if out.is_silent(sender) {
                stats.delivered += n - 1 - knocked.len();
                out.set_broadcast_except(sender, base, knocked);
            } else {
                // Queued messages already own some of this sender's
                // links. Layer the base under them: each older message
                // keeps its link and the fresh copy slips to the next
                // round, exactly as if it had lost the link inside the
                // queue. Still one shared base — only the deferred
                // copies are cloned.
                self.conflicts.clear();
                out.merge_broadcast_except(sender, base, knocked, &mut self.conflicts);
                self.work.merges += 1;
                self.work.conflicts += self.conflicts.len() as u64;
                stats.delivered += n - 1 - knocked.len() - self.conflicts.len();
                if !self.conflicts.is_empty() {
                    stats.delayed += self.conflicts.len();
                    let copy = out
                        .broadcast_base(sender)
                        .expect("base installed above")
                        .clone();
                    self.queue
                        .push_group(round, round.index() + 1, sender, &self.conflicts, copy);
                }
            }
        }

        // Merge this round's surviving point-to-point messages.
        for &(s, r) in &self.fresh {
            let sender = NodeId::new(s);
            let receiver = NodeId::new(r);
            let m = wire
                .resolve_value(sender, receiver)
                .expect("fresh message vanished mid-round");
            match out.insert_if_vacant(sender, receiver, m) {
                None => stats.delivered += 1,
                Some(m) => {
                    stats.delayed += 1;
                    self.work.conflicts += 1;
                    self.queue
                        .push(round, round.index() + 1, sender, receiver, m);
                }
            }
        }

        // The drained wire mailbox becomes next round's arrivals pool.
        self.pool = wire;
        (out, stats)
    }

    fn in_flight(&self) -> usize {
        self.queue.len()
    }

    fn name(&self) -> &'static str {
        self.model.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{BoundedDelay, DelayScheduler, LossyLinks, Partition, Synchronous};
    use aba_sim::Emission;

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

    fn full_broadcast(n: usize) -> RoundMailbox<Tm> {
        let mut mb = RoundMailbox::new(n);
        for i in 0..n as u32 {
            mb.set(id(i), Emission::Broadcast(Tm(i as u8)));
        }
        mb
    }

    #[test]
    fn synchronous_fast_path_passes_wire_through() {
        let mut d: NetDelivery<Tm, _> = NetDelivery::new(Synchronous, 7);
        let ledger = CorruptionLedger::new(4, 0);
        let (out, stats) = d.deliver(Round::ZERO, full_broadcast(4), &ledger);
        assert_eq!(stats.delivered, 12);
        assert_eq!((stats.dropped, stats.delayed), (0, 0));
        // The broadcast structure is preserved (no per-recipient
        // expansion happened).
        assert!(out.broadcast_of(id(0)).is_some());
        assert_eq!(Delivery::<Tm>::in_flight(&d), 0);
    }

    #[test]
    fn total_loss_drops_everything_but_self_copies() {
        let mut d: NetDelivery<Tm, _> = NetDelivery::new(LossyLinks::new(1.0), 7);
        let ledger = CorruptionLedger::new(3, 0);
        let (out, stats) = d.deliver(Round::ZERO, full_broadcast(3), &ledger);
        assert_eq!(stats.dropped, 6);
        assert_eq!(stats.delivered, 0);
        // Every node still hears itself.
        for i in 0..3 {
            assert_eq!(out.resolve(id(i), id(i)), Some(&Tm(i as u8)));
            assert_eq!(out.inbox(id(i)).len(), 1);
        }
    }

    #[test]
    fn conservation_no_loss_no_duplication() {
        let mut d: NetDelivery<Tm, _> =
            NetDelivery::new(BoundedDelay::new(3, DelayScheduler::Random), 11);
        let ledger = CorruptionLedger::new(5, 0);
        let emitted_per_round = 20; // 5 broadcasts × 4 remote receivers
        let rounds = 8u64;
        let mut delivered_total = 0;
        for r in 0..rounds {
            let (_, stats) = d.deliver(Round::new(r), full_broadcast(5), &ledger);
            delivered_total += stats.delivered;
        }
        // Flush the tail: emit nothing, keep draining.
        for r in rounds..rounds + 8 {
            let (_, stats) = d.deliver(Round::new(r), RoundMailbox::new(5), &ledger);
            delivered_total += stats.delivered;
        }
        assert_eq!(Delivery::<Tm>::in_flight(&d), 0);
        assert_eq!(delivered_total, emitted_per_round * rounds as usize);
    }

    #[test]
    fn adversarial_scheduler_expedites_corrupted_senders() {
        let mut d: NetDelivery<Tm, _> =
            NetDelivery::new(BoundedDelay::new(2, DelayScheduler::DelayHonest), 3);
        let mut ledger = CorruptionLedger::new(3, 1);
        ledger.corrupt(id(0), Round::ZERO).unwrap();
        let (out, stats) = d.deliver(Round::ZERO, full_broadcast(3), &ledger);
        // Corrupted node 0's two messages arrive now; honest traffic
        // (4 messages) is held the full 2 rounds.
        assert_eq!(stats.delivered, 2);
        assert_eq!(stats.delayed, 4);
        assert_eq!(out.resolve(id(0), id(1)), Some(&Tm(0)));
        assert_eq!(out.resolve(id(1), id(2)), None);
        // Two rounds later the held messages land.
        let (_, s1) = d.deliver(Round::new(1), RoundMailbox::new(3), &ledger);
        assert_eq!(s1.delivered, 0);
        let (out2, s2) = d.deliver(Round::new(2), RoundMailbox::new(3), &ledger);
        assert_eq!(s2.delivered, 4);
        assert_eq!(out2.resolve(id(1), id(2)), Some(&Tm(1)));
    }

    #[test]
    fn partition_blocks_cross_group_traffic_until_heal() {
        let mut d: NetDelivery<Tm, _> = NetDelivery::new(Partition::striped(4, 2, 2), 5);
        let ledger = CorruptionLedger::new(4, 0);
        let (out, stats) = d.deliver(Round::ZERO, full_broadcast(4), &ledger);
        // Groups {0,2} and {1,3}: each node reaches 1 remote peer out of
        // 3, so 4 delivered and 8 dropped.
        assert_eq!(stats.delivered, 4);
        assert_eq!(stats.dropped, 8);
        assert_eq!(out.resolve(id(0), id(2)), Some(&Tm(0)));
        assert_eq!(out.resolve(id(0), id(1)), None);
        // Healed: transparent fast path, everything flows.
        let (_, healed) = d.deliver(Round::new(2), full_broadcast(4), &ledger);
        assert_eq!(healed.delivered, 12);
        assert_eq!(healed.dropped, 0);
    }

    #[test]
    fn same_seed_same_decisions() {
        let run = |seed: u64| {
            let mut d: NetDelivery<Tm, _> = NetDelivery::new(LossyLinks::new(0.5), seed);
            let ledger = CorruptionLedger::new(6, 0);
            let mut sig = Vec::new();
            for r in 0..6 {
                let (out, stats) = d.deliver(Round::new(r), full_broadcast(6), &ledger);
                sig.push((stats, out.message_count()));
            }
            sig
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10), "different seeds explore different drops");
    }

    /// The arrivals mailbox of a surviving broadcast holds one shared
    /// row, not `n` per-recipient clones — the delivery stage's central
    /// memory-layout claim.
    #[test]
    fn surviving_broadcast_stays_shared_in_arrivals() {
        // p_drop = 0 routes every link (consuming RNG) but drops none.
        let mut d: NetDelivery<Tm, _> = NetDelivery::new(LossyLinks::new(0.0), 7);
        let ledger = CorruptionLedger::new(5, 0);
        let (out, stats) = d.deliver(Round::ZERO, full_broadcast(5), &ledger);
        assert_eq!(stats.delivered, 20);
        for s in 0..5 {
            assert!(
                out.broadcast_of(id(s)).is_some(),
                "sender {s} row was expanded"
            );
        }
    }

    /// The stage's work counts at a fixed seed: n = 64, everyone
    /// broadcasting every round under `BoundedDelay(2, Random)`, 256
    /// rounds. A change in the stage's work shows here as an exact diff.
    #[test]
    fn work_counts_are_pinned() {
        let n = 64;
        let mut d: NetDelivery<Tm, _> =
            NetDelivery::new(BoundedDelay::new(2, DelayScheduler::Random), 7);
        let ledger = CorruptionLedger::new(n, 0);
        let mut wire = RoundMailbox::new(n);
        for r in 0..256u64 {
            wire.reset(n);
            for s in 0..n as u32 {
                wire.set(id(s), Emission::Broadcast(Tm((r as u8) ^ s as u8)));
            }
            let (out, _) = d.deliver(Round::new(r), wire, &ledger);
            wire = out;
        }
        // Per round: 4,032 links routed, 317 groups walked, 25.8 attempts
        // per group, 63.75 broadcast merges.
        assert_eq!(
            d.work(),
            DeliveryWork {
                routed: 1_032_192,
                groups: 81_152,
                attempts: 1_691_687,
                deferrals: 671_649,
                merges: 16_320,
                conflicts: 340_294,
            }
        );
    }

    /// Delays past the wheel's cap skip the per-delay lists and still
    /// arrive exactly on time.
    #[test]
    fn delays_past_the_wheel_arrive_on_time() {
        let delay = crate::flight::RING_CAP as u64 + 3;
        let mut d: NetDelivery<Tm, _> =
            NetDelivery::new(BoundedDelay::new(delay, DelayScheduler::DelayHonest), 1);
        let ledger = CorruptionLedger::new(3, 0);
        let (_, s0) = d.deliver(Round::ZERO, full_broadcast(3), &ledger);
        assert_eq!(s0.delayed, 6);
        for r in 1..delay {
            let (_, s) = d.deliver(Round::new(r), RoundMailbox::new(3), &ledger);
            assert_eq!(s.delivered, 0, "round {r}");
        }
        let (out, s) = d.deliver(Round::new(delay), RoundMailbox::new(3), &ledger);
        assert_eq!(s.delivered, 6);
        assert_eq!(out.resolve(id(2), id(0)), Some(&Tm(2)));
        assert_eq!(Delivery::<Tm>::in_flight(&d), 0);
    }

    /// An in-flight message that lands on a link a fresh broadcast also
    /// wants keeps the link (FIFO); the fresh copy slips one round.
    #[test]
    fn old_traffic_wins_the_link_fresh_broadcast_defers() {
        let mut d: NetDelivery<Tm, _> =
            NetDelivery::new(BoundedDelay::new(1, DelayScheduler::DelayHonest), 1);
        let ledger = CorruptionLedger::new(2, 0);
        // Round 0: honest broadcasts held 1 round.
        let (out0, s0) = d.deliver(Round::ZERO, full_broadcast(2), &ledger);
        assert_eq!(s0.delivered, 0);
        assert_eq!(s0.delayed, 2);
        assert_eq!(out0.resolve(id(0), id(1)), None);
        // Round 1: round-0 traffic is due now and wins both links; the
        // round-1 broadcasts are held again *and* their due copies must
        // queue behind the delivered ones.
        let (out1, s1) = d.deliver(Round::new(1), full_broadcast(2), &ledger);
        assert_eq!(s1.delivered, 2, "round-0 messages land");
        assert_eq!(out1.resolve(id(0), id(1)), Some(&Tm(0)));
        assert_eq!(Delivery::<Tm>::in_flight(&d), 2, "round-1 copies held");
        // Drain the tail with silent wires: the round-1 copies arrive.
        let (out2, s2) = d.deliver(Round::new(2), RoundMailbox::new(2), &ledger);
        assert_eq!(s2.delivered, 2);
        assert_eq!(out2.resolve(id(1), id(0)), Some(&Tm(1)));
    }
}
