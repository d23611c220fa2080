//! Differential test: the delivery stage against a naive reference model.
//!
//! The reference keeps every pending message as one
//! `(emit, due, sender, receiver, msg)` entry and rebuilds each round's
//! arrivals from scratch: on each link the due message with the oldest
//! emission wins, this round's `Deliver` survivors come last, and a
//! message that finds its link taken retries the next round.
//! [`NetDelivery`] — routing, the flight queue, the group installs and
//! the broadcast merges — runs on the same random wires (broadcasts,
//! equivocation, silent rows, self-messages, saturated rounds) on the
//! dense, packed and sparse planes, under every network model:
//! `Synchronous`, `LossyLinks`, `BoundedDelay` with `max_delay` ∈
//! {1, 2, 3, 8} under both schedulers, and a healing `Partition`, at
//! n ∈ {1, 2, 5, 17, 64}. After every round each `(sender, receiver)`
//! resolve, the `DeliveryStats` and `in_flight` must agree.

use aba_net::{
    BoundedDelay, DelayScheduler, Fate, Link, LossyLinks, NetDelivery, NetworkModel, Partition,
    Synchronous,
};
use aba_sim::rng::{rng_for, streams};
use aba_sim::{
    CorruptionLedger, Delivery, DeliveryStats, Emission, Message, MessagePlane, NodeId,
    PackedMailbox, PackedMessage, Round, RoundMailbox, SparseMailbox,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone, PartialEq, Eq)]
struct Tm(u16);

impl Message for Tm {
    fn bit_size(&self) -> usize {
        4 + (self.0 % 13) as usize
    }
}

impl PackedMessage for Tm {
    fn pack(&self) -> Option<u32> {
        Some(self.0 as u32)
    }
    fn unpack(code: u32) -> Self {
        Tm(code as u16)
    }
}

/// Rounds with random traffic, then silent rounds that drain the queue.
const ROUNDS: u64 = 24;
const TAIL: u64 = 20;

/// One pending message of the reference: `(emit, due, sender, receiver, msg)`.
type Pending = (u64, u64, usize, usize, Tm);

/// The naive delivery stage.
struct Reference<N> {
    model: N,
    rng: SmallRng,
    pending: Vec<Pending>,
}

impl<N: NetworkModel> Reference<N> {
    /// This round's arrivals, `[sender][receiver]`, and its stats.
    fn deliver(
        &mut self,
        round: u64,
        wire: &[Emission<Tm>],
        ledger: &CorruptionLedger,
    ) -> (Vec<Vec<Option<Tm>>>, DeliveryStats) {
        let n = wire.len();
        let rows: Vec<Vec<Option<Tm>>> = wire.iter().map(|e| row_of(e, n)).collect();
        let mut arrivals = vec![vec![None; n]; n];
        let mut stats = DeliveryStats::default();
        if self.model.transparent(Round::new(round)) && self.pending.is_empty() {
            // Pass-through: the wire's own message count (a broadcast
            // is n - 1 messages, an explicit self-message counts).
            for (s, e) in wire.iter().enumerate() {
                stats.delivered += match e {
                    Emission::Broadcast(_) => n - 1,
                    _ => rows[s].iter().flatten().count(),
                };
            }
            return (rows, stats);
        }
        let mut fresh = Vec::new();
        for s in 0..n {
            let sender_honest = !ledger.is_corrupted(NodeId::new(s as u32));
            for (r, m) in rows[s].iter().enumerate() {
                let Some(m) = m else { continue };
                if r == s {
                    // The self-copy never touches the network.
                    arrivals[s][s] = Some(m.clone());
                    continue;
                }
                let link = Link {
                    sender: NodeId::new(s as u32),
                    receiver: NodeId::new(r as u32),
                    sender_honest,
                };
                match self.model.route(Round::new(round), link, &mut self.rng) {
                    Fate::Deliver => fresh.push((s, r, m.clone())),
                    Fate::Delay(d) => {
                        stats.delayed += 1;
                        self.pending
                            .push((round, round + d.max(1), s, r, m.clone()));
                    }
                    Fate::Drop => stats.dropped += 1,
                }
            }
        }
        // Due messages, oldest emission first: the first to reach a link
        // takes it, the rest retry next round.
        let mut due: Vec<Pending> = Vec::new();
        let mut waiting = Vec::new();
        for p in self.pending.drain(..) {
            if p.1 <= round {
                due.push(p);
            } else {
                waiting.push(p);
            }
        }
        due.sort_by_key(|p| p.0);
        for (emit, _, s, r, m) in due {
            if arrivals[s][r].is_none() {
                arrivals[s][r] = Some(m);
                stats.delivered += 1;
            } else {
                stats.delayed += 1;
                waiting.push((emit, round + 1, s, r, m));
            }
        }
        // This round's survivors come last.
        for (s, r, m) in fresh {
            if arrivals[s][r].is_none() {
                arrivals[s][r] = Some(m);
                stats.delivered += 1;
            } else {
                stats.delayed += 1;
                waiting.push((round, round + 1, s, r, m));
            }
        }
        self.pending = waiting;
        (arrivals, stats)
    }
}

/// What each receiver gets from one emission (later per-recipient
/// entries override earlier ones).
fn row_of(e: &Emission<Tm>, n: usize) -> Vec<Option<Tm>> {
    let mut row = vec![None; n];
    match e {
        Emission::Silent => {}
        Emission::Broadcast(m) => row.fill(Some(m.clone())),
        Emission::PerRecipient(v) => {
            for (to, m) in v {
                row[to.index()] = Some(m.clone());
            }
        }
    }
    row
}

/// One round of random traffic. Half the rounds saturate the network
/// (everyone broadcasts); the rest mix silent rows, broadcasts and
/// per-recipient rows — equivocation, duplicate and self entries
/// included.
fn random_wire(gen: &mut SmallRng, n: usize) -> Vec<Emission<Tm>> {
    let saturated = gen.gen_bool(0.5);
    (0..n)
        .map(|_| {
            let roll = gen.gen_range(0..20u32);
            if saturated || (3..12).contains(&roll) {
                Emission::Broadcast(Tm(gen.gen()))
            } else if roll < 3 {
                Emission::Silent
            } else {
                let k = gen.gen_range(0..=n + 1);
                Emission::PerRecipient(
                    (0..k)
                        .map(|_| (NodeId::new(gen.gen_range(0..n as u32)), Tm(gen.gen())))
                        .collect(),
                )
            }
        })
        .collect()
}

/// Runs the stage and the reference side by side on plane `L`.
fn drive<L: MessagePlane<Tm>, N: NetworkModel + Clone>(model: N, n: usize, seed: u64, ctx: &str) {
    let mut stage: NetDelivery<Tm, N, L> = NetDelivery::new(model.clone(), seed);
    let mut reference = Reference {
        model,
        rng: rng_for(seed, streams::NETWORK),
        pending: Vec::new(),
    };
    let mut gen = SmallRng::seed_from_u64(seed ^ 0xD1FF);
    // A third of the nodes are corrupted along the way, so adversarial
    // schedulers see both honest and corrupted senders.
    let t = n / 3;
    let mut ledger = CorruptionLedger::new(n, t);
    let mut wire = L::default();
    for round in 0..ROUNDS + TAIL {
        let r = round as usize;
        if r % 3 == 1 && r / 3 < t {
            ledger
                .corrupt(NodeId::new((r / 3) as u32), Round::new(round))
                .expect("within budget");
        }
        let emissions = if round < ROUNDS {
            random_wire(&mut gen, n)
        } else {
            vec![Emission::Silent; n]
        };
        wire.reset(n);
        for (s, e) in emissions.iter().enumerate() {
            wire.set(NodeId::new(s as u32), e.clone());
        }
        let (mut out, stats) = stage.deliver(Round::new(round), wire, &ledger);
        out.build_inbox_index();
        let (want, want_stats) = reference.deliver(round, &emissions, &ledger);
        assert_eq!(stats, want_stats, "{ctx}, round {round}: stats");
        for (s, row) in want.iter().enumerate() {
            for (r, m) in row.iter().enumerate() {
                let (sid, rid) = (NodeId::new(s as u32), NodeId::new(r as u32));
                assert_eq!(
                    out.resolve_value(sid, rid).as_ref(),
                    m.as_ref(),
                    "{ctx}, round {round}: resolve({s}, {r})"
                );
            }
        }
        assert_eq!(
            Delivery::<Tm, L>::in_flight(&stage),
            reference.pending.len(),
            "{ctx}, round {round}: in flight"
        );
        wire = out;
    }
}

/// Every model on every plane.
fn drive_all_planes<N: NetworkModel + Clone>(model: N, n: usize, seed: u64, name: &str) {
    let ctx = format!("{name}, n = {n}, seed {seed}");
    drive::<RoundMailbox<Tm>, N>(model.clone(), n, seed, &format!("dense, {ctx}"));
    drive::<PackedMailbox<Tm>, N>(model.clone(), n, seed, &format!("packed, {ctx}"));
    drive::<SparseMailbox<Tm>, N>(model, n, seed, &format!("sparse, {ctx}"));
}

const SIZES: [usize; 5] = [1, 2, 5, 17, 64];

#[test]
fn bounded_delay_matches_the_reference() {
    for max_delay in [1, 2, 3, 8] {
        for scheduler in [DelayScheduler::Random, DelayScheduler::DelayHonest] {
            for n in SIZES {
                let seed = 0xBD00 + max_delay * 31 + n as u64;
                let model = BoundedDelay::new(max_delay, scheduler);
                drive_all_planes(model, n, seed, &format!("{scheduler:?}({max_delay})"));
            }
        }
    }
}

#[test]
fn lossy_links_match_the_reference() {
    for n in SIZES {
        drive_all_planes(LossyLinks::new(0.3), n, 0x1055 + n as u64, "lossy(0.3)");
    }
}

#[test]
fn synchronous_and_partition_match_the_reference() {
    for n in SIZES {
        drive_all_planes(Synchronous, n, 0x5C + n as u64, "sync");
        // Split until round 6, whole afterwards: the transparent fast
        // path starts once the model heals and the queue is empty.
        let partition = Partition::striped(n, 2, 6);
        drive_all_planes(partition, n, 0x9A + n as u64, "partition");
    }
}
