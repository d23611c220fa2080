//! Property-style tests for the mailbox/emission layer, deterministically
//! sampled: delivery semantics, counting laws, and equivocation behaviour
//! under arbitrary traffic. (No proptest in this offline workspace —
//! cases are drawn from a fixed-seed generator.)

use aba_sim::{Emission, Message, NodeId, RoundMailbox};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone, PartialEq, Eq)]
struct Tm(u16);
impl Message for Tm {
    fn bit_size(&self) -> usize {
        16
    }
}

/// An arbitrary emission with recipients already clamped into `0..n`.
fn random_emission(gen: &mut SmallRng, n: usize) -> Emission<Tm> {
    match gen.gen_range(0..3u32) {
        0 => Emission::Silent,
        1 => Emission::Broadcast(Tm(gen.gen::<u16>())),
        _ => {
            let k = gen.gen_range(0..2 * n);
            Emission::PerRecipient(
                (0..k)
                    .map(|_| {
                        (
                            NodeId::new(gen.gen_range(0..n as u32)),
                            Tm(gen.gen::<u16>()),
                        )
                    })
                    .collect(),
            )
        }
    }
}

/// A mailbox with random traffic from every sender.
fn random_mailbox(gen: &mut SmallRng, n: usize, senders: usize) -> RoundMailbox<Tm> {
    let mut mb: RoundMailbox<Tm> = RoundMailbox::new(n);
    for i in 0..senders.min(n) {
        let e = random_emission(gen, n);
        mb.set(NodeId::new(i as u32), e);
    }
    mb
}

/// message_count equals the number of resolvable (sender, receiver)
/// pairs, excluding broadcast self-copies.
#[test]
fn message_count_matches_resolution() {
    let mut gen = SmallRng::seed_from_u64(0x4A11);
    for case in 0..128 {
        let n = gen.gen_range(1..24usize);
        let senders = gen.gen_range(1..24usize);
        let mb = random_mailbox(&mut gen, n, senders);
        let mut resolvable = 0usize;
        for s in 0..n {
            let sender = NodeId::new(s as u32);
            for r in 0..n {
                let receiver = NodeId::new(r as u32);
                if mb.resolve(sender, receiver).is_some()
                    && !(mb.broadcast_of(sender).is_some() && s == r)
                {
                    resolvable += 1;
                }
            }
        }
        assert_eq!(mb.message_count(), resolvable, "case {case} n={n}");
    }
}

/// Inboxes are consistent with point resolution.
#[test]
fn inbox_agrees_with_resolve() {
    let mut gen = SmallRng::seed_from_u64(0x1B0E);
    for case in 0..96 {
        let n = gen.gen_range(1..16usize);
        let senders = gen.gen_range(1..16usize);
        let mb = random_mailbox(&mut gen, n, senders);
        for r in 0..n {
            let receiver = NodeId::new(r as u32);
            let via_inbox: Vec<(u32, Tm)> = mb
                .inbox(receiver)
                .iter()
                .map(|(s, m)| (s.raw(), m.clone()))
                .collect();
            let via_resolve: Vec<(u32, Tm)> = (0..n as u32)
                .filter_map(|s| mb.resolve(NodeId::new(s), receiver).map(|m| (s, m.clone())))
                .collect();
            assert_eq!(via_inbox, via_resolve, "case {case} n={n} r={r}");
        }
    }
}

/// Total bits = Σ message bits; the per-edge max never exceeds the
/// total and is attained by some delivered message.
#[test]
fn bit_accounting_laws() {
    let mut gen = SmallRng::seed_from_u64(0xB175);
    for case in 0..96 {
        let n = gen.gen_range(2..16usize);
        let senders = gen.gen_range(1..12usize);
        let mb = random_mailbox(&mut gen, n, senders);
        assert_eq!(mb.total_bits(), mb.message_count() * 16, "case {case}");
        if mb.message_count() > 0 {
            assert_eq!(mb.max_edge_bits(), 16, "case {case}");
        } else {
            assert_eq!(mb.max_edge_bits(), 0, "case {case}");
        }
    }
}

/// Setting a slot twice keeps only the second emission.
#[test]
fn set_is_last_writer_wins() {
    let mut gen = SmallRng::seed_from_u64(0x2ED0);
    for case in 0..96 {
        let n = gen.gen_range(2..12usize);
        let first = random_emission(&mut gen, n);
        let second = random_emission(&mut gen, n);
        let mut a: RoundMailbox<Tm> = RoundMailbox::new(n);
        a.set(NodeId::new(0), first);
        a.set(NodeId::new(0), second.clone());
        let mut b: RoundMailbox<Tm> = RoundMailbox::new(n);
        b.set(NodeId::new(0), second);
        for r in 0..n as u32 {
            assert_eq!(
                a.resolve(NodeId::new(0), NodeId::new(r)),
                b.resolve(NodeId::new(0), NodeId::new(r)),
                "case {case} n={n} r={r}"
            );
        }
    }
}
