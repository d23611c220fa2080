//! Differential test: the bit-packed binary plane against the dense
//! broadcast-aware mailbox.
//!
//! Both planes implement [`MessagePlane`], so one driver replays seeded
//! interleavings of the *whole* mutation API (`set` broadcast /
//! per-recipient / silent, `silence`, `insert`,
//! `set_broadcast_except`, `merge_broadcast_except`, `take_broadcast`,
//! `insert_group_if_vacant` with one receiver and with many) against
//! each and
//! compares every observable after every step, across
//! n ∈ {1, 2, 17, 64, 257} — the word-boundary shapes (64, 257) are the
//! ones a bitset implementation gets wrong first. Unlike the
//! naive-reference differential (`mailbox_differential.rs`), the dense
//! mailbox *can* distinguish base-derived cells from inserted copies, so
//! this generator deliberately also inserts messages equal to a live
//! broadcast base — the case flight-queue redelivery produces. Every
//! random mutation is followed by a group install (the flight queue's
//! drain primitive) on a random row, compared in its own right.
//!
//! The packed plane's one extra observable — `packed_match_count`, the
//! popcount tally — is checked against a from-scratch dense scan.
//!
//! After every step both planes' [`ArrivalScan`](aba_sim::ArrivalScan)s
//! are built as the engine builds them, each is checked against its own
//! plane (the contract in `common/mod.rs`), and the two are compared
//! field by field.

mod common;

use aba_sim::{
    Emission, Message, MessagePlane, NodeId, PackedMailbox, PackedMessage, RoundMailbox,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone, PartialEq, Eq)]
struct Tm(u16);

impl Message for Tm {
    fn bit_size(&self) -> usize {
        4 + (self.0 % 13) as usize // varied sizes exercise the bit counters
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

/// One random mutation applied to both planes through the trait.
fn random_op(
    gen: &mut SmallRng,
    dense: &mut RoundMailbox<Tm>,
    packed: &mut PackedMailbox<Tm>,
    n: usize,
) {
    let s = NodeId::new(gen.gen_range(0..n as u32));
    let r = NodeId::new(gen.gen_range(0..n as u32));
    // Half the time, aim the message at the sender's live base value —
    // the equality path a generic reference model cannot express.
    let msg = match dense.broadcast_base(s) {
        Some(b) if gen.gen_bool(0.5) => b.clone(),
        _ => Tm(gen.gen()),
    };
    match gen.gen_range(0..10u32) {
        0 => {
            let e = Emission::Broadcast(Tm(gen.gen()));
            dense.set(s, e.clone());
            packed.set(s, e);
        }
        1 => {
            let k = gen.gen_range(0..2 * n);
            let v: Vec<(NodeId, Tm)> = (0..k)
                .map(|_| (NodeId::new(gen.gen_range(0..n as u32)), Tm(gen.gen())))
                .collect();
            let e = Emission::PerRecipient(v);
            dense.set(s, e.clone());
            packed.set(s, e);
        }
        2 => {
            dense.silence(s);
            packed.silence(s);
        }
        3 => {
            dense.insert(s, r, msg.clone());
            packed.insert(s, r, msg);
        }
        4 => {
            // A broadcast that skips a single receiver.
            dense.set_broadcast_except(s, msg.clone(), &[r.raw()]);
            packed.set_broadcast_except(s, msg, &[r.raw()]);
        }
        5 => {
            let mut except: Vec<u32> = (0..n as u32).filter(|_| gen.gen_bool(0.3)).collect();
            except.sort_unstable();
            dense.set_broadcast_except(s, msg.clone(), &except);
            packed.set_broadcast_except(s, msg, &except);
        }
        6 => {
            // Precondition (shared by both planes): merging over an
            // existing base is a programming error. Steer to a plain
            // insert when the row already has one.
            if dense.broadcast_base(s).is_some() {
                dense.insert(s, r, msg.clone());
                packed.insert(s, r, msg);
            } else {
                let mut except: Vec<u32> = (0..n as u32).filter(|_| gen.gen_bool(0.3)).collect();
                except.sort_unstable();
                let (mut ca, mut cb) = (Vec::new(), Vec::new());
                dense.merge_broadcast_except(s, msg.clone(), &except, &mut ca);
                packed.merge_broadcast_except(s, msg, &except, &mut cb);
                assert_eq!(ca, cb, "merge_broadcast_except conflicts for {s}");
            }
        }
        7 => {
            let a = dense.take_broadcast(s);
            let b = packed.take_broadcast(s);
            assert_eq!(a, b, "take_broadcast disagrees for sender {s}");
        }
        8 => {
            let a = dense.insert_group_if_vacant(s, &mut [r.raw()], &msg);
            let b = packed.insert_group_if_vacant(s, &mut [r.raw()], &msg);
            assert_eq!(a, b, "one-receiver group install disagrees for ({s}, {r})");
        }
        _ => group_op(gen, dense, packed, n, s, r),
    }
}

/// `insert_group_if_vacant` of row `s` on both planes: a random receiver
/// list starting at `r` (duplicates and `s` itself allowed), half the
/// time carrying the row's live base value, offered twice — the second
/// time reversed, when every receiver the first install served is busy.
/// The installed counts and the compacted busy receivers must agree.
fn group_op(
    gen: &mut SmallRng,
    dense: &mut RoundMailbox<Tm>,
    packed: &mut PackedMailbox<Tm>,
    n: usize,
    s: NodeId,
    r: NodeId,
) {
    let msg = match dense.broadcast_base(s) {
        Some(b) if gen.gen_bool(0.5) => b.clone(),
        _ => Tm(gen.gen()),
    };
    let extra = gen.gen_range(0..n.min(24));
    let first: Vec<u32> = std::iter::once(r.raw())
        .chain((0..extra).map(|_| gen.gen_range(0..n as u32)))
        .collect();
    let second = first.iter().rev().copied().collect();
    for mut a in [first, second] {
        let mut b = a.clone();
        let installed = dense.insert_group_if_vacant(s, &mut a, &msg);
        assert_eq!(
            installed,
            packed.insert_group_if_vacant(s, &mut b, &msg),
            "insert_group_if_vacant installed counts disagree for {s}"
        );
        let busy = a.len() - installed;
        assert_eq!(
            a[..busy],
            b[..busy],
            "insert_group_if_vacant busy tails for {s}"
        );
    }
}

/// A group install on a random row, checked like any other step.
fn random_group_op(
    gen: &mut SmallRng,
    dense: &mut RoundMailbox<Tm>,
    packed: &mut PackedMailbox<Tm>,
    n: usize,
) {
    let s = NodeId::new(gen.gen_range(0..n as u32));
    let r = NodeId::new(gen.gen_range(0..n as u32));
    group_op(gen, dense, packed, n, s, r);
}

fn assert_equivalent(dense: &RoundMailbox<Tm>, packed: &PackedMailbox<Tm>, n: usize, ctx: &str) {
    assert_eq!(MessagePlane::n(dense), packed.n(), "{ctx}: n");
    for s in 0..n as u32 {
        let s = NodeId::new(s);
        assert_eq!(
            dense.broadcast_base(s),
            MessagePlane::broadcast_base(packed, s),
            "{ctx}: broadcast_base({s})"
        );
        assert_eq!(
            dense.broadcast_of(s),
            MessagePlane::broadcast_of(packed, s),
            "{ctx}: broadcast_of({s})"
        );
        assert_eq!(
            dense.is_silent(s),
            MessagePlane::is_silent(packed, s),
            "{ctx}: is_silent({s})"
        );
        for r in 0..n as u32 {
            let r = NodeId::new(r);
            assert_eq!(
                MessagePlane::has_message(dense, s, r),
                packed.has_message(s, r),
                "{ctx}: has_message({s}, {r})"
            );
            assert_eq!(
                MessagePlane::resolve_value(dense, s, r),
                packed.resolve_value(s, r),
                "{ctx}: resolve_value({s}, {r})"
            );
        }
    }
    for r in 0..n as u32 {
        let r = NodeId::new(r);
        let via_dense: Vec<(u32, Tm)> = dense
            .inbox(r)
            .iter()
            .map(|(from, m)| (from.raw(), m.clone()))
            .collect();
        let via_packed: Vec<(u32, Tm)> = MessagePlane::inbox(packed, r)
            .iter()
            .map(|(from, m)| (from.raw(), m.clone()))
            .collect();
        assert_eq!(via_dense, via_packed, "{ctx}: inbox({r})");
        // The popcount tally against a from-scratch dense scan, over a
        // spread of masks and a word-straddling sender range.
        for (mask, bits) in [(0u32, 0u32), (1, 1), (0b1111, 0b1010), (0xFFFF, 0x00FF)] {
            let lo = (n as u32) / 3;
            let hi = (2 * n as u32).div_ceil(3);
            for range in [None, Some(lo..hi)] {
                let expect = dense
                    .inbox(r)
                    .iter()
                    .filter(|(from, _)| range.as_ref().is_none_or(|rg| rg.contains(&from.raw())))
                    .filter(|(_, m)| (m.0 as u32) & mask == bits)
                    .count();
                let got = MessagePlane::inbox(packed, r)
                    .packed_match_count(mask, bits, range.clone())
                    .expect("packed inbox answers packed_match_count");
                assert_eq!(
                    got, expect,
                    "{ctx}: match_count(r={r}, mask={mask:#x}, bits={bits:#x}, range={range:?})"
                );
            }
        }
        assert_eq!(
            dense.inbox(r).packed_match_count(0, 0, None),
            None,
            "{ctx}: dense inbox must decline the packed tally"
        );
    }
    assert_eq!(
        dense.message_count(),
        MessagePlane::message_count(packed),
        "{ctx}: message_count"
    );
    assert_eq!(
        dense.total_bits(),
        MessagePlane::total_bits(packed),
        "{ctx}: total_bits"
    );
    assert_eq!(
        dense.max_edge_bits(),
        MessagePlane::max_edge_bits(packed),
        "{ctx}: max_edge_bits"
    );
    common::assert_scans_equal(
        &common::checked_scan(dense, &format!("{ctx}: dense")),
        &common::checked_scan(packed, &format!("{ctx}: packed")),
        &format!("{ctx}: arrival scan"),
    );
}

#[test]
fn packed_plane_matches_dense_mailbox() {
    for n in [1usize, 2, 17, 64, 257] {
        let mut gen = SmallRng::seed_from_u64(0xB175 ^ n as u64);
        let cases = if n >= 257 { 3 } else { 8 };
        for case in 0..cases {
            let mut dense: RoundMailbox<Tm> = RoundMailbox::new(n);
            let mut packed: PackedMailbox<Tm> = PackedMailbox::new(n);
            let steps = gen.gen_range(4..40usize);
            for step in 0..steps {
                random_op(&mut gen, &mut dense, &mut packed, n);
                assert_equivalent(
                    &dense,
                    &packed,
                    n,
                    &format!("n={n} case={case} step={step}"),
                );
                random_group_op(&mut gen, &mut dense, &mut packed, n);
                assert_equivalent(
                    &dense,
                    &packed,
                    n,
                    &format!("n={n} case={case} step={step} group"),
                );
            }
            // Pooled reuse must behave like a fresh plane on both sides.
            dense.reset(n);
            MessagePlane::reset(&mut packed, n);
            assert_equivalent(&dense, &packed, n, &format!("n={n} case={case} post-reset"));
        }
    }
}

#[test]
fn recording_view_matches_dense_mailbox() {
    // `broadcast_base` plus `deviations` is the trace recorder's view of
    // a row; the packed plane must walk the dense plane's cells, in the
    // same receiver order, across word boundaries.
    for n in [1usize, 2, 17, 64, 257] {
        let mut gen = SmallRng::seed_from_u64(0xDE71 ^ n as u64);
        for case in 0..4 {
            let mut dense: RoundMailbox<Tm> = RoundMailbox::new(n);
            let mut packed: PackedMailbox<Tm> = PackedMailbox::new(n);
            for step in 0..gen.gen_range(4..40usize) {
                random_op(&mut gen, &mut dense, &mut packed, n);
                random_group_op(&mut gen, &mut dense, &mut packed, n);
                for s in (0..n as u32).map(NodeId::new) {
                    let d: Vec<_> = MessagePlane::deviations(&dense, s).collect();
                    let p: Vec<_> = MessagePlane::deviations(&packed, s).collect();
                    assert_eq!(d, p, "n={n} case={case} step={step}: deviations({s})");
                }
            }
        }
    }
}
