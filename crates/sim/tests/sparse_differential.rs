//! Differential test: the flat-arena sparse plane against the dense
//! broadcast-aware mailbox.
//!
//! Both planes implement [`MessagePlane`], so one driver replays seeded
//! interleavings of the *whole* mutation API (`set` broadcast /
//! per-recipient / silent, `silence`, `insert`,
//! `set_broadcast_except`, `merge_broadcast_except`, `take_broadcast`,
//! `insert_group_if_vacant` with one receiver and with many) against
//! each and
//! compares every observable after every step, across
//! n ∈ {1, 2, 17, 64, 257} — mirroring `packed_differential.rs`. The
//! generator deliberately also inserts messages equal to a live
//! broadcast base (the flight-queue redelivery case) and, unlike the
//! packed differential, uses unpackable variable-size payloads: the
//! sparse plane is fully general over [`Message`], so its counters must
//! track arbitrary bit sizes. Every random mutation is followed by a
//! group install (the flight queue's drain primitive) on a random row,
//! compared in its own right.
//!
//! On top of the per-step observables, both planes'
//! [`ArrivalScan`](aba_sim::ArrivalScan)s
//! are built after every step as the engine builds them, each is
//! checked against its own plane (the contract in `common/mod.rs`), and
//! the two are compared field by field — the provenance seam's view of
//! the plane must be identical.
//!
//! The sparse plane answers inbox reads from a receiver index rebuilt
//! after each mutation, as the engine does once per round. Every step
//! compares `Inbox::from(s)` for every sender `s` (absent and knocked
//! senders included), and a dedicated read → mutate the same row → read
//! test drives each mutator over a row whose cells were just indexed, so
//! a mutation that failed to invalidate the index is caught.

mod common;

use aba_sim::{Emission, Message, MessagePlane, NodeId, RoundMailbox, SparseMailbox};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone, PartialEq, Eq)]
struct Tm(u16);

impl Message for Tm {
    fn bit_size(&self) -> usize {
        4 + (self.0 % 13) as usize // varied sizes exercise the bit counters
    }
}

/// Number of mutation kinds [`apply_op`] knows.
const OP_KINDS: u32 = 10;

/// One random mutation applied to both planes through the trait.
fn random_op(
    gen: &mut SmallRng,
    dense: &mut RoundMailbox<Tm>,
    sparse: &mut SparseMailbox<Tm>,
    n: usize,
) {
    let s = NodeId::new(gen.gen_range(0..n as u32));
    let r = NodeId::new(gen.gen_range(0..n as u32));
    let kind = gen.gen_range(0..OP_KINDS);
    apply_op(gen, dense, sparse, n, (s, r), kind);
}

/// Mutation `kind` of row `s` (aimed at receiver `r` where the mutator
/// takes one), applied to both planes through the trait.
fn apply_op(
    gen: &mut SmallRng,
    dense: &mut RoundMailbox<Tm>,
    sparse: &mut SparseMailbox<Tm>,
    n: usize,
    (s, r): (NodeId, NodeId),
    kind: u32,
) {
    // Half the time, aim the message at the sender's live base value —
    // the equality path a generic reference model cannot express.
    let msg = match dense.broadcast_base(s) {
        Some(b) if gen.gen_bool(0.5) => b.clone(),
        _ => Tm(gen.gen()),
    };
    match kind {
        0 => {
            let e = Emission::Broadcast(Tm(gen.gen()));
            dense.set(s, e.clone());
            MessagePlane::set(sparse, s, e);
        }
        1 => {
            let k = gen.gen_range(0..2 * n);
            let v: Vec<(NodeId, Tm)> = (0..k)
                .map(|_| (NodeId::new(gen.gen_range(0..n as u32)), Tm(gen.gen())))
                .collect();
            let e = Emission::PerRecipient(v);
            dense.set(s, e.clone());
            MessagePlane::set(sparse, s, e);
        }
        2 => {
            dense.silence(s);
            MessagePlane::silence(sparse, s);
        }
        3 => {
            dense.insert(s, r, msg.clone());
            MessagePlane::insert(sparse, s, r, msg);
        }
        4 => {
            // A broadcast that skips a single receiver.
            dense.set_broadcast_except(s, msg.clone(), &[r.raw()]);
            MessagePlane::set_broadcast_except(sparse, s, msg, &[r.raw()]);
        }
        5 => {
            let mut except: Vec<u32> = (0..n as u32).filter(|_| gen.gen_bool(0.3)).collect();
            except.sort_unstable();
            // set_broadcast_except tolerates unsorted input and
            // duplicates; shuffle and duplicate occasionally to prove
            // the sparse plane does too.
            if gen.gen_bool(0.3) && !except.is_empty() {
                let dup = except[gen.gen_range(0..except.len())];
                except.push(dup);
                let a = gen.gen_range(0..except.len());
                let b = gen.gen_range(0..except.len());
                except.swap(a, b);
            }
            dense.set_broadcast_except(s, msg.clone(), &except);
            MessagePlane::set_broadcast_except(sparse, s, msg, &except);
        }
        6 => {
            // Precondition (shared by both planes): merging over an
            // existing base is a programming error. Steer to a plain
            // insert when the row already has one.
            if dense.broadcast_base(s).is_some() {
                dense.insert(s, r, msg.clone());
                MessagePlane::insert(sparse, s, r, msg);
            } else {
                let mut except: Vec<u32> = (0..n as u32).filter(|_| gen.gen_bool(0.3)).collect();
                except.sort_unstable();
                let (mut ca, mut cb) = (Vec::new(), Vec::new());
                dense.merge_broadcast_except(s, msg.clone(), &except, &mut ca);
                MessagePlane::merge_broadcast_except(sparse, s, msg, &except, &mut cb);
                assert_eq!(ca, cb, "merge_broadcast_except conflicts for {s}");
            }
        }
        7 => {
            let a = dense.take_broadcast(s);
            let b = MessagePlane::take_broadcast(sparse, s);
            assert_eq!(a, b, "take_broadcast disagrees for sender {s}");
        }
        8 => {
            let a = dense.insert_group_if_vacant(s, &mut [r.raw()], &msg);
            let b = sparse.insert_group_if_vacant(s, &mut [r.raw()], &msg);
            assert_eq!(a, b, "one-receiver group install disagrees for ({s}, {r})");
        }
        _ => {
            // A group install: a random receiver list starting at `r`
            // (duplicates and `s` itself allowed), offered twice — the
            // second time reversed, when every receiver the first
            // install served is busy. The installed counts and the
            // compacted busy receivers must agree.
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
                    MessagePlane::insert_group_if_vacant(sparse, s, &mut b, &msg),
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
    }
}

/// A group install on a random row, checked like any other step.
fn random_group_op(
    gen: &mut SmallRng,
    dense: &mut RoundMailbox<Tm>,
    sparse: &mut SparseMailbox<Tm>,
    n: usize,
) {
    let s = NodeId::new(gen.gen_range(0..n as u32));
    let r = NodeId::new(gen.gen_range(0..n as u32));
    apply_op(gen, dense, sparse, n, (s, r), OP_KINDS - 1);
}

/// Indexes the sparse plane for inbox reads (as the engine does after
/// delivery) and compares every observable of the two planes.
fn assert_equivalent(
    dense: &RoundMailbox<Tm>,
    sparse: &mut SparseMailbox<Tm>,
    n: usize,
    ctx: &str,
) {
    MessagePlane::build_inbox_index(sparse);
    let sparse = &*sparse;
    assert_eq!(MessagePlane::n(dense), sparse.n(), "{ctx}: n");
    for s in 0..n as u32 {
        let s = NodeId::new(s);
        assert_eq!(
            dense.broadcast_base(s),
            MessagePlane::broadcast_base(sparse, s),
            "{ctx}: broadcast_base({s})"
        );
        assert_eq!(
            dense.broadcast_of(s),
            MessagePlane::broadcast_of(sparse, s),
            "{ctx}: broadcast_of({s})"
        );
        assert_eq!(
            dense.is_silent(s),
            MessagePlane::is_silent(sparse, s),
            "{ctx}: is_silent({s})"
        );
        for r in 0..n as u32 {
            let r = NodeId::new(r);
            assert_eq!(
                MessagePlane::has_message(dense, s, r),
                sparse.resolve(s, r).is_some(),
                "{ctx}: has_message({s}, {r})"
            );
            assert_eq!(
                MessagePlane::resolve_value(dense, s, r),
                MessagePlane::resolve_value(sparse, s, r),
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
        let via_sparse: Vec<(u32, Tm)> = MessagePlane::inbox(sparse, r)
            .iter()
            .map(|(from, m)| (from.raw(), m.clone()))
            .collect();
        assert_eq!(via_dense, via_sparse, "{ctx}: inbox({r})");
        let sparse_inbox = MessagePlane::inbox(sparse, r);
        assert_eq!(
            via_dense.len(),
            sparse_inbox.len(),
            "{ctx}: inbox({r}).len()"
        );
        assert_eq!(
            via_dense.is_empty(),
            sparse_inbox.is_empty(),
            "{ctx}: inbox({r}).is_empty()"
        );
        let dense_inbox = dense.inbox(r);
        for from in 0..n as u32 {
            let from = NodeId::new(from);
            assert_eq!(
                sparse_inbox.from(from),
                dense_inbox.from(from),
                "{ctx}: inbox({r}).from({from})"
            );
        }
        assert_eq!(
            sparse_inbox.packed_match_count(0, 0, None),
            None,
            "{ctx}: sparse inbox must decline the packed tally"
        );
    }
    assert_eq!(
        dense.message_count(),
        MessagePlane::message_count(sparse),
        "{ctx}: message_count"
    );
    assert_eq!(
        dense.total_bits(),
        MessagePlane::total_bits(sparse),
        "{ctx}: total_bits"
    );
    assert_eq!(
        dense.max_edge_bits(),
        MessagePlane::max_edge_bits(sparse),
        "{ctx}: max_edge_bits"
    );
    common::assert_scans_equal(
        &common::checked_scan(dense, &format!("{ctx}: dense")),
        &common::checked_scan(sparse, &format!("{ctx}: sparse")),
        &format!("{ctx}: arrival scan"),
    );
}

#[test]
fn sparse_plane_matches_dense_mailbox() {
    for n in [1usize, 2, 17, 64, 257] {
        let mut gen = SmallRng::seed_from_u64(0x5AB5 ^ n as u64);
        let cases = if n >= 257 { 3 } else { 8 };
        for case in 0..cases {
            let mut dense: RoundMailbox<Tm> = RoundMailbox::new(n);
            let mut sparse: SparseMailbox<Tm> = SparseMailbox::new(n);
            let steps = gen.gen_range(4..40usize);
            for step in 0..steps {
                random_op(&mut gen, &mut dense, &mut sparse, n);
                assert_equivalent(
                    &dense,
                    &mut sparse,
                    n,
                    &format!("n={n} case={case} step={step}"),
                );
                random_group_op(&mut gen, &mut dense, &mut sparse, n);
                assert_equivalent(
                    &dense,
                    &mut sparse,
                    n,
                    &format!("n={n} case={case} step={step} group"),
                );
            }
            // Pooled reuse must behave like a fresh plane on both sides.
            dense.reset(n);
            MessagePlane::reset(&mut sparse, n);
            assert_equivalent(
                &dense,
                &mut sparse,
                n,
                &format!("n={n} case={case} post-reset"),
            );
        }
    }
}

#[test]
fn sparse_plane_survives_resize_reuse() {
    // Shrinking and growing a pooled sparse plane must leave no stale
    // index entries behind (the dense plane drops its arena on resize;
    // the sparse plane must deregister per-row state instead).
    let mut gen = SmallRng::seed_from_u64(0xD1FF);
    let mut dense: RoundMailbox<Tm> = RoundMailbox::new(17);
    let mut sparse: SparseMailbox<Tm> = SparseMailbox::new(17);
    for (i, n) in [17usize, 5, 64, 2, 33].into_iter().enumerate() {
        dense.reset(n);
        MessagePlane::reset(&mut sparse, n);
        for step in 0..20 {
            random_op(&mut gen, &mut dense, &mut sparse, n);
            assert_equivalent(
                &dense,
                &mut sparse,
                n,
                &format!("resize {i} n={n} step={step}"),
            );
            random_group_op(&mut gen, &mut dense, &mut sparse, n);
            assert_equivalent(
                &dense,
                &mut sparse,
                n,
                &format!("resize {i} n={n} step={step} group"),
            );
        }
    }
}

#[test]
fn mutating_an_indexed_row_invalidates_the_index() {
    // Read → mutate the same row → read, once per mutator: the row's
    // cells are in the receiver index when the mutation lands, so a
    // mutator that left the index marked current would serve a stale
    // inbox on the second read.
    let n = 17;
    let mut gen = SmallRng::seed_from_u64(0x1DE7);
    for kind in 0..OP_KINDS {
        for case in 0..6 {
            let mut dense: RoundMailbox<Tm> = RoundMailbox::new(n);
            let mut sparse: SparseMailbox<Tm> = SparseMailbox::new(n);
            for _ in 0..12 {
                random_op(&mut gen, &mut dense, &mut sparse, n);
            }
            let ctx = format!("kind={kind} case={case}");
            assert_equivalent(&dense, &mut sparse, n, &format!("{ctx} before"));
            // Aim at a row with indexed cells when there is one.
            let s = (0..n as u32)
                .map(NodeId::new)
                .find(|&s| !MessagePlane::is_silent(&sparse, s) && dense.broadcast_of(s).is_none())
                .unwrap_or(NodeId::new(0));
            let r = NodeId::new(gen.gen_range(0..n as u32));
            apply_op(&mut gen, &mut dense, &mut sparse, n, (s, r), kind);
            assert_equivalent(&dense, &mut sparse, n, &format!("{ctx} after"));
        }
    }
}

#[test]
fn recording_view_matches_dense_mailbox() {
    // `broadcast_base` plus `deviations` is the trace recorder's view of
    // a row; the sparse plane must walk the dense plane's cells, in the
    // same receiver order.
    for n in [1usize, 2, 17, 64, 257] {
        let mut gen = SmallRng::seed_from_u64(0xDE75 ^ n as u64);
        for case in 0..4 {
            let mut dense: RoundMailbox<Tm> = RoundMailbox::new(n);
            let mut sparse: SparseMailbox<Tm> = SparseMailbox::new(n);
            for step in 0..gen.gen_range(4..40usize) {
                random_op(&mut gen, &mut dense, &mut sparse, n);
                random_group_op(&mut gen, &mut dense, &mut sparse, n);
                for s in (0..n as u32).map(NodeId::new) {
                    let d: Vec<_> = MessagePlane::deviations(&dense, s).collect();
                    let sp: Vec<_> = MessagePlane::deviations(&sparse, s).collect();
                    assert_eq!(d, sp, "n={n} case={case} step={step}: deviations({s})");
                }
            }
        }
    }
}
