//! Differential test: the dense broadcast-aware mailbox against a
//! deliberately naive reference model.
//!
//! The reference stores an explicit `n × n` matrix of owned messages and
//! re-derives every observable from scratch; the production mailbox
//! shares broadcast bases, stamps deviation lanes in a flat arena, and
//! maintains counters incrementally. Seeded interleavings of the whole
//! public mutation API (`set` broadcast / per-recipient / silent,
//! `silence`, `insert`, `set_broadcast_except`, `take_broadcast`,
//! `insert_if_vacant`) are replayed against both, each followed by an
//! `insert_group_if_vacant` — the flight queue's drain primitive — on a
//! random row, and every observable is compared after each step, across
//! n ∈ {1, 2, 17, 64}. (No proptest in this offline workspace — cases
//! are drawn from a fixed-seed generator, so every run checks the
//! identical sample.)
//!
//! After every step the mailbox's [`ArrivalScan`](aba_sim::ArrivalScan)
//! is built as the engine builds it and checked against the mailbox
//! (the contract in `common/mod.rs`) and against the reference: its
//! delivered counters sum to every arrival except self-copies.

mod common;

use aba_sim::{Emission, Message, NodeId, RoundMailbox};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone, PartialEq, Eq)]
struct Tm(u16);
impl Message for Tm {
    fn bit_size(&self) -> usize {
        4 + (self.0 % 13) as usize // varied sizes exercise max_edge_bits
    }
}

/// The reference model: an explicit matrix, observables derived fresh.
struct Reference {
    n: usize,
    /// `grid[s][r]`: the message `r` receives from `s`, if any.
    grid: Vec<Vec<Option<Tm>>>,
    /// Whether row `s` is a *pure* broadcast (same message everywhere,
    /// installed by a broadcast emission, never deviated).
    pure_broadcast: Vec<bool>,
    /// The broadcast base of row `s`, shared or not (mirrors
    /// `broadcast_base`).
    base: Vec<Option<Tm>>,
}

impl Reference {
    fn new(n: usize) -> Self {
        Reference {
            n,
            grid: vec![vec![None; n]; n],
            pure_broadcast: vec![false; n],
            base: vec![None; n],
        }
    }

    fn clear_row(&mut self, s: usize) {
        self.grid[s] = vec![None; self.n];
        self.pure_broadcast[s] = false;
        self.base[s] = None;
    }

    fn set(&mut self, s: usize, e: &Emission<Tm>) {
        self.clear_row(s);
        match e {
            Emission::Silent => {}
            Emission::Broadcast(m) => {
                self.grid[s] = vec![Some(m.clone()); self.n];
                self.pure_broadcast[s] = true;
                self.base[s] = Some(m.clone());
            }
            Emission::PerRecipient(v) => {
                for (to, m) in v {
                    self.grid[s][to.index()] = Some(m.clone());
                }
            }
        }
    }

    fn insert(&mut self, s: usize, r: usize, m: Tm) {
        self.grid[s][r] = Some(m);
        self.pure_broadcast[s] = false;
    }

    fn set_broadcast_except(&mut self, s: usize, m: Tm, except: &[u32]) {
        self.clear_row(s);
        self.grid[s] = vec![Some(m.clone()); self.n];
        for &r in except {
            self.grid[s][r as usize] = None;
        }
        self.pure_broadcast[s] = except.is_empty();
        self.base[s] = Some(m);
    }

    fn take_broadcast(&mut self, s: usize) -> Option<Tm> {
        if !self.pure_broadcast[s] {
            return None;
        }
        let m = self.base[s].clone();
        self.clear_row(s);
        m
    }

    fn insert_if_vacant(&mut self, s: usize, r: usize, m: Tm) -> bool {
        if self.grid[s][r].is_some() {
            return false;
        }
        self.insert(s, r, m);
        true
    }

    /// One `insert_if_vacant` per receiver, in order; returns the
    /// installed count and the busy receivers, in order.
    fn insert_group_if_vacant(&mut self, s: usize, receivers: &[u32], m: &Tm) -> (usize, Vec<u32>) {
        let busy: Vec<u32> = receivers
            .iter()
            .copied()
            .filter(|&r| !self.insert_if_vacant(s, r as usize, m.clone()))
            .collect();
        (receivers.len() - busy.len(), busy)
    }

    /// Is `(s, r)` carrying the free self-copy of a broadcast base?
    /// (Counting convention: only base-derived self-copies are free.)
    fn free_self_copy(&self, s: usize, r: usize) -> bool {
        s == r
            && self.base[s].is_some()
            && self.grid[s][r] == self.base[s]
            && self.counted_as_base(s, r)
    }

    /// Whether the cell value at `(s, r)` comes from the shared base
    /// rather than an explicit insert. The reference cannot distinguish
    /// an inserted message equal to the base, so the generator never
    /// inserts a message equal to a live base at the sender's own cell
    /// (see `random_op`).
    fn counted_as_base(&self, s: usize, r: usize) -> bool {
        self.base[s].is_some() && self.grid[s][r] == self.base[s]
    }

    fn message_count(&self) -> usize {
        let mut count = 0;
        for s in 0..self.n {
            for r in 0..self.n {
                if self.grid[s][r].is_some() && !self.free_self_copy(s, r) {
                    count += 1;
                }
            }
        }
        count
    }

    fn total_bits(&self) -> usize {
        let mut bits = 0;
        for s in 0..self.n {
            for r in 0..self.n {
                if let Some(m) = &self.grid[s][r] {
                    if !self.free_self_copy(s, r) {
                        bits += m.bit_size();
                    }
                }
            }
        }
        bits
    }
}

/// One random mutation applied to both models.
fn random_op(gen: &mut SmallRng, mb: &mut RoundMailbox<Tm>, rf: &mut Reference, n: usize) {
    let s = gen.gen_range(0..n as u32);
    let r = gen.gen_range(0..n as u32);
    let msg = Tm(gen.gen::<u16>() | 1); // odd tag: never equals a base tag
    let base_msg = Tm(gen.gen::<u16>() & !1); // even tag
    match gen.gen_range(0..8u32) {
        0 => {
            let e = Emission::Broadcast(base_msg);
            rf.set(s as usize, &e);
            mb.set(NodeId::new(s), e);
        }
        1 => {
            let k = gen.gen_range(0..2 * n);
            let v: Vec<(NodeId, Tm)> = (0..k)
                .map(|_| {
                    (
                        NodeId::new(gen.gen_range(0..n as u32)),
                        Tm(gen.gen::<u16>() | 1),
                    )
                })
                .collect();
            let e = Emission::PerRecipient(v);
            rf.set(s as usize, &e);
            mb.set(NodeId::new(s), e);
        }
        2 => {
            rf.set(s as usize, &Emission::Silent);
            mb.silence(NodeId::new(s));
        }
        3 => {
            rf.insert(s as usize, r as usize, msg.clone());
            mb.insert(NodeId::new(s), NodeId::new(r), msg);
        }
        4 => {
            // A broadcast that skips a single receiver.
            rf.set_broadcast_except(s as usize, base_msg.clone(), &[r]);
            mb.set_broadcast_except(NodeId::new(s), base_msg, &[r]);
        }
        5 => {
            let mut except: Vec<u32> = (0..n as u32).filter(|_| gen.gen_bool(0.3)).collect();
            except.sort_unstable();
            rf.set_broadcast_except(s as usize, base_msg.clone(), &except);
            mb.set_broadcast_except(NodeId::new(s), base_msg, &except);
        }
        6 => {
            let a = rf.take_broadcast(s as usize);
            let b = mb.take_broadcast(NodeId::new(s));
            assert_eq!(a, b, "take_broadcast disagrees for sender {s}");
        }
        _ => {
            let a = rf.insert_if_vacant(s as usize, r as usize, msg.clone());
            let b = mb
                .insert_if_vacant(NodeId::new(s), NodeId::new(r), msg)
                .is_none();
            assert_eq!(a, b, "insert_if_vacant disagrees for ({s}, {r})");
        }
    }
}

/// A group install on a random row: a random receiver list
/// (duplicates and the sender itself allowed) with an odd-tagged
/// message, so it never equals a live base. The list is offered twice,
/// the second time reversed: every receiver the first install served is
/// busy then, so the order of long busy tails is checked too.
fn group_op(gen: &mut SmallRng, mb: &mut RoundMailbox<Tm>, rf: &mut Reference, n: usize) {
    let s = gen.gen_range(0..n as u32);
    let msg = Tm(gen.gen::<u16>() | 1);
    let k = gen.gen_range(1..=n.min(24));
    let first: Vec<u32> = (0..k).map(|_| gen.gen_range(0..n as u32)).collect();
    let second = first.iter().rev().copied().collect();
    for mut receivers in [first, second] {
        let (want, want_busy) = rf.insert_group_if_vacant(s as usize, &receivers, &msg);
        let got = mb.insert_group_if_vacant(NodeId::new(s), &mut receivers, &msg);
        assert_eq!(got, want, "insert_group_if_vacant installed count for {s}");
        assert_eq!(
            receivers[..k - got],
            want_busy[..],
            "insert_group_if_vacant busy tail for {s}"
        );
    }
}

fn assert_equivalent(mb: &RoundMailbox<Tm>, rf: &Reference, ctx: &str) {
    let n = rf.n;
    for s in 0..n {
        let sid = NodeId::new(s as u32);
        for r in 0..n {
            assert_eq!(
                mb.resolve(sid, NodeId::new(r as u32)),
                rf.grid[s][r].as_ref(),
                "{ctx}: resolve({s}, {r})"
            );
        }
        assert_eq!(
            mb.broadcast_of(sid),
            if rf.pure_broadcast[s] {
                rf.base[s].as_ref()
            } else {
                None
            },
            "{ctx}: broadcast_of({s})"
        );
        assert_eq!(
            mb.is_silent(sid),
            rf.grid[s].iter().all(Option::is_none),
            "{ctx}: is_silent({s})"
        );
        // Inboxes agree with the grid column, in sender order.
        let via_inbox: Vec<(u32, Tm)> = mb
            .inbox(NodeId::new(s as u32))
            .iter()
            .map(|(from, m)| (from.raw(), m.clone()))
            .collect();
        let via_grid: Vec<(u32, Tm)> = (0..n)
            .filter_map(|from| rf.grid[from][s].clone().map(|m| (from as u32, m)))
            .collect();
        assert_eq!(via_inbox, via_grid, "{ctx}: inbox({s})");
    }
    assert_eq!(mb.message_count(), rf.message_count(), "{ctx}: count");
    assert_eq!(mb.total_bits(), rf.total_bits(), "{ctx}: bits");
    let scan = common::checked_scan(mb, ctx);
    let arrivals = (0..n).flat_map(|s| (0..n).filter(move |&r| r != s).map(move |r| (s, r)));
    let (want_msgs, want_bits) = arrivals
        .filter_map(|(s, r)| rf.grid[s][r].as_ref())
        .fold((0, 0), |(m, b), msg| (m + 1, b + msg.bit_size() as u64));
    let recv_msgs: usize = scan.recv_msgs().iter().map(|&m| m as usize).sum();
    let recv_bits: u64 = scan.recv_bits().iter().sum();
    assert_eq!(recv_msgs, want_msgs, "{ctx}: sum of recv_msgs");
    assert_eq!(recv_bits, want_bits, "{ctx}: sum of recv_bits");
    // max_edge_bits: bracketed rather than pinned, because the mailbox
    // (like the pre-dense implementation, which reported a broadcast's
    // size even at n = 1) may count a live base that no remote edge
    // currently carries. Lower bound: every resolvable message. Upper
    // bound: those plus live broadcast bases.
    let mut lower = 0;
    let mut upper = 0;
    for s in 0..n {
        for m in rf.grid[s].iter().flatten() {
            lower = lower.max(m.bit_size());
        }
        if let Some(b) = mb.broadcast_base(NodeId::new(s as u32)) {
            upper = upper.max(b.bit_size());
        }
    }
    upper = upper.max(lower);
    let got = mb.max_edge_bits();
    assert!(
        got >= lower && got <= upper,
        "{ctx}: max_edge_bits {got} outside [{lower}, {upper}]"
    );
}

#[test]
fn dense_mailbox_matches_reference_model() {
    for n in [1usize, 2, 17, 64] {
        let mut gen = SmallRng::seed_from_u64(0xD1FF ^ n as u64);
        for case in 0..8 {
            let mut mb: RoundMailbox<Tm> = RoundMailbox::new(n);
            let mut rf = Reference::new(n);
            let steps = gen.gen_range(4..40usize);
            for step in 0..steps {
                random_op(&mut gen, &mut mb, &mut rf, n);
                assert_equivalent(&mb, &rf, &format!("n={n} case={case} step={step}"));
                group_op(&mut gen, &mut mb, &mut rf, n);
                assert_equivalent(&mb, &rf, &format!("n={n} case={case} step={step} group"));
            }
            // Pooled reuse must behave like a fresh mailbox.
            mb.reset(n);
            let rf2 = Reference::new(n);
            assert_equivalent(&mb, &rf2, &format!("n={n} case={case} post-reset"));
        }
    }
}
