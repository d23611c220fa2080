//! Allocation-budget pins for the large-`n` path.
//!
//! The 65 536-node campaigns only work if nothing in the per-round loop
//! — planes, arrival scans, metrics — allocates quadratically in `n` or
//! linearly per message. This test wraps the global allocator in a
//! counter and pins these budgets:
//!
//! * the [`ArrivalScan`] of a point-to-point round at n = 16 384, in
//!   which every receiver is dirty, built from the sparse plane as the
//!   engine builds it, must allocate under 4 MiB — O(n + arrivals), where
//!   a pair of `n`-bit rows per dirty receiver took 64 MiB — and a pooled
//!   same-shape refill must allocate almost nothing;
//! * a point-to-point run on the sparse plane at n = 8 192 must
//!   allocate O(messages) total, not O(n²) per round;
//! * a pooled [`SparseMailbox`] at n = 65 536 driven through one whole
//!   round of plane work — reset, per-recipient installs in sender
//!   order, out-of-order one-receiver `insert_group_if_vacant` and
//!   `merge_broadcast_except` edits, the receiver-index build and every inbox read — must
//!   allocate exactly nothing once one warm-up round has sized its
//!   buffers.
//!
//! Budgets are deliberately loose (≥ 4× headroom over measured values)
//! so they only fire on a complexity-class regression, not on incidental
//! constant-factor drift.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use aba_sim::adversary::Benign;
use aba_sim::prelude::*;

struct CountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Bytes and allocation calls spent inside `f`.
fn measure<R>(f: impl FnOnce() -> R) -> (u64, u64, R) {
    let (b0, c0) = (BYTES.load(Ordering::Relaxed), CALLS.load(Ordering::Relaxed));
    let out = f();
    let (b1, c1) = (BYTES.load(Ordering::Relaxed), CALLS.load(Ordering::Relaxed));
    (b1 - b0, c1 - c0, out)
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Ping;

impl Message for Ping {
    fn bit_size(&self) -> usize {
        1
    }
}

/// Sends one point-to-point message around a ring each round — the
/// traffic shape of the sampled sub-quadratic protocols, reduced to its
/// allocation essentials.
#[derive(Debug)]
struct RingSender {
    me: u32,
    n: u32,
    rounds_left: u32,
}

impl Protocol for RingSender {
    type Msg = Ping;

    fn emit(&mut self, _round: Round, _rng: &mut dyn rand::RngCore) -> Emission<Ping> {
        Emission::PerRecipient(vec![(NodeId::new((self.me + 1) % self.n), Ping)])
    }

    fn receive(&mut self, _round: Round, _inbox: Inbox<'_, Ping>, _rng: &mut dyn rand::RngCore) {
        self.rounds_left = self.rounds_left.saturating_sub(1);
    }

    fn output(&self) -> Option<bool> {
        (self.rounds_left == 0).then_some(true)
    }

    fn halted(&self) -> bool {
        self.rounds_left == 0
    }
}

/// One round of sparse-plane work, shaped like a sampled protocol's
/// round under a delaying network: `emissions` installed in sender
/// order, then out-of-order edits of rows installed earlier (the
/// flight-queue drain and broadcast-merge paths), the index build, and
/// every inbox read. Returns the messages read, so the reads stay live.
fn sparse_plane_round(
    plane: &mut SparseMailbox<Ping>,
    emissions: Vec<Emission<Ping>>,
    except: &[u32],
    conflicts: &mut Vec<u32>,
) -> usize {
    let n = plane.n();
    plane.reset(n);
    for (s, e) in emissions.into_iter().enumerate() {
        plane.set(NodeId::new(s as u32), e);
    }
    for k in 0..64u32 {
        let s = k * 977 % n as u32;
        plane.insert_group_if_vacant(NodeId::new(s), &mut [(s + 7) % n as u32], &Ping);
    }
    for s in [5u32, 40_000, 17] {
        conflicts.clear();
        plane.merge_broadcast_except(NodeId::new(s), Ping, except, conflicts);
    }
    plane.build_inbox_index();
    let mut read = 0;
    for r in 0..n as u32 {
        let inbox = plane.inbox(NodeId::new(r));
        let from = NodeId::new(r.wrapping_mul(31) % n as u32);
        read += inbox.iter().count() + inbox.len() + usize::from(inbox.from(from).is_some());
    }
    read
}

/// Two point-to-point messages per sender, to scattered receivers.
fn sampled_emissions(n: u32) -> Vec<Emission<Ping>> {
    (0..n)
        .map(|s| {
            let a = NodeId::new(s.wrapping_mul(2_654_435_761) % n);
            let b = NodeId::new((s ^ 0x5bd1) % n);
            Emission::PerRecipient(vec![(a, Ping), (b, Ping)])
        })
        .collect()
}

// One test function: the counters are process-global, so the pins run
// sequentially on one thread to keep their deltas honest.
#[test]
fn allocation_budgets_hold_at_large_n() {
    // --- ArrivalScan of a point-to-point round at n = 16 384 ---------
    let n = 16_384u32;
    let mut plane: SparseMailbox<Ping> = SparseMailbox::new(n as usize);
    for (s, e) in sampled_emissions(n).into_iter().enumerate() {
        plane.set(NodeId::new(s as u32), e);
    }
    let mut scan = ArrivalScan::new();
    let fill = |scan: &mut ArrivalScan| {
        scan.reset(n as usize);
        scan.tally_offered(&plane);
        scan.scan_arrivals(&plane);
    };
    let (bytes, _, ()) = measure(|| fill(&mut scan));
    println!("point-to-point ArrivalScan at n = 16 384: {bytes} bytes");
    assert!(
        (0..n as usize).all(|r| !scan.is_clean(r)),
        "every receiver must be dirty"
    );
    // O(n) counters and list bounds plus a few bytes per arrival
    // (~1.2 MiB); one pair of n-bit rows per dirty receiver took 64 MiB.
    assert!(
        bytes < 4 << 20,
        "ArrivalScan of a point-to-point round at n=16384 allocated {bytes} bytes"
    );

    // A pooled same-shape refill must reuse everything.
    let (bytes, _, ()) = measure(|| fill(&mut scan));
    println!("pooled refill: {bytes} bytes");
    assert!(
        bytes < 1 << 20,
        "pooled ArrivalScan refill allocated {bytes} bytes — buffers not reused"
    );

    // --- sparse-plane steady state at n = 8 192 ----------------------
    let n = 8_192u32;
    let rounds = 32u32;
    let nodes: Vec<RingSender> = (0..n)
        .map(|me| RingSender {
            me,
            n,
            rounds_left: rounds,
        })
        .collect();
    let cfg = SimConfig::new(n as usize, 0).with_max_rounds(u64::from(rounds) + 4);
    let (bytes, calls, report) = measure(|| {
        SparseSimulation::with_instruments(cfg, nodes, Benign, PassThrough, NoOracle, NoProbe).run()
    });
    assert!(report.all_halted, "ring run did not complete");
    // ~260 k messages at one small Vec each plus O(n) plane state:
    // measured well under 64 MB. An O(n)-per-message or O(n²)-per-round
    // scratch would cost gigabytes here.
    assert!(
        bytes < 256 << 20,
        "sparse steady state allocated {bytes} bytes over {rounds} rounds"
    );
    assert!(
        calls < 4 * u64::from(n) * u64::from(rounds),
        "sparse steady state made {calls} allocator calls — per-message scratch regressed"
    );

    // --- pooled sparse-plane round at n = 65 536 ---------------------
    let n = 65_536u32;
    let except: Vec<u32> = (0..n).step_by(331).collect();
    let mut plane: SparseMailbox<Ping> = SparseMailbox::new(n as usize);
    let mut conflicts = Vec::new();
    let warm = sparse_plane_round(&mut plane, sampled_emissions(n), &except, &mut conflicts);
    // The emissions are the protocols' own allocations: build them
    // outside the measured round.
    let emissions = sampled_emissions(n);
    let (bytes, calls, read) =
        measure(|| sparse_plane_round(&mut plane, emissions, &except, &mut conflicts));
    assert_eq!(
        read, warm,
        "the measured round must repeat the warm-up round"
    );
    assert!(read > 4 * n as usize, "the round read only {read} messages");
    assert_eq!(
        (bytes, calls),
        (0, 0),
        "a warmed-up sparse plane round allocated {bytes} bytes in {calls} calls"
    );
}
