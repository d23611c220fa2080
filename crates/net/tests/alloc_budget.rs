//! Allocation pin for the delivery stage under saturated bounded delay.
//!
//! Every node of a 64-node network broadcasts every round under
//! `BoundedDelay(2, Random)` at seed 7 — the traffic shape of the
//! adverse-net benchmark, where each link carries a message every round
//! and FIFO with unit capacity keeps two messages in flight per link.
//! The wire and arrivals planes ping-pong between this test's round
//! loop and the stage as they do with the engine. After 256 warm-up rounds, the
//! remaining rounds must not allocate at all: every buffer of the
//! stage — the flight queue's slots and receiver arenas, the carry, the
//! routing scratch and both planes — is pooled.
//!
//! The counting allocator counts every thread of the process, so this
//! file holds a single test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use aba_net::{BoundedDelay, DelayScheduler, NetDelivery};
use aba_sim::{
    CorruptionLedger, Delivery, Emission, Message, MessagePlane, NodeId, Round, RoundMailbox,
};

struct CountingAlloc;

static CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[derive(Debug, Clone, PartialEq, Eq)]
struct Vote(u16);

impl Message for Vote {
    fn bit_size(&self) -> usize {
        16
    }
}

const N: usize = 64;
const ROUNDS: u64 = 2_048;
const WARM_UP: u64 = 256;

#[test]
fn saturated_bounded_delay_allocates_nothing_after_warm_up() {
    let mut stage: NetDelivery<Vote, _> =
        NetDelivery::new(BoundedDelay::new(2, DelayScheduler::Random), 7);
    let ledger = CorruptionLedger::new(N, 0);
    let mut wire: RoundMailbox<Vote> = RoundMailbox::new(N);
    let mut late = Vec::new();
    for round in 0..ROUNDS {
        let before = CALLS.load(Ordering::Relaxed);
        wire.reset(N);
        for s in 0..N as u32 {
            let vote = Vote((round as u16).wrapping_mul(31) ^ s as u16);
            wire.set(NodeId::new(s), Emission::Broadcast(vote));
        }
        let (out, stats) = stage.deliver(Round::new(round), wire, &ledger);
        assert_eq!(stats.dropped, 0);
        wire = out;
        let calls = CALLS.load(Ordering::Relaxed) - before;
        if round >= WARM_UP && calls > 0 {
            late.push((round, calls));
        }
    }
    assert_eq!(
        late,
        [],
        "(round, allocation calls) after warm-up: the stage must reuse its buffers"
    );
    // Saturated links turn the random delay into a fixed 2-round delay
    // line: two messages in flight on each of the n(n - 1) links.
    assert_eq!(Delivery::<Vote>::in_flight(&stage), 2 * N * (N - 1));
}
