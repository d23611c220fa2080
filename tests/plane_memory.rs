//! Memory bound for every harness entry point on the sparse plane.
//!
//! `Scenario::plane` is an execution strategy, so every entry point —
//! run, check, observe, replay, observe-replay, provenance and
//! provenance-replay — must honour it. A sampled scenario asked for the
//! sparse plane must never fall back to the dense `n × n` plane, which
//! at n = 16 384 needs about 4 GiB on its own.
//!
//! This binary wraps the global allocator in a live-byte counter and
//! runs all seven entry points in turn on one sparse scenario, in one
//! `#[test]` (the allocator is process-wide), resetting the peak before
//! each. Each entry point must reproduce `run_scenario`'s result and
//! stay under its heap bound:
//!
//! * 128 MiB for run, check, observe, replay and observe-replay;
//! * 240 MiB for `provenance` and 480 MiB for `provenance_replay`
//!   (which holds two probes), whose causal closures are `n²` bits per
//!   probe by design. They measure 217.7 and 450.1 MiB, leaving 22 and
//!   30 MiB of headroom. A frozen decision cone keeps two `n`-bit rows
//!   per node, `anc` and `bad`, and its corrupted-ancestor count; a
//!   third frozen row, the corruption set (32 MiB a probe here), put the
//!   two at 249.4 and 513.8 MiB, over these bounds. Before that, the
//!   arrival scan's pair of `n`-bit rows per dirty receiver (64 MiB a
//!   round here, where its sender lists cost O(n + arrivals)) put them
//!   at 325.3 and 609.2 MiB.
//!
//! Every bound sits at least 4× under one dense plane. The allocator
//! also refuses any allocation that would take the live heap past
//! 2 GiB, so a regression aborts this test instead of exhausting the
//! machine.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use adaptive_ba::harness::{check_scenario, replay_scenario, run_scenario};
use adaptive_ba::{
    observe_replay, observe_scenario, provenance_replay, provenance_scenario, AttackSpec,
    InputSpec, PlaneSpec, ProtocolSpec, Scenario,
};

const MIB: usize = 1 << 20;

/// Live heap ceiling: allocations past it fail (and abort the test).
const CEILING: usize = 2048 * MIB;

struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Counts `size` new live bytes, or refuses them past [`CEILING`].
fn claim(size: usize) -> bool {
    let now = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    if now > CEILING {
        LIVE.fetch_sub(size, Ordering::Relaxed);
        return false;
    }
    PEAK.fetch_max(now, Ordering::Relaxed);
    true
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if !claim(layout.size()) {
            return std::ptr::null_mut();
        }
        let p = unsafe { System.alloc(layout) };
        if p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if !claim(layout.size()) {
            return std::ptr::null_mut();
        }
        let p = unsafe { System.alloc_zeroed(layout) };
        if p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Old and new blocks may coexist while the data moves: claim the
        // new size before releasing the old one.
        if !claim(new_size) {
            return std::ptr::null_mut();
        }
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        let released = if p.is_null() { new_size } else { layout.size() };
        LIVE.fetch_sub(released, Ordering::Relaxed);
        p
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Runs `f` and returns its peak live heap above the starting level.
fn peak_of<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (PEAK.load(Ordering::Relaxed) - base, out)
}

fn assert_under(entry: &str, peak: usize, bound_mib: usize) {
    println!(
        "{entry}: peak live heap {:.1} MiB",
        peak as f64 / MIB as f64
    );
    assert!(
        peak <= bound_mib * MIB,
        "{entry}: peak live heap {} MiB exceeds {bound_mib} MiB — did it leave the sparse plane?",
        peak / MIB
    );
}

#[test]
fn every_entry_point_stays_sparse_at_n_16384() {
    let s = Scenario::new(16_384, 1_448)
        .with_protocol(ProtocolSpec::SamplingMajority { iters: 8 })
        .with_attack(AttackSpec::Crash { per_round: 1 })
        .with_inputs(InputSpec::Split)
        .with_plane(PlaneSpec::Sparse)
        .with_seed(7);

    let (peak, run) = peak_of(|| run_scenario(&s));
    assert_under("run", peak, 128);
    assert!(run.corruptions > 0, "the adaptive crash must act: {run:?}");

    let (peak, checked) = peak_of(|| check_scenario(&s));
    assert_under("check", peak, 128);
    assert_eq!(checked.result, run, "check");

    let (peak, observed) = peak_of(|| observe_scenario(&s));
    assert_under("observe", peak, 128);
    assert_eq!(observed.result, run, "observe");

    let (peak, replay) = peak_of(|| replay_scenario(&s));
    assert_under("replay", peak, 128);
    assert_eq!(replay.live, run, "replay live");
    assert_eq!(replay.replayed, run, "replay replayed");

    let (peak, observed) = peak_of(|| observe_replay(&s));
    assert_under("observe_replay", peak, 128);
    assert_eq!(observed.live, run, "observe_replay live");
    assert_eq!(observed.replayed, run, "observe_replay replayed");

    let (peak, traced) = peak_of(|| provenance_scenario(&s));
    assert_under("provenance", peak, 240);
    assert_eq!(traced.result, run, "provenance");
    drop(traced);

    let (peak, traced) = peak_of(|| provenance_replay(&s));
    assert_under("provenance_replay", peak, 480);
    assert_eq!(traced.live, run, "provenance_replay live");
    assert_eq!(traced.replayed, run, "provenance_replay replayed");
}
