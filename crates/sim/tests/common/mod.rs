//! The arrival-scan contract, shared by the three plane differentials.
//!
//! The engine builds one [`ArrivalScan`] per round from whichever plane
//! it runs — [`ArrivalScan::tally_offered`] on the wire, then
//! [`ArrivalScan::scan_arrivals`] on the arrivals — and the provenance
//! probe must see exactly what the plane holds.

// Each differential is its own crate, and the dense one has no second
// plane to compare scans with.
#![allow(dead_code)]

use aba_sim::{ArrivalScan, Message, MessagePlane, NodeId};

/// Builds `plane`'s scan as the engine does (the plane serving as both
/// the wire and the arrivals) and checks it against the plane: the
/// scan's arrival relation is [`MessagePlane::has_message`] for every
/// pair, self-pairs included, and the per-sender offered counters sum
/// to the plane's `message_count` / `total_bits`.
pub fn checked_scan<M: Message, L: MessagePlane<M>>(plane: &L, ctx: &str) -> ArrivalScan {
    let n = plane.n();
    let mut scan = ArrivalScan::new();
    scan.reset(n);
    scan.tally_offered(plane);
    scan.scan_arrivals(plane);
    for s in 0..n {
        for r in 0..n {
            assert_eq!(
                scan.has_message(s, r),
                plane.has_message(NodeId::new(s as u32), NodeId::new(r as u32)),
                "{ctx}: scan has_message({s}, {r})"
            );
        }
    }
    let sent_msgs: usize = scan.sent_msgs().iter().map(|&m| m as usize).sum();
    let sent_bits: u64 = scan.sent_bits().iter().sum();
    assert_eq!(sent_msgs, plane.message_count(), "{ctx}: sum of sent_msgs");
    assert_eq!(
        sent_bits as usize,
        plane.total_bits(),
        "{ctx}: sum of sent_bits"
    );
    scan
}

/// Compares two planes' scans field by field.
pub fn assert_scans_equal(a: &ArrivalScan, b: &ArrivalScan, ctx: &str) {
    assert_eq!(a.n(), b.n(), "{ctx}: n");
    assert_eq!(a.base_senders(), b.base_senders(), "{ctx}: base_senders");
    assert_eq!(a.dirty(), b.dirty(), "{ctx}: dirty");
    assert_eq!(a.sent_msgs(), b.sent_msgs(), "{ctx}: sent_msgs");
    assert_eq!(a.sent_bits(), b.sent_bits(), "{ctx}: sent_bits");
    assert_eq!(a.recv_msgs(), b.recv_msgs(), "{ctx}: recv_msgs");
    assert_eq!(a.recv_bits(), b.recv_bits(), "{ctx}: recv_bits");
    for i in 0..a.n() {
        assert_eq!(a.base_bits(i), b.base_bits(i), "{ctx}: base_bits({i})");
        assert_eq!(a.knocked_row(i), b.knocked_row(i), "{ctx}: knocked({i})");
        assert_eq!(a.extra_row(i), b.extra_row(i), "{ctx}: extra({i})");
    }
}
