//! Pooled per-round arrival summary handed to [`crate::probe::Probe`]s
//! that opt into happens-before recording.
//!
//! The provenance layer of `aba-obs` needs, once per round, the full
//! sender → receiver arrival relation plus per-node traffic counters —
//! but it must cost nothing when unused and never allocate per message.
//! [`ArrivalScan`] is the answer: a pooled, non-generic summary built in
//! one place for every plane, from the plane's own recording view
//! ([`MessagePlane::broadcast_base`] + [`MessagePlane::deviations`]), so
//! it mirrors the broadcast-base + deviation layout of the planes:
//!
//! * `base_senders` — one bit per sender that contributed a broadcast
//!   base this round (every receiver gets it unless knocked out);
//! * `knocked_row(r)` — the base senders whose base `r` does *not*
//!   receive (a knock-out, or an explicit message in its place);
//! * `extra_row(r)` — the senders of explicit point-to-point messages
//!   `s → r` (deviation cells, including overrides of a base);
//!
//! so the arrival in-set of receiver `r` is
//! `(base_senders \ knocked(r)) ∪ extra(r)`, and a receiver with empty
//! lists (`is_clean`) receives exactly `base_senders` — the broadcast
//! fast path that keeps online closure near-linear.
//!
//! The two lists of every receiver are sorted, duplicate-free `u32`
//! sender IDs in one pooled receiver-major buffer (the layout of the
//! sparse plane's inbox index), so a scan holds O(n + deviations)
//! memory whatever the traffic: a point-to-point round that dirties
//! every receiver costs a few bytes per arrival, not two `n`-bit rows
//! per receiver (n²/4 bytes, 64 MiB at n = 16 384).
//!
//! Traffic counters follow the engine's counting convention exactly
//! (a broadcast is `n - 1` messages, the local self-copy is free, an
//! explicit self-message counts): `sent_*` is filled from the wire
//! plane before delivery ([`ArrivalScan::tally_offered`], summing to
//! [`crate::metrics::RoundMetrics::messages`]/`bits`), `recv_*` from
//! the arrivals plane after delivery ([`ArrivalScan::scan_arrivals`],
//! which leaves explicit self-messages out: they never touch the
//! network).

use crate::id::NodeId;
use crate::message::Message;
use crate::plane::MessagePlane;

/// One recorded mark: `sender` goes into list `list` — `2r` is receiver
/// `r`'s knocked list, `2r + 1` its extra list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Mark {
    sender: u32,
    list: u32,
}

/// A pooled, reusable summary of one round's arrivals and traffic.
///
/// Filled from the planes by [`ArrivalScan::tally_offered`] and
/// [`ArrivalScan::scan_arrivals`], then handed by reference to
/// [`Probe::arrivals`](crate::probe::Probe::arrivals). All storage is
/// retained across rounds; `reset` only zeroes.
#[derive(Debug, Default, Clone)]
pub struct ArrivalScan {
    n: usize,
    words: usize,
    /// Bit `s`: sender `s` has a broadcast base on the arrivals plane.
    base_senders: Vec<u64>,
    /// Per sender: bit size of the base message (0 when none).
    base_bits: Vec<u32>,
    /// Knocked/extra marks recorded since the last close, in any order.
    marks: Vec<Mark>,
    /// Some mark since the last close did not follow its predecessor in
    /// ascending `(sender, list)` order, so the lists need sorting and
    /// deduplicating. A plane's fill never sets it (debug builds check).
    unordered: bool,
    /// Receiver-major list bounds: list `k` (see [`Mark`]) is
    /// `senders[offsets[k]..offsets[k + 1]]`.
    offsets: Vec<u32>,
    /// Every list's sorted, duplicate-free sender IDs, back to back.
    senders: Vec<u32>,
    /// Bit `r`: receiver `r` has a knocked or extra sender (not clean).
    dirty: Vec<u64>,
    /// Per sender: messages offered on the wire this round.
    sent_msgs: Vec<u32>,
    /// Per sender: bits offered on the wire this round.
    sent_bits: Vec<u64>,
    /// Per receiver: messages delivered this round.
    recv_msgs: Vec<u32>,
    /// Per receiver: bits delivered this round.
    recv_bits: Vec<u64>,
    /// Bit `s`: sender `s` was corrupted at scan time.
    corrupted: Vec<u64>,
}

impl ArrivalScan {
    /// A fresh, empty scan (the pooling placeholder, like the planes').
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the scan and (re)sizes it for an `n`-node network,
    /// retaining allocations. O(n).
    pub fn reset(&mut self, n: usize) {
        let words = n.div_ceil(64);
        self.n = n;
        self.words = words;
        self.marks.clear();
        self.unordered = false;
        self.senders.clear();
        resize_zero(&mut self.offsets, 2 * n + 1);
        resize_zero(&mut self.base_senders, words);
        resize_zero(&mut self.base_bits, n);
        resize_zero(&mut self.dirty, words);
        resize_zero(&mut self.sent_msgs, n);
        resize_zero(&mut self.sent_bits, n);
        resize_zero(&mut self.recv_msgs, n);
        resize_zero(&mut self.recv_bits, n);
        resize_zero(&mut self.corrupted, words);
    }

    /// Number of nodes this scan was sized for.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Words per bitset (`ceil(n / 64)`).
    #[inline]
    pub fn words(&self) -> usize {
        self.words
    }

    // --- filling from a plane ---------------------------------------

    /// Adds each sender's offered traffic on `wire` — the round's plane
    /// before delivery — to the per-sender counters: one O(1)
    /// [`MessagePlane::row_traffic`] read per sender, so the counters
    /// sum exactly to the plane's `message_count` / `total_bits`.
    pub fn tally_offered<M: Message, L: MessagePlane<M>>(&mut self, wire: &L) {
        for s in 0..self.n {
            let (msgs, bits) = wire.row_traffic(NodeId::new(s as u32));
            self.add_sent(s, msgs as u32, bits as u64);
        }
    }

    /// Fills the arrival relation and the per-receiver delivered
    /// counters from `arrivals` — the round's plane after delivery —
    /// and closes the scan ([`ArrivalScan::finish_base_recv`]). One
    /// walk of every sender's broadcast base and deviations, in
    /// ascending sender order — O(n²) cells on the dense plane, O(n²/64)
    /// words on the packed one, O(n) on the sparse one — plus O(1) per
    /// deviation cell to mark it and O(n + marks) to group the marks
    /// into lists at the close. The in-set of each receiver reproduces
    /// [`MessagePlane::has_message`]; self-copies land in it (they are
    /// real inbox entries) but not in the delivered counters — they
    /// never touch the network.
    pub fn scan_arrivals<M: Message, L: MessagePlane<M>>(&mut self, arrivals: &L) {
        for s in 0..self.n {
            let sender = NodeId::new(s as u32);
            let base = arrivals.broadcast_base(sender);
            if let Some(base) = base {
                self.mark_base(s, base.bit_size() as u32);
            }
            for (receiver, m) in arrivals.deviations(sender) {
                let r = receiver.index();
                // A knock-out hides a base only where there is one; an
                // explicit message knocks the base *and* lands as an
                // extra with its own bit size.
                if base.is_some() {
                    self.mark_knocked(r, s);
                }
                if let Some(m) = m {
                    self.mark_extra(r, s);
                    if r != s {
                        self.add_recv(r, 1, m.bit_size() as u64);
                    }
                }
            }
        }
        debug_assert!(!self.unordered, "deviations out of receiver order");
        self.finish_base_recv();
    }

    // --- builder API ------------------------------------------------

    /// Records that sender `s` contributed a broadcast base of
    /// `bits` bits.
    #[inline]
    pub fn mark_base(&mut self, s: usize, bits: u32) {
        self.base_senders[s / 64] |= 1 << (s % 64);
        self.base_bits[s] = bits;
    }

    /// Records that receiver `r` does not get `s`'s base.
    ///
    /// Callers must only mark senders that actually have a base this
    /// round (`knocked ⊆ base_senders`) — [`ArrivalScan::finish_base_recv`]
    /// subtracts the knocked bases from the per-receiver totals.
    #[inline]
    pub fn mark_knocked(&mut self, r: usize, s: usize) {
        self.push_mark(r, s, false);
    }

    /// Records an explicit point-to-point arrival `s → r`.
    #[inline]
    pub fn mark_extra(&mut self, r: usize, s: usize) {
        self.push_mark(r, s, true);
    }

    #[inline]
    fn push_mark(&mut self, r: usize, s: usize, extra: bool) {
        debug_assert!(r < self.n && s < self.n, "mark ({s} -> {r}) out of range");
        let mark = Mark {
            sender: s as u32,
            list: (2 * r + usize::from(extra)) as u32,
        };
        if self.marks.last().is_some_and(|&last| last >= mark) {
            self.unordered = true;
        }
        self.marks.push(mark);
    }

    /// Adds to sender `s`'s offered-traffic counters.
    #[inline]
    pub fn add_sent(&mut self, s: usize, msgs: u32, bits: u64) {
        self.sent_msgs[s] += msgs;
        self.sent_bits[s] += bits;
    }

    /// Adds to receiver `r`'s delivered-traffic counters.
    #[inline]
    pub fn add_recv(&mut self, r: usize, msgs: u32, bits: u64) {
        self.recv_msgs[r] += msgs;
        self.recv_bits[r] += bits;
    }

    /// Closes the scan once every base, knocked and extra mark is in:
    /// groups the marks into each receiver's sorted, duplicate-free
    /// sender lists, then folds the broadcast bases into the
    /// per-receiver delivered counters — each receiver gets every
    /// un-knocked base, its own base self-copy free (the engine's
    /// counting convention). The per-receiver reads
    /// ([`ArrivalScan::knocked_row`] and the queries built on it) see
    /// the marks only after this call. O(n + marks).
    ///
    /// Explicit arrivals are *not* folded here; they are accounted per
    /// deviation cell via [`ArrivalScan::add_recv`].
    pub fn finish_base_recv(&mut self) {
        self.close_lists();
        let total_msgs: u32 = self.base_senders.iter().map(|w| w.count_ones()).sum();
        // Senders without a base hold 0 bits.
        let total_bits: u64 = self.base_bits.iter().map(|&b| u64::from(b)).sum();
        for r in 0..self.n {
            let mut msgs = total_msgs;
            let mut bits = total_bits;
            let mut own_in = self.base_senders[r / 64] & (1 << (r % 64)) != 0;
            for &s in self.knocked_row(r) {
                msgs -= 1;
                bits -= u64::from(self.base_bits[s as usize]);
                own_in &= s as usize != r;
            }
            if own_in {
                msgs -= 1;
                bits -= u64::from(self.base_bits[r]);
            }
            self.recv_msgs[r] += msgs;
            self.recv_bits[r] += bits;
        }
    }

    /// Moves the pending marks into the receiver-major lists by a
    /// counting sort on the list, which keeps each list in mark order: a
    /// plane's fill marks in ascending `(sender, list)` order, so its
    /// lists come out sorted and duplicate-free as they are. Marks made
    /// out of that order (by hand) are sorted and deduplicated per list
    /// in place.
    fn close_lists(&mut self) {
        if self.marks.is_empty() {
            return;
        }
        debug_assert!(self.senders.is_empty(), "marks recorded after the close");
        let lists = 2 * self.n;
        for m in &self.marks {
            self.offsets[m.list as usize + 1] += 1;
        }
        for k in 0..lists {
            self.offsets[k + 1] += self.offsets[k];
        }
        self.senders.resize(self.marks.len(), 0);
        // `offsets[k]` serves as list k's write cursor and ends at the
        // start of k + 1; shifting by one slot restores the starts.
        for m in &self.marks {
            let cursor = &mut self.offsets[m.list as usize];
            self.senders[*cursor as usize] = m.sender;
            *cursor += 1;
        }
        self.offsets.copy_within(0..lists, 1);
        self.offsets[0] = 0;
        self.marks.clear();
        if std::mem::take(&mut self.unordered) {
            self.sort_and_dedup_lists();
        }
        for r in 0..self.n {
            if self.offsets[2 * r + 2] > self.offsets[2 * r] {
                self.dirty[r / 64] |= 1 << (r % 64);
            }
        }
    }

    /// Sorts every list and drops repeated senders, compacting the
    /// lists in place.
    fn sort_and_dedup_lists(&mut self) {
        let mut write = 0;
        for k in 0..2 * self.n {
            let (start, end) = (self.offsets[k] as usize, self.offsets[k + 1] as usize);
            self.senders[start..end].sort_unstable();
            self.offsets[k] = write as u32;
            for i in start..end {
                let s = self.senders[i];
                if write == self.offsets[k] as usize || self.senders[write - 1] != s {
                    self.senders[write] = s;
                    write += 1;
                }
            }
        }
        self.offsets[2 * self.n] = write as u32;
        self.senders.truncate(write);
    }

    /// Sets the corrupted-sender bitset from the ledger's flags.
    pub fn set_corrupted(&mut self, flags: &[bool]) {
        debug_assert_eq!(flags.len(), self.n);
        for (word, chunk) in self.corrupted.iter_mut().zip(flags.chunks(64)) {
            let mut bits = 0u64;
            for (i, &f) in chunk.iter().enumerate() {
                bits |= (f as u64) << i;
            }
            *word = bits;
        }
    }

    // --- probe-side query API ---------------------------------------

    /// Bitset of senders whose broadcast base is on the arrivals plane.
    #[inline]
    pub fn base_senders(&self) -> &[u64] {
        &self.base_senders
    }

    /// Bit size of sender `s`'s base message (0 when it has none).
    #[inline]
    pub fn base_bits(&self, s: usize) -> u32 {
        self.base_bits[s]
    }

    /// Receiver `r`'s list `k` (0 knocked, 1 extra).
    #[inline]
    fn list(&self, r: usize, k: usize) -> &[u32] {
        debug_assert!(self.marks.is_empty(), "scan read before finish_base_recv");
        let k = 2 * r + k;
        &self.senders[self.offsets[k] as usize..self.offsets[k + 1] as usize]
    }

    /// The base senders whose base receiver `r` does not get, ascending.
    #[inline]
    pub fn knocked_row(&self, r: usize) -> &[u32] {
        self.list(r, 0)
    }

    /// The senders of explicit messages to receiver `r`, ascending.
    #[inline]
    pub fn extra_row(&self, r: usize) -> &[u32] {
        self.list(r, 1)
    }

    /// Whether `r` receives exactly the broadcast bases (no knocked or
    /// extra senders) — the fast path for online closure.
    #[inline]
    pub fn is_clean(&self, r: usize) -> bool {
        self.dirty[r / 64] & (1 << (r % 64)) == 0
    }

    /// Bit `r`: receiver `r`'s in-set deviates from the broadcast bases.
    /// All-zero means every receiver is clean — consumers can skip
    /// per-receiver [`ArrivalScan::is_clean`] probing entirely.
    #[inline]
    pub fn dirty(&self) -> &[u64] {
        &self.dirty
    }

    /// Writes receiver `r`'s arrival in-set,
    /// `(base_senders \ knocked(r)) ∪ extra(r)`, into `out`
    /// (`out.len() == words`).
    pub fn in_set(&self, r: usize, out: &mut [u64]) {
        out.copy_from_slice(&self.base_senders);
        for &s in self.knocked_row(r) {
            out[s as usize / 64] &= !(1 << (s % 64));
        }
        for &s in self.extra_row(r) {
            out[s as usize / 64] |= 1 << (s % 64);
        }
    }

    /// Whether a message `s → r` arrives this round.
    pub fn has_message(&self, s: usize, r: usize) -> bool {
        let sender = s as u32;
        let base = self.base_senders[s / 64] & (1 << (s % 64)) != 0;
        (base && self.knocked_row(r).binary_search(&sender).is_err())
            || self.extra_row(r).binary_search(&sender).is_ok()
    }

    /// Per-sender offered message counts (index = sender id).
    #[inline]
    pub fn sent_msgs(&self) -> &[u32] {
        &self.sent_msgs
    }

    /// Per-sender offered bit counts.
    #[inline]
    pub fn sent_bits(&self) -> &[u64] {
        &self.sent_bits
    }

    /// Per-receiver delivered message counts.
    #[inline]
    pub fn recv_msgs(&self) -> &[u32] {
        &self.recv_msgs
    }

    /// Per-receiver delivered bit counts.
    #[inline]
    pub fn recv_bits(&self) -> &[u64] {
        &self.recv_bits
    }

    /// Bitset of corrupted senders at scan time.
    #[inline]
    pub fn corrupted(&self) -> &[u64] {
        &self.corrupted
    }

    /// Whether node `s` was corrupted at scan time.
    #[inline]
    pub fn is_corrupted(&self, s: usize) -> bool {
        self.corrupted[s / 64] & (1 << (s % 64)) != 0
    }
}

fn resize_zero<T: Copy + Default>(v: &mut Vec<T>, len: usize) {
    v.clear();
    v.resize(len, T::default());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_set_combines_base_knocked_and_extra() {
        let mut s = ArrivalScan::new();
        s.reset(70);
        s.mark_base(0, 8);
        s.mark_base(65, 16);
        s.mark_knocked(3, 0); // 3 loses 0's base
        s.mark_extra(3, 7); // 7 -> 3 explicit
        s.finish_base_recv();
        assert!(!s.is_clean(3));
        assert!(s.is_clean(4));
        assert!(s.has_message(65, 3));
        assert!(!s.has_message(0, 3));
        assert!(s.has_message(7, 3));
        assert!(s.has_message(0, 4) && s.has_message(65, 4));
        let mut buf = vec![0u64; s.words()];
        s.in_set(3, &mut buf);
        assert_eq!(buf[0], 1 << 7);
        assert_eq!(buf[1], 1 << 1);
    }

    #[test]
    fn reset_clears_everything_and_resizes() {
        let mut s = ArrivalScan::new();
        s.reset(10);
        s.mark_base(9, 4);
        s.mark_extra(1, 2);
        s.add_sent(0, 3, 24);
        s.add_recv(1, 1, 8);
        s.set_corrupted(&[
            true, false, false, false, false, false, false, false, false, false,
        ]);
        s.finish_base_recv();
        assert!(s.is_corrupted(0));
        assert!(!s.is_clean(1));
        assert_eq!(s.extra_row(1), &[2]);
        s.reset(4);
        assert_eq!(s.n(), 4);
        assert!(s.is_clean(1));
        assert_eq!(s.sent_msgs(), &[0; 4]);
        assert_eq!(s.recv_bits(), &[0; 4]);
        assert!(!s.is_corrupted(0));
        assert!(s.extra_row(1).is_empty());
        assert!((0..4).all(|r| !s.has_message(2, r)));
    }

    #[test]
    fn same_size_reset_after_a_closed_scan_leaves_nothing_behind() {
        // The engine's per-round reuse: a closed, dirty scan is reset at
        // the same `n` and refilled; nothing of the first round may show.
        let n = 130;
        let mut s = ArrivalScan::new();
        s.reset(n);
        s.mark_base(0, 8);
        s.mark_base(129, 8);
        for r in [1, 64, 129] {
            s.mark_knocked(r, 0);
            s.mark_extra(r, 5);
        }
        s.add_sent(0, 2, 16);
        s.finish_base_recv();
        assert_eq!(s.dirty().iter().map(|w| w.count_ones()).sum::<u32>(), 3);
        s.reset(n);
        assert!(s.dirty().iter().all(|&w| w == 0));
        assert!((0..n).all(|r| s.is_clean(r)));
        assert!((0..n).all(|r| s.knocked_row(r).is_empty() && s.extra_row(r).is_empty()));
        assert!((0..n).all(|r| !s.has_message(0, r) && !s.has_message(5, r)));
        assert!(s.sent_msgs().iter().chain(s.recv_msgs()).all(|&m| m == 0));
        // Closing an empty round keeps it empty; a second round's marks
        // read back alone.
        s.finish_base_recv();
        assert!((0..n).all(|r| s.is_clean(r) && s.recv_msgs()[r] == 0));
        s.reset(n);
        s.mark_base(3, 4);
        s.mark_knocked(64, 3);
        s.finish_base_recv();
        let dirty: Vec<usize> = (0..n).filter(|&r| !s.is_clean(r)).collect();
        assert_eq!(dirty, vec![64]);
        assert_eq!(s.knocked_row(64), &[3]);
        assert!((0..n).all(|r| s.extra_row(r).is_empty()));
        assert!(s.knocked_row(1).is_empty() && s.knocked_row(129).is_empty());
        assert!(!s.has_message(3, 64) && s.has_message(3, 1));
    }

    #[test]
    fn finish_base_recv_applies_the_counting_convention() {
        let mut s = ArrivalScan::new();
        s.reset(4);
        // Bases from 0 (8 bits) and 1 (16 bits); receiver 2 loses 0's
        // base; receiver 1 gets its own base (free self-copy).
        s.mark_base(0, 8);
        s.mark_base(1, 16);
        s.mark_knocked(2, 0);
        s.finish_base_recv();
        // r=0: own base free, 1's base counts -> (1, 16)
        assert_eq!((s.recv_msgs()[0], s.recv_bits()[0]), (1, 16));
        // r=1: 0's base counts, own free -> (1, 8)
        assert_eq!((s.recv_msgs()[1], s.recv_bits()[1]), (1, 8));
        // r=2: 0's base knocked, 1's counts -> (1, 16)
        assert_eq!((s.recv_msgs()[2], s.recv_bits()[2]), (1, 16));
        // r=3: both count -> (2, 24)
        assert_eq!((s.recv_msgs()[3], s.recv_bits()[3]), (2, 24));
    }

    #[test]
    fn finish_base_recv_handles_own_base_knocked_for_self() {
        let mut s = ArrivalScan::new();
        s.reset(2);
        s.mark_base(0, 8);
        s.mark_knocked(0, 0); // 0 loses its own (free) self-copy
        s.finish_base_recv();
        assert_eq!((s.recv_msgs()[0], s.recv_bits()[0]), (0, 0));
        assert_eq!((s.recv_msgs()[1], s.recv_bits()[1]), (1, 8));
    }

    #[test]
    fn hand_built_marks_read_back_sorted_and_deduplicated() {
        // Marks arriving out of sender order and repeated — the way the
        // provenance naive-closure differential builds its scans — read
        // back as the bit rows did: each list ascending, each sender
        // once, knocked and extra kept apart, clean receivers empty.
        let mut s = ArrivalScan::new();
        s.reset(130);
        for sender in [129, 64, 3, 64, 0, 129, 63] {
            s.mark_base(sender, 8);
            s.mark_knocked(5, sender);
        }
        for (r, sender) in [(5, 100), (128, 7), (5, 2), (5, 100), (128, 7), (5, 64)] {
            s.mark_extra(r, sender);
        }
        s.finish_base_recv();
        assert_eq!(s.knocked_row(5), &[0, 3, 63, 64, 129]);
        assert_eq!(s.extra_row(5), &[2, 64, 100]);
        assert!(s.knocked_row(128).is_empty());
        assert_eq!(s.extra_row(128), &[7]);
        let dirty: Vec<usize> = (0..130).filter(|&r| !s.is_clean(r)).collect();
        assert_eq!(dirty, vec![5, 128]);
        assert!(s.extra_row(4).is_empty() && s.knocked_row(129).is_empty());
        // Receiver 5 gets 64 explicitly, its knocked base back only
        // through the extra; every base reaches clean receiver 6.
        assert!(s.has_message(64, 5) && !s.has_message(63, 5));
        assert!([0, 3, 63, 64, 129].iter().all(|&b| s.has_message(b, 6)));
        // Each knocked base is subtracted once: 5 keeps none of its
        // five bases (none is its own).
        assert_eq!(s.recv_msgs()[5], 0);
        assert_eq!(s.recv_msgs()[6], 5);
    }

    #[test]
    fn counters_accumulate() {
        let mut s = ArrivalScan::new();
        s.reset(3);
        s.add_sent(1, 2, 10);
        s.add_sent(1, 1, 5);
        s.add_recv(2, 4, 40);
        assert_eq!(s.sent_msgs()[1], 3);
        assert_eq!(s.sent_bits()[1], 15);
        assert_eq!(s.recv_msgs()[2], 4);
        assert_eq!(s.recv_bits()[2], 40);
    }
}
