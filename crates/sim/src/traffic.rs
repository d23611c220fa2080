//! The counting convention and the max-edge bookkeeping, kept once for
//! every message plane.
//!
//! A plane stores messages; [`Traffic`] counts them. Each plane holds
//! one and reports every row edit to it, so the three planes share one
//! copy of the rules below, and their counters agree by construction.
//!
//! # Counting convention
//!
//! [`MessagePlane::message_count`](crate::plane::MessagePlane::message_count)
//! and [`MessagePlane::total_bits`](crate::plane::MessagePlane::total_bits)
//! count point-to-point wire messages. A broadcast is `n - 1` messages:
//! the sender's self-copy of its own broadcast is local and free, as the
//! paper counts it. An explicit message a sender addresses to itself
//! counts, and a later per-recipient entry for a receiver replaces an
//! earlier one.
//!
//! # Max-edge bookkeeping
//!
//! Each row caches the largest message it holds and the plane caches the
//! largest row maximum, so
//! [`MessagePlane::max_edge_bits`](crate::plane::MessagePlane::max_edge_bits)
//! is an O(1) read while no edit lowered a row maximum. An edit that may
//! have lowered one leaves the cached value as an upper bound and marks
//! the row dirty; a dirty row dirties the plane. Both flags stay set
//! until the next reset, and a read of a dirty plane rescans every dirty
//! row from the plane's storage without memoizing the result. A clean
//! row's cached maximum may read high (a broadcast layered under a row
//! whose every receiver is taken still raises it); `max_edge_bits` feeds
//! the pinned artifacts, so this rule is part of every plane's contract.
//!
//! A dirty row implies a dirty plane, so an edit of a dirty row needs no
//! rescan: whatever the row's maximum was, the plane stays dirty.

/// One sender row's traffic this round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct RowTraffic {
    /// Countable messages in the row.
    count: usize,
    /// Total bits of the counted messages.
    bits: usize,
    /// The largest message in the row, in bits: exact while the row is
    /// clean, an upper bound once it is dirty.
    max_bits: usize,
    /// Set when an edit may have lowered the row maximum.
    dirty: bool,
}

impl RowTraffic {
    /// A row whose `bits`-bit broadcast reaches all `n` receivers but
    /// `knocked` of them, the sender not among those `knocked`.
    pub(crate) fn broadcast(n: usize, knocked: usize, bits: usize) -> Self {
        let count = n.saturating_sub(1) - knocked;
        RowTraffic {
            count,
            bits: count * bits,
            max_bits: bits,
            dirty: false,
        }
    }

    /// Counts `k` more `bits`-bit messages. The row maximum rises to
    /// `bits` even when `k` is zero.
    pub(crate) fn add(&mut self, k: usize, bits: usize) {
        self.count += k;
        self.bits += k * bits;
        self.max_bits = self.max_bits.max(bits);
    }

    /// A later per-recipient entry of `bits` bits replaces an earlier,
    /// counted one of `old` bits, which may have held the row maximum.
    pub(crate) fn supersede(&mut self, old: usize, bits: usize) {
        self.bits = self.bits + bits - old;
        self.max_bits = self.max_bits.max(bits);
        self.dirty = true;
    }

    /// An explicit `bits`-bit message from sender `me` replaces
    /// receiver `r`'s entry `held`. The replaced entry stops counting,
    /// and the row turns dirty only when it was the row maximum and at
    /// least as large as its replacement.
    fn replace(&mut self, me: usize, r: usize, held: Held, bits: usize) {
        let old = match held {
            Held::Nothing => None,
            Held::Base(b) => (r != me).then_some(b),
            Held::Explicit(b) => Some(b),
        };
        if let Some(old) = old {
            self.count -= 1;
            self.bits -= old;
            if old >= bits && old == self.max_bits {
                self.dirty = true;
            }
        }
        self.add(1, bits);
    }
}

/// What a receiver gets from a row before an explicit message replaces
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Held {
    /// Nothing: the row has no base, or the receiver is knocked out.
    Nothing,
    /// The row's broadcast base, of this many bits.
    Base(usize),
    /// An explicit message, of this many bits.
    Explicit(usize),
}

/// A plane's traffic: every row's counters, their totals and the cached
/// maximum. See the module docs for the rules.
#[derive(Debug, Clone, Default)]
pub(crate) struct Traffic {
    rows: Vec<RowTraffic>,
    count: usize,
    bits: usize,
    /// The largest row maximum folded in since the reset; the answer
    /// while the plane is clean.
    max_cache: usize,
    /// Set once a folded row was dirty or had a lower maximum than
    /// before; cleared only by [`Traffic::reset`].
    max_dirty: bool,
}

impl Traffic {
    /// Zeroes every counter and flag for an `n`-row plane, keeping the
    /// allocation.
    pub(crate) fn reset(&mut self, n: usize) {
        self.rows.clear();
        self.rows.resize(n, RowTraffic::default());
        self.count = 0;
        self.bits = 0;
        self.max_cache = 0;
        self.max_dirty = false;
    }

    /// Row `me`'s counters, the starting point of an edit that keeps
    /// what the row holds.
    pub(crate) fn row(&self, me: usize) -> RowTraffic {
        self.rows[me]
    }

    /// The edit fold: replaces row `me`'s counters with `row`, the
    /// row's counters after the edit. The old counters leave the totals
    /// and the new ones enter them; a row that is dirty, or whose
    /// maximum fell, dirties the plane.
    pub(crate) fn fold(&mut self, me: usize, row: RowTraffic) {
        let old = std::mem::replace(&mut self.rows[me], row);
        self.count = self.count - old.count + row.count;
        self.bits = self.bits - old.bits + row.bits;
        if row.dirty || row.max_bits < old.max_bits {
            self.max_dirty = true;
        } else if !self.max_dirty {
            self.max_cache = self.max_cache.max(row.max_bits);
        }
    }

    /// The pure-add path: counts `k` `bits`-bit messages installed
    /// into vacant pairs of row `me`. An add never lowers a row maximum,
    /// and nothing is counted when `k` is zero.
    pub(crate) fn add(&mut self, me: usize, k: usize, bits: usize) {
        if k > 0 {
            let mut row = self.rows[me];
            row.add(k, bits);
            self.fold(me, row);
        }
    }

    /// The replace path: an explicit `bits`-bit message from row `me`
    /// overwrites receiver `r`'s entry `held`.
    pub(crate) fn replace(&mut self, me: usize, r: usize, held: Held, bits: usize) {
        let mut row = self.rows[me];
        row.replace(me, r, held, bits);
        self.fold(me, row);
    }

    /// Countable messages this round.
    pub(crate) fn message_count(&self) -> usize {
        self.count
    }

    /// Bits of the countable messages this round.
    pub(crate) fn total_bits(&self) -> usize {
        self.bits
    }

    /// Row `me`'s `(messages, bits)`.
    pub(crate) fn row_traffic(&self, me: usize) -> (usize, usize) {
        (self.rows[me].count, self.rows[me].bits)
    }

    /// The largest message on any edge this round. A dirty plane asks
    /// `rescan` for the exact maximum of every dirty row, each read.
    pub(crate) fn max_edge_bits(&self, rescan: impl Fn(usize) -> usize) -> usize {
        if !self.max_dirty {
            return self.max_cache;
        }
        self.rows
            .iter()
            .enumerate()
            .map(|(s, row)| if row.dirty { rescan(s) } else { row.max_bits })
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A rescan that must never run.
    fn no_rescan(s: usize) -> usize {
        panic!("row {s} rescanned on a clean plane")
    }

    #[test]
    fn shrinking_replacement_dirties_row_and_plane() {
        let mut t = Traffic::default();
        t.reset(3);
        t.replace(0, 1, Held::Nothing, 32);
        t.replace(2, 1, Held::Nothing, 8);
        assert_eq!(t.max_edge_bits(no_rescan), 32);
        // The 32-bit row maximum gives way to a 4-bit message.
        t.replace(0, 1, Held::Explicit(32), 4);
        assert!(t.row(0).dirty);
        assert_eq!(t.row(0).max_bits, 32, "the cache stays an upper bound");
        assert_eq!(t.row_traffic(0), (1, 4));
        assert_eq!((t.message_count(), t.total_bits()), (2, 12));
        assert_eq!(t.max_edge_bits(|s| [4, 0, 8][s]), 8);
        // A replacement that grows the edge leaves the row clean, and so
        // does replacing the sender's own free self-copy.
        let mut u = Traffic::default();
        u.reset(2);
        u.fold(0, RowTraffic::broadcast(2, 0, 8));
        u.replace(0, 0, Held::Base(8), 4);
        u.replace(0, 1, Held::Base(8), 16);
        assert!(!u.row(0).dirty);
        assert_eq!(u.row_traffic(0), (2, 20));
        assert_eq!(u.max_edge_bits(no_rescan), 16);
    }

    #[test]
    fn dirty_rescan_is_not_memoized() {
        let mut t = Traffic::default();
        t.reset(2);
        let mut row = RowTraffic::default();
        row.add(1, 16);
        row.supersede(16, 4);
        t.fold(1, row);
        let calls = Cell::new(0);
        let rescan = |s: usize| {
            calls.set(calls.get() + 1);
            assert_eq!(s, 1, "only the dirty row is rescanned");
            4
        };
        assert_eq!(t.max_edge_bits(rescan), 4);
        assert_eq!(t.max_edge_bits(rescan), 4);
        assert_eq!(calls.get(), 2, "every read rescans");
        assert!(t.row(1).dirty);
        // A clean refill clears the row's flag; the plane's stays set.
        t.fold(1, RowTraffic::broadcast(2, 0, 8));
        t.add(0, 1, 2);
        assert_eq!(t.max_edge_bits(no_rescan), 8, "no dirty row is left");
        assert!(t.max_dirty, "the plane stays dirty until the reset");
    }

    #[test]
    fn pure_add_on_a_clean_plane_keeps_the_maximum_exact() {
        let mut t = Traffic::default();
        t.reset(4);
        t.fold(0, RowTraffic::broadcast(4, 1, 8));
        t.add(1, 3, 4);
        t.add(2, 0, 64);
        assert_eq!(
            t.row(2),
            RowTraffic::default(),
            "an empty add counts nothing"
        );
        assert_eq!(t.max_edge_bits(no_rescan), 8);
        t.add(1, 1, 12);
        assert_eq!(t.max_edge_bits(no_rescan), 12);
        assert_eq!(t.row_traffic(0), (2, 16));
        assert_eq!(t.row_traffic(1), (4, 24));
        assert_eq!((t.message_count(), t.total_bits()), (6, 40));
    }

    #[test]
    fn reset_clears_everything() {
        let mut t = Traffic::default();
        t.reset(3);
        t.fold(0, RowTraffic::broadcast(3, 0, 8));
        t.replace(0, 1, Held::Base(8), 2);
        assert!(t.max_dirty);
        t.reset(3);
        assert!((0..3).all(|s| t.row(s) == RowTraffic::default()));
        assert_eq!((t.message_count(), t.total_bits()), (0, 0));
        assert!(!t.max_dirty);
        assert_eq!(t.max_edge_bits(no_rescan), 0);
        t.reset(5);
        assert!((0..5).all(|s| t.row(s) == RowTraffic::default()));
        t.add(4, 1, 8);
        assert_eq!(t.max_edge_bits(no_rescan), 8);
    }
}
