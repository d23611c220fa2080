//! The bit-packed binary message plane.
//!
//! For binary BA the effective message alphabet is a few bits, yet the
//! dense [`RoundMailbox`](crate::mailbox::RoundMailbox) stores a full
//! message enum per deviation cell and resolves tallies by iterating
//! `n` senders per receiver. [`PackedMailbox`] specializes the plane
//! for messages that fit a 32-bit code ([`PackedMessage`]):
//!
//! * **Row layout.** Per sender: an optional broadcast base (stored
//!   both decoded, for by-reference access, and as its packed code, for
//!   tallies) plus two u64-word bitset lanes over receivers — `dev`
//!   (this cell deviates from the base) and `has` (an explicit message
//!   is present; `has ⊆ dev`, and `dev ∧ ¬has` marks a knock-out).
//!   Explicit cells store their packed codes in a per-row arena that is
//!   materialized only when a row first deviates.
//! * **Column mirrors.** The same `dev`/`has` bits are maintained
//!   column-major (word `w` of receiver `r` covers senders
//!   `64w..64w+64`), updated incrementally on every mutation, so a
//!   receiver-side tally never walks rows.
//! * **Word-parallel tallies.** A threshold/majority query is a masked
//!   count — *how many senders' messages `code` satisfy
//!   `code & mask == bits`?* — answered per receiver as
//!   `popcount(matching-bases ∧ ¬dev-column)` plus a walk of the (rare)
//!   explicit cells. The matching-bases bitset is computed once per
//!   query shape per round and cached; with zero deviations the whole
//!   tally is `n/64` popcounts.
//! * **Pooling.** Like the dense plane, [`MessagePlane::reset`] keeps
//!   every allocation; after warm-up a synchronous round allocates
//!   nothing.
//!
//! The plane reproduces the dense mailbox's observable semantics
//! exactly — counting convention, replace/merge rules, inbox order —
//! which `crates/sim/tests/packed_differential.rs` enforces over the
//! whole mutation surface.
//!
//! # Codec contract
//!
//! `PackedMessage::unpack(pack(m)) == m` must hold for every message
//! the protocol family can emit. Inserting a message whose
//! [`PackedMessage::pack`] returns `None` **panics**: the packed plane
//! is an opt-in hot path for protocol families whose whole alphabet is
//! known to fit (committee-BA phase counters cap far below the codec's
//! 18-bit phase field), and silently spilling to a side table would
//! cost every tally its word-parallelism.

use crate::id::NodeId;
use crate::mailbox::Inbox;
use crate::message::{Emission, Message};
use crate::plane::MessagePlane;
use std::ops::Range;
use std::sync::{Arc, Mutex};

/// A message with a lossless 32-bit packed encoding.
pub trait PackedMessage: Message + PartialEq {
    /// Packs the message into a 32-bit code, or `None` if this value
    /// does not fit the codec.
    fn pack(&self) -> Option<u32>;

    /// Inverse of [`PackedMessage::pack`]: `unpack(pack(m)) == m` must
    /// hold whenever `pack` succeeds.
    fn unpack(code: u32) -> Self;
}

/// Per-round cache of masked-count query bitsets (one bit per sender
/// whose broadcast-base code matches), invalidated by any mutation.
#[derive(Debug, Default)]
struct QueryCache {
    /// Plane edit epoch the live entries were built against; a mismatch
    /// with [`PackedMailbox::epoch`] means every entry is stale. Kept
    /// inside the lock so mutators never have to take it — they bump the
    /// plane epoch (a plain store through `&mut self`) instead.
    built_epoch: u64,
    /// Entries `0..live` are valid for `built_epoch`; later entries are
    /// retained buffers from earlier rounds.
    live: usize,
    entries: Vec<(u32, u32, Arc<Vec<u64>>)>,
}

/// Recovers a poisoned lock: the cache holds pure derived data, so a
/// panicked holder cannot leave it logically corrupt (the next
/// invalidation or rebuild overwrites it).
fn lock_cache(m: &Mutex<QueryCache>) -> std::sync::MutexGuard<'_, QueryCache> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The bit-packed message plane. See the module docs for the layout.
pub struct PackedMailbox<M> {
    n: usize,
    /// Words per bitset lane: `ceil(n / 64)`.
    words: usize,
    /// Per-sender broadcast base, decoded (for by-reference access).
    base: Vec<Option<M>>,
    /// Packed code of the base; valid iff `base[s].is_some()`.
    base_code: Vec<u32>,
    /// One bit per sender with a base.
    base_mask: Vec<u64>,
    /// Whether the row's deviation lanes are live this round.
    dense: Vec<bool>,
    /// Row-major deviation bits, `n * words` (empty until first use).
    dev: Vec<u64>,
    /// Row-major explicit-message bits, subset of `dev`.
    has: Vec<u64>,
    /// Column-major mirror of `dev` (receiver-major over senders).
    col_dev: Vec<u64>,
    /// Column-major mirror of `has`.
    col_has: Vec<u64>,
    /// Per-row explicit-cell codes, materialized on first deviation.
    codes: Vec<Vec<u32>>,
    row_count: Vec<usize>,
    row_bits: Vec<usize>,
    row_max: Vec<usize>,
    row_max_dirty: Vec<bool>,
    count: usize,
    bits: usize,
    max_cache: usize,
    max_dirty: bool,
    /// Edit counter: bumped by every mutation (`begin_edit` / `reset`),
    /// compared against [`QueryCache::built_epoch`] on the query path —
    /// so invalidation is a plain increment, never a lock.
    epoch: u64,
    queries: Mutex<QueryCache>,
}

impl<M> Default for PackedMailbox<M> {
    /// An empty zero-node plane — the pooling placeholder. Call
    /// [`MessagePlane::reset`] to size it before use.
    fn default() -> Self {
        PackedMailbox {
            n: 0,
            words: 0,
            base: Vec::new(),
            base_code: Vec::new(),
            base_mask: Vec::new(),
            dense: Vec::new(),
            dev: Vec::new(),
            has: Vec::new(),
            col_dev: Vec::new(),
            col_has: Vec::new(),
            codes: Vec::new(),
            row_count: Vec::new(),
            row_bits: Vec::new(),
            row_max: Vec::new(),
            row_max_dirty: Vec::new(),
            count: 0,
            bits: 0,
            max_cache: 0,
            max_dirty: false,
            epoch: 0,
            queries: Mutex::new(QueryCache::default()),
        }
    }
}

impl<M> std::fmt::Debug for PackedMailbox<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackedMailbox")
            .field("n", &self.n)
            .field("count", &self.count)
            .field("bits", &self.bits)
            .finish_non_exhaustive()
    }
}

/// One cell's state, decoded from the bit lanes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum CellState {
    Inherit,
    Knocked,
    Code(u32),
}

/// The word mask selecting senders `range ∩ [64w, 64w + 64)`.
fn range_word(range: &Range<u32>, w: usize) -> u64 {
    let lo = range.start as usize;
    let hi = range.end as usize;
    let word_lo = w * 64;
    let word_hi = word_lo + 64;
    let lo = lo.max(word_lo);
    let hi = hi.min(word_hi);
    if lo >= hi {
        return 0;
    }
    let span = hi - lo;
    let m = if span == 64 {
        !0u64
    } else {
        (1u64 << span) - 1
    };
    m << (lo - word_lo)
}

// ---------------------------------------------------------------------
// Bound-free internals: everything that operates on codes and bitsets
// without decoding (used by `Inbox` whatever the message bound).
// ---------------------------------------------------------------------
impl<M: Message> PackedMailbox<M> {
    /// Number of nodes in the network.
    pub fn n(&self) -> usize {
        self.n
    }

    fn bit(&self, lane: &[u64], row: usize, idx: usize) -> bool {
        if lane.is_empty() {
            return false;
        }
        lane[row * self.words + idx / 64] & (1u64 << (idx % 64)) != 0
    }

    fn cell_state(&self, s: usize, r: usize) -> CellState {
        if !self.dense[s] || !self.bit(&self.dev, s, r) {
            CellState::Inherit
        } else if self.bit(&self.has, s, r) {
            CellState::Code(self.codes[s][r])
        } else {
            CellState::Knocked
        }
    }

    /// The effective code `receiver` gets from `sender`, if any.
    fn effective_code(&self, s: usize, r: usize) -> Option<u32> {
        match self.cell_state(s, r) {
            CellState::Inherit => self.base[s].is_some().then(|| self.base_code[s]),
            CellState::Knocked => None,
            CellState::Code(c) => Some(c),
        }
    }

    /// Number of messages addressed to `receiver`: word-parallel, O(n/64).
    pub(crate) fn inbox_len(&self, receiver: NodeId) -> usize {
        let r = receiver.index();
        if self.col_dev.is_empty() {
            return self.base_mask.iter().map(|w| w.count_ones() as usize).sum();
        }
        let cd = &self.col_dev[r * self.words..(r + 1) * self.words];
        let ch = &self.col_has[r * self.words..(r + 1) * self.words];
        self.base_mask
            .iter()
            .zip(cd)
            .zip(ch)
            .map(|((b, d), h)| ((b & !d) | h).count_ones() as usize)
            .sum()
    }

    /// Decodes `receiver`'s inbox into `out`, in sender order.
    pub(crate) fn fill_inbox(
        &self,
        receiver: NodeId,
        decode: fn(u32) -> M,
        out: &mut Vec<(NodeId, M)>,
    ) {
        let r = receiver.index();
        let (cd, ch): (&[u64], &[u64]) = if self.col_dev.is_empty() {
            (&[], &[])
        } else {
            (
                &self.col_dev[r * self.words..(r + 1) * self.words],
                &self.col_has[r * self.words..(r + 1) * self.words],
            )
        };
        for w in 0..self.words {
            let d = cd.get(w).copied().unwrap_or(0);
            let h = ch.get(w).copied().unwrap_or(0);
            let mut present = (self.base_mask[w] & !d) | h;
            while present != 0 {
                let s = w * 64 + present.trailing_zeros() as usize;
                let m = if h & (1u64 << (s % 64)) != 0 {
                    decode(self.codes[s][r])
                } else {
                    self.base[s].clone().expect("present bit implies a base")
                };
                out.push((NodeId::new(s as u32), m));
                present &= present - 1;
            }
        }
    }

    /// The bitset of senders whose base code satisfies
    /// `code & mask == bits`, computed once per shape per round.
    fn query(&self, mask: u32, bits: u32) -> Arc<Vec<u64>> {
        let mut cache = lock_cache(&self.queries);
        if cache.built_epoch != self.epoch {
            cache.live = 0;
            cache.built_epoch = self.epoch;
        }
        for (m, b, set) in &cache.entries[..cache.live] {
            if *m == mask && *b == bits {
                return Arc::clone(set);
            }
        }
        let mut set = vec![0u64; self.words];
        for (w, slot) in set.iter_mut().enumerate() {
            let mut b = self.base_mask[w];
            while b != 0 {
                let s = w * 64 + b.trailing_zeros() as usize;
                if self.base_code[s] & mask == bits {
                    *slot |= 1u64 << (s % 64);
                }
                b &= b - 1;
            }
        }
        let set = Arc::new(set);
        let live = cache.live;
        if live < cache.entries.len() {
            cache.entries[live] = (mask, bits, Arc::clone(&set));
        } else {
            cache.entries.push((mask, bits, Arc::clone(&set)));
        }
        cache.live = live + 1;
        set
    }

    /// How many senders (optionally restricted to `senders`) delivered
    /// `receiver` a message whose code satisfies `code & mask == bits`.
    /// Word-parallel over broadcast bases; explicit cells are checked
    /// individually.
    pub(crate) fn match_count(
        &self,
        receiver: NodeId,
        mask: u32,
        bits: u32,
        senders: Option<Range<u32>>,
    ) -> usize {
        let r = receiver.index();
        let q = self.query(mask, bits);
        let (cd, ch): (&[u64], &[u64]) = if self.col_dev.is_empty() {
            (&[], &[])
        } else {
            (
                &self.col_dev[r * self.words..(r + 1) * self.words],
                &self.col_has[r * self.words..(r + 1) * self.words],
            )
        };
        let mut total = 0usize;
        for w in 0..self.words {
            let rng = match &senders {
                Some(range) => range_word(range, w),
                None => !0u64,
            };
            if rng == 0 {
                continue;
            }
            let d = cd.get(w).copied().unwrap_or(0);
            total += (q[w] & !d & rng).count_ones() as usize;
            let mut h = ch.get(w).copied().unwrap_or(0) & rng;
            while h != 0 {
                let s = w * 64 + h.trailing_zeros() as usize;
                if self.codes[s][r] & mask == bits {
                    total += 1;
                }
                h &= h - 1;
            }
        }
        total
    }
}

// ---------------------------------------------------------------------
// Mutation surface (needs the codec).
// ---------------------------------------------------------------------
impl<M: PackedMessage> PackedMailbox<M> {
    /// Creates an empty plane for an `n`-node network.
    pub fn new(n: usize) -> Self {
        let mut p = Self::default();
        MessagePlane::reset(&mut p, n);
        p
    }

    /// Packs `m`, panicking on codec overflow (see the module docs).
    fn code_of(m: &M) -> u32 {
        let code = m.pack().unwrap_or_else(|| {
            panic!("message does not fit the packed plane's 32-bit codec: {m:?}")
        });
        debug_assert!(
            M::unpack(code) == *m,
            "packed codec is lossy for {m:?} (code {code:#x})"
        );
        code
    }

    fn bit_size_of_code(code: u32) -> usize {
        M::unpack(code).bit_size()
    }

    /// Materializes the bit lanes and row `me`'s code arena.
    fn ensure_dense(&mut self, me: usize) {
        if self.dev.is_empty() {
            let len = self.n * self.words;
            self.dev.resize(len, 0);
            self.has.resize(len, 0);
            self.col_dev.resize(len, 0);
            self.col_has.resize(len, 0);
        }
        if self.codes[me].is_empty() {
            self.codes[me].resize(self.n, 0);
        }
        self.dense[me] = true;
    }

    fn set_dev(&mut self, s: usize, r: usize, on: bool) {
        let (rw, rb) = (s * self.words + r / 64, 1u64 << (r % 64));
        let (cw, cb) = (r * self.words + s / 64, 1u64 << (s % 64));
        if on {
            self.dev[rw] |= rb;
            self.col_dev[cw] |= cb;
        } else {
            self.dev[rw] &= !rb;
            self.col_dev[cw] &= !cb;
        }
    }

    fn set_has(&mut self, s: usize, r: usize, on: bool) {
        let (rw, rb) = (s * self.words + r / 64, 1u64 << (r % 64));
        let (cw, cb) = (r * self.words + s / 64, 1u64 << (s % 64));
        if on {
            self.has[rw] |= rb;
            self.col_has[cw] |= cb;
        } else {
            self.has[rw] &= !rb;
            self.col_has[cw] &= !cb;
        }
    }

    fn set_base(&mut self, s: usize, m: Option<M>) {
        match m {
            Some(m) => {
                self.base_code[s] = Self::code_of(&m);
                self.base[s] = Some(m);
                self.base_mask[s / 64] |= 1u64 << (s % 64);
            }
            None => {
                self.base[s] = None;
                self.base_mask[s / 64] &= !(1u64 << (s % 64));
            }
        }
    }

    /// Empties row `me`, clearing its bits in both lane orientations.
    fn clear_row(&mut self, me: usize) {
        if self.dense[me] {
            for w in 0..self.words {
                let mut d = self.dev[me * self.words + w];
                self.dev[me * self.words + w] = 0;
                self.has[me * self.words + w] = 0;
                while d != 0 {
                    let r = w * 64 + d.trailing_zeros() as usize;
                    self.col_dev[r * self.words + me / 64] &= !(1u64 << (me % 64));
                    self.col_has[r * self.words + me / 64] &= !(1u64 << (me % 64));
                    d &= d - 1;
                }
            }
            self.dense[me] = false;
        }
        self.set_base(me, None);
        self.row_count[me] = 0;
        self.row_bits[me] = 0;
        self.row_max[me] = 0;
        self.row_max_dirty[me] = false;
    }

    /// The exact row maximum, rescanning if a removal dirtied it.
    fn row_current_max(&self, me: usize) -> usize {
        if !self.row_max_dirty[me] {
            return self.row_max[me];
        }
        let base_bits = self.base[me].as_ref().map_or(0, Message::bit_size);
        let dev_count: usize = if self.dense[me] {
            self.dev[me * self.words..(me + 1) * self.words]
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum()
        } else {
            0
        };
        let mut max = if self.base[me].is_some() && (!self.dense[me] || dev_count < self.n) {
            base_bits
        } else {
            0
        };
        if self.dense[me] {
            for w in 0..self.words {
                let mut h = self.has[me * self.words + w];
                while h != 0 {
                    let r = w * 64 + h.trailing_zeros() as usize;
                    max = max.max(Self::bit_size_of_code(self.codes[me][r]));
                    h &= h - 1;
                }
            }
        }
        max
    }

    /// Counter fold around a row edit, mirroring the dense
    /// `edit_row`: subtract the row from the global counters, run the
    /// edit, add it back, and track the max-cache validity.
    fn begin_edit(&mut self, me: usize) -> usize {
        self.epoch = self.epoch.wrapping_add(1);
        self.count -= self.row_count[me];
        self.bits -= self.row_bits[me];
        // NOTE: the rescan result must NOT be memoized into
        // `row_max[me]` (clearing the dirty flag): the mutators below
        // deliberately leave `row_max` as an upper bound and count on
        // the persistent dirty flag to force rescans — exactly like the
        // dense rows, whose observable `max_edge_bits` stream the packed
        // plane must reproduce bit-for-bit.
        self.row_current_max(me)
    }

    fn end_edit(&mut self, me: usize, old_max: usize) {
        self.count += self.row_count[me];
        self.bits += self.row_bits[me];
        if self.row_max_dirty[me] || self.row_max[me] < old_max {
            self.max_dirty = true;
        } else if !self.max_dirty {
            self.max_cache = self.max_cache.max(self.row_max[me]);
        }
    }

    /// `(counted, bits)` contribution of receiver `r` in row `me` — the
    /// base self-copy is free, explicit messages are not.
    fn contribution(&self, me: usize, r: usize) -> (bool, usize) {
        let via_base = matches!(self.cell_state(me, r), CellState::Inherit);
        match self.effective_code(me, r) {
            None => (false, 0),
            Some(code) => {
                if via_base && r == me {
                    (false, 0)
                } else if via_base {
                    (true, self.base[me].as_ref().map_or(0, Message::bit_size))
                } else {
                    (true, Self::bit_size_of_code(code))
                }
            }
        }
    }

    fn is_silent_row(&self, me: usize) -> bool {
        self.row_count[me] == 0 && self.effective_code(me, me).is_none()
    }

    /// Installs `code` (a `bs`-bit message) at every vacant pair of row
    /// `me` named in `receivers`, in order; compacts the busy receivers
    /// to the front and returns how many it installed. The code, the bit
    /// size and the epoch bump are paid once per call, not per receiver.
    ///
    /// Direct counter path, skipping the `begin_edit` fold: a pure add
    /// can never lower the row maximum, so no `old_max` snapshot is
    /// needed — and crucially no dirty-row rescan. Paying
    /// `row_current_max`'s full-row decode on every requeued delivery
    /// after a knock-out dirtied the row is what made BoundedDelay
    /// slower packed than dense. A dirty row implies the global cache is
    /// already dirty (`end_edit` propagates row dirt and nothing clears
    /// it until reset), so when `!max_dirty` the row maximum is exact
    /// and the cache update is sound.
    fn fill_vacant(&mut self, me: usize, receivers: &mut [u32], code: u32, bs: usize) -> usize {
        if receivers.is_empty() || (!self.dense[me] && self.base[me].is_some()) {
            return 0; // nothing offered, or a pure broadcast: every pair is occupied
        }
        let has_base = self.base[me].is_some();
        // A row that was not dense has no deviation bits, so every cell
        // still reads `Inherit` once its lanes are live.
        self.ensure_dense(me);
        let words = self.words;
        let (col_word, col_bit) = (me / 64, 1u64 << (me % 64));
        let mut busy = 0;
        for i in 0..receivers.len() {
            let r = receivers[i] as usize;
            let (w, bit) = (me * words + r / 64, 1u64 << (r % 64));
            // Inherit is vacant without a base, Knocked always, a code never.
            let vacant = if self.dev[w] & bit == 0 {
                !has_base
            } else {
                self.has[w] & bit == 0
            };
            if vacant {
                // An explicit message always counts (even a self-copy).
                self.dev[w] |= bit;
                self.has[w] |= bit;
                self.col_dev[r * words + col_word] |= col_bit;
                self.col_has[r * words + col_word] |= col_bit;
                self.codes[me][r] = code;
            } else {
                receivers[busy] = r as u32;
                busy += 1;
            }
        }
        let installed = receivers.len() - busy;
        if installed > 0 {
            self.epoch = self.epoch.wrapping_add(1);
            self.row_count[me] += installed;
            self.row_bits[me] += installed * bs;
            self.row_max[me] = self.row_max[me].max(bs);
            let row_max = self.row_max[me];
            self.count += installed;
            self.bits += installed * bs;
            if !self.max_dirty {
                self.max_cache = self.max_cache.max(row_max);
            }
        }
        installed
    }
}

impl<M: PackedMessage> MessagePlane<M> for PackedMailbox<M> {
    fn reset(&mut self, n: usize) {
        self.epoch = self.epoch.wrapping_add(1);
        if n != self.n {
            // Lane geometry depends on n; drop the bit lanes and rebuild
            // the per-sender vectors at the new size.
            self.words = n.div_ceil(64);
            self.dev.clear();
            self.has.clear();
            self.col_dev.clear();
            self.col_has.clear();
            self.base.clear();
            self.base.resize_with(n, || None);
            self.base_code.clear();
            self.base_code.resize(n, 0);
            self.base_mask.clear();
            self.base_mask.resize(self.words, 0);
            self.dense.clear();
            self.dense.resize(n, false);
            self.codes.clear();
            self.codes.resize_with(n, Vec::new);
            self.row_count.clear();
            self.row_count.resize(n, 0);
            self.row_bits.clear();
            self.row_bits.resize(n, 0);
            self.row_max.clear();
            self.row_max.resize(n, 0);
            self.row_max_dirty.clear();
            self.row_max_dirty.resize(n, false);
            self.n = n;
        } else if self.dense.iter().any(|d| *d) {
            // Same size, deviated rows present: sequential memsets over
            // the four bit-lane arrays beat `clear_row`'s per-bit column
            // unwinding as soon as a handful of rows deviated (a lossy
            // round dirties every row). Stale `codes` entries are
            // unreachable once their `has` bits are gone.
            self.dev.fill(0);
            self.has.fill(0);
            self.col_dev.fill(0);
            self.col_has.fill(0);
            self.base_mask.fill(0);
            self.dense.fill(false);
            for b in &mut self.base {
                *b = None;
            }
            self.row_count.fill(0);
            self.row_bits.fill(0);
            self.row_max.fill(0);
            self.row_max_dirty.fill(false);
        } else {
            for me in 0..n {
                if self.base[me].is_some() || self.row_max_dirty[me] {
                    self.clear_row(me);
                }
            }
        }
        self.count = 0;
        self.bits = 0;
        self.max_cache = 0;
        self.max_dirty = false;
    }

    fn n(&self) -> usize {
        self.n
    }

    fn set(&mut self, sender: NodeId, emission: Emission<M>) {
        let me = sender.index();
        match emission {
            Emission::Silent => MessagePlane::silence(self, sender),
            Emission::Broadcast(m) => {
                let old_max = self.begin_edit(me);
                self.clear_row(me);
                let bs = m.bit_size();
                self.row_count[me] = self.n.saturating_sub(1);
                self.row_bits[me] = bs * self.row_count[me];
                self.row_max[me] = bs;
                self.set_base(me, Some(m));
                self.end_edit(me, old_max);
            }
            Emission::PerRecipient(v) => {
                if v.is_empty() {
                    return MessagePlane::silence(self, sender);
                }
                let old_max = self.begin_edit(me);
                self.clear_row(me);
                self.ensure_dense(me);
                for (to, m) in v {
                    // Later entries override earlier ones.
                    let bs = m.bit_size();
                    let code = Self::code_of(&m);
                    let r = to.index();
                    match self.cell_state(me, r) {
                        CellState::Inherit | CellState::Knocked => {
                            self.row_count[me] += 1;
                            self.row_bits[me] += bs;
                        }
                        CellState::Code(old) => {
                            self.row_bits[me] += bs;
                            self.row_bits[me] -= Self::bit_size_of_code(old);
                            // The overridden duplicate may have held the
                            // running maximum; rescan lazily.
                            self.row_max_dirty[me] = true;
                        }
                    }
                    self.set_dev(me, r, true);
                    self.set_has(me, r, true);
                    self.codes[me][r] = code;
                    self.row_max[me] = self.row_max[me].max(bs);
                }
                self.end_edit(me, old_max);
            }
        }
    }

    fn silence(&mut self, sender: NodeId) {
        let me = sender.index();
        let old_max = self.begin_edit(me);
        self.clear_row(me);
        self.end_edit(me, old_max);
    }

    fn insert(&mut self, sender: NodeId, receiver: NodeId, m: M) {
        let me = sender.index();
        let r = receiver.index();
        let old_max = self.begin_edit(me);
        self.ensure_dense(me);
        let (counted, old_bits) = self.contribution(me, r);
        let bs = m.bit_size();
        let code = Self::code_of(&m);
        self.set_dev(me, r, true);
        self.set_has(me, r, true);
        self.codes[me][r] = code;
        if counted {
            self.row_bits[me] -= old_bits;
            self.row_count[me] -= 1;
            if old_bits >= bs && old_bits == self.row_max[me] {
                self.row_max_dirty[me] = true;
            }
        }
        self.row_count[me] += 1;
        self.row_bits[me] += bs;
        self.row_max[me] = self.row_max[me].max(bs);
        self.end_edit(me, old_max);
    }

    fn insert_if_vacant(&mut self, sender: NodeId, receiver: NodeId, m: M) -> Option<M> {
        let installed = self.fill_vacant(
            sender.index(),
            &mut [receiver.raw()],
            Self::code_of(&m),
            m.bit_size(),
        );
        (installed == 0).then_some(m)
    }

    fn insert_group_if_vacant(&mut self, sender: NodeId, receivers: &mut [u32], msg: &M) -> usize {
        self.fill_vacant(
            sender.index(),
            receivers,
            Self::code_of(msg),
            msg.bit_size(),
        )
    }

    fn set_broadcast_except(&mut self, sender: NodeId, msg: M, except: &[u32]) {
        let me = sender.index();
        if except.is_empty() {
            return MessagePlane::set(self, sender, Emission::Broadcast(msg));
        }
        let old_max = self.begin_edit(me);
        self.clear_row(me);
        self.ensure_dense(me);
        let bs = msg.bit_size();
        self.row_max[me] = bs;
        self.row_count[me] = self.n.saturating_sub(1);
        // The row was just cleared, so a cell is knocked iff its dev bit
        // is set — and the delivery stage hands us `except` in ascending
        // receiver order, which lets runs sharing a lane word fold into
        // one row-side read-modify-write (the per-receiver column bit is
        // scattered either way). Unsorted callers take the scalar path.
        if except.windows(2).all(|w| w[0] <= w[1]) {
            let words = self.words;
            let mut i = 0;
            while i < except.len() {
                let w = except[i] as usize / 64;
                let mut word = self.dev[me * words + w];
                while i < except.len() && except[i] as usize / 64 == w {
                    let r = except[i] as usize;
                    let bit = 1u64 << (r % 64);
                    if word & bit == 0 {
                        word |= bit;
                        self.col_dev[r * words + me / 64] |= 1u64 << (me % 64);
                        if r != me {
                            self.row_count[me] -= 1;
                        }
                    }
                    i += 1;
                }
                self.dev[me * words + w] = word;
            }
        } else {
            for &r in except {
                let r = r as usize;
                if !matches!(self.cell_state(me, r), CellState::Knocked) {
                    self.set_dev(me, r, true);
                    if r != me {
                        self.row_count[me] -= 1;
                    }
                }
            }
        }
        self.row_bits[me] = bs * self.row_count[me];
        self.set_base(me, Some(msg));
        self.end_edit(me, old_max);
    }

    fn merge_broadcast_except(
        &mut self,
        sender: NodeId,
        msg: M,
        except: &[u32],
        conflicts: &mut Vec<u32>,
    ) {
        let me = sender.index();
        debug_assert!(except.windows(2).all(|w| w[0] <= w[1]), "except not sorted");
        let old_max = self.begin_edit(me);
        assert!(
            self.base[me].is_none(),
            "merge_broadcast_except over an existing broadcast base"
        );
        self.ensure_dense(me);
        let bs = msg.bit_size();
        let mut k = 0usize;
        let mut inherited = 0usize;
        for r in 0..self.n {
            let mut is_knocked = false;
            while k < except.len() && except[k] as usize == r {
                is_knocked = true;
                k += 1;
            }
            match self.cell_state(me, r) {
                CellState::Code(_) => {
                    if !is_knocked {
                        conflicts.push(r as u32);
                    }
                }
                CellState::Knocked => {}
                CellState::Inherit => {
                    if is_knocked {
                        self.set_dev(me, r, true);
                    } else if r != me {
                        inherited += 1;
                    }
                }
            }
        }
        self.row_count[me] += inherited;
        self.row_bits[me] += inherited * bs;
        self.row_max[me] = self.row_max[me].max(bs);
        self.set_base(me, Some(msg));
        self.end_edit(me, old_max);
    }

    fn take_broadcast(&mut self, sender: NodeId) -> Option<M> {
        let me = sender.index();
        if self.dense[me] || self.base[me].is_none() {
            return None;
        }
        let old_max = self.begin_edit(me);
        let taken = self.base[me].take();
        self.clear_row(me);
        self.end_edit(me, old_max);
        taken
    }

    fn broadcast_base(&self, sender: NodeId) -> Option<&M> {
        self.base[sender.index()].as_ref()
    }

    fn broadcast_of(&self, sender: NodeId) -> Option<&M> {
        let me = sender.index();
        if self.dense[me] {
            None
        } else {
            self.base[me].as_ref()
        }
    }

    fn resolve_value(&self, sender: NodeId, receiver: NodeId) -> Option<M> {
        let me = sender.index();
        let r = receiver.index();
        match self.cell_state(me, r) {
            CellState::Inherit => self.base[me].clone(),
            CellState::Knocked => None,
            CellState::Code(c) => Some(M::unpack(c)),
        }
    }

    fn has_message(&self, sender: NodeId, receiver: NodeId) -> bool {
        self.effective_code(sender.index(), receiver.index())
            .is_some()
    }

    fn is_silent(&self, sender: NodeId) -> bool {
        self.is_silent_row(sender.index())
    }

    fn deviations(&self, sender: NodeId) -> impl Iterator<Item = (NodeId, Option<M>)> + '_ {
        let me = sender.index();
        // Walk the row's `dev` lane a word at a time; the matching `has`
        // word tells an explicit cell from a knock-out.
        let (dev, has): (&[u64], &[u64]) = if self.dense[me] {
            let row = me * self.words..(me + 1) * self.words;
            (&self.dev[row.clone()], &self.has[row])
        } else {
            (&[], &[])
        };
        let codes = &self.codes[me];
        let (mut w, mut word) = (0, 0u64);
        std::iter::from_fn(move || {
            while word == 0 {
                word = *dev.get(w)?;
                w += 1;
            }
            let b = word.trailing_zeros() as usize;
            word &= word - 1;
            let r = (w - 1) * 64 + b;
            let m = (has[w - 1] >> b & 1 != 0).then(|| M::unpack(codes[r]));
            Some((NodeId::new(r as u32), m))
        })
    }

    fn inbox(&self, receiver: NodeId) -> Inbox<'_, M> {
        Inbox::packed(self, M::unpack, receiver)
    }

    fn message_count(&self) -> usize {
        self.count
    }

    fn total_bits(&self) -> usize {
        self.bits
    }

    fn max_edge_bits(&self) -> usize {
        if !self.max_dirty {
            return self.max_cache;
        }
        (0..self.n)
            .map(|s| self.row_current_max(s))
            .max()
            .unwrap_or(0)
    }

    fn row_traffic(&self, sender: NodeId) -> (usize, usize) {
        let me = sender.index();
        (self.row_count[me], self.row_bits[me])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A byte message: code = value.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Tm(u8);
    impl Message for Tm {
        fn bit_size(&self) -> usize {
            8
        }
    }
    impl PackedMessage for Tm {
        fn pack(&self) -> Option<u32> {
            Some(self.0 as u32)
        }
        fn unpack(code: u32) -> Self {
            Tm(code as u8)
        }
    }

    fn id(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn broadcast_counts_n_minus_one_and_tallies_word_parallel() {
        let mut p = PackedMailbox::<Tm>::new(70); // crosses a word boundary
        for s in 0..70 {
            MessagePlane::set(&mut p, id(s), Emission::Broadcast(Tm((s % 2) as u8)));
        }
        assert_eq!(MessagePlane::message_count(&p), 70 * 69);
        assert_eq!(MessagePlane::max_edge_bits(&p), 8);
        let inbox = MessagePlane::inbox(&p, id(3));
        assert_eq!(inbox.len(), 70);
        // Masked count: value-1 senders are the odd IDs.
        assert_eq!(inbox.packed_match_count(0xFF, 1, None), Some(35));
        assert_eq!(inbox.packed_match_count(0xFF, 1, Some(0..10)), Some(5));
        assert_eq!(inbox.packed_match_count(0, 0, None), Some(70));
    }

    #[test]
    fn excepted_receivers_and_overrides_update_counts_and_tallies() {
        let mut p = PackedMailbox::<Tm>::new(5);
        MessagePlane::set_broadcast_except(&mut p, id(0), Tm(1), &[2]);
        assert_eq!(MessagePlane::message_count(&p), 3);
        assert!(!MessagePlane::has_message(&p, id(0), id(2)));
        MessagePlane::insert(&mut p, id(0), id(3), Tm(9));
        assert_eq!(MessagePlane::resolve_value(&p, id(0), id(3)), Some(Tm(9)));
        let inbox = MessagePlane::inbox(&p, id(3));
        assert_eq!(inbox.packed_match_count(0xFF, 9, None), Some(1));
        assert_eq!(inbox.packed_match_count(0xFF, 1, None), Some(0));
        let got: Vec<_> = inbox.iter().map(|(s, m)| (s.index(), m.0)).collect();
        assert_eq!(got, vec![(0, 9)]);
        // Receiver 2 was knocked out of the broadcast.
        assert!(MessagePlane::inbox(&p, id(2)).is_empty());
    }

    #[test]
    fn inbox_iterates_in_sender_order_across_words() {
        let mut p = PackedMailbox::<Tm>::new(130);
        for s in [0u32, 63, 64, 65, 128, 129] {
            MessagePlane::set(&mut p, id(s), Emission::Broadcast(Tm(s as u8)));
        }
        MessagePlane::insert(&mut p, id(70), id(1), Tm(70));
        let inbox = MessagePlane::inbox(&p, id(1));
        let got: Vec<_> = inbox.iter().map(|(s, _)| s.index()).collect();
        assert_eq!(got, vec![0, 63, 64, 65, 70, 128, 129]);
        assert_eq!(inbox.len(), 7);
        assert_eq!(inbox.from(id(70)), Some(&Tm(70)));
        assert_eq!(inbox.from(id(1)), None);
    }

    #[test]
    fn reset_pools_allocations_and_clears_state() {
        let mut p = PackedMailbox::<Tm>::new(4);
        MessagePlane::set_broadcast_except(&mut p, id(1), Tm(1), &[2]);
        MessagePlane::reset(&mut p, 4);
        assert_eq!(MessagePlane::message_count(&p), 0);
        assert!(MessagePlane::is_silent(&p, id(1)));
        assert_eq!(MessagePlane::inbox(&p, id(2)).len(), 0);
        // Resize to a different n re-arms the geometry.
        MessagePlane::reset(&mut p, 7);
        MessagePlane::set(&mut p, id(6), Emission::Broadcast(Tm(3)));
        assert_eq!(MessagePlane::message_count(&p), 6);
    }

    #[test]
    #[should_panic(expected = "does not fit the packed plane")]
    fn unpackable_message_panics() {
        #[derive(Debug, Clone, PartialEq)]
        struct Big(u64);
        impl Message for Big {
            fn bit_size(&self) -> usize {
                64
            }
        }
        impl PackedMessage for Big {
            fn pack(&self) -> Option<u32> {
                u32::try_from(self.0).ok()
            }
            fn unpack(code: u32) -> Self {
                Big(code as u64)
            }
        }
        let mut p = PackedMailbox::<Big>::new(2);
        MessagePlane::set(&mut p, id(0), Emission::Broadcast(Big(u64::MAX)));
    }

    #[test]
    fn take_broadcast_only_on_pure_rows() {
        let mut p = PackedMailbox::<Tm>::new(3);
        MessagePlane::set(&mut p, id(0), Emission::Broadcast(Tm(5)));
        assert_eq!(MessagePlane::take_broadcast(&mut p, id(0)), Some(Tm(5)));
        assert!(MessagePlane::is_silent(&p, id(0)));
        MessagePlane::set_broadcast_except(&mut p, id(1), Tm(6), &[2]);
        assert_eq!(MessagePlane::take_broadcast(&mut p, id(1)), None);
    }
}
