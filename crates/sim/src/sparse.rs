//! Sparse message plane: one flat per-round edge arena, no n×n
//! allocation.
//!
//! The dense [`RoundMailbox`](crate::mailbox::RoundMailbox) stamps a flat
//! `n × n` deviation arena the first time any sender deviates from pure
//! broadcast — O(n²) memory whether or not the protocol ever uses it.
//! That is the right trade for broadcast-heavy committee protocols, but
//! sampling-based protocols ([`SamplingMajorityNode`-style dynamics and
//! King–Saia sampled committees](https://dl.acm.org/doi/10.1145/1993636.1993686))
//! send O(polylog n) point-to-point messages per node per round: at
//! n = 65,536 the dense arena is 4 Gi cells for a few hundred thousand
//! live edges.
//!
//! # Layout
//!
//! [`SparseMailbox`] keeps each sender's row as an optional shared
//! broadcast base (as in the dense plane) plus a run of **deviation
//! cells** — `(receiver, Knocked | Msg)` — sorted by receiver. Every
//! row's cells live in **one flat arena** shared by the whole round: a
//! row is a `(start, len, cap)` range of it, `arena[start..start + len]`
//! holding the live cells and `arena[start + len..start + cap]` vacant
//! slack. Every slot is tagged with its owning sender (or `VACANT`), so
//! the arena can be read in one linear pass without touching the rows.
//!
//! * **Appends.** The engine installs emissions in ascending sender
//!   order, so a fresh row opens at the arena tail and grows there one
//!   slot at a time — the arena ends up sorted by sender, rows packed
//!   back to back.
//! * **Relocation.** A row edited *out of order* (a flight-queue drain,
//!   an adversary override of a row installed earlier) that has no slack
//!   left and no longer ends the arena moves to the tail with its
//!   capacity doubled; its old range becomes vacant. Doubling makes the
//!   moves amortized O(1) per inserted cell. Clearing a row keeps its
//!   range as slack for a later refill.
//! * **Reset.** [`MessagePlane::reset`] clears the arena and the rows
//!   it touched, keeping every allocation, so a pooled plane allocates
//!   nothing per round after warm-up.
//!
//! # Receiver index
//!
//! Inbox reads are receiver-major. A sorted `base_senders` list names the
//! rows that hold a broadcast base; a **CSR index** — `offsets[n + 1]`
//! plus `(sender, slot)` entries — names every deviation cell per
//! receiver in ascending sender order. The index is built **once per
//! round** by [`MessagePlane::build_inbox_index`], which the engine calls
//! between delivery and receive: a counting sort over the arena, two
//! linear passes. If any row was appended after a higher sender's, each
//! receiver's entries are then sorted by sender, so the order never
//! depends on the edit history. **Any mutation invalidates the index**,
//! and the sparse inbox reads ([`Inbox::iter`], [`Inbox::from`],
//! [`Inbox::len`]) assert that it is current — a stale index can never
//! be read silently.
//!
//! # Complexity and memory
//!
//! Installing a cell costs a binary search within its row plus an O(1)
//! amortized append (O(row length) for an insert into the middle of a
//! row). The index build is O(n + arena slots); an inbox read is
//! O(|bases| + |devs(r)|) with one arena access per deviation cell, and
//! `from` is a binary search over the receiver's entries. Memory is
//! O(n + Σ deviations + Σ bases) — the rows, the arena (live cells plus
//! at most the slack and vacated slots of relocated rows), 4(n + 1)
//! bytes of offsets and 8 bytes of index entry per cell: **no n×n
//! allocation ever**, which is the entire point — the e05 campaign runs
//! this plane at n = 65,536 in tens of megabytes.
//!
//! # Semantics contract
//!
//! Every observable — replace/merge rules, inbox order, the recording
//! view — reproduces the dense mailbox exactly. The `sparse_differential`
//! integration test drives both planes through the whole mutation
//! surface and compares every observable after every step, mirroring
//! `packed_differential`. The counters are the crate's shared
//! `traffic` ones, so the counting convention and the
//! max-edge dirty rule are the dense plane's by construction; a dirty
//! row's maximum is rescanned from its cells.

use crate::id::NodeId;
use crate::mailbox::Inbox;
use crate::message::{Emission, Message};
use crate::plane::MessagePlane;
use crate::traffic::{Held, RowTraffic, Traffic};

/// One receiver's explicit deviation from the row's broadcast base.
/// Absence of a cell means the receiver inherits the base (or nothing).
#[derive(Debug, Clone)]
enum SparseCell<M> {
    /// The receiver gets nothing, even if the row has a base.
    Knocked,
    /// The receiver gets this specific message instead of the base.
    Msg(M),
}

/// Sender tag of an arena slot that holds no live cell: row slack, or
/// the abandoned range of a relocated or cleared row.
const VACANT: u32 = u32::MAX;

/// One arena slot: row `sender`'s deviation cell for `receiver`.
#[derive(Debug, Clone)]
struct Slot<M> {
    /// The owning row, or [`VACANT`].
    sender: u32,
    receiver: u32,
    cell: SparseCell<M>,
}

impl<M> Slot<M> {
    fn vacant() -> Self {
        Slot {
            sender: VACANT,
            receiver: 0,
            cell: SparseCell::Knocked,
        }
    }
}

/// One sender's contribution to the round: an optional shared broadcast
/// base plus a receiver-sorted range of deviation cells in the arena.
#[derive(Debug, Clone)]
struct SparseRow<M> {
    base: Option<M>,
    /// Whether the row has deviated from pure broadcast this round —
    /// the sparse mirror of the dense row's `dense` flag. A row can be
    /// deviated with no cells (e.g. after a merge over a silent row),
    /// and that state is observable: it makes the row impure for
    /// [`MessagePlane::broadcast_of`] / `take_broadcast`.
    deviated: bool,
    /// First arena slot of the row's range.
    start: u32,
    /// Live cells, `arena[start..start + len]`: sorted by receiver, at
    /// most one per receiver.
    len: u32,
    /// Reserved slots; `arena[start + len..start + cap]` is vacant.
    cap: u32,
}

impl<M> Default for SparseRow<M> {
    fn default() -> Self {
        SparseRow {
            base: None,
            deviated: false,
            start: 0,
            len: 0,
            cap: 0,
        }
    }
}

impl<M: Message> SparseRow<M> {
    /// The row's live cells.
    fn cells<'a>(&self, arena: &'a [Slot<M>]) -> &'a [Slot<M>] {
        let start = self.start as usize;
        &arena[start..start + self.len as usize]
    }

    /// Binary-search position of receiver `r`'s cell within the row.
    fn dev_index(&self, arena: &[Slot<M>], r: u32) -> Result<usize, usize> {
        self.cells(arena).binary_search_by_key(&r, |s| s.receiver)
    }

    /// The deviation cell for receiver `r`, if any.
    fn dev<'a>(&self, arena: &'a [Slot<M>], r: u32) -> Option<&'a SparseCell<M>> {
        let i = self.dev_index(arena, r).ok()?;
        Some(&self.cells(arena)[i].cell)
    }

    /// The message receiver `r` gets from this row, if any.
    fn effective<'a>(&'a self, arena: &'a [Slot<M>], r: u32) -> Option<&'a M> {
        if !self.deviated {
            self.base.as_ref()
        } else {
            match self.dev(arena, r) {
                None => self.base.as_ref(),
                Some(SparseCell::Knocked) => None,
                Some(SparseCell::Msg(m)) => Some(m),
            }
        }
    }

    /// What receiver `r` gets from this row, as the counters see it.
    fn held(&self, arena: &[Slot<M>], r: u32) -> Held {
        match (
            self.deviated.then(|| self.dev(arena, r)).flatten(),
            &self.base,
        ) {
            (Some(SparseCell::Msg(m)), _) => Held::Explicit(m.bit_size()),
            (Some(SparseCell::Knocked), _) | (None, None) => Held::Nothing,
            (None, Some(base)) => Held::Base(base.bit_size()),
        }
    }

    /// The largest message the row delivers now: the walk a dirty row's
    /// maximum is rescanned with.
    fn max_bits(&self, arena: &[Slot<M>], n: usize) -> usize {
        // The base is still reachable iff some receiver has no explicit
        // deviation cell — the sparse mirror of the dense "lane has any
        // Inherit" check.
        let mut max = if self.base.is_some() && (!self.deviated || (self.len as usize) < n) {
            self.base.as_ref().map_or(0, Message::bit_size)
        } else {
            0
        };
        for slot in self.cells(arena) {
            if let SparseCell::Msg(m) = &slot.cell {
                max = max.max(m.bit_size());
            }
        }
        max
    }
}

/// Inserts `v` into a sorted ID list, keeping it sorted and duplicate-
/// free. O(1) amortized for the engine's ascending install order.
fn list_insert(list: &mut Vec<u32>, v: u32) {
    match list.last() {
        Some(&last) if last < v => list.push(v),
        _ => {
            if let Err(i) = list.binary_search(&v) {
                list.insert(i, v);
            }
        }
    }
}

/// Removes `v` from a sorted ID list, if present.
fn list_remove(list: &mut Vec<u32>, v: u32) {
    if let Ok(i) = list.binary_search(&v) {
        list.remove(i);
    }
}

/// Sparse per-round message store: one flat arena of receiver-sorted
/// deviation ranges, a shared broadcast base per row, and a
/// receiver-major index built once per round. See the module docs for
/// layout, complexity, and the semantics contract.
#[derive(Debug, Clone)]
pub struct SparseMailbox<M> {
    pub(crate) n: usize,
    rows: Vec<SparseRow<M>>,
    /// Every row's deviation cells, each row one `(start, len, cap)`
    /// range.
    arena: Vec<Slot<M>>,
    /// Highest sender that appended at the arena tail since the reset.
    tail_sender: u32,
    /// Whether arena order is ascending by sender — false once a row was
    /// appended after a higher sender's row.
    in_order: bool,
    /// Sorted sender IDs whose rows currently hold a broadcast base.
    base_senders: Vec<u32>,
    /// CSR offsets: receiver `r`'s deviation cells are
    /// `index[offsets[r]..offsets[r + 1]]`.
    offsets: Vec<u32>,
    /// `(sender, arena slot)` per deviation cell, receiver-major and
    /// ascending by sender within each receiver.
    index: Vec<(u32, u32)>,
    /// Whether `offsets`/`index` describe the current cells; every write
    /// to a row (`clear_row`, `put_dev`, the merge) clears it.
    indexed: bool,
    traffic: Traffic,
    /// Pooled scratch for `merge_broadcast_except`'s sorted-list merge.
    merge_scratch: Vec<(u32, SparseCell<M>)>,
}

impl<M> Default for SparseMailbox<M> {
    /// An empty zero-node mailbox — the pooling placeholder. Call
    /// [`MessagePlane::reset`] to size it before use.
    fn default() -> Self {
        SparseMailbox {
            n: 0,
            rows: Vec::new(),
            arena: Vec::new(),
            tail_sender: 0,
            in_order: true,
            base_senders: Vec::new(),
            offsets: Vec::new(),
            index: Vec::new(),
            indexed: false,
            traffic: Traffic::default(),
            merge_scratch: Vec::new(),
        }
    }
}

impl<M: Message> SparseMailbox<M> {
    /// Creates an empty sparse mailbox for an `n`-node network.
    pub fn new(n: usize) -> Self {
        let mut mb = Self::default();
        mb.reset(n);
        mb
    }

    /// Empties row `me`'s storage (keeping its arena range as slack) and
    /// deregisters its base.
    fn clear_row(&mut self, me: usize) {
        self.indexed = false;
        let row = &mut self.rows[me];
        if row.base.is_some() {
            list_remove(&mut self.base_senders, me as u32);
        }
        let start = row.start as usize;
        for slot in &mut self.arena[start..start + row.len as usize] {
            *slot = Slot::vacant();
        }
        row.len = 0;
        row.base = None;
        row.deviated = false;
    }

    /// Records that row `me` appends at the arena tail; an append after
    /// a higher sender's row breaks the arena's sender order.
    fn claim_tail(&mut self, me: u32) {
        if me < self.tail_sender {
            self.in_order = false;
        } else {
            self.tail_sender = me;
        }
    }

    /// Ensures row `me` has room for `need` cells: a fresh row, or one
    /// that ends the arena, grows in place at the tail; any other row
    /// relocates its live cells to the tail with doubled capacity,
    /// vacating its old range.
    fn reserve(&mut self, me: usize, need: usize) {
        let row = &self.rows[me];
        let (start, len, cap) = (row.start as usize, row.len as usize, row.cap as usize);
        if need <= cap {
            return;
        }
        let tail = self.arena.len();
        let in_place = cap == 0 || start + cap == tail;
        let new_cap = if in_place { need } else { need.max(2 * cap) };
        let new_start = if in_place { tail - cap } else { tail };
        assert!(
            new_start + new_cap < VACANT as usize,
            "sparse arena outgrew u32 slot indices"
        );
        self.claim_tail(me as u32);
        if !in_place {
            self.arena.reserve(new_cap);
            for i in start..start + len {
                let slot = std::mem::replace(&mut self.arena[i], Slot::vacant());
                self.arena.push(slot);
            }
        }
        self.arena.resize_with(new_start + new_cap, Slot::vacant);
        let row = &mut self.rows[me];
        row.start = new_start as u32;
        row.cap = new_cap as u32;
    }

    /// Inserts receiver `r`'s cell at sorted position `pos` of row `me`.
    fn insert_cell(&mut self, me: usize, pos: usize, r: u32, cell: SparseCell<M>) {
        let len = self.rows[me].len as usize;
        self.reserve(me, len + 1);
        let row = &mut self.rows[me];
        row.len += 1;
        let start = row.start as usize;
        self.arena[start + len] = Slot {
            sender: me as u32,
            receiver: r,
            cell,
        };
        self.arena[start + pos..=start + len].rotate_right(1);
    }

    /// Installs (or replaces) receiver `r`'s deviation cell in row `me`.
    /// Returns the replaced cell, if any.
    fn put_dev(&mut self, me: usize, r: u32, cell: SparseCell<M>) -> Option<SparseCell<M>> {
        self.indexed = false;
        let row = &self.rows[me];
        match row.dev_index(&self.arena, r) {
            Ok(i) => {
                let slot = row.start as usize + i;
                Some(std::mem::replace(&mut self.arena[slot].cell, cell))
            }
            Err(i) => {
                self.insert_cell(me, i, r, cell);
                None
            }
        }
    }

    /// The message `receiver` gets from `sender` this round, if any —
    /// resolved from the sender's row, so it needs no receiver index.
    pub fn resolve(&self, sender: NodeId, receiver: NodeId) -> Option<&M> {
        self.rows[sender.index()].effective(&self.arena, receiver.raw())
    }

    /// Receiver `r`'s `(sender, slot)` index entries.
    ///
    /// # Panics
    ///
    /// Panics if the index is stale (see
    /// [`MessagePlane::build_inbox_index`]).
    fn index_of(&self, r: NodeId) -> &[(u32, u32)] {
        assert!(
            self.indexed,
            "sparse inbox read without a current receiver index; call build_inbox_index after the last mutation"
        );
        let r = r.index();
        &self.index[self.offsets[r] as usize..self.offsets[r + 1] as usize]
    }

    /// Iterates `(sender, message)` pairs addressed to `receiver` in
    /// ascending sender order — a sorted-merge cursor over the base
    /// senders and the receiver's index entries, O(|bases| + |devs(r)|)
    /// and allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if the receiver index is stale.
    pub(crate) fn inbox_iter(&self, receiver: NodeId) -> SparseInboxIter<'_, M> {
        SparseInboxIter {
            rows: &self.rows,
            arena: &self.arena,
            bases: &self.base_senders,
            devs: self.index_of(receiver),
        }
    }

    /// The message `receiver` gets from `sender`, found through the
    /// receiver index: a binary search over the receiver's entries, then
    /// the sender's base if it has none.
    ///
    /// # Panics
    ///
    /// Panics if the receiver index is stale.
    pub(crate) fn inbox_from(&self, sender: NodeId, receiver: NodeId) -> Option<&M> {
        let devs = self.index_of(receiver);
        match devs.binary_search_by_key(&sender.raw(), |e| e.0) {
            Ok(i) => match &self.arena[devs[i].1 as usize].cell {
                SparseCell::Msg(m) => Some(m),
                SparseCell::Knocked => None,
            },
            Err(_) if self.base_senders.is_empty() => None,
            Err(_) => self.rows[sender.index()].base.as_ref(),
        }
    }
}

/// Sorted-merge iterator over one receiver's sparse inbox: advances a
/// cursor through `base_senders` and the receiver's index entries in
/// lockstep, yielding each sender's effective message in ascending
/// sender order.
pub(crate) struct SparseInboxIter<'a, M> {
    rows: &'a [SparseRow<M>],
    arena: &'a [Slot<M>],
    /// Remaining senders with a broadcast base.
    bases: &'a [u32],
    /// Remaining `(sender, slot)` deviation entries for this receiver.
    devs: &'a [(u32, u32)],
}

impl<'a, M: Message> Iterator for SparseInboxIter<'a, M> {
    type Item = (NodeId, &'a M);

    fn next(&mut self) -> Option<(NodeId, &'a M)> {
        loop {
            let (s, slot) = match (self.bases.first(), self.devs.first()) {
                (Some(&b), Some(&(d, _))) if b < d => {
                    self.bases = &self.bases[1..];
                    (b, None)
                }
                (Some(&b), Some(&(d, slot))) if b == d => {
                    self.bases = &self.bases[1..];
                    self.devs = &self.devs[1..];
                    (d, Some(slot))
                }
                (_, Some(&(d, slot))) => {
                    self.devs = &self.devs[1..];
                    (d, Some(slot))
                }
                (Some(&b), None) => {
                    self.bases = &self.bases[1..];
                    (b, None)
                }
                (None, None) => return None,
            };
            match slot {
                // A deviation cell overrides the base: a message, or a
                // knock-out that hides it.
                Some(i) => {
                    if let SparseCell::Msg(m) = &self.arena[i as usize].cell {
                        return Some((NodeId::new(s), m));
                    }
                }
                // A base sender with no base is impossible (index
                // invariant), but fall through defensively rather than
                // panic in a reader.
                None => {
                    if let Some(base) = self.rows[s as usize].base.as_ref() {
                        return Some((NodeId::new(s), base));
                    }
                }
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.bases.len() + self.devs.len()))
    }
}

impl<M: Message> MessagePlane<M> for SparseMailbox<M> {
    fn reset(&mut self, n: usize) {
        self.rows.truncate(n);
        for row in &mut self.rows {
            // Skip rows untouched since the last reset: after warm-up a
            // sparse round clears only the rows it actually used.
            if row.base.is_some() || row.deviated || row.cap != 0 {
                *row = SparseRow::default();
            }
        }
        self.rows.resize_with(n, SparseRow::default);
        self.arena.clear();
        self.tail_sender = 0;
        self.in_order = true;
        self.base_senders.clear();
        self.indexed = false;
        self.n = n;
        self.traffic.reset(n);
    }

    fn n(&self) -> usize {
        self.n
    }

    fn set(&mut self, sender: NodeId, emission: Emission<M>) {
        let me = sender.index();
        match emission {
            Emission::Silent => self.silence(sender),
            Emission::Broadcast(m) => {
                let bits = m.bit_size();
                self.clear_row(me);
                self.rows[me].base = Some(m);
                list_insert(&mut self.base_senders, me as u32);
                self.traffic
                    .fold(me, RowTraffic::broadcast(self.n, 0, bits));
            }
            Emission::PerRecipient(v) => {
                if v.is_empty() {
                    return self.silence(sender);
                }
                self.clear_row(me);
                self.rows[me].deviated = true;
                // Room for every entry up front; duplicates leave slack.
                self.reserve(me, v.len());
                let mut traffic = RowTraffic::default();
                for (to, m) in v {
                    let bits = m.bit_size();
                    assert!(to.index() < self.n, "recipient out of range");
                    match self.put_dev(me, to.raw(), SparseCell::Msg(m)) {
                        None | Some(SparseCell::Knocked) => traffic.add(1, bits),
                        Some(SparseCell::Msg(old)) => traffic.supersede(old.bit_size(), bits),
                    }
                }
                self.traffic.fold(me, traffic);
            }
        }
    }

    fn silence(&mut self, sender: NodeId) {
        let me = sender.index();
        self.clear_row(me);
        self.traffic.fold(me, RowTraffic::default());
    }

    fn insert(&mut self, sender: NodeId, receiver: NodeId, m: M) {
        let me = sender.index();
        let r = receiver.raw();
        assert!((r as usize) < self.n, "receiver out of range");
        let held = self.rows[me].held(&self.arena, r);
        let bits = m.bit_size();
        self.rows[me].deviated = true;
        self.put_dev(me, r, SparseCell::Msg(m));
        self.traffic.replace(me, r as usize, held, bits);
    }

    /// One sorted-list probe per receiver decides *and* installs; the
    /// counters take the pure-add path once for the whole group.
    fn insert_group_if_vacant(&mut self, sender: NodeId, receivers: &mut [u32], msg: &M) -> usize {
        let me = sender.index();
        let row = &self.rows[me];
        if !row.deviated && row.base.is_some() {
            return 0; // a pure broadcast: every pair is occupied
        }
        let has_base = row.base.is_some();
        let mut busy = 0;
        for i in 0..receivers.len() {
            let r = receivers[i];
            assert!((r as usize) < self.n, "receiver out of range");
            let vacant = match self.rows[me].dev(&self.arena, r) {
                Some(SparseCell::Msg(_)) => false,
                Some(SparseCell::Knocked) => true,
                None => !has_base,
            };
            if vacant {
                self.rows[me].deviated = true;
                self.put_dev(me, r, SparseCell::Msg(msg.clone()));
            } else {
                receivers[busy] = r;
                busy += 1;
            }
        }
        let installed = receivers.len() - busy;
        self.traffic.add(me, installed, msg.bit_size());
        installed
    }

    /// One shared copy plus O(|except|) knocked cells.
    fn set_broadcast_except(&mut self, sender: NodeId, msg: M, except: &[u32]) {
        let me = sender.index();
        if except.is_empty() {
            return self.set(sender, Emission::Broadcast(msg));
        }
        self.clear_row(me);
        self.rows[me].deviated = true;
        let mut knocked = 0;
        for &r in except {
            assert!((r as usize) < self.n, "except receiver out of range");
            if self.put_dev(me, r, SparseCell::Knocked).is_none() {
                knocked += usize::from(r as usize != me);
            }
        }
        let bits = msg.bit_size();
        self.rows[me].base = Some(msg);
        list_insert(&mut self.base_senders, me as u32);
        self.traffic
            .fold(me, RowTraffic::broadcast(self.n, knocked, bits));
    }

    /// Cost: O(|devs| + |except|) — a sorted merge of the row's cells
    /// with the except list through pooled scratch, never an O(n) walk
    /// and no allocation after warm-up.
    fn merge_broadcast_except(
        &mut self,
        sender: NodeId,
        msg: M,
        except: &[u32],
        conflicts: &mut Vec<u32>,
    ) {
        let me = sender.index();
        debug_assert!(except.windows(2).all(|w| w[0] <= w[1]), "except not sorted");
        if let Some(&r) = except.last() {
            assert!((r as usize) < self.n, "except receiver out of range");
        }
        assert!(
            self.rows[me].base.is_none(),
            "merge_broadcast_except over an existing broadcast base"
        );
        self.indexed = false;
        // Merge the row's (sorted) cells with the (sorted) except list
        // into pooled scratch: existing cells keep their state (a
        // knocked `except` hit silences a conflict report, exactly as in
        // the dense walk), fresh except hits become Knocked.
        let mut scratch = std::mem::take(&mut self.merge_scratch);
        debug_assert!(scratch.is_empty());
        let mut k = 0usize;
        let (start, len) = (self.rows[me].start as usize, self.rows[me].len as usize);
        for slot in &mut self.arena[start..start + len] {
            let Slot {
                receiver: r, cell, ..
            } = std::mem::replace(slot, Slot::vacant());
            while k < except.len() && except[k] < r {
                let e = except[k];
                while k < except.len() && except[k] == e {
                    k += 1;
                }
                scratch.push((e, SparseCell::Knocked));
            }
            let mut is_knocked = false;
            while k < except.len() && except[k] == r {
                is_knocked = true;
                k += 1;
            }
            if matches!(cell, SparseCell::Msg(_)) && !is_knocked {
                conflicts.push(r);
            }
            scratch.push((r, cell));
        }
        while k < except.len() {
            let e = except[k];
            while k < except.len() && except[k] == e {
                k += 1;
            }
            scratch.push((e, SparseCell::Knocked));
        }
        // Write the merged cells back; the old ones are already vacated,
        // so a relocation moves nothing.
        let merged = scratch.len();
        self.rows[me].len = 0;
        self.reserve(me, merged);
        let start = self.rows[me].start as usize;
        let me_u32 = me as u32;
        let mut me_inherits = true;
        for (slot, (r, cell)) in self.arena[start..].iter_mut().zip(scratch.drain(..)) {
            me_inherits &= r != me_u32;
            *slot = Slot {
                sender: me_u32,
                receiver: r,
                cell,
            };
        }
        self.merge_scratch = scratch;
        // Receivers that now inherit the base: everyone without an
        // explicit cell, minus the sender's free self-copy.
        let row = &mut self.rows[me];
        row.len = merged as u32;
        row.deviated = true;
        let inherited = self.n - merged - usize::from(me_inherits);
        let mut traffic = self.traffic.row(me);
        traffic.add(inherited, msg.bit_size());
        row.base = Some(msg);
        list_insert(&mut self.base_senders, me_u32);
        self.traffic.fold(me, traffic);
    }

    fn take_broadcast(&mut self, sender: NodeId) -> Option<M> {
        let me = sender.index();
        if self.rows[me].deviated {
            return None;
        }
        let taken = self.rows[me].base.take()?;
        list_remove(&mut self.base_senders, me as u32);
        self.clear_row(me);
        self.traffic.fold(me, RowTraffic::default());
        Some(taken)
    }

    fn broadcast_base(&self, sender: NodeId) -> Option<&M> {
        self.rows[sender.index()].base.as_ref()
    }

    fn broadcast_of(&self, sender: NodeId) -> Option<&M> {
        let row = &self.rows[sender.index()];
        if row.deviated {
            None
        } else {
            row.base.as_ref()
        }
    }

    fn resolve_value(&self, sender: NodeId, receiver: NodeId) -> Option<M> {
        self.resolve(sender, receiver).cloned()
    }

    fn has_message(&self, sender: NodeId, receiver: NodeId) -> bool {
        self.resolve(sender, receiver).is_some()
    }

    fn deviations(&self, sender: NodeId) -> impl Iterator<Item = (NodeId, Option<M>)> + '_ {
        let row = &self.rows[sender.index()];
        let cells = if row.deviated {
            row.cells(&self.arena)
        } else {
            &[]
        };
        cells.iter().map(|slot| {
            let m = match &slot.cell {
                SparseCell::Knocked => None,
                SparseCell::Msg(m) => Some(m.clone()),
            };
            (NodeId::new(slot.receiver), m)
        })
    }

    /// A counting sort of the arena's live slots by receiver, O(n +
    /// arena slots), allocation-free after warm-up; a no-op while the
    /// index is current.
    fn build_inbox_index(&mut self) {
        if self.indexed {
            return;
        }
        let n = self.n;
        self.offsets.clear();
        self.offsets.resize(n + 1, 0);
        let mut live = 0usize;
        for slot in &self.arena {
            if slot.sender != VACANT {
                self.offsets[slot.receiver as usize + 1] += 1;
                live += 1;
            }
        }
        for r in 0..n {
            self.offsets[r + 1] += self.offsets[r];
        }
        self.index.clear();
        self.index.resize(live, (0, 0));
        // `offsets[r]` serves as receiver r's write cursor and ends at
        // the start of r + 1; shifting by one slot restores the starts.
        for (i, slot) in self.arena.iter().enumerate() {
            if slot.sender != VACANT {
                let cursor = &mut self.offsets[slot.receiver as usize];
                self.index[*cursor as usize] = (slot.sender, i as u32);
                *cursor += 1;
            }
        }
        self.offsets.copy_within(0..n, 1);
        self.offsets[0] = 0;
        if !self.in_order {
            // A relocated row broke the arena's sender order; each
            // receiver's senders are distinct, so the sort is exact.
            for r in 0..n {
                let (a, b) = (self.offsets[r] as usize, self.offsets[r + 1] as usize);
                self.index[a..b].sort_unstable_by_key(|e| e.0);
            }
        }
        self.indexed = true;
    }

    fn inbox(&self, receiver: NodeId) -> Inbox<'_, M> {
        Inbox::sparse(self, receiver)
    }

    fn message_count(&self) -> usize {
        self.traffic.message_count()
    }

    fn total_bits(&self) -> usize {
        self.traffic.total_bits()
    }

    fn max_edge_bits(&self) -> usize {
        self.traffic
            .max_edge_bits(|s| self.rows[s].max_bits(&self.arena, self.n))
    }

    fn row_traffic(&self, sender: NodeId) -> (usize, usize) {
        self.traffic.row_traffic(sender.index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Tm(u8);
    impl Message for Tm {
        fn bit_size(&self) -> usize {
            8
        }
    }

    /// Variable-size message, for the override test.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Var(usize);
    impl Message for Var {
        fn bit_size(&self) -> usize {
            self.0
        }
    }

    fn id(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn broadcast_counts_n_minus_one() {
        let mut mb = SparseMailbox::new(4);
        mb.set(id(0), Emission::Broadcast(Tm(7)));
        assert_eq!(mb.message_count(), 3);
        assert_eq!(mb.total_bits(), 24);
        assert_eq!(mb.max_edge_bits(), 8);
        assert_eq!(mb.broadcast_of(id(0)), Some(&Tm(7)));
        for r in 0..4 {
            assert_eq!(mb.resolve(id(0), id(r)), Some(&Tm(7)));
        }
    }

    #[test]
    fn excepted_receiver_and_inbox_order() {
        let mut mb = SparseMailbox::new(5);
        mb.set(id(0), Emission::Broadcast(Tm(1)));
        mb.set(id(3), Emission::Broadcast(Tm(3)));
        mb.insert(id(1), id(2), Tm(9));
        mb.set_broadcast_except(id(0), Tm(1), &[2]);
        mb.build_inbox_index();
        let inbox: Vec<_> = mb
            .inbox(id(2))
            .iter()
            .map(|(s, m)| (s.raw(), m.clone()))
            .collect();
        assert_eq!(inbox, vec![(1, Tm(9)), (3, Tm(3))]);
        assert_eq!(mb.broadcast_of(id(0)), None, "knocked row is impure");
        assert!(mb.broadcast_base(id(0)).is_some());
        assert_eq!(mb.message_count(), 4 + 4 + 1 - 1);
    }

    #[test]
    fn explicit_self_message_counts_broadcast_self_copy_free() {
        let mut mb = SparseMailbox::new(3);
        mb.set(id(0), Emission::Broadcast(Tm(1)));
        assert_eq!(mb.message_count(), 2);
        mb.insert(id(1), id(1), Tm(2));
        assert_eq!(mb.message_count(), 3, "explicit self-message counts");
    }

    #[test]
    fn per_recipient_override_dirties_then_recovers() {
        let mut mb = SparseMailbox::new(4);
        mb.set(
            id(0),
            Emission::PerRecipient(vec![(id(1), Var(16)), (id(1), Var(4))]),
        );
        assert_eq!(mb.message_count(), 1);
        assert_eq!(mb.total_bits(), 4);
        // The override may have lowered the row max: a rescan finds 4,
        // but the cached row.max_bits stays an upper bound (16) and the
        // global reader rescans — same as dense.
        assert_eq!(mb.max_edge_bits(), 4);
    }

    #[test]
    fn max_edge_bits_recovers_after_removals() {
        let mut mb = SparseMailbox::new(4);
        mb.insert(id(0), id(1), Var(32));
        mb.insert(id(1), id(2), Var(8));
        assert_eq!(mb.max_edge_bits(), 32);
        mb.insert(id(0), id(1), Var(2)); // replaces the 32-bit maximum
        assert_eq!(mb.max_edge_bits(), 8);
        mb.silence(id(1));
        assert_eq!(mb.max_edge_bits(), 2);
        mb.silence(id(0));
        assert_eq!(mb.max_edge_bits(), 0);
    }

    #[test]
    fn set_broadcast_except_skips_and_counts() {
        let mut mb = SparseMailbox::new(5);
        mb.set_broadcast_except(id(0), Tm(7), &[3, 1, 3]);
        assert_eq!(mb.message_count(), 2);
        assert_eq!(mb.total_bits(), 16);
        assert!(mb.resolve(id(0), id(1)).is_none());
        assert!(mb.resolve(id(0), id(3)).is_none());
        assert_eq!(mb.resolve(id(0), id(2)), Some(&Tm(7)));
        assert_eq!(mb.resolve(id(0), id(0)), Some(&Tm(7)), "self-copy kept");
    }

    #[test]
    fn merge_broadcast_reports_conflicts_ascending() {
        let mut mb = SparseMailbox::new(6);
        mb.insert(id(0), id(4), Tm(9));
        mb.insert(id(0), id(1), Tm(8));
        let mut conflicts = Vec::new();
        mb.merge_broadcast_except(id(0), Tm(1), &[2, 4], &mut conflicts);
        // 1 conflicts (kept message), 4 is knocked in except so its kept
        // message is not reported, 2 is knocked.
        assert_eq!(conflicts, vec![1]);
        assert_eq!(mb.resolve(id(0), id(1)), Some(&Tm(8)));
        assert!(mb.resolve(id(0), id(2)).is_none());
        assert_eq!(mb.resolve(id(0), id(3)), Some(&Tm(1)));
        assert_eq!(mb.resolve(id(0), id(4)), Some(&Tm(9)));
        assert_eq!(mb.resolve(id(0), id(5)), Some(&Tm(1)));
        // count: explicit 1 and 4 (2 msgs) + inherited {3, 5} (2) — the
        // self-copy at 0 is free, 2 knocked.
        assert_eq!(mb.message_count(), 4);
    }

    #[test]
    fn take_broadcast_only_pure() {
        let mut mb = SparseMailbox::new(4);
        mb.set(id(0), Emission::Broadcast(Tm(7)));
        mb.set_broadcast_except(id(1), Tm(8), &[2]);
        assert_eq!(mb.take_broadcast(id(0)), Some(Tm(7)));
        assert!(mb.is_silent(id(0)));
        assert_eq!(mb.take_broadcast(id(1)), None, "impure row");
        assert_eq!(mb.take_broadcast(id(2)), None, "silent row");
    }

    #[test]
    fn insert_if_vacant_respects_occupancy() {
        let mut mb = SparseMailbox::new(4);
        mb.set(id(0), Emission::Broadcast(Tm(7)));
        assert_eq!(
            mb.insert_group_if_vacant(id(0), &mut [2], &Tm(9)),
            0,
            "pure broadcast occupies every pair"
        );
        mb.set_broadcast_except(id(0), Tm(7), &[2]);
        assert_eq!(
            mb.insert_group_if_vacant(id(0), &mut [2], &Tm(9)),
            1,
            "knocked pair is vacant"
        );
        assert_eq!(mb.resolve(id(0), id(2)), Some(&Tm(9)));
        assert_eq!(mb.insert_group_if_vacant(id(0), &mut [2], &Tm(5)), 0);
        assert_eq!(mb.resolve(id(0), id(2)), Some(&Tm(9)));
        assert_eq!(mb.insert_group_if_vacant(id(1), &mut [3], &Tm(4)), 1);
        assert_eq!(mb.resolve(id(1), id(3)), Some(&Tm(4)));
    }

    #[test]
    fn reset_pools_allocations_and_clears_state() {
        let mut mb = SparseMailbox::new(4);
        mb.set(id(0), Emission::Broadcast(Tm(7)));
        mb.insert(id(1), id(2), Tm(9));
        mb.reset(4);
        mb.build_inbox_index();
        assert_eq!(mb.message_count(), 0);
        assert_eq!(mb.total_bits(), 0);
        assert_eq!(mb.max_edge_bits(), 0);
        for s in 0..4 {
            assert!(mb.is_silent(id(s)));
            assert_eq!(mb.inbox(id(s)).len(), 0);
        }
        mb.reset(2);
        assert_eq!(mb.n(), 2);
        mb.set(id(1), Emission::Broadcast(Tm(3)));
        assert_eq!(mb.message_count(), 1);
    }

    #[test]
    fn no_quadratic_allocation_at_large_n() {
        // The whole point: a broadcast round at large n allocates O(n)
        // rows and index slots, never an n×n arena. At n = 65,536 a
        // dense arena would be 4 Gi cells; this must stay small enough
        // to build instantly.
        let n = 65_536;
        let mut mb = SparseMailbox::new(n);
        mb.set_broadcast_except(id(7), Tm(1), &[100]);
        mb.insert(id(3), id(9), Tm(2));
        assert_eq!(mb.message_count(), (n - 1) + 1 - 1);
        mb.build_inbox_index();
        assert_eq!(mb.inbox(id(9)).len(), 2);
        assert_eq!(mb.inbox(id(100)).len(), 0);
    }

    #[test]
    fn trait_surface_matches_dense_spot_check() {
        // Same drive as plane.rs's dense_plane_forwards_to_inherent_api.
        fn drive<L: MessagePlane<Tm>>(plane: &mut L) -> (usize, usize, usize, bool) {
            plane.reset(4);
            plane.set_broadcast_except(NodeId::new(0), Tm(7), &[3]);
            plane.set(
                NodeId::new(1),
                Emission::PerRecipient(vec![(NodeId::new(2), Tm(9))]),
            );
            assert_eq!(plane.row_traffic(NodeId::new(0)), (2, 16));
            assert_eq!(plane.row_traffic(NodeId::new(1)), (1, 8));
            (
                plane.message_count(),
                plane.total_bits(),
                plane.max_edge_bits(),
                plane.is_silent(NodeId::new(3)),
            )
        }
        let mut mb = SparseMailbox::<Tm>::default();
        assert_eq!(drive(&mut mb), (3, 24, 8, true));
        mb.build_inbox_index();
        assert_eq!(mb.inbox(NodeId::new(2)).len(), 2);
    }

    #[test]
    fn out_of_order_edits_relocate_and_keep_inbox_order() {
        let mut mb = SparseMailbox::new(6);
        mb.set(id(1), Emission::PerRecipient(vec![(id(4), Tm(1))]));
        mb.set(id(3), Emission::PerRecipient(vec![(id(4), Tm(3))]));
        // Row 1 no longer ends the arena: growing it relocates it past
        // row 3, and row 0 lands after both.
        assert_eq!(mb.insert_group_if_vacant(id(1), &mut [2], &Tm(5)), 1);
        mb.insert(id(0), id(4), Tm(7));
        mb.build_inbox_index();
        let senders = |mb: &SparseMailbox<Tm>, r| -> Vec<(u32, Tm)> {
            mb.inbox(id(r))
                .iter()
                .map(|(s, m)| (s.raw(), m.clone()))
                .collect()
        };
        assert_eq!(senders(&mb, 4), vec![(0, Tm(7)), (1, Tm(1)), (3, Tm(3))]);
        assert_eq!(senders(&mb, 2), vec![(1, Tm(5))]);
        assert_eq!(mb.inbox(id(4)).from(id(1)), Some(&Tm(1)));
        assert_eq!(mb.inbox(id(4)).from(id(2)), None);
        assert_eq!(mb.resolve(id(1), id(2)), Some(&Tm(5)));
        assert_eq!(mb.message_count(), 4);
    }

    #[test]
    fn repeated_relocation_is_amortized() {
        // Alternating inserts into two rows force relocations; capacity
        // doubling keeps the arena within a constant factor of the live
        // cells instead of one full copy per insert.
        let n = 1_024;
        let mut mb = SparseMailbox::new(n);
        for r in 0..n as u32 {
            mb.insert(id(0), id(r), Tm(0));
            mb.insert(id(1), id(r), Tm(1));
        }
        assert_eq!(mb.message_count(), 2 * n);
        assert!(
            mb.arena.len() <= 8 * n,
            "arena grew to {} slots for {} cells",
            mb.arena.len(),
            2 * n
        );
        mb.build_inbox_index();
        for r in 0..n as u32 {
            assert_eq!(mb.inbox(id(r)).len(), 2);
        }
    }

    #[test]
    #[should_panic(expected = "without a current receiver index")]
    fn inbox_read_after_mutation_needs_a_rebuild() {
        let mut mb = SparseMailbox::new(3);
        mb.insert(id(0), id(1), Tm(1));
        mb.build_inbox_index();
        assert_eq!(mb.inbox(id(1)).len(), 1);
        mb.insert(id(0), id(1), Tm(2));
        let _ = mb.inbox(id(1)).len();
    }
}
