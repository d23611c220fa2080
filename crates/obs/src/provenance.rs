//! Causal provenance tracing: decision cones, violation blame inputs,
//! and per-node communication profiles.
//!
//! [`ProvenanceProbe`] sits on the engine's [`Probe`] seam and opts into
//! the per-round [`ArrivalScan`] ([`Probe::WANTS_ARRIVALS`]). From the
//! scan's broadcast-base bitset and per-receiver sender lists it
//! maintains, **online**, three per-node closures over the
//! happens-before relation:
//!
//! * `anc(v)` — the backward causal closure of `v`'s current state: the
//!   set of nodes whose round-0 state can reach `v` through delivered
//!   messages (self included; self-delivery counts like any arrival);
//! * `bad(v)` — the subset of `anc(v)` consisting of nodes that were
//!   corrupted *when their message entered `v`'s past* (adversary
//!   influence, robust to later corruptions);
//! * `depth(v)` — the longest chain of message hops ending at `v`.
//!
//! The update is one pass per round: receivers whose arrival in-set is
//! exactly the broadcast bases ([`ArrivalScan::is_clean`]) take a
//! precomputed frontier union (`U = ⋃ anc(s)` over base senders) in
//! O(n/64) word-ORs, so a broadcast round costs O(n²/64) — a few
//! percent of the dense receive loop it rides along. Deviating
//! receivers pay per in-edge, bounded by the round's deviation count.
//!
//! The closure is **honesty- and halt-agnostic**: every node's state
//! `(v, k)` depends on `(v, k−1)` and on `(s, k−1)` for every message
//! `s → v` delivered in round `k` — corrupted senders propagate the
//! provenance they accumulated (no cross-node adversary coordination is
//! modeled; adversary influence enters through `bad`).
//!
//! A node's **decision cone** is `anc(v)` frozen at its halt hook:
//! a halt during the emit phase precedes the round's arrival scan, one
//! during the receive phase follows it, so freezing at hook time is
//! exactly "everything that could have influenced the decision".
//!
//! Everything the probe records is a function of logical time, so its
//! artifacts — [`ProvenanceProbe::summary`], [`ProvenanceProbe::dot_graph`],
//! [`ProvenanceProbe::jsonl_graph`], [`chrome_trace_with_flows`] — are
//! byte-identical across sweep worker counts, thread counts, and under
//! trace replay, like the rest of the deterministic channel.

use std::fmt::Write as _;

use aba_sim::arrivals::ArrivalScan;
use aba_sim::probe::Probe;
use aba_sim::{NodeId, Round, RunReport, SimConfig};

use crate::event::{EventKind, EventLog};
use crate::export::{chrome_trace_events, escape_json, join_trace};
use crate::metrics::{Histogram, MetricsRegistry};

/// Metric names emitted by [`ProvenanceProbe`] at `run_end`.
pub mod names {
    /// Histogram: messages offered per node per run.
    pub const NODE_SENT_MSGS: &str = "prov.node_sent_msgs";
    /// Histogram: bits offered per node per run.
    pub const NODE_SENT_BITS: &str = "prov.node_sent_bits";
    /// Histogram: messages delivered per node per run.
    pub const NODE_RECV_MSGS: &str = "prov.node_recv_msgs";
    /// Histogram: bits delivered per node per run.
    pub const NODE_RECV_BITS: &str = "prov.node_recv_bits";
    /// Gauge: max bits offered by any single node in a run.
    pub const MAX_NODE_SENT_BITS: &str = "prov.max_node_sent_bits";
    /// Gauge: max bits delivered to any single node in a run.
    pub const MAX_NODE_RECV_BITS: &str = "prov.max_node_recv_bits";
    /// Histogram: decision-cone width (nodes, self included).
    pub const CONE_WIDTH: &str = "prov.cone_width";
    /// Histogram: decision-cone depth (message hops).
    pub const CONE_DEPTH: &str = "prov.cone_depth";
    /// Histogram: corrupted ancestors per decision cone.
    pub const CONE_CORRUPTED: &str = "prov.cone_corrupted";
    /// Counter: runs traced.
    pub const TRIALS: &str = "prov.trials";
}

/// One round's arrival relation, retained for export: the broadcast-base
/// bitset, the corruption bitset at scan time, and the deviating
/// receivers' knocked and extra senders (clean receivers are implicit).
/// A round costs O(n/64 + deviations) words, never a full row per
/// receiver, so point-to-point traffic at large `n` stays cheap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundEdges {
    /// Round index.
    pub round: u64,
    /// Bit `s`: sender `s`'s broadcast base arrived this round.
    pub base_senders: Vec<u64>,
    /// Bit `s`: sender `s` was corrupted at scan time.
    pub corrupted: Vec<u64>,
    /// `(receiver, knocked, extra)` for each receiver whose in-set
    /// deviates from the bases, ascending by receiver: the base senders
    /// knocked out, and the senders of explicit messages, each
    /// ascending.
    pub deviations: Vec<(u32, Vec<u32>, Vec<u32>)>,
}

impl RoundEdges {
    /// Calls `f(sender, receiver, explicit)` for every arrival edge this
    /// round, receiver-major then sender order. `explicit` is true for
    /// deviation-cell messages, false for broadcast-base copies.
    pub fn for_each_edge(&self, n: usize, mut f: impl FnMut(u32, u32, bool)) {
        let mut devs = self.deviations.iter().peekable();
        for r in 0..n as u32 {
            let Some((_, knocked, extra)) = devs.next_if(|(dr, _, _)| *dr == r) else {
                for s in set_bits(&self.base_senders) {
                    f(s as u32, r, false);
                }
                continue;
            };
            // Merge the surviving base senders with the explicit ones;
            // an explicit message overrides its sender's base copy.
            let mut extra = extra.iter().copied().peekable();
            for s in set_bits(&self.base_senders).map(|s| s as u32) {
                while let Some(e) = extra.next_if(|&e| e < s) {
                    f(e, r, true);
                }
                if extra.next_if_eq(&s).is_some() {
                    f(s, r, true);
                } else if knocked.binary_search(&s).is_err() {
                    f(s, r, false);
                }
            }
            for e in extra {
                f(e, r, true);
            }
        }
    }
}

/// Metadata of a node's decision cone, frozen at its halt (or at run
/// end for nodes that never decided). The three frozen bitsets
/// (`anc(v)`, `bad(v)`, corruption snapshot) live in the probe's flat
/// `frozen_bits` pool — freezing a cone on the halt hook must not
/// allocate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FrozenCone {
    /// Round of the halt hook (or the last round, if never decided).
    round: u64,
    /// The node's decided output at freeze time.
    output: Option<bool>,
    /// Whether the node actually halted (vs. a run-end snapshot).
    decided: bool,
    /// `depth(v)` at freeze time.
    depth: u64,
}

/// A frozen cone plus views into its pooled bitsets.
struct ConeView<'a> {
    round: u64,
    output: Option<bool>,
    decided: bool,
    depth: u64,
    /// `anc(v)` at freeze time.
    members: &'a [u64],
    /// `bad(v)` at freeze time.
    influence: &'a [u64],
    /// Corruption bitset at freeze time.
    corrupted: &'a [u64],
}

/// Summary statistics of one node's decision cone — what
/// [`ProvenanceProbe::explain`] answers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConeStats {
    /// The node.
    pub node: NodeId,
    /// Round the cone was frozen at (halt round, or last round).
    pub round: u64,
    /// The node's output at freeze time.
    pub output: Option<bool>,
    /// Whether the node halted (false: run-end snapshot).
    pub decided: bool,
    /// Cone width: number of causal ancestors, self included.
    pub width: u64,
    /// Longest chain of message hops into the decision.
    pub depth: u64,
    /// Cone members corrupted by freeze time.
    pub corrupted_ancestors: u64,
    /// Members of `bad(v)`: senders corrupted when their message
    /// entered the cone.
    pub influenced_by: u64,
}

impl ConeStats {
    /// Adversary-influence fraction: `|bad(v)| / |cone(v)|`.
    pub fn influence_fraction(&self) -> f64 {
        if self.width == 0 {
            0.0
        } else {
            self.influenced_by as f64 / self.width as f64
        }
    }
}

/// The provenance probe. See the module docs for semantics; see
/// [`EventProbe`](crate::probe::EventProbe) for the registry-discipline
/// pattern it follows (hot hooks touch plain fields, the
/// [`MetricsRegistry`] is written once per run at `run_end`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProvenanceProbe {
    n: usize,
    words: usize,
    /// Row-major `n × words` ancestor closures (current round).
    anc: Vec<u64>,
    anc_prev: Vec<u64>,
    /// Row-major `n × words` adversary-influence closures.
    bad: Vec<u64>,
    bad_prev: Vec<u64>,
    depth: Vec<u64>,
    depth_prev: Vec<u64>,
    /// Scratch: frontier unions over the round's base senders.
    u_all: Vec<u64>,
    u_bad: Vec<u64>,
    in_buf: Vec<u64>,
    /// Latest corruption bitset seen by the arrivals hook.
    corrupted: Vec<u64>,
    /// Per-node traffic totals over the run.
    sent_msgs: Vec<u64>,
    sent_bits: Vec<u64>,
    recv_msgs: Vec<u64>,
    recv_bits: Vec<u64>,
    frozen: Vec<Option<FrozenCone>>,
    /// Flat `n × 3·words` pool behind [`ConeView`]: per node, the
    /// frozen `anc`, `bad`, and corruption bitsets, in that order.
    frozen_bits: Vec<u64>,
    /// Saturation fast path: set when the last full update changed no
    /// `anc`/`bad` word on an all-clean round. A later all-clean round
    /// whose base is a subset of [`Self::stable_base`] and whose
    /// corruption set still matches [`Self::corrupted`] provably cannot
    /// change the closures either, so the row copies and union loops
    /// are skipped (only depth and traffic move). Any round failing
    /// those checks falls back to the full update, which re-evaluates
    /// stability from scratch.
    stable: bool,
    /// The base-sender set the `stable` flag was established under.
    stable_base: Vec<u64>,
    /// `Some(d)` when every node's depth is exactly `d` — the steady
    /// state of saturated all-clean broadcast rounds, where the depth
    /// update collapses to a uniform `d + 1` fill with no per-sender
    /// max scan.
    depth_uniform: Option<u64>,
    rounds: Vec<RoundEdges>,
    metrics: MetricsRegistry,
}

fn popcount(words: &[u64]) -> u64 {
    words.iter().map(|w| w.count_ones() as u64).sum()
}

fn popcount_and(a: &[u64], b: &[u64]) -> u64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x & y).count_ones() as u64)
        .sum()
}

fn or_into(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        std::iter::successors((word != 0).then_some(word), |&bits| {
            let next = bits & (bits - 1);
            (next != 0).then_some(next)
        })
        .map(move |bits| w * 64 + bits.trailing_zeros() as usize)
    })
}

impl ProvenanceProbe {
    /// An empty probe; sized at `run_start`.
    pub fn new() -> Self {
        ProvenanceProbe::default()
    }

    /// The recorded metrics (filled at `run_end`, additively across
    /// reused runs, like [`EventProbe`](crate::probe::EventProbe)).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The per-round arrival relations, in round order.
    pub fn rounds(&self) -> &[RoundEdges] {
        &self.rounds
    }

    /// Number of nodes in the traced run.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Per-node offered messages over the run (index = node id).
    pub fn sent_msgs(&self) -> &[u64] {
        &self.sent_msgs
    }

    /// Per-node offered bits over the run.
    pub fn sent_bits(&self) -> &[u64] {
        &self.sent_bits
    }

    /// Per-node delivered messages over the run.
    pub fn recv_msgs(&self) -> &[u64] {
        &self.recv_msgs
    }

    /// Per-node delivered bits over the run.
    pub fn recv_bits(&self) -> &[u64] {
        &self.recv_bits
    }

    fn cone(&self, node: NodeId) -> Option<ConeView<'_>> {
        let i = node.index();
        let meta = (*self.frozen.get(i)?)?;
        let w = self.words;
        let base = i * 3 * w;
        Some(ConeView {
            round: meta.round,
            output: meta.output,
            decided: meta.decided,
            depth: meta.depth,
            members: &self.frozen_bits[base..base + w],
            influence: &self.frozen_bits[base + w..base + 2 * w],
            corrupted: &self.frozen_bits[base + 2 * w..base + 3 * w],
        })
    }

    /// The decision-cone statistics of `node` — `None` before the run
    /// ends if the node has not halted yet.
    pub fn explain(&self, node: NodeId) -> Option<ConeStats> {
        let c = self.cone(node)?;
        Some(ConeStats {
            node,
            round: c.round,
            output: c.output,
            decided: c.decided,
            width: popcount(c.members),
            depth: c.depth,
            corrupted_ancestors: popcount_and(c.members, c.corrupted),
            influenced_by: popcount(c.influence),
        })
    }

    /// The members of `node`'s decision cone, ascending.
    pub fn cone_members(&self, node: NodeId) -> Vec<NodeId> {
        self.cone(node)
            .map(|c| set_bits(c.members).map(|i| NodeId::new(i as u32)).collect())
            .unwrap_or_default()
    }

    /// Whether `member` is in `node`'s decision cone.
    pub fn in_cone(&self, node: NodeId, member: NodeId) -> bool {
        self.cone(node)
            .is_some_and(|c| c.members[member.index() / 64] & (1 << (member.index() % 64)) != 0)
    }

    /// The adversary-influence set `bad(node)`: senders that were
    /// corrupted when their message entered `node`'s causal past.
    pub fn influencers(&self, node: NodeId) -> Vec<NodeId> {
        self.cone(node)
            .map(|c| {
                set_bits(c.influence)
                    .map(|i| NodeId::new(i as u32))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Whether `by` is in `bad(node)`.
    pub fn influenced(&self, node: NodeId, by: NodeId) -> bool {
        self.cone(node)
            .is_some_and(|c| c.influence[by.index() / 64] & (1 << (by.index() % 64)) != 0)
    }

    fn freeze(&mut self, i: usize, round: u64, output: Option<bool>, decided: bool) {
        let w = self.words;
        let base = i * 3 * w;
        self.frozen_bits[base..base + w].copy_from_slice(&self.anc[i * w..(i + 1) * w]);
        self.frozen_bits[base + w..base + 2 * w].copy_from_slice(&self.bad[i * w..(i + 1) * w]);
        self.frozen_bits[base + 2 * w..base + 3 * w].copy_from_slice(&self.corrupted);
        self.frozen[i] = Some(FrozenCone {
            round,
            output,
            decided,
            depth: self.depth[i],
        });
    }

    /// Deterministic per-node text summary: traffic profile and cone
    /// stats, one line per node — the byte-compared artifact body.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for i in 0..self.n {
            let id = NodeId::new(i as u32);
            let _ = write!(
                out,
                "node v{i} sent={}/{}b recv={}/{}b",
                self.sent_msgs[i], self.sent_bits[i], self.recv_msgs[i], self.recv_bits[i]
            );
            if let Some(stats) = self.explain(id) {
                let out_s = match stats.output {
                    Some(b) => b.to_string(),
                    None => "-".to_string(),
                };
                let _ = write!(
                    out,
                    " {}={} round={} cone: width={} depth={} corrupted={} influenced-by={}",
                    if stats.decided { "decided" } else { "final" },
                    out_s,
                    stats.round,
                    stats.width,
                    stats.depth,
                    stats.corrupted_ancestors,
                    stats.influenced_by,
                );
            }
            out.push('\n');
        }
        out
    }

    /// The causal graph as DOT: one node per simulation node (decided
    /// output, corruption, and cone width in the label), arrival edges
    /// aggregated over rounds and weighted by round count. Self-edges
    /// are omitted. Deterministic: everything renders in id order.
    pub fn dot_graph(&self) -> String {
        let n = self.n;
        // Sparse aggregation keyed `(sender, receiver)`: the arrival
        // relation at large `n` holds O(deviations + base·n) distinct
        // edges per run, and an `n × n` counter matrix (1 GiB of `u32`s
        // at n = 16 384) would wall off exactly the sizes the sparse
        // plane exists for. `BTreeMap` iterates ascending, which is the
        // sender-major order the exporter always printed.
        let mut edge_rounds: std::collections::BTreeMap<(u32, u32), u32> =
            std::collections::BTreeMap::new();
        for re in &self.rounds {
            re.for_each_edge(n, |s, r, _| {
                if s != r {
                    *edge_rounds.entry((s, r)).or_insert(0) += 1;
                }
            });
        }
        let mut out = String::from("digraph provenance {\n  rankdir=LR;\n");
        for i in 0..n {
            let corrupted = self.corrupted[i / 64] & (1 << (i % 64)) != 0;
            let stats = self.explain(NodeId::new(i as u32));
            let label = match &stats {
                Some(s) => {
                    let o = match s.output {
                        Some(b) => b.to_string(),
                        None => "-".to_string(),
                    };
                    format!("v{i}\\nout={o} w={}", s.width)
                }
                None => format!("v{i}"),
            };
            let _ = writeln!(
                out,
                "  v{i} [label=\"{label}\"{}];",
                if corrupted {
                    " style=filled fillcolor=salmon"
                } else {
                    ""
                }
            );
        }
        for (&(s, r), &c) in &edge_rounds {
            let _ = writeln!(out, "  v{s} -> v{r} [label=\"{c}\"];");
        }
        out.push_str("}\n");
        out
    }

    /// The causal graph as line-JSON: a header object, then one object
    /// per round (`base` senders, `corrupted` set), then one object per
    /// deviating receiver (`knocked` and `extra` sender lists), then one
    /// summary object per node. Every line is a complete JSON object;
    /// arrays are ascending — byte-identical for identical runs.
    pub fn jsonl_graph(&self) -> String {
        fn ids(ids: impl Iterator<Item = usize>) -> String {
            let mut s = String::from("[");
            for (k, i) in ids.enumerate() {
                if k > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{i}");
            }
            s.push(']');
            s
        }
        let mut out = String::new();
        let _ = writeln!(out, "{{\"n\":{},\"rounds\":{}}}", self.n, self.rounds.len());
        for re in &self.rounds {
            let _ = writeln!(
                out,
                "{{\"round\":{},\"base\":{},\"corrupted\":{}}}",
                re.round,
                ids(set_bits(&re.base_senders)),
                ids(set_bits(&re.corrupted))
            );
            for (r, knocked, extra) in &re.deviations {
                let _ = writeln!(
                    out,
                    "{{\"round\":{},\"receiver\":{},\"knocked\":{},\"extra\":{}}}",
                    re.round,
                    r,
                    ids(knocked.iter().map(|&s| s as usize)),
                    ids(extra.iter().map(|&s| s as usize))
                );
            }
        }
        for i in 0..self.n {
            let id = NodeId::new(i as u32);
            match self.explain(id) {
                Some(s) => {
                    let o = match s.output {
                        Some(b) => b.to_string(),
                        None => "null".to_string(),
                    };
                    let _ = writeln!(
                        out,
                        "{{\"node\":{i},\"decided\":{},\"output\":{o},\"round\":{},\
                         \"cone_width\":{},\"cone_depth\":{},\"corrupted_ancestors\":{},\
                         \"influenced_by\":{},\"sent_msgs\":{},\"sent_bits\":{},\
                         \"recv_msgs\":{},\"recv_bits\":{}}}",
                        s.decided,
                        s.round,
                        s.width,
                        s.depth,
                        s.corrupted_ancestors,
                        s.influenced_by,
                        self.sent_msgs[i],
                        self.sent_bits[i],
                        self.recv_msgs[i],
                        self.recv_bits[i],
                    );
                }
                None => {
                    let _ = writeln!(out, "{{\"node\":{i}}}");
                }
            }
        }
        out
    }
}

impl Probe for ProvenanceProbe {
    const WANTS_ARRIVALS: bool = true;

    fn run_start(&mut self, cfg: &SimConfig) {
        let n = cfg.n;
        let words = n.div_ceil(64);
        self.n = n;
        self.words = words;
        let rw = n * words;
        for v in [
            &mut self.anc,
            &mut self.anc_prev,
            &mut self.bad,
            &mut self.bad_prev,
        ] {
            v.clear();
            v.resize(rw, 0);
        }
        for v in [
            &mut self.u_all,
            &mut self.u_bad,
            &mut self.in_buf,
            &mut self.corrupted,
            &mut self.stable_base,
        ] {
            v.clear();
            v.resize(words, 0);
        }
        self.stable = false;
        self.depth_uniform = None;
        for v in [
            &mut self.depth,
            &mut self.depth_prev,
            &mut self.sent_msgs,
            &mut self.sent_bits,
            &mut self.recv_msgs,
            &mut self.recv_bits,
        ] {
            v.clear();
            v.resize(n, 0);
        }
        self.frozen.clear();
        self.frozen.resize(n, None);
        self.frozen_bits.clear();
        self.frozen_bits.resize(n * 3 * words, 0);
        self.rounds.clear();
        // Every node starts in its own causal past.
        for i in 0..n {
            self.anc[i * words + i / 64] |= 1 << (i % 64);
        }
    }

    fn arrivals(&mut self, round: Round, scan: &ArrivalScan) {
        let (n, w) = (self.n, self.words);
        debug_assert_eq!(n, scan.n());
        let base = scan.base_senders();
        let all_clean = scan.dirty().iter().all(|&d| d == 0);
        if self.stable
            && all_clean
            && self.corrupted[..] == *scan.corrupted()
            && base.iter().zip(&self.stable_base).all(|(b, s)| b & !s == 0)
        {
            // Closures provably unchanged (see `stable`); only depth
            // and traffic move this round.
            if let Some(d) = self.depth_uniform {
                if base.iter().any(|&b| b != 0) {
                    self.depth.fill(d + 1);
                    self.depth_uniform = Some(d + 1);
                }
            } else {
                let mut maxd: Option<u64> = None;
                for s in set_bits(base) {
                    maxd = Some(maxd.map_or(self.depth[s], |m| m.max(self.depth[s])));
                }
                if let Some(m) = maxd {
                    let mut uniform = true;
                    for d in &mut self.depth {
                        *d = (*d).max(m + 1);
                        uniform &= *d == m + 1;
                    }
                    if uniform {
                        self.depth_uniform = Some(m + 1);
                    }
                }
            }
        } else {
            self.depth_uniform = None;
            self.anc_prev.copy_from_slice(&self.anc);
            self.bad_prev.copy_from_slice(&self.bad);
            self.depth_prev.copy_from_slice(&self.depth);
            // Frontier unions over the round's base senders: the shared
            // fast path for every clean receiver.
            self.u_all.fill(0);
            self.u_bad.fill(0);
            let mut max_base_depth = 0u64;
            let mut any_base = false;
            for s in set_bits(base) {
                or_into(&mut self.u_all, &self.anc_prev[s * w..(s + 1) * w]);
                or_into(&mut self.u_bad, &self.bad_prev[s * w..(s + 1) * w]);
                if scan.is_corrupted(s) {
                    self.u_bad[s / 64] |= 1 << (s % 64);
                }
                max_base_depth = max_base_depth.max(self.depth_prev[s]);
                any_base = true;
            }
            // OR of every `new ^ old` word: zero iff the round changed
            // neither closure — the saturation signal.
            let mut delta = 0u64;
            if all_clean {
                if any_base {
                    for row in self.anc.chunks_exact_mut(w) {
                        for (d, s) in row.iter_mut().zip(&self.u_all) {
                            let v = *d | s;
                            delta |= v ^ *d;
                            *d = v;
                        }
                    }
                    for row in self.bad.chunks_exact_mut(w) {
                        for (d, s) in row.iter_mut().zip(&self.u_bad) {
                            let v = *d | s;
                            delta |= v ^ *d;
                            *d = v;
                        }
                    }
                    for d in &mut self.depth {
                        *d = (*d).max(max_base_depth + 1);
                    }
                }
            } else {
                delta = 1;
                for r in 0..n {
                    if scan.is_clean(r) {
                        if any_base {
                            or_into(&mut self.anc[r * w..(r + 1) * w], &self.u_all);
                            or_into(&mut self.bad[r * w..(r + 1) * w], &self.u_bad);
                            self.depth[r] = self.depth[r].max(max_base_depth + 1);
                        }
                    } else {
                        scan.in_set(r, &mut self.in_buf);
                        let mut best: Option<u64> = None;
                        for bw in 0..w {
                            let mut bits = self.in_buf[bw];
                            while bits != 0 {
                                let s = bw * 64 + bits.trailing_zeros() as usize;
                                for k in 0..w {
                                    self.anc[r * w + k] |= self.anc_prev[s * w + k];
                                    self.bad[r * w + k] |= self.bad_prev[s * w + k];
                                }
                                if scan.is_corrupted(s) {
                                    self.bad[r * w + s / 64] |= 1 << (s % 64);
                                }
                                let d = self.depth_prev[s];
                                best = Some(best.map_or(d, |b| b.max(d)));
                                bits &= bits - 1;
                            }
                        }
                        if let Some(b) = best {
                            self.depth[r] = self.depth[r].max(b + 1);
                        }
                    }
                }
            }
            self.stable = delta == 0;
            if self.stable {
                self.stable_base.copy_from_slice(base);
            }
        }
        for (d, &s) in self.sent_msgs.iter_mut().zip(scan.sent_msgs()) {
            *d += s as u64;
        }
        for (d, &s) in self.sent_bits.iter_mut().zip(scan.sent_bits()) {
            *d += s;
        }
        for (d, &s) in self.recv_msgs.iter_mut().zip(scan.recv_msgs()) {
            *d += s as u64;
        }
        for (d, &s) in self.recv_bits.iter_mut().zip(scan.recv_bits()) {
            *d += s;
        }
        self.corrupted.copy_from_slice(scan.corrupted());
        let deviations = set_bits(scan.dirty())
            .map(|r| {
                (
                    r as u32,
                    scan.knocked_row(r).to_vec(),
                    scan.extra_row(r).to_vec(),
                )
            })
            .collect();
        self.rounds.push(RoundEdges {
            round: round.index(),
            base_senders: scan.base_senders().to_vec(),
            corrupted: scan.corrupted().to_vec(),
            deviations,
        });
    }

    fn halt(&mut self, round: Round, node: NodeId, output: Option<bool>) {
        self.freeze(node.index(), round.index(), output, true);
    }

    fn run_end(&mut self, report: &RunReport) {
        // Nodes that never halted get a run-end snapshot cone.
        let last = report.rounds.saturating_sub(1);
        for i in 0..self.n {
            if self.frozen[i].is_none() {
                let output = report.outputs.get(i).copied().flatten();
                self.freeze(i, last, output, false);
            }
        }
        // One registry lookup per metric name: fill local histograms in
        // node order, then merge each once (merge is bucket-wise, so
        // the result is identical to per-node `observe` calls).
        let mut hists = [(); 7].map(|()| Histogram::default());
        let [sent_m, sent_b, recv_m, recv_b, width, depth, corr] = &mut hists;
        let (mut max_sent, mut max_recv) = (0u64, 0u64);
        for i in 0..self.n {
            sent_m.observe(self.sent_msgs[i]);
            sent_b.observe(self.sent_bits[i]);
            recv_m.observe(self.recv_msgs[i]);
            recv_b.observe(self.recv_bits[i]);
            max_sent = max_sent.max(self.sent_bits[i]);
            max_recv = max_recv.max(self.recv_bits[i]);
            if let Some(stats) = self.explain(NodeId::new(i as u32)) {
                width.observe(stats.width);
                depth.observe(stats.depth);
                corr.observe(stats.corrupted_ancestors);
            }
        }
        for (name, h) in [
            (names::NODE_SENT_MSGS, &hists[0]),
            (names::NODE_SENT_BITS, &hists[1]),
            (names::NODE_RECV_MSGS, &hists[2]),
            (names::NODE_RECV_BITS, &hists[3]),
            (names::CONE_WIDTH, &hists[4]),
            (names::CONE_DEPTH, &hists[5]),
            (names::CONE_CORRUPTED, &hists[6]),
        ] {
            if h.count() > 0 {
                self.metrics.merge_histogram(name, h);
            }
        }
        self.metrics
            .gauge_max(names::MAX_NODE_SENT_BITS, max_sent as i64);
        self.metrics
            .gauge_max(names::MAX_NODE_RECV_BITS, max_recv as i64);
        self.metrics.counter_add(names::TRIALS, 1);
    }
}

/// Renders the deterministic event log as a Chrome trace (see
/// [`chrome_trace`](crate::export::chrome_trace)) with **flow events**
/// spliced in: for every round in which a corrupted sender's message
/// arrived somewhere, one flow arrow (`ph:"s"` → `ph:"f"`) from the
/// round's deliver boundary to its receive boundary, named after the
/// sender — adversary influence made visible on the Perfetto timeline.
pub fn chrome_trace_with_flows(log: &EventLog, prov: &ProvenanceProbe) -> String {
    // Ticks of each round's deliver and receive phase boundaries.
    use aba_sim::probe::RoundPhase;
    let mut bounds: Vec<(u64, u64, u64)> = Vec::new(); // (round, deliver, receive)
    for ev in log.events() {
        if let EventKind::PhaseEnd { round, phase } = &ev.kind {
            match phase {
                RoundPhase::Deliver => bounds.push((round.index(), ev.tick, ev.tick)),
                RoundPhase::Receive => {
                    if let Some(b) = bounds.last_mut() {
                        if b.0 == round.index() {
                            b.2 = ev.tick;
                        }
                    }
                }
                _ => {}
            }
        }
    }
    let mut events = chrome_trace_events(log);
    let n = prov.n() as u64;
    for re in prov.rounds() {
        let Some(&(_, deliver, receive)) = bounds.iter().find(|b| b.0 == re.round) else {
            continue;
        };
        // One flow per corrupted sender that contributed anything this
        // round (a base, or at least one explicit message).
        for s in set_bits(&re.corrupted) {
            let has_base = re.base_senders[s / 64] & (1 << (s % 64)) != 0;
            let has_extra = re
                .deviations
                .iter()
                .any(|(_, _, extra)| extra.binary_search(&(s as u32)).is_ok());
            if !has_base && !has_extra {
                continue;
            }
            let name = escape_json(&format!("adv v{s} r{}", re.round));
            let id = re.round * n + s as u64;
            events.push(format!(
                "{{\"name\":\"{name}\",\"cat\":\"adversary\",\"ph\":\"s\",\"ts\":{deliver},\"pid\":0,\"tid\":0,\"id\":{id}}}"
            ));
            events.push(format!(
                "{{\"name\":\"{name}\",\"cat\":\"adversary\",\"ph\":\"f\",\"bp\":\"e\",\"ts\":{receive},\"pid\":0,\"tid\":0,\"id\":{id}}}"
            ));
        }
    }
    join_trace(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aba_sim::probe::RoundPhase;

    fn scan_for(n: usize, build: impl FnOnce(&mut ArrivalScan)) -> ArrivalScan {
        let mut s = ArrivalScan::new();
        s.reset(n);
        build(&mut s);
        s.set_corrupted(&vec![false; n]);
        s
    }

    fn probe_for(n: usize) -> ProvenanceProbe {
        let mut p = ProvenanceProbe::new();
        p.run_start(&SimConfig::new(n, 0));
        p
    }

    #[test]
    fn broadcast_round_unions_everyone() {
        let mut p = probe_for(4);
        let scan = scan_for(4, |s| {
            for i in 0..4 {
                s.mark_base(i, 8);
            }
            s.finish_base_recv();
        });
        p.arrivals(Round::ZERO, &scan);
        p.halt(Round::ZERO, NodeId::new(2), Some(true));
        let stats = p.explain(NodeId::new(2)).expect("frozen");
        assert_eq!(stats.width, 4);
        assert_eq!(stats.depth, 1);
        assert_eq!(stats.influenced_by, 0);
        assert!(p.in_cone(NodeId::new(2), NodeId::new(0)));
    }

    #[test]
    fn knocked_edges_keep_nodes_out_of_the_cone() {
        let mut p = probe_for(3);
        // Round 0: only 0 broadcasts, and 2 is knocked out of it.
        let scan = scan_for(3, |s| {
            s.mark_base(0, 8);
            s.mark_knocked(2, 0);
            s.finish_base_recv();
        });
        p.arrivals(Round::ZERO, &scan);
        p.halt(Round::ZERO, NodeId::new(1), Some(false));
        p.halt(Round::ZERO, NodeId::new(2), Some(true));
        assert!(p.in_cone(NodeId::new(1), NodeId::new(0)));
        assert!(!p.in_cone(NodeId::new(2), NodeId::new(0)));
        assert_eq!(p.explain(NodeId::new(2)).unwrap().width, 1);
    }

    #[test]
    fn influence_propagates_transitively() {
        let mut p = probe_for(3);
        // Round 0: corrupted 0 sends only to 1 (explicit).
        let mut s0 = ArrivalScan::new();
        s0.reset(3);
        s0.mark_extra(1, 0);
        s0.add_recv(1, 1, 8);
        s0.finish_base_recv();
        s0.set_corrupted(&[true, false, false]);
        p.arrivals(Round::ZERO, &s0);
        // Round 1: 1 broadcasts (honest), reaching 2.
        let mut s1 = ArrivalScan::new();
        s1.reset(3);
        s1.mark_base(1, 8);
        s1.finish_base_recv();
        s1.set_corrupted(&[true, false, false]);
        p.arrivals(Round::new(1), &s1);
        p.halt(Round::new(1), NodeId::new(2), Some(true));
        let stats = p.explain(NodeId::new(2)).expect("frozen");
        // 2's cone: {0 (via 1), 1, 2}; 0 influenced it transitively.
        assert_eq!(stats.width, 3);
        assert_eq!(stats.depth, 2);
        assert_eq!(stats.influenced_by, 1);
        assert!(p.influenced(NodeId::new(2), NodeId::new(0)));
        assert_eq!(stats.corrupted_ancestors, 1);
    }

    #[test]
    fn late_corruption_does_not_taint_earlier_messages() {
        let mut p = probe_for(2);
        // Round 0: honest 0 broadcasts.
        let s0 = scan_for(2, |s| {
            s.mark_base(0, 8);
            s.finish_base_recv();
        });
        p.arrivals(Round::ZERO, &s0);
        // Round 1: 0 now corrupted but silent.
        let mut s1 = ArrivalScan::new();
        s1.reset(2);
        s1.set_corrupted(&[true, false]);
        p.arrivals(Round::new(1), &s1);
        p.halt(Round::new(1), NodeId::new(1), Some(true));
        let stats = p.explain(NodeId::new(1)).expect("frozen");
        // 0 is in the cone and corrupted *now*, but influenced no one.
        assert_eq!(stats.width, 2);
        assert_eq!(stats.influenced_by, 0);
        assert_eq!(stats.corrupted_ancestors, 1);
    }

    #[test]
    fn run_end_freezes_undecided_nodes_and_fills_metrics() {
        let mut p = probe_for(2);
        let scan = scan_for(2, |s| {
            s.mark_base(0, 8);
            s.mark_base(1, 8);
            s.add_sent(0, 1, 8);
            s.add_sent(1, 1, 8);
            s.finish_base_recv();
        });
        p.arrivals(Round::ZERO, &scan);
        let report = RunReport {
            rounds: 1,
            all_halted: false,
            outputs: vec![None, Some(true)],
            honest: vec![true, true],
            corruptions_used: 0,
            halt_rounds: vec![None, None],
            metrics: aba_sim::RunMetrics::default(),
        };
        p.run_end(&report);
        let s = p.explain(NodeId::new(0)).expect("snapshot");
        assert!(!s.decided);
        assert_eq!(s.width, 2);
        assert_eq!(p.metrics().counter(names::TRIALS), 1);
        let h = p.metrics().histogram(names::CONE_WIDTH).expect("hist");
        assert_eq!(h.count(), 2);
        // Per-node traffic reached the registry.
        assert_eq!(
            p.metrics().histogram(names::NODE_SENT_MSGS).unwrap().sum(),
            2
        );
    }

    #[test]
    fn round_edges_enumerates_base_and_extra_edges() {
        let mut re = RoundEdges {
            round: 3,
            base_senders: vec![0b01],
            corrupted: vec![0],
            deviations: vec![(1, vec![0], vec![2])],
        };
        let mut edges = Vec::new();
        re.for_each_edge(3, |s, r, explicit| edges.push((s, r, explicit)));
        // r=0: base from 0; r=1: base knocked, extra from 2; r=2: base.
        assert_eq!(edges, vec![(0, 0, false), (2, 1, true), (0, 2, false)]);
        // An extra that overrides a base must not double-report.
        re.deviations = vec![(1, vec![0], vec![0])];
        edges.clear();
        re.for_each_edge(3, |s, r, explicit| edges.push((s, r, explicit)));
        assert_eq!(edges, vec![(0, 0, false), (0, 1, true), (0, 2, false)]);
    }

    #[test]
    fn exporters_are_deterministic() {
        let mut p = probe_for(3);
        let scan = scan_for(3, |s| {
            s.mark_base(0, 8);
            s.mark_extra(1, 2);
            s.add_recv(1, 1, 8);
            s.finish_base_recv();
        });
        p.arrivals(Round::ZERO, &scan);
        p.halt(Round::ZERO, NodeId::new(1), Some(true));
        let dot = p.dot_graph();
        assert!(dot.starts_with("digraph provenance {"));
        assert!(dot.contains("v0 -> v1"));
        assert!(dot.contains("v2 -> v1"));
        assert_eq!(dot, p.dot_graph());
        let jsonl = p.jsonl_graph();
        assert!(jsonl.starts_with("{\"n\":3,\"rounds\":1}\n"));
        assert!(jsonl.contains("\"receiver\":1"));
        assert_eq!(jsonl, p.jsonl_graph());
    }

    #[test]
    fn dot_graph_scales_to_large_n_without_quadratic_allocation() {
        // Regression: the exporter used to allocate an `n × n` edge
        // matrix (1 GiB at this size) before writing a single byte.
        // The sparse-plane sizes send a handful of point-to-point
        // messages per node, so the aggregation must scale with the
        // edges that exist, not with n².
        let n = 16_384;
        let mut p = probe_for(n);
        let mut scan = ArrivalScan::new();
        scan.reset(n);
        for r in [7usize, 100, 9_999, 16_383] {
            scan.mark_extra(r, 3);
            scan.add_recv(r, 1, 8);
        }
        scan.finish_base_recv();
        scan.set_corrupted(&vec![false; n]);
        p.arrivals(Round::ZERO, &scan);
        let dot = p.dot_graph();
        assert!(dot.contains("v3 -> v7 [label=\"1\"];"));
        assert!(dot.contains("v3 -> v16383 [label=\"1\"];"));
        assert_eq!(dot.matches(" -> ").count(), 4);
        assert_eq!(dot, p.dot_graph());
    }

    #[test]
    fn flows_land_between_deliver_and_receive() {
        let mut p = probe_for(2);
        let mut scan = ArrivalScan::new();
        scan.reset(2);
        scan.mark_base(0, 8);
        scan.finish_base_recv();
        scan.set_corrupted(&[true, false]);
        p.arrivals(Round::ZERO, &scan);

        let mut log = EventLog::new();
        log.push(EventKind::TrialStart {
            n: 2,
            t: 1,
            seed: 0,
        });
        log.push(EventKind::RoundStart { round: Round::ZERO });
        for phase in RoundPhase::ALL {
            log.push(EventKind::PhaseEnd {
                round: Round::ZERO,
                phase,
            });
        }
        let json = chrome_trace_with_flows(&log, &p);
        assert!(json.contains("\"ph\":\"s\""));
        assert!(json.contains("\"ph\":\"f\""));
        assert!(json.contains("adv v0 r0"));
        assert!(json.ends_with("]\n"));
        assert_eq!(json, chrome_trace_with_flows(&log, &p));
    }
}
