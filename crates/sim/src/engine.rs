//! The lock-step simulation engine.
//!
//! See the crate docs for the model. The normative round order is:
//!
//! 1. every live honest node emits (drawing randomness now);
//! 2. the adversary acts on the full-information view (seeing step 1's
//!    messages iff rushing), corrupting nodes and dictating corrupted
//!    nodes' emissions — including replacing messages emitted in step 1
//!    by nodes corrupted in this very round;
//! 3. the **delivery stage** ([`Delivery`]) decides what arrives this
//!    round (the default, [`PassThrough`], delivers everything
//!    immediately — the paper's synchronous model), then every live
//!    honest node processes its inbox;
//! 4. the round's [`RoundMetrics`] go to the oracle's
//!    [`Oracle::observe_round`] and the probe's [`Probe::round_end`],
//!    and are absorbed into the run totals.
//!
//! The engine keeps no event log of its own. A run reports each fact
//! once: totals in [`RunReport`], corruptions in
//! [`CorruptionLedger::history`], and everything per round through the
//! [`Probe`] hooks.

use crate::adversary::{Adversary, CorruptionLedger, InfoModel, RoundView};
use crate::delivery::{Delivery, PassThrough};
use crate::error::SimError;
use crate::id::{NodeId, Round};
use crate::mailbox::RoundMailbox;
use crate::message::Emission;
use crate::metrics::{RoundMetrics, RunMetrics};
use crate::oracle::{NoOracle, Oracle, RoundCtx};
use crate::plane::MessagePlane;
use crate::probe::{NoProbe, Probe, RoundPhase};
use crate::protocol::Protocol;
use crate::rng::{self, streams};
use rand::rngs::SmallRng;

/// Configuration of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Network size `n`.
    pub n: usize,
    /// Corruption budget `t` (the adversary may corrupt up to `t` nodes).
    pub t: usize,
    /// Rushing (paper model) or non-rushing (Chor–Coan model) adversary.
    pub info_model: InfoModel,
    /// Hard cap on rounds; hitting it marks the run as non-terminating.
    pub max_rounds: u64,
    /// Master seed; the run is a pure function of `(config, seed)`.
    pub seed: u64,
    /// In-round worker threads for the emit and receive phases
    /// (`0`/`1` = serial). Results are byte-identical at any value:
    /// nodes are sharded into fixed contiguous ID ranges, each node
    /// draws from its own per-node RNG stream, and every reduction
    /// (emission installation, halt bookkeeping, probe hooks) is
    /// replayed on the main thread in ID order.
    pub threads: usize,
}

impl SimConfig {
    /// Reasonable defaults: rushing adversary, 10 000-round cap, seed 0.
    pub fn new(n: usize, t: usize) -> Self {
        SimConfig {
            n,
            t,
            info_model: InfoModel::Rushing,
            max_rounds: 10_000,
            seed: 0,
            threads: 1,
        }
    }

    /// Sets the master seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the information model.
    #[must_use]
    pub fn with_info_model(mut self, m: InfoModel) -> Self {
        self.info_model = m;
        self
    }

    /// Sets the round cap.
    #[must_use]
    pub fn with_max_rounds(mut self, r: u64) -> Self {
        self.max_rounds = r;
        self
    }

    /// Sets the in-round worker-thread count (see [`SimConfig::threads`]).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// Outcome of a completed run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Rounds executed.
    pub rounds: u64,
    /// True if every honest node halted before the round cap.
    pub all_halted: bool,
    /// Output of each node (`None` for corrupted nodes and non-halted
    /// honest nodes), indexed by ID.
    pub outputs: Vec<Option<bool>>,
    /// `honest[i]` is false iff node `i` was corrupted.
    pub honest: Vec<bool>,
    /// Corruptions actually performed.
    pub corruptions_used: usize,
    /// Round at which each honest node halted (`None` if it never did).
    pub halt_rounds: Vec<Option<u64>>,
    /// Aggregated measurements.
    pub metrics: RunMetrics,
}

impl RunReport {
    /// Outputs of the honest nodes that decided, in ID order — the values
    /// the agreement/validity conditions quantify over.
    pub fn honest_outputs(&self) -> Vec<bool> {
        self.outputs
            .iter()
            .zip(&self.honest)
            .filter(|(_, h)| **h)
            .filter_map(|(o, _)| *o)
            .collect()
    }

    /// Whether all honest outputs (that exist) are equal.
    pub fn honest_outputs_agree(&self) -> bool {
        self.honest_outputs().windows(2).all(|w| w[0] == w[1])
    }
}

/// A single simulation run binding a protocol, an adversary, a network
/// delivery stage, an optional online oracle, and a config.
///
/// The third type parameter selects the [`Delivery`] implementation and
/// defaults to [`PassThrough`] (strict lock-step synchrony); richer
/// network conditions plug in via [`Simulation::with_network`] without
/// giving up static dispatch. The fourth selects the online [`Oracle`]
/// and defaults to [`NoOracle`], whose empty inline hooks make the
/// unobserved engine bit-identical in behaviour and cost to the
/// pre-oracle engine; checkers attach via [`Simulation::with_oracle`].
/// The fifth selects the instrumentation [`Probe`] and defaults to
/// [`NoProbe`] under the same zero-cost contract; observers attach via
/// [`Simulation::with_instruments`]. The sixth selects the
/// [`MessagePlane`] the round's messages live in and defaults to the
/// dense [`RoundMailbox`]; binary-BA protocol families opt into the
/// bit-packed [`crate::packed::PackedMailbox`] (see [`PackedSimulation`])
/// for word-parallel tallies at large `n`.
pub struct Simulation<
    P: Protocol,
    A: Adversary<P, L>,
    D: Delivery<P::Msg, L> = PassThrough,
    O: Oracle<P::Msg, L> = NoOracle,
    B: Probe = NoProbe,
    L: MessagePlane<P::Msg> = RoundMailbox<<P as Protocol>::Msg>,
> {
    cfg: SimConfig,
    nodes: Vec<P>,
    adversary: A,
    delivery: D,
    oracle: O,
    probe: B,
    ledger: CorruptionLedger,
    node_rngs: Vec<SmallRng>,
    adv_rng: SmallRng,
    halted: Vec<bool>,
    halt_rounds: Vec<Option<u64>>,
    /// Decided outputs, recorded at halt time (what the oracle seam sees
    /// mid-run; the final report re-reads the nodes).
    outputs: Vec<Option<bool>>,
    metrics: RunMetrics,
    round: Round,
    done: bool,
    /// Pooled round plane: taken at the start of [`Simulation::step`],
    /// cleared and refilled, and restored from the delivery stage's
    /// arrivals — no per-round mailbox allocation after warm-up.
    mailbox_pool: L,
    /// Pooled emission buffer for the sharded emit phase (empty and
    /// untouched while running serially).
    emit_buf: Vec<Option<Emission<P::Msg>>>,
    /// Pooled per-round arrival scan, filled only when the probe opts
    /// in ([`Probe::WANTS_ARRIVALS`]); empty otherwise.
    arrival_scan: crate::arrivals::ArrivalScan,
}

/// A [`Simulation`] on the bit-packed
/// [`PackedMailbox`](crate::packed::PackedMailbox) plane.
pub type PackedSimulation<P, A, D = PassThrough, O = NoOracle, B = NoProbe> =
    Simulation<P, A, D, O, B, crate::packed::PackedMailbox<<P as Protocol>::Msg>>;

/// A [`Simulation`] on the flat-arena
/// [`SparseMailbox`](crate::sparse::SparseMailbox) plane — no n×n
/// allocation ever, for sampling-based protocol families at very large
/// `n`.
pub type SparseSimulation<P, A, D = PassThrough, O = NoOracle, B = NoProbe> =
    Simulation<P, A, D, O, B, crate::sparse::SparseMailbox<<P as Protocol>::Msg>>;

impl<P: Protocol, A: Adversary<P>> Simulation<P, A, PassThrough> {
    /// Creates a simulation on the synchronous network (every message
    /// delivered in its emission round).
    ///
    /// # Panics
    ///
    /// Panics if `cfg.n == 0` or `nodes.len() != cfg.n` — these are
    /// programming errors, not runtime conditions.
    pub fn new(cfg: SimConfig, nodes: Vec<P>, adversary: A) -> Self {
        Self::with_network(cfg, nodes, adversary, PassThrough)
    }
}

impl<P: Protocol, A: Adversary<P>, D: Delivery<P::Msg>> Simulation<P, A, D> {
    /// Creates a simulation with an explicit network delivery stage.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Simulation::new`].
    pub fn with_network(cfg: SimConfig, nodes: Vec<P>, adversary: A, delivery: D) -> Self {
        Simulation::with_oracle(cfg, nodes, adversary, delivery, NoOracle)
    }
}

impl<P: Protocol, A: Adversary<P>, D: Delivery<P::Msg>, O: Oracle<P::Msg>> Simulation<P, A, D, O> {
    /// Creates a simulation with an explicit delivery stage and an online
    /// oracle observing every round (see [`Oracle`]).
    ///
    /// # Panics
    ///
    /// Same conditions as [`Simulation::new`].
    pub fn with_oracle(
        cfg: SimConfig,
        nodes: Vec<P>,
        adversary: A,
        delivery: D,
        oracle: O,
    ) -> Self {
        Simulation::with_instruments(cfg, nodes, adversary, delivery, oracle, NoProbe)
    }
}

impl<
        P: Protocol,
        A: Adversary<P, L>,
        D: Delivery<P::Msg, L>,
        O: Oracle<P::Msg, L>,
        B: Probe,
        L: MessagePlane<P::Msg>,
    > Simulation<P, A, D, O, B, L>
{
    /// Creates a fully-instrumented simulation: explicit delivery stage,
    /// online oracle, and engine probe (see [`Probe`]). The probe's
    /// [`Probe::run_start`] hook fires here, on the validated config.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Simulation::new`].
    pub fn with_instruments(
        cfg: SimConfig,
        nodes: Vec<P>,
        adversary: A,
        delivery: D,
        oracle: O,
        mut probe: B,
    ) -> Self {
        if cfg.n == 0 {
            panic!("invalid simulation setup: invalid network size n=0");
        }
        if nodes.len() != cfg.n {
            panic!(
                "invalid simulation setup: expected {} protocol nodes, got {}",
                cfg.n,
                nodes.len()
            );
        }
        let node_rngs = (0..cfg.n).map(|i| rng::node_rng(cfg.seed, i)).collect();
        let adv_rng = rng::rng_for(cfg.seed, streams::ADVERSARY);
        let ledger = CorruptionLedger::new(cfg.n, cfg.t);
        probe.run_start(&cfg);
        let mut mailbox_pool = L::default();
        mailbox_pool.reset(cfg.n);
        Simulation {
            halted: vec![false; cfg.n],
            halt_rounds: vec![None; cfg.n],
            outputs: vec![None; cfg.n],
            metrics: RunMetrics::default(),
            mailbox_pool,
            emit_buf: Vec::new(),
            arrival_scan: crate::arrivals::ArrivalScan::new(),
            nodes,
            adversary,
            delivery,
            oracle,
            probe,
            ledger,
            node_rngs,
            adv_rng,
            round: Round::ZERO,
            done: false,
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Current round (the next one to execute).
    pub fn round(&self) -> Round {
        self.round
    }

    /// Immutable access to the nodes (for tests and inspection).
    pub fn nodes(&self) -> &[P] {
        &self.nodes
    }

    /// The corruption ledger.
    pub fn ledger(&self) -> &CorruptionLedger {
        &self.ledger
    }

    /// Whether the run has finished (all honest halted or cap reached).
    pub fn is_done(&self) -> bool {
        self.done
    }

    fn all_honest_halted(&self) -> bool {
        self.halted
            .iter()
            .enumerate()
            .all(|(i, h)| *h || self.ledger.is_corrupted(NodeId::new(i as u32)))
    }

    /// Records node `i`'s halt (it may halt inside `emit` — "broadcast
    /// once more and terminate" — or inside `receive`).
    fn record_halt(&mut self, round: Round, i: usize) {
        let id = NodeId::new(i as u32);
        self.halted[i] = true;
        self.halt_rounds[i] = Some(round.index());
        self.outputs[i] = self.nodes[i].output();
        self.probe.halt(round, id, self.outputs[i]);
    }

    /// Executes one round. Returns `true` if the run is still going.
    ///
    /// The `Send`/`Sync` bounds exist for the in-round worker pool
    /// ([`SimConfig::threads`]); every protocol/message in this
    /// workspace is plain data, so they are satisfied automatically.
    pub fn step(&mut self) -> bool
    where
        P: Send,
        P::Msg: Send + Sync,
        L: Sync,
    {
        if self.done {
            return false;
        }
        let n = self.cfg.n;
        let round = self.round;
        let threads = self.cfg.threads.clamp(1, n);
        self.probe.round_start(round);

        // Phase 1: live honest nodes emit. The round mailbox is pooled:
        // taken from the previous round's arrivals, cleared in place.
        //
        // With in-round workers, nodes are sharded into fixed contiguous
        // ID ranges; each worker writes emissions into its slice of the
        // pooled buffer, and the main thread then installs them — and
        // replays the halt bookkeeping — strictly in ID order, so the
        // mailbox and probe streams are byte-identical to the serial
        // schedule at any thread count.
        let mut mailbox = std::mem::take(&mut self.mailbox_pool);
        mailbox.reset(n);
        if threads > 1 {
            if self.emit_buf.len() != n {
                self.emit_buf.clear();
                self.emit_buf.resize_with(n, || None);
            }
            let chunk = n.div_ceil(threads);
            {
                let halted = &self.halted;
                let ledger = &self.ledger;
                let mut nodes_rest: &mut [P] = &mut self.nodes;
                let mut rngs_rest: &mut [SmallRng] = &mut self.node_rngs;
                let mut buf_rest: &mut [Option<Emission<P::Msg>>] = &mut self.emit_buf;
                std::thread::scope(|s| {
                    let mut start = 0;
                    while start < n {
                        let len = chunk.min(n - start);
                        let (nc, nr) = nodes_rest.split_at_mut(len);
                        let (rc, rr) = rngs_rest.split_at_mut(len);
                        let (bc, br) = buf_rest.split_at_mut(len);
                        nodes_rest = nr;
                        rngs_rest = rr;
                        buf_rest = br;
                        let base = start;
                        s.spawn(move || {
                            for (off, ((node, rng), slot)) in nc
                                .iter_mut()
                                .zip(rc.iter_mut())
                                .zip(bc.iter_mut())
                                .enumerate()
                            {
                                let i = base + off;
                                if halted[i] || ledger.is_corrupted(NodeId::new(i as u32)) {
                                    continue;
                                }
                                *slot = Some(node.emit(round, rng));
                            }
                        });
                        start += len;
                    }
                });
            }
            for i in 0..n {
                if let Some(emission) = self.emit_buf[i].take() {
                    mailbox.set(NodeId::new(i as u32), emission);
                    if self.nodes[i].halted() {
                        self.record_halt(round, i);
                    }
                }
            }
        } else {
            for i in 0..n {
                let id = NodeId::new(i as u32);
                if self.halted[i] || self.ledger.is_corrupted(id) {
                    continue;
                }
                let emission = self.nodes[i].emit(round, &mut self.node_rngs[i]);
                mailbox.set(id, emission);
                if self.nodes[i].halted() {
                    self.record_halt(round, i);
                }
            }
        }
        self.probe.phase_end(round, RoundPhase::Emit);

        // Phase 2: the adversary acts.
        let corruptions_before = self.ledger.used();
        let action = {
            let view = RoundView {
                round,
                nodes: &self.nodes,
                outgoing: self.cfg.info_model.is_rushing().then_some(&mailbox),
                ledger: &self.ledger,
                halted: &self.halted,
            };
            self.adversary.act(&view, &mut self.adv_rng)
        };
        self.oracle.observe_action(round, &action);

        // Apply corruptions; budget violations are programming errors in
        // the strategy and surface as panics with context.
        for id in &action.corruptions {
            self.ledger
                .corrupt(*id, round)
                .unwrap_or_else(|e| panic!("adversary violated corruption rules: {e}"));
            self.probe.corruption(round, *id, self.ledger.used());
        }
        // Every corrupted node's slot is reset: silent unless the action
        // provides an emission. This also erases the honest emission of a
        // node corrupted this round (rushing corruption).
        for id in self.ledger.corrupted_nodes() {
            mailbox.silence(id);
        }
        for (id, send) in action.sends {
            if !self.ledger.is_corrupted(id) {
                panic!(
                    "adversary violated send rules: {}",
                    SimError::SendFromHonest { node: id, round }
                );
            }
            mailbox.set(id, send);
        }
        self.probe.phase_end(round, RoundPhase::Adversary);

        // Phase 3: the delivery stage decides what arrives this round
        // (emission metrics are taken from the wire mailbox first, so
        // message/bit accounting measures offered load regardless of the
        // network model), then every live honest node processes its inbox.
        let round_messages = mailbox.message_count();
        let round_bits = mailbox.total_bits();
        let round_max_edge = mailbox.max_edge_bits();
        if B::WANTS_ARRIVALS {
            // Offered traffic is read off the wire mailbox here, at the
            // same point the round's message/bit metrics are taken.
            self.arrival_scan.reset(n);
            self.arrival_scan.tally_offered(&mailbox);
        }
        let (mut arrivals, delivery_stats) = self.delivery.deliver(round, mailbox, &self.ledger);
        // The arrivals are final for the round: index them for the
        // receivers' inbox reads (a no-op on the dense and packed planes).
        arrivals.build_inbox_index();
        self.probe.phase_end(round, RoundPhase::Deliver);
        if B::WANTS_ARRIVALS {
            self.arrival_scan.scan_arrivals(&arrivals);
            self.arrival_scan.set_corrupted(self.ledger.flags());
            self.probe.arrivals(round, &self.arrival_scan);
        }
        // With in-round workers, receivers share the arrivals plane
        // immutably over the same fixed ID shards; the halted flags are
        // only read during the phase (a node's halt can't change another
        // node's skip decision within a phase), so the per-node work is
        // schedule-independent. Halt bookkeeping is again replayed on
        // the main thread in ID order.
        if threads > 1 {
            let halted = &self.halted;
            let ledger = &self.ledger;
            let arrivals_ref = &arrivals;
            let chunk = n.div_ceil(threads);
            let mut nodes_rest: &mut [P] = &mut self.nodes;
            let mut rngs_rest: &mut [SmallRng] = &mut self.node_rngs;
            std::thread::scope(|s| {
                let mut start = 0;
                while start < n {
                    let len = chunk.min(n - start);
                    let (nc, nr) = nodes_rest.split_at_mut(len);
                    let (rc, rr) = rngs_rest.split_at_mut(len);
                    nodes_rest = nr;
                    rngs_rest = rr;
                    let base = start;
                    s.spawn(move || {
                        for (off, (node, rng)) in nc.iter_mut().zip(rc.iter_mut()).enumerate() {
                            let i = base + off;
                            let id = NodeId::new(i as u32);
                            if halted[i] || ledger.is_corrupted(id) {
                                continue;
                            }
                            node.receive(round, arrivals_ref.inbox(id), rng);
                        }
                    });
                    start += len;
                }
            });
            for i in 0..n {
                let id = NodeId::new(i as u32);
                if self.halted[i] || self.ledger.is_corrupted(id) {
                    continue;
                }
                if self.nodes[i].halted() {
                    self.record_halt(round, i);
                }
            }
        } else {
            for i in 0..n {
                let id = NodeId::new(i as u32);
                if self.halted[i] || self.ledger.is_corrupted(id) {
                    continue;
                }
                self.nodes[i].receive(round, arrivals.inbox(id), &mut self.node_rngs[i]);
                if self.nodes[i].halted() {
                    self.record_halt(round, i);
                }
            }
        }
        self.probe.phase_end(round, RoundPhase::Receive);

        // Phase 4: metrics, and the oracle's end-of-round observation
        // (the arrivals mailbox is still at hand here).
        let round_metrics = RoundMetrics {
            messages: round_messages,
            bits: round_bits,
            max_edge_bits: round_max_edge,
            corruptions: self.ledger.used() - corruptions_before,
            delivered: delivery_stats.delivered,
            dropped: delivery_stats.dropped,
            delayed: delivery_stats.delayed,
        };
        self.oracle.observe_round(&RoundCtx {
            round,
            n,
            t: self.cfg.t,
            arrivals: &arrivals,
            metrics: &round_metrics,
            ledger: &self.ledger,
            halted: &self.halted,
            outputs: &self.outputs,
            _msg: std::marker::PhantomData,
        });
        self.probe.round_end(round, &round_metrics);
        self.metrics.absorb(round_metrics);
        // The arrivals mailbox becomes next round's pooled wire mailbox.
        self.mailbox_pool = arrivals;

        self.round = round.next();
        if self.all_honest_halted() || self.round.index() >= self.cfg.max_rounds {
            self.done = true;
        }
        !self.done
    }

    /// Runs to completion and produces the report.
    pub fn run(self) -> RunReport
    where
        P: Send,
        P::Msg: Send + Sync,
        L: Sync,
    {
        self.run_with_oracle().0
    }

    /// Runs to completion, returning the report and the oracle (with
    /// whatever it recorded or concluded).
    pub fn run_with_oracle(self) -> (RunReport, O)
    where
        P: Send,
        P::Msg: Send + Sync,
        L: Sync,
    {
        let (report, oracle, _) = self.run_instrumented();
        (report, oracle)
    }

    /// Runs to completion, returning the report, the oracle, and the
    /// probe (with whatever each recorded).
    pub fn run_instrumented(mut self) -> (RunReport, O, B)
    where
        P: Send,
        P::Msg: Send + Sync,
        L: Sync,
    {
        while self.step() {}
        self.into_parts()
    }

    /// Finalizes a (possibly partially stepped) simulation into a report.
    pub fn into_report(self) -> RunReport {
        self.into_parts().0
    }

    /// Finalizes into the report, the oracle, and the probe. The
    /// oracle's [`Oracle::observe_end`] and the probe's
    /// [`Probe::run_end`] hooks fire here, on the finished report.
    pub fn into_parts(mut self) -> (RunReport, O, B) {
        let honest: Vec<bool> = (0..self.cfg.n)
            .map(|i| !self.ledger.is_corrupted(NodeId::new(i as u32)))
            .collect();
        let outputs: Vec<Option<bool>> = self
            .nodes
            .iter()
            .zip(&honest)
            .map(|(node, h)| if *h { node.output() } else { None })
            .collect();
        let all_halted = self
            .halted
            .iter()
            .zip(&honest)
            .all(|(halted, h)| !*h || *halted);
        let report = RunReport {
            rounds: self.round.index(),
            all_halted,
            outputs,
            honest,
            corruptions_used: self.ledger.used(),
            halt_rounds: self.halt_rounds,
            metrics: self.metrics,
        };
        self.oracle.observe_end(&report);
        self.probe.run_end(&report);
        (report, self.oracle, self.probe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{AdversaryAction, Benign, CorruptSend};
    use crate::mailbox::Inbox;
    use crate::message::{Emission, Message};
    use rand::RngCore;

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Val(u8);
    impl Message for Val {
        fn bit_size(&self) -> usize {
            8
        }
    }

    /// Broadcasts its input for `rounds_to_run` rounds, then outputs the
    /// majority of the last round's values.
    #[derive(Debug, Clone)]
    struct Maj {
        input: bool,
        n: usize,
        rounds_to_run: u64,
        out: Option<bool>,
        halted: bool,
    }

    impl Protocol for Maj {
        type Msg = Val;
        fn emit(&mut self, _r: Round, _rng: &mut dyn RngCore) -> Emission<Val> {
            Emission::Broadcast(Val(self.input as u8))
        }
        fn receive(&mut self, r: Round, inbox: Inbox<'_, Val>, _rng: &mut dyn RngCore) {
            if r.index() + 1 >= self.rounds_to_run {
                let ones = inbox.iter().filter(|(_, m)| m.0 == 1).count();
                self.out = Some(2 * ones >= self.n);
                self.halted = true;
            }
        }
        fn output(&self) -> Option<bool> {
            self.out
        }
        fn halted(&self) -> bool {
            self.halted
        }
    }

    fn maj_nodes(n: usize, ones: usize, rounds: u64) -> Vec<Maj> {
        (0..n)
            .map(|i| Maj {
                input: i < ones,
                n,
                rounds_to_run: rounds,
                out: None,
                halted: false,
            })
            .collect()
    }

    #[test]
    fn benign_run_reaches_majority() {
        let report = Simulation::new(SimConfig::new(7, 0), maj_nodes(7, 5, 1), Benign).run();
        assert!(report.all_halted);
        assert_eq!(report.rounds, 1);
        assert!(report.outputs.iter().all(|o| *o == Some(true)));
        // 7 broadcasts of 6 messages each.
        assert_eq!(report.metrics.total_messages, 42);
        assert_eq!(report.metrics.max_edge_bits, 8);
    }

    #[test]
    fn round_cap_marks_non_termination() {
        // Nodes that never halt.
        #[derive(Debug)]
        struct Forever;
        impl Protocol for Forever {
            type Msg = Val;
            fn emit(&mut self, _: Round, _: &mut dyn RngCore) -> Emission<Val> {
                Emission::Silent
            }
            fn receive(&mut self, _: Round, _: Inbox<'_, Val>, _: &mut dyn RngCore) {}
            fn output(&self) -> Option<bool> {
                None
            }
            fn halted(&self) -> bool {
                false
            }
        }
        let cfg = SimConfig::new(3, 0).with_max_rounds(5);
        let report = Simulation::new(cfg, vec![Forever, Forever, Forever], Benign).run();
        assert!(!report.all_halted);
        assert_eq!(report.rounds, 5);
    }

    /// An adversary that corrupts node 0 in round 0 and makes it
    /// equivocate.
    struct CorruptZero;
    impl Adversary<Maj> for CorruptZero {
        fn act(
            &mut self,
            view: &RoundView<'_, Maj>,
            _rng: &mut dyn RngCore,
        ) -> AdversaryAction<Val> {
            if view.round == Round::ZERO {
                AdversaryAction {
                    corruptions: vec![NodeId::new(0)],
                    sends: vec![(
                        NodeId::new(0),
                        CorruptSend::PerRecipient(vec![
                            (NodeId::new(1), Val(1)),
                            (NodeId::new(2), Val(0)),
                        ]),
                    )],
                }
            } else {
                AdversaryAction::pass()
            }
        }
        fn name(&self) -> &'static str {
            "corrupt-zero"
        }
    }

    #[test]
    fn corruption_replaces_emission_and_freezes_node() {
        // All inputs true; node 0 equivocates 1/0 to nodes 1/2.
        let mut sim = Simulation::new(SimConfig::new(3, 1), maj_nodes(3, 3, 1), CorruptZero);
        while sim.step() {}
        assert_eq!(sim.ledger().history(), [(Round::ZERO, NodeId::new(0))]);
        let report = sim.into_report();
        assert_eq!(report.corruptions_used, 1);
        assert!(!report.honest[0]);
        // Node 1 saw {v0:1, v1:1, v2:1} -> true; node 2 saw {v0:0, v1:1, v2:1} -> true.
        assert_eq!(report.outputs[1], Some(true));
        assert_eq!(report.outputs[2], Some(true));
        // Corrupted node has no output.
        assert_eq!(report.outputs[0], None);
    }

    #[test]
    #[should_panic(expected = "corruption rules")]
    fn budget_violation_panics() {
        struct Greedy;
        impl Adversary<Maj> for Greedy {
            fn act(&mut self, v: &RoundView<'_, Maj>, _: &mut dyn RngCore) -> AdversaryAction<Val> {
                AdversaryAction {
                    corruptions: (0..v.n() as u32).map(NodeId::new).collect(),
                    sends: vec![],
                }
            }
        }
        let _ = Simulation::new(SimConfig::new(4, 1), maj_nodes(4, 2, 2), Greedy).run();
    }

    #[test]
    #[should_panic(expected = "send rules")]
    fn send_from_honest_panics() {
        struct Imposter;
        impl Adversary<Maj> for Imposter {
            fn act(&mut self, _: &RoundView<'_, Maj>, _: &mut dyn RngCore) -> AdversaryAction<Val> {
                AdversaryAction {
                    corruptions: vec![],
                    sends: vec![(NodeId::new(1), CorruptSend::Broadcast(Val(0)))],
                }
            }
        }
        let _ = Simulation::new(SimConfig::new(3, 1), maj_nodes(3, 2, 2), Imposter).run();
    }

    /// One engine hook call, with its arguments.
    #[derive(Debug, Clone, PartialEq)]
    enum Hook {
        RunStart(SimConfig),
        RoundStart(Round),
        PhaseEnd(Round, RoundPhase),
        Corruption(Round, NodeId, usize),
        Halt(Round, NodeId, Option<bool>),
        RoundEnd(Round, RoundMetrics),
        RunEnd(u64),
    }

    /// A probe that records every hook in firing order.
    #[derive(Debug, Default)]
    struct Recorder(Vec<Hook>);

    impl Probe for Recorder {
        fn run_start(&mut self, cfg: &SimConfig) {
            self.0.push(Hook::RunStart(cfg.clone()));
        }
        fn round_start(&mut self, round: Round) {
            self.0.push(Hook::RoundStart(round));
        }
        fn phase_end(&mut self, round: Round, phase: RoundPhase) {
            self.0.push(Hook::PhaseEnd(round, phase));
        }
        fn corruption(&mut self, round: Round, node: NodeId, total: usize) {
            self.0.push(Hook::Corruption(round, node, total));
        }
        fn halt(&mut self, round: Round, node: NodeId, output: Option<bool>) {
            self.0.push(Hook::Halt(round, node, output));
        }
        fn round_end(&mut self, round: Round, metrics: &RoundMetrics) {
            self.0.push(Hook::RoundEnd(round, *metrics));
        }
        fn run_end(&mut self, report: &RunReport) {
            self.0.push(Hook::RunEnd(report.rounds));
        }
    }

    /// Runs `adversary` on the synchronous network with a [`Recorder`].
    fn recorded<A: Adversary<Maj>>(
        cfg: SimConfig,
        nodes: Vec<Maj>,
        adversary: A,
    ) -> (RunReport, Vec<Hook>) {
        let sim: Simulation<Maj, A, PassThrough, NoOracle, Recorder> = Simulation::with_instruments(
            cfg,
            nodes,
            adversary,
            PassThrough,
            NoOracle,
            Recorder::default(),
        );
        let (report, NoOracle, hooks) = sim.run_instrumented();
        (report, hooks.0)
    }

    #[test]
    fn boxed_adversary_runs_like_the_unboxed_one() {
        let cfg = SimConfig::new(5, 1).with_seed(11);
        let (plain, plain_hooks) = recorded(cfg.clone(), maj_nodes(5, 3, 2), CorruptZero);
        let adversary: Box<dyn Adversary<Maj>> = Box::new(CorruptZero);
        assert_eq!(adversary.name(), CorruptZero.name());
        let (boxed, boxed_hooks) = recorded(cfg, maj_nodes(5, 3, 2), adversary);
        assert_eq!(boxed.rounds, plain.rounds);
        assert_eq!(boxed.all_halted, plain.all_halted);
        assert_eq!(boxed.outputs, plain.outputs);
        assert_eq!(boxed.honest, plain.honest);
        assert_eq!(boxed.corruptions_used, plain.corruptions_used);
        assert_eq!(boxed.halt_rounds, plain.halt_rounds);
        assert_eq!(boxed.metrics, plain.metrics);
        assert_eq!(boxed_hooks, plain_hooks);
        assert!(plain_hooks.contains(&Hook::Corruption(Round::ZERO, NodeId::new(0), 1)));
        assert_eq!(plain.corruptions_used, 1, "the wrapped strategy acted");
    }

    #[test]
    fn determinism_same_seed_same_report() {
        let run = |seed| {
            let cfg = SimConfig::new(5, 1).with_seed(seed);
            let r = Simulation::new(cfg, maj_nodes(5, 3, 2), CorruptZero).run();
            (r.rounds, r.outputs.clone(), r.metrics.total_messages)
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn non_rushing_hides_current_round_messages() {
        struct AssertNoOutgoing;
        impl Adversary<Maj> for AssertNoOutgoing {
            fn act(&mut self, v: &RoundView<'_, Maj>, _: &mut dyn RngCore) -> AdversaryAction<Val> {
                assert!(v.outgoing.is_none());
                AdversaryAction::pass()
            }
        }
        let cfg = SimConfig::new(3, 0).with_info_model(InfoModel::NonRushing);
        let report = Simulation::new(cfg, maj_nodes(3, 2, 1), AssertNoOutgoing).run();
        assert!(report.all_halted);
    }

    #[test]
    fn rushing_exposes_current_round_messages() {
        struct AssertOutgoing;
        impl Adversary<Maj> for AssertOutgoing {
            fn act(&mut self, v: &RoundView<'_, Maj>, _: &mut dyn RngCore) -> AdversaryAction<Val> {
                let mb = v.outgoing.expect("rushing view must carry messages");
                assert_eq!(mb.message_count(), v.n() * (v.n() - 1));
                AdversaryAction::pass()
            }
        }
        let report =
            Simulation::new(SimConfig::new(4, 0), maj_nodes(4, 2, 1), AssertOutgoing).run();
        assert!(report.all_halted);
    }

    #[test]
    #[should_panic(expected = "invalid simulation setup: invalid network size n=0")]
    fn empty_network_panics() {
        let _ = Simulation::new(SimConfig::new(0, 0), Vec::<Maj>::new(), Benign);
    }

    #[test]
    #[should_panic(expected = "invalid simulation setup: expected 3 protocol nodes, got 2")]
    fn node_count_mismatch_panics() {
        let _ = Simulation::new(SimConfig::new(3, 0), maj_nodes(2, 1, 1), Benign);
    }

    #[test]
    fn honest_outputs_helpers() {
        let report = Simulation::new(SimConfig::new(5, 1), maj_nodes(5, 4, 1), CorruptZero).run();
        let outs = report.honest_outputs();
        assert_eq!(outs.len(), 4, "corrupted node 0 excluded");
        assert!(report.honest_outputs_agree());
    }

    #[test]
    fn step_api_is_incremental() {
        let mut sim = Simulation::new(SimConfig::new(3, 0), maj_nodes(3, 2, 3), Benign);
        assert!(!sim.is_done());
        assert!(sim.step());
        assert_eq!(sim.round().index(), 1);
        assert!(sim.step());
        assert!(!sim.step()); // third round halts everyone
        assert!(sim.is_done());
        let report = sim.into_report();
        assert!(report.all_halted);
        assert_eq!(report.rounds, 3);
    }

    #[test]
    fn delivery_stage_seam_is_exercised() {
        use crate::delivery::{Delivery, DeliveryStats};

        /// A network that destroys every message ("blackout").
        struct Blackout;
        impl<M: Message> Delivery<M> for Blackout {
            fn deliver(
                &mut self,
                _round: Round,
                wire: RoundMailbox<M>,
                _ledger: &CorruptionLedger,
            ) -> (RoundMailbox<M>, DeliveryStats) {
                let dropped = wire.message_count();
                (
                    RoundMailbox::new(wire.n()),
                    DeliveryStats {
                        dropped,
                        ..DeliveryStats::default()
                    },
                )
            }
            fn name(&self) -> &'static str {
                "blackout"
            }
        }

        // All inputs true, but nobody hears anyone: the majority tally
        // sees an empty inbox, so every node outputs false — proof that
        // the arrivals mailbox (not the wire mailbox) feeds `receive`.
        let report =
            Simulation::with_network(SimConfig::new(5, 0), maj_nodes(5, 5, 1), Benign, Blackout)
                .run();
        assert!(report.all_halted);
        assert!(report.outputs.iter().all(|o| *o == Some(false)));
        assert_eq!(
            report.metrics.total_messages, 20,
            "offered load still counted"
        );
        assert_eq!(report.metrics.total_delivered, 0);
        assert_eq!(report.metrics.total_dropped, 20);
    }

    #[test]
    fn pass_through_counts_every_message_delivered() {
        let report = Simulation::new(SimConfig::new(7, 0), maj_nodes(7, 5, 1), Benign).run();
        assert_eq!(
            report.metrics.total_delivered,
            report.metrics.total_messages
        );
        assert_eq!(report.metrics.total_dropped, 0);
        assert_eq!(report.metrics.total_delayed, 0);
    }

    #[test]
    fn live_honest_view_excludes_corrupted_and_halted() {
        struct Check;
        impl Adversary<Maj> for Check {
            fn act(&mut self, v: &RoundView<'_, Maj>, _: &mut dyn RngCore) -> AdversaryAction<Val> {
                if v.round == Round::ZERO {
                    AdversaryAction {
                        corruptions: vec![NodeId::new(2)],
                        sends: vec![],
                    }
                } else {
                    let live: Vec<_> = v.live_honest().collect();
                    assert_eq!(live, vec![NodeId::new(0), NodeId::new(1)]);
                    AdversaryAction::pass()
                }
            }
        }
        let report = Simulation::new(SimConfig::new(3, 1), maj_nodes(3, 3, 2), Check).run();
        assert!(report.all_halted);
    }
}
