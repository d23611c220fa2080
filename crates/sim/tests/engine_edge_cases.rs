//! Engine edge cases: full corruption, corrupting halted nodes, zero
//! budgets, and what the probe hooks report.

use aba_sim::adversary::{Adversary, AdversaryAction, Benign, RoundView};
use aba_sim::prelude::*;
use rand::RngCore;

#[derive(Debug, Clone)]
struct Ping;
impl Message for Ping {
    fn bit_size(&self) -> usize {
        2
    }
}

#[derive(Debug)]
struct Node {
    deadline: u64,
    halted: bool,
}
impl Protocol for Node {
    type Msg = Ping;
    fn emit(&mut self, _r: Round, _rng: &mut dyn RngCore) -> Emission<Ping> {
        Emission::Broadcast(Ping)
    }
    fn receive(&mut self, r: Round, _i: Inbox<'_, Ping>, _rng: &mut dyn RngCore) {
        if r.index() + 1 >= self.deadline {
            self.halted = true;
        }
    }
    fn output(&self) -> Option<bool> {
        self.halted.then_some(true)
    }
    fn halted(&self) -> bool {
        self.halted
    }
}

fn nodes(n: usize, deadline: u64) -> Vec<Node> {
    (0..n)
        .map(|_| Node {
            deadline,
            halted: false,
        })
        .collect()
}

/// Corrupts everyone in round 0.
struct TotalCorruption;
impl Adversary<Node> for TotalCorruption {
    fn act(&mut self, view: &RoundView<'_, Node>, _rng: &mut dyn RngCore) -> AdversaryAction<Ping> {
        if view.round == Round::ZERO {
            AdversaryAction {
                corruptions: (0..view.n() as u32).map(NodeId::new).collect(),
                sends: Vec::new(),
            }
        } else {
            AdversaryAction::pass()
        }
    }
}

#[test]
fn fully_corrupted_network_terminates_vacuously() {
    let cfg = SimConfig::new(4, 4).with_max_rounds(100);
    let report = Simulation::new(cfg, nodes(4, 50), TotalCorruption).run();
    // No honest nodes left: the run ends immediately after the round.
    assert!(report.all_halted, "vacuously true with zero honest nodes");
    assert_eq!(report.corruptions_used, 4);
    assert!(report.rounds <= 2);
    assert!(report.outputs.iter().all(|o| o.is_none()));
}

/// Corrupts one node well after it has halted.
struct LateCorruptor;
impl Adversary<Node> for LateCorruptor {
    fn act(&mut self, view: &RoundView<'_, Node>, _rng: &mut dyn RngCore) -> AdversaryAction<Ping> {
        // Node 0 halts at round 1; corrupt it at round 2.
        if view.round.index() == 2 {
            AdversaryAction {
                corruptions: vec![NodeId::new(0)],
                sends: vec![(NodeId::new(0), Emission::Broadcast(Ping))],
            }
        } else {
            AdversaryAction::pass()
        }
    }
}

#[test]
fn corrupting_a_halted_node_is_allowed_and_erases_its_output() {
    // Nodes 1..3 halt at round 4; node 0 halts at round 2 (deadline 2).
    let mut all = nodes(4, 4);
    all[0].deadline = 2;
    let cfg = SimConfig::new(4, 1).with_max_rounds(100);
    let report = Simulation::new(cfg, all, LateCorruptor).run();
    assert!(!report.honest[0]);
    assert_eq!(report.outputs[0], None, "corrupted outputs are discarded");
    assert!(report.honest[1] && report.outputs[1] == Some(true));
}

#[test]
fn zero_budget_ledger_blocks_everything() {
    let cfg = SimConfig::new(3, 0).with_max_rounds(10);
    let report = Simulation::new(cfg, nodes(3, 2), Benign).run();
    assert_eq!(report.corruptions_used, 0);
    assert!(report.honest.iter().all(|h| *h));
}

/// Records the round-level probe hooks, in firing order.
#[derive(Debug, Default)]
struct Recorder {
    round_starts: Vec<Round>,
    corruptions: Vec<(Round, NodeId, usize)>,
    halts: Vec<(Round, NodeId, Option<bool>)>,
    round_ends: Vec<(Round, RoundMetrics)>,
}

impl Probe for Recorder {
    fn round_start(&mut self, round: Round) {
        self.round_starts.push(round);
    }
    fn corruption(&mut self, round: Round, node: NodeId, total: usize) {
        self.corruptions.push((round, node, total));
    }
    fn halt(&mut self, round: Round, node: NodeId, output: Option<bool>) {
        self.halts.push((round, node, output));
    }
    fn round_end(&mut self, round: Round, metrics: &RoundMetrics) {
        self.round_ends.push((round, *metrics));
    }
}

/// Runs to completion with a [`Recorder`], keeping the ledger's
/// corruption history.
fn recorded<A: Adversary<Node>>(
    cfg: SimConfig,
    nodes: Vec<Node>,
    adversary: A,
) -> (RunReport, Vec<(Round, NodeId)>, Recorder) {
    let mut sim: Simulation<Node, A, PassThrough, NoOracle, Recorder> =
        Simulation::with_instruments(
            cfg,
            nodes,
            adversary,
            PassThrough,
            NoOracle,
            Recorder::default(),
        );
    while sim.step() {}
    let history = sim.ledger().history().to_vec();
    let (report, NoOracle, probe) = sim.into_parts();
    (report, history, probe)
}

#[test]
fn probe_sees_round_starts_halts_and_corruptions() {
    let cfg = SimConfig::new(4, 1).with_max_rounds(100);
    let mut all = nodes(4, 4);
    all[0].deadline = 2;
    let (report, history, probe) = recorded(cfg, all, LateCorruptor);
    let rounds: Vec<Round> = (0..report.rounds).map(Round::new).collect();
    assert_eq!(probe.round_starts, rounds);
    // Corruptions match the ledger's history, in order, with running
    // totals.
    let seen: Vec<(Round, NodeId)> = probe.corruptions.iter().map(|c| (c.0, c.1)).collect();
    assert_eq!(seen, history);
    assert_eq!(history, [(Round::new(2), NodeId::new(0))]);
    let totals: Vec<usize> = probe.corruptions.iter().map(|c| c.2).collect();
    assert_eq!(totals, (1..=history.len()).collect::<Vec<_>>());
    // Halts match the report's halt rounds: node 0 halted (round 1)
    // before being corrupted (round 2).
    let mut halted: Vec<(NodeId, u64)> = probe
        .halts
        .iter()
        .map(|(round, node, _)| (*node, round.index()))
        .collect();
    halted.sort();
    let expected: Vec<(NodeId, u64)> = report
        .halt_rounds
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.map(|r| (NodeId::new(i as u32), r)))
        .collect();
    assert_eq!(halted, expected);
    assert!(probe
        .halts
        .contains(&(Round::new(1), NodeId::new(0), Some(true))));
}

#[test]
fn probe_sees_one_round_end_per_round() {
    let cfg = SimConfig::new(3, 0);
    let (report, _, probe) = recorded(cfg, nodes(3, 3), Benign);
    let rounds: Vec<Round> = probe.round_ends.iter().map(|(r, _)| *r).collect();
    assert_eq!(
        rounds,
        (0..report.rounds).map(Round::new).collect::<Vec<_>>()
    );
    for (_, rm) in &probe.round_ends {
        assert_eq!(rm.messages, 3 * 2);
        assert_eq!(rm.max_edge_bits, 2);
    }
    let sum: usize = probe.round_ends.iter().map(|(_, rm)| rm.messages).sum();
    assert_eq!(sum, report.metrics.total_messages);
}

#[test]
fn n_equals_one_runs() {
    let cfg = SimConfig::new(1, 0);
    let report = Simulation::new(cfg, nodes(1, 2), Benign).run();
    assert!(report.all_halted);
    assert_eq!(report.metrics.total_messages, 0, "no one to talk to");
}
