//! Property-style tests on the engine, deterministically sampled:
//! invariants that must hold for arbitrary corruption schedules and
//! network sizes. (No proptest in this offline workspace — cases are
//! drawn from a fixed-seed generator so every run checks the same
//! sample.)

use aba_sim::adversary::{Adversary, AdversaryAction, RoundView};
use aba_sim::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

#[derive(Debug, Clone)]
struct Tick(#[allow(dead_code)] u8);
impl Message for Tick {
    fn bit_size(&self) -> usize {
        8
    }
}

/// Counts invocations; halts at a deadline.
#[derive(Debug)]
struct Probe {
    deadline: u64,
    emits: u64,
    receives: u64,
    halted: bool,
}

fn probes(n: usize, deadline: u64) -> Vec<Probe> {
    (0..n)
        .map(|_| Probe {
            deadline,
            emits: 0,
            receives: 0,
            halted: false,
        })
        .collect()
}

impl Protocol for Probe {
    type Msg = Tick;
    fn emit(&mut self, _r: Round, _rng: &mut dyn RngCore) -> Emission<Tick> {
        self.emits += 1;
        Emission::Broadcast(Tick(1))
    }
    fn receive(&mut self, r: Round, _i: Inbox<'_, Tick>, _rng: &mut dyn RngCore) {
        self.receives += 1;
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

/// Corrupts a scripted set of (round, node) pairs; corrupted nodes stay
/// silent.
#[derive(Debug, Clone)]
struct Scripted {
    script: Vec<(u64, u32)>,
}

impl Adversary<Probe> for Scripted {
    fn act(
        &mut self,
        view: &RoundView<'_, Probe>,
        _rng: &mut dyn RngCore,
    ) -> AdversaryAction<Tick> {
        let due: Vec<NodeId> = self
            .script
            .iter()
            .filter(|(r, _)| *r == view.round.index())
            .map(|(_, id)| NodeId::new(*id))
            .filter(|id| !view.ledger.is_corrupted(*id))
            .take(view.ledger.remaining())
            .collect();
        AdversaryAction {
            corruptions: due,
            sends: Vec::new(),
        }
    }
}

/// Corrupted nodes are never stepped again: their emit/receive counters
/// freeze at the corruption round.
#[test]
fn corrupted_nodes_are_frozen() {
    let mut gen = SmallRng::seed_from_u64(0xF07E);
    for _ in 0..96 {
        let n = gen.gen_range(2..16usize);
        let t = gen.gen_range(0..16usize) % n;
        let deadline = gen.gen_range(2..12u64);
        let script: Vec<(u64, u32)> = (0..gen.gen_range(0..12usize))
            .map(|_| (gen.gen_range(0..12u64), gen.gen_range(0..n as u32)))
            .collect();
        let seed = gen.next_u64();
        let ctx = format!("n={n} t={t} deadline={deadline} seed={seed} script={script:?}");

        let cfg = SimConfig::new(n, t).with_seed(seed).with_max_rounds(40);
        let mut sim = Simulation::new(cfg, probes(n, deadline), Scripted { script });
        while sim.step() {}
        // Corruption rounds, by node.
        // aba-lint: allow(hash-nondeterminism) — keyed lookup only; iteration order never observed
        let corrupted_at: std::collections::HashMap<usize, u64> = sim
            .ledger()
            .history()
            .iter()
            .map(|(r, id)| (id.index(), r.index()))
            .collect();
        let report_rounds = sim.round().index();
        for (i, node) in sim.nodes().iter().enumerate() {
            match corrupted_at.get(&i) {
                Some(r) => {
                    // Stepped once per round up to and including round r
                    // (corruption happens after emit of round r).
                    assert!(
                        node.emits <= r + 1,
                        "{ctx}: node {i} emitted after corruption"
                    );
                    assert!(
                        node.receives <= *r,
                        "{ctx}: node {i} received after corruption"
                    );
                }
                None => {
                    assert!(node.emits <= report_rounds, "{ctx}: node {i}");
                }
            }
        }
        // Budget always respected.
        assert!(sim.ledger().used() <= t, "{ctx}");
    }
}

/// Records each round's metrics from the probe's `round_end` hook.
#[derive(Debug, Default)]
struct RoundLog(Vec<RoundMetrics>);

impl aba_sim::probe::Probe for RoundLog {
    fn round_end(&mut self, _round: Round, metrics: &RoundMetrics) {
        self.0.push(*metrics);
    }
}

/// Metrics identity: one `round_end` per round, total messages equals
/// the sum over rounds, and every round's messages fit under n(n−1).
#[test]
fn metrics_are_consistent() {
    let mut gen = SmallRng::seed_from_u64(0x3E7A);
    for _ in 0..64 {
        let n = gen.gen_range(1..12usize);
        let deadline = gen.gen_range(1..10u64);
        let seed = gen.next_u64();
        let cfg = SimConfig::new(n, 0).with_seed(seed).with_max_rounds(32);
        let sim: Simulation<Probe, _, PassThrough, NoOracle, RoundLog> =
            Simulation::with_instruments(
                cfg,
                probes(n, deadline),
                aba_sim::adversary::Benign,
                PassThrough,
                NoOracle,
                RoundLog::default(),
            );
        let (report, NoOracle, log) = sim.run_instrumented();
        assert_eq!(log.0.len() as u64, report.rounds, "n={n} seed={seed}");
        let sum: usize = log.0.iter().map(|r| r.messages).sum();
        assert_eq!(sum, report.metrics.total_messages, "n={n} seed={seed}");
        for rm in &log.0 {
            assert!(rm.messages <= n * (n - 1), "n={n} seed={seed}");
        }
        assert!(report.all_halted);
        assert_eq!(report.rounds, deadline, "n={n} seed={seed}");
    }
}

/// Determinism across reconstruction: step-by-step equals run().
#[test]
fn stepping_equals_running() {
    let mut gen = SmallRng::seed_from_u64(0x57E9);
    for _ in 0..48 {
        let n = gen.gen_range(1..10usize);
        let deadline = gen.gen_range(1..8u64);
        let seed = gen.next_u64();
        let cfg = SimConfig::new(n, 0).with_seed(seed);
        let a = Simulation::new(cfg.clone(), probes(n, deadline), aba_sim::adversary::Benign).run();
        let mut sim = Simulation::new(cfg, probes(n, deadline), aba_sim::adversary::Benign);
        while sim.step() {}
        let b = sim.into_report();
        assert_eq!(a.rounds, b.rounds, "n={n} seed={seed}");
        assert_eq!(a.outputs, b.outputs, "n={n} seed={seed}");
        assert_eq!(
            a.metrics.total_messages, b.metrics.total_messages,
            "n={n} seed={seed}"
        );
    }
}
