//! The blessed run API: [`ScenarioBuilder`] composes protocol ×
//! adversary × parameters and executes trials; [`BatchReport`]
//! aggregates them.
//!
//! Every example, integration test, and experiment in this workspace
//! constructs runs through this facade — there is exactly one way to run
//! an experiment. The builder is re-exported at the root of the
//! `adaptive-ba` crate:
//!
//! ```
//! use aba_harness::{AttackSpec, ProtocolSpec, ScenarioBuilder};
//!
//! let report = ScenarioBuilder::new(16, 5)
//!     .protocol(ProtocolSpec::PaperLasVegas { alpha: 2.0 })
//!     .adversary(AttackSpec::FullAttack)
//!     .seed(42)
//!     .trials(8)
//!     .run_batch();
//! assert_eq!(report.agreement_rate(), 1.0);
//! ```

use crate::check::CheckedTrial;
use crate::runner::{self, TrialResult};
use crate::scenario::{AttackSpec, InputSpec, NetworkSpec, PlaneSpec, ProtocolSpec, Scenario};
use aba_agreement::CommitteeBa;
use aba_sim::adversary::Adversary;
use aba_sim::probe::Probe;
use aba_sim::InfoModel;

/// Builder-style facade over the whole experiment stack.
///
/// Defaults mirror [`Scenario::new`]: the paper's whp protocol (α = 2),
/// the adaptive rushing full attack, split inputs, rushing information
/// model, seed 0, a 20 000-round cap, and a single trial.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioBuilder {
    scenario: Scenario,
    trials: usize,
}

impl ScenarioBuilder {
    /// Starts a scenario for `n` nodes with corruption budget `t`.
    pub fn new(n: usize, t: usize) -> Self {
        ScenarioBuilder {
            scenario: Scenario::new(n, t),
            trials: 1,
        }
    }

    /// Wraps an existing declarative [`Scenario`].
    pub fn from_scenario(scenario: Scenario) -> Self {
        ScenarioBuilder {
            scenario,
            trials: 1,
        }
    }

    /// Selects the protocol under test.
    #[must_use]
    pub fn protocol(mut self, p: ProtocolSpec) -> Self {
        self.scenario.protocol = p;
        self
    }

    /// Selects the adversary.
    #[must_use]
    pub fn adversary(mut self, a: AttackSpec) -> Self {
        self.scenario.attack = a;
        self
    }

    /// Selects the input assignment.
    #[must_use]
    pub fn inputs(mut self, i: InputSpec) -> Self {
        self.scenario.inputs = i;
        self
    }

    /// Selects the information model (rushing vs non-rushing).
    #[must_use]
    pub fn info_model(mut self, m: InfoModel) -> Self {
        self.scenario.info = m;
        self
    }

    /// Selects the network conditions (synchronous by default).
    #[must_use]
    pub fn network(mut self, net: NetworkSpec) -> Self {
        self.scenario.network = net;
        self
    }

    /// Sets the master seed of the first trial (trial `i` runs at
    /// `seed + i`).
    #[must_use]
    pub fn seed(mut self, s: u64) -> Self {
        self.scenario.seed = s;
        self
    }

    /// Sets the hard round cap; runs hitting it count as non-terminating.
    #[must_use]
    pub fn max_rounds(mut self, r: u64) -> Self {
        self.scenario.max_rounds = r;
        self
    }

    /// Sets the number of trials executed by [`ScenarioBuilder::run_batch`].
    #[must_use]
    pub fn trials(mut self, k: usize) -> Self {
        self.trials = k;
        self
    }

    /// Selects the message plane for every run mode (see the table on
    /// [`PlaneSpec`]). A protocol the requested plane does not serve
    /// runs dense with the same results, so the switch is always safe
    /// to set campaign-wide.
    #[must_use]
    pub fn plane(mut self, p: PlaneSpec) -> Self {
        self.scenario.plane = p;
        self
    }

    /// Sets the in-round worker count (default 1 = serial). Results are
    /// byte-identical at any thread count, but more threads are not
    /// faster: on the reference 2-vCPU host `threads = 2` ran 30–47%
    /// slower than `threads = 1` at n = 16,384 and 65,536, and no
    /// experiment, campaign or benchmark workload sets it.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.scenario.threads = threads;
        self
    }

    /// The underlying declarative scenario.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Runs a single trial at the configured seed.
    ///
    /// # Panics
    ///
    /// Panics if `(n, t)` violates the selected protocol's precondition
    /// (`n ≥ 3t + 1` for the agreement protocols).
    pub fn run(&self) -> TrialResult {
        runner::run_scenario(&self.scenario)
    }

    /// Runs a single trial with the scenario's lemma oracles attached
    /// (agreement at decision, validity, early termination under a
    /// capped adversary, the CONGEST edge bound, and corruption-budget
    /// accounting — see `aba-check`). The trial result is bit-identical
    /// to [`ScenarioBuilder::run`]; the oracle report carries every
    /// violation with the round it first became observable.
    ///
    /// # Panics
    ///
    /// Same preconditions as [`ScenarioBuilder::run`].
    pub fn check(&self) -> CheckedTrial {
        crate::check::check_scenario(&self.scenario)
    }

    /// Runs a single trial with the deterministic observability channel
    /// attached on top of [`ScenarioBuilder::check`]: the result and
    /// oracle report are identical, plus the trial's structured event
    /// log and metrics registry (see `aba-obs`).
    ///
    /// # Panics
    ///
    /// Same preconditions as [`ScenarioBuilder::run`].
    pub fn observe(&self) -> crate::observe::ObservedTrial {
        crate::observe::observe_scenario(&self.scenario)
    }

    /// Runs a single trial with the causal provenance layer attached on
    /// top of [`ScenarioBuilder::observe`]: the result, oracle report,
    /// event log, and metrics are identical, plus each node's decision
    /// cone, the per-node communication profile, the causal-graph
    /// exporters, and — when honest deciders disagree — the violation
    /// blame set (see `aba-obs::provenance` and `aba-check::blame`).
    ///
    /// # Panics
    ///
    /// Same preconditions as [`ScenarioBuilder::run`].
    pub fn provenance(&self) -> crate::provenance::ProvenancedTrial {
        crate::provenance::provenance_scenario(&self.scenario)
    }

    /// Runs the configured number of trials with oracles attached, in
    /// parallel (seeds `seed..seed + trials`), in seed order.
    ///
    /// # Panics
    ///
    /// Same preconditions as [`ScenarioBuilder::run`].
    pub fn check_batch(&self) -> Vec<CheckedTrial> {
        runner::run_many_with(&self.scenario, self.trials, crate::check::check_scenario)
    }

    /// Runs the configured number of trials in parallel (seeds
    /// `seed..seed + trials`) and aggregates them.
    ///
    /// # Panics
    ///
    /// Same preconditions as [`ScenarioBuilder::run`].
    pub fn run_batch(&self) -> BatchReport {
        BatchReport {
            results: runner::run_many(&self.scenario, self.trials),
            scenario: self.scenario.clone(),
        }
    }

    /// Runs a single trial of the configured committee-family protocol
    /// against a caller-supplied adversary — the escape hatch for custom
    /// attack research (see `examples/custom_adversary.rs`). The
    /// adversary is typed against the dense plane, so the trial runs
    /// there whatever [`ScenarioBuilder::plane`] asks for.
    ///
    /// # Panics
    ///
    /// Panics if the configured protocol is not committee-based: custom
    /// adversaries are typed against [`CommitteeBa`].
    pub fn run_with<A>(&self, adversary: A) -> TrialResult
    where
        A: Adversary<CommitteeBa>,
    {
        runner::run_committee_custom(&self.scenario, adversary)
    }

    /// Runs the configured number of trials against caller-supplied
    /// adversaries, one fresh instance per trial from `make` (called with
    /// the trial's seed). As with [`ScenarioBuilder::run_with`], the
    /// adversaries are typed against the dense plane and run there.
    ///
    /// # Panics
    ///
    /// Same preconditions as [`ScenarioBuilder::run_with`].
    pub fn run_batch_with<A, F>(&self, make: F) -> BatchReport
    where
        A: Adversary<CommitteeBa>,
        F: Fn(u64) -> A + Sync,
    {
        let results = runner::run_many_with(&self.scenario, self.trials, |s| {
            runner::run_committee_custom(s, make(s.seed))
        });
        BatchReport {
            results,
            scenario: self.scenario.clone(),
        }
    }
}

/// Runs one fully-specified scenario to completion — the by-reference
/// runner hook for external orchestrators (the `aba-sweep` campaign
/// executor schedules individual `(cell, trial)` tasks through this,
/// reusing the same protocol × plane × network dispatch and attack
/// table as [`ScenarioBuilder::run`] without cloning the scenario).
///
/// # Panics
///
/// Panics if the scenario's `(n, t)` violates a protocol precondition
/// (`n ≥ 3t + 1` for the agreement protocols).
pub fn run_scenario(s: &Scenario) -> TrialResult {
    runner::run_scenario(s)
}

/// Runs one scenario with a caller-supplied engine [`Probe`] attached,
/// on the same path as [`run_scenario`] (same plane, network and
/// attack dispatch, no oracle), and returns the probe with the result.
/// Probes observe only, so the result equals [`run_scenario`]'s.
///
/// # Panics
///
/// Same preconditions as [`run_scenario`].
pub fn run_scenario_with_probe<B: Probe>(s: &Scenario, probe: B) -> (TrialResult, B) {
    runner::run_scenario_with_probe(s, probe)
}

/// Aggregated outcome of a batch of trials.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// The base scenario (trial `i` ran at `scenario.seed + i`).
    pub scenario: Scenario,
    /// Per-trial results, in seed order.
    pub results: Vec<TrialResult>,
}

impl BatchReport {
    /// Number of trials.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    fn rate(&self, pred: impl Fn(&TrialResult) -> bool) -> f64 {
        if self.results.is_empty() {
            return f64::NAN;
        }
        self.results.iter().filter(|r| pred(r)).count() as f64 / self.results.len() as f64
    }

    fn mean(&self, f: impl Fn(&TrialResult) -> f64) -> f64 {
        if self.results.is_empty() {
            return f64::NAN;
        }
        self.results.iter().map(f).sum::<f64>() / self.results.len() as f64
    }

    /// Fraction of trials where all honest outputs agreed.
    pub fn agreement_rate(&self) -> f64 {
        self.rate(|r| r.agreement)
    }

    /// Fraction of trials that terminated before the round cap.
    pub fn termination_rate(&self) -> f64 {
        self.rate(|r| r.terminated)
    }

    /// Fraction of trials satisfying Definition 1 outright.
    pub fn correct_rate(&self) -> f64 {
        self.rate(TrialResult::correct)
    }

    /// Whether every trial satisfied Definition 1.
    pub fn all_correct(&self) -> bool {
        self.results.iter().all(TrialResult::correct)
    }

    /// Mean rounds to termination (censored trials count at the cap).
    pub fn mean_rounds(&self) -> f64 {
        self.mean(|r| r.rounds as f64)
    }

    /// Worst-case rounds over the batch.
    pub fn max_rounds(&self) -> u64 {
        self.results.iter().map(|r| r.rounds).max().unwrap_or(0)
    }

    /// Nearest-rank percentile of rounds-to-termination over the batch
    /// (`p` in `(0, 100]`; e.g. `rounds_percentile(50.0)` is the median,
    /// `rounds_percentile(95.0)` the p95). Censored trials count at the
    /// round cap. Returns 0 for an empty batch.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p ≤ 100`.
    pub fn rounds_percentile(&self, p: f64) -> u64 {
        assert!(p > 0.0 && p <= 100.0, "percentile must be in (0, 100]");
        if self.results.is_empty() {
            return 0;
        }
        let mut rounds: Vec<u64> = self.results.iter().map(|r| r.rounds).collect();
        rounds.sort_unstable();
        aba_analysis::percentile_nearest_rank(&rounds, p)
    }

    /// Merges another batch of the same scenario axes into this one.
    ///
    /// The operation is **associative and order-invariant**: trials are
    /// interleaved by their per-trial seed (a stable sort), so any merge
    /// tree over the same set of partial batches yields the same report.
    /// This is the facade-level counterpart of `aba-sweep`'s mergeable
    /// cell accumulators — use it to aggregate a batch incrementally
    /// (e.g. growing a batch until an interval is tight) without
    /// re-running earlier trials. The base scenario keeps the smallest
    /// seed seen, preserving the "trial `i` ran at `seed + i`" reading
    /// for contiguous seed ranges.
    ///
    /// # Panics
    ///
    /// Panics if the two reports disagree on any scenario axis other
    /// than the seed, or if their seed ranges overlap — merging
    /// different cells (or the same trial twice, which would silently
    /// double-weight it) is a bug, not data.
    pub fn merge(&mut self, other: &BatchReport) {
        let mut a = self.scenario.clone();
        let mut b = other.scenario.clone();
        a.seed = 0;
        b.seed = 0;
        assert_eq!(a, b, "merged batches must share every non-seed axis");
        if other.results.is_empty() {
            return;
        }
        // Build and validate the merged list before touching self, so a
        // rejected merge leaves the report untouched.
        let mut merged: Vec<TrialResult> = self
            .results
            .iter()
            .chain(other.results.iter())
            .cloned()
            .collect();
        merged.sort_by_key(|r| r.seed);
        if let Some(w) = merged.windows(2).find(|w| w[0].seed == w[1].seed) {
            panic!(
                "merged batches overlap: trial seed {} appears twice",
                w[0].seed
            );
        }
        if self.results.is_empty() {
            self.scenario.seed = other.scenario.seed;
        } else {
            self.scenario.seed = self.scenario.seed.min(other.scenario.seed);
        }
        self.results = merged;
    }

    /// Mean messages the network dropped per trial.
    pub fn mean_dropped(&self) -> f64 {
        self.mean(|r| r.dropped as f64)
    }

    /// Mean delay events per trial.
    pub fn mean_delayed(&self) -> f64 {
        self.mean(|r| r.delayed as f64)
    }

    /// Fraction of emitted messages the network actually delivered
    /// (1.0 under the synchronous network; `NaN` on an empty batch).
    pub fn delivery_rate(&self) -> f64 {
        if self.results.is_empty() {
            return f64::NAN;
        }
        let emitted: usize = self.results.iter().map(|r| r.messages).sum();
        if emitted == 0 {
            return 1.0;
        }
        let delivered: usize = self.results.iter().map(|r| r.delivered).sum();
        delivered as f64 / emitted as f64
    }

    /// Mean corruptions the adversary actually performed.
    pub fn mean_corruptions(&self) -> f64 {
        self.mean(|r| r.corruptions as f64)
    }

    /// Mean point-to-point messages per round.
    pub fn mean_messages_per_round(&self) -> f64 {
        self.mean(|r| r.messages as f64 / (r.rounds.max(1)) as f64)
    }

    /// Mean honest-majority agreement fraction (the almost-everywhere
    /// metric). Summed in `total_cmp` value order so the mean is
    /// bit-identical however the batch was assembled or merged.
    pub fn mean_agree_fraction(&self) -> f64 {
        let fracs: Vec<f64> = self.results.iter().map(|r| r.agree_fraction).collect();
        aba_analysis::stats::mean_value_ordered(&fracs)
    }

    /// Among agreeing trials, the fraction that decided `b` (`NaN` if no
    /// trial agreed) — e.g. the conditional coin bias of Definition 2.
    pub fn decision_rate(&self, b: bool) -> f64 {
        let agreed: Vec<_> = self.results.iter().filter(|r| r.agreement).collect();
        if agreed.is_empty() {
            return f64::NAN;
        }
        agreed.iter().filter(|r| r.decision == Some(b)).count() as f64 / agreed.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_round_trips_every_axis() {
        let b = ScenarioBuilder::new(64, 10)
            .protocol(ProtocolSpec::ChorCoan { beta: 1.0 })
            .adversary(AttackSpec::Benign)
            .inputs(InputSpec::AllSame(true))
            .info_model(InfoModel::NonRushing)
            .network(NetworkSpec::LossyLinks { p_drop: 0.1 })
            .seed(42)
            .max_rounds(99)
            .trials(3);
        let s = b.scenario();
        assert_eq!((s.n, s.t, s.seed, s.max_rounds), (64, 10, 42, 99));
        assert_eq!(s.protocol.name(), "chor-coan");
        assert_eq!(s.attack.name(), "benign");
        assert_eq!(s.network.name(), "lossy");
        assert!(!s.info.is_rushing());
    }

    #[test]
    fn rounds_percentile_nearest_rank() {
        // Deterministic protocol: every trial of Phase-King at the same
        // (n, t) under benign conditions takes the same rounds, so the
        // percentile must equal that constant at every p.
        let report = ScenarioBuilder::new(10, 3)
            .protocol(ProtocolSpec::PhaseKing)
            .adversary(AttackSpec::Benign)
            .inputs(InputSpec::AllSame(true))
            .trials(4)
            .run_batch();
        let median = report.rounds_percentile(50.0);
        assert_eq!(median, report.rounds_percentile(95.0));
        assert_eq!(median, report.max_rounds());
        // Hand-checked nearest-rank on a synthetic batch.
        let mut synth = report.clone();
        for (i, r) in synth.results.iter_mut().enumerate() {
            r.rounds = (i as u64 + 1) * 10; // 10, 20, 30, 40
        }
        assert_eq!(synth.rounds_percentile(25.0), 10);
        assert_eq!(synth.rounds_percentile(50.0), 20);
        assert_eq!(synth.rounds_percentile(75.0), 30);
        assert_eq!(synth.rounds_percentile(76.0), 40);
        assert_eq!(synth.rounds_percentile(100.0), 40);
    }

    #[test]
    fn merge_of_split_halves_equals_one_shot() {
        let base = ScenarioBuilder::new(16, 5)
            .protocol(ProtocolSpec::PaperLasVegas { alpha: 2.0 })
            .adversary(AttackSpec::SplitVote)
            .seed(100);
        let whole = base.clone().trials(8).run_batch();
        let first = base.clone().trials(4).run_batch();
        let second = base.clone().seed(104).trials(4).run_batch();
        // Merge in either order: both equal the one-shot batch.
        let mut ab = first.clone();
        ab.merge(&second);
        assert_eq!(ab, whole);
        let mut ba = second.clone();
        ba.merge(&first);
        assert_eq!(ba, whole);
    }

    #[test]
    fn merge_is_associative_even_interleaved() {
        let base = ScenarioBuilder::new(16, 5)
            .protocol(ProtocolSpec::PaperLasVegas { alpha: 2.0 })
            .adversary(AttackSpec::SplitVote);
        // Three non-contiguous single-trial batches at seeds 5, 1, 3.
        let parts: Vec<BatchReport> = [5u64, 1, 3]
            .iter()
            .map(|s| base.clone().seed(*s).trials(1).run_batch())
            .collect();
        let mut left = parts[0].clone();
        left.merge(&parts[1]);
        left.merge(&parts[2]);
        let mut right = parts[2].clone();
        let mut bc = parts[1].clone();
        bc.merge(&parts[0]);
        right.merge(&bc);
        assert_eq!(left, right);
        let seeds: Vec<u64> = left.results.iter().map(|r| r.seed).collect();
        assert_eq!(seeds, vec![1, 3, 5], "trials interleave by seed");
        assert_eq!(left.scenario.seed, 1, "base seed is the minimum");
    }

    #[test]
    fn mean_agree_fraction_is_bitwise_order_invariant() {
        // The mean sums in total_cmp value order, so reordering the
        // result list must not move even the last bit.
        let report = ScenarioBuilder::new(16, 5)
            .protocol(ProtocolSpec::PaperLasVegas { alpha: 2.0 })
            .adversary(AttackSpec::SplitVote)
            .trials(8)
            .run_batch();
        let canonical = report.mean_agree_fraction();
        let mut reversed = report.clone();
        reversed.results.reverse();
        assert_eq!(
            canonical.to_bits(),
            reversed.mean_agree_fraction().to_bits()
        );
        let mut rotated = report.clone();
        for _ in 1..report.len() {
            rotated.results.rotate_left(1);
            assert_eq!(canonical.to_bits(), rotated.mean_agree_fraction().to_bits());
        }
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let base = ScenarioBuilder::new(16, 5).adversary(AttackSpec::Benign);
        let full = base.clone().trials(2).run_batch();
        let empty = base.clone().seed(900).trials(0).run_batch();
        let mut merged = full.clone();
        merged.merge(&empty);
        assert_eq!(merged, full);
        let mut from_empty = empty.clone();
        from_empty.merge(&full);
        assert_eq!(from_empty.results, full.results);
        assert_eq!(from_empty.scenario.seed, full.scenario.seed);
    }

    #[test]
    #[should_panic(expected = "appears twice")]
    fn merge_rejects_overlapping_seed_ranges() {
        // Growing a batch by re-running a superset range would silently
        // double-weight the shared trials; the merge must refuse.
        let base = ScenarioBuilder::new(16, 5).adversary(AttackSpec::Benign);
        let mut four = base.clone().seed(100).trials(4).run_batch();
        let eight = base.clone().seed(100).trials(8).run_batch();
        four.merge(&eight);
    }

    #[test]
    #[should_panic(expected = "non-seed axis")]
    fn merge_rejects_mismatched_axes() {
        let a = ScenarioBuilder::new(16, 5).trials(1).run_batch();
        let b = ScenarioBuilder::new(16, 5)
            .adversary(AttackSpec::Benign)
            .trials(1)
            .run_batch();
        let mut a = a;
        a.merge(&b);
    }

    #[test]
    fn empty_batch_percentile_is_zero() {
        let report = ScenarioBuilder::new(7, 2).trials(0).run_batch();
        assert_eq!(report.rounds_percentile(50.0), 0);
        assert!(report.delivery_rate().is_nan());
    }

    #[test]
    fn synchronous_network_delivers_everything() {
        let report = ScenarioBuilder::new(16, 5)
            .protocol(ProtocolSpec::PaperLasVegas { alpha: 2.0 })
            .adversary(AttackSpec::FullAttack)
            .trials(3)
            .run_batch();
        assert_eq!(report.delivery_rate(), 1.0);
        assert_eq!(report.mean_dropped(), 0.0);
        assert_eq!(report.mean_delayed(), 0.0);
        for r in &report.results {
            assert_eq!(r.network, "sync");
            assert_eq!(r.delivered, r.messages);
        }
    }

    #[test]
    fn lossy_network_loses_traffic_but_stays_deterministic() {
        let b = ScenarioBuilder::new(16, 5)
            .protocol(ProtocolSpec::PaperLasVegas { alpha: 2.0 })
            .adversary(AttackSpec::FullAttack)
            .network(NetworkSpec::LossyLinks { p_drop: 0.1 })
            .max_rounds(500)
            .trials(3);
        let a = b.run_batch();
        let c = b.run_batch();
        assert_eq!(a.results, c.results, "same seeds, same drops");
        assert!(a.delivery_rate() < 1.0);
        assert!(a.mean_dropped() > 0.0);
        for r in &a.results {
            assert_eq!(r.network, "lossy");
            assert_eq!(r.delivered + r.dropped, r.messages);
        }
    }

    #[test]
    fn single_run_and_batch_agree_on_first_seed() {
        let b = ScenarioBuilder::new(16, 5)
            .protocol(ProtocolSpec::PaperLasVegas { alpha: 2.0 })
            .adversary(AttackSpec::SplitVote)
            .seed(9)
            .trials(3);
        let single = b.run();
        let batch = b.run_batch();
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.results[0], single);
    }

    #[test]
    fn batch_aggregates() {
        let report = ScenarioBuilder::new(16, 5)
            .protocol(ProtocolSpec::PaperLasVegas { alpha: 2.0 })
            .adversary(AttackSpec::Benign)
            .inputs(InputSpec::AllSame(true))
            .trials(4)
            .run_batch();
        assert_eq!(report.len(), 4);
        assert!(report.all_correct());
        assert_eq!(report.agreement_rate(), 1.0);
        assert_eq!(report.termination_rate(), 1.0);
        assert_eq!(report.correct_rate(), 1.0);
        assert_eq!(report.decision_rate(true), 1.0);
        assert_eq!(report.mean_agree_fraction(), 1.0);
        assert!(report.mean_rounds() >= 1.0);
        assert!(report.max_rounds() as f64 >= report.mean_rounds());
        assert!(report.mean_messages_per_round() > 0.0);
    }

    #[test]
    fn empty_batch_rates_are_nan() {
        let report = ScenarioBuilder::new(7, 2).trials(0).run_batch();
        assert!(report.is_empty());
        assert!(report.agreement_rate().is_nan());
        assert!(report.mean_rounds().is_nan());
        assert!(report.decision_rate(true).is_nan());
        assert_eq!(report.max_rounds(), 0);
    }

    #[test]
    fn common_coin_protocol_reports_commonality() {
        // Fault-free Algorithm 1 always yields a common coin.
        let report = ScenarioBuilder::new(32, 0)
            .protocol(ProtocolSpec::CommonCoin)
            .adversary(AttackSpec::Benign)
            .trials(6)
            .run_batch();
        assert_eq!(report.agreement_rate(), 1.0);
        for r in &report.results {
            assert!(r.terminated);
            assert_eq!(r.validity, None, "the coin has no validity notion");
            assert!(r.decision.is_some());
        }
    }

    #[test]
    fn sampling_majority_protocol_runs() {
        let r = ScenarioBuilder::new(64, 4)
            .protocol(ProtocolSpec::SamplingMajority { iters: 0 })
            .adversary(AttackSpec::SamplingPoison)
            .max_rounds(4_000)
            .run();
        assert!(r.terminated);
        assert!((0.5..=1.0).contains(&r.agree_fraction), "{r:?}");
    }

    #[test]
    fn mismatched_attack_degrades_visibly() {
        // Coin-specific attack against a committee protocol and vice
        // versa must dispatch to the strongest applicable adversary —
        // and the substitution must be recorded in the result.
        let r = ScenarioBuilder::new(16, 5)
            .protocol(ProtocolSpec::PaperLasVegas { alpha: 2.0 })
            .adversary(AttackSpec::CoinKiller)
            .run();
        assert!(r.terminated && r.agreement);
        assert_ne!(r.adversary, AttackSpec::CoinKiller.name());
        assert!(r.downgraded, "the substitution is flagged");
        let r = ScenarioBuilder::new(36, 3)
            .protocol(ProtocolSpec::CommonCoin)
            .adversary(AttackSpec::FullAttack)
            .run();
        assert!(r.terminated);
        assert_ne!(r.adversary, AttackSpec::FullAttack.name());
        assert!(r.downgraded);
        // A matched pair records the adversary it asked for.
        let r = ScenarioBuilder::new(16, 5)
            .protocol(ProtocolSpec::PaperLasVegas { alpha: 2.0 })
            .adversary(AttackSpec::Benign)
            .run();
        assert_eq!(r.adversary, "benign");
        assert!(!r.downgraded);
    }

    #[test]
    fn check_attaches_oracles_without_perturbing_the_trial() {
        let b = ScenarioBuilder::new(16, 5)
            .protocol(ProtocolSpec::PaperLasVegas { alpha: 2.0 })
            .adversary(AttackSpec::FullAttack)
            .seed(4)
            .trials(2);
        let checked = b.check();
        assert!(checked.is_clean(), "{:?}", checked.oracle.violations);
        assert_eq!(checked.result, b.run());
        let batch = b.check_batch();
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0], checked);
        let plain = b.run_batch();
        for (c, p) in batch.iter().zip(&plain.results) {
            assert_eq!(&c.result, p);
        }
    }

    #[test]
    fn custom_adversary_escape_hatch() {
        use aba_adversary::Benign;
        let b = ScenarioBuilder::new(16, 5)
            .protocol(ProtocolSpec::PaperLasVegas { alpha: 2.0 })
            .inputs(InputSpec::AllSame(true))
            .trials(2);
        let single = b.run_with(Benign);
        assert!(single.correct());
        let batch = b.run_batch_with(|_seed| Benign);
        assert_eq!(batch.len(), 2);
        assert!(batch.all_correct());
    }

    #[test]
    #[should_panic(expected = "committee-family")]
    fn custom_adversary_rejects_non_committee_protocol() {
        let _ = ScenarioBuilder::new(16, 5)
            .protocol(ProtocolSpec::PhaseKing)
            .run_with(aba_adversary::Benign);
    }
}
