//! Scenario-level wiring for the `aba-check` subsystem: which lemma
//! oracles a [`Scenario`] arms, the public check/replay entry points,
//! and the failure shrinker.
//!
//! The mapping from scenario to oracles is deliberately conservative —
//! an armed oracle firing must always mean "a claimed guarantee was
//! violated in this run", never "this protocol doesn't make that
//! claim":
//!
//! * **Agreement/validity** arm for the full-agreement protocols
//!   (committee family and Phase-King). The common coin may be
//!   legitimately uncommon, and sampling majority and King–Saia only
//!   promise *almost-everywhere* agreement, so all three stay dormant
//!   there. The whp
//!   paper variant *does* arm them: a low-probability agreement failure
//!   is exactly the event worth flagging with its round.
//! * **Early termination** arms for the paper-family protocols under
//!   [`AttackSpec::FullAttackCapped`] with `q < t` on the synchronous
//!   network (the model the bound is stated for), with the
//!   `min{q²·log n/n, q/log n}` bound of Theorem 2 scaled by the same
//!   generous constants the integration tests use.
//! * **CONGEST** arms everywhere, with a per-edge budget of
//!   `8·(⌈log₂ n⌉ + 2)` bits — every protocol in this workspace is
//!   designed to the `O(log n)` CONGEST discipline.
//! * **Budget monotonicity** arms everywhere (it checks the engine's
//!   own accounting, not a protocol claim).

use crate::runner::{self, Once, RecordReplay, ReplayOutcome, TrialResult};
use crate::scenario::{AttackSpec, InputSpec, ProtocolSpec, Scenario};
use aba_check::{shrink_greedy, LemmaSuite, OracleReport};
use aba_sim::probe::NoProbe;

/// Result of one oracle-checked trial.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckedTrial {
    /// The ordinary trial result (bit-identical to an unchecked run —
    /// oracles observe, they never influence).
    pub result: TrialResult,
    /// What the armed lemma oracles concluded.
    pub oracle: OracleReport,
}

impl CheckedTrial {
    /// Whether no armed oracle fired.
    pub fn is_clean(&self) -> bool {
        self.oracle.is_clean()
    }
}

/// Whether the protocol claims *full* agreement/validity (as opposed to
/// probabilistic commonality or almost-everywhere agreement).
fn full_agreement(p: ProtocolSpec) -> bool {
    !matches!(
        p,
        ProtocolSpec::CommonCoin
            | ProtocolSpec::SamplingMajority { .. }
            | ProtocolSpec::KingSaia { .. }
    )
}

/// Whether the protocol is one of the paper's own variants (the ones
/// Theorem 2's early-termination clause speaks about).
fn paper_family(p: ProtocolSpec) -> bool {
    matches!(
        p,
        ProtocolSpec::Paper { .. }
            | ProtocolSpec::PaperLasVegas { .. }
            | ProtocolSpec::PaperLiteralCoin { .. }
    )
}

/// The CONGEST per-edge-per-round bit budget for an `n`-node network.
pub fn congest_budget_bits(n: usize) -> usize {
    8 * ((n.max(2) as f64).log2().ceil() as usize + 2)
}

/// The early-termination round allowance for corruption cap `q`:
/// Theorem 2's `min{q²·log n/n, q/log n}` shape with the generous
/// constants of the `early_termination` integration tests, widened for
/// per-run (rather than mean) tails.
pub fn early_termination_allowance(n: usize, q: usize) -> u64 {
    let bound = aba_analysis::theory::early_termination_bound(n, q);
    (16.0 * bound + 40.0).ceil() as u64
}

/// Builds the scenario's armed oracle suite (see the module docs for
/// the arming rules).
pub(crate) fn lemma_suite_for(s: &Scenario) -> LemmaSuite {
    let mut suite = LemmaSuite::new()
        .budget_monotonicity()
        .congest(congest_budget_bits(s.n));
    if full_agreement(s.protocol) {
        suite = suite.agreement();
        if let InputSpec::AllSame(b) = s.inputs {
            suite = suite.validity(b);
        }
    }
    // Early termination is a *liveness bound* stated for the paper's
    // synchronous model: under lossy/delayed networks a stalled run is
    // a network effect, not a lemma violation, so the oracle only arms
    // on the synchronous network.
    if paper_family(s.protocol) && matches!(s.network, crate::scenario::NetworkSpec::Synchronous) {
        if let AttackSpec::FullAttackCapped { q } = s.attack {
            if q < s.t {
                suite = suite.early_termination(q, early_termination_allowance(s.n, q));
            }
        }
    }
    suite
}

/// Runs one scenario with its lemma oracles attached — the by-reference
/// hook external orchestrators (the `aba-sweep` executor) schedule
/// checked trials through, mirroring [`crate::run_scenario`].
///
/// # Panics
///
/// Same preconditions as [`crate::run_scenario`].
pub fn check_scenario(s: &Scenario) -> CheckedTrial {
    let ran = runner::drive_scenario(Once(lemma_suite_for(s), NoProbe), s);
    CheckedTrial {
        result: ran.result,
        oracle: ran.oracle.report(),
    }
}

/// Records one scenario's run as a trace, re-drives the engine from the
/// trace, and returns both trial results. A faithful trace makes them
/// equal field for field — pinned differentially for every network
/// model by `tests/trace_replay.rs`.
///
/// # Panics
///
/// Same preconditions as [`crate::run_scenario`].
pub fn replay_scenario(s: &Scenario) -> ReplayOutcome {
    let r = runner::drive_scenario(RecordReplay(|| NoProbe), s);
    ReplayOutcome {
        live: r.live,
        replayed: r.replayed,
    }
}

/// A self-contained failure reproduction: the violating scenario as it
/// ran, and the greedily shrunken scenario that still violates.
#[derive(Debug, Clone, PartialEq)]
pub struct Repro {
    /// The scenario the violation was observed in.
    pub original: Scenario,
    /// The oracle report of the original scenario.
    pub original_oracle: OracleReport,
    /// The minimal failing scenario the shrinker reached.
    pub shrunk: Scenario,
    /// The oracle report of the shrunken scenario.
    pub shrunk_oracle: OracleReport,
    /// Shrink candidates evaluated.
    pub evaluated: usize,
    /// Shrink steps accepted.
    pub accepted: usize,
}

/// Clamps a scenario to network size `n2`, scaling `t` (and a capped
/// attack's `q`) to keep every protocol precondition (`n ≥ 3t + 1`)
/// intact.
fn resized(s: &Scenario, n2: usize) -> Scenario {
    let mut out = s.clone();
    out.n = n2;
    out.t = s.t.min(n2.saturating_sub(1) / 3);
    if let AttackSpec::FullAttackCapped { q } = out.attack {
        out.attack = AttackSpec::FullAttackCapped { q: q.min(out.t) };
    }
    if let AttackSpec::Crash { per_round } = out.attack {
        out.attack = AttackSpec::Crash {
            per_round: per_round.min(out.t.max(1)),
        };
    }
    out
}

/// Greedily shrinks a violating scenario along `n`, the trial seed, and
/// the round prefix, re-running the oracles on every candidate. Returns
/// `None` when the scenario is clean (nothing to shrink).
///
/// Shrinking is deterministic: candidates and the re-check are pure
/// functions of the scenario, so repro artifacts derived from this are
/// byte-identical across runs and worker counts.
///
/// # Panics
///
/// Same preconditions as [`crate::run_scenario`].
pub fn shrink_violation(s: &Scenario) -> Option<Repro> {
    let original = check_scenario(s);
    if original.is_clean() {
        return None;
    }
    // Keep well clear of tiny-committee edge cases: n never shrinks
    // below 8 (or the starting n, if already smaller).
    let min_n = 8.min(s.n);
    let candidates = |c: &Scenario| {
        let mut out = Vec::new();
        for n2 in [c.n / 2, c.n.saturating_sub(1)] {
            if n2 >= min_n && n2 < c.n {
                out.push(resized(c, n2));
            }
        }
        for seed in [0, c.seed / 2] {
            if seed < c.seed {
                let mut v = c.clone();
                v.seed = seed;
                out.push(v);
            }
        }
        out
    };
    // A candidate only counts when the *original* oracle kind still
    // fires — a smaller scenario that trips some other checker is a
    // different bug, not a smaller reproduction of this one.
    let kind = original.oracle.first().expect("violations retained").oracle;
    let still_fails = |c: &CheckedTrial| c.oracle.violations.iter().any(|v| v.oracle == kind);
    let (mut shrunk, stats) = shrink_greedy(
        s.clone(),
        candidates,
        |c| still_fails(&check_scenario(c)),
        24,
    );
    let mut evaluated = stats.evaluated;
    let mut accepted = stats.accepted;
    // Round-prefix shrink: truncate the run right after the first
    // same-kind violation (re-checked — a bound-shaped oracle may need
    // the full run to fire).
    let mut shrunk_checked = check_scenario(&shrunk);
    if let Some(first) = shrunk_checked
        .oracle
        .violations
        .iter()
        .find(|v| v.oracle == kind)
    {
        let prefix = first.round + 1;
        if prefix < shrunk.max_rounds {
            let mut candidate = shrunk.clone();
            candidate.max_rounds = prefix;
            let rechecked = check_scenario(&candidate);
            evaluated += 1;
            if still_fails(&rechecked) {
                shrunk = candidate;
                shrunk_checked = rechecked;
                accepted += 1;
            }
        }
    }
    Some(Repro {
        original: s.clone(),
        original_oracle: original.oracle,
        shrunk,
        shrunk_oracle: shrunk_checked.oracle,
        evaluated,
        accepted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::NetworkSpec;

    #[test]
    fn clean_scenarios_check_clean_and_do_not_shrink() {
        let s = Scenario::new(16, 5)
            .with_protocol(ProtocolSpec::PaperLasVegas { alpha: 2.0 })
            .with_attack(AttackSpec::Benign)
            .with_inputs(InputSpec::AllSame(true));
        let checked = check_scenario(&s);
        assert!(checked.is_clean(), "{:?}", checked.oracle.violations);
        assert!(checked.result.correct());
        assert_eq!(shrink_violation(&s), None);
    }

    #[test]
    fn checked_result_matches_unchecked_run() {
        // Oracles observe; they must never perturb the trial itself.
        let s = Scenario::new(16, 5)
            .with_attack(AttackSpec::FullAttack)
            .with_network(NetworkSpec::LossyLinks { p_drop: 0.1 })
            .with_max_rounds(400)
            .with_seed(9);
        assert_eq!(check_scenario(&s).result, crate::runner::run_scenario(&s));
    }

    #[test]
    fn resizing_keeps_preconditions() {
        let s = Scenario::new(64, 21).with_attack(AttackSpec::FullAttackCapped { q: 20 });
        let r = resized(&s, 16);
        assert_eq!(r.n, 16);
        assert_eq!(r.t, 5);
        assert_eq!(r.attack, AttackSpec::FullAttackCapped { q: 5 });
        assert!(r.n > 3 * r.t);
    }

    #[test]
    fn sparse_checked_trials_match_dense_and_stay_clean() {
        // The lemma oracles attach directly to the sparse plane; the
        // checked result (CongestEdgeBound armed) must match the dense
        // run field for field and stay violation-free.
        for proto in [
            ProtocolSpec::SamplingMajority { iters: 6 },
            ProtocolSpec::KingSaia { iters: 4 },
        ] {
            let dense = Scenario::new(24, 7)
                .with_protocol(proto)
                .with_attack(AttackSpec::SamplingPoison)
                .with_seed(5);
            let sparse = dense.clone().with_plane(crate::scenario::PlaneSpec::Sparse);
            let d = check_scenario(&dense);
            let sp = check_scenario(&sparse);
            assert_eq!(d.result, sp.result, "{}", proto.name());
            assert_eq!(d.oracle, sp.oracle, "{}", proto.name());
            assert!(
                sp.is_clean(),
                "{}: {:?}",
                proto.name(),
                sp.oracle.violations
            );
        }
    }

    #[test]
    fn suite_arming_rules() {
        // Paper + capped attack with q < t arms early termination; the
        // coin and sampling protocols never arm agreement.
        let capped = Scenario::new(31, 10)
            .with_protocol(ProtocolSpec::PaperLasVegas { alpha: 2.0 })
            .with_attack(AttackSpec::FullAttackCapped { q: 3 });
        let checked = check_scenario(&capped);
        assert!(checked.is_clean(), "{:?}", checked.oracle.violations);
        let coin = Scenario::new(36, 9)
            .with_protocol(ProtocolSpec::CommonCoin)
            .with_attack(AttackSpec::CoinKiller);
        // The coin killer reliably defeats commonality at this (n, t) —
        // the trial records it, but no oracle may fire (the coin's
        // failure probability is a *claimed* outcome, not a violation).
        let checked = check_scenario(&coin);
        assert!(checked.is_clean(), "{:?}", checked.oracle.violations);
    }
}
