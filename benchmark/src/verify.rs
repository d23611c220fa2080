//! Result checks: every op's outcome is compared with its pinned form at
//! the pinned seed, held to the every-seed invariants, and compared with
//! its own earlier run. A panic or a mismatch is one failed op.

use crate::expect::Expectations;
use crate::workload::{check_invariants, Op, Outcome, Plan, Workload};

/// Directory of the pinned expectation files.
pub const EXPECT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/expect");

/// Path of a workload's expectation file.
pub fn expect_path(workload: Workload) -> String {
    format!("{EXPECT_DIR}/{}.tsv", workload.name())
}

/// Loads a workload's pinned outcomes and returns them when they were
/// pinned at `seed` for exactly this plan's ops.
pub fn load_pinned(plan: &Plan, seed: u64) -> Result<Option<Expectations>, String> {
    let path = expect_path(plan.workload);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let pinned = Expectations::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if pinned.workload != plan.workload.name() {
        return Err(format!("{path} pins workload {}", pinned.workload));
    }
    if pinned.seed != seed {
        return Ok(None);
    }
    let seeds: Vec<u64> = plan.ops.iter().map(Op::seed).collect();
    let pinned_seeds: Vec<u64> = pinned.entries.iter().map(|(s, _)| *s).collect();
    if seeds != pinned_seeds {
        return Err(format!(
            "{path} pins other op seeds than seed {seed} generates"
        ));
    }
    Ok(Some(pinned))
}

/// Runs `f`, turning a panic into an error.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "a non-text panic payload".to_string());
        format!("panicked: {msg}")
    })
}

/// Checks one outcome: the pinned form (if pinned), the invariants, and
/// the earlier run of the same op (if any).
pub fn verify(
    workload: Workload,
    op: &Op,
    outcome: &Outcome,
    rendered: &str,
    pinned: Option<&str>,
    earlier: Option<&str>,
) -> Result<(), String> {
    if let Some(expected) = pinned {
        if rendered != expected {
            return Err(format!(
                "differs from the pinned outcome\n  expected: {}\n  got:      {}",
                clip(expected),
                clip(rendered)
            ));
        }
    }
    check_invariants(workload, op, outcome)?;
    match earlier {
        Some(before) if before != rendered => Err(format!(
            "a re-run differs\n  first: {}\n  again: {}",
            clip(before),
            clip(rendered)
        )),
        _ => Ok(()),
    }
}

/// Shortens a rendered outcome for a mismatch report.
fn clip(s: &str) -> String {
    const MAX: usize = 400;
    let flat = s.replace('\n', " ");
    match flat.char_indices().nth(MAX) {
        Some((cut, _)) => format!("{}…", &flat[..cut]),
        None => flat,
    }
}

/// Counts attempted and failed ops and keeps the first failure.
#[derive(Debug, Default)]
pub struct Tally {
    /// Ops attempted.
    pub attempted: usize,
    /// Ops that panicked or failed a check.
    pub failed: usize,
    /// The first failure, described.
    pub first_failure: Option<String>,
}

impl Tally {
    /// Records one op's check.
    pub fn record(&mut self, op: &Op, checked: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = checked {
            self.failed += 1;
            if self.first_failure.is_none() {
                self.first_failure = Some(format!("op at seed {}: {why}", op.seed()));
            }
        }
    }

    /// Failed ops ÷ attempted ops.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aba_harness::{AttackSpec, ProtocolSpec, Scenario};

    fn small_op() -> Op {
        Op::Run(
            Scenario::new(16, 5)
                .with_protocol(ProtocolSpec::PaperLasVegas { alpha: 2.0 })
                .with_attack(AttackSpec::FullAttack)
                .with_seed(3),
        )
    }

    #[test]
    fn a_wrong_expectation_fails_the_op() {
        let op = small_op();
        let outcome = op.run();
        let rendered = outcome.render();
        let mut tally = Tally::default();
        let w = Workload::AdverseNet;
        tally.record(
            &op,
            verify(w, &op, &outcome, &rendered, Some(&rendered), None),
        );
        assert_eq!(tally.failed_frac(), 0.0);
        let wrong = rendered.replace("seed: 3", "seed: 4");
        tally.record(&op, verify(w, &op, &outcome, &rendered, Some(&wrong), None));
        assert_eq!(tally.failed, 1);
        assert!(tally.failed_frac() > 0.0);
        assert!(tally
            .first_failure
            .as_deref()
            .is_some_and(|f| f.contains("pinned")));
    }

    #[test]
    fn a_differing_rerun_and_a_panic_fail_the_op() {
        let op = small_op();
        let outcome = op.run();
        let rendered = outcome.render();
        let w = Workload::AdverseNet;
        assert!(verify(w, &op, &outcome, &rendered, None, Some(&rendered)).is_ok());
        assert!(verify(w, &op, &outcome, &rendered, None, Some("other")).is_err());
        let panicked = guarded(|| -> u8 { panic!("boom") });
        assert_eq!(panicked, Err("panicked: boom".to_string()));
    }

    #[test]
    fn clipping_keeps_reports_short() {
        let long = "x".repeat(1000);
        assert!(clip(&long).chars().count() <= 401);
        assert_eq!(clip("a\nb"), "a b");
    }
}
