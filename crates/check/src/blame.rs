//! Violation blame: a minimal-ish set of corrupted senders that
//! causally explains an agreement disagreement.
//!
//! Given a run that ended with honest deciders split across outputs,
//! the blame set is a small set of corrupted nodes whose messages reach
//! (causally influence) **every** decider on the minority side — the
//! senders one would remove first when slicing a repro along the causal
//! cone. Exact minimum set cover is NP-hard; this module uses the
//! standard greedy cover, which is deterministic, `ln`-approximate, and
//! in practice exact on the small blame sets adversary strategies
//! produce (the PhaseKing × StaticMirror golden pins one).
//!
//! The module is pure and provenance-agnostic: callers supply the
//! influence relation (in the workspace, `aba-obs`'s
//! `ProvenanceProbe::influenced` — the "corrupted when their message
//! entered the cone" closure), so `aba-check` keeps its `aba-sim`-only
//! dependency footprint.

use aba_sim::{NodeId, RunReport};

/// The outcome of a blame computation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlameReport {
    /// The deciders to explain: honest nodes that decided the minority
    /// output (ties broken toward blaming the `true` side).
    pub targets: Vec<NodeId>,
    /// Greedy cover: corrupted nodes that together influence every
    /// covered target, in pick order (each pick covered the most
    /// still-uncovered targets; ties to the lowest ID).
    pub blamed: Vec<NodeId>,
    /// Targets no corrupted node influences at all — a non-empty
    /// remainder means the disagreement is not (causally) attributable
    /// to the adversary's messages.
    pub uncovered: Vec<NodeId>,
}

impl BlameReport {
    /// True when there was nothing to blame (no honest disagreement).
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Deterministic single-line render for artifacts:
    /// `blamed=[..] targets=[..] uncovered=[..]`.
    pub fn render(&self) -> String {
        fn ids(v: &[NodeId]) -> String {
            let mut s = String::from("[");
            for (i, id) in v.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&id.index().to_string());
            }
            s.push(']');
            s
        }
        format!(
            "blamed={} targets={} uncovered={}",
            ids(&self.blamed),
            ids(&self.targets),
            ids(&self.uncovered)
        )
    }
}

/// Computes the blame set for an agreement disagreement in `report`.
///
/// `influenced(decider, candidate)` must answer whether `candidate`'s
/// corrupted-at-send-time messages causally reach `decider`'s decision
/// (reflexivity is *not* assumed; a corrupted node never appears as a
/// target because targets are honest).
///
/// Targets are the honest deciders holding the **minority** output; on
/// an exact tie the side holding `true` is targeted, so the choice is
/// deterministic and scenario-independent. With no disagreement (zero
/// or one distinct honest output) the report is empty.
pub fn blame_disagreement(
    report: &RunReport,
    mut influenced: impl FnMut(NodeId, NodeId) -> bool,
) -> BlameReport {
    let n = report.outputs.len();
    let mut holders: [Vec<NodeId>; 2] = [Vec::new(), Vec::new()];
    for i in 0..n {
        if report.honest.get(i).copied().unwrap_or(true) {
            if let Some(Some(o)) = report.outputs.get(i) {
                holders[*o as usize].push(NodeId::new(i as u32));
            }
        }
    }
    if holders[0].is_empty() || holders[1].is_empty() {
        return BlameReport::default();
    }
    let minority = match holders[1].len().cmp(&holders[0].len()) {
        std::cmp::Ordering::Greater => 0,
        // Tie → blame the `true` side.
        _ => 1,
    };
    let targets = holders[minority].clone();

    let candidates: Vec<NodeId> = (0..n)
        .filter(|&i| !report.honest.get(i).copied().unwrap_or(true))
        .map(|i| NodeId::new(i as u32))
        .collect();
    // covers[c] = bitmask over target indices the candidate influences.
    let covers: Vec<u128> = candidates
        .iter()
        .map(|&c| {
            targets
                .iter()
                .enumerate()
                .filter(|(_, &d)| influenced(d, c))
                .fold(0u128, |m, (k, _)| m | (1 << (k % 128)))
        })
        .collect();

    let all: u128 = targets
        .iter()
        .enumerate()
        .fold(0u128, |m, (k, _)| m | (1 << (k % 128)));
    let mut uncovered_mask = all;
    let mut blamed = Vec::new();
    let mut used = vec![false; candidates.len()];
    loop {
        let mut best: Option<(usize, u32)> = None;
        for (ci, &mask) in covers.iter().enumerate() {
            if used[ci] {
                continue;
            }
            let gain = (mask & uncovered_mask).count_ones();
            if gain > 0 && best.is_none_or(|(_, g)| gain > g) {
                best = Some((ci, gain));
            }
        }
        let Some((ci, _)) = best else { break };
        used[ci] = true;
        uncovered_mask &= !covers[ci];
        blamed.push(candidates[ci]);
        if uncovered_mask == 0 {
            break;
        }
    }
    let uncovered = targets
        .iter()
        .enumerate()
        .filter(|(k, _)| uncovered_mask & (1 << (k % 128)) != 0)
        .map(|(_, &d)| d)
        .collect();
    BlameReport {
        targets,
        blamed,
        uncovered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aba_sim::RunMetrics;

    fn report(outputs: Vec<Option<bool>>, honest: Vec<bool>) -> RunReport {
        RunReport {
            rounds: 1,
            all_halted: true,
            honest: honest.clone(),
            halt_rounds: vec![Some(0); outputs.len()],
            corruptions_used: honest.iter().filter(|h| !**h).count(),
            outputs,
            metrics: RunMetrics::default(),
        }
    }

    #[test]
    fn agreement_means_empty_blame() {
        let r = report(vec![Some(true), Some(true), None], vec![true, true, false]);
        let b = blame_disagreement(&r, |_, _| true);
        assert!(b.is_empty());
        assert_eq!(b.render(), "blamed=[] targets=[] uncovered=[]");
    }

    #[test]
    fn minority_side_is_targeted_and_tie_targets_true() {
        // 2×false vs 1×true → targets the lone true-holder (node 2).
        let r = report(
            vec![Some(false), Some(false), Some(true), None],
            vec![true, true, true, false],
        );
        let b = blame_disagreement(&r, |d, _| d == NodeId::new(2));
        assert_eq!(b.targets, vec![NodeId::new(2)]);
        assert_eq!(b.blamed, vec![NodeId::new(3)]);
        assert!(b.uncovered.is_empty());
        // 1 vs 1 tie → the true side is targeted.
        let r = report(vec![Some(false), Some(true), None], vec![true, true, false]);
        let b = blame_disagreement(&r, |_, _| true);
        assert_eq!(b.targets, vec![NodeId::new(1)]);
    }

    #[test]
    fn greedy_prefers_the_biggest_cover_then_lowest_id() {
        // Honest 0..4 split 1×false / 4×true?? — make minority = nodes
        // 0,1 (false) vs 2,3,4 (true); corrupted 5 covers both targets,
        // corrupted 6 covers only node 0.
        let r = report(
            vec![
                Some(false),
                Some(false),
                Some(true),
                Some(true),
                Some(true),
                None,
                None,
            ],
            vec![true, true, true, true, true, false, false],
        );
        let b = blame_disagreement(&r, |d, c| {
            c == NodeId::new(5) || (c == NodeId::new(6) && d == NodeId::new(0))
        });
        assert_eq!(b.blamed, vec![NodeId::new(5)]);
        assert!(b.uncovered.is_empty());
        // When two candidates tie on coverage, the lower ID wins.
        let b = blame_disagreement(&r, |_, _| true);
        assert_eq!(b.blamed, vec![NodeId::new(5)]);
    }

    #[test]
    fn uninfluenced_targets_are_reported_uncovered() {
        let r = report(
            vec![Some(false), Some(true), Some(true), None],
            vec![true, true, true, false],
        );
        let b = blame_disagreement(&r, |_, _| false);
        assert_eq!(b.targets, vec![NodeId::new(0)]);
        assert!(b.blamed.is_empty());
        assert_eq!(b.uncovered, vec![NodeId::new(0)]);
        assert_eq!(b.render(), "blamed=[] targets=[0] uncovered=[0]");
    }
}
