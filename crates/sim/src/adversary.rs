//! The adversary-side interface: full-information views, corruption
//! bookkeeping, and the action type.
//!
//! The model implemented here is the paper's strongest: an **adaptive,
//! rushing, full-information** Byzantine adversary (Section 1.1). Every
//! round, after honest nodes have committed their outgoing messages (and
//! thus their current-round randomness), the adversary:
//!
//! * reads the complete internal state of every node,
//! * reads all messages emitted this round (only under [`InfoModel::Rushing`];
//!   under [`InfoModel::NonRushing`] the current round's messages are
//!   hidden, matching the weaker model Chor–Coan assumed),
//! * corrupts any set of additional nodes subject to its global budget
//!   `t`, and
//! * dictates, for every corrupted node, what that node sends this round —
//!   including per-recipient equivocation. A node corrupted *this* round
//!   has its already-emitted honest message replaced.

use crate::error::SimError;
use crate::id::{NodeId, Round};
use crate::mailbox::RoundMailbox;
use crate::message::Emission;
use crate::plane::MessagePlane;
use crate::protocol::Protocol;
use rand::RngCore;

/// How much of the current round the adversary observes before acting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InfoModel {
    /// The adversary sees the current round's messages (and therefore the
    /// current round's random choices) before choosing corruptions and
    /// Byzantine messages. This is the paper's model.
    Rushing,
    /// The adversary only sees history up to the previous round; its
    /// round-`r` behaviour is committed before seeing round-`r` coin
    /// flips. This is the model of Chor–Coan (1985).
    NonRushing,
}

impl InfoModel {
    /// True for the rushing model.
    pub fn is_rushing(self) -> bool {
        matches!(self, InfoModel::Rushing)
    }
}

/// Permanent record of which nodes are corrupted and how much budget is
/// left. Enforced by the engine: corruptions are irreversible and capped.
#[derive(Debug, Clone)]
pub struct CorruptionLedger {
    budget: usize,
    corrupted: Vec<bool>,
    history: Vec<(Round, NodeId)>,
}

impl CorruptionLedger {
    /// New ledger for `n` nodes with a total budget of `t` corruptions.
    pub fn new(n: usize, t: usize) -> Self {
        CorruptionLedger {
            budget: t,
            corrupted: vec![false; n],
            history: Vec::new(),
        }
    }

    /// Total corruption budget `t`.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Corruptions performed so far.
    pub fn used(&self) -> usize {
        self.history.len()
    }

    /// Corruptions still available.
    pub fn remaining(&self) -> usize {
        self.budget - self.used()
    }

    /// Whether `node` is corrupted.
    pub fn is_corrupted(&self, node: NodeId) -> bool {
        self.corrupted[node.index()]
    }

    /// Number of currently honest nodes.
    pub fn honest_count(&self) -> usize {
        self.corrupted.iter().filter(|c| !**c).count()
    }

    /// Per-node corruption flags, indexed by node.
    pub fn flags(&self) -> &[bool] {
        &self.corrupted
    }

    /// Iterator over corrupted node IDs.
    pub fn corrupted_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.corrupted
            .iter()
            .enumerate()
            .filter(|(_, c)| **c)
            .map(|(i, _)| NodeId::new(i as u32))
    }

    /// The round-stamped corruption history, in order.
    pub fn history(&self) -> &[(Round, NodeId)] {
        &self.history
    }

    /// Marks `node` corrupted at `round`.
    ///
    /// # Errors
    ///
    /// Fails if the budget is exhausted or the node is out of range.
    /// Corrupting an already-corrupted node is a no-op.
    pub fn corrupt(&mut self, node: NodeId, round: Round) -> Result<(), SimError> {
        if node.index() >= self.corrupted.len() {
            return Err(SimError::UnknownNode {
                node,
                n: self.corrupted.len(),
            });
        }
        if self.corrupted[node.index()] {
            return Ok(());
        }
        if self.remaining() == 0 {
            return Err(SimError::BudgetExceeded {
                budget: self.budget,
                requested: self.used() + 1,
                round,
            });
        }
        self.corrupted[node.index()] = true;
        self.history.push((round, node));
        Ok(())
    }
}

/// What the adversary does in one round.
#[derive(Debug, Clone)]
pub struct AdversaryAction<M> {
    /// Nodes to corrupt *now* (before this round's delivery). Must fit in
    /// the remaining budget. Duplicates and already-corrupted entries are
    /// ignored.
    pub corruptions: Vec<NodeId>,
    /// Round emissions for corrupted nodes. Each entry fully replaces the
    /// node's message for this round. Corrupted nodes with no entry stay
    /// silent. Entries for honest nodes are rejected by the engine.
    pub sends: Vec<(NodeId, CorruptSend<M>)>,
}

/// A corrupted node's emission, as dictated by the adversary.
pub type CorruptSend<M> = Emission<M>;

impl<M> AdversaryAction<M> {
    /// The do-nothing action.
    pub fn pass() -> Self {
        AdversaryAction {
            corruptions: Vec::new(),
            sends: Vec::new(),
        }
    }

    /// Whether the action does anything at all.
    pub fn is_pass(&self) -> bool {
        self.corruptions.is_empty() && self.sends.is_empty()
    }
}

impl<M> Default for AdversaryAction<M> {
    fn default() -> Self {
        Self::pass()
    }
}

/// Everything the adversary sees before acting in a round.
///
/// `nodes` exposes the *entire* state of every node — this is the
/// full-information model; strategies for a concrete protocol type can
/// read any field its accessors expose. `outgoing` carries the messages
/// honest nodes emitted this round; it is `None` under
/// [`InfoModel::NonRushing`]. `L` is the message plane the run uses
/// (default: the dense [`RoundMailbox`]).
pub struct RoundView<'a, P: Protocol, L: MessagePlane<P::Msg> = RoundMailbox<<P as Protocol>::Msg>>
{
    /// Current round.
    pub round: Round,
    /// All protocol nodes (honest and corrupted alike), indexed by ID.
    pub nodes: &'a [P],
    /// Honest emissions of the current round (rushing model only).
    pub outgoing: Option<&'a L>,
    /// Corruption bookkeeping (who is corrupted, remaining budget).
    pub ledger: &'a CorruptionLedger,
    /// Which nodes have halted.
    pub halted: &'a [bool],
}

impl<'a, P: Protocol, L: MessagePlane<P::Msg>> RoundView<'a, P, L> {
    /// Network size.
    pub fn n(&self) -> usize {
        self.nodes.len()
    }

    /// IDs of currently honest, non-halted nodes.
    pub fn live_honest(&self) -> impl Iterator<Item = NodeId> + 'a {
        let ledger = self.ledger;
        let halted = self.halted;
        (0..self.nodes.len()).filter_map(move |i| {
            let id = NodeId::new(i as u32);
            (!ledger.is_corrupted(id) && !halted[i]).then_some(id)
        })
    }
}

/// An adversary strategy.
///
/// Implementations receive the full-information [`RoundView`] and their own
/// independent RNG stream, and return an [`AdversaryAction`]. The engine
/// validates the action (budget, no sends from honest nodes) and applies
/// it.
pub trait Adversary<P: Protocol, L: MessagePlane<P::Msg> = RoundMailbox<<P as Protocol>::Msg>> {
    /// Decide this round's corruptions and Byzantine messages.
    fn act(&mut self, view: &RoundView<'_, P, L>, rng: &mut dyn RngCore)
        -> AdversaryAction<P::Msg>;

    /// Human-readable strategy name (used in reports).
    fn name(&self) -> &'static str {
        "adversary"
    }
}

/// A boxed strategy acts and reports its name exactly as the strategy
/// inside, so a caller that picks its attack at run time can drive one
/// engine instantiation with `Box<dyn Adversary<P, L>>`; `act` then goes
/// through one virtual call per round.
impl<P, L, A> Adversary<P, L> for Box<A>
where
    P: Protocol,
    L: MessagePlane<P::Msg>,
    A: Adversary<P, L> + ?Sized,
{
    fn act(
        &mut self,
        view: &RoundView<'_, P, L>,
        rng: &mut dyn RngCore,
    ) -> AdversaryAction<P::Msg> {
        (**self).act(view, rng)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// The adversary that corrupts nobody and sends nothing.
///
/// Useful as the fault-free baseline and for validity experiments.
#[derive(Debug, Clone, Copy, Default)]
pub struct Benign;

impl Benign {
    /// Creates the benign adversary.
    pub fn new() -> Self {
        Benign
    }
}

impl<P: Protocol, L: MessagePlane<P::Msg>> Adversary<P, L> for Benign {
    fn act(
        &mut self,
        _view: &RoundView<'_, P, L>,
        _rng: &mut dyn RngCore,
    ) -> AdversaryAction<P::Msg> {
        AdversaryAction::pass()
    }

    fn name(&self) -> &'static str {
        "benign"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_enforces_budget() {
        let mut ledger = CorruptionLedger::new(5, 2);
        assert_eq!(ledger.budget(), 2);
        assert_eq!(ledger.remaining(), 2);
        ledger.corrupt(NodeId::new(0), Round::ZERO).unwrap();
        ledger.corrupt(NodeId::new(1), Round::new(1)).unwrap();
        assert_eq!(ledger.remaining(), 0);
        let err = ledger.corrupt(NodeId::new(2), Round::new(1)).unwrap_err();
        assert!(matches!(err, SimError::BudgetExceeded { .. }));
    }

    #[test]
    fn ledger_recorruption_is_noop() {
        let mut ledger = CorruptionLedger::new(5, 1);
        ledger.corrupt(NodeId::new(3), Round::ZERO).unwrap();
        ledger.corrupt(NodeId::new(3), Round::new(7)).unwrap();
        assert_eq!(ledger.used(), 1);
        assert_eq!(ledger.history().len(), 1);
        assert!(ledger.is_corrupted(NodeId::new(3)));
    }

    #[test]
    fn ledger_rejects_unknown_nodes() {
        let mut ledger = CorruptionLedger::new(3, 3);
        let err = ledger.corrupt(NodeId::new(9), Round::ZERO).unwrap_err();
        assert!(matches!(err, SimError::UnknownNode { .. }));
    }

    #[test]
    fn ledger_tracks_honest_count_and_iter() {
        let mut ledger = CorruptionLedger::new(4, 4);
        assert_eq!(ledger.honest_count(), 4);
        ledger.corrupt(NodeId::new(1), Round::ZERO).unwrap();
        ledger.corrupt(NodeId::new(2), Round::ZERO).unwrap();
        assert_eq!(ledger.honest_count(), 2);
        let ids: Vec<_> = ledger.corrupted_nodes().map(|x| x.index()).collect();
        assert_eq!(ids, vec![1, 2]);
        assert_eq!(ledger.flags(), &[false, true, true, false]);
    }

    #[test]
    fn pass_action_is_empty() {
        let a: AdversaryAction<()> = AdversaryAction::pass();
        assert!(a.is_pass());
        let b: AdversaryAction<()> = AdversaryAction::default();
        assert!(b.is_pass());
    }

    #[test]
    fn info_model_flags() {
        assert!(InfoModel::Rushing.is_rushing());
        assert!(!InfoModel::NonRushing.is_rushing());
    }
}
