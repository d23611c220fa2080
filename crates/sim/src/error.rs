//! Error type for adversary-action validation.

use crate::id::{NodeId, Round};
use std::error::Error;
use std::fmt;

/// Errors produced while driving a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The adversary tried to corrupt more nodes than its budget allows.
    BudgetExceeded {
        /// Corruption budget `t`.
        budget: usize,
        /// Corruptions requested in total.
        requested: usize,
        /// Round at which the violation happened.
        round: Round,
    },
    /// The adversary tried to send on behalf of a node it does not control.
    SendFromHonest {
        /// The node the adversary tried to puppet.
        node: NodeId,
        /// Round at which the violation happened.
        round: Round,
    },
    /// A node ID outside `0..n` was referenced.
    UnknownNode {
        /// The offending ID.
        node: NodeId,
        /// Network size.
        n: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::BudgetExceeded {
                budget,
                requested,
                round,
            } => write!(
                f,
                "adversary requested {requested} total corruptions at {round}, budget is {budget}"
            ),
            SimError::SendFromHonest { node, round } => {
                write!(
                    f,
                    "adversary tried to send as honest node {node} at {round}"
                )
            }
            SimError::UnknownNode { node, n } => {
                write!(f, "node {node} out of range for n={n}")
            }
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = SimError::BudgetExceeded {
            budget: 3,
            requested: 5,
            round: Round::new(2),
        };
        let s = e.to_string();
        assert!(s.contains('3') && s.contains('5') && s.contains("r2"));

        let e = SimError::SendFromHonest {
            node: NodeId::new(4),
            round: Round::new(1),
        };
        assert!(e.to_string().contains("v4"));

        assert!(SimError::UnknownNode {
            node: NodeId::new(9),
            n: 4
        }
        .to_string()
        .contains("n=4"));
    }

    #[test]
    fn error_trait_is_implemented() {
        fn takes_err<E: std::error::Error>(_: E) {}
        takes_err(SimError::UnknownNode {
            node: NodeId::new(9),
            n: 4,
        });
    }
}
