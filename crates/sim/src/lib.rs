//! # aba-sim — synchronous full-information round simulator
//!
//! This crate is the substrate on which every protocol in this workspace
//! runs. It implements, exactly, the network/adversary model of
//! Dufoulon & Pandurangan, *Improved Byzantine Agreement under an Adaptive
//! Adversary* (PODC 2025), Section 1.1:
//!
//! * a **complete network** of `n` nodes with unique, globally-known IDs;
//! * **lock-step synchronous** communication: every round, each node emits
//!   messages, then receives the messages addressed to it, with the sender
//!   identity attached by the transport;
//! * a **full-information adversary** that can read every honest node's
//!   entire state and (in the *rushing* model) all messages already emitted
//!   in the current round before deciding its own behaviour;
//! * **adaptive corruption**: at any round boundary the adversary may
//!   corrupt additional nodes, up to a fixed budget `t`; corruption is
//!   permanent, and a corrupted node's round message — including the one it
//!   just emitted this very round — is replaced by whatever the adversary
//!   chooses, possibly a different message per recipient (equivocation);
//! * **CONGEST accounting**: every message reports its encoded size in bits
//!   and the engine records the maximum number of bits crossing any edge in
//!   any round, so `O(log n)`-bandwidth compliance is measured, not assumed.
//!
//! The engine is deterministic: a run is a pure function of the
//! configuration and a 64-bit master seed (see [`rng`]).
//!
//! A run reports each fact once: totals in [`RunReport`] and its
//! [`RunMetrics`], the corruption schedule in
//! [`CorruptionLedger::history`], and everything per round (round
//! boundaries, corruptions, halts, [`RoundMetrics`]) through the
//! [`Probe`] hooks, the engine's only event channel.
//!
//! ## Quick example
//!
//! ```
//! use aba_sim::prelude::*;
//!
//! /// A toy one-round protocol: everyone broadcasts their input bit and
//! /// outputs the majority.
//! #[derive(Debug, Clone)]
//! struct MajorityNode { id: NodeId, n: usize, input: bool, out: Option<bool>, halted: bool }
//!
//! #[derive(Debug, Clone, PartialEq, Eq)]
//! struct Bit(bool);
//! impl Message for Bit { fn bit_size(&self) -> usize { 1 } }
//!
//! impl Protocol for MajorityNode {
//!     type Msg = Bit;
//!     fn emit(&mut self, _round: Round, _rng: &mut dyn rand::RngCore) -> Emission<Bit> {
//!         Emission::Broadcast(Bit(self.input))
//!     }
//!     fn receive(&mut self, _round: Round, inbox: Inbox<'_, Bit>, _rng: &mut dyn rand::RngCore) {
//!         let ones = inbox.iter().filter(|(_, m)| m.0).count();
//!         self.out = Some(2 * ones >= self.n);
//!         self.halted = true;
//!     }
//!     fn output(&self) -> Option<bool> { self.out }
//!     fn halted(&self) -> bool { self.halted }
//! }
//!
//! let nodes: Vec<_> = (0..5)
//!     .map(|i| MajorityNode { id: NodeId::new(i), n: 5, input: i < 3, out: None, halted: false })
//!     .collect();
//! let cfg = SimConfig::new(5, 0);
//! let report = Simulation::new(cfg, nodes, aba_sim::adversary::Benign::new()).run();
//! assert!(report.all_halted);
//! assert!(report.outputs.iter().all(|o| *o == Some(true)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod arrivals;
pub mod delivery;
pub mod engine;
pub mod error;
pub mod id;
pub mod mailbox;
pub mod message;
pub mod metrics;
pub mod oracle;
pub mod packed;
pub mod plane;
pub mod probe;
pub mod protocol;
pub mod rng;
pub mod sparse;
pub mod verdict;

pub use adversary::{Adversary, AdversaryAction, CorruptionLedger, InfoModel, RoundView};
pub use arrivals::ArrivalScan;
pub use delivery::{Delivery, DeliveryStats, PassThrough};
pub use engine::{PackedSimulation, RunReport, SimConfig, Simulation, SparseSimulation};
pub use error::SimError;
pub use id::{NodeId, Round};
pub use mailbox::{Inbox, RoundMailbox};
pub use message::{Emission, Message};
pub use metrics::{RoundMetrics, RunMetrics};
pub use oracle::{NoOracle, Oracle, RoundCtx};
pub use packed::{PackedMailbox, PackedMessage};
pub use plane::MessagePlane;
pub use probe::{NoProbe, Probe, RoundPhase};
pub use protocol::Protocol;
pub use sparse::SparseMailbox;
pub use verdict::Verdict;

/// Convenient glob import for downstream crates and examples.
pub mod prelude {
    pub use crate::adversary::{
        Adversary, AdversaryAction, CorruptSend, CorruptionLedger, InfoModel, RoundView,
    };
    pub use crate::arrivals::ArrivalScan;
    pub use crate::delivery::{Delivery, DeliveryStats, PassThrough};
    pub use crate::engine::{PackedSimulation, RunReport, SimConfig, Simulation, SparseSimulation};
    pub use crate::error::SimError;
    pub use crate::id::{NodeId, Round};
    pub use crate::mailbox::{Inbox, RoundMailbox};
    pub use crate::message::{Emission, Message};
    pub use crate::metrics::{RoundMetrics, RunMetrics};
    pub use crate::oracle::{NoOracle, Oracle, RoundCtx};
    pub use crate::packed::{PackedMailbox, PackedMessage};
    pub use crate::plane::MessagePlane;
    pub use crate::probe::{NoProbe, Probe, RoundPhase};
    pub use crate::protocol::Protocol;
    pub use crate::sparse::SparseMailbox;
    pub use crate::verdict::Verdict;
}
