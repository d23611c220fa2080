//! # aba-net — pluggable network conditions for the round engine
//!
//! The paper's model (and the `aba-sim` engine's default) is strictly
//! lock-step synchronous: every message emitted in a round is delivered
//! in that round. This crate weakens that assumption along the axes the
//! related work studies — unreliable links (King–Saia's
//! bandwidth-limited regime) and adversarial scheduling under partial
//! synchrony (Lewko–Lewko) — while keeping every run a pure function of
//! its master seed.
//!
//! Three pieces compose:
//!
//! * [`NetworkModel`] — the per-message policy: deliver now, delay by
//!   `d`, or drop ([`Fate`]). Shipped models: [`Synchronous`],
//!   [`LossyLinks`], [`BoundedDelay`] (random or adversarial
//!   [`DelayScheduler`]), [`Partition`].
//! * [`FlightQueue`] — the mechanism that carries delayed messages
//!   across rounds, FIFO per link, one message per link per round: a
//!   wheel of slots keyed by due round.
//! * [`NetDelivery`] — the adapter implementing the engine's
//!   [`aba_sim::Delivery`] seam on top of the two.
//!
//! ## Wiring a model into a run
//!
//! ```
//! use aba_net::{LossyLinks, NetDelivery};
//! use aba_sim::prelude::*;
//!
//! # #[derive(Debug, Clone)]
//! # struct Echo { done: bool, heard: usize }
//! # #[derive(Debug, Clone)]
//! # struct Ping;
//! # impl Message for Ping { fn bit_size(&self) -> usize { 1 } }
//! # impl Protocol for Echo {
//! #     type Msg = Ping;
//! #     fn emit(&mut self, _: Round, _: &mut dyn rand::RngCore) -> Emission<Ping> {
//! #         Emission::Broadcast(Ping)
//! #     }
//! #     fn receive(&mut self, _: Round, inbox: Inbox<'_, Ping>, _: &mut dyn rand::RngCore) {
//! #         self.heard = inbox.len();
//! #         self.done = true;
//! #     }
//! #     fn output(&self) -> Option<bool> { self.done.then_some(self.heard > 0) }
//! #     fn halted(&self) -> bool { self.done }
//! # }
//! let cfg = SimConfig::new(8, 0).with_seed(42);
//! let nodes: Vec<Echo> = (0..8).map(|_| Echo { done: false, heard: 0 }).collect();
//! let net = NetDelivery::new(LossyLinks::new(0.25), cfg.seed);
//! let report = Simulation::with_network(cfg, nodes, aba_sim::adversary::Benign, net).run();
//! assert!(report.metrics.total_delivered < report.metrics.total_messages);
//! ```
//!
//! Experiment code should not touch this layer directly: the
//! `ScenarioBuilder` facade exposes it as
//! `.network(NetworkSpec::LossyLinks { p_drop: 0.1 })`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod delivery;
pub mod flight;
pub mod model;
pub mod models;

pub use delivery::{DeliveryWork, NetDelivery};
pub use flight::{DrainOutcome, FlightQueue};
pub use model::{Fate, Link, NetworkModel};
pub use models::{BoundedDelay, DelayScheduler, LossyLinks, Partition, Synchronous};

/// Convenient glob import.
pub mod prelude {
    pub use crate::delivery::{DeliveryWork, NetDelivery};
    pub use crate::flight::{DrainOutcome, FlightQueue};
    pub use crate::model::{Fate, Link, NetworkModel};
    pub use crate::models::{BoundedDelay, DelayScheduler, LossyLinks, Partition, Synchronous};
}
