//! # aba-harness — the ScenarioBuilder facade and the trial runner
//!
//! This crate owns the **one blessed way to run an experiment**: the
//! [`ScenarioBuilder`] facade, which composes protocol × adversary ×
//! parameters declaratively and executes trials on all cores. On top of
//! it sit the campaign orchestration subsystem (`aba-sweep`) and the
//! reproducible experiments E1–E16 documented in EXPERIMENTS.md at the
//! repository root (run them with `aba-experiments`, which lives in
//! `aba-sweep`). External orchestrators schedule individual trials
//! through the [`run_scenario`] hook, reusing the facade's dispatch:
//! one engine per protocol × plane × network model, with the adversary
//! picked at run time.
//!
//! ## Running a scenario
//!
//! ```
//! use aba_harness::{AttackSpec, ProtocolSpec, ScenarioBuilder};
//!
//! let result = ScenarioBuilder::new(16, 5)
//!     .protocol(ProtocolSpec::PaperLasVegas { alpha: 2.0 })
//!     .adversary(AttackSpec::FullAttack)
//!     .seed(7)
//!     .run();
//! assert!(result.correct());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod facade;
pub mod observe;
pub mod provenance;
pub mod report;
pub(crate) mod runner;
pub mod scenario;

pub use check::{check_scenario, replay_scenario, shrink_violation, CheckedTrial, Repro};
pub use facade::{run_scenario, run_scenario_with_probe, BatchReport, ScenarioBuilder};
pub use observe::{observe_replay, observe_scenario, ObservedReplay, ObservedTrial};
pub use provenance::{provenance_replay, provenance_scenario, ProvenancedReplay, ProvenancedTrial};
pub use report::Report;
pub use runner::{ReplayOutcome, TrialResult};
pub use scenario::{AttackSpec, InputSpec, NetworkSpec, PlaneSpec, ProtocolSpec, Scenario};

// Re-export the oracle report types so facade users need only this
// crate to inspect check results.
pub use aba_check::{BlameReport, OracleReport, Violation};

// `NetworkSpec::BoundedDelay` carries an `aba-net` scheduler; re-export
// it so facade users need only this crate.
pub use aba_net::DelayScheduler;
