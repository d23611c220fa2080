//! # aba-sweep — campaign orchestration over scenario grids
//!
//! The paper's claims are probabilistic (agreement w.h.p., Las Vegas
//! round counts), so every meaningful result in this workspace comes
//! from sweeping scenario grids — protocol × adversary × network ×
//! `(n, t)` — and estimating proportions and tails. This crate turns a
//! declarative [`CampaignSpec`] into finished artifacts:
//!
//! * **Grid**: axes compose into cells via the `aba-harness` scenario
//!   types; each cell's seed derives from its canonical key, so
//!   reordering or extending axes never changes surviving cells'
//!   results ([`spec`]).
//! * **Execution**: one campaign-wide work-stealing pool schedules at
//!   `(cell, trial)` granularity through the harness's run dispatch —
//!   a slow Las Vegas cell no longer serializes the grid
//!   ([`executor`]).
//! * **Adaptive allocation**: a per-cell sequential stopping rule
//!   (Wilson half-width on agreement, or relative CI on mean rounds)
//!   gives cheap cells a handful of trials and interesting ones the
//!   budget ([`stop`]).
//! * **Artifacts**: streaming mergeable accumulators ([`summary`]),
//!   byte-deterministic CSV/JSON emission ([`artifact`]), and resumable
//!   checkpoints ([`checkpoint`]) — the same spec and seed produce
//!   byte-identical artifacts at any worker count.
//!
//! ```
//! use aba_harness::{AttackSpec, ProtocolSpec};
//! use aba_sweep::{CampaignSpec, StopRule};
//!
//! let result = CampaignSpec::new("demo")
//!     .sizes(&[(16, 5)])
//!     .protocols(&[ProtocolSpec::PaperLasVegas { alpha: 2.0 }])
//!     .attacks(&[AttackSpec::Benign, AttackSpec::FullAttack])
//!     .stop(StopRule::fixed(4))
//!     .run();
//! assert_eq!(result.cells.len(), 2);
//! assert_eq!(result.total_trials(), 8);
//! println!("{}", result.to_csv());
//! ```
//!
//! On top of the campaign engine sit the reproducible experiments
//! E1–E16 ([`experiments`]) and the `aba-experiments` binary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod checkpoint;
pub mod executor;
pub mod experiments;
pub mod profiling;
pub mod spec;
pub mod stop;
pub mod summary;

pub use profiling::ExecProfiler;

pub use artifact::CampaignResult;
pub use executor::RunOptions;
pub use spec::{attack_key, info_key, network_key, protocol_key, CampaignSpec, CellSpec, RoundCap};
pub use stop::{StopDecision, StopRule};
pub use summary::{CellAccum, CellSummary};
