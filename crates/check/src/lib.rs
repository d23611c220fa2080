//! # aba-check — online invariant oracles, trace replay, and shrinking
//!
//! The paper's guarantees are lemma-shaped: agreement at decision,
//! validity under uniform inputs, early termination when the adaptive
//! adversary spends only `q < t` corruptions, the CONGEST
//! one-message-per-edge bit bound, and monotone corruption-budget
//! accounting. Before this crate they were asserted *post hoc* in a
//! handful of integration tests; a sweep cell that silently violated a
//! lemma mid-run still reported plausible aggregate numbers.
//!
//! This crate plugs machine checking into every run via the `aba-sim`
//! [`Oracle`](aba_sim::oracle::Oracle) seam:
//!
//! * **Lemma oracles** ([`oracles`]): one online checker per lemma, plus
//!   the [`LemmaSuite`] aggregate the harness attaches. Checkers observe
//!   shared engine state each round and record [`Violation`]s with the
//!   round they first became observable.
//! * **Trace capture** ([`record`]): [`TraceRecorder`] is itself an
//!   oracle. It records, per round, the adversary's action and the
//!   arrivals in the planes' broadcast-base + deviation view (one clone
//!   per broadcast, not `n`), plus the delivery stats.
//! * **Replay** ([`replay`]): [`ReplayAdversary`] and [`ReplayDelivery`]
//!   re-drive the engine from a recording with no network model and no
//!   adversary strategy attached; a faithful trace reproduces the live
//!   run bit for bit under every network model (pinned by the
//!   `trace_replay` differential tests). Recorder, adversary and
//!   delivery stage are generic over the message plane, so a run
//!   records and replays on the plane it ran on.
//! * **Blame** ([`blame`]): given a run whose honest deciders disagree
//!   and a causal-influence relation (supplied by `aba-obs`'s
//!   provenance probe), a deterministic greedy cover of the minority
//!   deciders by corrupted senders — the repro artifact's "who to
//!   remove first" slice.
//! * **Shrinking** ([`shrink`]): a generic greedy minimizer the harness
//!   uses to cut a failing scenario down along `n`, the trial seed, and
//!   the round prefix before writing a repro artifact.
//!
//! The crate depends only on `aba-sim`; scenario-level wiring
//! (`ScenarioBuilder::check`, sweep columns, repro artifacts) lives in
//! `aba-harness` and `aba-sweep`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blame;
pub mod oracles;
pub mod record;
pub mod replay;
pub mod shrink;
pub mod violation;

pub use blame::{blame_disagreement, BlameReport};
pub use oracles::{
    AgreementAtDecision, CongestEdgeBound, CorruptionBudgetMonotonicity, EarlyTerminationBudget,
    LemmaSuite, OracleReport, Validity,
};
pub use record::{RoundRecord, RowRecord, TraceRecorder, TraceRecording};
pub use replay::{ReplayAdversary, ReplayDelivery};
pub use shrink::{shrink_greedy, ShrinkStats};
pub use violation::Violation;
