//! # aba-obs — two-channel observability for the simulation stack
//!
//! The paper's claims are quantitative (round complexity, message
//! complexity `O(min{n·t²·log n, n²·t/log n})`, the CONGEST `O(log n)`
//! bits-per-edge bound), so seeing *where* rounds, bits, and wall-clock
//! go is part of reproducing it. This crate provides that visibility as
//! two strictly separated channels:
//!
//! * **Channel 1 — deterministic** ([`event`], [`metrics`], [`probe`]):
//!   a structured [`EventLog`] on *logical* time (campaign → cell →
//!   trial → round → phase spans plus typed corruption / halt /
//!   violation / truncation events) and a [`MetricsRegistry`] of
//!   counters, high-water gauges, and fixed-boundary histograms. Every
//!   merge is commutative and associative and every render iterates in
//!   sorted order, so serialized output is **bit-identical across sweep
//!   worker counts and under trace replay** — it is part of the
//!   workspace's reproducibility surface, pinned by tests.
//!
//! * **Channel 2 — timing** ([`timing`]): wall-clock profiling
//!   (per-phase spans, queue-depth/steal counters, per-cell latency
//!   percentiles). Explicitly non-deterministic, confined to files
//!   registered with aba-lint's `wall-clock-in-sim` rule scoping, and
//!   written to separate `*.timing.csv` / `*.profile.json` files that
//!   are never compared byte-wise. Zero cost when disabled: no globals,
//!   no ambient clocks — a run without profiling performs no clock
//!   reads.
//!
//! Instrumentation enters the engine through the
//! [`Probe`](aba_sim::probe::Probe) seam ([`EventProbe`] here;
//! `NoProbe` inlines away), and exits through the [`export`] module:
//! Chrome trace-event JSON (open in [Perfetto](https://ui.perfetto.dev)
//! or `chrome://tracing`) and collapsed-stack text for flamegraph
//! tooling.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod export;
pub mod log;
pub mod metrics;
pub mod probe;
pub mod provenance;
pub mod timing;

pub use event::{EventKind, EventLog, ObsEvent};
pub use export::{
    chrome_trace, chrome_trace_from_spans, collapsed_from_log, collapsed_stacks, SpanRecord,
};
pub use metrics::{Histogram, MetricsRegistry, POW2_BOUNDS};
pub use probe::EventProbe;
pub use provenance::{chrome_trace_with_flows, ConeStats, ProvenanceProbe, RoundEdges};
pub use timing::{summarize_latencies, LatencySummary, Stopwatch, WallClock};
