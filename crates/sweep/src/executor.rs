//! The campaign-wide work-stealing executor.
//!
//! One shared task queue schedules at **(cell, trial)** granularity
//! across the whole grid: workers claim individual trials, so a slow
//! Las Vegas cell occupies at most a few cores while the rest of the
//! grid drains — unlike a per-cell `run_batch` loop, where every cell
//! is a barrier and one heavy tail idles the machine.
//!
//! Determinism contract (pinned by `tests/campaign.rs`): the set of
//! trials each cell runs, every summary, and the emitted artifact
//! bytes are **independent of worker count and completion order**.
//! Three properties compose to give this:
//!
//! 1. trial `i` of a cell always runs at `cell_seed + i`, regardless of
//!    which worker claims it;
//! 2. the stopping rule is consulted only at batch boundaries, on the
//!    complete ordered prefix of the cell's trials;
//! 3. summaries fold trials in index order (and the accumulator is
//!    merge-order invariant besides).

use crate::artifact::CampaignResult;
use crate::checkpoint;
use crate::profiling::ExecProfiler;
use crate::spec::{CampaignSpec, CellSpec};
use crate::stop::StopDecision;
use crate::summary::{CellAccum, CellSummary};
use aba_harness::TrialResult;
use aba_obs::log as obslog;
use aba_obs::{chrome_trace, collapsed_from_log, EventKind, EventLog, MetricsRegistry};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::{Condvar, Mutex};

/// Execution options for [`CampaignSpec::run_with`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunOptions {
    /// Worker threads (`0` = all available cores).
    pub workers: usize,
    /// Checkpoint file: loaded (if present and compatible) before the
    /// run to skip finalized cells, rewritten after every cell
    /// finalization and at completion. The file is the campaign JSON
    /// artifact itself.
    pub checkpoint: Option<PathBuf>,
    /// Where to write per-cell failure repro artifacts. When the
    /// campaign runs with oracles and a cell records violations, the
    /// finalizing worker shrinks the first violating trial
    /// (`aba_harness::shrink_violation`) and writes a self-contained
    /// repro JSON here through the same atomic temp+rename path as
    /// checkpoints. Artifact bytes are worker-count independent.
    pub repro_dir: Option<PathBuf>,
    /// Where to write the **deterministic** observability artifacts
    /// (`{name}.events.log`, `{name}.metrics.txt`, `{name}.trace.json`,
    /// `{name}.collapsed.txt`). When set, every trial runs with the
    /// `aba-obs` event probe attached; the campaign log splices
    /// per-trial logs in grid/trial order, so all four files are
    /// byte-identical at any worker count (pinned by
    /// `tests/obs_campaign.rs`). Trial results and the ordinary
    /// artifacts are unaffected — probes observe only.
    pub obs_dir: Option<PathBuf>,
    /// Where to write the **deterministic** causal-provenance artifacts
    /// (`{name}.provenance.txt` — per-node decision cones, traffic
    /// profiles, and blame lines for every trial in grid/trial order —
    /// plus `{name}-cell{NNN}.cone.dot` / `.cone.jsonl` causal graphs
    /// for the first violating trial of each violating cell). When set,
    /// every trial runs with the `aba-obs` provenance probe attached
    /// (and, when `obs_dir` is also set, feeds the same run's event log
    /// and metrics into the observability artifacts — the `prov.*`
    /// histograms appear in `{name}.metrics.txt`). All bytes are
    /// worker-count independent (pinned by `tests/provenance_sweep.rs`).
    /// Trial results and the ordinary artifacts are unaffected.
    pub provenance_dir: Option<PathBuf>,
    /// Where to write the **wall-clock** timing artifacts
    /// (`{name}.timing.csv`, `{name}.profile.json`,
    /// `{name}.timing.collapsed.txt` — see [`crate::profiling`]).
    /// Explicitly non-deterministic; never mixed into the
    /// byte-deterministic artifacts. `None` (the default) means no
    /// clocks are read at all.
    pub profile_dir: Option<PathBuf>,
    /// In-round worker threads forwarded into every trial's engine
    /// (`0` = keep each scenario's own setting). Trial results and all
    /// artifacts are byte-identical at any value, but more threads are
    /// not faster: on the reference 2-vCPU host `threads = 2` ran
    /// 30–47% slower than `threads = 1` at n = 16,384 and 65,536, and
    /// no experiment, campaign or benchmark workload sets it.
    /// Orthogonal to `workers`, which parallelizes *across* trials.
    pub threads: usize,
}

/// Per-cell mutable state behind the queue lock.
struct CellRun {
    /// Trial results (with the trial's oracle-violation count), indexed
    /// by trial number; `None` = in flight.
    results: Vec<Option<(TrialResult, usize)>>,
    /// Per-trial deterministic observability capture, parallel to
    /// `results` (populated only when `RunOptions::obs_dir` is set;
    /// retained through finalization for campaign assembly).
    obs: Vec<Option<(EventLog, MetricsRegistry)>>,
    /// Per-trial provenance capture, parallel to `results` (populated
    /// only when `RunOptions::provenance_dir` is set; retained through
    /// finalization for campaign assembly).
    prov: Vec<Option<ProvCapture>>,
    /// Trials scheduled so far (prefix length once the batch drains).
    scheduled: usize,
    /// Scheduled trials not yet recorded.
    outstanding: usize,
    /// Set exactly once, when the stopping rule fires.
    summary: Option<CellSummary>,
}

/// What one provenance-traced trial leaves behind for the campaign
/// artifacts: the per-node summary text (with the blame line when a
/// disagreement was traced), the oracle-violation tally, and — for
/// violating trials only — the rendered causal graphs.
struct ProvCapture {
    summary: String,
    violations: usize,
    /// `(dot, jsonl)` causal-graph exports, rendered at capture time so
    /// the probe itself need not be retained.
    graphs: Option<(String, String)>,
}

/// Queue state shared by all workers.
struct State {
    queue: VecDeque<(usize, usize)>,
    runs: Vec<CellRun>,
    /// Cells not yet finalized; workers exit when this reaches 0.
    open: usize,
    /// Set when a trial panicked: every worker drains out immediately
    /// (the panic itself propagates through the thread scope).
    aborted: bool,
}

/// Atomic file write: creates the parent directory, writes to a sibling
/// temp file and renames it over the target — the file on disk is
/// always either the old content or the new one; a crash mid-write can
/// never leave a torn document. Shared by checkpoints and repro
/// artifacts.
pub(crate) fn atomic_write(path: &std::path::Path, contents: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

/// Best-effort checkpoint write via [`atomic_write`]; reports failures
/// to stderr, never fails the campaign (the in-memory result is
/// authoritative).
fn write_checkpoint(path: &std::path::Path, result: &CampaignResult) {
    if let Err(e) = atomic_write(path, &result.to_json()) {
        obslog::warn(&format!(
            "warning: cannot write campaign checkpoint {}: {e}",
            path.display()
        ));
    }
}

/// Maintains the finalized-cell list and serializes mid-run checkpoint
/// writes *outside* the scheduler lock.
///
/// A finalizing worker clones exactly one `CellSummary` under the
/// scheduler lock and hands it here; the sink keeps the accumulated
/// grid (in grid order), renders the JSON, and performs the file IO
/// under its own lock — so neither the O(cells) snapshot nor the disk
/// write ever stalls trial claiming. Cells only ever fill in, so each
/// write strictly extends the previous one and the file on disk only
/// moves forward.
struct CheckpointSink {
    path: std::path::PathBuf,
    name: String,
    seed: u64,
    fingerprint: String,
    cells: Mutex<Vec<Option<CellSummary>>>,
}

impl CheckpointSink {
    fn record(&self, index: usize, summary: CellSummary) {
        let mut cells = self.cells.lock().expect("checkpoint sink lock");
        cells[index] = Some(summary);
        let snapshot = CampaignResult {
            name: self.name.clone(),
            seed: self.seed,
            fingerprint: self.fingerprint.clone(),
            cells: cells.iter().flatten().cloned().collect(),
        };
        // Write while still holding the sink lock: writes stay ordered,
        // and only other *finalizing* workers ever wait here.
        write_checkpoint(&self.path, &snapshot);
    }
}

/// Unblocks the campaign when a trial panics (see `worker_loop`).
struct AbortOnPanic<'a> {
    state: &'a Mutex<State>,
    idle: &'a Condvar,
    armed: bool,
}

impl Drop for AbortOnPanic<'_> {
    fn drop(&mut self) {
        if self.armed {
            if let Ok(mut st) = self.state.lock() {
                st.aborted = true;
                st.queue.clear();
            }
            self.idle.notify_all();
        }
    }
}

impl CampaignSpec {
    /// Runs the campaign on all cores (no checkpoint).
    ///
    /// # Panics
    ///
    /// Panics on an invalid spec (empty axes, bad stopping schedule,
    /// or a cell violating a protocol precondition such as
    /// `n ≥ 3t + 1`).
    pub fn run(&self) -> CampaignResult {
        self.run_with(&RunOptions::default())
    }

    /// Runs the campaign with explicit worker count and optional
    /// resumable checkpoint.
    ///
    /// Checkpoint reuse is conservative: a stored cell is adopted only
    /// when the campaign fingerprint (master seed + stopping rule), the
    /// cell key, and the derived cell seed all match; otherwise the
    /// cell re-runs. Checkpoint *write* failures are reported to stderr
    /// but never fail the campaign — resumability is best-effort, the
    /// in-memory result is authoritative.
    ///
    /// # Panics
    ///
    /// Same as [`CampaignSpec::run`], plus a malformed (not missing)
    /// checkpoint file.
    pub fn run_with(&self, opts: &RunOptions) -> CampaignResult {
        self.stop.validate();
        let cells = self.cells();
        let fingerprint = self.fingerprint();

        // Adopt compatible finalized cells from the checkpoint.
        let restored: Vec<Option<CellSummary>> = match &opts.checkpoint {
            Some(path) => {
                let stored = checkpoint::load(path)
                    .unwrap_or_else(|e| panic!("unusable checkpoint {}: {e}", path.display()));
                let stored_cells = stored
                    .filter(|c| c.fingerprint == fingerprint)
                    .map(|c| c.cells)
                    .unwrap_or_default();
                cells
                    .iter()
                    .map(|cell| {
                        stored_cells
                            .iter()
                            .find(|s| s.key == cell.key && s.cell_seed == cell.scenario.seed)
                            .cloned()
                    })
                    .collect()
            }
            None => vec![None; cells.len()],
        };

        let mut state = State {
            queue: VecDeque::new(),
            runs: Vec::with_capacity(cells.len()),
            open: 0,
            aborted: false,
        };
        let obs_on = opts.obs_dir.is_some();
        let prov_on = opts.provenance_dir.is_some();
        let first_batch = self.stop.min_trials.min(self.stop.max_trials);
        for (i, restored) in restored.into_iter().enumerate() {
            let done = restored.is_some();
            state.runs.push(CellRun {
                results: if done {
                    Vec::new()
                } else {
                    vec![None; first_batch]
                },
                obs: if done || !obs_on {
                    Vec::new()
                } else {
                    vec![None; first_batch]
                },
                prov: if done || !prov_on {
                    Vec::new()
                } else {
                    (0..first_batch).map(|_| None).collect()
                },
                scheduled: if done { 0 } else { first_batch },
                outstanding: if done { 0 } else { first_batch },
                summary: restored,
            });
            if !done {
                state.open += 1;
                for t in 0..first_batch {
                    state.queue.push_back((i, t));
                }
            }
        }

        // Cap workers at the campaign's *potential* task count (open
        // cells × trial cap), not the initial queue length: adaptive
        // rules with a small min_trials enqueue bigger batches later
        // and must still be able to use the whole machine.
        let potential_tasks = state.open.saturating_mul(self.stop.max_trials);
        let workers = if opts.workers == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4)
        } else {
            opts.workers
        }
        .min(potential_tasks.max(1));

        let any_open = state.open > 0;
        // Pre-seed the sink with checkpoint-restored cells so mid-run
        // snapshots never lose them.
        let sink = opts.checkpoint.as_ref().map(|path| CheckpointSink {
            path: path.clone(),
            name: self.name.clone(),
            seed: self.seed,
            fingerprint: fingerprint.clone(),
            cells: Mutex::new(state.runs.iter().map(|r| r.summary.clone()).collect()),
        });
        // The timing channel is constructed only when asked for: an
        // unprofiled campaign reads no clocks (see crate::profiling).
        let profiler = opts.profile_dir.as_ref().map(|_| ExecProfiler::new());
        let state = Mutex::new(state);
        let idle = Condvar::new();
        if any_open {
            std::thread::scope(|scope| {
                for worker in 0..workers {
                    let state = &state;
                    let idle = &idle;
                    let cells = &cells;
                    let sink = sink.as_ref();
                    let repro_dir = opts.repro_dir.as_deref();
                    let profiler = profiler.as_ref();
                    let threads = opts.threads;
                    scope.spawn(move || {
                        self.worker_loop(
                            cells, state, idle, sink, repro_dir, obs_on, prov_on, profiler, worker,
                            threads,
                        )
                    });
                }
            });
        }

        let runs = state.into_inner().expect("no worker panicked").runs;
        if let Some(dir) = &opts.obs_dir {
            self.write_obs_artifacts(dir, &cells, &runs);
        }
        if let Some(dir) = &opts.provenance_dir {
            self.write_provenance_artifacts(dir, &cells, &runs);
        }
        if let (Some(dir), Some(prof)) = (&opts.profile_dir, &profiler) {
            prof.write_artifacts(dir, &self.name);
        }
        let result = CampaignResult {
            name: self.name.clone(),
            seed: self.seed,
            fingerprint,
            cells: runs
                .into_iter()
                .map(|r| r.summary.expect("all cells finalized"))
                .collect(),
        };
        if let Some(path) = &opts.checkpoint {
            write_checkpoint(path, &result);
        }
        result
    }

    /// Splices the per-trial deterministic captures into one campaign
    /// event log and merged registry — cells in grid order, trials in
    /// index order, checkpoint-adopted cells marked with a `note` — and
    /// writes the four deterministic observability artifacts. Splice
    /// order is a function of the spec alone, so the bytes are
    /// worker-count independent.
    fn write_obs_artifacts(&self, dir: &std::path::Path, cells: &[CellSpec], runs: &[CellRun]) {
        let mut events = EventLog::new();
        let mut registry = MetricsRegistry::new();
        events.push(EventKind::CampaignStart {
            name: self.name.clone(),
        });
        for (cell, run) in cells.iter().zip(runs) {
            events.push(EventKind::CellStart {
                key: cell.key.clone(),
            });
            if run.obs.iter().flatten().next().is_none() {
                events.push(EventKind::Note {
                    text: format!(
                        "cell {} adopted from checkpoint; trials not re-observed",
                        cell.key
                    ),
                });
            }
            for (log, metrics) in run.obs.iter().flatten() {
                events.absorb(log);
                registry.merge(metrics);
            }
            events.push(EventKind::CellEnd {
                key: cell.key.clone(),
            });
        }
        for (suffix, contents) in [
            ("events.log", events.render()),
            ("metrics.txt", registry.render()),
            ("trace.json", chrome_trace(&events)),
            ("collapsed.txt", collapsed_from_log(&events)),
        ] {
            let path = dir.join(format!("{}.{suffix}", self.name));
            if let Err(e) = atomic_write(&path, &contents) {
                obslog::warn(&format!(
                    "warning: cannot write observability artifact {}: {e}",
                    path.display()
                ));
            }
        }
    }

    /// Splices the per-trial provenance summaries into one campaign
    /// text artifact — cells in grid order, trials in index order,
    /// checkpoint-adopted cells marked — and writes the causal-graph
    /// exports of each violating cell's first violating trial. Like the
    /// obs artifacts, the bytes are a function of the spec alone.
    fn write_provenance_artifacts(
        &self,
        dir: &std::path::Path,
        cells: &[CellSpec],
        runs: &[CellRun],
    ) {
        let mut out = String::new();
        for (cell, run) in cells.iter().zip(runs) {
            out.push_str(&format!("== cell {} ==\n", cell.key));
            if run.prov.iter().flatten().next().is_none() {
                out.push_str("(adopted from checkpoint; trials not re-traced)\n");
            }
            for (ti, cap) in run.prov.iter().enumerate() {
                let Some(cap) = cap else { continue };
                out.push_str(&format!("-- trial {ti} --\n"));
                out.push_str(&cap.summary);
            }
        }
        let path = dir.join(format!("{}.provenance.txt", self.name));
        if let Err(e) = atomic_write(&path, &out) {
            obslog::warn(&format!(
                "warning: cannot write provenance artifact {}: {e}",
                path.display()
            ));
        }
        for (cell, run) in cells.iter().zip(runs) {
            // First violating trial in index order — worker-count
            // independent because the prefix is complete.
            let Some((dot, jsonl)) = run
                .prov
                .iter()
                .flatten()
                .find(|c| c.violations > 0)
                .and_then(|c| c.graphs.as_ref())
            else {
                continue;
            };
            for (suffix, contents) in [("cone.dot", dot), ("cone.jsonl", jsonl)] {
                let path = dir.join(format!("{}-cell{:03}.{suffix}", self.name, cell.index));
                if let Err(e) = atomic_write(&path, contents) {
                    obslog::warn(&format!(
                        "warning: cannot write causal graph {}: {e}",
                        path.display()
                    ));
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)] // private fan-out of RunOptions; a param struct would just restate it
    fn worker_loop(
        &self,
        cells: &[CellSpec],
        state: &Mutex<State>,
        idle: &Condvar,
        sink: Option<&CheckpointSink>,
        repro_dir: Option<&std::path::Path>,
        obs_on: bool,
        prov_on: bool,
        profiler: Option<&ExecProfiler>,
        worker: usize,
        threads: usize,
    ) {
        loop {
            // Claim the next (cell, trial) task, or exit when the whole
            // campaign has drained (or a sibling's trial panicked).
            let ((ci, ti), depth) = {
                let mut st = state.lock().expect("state lock");
                loop {
                    if st.aborted {
                        return;
                    }
                    if let Some(task) = st.queue.pop_front() {
                        break (task, st.queue.len());
                    }
                    if st.open == 0 {
                        return;
                    }
                    st = idle.wait(st).expect("state lock");
                }
            };
            if let Some(p) = profiler {
                p.record_claim(worker, depth);
            }

            // Run the trial outside the lock: this is the protocol ×
            // plane × network dispatch and attack table from aba-harness.
            // The abort guard keeps a panicking trial (e.g. an invalid
            // (n, t) for the cell's protocol) from deadlocking waiting
            // workers: on unwind it raises the abort flag and wakes
            // everyone, so the scope joins and the panic propagates.
            let mut abort = AbortOnPanic {
                state,
                idle,
                armed: true,
            };
            let mut scenario = cells[ci].scenario.clone();
            scenario.seed = scenario.seed.wrapping_add(ti as u64);
            if threads != 0 {
                scenario.threads = threads;
            }
            let timer = profiler.map(|p| p.trial_timer());
            // With observation or provenance on, the trial runs through
            // the probe-instrumented drive; the result and (when armed)
            // the violation tally are bit-identical to the
            // uninstrumented paths, so summaries and the ordinary
            // artifacts don't depend on either.
            let (outcome, observed, prov) = if prov_on {
                let o = aba_harness::provenance_scenario(&scenario);
                let violations = if self.oracles { o.oracle.total } else { 0 };
                let capture = ProvCapture {
                    summary: o.summary(),
                    violations,
                    graphs: (violations > 0).then(|| (o.dot_graph(), o.jsonl_graph())),
                };
                let observed = obs_on.then_some((o.events, o.metrics));
                ((o.result, violations), observed, Some(capture))
            } else if obs_on {
                let o = aba_harness::observe_scenario(&scenario);
                let violations = if self.oracles { o.oracle.total } else { 0 };
                ((o.result, violations), Some((o.events, o.metrics)), None)
            } else if self.oracles {
                let checked = aba_harness::check_scenario(&scenario);
                ((checked.result, checked.oracle.total), None, None)
            } else {
                ((aba_harness::run_scenario(&scenario), 0), None, None)
            };
            abort.armed = false;
            if let (Some(p), Some(t)) = (profiler, timer) {
                p.record_trial(&cells[ci].key, worker, t);
            }

            let mut st = state.lock().expect("state lock");
            if st.aborted {
                return;
            }
            {
                let run = &mut st.runs[ci];
                run.results[ti] = Some(outcome);
                if let Some(obs) = observed {
                    run.obs[ti] = Some(obs);
                }
                if let Some(p) = prov {
                    run.prov[ti] = Some(p);
                }
                run.outstanding -= 1;
                if run.outstanding > 0 {
                    continue;
                }
            }
            // Batch boundary: the prefix 0..scheduled is complete.
            // Consult the stopping rule and either extend the cell or
            // finalize it.
            let decision = {
                let run = &st.runs[ci];
                let prefix: Vec<TrialResult> = run
                    .results
                    .iter()
                    .map(|r| r.clone().expect("prefix complete").0)
                    .collect();
                self.stop.decide(&prefix)
            };
            // A finalized cell clones its one summary under the lock
            // and persists after releasing (see CheckpointSink); a
            // violating cell additionally notes its first violating
            // trial for the repro artifact (the complete ordered prefix
            // makes "first" worker-count independent).
            let mut pending_checkpoint = None;
            let mut pending_repro = None;
            match decision {
                StopDecision::Continue { next_batch } => {
                    let start = {
                        let run = &mut st.runs[ci];
                        let start = run.scheduled;
                        run.scheduled += next_batch;
                        run.outstanding = next_batch;
                        run.results.resize(run.scheduled, None);
                        if obs_on {
                            run.obs.resize(run.scheduled, None);
                        }
                        if prov_on {
                            run.prov.resize_with(run.scheduled, || None);
                        }
                        start
                    };
                    for t in start..start + next_batch {
                        st.queue.push_back((ci, t));
                    }
                }
                StopDecision::Stop { reason } => {
                    let summary = {
                        let run = &st.runs[ci];
                        let mut accum = CellAccum::new();
                        for r in &run.results {
                            let (result, violations) = r.as_ref().expect("prefix complete");
                            accum.push_checked(result, *violations);
                        }
                        accum.summarize(&cells[ci], reason)
                    };
                    if repro_dir.is_some() && summary.oracle_violations > 0 {
                        let run = &st.runs[ci];
                        let first_violating = run
                            .results
                            .iter()
                            .position(|r| r.as_ref().is_some_and(|(_, v)| *v > 0))
                            .expect("a violation was tallied");
                        pending_repro = Some((ci, first_violating));
                    }
                    let run = &mut st.runs[ci];
                    if sink.is_some() {
                        pending_checkpoint = Some((ci, summary.clone()));
                    }
                    run.summary = Some(summary);
                    run.results = Vec::new();
                    st.open -= 1;
                }
            }
            idle.notify_all();
            drop(st);
            if let (Some(sink), Some((index, summary))) = (sink, pending_checkpoint) {
                sink.record(index, summary);
            }
            if let (Some(dir), Some((index, trial))) = (repro_dir, pending_repro) {
                self.write_repro(dir, &cells[index], trial);
            }
        }
    }

    /// Shrinks the cell's first violating trial, traces the shrunken
    /// scenario's provenance (blame set + target decision cones), and
    /// writes the repro artifact (best-effort: IO failures warn, the
    /// campaign proceeds).
    fn write_repro(&self, dir: &std::path::Path, cell: &CellSpec, trial: usize) {
        let mut scenario = cell.scenario.clone();
        scenario.seed = scenario.seed.wrapping_add(trial as u64);
        let Some(repro) = aba_harness::shrink_violation(&scenario) else {
            // The trial tallied violations but a re-check came back
            // clean — would indicate nondeterminism; surface loudly.
            obslog::warn(&format!(
                "warning: cell {} trial {trial} no longer violates on re-check",
                cell.key
            ));
            return;
        };
        // The shrunken scenario is small by construction; one more
        // traced run buys the causal layer for the artifact.
        let traced = aba_harness::provenance_scenario(&repro.shrunk);
        let path = dir.join(format!("{}-cell{:03}.repro.json", self.name, cell.index));
        let doc = crate::artifact::render_repro(&cell.key, &repro, Some(&traced));
        if let Err(e) = atomic_write(&path, &doc) {
            obslog::warn(&format!(
                "warning: cannot write repro artifact {}: {e}",
                path.display()
            ));
        }
    }
}
