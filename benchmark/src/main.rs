//! The repository's end-to-end benchmark.
//!
//! ```text
//! aba-benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--pin]
//! aba-benchmark --workload <name> [--seed <n>] --setup-only
//! ```
//!
//! One client drives the public run API in a closed loop from a single
//! thread: every scenario runs with `threads = 1`, every campaign with
//! one worker, and each op starts only after the previous one returned.
//! The timed mode prints the end-to-end metrics; `--trace 1` runs the
//! same op list once more as traced trials and prints the per-layer
//! metrics; `--pin` rewrites the workload's expectation file at the
//! given seed; `--setup-only` is the fresh process a timed run starts to
//! time one set-up. The last line of output is the JSON result. See
//! `README.md` beside this file.

mod expect;
mod rebuild;
mod report;
mod spans;
mod verify;
mod workload;

use aba_harness::{check_scenario, run_scenario, Scenario, TrialResult};
use expect::Expectations;
use report::{beyond_rank, peak_rss_mib, percentile, result_line, Metric};
use spans::SpanLog;
use std::io::Write;
use std::process::{Command, ExitCode, Stdio};
use std::sync::OnceLock;
use std::time::Instant;
use verify::{guarded, load_pinned, verify, Tally};
use workload::{Op, Outcome, Plan, Workload, CAMPAIGN_WORKERS};

/// The seed whose outcomes are pinned under `expect/`.
const DEFAULT_SEED: u64 = 1;
/// Default measured seconds of a timed run.
const DEFAULT_SECONDS: u64 = 30;
/// Set-ups per timed run, each in a fresh process; `setup_s` is their
/// median.
const SETUPS: usize = 7;
/// Fewest timed ops a run makes: with 100, the 90th percentile rests on
/// at least ten samples beyond it.
const MIN_OPS: usize = 100;
/// Times the traced mode repeats each untraced timing; it keeps the
/// fastest.
const REPEATS: usize = 3;
/// Where the traced mode writes its span export.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// Nanoseconds since the benchmark's first clock read, which `main`
/// makes first thing. Every timing in the benchmark goes through here.
#[allow(clippy::disallowed_methods)] // timing the program is this binary's purpose
pub fn clock_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    let origin = ORIGIN.get_or_init(Instant::now);
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Timed,
    Traced,
    Pin,
    SetupOnly,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    mode: Mode,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds = DEFAULT_SECONDS;
        let mut trace = false;
        let mut pin = false;
        let mut setup_only = false;
        while let Some(flag) = it.next() {
            if flag == "--pin" {
                pin = true;
                continue;
            }
            if flag == "--setup-only" {
                setup_only = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload `{value}`"))?,
                    );
                }
                "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
                "--seconds" => {
                    seconds = value
                        .parse()
                        .ok()
                        .filter(|s| *s >= 1)
                        .ok_or_else(|| format!("--seconds {value}: want a whole number ≥ 1"))?;
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace {value}: want 0 or 1")),
                    };
                }
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        let mode = match (trace, pin, setup_only) {
            (false, false, false) => Mode::Timed,
            (true, false, false) => Mode::Traced,
            (false, true, false) => Mode::Pin,
            (false, false, true) => Mode::SetupOnly,
            _ => return Err("--trace 1, --pin and --setup-only exclude each other".to_string()),
        };
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            mode,
        })
    }
}

fn main() -> ExitCode {
    clock_ns();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: aba-benchmark --workload <{}> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--pin | --setup-only]",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let ran = match args.mode {
        Mode::Timed => timed(&args),
        Mode::Traced => traced(&args),
        Mode::Pin => pin(&args),
        Mode::SetupOnly => setup_only(&args),
    };
    match ran {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn header(args: &Args, mode: &str) {
    println!(
        "# aba-benchmark workload={} seed={} seconds={} mode={mode} threads=1 workers={CAMPAIGN_WORKERS}",
        args.workload.name(),
        args.seed,
        args.seconds
    );
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
}

/// Prints the failure summary and the result line; returns correctness.
fn finish(tally: &Tally, metrics: &[Metric]) -> bool {
    if let Some(first) = &tally.first_failure {
        println!("first failure: {first}");
    }
    let correct = tally.failed == 0;
    println!(
        "{}",
        result_line(correct, tally.attempted, tally.failed, metrics)
    );
    correct
}

/// One set-up: generate the op list, load the pinned expectations, and
/// run and check the untimed warm-up op.
fn set_up(args: &Args) -> Result<(Plan, Option<Expectations>), String> {
    let plan = Plan::new(args.workload, args.seed)?;
    let pinned = load_pinned(&plan, args.seed)?;
    let warm_up = &plan.warm_up;
    guarded(|| warm_up.run())
        .and_then(|out| workload::check_invariants(args.workload, warm_up, &out))
        .map_err(|e| format!("warm-up op at seed {}: {e}", warm_up.seed()))?;
    Ok((plan, pinned))
}

/// The `--setup-only` mode: one set-up in a fresh process, then the time
/// from `main` to its end.
fn setup_only(args: &Args) -> Result<bool, String> {
    set_up(args)?;
    println!("setup_ns {}", clock_ns());
    Ok(true)
}

/// Times one set-up in a fresh process of this binary, so that every
/// sample starts cold, and waits for the process to end.
fn timed_setup(args: &Args) -> Result<u64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", args.workload.name(), "--seed"])
        .arg(args.seed.to_string())
        .arg("--setup-only")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a set-up process: {e}"))?;
    if !out.status.success() {
        return Err(format!("the set-up process failed ({})", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .find_map(|l| l.strip_prefix("setup_ns "))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| "the set-up process printed no time".to_string())
}

/// The timed mode: run whole passes over the op list until `--seconds`
/// of ops have passed (and at least [`MIN_OPS`] ops), timing [`SETUPS`]
/// set-ups spread evenly over the run between passes, then re-run the
/// first op.
fn timed(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    let (plan, pinned) = set_up(args)?;
    header(args, "timed");

    let mut tally = Tally::default();
    let mut first: Vec<Option<String>> = vec![None; plan.ops.len()];
    let mut latency_ns = Vec::new();
    let mut setup_ns = Vec::with_capacity(SETUPS);
    let (mut trials, mut rounds, mut messages) = (0usize, 0u64, 0u64);
    let mut passes = 0u64;
    let window = args.seconds.saturating_mul(1_000_000_000);
    let (begin, mut setup_wall) = (clock_ns(), 0);
    let elapsed = |setup_wall: u64| clock_ns() - begin - setup_wall;
    while passes == 0 || elapsed(setup_wall) < window || latency_ns.len() < MIN_OPS {
        // Set-ups sample the host's speed across the run, as the ops do.
        if setup_ns.len() < SETUPS
            && elapsed(setup_wall) >= window / SETUPS as u64 * setup_ns.len() as u64
        {
            let start = clock_ns();
            setup_ns.push(timed_setup(args)?);
            setup_wall += clock_ns() - start;
        }
        for (i, op) in plan.ops.iter().enumerate() {
            let start = clock_ns();
            let outcome = guarded(|| op.run());
            latency_ns.push(clock_ns() - start);
            let checked = outcome.and_then(|out| {
                trials += out.trials();
                rounds += out.rounds();
                messages += out.messages();
                let rendered = out.render();
                let expected = pinned.as_ref().map(|p| p.entries[i].1.as_str());
                let result = verify(w, op, &out, &rendered, expected, first[i].as_deref());
                first[i].get_or_insert(rendered);
                result
            });
            tally.record(op, checked);
        }
        passes += 1;
    }
    while setup_ns.len() < SETUPS {
        setup_ns.push(timed_setup(args)?);
    }
    // A bit-identical re-run of the first op, untimed.
    let op = &plan.ops[0];
    let again = guarded(|| op.run()).and_then(|out| {
        let rendered = out.render();
        verify(w, op, &out, &rendered, None, first[0].as_deref())
    });
    tally.record(op, again);

    let ops = latency_ns.len();
    let (gated, reported) = end_to_end(&setup_ns, &latency_ns, trials, peak_rss_mib()?);
    println!(
        "work: passes={passes} ops={ops} trials={trials} rounds={rounds} msgs={messages} \
         per_pass_rounds={} per_pass_msgs={}",
        rounds / passes,
        messages / passes
    );
    print_metrics(&gated);
    for m in &reported {
        println!("{} {} {} (reported, not gated)", m.name, m.value, m.unit);
    }
    println!(
        "latency samples={ops} beyond_p50={} beyond_p90={}",
        beyond_rank(ops, 50.0),
        beyond_rank(ops, 90.0),
    );
    println!(
        "setup samples={SETUPS} failed_frac {} fraction ({} of {} ops)",
        tally.failed_frac(),
        tally.failed,
        tally.attempted
    );
    Ok(finish(&tally, &gated))
}

/// Nearest-rank percentile `p` of the op latencies, in milliseconds.
fn latency_ms(latency_ns: &[u64], p: f64) -> f64 {
    percentile(latency_ns, p).map_or(0.0, |ns| ns as f64 / 1e6)
}

/// Trials completed ÷ the summed wall time of the timed ops.
fn trials_per_s(trials: usize, latency_ns: &[u64]) -> f64 {
    let wall_s = latency_ns.iter().sum::<u64>() as f64 / 1e9;
    if wall_s > 0.0 {
        trials as f64 / wall_s
    } else {
        0.0
    }
}

/// The end-to-end metrics of a timed run: the gated ones, which
/// `BENCHMARK.json` declares and the result line carries, and the ones
/// printed beside them but not gated, because the host's speed drifts
/// move them beyond the largest allowed bound (see README.md).
fn end_to_end(
    setup_ns: &[u64],
    latency_ns: &[u64],
    trials: usize,
    peak_rss_mib: f64,
) -> (Vec<Metric>, Vec<Metric>) {
    let setup_s = percentile(setup_ns, 50.0).map_or(0.0, |ns| ns as f64 / 1e9);
    let gated = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("latency_ms_p90", latency_ms(latency_ns, 90.0), "ms"),
        Metric::new("peak_rss_mb", peak_rss_mib, "MiB"),
    ];
    let reported = vec![
        Metric::new("trials_per_s", trials_per_s(trials, latency_ns), "1/s"),
        Metric::new("latency_ms_p50", latency_ms(latency_ns, 50.0), "ms"),
    ];
    (gated, reported)
}

/// Per-layer totals of a traced run, in nanoseconds and counts.
#[derive(Debug, Default)]
struct Layers {
    /// Share denominator: traced op spans plus oracle time, or campaign spans.
    op_ns: f64,
    /// Fastest `check_scenario` minus fastest `run_scenario`, summed.
    oracle_ns: f64,
    /// Campaign spans minus the checked replays of their tasks.
    executor_ns: f64,
    /// Untraced `run_scenario` time, summed.
    run_ns: f64,
    trials: usize,
    rounds: u64,
    messages: u64,
    bits: u64,
    msgs_per_node: f64,
    delivered: u64,
    dropped: u64,
    delayed: u64,
    corruptions: u64,
    budget: u64,
    correct: usize,
    agree_fraction: f64,
    violations: u64,
    /// Cells × trial cap, summed over campaigns.
    campaign_slots: usize,
}

impl Layers {
    fn absorb(&mut self, s: &Scenario, r: &TrialResult, violations: usize) {
        self.trials += 1;
        self.rounds += r.rounds;
        self.messages += r.messages as u64;
        self.bits += r.bits as u64;
        self.msgs_per_node += r.messages as f64 / s.n as f64;
        self.delivered += r.delivered as u64;
        self.dropped += r.dropped as u64;
        self.delayed += r.delayed as u64;
        self.corruptions += r.corruptions as u64;
        self.budget += s.t as u64;
        self.correct += usize::from(r.correct());
        self.agree_fraction += r.agree_fraction;
        self.violations += violations as u64;
    }

    fn metrics(&self, log: &SpanLog, ops: usize) -> Vec<Metric> {
        // A layer or count with nothing under it reads 0, never NaN.
        let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
        let own = log.self_by_name();
        let own = |name: &str| own.get(name).copied().unwrap_or(0) as f64;
        let traced_ns = log.total_by_name("op") as f64;
        let ms = |ns: f64| ratio(ns, ops as f64) / 1e6;
        let trials = self.trials as f64;
        let mut metrics = Vec::new();
        for (ms_name, share_name, ns) in [
            ("sim.build_ms", "sim.build_share", own("build")),
            ("core.emit_ms", "core.emit_share", own("emit")),
            ("core.receive_ms", "core.receive_share", own("receive")),
            (
                "attacks.adversary_ms",
                "attacks.adversary_share",
                own("adversary"),
            ),
            ("net.deliver_ms", "net.deliver_share", own("deliver")),
            ("check.oracle_ms", "check.oracle_share", self.oracle_ns),
            (
                "sweep.executor_ms",
                "sweep.executor_share",
                self.executor_ns,
            ),
        ] {
            metrics.push(Metric::new(ms_name, ms(ns), "ms"));
            metrics.push(Metric::new(share_name, ratio(ns, self.op_ns), "fraction"));
        }
        metrics.push(Metric::new("sim.round_self_ms", ms(own("round")), "ms"));
        metrics.push(Metric::new("harness.self_ms", ms(own("op")), "ms"));
        let messages = self.messages as f64;
        for (name, value, unit) in [
            ("sim.ns_per_msg", ratio(self.run_ns, messages), "ns/msg"),
            (
                "sim.rounds_per_trial",
                ratio(self.rounds as f64, trials),
                "rounds/trial",
            ),
            ("sim.msgs_per_trial", ratio(messages, trials), "msgs/trial"),
            (
                "sim.bits_per_trial",
                ratio(self.bits as f64, trials),
                "bits/trial",
            ),
            (
                "sim.msgs_per_node",
                ratio(self.msgs_per_node, trials),
                "msgs/node",
            ),
            (
                "net.delivered_frac",
                ratio(self.delivered as f64, messages),
                "fraction",
            ),
            (
                "net.dropped_per_trial",
                ratio(self.dropped as f64, trials),
                "msgs/trial",
            ),
            (
                "net.delayed_per_trial",
                ratio(self.delayed as f64, trials),
                "events/trial",
            ),
            (
                "attacks.corruptions_per_trial",
                ratio(self.corruptions as f64, trials),
                "nodes/trial",
            ),
            (
                "attacks.budget_used_frac",
                ratio(self.corruptions as f64, self.budget as f64),
                "fraction",
            ),
            (
                "core.correct_rate",
                ratio(self.correct as f64, trials),
                "fraction",
            ),
            (
                "core.agree_fraction_mean",
                ratio(self.agree_fraction, trials),
                "fraction",
            ),
            (
                "check.violations_per_trial",
                ratio(self.violations as f64, trials),
                "count/trial",
            ),
            (
                "sweep.trials_per_op",
                ratio(trials, ops as f64),
                "trials/op",
            ),
            (
                "sweep.stop_efficiency",
                ratio(trials, self.campaign_slots as f64),
                "fraction",
            ),
            (
                "trace.overhead_frac",
                ratio(traced_ns, self.run_ns) - 1.0,
                "fraction",
            ),
        ] {
            metrics.push(Metric::new(name, value, unit));
        }
        metrics
    }
}

/// The traced mode: one pass over the timed op list. Each trial is timed
/// untraced through the harness, then rebuilt from the public crates with
/// the wall-clock probe; the rebuilt `TrialResult` must equal the
/// harness's. Campaign ops are timed whole, then every `(cell, trial)`
/// task is replayed through `check_scenario`, `run_scenario` and a
/// traced rebuild.
fn traced(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    let (plan, pinned) = set_up(args)?;
    header(args, "traced");

    let mut log = SpanLog::default();
    let mut layers = Layers::default();
    let mut tally = Tally::default();
    for (i, op) in plan.ops.iter().enumerate() {
        let expected = pinned.as_ref().map(|p| p.entries[i].1.as_str());
        let checked =
            guarded(|| trace_op(w, op, expected, &mut log, &mut layers)).and_then(|inner| inner);
        tally.record(op, checked);
    }
    let metrics = layers.metrics(&log, plan.ops.len());
    print_metrics(&metrics);
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    let path = format!("{OUT_DIR}/{}-seed{}.spans.tsv", w.name(), args.seed);
    std::fs::File::create(&path)
        .map(std::io::BufWriter::new)
        .and_then(|mut out| {
            log.write_tsv(&mut out)?;
            out.flush()
        })
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("spans={} written to {path}", log.spans().len());
    Ok(finish(&tally, &metrics))
}

/// Runs `f` [`REPEATS`] times and returns its last value with its
/// fastest time.
fn fastest<T>(mut f: impl FnMut() -> T) -> (T, u64) {
    fastest_pair(&mut f, || ()).0
}

/// Runs `f` and `g` in alternation, [`REPEATS`] times each, and returns
/// each one's last value with its fastest time. A layer whose cost is the
/// difference of two timings takes the fastest of each, which keeps the
/// host's speed swings and cold caches out of the difference.
fn fastest_pair<A, B>(mut f: impl FnMut() -> A, mut g: impl FnMut() -> B) -> ((A, u64), (B, u64)) {
    let mut timed_pair = || {
        let t0 = clock_ns();
        let a = f();
        let t1 = clock_ns();
        let b = g();
        ((a, t1 - t0), (b, clock_ns() - t1))
    };
    let ((mut a, mut a_ns), (mut b, mut b_ns)) = timed_pair();
    for _ in 1..REPEATS {
        let ((a2, a2_ns), (b2, b2_ns)) = timed_pair();
        (a, a_ns, b, b_ns) = (a2, a_ns.min(a2_ns), b2, b_ns.min(b2_ns));
    }
    ((a, a_ns), (b, b_ns))
}

/// Runs each scenario once through `run`, in order, and returns each
/// result with its start and end.
fn run_each<T>(tasks: &[Scenario], run: impl Fn(&Scenario) -> T) -> Vec<(T, u64, u64)> {
    tasks
        .iter()
        .map(|s| {
            let start = clock_ns();
            let out = run(s);
            (out, start, clock_ns())
        })
        .collect()
}

/// Times, checks and traces one op, accumulating into `layers`.
fn trace_op(
    w: Workload,
    op: &Op,
    expected: Option<&str>,
    log: &mut SpanLog,
    layers: &mut Layers,
) -> Result<(), String> {
    let start = clock_ns();
    let (out, op_ns, run_ns) = match op {
        Op::Check(s) => {
            let ((checked, check_ns), (plain, run_ns)) =
                fastest_pair(|| check_scenario(s), || run_scenario(s));
            same("run_scenario", &checked.result, &plain)?;
            let out = Outcome::Trial {
                result: checked.result,
                oracle: Some(checked.oracle),
            };
            (out, check_ns, run_ns)
        }
        Op::Run(_) | Op::Campaign(_) => {
            let (out, ns) = fastest(|| op.run());
            (out, ns, ns)
        }
    };
    verify(w, op, &out, &out.render(), expected, None)?;
    match (op, &out) {
        (Op::Run(s) | Op::Check(s), Outcome::Trial { result, oracle }) => {
            let traced_before = log.total_by_name("op");
            let rebuilt = rebuild::traced_trial(s, s.seed, log)?;
            same("the traced rebuild", result, &rebuilt)?;
            let oracle_ns = op_ns as f64 - run_ns as f64;
            layers.oracle_ns += oracle_ns;
            layers.run_ns += run_ns as f64;
            layers.op_ns += (log.total_by_name("op") - traced_before) as f64 + oracle_ns;
            layers.absorb(s, result, oracle.as_ref().map_or(0, |o| o.total));
        }
        (Op::Campaign(spec), Outcome::Campaign { result, .. }) => {
            // Every (cell, trial) task, in the order the campaign ran them.
            let mut tasks = Vec::new();
            for (cell, summary) in spec.cells().iter().zip(&result.cells) {
                if cell.key != summary.key {
                    return Err(format!("cell order differs at {}", cell.key));
                }
                tasks.extend((0..summary.trials as u64).map(|trial| {
                    let seed = cell.scenario.seed.wrapping_add(trial);
                    cell.scenario.clone().with_seed(seed)
                }));
            }
            // The tasks replayed in sequence, as the campaign's one worker
            // ran them: the campaign minus the checked replays is the
            // executor, the checked minus the plain replays the oracles.
            let ((checked, check_ns), (plain, plain_ns)) = fastest_pair(
                || run_each(&tasks, check_scenario),
                || run_each(&tasks, run_scenario),
            );
            log.push("campaign", spec.seed, None, start, start + op_ns);
            let mut cell_rounds = vec![0; result.cells.len()];
            let mut task = 0;
            for (cell, summary) in result.cells.iter().enumerate() {
                for _ in 0..summary.trials {
                    let (s, (c, t0, t1), (p, t2, t3)) =
                        (&tasks[task], &checked[task], &plain[task]);
                    log.push("check_scenario", spec.seed, None, *t0, *t1);
                    log.push("run_scenario", spec.seed, None, *t2, *t3);
                    same("run_scenario", &c.result, p)?;
                    let rebuilt = rebuild::traced_trial(s, spec.seed, log)?;
                    same("the traced rebuild", &c.result, &rebuilt)?;
                    layers.absorb(s, &c.result, c.oracle.total);
                    cell_rounds[cell] += c.result.rounds;
                    task += 1;
                }
            }
            if let Some((summary, rounds)) = result
                .cells
                .iter()
                .zip(&cell_rounds)
                .find(|(summary, rounds)| summary.sum_rounds != **rounds)
            {
                return Err(format!(
                    "cell {}: replayed trials ran {rounds} rounds, the campaign {}",
                    summary.key, summary.sum_rounds
                ));
            }
            layers.op_ns += op_ns as f64;
            layers.oracle_ns += check_ns as f64 - plain_ns as f64;
            layers.executor_ns += op_ns as f64 - check_ns as f64;
            layers.run_ns += plain_ns as f64;
            layers.campaign_slots += result.cells.len() * spec.stop.max_trials;
        }
        _ => return Err("the op produced the wrong kind of outcome".to_string()),
    }
    Ok(())
}

/// Fails unless a re-derived result equals the harness result.
fn same(what: &str, harness: &TrialResult, other: &TrialResult) -> Result<(), String> {
    if harness == other {
        Ok(())
    } else {
        Err(format!(
            "{what} differs from the harness result\n  harness: {harness:?}\n  other:   {other:?}"
        ))
    }
}

/// Pins the workload's op outcomes at `--seed` into its expectation file.
fn pin(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    let plan = Plan::new(w, args.seed)?;
    let mut entries = Vec::with_capacity(plan.ops.len());
    for op in &plan.ops {
        let out = guarded(|| op.run())?;
        workload::check_invariants(w, op, &out)
            .map_err(|e| format!("op at seed {}: {e}", op.seed()))?;
        entries.push((op.seed(), out.render()));
    }
    let pinned = expect::Expectations {
        workload: w.name().to_string(),
        seed: args.seed,
        entries,
    };
    let path = verify::expect_path(w);
    std::fs::write(&path, pinned.render()).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!(
        "pinned {} ops at seed {} into {path}",
        plan.ops.len(),
        args.seed
    );
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|s| s.to_string()))
    }

    fn spec() -> String {
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json beside the benchmark directory")
    }

    /// Every metric a mode prints is declared in `BENCHMARK.json` with the
    /// same unit, and every declared metric is printed.
    fn assert_declared(metrics: &[Metric], declared: usize) {
        let spec = spec();
        assert_eq!(metrics.len(), declared);
        for m in metrics {
            assert!(m.value.is_finite(), "{} is not finite", m.name);
            let entry = format!("{{\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
            assert!(spec.contains(&entry), "{entry} is not in BENCHMARK.json");
        }
    }

    #[test]
    fn timed_metrics_are_the_declared_end_to_end_metrics() {
        // 40 trials in 0.1 s of op time; p50 and p90 of [10, 20, 30, 40] ms.
        let latency_ns = [10_000_000, 40_000_000, 30_000_000, 20_000_000];
        let (gated, reported) = end_to_end(&[5, 7, 6], &latency_ns, 40, 3.5);
        assert_declared(&gated, spec().matches("\"bound\"").count());
        let value = |name: &str| {
            gated
                .iter()
                .chain(&reported)
                .find(|m| m.name == name)
                .map(|m| m.value)
        };
        assert_eq!(value("setup_s"), Some(6e-9));
        assert_eq!(value("trials_per_s"), Some(400.0));
        assert_eq!(value("latency_ms_p50"), Some(20.0));
        assert_eq!(value("latency_ms_p90"), Some(40.0));
        assert_eq!(value("peak_rss_mb"), Some(3.5));
    }

    #[test]
    fn fastest_keeps_the_minimum_and_the_last_value() {
        let mut calls = 0;
        let ((last, a_ns), (unit, b_ns)) = fastest_pair(
            || {
                calls += 1;
                calls
            },
            || (),
        );
        assert_eq!((last, unit), (REPEATS, ()));
        assert!(a_ns < u64::MAX && b_ns < u64::MAX);
        let (value, ns) = fastest(|| 7);
        assert_eq!(value, 7);
        assert!(ns < 1_000_000_000);
    }

    #[test]
    fn traced_metrics_are_the_declared_per_layer_metrics_even_when_empty() {
        let spec = spec();
        let per_layer = spec.matches("\"better\"").count() - spec.matches("\"bound\"").count();
        assert_declared(
            &Layers::default().metrics(&SpanLog::default(), 1),
            per_layer,
        );
    }

    #[test]
    fn arguments_parse_with_defaults() {
        let a = parse(&["--workload", "sparse-scale"]).expect("valid");
        assert_eq!(a.workload, Workload::SparseScale);
        assert_eq!(
            (a.seed, a.seconds, a.mode),
            (DEFAULT_SEED, DEFAULT_SECONDS, Mode::Timed)
        );
        let a = parse(&[
            "--workload",
            "adverse-net",
            "--seed",
            "9",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!((a.seed, a.seconds, a.mode), (9, 3, Mode::Traced));
        let a = parse(&["--pin", "--workload", "campaign-small"]).expect("valid");
        assert_eq!(a.mode, Mode::Pin);
        let a = parse(&["--workload", "campaign-small", "--setup-only"]).expect("valid");
        assert_eq!(a.mode, Mode::SetupOnly);
        assert!(parse(&["--workload", "adverse-net", "--setup-only", "--pin"]).is_err());
        assert!(parse(&["--workload", "x", "--pin"]).is_err());
        assert!(parse(&["--workload", "adverse-net", "--pin", "--trace", "1"]).is_err());
        assert!(parse(&["--seed", "3"]).is_err());
        assert!(parse(&["--workload", "adverse-net", "--seconds", "0"]).is_err());
        assert!(parse(&["--workload", "adverse-net", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "adverse-net", "--bogus", "1"]).is_err());
    }
}
