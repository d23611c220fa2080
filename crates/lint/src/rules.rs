//! The rule catalogue.
//!
//! Each rule is a token-stream pass over one classified file. Rules are
//! deliberately heuristic — no type information — but every heuristic
//! errs toward firing, and intentional exceptions are annotated in
//! place with a mandatory reason, which turns the annotation inventory
//! into documentation of the workspace's invariant boundary.
//!
//! | rule id | invariant it guards |
//! |---|---|
//! | `hash-nondeterminism` | no hash-order iteration near results |
//! | `wall-clock-in-sim` | engine output is a pure fn of (config, seed) |
//! | `rng-stream-ledger` | every RNG stream is declared exactly once |
//! | `float-determinism` | total_cmp ordering, roundtrip float artifacts |
//! | `seam-bypass` | only the engine/Delivery adapters place messages |
//! | `panic-hygiene` | library panic sites are pinned, not accreted |

use crate::diag::Diagnostic;
use crate::lexer::{Token, TokenKind};
use crate::registry::Registry;
use crate::source::{FileKind, TestRegions};

/// Rule ids an `allow(...)` comment may name.
pub const RULE_IDS: &[&str] = &[
    "hash-nondeterminism",
    "wall-clock-in-sim",
    "rng-stream-ledger",
    "float-determinism",
    "seam-bypass",
    "panic-hygiene",
];

/// Crates allowed to mutate `RoundMailbox` contents: the engine and
/// the network-model Delivery adapters.
const SEAM_OWNERS: &[&str] = &["aba-sim", "aba-net"];

/// Files that write replay-grade artifacts; fixed-precision float
/// formatting is flagged here (shortest-roundtrip `{}` is the rule).
const ARTIFACT_PATHS: &[&str] = &[
    "crates/sweep/src/artifact.rs",
    "crates/sweep/src/checkpoint.rs",
    "crates/harness/src/report.rs",
    "crates/analysis/src/table.rs",
    "crates/analysis/src/plot.rs",
];

/// The stream-ledger file itself (exempt from raw-derivation checks —
/// it is the one place allowed to touch seeds directly).
const LEDGER_FILE: &str = "crates/sim/src/rng.rs";

/// The registered wall-clock files: the observability **timing
/// channel**. These are the only library files allowed to read the
/// clock — scoping lives here, in the rule, so the files themselves
/// need no blanket `#[allow]`s and adding a new wall-clock site
/// anywhere else still fails the lint.
const TIMING_PATHS: &[&str] = &["crates/obs/src/timing.rs", "crates/sweep/src/profiling.rs"];

/// Everything a rule needs to know about one file.
pub struct FileCtx<'a> {
    /// Workspace-relative path.
    pub rel: &'a str,
    /// Owning package.
    pub crate_name: &'a str,
    /// File role.
    pub kind: FileKind,
    /// Source text.
    pub src: &'a str,
    /// Significant (non-trivia) tokens, in order.
    pub sig: Vec<&'a Token>,
    /// `#[cfg(test)]` coverage.
    pub tests: &'a TestRegions,
}

impl<'a> FileCtx<'a> {
    /// Builds a context from a full token stream.
    pub fn new(
        rel: &'a str,
        crate_name: &'a str,
        kind: FileKind,
        src: &'a str,
        tokens: &'a [Token],
        tests: &'a TestRegions,
    ) -> Self {
        FileCtx {
            rel,
            crate_name,
            kind,
            src,
            sig: tokens.iter().filter(|t| !t.kind.is_trivia()).collect(),
            tests,
        }
    }

    fn text(&self, i: usize) -> &'a str {
        self.sig[i].text(self.src)
    }

    /// Library (or bin) code that is not test-gated: the code whose
    /// behavior reaches results.
    fn is_runtime(&self, line: u32) -> bool {
        matches!(self.kind, FileKind::Lib | FileKind::Bin) && !self.tests.contains(line)
    }

    fn is_artifact_path(&self) -> bool {
        ARTIFACT_PATHS.contains(&self.rel) || self.rel.contains("tests/fixtures/")
    }

    /// Fixture files opt into every scope so each rule can be pinned.
    fn is_fixture(&self) -> bool {
        self.crate_name == "aba-fixture"
    }
}

/// Runs rules 1–5, appending raw (unsuppressed) findings.
pub fn run_all(ctx: &FileCtx, registry: Option<&Registry>, out: &mut Vec<Diagnostic>) {
    hash_nondeterminism(ctx, out);
    wall_clock(ctx, out);
    rng_stream_ledger(ctx, registry, out);
    float_determinism(ctx, out);
    seam_bypass(ctx, out);
}

/// Rule 1: `HashMap`/`HashSet` (and friends keyed by `RandomState`)
/// iterate in a per-process order; one such iteration on a
/// result-affecting path silently breaks cross-process replay.
/// Applies everywhere except the timing crate — test assertions that
/// genuinely only use membership carry an annotation saying so.
fn hash_nondeterminism(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    if ctx.crate_name == "aba-bench" || ctx.kind == FileKind::Bench {
        return;
    }
    for (i, t) in ctx.sig.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let name = ctx.text(i);
        if matches!(
            name,
            "HashMap" | "HashSet" | "RandomState" | "DefaultHasher"
        ) {
            out.push(Diagnostic::new(
                ctx.rel,
                t.line,
                "hash-nondeterminism",
                format!(
                    "`{name}` has process-nondeterministic iteration order; use BTreeMap/BTreeSet/Vec, or annotate why ordering cannot reach results"
                ),
            ));
        }
    }
}

/// Rule 2: no wall-clock or environment reads in engine-grade library
/// code — a trial's outcome must be a pure function of (config, seed).
/// Bins, benches, examples, and tests are harness territory, and the
/// registered [`TIMING_PATHS`] carry the observability timing channel.
fn wall_clock(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    if ctx.kind != FileKind::Lib || ctx.crate_name == "aba-bench" || TIMING_PATHS.contains(&ctx.rel)
    {
        return;
    }
    for (i, t) in ctx.sig.iter().enumerate() {
        if t.kind != TokenKind::Ident || !ctx.is_runtime(t.line) {
            continue;
        }
        let name = ctx.text(i);
        let hit = match name {
            "Instant" | "SystemTime" => true,
            "sleep" => true,
            "env" => {
                i >= 3
                    && ctx.text(i - 1) == ":"
                    && ctx.text(i - 2) == ":"
                    && ctx.text(i - 3) == "std"
            }
            _ => false,
        };
        if hit {
            out.push(Diagnostic::new(
                ctx.rel,
                t.line,
                "wall-clock-in-sim",
                format!(
                    "`{name}` reads the clock/environment in library code; engine results must be a pure function of (config, seed)"
                ),
            ));
        }
    }
}

/// Rule 3: RNG streams come from the single declared ledger
/// (`aba-sim::rng::streams`). Unregistered `streams::X` references,
/// raw `seed_from_u64`/`derive_seed` calls outside the ledger file, and
/// numeric-literal stream arguments to `rng_for` all bypass the ledger.
fn rng_stream_ledger(ctx: &FileCtx, registry: Option<&Registry>, out: &mut Vec<Diagnostic>) {
    // Check A: every streams::X reference must be registered.
    if let Some(reg) = registry {
        for (i, t) in ctx.sig.iter().enumerate() {
            if t.kind == TokenKind::Ident
                && ctx.text(i) == "streams"
                && i + 3 < ctx.sig.len()
                && ctx.text(i + 1) == ":"
                && ctx.text(i + 2) == ":"
                && ctx.sig[i + 3].kind == TokenKind::Ident
            {
                let name = ctx.text(i + 3);
                if !reg.contains(name) {
                    out.push(Diagnostic::new(
                        ctx.rel,
                        t.line,
                        "rng-stream-ledger",
                        format!(
                            "stream `{name}` is not declared in the ledger (crates/sim/src/rng.rs, mod streams)"
                        ),
                    ));
                }
            }
        }
    }
    // Check B/C: raw seeding in runtime code outside the ledger file.
    let exempt = ctx.rel == LEDGER_FILE
        || (ctx.crate_name == "rand" && !ctx.is_fixture())
        || ctx.crate_name == "aba-bench"
        || ctx.crate_name == "aba-lint";
    if !exempt {
        for (i, t) in ctx.sig.iter().enumerate() {
            if t.kind != TokenKind::Ident || !ctx.is_runtime(t.line) {
                continue;
            }
            let name = ctx.text(i);
            if name == "seed_from_u64" {
                out.push(Diagnostic::new(
                    ctx.rel,
                    t.line,
                    "rng-stream-ledger",
                    "raw RNG construction bypasses the stream ledger; derive through aba_sim::rng::rng_for / node_rng",
                ));
            } else if name == "derive_seed" {
                out.push(Diagnostic::new(
                    ctx.rel,
                    t.line,
                    "rng-stream-ledger",
                    "raw seed derivation outside the ledger file; register a named stream instead of ad-hoc seed arithmetic",
                ));
            }
        }
    }
    // Check D: the stream argument of rng_for must be a named constant.
    for (i, t) in ctx.sig.iter().enumerate() {
        if t.kind == TokenKind::Ident
            && ctx.text(i) == "rng_for"
            && i + 1 < ctx.sig.len()
            && ctx.text(i + 1) == "("
        {
            let mut depth = 0i32;
            let mut k = i + 1;
            while k < ctx.sig.len() {
                match ctx.text(k) {
                    "(" | "[" => depth += 1,
                    ")" | "]" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    "," if depth == 1 => {
                        if ctx
                            .sig
                            .get(k + 1)
                            .is_some_and(|n| n.kind == TokenKind::NumLit)
                        {
                            out.push(Diagnostic::new(
                                ctx.rel,
                                t.line,
                                "rng-stream-ledger",
                                "rng_for stream argument must be a named streams:: constant, not a raw number (two call sites sharing a literal is a silent stream collision)",
                            ));
                        }
                        break;
                    }
                    _ => {}
                }
                k += 1;
            }
        }
    }
}

/// Rule 4: float determinism — `total_cmp` for ordering, f64 on
/// accumulation paths, shortest-roundtrip formatting in artifact
/// writers.
fn float_determinism(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    if ctx.crate_name == "aba-bench" || ctx.kind == FileKind::Bench {
        return;
    }
    for (i, t) in ctx.sig.iter().enumerate() {
        if t.kind == TokenKind::Ident && ctx.text(i) == "partial_cmp" {
            out.push(Diagnostic::new(
                ctx.rel,
                t.line,
                "float-determinism",
                "`partial_cmp` is not a total order on floats; sort keys must use f64::total_cmp",
            ));
        }
        if t.kind == TokenKind::Ident
            && ctx.text(i) == "as"
            && ctx.sig.get(i + 1).is_some_and(|n| n.text(ctx.src) == "f32")
            && ctx.is_runtime(t.line)
        {
            out.push(Diagnostic::new(
                ctx.rel,
                t.line,
                "float-determinism",
                "narrowing `as f32` cast on a library path; accumulate and report in f64 (annotate if the narrowing is intentional)",
            ));
        }
    }
    if ctx.is_artifact_path() {
        for (i, t) in ctx.sig.iter().enumerate() {
            if matches!(t.kind, TokenKind::StrLit | TokenKind::RawStrLit)
                && ctx.is_runtime(t.line)
                && has_precision_spec(ctx.text(i))
            {
                out.push(Diagnostic::new(
                    ctx.rel,
                    t.line,
                    "float-determinism",
                    "fixed-precision float formatting on an artifact-writing path loses roundtrip; use shortest-roundtrip `{}` (annotate human-facing exceptions)",
                ));
            }
        }
    }
}

/// Whether a format-string literal contains a `{…:…\.N…}` precision
/// spec (e.g. `{x:.3}`, `{:>10.3}`).
fn has_precision_spec(lit: &str) -> bool {
    let b = lit.as_bytes();
    let mut i = 0usize;
    while i < b.len() {
        if b[i] != b'{' {
            i += 1;
            continue;
        }
        if b.get(i + 1) == Some(&b'{') {
            i += 2;
            continue;
        }
        let close = match b[i..].iter().position(|&c| c == b'}') {
            Some(off) => i + off,
            None => return false,
        };
        let spec = &lit[i + 1..close];
        if let Some(colon) = spec.find(':') {
            let fmt = &spec.as_bytes()[colon + 1..];
            for (j, &c) in fmt.iter().enumerate() {
                if c == b'.' && fmt.get(j + 1).is_some_and(|n| n.is_ascii_alphanumeric()) {
                    return true;
                }
            }
        }
        i = close + 1;
    }
    false
}

/// Rule 5: only the engine (`aba-sim`) and the network Delivery
/// adapters (`aba-net`) may place or remove messages; protocol,
/// adversary, and analysis code observing the mailbox must stay
/// read-only, or replay recordings diverge from live runs.
///
/// All three message planes are covered: the mutator names are shared
/// through the `MessagePlane` trait, and constructing any plane
/// (`RoundMailbox`, the bit-packed `PackedMailbox`, or the
/// adjacency-list `SparseMailbox`) outside the seam owners is itself a
/// finding.
///
/// The provenance seam is held to the same rule: the engine alone
/// records arrivals into the `ArrivalScan` it hands probes, so
/// constructing one or calling its recording mutators outside the seam
/// owners fires — a hand-built scan would let analysis code fabricate
/// causal history the replay differential can never check.
fn seam_bypass(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    if SEAM_OWNERS.contains(&ctx.crate_name) {
        return;
    }
    const MUTATORS: &[&str] = &[
        "set_broadcast_except",
        "merge_broadcast_except",
        "knock_out",
        "take_broadcast",
        "insert_if_vacant",
        "insert_if_vacant_with",
        "insert_group_if_vacant",
        "silence",
    ];
    /// `ArrivalScan` recording mutators (the read-side getters are fair
    /// game everywhere — that is what the probe seam is for).
    const ARRIVAL_MUTATORS: &[&str] = &[
        "mark_base",
        "mark_knocked",
        "or_knocked_word",
        "mark_extra",
        "or_extra_word",
        "add_sent",
        "add_recv",
        "finish_base_recv",
        "set_corrupted",
        "tally_offered",
        "scan_arrivals",
    ];
    for (i, t) in ctx.sig.iter().enumerate() {
        if t.kind != TokenKind::Ident || !ctx.is_runtime(t.line) {
            continue;
        }
        let name = ctx.text(i);
        let constructed = matches!(
            name,
            "RoundMailbox" | "PackedMailbox" | "SparseMailbox" | "ArrivalScan"
        ) && i + 3 < ctx.sig.len()
            && ctx.text(i + 1) == ":"
            && ctx.text(i + 2) == ":"
            && matches!(ctx.text(i + 3), "new" | "default");
        let hit = constructed
            || MUTATORS.contains(&name)
            || ARRIVAL_MUTATORS.contains(&name)
            || (name == "set"
                && i >= 1
                && ctx.text(i - 1) == "."
                && ctx.sig.get(i + 1).is_some_and(|n| n.text(ctx.src) == "("));
        if hit {
            let what = if ARRIVAL_MUTATORS.contains(&name) || name == "ArrivalScan" {
                "records/constructs the arrival scan"
            } else {
                "mutates/constructs the round mailbox"
            };
            out.push(Diagnostic::new(
                ctx.rel,
                t.line,
                "seam-bypass",
                format!(
                    "`{name}` {what} outside aba-sim/aba-net; message placement and arrival recording must go through the engine seams"
                ),
            ));
        }
    }
}

/// Rule 6 (inventory half): panic sites in runtime library code.
/// The engine compares each file's count against the pinned budget.
pub fn panic_sites(ctx: &FileCtx) -> Vec<u32> {
    let mut sites = Vec::new();
    if !matches!(ctx.kind, FileKind::Lib | FileKind::Bin) {
        return sites;
    }
    for (i, t) in ctx.sig.iter().enumerate() {
        if t.kind != TokenKind::Ident || !ctx.is_runtime(t.line) {
            continue;
        }
        let name = ctx.text(i);
        let next = ctx.sig.get(i + 1).map(|n| n.text(ctx.src));
        let is_call = matches!(name, "unwrap" | "expect") && next == Some("(");
        let is_macro =
            matches!(name, "panic" | "unreachable" | "todo" | "unimplemented") && next == Some("!");
        if is_call || is_macro {
            sites.push(t.line);
        }
    }
    sites
}
