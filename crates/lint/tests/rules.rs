//! Every rule is proven live: it fires on its bad fixture, a
//! well-formed reasoned annotation silences it, and malformed or stale
//! annotations are themselves diagnostics.

use aba_lint::registry::{self, Registry};
use aba_lint::{lint_single, Diagnostic, FileKind};
use std::path::Path;

fn fixture(name: &str) -> String {
    let p = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("reading {}: {e}", p.display()))
}

/// The real stream ledger, so fixture `streams::X` references are
/// checked against the same registry CI uses.
fn ledger() -> Registry {
    let p = Path::new(env!("CARGO_MANIFEST_DIR")).join("../sim/src/rng.rs");
    let src = std::fs::read_to_string(&p).expect("ledger file readable");
    registry::extract(&src).expect("ledger parses")
}

fn lint_fixture(name: &str) -> Vec<Diagnostic> {
    let reg = ledger();
    lint_single(
        &format!("crates/lint/tests/fixtures/{name}"),
        &fixture(name),
        "aba-fixture",
        FileKind::Lib,
        Some(&reg),
    )
}

fn rules_of(diags: &[Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.rule).collect()
}

/// Each rule fires on its fixture, and ONLY that rule fires — fixtures
/// stay minimal enough to pin scope.
#[test]
fn every_rule_fires_on_its_fixture() {
    for rule in [
        "hash-nondeterminism",
        "wall-clock-in-sim",
        "rng-stream-ledger",
        "float-determinism",
        "seam-bypass",
        "panic-hygiene",
    ] {
        let name = format!("{}_fires.rs", rule.replace('-', "_"));
        let diags = lint_fixture(&name);
        assert!(
            !diags.is_empty(),
            "{rule}: fixture {name} produced no findings"
        );
        assert!(
            diags.iter().all(|d| d.rule == rule),
            "{rule}: unexpected extra rules in {name}: {:?}",
            rules_of(&diags)
        );
    }
}

/// A reasoned allow silences each rule completely — no residual
/// findings, no unused-suppression noise.
#[test]
fn reasoned_allow_silences_each_rule() {
    for rule in [
        "hash-nondeterminism",
        "wall-clock-in-sim",
        "rng-stream-ledger",
        "float-determinism",
        "seam-bypass",
        "panic-hygiene",
    ] {
        let name = format!("{}_suppressed.rs", rule.replace('-', "_"));
        let diags = lint_fixture(&name);
        assert!(
            diags.is_empty(),
            "{rule}: suppressed fixture {name} still reports {:?}",
            rules_of(&diags)
        );
    }
}

/// The packed message plane is held to the same seam rule as the dense
/// one: constructing a `PackedMailbox` or calling its mutators outside
/// aba-sim/aba-net fires, and nothing else does.
#[test]
fn seam_bypass_covers_the_packed_plane() {
    let diags = lint_fixture("seam_bypass_packed_fires.rs");
    assert!(
        diags.iter().any(|d| d.msg.contains("PackedMailbox")),
        "packed construction not reported: {diags:?}"
    );
    assert!(
        diags.iter().any(|d| d.msg.contains("set_broadcast_except"))
            && diags.iter().any(|d| d.msg.contains("take_broadcast")),
        "packed mutators not reported: {diags:?}"
    );
    assert!(
        diags.iter().all(|d| d.rule == "seam-bypass"),
        "unexpected extra rules: {:?}",
        rules_of(&diags)
    );
}

/// The adjacency-list sparse plane is held to the same seam rule as
/// the dense and packed ones: constructing a `SparseMailbox` or calling
/// its mutators outside aba-sim/aba-net fires, and nothing else does.
#[test]
fn seam_bypass_covers_the_sparse_plane() {
    let diags = lint_fixture("seam_bypass_sparse_fires.rs");
    assert!(
        diags.iter().any(|d| d.msg.contains("SparseMailbox")),
        "sparse construction not reported: {diags:?}"
    );
    assert!(
        diags
            .iter()
            .any(|d| d.msg.contains("merge_broadcast_except"))
            && diags.iter().any(|d| d.msg.contains("insert_if_vacant")),
        "sparse mutators not reported: {diags:?}"
    );
    assert!(
        diags.iter().all(|d| d.rule == "seam-bypass"),
        "unexpected extra rules: {:?}",
        rules_of(&diags)
    );
}

/// The flight queue's group install is a plane mutator like any other:
/// calling it outside aba-sim/aba-net fires.
#[test]
fn seam_bypass_covers_the_group_install() {
    let diags = lint_fixture("seam_bypass_fires.rs");
    assert!(
        diags
            .iter()
            .any(|d| d.rule == "seam-bypass" && d.msg.contains("insert_group_if_vacant")),
        "group install not reported: {diags:?}"
    );
}

/// The provenance seam is held to the same rule as the message planes:
/// constructing an `ArrivalScan` or calling its recording mutators
/// outside aba-sim/aba-net fires, and nothing else does.
#[test]
fn seam_bypass_covers_the_arrival_scan() {
    let diags = lint_fixture("seam_bypass_arrivals_fires.rs");
    assert!(
        diags.iter().any(|d| d.msg.contains("ArrivalScan")),
        "arrival-scan construction not reported: {diags:?}"
    );
    for mutator in ["mark_base", "add_sent", "set_corrupted"] {
        assert!(
            diags.iter().any(|d| d.msg.contains(mutator)),
            "arrival mutator `{mutator}` not reported: {diags:?}"
        );
    }
    assert!(
        diags.iter().all(|d| d.rule == "seam-bypass"),
        "unexpected extra rules: {:?}",
        rules_of(&diags)
    );
}

/// The rng fixture exercises both ledger checks: raw construction and
/// an undeclared stream reference.
#[test]
fn rng_fixture_catches_undeclared_stream() {
    let diags = lint_fixture("rng_stream_ledger_fires.rs");
    assert!(
        diags.iter().any(|d| d.msg.contains("SIDE_CHANNEL")),
        "undeclared stream not reported: {diags:?}"
    );
    assert!(
        diags.iter().any(|d| d.msg.contains("raw RNG construction")),
        "raw seeding not reported: {diags:?}"
    );
}

/// An allow without a reason is rejected, and the finding it meant to
/// cover still fires.
#[test]
fn allow_without_reason_is_a_diagnostic() {
    let diags = lint_fixture("suppression_missing_reason.rs");
    assert!(
        diags.iter().any(|d| d.rule == "bad-suppression"),
        "missing-reason allow not flagged: {diags:?}"
    );
    assert!(
        diags.iter().any(|d| d.rule == "hash-nondeterminism"),
        "malformed allow must not suppress: {diags:?}"
    );
}

/// An allow that matches nothing is reported as stale.
#[test]
fn stale_allow_is_a_diagnostic() {
    let diags = lint_fixture("suppression_unused.rs");
    assert_eq!(rules_of(&diags), vec!["unused-suppression"], "{diags:?}");
}

/// Without a registry (ledger unavailable), the stream-reference check
/// degrades gracefully; the raw-seeding checks still run.
#[test]
fn missing_registry_degrades_gracefully() {
    let diags = lint_single(
        "crates/lint/tests/fixtures/rng_stream_ledger_fires.rs",
        &fixture("rng_stream_ledger_fires.rs"),
        "aba-fixture",
        FileKind::Lib,
        None,
    );
    assert!(diags.iter().all(|d| d.rule == "rng-stream-ledger"));
    assert!(diags.iter().any(|d| d.msg.contains("raw RNG construction")));
    assert!(!diags.iter().any(|d| d.msg.contains("SIDE_CHANNEL")));
}
