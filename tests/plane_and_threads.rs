//! The two new execution axes — in-round thread count and message
//! plane — must be *invisible* in every deterministic artifact.
//!
//! Thread invariance: the sharded in-round step partitions nodes into
//! fixed ID ranges and merges emissions, metrics, and probe tallies in
//! ID order, so `TrialResult`s, oracle verdicts, rendered event logs,
//! and metrics registries are byte-identical at any thread count. These
//! tests pin threads = 1 against threads = 4 on the same six scenarios
//! as `tests/trace_replay.rs` / `tests/obs_determinism.rs`.
//!
//! Plane equivalence: every entry point honours `Scenario::plane`
//! through one (protocol family × plane) table — the committee family
//! runs on dense or packed, the sampled family on dense or sparse, the
//! coin and Phase-King on dense. A routed plane must reproduce the
//! dense run exactly: the `TrialResult` (same verdicts, same
//! round/message/bit accounting), and for the checked, observed,
//! replayed and provenance-traced entry points the oracle report, the
//! rendered event log and metrics, and the provenance summary, DOT and
//! line-JSON, byte for byte. A protocol asked for a plane its family
//! does not use stays dense, so the switch is safe to set
//! campaign-wide.

use adaptive_ba::harness::{
    check_scenario, replay_scenario, run_scenario, run_scenario_with_probe,
};
use adaptive_ba::obs::EventProbe;
use adaptive_ba::{
    observe_replay, observe_scenario, provenance_replay, provenance_scenario, AttackSpec,
    CampaignSpec, DelayScheduler, InputSpec, NetworkSpec, PlaneSpec, ProtocolSpec, RoundCap,
    RunOptions, Scenario, ScenarioBuilder, StopRule,
};

/// The six pinned scenarios (lockstep with `tests/trace_replay.rs` and
/// `tests/obs_determinism.rs`).
fn pinned() -> Vec<(&'static str, ScenarioBuilder)> {
    vec![
        (
            "paper-lv × full-attack × sync",
            ScenarioBuilder::new(16, 5)
                .protocol(ProtocolSpec::PaperLasVegas { alpha: 2.0 })
                .adversary(AttackSpec::FullAttack)
                .seed(42),
        ),
        (
            "chor-coan × split-vote × lossy",
            ScenarioBuilder::new(16, 5)
                .protocol(ProtocolSpec::ChorCoan { beta: 1.0 })
                .adversary(AttackSpec::SplitVote)
                .network(NetworkSpec::LossyLinks { p_drop: 0.15 })
                .max_rounds(300)
                .seed(7),
        ),
        (
            "phase-king × static-mirror × bounded-delay",
            ScenarioBuilder::new(13, 4)
                .protocol(ProtocolSpec::PhaseKing)
                .adversary(AttackSpec::StaticMirror)
                .network(NetworkSpec::BoundedDelay {
                    max_delay: 2,
                    scheduler: DelayScheduler::Random,
                })
                .max_rounds(200)
                .seed(3),
        ),
        (
            "paper × crash × bounded-delay-adv",
            ScenarioBuilder::new(16, 5)
                .protocol(ProtocolSpec::Paper { alpha: 2.0 })
                .adversary(AttackSpec::Crash { per_round: 1 })
                .network(NetworkSpec::BoundedDelay {
                    max_delay: 3,
                    scheduler: DelayScheduler::DelayHonest,
                })
                .max_rounds(300)
                .seed(11),
        ),
        (
            "common-coin × coin-killer × partition",
            ScenarioBuilder::new(24, 6)
                .protocol(ProtocolSpec::CommonCoin)
                .adversary(AttackSpec::CoinKiller)
                .network(NetworkSpec::Partition {
                    groups: 2,
                    heal_round: 3,
                })
                .max_rounds(100)
                .seed(19),
        ),
        (
            "sampling-majority × poison × lossy",
            ScenarioBuilder::new(32, 2)
                .protocol(ProtocolSpec::SamplingMajority { iters: 0 })
                .adversary(AttackSpec::SamplingPoison)
                .inputs(InputSpec::Random)
                .network(NetworkSpec::LossyLinks { p_drop: 0.05 })
                .max_rounds(4_000)
                .seed(23),
        ),
    ]
}

#[test]
fn trial_results_are_thread_invariant() {
    for (label, builder) in pinned() {
        let serial = builder.clone().threads(1).run();
        let sharded = builder.clone().threads(4).run();
        assert_eq!(serial, sharded, "{label}: result depends on thread count");
    }
}

#[test]
fn oracle_verdicts_are_thread_invariant() {
    for (label, builder) in pinned() {
        let serial = check_scenario(builder.clone().threads(1).scenario());
        let sharded = check_scenario(builder.clone().threads(4).scenario());
        assert_eq!(
            serial.result, sharded.result,
            "{label}: checked result depends on thread count"
        );
        assert_eq!(
            serial.oracle, sharded.oracle,
            "{label}: oracle report depends on thread count"
        );
    }
}

#[test]
fn obs_artifacts_are_thread_invariant() {
    for (label, builder) in pinned() {
        let serial = observe_scenario(builder.clone().threads(1).scenario());
        let sharded = observe_scenario(builder.clone().threads(4).scenario());
        assert_eq!(serial.result, sharded.result, "{label}: observed result");
        assert_eq!(
            serial.events.render(),
            sharded.events.render(),
            "{label}: event log bytes depend on thread count"
        );
        assert_eq!(
            serial.metrics.render(),
            sharded.metrics.render(),
            "{label}: metrics bytes depend on thread count"
        );
    }
}

#[test]
fn replay_stays_faithful_under_sharding() {
    for (label, builder) in pinned() {
        let o = observe_replay(builder.clone().threads(4).scenario());
        assert_eq!(o.live, o.replayed, "{label}: sharded replay diverged");
        assert!(o.is_faithful(), "{label}: sharded replay not faithful");
        assert!(
            o.channels_match(),
            "{label}: sharded observability channels diverged"
        );
    }
}

/// The committee-family subset of the pinned scenarios — the ones the
/// packed plane actually routes (the coin, sampling, and Phase-King
/// entries have no `BaMsg` codec and stay dense by construction).
fn committee_pinned() -> Vec<(&'static str, ScenarioBuilder)> {
    pinned()
        .into_iter()
        .filter(|(label, _)| label.starts_with("paper") || label.starts_with("chor-coan"))
        .collect()
}

#[test]
fn packed_plane_reproduces_dense_trial_results() {
    for (label, builder) in committee_pinned() {
        let dense = builder.clone().plane(PlaneSpec::Dense).run();
        let packed = builder.clone().plane(PlaneSpec::Packed).run();
        assert_eq!(dense, packed, "{label}: packed plane diverged from dense");
    }
}

#[test]
fn packed_plane_is_thread_invariant() {
    for (label, builder) in committee_pinned() {
        let serial = builder.clone().plane(PlaneSpec::Packed).threads(1).run();
        let sharded = builder.clone().plane(PlaneSpec::Packed).threads(4).run();
        assert_eq!(
            serial, sharded,
            "{label}: packed result depends on thread count"
        );
    }
}

#[test]
fn packed_request_on_non_committee_protocols_stays_dense() {
    for (label, builder) in pinned() {
        if committee_pinned().iter().any(|(l, _)| *l == label) {
            continue;
        }
        let dense = builder.clone().run();
        let packed = builder.clone().plane(PlaneSpec::Packed).run();
        assert_eq!(dense, packed, "{label}: packed fallback changed the run");
    }
}

/// The sampled-family scenarios the sparse plane routes (sampling
/// majority and King–Saia; everything else falls back dense).
fn sampled_pinned() -> Vec<(&'static str, ScenarioBuilder)> {
    vec![
        (
            "sampling-majority × poison × sync",
            ScenarioBuilder::new(32, 2)
                .protocol(ProtocolSpec::SamplingMajority { iters: 8 })
                .adversary(AttackSpec::SamplingPoison)
                .inputs(InputSpec::Random)
                .max_rounds(2_000)
                .seed(29),
        ),
        (
            "king-saia × crash × sync",
            ScenarioBuilder::new(25, 6)
                .protocol(ProtocolSpec::KingSaia { iters: 0 })
                .adversary(AttackSpec::Crash { per_round: 1 })
                .inputs(InputSpec::Random)
                .max_rounds(2_000)
                .seed(31),
        ),
        (
            "king-saia × full-attack-capped × lossy",
            ScenarioBuilder::new(16, 5)
                .protocol(ProtocolSpec::KingSaia { iters: 12 })
                .adversary(AttackSpec::FullAttackCapped { q: 2 })
                .network(NetworkSpec::LossyLinks { p_drop: 0.1 })
                .max_rounds(2_000)
                .seed(37),
        ),
        (
            // Delayed traffic drains from the flight queue into rows
            // installed earlier in the round: the out-of-order edits the
            // sparse arena must relocate.
            "king-saia × full-attack-capped × bounded-delay",
            ScenarioBuilder::new(16, 5)
                .protocol(ProtocolSpec::KingSaia { iters: 12 })
                .adversary(AttackSpec::FullAttackCapped { q: 2 })
                .network(NetworkSpec::BoundedDelay {
                    max_delay: 2,
                    scheduler: DelayScheduler::Random,
                })
                .max_rounds(2_000)
                .seed(41),
        ),
    ]
}

#[test]
fn sparse_plane_reproduces_dense_trial_results() {
    for (label, builder) in sampled_pinned() {
        let dense = builder.clone().plane(PlaneSpec::Dense).run();
        let sparse = builder.clone().plane(PlaneSpec::Sparse).run();
        assert_eq!(dense, sparse, "{label}: sparse plane diverged from dense");
    }
}

#[test]
fn sparse_plane_is_thread_invariant() {
    for (label, builder) in sampled_pinned() {
        let serial = builder.clone().plane(PlaneSpec::Sparse).threads(1).run();
        let sharded = builder.clone().plane(PlaneSpec::Sparse).threads(4).run();
        assert_eq!(
            serial, sharded,
            "{label}: sparse result depends on thread count"
        );
    }
}

#[test]
fn sparse_live_matches_recorded_replay() {
    // The dense scenario's record/replay differential; the sparse
    // plane must produce exactly the trial its replay re-derives.
    for (label, builder) in sampled_pinned() {
        let sparse_live = builder.clone().plane(PlaneSpec::Sparse).run();
        let b = builder.clone();
        let replay = replay_scenario(b.scenario());
        assert!(replay.is_faithful(), "{label}: replay not faithful");
        assert_eq!(
            sparse_live, replay.replayed,
            "{label}: sparse live run diverged from the recorded replay"
        );
    }
}

#[test]
fn sparse_request_on_non_sampled_protocols_stays_dense() {
    for (label, builder) in pinned() {
        if label.starts_with("sampling") {
            continue; // routed for real, covered above
        }
        let dense = builder.clone().run();
        let sparse = builder.clone().plane(PlaneSpec::Sparse).run();
        assert_eq!(dense, sparse, "{label}: sparse fallback changed the run");
    }
}

#[test]
fn sparse_campaign_artifacts_are_worker_invariant() {
    let spec = CampaignSpec::new("sparse-worker-invariance")
        .sizes(&[(32, 2), (64, 4)])
        .protocols(&[
            ProtocolSpec::SamplingMajority { iters: 8 },
            ProtocolSpec::KingSaia { iters: 8 },
        ])
        .attacks(&[
            AttackSpec::Crash { per_round: 1 },
            AttackSpec::SamplingPoison,
        ])
        .round_cap(RoundCap::Fixed(300))
        .stop(StopRule::fixed(2))
        .oracles(true)
        .plane(PlaneSpec::Sparse)
        .seed(17);
    let serial = spec.run_with(&RunOptions {
        workers: 1,
        ..RunOptions::default()
    });
    let parallel = spec.run_with(&RunOptions {
        workers: 4,
        ..RunOptions::default()
    });
    assert_eq!(serial, parallel);
    assert_eq!(serial.to_json(), parallel.to_json());
    assert_eq!(serial.to_csv(), parallel.to_csv());
}

#[test]
fn packed_plane_covers_every_committee_attack() {
    // Sweep the whole attack axis on one committee configuration: a
    // plane switch must never change which adversary runs or what it
    // does. (CoinKiller degrades to the full attack on both planes.)
    for attack in [
        AttackSpec::Benign,
        AttackSpec::StaticSilent,
        AttackSpec::StaticMirror,
        AttackSpec::Crash { per_round: 1 },
        AttackSpec::SplitVote,
        AttackSpec::FullAttack,
        AttackSpec::FullAttackFrugal,
        AttackSpec::FullAttackCapped { q: 2 },
        AttackSpec::CoinKiller,
    ] {
        let base = ScenarioBuilder::new(16, 5)
            .protocol(ProtocolSpec::PaperLasVegas { alpha: 2.0 })
            .adversary(attack)
            .max_rounds(300)
            .seed(91);
        let dense = base.clone().run();
        let packed = base.clone().plane(PlaneSpec::Packed).run();
        assert_eq!(dense, packed, "{attack:?}: packed plane diverged");
    }
}

/// Runs the six non-plain entry points on `dense` and on `other` (the
/// same scenario on another plane) and asserts byte-identical output.
fn assert_entry_points_match(label: &str, dense: &Scenario, other: &Scenario) {
    let (a, b) = (check_scenario(dense), check_scenario(other));
    assert_eq!(a.result, b.result, "{label}: check result");
    assert_eq!(a.oracle, b.oracle, "{label}: check oracle report");

    let (a, b) = (observe_scenario(dense), observe_scenario(other));
    assert_eq!(a.result, b.result, "{label}: observe result");
    assert_eq!(a.oracle, b.oracle, "{label}: observe oracle report");
    assert_eq!(a.events.render(), b.events.render(), "{label}: event log");
    assert_eq!(a.metrics.render(), b.metrics.render(), "{label}: metrics");

    let (a, b) = (replay_scenario(dense), replay_scenario(other));
    assert_eq!(a, b, "{label}: replay outcome");
    assert!(b.is_faithful(), "{label}: replay not faithful");

    let (a, b) = (observe_replay(dense), observe_replay(other));
    assert_eq!(a.live, b.live, "{label}: observe_replay live");
    assert_eq!(a.replayed, b.replayed, "{label}: observe_replay replayed");
    for (x, y, side) in [
        (&a.live_events, &b.live_events, "live"),
        (&a.replayed_events, &b.replayed_events, "replayed"),
    ] {
        assert_eq!(x.render(), y.render(), "{label}: {side} event log");
    }
    for (x, y, side) in [
        (&a.live_metrics, &b.live_metrics, "live"),
        (&a.replayed_metrics, &b.replayed_metrics, "replayed"),
    ] {
        assert_eq!(x.render(), y.render(), "{label}: {side} metrics");
    }
    assert!(b.channels_match(), "{label}: replay channels diverged");

    let (a, b) = (provenance_scenario(dense), provenance_scenario(other));
    assert_eq!(a.result, b.result, "{label}: provenance result");
    assert_eq!(a.oracle, b.oracle, "{label}: provenance oracle report");
    assert_eq!(
        a.events.render(),
        b.events.render(),
        "{label}: provenance events"
    );
    assert_eq!(
        a.metrics.render(),
        b.metrics.render(),
        "{label}: provenance metrics"
    );
    assert_eq!(a.summary(), b.summary(), "{label}: provenance summary");
    assert_eq!(a.dot_graph(), b.dot_graph(), "{label}: provenance DOT");
    assert_eq!(
        a.jsonl_graph(),
        b.jsonl_graph(),
        "{label}: provenance line-JSON"
    );

    let (a, b) = (provenance_replay(dense), provenance_replay(other));
    assert_eq!(a.live, b.live, "{label}: provenance_replay live");
    assert_eq!(
        a.replayed, b.replayed,
        "{label}: provenance_replay replayed"
    );
    for (x, y, side) in [
        (&a.live_provenance, &b.live_provenance, "live"),
        (&a.replayed_provenance, &b.replayed_provenance, "replayed"),
    ] {
        assert_eq!(x.summary(), y.summary(), "{label}: {side} summary");
        assert_eq!(x.dot_graph(), y.dot_graph(), "{label}: {side} DOT");
        assert_eq!(
            x.jsonl_graph(),
            y.jsonl_graph(),
            "{label}: {side} line-JSON"
        );
    }
    assert!(b.artifacts_match(), "{label}: replay provenance diverged");
}

#[test]
fn packed_plane_artifacts_match_dense() {
    for (label, builder) in committee_pinned() {
        let dense = builder.clone().plane(PlaneSpec::Dense);
        let packed = builder.clone().plane(PlaneSpec::Packed);
        assert_entry_points_match(label, dense.scenario(), packed.scenario());
    }
}

#[test]
fn sparse_plane_artifacts_match_dense() {
    for (label, builder) in sampled_pinned() {
        let dense = builder.clone().plane(PlaneSpec::Dense);
        let sparse = builder.clone().plane(PlaneSpec::Sparse);
        assert_entry_points_match(label, dense.scenario(), sparse.scenario());
    }
}

#[test]
fn probed_runs_match_plain_runs_on_every_plane() {
    let routed = committee_pinned()
        .into_iter()
        .map(|(label, b)| (label, b, PlaneSpec::Packed))
        .chain(
            sampled_pinned()
                .into_iter()
                .map(|(label, b)| (label, b, PlaneSpec::Sparse)),
        );
    for (label, builder, routed_plane) in routed {
        for plane in [PlaneSpec::Dense, routed_plane] {
            let b = builder.clone().plane(plane);
            let (result, probe) = run_scenario_with_probe(b.scenario(), EventProbe::new());
            assert_eq!(
                result,
                run_scenario(b.scenario()),
                "{label} on {}: probed run diverged",
                plane.name()
            );
            let (events, metrics) = probe.into_parts();
            assert!(!events.is_empty(), "{label}: the probe saw nothing");
            assert_eq!(
                metrics.counter("sim.rounds"),
                result.rounds,
                "{label} on {}: probe round count",
                plane.name()
            );
        }
    }
}
