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
//! Plane equivalence: routing a committee-family scenario through the
//! bit-packed binary plane must reproduce the dense `TrialResult`
//! exactly — same verdicts, same round/message/bit accounting — and a
//! non-committee protocol asked for the packed plane silently stays
//! dense, so the switch is safe to set campaign-wide.

use adaptive_ba::harness::{check_scenario, replay_scenario};
use adaptive_ba::{
    observe_replay, observe_scenario, AttackSpec, CampaignSpec, DelayScheduler, InputSpec,
    NetworkSpec, PlaneSpec, ProtocolSpec, RoundCap, RunOptions, ScenarioBuilder, StopRule,
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
    // Trace recording rides the dense drives; the sparse plane must
    // produce exactly the trial the recorded replay re-derives.
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
