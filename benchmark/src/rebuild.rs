//! Traced trials, rebuilt from the public crates: the protocol's node
//! network, the attack type, `NetDelivery` over the network model, and
//! `Simulation::with_instruments` with the benchmark's wall-clock probe.
//! The rebuilt `TrialResult` must equal the harness's for the same seed,
//! which pins that the traced trial did the timed op's work.

use crate::spans::{record_trial, SpanLog, WallProbe};
use aba_adversary::{AdaptiveCrash, Benign, StaticBehavior, StaticByzantine};
use aba_agreement::{BaConfig, CommitteeBa, PhaseKingBa, SamplingMajorityNode};
use aba_attacks::{AdaptiveFullAttack, BudgetPolicy, SplitVote};
use aba_harness::{AttackSpec, NetworkSpec, PlaneSpec, ProtocolSpec, Scenario, TrialResult};
use aba_net::{BoundedDelay, NetDelivery, NetworkModel, Synchronous};
use aba_sim::adversary::Adversary;
use aba_sim::{
    MessagePlane, NoOracle, Protocol, RoundMailbox, RunReport, SimConfig, Simulation,
    SparseMailbox, Verdict,
};

type Dense<P> = RoundMailbox<<P as Protocol>::Msg>;
type Sparse<P> = SparseMailbox<<P as Protocol>::Msg>;

/// What a traced engine run leaves behind.
struct Traced {
    report: RunReport,
    adversary: &'static str,
    downgraded: bool,
    build_start: u64,
    probe: WallProbe,
}

/// Runs one scenario as a traced trial, records its spans under op id
/// `op`, and returns the rebuilt `TrialResult`.
///
/// Covers the scenario shapes the workloads run: the committee family
/// and Phase-King on the dense plane under the benign, static-mirror,
/// full and split-vote attacks, and sampling majority on the sparse
/// plane under adaptive crashes.
pub fn traced_trial(s: &Scenario, op: u64, log: &mut SpanLog) -> Result<TrialResult, String> {
    let op_start = crate::clock_ns();
    let inputs = s.inputs.materialize(s.n, s.seed);
    let traced = match s.protocol {
        ProtocolSpec::PaperLasVegas { alpha } => {
            committee(s, &inputs, || BaConfig::paper_las_vegas(s.n, s.t, alpha))?
        }
        ProtocolSpec::ChorCoan { beta } => {
            committee(s, &inputs, || BaConfig::chor_coan(s.n, s.t, beta))?
        }
        ProtocolSpec::RabinDealer => committee(s, &inputs, || {
            BaConfig::rabin_dealer(s.n, s.t, s.seed ^ 0xDEA1)
        })?,
        ProtocolSpec::PhaseKing => phase_king(s, &inputs)?,
        ProtocolSpec::SamplingMajority { iters } if s.plane == PlaneSpec::Sparse => {
            sampling_sparse(s, &inputs, iters)?
        }
        other => return Err(format!("{} trials are not traced", other.name())),
    };
    let verdict = Verdict::evaluate(&inputs, &traced.report.outputs, &traced.report.honest);
    let report = &traced.report;
    let result = TrialResult {
        seed: s.seed,
        rounds: report.rounds,
        terminated: report.all_halted,
        agreement: verdict.agreement,
        validity: verdict.validity,
        decision: verdict.decision,
        corruptions: report.corruptions_used,
        messages: report.metrics.total_messages,
        bits: report.metrics.total_bits,
        max_edge_bits: report.metrics.max_edge_bits,
        agree_fraction: majority_fraction(report),
        delivered: report.metrics.total_delivered,
        dropped: report.metrics.total_dropped,
        delayed: report.metrics.total_delayed,
        adversary: traced.adversary,
        downgraded: traced.downgraded,
        network: s.network.name(),
    };
    let op_end = crate::clock_ns();
    record_trial(
        log,
        op,
        (op_start, op_end),
        traced.build_start,
        traced.probe.marks(),
    )?;
    Ok(result)
}

/// Share of honest outputs holding the majority value (1 when none).
fn majority_fraction(report: &RunReport) -> f64 {
    let outs = report.honest_outputs();
    if outs.is_empty() {
        return 1.0;
    }
    let ones = outs.iter().filter(|b| **b).count();
    ones.max(outs.len() - ones) as f64 / outs.len() as f64
}

fn unsupported(s: &Scenario) -> String {
    format!(
        "{} under {} is not traced",
        s.protocol.name(),
        s.attack.name()
    )
}

fn committee<C, E>(s: &Scenario, inputs: &[bool], config: C) -> Result<Traced, String>
where
    C: Fn() -> Result<BaConfig, E>,
    E: std::fmt::Display,
{
    let nodes = || {
        config()
            .map(|cfg| CommitteeBa::network(&cfg, inputs))
            .map_err(|e| e.to_string())
    };
    match s.attack {
        AttackSpec::Benign => {
            drive::<_, _, Dense<CommitteeBa>, _>(s, false, || Ok((nodes()?, Benign)))
        }
        AttackSpec::StaticMirror => drive::<_, _, Dense<CommitteeBa>, _>(s, false, || {
            Ok((
                nodes()?,
                StaticByzantine::first_t(s.t, StaticBehavior::MirrorRandom),
            ))
        }),
        AttackSpec::FullAttack => drive::<_, _, Dense<CommitteeBa>, _>(s, false, || {
            Ok((nodes()?, AdaptiveFullAttack::new(BudgetPolicy::Greedy)))
        }),
        AttackSpec::SplitVote => {
            drive::<_, _, Dense<CommitteeBa>, _>(s, false, || Ok((nodes()?, SplitVote::new())))
        }
        _ => Err(unsupported(s)),
    }
}

fn phase_king(s: &Scenario, inputs: &[bool]) -> Result<Traced, String> {
    let nodes = || PhaseKingBa::network(s.n, s.t, inputs);
    match s.attack {
        AttackSpec::Benign => {
            drive::<_, _, Dense<PhaseKingBa>, _>(s, false, || Ok((nodes(), Benign)))
        }
        AttackSpec::StaticMirror => drive::<_, _, Dense<PhaseKingBa>, _>(s, false, || {
            Ok((
                nodes(),
                StaticByzantine::first_t(s.t, StaticBehavior::MirrorRandom),
            ))
        }),
        // The BA-state-aware attacks do not speak Phase-King's messages;
        // the harness substitutes adaptive crash and flags it.
        AttackSpec::FullAttack | AttackSpec::SplitVote => {
            drive::<_, _, Dense<PhaseKingBa>, _>(s, true, || {
                Ok((nodes(), AdaptiveCrash::steady(1)))
            })
        }
        _ => Err(unsupported(s)),
    }
}

fn sampling_sparse(s: &Scenario, inputs: &[bool], iters: u64) -> Result<Traced, String> {
    let iters = if iters == 0 {
        SamplingMajorityNode::recommended_iterations(s.n)
    } else {
        iters
    };
    match s.attack {
        AttackSpec::Crash { per_round } => {
            drive::<_, _, Sparse<SamplingMajorityNode>, _>(s, false, || {
                Ok((
                    SamplingMajorityNode::network(s.n, iters, inputs),
                    AdaptiveCrash::steady(per_round),
                ))
            })
        }
        _ => Err(unsupported(s)),
    }
}

/// Builds the nodes, adversary, delivery stage and engine under the
/// `build` span, then runs the engine with the wall-clock probe.
fn drive<P, A, L, F>(s: &Scenario, downgraded: bool, build: F) -> Result<Traced, String>
where
    P: Protocol + Send,
    P::Msg: Send + Sync,
    A: Adversary<P, L>,
    L: MessagePlane<P::Msg> + Sync,
    F: FnOnce() -> Result<(Vec<P>, A), String>,
{
    let build_start = crate::clock_ns();
    let (nodes, adversary) = build()?;
    let name = adversary.name();
    let cfg = SimConfig::new(s.n, s.t)
        .with_seed(s.seed)
        .with_info_model(s.info)
        .with_max_rounds(s.max_rounds)
        .with_threads(s.threads);
    let (report, probe) = match s.network {
        NetworkSpec::Synchronous => run(cfg, nodes, adversary, Synchronous, s.seed),
        NetworkSpec::BoundedDelay {
            max_delay,
            scheduler,
        } => run(
            cfg,
            nodes,
            adversary,
            BoundedDelay::new(max_delay, scheduler),
            s.seed,
        ),
        NetworkSpec::LossyLinks { .. } | NetworkSpec::Partition { .. } => {
            return Err(format!("{} networks are not traced", s.network.name()))
        }
    };
    Ok(Traced {
        report,
        adversary: name,
        downgraded,
        build_start,
        probe,
    })
}

fn run<P, A, N, L>(
    cfg: SimConfig,
    nodes: Vec<P>,
    adversary: A,
    model: N,
    seed: u64,
) -> (RunReport, WallProbe)
where
    P: Protocol + Send,
    P::Msg: Send + Sync,
    A: Adversary<P, L>,
    N: NetworkModel,
    L: MessagePlane<P::Msg> + Sync,
{
    let (report, NoOracle, probe) =
        Simulation::<P, A, NetDelivery<P::Msg, N, L>, NoOracle, WallProbe, L>::with_instruments(
            cfg,
            nodes,
            adversary,
            NetDelivery::new(model, seed),
            NoOracle,
            WallProbe::default(),
        )
        .run_instrumented();
    (report, probe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aba_harness::{run_scenario, InputSpec};

    #[test]
    fn rebuilt_trials_match_the_harness() {
        let base = Scenario::new(16, 5).with_max_rounds(400);
        let cases = [
            base.clone()
                .with_protocol(ProtocolSpec::PaperLasVegas { alpha: 2.0 })
                .with_attack(AttackSpec::FullAttack),
            base.clone()
                .with_protocol(ProtocolSpec::RabinDealer)
                .with_attack(AttackSpec::StaticMirror)
                .with_network(NetworkSpec::BoundedDelay {
                    max_delay: 2,
                    scheduler: aba_harness::DelayScheduler::Random,
                }),
            base.clone()
                .with_protocol(ProtocolSpec::PhaseKing)
                .with_attack(AttackSpec::SplitVote),
            base.clone()
                .with_protocol(ProtocolSpec::ChorCoan { beta: 1.0 })
                .with_attack(AttackSpec::Benign)
                .with_inputs(InputSpec::AllSame(true)),
            Scenario::new(256, 16)
                .with_protocol(ProtocolSpec::SamplingMajority { iters: 4 })
                .with_attack(AttackSpec::Crash { per_round: 1 })
                .with_plane(PlaneSpec::Sparse)
                .with_max_rounds(64),
        ];
        for (i, s) in cases.into_iter().enumerate() {
            let s = s.with_seed(100 + i as u64);
            let mut log = SpanLog::default();
            let rebuilt = traced_trial(&s, s.seed, &mut log).expect("traceable");
            assert_eq!(rebuilt, run_scenario(&s), "case {i}");
            let rounds = log.spans().iter().filter(|sp| sp.name == "round").count();
            assert_eq!(rounds as u64, rebuilt.rounds, "case {i}");
        }
    }

    #[test]
    fn untraceable_shapes_are_reported() {
        let s = Scenario::new(16, 5).with_protocol(ProtocolSpec::CommonCoin);
        assert!(traced_trial(&s, 1, &mut SpanLog::default()).is_err());
        let lossy = Scenario::new(16, 5).with_network(NetworkSpec::LossyLinks { p_drop: 0.05 });
        assert!(traced_trial(&lossy, 1, &mut SpanLog::default()).is_err());
    }
}
