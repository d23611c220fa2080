//! The three workloads: the inputs a workload seed generates, what one op
//! runs through the public run API, and the checks every outcome passes.

use aba_harness::{
    check_scenario, run_scenario, AttackSpec, DelayScheduler, InputSpec, NetworkSpec, OracleReport,
    PlaneSpec, ProtocolSpec, Scenario, TrialResult,
};
use aba_sim::InfoModel;
use aba_sweep::{CampaignResult, CampaignSpec, RoundCap, RunOptions, StopRule};

/// One named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Las Vegas committee BA against the greedy adaptive full attack at
    /// n = 64 under bounded delay, every trial running to its round cap.
    AdverseNet,
    /// Sampling majority at n = 16,384 on the sparse plane with the
    /// CONGEST and budget oracles armed.
    SparseScale,
    /// A 32-cell oracle-armed campaign grid of the smallest networks
    /// (n = 4 and 5) with adaptive stopping.
    CampaignSmall,
}

/// Worker threads every campaign runs with: load comes from one thread.
pub const CAMPAIGN_WORKERS: usize = 1;

impl Workload {
    /// Every workload the benchmark runs.
    pub const ALL: [Workload; 3] = [
        Workload::AdverseNet,
        Workload::SparseScale,
        Workload::CampaignSmall,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AdverseNet => "adverse-net",
            Workload::SparseScale => "sparse-scale",
            Workload::CampaignSmall => "campaign-small",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Distinct ops in one pass over the op list. A run repeats whole
    /// passes, so every pass times identical work; the counts keep a
    /// pass at a few seconds or less.
    pub fn ops_per_pass(self) -> usize {
        match self {
            Workload::AdverseNet => 16,
            Workload::SparseScale => 16,
            Workload::CampaignSmall => 8,
        }
    }

    /// The op this workload runs at one seed.
    pub fn op(self, seed: u64) -> Op {
        match self {
            Workload::AdverseNet => Op::Run(
                Scenario::new(64, 21)
                    .with_protocol(ProtocolSpec::PaperLasVegas { alpha: 2.0 })
                    .with_attack(AttackSpec::FullAttack)
                    .with_inputs(InputSpec::Split)
                    .with_info(InfoModel::Rushing)
                    .with_network(NetworkSpec::BoundedDelay {
                        max_delay: 2,
                        scheduler: DelayScheduler::Random,
                    })
                    .with_max_rounds(1024)
                    .with_plane(PlaneSpec::Dense)
                    .with_seed(seed),
            ),
            Workload::SparseScale => Op::Check(
                Scenario::new(16_384, 1_448)
                    .with_protocol(ProtocolSpec::SamplingMajority { iters: 16 })
                    .with_attack(AttackSpec::Crash { per_round: 1 })
                    .with_inputs(InputSpec::Split)
                    .with_info(InfoModel::Rushing)
                    .with_network(NetworkSpec::Synchronous)
                    .with_max_rounds(256)
                    .with_plane(PlaneSpec::Sparse)
                    .with_seed(seed),
            ),
            Workload::CampaignSmall => Op::Campaign(
                CampaignSpec::new("campaign-small")
                    .sizes(&[(4, 1), (5, 1)])
                    .protocols(&[
                        ProtocolSpec::PaperLasVegas { alpha: 2.0 },
                        ProtocolSpec::ChorCoan { beta: 1.0 },
                        ProtocolSpec::PhaseKing,
                        ProtocolSpec::RabinDealer,
                    ])
                    .attacks(&[
                        AttackSpec::Benign,
                        AttackSpec::FullAttack,
                        AttackSpec::StaticMirror,
                        AttackSpec::SplitVote,
                    ])
                    .networks(&[NetworkSpec::Synchronous])
                    .round_cap(RoundCap::Fixed(400))
                    .oracles(true)
                    .stop(StopRule::adaptive(8, 8, 64))
                    .seed(seed),
            ),
        }
    }
}

/// The trial (or campaign master) seeds of a run: `count` values derived
/// from the workload seed, so the same seed always gives the same inputs.
pub fn trial_seeds(seed: u64, count: usize) -> Vec<u64> {
    let mut state = seed;
    (0..count)
        .map(|_| aba_sim::rng::splitmix64(&mut state))
        .collect()
}

/// One unit of closed-loop work.
#[derive(Debug, Clone)]
pub enum Op {
    /// One trial through `run_scenario`.
    Run(Scenario),
    /// One trial through `check_scenario`, lemma oracles armed.
    Check(Scenario),
    /// One campaign grid through `run_with` on one worker, rendered to
    /// JSON and CSV in memory.
    Campaign(CampaignSpec),
}

impl Op {
    /// The trial seed, or the campaign master seed.
    pub fn seed(&self) -> u64 {
        match self {
            Op::Run(s) | Op::Check(s) => s.seed,
            Op::Campaign(spec) => spec.seed,
        }
    }

    /// The scenarios this op can run: its one trial, or every campaign
    /// cell's base scenario.
    pub fn scenarios(&self) -> Vec<Scenario> {
        match self {
            Op::Run(s) | Op::Check(s) => vec![s.clone()],
            Op::Campaign(spec) => spec.cells().into_iter().map(|c| c.scenario).collect(),
        }
    }

    /// Runs the op through the public run API.
    pub fn run(&self) -> Outcome {
        match self {
            Op::Run(s) => Outcome::Trial {
                result: run_scenario(s),
                oracle: None,
            },
            Op::Check(s) => {
                let checked = check_scenario(s);
                Outcome::Trial {
                    result: checked.result,
                    oracle: Some(checked.oracle),
                }
            }
            Op::Campaign(spec) => {
                let result = spec.run_with(&RunOptions {
                    workers: CAMPAIGN_WORKERS,
                    ..RunOptions::default()
                });
                let json = result.to_json();
                let csv = result.to_csv();
                Outcome::Campaign { result, json, csv }
            }
        }
    }
}

/// What one op produced.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// A trial's result, with the oracle report where oracles were armed.
    Trial {
        /// The harness result.
        result: TrialResult,
        /// The armed oracles' report (`None` when unarmed).
        oracle: Option<OracleReport>,
    },
    /// A finished campaign and its rendered artifacts.
    Campaign {
        /// The campaign result.
        result: CampaignResult,
        /// `to_json()` bytes.
        json: String,
        /// `to_csv()` bytes.
        csv: String,
    },
}

impl Outcome {
    /// The pinned form: the full `TrialResult` (plus the oracle report
    /// where armed), or the campaign's JSON artifact.
    pub fn render(&self) -> String {
        match self {
            Outcome::Trial {
                result,
                oracle: None,
            } => format!("{result:?}"),
            Outcome::Trial {
                result,
                oracle: Some(oracle),
            } => format!("{result:?} {oracle:?}"),
            Outcome::Campaign { json, .. } => json.clone(),
        }
    }

    /// Trials the op completed.
    pub fn trials(&self) -> usize {
        match self {
            Outcome::Trial { .. } => 1,
            Outcome::Campaign { result, .. } => result.total_trials(),
        }
    }

    /// Rounds summed over the op's trials.
    pub fn rounds(&self) -> u64 {
        match self {
            Outcome::Trial { result, .. } => result.rounds,
            Outcome::Campaign { result, .. } => result.cells.iter().map(|c| c.sum_rounds).sum(),
        }
    }

    /// Messages summed over the op's trials.
    pub fn messages(&self) -> u64 {
        match self {
            Outcome::Trial { result, .. } => result.messages as u64,
            Outcome::Campaign { result, .. } => result.cells.iter().map(|c| c.sum_messages).sum(),
        }
    }
}

/// The invariants that hold at every seed.
///
/// - sparse-scale: no armed oracle fires, and messages per node stay
///   below `n / 4` (E5's sub-quadratic assertion);
/// - campaign-small: the grid has all 32 cells and its CSV one row per
///   cell.
///
/// The bit-identical re-run that every workload must pass is checked by
/// the run loop, which holds the earlier outcome.
pub fn check_invariants(workload: Workload, op: &Op, outcome: &Outcome) -> Result<(), String> {
    match (workload, op, outcome) {
        (Workload::SparseScale, Op::Check(s), Outcome::Trial { result, oracle }) => {
            match oracle {
                None => return Err("oracles were not armed".to_string()),
                Some(report) if !report.is_clean() => {
                    return Err(format!(
                        "{} armed-oracle violations, first: {}",
                        report.total,
                        report.first().map_or_else(String::new, ToString::to_string)
                    ))
                }
                Some(_) => {}
            }
            let per_node = result.messages as f64 / s.n as f64;
            if per_node < s.n as f64 / 4.0 {
                Ok(())
            } else {
                Err(format!(
                    "{per_node} messages per node is not below n/4 = {}",
                    s.n / 4
                ))
            }
        }
        (Workload::CampaignSmall, Op::Campaign(spec), Outcome::Campaign { result, csv, .. }) => {
            let cells = spec.cells().len();
            let rows = csv.lines().count().saturating_sub(1);
            if result.cells.len() == cells && rows == cells {
                Ok(())
            } else {
                Err(format!(
                    "grid has {cells} cells but the result has {} and the CSV {rows} rows",
                    result.cells.len()
                ))
            }
        }
        (Workload::SparseScale | Workload::CampaignSmall, _, _) => {
            Err("the op produced the wrong kind of outcome".to_string())
        }
        (Workload::AdverseNet, _, _) => Ok(()),
    }
}

/// The generated inputs of one run: the timed op list and the untimed
/// warm-up op, whose seed lies outside the list.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// The timed ops, in order.
    pub ops: Vec<Op>,
    /// The warm-up op.
    pub warm_up: Op,
}

impl Plan {
    /// Generates the run's inputs from the workload seed and checks that
    /// every scenario runs on one thread.
    pub fn new(workload: Workload, seed: u64) -> Result<Plan, String> {
        let k = workload.ops_per_pass();
        let mut ops: Vec<Op> = trial_seeds(seed, k + 1)
            .into_iter()
            .map(|s| workload.op(s))
            .collect();
        let warm_up = ops.pop().ok_or("empty op list")?;
        for op in ops.iter().chain([&warm_up]) {
            if let Some(s) = op.scenarios().iter().find(|s| s.threads != 1) {
                return Err(format!(
                    "scenario at seed {} asks for {} in-round threads; the benchmark drives one",
                    s.seed, s.threads
                ));
            }
        }
        Ok(Plan {
            workload,
            ops,
            warm_up,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn plans_are_deterministic_and_single_threaded() {
        let a = Plan::new(Workload::CampaignSmall, 7).expect("plan");
        let b = Plan::new(Workload::CampaignSmall, 7).expect("plan");
        let seeds = |p: &Plan| p.ops.iter().map(Op::seed).collect::<Vec<_>>();
        assert_eq!(seeds(&a), seeds(&b));
        assert_eq!(a.ops.len(), Workload::CampaignSmall.ops_per_pass());
        assert!(!seeds(&a).contains(&a.warm_up.seed()));
        assert_eq!(a.ops[0].scenarios().len(), 32);
        let c = Plan::new(Workload::CampaignSmall, 8).expect("plan");
        assert_ne!(seeds(&a), seeds(&c));
    }
}
