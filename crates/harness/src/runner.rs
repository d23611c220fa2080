//! Trial execution: scenario dispatch and the parallel batch runner.
//!
//! This module is the *engine room* of the [`crate::ScenarioBuilder`]
//! facade: it turns the declarative [`Scenario`] into a concrete
//! protocol and message plane plus a boxed adversary, and runs them. It
//! is crate-private on purpose — downstream code composes runs
//! exclusively through the facade.
//!
//! There is one run path. [`drive_scenario`] asks [`Family::plane`]
//! which message plane the scenario runs on, picks the adversary from
//! the attack table — the four rows every family shares, then the
//! family's own — and hands the combination to a [`Drive`] strategy,
//! which runs it through the one network dispatch ([`simulate`]). Two
//! strategies serve every entry point: [`Once`] (one run with a lemma
//! suite and a probe attached — the plain, probed, checked, observed and
//! provenance-traced runs) and [`RecordReplay`] (record the live run,
//! re-drive the engine from the trace on the same plane, with a probe on
//! each side).
//!
//! The engine is compiled once per protocol × plane × network model ×
//! drive. The adversary is not a type parameter: it is an [`Attack`], a
//! boxed trait object whose `act` runs once per round, so adding an
//! attack adds no engine body.

use crate::scenario::{AttackSpec, NetworkSpec, PlaneSpec, ProtocolSpec, Scenario};
use aba_adversary::{AdaptiveCrash, Benign, BudgetCapped, StaticBehavior, StaticByzantine};
use aba_agreement::{
    BaConfig, BaMsg, CoinRoundMode, CommitteeBa, KingSaiaNode, KsMsg, PhaseKingBa, PkMsg,
    SamplingMajorityNode, SmMsg,
};
use aba_attacks::{
    AdaptiveFullAttack, BudgetPolicy, CoinKiller, NonRushingPolicy, SamplingPoison, SplitVote,
};
use aba_check::{LemmaSuite, TraceRecorder};
use aba_coin::{CoinFlipNode, CoinMsg};
use aba_net::{BoundedDelay, LossyLinks, NetDelivery, NetworkModel, Partition, Synchronous};
use aba_sim::adversary::Adversary;
use aba_sim::oracle::Oracle;
use aba_sim::probe::{NoProbe, Probe};
use aba_sim::protocol::Protocol;
use aba_sim::{
    MessagePlane, PackedMailbox, RoundMailbox, RunReport, SimConfig, Simulation, SparseMailbox,
    Verdict,
};
use std::marker::PhantomData;

/// Result of one trial, flattened for aggregation.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialResult {
    /// Master seed the trial ran at (trial `i` of a batch runs at
    /// `base seed + i`; merge operations order trials by this field).
    pub seed: u64,
    /// Rounds until every honest node halted (or the cap).
    pub rounds: u64,
    /// Whether every honest node terminated before the cap.
    pub terminated: bool,
    /// Whether all honest outputs agreed.
    pub agreement: bool,
    /// Validity verdict (None when inputs were mixed).
    pub validity: Option<bool>,
    /// The common decision, if agreement held.
    pub decision: Option<bool>,
    /// Corruptions the adversary actually performed.
    pub corruptions: usize,
    /// Total point-to-point messages.
    pub messages: usize,
    /// Total bits on the wire.
    pub bits: usize,
    /// Max bits over any edge in any round (CONGEST check).
    pub max_edge_bits: usize,
    /// Fraction of honest outputs sharing the majority value (1.0 under
    /// full agreement; the almost-everywhere metric for
    /// [`ProtocolSpec::SamplingMajority`]).
    pub agree_fraction: f64,
    /// Messages the network actually handed to receivers (equals
    /// `messages` under [`NetworkSpec::Synchronous`]).
    pub delivered: usize,
    /// Messages the network dropped.
    pub dropped: usize,
    /// Delay events (a message counts once when first held back and
    /// once per further deferral on a busy link).
    pub delayed: usize,
    /// Name of the adversary strategy that actually ran. Protocol-
    /// mismatched attack specs degrade to the strongest applicable
    /// strategy; this field records the substitution so results are
    /// never silently misattributed.
    pub adversary: &'static str,
    /// True when the requested [`AttackSpec`] did not apply to the
    /// protocol and the dispatcher substituted the strongest applicable
    /// strategy (named in `adversary`). Always check this flag before
    /// attributing a result to the attack that was *asked for*.
    pub downgraded: bool,
    /// Name of the network model the trial ran under.
    pub network: &'static str,
}

/// Majority fraction among the honest outputs (1.0 when none exist).
fn majority_fraction(report: &RunReport) -> f64 {
    let outs = report.honest_outputs();
    if outs.is_empty() {
        return 1.0;
    }
    let ones = outs.iter().filter(|b| **b).count();
    ones.max(outs.len() - ones) as f64 / outs.len() as f64
}

impl TrialResult {
    /// The fields shared by every kind of run; the agreement/validity/
    /// decision triple is left at its vacuous default for the caller.
    fn base(
        report: &RunReport,
        seed: u64,
        adversary: &'static str,
        network: &'static str,
        downgraded: bool,
    ) -> TrialResult {
        TrialResult {
            seed,
            rounds: report.rounds,
            terminated: report.all_halted,
            agreement: true,
            validity: None,
            decision: None,
            corruptions: report.corruptions_used,
            messages: report.metrics.total_messages,
            bits: report.metrics.total_bits,
            max_edge_bits: report.metrics.max_edge_bits,
            agree_fraction: majority_fraction(report),
            delivered: report.metrics.total_delivered,
            dropped: report.metrics.total_dropped,
            delayed: report.metrics.total_delayed,
            adversary,
            downgraded,
            network,
        }
    }

    fn from_run(
        report: &RunReport,
        seed: u64,
        inputs: &[bool],
        adversary: &'static str,
        network: &'static str,
        downgraded: bool,
    ) -> TrialResult {
        let verdict = Verdict::evaluate(inputs, &report.outputs, &report.honest);
        TrialResult {
            agreement: verdict.agreement,
            validity: verdict.validity,
            decision: verdict.decision,
            ..Self::base(report, seed, adversary, network, downgraded)
        }
    }

    /// For input-less protocols (the common coin): agreement means the
    /// coin was common; validity is vacuous.
    fn from_coin_run(
        report: &RunReport,
        seed: u64,
        adversary: &'static str,
        network: &'static str,
        downgraded: bool,
    ) -> TrialResult {
        let agreement = report.honest_outputs_agree();
        TrialResult {
            agreement,
            decision: if agreement {
                report.honest_outputs().first().copied()
            } else {
                None
            },
            ..Self::base(report, seed, adversary, network, downgraded)
        }
    }

    /// Definition 1 satisfied (termination + agreement + validity where
    /// applicable).
    pub fn correct(&self) -> bool {
        self.terminated && self.agreement && self.validity.unwrap_or(true)
    }
}

/// Both sides of a record/replay differential (see
/// [`crate::check::replay_scenario`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// The live run, with the trace recorder attached.
    pub live: TrialResult,
    /// The same run re-driven from the recorded trace (no network
    /// model, no adversary strategy — scripts only).
    pub replayed: TrialResult,
}

impl ReplayOutcome {
    /// Whether the replay reproduced the live run bit for bit.
    pub fn is_faithful(&self) -> bool {
        self.live == self.replayed
    }
}

fn sim_config(s: &Scenario) -> SimConfig {
    SimConfig::new(s.n, s.t)
        .with_seed(s.seed)
        .with_info_model(s.info)
        .with_max_rounds(s.max_rounds)
        .with_threads(s.threads)
}

/// How the honest outcome of a run is evaluated into a [`TrialResult`].
#[derive(Clone, Copy)]
enum Eval<'a> {
    /// Agreement/validity against the materialized inputs.
    Inputs(&'a [bool]),
    /// Coin semantics: agreement = commonality, validity vacuous.
    Coin,
}

/// The protocol families, grouped by the message planes they can run
/// on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Family {
    /// The committee-BA family (the paper's protocols and the
    /// committee baselines): `BaMsg` has a 32-bit packed codec.
    Committee,
    /// Sampling majority and King–Saia: sub-quadratic traffic.
    Sampled,
    /// The common coin and Phase-King.
    DenseOnly,
}

impl Family {
    /// The family a protocol belongs to.
    pub(crate) fn of(p: ProtocolSpec) -> Family {
        match p {
            ProtocolSpec::Paper { .. }
            | ProtocolSpec::PaperLasVegas { .. }
            | ProtocolSpec::PaperLiteralCoin { .. }
            | ProtocolSpec::ChorCoan { .. }
            | ProtocolSpec::RabinDealer
            | ProtocolSpec::BenOrPrivate => Family::Committee,
            ProtocolSpec::SamplingMajority { .. } | ProtocolSpec::KingSaia { .. } => {
                Family::Sampled
            }
            ProtocolSpec::CommonCoin | ProtocolSpec::PhaseKing => Family::DenseOnly,
        }
    }

    /// The plane a run of this family uses when `requested` is asked
    /// for — the one table every entry point goes through. The
    /// committee family runs on dense or packed, the sampled family on
    /// dense or sparse, everything else on dense. Every plane gives the
    /// same results, so an unsupported request changes only the cost.
    pub(crate) fn plane(self, requested: PlaneSpec) -> PlaneSpec {
        match (self, requested) {
            (Family::Committee, PlaneSpec::Packed) => PlaneSpec::Packed,
            (Family::Sampled, PlaneSpec::Sparse) => PlaneSpec::Sparse,
            _ => PlaneSpec::Dense,
        }
    }
}

type Dense<P> = RoundMailbox<<P as Protocol>::Msg>;
type Packed<P> = PackedMailbox<<P as Protocol>::Msg>;
type Sparse<P> = SparseMailbox<<P as Protocol>::Msg>;

/// One dispatched trial, before the adversary is chosen: the scenario,
/// how to build its nodes (replay builds them twice), how to evaluate
/// the outcome, and the plane `L` it runs on.
pub(crate) struct Trial<'a, P, L> {
    s: &'a Scenario,
    make_nodes: &'a dyn Fn() -> Vec<P>,
    eval: Eval<'a>,
    plane: PhantomData<fn() -> L>,
}

impl<'a, P, L> Trial<'a, P, L> {
    fn new(s: &'a Scenario, make_nodes: &'a dyn Fn() -> Vec<P>, eval: Eval<'a>) -> Self {
        Trial {
            s,
            make_nodes,
            eval,
            plane: PhantomData,
        }
    }

    fn result(&self, report: &RunReport, adversary: &'static str, downgraded: bool) -> TrialResult {
        let (seed, network) = (self.s.seed, self.s.network.name());
        match self.eval {
            Eval::Inputs(inputs) => {
                TrialResult::from_run(report, seed, inputs, adversary, network, downgraded)
            }
            Eval::Coin => TrialResult::from_coin_run(report, seed, adversary, network, downgraded),
        }
    }
}

/// An adversary picked at run time. The engine asks it to act once per
/// round, through one virtual call, so one engine body serves every
/// attack.
pub(crate) type Attack<'a, P, L> = Box<dyn Adversary<P, L> + 'a>;

/// Runs one trial on plane `L` under the scenario's network conditions,
/// with an oracle and a probe attached — the one network dispatch every
/// drive goes through, statically dispatched for every protocol ×
/// network × plane × instrument combination and shared by every attack.
/// Oracles and probes observe only, so the report is the uninstrumented
/// one.
///
/// The model is seeded from the scenario's master seed on the dedicated
/// network RNG stream, so the same seed reproduces the same drops and
/// delays — and switching models never perturbs node or adversary
/// randomness.
fn simulate<P, L, O, B>(
    s: &Scenario,
    nodes: Vec<P>,
    adversary: Attack<'_, P, L>,
    oracle: O,
    probe: B,
) -> (RunReport, O, B)
where
    P: Protocol + Send,
    P::Msg: Send + Sync,
    L: MessagePlane<P::Msg> + Sync,
    O: Oracle<P::Msg, L>,
    B: Probe,
{
    match s.network {
        NetworkSpec::Synchronous => on_network(s, Synchronous, nodes, adversary, oracle, probe),
        NetworkSpec::LossyLinks { p_drop } => {
            on_network(s, LossyLinks::new(p_drop), nodes, adversary, oracle, probe)
        }
        NetworkSpec::BoundedDelay {
            max_delay,
            scheduler,
        } => on_network(
            s,
            BoundedDelay::new(max_delay, scheduler),
            nodes,
            adversary,
            oracle,
            probe,
        ),
        NetworkSpec::Partition { groups, heal_round } => on_network(
            s,
            Partition::striped(s.n, groups, heal_round),
            nodes,
            adversary,
            oracle,
            probe,
        ),
    }
}

/// [`simulate`] under one concrete network model.
fn on_network<P, L, O, B, N>(
    s: &Scenario,
    model: N,
    nodes: Vec<P>,
    adversary: Attack<'_, P, L>,
    oracle: O,
    probe: B,
) -> (RunReport, O, B)
where
    P: Protocol + Send,
    P::Msg: Send + Sync,
    L: MessagePlane<P::Msg> + Sync,
    O: Oracle<P::Msg, L>,
    B: Probe,
    N: NetworkModel,
{
    let delivery = NetDelivery::new(model, s.seed);
    Simulation::<P, _, _, O, B, L>::with_instruments(
        sim_config(s),
        nodes,
        adversary,
        delivery,
        oracle,
        probe,
    )
    .run_instrumented()
}

/// An execution strategy over the protocol × plane dispatch and the
/// boxed adversary the attack table picked.
pub(crate) trait Drive {
    /// What one driven trial produces.
    type Out;

    /// Executes one fully-dispatched combination.
    fn drive<P, L>(
        self,
        t: Trial<'_, P, L>,
        adversary: Attack<'_, P, L>,
        downgraded: bool,
    ) -> Self::Out
    where
        P: Protocol + Send,
        P::Msg: Send + Sync,
        L: MessagePlane<P::Msg> + Sync;
}

/// Run once with a [`LemmaSuite`] and a probe attached: the scenario's
/// suite for the checked, observed and provenance-traced runs, a dormant
/// [`LemmaSuite::new`] for the plain and probed ones — so a plain run
/// and a checked run share one engine body.
pub(crate) struct Once<B>(pub(crate) LemmaSuite, pub(crate) B);

/// What a [`Once`] drive leaves behind.
pub(crate) struct Ran<B> {
    pub(crate) result: TrialResult,
    pub(crate) report: RunReport,
    pub(crate) oracle: LemmaSuite,
    pub(crate) probe: B,
}

impl<B: Probe> Drive for Once<B> {
    type Out = Ran<B>;

    fn drive<P, L>(
        self,
        t: Trial<'_, P, L>,
        adversary: Attack<'_, P, L>,
        downgraded: bool,
    ) -> Self::Out
    where
        P: Protocol + Send,
        P::Msg: Send + Sync,
        L: MessagePlane<P::Msg> + Sync,
    {
        let name = adversary.name();
        let (report, oracle, probe) = simulate(t.s, (t.make_nodes)(), adversary, self.0, self.1);
        Ran {
            result: t.result(&report, name, downgraded),
            report,
            oracle,
            probe,
        }
    }
}

/// Record the live run with a fresh probe attached, then re-drive the
/// engine on the same plane from the trace — the recorded adversary
/// actions and arrivals standing in for the strategy and the network
/// model — with another fresh probe attached. Neither side checks a
/// lemma (the live side carries the trace recorder, the replay side a
/// dormant [`LemmaSuite`]), so the two probes see comparable runs.
pub(crate) struct RecordReplay<B>(pub(crate) fn() -> B);

/// Both sides of a [`RecordReplay`] drive.
pub(crate) struct Replayed<B> {
    pub(crate) live: TrialResult,
    pub(crate) replayed: TrialResult,
    pub(crate) live_probe: B,
    pub(crate) replay_probe: B,
}

impl<B: Probe> Drive for RecordReplay<B> {
    type Out = Replayed<B>;

    fn drive<P, L>(
        self,
        t: Trial<'_, P, L>,
        adversary: Attack<'_, P, L>,
        downgraded: bool,
    ) -> Self::Out
    where
        P: Protocol + Send,
        P::Msg: Send + Sync,
        L: MessagePlane<P::Msg> + Sync,
    {
        let name = adversary.name();
        let (live_report, recorder, live_probe) = simulate(
            t.s,
            (t.make_nodes)(),
            adversary,
            TraceRecorder::new(),
            (self.0)(),
        );
        let (replay_adv, replay_delivery) = recorder.into_recording().into_replay(name);
        let (replay_report, _, replay_probe) = Simulation::<P, _, _, _, B, L>::with_instruments(
            sim_config(t.s),
            (t.make_nodes)(),
            replay_adv,
            replay_delivery,
            LemmaSuite::new(),
            (self.0)(),
        )
        .run_instrumented();
        Replayed {
            live: t.result(&live_report, name, downgraded),
            replayed: t.result(&replay_report, name, downgraded),
            live_probe,
            replay_probe,
        }
    }
}

/// Drives a trial against the adversary its scenario's attack spec
/// picks. The four generic attacks — benign, static silent, static
/// mirror and adaptive crash — run as asked against every family; any
/// other spec goes to the family's own table `own`, which returns its
/// adversary and whether it stands in for the one asked for (recorded
/// on the result as `downgraded`).
fn dispatch<D, P, L>(
    d: D,
    t: Trial<'_, P, L>,
    own: impl FnOnce(AttackSpec) -> (Attack<'static, P, L>, bool),
) -> D::Out
where
    D: Drive,
    P: Protocol + Send,
    P::Msg: Send + Sync,
    L: MessagePlane<P::Msg> + Sync,
{
    let s = t.s;
    let (adversary, downgraded): (Attack<'static, P, L>, bool) = match s.attack {
        AttackSpec::Benign => (Box::new(Benign), false),
        AttackSpec::StaticSilent => (
            Box::new(StaticByzantine::first_t(s.t, StaticBehavior::Silence)),
            false,
        ),
        AttackSpec::StaticMirror => (
            Box::new(StaticByzantine::first_t(s.t, StaticBehavior::MirrorRandom)),
            false,
        ),
        AttackSpec::Crash { per_round } => (Box::new(AdaptiveCrash::steady(per_round)), false),
        other => own(other),
    };
    d.drive(t, adversary, downgraded)
}

/// Dispatches the one-shot coin. Attacks that don't understand the coin
/// degrade to [`CoinKiller`], the strongest coin-aware adversary.
fn dispatch_coin<D, L>(d: D, s: &Scenario) -> D::Out
where
    D: Drive,
    L: MessagePlane<CoinMsg> + Sync,
{
    let make = || CoinFlipNode::network(s.n);
    let t = Trial::<_, L>::new(s, &make, Eval::Coin);
    let killer = || CoinKiller::new(NonRushingPolicy::Guaranteed);
    dispatch(d, t, |attack| match attack {
        AttackSpec::CoinKiller => (Box::new(killer()), false),
        // The capped *combined* attack doesn't exist for the coin; the
        // capped coin killer stands in — a substitution, so flagged.
        AttackSpec::FullAttackCapped { q } => (Box::new(BudgetCapped::new(killer(), q)), true),
        _ => (Box::new(killer()), true),
    })
}

/// Dispatches the sampling-majority dynamic. Attacks that don't
/// understand it degrade to [`SamplingPoison`], the strongest
/// sampling-aware adversary.
fn dispatch_sampling<D, L>(d: D, s: &Scenario, iters: u64) -> D::Out
where
    D: Drive,
    L: MessagePlane<SmMsg> + Sync,
{
    let iters = if iters == 0 {
        SamplingMajorityNode::recommended_iterations(s.n)
    } else {
        iters
    };
    let inputs = s.inputs.materialize(s.n, s.seed);
    let make = || SamplingMajorityNode::network(s.n, iters, &inputs);
    let t = Trial::<_, L>::new(s, &make, Eval::Inputs(&inputs));
    let poison = SamplingPoison::eager;
    dispatch(d, t, |attack| match attack {
        AttackSpec::SamplingPoison => (Box::new(poison()), false),
        // As with the coin: the capped combined attack degrades to the
        // capped poisoner, and the substitution is flagged.
        AttackSpec::FullAttackCapped { q } => (Box::new(BudgetCapped::new(poison(), q)), true),
        _ => (Box::new(poison()), true),
    })
}

/// Dispatches the King–Saia sampled-committee protocol. As with
/// Phase-King, the BA-state-aware attacks don't speak its message type;
/// they degrade to adaptive crash, the strongest generic adversary.
fn dispatch_king_saia<D, L>(d: D, s: &Scenario, iters: u64) -> D::Out
where
    D: Drive,
    L: MessagePlane<KsMsg> + Sync,
{
    let iters = if iters == 0 {
        KingSaiaNode::recommended_iterations(s.n)
    } else {
        iters
    };
    let inputs = s.inputs.materialize(s.n, s.seed);
    let make = || KingSaiaNode::network(s.n, iters, &inputs, s.seed);
    let t = Trial::<_, L>::new(s, &make, Eval::Inputs(&inputs));
    let crash = || AdaptiveCrash::steady(1);
    dispatch(d, t, |attack| match attack {
        // The capped combined attack degrades to capped adaptive crash;
        // the substitution is flagged.
        AttackSpec::FullAttackCapped { q } => (Box::new(BudgetCapped::new(crash(), q)), true),
        _ => (Box::new(crash()), true),
    })
}

/// Dispatches a committee-protocol scenario. Protocol-mismatched attacks
/// degrade to the strongest committee-aware adversary.
fn dispatch_committee<D, L>(d: D, s: &Scenario, cfg: &BaConfig) -> D::Out
where
    D: Drive,
    L: MessagePlane<BaMsg> + Sync,
{
    let inputs = s.inputs.materialize(s.n, s.seed);
    let make = || CommitteeBa::network(cfg, &inputs);
    let t = Trial::<_, L>::new(s, &make, Eval::Inputs(&inputs));
    let full = AdaptiveFullAttack::new;
    dispatch(d, t, |attack| match attack {
        AttackSpec::SplitVote => (Box::new(SplitVote::new()), false),
        AttackSpec::FullAttack => (Box::new(full(BudgetPolicy::Greedy)), false),
        AttackSpec::FullAttackFrugal => (Box::new(full(BudgetPolicy::Frugal)), false),
        AttackSpec::FullAttackCapped { q } => (
            Box::new(BudgetCapped::new(full(BudgetPolicy::Greedy), q)),
            false,
        ),
        _ => (Box::new(full(BudgetPolicy::Greedy)), true),
    })
}

/// Dispatches the deterministic Phase-King baseline. The BA-state-aware
/// attacks don't apply to its message type; they degrade to adaptive
/// crash, the strongest generic adversary. The substitution is recorded
/// on the result (`downgraded` + the `adversary` name), so a sweep never
/// misattributes Phase-King numbers to an attack that never ran.
fn dispatch_phase_king<D, L>(d: D, s: &Scenario) -> D::Out
where
    D: Drive,
    L: MessagePlane<PkMsg> + Sync,
{
    let inputs = s.inputs.materialize(s.n, s.seed);
    let make = || PhaseKingBa::network(s.n, s.t, &inputs);
    let t = Trial::<_, L>::new(s, &make, Eval::Inputs(&inputs));
    dispatch(d, t, |_| (Box::new(AdaptiveCrash::steady(1)), true))
}

/// The committee-family protocol configuration of a scenario, or `None`
/// for the non-committee protocols.
pub(crate) fn committee_config(s: &Scenario) -> Option<BaConfig> {
    let cfg = match s.protocol {
        ProtocolSpec::Paper { alpha } => BaConfig::paper(s.n, s.t, alpha),
        ProtocolSpec::PaperLasVegas { alpha } => BaConfig::paper_las_vegas(s.n, s.t, alpha),
        ProtocolSpec::PaperLiteralCoin { alpha } => BaConfig::paper_las_vegas(s.n, s.t, alpha)
            .map(|c| c.with_coin_round(CoinRoundMode::Literal)),
        ProtocolSpec::ChorCoan { beta } => BaConfig::chor_coan(s.n, s.t, beta),
        ProtocolSpec::RabinDealer => BaConfig::rabin_dealer(s.n, s.t, s.seed ^ 0xDEA1),
        ProtocolSpec::BenOrPrivate => BaConfig::ben_or_private(s.n, s.t),
        ProtocolSpec::PhaseKing
        | ProtocolSpec::CommonCoin
        | ProtocolSpec::SamplingMajority { .. }
        | ProtocolSpec::KingSaia { .. } => return None,
    };
    Some(cfg.expect("valid (n, t)"))
}

/// Runs a scenario's committee-family protocol against a caller-supplied
/// adversary — the facade's escape hatch for custom attack research. The
/// adversary is typed against the dense plane, so the run uses it
/// whatever the scenario's `plane` asks for.
///
/// # Panics
///
/// Panics if the scenario's protocol is not committee-based (the custom
/// adversary is typed against [`CommitteeBa`]).
pub(crate) fn run_committee_custom<A>(s: &Scenario, adversary: A) -> TrialResult
where
    A: Adversary<CommitteeBa>,
{
    let cfg = committee_config(s).unwrap_or_else(|| {
        panic!(
            "custom adversaries run against committee-family protocols; {} is not one",
            s.protocol.name()
        )
    });
    let inputs = s.inputs.materialize(s.n, s.seed);
    let make = || CommitteeBa::network(&cfg, &inputs);
    let t = Trial::<_, Dense<CommitteeBa>>::new(s, &make, Eval::Inputs(&inputs));
    Once(LemmaSuite::new(), NoProbe)
        .drive(t, Box::new(adversary), false)
        .result
}

/// Drives one scenario to completion under the given strategy, on the
/// plane [`Family::plane`] picks for it — the one path every entry
/// point takes.
///
/// # Panics
///
/// Panics if the scenario's `(n, t)` violates a protocol precondition
/// (`n ≥ 3t + 1`); scenario construction is programmer-controlled.
pub(crate) fn drive_scenario<D: Drive>(d: D, s: &Scenario) -> D::Out {
    let plane = Family::of(s.protocol).plane(s.plane);
    if let Some(cfg) = committee_config(s) {
        return match plane {
            PlaneSpec::Packed => dispatch_committee::<D, Packed<CommitteeBa>>(d, s, &cfg),
            _ => dispatch_committee::<D, Dense<CommitteeBa>>(d, s, &cfg),
        };
    }
    match (s.protocol, plane) {
        (ProtocolSpec::SamplingMajority { iters }, PlaneSpec::Sparse) => {
            dispatch_sampling::<D, Sparse<SamplingMajorityNode>>(d, s, iters)
        }
        (ProtocolSpec::SamplingMajority { iters }, _) => {
            dispatch_sampling::<D, Dense<SamplingMajorityNode>>(d, s, iters)
        }
        (ProtocolSpec::KingSaia { iters }, PlaneSpec::Sparse) => {
            dispatch_king_saia::<D, Sparse<KingSaiaNode>>(d, s, iters)
        }
        (ProtocolSpec::KingSaia { iters }, _) => {
            dispatch_king_saia::<D, Dense<KingSaiaNode>>(d, s, iters)
        }
        (ProtocolSpec::CommonCoin, _) => dispatch_coin::<D, Dense<CoinFlipNode>>(d, s),
        (ProtocolSpec::PhaseKing, _) => dispatch_phase_king::<D, Dense<PhaseKingBa>>(d, s),
        _ => unreachable!("committee-family protocols are handled above"),
    }
}

/// Runs one scenario to completion.
///
/// # Panics
///
/// Same preconditions as [`drive_scenario`].
pub(crate) fn run_scenario(s: &Scenario) -> TrialResult {
    drive_scenario(Once(LemmaSuite::new(), NoProbe), s).result
}

/// Runs one scenario to completion with `probe` attached, on the same
/// path as [`run_scenario`], and returns the probe with the result.
///
/// # Panics
///
/// Same preconditions as [`drive_scenario`].
pub(crate) fn run_scenario_with_probe<B: Probe>(s: &Scenario, probe: B) -> (TrialResult, B) {
    let ran = drive_scenario(Once(LemmaSuite::new(), probe), s);
    (ran.result, ran.probe)
}

/// Runs `trials` seed-shifted copies of a base scenario in parallel,
/// evaluating each with `run`, and returns results in seed order.
///
/// Scheduling is work-stealing: workers claim trials one at a time from
/// a shared atomic index, so a single slow trial (a long Las Vegas tail,
/// a round-cap run under an adverse network) occupies one core instead
/// of idling everything behind a statically-assigned chunk.
pub(crate) fn run_many_with<R, F>(base: &Scenario, trials: usize, run: F) -> Vec<R>
where
    R: Send,
    F: Fn(&Scenario) -> R + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};

    if trials == 0 {
        return Vec::new();
    }
    let scenarios: Vec<Scenario> = (0..trials as u64)
        .map(|i| {
            let mut s = base.clone();
            s.seed = base.seed.wrapping_add(i);
            s
        })
        .collect();
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(scenarios.len());
    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<R>> = (0..scenarios.len()).map(|_| None).collect();
    let run = &run;
    let next = &next;
    let scenarios = &scenarios;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(scenario) = scenarios.get(i) else {
                            break;
                        };
                        local.push((i, run(scenario)));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            for (i, result) in handle.join().expect("worker thread panicked") {
                results[i] = Some(result);
            }
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("all slots filled"))
        .collect()
}

/// Runs `trials` seeds of a base scenario in parallel and returns results
/// in seed order.
pub(crate) fn run_many(base: &Scenario, trials: usize) -> Vec<TrialResult> {
    run_many_with(base, trials, run_scenario)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::InputSpec;

    #[test]
    fn every_protocol_runs_benign() {
        for proto in [
            ProtocolSpec::Paper { alpha: 2.0 },
            ProtocolSpec::PaperLasVegas { alpha: 2.0 },
            ProtocolSpec::PaperLiteralCoin { alpha: 2.0 },
            ProtocolSpec::ChorCoan { beta: 1.0 },
            ProtocolSpec::RabinDealer,
            ProtocolSpec::BenOrPrivate,
            ProtocolSpec::PhaseKing,
            ProtocolSpec::KingSaia { iters: 0 },
        ] {
            let s = Scenario::new(16, 5)
                .with_protocol(proto)
                .with_attack(AttackSpec::Benign)
                .with_inputs(InputSpec::AllSame(true));
            let r = run_scenario(&s);
            assert!(r.correct(), "{} failed: {r:?}", proto.name());
            assert_eq!(r.decision, Some(true));
            assert!(!r.downgraded, "{}: benign never downgrades", proto.name());
        }
    }

    #[test]
    fn every_attack_runs_on_paper_protocol() {
        for attack in [
            AttackSpec::Benign,
            AttackSpec::StaticSilent,
            AttackSpec::StaticMirror,
            AttackSpec::Crash { per_round: 1 },
            AttackSpec::SplitVote,
            AttackSpec::FullAttack,
            AttackSpec::FullAttackFrugal,
            AttackSpec::FullAttackCapped { q: 2 },
        ] {
            let s = Scenario::new(16, 5)
                .with_protocol(ProtocolSpec::PaperLasVegas { alpha: 2.0 })
                .with_attack(attack);
            let r = run_scenario(&s);
            assert!(r.terminated, "{} never terminated", attack.name());
            assert!(r.agreement, "{} broke agreement: {r:?}", attack.name());
            assert!(!r.downgraded, "{} applies as-is", attack.name());
        }
    }

    #[test]
    fn capped_attack_respects_q() {
        let s = Scenario::new(31, 10)
            .with_protocol(ProtocolSpec::PaperLasVegas { alpha: 2.0 })
            .with_attack(AttackSpec::FullAttackCapped { q: 3 });
        let r = run_scenario(&s);
        assert!(r.corruptions <= 3, "corruptions {} > q", r.corruptions);
    }

    #[test]
    fn run_many_is_deterministic_and_ordered() {
        let s = Scenario::new(16, 5).with_attack(AttackSpec::SplitVote);
        let a = run_many(&s, 8);
        let b = run_many(&s, 8);
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        // Different seeds should produce at least two distinct round
        // counts across 8 trials of a randomized protocol.
        // aba-lint: allow(hash-nondeterminism) — distinctness count only; iteration order never observed
        let distinct: std::collections::HashSet<u64> = a.iter().map(|r| r.rounds).collect();
        assert!(!distinct.is_empty());
    }

    #[test]
    fn congest_bound_holds_in_trials() {
        let s = Scenario::new(32, 10).with_attack(AttackSpec::FullAttack);
        let r = run_scenario(&s);
        // O(log n) bits per edge per round with a generous constant.
        let budget = 8.0 * (32f64).log2();
        assert!(
            (r.max_edge_bits as f64) <= budget,
            "edge bits {} exceed {budget}",
            r.max_edge_bits
        );
    }

    #[test]
    fn sparse_plane_reproduces_dense_trials() {
        // Plane choice is an execution strategy, never a semantics
        // change: for the whole sampled family, every attack spec must
        // yield the identical TrialResult on both planes.
        for proto in [
            ProtocolSpec::SamplingMajority { iters: 6 },
            ProtocolSpec::KingSaia { iters: 4 },
        ] {
            for attack in [
                AttackSpec::Benign,
                AttackSpec::StaticSilent,
                AttackSpec::StaticMirror,
                AttackSpec::Crash { per_round: 1 },
                AttackSpec::FullAttackCapped { q: 2 },
                AttackSpec::SamplingPoison,
                AttackSpec::FullAttack,
            ] {
                let dense = Scenario::new(24, 7)
                    .with_protocol(proto)
                    .with_attack(attack)
                    .with_inputs(InputSpec::Random);
                let sparse = dense.clone().with_plane(PlaneSpec::Sparse);
                assert_eq!(
                    run_scenario(&dense),
                    run_scenario(&sparse),
                    "{} under {} diverged across planes",
                    proto.name(),
                    attack.name()
                );
            }
        }
    }

    #[test]
    fn sparse_plane_falls_back_to_dense_outside_the_sampled_family() {
        let s = Scenario::new(16, 5)
            .with_attack(AttackSpec::FullAttack)
            .with_plane(PlaneSpec::Sparse);
        assert_eq!(
            run_scenario(&s),
            run_scenario(&s.clone().with_plane(PlaneSpec::Dense))
        );
    }

    #[test]
    fn plane_table_is_pinned() {
        use PlaneSpec::{Dense, Packed, Sparse};
        // Requested Dense, Packed, Sparse → the plane that runs.
        for (family, runs_on) in [
            (Family::Committee, [Dense, Packed, Dense]),
            (Family::Sampled, [Dense, Dense, Sparse]),
            (Family::DenseOnly, [Dense, Dense, Dense]),
        ] {
            for (requested, expected) in [Dense, Packed, Sparse].into_iter().zip(runs_on) {
                assert_eq!(
                    family.plane(requested),
                    expected,
                    "{family:?} asked for {requested:?}"
                );
            }
        }
        for (proto, family) in [
            (ProtocolSpec::Paper { alpha: 2.0 }, Family::Committee),
            (
                ProtocolSpec::PaperLasVegas { alpha: 2.0 },
                Family::Committee,
            ),
            (
                ProtocolSpec::PaperLiteralCoin { alpha: 2.0 },
                Family::Committee,
            ),
            (ProtocolSpec::ChorCoan { beta: 1.0 }, Family::Committee),
            (ProtocolSpec::RabinDealer, Family::Committee),
            (ProtocolSpec::BenOrPrivate, Family::Committee),
            (ProtocolSpec::SamplingMajority { iters: 0 }, Family::Sampled),
            (ProtocolSpec::KingSaia { iters: 0 }, Family::Sampled),
            (ProtocolSpec::CommonCoin, Family::DenseOnly),
            (ProtocolSpec::PhaseKing, Family::DenseOnly),
        ] {
            assert_eq!(Family::of(proto), family, "{}", proto.name());
        }
    }

    #[test]
    fn attack_table_is_pinned() {
        // The adversary that runs for each attack spec: as asked (`ran`)
        // or standing in for it (`sub`, recorded as `downgraded`).
        // Columns: committee BA (all six variants), sampling majority,
        // King–Saia, the common coin, Phase-King.
        let ran = |name| (name, false);
        let sub = |name| (name, true);
        let (full, poison, crash, coin) = (
            sub("adaptive-full"),
            sub("sampling-poison"),
            sub("crash-steady"),
            sub("coin-killer"),
        );
        let table = [
            (AttackSpec::Benign, [ran("benign"); 5]),
            (AttackSpec::StaticSilent, [ran("static-silent"); 5]),
            (AttackSpec::StaticMirror, [ran("static-mirror"); 5]),
            (AttackSpec::Crash { per_round: 1 }, [ran("crash-steady"); 5]),
            (
                AttackSpec::SplitVote,
                [ran("split-vote"), poison, crash, coin, crash],
            ),
            (
                AttackSpec::FullAttack,
                [ran("adaptive-full"), poison, crash, coin, crash],
            ),
            (
                AttackSpec::FullAttackFrugal,
                [ran("adaptive-full"), poison, crash, coin, crash],
            ),
            (
                AttackSpec::FullAttackCapped { q: 2 },
                [
                    ran("budget-capped"),
                    sub("budget-capped"),
                    sub("budget-capped"),
                    sub("budget-capped"),
                    crash,
                ],
            ),
            (
                AttackSpec::CoinKiller,
                [full, poison, crash, ran("coin-killer"), crash],
            ),
            (
                AttackSpec::SamplingPoison,
                [full, ran("sampling-poison"), crash, coin, crash],
            ),
        ];
        for (proto, column) in [
            (ProtocolSpec::Paper { alpha: 2.0 }, 0),
            (ProtocolSpec::PaperLasVegas { alpha: 2.0 }, 0),
            (ProtocolSpec::PaperLiteralCoin { alpha: 2.0 }, 0),
            (ProtocolSpec::ChorCoan { beta: 1.0 }, 0),
            (ProtocolSpec::RabinDealer, 0),
            (ProtocolSpec::BenOrPrivate, 0),
            (ProtocolSpec::SamplingMajority { iters: 4 }, 1),
            (ProtocolSpec::KingSaia { iters: 4 }, 2),
            (ProtocolSpec::CommonCoin, 3),
            (ProtocolSpec::PhaseKing, 4),
        ] {
            // Every plane the protocol's family runs on.
            let planes = [PlaneSpec::Dense, PlaneSpec::Packed, PlaneSpec::Sparse]
                .into_iter()
                .filter(|&p| Family::of(proto).plane(p) == p);
            for plane in planes {
                for (attack, row) in table {
                    let s = Scenario::new(16, 5)
                        .with_protocol(proto)
                        .with_attack(attack)
                        .with_plane(plane)
                        .with_max_rounds(8);
                    let r = run_scenario(&s);
                    assert_eq!(
                        (r.adversary, r.downgraded),
                        row[column],
                        "{} under {} on {plane:?}",
                        proto.name(),
                        attack.name()
                    );
                }
            }
        }
    }

    #[test]
    fn king_saia_downgrade_is_recorded() {
        for attack in [
            AttackSpec::SplitVote,
            AttackSpec::FullAttack,
            AttackSpec::CoinKiller,
            AttackSpec::SamplingPoison,
        ] {
            let s = Scenario::new(16, 5)
                .with_protocol(ProtocolSpec::KingSaia { iters: 4 })
                .with_attack(attack);
            let r = run_scenario(&s);
            assert!(r.downgraded, "{} must be flagged", attack.name());
            assert_eq!(r.adversary, "crash-steady", "{}", attack.name());
        }
    }

    #[test]
    fn phase_king_downgrade_is_recorded() {
        // Regression for the silent Phase-King fallback: every
        // BA-state-aware attack spec degrades to adaptive crash, and the
        // substitution must be visible on the result.
        for attack in [
            AttackSpec::SplitVote,
            AttackSpec::FullAttack,
            AttackSpec::FullAttackFrugal,
            AttackSpec::FullAttackCapped { q: 2 },
            AttackSpec::CoinKiller,
            AttackSpec::SamplingPoison,
        ] {
            let s = Scenario::new(16, 5)
                .with_protocol(ProtocolSpec::PhaseKing)
                .with_attack(attack);
            let r = run_scenario(&s);
            assert!(r.downgraded, "{} must be flagged", attack.name());
            assert_eq!(r.adversary, "crash-steady", "{}", attack.name());
            assert_ne!(r.adversary, attack.name());
        }
        // Applicable specs are not flagged.
        for attack in [
            AttackSpec::Benign,
            AttackSpec::StaticSilent,
            AttackSpec::StaticMirror,
            AttackSpec::Crash { per_round: 1 },
        ] {
            let s = Scenario::new(16, 5)
                .with_protocol(ProtocolSpec::PhaseKing)
                .with_attack(attack);
            let r = run_scenario(&s);
            assert!(!r.downgraded, "{} applies to Phase-King", attack.name());
        }
    }
}
