//! Declarative description of one simulation trial.
//!
//! A [`Scenario`] fully determines a run: protocol, adversary, input
//! assignment, sizes, seed, and information model. The runner compiles
//! the simulation loop once per protocol, message plane and network
//! model, so the per-message work stays statically dispatched; the
//! adversary, which acts once per round, is picked at run time and runs
//! behind a box.

use aba_net::DelayScheduler;
use aba_sim::InfoModel;

/// Which agreement protocol to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProtocolSpec {
    /// The paper's Algorithm 3, whp mode (exactly `c` phases).
    Paper {
        /// Committee-count constant α.
        alpha: f64,
    },
    /// The paper's Las Vegas variant (Section 3.2).
    PaperLasVegas {
        /// Committee-count constant α.
        alpha: f64,
    },
    /// Same as `PaperLasVegas` but with the literal 3-round phases.
    PaperLiteralCoin {
        /// Committee-count constant α.
        alpha: f64,
    },
    /// Chor–Coan baseline: `Θ(log n)`-size committees, Las Vegas.
    ChorCoan {
        /// Committee-size constant β (size = ⌈β·log₂ n⌉).
        beta: f64,
    },
    /// Rabin's trusted-dealer protocol.
    RabinDealer,
    /// Ben-Or-style private-coin baseline (no shared coin at all).
    BenOrPrivate,
    /// Deterministic Phase-King baseline.
    PhaseKing,
    /// One-shot common coin (Algorithm 1: the whole network flips).
    ///
    /// `agreement` in the [`crate::TrialResult`] means the coin was
    /// *common*; `decision` is the coin value; validity is vacuous.
    CommonCoin,
    /// Sampling-majority dynamic (almost-everywhere agreement baseline,
    /// Section 1.3). `iters = 0` uses the recommended `Θ(log² n)` count.
    SamplingMajority {
        /// Sampling iterations (0 = recommended for `n`).
        iters: u64,
    },
    /// King–Saia-style sampled-committee agreement (*Breaking the O(n²)
    /// Bit Barrier*): public `Θ(log² n)` committee on the pinned
    /// committee RNG stream, sub-quadratic on the wire. `iters = 0`
    /// uses the recommended `Θ(log n)` count.
    KingSaia {
        /// Protocol iterations (0 = recommended for `n`).
        iters: u64,
    },
}

impl ProtocolSpec {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            ProtocolSpec::Paper { .. } => "paper",
            ProtocolSpec::PaperLasVegas { .. } => "paper-lv",
            ProtocolSpec::PaperLiteralCoin { .. } => "paper-literal",
            ProtocolSpec::ChorCoan { .. } => "chor-coan",
            ProtocolSpec::RabinDealer => "rabin-dealer",
            ProtocolSpec::BenOrPrivate => "ben-or-private",
            ProtocolSpec::PhaseKing => "phase-king",
            ProtocolSpec::CommonCoin => "common-coin",
            ProtocolSpec::SamplingMajority { .. } => "sampling-majority",
            ProtocolSpec::KingSaia { .. } => "king-saia",
        }
    }
}

/// Which adversary to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttackSpec {
    /// No corruptions at all.
    Benign,
    /// Static silent adversary corrupting the `t` lowest IDs at round 0.
    StaticSilent,
    /// Static equivocating replayer.
    StaticMirror,
    /// Adaptive crash faults, `per_round` crashes per round.
    Crash {
        /// Crashes per round.
        per_round: usize,
    },
    /// The pure coin-splitting adversary.
    SplitVote,
    /// The combined adaptive rushing attack (greedy budget).
    FullAttack,
    /// The combined attack with the frugal budget policy.
    FullAttackFrugal,
    /// The combined attack capped at `q` corruptions (early-termination
    /// experiments).
    FullAttackCapped {
        /// Corruption cap `q ≤ t`.
        q: usize,
    },
    /// The optimal coin-denial adversary (Algorithm 1/2-aware). Only
    /// meaningful against [`super::ProtocolSpec::CommonCoin`]; other
    /// protocols degrade it to their strongest applicable attack.
    CoinKiller,
    /// The sampling-majority poisoner. Only meaningful against
    /// [`super::ProtocolSpec::SamplingMajority`]; other protocols degrade
    /// it to their strongest applicable attack.
    SamplingPoison,
}

impl AttackSpec {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            AttackSpec::Benign => "benign",
            AttackSpec::StaticSilent => "static-silent",
            AttackSpec::StaticMirror => "static-mirror",
            AttackSpec::Crash { .. } => "crash",
            AttackSpec::SplitVote => "split-vote",
            AttackSpec::FullAttack => "full-attack",
            AttackSpec::FullAttackFrugal => "full-frugal",
            AttackSpec::FullAttackCapped { .. } => "full-capped",
            AttackSpec::CoinKiller => "coin-killer",
            AttackSpec::SamplingPoison => "sampling-poison",
        }
    }
}

/// Input assignment across the `n` nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputSpec {
    /// Every node starts with `b` (validity experiments).
    AllSame(bool),
    /// Even IDs start 1, odd IDs start 0 (the adversary's favourite).
    Split,
    /// Node `i` starts with bit `i` of a seeded pseudorandom pattern.
    Random,
}

impl InputSpec {
    /// Materializes the assignment.
    pub fn materialize(&self, n: usize, seed: u64) -> Vec<bool> {
        match self {
            InputSpec::AllSame(b) => vec![*b; n],
            InputSpec::Split => (0..n).map(|i| i % 2 == 0).collect(),
            InputSpec::Random => {
                let mut state = seed ^ 0xC0FF_EE00_D15E_A5E5;
                (0..n)
                    .map(|_| aba_sim::rng::splitmix64(&mut state) & 1 == 1)
                    .collect()
            }
        }
    }

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            InputSpec::AllSame(true) => "all-1",
            InputSpec::AllSame(false) => "all-0",
            InputSpec::Split => "split",
            InputSpec::Random => "random",
        }
    }
}

/// Which network conditions the messages travel under.
///
/// Declarative counterpart of the `aba-net` models; the runner
/// instantiates the concrete model (seeded from the scenario's master
/// seed on the dedicated network RNG stream) at dispatch time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NetworkSpec {
    /// Lock-step synchrony: every message delivered in its emission
    /// round (the paper's model; the default).
    Synchronous,
    /// Each directed message is independently dropped with probability
    /// `p_drop`.
    LossyLinks {
        /// Per-message drop probability in `[0, 1]`.
        p_drop: f64,
    },
    /// Bounded-delay partial synchrony: every message arrives within
    /// `max_delay` rounds of emission.
    BoundedDelay {
        /// The delay bound (0 degenerates to synchrony).
        max_delay: u64,
        /// Who picks each message's delay within the bound.
        scheduler: DelayScheduler,
    },
    /// A striped partition (node `i` in group `i % groups`) that heals
    /// at `heal_round`.
    Partition {
        /// Number of groups (≥ 1).
        groups: usize,
        /// First round at which cross-group traffic flows again.
        heal_round: u64,
    },
}

impl NetworkSpec {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            NetworkSpec::Synchronous => "sync",
            NetworkSpec::LossyLinks { .. } => "lossy",
            NetworkSpec::BoundedDelay {
                scheduler: DelayScheduler::Random,
                ..
            } => "bounded-delay",
            NetworkSpec::BoundedDelay {
                scheduler: DelayScheduler::DelayHonest,
                ..
            } => "bounded-delay-adv",
            NetworkSpec::Partition { .. } => "partition",
        }
    }
}

/// Which message plane a run stores its rounds on.
///
/// Purely an execution-strategy knob: every plane reproduces the same
/// observable semantics, so `TrialResult`s, oracle reports and every
/// artifact are identical whichever runs. Every entry point (run,
/// check, observe, provenance and the three replays) honours it through
/// one table, by protocol family:
///
/// | requested | committee family | sampled family | coin, Phase-King |
/// |---|---|---|---|
/// | `Dense` | dense | dense | dense |
/// | `Packed` | packed | dense | dense |
/// | `Sparse` | dense | sparse | dense |
///
/// The committee family is the paper's protocols plus Chor–Coan,
/// Rabin's dealer and Ben-Or; the sampled family is sampling majority
/// and King–Saia.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlaneSpec {
    /// The dense broadcast-base + deviation-cell mailbox (the default;
    /// works for every protocol).
    #[default]
    Dense,
    /// The bit-packed binary plane (u64 bitset rows, word-parallel
    /// tallies): faster at large `n` for the committee family, whose
    /// messages pack to a 32-bit code.
    Packed,
    /// The sparse plane (one flat per-round arena of deviation cells,
    /// never an `n × n` allocation): memory follows the traffic, for
    /// the sampled family's sub-quadratic runs.
    Sparse,
}

impl PlaneSpec {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            PlaneSpec::Dense => "dense",
            PlaneSpec::Packed => "packed",
            PlaneSpec::Sparse => "sparse",
        }
    }
}

/// A fully specified trial.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Network size.
    pub n: usize,
    /// Fault budget `t` (protocol parameter and adversary budget).
    pub t: usize,
    /// Protocol under test.
    pub protocol: ProtocolSpec,
    /// Adversary.
    pub attack: AttackSpec,
    /// Input assignment.
    pub inputs: InputSpec,
    /// Information model.
    pub info: InfoModel,
    /// Network conditions.
    pub network: NetworkSpec,
    /// Master seed.
    pub seed: u64,
    /// Round cap (runs hitting it count as non-terminating).
    pub max_rounds: u64,
    /// In-round worker threads for the per-node protocol step (1 =
    /// serial). Results are byte-identical at any thread count.
    pub threads: usize,
    /// Message plane to run on (execution strategy only; results are
    /// identical across planes).
    pub plane: PlaneSpec,
}

impl Scenario {
    /// A scenario with sensible defaults: paper protocol (α = 2), full
    /// attack, split inputs, rushing, synchronous network, 20 000-round
    /// cap.
    pub fn new(n: usize, t: usize) -> Self {
        Scenario {
            n,
            t,
            protocol: ProtocolSpec::Paper { alpha: 2.0 },
            attack: AttackSpec::FullAttack,
            inputs: InputSpec::Split,
            info: InfoModel::Rushing,
            network: NetworkSpec::Synchronous,
            seed: 0,
            max_rounds: 20_000,
            threads: 1,
            plane: PlaneSpec::Dense,
        }
    }

    /// Sets the protocol.
    #[must_use]
    pub fn with_protocol(mut self, p: ProtocolSpec) -> Self {
        self.protocol = p;
        self
    }

    /// Sets the adversary.
    #[must_use]
    pub fn with_attack(mut self, a: AttackSpec) -> Self {
        self.attack = a;
        self
    }

    /// Sets the inputs.
    #[must_use]
    pub fn with_inputs(mut self, i: InputSpec) -> Self {
        self.inputs = i;
        self
    }

    /// Sets the info model.
    #[must_use]
    pub fn with_info(mut self, m: InfoModel) -> Self {
        self.info = m;
        self
    }

    /// Sets the network conditions.
    #[must_use]
    pub fn with_network(mut self, net: NetworkSpec) -> Self {
        self.network = net;
        self
    }

    /// Sets the seed.
    #[must_use]
    pub fn with_seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Sets the round cap.
    #[must_use]
    pub fn with_max_rounds(mut self, r: u64) -> Self {
        self.max_rounds = r;
        self
    }

    /// Sets the in-round worker thread count (clamped to ≥ 1 at run
    /// time; 0 is treated as 1).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the message plane.
    #[must_use]
    pub fn with_plane(mut self, plane: PlaneSpec) -> Self {
        self.plane = plane;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_materialize() {
        assert_eq!(InputSpec::AllSame(true).materialize(3, 0), vec![true; 3]);
        let split = InputSpec::Split.materialize(4, 0);
        assert_eq!(split, vec![true, false, true, false]);
        let r1 = InputSpec::Random.materialize(64, 7);
        let r2 = InputSpec::Random.materialize(64, 7);
        assert_eq!(r1, r2, "deterministic in seed");
        let r3 = InputSpec::Random.materialize(64, 8);
        assert_ne!(r1, r3, "varies with seed");
        assert!(r1.iter().any(|b| *b) && r1.iter().any(|b| !*b));
    }

    #[test]
    fn names_are_short_and_stable() {
        assert_eq!(ProtocolSpec::Paper { alpha: 2.0 }.name(), "paper");
        assert_eq!(ProtocolSpec::KingSaia { iters: 0 }.name(), "king-saia");
        assert_eq!(AttackSpec::FullAttack.name(), "full-attack");
        assert_eq!(InputSpec::Split.name(), "split");
        assert_eq!(InputSpec::AllSame(false).name(), "all-0");
        assert_eq!(NetworkSpec::Synchronous.name(), "sync");
        assert_eq!(NetworkSpec::LossyLinks { p_drop: 0.1 }.name(), "lossy");
        assert_eq!(
            NetworkSpec::BoundedDelay {
                max_delay: 2,
                scheduler: DelayScheduler::Random
            }
            .name(),
            "bounded-delay"
        );
        assert_eq!(
            NetworkSpec::BoundedDelay {
                max_delay: 2,
                scheduler: DelayScheduler::DelayHonest
            }
            .name(),
            "bounded-delay-adv"
        );
        assert_eq!(
            NetworkSpec::Partition {
                groups: 2,
                heal_round: 5
            }
            .name(),
            "partition"
        );
    }

    #[test]
    fn builder_chain() {
        let s = Scenario::new(64, 10)
            .with_protocol(ProtocolSpec::ChorCoan { beta: 1.0 })
            .with_attack(AttackSpec::Benign)
            .with_inputs(InputSpec::AllSame(true))
            .with_info(InfoModel::NonRushing)
            .with_network(NetworkSpec::LossyLinks { p_drop: 0.2 })
            .with_seed(42)
            .with_max_rounds(99);
        assert_eq!(s.n, 64);
        assert_eq!(s.seed, 42);
        assert_eq!(s.max_rounds, 99);
        assert_eq!(s.protocol.name(), "chor-coan");
        assert_eq!(s.network.name(), "lossy");
    }

    #[test]
    fn default_network_is_synchronous() {
        assert_eq!(Scenario::new(7, 2).network, NetworkSpec::Synchronous);
    }

    #[test]
    fn plane_and_threads_default_dense_and_serial() {
        let s = Scenario::new(8, 2);
        assert_eq!(s.threads, 1);
        assert_eq!(s.plane, PlaneSpec::Dense);
        let s = s.with_threads(4).with_plane(PlaneSpec::Packed);
        assert_eq!(s.threads, 4);
        assert_eq!(s.plane.name(), "packed");
        assert_eq!(PlaneSpec::Sparse.name(), "sparse");
        assert_eq!(PlaneSpec::default().name(), "dense");
    }
}
