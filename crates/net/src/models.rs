//! The four shipped network-condition models.
//!
//! All models are deterministic given the engine's network RNG stream,
//! so any run — under any model — replays bit-for-bit from its master
//! seed.

use crate::model::{Fate, Link, NetworkModel};
use aba_sim::{NodeId, Round};
use rand::RngCore;

/// The paper's lock-step synchronous network: every message is delivered
/// in its emission round. This is the default model and preserves the
/// pre-network engine behavior exactly (it is transparent every round,
/// so the driver never expands broadcasts or touches the RNG).
#[derive(Debug, Clone, Copy, Default)]
pub struct Synchronous;

impl NetworkModel for Synchronous {
    fn route<R: RngCore + ?Sized>(&mut self, _round: Round, _link: Link, _rng: &mut R) -> Fate {
        Fate::Deliver
    }

    fn transparent(&self, _round: Round) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "sync"
    }
}

/// Independent per-message loss: each directed message is destroyed with
/// probability `p_drop`. A broadcast may therefore reach only a subset
/// of the network — exactly the erasure behavior of unreliable links.
#[derive(Debug, Clone, Copy)]
pub struct LossyLinks {
    p_drop: f64,
    /// `ceil(p_drop * 2^53)`: the integer drop threshold. `gen_bool`
    /// compares a 53-bit draw scaled by `2^-53` against `p_drop`; both
    /// scalings are exact (powers of two), so `draw < p_drop * 2^53`
    /// over the integers decides the *same* fate from the *same* single
    /// `next_u64` — replays stay bit-identical while the per-edge hot
    /// path loses the int→float convert and multiply.
    drop_threshold: u64,
}

impl LossyLinks {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics unless `p_drop` lies in `[0, 1]`.
    pub fn new(p_drop: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p_drop),
            "p_drop must be a probability, got {p_drop}"
        );
        LossyLinks {
            p_drop,
            drop_threshold: (p_drop * (1u64 << 53) as f64).ceil() as u64,
        }
    }

    /// The per-message drop probability.
    pub fn p_drop(&self) -> f64 {
        self.p_drop
    }
}

impl NetworkModel for LossyLinks {
    fn route<R: RngCore + ?Sized>(&mut self, _round: Round, _link: Link, rng: &mut R) -> Fate {
        // Integer form of `rng.gen_bool(self.p_drop)` — same draw, same
        // fate (see `drop_threshold`).
        if (rng.next_u64() >> 11) < self.drop_threshold {
            Fate::Drop
        } else {
            Fate::Deliver
        }
    }

    fn transparent(&self, _round: Round) -> bool {
        // p_drop == 0.0 still consumes one RNG draw per message in
        // `route`, so only the exact zero case could be transparent;
        // keep it simple and never claim transparency.
        false
    }

    fn name(&self) -> &'static str {
        "lossy"
    }
}

/// How [`BoundedDelay`] picks each message's delay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DelayScheduler {
    /// Uniform delay in `0..=max_delay` per message (0 = deliver now).
    Random,
    /// Worst-case scheduler: every honest-sent message is held the full
    /// `max_delay` rounds while corrupted senders' traffic arrives
    /// immediately — the adversarial scheduling of Lewko & Lewko, bounded
    /// by partial synchrony.
    DelayHonest,
}

/// Bounded-delay partial synchrony: every message arrives within
/// `max_delay` rounds of emission; the scheduler decides where in that
/// window.
#[derive(Debug, Clone, Copy)]
pub struct BoundedDelay {
    max_delay: u64,
    scheduler: DelayScheduler,
    draw: InclusiveDraw,
}

impl BoundedDelay {
    /// Creates the model. `max_delay == 0` degenerates to the
    /// synchronous network.
    pub fn new(max_delay: u64, scheduler: DelayScheduler) -> Self {
        BoundedDelay {
            max_delay,
            scheduler,
            draw: InclusiveDraw::new(max_delay),
        }
    }

    /// The delay bound.
    pub fn max_delay(&self) -> u64 {
        self.max_delay
    }
}

impl NetworkModel for BoundedDelay {
    fn route<R: RngCore + ?Sized>(&mut self, _round: Round, link: Link, rng: &mut R) -> Fate {
        if self.max_delay == 0 {
            return Fate::Deliver;
        }
        let d = match self.scheduler {
            DelayScheduler::Random => self.draw.sample(rng),
            DelayScheduler::DelayHonest => {
                if link.sender_honest {
                    self.max_delay
                } else {
                    0
                }
            }
        };
        if d == 0 {
            Fate::Deliver
        } else {
            Fate::Delay(d)
        }
    }

    fn transparent(&self, _round: Round) -> bool {
        self.max_delay == 0
    }

    fn name(&self) -> &'static str {
        match self.scheduler {
            DelayScheduler::Random => "bounded-delay",
            DelayScheduler::DelayHonest => "bounded-delay-adv",
        }
    }
}

/// `rng.gen_range(0..=max)` for one fixed `max`, without a division per
/// draw — [`BoundedDelay`] makes one draw per link.
///
/// The rand shim draws `v = next_u64()` until `v < zone`, where
/// `span = max + 1` and `zone = u64::MAX - u64::MAX % span`, and returns
/// `v % span`. Here `zone` is computed once, and the remainder is
/// Lemire's fastmod with the 128-bit constant `ceil(2^128 / span)`,
/// which is exact for every 64-bit `v` (Lemire, Kaser & Kurz, *Faster
/// Remainder by Direct Computation*, 2019). So a draw consumes the same
/// `next_u64` values as `gen_range` and returns the same value.
#[derive(Debug, Clone, Copy)]
struct InclusiveDraw {
    /// `max + 1`, or 0 for the full 64-bit domain (`max == u64::MAX`).
    span: u64,
    zone: u64,
    /// `ceil(2^128 / span)`; 0 when `span <= 1`, where every remainder
    /// is 0.
    magic: u128,
}

impl InclusiveDraw {
    fn new(max: u64) -> Self {
        let span = max.wrapping_add(1);
        InclusiveDraw {
            span,
            zone: if span == 0 {
                u64::MAX
            } else {
                u64::MAX - u64::MAX % span
            },
            magic: if span > 1 {
                u128::MAX / span as u128 + 1
            } else {
                0
            },
        }
    }

    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.span == 0 {
            return rng.next_u64(); // the full domain: nothing to reject
        }
        loop {
            let v = rng.next_u64();
            if v < self.zone {
                return self.rem(v);
            }
        }
    }

    /// `v % span`: the top 64 of the 192 bits of
    /// `(magic * v mod 2^128) * span`.
    fn rem(&self, v: u64) -> u64 {
        let low = self.magic.wrapping_mul(v as u128);
        let span = self.span as u128;
        let hi = (low >> 64) * span;
        let lo = (low as u64 as u128) * span;
        ((hi + (lo >> 64)) >> 64) as u64
    }
}

/// A temporary network partition: until `heal_round`, messages crossing
/// group boundaries are dropped; from `heal_round` on, the network is
/// whole again. Nodes not assigned to any group are isolated (each in
/// its own singleton group).
#[derive(Debug, Clone)]
pub struct Partition {
    group_of: Vec<usize>,
    heal_round: u64,
}

impl Partition {
    /// Builds a partition from explicit groups over an `n`-node network.
    ///
    /// # Panics
    ///
    /// Panics if any listed node is out of range or listed twice.
    pub fn from_groups(n: usize, groups: &[Vec<NodeId>], heal_round: u64) -> Self {
        // Unlisted nodes get singleton groups after the explicit ones.
        let mut group_of: Vec<usize> = (0..n).map(|i| groups.len() + i).collect();
        let mut seen = vec![false; n];
        for (g, members) in groups.iter().enumerate() {
            for id in members {
                assert!(id.index() < n, "node {id} out of range for n = {n}");
                assert!(!seen[id.index()], "node {id} listed in two groups");
                seen[id.index()] = true;
                group_of[id.index()] = g;
            }
        }
        Partition {
            group_of,
            heal_round,
        }
    }

    /// Builds a striped partition: node `i` joins group `i % groups`.
    ///
    /// # Panics
    ///
    /// Panics if `groups == 0`.
    pub fn striped(n: usize, groups: usize, heal_round: u64) -> Self {
        assert!(groups > 0, "need at least one group");
        Partition {
            group_of: (0..n).map(|i| i % groups).collect(),
            heal_round,
        }
    }

    /// The round from which the partition is healed.
    pub fn heal_round(&self) -> u64 {
        self.heal_round
    }

    /// Whether two nodes can talk in `round`.
    pub fn connected(&self, round: Round, a: NodeId, b: NodeId) -> bool {
        round.index() >= self.heal_round || self.group_of[a.index()] == self.group_of[b.index()]
    }
}

impl NetworkModel for Partition {
    fn route<R: RngCore + ?Sized>(&mut self, round: Round, link: Link, _rng: &mut R) -> Fate {
        if self.connected(round, link.sender, link.receiver) {
            Fate::Deliver
        } else {
            Fate::Drop
        }
    }

    fn transparent(&self, round: Round) -> bool {
        round.index() >= self.heal_round
    }

    fn name(&self) -> &'static str {
        "partition"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aba_sim::rng;

    fn link(s: u32, r: u32, honest: bool) -> Link {
        Link {
            sender: NodeId::new(s),
            receiver: NodeId::new(r),
            sender_honest: honest,
        }
    }

    #[test]
    fn synchronous_is_transparent_and_delivers() {
        let mut m = Synchronous;
        assert!(m.transparent(Round::ZERO));
        let mut r = rng::rng_for(0, rng::streams::NETWORK);
        assert_eq!(
            m.route(Round::ZERO, link(0, 1, true), &mut r),
            Fate::Deliver
        );
    }

    #[test]
    fn lossy_extremes() {
        let mut r = rng::rng_for(1, rng::streams::NETWORK);
        let mut never = LossyLinks::new(0.0);
        let mut always = LossyLinks::new(1.0);
        for i in 0..64 {
            assert_eq!(
                never.route(Round::ZERO, link(0, i, true), &mut r),
                Fate::Deliver
            );
            assert_eq!(
                always.route(Round::ZERO, link(0, i, true), &mut r),
                Fate::Drop
            );
        }
    }

    #[test]
    fn lossy_rate_is_roughly_p() {
        let mut m = LossyLinks::new(0.3);
        let mut r = rng::rng_for(2, rng::streams::NETWORK);
        let drops = (0..10_000)
            .filter(|_| m.route(Round::ZERO, link(0, 1, true), &mut r) == Fate::Drop)
            .count();
        assert!((2_700..3_300).contains(&drops), "drops = {drops}");
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn lossy_rejects_bad_probability() {
        let _ = LossyLinks::new(1.5);
    }

    #[test]
    fn bounded_delay_random_stays_in_window() {
        let mut m = BoundedDelay::new(3, DelayScheduler::Random);
        let mut r = rng::rng_for(3, rng::streams::NETWORK);
        let mut seen_delay = false;
        for _ in 0..256 {
            match m.route(Round::ZERO, link(0, 1, true), &mut r) {
                Fate::Deliver => {}
                Fate::Delay(d) => {
                    assert!((1..=3).contains(&d));
                    seen_delay = true;
                }
                Fate::Drop => panic!("bounded delay never drops"),
            }
        }
        assert!(seen_delay);
    }

    /// The division-free draw is `gen_range(0..=max_delay)` value for
    /// value and leaves the stream where `gen_range` leaves it — across
    /// small bounds, powers of two, the bound where half the draws are
    /// rejected (2^63), the widest bounded span and the full domain.
    #[test]
    fn random_delay_draw_matches_gen_range() {
        use rand::Rng;
        for max in [1, 2, 3, 7, 8, 1000, 1 << 63, u64::MAX - 1, u64::MAX] {
            let mut m = BoundedDelay::new(max, DelayScheduler::Random);
            let mut a = rng::rng_for(max, rng::streams::NETWORK);
            let mut b = a.clone();
            for i in 0..100_000 {
                let got = match m.route(Round::ZERO, link(0, 1, true), &mut a) {
                    Fate::Deliver => 0,
                    Fate::Delay(d) => d,
                    Fate::Drop => panic!("bounded delay never drops"),
                };
                assert_eq!(got, b.gen_range(0..=max), "max_delay {max}, draw {i}");
            }
            assert_eq!(a.next_u64(), b.next_u64(), "max_delay {max}: stream");
            // The remainder at the edges of the accepted zone.
            let draw = InclusiveDraw::new(max);
            if draw.span > 1 {
                let edges = [0, 1, draw.span - 1, draw.span, draw.zone - 1, u64::MAX / 2];
                for v in edges.into_iter().filter(|&v| v < draw.zone) {
                    assert_eq!(draw.rem(v), v % draw.span, "max_delay {max}, v {v}");
                }
            }
        }
    }

    #[test]
    fn adversarial_scheduler_delays_honest_only() {
        let mut m = BoundedDelay::new(4, DelayScheduler::DelayHonest);
        let mut r = rng::rng_for(4, rng::streams::NETWORK);
        assert_eq!(
            m.route(Round::ZERO, link(0, 1, true), &mut r),
            Fate::Delay(4)
        );
        assert_eq!(
            m.route(Round::ZERO, link(2, 1, false), &mut r),
            Fate::Deliver
        );
    }

    #[test]
    fn zero_delay_bound_is_transparent() {
        let m = BoundedDelay::new(0, DelayScheduler::Random);
        assert!(m.transparent(Round::ZERO));
    }

    #[test]
    fn partition_splits_then_heals() {
        let mut m = Partition::striped(4, 2, 3);
        let mut r = rng::rng_for(5, rng::streams::NETWORK);
        // Groups: {0, 2} and {1, 3}.
        assert_eq!(
            m.route(Round::ZERO, link(0, 2, true), &mut r),
            Fate::Deliver
        );
        assert_eq!(m.route(Round::ZERO, link(0, 1, true), &mut r), Fate::Drop);
        assert!(!m.transparent(Round::new(2)));
        assert!(m.transparent(Round::new(3)));
        assert_eq!(
            m.route(Round::new(3), link(0, 1, true), &mut r),
            Fate::Deliver
        );
    }

    #[test]
    fn explicit_groups_isolate_unlisted_nodes() {
        let groups = vec![vec![NodeId::new(0), NodeId::new(1)]];
        let m = Partition::from_groups(4, &groups, 10);
        assert!(m.connected(Round::ZERO, NodeId::new(0), NodeId::new(1)));
        assert!(!m.connected(Round::ZERO, NodeId::new(2), NodeId::new(3)));
        assert!(!m.connected(Round::ZERO, NodeId::new(0), NodeId::new(2)));
        assert!(m.connected(Round::new(10), NodeId::new(2), NodeId::new(3)));
    }

    #[test]
    #[should_panic(expected = "two groups")]
    fn duplicate_membership_panics() {
        let groups = vec![vec![NodeId::new(0)], vec![NodeId::new(0)]];
        let _ = Partition::from_groups(2, &groups, 0);
    }
}
