//! Run-level and round-level measurement.
//!
//! The experiment harness reads these to reproduce the paper's complexity
//! claims: round complexity (Theorem 2), message complexity
//! (`O(min{n·t²·log n, n²·t/log n})`, Section 1.2), and CONGEST
//! compliance (`O(log n)` bits per edge per round, Section 1.1).

/// Measurements for a single round. The engine hands them to
/// [`Oracle::observe_round`](crate::oracle::Oracle::observe_round) and
/// [`Probe::round_end`](crate::probe::Probe::round_end), then folds them
/// into [`RunMetrics`]; a caller that wants per-round history records it
/// from the probe hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoundMetrics {
    /// Point-to-point messages emitted this round, counted on the wire
    /// before the delivery stage (a broadcast in an `n`-node network
    /// counts as `n - 1`).
    pub messages: usize,
    /// Total bits on the wire this round.
    pub bits: usize,
    /// Largest message crossing any single edge this round, in bits.
    pub max_edge_bits: usize,
    /// Corruptions performed this round.
    pub corruptions: usize,
    /// Point-to-point messages actually handed to receivers this round
    /// (equals `messages` under the synchronous network).
    pub delivered: usize,
    /// Messages dropped by the network this round.
    pub dropped: usize,
    /// Delay events this round (a message counts once when first held
    /// back and once per further deferral).
    pub delayed: usize,
}

/// Aggregated measurements for a whole run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RunMetrics {
    /// Rounds executed.
    pub rounds: u64,
    /// Total point-to-point messages.
    pub total_messages: usize,
    /// Total bits on the wire.
    pub total_bits: usize,
    /// Maximum over rounds of the per-edge bit maximum — the quantity the
    /// CONGEST model bounds by `O(log n)`.
    pub max_edge_bits: usize,
    /// Total corruptions performed by the adversary.
    pub corruptions: usize,
    /// Total messages the network actually delivered. Equals
    /// `total_messages` under the synchronous network; lower when links
    /// drop traffic or hold it past the end of the run.
    pub total_delivered: usize,
    /// Total messages the network dropped.
    pub total_dropped: usize,
    /// Total delay events (see [`RoundMetrics::delayed`]).
    pub total_delayed: usize,
}

impl RunMetrics {
    /// Folds one round's metrics into the totals.
    pub fn absorb(&mut self, rm: RoundMetrics) {
        self.rounds += 1;
        self.total_messages += rm.messages;
        self.total_bits += rm.bits;
        self.max_edge_bits = self.max_edge_bits.max(rm.max_edge_bits);
        self.corruptions += rm.corruptions;
        self.total_delivered += rm.delivered;
        self.total_dropped += rm.dropped;
        self.total_delayed += rm.delayed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_accumulates() {
        let mut m = RunMetrics::default();
        m.absorb(RoundMetrics {
            messages: 10,
            bits: 100,
            max_edge_bits: 12,
            corruptions: 1,
            delivered: 9,
            dropped: 1,
            delayed: 0,
        });
        m.absorb(RoundMetrics {
            messages: 5,
            bits: 40,
            max_edge_bits: 30,
            corruptions: 0,
            delivered: 4,
            dropped: 0,
            delayed: 2,
        });
        assert_eq!(m.rounds, 2);
        assert_eq!(m.total_messages, 15);
        assert_eq!(m.total_bits, 140);
        assert_eq!(m.max_edge_bits, 30);
        assert_eq!(m.corruptions, 1);
        assert_eq!(m.total_delivered, 13);
        assert_eq!(m.total_dropped, 1);
        assert_eq!(m.total_delayed, 2);
    }
}
