//! Wall-clock spans for the traced mode: a probe on the engine's public
//! `Probe` seam stamps round and phase boundaries, the traced trial
//! stamps the spans around them, and self time is a span minus the part
//! of it its children cover.

use aba_sim::probe::{Probe, RoundPhase};
use aba_sim::{Round, RunReport};

/// One timed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What ran: `op`, `build`, `round`, a phase name, `campaign`,
    /// `check_scenario` or `run_scenario`.
    pub name: &'static str,
    /// The op the span belongs to (its trial or campaign seed).
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds on the benchmark clock.
    pub start: u64,
    /// End, in nanoseconds on the benchmark clock.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Every span of a traced run, kept in memory until the run ends.
#[derive(Debug, Clone, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
}

impl SpanLog {
    /// Records a span and returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: u64,
        end: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            op,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// The spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals, clipped to the span.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = span.start;
                for (start, end) in kids {
                    let start = start.max(reach);
                    let end = end.min(span.end);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                span.duration() - covered.min(span.duration())
            })
            .collect()
    }

    /// Self time summed per span name.
    pub fn self_by_name(&self) -> std::collections::BTreeMap<&'static str, u64> {
        let mut totals = std::collections::BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            *totals.entry(span.name).or_insert(0) += own;
        }
        totals
    }

    /// Total duration per span name.
    pub fn total_by_name(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .sum()
    }

    /// Writes the export: a header, then one tab-separated line per span
    /// with its index, the parent's index (-1 for none), name, op id, and
    /// start and end in nanoseconds.
    pub fn write_tsv(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        writeln!(out, "id\tparent\tname\top\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.name, s.op, s.start, s.end
            )?;
        }
        Ok(())
    }
}

/// A boundary the engine probe stamped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mark {
    /// A round started.
    RoundStart,
    /// A phase of the current round ended.
    PhaseEnd(RoundPhase),
    /// The run finished (the report is final).
    RunEnd,
}

/// The benchmark's wall-clock probe: stamps round starts, phase ends and
/// the run's end on the benchmark clock.
#[derive(Debug, Clone, Default)]
pub struct WallProbe {
    marks: Vec<(Mark, u64)>,
}

impl WallProbe {
    /// The stamps, in order.
    pub fn marks(&self) -> &[(Mark, u64)] {
        &self.marks
    }
}

impl Probe for WallProbe {
    fn round_start(&mut self, _round: Round) {
        self.marks.push((Mark::RoundStart, crate::clock_ns()));
    }

    fn phase_end(&mut self, _round: Round, phase: RoundPhase) {
        self.marks.push((Mark::PhaseEnd(phase), crate::clock_ns()));
    }

    fn run_end(&mut self, _report: &RunReport) {
        self.marks.push((Mark::RunEnd, crate::clock_ns()));
    }
}

/// Records one traced trial: the `op` span, its `build` span (from
/// `build_start` to the first round's start), and one `round` span per
/// round with its four phase spans. A round runs from its start to the
/// next round's start — the last one to the run's end — so the engine's
/// between-round bookkeeping counts as round time.
///
/// Returns the op span's index.
pub fn record_trial(
    log: &mut SpanLog,
    op: u64,
    (op_start, op_end): (u64, u64),
    build_start: u64,
    marks: &[(Mark, u64)],
) -> Result<usize, String> {
    let op_span = log.push("op", op, None, op_start, op_end);
    let first_round = marks
        .first()
        .filter(|(m, _)| *m == Mark::RoundStart)
        .map(|(_, t)| *t)
        .ok_or("the probe saw no round start")?;
    log.push("build", op, Some(op_span), build_start, first_round);
    let mut round: Option<usize> = None;
    let mut last = first_round;
    for &(mark, at) in marks {
        match mark {
            Mark::RoundStart => {
                if let Some(r) = round {
                    log.spans[r].end = at;
                }
                round = Some(log.push("round", op, Some(op_span), at, at));
            }
            Mark::PhaseEnd(phase) => {
                log.push(phase.name(), op, round, last, at);
            }
            Mark::RunEnd => {
                if let Some(r) = round.take() {
                    log.spans[r].end = at;
                }
            }
        }
        last = at;
    }
    if round.is_some() {
        return Err("the probe saw no run end".to_string());
    }
    Ok(op_span)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let mut log = SpanLog::default();
        let op = log.push("op", 1, None, 0, 100);
        let round = log.push("round", 1, Some(op), 20, 80);
        log.push("emit", 1, Some(round), 20, 30);
        log.push("receive", 1, Some(round), 40, 70);
        // Overlapping siblings are covered once; a child poking past its
        // parent is clipped.
        log.push("build", 1, Some(op), 5, 25);
        log.push("tail", 1, Some(op), 90, 120);
        let own = log.self_times();
        // op: 100 − (5..80 ∪ 90..100) = 100 − 75 − 10.
        assert_eq!(own[op], 15);
        // round: 60 − 10 − 30.
        assert_eq!(own[round], 20);
        assert_eq!(own[2], 10);
        let by_name = log.self_by_name();
        assert_eq!(by_name["receive"], 30);
        assert_eq!(log.total_by_name("round"), 60);
    }

    #[test]
    fn trial_marks_become_op_build_round_and_phase_spans() {
        let mut marks = Vec::new();
        let mut t = 10;
        for _ in 0..2 {
            marks.push((Mark::RoundStart, t));
            for phase in RoundPhase::ALL {
                t += 5;
                marks.push((Mark::PhaseEnd(phase), t));
            }
            t += 2;
        }
        marks.push((Mark::RunEnd, t));
        let mut log = SpanLog::default();
        let op = record_trial(&mut log, 9, (0, t + 3), 4, &marks).expect("well-formed");
        let names: Vec<&str> = log.spans().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "op",
                "build",
                "round",
                "emit",
                "adversary",
                "deliver",
                "receive",
                "round",
                "emit",
                "adversary",
                "deliver",
                "receive"
            ]
        );
        let own = log.self_times();
        // Rounds span 22 ns each: four 5 ns phases plus 2 ns between rounds.
        assert_eq!(log.total_by_name("round"), 44);
        assert_eq!(own[2], 2);
        // The op's self time is what lies outside build and rounds.
        assert_eq!(own[op], 4 + 3);
        assert_eq!(log.self_by_name()["build"], 6);
        let mut tsv = Vec::new();
        log.write_tsv(&mut tsv).expect("in-memory write");
        let tsv = String::from_utf8(tsv).expect("utf-8");
        assert_eq!(tsv.lines().count(), 1 + log.spans().len());
        assert!(tsv
            .lines()
            .skip(1)
            .all(|l| l.split('\t').nth(3) == Some("9")));
        assert!(tsv
            .lines()
            .nth(1)
            .is_some_and(|l| l.starts_with("0\t-1\top\t9\t")));
    }

    #[test]
    fn malformed_marks_are_rejected() {
        let mut log = SpanLog::default();
        assert!(record_trial(&mut log, 1, (0, 10), 0, &[]).is_err());
        let unfinished = [(Mark::RoundStart, 3)];
        assert!(record_trial(&mut log, 1, (0, 10), 0, &unfinished).is_err());
    }
}
