//! Exporters: Chrome trace-event JSON (Perfetto / `chrome://tracing`)
//! and collapsed-stack text (flamegraph tooling).
//!
//! Both exporters are pure functions of their input. When the input is
//! the deterministic channel ([`EventLog`]), the exported bytes are as
//! reproducible as the log itself — timestamps are logical ticks
//! reported in microseconds, so the "time" axis in Perfetto is event
//! count, not wall clock. When the input is wall-clock [`SpanRecord`]s
//! from the timing channel, the export is explicitly non-deterministic.

use std::fmt::Write as _;

use crate::event::{EventKind, EventLog};

/// One completed wall-clock (or logical) span, ready for export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name (e.g. `"trial"`, `"cell n16_t5"`).
    pub name: String,
    /// Category string, shown as a Perfetto filter.
    pub cat: String,
    /// Start timestamp, microseconds.
    pub ts_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
    /// Perfetto track (thread) id — the sweep uses worker index.
    pub tid: u64,
}

/// Escapes a string for inclusion in a JSON string literal.
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Joins pre-rendered trace-event objects into a Chrome trace JSON
/// array (one object per line, for diffability).
pub(crate) fn join_trace(events: Vec<String>) -> String {
    let mut out = String::from("[\n");
    for (i, ev) in events.iter().enumerate() {
        out.push_str(ev);
        if i + 1 < events.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

/// Renders wall-clock spans as a Chrome trace (all `"X"` complete
/// events, pid 0, tid from the record).
pub fn chrome_trace_from_spans(spans: &[SpanRecord]) -> String {
    let events = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{}}}",
                escape_json(&s.name),
                escape_json(&s.cat),
                s.ts_us,
                s.dur_us,
                s.tid
            )
        })
        .collect();
    join_trace(events)
}

/// Renders the deterministic event log as a Chrome trace on the
/// **logical** timeline: one microsecond per tick. Span levels
/// (campaign/cell/trial/round) become `B`/`E` pairs, phases become `X`
/// complete events spanning from the previous phase boundary, and point
/// events (corruptions, halts, violations, notes) become `i` instants.
pub fn chrome_trace(log: &EventLog) -> String {
    join_trace(chrome_trace_events(log))
}

/// The individual trace-event objects behind [`chrome_trace`], one
/// pre-rendered JSON object per entry — the provenance exporter splices
/// its flow events onto this list before joining.
pub(crate) fn chrome_trace_events(log: &EventLog) -> Vec<String> {
    let mut events: Vec<String> = Vec::with_capacity(log.len() + 8);
    // Open B spans, as (name) — closed in reverse order at log end if
    // the log stops mid-span.
    let mut open: Vec<String> = Vec::new();
    let mut phase_boundary = 0u64;

    let begin = |events: &mut Vec<String>, open: &mut Vec<String>, name: String, ts: u64| {
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"span\",\"ph\":\"B\",\"ts\":{ts},\"pid\":0,\"tid\":0}}",
            escape_json(&name)
        ));
        open.push(name);
    };
    let end = |events: &mut Vec<String>, open: &mut Vec<String>, ts: u64| {
        if open.pop().is_some() {
            events.push(format!("{{\"ph\":\"E\",\"ts\":{ts},\"pid\":0,\"tid\":0}}"));
        }
    };
    let instant = |events: &mut Vec<String>, name: String, ts: u64| {
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"event\",\"ph\":\"i\",\"ts\":{ts},\"pid\":0,\"tid\":0,\"s\":\"t\"}}",
            escape_json(&name)
        ));
    };

    for ev in log.events() {
        let ts = ev.tick;
        match &ev.kind {
            EventKind::CampaignStart { name } => {
                begin(&mut events, &mut open, format!("campaign {name}"), ts);
            }
            EventKind::CellStart { key } => {
                begin(&mut events, &mut open, format!("cell {key}"), ts);
            }
            EventKind::CellEnd { .. } => end(&mut events, &mut open, ts),
            EventKind::TrialStart { n, t, seed } => {
                begin(
                    &mut events,
                    &mut open,
                    format!("trial n={n} t={t} seed={seed}"),
                    ts,
                );
            }
            EventKind::TrialEnd { .. } => end(&mut events, &mut open, ts),
            EventKind::RoundStart { round } => {
                begin(
                    &mut events,
                    &mut open,
                    format!("round {}", round.index()),
                    ts,
                );
                phase_boundary = ts;
            }
            EventKind::PhaseEnd { phase, .. } => {
                events.push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"phase\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":0}}",
                    phase.name(),
                    phase_boundary,
                    ts.saturating_sub(phase_boundary).max(1)
                ));
                phase_boundary = ts;
            }
            EventKind::RoundEnd { .. } => end(&mut events, &mut open, ts),
            EventKind::Corruption { node, total, .. } => {
                instant(&mut events, format!("corrupt {node} (total {total})"), ts);
            }
            EventKind::Halt { node, output, .. } => {
                let out = match output {
                    Some(b) => b.to_string(),
                    None => "-".to_string(),
                };
                instant(&mut events, format!("halt {node} -> {out}"), ts);
            }
            EventKind::Violation { oracle, .. } => {
                instant(&mut events, format!("violation {oracle}"), ts);
            }
            EventKind::Note { text } => instant(&mut events, format!("note: {text}"), ts),
        }
    }
    let final_ts = log.len() as u64;
    while !open.is_empty() {
        end(&mut events, &mut open, final_ts);
    }
    events
}

/// Renders `(stack, value)` pairs as collapsed-stack text, one
/// `stack value` line each — the input format of flamegraph tooling.
pub fn collapsed_stacks(lines: &[(String, u64)]) -> String {
    let mut out = String::new();
    for (stack, value) in lines {
        let _ = writeln!(out, "{stack} {value}");
    }
    out
}

/// Folds the deterministic event log into collapsed stacks weighted by
/// logical ticks: each phase contributes `cell;trial;<phase>` (or
/// `trial;<phase>` outside a campaign) with the tick span it covered.
/// Stacks are emitted sorted, so the output is deterministic.
pub fn collapsed_from_log(log: &EventLog) -> String {
    use std::collections::BTreeMap;
    let mut agg: BTreeMap<String, u64> = BTreeMap::new();
    let mut cell: Option<String> = None;
    let mut phase_boundary = 0u64;
    for ev in log.events() {
        match &ev.kind {
            EventKind::CellStart { key } => cell = Some(key.clone()),
            EventKind::CellEnd { .. } => cell = None,
            EventKind::RoundStart { .. } => phase_boundary = ev.tick,
            EventKind::PhaseEnd { phase, .. } => {
                let ticks = ev.tick.saturating_sub(phase_boundary).max(1);
                phase_boundary = ev.tick;
                let stack = match &cell {
                    Some(key) => format!("{key};trial;{}", phase.name()),
                    None => format!("trial;{}", phase.name()),
                };
                *agg.entry(stack).or_insert(0) += ticks;
            }
            _ => {}
        }
    }
    let lines: Vec<(String, u64)> = agg.into_iter().collect();
    collapsed_stacks(&lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aba_sim::probe::RoundPhase;
    use aba_sim::Round;

    fn sample_log() -> EventLog {
        let mut log = EventLog::new();
        log.push(EventKind::TrialStart {
            n: 4,
            t: 1,
            seed: 7,
        });
        log.push(EventKind::RoundStart { round: Round::ZERO });
        for phase in RoundPhase::ALL {
            log.push(EventKind::PhaseEnd {
                round: Round::ZERO,
                phase,
            });
        }
        log.push(EventKind::RoundEnd {
            round: Round::ZERO,
            messages: 12,
            bits: 120,
            delivered: 12,
            dropped: 0,
            delayed: 0,
            corruptions: 0,
        });
        log.push(EventKind::TrialEnd {
            rounds: 1,
            all_halted: true,
        });
        log
    }

    #[test]
    fn chrome_trace_is_balanced_json_array() {
        let json = chrome_trace(&sample_log());
        assert!(json.starts_with("[\n"));
        assert!(json.ends_with("]\n"));
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 2); // trial, round
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 4); // four phases
                                                             // Deterministic: same log, same bytes.
        assert_eq!(json, chrome_trace(&sample_log()));
    }

    #[test]
    fn unbalanced_log_is_closed_at_final_tick() {
        let mut log = EventLog::new();
        log.push(EventKind::CampaignStart {
            name: "c".to_string(),
        });
        let json = chrome_trace(&log);
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 1);
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 1);
    }

    #[test]
    fn escaping_handles_quotes_and_controls() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }

    #[test]
    fn collapsed_from_log_aggregates_phases() {
        let text = collapsed_from_log(&sample_log());
        assert!(text.contains("trial;emit "));
        assert!(text.contains("trial;receive "));
        assert_eq!(text.lines().count(), 4);
        assert_eq!(text, collapsed_from_log(&sample_log()));
    }

    #[test]
    fn spans_render_as_complete_events() {
        let spans = vec![SpanRecord {
            name: "cell a".to_string(),
            cat: "sweep".to_string(),
            ts_us: 5,
            dur_us: 100,
            tid: 2,
        }];
        let json = chrome_trace_from_spans(&spans);
        assert!(json.contains("\"name\":\"cell a\""));
        assert!(json.contains("\"dur\":100"));
        assert!(json.contains("\"tid\":2"));
    }
}
