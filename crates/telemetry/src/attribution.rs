//! Per-round critical-path attribution: turns a span tree into the Fig. 14
//! "where did the wall-clock go" breakdown, live (DESIGN.md §13).
//!
//! The analyzer slices a trace into **round windows** (one per closed
//! `core.round` span), clips every staged span into each window, and runs
//! an interval sweep over the union of staged time. Each elementary
//! segment of a round is *blamed* on exactly one stage — the
//! highest-precedence stage active during that segment — so the blamed
//! totals partition round wall-clock and sum (with the unattributed
//! remainder) to exactly the round duration. Raw (inclusive) totals are
//! kept alongside: a stage masked on the blame sweep by concurrent
//! higher-precedence work (e.g. a straggler sleeping while the learner
//! computes) still shows up raw, which is what regression diffing keys on.
//!
//! Precedence is ordered so that *waiting* stages lose to *working*
//! stages: if a round is simultaneously gate-waiting and running GEMM, the
//! GEMM is what limits rounds/sec.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::escape_into;
use crate::trace::{Event, EventKind, FieldValue};

/// Named stages a round's wall time is attributed to, in ascending blame
/// precedence: when several stages overlap a segment, the *last* variant
/// here wins it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Orchestrator waiting for the round's step/gradient targets.
    RoundGate,
    /// Policy evaluation between rounds.
    Eval,
    /// Learner blocked popping the gradient queue.
    QueueWait,
    /// Serverless invocation overhead incl. cold starts.
    Invoke,
    /// Injected straggler delay inside a worker.
    Straggle,
    /// Retry backoff sleeps after failed invocations.
    Retry,
    /// Gradient enqueue into the cache queue.
    Enqueue,
    /// Codec / cache serialisation work.
    Codec,
    /// Minibatch assembly and data loading.
    DataLoad,
    /// Environment rollout / actor sampling.
    Rollout,
    /// Gradient aggregation and staleness gating.
    Aggregation,
    /// GEMM forward/backward and gradient compute.
    Compute,
}

/// Every stage, in ascending precedence order.
pub const ALL_STAGES: [Stage; NSTAGES] = [
    Stage::RoundGate,
    Stage::Eval,
    Stage::QueueWait,
    Stage::Invoke,
    Stage::Straggle,
    Stage::Retry,
    Stage::Enqueue,
    Stage::Codec,
    Stage::DataLoad,
    Stage::Rollout,
    Stage::Aggregation,
    Stage::Compute,
];

const NSTAGES: usize = 12;

impl Stage {
    /// Stable human/JSON label for the stage.
    pub fn label(self) -> &'static str {
        match self {
            Stage::RoundGate => "round-gate",
            Stage::Eval => "eval",
            Stage::QueueWait => "queue-wait",
            Stage::Invoke => "invoke/cold-start",
            Stage::Straggle => "straggle",
            Stage::Retry => "retry/backoff",
            Stage::Enqueue => "enqueue",
            Stage::Codec => "codec/cache",
            Stage::DataLoad => "data-loading",
            Stage::Rollout => "rollout",
            Stage::Aggregation => "aggregation",
            Stage::Compute => "gemm/backward",
        }
    }

    fn index(self) -> usize {
        ALL_STAGES.iter().position(|s| *s == self).unwrap_or(0)
    }
}

/// Maps a span name to its stage, or `None` for structural spans
/// (`core.round` itself, startup, unknown names).
pub fn stage_of(name: &str) -> Option<Stage> {
    match name {
        "core.round_wait" | "core.round_close" => Some(Stage::RoundGate),
        "core.eval" => Some(Stage::Eval),
        "cache.queue_pop" => Some(Stage::QueueWait),
        "serverless.invoke" | "core.startup" => Some(Stage::Invoke),
        "serverless.straggle" => Some(Stage::Straggle),
        "serverless.retry_backoff" => Some(Stage::Retry),
        "cache.queue_push" => Some(Stage::Enqueue),
        "core.data_loading" => Some(Stage::DataLoad),
        "rl.rollout_collect" | "core.actor_sampling" => Some(Stage::Rollout),
        "core.aggregation" => Some(Stage::Aggregation),
        "core.gradient" | "nn.forward" | "nn.backward" => Some(Stage::Compute),
        _ => None,
    }
}

/// An owned, analysis-ready event: what [`attribute`] consumes. Built
/// either from live [`Event`]s ([`AttrEvent::from_event`]) or parsed back
/// out of a flight-recorder/trace JSONL dump by the `obs` binary.
#[derive(Clone, Debug)]
pub struct AttrEvent {
    /// Span/instant name (`<crate>.<operation>`).
    pub name: String,
    /// True for closed spans (instants carry no duration to attribute).
    pub span: bool,
    /// Span ID.
    pub id: u64,
    /// Parent span ID (0 = root).
    pub parent: u64,
    /// Recording thread.
    pub tid: u64,
    /// Start timestamp, µs since trace epoch.
    pub ts_us: u64,
    /// Duration in µs.
    pub dur_us: u64,
    /// Round number, when the event is a `core.round` span carrying a
    /// `round` field.
    pub round: Option<u64>,
}

impl AttrEvent {
    /// Converts a live trace event.
    pub fn from_event(e: &Event) -> Self {
        let round = if e.name == "core.round" {
            e.fields.iter().find_map(|(k, v)| match (*k, v) {
                ("round", FieldValue::U64(n)) => Some(*n),
                _ => None,
            })
        } else {
            None
        };
        AttrEvent {
            name: e.name.to_owned(),
            span: e.kind == EventKind::Span,
            id: e.id,
            parent: e.parent,
            tid: e.tid,
            ts_us: e.ts_us,
            dur_us: e.dur_us,
            round,
        }
    }

    fn end_us(&self) -> u64 {
        self.ts_us.saturating_add(self.dur_us)
    }
}

/// Blamed (exclusive, partitioning) and raw (inclusive, overlapping)
/// microseconds a stage accumulated inside one round window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageBreakdown {
    /// Exclusive time: segments this stage won on precedence. Blamed
    /// totals across stages + `unattributed_us` sum to the round duration.
    pub blamed_us: u64,
    /// Inclusive time: total staged span time clipped to the window,
    /// regardless of overlap. Can exceed the round duration under
    /// concurrency; never masked, so diffs key on it.
    pub raw_us: u64,
}

/// One round window's attribution.
#[derive(Clone, Debug)]
pub struct RoundAttribution {
    /// Round number (from the `core.round` span's `round` field, or the
    /// window index when absent).
    pub round: u64,
    /// Window start, µs.
    pub start_us: u64,
    /// Window end, µs.
    pub end_us: u64,
    /// Per-stage breakdown; stages with zero raw time are omitted.
    pub stages: BTreeMap<Stage, StageBreakdown>,
    /// Wall time inside the window during which no staged span was active.
    pub unattributed_us: u64,
    /// The round's critical path: consecutive blamed segments merged by
    /// winning stage, in time order (`None` = unattributed gap).
    pub critical_path: Vec<(Option<Stage>, u64)>,
}

impl RoundAttribution {
    /// Window duration in µs.
    pub fn wall_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }

    /// Fraction of the window blamed to a named stage, in `[0, 1]`.
    pub fn coverage(&self) -> f64 {
        let wall = self.wall_us();
        if wall == 0 {
            return 1.0;
        }
        1.0 - (self.unattributed_us as f64 / wall as f64)
    }
}

/// Whole-run attribution: one [`RoundAttribution`] per round window.
#[derive(Clone, Debug, Default)]
pub struct RunAttribution {
    /// Per-round results, in round order.
    pub rounds: Vec<RoundAttribution>,
}

impl RunAttribution {
    /// Total round wall-clock across all windows, µs.
    pub fn wall_us(&self) -> u64 {
        self.rounds.iter().map(RoundAttribution::wall_us).sum()
    }

    /// Blame coverage over all round windows: the acceptance-criterion
    /// number (≥ 0.95 means ≥ 95% of round wall-clock is attributed to a
    /// named stage).
    pub fn coverage(&self) -> f64 {
        let wall = self.wall_us();
        if wall == 0 {
            return 1.0;
        }
        let un: u64 = self.rounds.iter().map(|r| r.unattributed_us).sum();
        1.0 - (un as f64 / wall as f64)
    }

    /// Per-run stage totals summed over rounds.
    pub fn stage_totals(&self) -> BTreeMap<Stage, StageBreakdown> {
        let mut out: BTreeMap<Stage, StageBreakdown> = BTreeMap::new();
        for r in &self.rounds {
            for (stage, b) in &r.stages {
                let e = out.entry(*stage).or_default();
                e.blamed_us = e.blamed_us.saturating_add(b.blamed_us);
                e.raw_us = e.raw_us.saturating_add(b.raw_us);
            }
        }
        out
    }

    /// Plain-text per-run blame table (the live Fig. 14), widest blame
    /// first, with the coverage line the acceptance criterion reads.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let wall = self.wall_us();
        let _ = writeln!(
            out,
            "round critical-path attribution ({} rounds, {:.3} ms wall)",
            self.rounds.len(),
            wall as f64 / 1e3
        );
        let _ = writeln!(
            out,
            "{:<20} {:>12} {:>8} {:>12}",
            "stage", "blamed_ms", "share", "raw_ms"
        );
        let totals = self.stage_totals();
        let mut rows: Vec<(Stage, StageBreakdown)> = totals.into_iter().collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.1.blamed_us));
        for (stage, b) in rows {
            let share = if wall == 0 {
                0.0
            } else {
                b.blamed_us as f64 / wall as f64
            };
            let _ = writeln!(
                out,
                "{:<20} {:>12.3} {:>7.1}% {:>12.3}",
                stage.label(),
                b.blamed_us as f64 / 1e3,
                share * 100.0,
                b.raw_us as f64 / 1e3
            );
        }
        let un: u64 = self.rounds.iter().map(|r| r.unattributed_us).sum();
        let _ = writeln!(
            out,
            "{:<20} {:>12.3} {:>7.1}%",
            "(unattributed)",
            un as f64 / 1e3,
            if wall == 0 {
                0.0
            } else {
                un as f64 / wall as f64 * 100.0
            }
        );
        let _ = writeln!(out, "coverage: {:.1}%", self.coverage() * 100.0);
        out
    }

    /// Hand-rolled JSON form, embedded into `RunReport`s.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"coverage\":");
        let _ = write!(
            out,
            "{:.6},\"wall_us\":{},\"rounds\":[",
            self.coverage(),
            self.wall_us()
        );
        for (i, r) in self.rounds.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"round\":{},\"start_us\":{},\"end_us\":{},\"unattributed_us\":{},\"coverage\":{:.6},\"stages\":{{",
                r.round, r.start_us, r.end_us, r.unattributed_us, r.coverage()
            );
            for (j, (stage, b)) in r.stages.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push('"');
                escape_into(&mut out, stage.label());
                let _ = write!(
                    out,
                    "\":{{\"blamed_us\":{},\"raw_us\":{}}}",
                    b.blamed_us, b.raw_us
                );
            }
            out.push_str("},\"critical_path\":[");
            for (j, (stage, dur)) in r.critical_path.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str("{\"stage\":");
                match stage {
                    Some(s) => {
                        out.push('"');
                        escape_into(&mut out, s.label());
                        out.push('"');
                    }
                    None => out.push_str("null"),
                }
                let _ = write!(out, ",\"dur_us\":{}}}", dur);
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

/// A round window: `[start, end)` plus its round number.
struct Window {
    round: u64,
    start: u64,
    end: u64,
}

/// Attributes a trace to per-round stage blame.
///
/// Round windows come from closed `core.round` spans; when a trace has
/// none (e.g. a mid-round crash dump or a unit fixture), the whole trace
/// extent becomes a single synthetic window with round number 0.
pub fn attribute(events: &[AttrEvent]) -> RunAttribution {
    let mut windows: Vec<Window> = events
        .iter()
        .filter(|e| e.span && e.name == "core.round" && e.dur_us > 0)
        .enumerate()
        .map(|(i, e)| Window {
            round: e.round.unwrap_or(i as u64),
            start: e.ts_us,
            end: e.end_us(),
        })
        .collect();
    windows.sort_by_key(|w| (w.start, w.round));
    if windows.is_empty() {
        let start = events.iter().map(|e| e.ts_us).min().unwrap_or(0);
        let end = events.iter().map(AttrEvent::end_us).max().unwrap_or(0);
        if end > start {
            windows.push(Window {
                round: 0,
                start,
                end,
            });
        }
    }

    let staged: Vec<(Stage, u64, u64)> = events
        .iter()
        .filter(|e| e.span && e.dur_us > 0)
        .filter_map(|e| stage_of(&e.name).map(|s| (s, e.ts_us, e.end_us())))
        .collect();

    let rounds = windows
        .iter()
        .map(|w| attribute_window(w, &staged))
        .collect();
    RunAttribution { rounds }
}

fn attribute_window(w: &Window, staged: &[(Stage, u64, u64)]) -> RoundAttribution {
    // Clip staged intervals into the window and accumulate raw totals.
    let mut stages: BTreeMap<Stage, StageBreakdown> = BTreeMap::new();
    // Boundary sweep: at each timestamp, per-stage active-count deltas.
    let mut deltas: BTreeMap<u64, [i32; NSTAGES]> = BTreeMap::new();
    for &(stage, s, e) in staged {
        let cs = s.max(w.start);
        let ce = e.min(w.end);
        if ce <= cs {
            continue;
        }
        stages.entry(stage).or_default().raw_us += ce - cs;
        deltas.entry(cs).or_insert([0; NSTAGES])[stage.index()] += 1;
        deltas.entry(ce).or_insert([0; NSTAGES])[stage.index()] -= 1;
    }

    let mut active = [0i32; NSTAGES];
    let mut prev_ts = w.start;
    let mut unattributed = 0u64;
    let mut path: Vec<(Option<Stage>, u64)> = Vec::new();
    let blame_segment = |winner: Option<Stage>, dur: u64, path: &mut Vec<(Option<Stage>, u64)>| {
        if dur == 0 {
            return;
        }
        match path.last_mut() {
            Some((last, acc)) if *last == winner => *acc += dur,
            _ => path.push((winner, dur)),
        }
    };
    for (&ts, delta) in &deltas {
        let seg_end = ts.min(w.end);
        if seg_end > prev_ts {
            let dur = seg_end - prev_ts;
            // Highest-precedence active stage wins the segment.
            let winner = (0..NSTAGES)
                .rev()
                .find(|&i| active[i] > 0)
                .map(|i| ALL_STAGES[i]);
            match winner {
                Some(stage) => stages.entry(stage).or_default().blamed_us += dur,
                None => unattributed += dur,
            }
            blame_segment(winner, dur, &mut path);
            prev_ts = seg_end;
        }
        for i in 0..NSTAGES {
            active[i] += delta[i];
        }
    }
    if w.end > prev_ts {
        unattributed += w.end - prev_ts;
        blame_segment(None, w.end - prev_ts, &mut path);
    }

    RoundAttribution {
        round: w.round,
        start_us: w.start,
        end_us: w.end,
        stages,
        unattributed_us: unattributed,
        critical_path: path,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, id: u64, ts: u64, dur: u64) -> AttrEvent {
        AttrEvent {
            name: name.to_owned(),
            span: true,
            id,
            parent: 0,
            tid: 1,
            ts_us: ts,
            dur_us: dur,
            round: None,
        }
    }

    fn round_span(round: u64, ts: u64, dur: u64) -> AttrEvent {
        let mut e = span("core.round", 1000 + round, ts, dur);
        e.round = Some(round);
        e
    }

    #[test]
    fn precedence_blames_work_over_waiting() {
        // Round [0, 100): gate-wait covers all of it, GEMM covers [20, 60).
        let events = vec![
            round_span(0, 0, 100),
            span("core.round_wait", 2, 0, 100),
            span("nn.forward", 3, 20, 40),
        ];
        let run = attribute(&events);
        assert_eq!(run.rounds.len(), 1);
        let r = &run.rounds[0];
        let gate = r.stages[&Stage::RoundGate];
        let compute = r.stages[&Stage::Compute];
        assert_eq!(gate.raw_us, 100);
        assert_eq!(gate.blamed_us, 60, "gate loses the overlap to compute");
        assert_eq!(compute.blamed_us, 40);
        assert_eq!(r.unattributed_us, 0);
        assert!((r.coverage() - 1.0).abs() < 1e-9);
        // Critical path: gate, compute, gate.
        assert_eq!(
            r.critical_path,
            vec![
                (Some(Stage::RoundGate), 20),
                (Some(Stage::Compute), 40),
                (Some(Stage::RoundGate), 40),
            ]
        );
    }

    #[test]
    fn spans_clip_to_round_windows() {
        // Rollout [50, 150) straddles rounds [0,100) and [100,200).
        let events = vec![
            round_span(0, 0, 100),
            round_span(1, 100, 100),
            span("rl.rollout_collect", 5, 50, 100),
        ];
        let run = attribute(&events);
        assert_eq!(run.rounds.len(), 2);
        assert_eq!(run.rounds[0].stages[&Stage::Rollout].blamed_us, 50);
        assert_eq!(run.rounds[1].stages[&Stage::Rollout].blamed_us, 50);
        assert_eq!(run.rounds[0].unattributed_us, 50);
        assert_eq!(run.rounds[1].unattributed_us, 50);
        assert!((run.coverage() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn missing_round_spans_fall_back_to_whole_trace_window() {
        let events = vec![
            span("serverless.invoke", 1, 10, 30),
            span("serverless.straggle", 2, 40, 20),
        ];
        let run = attribute(&events);
        assert_eq!(run.rounds.len(), 1);
        let r = &run.rounds[0];
        assert_eq!(r.round, 0);
        assert_eq!((r.start_us, r.end_us), (10, 60));
        assert_eq!(r.stages[&Stage::Invoke].blamed_us, 30);
        assert_eq!(r.stages[&Stage::Straggle].blamed_us, 20);
        assert!((r.coverage() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn blamed_totals_partition_round_wall_clock() {
        let events = vec![
            round_span(3, 0, 1000),
            span("core.round_wait", 2, 0, 400),
            span("cache.queue_pop", 3, 100, 300),
            span("core.gradient", 4, 200, 500),
            span("core.aggregation", 5, 650, 100),
        ];
        let run = attribute(&events);
        let r = &run.rounds[0];
        let blamed: u64 = r.stages.values().map(|b| b.blamed_us).sum();
        assert_eq!(blamed + r.unattributed_us, r.wall_us());
        assert_eq!(r.round, 3);
        // Critical path covers the window exactly.
        let path_total: u64 = r.critical_path.iter().map(|(_, d)| d).sum();
        assert_eq!(path_total, r.wall_us());
    }

    #[test]
    fn empty_trace_yields_empty_attribution() {
        let run = attribute(&[]);
        assert!(run.rounds.is_empty());
        assert!((run.coverage() - 1.0).abs() < 1e-9);
        assert_eq!(run.wall_us(), 0);
    }

    #[test]
    fn table_and_json_render() {
        let events = vec![
            round_span(0, 0, 100),
            span("nn.backward", 2, 0, 80),
            span("serverless.retry_backoff", 3, 80, 10),
        ];
        let run = attribute(&events);
        let table = run.render_table();
        assert!(table.contains("gemm/backward"));
        assert!(table.contains("retry/backoff"));
        assert!(table.contains("coverage: 90.0%"));
        let json = run.to_json();
        crate::json::validate_json(&json)
            .unwrap_or_else(|e| panic!("bad attribution json: {e}\n{json}"));
        assert!(json.contains("\"gemm/backward\""));
    }

    #[test]
    fn stage_of_covers_every_instrumented_span() {
        for name in [
            "core.round_wait",
            "core.round_close",
            "core.eval",
            "cache.queue_pop",
            "serverless.invoke",
            "core.startup",
            "serverless.straggle",
            "serverless.retry_backoff",
            "cache.queue_push",
            "core.data_loading",
            "rl.rollout_collect",
            "core.actor_sampling",
            "core.aggregation",
            "core.gradient",
            "nn.forward",
            "nn.backward",
        ] {
            assert!(stage_of(name).is_some(), "{name} unmapped");
        }
        assert!(
            stage_of("core.round").is_none(),
            "round spans are windows, not stages"
        );
        assert!(stage_of("bench.progress").is_none());
    }
}
