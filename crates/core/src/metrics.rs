//! Training metrics: per-round rows (matching the artifact's CSV schema),
//! component timers for the Fig. 14 latency breakdown, and CSV output.
//!
//! The Fig. 14 breakdown is measured with telemetry spans: call sites open
//! a [`Timers::span`] guard for a [`Component`], and on drop the elapsed
//! time feeds (a) the per-run atomic counter behind [`TimerReport`],
//! (b) the global `stellaris_core_latency_us_<component>` histogram, and
//! (c) a `core.<component>` trace span when tracing is enabled.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use stellaris_telemetry as telemetry;
use stellaris_telemetry::Histogram;

/// One training round's record. Columns mirror the paper artifact's output
/// CSV: "training round index, round duration, number of learner functions
/// invoked per training iteration, episodes executed, evaluation rewards,
/// staleness, and training cost".
#[derive(Clone, Copy, Debug)]
pub struct TrainRow {
    /// Round index (0-based).
    pub round: usize,
    /// Wall-clock seconds since training start.
    pub wall_time_s: f64,
    /// Seconds spent in this round.
    pub round_duration_s: f64,
    /// Learner-function invocations during this round.
    pub learner_invocations: u64,
    /// Episodes completed during this round.
    pub episodes: u64,
    /// Evaluation episodic reward at round end.
    pub reward: f32,
    /// Mean staleness of gradients aggregated this round.
    pub mean_staleness: f64,
    /// Cumulative training cost (USD) so far.
    pub cost_usd: f64,
    /// Learner-side share of the cumulative cost.
    pub learner_cost_usd: f64,
    /// Actor-side share of the cumulative cost.
    pub actor_cost_usd: f64,
    /// Policy updates performed so far.
    pub policy_updates: u64,
    /// Mean KL divergence between successive round policies (Fig. 3c).
    pub policy_kl: f32,
}

impl TrainRow {
    /// CSV header matching [`TrainRow::to_csv`].
    pub const CSV_HEADER: &'static str = "round,wall_time_s,round_duration_s,learner_invocations,episodes,reward,mean_staleness,cost_usd,learner_cost_usd,actor_cost_usd,policy_updates,policy_kl";

    /// Serialises as one CSV line.
    pub fn to_csv(&self) -> String {
        format!(
            "{},{:.3},{:.3},{},{},{:.3},{:.3},{:.8},{:.8},{:.8},{},{:.6}",
            self.round,
            self.wall_time_s,
            self.round_duration_s,
            self.learner_invocations,
            self.episodes,
            self.reward,
            self.mean_staleness,
            self.cost_usd,
            self.learner_cost_usd,
            self.actor_cost_usd,
            self.policy_updates,
            self.policy_kl,
        )
    }
}

/// Writes rows to a CSV string (and optionally a file).
pub fn rows_to_csv(rows: &[TrainRow]) -> String {
    let mut out = String::from(TrainRow::CSV_HEADER);
    out.push('\n');
    for r in rows {
        out.push_str(&r.to_csv());
        out.push('\n');
    }
    out
}

/// Thread-safe accumulating timers for the one-round latency breakdown:
/// microseconds per Fig. 14 [`Component`], indexed by it.
#[derive(Debug, Default)]
pub struct Timers {
    us: [AtomicU64; 4],
}

/// One component of the Fig. 14 latency breakdown.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Component {
    /// Actor-environment sampling.
    ActorSampling,
    /// Data-loader batching/staging (GAE, minibatching).
    DataLoading,
    /// Learner gradient computation.
    Gradient,
    /// Parameter-function aggregation + policy update.
    Aggregation,
}

impl Component {
    /// All components, in [`TimerReport`] field order.
    pub const ALL: [Component; 4] = [
        Component::ActorSampling,
        Component::DataLoading,
        Component::Gradient,
        Component::Aggregation,
    ];

    /// Short snake_case component name.
    pub fn name(self) -> &'static str {
        match self {
            Component::ActorSampling => "actor_sampling",
            Component::DataLoading => "data_loading",
            Component::Gradient => "gradient",
            Component::Aggregation => "aggregation",
        }
    }

    /// Trace span name (`core.<component>`).
    pub fn span_name(self) -> &'static str {
        match self {
            Component::ActorSampling => "core.actor_sampling",
            Component::DataLoading => "core.data_loading",
            Component::Gradient => "core.gradient",
            Component::Aggregation => "core.aggregation",
        }
    }
}

/// Global per-component latency histograms, resolved once.
fn component_histograms() -> &'static [Arc<Histogram>; 4] {
    static HISTS: OnceLock<[Arc<Histogram>; 4]> = OnceLock::new();
    HISTS.get_or_init(|| {
        Component::ALL.map(|c| {
            telemetry::global().histogram(&format!("stellaris_core_latency_us_{}", c.name()))
        })
    })
}

/// RAII guard from [`Timers::span`]: on drop, the elapsed time is added to
/// the run's [`Timers`] counter, recorded into the component's global
/// latency histogram, and emitted as a `core.<component>` trace span.
#[must_use = "a component span records its duration when dropped"]
pub struct ComponentSpan<'a> {
    timers: &'a Timers,
    component: Component,
    start_us: u64,
    _trace: telemetry::SpanGuard,
}

impl Drop for ComponentSpan<'_> {
    fn drop(&mut self) {
        let elapsed = telemetry::now_us().saturating_sub(self.start_us);
        self.timers.add_us(self.component, elapsed);
    }
}

impl Timers {
    /// Adds `us` microseconds to `c`'s counter and the matching global
    /// latency histogram.
    fn add_us(&self, c: Component, us: u64) {
        self.us[c as usize].fetch_add(us, Ordering::Relaxed);
        component_histograms()[c as usize].record(us);
    }

    /// Opens a timing span for `c`: the returned guard accumulates its
    /// lifetime into this `Timers` (feeding [`TimerReport`]) and emits a
    /// trace span when tracing is enabled.
    pub fn span(&self, c: Component) -> ComponentSpan<'_> {
        ComponentSpan {
            timers: self,
            component: c,
            start_us: telemetry::now_us(),
            _trace: telemetry::span(c.span_name()),
        }
    }

    /// Snapshot in seconds per component. `startup_s` is not a component:
    /// it stays 0 here, and the orchestrator fills it from the platform's
    /// invocation records.
    pub fn report(&self) -> TimerReport {
        let s = |c: Component| self.us[c as usize].load(Ordering::Relaxed) as f64 / 1e6;
        TimerReport {
            actor_sampling_s: s(Component::ActorSampling),
            data_loading_s: s(Component::DataLoading),
            gradient_s: s(Component::Gradient),
            aggregation_s: s(Component::Aggregation),
            startup_s: 0.0,
            cache_s: 0.0,
        }
    }
}

/// Plain-number snapshot of [`Timers`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TimerReport {
    /// Actor-environment sampling seconds.
    pub actor_sampling_s: f64,
    /// Data-loader seconds.
    pub data_loading_s: f64,
    /// Gradient computation seconds.
    pub gradient_s: f64,
    /// Aggregation seconds.
    pub aggregation_s: f64,
    /// Startup overhead seconds (cold and warm starts), from the
    /// platform's invocation records.
    pub startup_s: f64,
    /// Seconds of cache traffic and serialisation: 0 in process, where
    /// hand-offs are by value (§V-B shared memory).
    pub cache_s: f64,
}

impl TimerReport {
    /// Total accounted time.
    pub fn total(&self) -> f64 {
        self.actor_sampling_s
            + self.data_loading_s
            + self.gradient_s
            + self.aggregation_s
            + self.startup_s
            + self.cache_s
    }

    /// Overhead share: everything that is neither sampling nor gradient
    /// compute (the paper's "<5% delay" claim covers these components).
    pub fn overhead_fraction(&self) -> f64 {
        let overhead = self.data_loading_s + self.aggregation_s + self.startup_s + self.cache_s;
        let total = self.total();
        if total <= 0.0 {
            0.0
        } else {
            overhead / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> TrainRow {
        TrainRow {
            round: 2,
            wall_time_s: 10.5,
            round_duration_s: 5.25,
            learner_invocations: 12,
            episodes: 34,
            reward: 123.4,
            mean_staleness: 1.5,
            cost_usd: 0.01,
            learner_cost_usd: 0.007,
            actor_cost_usd: 0.003,
            policy_updates: 9,
            policy_kl: 0.002,
        }
    }

    #[test]
    fn csv_roundtrips_field_count() {
        let line = row().to_csv();
        assert_eq!(
            line.split(',').count(),
            TrainRow::CSV_HEADER.split(',').count()
        );
        let csv = rows_to_csv(&[row(), row()]);
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("round,"));
    }

    #[test]
    fn timers_accumulate_and_report() {
        let t = Timers::default();
        t.add_us(Component::Gradient, 1_500_000);
        t.add_us(Component::Gradient, 500_000);
        t.add_us(Component::Aggregation, 100_000);
        let r = t.report();
        assert!((r.gradient_s - 2.0).abs() < 1e-6);
        assert!((r.aggregation_s - 0.1).abs() < 1e-6);
        assert!((r.total() - 2.1).abs() < 1e-6);
    }

    #[test]
    fn overhead_fraction_excludes_sampling_and_gradients() {
        let r = TimerReport {
            actor_sampling_s: 8.0,
            gradient_s: 1.5,
            data_loading_s: 0.2,
            aggregation_s: 0.2,
            startup_s: 0.05,
            cache_s: 0.05,
        };
        assert!((r.overhead_fraction() - 0.5 / 10.0).abs() < 1e-9);
    }

    #[test]
    fn empty_timers_zero_fraction() {
        assert_eq!(TimerReport::default().overhead_fraction(), 0.0);
    }

    #[test]
    fn component_spans_feed_the_report() {
        let t = Timers::default();
        {
            let _g = t.span(Component::Aggregation);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        t.add_us(Component::DataLoading, 3_000);
        let r = t.report();
        assert!(r.aggregation_s > 0.0, "{r:?}");
        assert!((r.data_loading_s - 0.003).abs() < 1e-9, "{r:?}");
        // The same samples land in the global latency histograms.
        assert!(
            stellaris_telemetry::global()
                .histogram("stellaris_core_latency_us_data_loading")
                .count()
                >= 1
        );
    }

    #[test]
    fn component_names_are_stable() {
        assert_eq!(Component::ALL.len(), 4);
        for c in Component::ALL {
            assert!(c.span_name().starts_with("core."));
            assert!(c.span_name().ends_with(c.name()));
        }
    }
}
