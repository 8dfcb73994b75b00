//! The plain-text live dashboard: renders a snapshot of the global
//! metrics registry as a small fixed-width panel. Pure string rendering —
//! the `obs` binary owns the printing loop (clippy's `print_stdout` and
//! `print_stderr` keep stdout/err out of library code).

use std::sync::Arc;

use stellaris_telemetry::{global, Counter, Histogram};

/// Cached handles into the global registry for the metrics the panel
/// shows. Handles are get-or-create: a metric the run never touches just
/// renders as zero.
pub struct Dashboard {
    rounds: Arc<Counter>,
    degraded: Arc<Counter>,
    staleness: Arc<Histogram>,
    gate_admitted: Arc<Counter>,
    gate_delayed: Arc<Counter>,
    faults: Arc<Counter>,
    retries: Arc<Counter>,
    exhausted: Arc<Counter>,
    dropped: Arc<Counter>,
}

impl Default for Dashboard {
    fn default() -> Self {
        Self::new()
    }
}

impl Dashboard {
    /// Resolves the panel's instrument handles from the global registry.
    pub fn new() -> Self {
        let r = global();
        Dashboard {
            rounds: r.counter("stellaris_core_rounds_total"),
            degraded: r.counter("stellaris_core_degraded_rounds"),
            staleness: r.histogram("stellaris_core_staleness"),
            gate_admitted: r.counter("stellaris_core_gate_admitted_total"),
            gate_delayed: r.counter("stellaris_core_gate_delayed_total"),
            faults: r.counter("stellaris_serverless_faults_injected_total"),
            retries: r.counter("stellaris_serverless_retries_total"),
            exhausted: r.counter("stellaris_serverless_retries_exhausted_total"),
            dropped: r.counter("stellaris_telemetry_dropped_events_total"),
        }
    }

    /// Renders the current panel (a handful of lines, no ANSI control
    /// codes, safe for dumb terminals and CI logs).
    pub fn render(&self) -> String {
        let p50 = self.staleness.p50().unwrap_or(0.0);
        let p99 = self.staleness.p99().unwrap_or(0.0);
        format!(
            "rounds {:>6}  degraded {:>4} | \
             staleness p50 {:.1} p99 {:.1} (gate ok {} delayed {}) | \
             faults {:>4} retries {:>4} exhausted {:>3} | trace drops {}",
            self.rounds.get(),
            self.degraded.get(),
            p50,
            p99,
            self.gate_admitted.get(),
            self.gate_delayed.get(),
            self.faults.get(),
            self.retries.get(),
            self.exhausted.get(),
            self.dropped.get(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_without_any_recorded_metrics() {
        // Cold registry: every handle resolves, everything reads zero.
        let d = Dashboard::new();
        let line = d.render();
        assert!(line.contains("rounds"));
        assert!(line.contains("staleness p50 0.0"));
        assert!(line.contains("trace drops 0"));
    }
}
