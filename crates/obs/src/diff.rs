//! `obs diff`: threshold-based comparison of two `RunReport` JSON files.
//!
//! Report **A** is the baseline, **B** the candidate. A key *regresses*
//! when B exceeds A by more than the allowed slack:
//!
//! * time-like keys (stage µs, wall seconds, cost): `b > a·(1+rel) + abs`
//! * count-like keys (faults, retries, degraded rounds, drops):
//!   `b > a + abs_count`
//!
//! Per-stage comparison uses **raw** (inclusive) stage time as the primary
//! signal — a straggler sleeping under concurrent learner compute is
//! invisible in the exclusive blame partition but fully visible raw — and
//! reports blamed time alongside. `pass()` is the CI gate: true iff no key
//! regressed.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use stellaris_telemetry::json::Value;

/// Diff thresholds.
#[derive(Clone, Copy, Debug)]
pub struct DiffOptions {
    /// Relative slack on time-like keys (0.10 = +10% allowed).
    pub rel: f64,
    /// Absolute slack on stage times, µs.
    pub abs_us: f64,
    /// Absolute slack on wall time, seconds.
    pub abs_s: f64,
    /// Absolute slack on cost, USD.
    pub abs_usd: f64,
    /// Absolute slack on count-like keys.
    pub abs_count: f64,
}

impl Default for DiffOptions {
    fn default() -> Self {
        Self {
            rel: 0.10,
            abs_us: 500.0,
            abs_s: 0.05,
            abs_usd: 1e-6,
            abs_count: 0.0,
        }
    }
}

/// One compared key.
#[derive(Clone, Debug)]
pub struct Delta {
    /// Dotted key path (e.g. `stage.straggle.raw_us`).
    pub key: String,
    /// Baseline value.
    pub a: f64,
    /// Candidate value.
    pub b: f64,
    /// Whether B regressed past the slack.
    pub regressed: bool,
}

/// A full report-pair comparison.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// Every compared key, in comparison order.
    pub deltas: Vec<Delta>,
    /// Keys present in only one report (config drift warnings).
    pub warnings: Vec<String>,
}

impl DiffReport {
    /// CI verdict: no regressions.
    pub fn pass(&self) -> bool {
        self.deltas.iter().all(|d| !d.regressed)
    }

    /// Keys that regressed, widest absolute delta first.
    pub fn regressions(&self) -> Vec<&Delta> {
        let mut r: Vec<&Delta> = self.deltas.iter().filter(|d| d.regressed).collect();
        r.sort_by(|x, y| {
            let dx = (x.b - x.a).abs();
            let dy = (y.b - y.a).abs();
            dy.partial_cmp(&dx).unwrap_or(std::cmp::Ordering::Equal)
        });
        r
    }

    /// Plain-text table: regressions first, then the rest, then warnings.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<34} {:>14} {:>14} {:>10}  verdict",
            "key", "baseline", "candidate", "delta"
        );
        let mut rows: Vec<&Delta> = self.deltas.iter().collect();
        rows.sort_by_key(|d| !d.regressed);
        for d in rows {
            let _ = writeln!(
                out,
                "{:<34} {:>14.3} {:>14.3} {:>+10.3}  {}",
                d.key,
                d.a,
                d.b,
                d.b - d.a,
                if d.regressed { "REGRESSED" } else { "ok" }
            );
        }
        for w in &self.warnings {
            let _ = writeln!(out, "warning: {w}");
        }
        let _ = writeln!(
            out,
            "result: {} ({} keys, {} regressed)",
            if self.pass() { "PASS" } else { "FAIL" },
            self.deltas.len(),
            self.regressions().len()
        );
        out
    }
}

fn num_at(v: &Value, path: &[&str]) -> Option<f64> {
    let mut cur = v;
    for p in path {
        cur = cur.get(p)?;
    }
    cur.as_f64()
}

/// Sums per-stage `raw_us`/`blamed_us` across a report's attribution
/// rounds: `stage label -> (raw, blamed)`.
fn stage_totals(report: &Value) -> BTreeMap<String, (f64, f64)> {
    let mut out: BTreeMap<String, (f64, f64)> = BTreeMap::new();
    let rounds = report
        .get("attribution")
        .and_then(|a| a.get("rounds"))
        .and_then(Value::as_array)
        .unwrap_or(&[]);
    for round in rounds {
        let Some(stages) = round.get("stages").and_then(Value::as_object) else {
            continue;
        };
        for (label, b) in stages {
            let raw = num_at(b, &["raw_us"]).unwrap_or(0.0);
            let blamed = num_at(b, &["blamed_us"]).unwrap_or(0.0);
            let e = out.entry(label.clone()).or_insert((0.0, 0.0));
            e.0 += raw;
            e.1 += blamed;
        }
    }
    out
}

/// Compares two parsed `RunReport` documents (A = baseline, B = candidate).
pub fn diff(a: &Value, b: &Value, opts: &DiffOptions) -> DiffReport {
    let mut out = DiffReport::default();

    let time_regress = |a: f64, b: f64, abs: f64| -> bool { b > a * (1.0 + opts.rel) + abs };
    let count_regress = |a: f64, b: f64| -> bool { b > a + opts.abs_count };

    // Config sanity: differing hashes are comparable, but the reader
    // should know.
    let (ha, hb) = (num_at(a, &["config_hash"]), num_at(b, &["config_hash"]));
    if let (Some(ha), Some(hb)) = (ha, hb) {
        if ha != hb {
            out.warnings
                .push("config_hash differs: comparing different configurations".to_owned());
        }
    }

    let mut add = |key: &str, av: Option<f64>, bv: Option<f64>, regressed: bool| {
        if let (Some(a), Some(b)) = (av, bv) {
            out.deltas.push(Delta {
                key: key.to_owned(),
                a,
                b,
                regressed,
            });
        } else if av.is_some() != bv.is_some() {
            out.warnings
                .push(format!("{key}: present in only one report"));
        }
    };

    // Scalar time/cost keys.
    for (key, abs) in [
        ("wall_time_s", opts.abs_s),
        ("cost_usd", opts.abs_usd),
        ("cost_wasted_usd", opts.abs_usd),
    ] {
        let (av, bv) = (num_at(a, &[key]), num_at(b, &[key]));
        let reg = matches!((av, bv), (Some(x), Some(y)) if time_regress(x, y, abs));
        add(key, av, bv, reg);
    }

    // Count keys: any increase beyond abs_count regresses.
    for key in [
        "degraded_rounds",
        "slots_leaked",
        "cold_starts",
        "dropped_events",
    ] {
        let (av, bv) = (num_at(a, &[key]), num_at(b, &[key]));
        let reg = matches!((av, bv), (Some(x), Some(y)) if count_regress(x, y));
        add(key, av, bv, reg);
    }
    for key in [
        "injected_failures",
        "injected_crashes",
        "injected_stragglers",
        "frames_dropped",
        "frames_corrupted",
        "retries",
        "exhausted",
    ] {
        let (av, bv) = (num_at(a, &["faults", key]), num_at(b, &["faults", key]));
        let reg = matches!((av, bv), (Some(x), Some(y)) if count_regress(x, y));
        add(&format!("faults.{key}"), av, bv, reg);
    }

    // Staleness distribution.
    for key in ["mean", "max", "p50"] {
        let (av, bv) = (
            num_at(a, &["staleness", key]),
            num_at(b, &["staleness", key]),
        );
        let reg =
            matches!((av, bv), (Some(x), Some(y)) if time_regress(x, y, opts.abs_count.max(1.0)));
        add(&format!("staleness.{key}"), av, bv, reg);
    }

    // Per-stage attribution: union of stage labels, raw time primary.
    let (sa, sb) = (stage_totals(a), stage_totals(b));
    let mut labels: Vec<&String> = sa.keys().chain(sb.keys()).collect();
    labels.sort();
    labels.dedup();
    for label in labels {
        let (ar, ab) = sa.get(label).copied().unwrap_or((0.0, 0.0));
        let (br, bb) = sb.get(label).copied().unwrap_or((0.0, 0.0));
        add(
            &format!("stage.{label}.raw_us"),
            Some(ar),
            Some(br),
            time_regress(ar, br, opts.abs_us),
        );
        add(
            &format!("stage.{label}.blamed_us"),
            Some(ab),
            Some(bb),
            time_regress(ab, bb, opts.abs_us),
        );
    }

    // Attribution coverage dropping below the SLO floor is a regression
    // regardless of the baseline.
    let (ca, cb) = (
        num_at(a, &["attribution", "coverage"]),
        num_at(b, &["attribution", "coverage"]),
    );
    let reg = matches!(cb, Some(c) if c < 0.95);
    add("attribution.coverage", ca, cb, reg);

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use stellaris_telemetry::json;

    fn report(straggle_raw: u64, retries: u64, wall: f64) -> Value {
        let json = format!(
            "{{\"config_hash\":42,\"wall_time_s\":{wall},\"cost_usd\":0.001,\"cost_wasted_usd\":0.0,\
             \"degraded_rounds\":0,\"slots_leaked\":0,\"cold_starts\":2,\"dropped_events\":0,\
             \"faults\":{{\"injected_failures\":0,\"injected_crashes\":0,\"injected_stragglers\":0,\
             \"frames_dropped\":0,\"frames_corrupted\":0,\"retries\":{retries},\"exhausted\":0}},\
             \"staleness\":{{\"count\":10,\"mean\":1.0,\"max\":3,\"p50\":1}},\
             \"attribution\":{{\"coverage\":0.99,\"wall_us\":100000,\"rounds\":[\
               {{\"round\":0,\"stages\":{{\"straggle\":{{\"blamed_us\":10,\"raw_us\":{straggle_raw}}},\
                 \"gemm/backward\":{{\"blamed_us\":50000,\"raw_us\":60000}}}}}}]}}}}"
        );
        json::parse(&json).unwrap_or(Value::Null)
    }

    #[test]
    fn identical_reports_pass() {
        let a = report(0, 0, 1.0);
        let d = diff(&a, &a, &DiffOptions::default());
        assert!(d.pass(), "{}", d.render());
        assert!(d.warnings.is_empty());
    }

    #[test]
    fn straggle_and_retry_growth_regresses() {
        let clean = report(0, 0, 1.0);
        let chaos = report(9000, 6, 1.4);
        let d = diff(&clean, &chaos, &DiffOptions::default());
        assert!(!d.pass());
        let keys: Vec<&str> = d.regressions().iter().map(|r| r.key.as_str()).collect();
        assert!(keys.contains(&"stage.straggle.raw_us"), "{keys:?}");
        assert!(keys.contains(&"faults.retries"), "{keys:?}");
        assert!(keys.contains(&"wall_time_s"), "{keys:?}");
        // The unchanged compute stage does not regress.
        assert!(!keys.contains(&"stage.gemm/backward.raw_us"), "{keys:?}");
    }

    #[test]
    fn slack_absorbs_noise() {
        let a = report(1000, 0, 1.0);
        // +400µs on a 1000µs baseline stays inside 1.1×1000 + 500µs slack.
        let b = report(1400, 0, 1.04);
        let d = diff(&a, &b, &DiffOptions::default());
        assert!(d.pass(), "{}", d.render());
    }

    #[test]
    fn coverage_floor_is_absolute() {
        let a = report(0, 0, 1.0);
        let mut low = report(0, 0, 1.0);
        if let Value::Obj(m) = &mut low {
            if let Some(Value::Obj(attr)) = m.get_mut("attribution") {
                attr.insert("coverage".to_owned(), Value::Num(0.80));
            }
        }
        let d = diff(&a, &low, &DiffOptions::default());
        let keys: Vec<&str> = d.regressions().iter().map(|r| r.key.as_str()).collect();
        assert!(keys.contains(&"attribution.coverage"), "{keys:?}");
    }

    #[test]
    fn missing_keys_warn_instead_of_failing() {
        let a = report(0, 0, 1.0);
        let b = json::parse("{\"wall_time_s\":1.0}").unwrap_or(Value::Null);
        let d = diff(&a, &b, &DiffOptions::default());
        assert!(!d.warnings.is_empty());
    }
}
