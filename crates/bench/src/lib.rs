//! # stellaris-bench
//!
//! Experiment harnesses that regenerate every table and figure of the
//! Stellaris paper's evaluation (see DESIGN.md §4 for the index). Each
//! `src/bin/fig*.rs` binary prints the series the corresponding figure
//! plots and writes CSV under `target/experiments/`.
//!
//! Defaults are laptop-scale (a figure regenerates in roughly a minute);
//! `--paper-scale` restores the published §VIII-A parameters, and
//! `--rounds`/`--seeds`/`--env` override individual knobs.

#![warn(missing_docs)]

use std::fs;
use std::path::PathBuf;

use stellaris_core::{train, TrainConfig, TrainResult};
use stellaris_envs::EnvId;

/// Emits one human-readable progress line on **stderr** and mirrors it as a
/// `bench.progress` telemetry instant event. Stdout is reserved for
/// machine-parseable output (see [`emit_csv`]), so piping a bench binary
/// into a file or parser never captures banners and sparklines.
#[expect(
    clippy::print_stderr,
    reason = "progress goes to stderr by design; stdout stays CSV-only"
)]
pub fn emit_progress(msg: &str) {
    stellaris_telemetry::instant("bench.progress", vec![("msg", msg.into())]);
    eprintln!("{msg}");
}

/// Writes one machine-parseable line (CSV row, path, or summary record) to
/// stdout — the only thing bench binaries print there.
#[expect(
    clippy::print_stdout,
    reason = "stdout is the bench binaries' machine-readable channel"
)]
pub fn emit_csv(line: &str) {
    println!("{line}");
}

/// `println!`-style progress reporting for bench binaries, routed through
/// [`emit_progress`] (stderr + telemetry) so stdout stays machine-parseable.
#[macro_export]
macro_rules! progress {
    () => { $crate::emit_progress("") };
    ($($arg:tt)*) => { $crate::emit_progress(&format!($($arg)*)) };
}

/// RAII handle that enables tracing when `STELLARIS_TRACE=<base>` is set in
/// the environment and, on drop, writes `<base>.jsonl` (structured events),
/// `<base>.trace.json` (chrome://tracing) and `<base>.prom` (Prometheus
/// text exposition). Construct it first thing in `main` via
/// [`telemetry_from_env`] so the guard outlives the whole run.
pub struct TelemetryGuard {
    base: Option<PathBuf>,
}

impl Drop for TelemetryGuard {
    fn drop(&mut self) {
        let Some(base) = self.base.take() else {
            return;
        };
        let events = stellaris_telemetry::drain();
        if let Err(e) = stellaris_telemetry::write_artefacts(&base, &events) {
            emit_progress(&format!("telemetry: cannot write {}: {e}", base.display()));
        }
        let dropped = stellaris_telemetry::dropped_events();
        emit_progress(&format!(
            "telemetry: {} events -> {}.{{jsonl,trace.json,prom}} ({dropped} dropped)",
            events.len(),
            base.display(),
        ));
        if dropped > 0 {
            emit_progress(&format!(
                "WARNING: telemetry sink overflowed; {dropped} events were DROPPED \
                 and the exported trace is incomplete (raise SINK_CAPACITY or \
                 trace a shorter run)"
            ));
        }
    }
}

/// Reads `STELLARIS_TRACE` and arms telemetry for this process; see
/// [`TelemetryGuard`]. With the variable unset, tracing stays disabled and
/// the guard is inert.
pub fn telemetry_from_env() -> TelemetryGuard {
    let base = std::env::var_os("STELLARIS_TRACE").map(PathBuf::from);
    if base.is_some() {
        stellaris_telemetry::enable();
    }
    TelemetryGuard { base }
}

/// Command-line options shared by all figure harnesses.
#[derive(Clone, Debug)]
pub struct ExpOpts {
    /// Training rounds override.
    pub rounds: Option<usize>,
    /// Number of random seeds to average over (paper: 10; default 3).
    pub seeds: u64,
    /// Environment filter (empty = the harness's default set).
    pub envs: Vec<EnvId>,
    /// Use the paper's full-scale parameters.
    pub paper_scale: bool,
    /// Free-form positional arguments (e.g. the Fig. 13 parameter name).
    pub positional: Vec<String>,
}

impl Default for ExpOpts {
    fn default() -> Self {
        Self {
            rounds: None,
            seeds: 3,
            envs: Vec::new(),
            paper_scale: false,
            positional: Vec::new(),
        }
    }
}

impl ExpOpts {
    /// Parses `std::env::args`, panicking with a usage hint on bad input.
    pub fn from_args() -> Self {
        let mut opts = Self::default();
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--rounds" => {
                    opts.rounds = Some(
                        args.next()
                            .and_then(|v| v.parse().ok())
                            .expect("--rounds needs a number"),
                    );
                }
                "--seeds" => {
                    opts.seeds = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--seeds needs a number");
                }
                "--env" => {
                    let name = args.next().expect("--env needs a name");
                    opts.envs.push(
                        EnvId::parse(&name).unwrap_or_else(|| panic!("unknown environment {name}")),
                    );
                }
                "--paper-scale" => opts.paper_scale = true,
                other => opts.positional.push(other.to_owned()),
            }
        }
        opts
    }

    /// Applies the common overrides to a config.
    pub fn apply(&self, mut cfg: TrainConfig) -> TrainConfig {
        if self.paper_scale {
            let mut paper = TrainConfig::stellaris_paper(cfg.env_id, cfg.seed);
            paper.learner_mode = cfg.learner_mode.clone();
            paper.deployment = cfg.deployment;
            paper.truncation_rho = cfg.truncation_rho;
            paper.dynamic_actors = cfg.dynamic_actors;
            paper.algo = cfg.algo;
            paper.cluster = cfg.cluster.clone();
            cfg = paper;
        }
        if let Some(r) = self.rounds {
            cfg.rounds = r;
            cfg.round_timesteps = cfg.round_timesteps.max(cfg.n_actors * cfg.actor_steps);
        }
        cfg
    }

    /// The environments this harness should cover.
    pub fn envs_or(&self, default: &[EnvId]) -> Vec<EnvId> {
        if self.envs.is_empty() {
            default.to_vec()
        } else {
            self.envs.clone()
        }
    }
}

/// Runs the same configuration under several seeds. When
/// `STELLARIS_RUNS_DIR` is set, each result is also serialized into the
/// run ledger as a `RunReport` (see `stellaris-obs`).
pub fn run_seeds(mk: impl Fn(u64) -> TrainConfig, seeds: u64) -> Vec<TrainResult> {
    (0..seeds.max(1))
        .map(|s| {
            let cfg = mk(s + 1);
            let res = train(&cfg);
            stellaris_obs::maybe_write_report(&cfg, &res);
            res
        })
        .collect()
}

/// Per-round mean across a set of runs: `(reward, cumulative cost)`.
pub fn mean_curve(results: &[TrainResult]) -> Vec<(f32, f64)> {
    let rounds = results.iter().map(|r| r.rows.len()).min().unwrap_or(0);
    (0..rounds)
        .map(|i| {
            let n = results.len() as f64;
            let reward =
                results.iter().map(|r| r.rows[i].reward).sum::<f32>() / results.len() as f32;
            let cost = results.iter().map(|r| r.rows[i].cost_usd).sum::<f64>() / n;
            (reward, cost)
        })
        .collect()
}

/// Mean of the final-reward metric across runs.
pub fn mean_final_reward(results: &[TrainResult]) -> f32 {
    results.iter().map(|r| r.final_reward_mean(3)).sum::<f32>() / results.len().max(1) as f32
}

/// Mean total cost across runs.
pub fn mean_cost(results: &[TrainResult]) -> f64 {
    results.iter().map(|r| r.cost.total()).sum::<f64>() / results.len().max(1) as f64
}

/// Output directory for experiment CSVs (created on demand).
pub fn experiments_dir() -> PathBuf {
    let dir = PathBuf::from("target/experiments");
    fs::create_dir_all(&dir).expect("cannot create target/experiments");
    dir
}

/// Writes a CSV file under the experiments directory, mirrors its content
/// to stdout (the machine-parseable channel) and reports the path on stderr.
pub fn write_csv(name: &str, content: &str) {
    let path = experiments_dir().join(name);
    fs::write(&path, content).expect("cannot write experiment CSV");
    emit_csv(content.trim_end());
    progress!("  -> wrote {}", path.display());
}

/// Prints a labelled numeric series on one line (the plottable data),
/// followed by a unicode sparkline so trends are visible in the terminal.
pub fn print_series(label: &str, values: impl IntoIterator<Item = f64>) {
    let vals: Vec<f64> = values.into_iter().collect();
    let s: Vec<String> = vals.iter().map(|v| format!("{v:.3}")).collect();
    progress!("  {label:<28} {}", s.join(" "));
    progress!("  {:<28} {}", "", sparkline(&vals));
}

/// Renders a numeric series as a unicode sparkline (`▁▂▃▄▅▆▇█`).
pub fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = [
        '\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}', '\u{2587}',
        '\u{2588}',
    ];
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in values {
        if v.is_finite() {
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    if values.is_empty() || !lo.is_finite() || hi - lo < 1e-12 {
        return BARS[0].to_string().repeat(values.len().max(1));
    }
    values
        .iter()
        .map(|&v| {
            if !v.is_finite() {
                return '?';
            }
            let idx = ((v - lo) / (hi - lo) * 7.0).round() as usize;
            BARS[idx.min(7)]
        })
        .collect()
}

/// Standard figure banner.
pub fn banner(fig: &str, what: &str) {
    progress!("================================================================");
    progress!("{fig}: {what}");
    progress!("================================================================");
}

/// A named configuration constructor used by [`run_pairwise`].
pub type Variant<'a> = (&'a str, &'a dyn Fn(EnvId, u64) -> TrainConfig);

/// Runs several named variants on several environments, printing each
/// reward curve and cost and writing one CSV per environment. The
/// workhorse behind Figs. 2, 6, 7, 9, 10 and 12.
pub fn run_pairwise(fig: &str, envs: &[EnvId], variants: &[Variant<'_>], opts: &ExpOpts) {
    for &env in envs {
        progress!("\n--- {} ---", env.name());
        let mut csv = String::from("variant,round,reward,cost_usd\n");
        let mut summaries = Vec::new();
        for (label, mk) in variants {
            let results = run_seeds(
                |seed| {
                    let mut cfg = opts.apply(mk(env, seed));
                    if opts.rounds.is_none() && !opts.paper_scale {
                        // Pixel-observation tasks cost ~10x more per round on
                        // CPU; keep default figure runtime balanced.
                        cfg.rounds = if EnvId::ATARI_SET.contains(&env) {
                            8
                        } else {
                            30
                        };
                    }
                    cfg
                },
                opts.seeds,
            );
            let curve = mean_curve(&results);
            print_series(
                &format!("{label} reward"),
                curve.iter().map(|(r, _)| *r as f64),
            );
            for (i, (r, c)) in curve.iter().enumerate() {
                csv.push_str(&format!("{label},{i},{r:.3},{c:.6}\n"));
            }
            summaries.push((
                label.to_string(),
                mean_final_reward(&results),
                mean_cost(&results),
            ));
        }
        progress!(
            "  {:<20} {:>12} {:>14}",
            "variant",
            "final-reward",
            "total-cost($)"
        );
        for (label, reward, cost) in &summaries {
            progress!("  {label:<20} {reward:>12.2} {cost:>14.6}");
        }
        if summaries.len() >= 2 {
            let (base_r, base_c) = (summaries[1].1, summaries[1].2);
            let (st_r, st_c) = (summaries[0].1, summaries[0].2);
            if base_r.abs() > 1e-6 && base_c > 0.0 {
                progress!(
                    "  => reward ratio (first/second): {:.2}x, cost change: {:+.1}%",
                    st_r / base_r,
                    (st_c - base_c) / base_c * 100.0
                );
            }
        }
        write_csv(&format!("{fig}_{}.csv", env.name().to_lowercase()), &csv);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stellaris_core::frameworks;

    #[test]
    fn mean_curve_averages_rounds() {
        let mk = |seed| TrainConfig::test_tiny(EnvId::PointMass, seed);
        let results = run_seeds(mk, 2);
        let curve = mean_curve(&results);
        assert_eq!(curve.len(), 3);
        assert!(curve.iter().all(|(r, c)| r.is_finite() && *c >= 0.0));
        assert!(mean_final_reward(&results).is_finite());
        assert!(mean_cost(&results) > 0.0);
    }

    #[test]
    fn opts_apply_rounds_override() {
        let opts = ExpOpts {
            rounds: Some(7),
            ..ExpOpts::default()
        };
        let cfg = opts.apply(frameworks::stellaris(EnvId::Hopper, 1));
        assert_eq!(cfg.rounds, 7);
    }

    #[test]
    fn sparkline_maps_extremes() {
        let s = sparkline(&[0.0, 1.0, 0.5]);
        let chars: Vec<char> = s.chars().collect();
        assert_eq!(chars.len(), 3);
        assert_eq!(chars[0], '\u{2581}');
        assert_eq!(chars[1], '\u{2588}');
        assert!(chars[2] != chars[0] && chars[2] != chars[1]);
        // Flat and empty inputs do not divide by zero.
        assert_eq!(sparkline(&[2.0, 2.0]).chars().count(), 2);
        assert_eq!(sparkline(&[]).chars().count(), 1);
        assert!(sparkline(&[f64::NAN, 1.0, 0.0]).contains('?'));
    }

    #[test]
    fn envs_or_prefers_explicit() {
        let mut opts = ExpOpts::default();
        assert_eq!(opts.envs_or(&[EnvId::Hopper]), vec![EnvId::Hopper]);
        opts.envs.push(EnvId::Qbert);
        assert_eq!(opts.envs_or(&[EnvId::Hopper]), vec![EnvId::Qbert]);
    }
}
