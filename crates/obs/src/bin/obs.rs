//! The `obs` binary: live observability for Stellaris training runs.
//!
//! ```text
//! obs dash [--env NAME] [--rounds N] [--seed S] [--chaos SEED]
//!          [--interval-ms M] [--runs-dir DIR] [--flight-dir DIR]
//!          [--report-name FILE] [--dump-on-exit]
//!     Run a training job with the flight recorder armed, tailing a
//!     plain-text dashboard of the metrics registry to stderr; on
//!     completion print the per-round critical-path blame table and write
//!     a RunReport into the ledger.
//!
//! obs diff <a.json> <b.json> [--rel PCT] [--abs-us U] [--fail-on-regress]
//!     Compare two RunReports (A = baseline); prints the delta table.
//!     With --fail-on-regress, exits non-zero when any key regressed.
//!
//! obs attribute <dump.jsonl>
//!     Re-run the critical-path analyzer over a flight-recorder or
//!     STELLARIS_TRACE JSONL dump and print the blame table.
//! ```

#![allow(clippy::print_stdout, clippy::print_stderr)]

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use stellaris_core::{train, TrainConfig};
use stellaris_envs::EnvId;
use stellaris_obs::{diff, Dashboard, DiffOptions, RunReport};
use stellaris_telemetry::{attribution, json, recorder, AttrEvent, RecorderConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("dash") => cmd_dash(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("attribute") => cmd_attribute(&args[1..]),
        _ => {
            usage();
            ExitCode::FAILURE
        }
    }
}

fn usage() {
    eprintln!("usage: obs <dash|diff|attribute> [options]");
    eprintln!("  dash       [--env NAME] [--rounds N] [--seed S] [--chaos SEED]");
    eprintln!("             [--interval-ms M] [--runs-dir DIR] [--flight-dir DIR]");
    eprintln!("             [--report-name FILE] [--dump-on-exit]");
    eprintln!("  diff       <a.json> <b.json> [--rel PCT] [--abs-us U] [--fail-on-regress]");
    eprintln!("  attribute  <dump.jsonl>");
}

struct Flags<'a> {
    args: &'a [String],
}

impl<'a> Flags<'a> {
    fn get(&self, name: &str) -> Option<&'a str> {
        let mut it = self.args.iter();
        while let Some(a) = it.next() {
            if a.strip_prefix("--") == Some(name) {
                return it.next().map(String::as_str);
            }
        }
        None
    }

    fn has(&self, name: &str) -> bool {
        self.args.iter().any(|a| a.strip_prefix("--") == Some(name))
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.get(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    fn positional(&self) -> Vec<&'a str> {
        // Flag values are consumed pairwise, so skip the token after any
        // value-carrying flag.
        let mut out = Vec::new();
        let mut it = self.args.iter().peekable();
        while let Some(a) = it.next() {
            if a.starts_with("--") {
                if matches!(it.peek(), Some(v) if !v.starts_with("--")) {
                    it.next();
                }
            } else {
                out.push(a.as_str());
            }
        }
        out
    }
}

fn cmd_dash(args: &[String]) -> ExitCode {
    let flags = Flags { args };
    let env_name = flags.get("env").unwrap_or("PointMass");
    let Some(env) = EnvId::parse(env_name) else {
        eprintln!("obs: unknown environment {env_name:?}");
        return ExitCode::FAILURE;
    };
    let seed = flags.num("seed", 1u64);
    let mut cfg = TrainConfig::test_tiny(env, seed);
    cfg.rounds = flags.num("rounds", cfg.rounds);
    if let Some(chaos_seed) = flags.get("chaos").and_then(|v| v.parse().ok()) {
        cfg = cfg.with_chaos(chaos_seed);
    }
    let interval = Duration::from_millis(flags.num("interval-ms", 200u64));
    let flight_dir = PathBuf::from(flags.get("flight-dir").unwrap_or("target/flight"));
    let runs_dir = PathBuf::from(flags.get("runs-dir").unwrap_or("runs"));

    recorder::install_panic_hook();
    recorder::arm(RecorderConfig {
        dir: flight_dir,
        ..RecorderConfig::default()
    });

    eprintln!(
        "obs dash: training {} on {} for {} rounds (seed {seed}{})",
        cfg.algo.name(),
        env.name(),
        cfg.rounds,
        if flags.has("chaos") { ", chaos on" } else { "" }
    );
    let train_cfg = cfg.clone();
    let worker = std::thread::spawn(move || train(&train_cfg));
    let dash = Dashboard::new();
    while !worker.is_finished() {
        eprintln!("{}", dash.render());
        std::thread::sleep(interval);
    }
    let Ok(result) = worker.join() else {
        eprintln!("obs dash: training thread panicked (see flight-recorder dump)");
        return ExitCode::FAILURE;
    };
    eprintln!("{}", dash.render());

    if flags.has("dump-on-exit") {
        match recorder::dump("manual") {
            Some(base) => eprintln!("obs dash: flight dump at {}.jsonl", base.display()),
            None => eprintln!("obs dash: flight dump failed"),
        }
    }

    // Attribute the full trace and print the blame table.
    stellaris_telemetry::flush_thread();
    let events: Vec<AttrEvent> = stellaris_telemetry::drain()
        .iter()
        .map(AttrEvent::from_event)
        .collect();
    let attr = attribution::attribute(&events);
    println!("{}", attr.render_table());

    let report = RunReport::new(&cfg, &result, Some(attr));
    let written = match flags.get("report-name") {
        Some(name) => report.write_named(&runs_dir, name),
        None => report.write_to(&runs_dir),
    };
    match written {
        Ok(path) => println!(
            "run report: {} (slo {})",
            path.display(),
            if report.slo_pass() { "PASS" } else { "FAIL" }
        ),
        Err(e) => {
            eprintln!("obs dash: cannot write run report: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn cmd_diff(args: &[String]) -> ExitCode {
    let flags = Flags { args };
    let pos = flags.positional();
    let [a_path, b_path] = pos.as_slice() else {
        eprintln!("obs diff: need exactly two report paths");
        return ExitCode::FAILURE;
    };
    let parse = |path: &str| -> Result<json::Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("parse {path}: {e}"))
    };
    let (a, b) = match (parse(a_path), parse(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("obs diff: {e}");
            return ExitCode::FAILURE;
        }
    };
    let opts = DiffOptions {
        rel: flags.num("rel", 10.0f64) / 100.0,
        abs_us: flags.num("abs-us", 500.0f64),
        ..DiffOptions::default()
    };
    let d = diff(&a, &b, &opts);
    print!("{}", d.render());
    if flags.has("fail-on-regress") && !d.pass() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn cmd_attribute(args: &[String]) -> ExitCode {
    let flags = Flags { args };
    let pos = flags.positional();
    let [path] = pos.as_slice() else {
        eprintln!("obs attribute: need exactly one JSONL dump path");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("obs attribute: read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match stellaris_obs::attribute_jsonl(&text) {
        Ok(attr) => {
            print!("{}", attr.render_table());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("obs attribute: {e}");
            ExitCode::FAILURE
        }
    }
}
