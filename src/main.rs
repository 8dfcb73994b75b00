//! The `stellaris` command-line interface: train, evaluate and simulate
//! from the shell without writing a harness.
//!
//! ```text
//! stellaris train    --env Hopper [--algo ppo|impact] [--rounds N] [--seed S]
//!                    [--learners N] [--actors N] [--rule stellaris|softsync|ssp|pure-async]
//!                    [--serverful] [--no-truncation] [--checkpoint PATH] [--csv PATH]
//! stellaris eval     --env Hopper --checkpoint PATH [--episodes N]
//! stellaris simulate [--sync] [--serverful] [--atari] [--rounds N]
//! stellaris envs
//! ```

#![allow(clippy::print_stdout, clippy::print_stderr)]

use std::path::PathBuf;
use std::process::ExitCode;

use stellaris::prelude::*;
use stellaris::rl::{load_policy, save_policy};
use stellaris::simcluster::{simulate, SimBilling, SimConfig, TimingProfile};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage();
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "train" => cmd_train(rest),
        "eval" => cmd_eval(rest),
        "simulate" => cmd_simulate(rest),
        "worker" => cmd_worker(rest),
        "remote" => cmd_remote(rest),
        "envs" => {
            println!("available environments:");
            for id in EnvId::PAPER_SET {
                println!(
                    "  {:<15} ({})",
                    id.name(),
                    if id.is_continuous() {
                        "continuous"
                    } else {
                        "discrete"
                    }
                );
            }
            println!("  {:<15} (continuous, diagnostic)", "PointMass");
            println!("  {:<15} (discrete, diagnostic)", "ChainMdp");
            ExitCode::SUCCESS
        }
        "--help" | "-h" | "help" => {
            usage();
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown command: {other}");
            usage();
            ExitCode::FAILURE
        }
    }
}

fn usage() {
    eprintln!("usage: stellaris <train|eval|simulate|envs> [options]");
    eprintln!("  train    --env NAME [--algo ppo|impact] [--rounds N] [--seed S]");
    eprintln!("           [--learners N] [--actors N] [--rule NAME] [--serverful]");
    eprintln!("           [--no-truncation] [--dynamic-learners] [--checkpoint PATH] [--csv PATH]");
    eprintln!("  eval     --env NAME --checkpoint PATH [--episodes N] [--seed S]");
    eprintln!(
        "  simulate [--sync] [--serverful] [--atari] [--rounds N] (paper-scale virtual time)"
    );
    eprintln!("  remote   --env NAME [--rounds N] [--learners N] [--seed S] [--chaos SEED]");
    eprintln!("           [--transport tcp|uds] (train with real worker child processes)");
    eprintln!("  worker   --connect tcp:H:P|uds:PATH --span-base N --max-frame BYTES");
    eprintln!("           (internal: serve frames as a spawned worker process)");
    eprintln!("  envs     list available environments");
}

struct Flags {
    map: Vec<(String, Option<String>)>,
}

impl Flags {
    fn parse(args: &[String]) -> Self {
        let mut map = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                let value = match it.peek() {
                    Some(v) if !v.starts_with("--") => Some(it.next().unwrap().clone()),
                    _ => None,
                };
                map.push((name.to_owned(), value));
            }
        }
        Self { map }
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.map
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.map.iter().any(|(n, _)| n == name)
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.get(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }
}

fn parse_env(flags: &Flags) -> Result<EnvId, ExitCode> {
    let name = flags.get("env").unwrap_or("Hopper");
    EnvId::parse(name).ok_or_else(|| {
        eprintln!("unknown environment: {name} (try `stellaris envs`)");
        ExitCode::FAILURE
    })
}

fn cmd_train(args: &[String]) -> ExitCode {
    let flags = Flags::parse(args);
    let env = match parse_env(&flags) {
        Ok(e) => e,
        Err(c) => return c,
    };
    let seed = flags.num("seed", 1u64);
    let mut cfg = TrainConfig::stellaris_scaled(env, seed);
    match flags.get("algo") {
        None | Some("ppo") => {}
        Some("impact") => cfg = cfg.with_impact(ImpactConfig::scaled()),
        Some(other) => {
            eprintln!("unknown algorithm: {other} (expected ppo or impact)");
            return ExitCode::FAILURE;
        }
    }
    cfg.rounds = flags.num("rounds", 15usize);
    cfg.max_learners = flags.num("learners", cfg.max_learners);
    cfg.n_actors = flags.num("actors", cfg.n_actors);
    cfg.dynamic_actors = flags.has("dynamic-actors");
    cfg.dynamic_learners = flags.has("dynamic-learners");
    if flags.has("serverful") {
        cfg.deployment = Deployment::Serverful;
    }
    if flags.has("no-truncation") {
        cfg.truncation_rho = None;
    }
    if let Some(rule) = flags.get("rule") {
        let rule = match rule {
            "stellaris" => AggregationRule::stellaris_default(),
            "softsync" => AggregationRule::Softsync { c: 4 },
            "ssp" => AggregationRule::Ssp { bound: 3 },
            "pure-async" => AggregationRule::PureAsync,
            "sync" => {
                cfg.learner_mode = LearnerMode::Sync {
                    n: cfg.max_learners,
                };
                AggregationRule::FullSync {
                    n: cfg.max_learners,
                }
            }
            other => {
                eprintln!("unknown rule: {other}");
                return ExitCode::FAILURE;
            }
        };
        if rule.name() != "full-sync" {
            cfg.learner_mode = LearnerMode::Async { rule };
        }
    }

    println!(
        "training {} on {} for {} rounds ({})",
        cfg.algo.name(),
        env.name(),
        cfg.rounds,
        cfg.label()
    );
    let result = train(&cfg);
    if let Some(path) = stellaris_obs::maybe_write_report(&cfg, &result) {
        println!("run report: {}", path.display());
    }
    println!("{}", TrainRow::CSV_HEADER);
    for row in &result.rows {
        println!("{}", row.to_csv());
    }
    println!(
        "\nfinal reward {:.2} | cost ${:.6} | {} updates | {} invocations | util {:.1}%",
        result.final_reward,
        result.cost.total(),
        result.policy_updates,
        result.learner_invocations,
        result.gpu_utilization * 100.0
    );
    if let Some(path) = flags.get("csv") {
        if let Err(e) = std::fs::write(path, rows_to_csv(&result.rows)) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    if let Some(path) = flags.get("checkpoint") {
        // Persist the final trained weights from the parameter function.
        let mut env_inst = make_env(cfg.env_id, cfg.env_cfg);
        env_inst.reset(cfg.seed);
        let mut spec = PolicySpec::for_env(env_inst.as_ref());
        spec.hidden = cfg.hidden;
        let mut policy = PolicyNet::new(spec, cfg.seed);
        policy.load_snapshot(&result.final_snapshot);
        if let Err(e) = save_policy(&policy, &PathBuf::from(path)) {
            eprintln!("cannot write checkpoint {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "wrote trained checkpoint {path} (policy v{})",
            policy.version
        );
    }
    ExitCode::SUCCESS
}

fn cmd_eval(args: &[String]) -> ExitCode {
    let flags = Flags::parse(args);
    let env_id = match parse_env(&flags) {
        Ok(e) => e,
        Err(c) => return c,
    };
    let Some(path) = flags.get("checkpoint") else {
        eprintln!("eval requires --checkpoint PATH");
        return ExitCode::FAILURE;
    };
    let episodes = flags.num("episodes", 5usize);
    let seed = flags.num("seed", 0u64);
    let mut env = make_env(env_id, EnvConfig::default());
    env.reset(seed);
    let mut spec = PolicySpec::for_env(env.as_ref());
    spec.hidden = flags.num("hidden", 64usize);
    let mut policy = PolicyNet::new(spec, 0);
    if let Err(e) = load_policy(&mut policy, &PathBuf::from(path)) {
        eprintln!("cannot load checkpoint: {e}");
        return ExitCode::FAILURE;
    }
    let reward = evaluate(&policy, env.as_mut(), episodes, seed);
    println!(
        "{}: mean episodic reward over {episodes} episodes = {reward:.2} (policy v{})",
        env_id.name(),
        policy.version
    );
    ExitCode::SUCCESS
}

/// The child half of the process pool protocol: connect back to the
/// parent's listener and serve frames until told to stop. Spawned as
/// `stellaris worker --connect ADDR --span-base N --max-frame BYTES` by
/// [`stellaris::core::RemoteFleet`] / `ProcessPool`.
fn cmd_worker(args: &[String]) -> ExitCode {
    use stellaris::serverless::WireStream;
    let flags = Flags::parse(args);
    let Some(addr) = flags.get("connect") else {
        eprintln!("worker requires --connect tcp:HOST:PORT or uds:PATH");
        return ExitCode::FAILURE;
    };
    let span_base = flags.num("span-base", 1u64 << 40);
    let max_frame = flags.num("max-frame", stellaris::cache::frame::DEFAULT_MAX_FRAME);
    let stream = match WireStream::connect_addr(addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("worker cannot connect to {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match stellaris::core::serve_worker(stream, span_base, max_frame) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // A vanished parent is a normal end of life for a worker; any
            // other wire failure is worth a line on stderr.
            eprintln!("worker exiting on wire error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Demo/diagnostic: run a tiny training job where the actor and learners
/// are real child processes talking length-prefixed frames over TCP or
/// unix-domain sockets, with optional seeded chaos on the learner path.
fn cmd_remote(args: &[String]) -> ExitCode {
    use stellaris::core::RemoteFleet;
    use stellaris::serverless::{ProcessConfig, WireTransport};
    let flags = Flags::parse(args);
    let name = flags.get("env").unwrap_or("PointMass");
    let Some(env) = EnvId::parse(name) else {
        eprintln!("unknown environment: {name} (try `stellaris envs`)");
        return ExitCode::FAILURE;
    };
    let seed = flags.num("seed", 1u64);
    let mut cfg = TrainConfig::test_tiny(env, seed);
    cfg.rounds = flags.num("rounds", cfg.rounds);
    cfg.max_learners = flags.num("learners", cfg.max_learners);
    if let Some(chaos_seed) = flags.get("chaos").and_then(|v| v.parse().ok()) {
        cfg = cfg.with_chaos(chaos_seed);
    }
    let mut proc_cfg = ProcessConfig::default();
    match flags.get("transport") {
        None | Some("tcp") => proc_cfg.transport = WireTransport::Tcp,
        #[cfg(unix)]
        Some("uds") => proc_cfg.transport = WireTransport::Uds,
        Some(other) => {
            eprintln!("unknown transport: {other} (expected tcp or uds)");
            return ExitCode::FAILURE;
        }
    }
    let program = match std::env::current_exe() {
        Ok(p) => p.display().to_string(),
        Err(e) => {
            eprintln!("cannot resolve own executable for worker spawning: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "remote fleet: {} on {} for {} rounds, {} learner processes + 1 actor process",
        cfg.algo.name(),
        env.name(),
        cfg.rounds,
        cfg.max_learners
    );
    let fleet = RemoteFleet::new(program, vec!["worker".to_string()], proc_cfg, cfg);
    match fleet.run() {
        Ok(report) => {
            println!(
                "policy v{} | checksum {:016x} | {} gradients aggregated | staleness {:?}",
                report.final_version,
                report.final_checksum,
                report.grads_aggregated,
                report.staleness_log
            );
            println!(
                "{} cold spawns | {} warm reuses | {} recovered retries | {} worker events merged",
                report.cold_spawns, report.warm_reuses, report.recovered, report.events_ingested
            );
            let f = &report.faults;
            println!(
                "faults: {} failed invokes, {} crashes, {} stragglers, {} dropped, {} corrupted, {} retries, {} exhausted",
                f.injected_failures,
                f.injected_crashes,
                f.injected_stragglers,
                f.frames_dropped,
                f.frames_corrupted,
                f.retries,
                f.exhausted
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("remote fleet failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_simulate(args: &[String]) -> ExitCode {
    let flags = Flags::parse(args);
    let mut cfg = if flags.has("sync") {
        SimConfig::sync_serverful_paper_mujoco()
    } else {
        SimConfig::stellaris_paper_mujoco()
    };
    if flags.has("serverful") {
        cfg.billing = SimBilling::Serverful;
    }
    if flags.has("atari") {
        cfg.timing = TimingProfile::atari_v100();
        cfg.minibatch = 256;
    }
    cfg.rounds = flags.num("rounds", cfg.rounds);
    println!(
        "simulating {} rounds at paper scale ({} actors, {} learner slots, {:?})...",
        cfg.rounds, cfg.n_actors, cfg.max_learners, cfg.billing
    );
    let r = simulate(&cfg);
    println!(
        "virtual time {:.1}s | cost ${:.4} (learner ${:.4} / actor ${:.4}) | util {:.1}% | mean staleness {:.2} | {} updates",
        r.virtual_time_s,
        r.cost.total(),
        r.cost.learner_usd,
        r.cost.actor_usd,
        r.gpu_utilization * 100.0,
        r.mean_staleness(),
        r.updates
    );
    ExitCode::SUCCESS
}
