//! The runner: one workload run under the driver's protocol, the child
//! phases it is made of, and the whole-suite modes built on top of it.
//!
//! Every phase is a child process of the runner (this same binary with
//! `--phase`), so telemetry and arena globals start clean and `VmHWM` is the
//! phase's own. Children report in the line format of `report.rs`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::names::{per_layer, EndToEnd, END_TO_END, RUN_SECONDS};
use crate::report::Report;
use crate::stats::{median, quartiles_exclusive, spread};
use crate::workloads::{find, Driver, Workload, WORKLOADS};
use crate::{cycle, e2e, probes, Args};

/// Set-up samples per run; `setup_s` is their median.
const SETUP_SAMPLES: usize = 5;

/// Where the pieces live; shared by every mode.
struct Ctx {
    exe: PathBuf,
    worker_bin: String,
    out_dir: PathBuf,
    /// Smoke sizes: a few rounds, one set-up sample.
    tiny: bool,
}

impl Ctx {
    fn from_args(args: &Args) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
        let worker_bin = args
            .get("worker-bin")
            .unwrap_or("target/release/stellaris")
            .to_owned();
        if !Path::new(&worker_bin).is_file() {
            return Err(format!(
                "worker binary {worker_bin} not found (run through benchmark/run.sh, which builds it)"
            ));
        }
        let out_dir = PathBuf::from(args.get("out").unwrap_or("benchmark/out"));
        std::fs::create_dir_all(&out_dir)
            .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
        Ok(Self {
            exe,
            worker_bin,
            out_dir,
            tiny: args.has("tiny"),
        })
    }

    fn rounds(&self, w: &Workload, seconds: u64) -> usize {
        if self.tiny {
            3
        } else {
            w.rounds_for(seconds)
        }
    }

    /// Runs one phase in a child process and returns what it reported.
    fn child(
        &self,
        w: &Workload,
        seed: u64,
        phase: &str,
        extra: &[String],
    ) -> Result<Report, String> {
        let out = Command::new(&self.exe)
            .args(["--phase", phase, "--workload", w.name])
            .args(["--seed", &seed.to_string()])
            .args(["--worker-bin", &self.worker_bin])
            .args(extra)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot spawn phase {phase}: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "phase {phase} of {} failed: {}",
                w.name, out.status
            ));
        }
        Ok(Report::from_lines(&String::from_utf8_lossy(&out.stdout)))
    }
}

// ----- child phases ----------------------------------------------------------

pub fn child_main(args: &Args) -> Result<(), String> {
    let name = args.get("workload").ok_or("--phase needs --workload")?;
    let w = find(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = args.num("seed", 1u64)?;
    let worker_bin = args.get("worker-bin").ok_or("--phase needs --worker-bin")?;
    let report = match args.get("phase") {
        Some("setup") => {
            e2e::warm_up(w, seed, worker_bin)?;
            Report::default()
        }
        Some("e2e") => {
            let rounds = args.num("rounds", w.rounds_for(RUN_SECONDS))?;
            e2e::run(w, seed, rounds, worker_bin, args.has("telemetry"))?
        }
        Some("layers") => {
            let budget = Duration::from_millis(args.num("budget-ms", 2500u64)?);
            let spans_out = args.get("spans").map(Path::new);
            let mut r = cycle::run(w, seed, budget, spans_out)?;
            r.absorb(probes::run(w, seed, worker_bin)?);
            r
        }
        other => return Err(format!("unknown phase {other:?}")),
    };
    print!("{}", report.to_lines());
    Ok(())
}

// ----- one run of one workload ---------------------------------------------------

/// One run: every end-to-end metric with `trace` off, every per-layer
/// metric with it on. A failed correctness check fails all of its ops.
fn run_once(
    ctx: &Ctx,
    w: &Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> Result<Report, String> {
    let rounds_arg = ["--rounds".to_owned(), ctx.rounds(w, seconds).to_string()];
    let mut r = if trace {
        traced_pass(ctx, w, seed, &rounds_arg)?
    } else {
        untraced_pass(ctx, w, seed, &rounds_arg)?
    };
    if !r.correct() {
        r.failed = r.attempted;
    }
    Ok(r)
}

/// Set-up samples, then the timed run.
fn untraced_pass(
    ctx: &Ctx,
    w: &Workload,
    seed: u64,
    rounds_arg: &[String],
) -> Result<Report, String> {
    let samples = if ctx.tiny { 1 } else { SETUP_SAMPLES };
    let mut setup = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        ctx.child(w, seed, "setup", &[])?;
        setup.push(t0.elapsed().as_secs_f64());
    }
    let mut r = ctx.child(w, seed, "e2e", rounds_arg)?;
    r.metric("setup_s", median(&setup));
    Ok(r)
}

/// The timed run for the program's own layer numbers, the same run under
/// the program's tracer (in-process workloads), then the reference cycle
/// and the probes.
fn traced_pass(
    ctx: &Ctx,
    w: &Workload,
    seed: u64,
    rounds_arg: &[String],
) -> Result<Report, String> {
    let mut r = ctx.child(w, seed, "e2e", rounds_arg)?;
    let untraced = r.get("env_steps_per_s");
    if w.driver != Driver::RemoteTcp {
        let mut extra = rounds_arg.to_vec();
        extra.push("--telemetry".to_owned());
        let traced = ctx.child(w, seed, "e2e", &extra)?;
        r.metric(
            "telemetry.overhead_frac",
            1.0 - traced.get("env_steps_per_s") / untraced,
        );
        for (name, value) in &traced.metrics {
            if name.starts_with("attr.") {
                r.metric(name, *value);
            }
        }
        // Below 95% the program's own spans leave round wall unexplained:
        // worth a line, but a gap in the product's tracing, not a wrong
        // training result.
        let coverage = traced.get("attr.coverage");
        if coverage < 0.95 {
            eprintln!(
                "{}: attr.coverage {:.3} is below 0.95 ({} trace events dropped)",
                w.name,
                coverage,
                traced.get("telemetry.dropped_events")
            );
        }
        if let (Some(a), Some(b)) = (r.checksum, traced.checksum) {
            r.check(
                "checksum_reproducible",
                a == b,
                format!("same seed twice: {a:016x} and {b:016x}"),
            );
        }
        r.checks.extend(
            traced
                .checks
                .into_iter()
                .map(|(name, ok, detail)| (format!("traced.{name}"), ok, detail)),
        );
    }
    let spans = ctx.out_dir.join(format!("spans-{}-{seed}.jsonl", w.name));
    let mut extra = vec!["--spans".to_owned(), spans.display().to_string()];
    if ctx.tiny {
        extra.extend(["--budget-ms".to_owned(), "200".to_owned()]);
    }
    let layers = ctx.child(w, seed, "layers", &extra)?;
    let serial = layers.get("core.serial_steps_per_s");
    r.absorb(layers);
    r.metric("core.parallel_speedup", untraced / serial);
    Ok(r)
}

fn json_metrics(r: &Report, names: impl Iterator<Item = (String, &'static str)>) -> String {
    let body: Vec<String> = names
        .map(|(name, unit)| {
            let v = r.get(&name);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line the driver reads.
fn result_json(r: &Report, trace: bool) -> String {
    let metrics = if trace {
        json_metrics(r, per_layer().into_iter().map(|m| (m.name, m.unit)))
    } else {
        json_metrics(r, END_TO_END.iter().map(|m| (m.name.to_owned(), m.unit)))
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        r.correct(),
        r.attempted.max(1),
        r.failed
    )
}

fn print_checks(w: &Workload, r: &Report) {
    for (name, ok, detail) in &r.checks {
        println!(
            "{:<24} check {name:<22} {} {detail}",
            w.name,
            if *ok { "ok  " } else { "FAIL" }
        );
    }
    if let Some(k) = r.checksum {
        println!("{:<24} final_checksum {k:016x}", w.name);
    }
    println!(
        "{:<24} ops_failed/ops_attempted {}/{}",
        w.name, r.failed, r.attempted
    );
}

/// `--workload NAME --seed N --seconds S --trace 0|1`: one run, human lines
/// first, the JSON result as the last line of stdout.
pub fn driver_main(args: &Args) -> Result<(), String> {
    let ctx = Ctx::from_args(args)?;
    let name = args.get("workload").ok_or("--workload needs a name")?;
    let w = find(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = args.num("seed", 1u64)?;
    let seconds = args.num("seconds", RUN_SECONDS)?;
    let trace = args.num("trace", 0u8)? != 0;
    let r = run_once(&ctx, w, seed, seconds, trace)?;
    print_checks(w, &r);
    println!("{}", result_json(&r, trace));
    Ok(())
}

// ----- the whole suite -------------------------------------------------------------

type Samples = BTreeMap<(&'static str, &'static str), Vec<f64>>;

/// Median with quartiles and n, as the suite prints every end-to-end metric.
fn summary(values: &[f64]) -> String {
    let med = median(values);
    if values.len() < 2 {
        return format!("{med:>14.4}  (n={})", values.len());
    }
    let (q1, q3) = quartiles_exclusive(values);
    format!(
        "{med:>14.4}  [q1 {q1:.4}, q3 {q3:.4}, spread {:.1}%] (n={})",
        spread(values) * 100.0,
        values.len()
    )
}

fn worse_by(m: &EndToEnd, base: f64, new: f64) -> f64 {
    match m.better {
        "higher" => (base - new) / base,
        _ => (new - base) / base,
    }
}

/// No `--workload`: three interleaved repeats of every workload untraced
/// (seeds S, S+1, S+2), then one traced pass each, printed by name with
/// units and written to `<out>/latest.json`. `--selfcheck` runs two such
/// sets interleaved and requires them to agree within every bound.
pub fn suite_main(args: &Args) -> Result<(), String> {
    let ctx = Ctx::from_args(args)?;
    let seed = args.num("seed", 1u64)?;
    let seconds = args.num("seconds", RUN_SECONDS)?;
    let selfcheck = args.has("selfcheck");
    let repeats = if ctx.tiny { 1 } else { 3 };
    let sets = if selfcheck { 2 } else { 1 };

    let mut samples: Vec<Samples> = vec![Samples::new(); sets];
    let mut checksums: BTreeMap<(&str, u64), Vec<u64>> = BTreeMap::new();
    let mut ops: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    let mut all_correct = true;
    // Round-robin across workloads (and sets) so host drift hits all alike.
    for rep in 0..repeats {
        for w in &WORKLOADS {
            for set in samples.iter_mut() {
                let s = seed + rep as u64;
                let r = run_once(&ctx, w, s, seconds, false)?;
                print_checks(w, &r);
                all_correct &= r.correct();
                for m in &END_TO_END {
                    set.entry((w.name, m.name)).or_default().push(r.get(m.name));
                }
                if let Some(k) = r.checksum {
                    checksums.entry((w.name, s)).or_default().push(k);
                }
                let e = ops.entry(w.name).or_default();
                *e = (e.0 + r.failed, e.1 + r.attempted);
            }
        }
    }

    println!("\n== end-to-end (median of {repeats} seeds from {seed}) ==");
    let mut latest = String::from("{\n");
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let v = &samples[0][&(w.name, m.name)];
            println!("{:<24} {:<18} {} {}", w.name, m.name, summary(v), m.unit);
            latest.push_str(&format!(
                "  \"{}/{}\": {{\"value\": {:?}, \"unit\": \"{}\", \"n\": {}}},\n",
                w.name,
                m.name,
                median(v),
                m.unit,
                v.len()
            ));
        }
        let (failed, attempted) = ops[w.name];
        println!(
            "{:<24} ops_failed/ops_attempted {failed}/{attempted}",
            w.name
        );
    }

    let mut agree = true;
    if selfcheck {
        println!("\n== selfcheck: second set against the first ==");
        for w in &WORKLOADS {
            for m in &END_TO_END {
                let a = median(&samples[0][&(w.name, m.name)]);
                let b = median(&samples[1][&(w.name, m.name)]);
                let d = worse_by(m, a, b).max(worse_by(m, b, a));
                let ok = d <= m.bound;
                agree &= ok;
                println!(
                    "{:<24} {:<18} {a:>14.4} vs {b:>14.4}  differ {:>5.1}% (bound {:.0}%) {}",
                    w.name,
                    m.name,
                    d * 100.0,
                    m.bound * 100.0,
                    if ok { "ok" } else { "FAIL" }
                );
            }
        }
        for ((name, s), ks) in &checksums {
            let ok = ks.windows(2).all(|p| p[0] == p[1]);
            agree &= ok;
            println!(
                "{name:<24} final_checksum seed {s}: {:016x} x{} {}",
                ks[0],
                ks.len(),
                if ok { "identical" } else { "DIFFER" }
            );
        }
    }

    println!("\n== per-layer (traced pass, seed {seed}) ==");
    for w in &WORKLOADS {
        let r = run_once(&ctx, w, seed, seconds, true)?;
        print_checks(w, &r);
        all_correct &= r.correct();
        for m in per_layer() {
            let v = r.get(&m.name);
            println!(
                "{:<24} {:<34} {v:>16.4} {:<9} -> {} on {}",
                w.name, m.name, m.unit, m.moves.0, m.moves.1
            );
            latest.push_str(&format!(
                "  \"{}/{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}},\n",
                w.name, m.name, m.unit
            ));
        }
    }
    latest.push_str(&format!("  \"seed\": {seed}\n}}\n"));
    let path = ctx.out_dir.join("latest.json");
    std::fs::write(&path, latest).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("\nwrote {} and the spans beside it", path.display());

    if !all_correct {
        return Err("a correctness check failed".to_owned());
    }
    if !agree {
        return Err("selfcheck: the two sets disagree beyond a bound".to_owned());
    }
    Ok(())
}
