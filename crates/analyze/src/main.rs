//! CLI for the Stellaris static analyzer (L3, L6, A1–A9).
//!
//! ```text
//! stellaris-analyze [root] [--format human|json|sarif] [--out FILE]
//!                   [--baseline FILE] [--write-baseline FILE]
//!                   [--prune-baseline] [--ratchet] [--explain RULE|all]
//! ```
//!
//! Without `root`, analyzes the enclosing workspace. `--explain` prints the
//! rationale/example/sanitizer documentation for one rule (or `all`) and
//! exits without analyzing. `--prune-baseline` (with `--baseline`) rewrites
//! the baseline file without entries that no longer match any finding.
//! `--ratchet` (with `--baseline`) turns stale baseline entries from
//! warnings into failures, so the baseline can only shrink: a fixed finding
//! must be removed from the file, never silently resurrected.
//! Exit codes: 0 when clean (or everything is baselined), 1 when
//! unsuppressed findings remain (or, under `--ratchet`, when the baseline
//! has stale entries), 2 on usage or I/O errors.

#![allow(clippy::print_stdout, clippy::print_stderr)]

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use stellaris_analyze::baseline::{render_baseline, Baseline};
use stellaris_analyze::report::{render, Format};

struct Opts {
    root: Option<PathBuf>,
    format: Format,
    out: Option<PathBuf>,
    baseline: Option<PathBuf>,
    write_baseline: Option<PathBuf>,
    prune_baseline: bool,
    ratchet: bool,
    explain: Option<String>,
}

fn usage() -> &'static str {
    "usage: stellaris-analyze [root] [--format human|json|sarif] [--out FILE] \
     [--baseline FILE] [--write-baseline FILE] [--prune-baseline] [--ratchet] \
     [--explain RULE|all]"
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        root: None,
        format: Format::Human,
        out: None,
        baseline: None,
        write_baseline: None,
        prune_baseline: false,
        ratchet: false,
        explain: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => {
                let v = it.next().ok_or("--format needs a value")?;
                opts.format = Format::parse(v).ok_or_else(|| format!("unknown format `{v}`"))?;
            }
            "--out" => {
                let v = it.next().ok_or("--out needs a value")?;
                opts.out = Some(PathBuf::from(v));
            }
            "--baseline" => {
                let v = it.next().ok_or("--baseline needs a value")?;
                opts.baseline = Some(PathBuf::from(v));
            }
            "--write-baseline" => {
                let v = it.next().ok_or("--write-baseline needs a value")?;
                opts.write_baseline = Some(PathBuf::from(v));
            }
            "--prune-baseline" => opts.prune_baseline = true,
            "--ratchet" => opts.ratchet = true,
            "--explain" => {
                let v = it.next().ok_or("--explain needs a rule id or `all`")?;
                opts.explain = Some(v.clone());
            }
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}`"));
            }
            other => {
                if opts.root.is_some() {
                    return Err("more than one root given".to_string());
                }
                opts.root = Some(PathBuf::from(other));
            }
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_opts(&args) {
        Ok(o) => o,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("stellaris-analyze: {msg}");
            }
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };

    if let Some(rule) = &opts.explain {
        if rule.eq_ignore_ascii_case("all") {
            print!("{}", stellaris_analyze::explain::explain_all());
            return ExitCode::SUCCESS;
        }
        return match stellaris_analyze::explain::explain(rule) {
            Some(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("stellaris-analyze: unknown rule `{rule}` (try L3, L6, A1–A9, or `all`)");
                ExitCode::from(2)
            }
        };
    }
    if opts.prune_baseline && opts.baseline.is_none() {
        eprintln!("stellaris-analyze: --prune-baseline requires --baseline FILE");
        return ExitCode::from(2);
    }
    if opts.ratchet && opts.baseline.is_none() {
        eprintln!("stellaris-analyze: --ratchet requires --baseline FILE");
        return ExitCode::from(2);
    }

    let root = match opts.root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            match stellaris_analyze::find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!(
                        "stellaris-analyze: no workspace root found above {}",
                        cwd.display()
                    );
                    return ExitCode::from(2);
                }
            }
        }
    };

    let started = Instant::now();
    let analysis = match stellaris_analyze::analyze_workspace(&root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stellaris-analyze: failed to read {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;

    if let Some(path) = &opts.write_baseline {
        let text = render_baseline(
            analysis
                .findings
                .iter()
                .map(|f| (f.rule, f.file.as_str(), f.message.as_str())),
        );
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("stellaris-analyze: failed to write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "stellaris-analyze: wrote baseline with {} entr{} to {}",
            analysis.findings.len(),
            if analysis.findings.len() == 1 {
                "y"
            } else {
                "ies"
            },
            path.display()
        );
        return ExitCode::SUCCESS;
    }

    let mut findings = analysis.findings;
    let mut baselined = 0usize;
    let mut stale_fatal = 0usize;
    if let Some(path) = &opts.baseline {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("stellaris-analyze: failed to read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let mut base = match Baseline::parse(&text) {
            Ok(b) => b,
            Err(msg) => {
                eprintln!("stellaris-analyze: {}: {msg}", path.display());
                return ExitCode::from(2);
            }
        };
        findings.retain(|f| {
            let known = base.take(f.rule, &f.file, &f.message);
            if known {
                baselined += 1;
            }
            !known
        });
        let stale = base.stale();
        for s in &stale {
            eprintln!(
                "stellaris-analyze: stale baseline entry (no longer reported): {}\t{}\t{}",
                s.rule, s.file, s.message
            );
        }
        if opts.ratchet {
            // Under the ratchet a stale entry is debt someone forgot to
            // collect: the finding is fixed, so the baseline must shrink.
            stale_fatal = stale.len();
        }
        if opts.prune_baseline {
            let matched = base.matched();
            let text = render_baseline(
                matched
                    .iter()
                    .map(|k| (k.rule.as_str(), k.file.as_str(), k.message.as_str())),
            );
            if let Err(e) = std::fs::write(path, text) {
                eprintln!("stellaris-analyze: failed to write {}: {e}", path.display());
                return ExitCode::from(2);
            }
            eprintln!(
                "stellaris-analyze: pruned {} stale entr{} from {} ({} kept)",
                stale.len(),
                if stale.len() == 1 { "y" } else { "ies" },
                path.display(),
                matched.len()
            );
        }
    }

    let rendered = render(&findings, opts.format);
    if let Some(path) = &opts.out {
        if let Err(e) = std::fs::write(path, &rendered) {
            eprintln!("stellaris-analyze: failed to write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    } else {
        print!("{rendered}");
    }

    // Keep the human-readable status on stderr so `--format json/sarif`
    // stdout stays machine-parseable.
    let status = format!(
        "{} file(s), {} function(s), {} suppressed, {} baselined, analyzed in {elapsed_ms:.1} ms",
        analysis.files, analysis.fns, analysis.suppressed, baselined
    );
    if stale_fatal > 0 {
        eprintln!(
            "stellaris-analyze: ratchet: {stale_fatal} stale baseline entr{} — run --prune-baseline and commit the shrunken file ({status})",
            if stale_fatal == 1 { "y" } else { "ies" }
        );
        ExitCode::FAILURE
    } else if findings.is_empty() {
        eprintln!("stellaris-analyze: clean ({status})");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "stellaris-analyze: {} finding(s) ({status})",
            findings.len()
        );
        ExitCode::FAILURE
    }
}
