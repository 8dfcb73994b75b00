//! CLI for the Stellaris static analyzer (A1–A6, A8, A9).
//!
//! ```text
//! stellaris-analyze [root] [--format human|sarif] [--out FILE] [--explain RULE|all]
//! ```
//!
//! Without `root`, analyzes the enclosing workspace. `--explain` prints the
//! rationale/example/sanitizer documentation for one rule (or `all`) and
//! exits without analyzing. A finding is silenced only by a justified
//! `// lint:allow(<rule>): <why>` at its site.
//! Exit codes: 0 when clean, 1 when unsuppressed findings remain, 2 on
//! usage or I/O errors.

#![allow(clippy::print_stdout, clippy::print_stderr)]

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use stellaris_analyze::report::{render, Format};

struct Opts {
    root: Option<PathBuf>,
    format: Format,
    out: Option<PathBuf>,
    explain: Option<String>,
}

fn usage() -> &'static str {
    "usage: stellaris-analyze [root] [--format human|sarif] [--out FILE] [--explain RULE|all]"
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        root: None,
        format: Format::Human,
        out: None,
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
                eprintln!("stellaris-analyze: unknown rule `{rule}` (try A1–A6, A8, A9, or `all`)");
                ExitCode::from(2)
            }
        };
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

    let rendered = render(&analysis.findings, opts.format);
    if let Some(path) = &opts.out {
        if let Err(e) = std::fs::write(path, &rendered) {
            eprintln!("stellaris-analyze: failed to write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    } else {
        print!("{rendered}");
    }

    // Keep the human-readable status on stderr so `--format sarif` stdout
    // stays machine-parseable.
    let status = format!(
        "{} file(s), {} function(s), {} suppressed, analyzed in {elapsed_ms:.1} ms",
        analysis.files, analysis.fns, analysis.suppressed
    );
    if analysis.findings.is_empty() {
        eprintln!("stellaris-analyze: clean ({status})");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "stellaris-analyze: {} finding(s) ({status})",
            analysis.findings.len()
        );
        ExitCode::FAILURE
    }
}
