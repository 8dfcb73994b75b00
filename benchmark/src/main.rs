//! `stellaris-benchmark`: the repo benchmark's runner (see `README.md`).
//!
//! ```text
//! stellaris-benchmark --workload NAME --seed N --seconds S --trace 0|1   one run, JSON on the last line
//! stellaris-benchmark [--seed N] [--seconds S] [--tiny] [--selfcheck]    the whole suite, as a table
//! stellaris-benchmark --describe                                         BENCHMARK.json from the tables
//! ```
//!
//! `benchmark/run.sh` builds the product binary and this one, then passes
//! its arguments through with `--worker-bin` and `--out` added.

mod api;
mod cycle;
mod e2e;
mod names;
mod probes;
mod report;
mod runner;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;

/// `--name value` pairs and bare `--flag`s.
pub struct Args(Vec<(String, Option<String>)>);

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Self {
        let mut out = Vec::new();
        let mut it = raw.peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                let value = it.next_if(|v| !v.starts_with("--"));
                out.push((name.to_owned(), value));
            }
        }
        Self(out)
    }

    pub fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    pub fn has(&self, name: &str) -> bool {
        self.0.iter().any(|(n, _)| n == name)
    }

    pub fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name}: bad value {v:?}")),
        }
    }
}

fn main() -> ExitCode {
    let args = Args::parse(std::env::args().skip(1));
    let outcome = if args.has("describe") {
        print!("{}", names::benchmark_json());
        Ok(())
    } else if args.has("phase") {
        runner::child_main(&args)
    } else if args.has("workload") {
        runner::driver_main(&args)
    } else {
        runner::suite_main(&args)
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("stellaris-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
