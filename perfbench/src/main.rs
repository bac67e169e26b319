//! Benchmark of the three user-facing wsan pipelines.
//!
//! ```text
//! wsan-perfbench --workload <city-shard|serve-churn|detect-wifi> --seed N
//!                --seconds S --trace <0|1> [--wsan PATH] [--work DIR] [--record]
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics
//! (`setup_s`, `wall_s`, `peak_rss_mb`); with `--trace 1` it carries every
//! per-layer metric, timed from outside by calling each layer's public
//! functions. Every run checks the workload's output oracles; a failed
//! oracle or an unexpected error is a failed operation and makes
//! `correct` false. `--record` prints the digest table of the recorded
//! input pool instead of checking it (used once, when the pool is made).
//! `--city-child SEED` is internal: one city pipeline in a fresh process;
//! so is `--pace-probe`, the host-speed probe helper (`src/speed.rs`).
//! See `perfbench/README.md`.

mod city;
mod detect;
mod digest;
mod report;
mod serve;
mod speed;
mod stats;
mod stream;

use report::RunResult;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

/// Parsed command line.
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Minimum length of the timed phase.
    pub seconds: Duration,
    /// Per-layer traced run instead of the end-to-end run.
    pub trace: bool,
    /// The `wsan` binary `serve-churn` spawns.
    pub wsan: PathBuf,
    /// Directory for the journal, sockets and exports `serve-churn` writes.
    pub work: PathBuf,
    /// Print the recorded-pool digest table instead of running.
    pub record: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut wsan = PathBuf::from("target/release/wsan");
    let mut work = PathBuf::from(".bench_build/perfbench-work");
    let mut record = false;
    let mut city_child = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--record" {
            record = true;
            continue;
        }
        if flag == "--pace-probe" {
            workload = Some(flag.trim_start_matches("--").to_string());
            seed = Some(0);
            seconds = Some(Duration::ZERO);
            trace = Some(false);
            continue;
        }
        if flag == "--city-child" {
            let value = it.next().ok_or("--city-child expects a plant seed")?;
            city_child = Some(value.parse().map_err(|_| format!("bad plant seed '{value}'"))?);
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed '{value}'"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| format!("bad --seconds '{value}'"))?;
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got '{value}'")),
                })
            }
            "--wsan" => wsan = PathBuf::from(value),
            "--work" => work = PathBuf::from(value),
            other => return Err(format!("unknown option {other}")),
        }
    }
    if let Some(seed) = city_child {
        return Ok(Options {
            workload: "city-child".to_string(),
            seed,
            seconds: Duration::ZERO,
            trace: trace.unwrap_or(false),
            wsan,
            work,
            record,
        });
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        wsan,
        work,
        record,
    })
}

fn run(opts: &Options) -> Result<Option<RunResult>, String> {
    if opts.record {
        match opts.workload.as_str() {
            "city-shard" => city::record(),
            "detect-wifi" => detect::record(),
            other => return Err(format!("no recorded pool for workload '{other}'")),
        }
        return Ok(None);
    }
    let result = match opts.workload.as_str() {
        "pace-probe" => {
            speed::serve_probes()?;
            return Ok(None);
        }
        "city-child" => {
            city::child(opts.seed, opts.trace)?;
            return Ok(None);
        }
        "city-shard" => city::run(opts),
        "serve-churn" => serve::run(opts)?,
        "detect-wifi" => detect::run(opts)?,
        other => {
            return Err(format!("unknown workload '{other}' (city-shard|serve-churn|detect-wifi)"))
        }
    };
    Ok(Some(result))
}

/// Runs this binary again with `args` and returns its stdout.
pub fn run_self(args: &[&str]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot spawn {args:?}: {e}"))?;
    if !out.status.success() {
        return Err(format!("child {args:?} exited with {}", out.status));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(Some(result)) => {
            println!("{}", result.to_json(opts.trace));
            ExitCode::SUCCESS
        }
        Ok(None) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
