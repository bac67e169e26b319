//! The measurement harness shared by the tracked `*_bench` binaries and
//! `bench_check`: one flag walker ([`Flags`]), one option set
//! ([`BenchArgs`]), one sample clock ([`elapsed_ns`]), one median
//! ([`median_ns`]), and one report writer ([`write_report`]).
//!
//! Every tracked binary takes `--iters N --seed S --quick --out PATH`;
//! the plant-based ones add `--nodes N` and (`graph_bench`) `--jobs N`.
//! Each binary states its own defaults and `--quick` cap in a
//! [`BenchSpec`], so the flags behave identically everywhere while the
//! workloads keep their own scales.

use crate::{results_dir, write_err, BenchError};
use serde::Serialize;
use std::fmt;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::time::Instant;

/// Walks `--flag [value]` arguments. Every malformed argument becomes a
/// [`BenchError::Usage`] that ends with the binary's usage line.
pub struct Flags<I> {
    args: I,
    usage: String,
}

impl<I: Iterator<Item = String>> Flags<I> {
    /// Wraps an argument list (without the program name).
    pub fn new(args: impl IntoIterator<IntoIter = I>, usage: impl Into<String>) -> Self {
        Flags { args: args.into_iter(), usage: usage.into() }
    }

    /// The next flag, or `None` once the arguments are exhausted.
    pub fn next_flag(&mut self) -> Option<String> {
        self.args.next()
    }

    /// Consumes and parses the value that follows `flag`.
    ///
    /// # Errors
    ///
    /// A usage error when the value is missing or does not parse.
    pub fn value<T>(&mut self, flag: &str) -> Result<T, BenchError>
    where
        T: FromStr,
        T::Err: fmt::Display,
    {
        let raw = self.args.next().ok_or_else(|| self.usage(format!("{flag} needs a value")))?;
        raw.parse().map_err(|e| self.usage(format!("{flag} got malformed value '{raw}' ({e})")))
    }

    /// The error for an argument the binary does not take.
    pub fn unknown(&self, flag: &str) -> BenchError {
        self.usage(format!("unknown argument {flag}"))
    }

    /// A usage error: `msg` followed by the usage line.
    pub fn usage(&self, msg: impl fmt::Display) -> BenchError {
        BenchError::Usage(format!("{msg}; {}", self.usage))
    }
}

/// One tracked binary's defaults.
#[derive(Debug, Clone, Copy)]
pub struct BenchSpec {
    /// Report file name under the results directory (`BENCH_sim.json`).
    pub report: &'static str,
    /// Default timed iterations.
    pub iters: usize,
    /// The cap `--quick` puts on the iterations given so far.
    pub quick_iters: usize,
    /// Default seed.
    pub seed: u64,
    /// Default for `--nodes`, or `None` if the binary does not take it.
    pub nodes: Option<usize>,
    /// Default for `--jobs`, or `None` if the binary does not take it.
    pub jobs: Option<usize>,
}

/// Parsed options of a tracked binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchArgs {
    /// Timed iterations (at least 1).
    pub iters: usize,
    /// Workload seed.
    pub seed: u64,
    /// Target plant size; 0 for binaries that do not take `--nodes`.
    pub nodes: usize,
    /// Worker count (at least 1); 0 for binaries that do not take `--jobs`.
    pub jobs: usize,
    /// Where the report goes: `--out`, else `<results dir>/<report>`.
    pub out: PathBuf,
}

impl BenchArgs {
    /// Parses the process arguments against `spec`.
    ///
    /// # Errors
    ///
    /// A usage error on malformed arguments.
    pub fn parse(spec: &BenchSpec) -> Result<Self, BenchError> {
        Self::parse_from(std::env::args().skip(1), spec)
    }

    /// [`BenchArgs::parse`] over an explicit argument list.
    ///
    /// # Errors
    ///
    /// A usage error on malformed arguments, `--iters 0`, `--jobs 0`, or
    /// a flag the binary does not take.
    pub fn parse_from(
        args: impl IntoIterator<Item = String>,
        spec: &BenchSpec,
    ) -> Result<Self, BenchError> {
        let mut usage = String::from("supported: --iters N --seed S");
        if spec.nodes.is_some() {
            usage.push_str(" --nodes N");
        }
        if spec.jobs.is_some() {
            usage.push_str(" --jobs N");
        }
        usage.push_str(" --quick --out PATH");
        let mut flags = Flags::new(args, usage);
        let mut iters = spec.iters;
        let mut seed = spec.seed;
        let mut nodes = spec.nodes.unwrap_or(0);
        let mut jobs = spec.jobs.unwrap_or(0);
        let mut out = None;
        while let Some(flag) = flags.next_flag() {
            match flag.as_str() {
                "--iters" => iters = flags.value(&flag)?,
                "--seed" => seed = flags.value(&flag)?,
                "--nodes" if spec.nodes.is_some() => nodes = flags.value(&flag)?,
                "--jobs" if spec.jobs.is_some() => jobs = flags.value(&flag)?,
                "--out" => out = Some(flags.value::<PathBuf>(&flag)?),
                "--quick" => iters = iters.min(spec.quick_iters),
                _ => return Err(flags.unknown(&flag)),
            }
        }
        if iters == 0 {
            return Err(flags.usage("--iters must be at least 1"));
        }
        if spec.jobs.is_some() && jobs == 0 {
            return Err(flags.usage("--jobs must be at least 1"));
        }
        let out = out.unwrap_or_else(|| results_dir().join(spec.report));
        Ok(BenchArgs { iters, seed, nodes, jobs, out })
    }
}

/// Nanoseconds since `start`, saturating at `u64::MAX` and at least 1, so
/// every sample is a positive duration.
pub fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX).max(1)
}

/// Median of a sample set, destructively (sorts the slice). Even-length
/// samples take the lower middle, so every `median_*_ns` field in every
/// `BENCH_*.json` is the same statistic.
///
/// # Panics
///
/// On an empty slice (the parser guarantees at least one iteration).
pub fn median_ns(samples: &mut [u64]) -> u64 {
    assert!(!samples.is_empty(), "median of no samples");
    samples.sort_unstable();
    samples[(samples.len() - 1) / 2]
}

/// Writes `report` to `path` as pretty JSON plus a newline, creating the
/// parent directory. The bytes go to a temporary file beside `path` that
/// is then renamed over it, so a killed run never leaves a torn report.
///
/// # Errors
///
/// Serialization or I/O failures, with the offending path.
pub fn write_report(path: &Path, report: &impl Serialize) -> Result<(), BenchError> {
    let json = serde_json::to_string_pretty(report)
        .map_err(|e| BenchError::Run(format!("cannot serialise report: {e}")))?;
    let name = path
        .file_name()
        .ok_or_else(|| BenchError::Usage(format!("{} names no file", path.display())))?;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(write_err(dir))?;
    }
    let mut tmp_name = std::ffi::OsString::from(".");
    tmp_name.push(name);
    tmp_name.push(format!(".tmp{}", std::process::id()));
    let tmp = path.with_file_name(tmp_name);
    std::fs::write(&tmp, json + "\n").map_err(write_err(&tmp))?;
    std::fs::rename(&tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        write_err(path)(e)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: BenchSpec = BenchSpec {
        report: "BENCH_x.json",
        iters: 30,
        quick_iters: 3,
        seed: 42,
        nodes: None,
        jobs: None,
    };
    const PLANT: BenchSpec = BenchSpec { nodes: Some(1200), jobs: Some(4), ..SPEC };

    fn parse(args: &[&str], spec: &BenchSpec) -> Result<BenchArgs, BenchError> {
        BenchArgs::parse_from(args.iter().map(|s| s.to_string()), spec)
    }

    fn usage_error(args: &[&str], spec: &BenchSpec) -> String {
        match parse(args, spec) {
            Err(BenchError::Usage(msg)) => msg,
            other => panic!("{args:?}: expected a usage error, got {other:?}"),
        }
    }

    #[test]
    fn defaults_come_from_the_spec() {
        let a = parse(&[], &PLANT).unwrap();
        assert_eq!((a.iters, a.seed, a.nodes, a.jobs), (30, 42, 1200, 4));
        assert!(a.out.ends_with("BENCH_x.json"));
        let a = parse(&[], &SPEC).unwrap();
        assert_eq!((a.nodes, a.jobs), (0, 0));
    }

    #[test]
    fn parses_every_flag() {
        let a = parse(
            &["--iters", "7", "--seed", "9", "--nodes", "300", "--jobs", "2", "--out", "x/r.json"],
            &PLANT,
        )
        .unwrap();
        assert_eq!(
            a,
            BenchArgs { iters: 7, seed: 9, nodes: 300, jobs: 2, out: PathBuf::from("x/r.json") }
        );
    }

    #[test]
    fn quick_caps_the_iterations_given_before_it() {
        assert_eq!(parse(&["--quick"], &SPEC).unwrap().iters, 3);
        assert_eq!(parse(&["--iters", "2", "--quick"], &SPEC).unwrap().iters, 2);
        assert_eq!(parse(&["--iters", "50", "--quick"], &SPEC).unwrap().iters, 3);
        assert_eq!(parse(&["--quick", "--iters", "50"], &SPEC).unwrap().iters, 50);
    }

    #[test]
    fn malformed_arguments_are_usage_errors() {
        assert!(usage_error(&["--iters"], &SPEC).contains("--iters needs a value"));
        assert!(usage_error(&["--iters", "many"], &SPEC).contains("malformed value 'many'"));
        assert!(usage_error(&["--seed", "-1"], &SPEC).contains("--seed"));
        assert!(usage_error(&["--out"], &SPEC).contains("--out needs a value"));
        assert!(usage_error(&["--iters", "0"], &SPEC).contains("at least 1"));
        assert!(usage_error(&["--jobs", "0"], &PLANT).contains("--jobs must be at least 1"));
        let msg = usage_error(&["--frobnicate"], &SPEC);
        assert!(msg.contains("unknown argument --frobnicate"), "{msg}");
        assert!(msg.ends_with("supported: --iters N --seed S --quick --out PATH"), "{msg}");
    }

    #[test]
    fn plant_flags_are_unknown_to_binaries_without_them() {
        assert!(usage_error(&["--nodes", "10"], &SPEC).contains("unknown argument --nodes"));
        assert!(usage_error(&["--jobs", "2"], &SPEC).contains("unknown argument --jobs"));
        let only_nodes = BenchSpec { nodes: Some(1200), ..SPEC };
        assert_eq!(parse(&["--nodes", "10"], &only_nodes).unwrap().nodes, 10);
        assert!(usage_error(&["--jobs", "2"], &only_nodes).contains("unknown argument --jobs"));
    }

    #[test]
    fn median_takes_lower_middle() {
        assert_eq!(median_ns(&mut [5]), 5);
        assert_eq!(median_ns(&mut [4, 1, 3, 2]), 2);
        assert_eq!(median_ns(&mut [9, 1, 5]), 5);
        assert_eq!(median_ns(&mut [20, 10]), 10);
    }

    #[test]
    fn write_report_replaces_the_file_whole() {
        let dir = std::env::temp_dir().join(format!("wsan-write-report-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("BENCH_x.json");
        write_report(&path, &vec![1u64, 2]).unwrap();
        write_report(&path, &vec![3u64]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, serde_json::to_string_pretty(&vec![3u64]).unwrap() + "\n");
        let left: Vec<_> = std::fs::read_dir(path.parent().unwrap()).unwrap().collect();
        assert_eq!(left.len(), 1, "no temporary file is left behind");
        let _ = std::fs::remove_dir_all(dir);
    }
}
