//! `bench_check` — the benchmark regression gate.
//!
//! Compares freshly produced `BENCH_*.json` reports against the committed
//! baselines in two ways:
//!
//! * **Deterministic fields must match exactly.** Digests (`digest`,
//!   `plant_digest`), entry and placement counts, colors, links, edges,
//!   diameters, horizons, busy slots, byte sizes (`*_bytes`), and the
//!   equivalence flags (`*_identical`, `queries_equivalent`) have no
//!   noise, so any difference — or such a field, or a scenario, going
//!   missing — is a behaviour change, not a slow run.
//! * **Timings may not regress beyond the tolerance.** Every numeric
//!   field whose key carries an `ns` segment (`median_delta_ns`,
//!   `median_ns_per_schedule`) is compared as lower-is-better, so the
//!   gate keeps working as the tracked bench binaries grow new scenarios
//!   and fields.
//!
//! ```sh
//! cargo run --release -p wsan-bench --bin bench_check -- \
//!     --fresh /tmp/bench-fresh [--baseline .] [--tolerance 1.5] [--min-ns 10000]
//! ```
//!
//! * `--fresh DIR` — directory holding the freshly generated reports,
//! * `--baseline DIR` — directory holding the committed baselines
//!   (default `.`, the repo root),
//! * `--tolerance X` — fail when `fresh > X * baseline` (default 1.5),
//! * `--min-ns N` — ignore fields whose baseline is below N nanoseconds;
//!   sub-threshold timings are dominated by scheduler noise (default 10000).
//!
//! Exit status: 0 when everything passes, 1 on usage errors and
//! unreadable or schema-mismatched reports, [`MISMATCH_STATUS`] when a
//! deterministic field differs (CI fails on it), and [`REGRESSED_STATUS`]
//! when only timings regressed (advisory in CI, where shared-runner
//! timing is noisy, but authoritative enough locally to catch
//! order-of-magnitude mistakes).

use serde::value::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use wsan_bench::harness::Flags;
use wsan_bench::BenchError;

/// Exit status when only timing fields regressed.
const REGRESSED_STATUS: u8 = 2;
/// Exit status when a deterministic field differs from its baseline.
const MISMATCH_STATUS: u8 = 3;

/// The tracked reports the gate knows about.
const REPORTS: &[&str] = &[
    "BENCH_scheduler.json",
    "BENCH_sim.json",
    "BENCH_gateway.json",
    "BENCH_shard.json",
    "BENCH_graph.json",
];

struct Options {
    fresh: PathBuf,
    baseline: PathBuf,
    tolerance: f64,
    min_ns: f64,
}

fn parse_args() -> Result<Options, BenchError> {
    let mut flags = Flags::new(
        std::env::args().skip(1),
        "supported: --fresh DIR --baseline DIR --tolerance X --min-ns N",
    );
    let mut opts = Options {
        fresh: PathBuf::new(),
        baseline: PathBuf::from("."),
        tolerance: 1.5,
        min_ns: 10_000.0,
    };
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--fresh" => opts.fresh = flags.value(&flag)?,
            "--baseline" => opts.baseline = flags.value(&flag)?,
            "--tolerance" => opts.tolerance = flags.value(&flag)?,
            "--min-ns" => opts.min_ns = flags.value(&flag)?,
            _ => return Err(flags.unknown(&flag)),
        }
    }
    if opts.fresh.as_os_str().is_empty() {
        return Err(flags.usage("--fresh DIR is required"));
    }
    if opts.tolerance.is_nan() || opts.tolerance <= 1.0 {
        return Err(flags.usage("--tolerance must be > 1.0"));
    }
    Ok(opts)
}

/// One compared timing field.
struct Comparison {
    path: String,
    baseline: f64,
    fresh: f64,
}

impl Comparison {
    fn ratio(&self) -> f64 {
        if self.baseline <= 0.0 {
            f64::INFINITY
        } else {
            self.fresh / self.baseline
        }
    }
}

fn numeric(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// True for keys carrying a nanosecond timing: any `_`-separated segment
/// equal to `ns` (`median_delta_ns`, `median_ns_per_schedule`), so
/// throughput fields like `admissions_per_sec` never match.
fn is_ns_key(key: &str) -> bool {
    key.split('_').any(|segment| segment == "ns")
}

/// Keys of deterministic fields, which must match exactly (as must every
/// `*_bytes` and `*_identical` field).
const EXACT_KEYS: &[&str] = &[
    "digest",
    "entries",
    "colors",
    "placements",
    "schedulable",
    "links",
    "edges",
    "diameter",
    "horizon",
    "busy_slots",
    "queries_equivalent",
    "plant_digest",
];

fn is_exact_key(key: &str) -> bool {
    EXACT_KEYS.contains(&key) || key.ends_with("_bytes") || key.ends_with("_identical")
}

/// The path of `key` under `path`.
fn child_path(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

/// The path of array element `i`, labelled by the element's own `name`
/// when it has one, for readable paths.
fn element_path(path: &str, element: &Value, i: usize) -> String {
    let label = match element.get("name") {
        Some(Value::Str(s)) => s.clone(),
        _ => i.to_string(),
    };
    format!("{path}[{label}]")
}

fn field<'a>(map: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    map.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Walks `baseline` and `fresh` in lockstep (maps matched by key, arrays
/// by index — the tracked bins emit scenarios deterministically) and
/// collects every numeric field whose key has an `ns` segment.
fn collect(path: &str, baseline: &Value, fresh: &Value, out: &mut Vec<Comparison>) {
    match (baseline, fresh) {
        (Value::Map(b), Value::Map(f)) => {
            for (key, bv) in b {
                let Some(fv) = field(f, key) else { continue };
                let child = child_path(path, key);
                if is_ns_key(key) {
                    if let (Some(bn), Some(fn_)) = (numeric(bv), numeric(fv)) {
                        out.push(Comparison { path: child, baseline: bn, fresh: fn_ });
                        continue;
                    }
                }
                collect(&child, bv, fv, out);
            }
        }
        (Value::Seq(b), Value::Seq(f)) => {
            for (i, (bv, fv)) in b.iter().zip(f.iter()).enumerate() {
                collect(&element_path(path, bv, i), bv, fv, out);
            }
        }
        _ => {}
    }
}

/// Walks like [`collect`] and describes every deterministic field of
/// `baseline` that `fresh` changes or lacks, and every array whose length
/// differs (a lost or extra scenario). Returns how many deterministic
/// fields the baseline holds.
fn mismatches(path: &str, baseline: &Value, fresh: &Value, out: &mut Vec<String>) -> usize {
    let show = |v: &Value| serde_json::to_string(v).unwrap_or_else(|_| format!("{v:?}"));
    let mut checked = 0;
    match (baseline, fresh) {
        (Value::Map(b), Value::Map(f)) => {
            for (key, bv) in b {
                let child = child_path(path, key);
                let fv = field(f, key);
                if is_exact_key(key) {
                    checked += 1;
                    match fv {
                        None => out.push(format!("{child}: missing")),
                        Some(fv) if fv != bv => {
                            out.push(format!("{child}: {} -> {}", show(bv), show(fv)));
                        }
                        Some(_) => {}
                    }
                } else if let Some(fv) = fv {
                    checked += mismatches(&child, bv, fv, out);
                }
            }
        }
        (Value::Seq(b), Value::Seq(f)) => {
            if b.len() != f.len() {
                out.push(format!("{path}: {} elements -> {}", b.len(), f.len()));
            }
            for (i, (bv, fv)) in b.iter().zip(f.iter()).enumerate() {
                checked += mismatches(&element_path(path, bv, i), bv, fv, out);
            }
        }
        _ => {}
    }
    checked
}

/// What comparing one report pair found.
struct ReportCheck {
    /// Timing fields beyond the tolerance.
    regressed: Vec<Comparison>,
    /// Deterministic fields that differ from the baseline.
    mismatched: Vec<String>,
}

/// Compares one report pair.
fn check_report(
    name: &str,
    baseline_dir: &Path,
    fresh_dir: &Path,
    tolerance: f64,
    min_ns: f64,
) -> Result<ReportCheck, BenchError> {
    let read = |path: &Path| -> Result<Value, BenchError> {
        let raw = std::fs::read_to_string(path)
            .map_err(|e| BenchError::Run(format!("cannot read {}: {e}", path.display())))?;
        serde_json::from_str(&raw)
            .map_err(|e| BenchError::Run(format!("cannot parse {}: {e}", path.display())))
    };
    let baseline = read(&baseline_dir.join(name))?;
    let fresh = read(&fresh_dir.join(name))?;
    if baseline.get("schema") != fresh.get("schema") {
        return Err(BenchError::Run(format!("{name}: schema tag mismatch")));
    }
    let mut mismatched = Vec::new();
    let exact = mismatches("", &baseline, &fresh, &mut mismatched);
    for m in &mismatched {
        println!("  MISMATCH {name}:{m}");
    }
    let mut comparisons = Vec::new();
    collect("", &baseline, &fresh, &mut comparisons);
    if comparisons.is_empty() {
        return Err(BenchError::Run(format!("{name}: no comparable ns timing fields found")));
    }
    let mut regressed = Vec::new();
    let mut checked = 0usize;
    for c in comparisons {
        if c.baseline < min_ns {
            continue;
        }
        checked += 1;
        if c.fresh > c.baseline * tolerance {
            println!(
                "  REGRESSED {name}:{} — {:.0} ns -> {:.0} ns ({:.2}x > {tolerance}x)",
                c.path,
                c.baseline,
                c.fresh,
                c.ratio()
            );
            regressed.push(c);
        }
    }
    println!(
        "{name}: {exact} deterministic field(s) checked, {} differ; {checked} timing field(s) \
         checked, {} regressed (tolerance {tolerance}x)",
        mismatched.len(),
        regressed.len()
    );
    Ok(ReportCheck { regressed, mismatched })
}

/// Runs the gate; `Ok` carries the exit status.
fn run() -> Result<u8, BenchError> {
    let opts = parse_args()?;
    let mut regressed = 0usize;
    let mut mismatched = 0usize;
    let mut compared = 0usize;
    for name in REPORTS {
        if !opts.baseline.join(name).exists() {
            println!("{name}: no committed baseline, skipping");
            continue;
        }
        if !opts.fresh.join(name).exists() {
            println!("{name}: not present in {}, skipping", opts.fresh.display());
            continue;
        }
        compared += 1;
        let check = check_report(name, &opts.baseline, &opts.fresh, opts.tolerance, opts.min_ns)?;
        regressed += check.regressed.len();
        mismatched += check.mismatched.len();
    }
    if compared == 0 {
        return Err(BenchError::Run("no report pairs to compare".to_string()));
    }
    if mismatched > 0 {
        eprintln!("error: {mismatched} deterministic field(s) differ from the committed baseline");
        return Ok(MISMATCH_STATUS);
    }
    if regressed > 0 {
        eprintln!("error: {regressed} timing field(s) regressed beyond {}x", opts.tolerance);
        return Ok(REGRESSED_STATUS);
    }
    println!("bench_check: OK ({compared} report(s), deterministic fields match, no regression)");
    Ok(0)
}

fn main() -> ExitCode {
    match run() {
        Ok(status) => ExitCode::from(status),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(json: &str) -> Value {
        serde_json::from_str(json).unwrap()
    }

    #[test]
    fn collects_only_ns_fields_and_labels_paths() {
        let baseline = parse(
            r#"{"schema":"s/1","iters":3,
                "scenarios":[{"name":"dense","median_ns":1000,"per_sec":9.0,
                              "median_ns_per_placement":120,
                              "admissions_per_sec":5000,
                              "algos":[{"name":"RC","run_ns":50}]}]}"#,
        );
        let fresh = parse(
            r#"{"schema":"s/1","iters":3,
                "scenarios":[{"name":"dense","median_ns":2000,"per_sec":4.0,
                              "median_ns_per_placement":130,
                              "admissions_per_sec":2500,
                              "algos":[{"name":"RC","run_ns":75}]}]}"#,
        );
        let mut out = Vec::new();
        collect("", &baseline, &fresh, &mut out);
        let paths: Vec<&str> = out.iter().map(|c| c.path.as_str()).collect();
        assert_eq!(
            paths,
            vec![
                "scenarios[dense].median_ns",
                "scenarios[dense].median_ns_per_placement",
                "scenarios[dense].algos[RC].run_ns",
            ]
        );
        assert_eq!(out[0].fresh, 2000.0);
        assert!((out[0].ratio() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn null_and_missing_fields_are_skipped() {
        let baseline = parse(r#"{"a_ns":null,"b_ns":100,"c_ns":7}"#);
        let fresh = parse(r#"{"a_ns":5,"b_ns":null}"#);
        let mut out = Vec::new();
        collect("", &baseline, &fresh, &mut out);
        assert!(out.is_empty(), "only both-numeric pairs compare");
    }

    #[test]
    fn gate_passes_within_tolerance_and_fails_beyond() {
        let dir = std::env::temp_dir().join("wsan-bench-check");
        let _ = std::fs::remove_dir_all(&dir);
        let base = dir.join("base");
        let fresh = dir.join("fresh");
        std::fs::create_dir_all(&base).unwrap();
        std::fs::create_dir_all(&fresh).unwrap();
        let report = |ns: u64| {
            format!(r#"{{"schema":"wsan.sim_bench/1","scenarios":[{{"name":"x","run_ns":{ns}}}]}}"#)
        };
        std::fs::write(base.join("BENCH_sim.json"), report(100_000)).unwrap();
        std::fs::write(fresh.join("BENCH_sim.json"), report(120_000)).unwrap();
        let ok = check_report("BENCH_sim.json", &base, &fresh, 1.5, 10_000.0).unwrap().regressed;
        assert!(ok.is_empty());
        std::fs::write(fresh.join("BENCH_sim.json"), report(200_000)).unwrap();
        let bad = check_report("BENCH_sim.json", &base, &fresh, 1.5, 10_000.0).unwrap().regressed;
        assert_eq!(bad.len(), 1);
        // below the noise floor nothing is compared, so nothing regresses
        std::fs::write(base.join("BENCH_sim.json"), report(500)).unwrap();
        std::fs::write(fresh.join("BENCH_sim.json"), report(5_000)).unwrap();
        let noisy = check_report("BENCH_sim.json", &base, &fresh, 1.5, 10_000.0).unwrap().regressed;
        assert!(noisy.is_empty());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn deterministic_fields_must_match_exactly() {
        let baseline = parse(
            r#"{"schema":"s/1","iters":5,"nodes":1200,"edges":900,"dense_bytes":4096,
                "scenarios":[{"name":"k=2","digest":"00ab","entries":40,"colors":2,
                              "median_ns":1000,"reports_identical":true},
                             {"name":"k=4","digest":"00cd","entries":44,"colors":3,
                              "median_ns":1000,"reports_identical":true}]}"#,
        );
        // fewer iterations and slower timings are not mismatches, and
        // `nodes`/`iters` are not gated
        let same = parse(
            r#"{"schema":"s/1","iters":2,"nodes":1201,"edges":900,"dense_bytes":4096,
                "scenarios":[{"name":"k=2","digest":"00ab","entries":40,"colors":2,
                              "median_ns":9000,"reports_identical":true},
                             {"name":"k=4","digest":"00cd","entries":44,"colors":3,
                              "median_ns":9000,"reports_identical":true}]}"#,
        );
        let mut out = Vec::new();
        assert_eq!(mismatches("", &baseline, &same, &mut out), 10);
        assert!(out.is_empty(), "{out:?}");

        let changed = parse(
            r#"{"schema":"s/1","iters":5,"edges":901,
                "scenarios":[{"name":"k=2","digest":"00ff","entries":40,"colors":2,
                              "median_ns":1000,"reports_identical":false}]}"#,
        );
        let mut out = Vec::new();
        mismatches("", &baseline, &changed, &mut out);
        assert_eq!(
            out,
            vec![
                "edges: 900 -> 901",
                "dense_bytes: missing",
                "scenarios: 2 elements -> 1",
                "scenarios[k=2].digest: \"00ab\" -> \"00ff\"",
                "scenarios[k=2].reports_identical: true -> false",
            ]
        );
    }

    #[test]
    fn plant_digest_is_exact_and_generation_time_is_a_timing() {
        let baseline = parse(
            r#"{"scale":[{"target_nodes":5000,"links":100,"plant_digest":"00ab",
                          "median_generate_ns":1000}]}"#,
        );
        let slower = parse(
            r#"{"scale":[{"target_nodes":5000,"links":100,"plant_digest":"00ab",
                          "median_generate_ns":9000}]}"#,
        );
        let mut out = Vec::new();
        assert_eq!(mismatches("", &baseline, &slower, &mut out), 2);
        assert!(out.is_empty(), "{out:?}");
        let mut timings = Vec::new();
        collect("", &baseline, &slower, &mut timings);
        assert_eq!(timings.len(), 1);
        assert_eq!(timings[0].path, "scale[0].median_generate_ns");

        let other_plant = parse(
            r#"{"scale":[{"target_nodes":5000,"links":100,"plant_digest":"00cd",
                          "median_generate_ns":1000}]}"#,
        );
        let mut out = Vec::new();
        mismatches("", &baseline, &other_plant, &mut out);
        assert_eq!(out, vec!["scale[0].plant_digest: \"00ab\" -> \"00cd\""]);
    }

    #[test]
    fn a_deterministic_mismatch_fails_even_when_timings_pass() {
        let dir = std::env::temp_dir().join(format!("wsan-bench-exact-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let base = dir.join("base");
        let fresh = dir.join("fresh");
        std::fs::create_dir_all(&base).unwrap();
        std::fs::create_dir_all(&fresh).unwrap();
        let report = |digest: &str| {
            format!(
                r#"{{"schema":"wsan.shard_bench/1","scenarios":[{{"digest":"{digest}","median_schedule_ns":100000}}]}}"#
            )
        };
        std::fs::write(base.join("BENCH_shard.json"), report("aa")).unwrap();
        std::fs::write(fresh.join("BENCH_shard.json"), report("aa")).unwrap();
        let ok = check_report("BENCH_shard.json", &base, &fresh, 1.5, 10_000.0).unwrap();
        assert!(ok.mismatched.is_empty() && ok.regressed.is_empty());
        std::fs::write(fresh.join("BENCH_shard.json"), report("bb")).unwrap();
        let bad = check_report("BENCH_shard.json", &base, &fresh, 1.5, 10_000.0).unwrap();
        assert_eq!(bad.mismatched, vec![r#"scenarios[0].digest: "aa" -> "bb""#]);
        assert!(bad.regressed.is_empty());
        let _ = std::fs::remove_dir_all(dir);
    }
}
