//! The metric catalogue and the one-line JSON result.
//!
//! Every run prints every metric of its kind: the end-to-end set with
//! `--trace 0`, the per-layer set with `--trace 1`. A layer a workload
//! never calls reads 0 there — the bypass made visible.

use std::collections::BTreeMap;

/// End-to-end metrics, in print order: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics: `(name, unit)`. README.md maps each to the
/// end-to-end metric it should move.
pub const PER_LAYER: [(&str, &str); 46] = [
    // city-shard: plant -> graphs -> plan -> per-shard problem + schedule -> stitch -> validate
    ("net.plants.generate_ms", "ms"),
    ("net.plants.links", "count"),
    ("net.graph.build_ms", "ms"),
    ("core.shard.plan_ms", "ms"),
    ("core.shard.colors", "count"),
    ("core.shard.pool_ms", "ms"),
    ("core.shard.build_problem_ms", "ms"),
    ("core.shard.hop_bytes", "B"),
    ("core.shard.schedule_ms", "ms"),
    ("core.shard.entries", "count"),
    ("core.shard.stitch_ms", "ms"),
    ("core.shard.validate_ms", "ms"),
    ("city-shard.wall_ms", "ms"),
    ("city-shard.unattributed_ms", "ms"),
    ("city-shard.tracing_overhead_ms", "ms"),
    // serve-churn: client view, then the gateway layers replayed in process
    ("serve.req_p50_us", "us"),
    ("serve.req_p99_us", "us"),
    ("serve.ops_per_s", "1/s"),
    ("serve.read_us", "us"),
    ("serve.write_us", "us"),
    ("serve.refused_share", "ratio"),
    ("core.gateway.admit_us.add_flow", "us"),
    ("core.gateway.admit_us.remove_flow", "us"),
    ("core.gateway.admit_us.update_rate", "us"),
    ("core.gateway.admit_ms", "ms"),
    ("core.gateway.path_share.suffix", "ratio"),
    ("core.gateway.path_share.full", "ratio"),
    ("core.gateway.path_share.unchanged", "ratio"),
    ("core.gateway.journal_us", "us"),
    ("core.gateway.journal_ms", "ms"),
    ("net.routing.shortest_path_us", "us"),
    ("serve-churn.wall_ms", "ms"),
    ("serve-churn.unattributed_ms", "ms"),
    // detect-wifi: flows -> model -> schedule -> simulate -> classify
    ("flow.genset_ms", "ms"),
    ("core.model_ms", "ms"),
    ("core.schedule_ms", "ms"),
    ("sim.build_ms", "ms"),
    ("sim.run.clean_ms", "ms"),
    ("sim.run.wifi_ms", "ms"),
    ("sim.slots", "count"),
    ("sim.ns_per_slot", "ns"),
    ("detect.classify_ms", "ms"),
    ("detect.rejected_share", "ratio"),
    ("detect-wifi.wall_ms", "ms"),
    ("detect-wifi.unattributed_ms", "ms"),
    ("detect-wifi.tracing_overhead_ms", "ms"),
];

/// Outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Every oracle held.
    pub correct: bool,
    /// Operations attempted (the workload's unit: pipeline, evaluation, request).
    pub attempted: u64,
    /// Operations that errored or failed an oracle.
    pub failed: u64,
    /// Metric values by name; names outside the catalogue are a bug.
    pub values: BTreeMap<&'static str, f64>,
}

impl RunResult {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not in the catalogue"
        );
        self.values.insert(name, value);
    }

    /// Records a failed operation with its reason on stderr.
    pub fn fail(&mut self, why: impl AsRef<str>) {
        eprintln!("FAILED: {}", why.as_ref());
        self.failed += 1;
        self.correct = false;
    }

    /// The result line. End-to-end metrics must all have been set by the
    /// workload; per-layer metrics it did not set read 0.
    pub fn to_json(&self, trace: bool) -> String {
        let mut metrics = Vec::new();
        let catalogue: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut correct = self.correct && self.attempted > 0;
        for &(name, unit) in catalogue {
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => {
                    eprintln!("FAILED: metric {name} is not finite ({v})");
                    correct = false;
                    0.0
                }
                None if trace => 0.0,
                None => {
                    eprintln!("FAILED: end-to-end metric {name} was not measured");
                    correct = false;
                    0.0
                }
            };
            metrics.push(format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"));
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let all: Vec<(&str, &str)> = END_TO_END.iter().chain(&PER_LAYER).copied().collect();
        let mut names: Vec<&str> = all.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
        for (name, unit) in all {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
            assert!(
                unit.len() <= 16
                    && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
    }

    #[test]
    fn trace_line_prints_every_layer_and_zero_for_bypassed_ones() {
        let mut r = RunResult { correct: true, attempted: 3, ..RunResult::default() };
        r.set("sim.slots", 1234.0);
        let line = r.to_json(true);
        assert!(line.contains("\"sim.slots\": {\"value\": 1234.0, \"unit\": \"count\"}"));
        assert!(line.contains("\"net.plants.links\": {\"value\": 0.0, \"unit\": \"count\"}"));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
    }

    #[test]
    fn a_missing_end_to_end_metric_makes_the_run_incorrect() {
        let mut r = RunResult { correct: true, attempted: 1, ..RunResult::default() };
        r.set("setup_s", 0.5);
        assert!(r.to_json(false).starts_with("{\"correct\": false"));
    }
}
