//! `shard_bench` — the tracked multi-gateway scaling benchmark.
//!
//! Generates one ~1200-node city plant and schedules it end to end —
//! partition, per-shard scheduling on the worker pool, stitch,
//! whole-network validation — at increasing shard counts, with shard
//! count 1 as the single-gateway baseline. Writes `BENCH_shard.json`
//! (schema-checked by ci.sh) so the sharded-scheduling wall-clock
//! trajectory is comparable across PRs. Every timed run also re-checks
//! the stitched-schedule digest against a sequential (`jobs = 1`) run:
//! the pool must never change the schedule. The 5k/10k-node scale points
//! also time plant generation and pin each plant by a digest of its
//! positions and link PRRs.
//!
//! ```sh
//! cargo run --release -p wsan-bench --bin shard_bench [-- --iters 5 --quick --out PATH]
//! ```
//!
//! * `--iters N` — timed repetitions per shard count (default 5),
//! * `--seed S` — plant + workload seed (default 42),
//! * `--nodes N` — target plant size (default 1200),
//! * `--quick` — caps iterations at 2 for a smoke pass,
//! * `--out PATH` — output path (default `results/BENCH_shard.json`).

use serde::Serialize;
use std::process::ExitCode;
use std::time::Instant;
use wsan_bench::harness::{elapsed_ns, median_ns, write_report, BenchArgs, BenchSpec};
use wsan_bench::{run_main, BenchError};
use wsan_core::shard::ShardConfig;
use wsan_expr::sharding::{schedule_sharded, ShardedReport};
use wsan_expr::Algorithm;
use wsan_net::plants::{generate, Plant, PlantConfig};
use wsan_net::ChannelId;

/// The file-format tag checked by ci.sh's smoke step.
const SCHEMA: &str = "wsan.shard_bench/1";

/// Total flows scheduled across the whole plant, constant over every
/// shard count (divisible by 1, 2, 4, and 8) so the comparison is fair.
const TOTAL_FLOWS: usize = 24;

/// The scheduler every shard runs.
const ALGORITHM: Algorithm = Algorithm::Rc { rho_t: 2 };

#[derive(Debug, Serialize)]
struct ScenarioResult {
    /// Shards (= gateways); 1 is the single-gateway baseline.
    shards: u64,
    /// Spectrum colors the shard conflict graph needed.
    colors: u64,
    /// Flows scheduled (summed over shards).
    flows: u64,
    /// Entries in the stitched whole-network schedule.
    entries: u64,
    /// Stitched hyperperiod in slots.
    horizon: u64,
    /// Stitched-schedule digest — identical for every iteration and for
    /// `jobs = 1` vs the full pool.
    digest: String,
    /// Median wall-clock of partition + parallel per-shard scheduling.
    median_schedule_ns: u64,
    /// Median wall-clock of stitching the shard schedules.
    median_stitch_ns: u64,
    /// Median wall-clock of whole-network validation.
    median_validate_ns: u64,
    /// `median_schedule_ns(shards = 1) / median_schedule_ns` — the
    /// multi-gateway acceptance series.
    speedup_vs_single: f64,
}

/// One point of the large-plant scale sweep: the full pipeline at a node
/// count far beyond the scenario plant, pinning that the capped-distance
/// path keeps the 5k/10k-node runs schedulable and deterministic.
#[derive(Debug, Serialize)]
struct ScalePoint {
    /// Target plant size requested from the generator.
    target_nodes: u64,
    /// Nodes in the generated plant.
    nodes: u64,
    /// Links in the generated plant.
    links: u64,
    /// FNV-1a digest of the plant's node positions and link PRR bits —
    /// identical for every generation of the same seed.
    plant_digest: String,
    /// Median wall-clock of `plants::generate` (links, connectivity check).
    median_generate_ns: u64,
    /// Shards (= gateways).
    shards: u64,
    /// Spectrum colors the shard conflict graph needed.
    colors: u64,
    /// Flows scheduled (summed over shards).
    flows: u64,
    /// Entries in the stitched whole-network schedule.
    entries: u64,
    /// Stitched-schedule digest — identical for every iteration and for
    /// `jobs = 1` vs the full pool.
    digest: String,
    /// Median wall-clock of partition + parallel per-shard scheduling.
    median_schedule_ns: u64,
    /// Median wall-clock of stitching the shard schedules.
    median_stitch_ns: u64,
    /// Median wall-clock of whole-network validation.
    median_validate_ns: u64,
}

#[derive(Debug, Serialize)]
struct Report {
    schema: String,
    iters: u64,
    seed: u64,
    target_nodes: u64,
    nodes: u64,
    links: u64,
    channels: u64,
    algorithm: String,
    scenarios: Vec<ScenarioResult>,
    /// 5k/10k-node pipeline points (fewer iterations — plant generation
    /// and the runs themselves dominate wall-clock at this scale).
    scale: Vec<ScalePoint>,
}

const SPEC: BenchSpec = BenchSpec {
    report: "BENCH_shard.json",
    iters: 5,
    quick_iters: 2,
    seed: 42,
    nodes: Some(1200),
    jobs: None,
};

/// One timed point: `iters` pool runs plus the medians of their stage
/// timings. The digest is pinned across the runs and against a final
/// sequential (`jobs = 1`) run: the pool must never change the schedule.
struct TimedPoint {
    /// The last pool run's shape and digest.
    report: ShardedReport,
    median_schedule_ns: u64,
    median_stitch_ns: u64,
    median_validate_ns: u64,
}

fn time_point(
    plant: &Plant,
    shards: usize,
    seed: u64,
    iters: usize,
    label: &str,
) -> Result<TimedPoint, BenchError> {
    let cfg =
        ShardConfig { flows_per_shard: TOTAL_FLOWS / shards, ..ShardConfig::new(shards, seed, 0) };
    let run = |jobs| {
        schedule_sharded(plant, &ChannelId::all(), &cfg, &ALGORITHM, jobs)
            .map(|outcome| outcome.report)
            .map_err(|e| BenchError::Run(format!("{label}: {e}")))
    };
    let mut samples: [Vec<u64>; 3] = Default::default();
    let mut last: Option<ShardedReport> = None;
    for _ in 0..iters {
        let report = run(0)?;
        if last.is_some_and(|prev| prev.digest != report.digest) {
            return Err(BenchError::Run(format!("{label}: digest changed between iterations")));
        }
        for (stage, ns) in
            samples.iter_mut().zip([report.schedule_ns, report.stitch_ns, report.validate_ns])
        {
            stage.push(ns.max(1));
        }
        last = Some(report);
    }
    let report = last.expect("at least one iteration");
    if run(1)?.digest != report.digest {
        return Err(BenchError::Run(format!("{label}: jobs=1 digest diverged from pool digest")));
    }
    let [median_schedule_ns, median_stitch_ns, median_validate_ns] =
        samples.map(|mut stage| median_ns(&mut stage));
    Ok(TimedPoint { report, median_schedule_ns, median_stitch_ns, median_validate_ns })
}

/// A plant generated `iters` times, with the median generation time.
struct TimedPlant {
    plant: Plant,
    digest: u64,
    median_ns: u64,
}

/// Generates the `target`-node city plant `iters` times; every generation
/// must produce the same plant digest.
fn time_generate(target: usize, seed: u64, iters: usize) -> Result<TimedPlant, BenchError> {
    let cfg = PlantConfig::city(format!("city-{target}"), target);
    let mut samples = Vec::with_capacity(iters);
    let mut last: Option<(Plant, u64)> = None;
    for _ in 0..iters {
        let start = Instant::now();
        let plant = generate(&cfg, seed);
        samples.push(elapsed_ns(start));
        let digest = plant_digest(&plant);
        if last.as_ref().is_some_and(|(_, prev)| *prev != digest) {
            return Err(BenchError::Run(format!(
                "{target} nodes: plant digest changed between generations"
            )));
        }
        last = Some((plant, digest));
    }
    let (plant, digest) = last.expect("at least one generation");
    Ok(TimedPlant { plant, digest, median_ns: median_ns(&mut samples) })
}

/// FNV-1a 64 over the node count, every node position, the link count,
/// and every link's endpoints and per-channel PRR bits in both directions.
fn plant_digest(plant: &Plant) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(plant.node_count() as u64);
    for node in plant.nodes() {
        let p = plant.position(node);
        for coord in [p.x, p.y, p.z] {
            eat(coord.to_bits());
        }
    }
    eat(plant.links().len() as u64);
    for link in plant.links() {
        eat(link.a.index() as u64);
        eat(link.b.index() as u64);
        for (ab, ba) in link.prr_ab.iter().zip(&link.prr_ba) {
            eat(u64::from(ab.to_bits()) << 32 | u64::from(ba.to_bits()));
        }
    }
    h
}

fn main() -> ExitCode {
    run_main(|| {
        let opts = BenchArgs::parse(&SPEC)?;
        let plant_cfg = PlantConfig::city(format!("city-{}", opts.nodes), opts.nodes);
        let plant = generate(&plant_cfg, opts.seed);
        println!(
            "== shard_bench: {} iters, seed {}, {} nodes, {} links ==",
            opts.iters,
            opts.seed,
            plant.node_count(),
            plant.links().len()
        );

        let mut report = Report {
            schema: SCHEMA.to_string(),
            iters: opts.iters as u64,
            seed: opts.seed,
            target_nodes: opts.nodes as u64,
            nodes: plant.node_count() as u64,
            links: plant.links().len() as u64,
            channels: ChannelId::all().len() as u64,
            algorithm: ALGORITHM.to_string(),
            scenarios: Vec::new(),
            scale: Vec::new(),
        };

        let mut single_gateway_ns = None;
        for shards in [1usize, 2, 4, 8] {
            let t =
                time_point(&plant, shards, opts.seed, opts.iters, &format!("{shards} shard(s)"))?;
            let single = *single_gateway_ns.get_or_insert(t.median_schedule_ns);
            let speedup = single as f64 / t.median_schedule_ns as f64;
            println!(
                "  k={shards}: schedule {:>8.2} ms  stitch {:>6.2} ms  validate {:>6.2} ms  \
                 {} colors  speedup {speedup:.2}x",
                t.median_schedule_ns as f64 / 1e6,
                t.median_stitch_ns as f64 / 1e6,
                t.median_validate_ns as f64 / 1e6,
                t.report.colors,
            );
            report.scenarios.push(ScenarioResult {
                shards: shards as u64,
                colors: t.report.colors as u64,
                flows: t.report.flows as u64,
                entries: t.report.entries as u64,
                horizon: u64::from(t.report.horizon),
                digest: format!("{:016x}", t.report.digest),
                median_schedule_ns: t.median_schedule_ns,
                median_stitch_ns: t.median_stitch_ns,
                median_validate_ns: t.median_validate_ns,
                speedup_vs_single: speedup,
            });
        }

        // Scale sweep: the same pipeline at 5k and 10k nodes — the sizes
        // the dense n² u32 matrix priced out before the capped rebuild.
        // Fewer iterations: plant generation (grid-bucketed, so
        // O(nodes × neighborhood)) still dominates at 10k, and the
        // scenario section above already pins the fine-grained timing
        // trajectory.
        let scale_iters = opts.iters.min(2);
        for target in [5_000usize, 10_000] {
            let TimedPlant {
                plant: scale_plant,
                digest: plant_digest,
                median_ns: median_generate_ns,
            } = time_generate(target, opts.seed, scale_iters)?;
            let shards = 8usize;
            let t = time_point(
                &scale_plant,
                shards,
                opts.seed,
                scale_iters,
                &format!("{target} nodes"),
            )?;
            println!(
                "  n={target}: generate {:>8.2} ms  schedule {:>8.2} ms  stitch {:>6.2} ms  \
                 validate {:>6.2} ms  {} colors",
                median_generate_ns as f64 / 1e6,
                t.median_schedule_ns as f64 / 1e6,
                t.median_stitch_ns as f64 / 1e6,
                t.median_validate_ns as f64 / 1e6,
                t.report.colors,
            );
            report.scale.push(ScalePoint {
                target_nodes: target as u64,
                nodes: t.report.nodes as u64,
                links: scale_plant.links().len() as u64,
                plant_digest: format!("{plant_digest:016x}"),
                median_generate_ns,
                shards: shards as u64,
                colors: t.report.colors as u64,
                flows: t.report.flows as u64,
                entries: t.report.entries as u64,
                digest: format!("{:016x}", t.report.digest),
                median_schedule_ns: t.median_schedule_ns,
                median_stitch_ns: t.median_stitch_ns,
                median_validate_ns: t.median_validate_ns,
            });
        }

        write_report(&opts.out, &report)?;
        println!("report written to {}", opts.out.display());
        Ok(())
    })
}
