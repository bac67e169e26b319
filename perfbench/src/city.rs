//! `city-shard`: the `wsan shard` pipeline on a seeded ~3k-node city plant.
//!
//! Untraced, each pipeline is `plants::generate` followed by
//! `sharding::schedule_sharded` (8 shards, RC ρ_t = 2, 2 jobs) — exactly
//! what `wsan shard --nodes 3000 --shards 8 --jobs 2` runs. Traced, the
//! benchmark composes the same public stage functions itself and times
//! each call: generate, plan, the per-shard pool (build_problem +
//! schedule_shard on 2 workers), stitch, validate.
//!
//! Inputs come from a recorded pool of plant seeds so that every plant has
//! exact digests to check against; `--seed` picks which run of
//! [`PER_RUN`] consecutive pool entries (wrapping) a run uses.

use crate::report::RunResult;
use crate::stats::{median, peak_rss_mb};
use crate::{digest, Options};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use wsan_core::shard::{
    build_problem, plan, schedule_shard, stitch, validate_stitched, ShardConfig, ShardPart,
};
use wsan_core::{Schedule, SchedulerConfig};
use wsan_expr::sharding::schedule_sharded;
use wsan_expr::Algorithm;
use wsan_net::plants::{generate, Plant, PlantConfig};
use wsan_net::{ChannelId, ChannelSet};

/// Target plant size (the generator rounds up to whole 100-node buildings).
const NODES: usize = 3000;
/// Gateways the plant is partitioned into.
const SHARDS: usize = 8;
/// Flows generated per shard (the `wsan shard` default).
const FLOWS_PER_SHARD: usize = 6;
/// RC reuse floor.
const RHO_T: u32 = 2;
/// Worker threads: the 2 cores of the machine the bounds were set on.
const JOBS: usize = 2;
/// Plants per run; one pipeline takes 4.5–5.7 s on a 2-core VM.
const PER_RUN: usize = 4;

/// The per-layer metrics a traced child reports, in its print order.
const LAYERS: [&str; 15] = [
    "net.plants.generate_ms",
    "net.plants.links",
    "net.graph.build_ms",
    "core.shard.plan_ms",
    "core.shard.colors",
    "core.shard.pool_ms",
    "core.shard.build_problem_ms",
    "core.shard.hop_bytes",
    "core.shard.schedule_ms",
    "core.shard.entries",
    "core.shard.stitch_ms",
    "core.shard.validate_ms",
    "city-shard.wall_ms",
    "city-shard.unattributed_ms",
    "city-shard.tracing_overhead_ms",
];

/// Exact outputs recorded for one pool plant (`--record` prints them).
struct Recorded {
    seed: u64,
    plant: u64,
    links: usize,
    stitched: u64,
    entries: usize,
}

const POOL: [Recorded; 8] = [
    Recorded {
        seed: 1,
        plant: 0xfe32f4f3b2422984,
        links: 186542,
        stitched: 0x729c70ea995c70d6,
        entries: 830,
    },
    Recorded {
        seed: 2,
        plant: 0xffc8d99512c513fe,
        links: 157931,
        stitched: 0x6fbf266f86f7b52e,
        entries: 782,
    },
    Recorded {
        seed: 3,
        plant: 0x919b4cf4114b0530,
        links: 176877,
        stitched: 0x9e0137be7d9609eb,
        entries: 784,
    },
    Recorded {
        seed: 4,
        plant: 0x34c15809ae19ad2c,
        links: 191864,
        stitched: 0x32c071702e7de5d7,
        entries: 972,
    },
    Recorded {
        seed: 5,
        plant: 0x17df4b4807df69ab,
        links: 176285,
        stitched: 0xc3298bd2d46fd02b,
        entries: 832,
    },
    Recorded {
        seed: 6,
        plant: 0xe96eb17557d3a252,
        links: 195247,
        stitched: 0x830b6a72ded0479f,
        entries: 828,
    },
    Recorded {
        seed: 7,
        plant: 0xbd975ba0e332e032,
        links: 177465,
        stitched: 0x82df94d96ca8d723,
        entries: 1100,
    },
    Recorded {
        seed: 8,
        plant: 0x8ec12c30e7b33fd9,
        links: 162511,
        stitched: 0x38600618c053594e,
        entries: 766,
    },
];

fn plants_for(seed: u64) -> Vec<&'static Recorded> {
    let start = (seed % POOL.len() as u64) as usize;
    (0..PER_RUN).map(|i| &POOL[(start + i) % POOL.len()]).collect()
}

/// Everything one pipeline needs besides the plant seed.
struct Setup {
    plant_cfg: PlantConfig,
    channels: ChannelSet,
    algo: Algorithm,
}

impl Setup {
    fn new() -> Self {
        Setup {
            plant_cfg: PlantConfig::city(format!("city-{NODES}"), NODES),
            channels: ChannelId::all(),
            algo: Algorithm::Rc { rho_t: RHO_T },
        }
    }

    fn shard_cfg(seed: u64) -> ShardConfig {
        ShardConfig::new(SHARDS, seed, FLOWS_PER_SHARD)
    }
}

/// In-process set-up: the configuration plus one warm-up pipeline on a
/// 400-node plant, so first-touch allocation and thread start-up stay out
/// of the timed phase.
fn set_up() -> (Setup, Duration) {
    let started = Instant::now();
    let setup = Setup::new();
    let warm_cfg = PlantConfig::city("warm-up", 400);
    let warm = generate(&warm_cfg, 0x5eed);
    let out =
        schedule_sharded(&warm, &setup.channels, &ShardConfig::new(4, 1, 4), &setup.algo, JOBS)
            .expect("the warm-up plant schedules");
    black_box(out.report.digest);
    (setup, started.elapsed())
}

/// The untraced pipeline: what `wsan shard` runs.
fn pipeline(setup: &Setup, seed: u64) -> Result<(Plant, Schedule), String> {
    let plant = generate(&setup.plant_cfg, seed);
    let out = schedule_sharded(&plant, &setup.channels, &Setup::shard_cfg(seed), &setup.algo, JOBS)
        .map_err(|e| e.to_string())?;
    Ok((plant, out.schedule))
}

/// Per-layer busy times of one traced pipeline, in ms, plus counts.
#[derive(Default)]
struct Layers {
    generate: f64,
    links: f64,
    graphs: f64,
    plan: f64,
    colors: f64,
    pool: f64,
    build_problem: f64,
    hop_bytes: f64,
    schedule: f64,
    entries: f64,
    stitch: f64,
    validate: f64,
    wall: f64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The traced pipeline: the stages `schedule_sharded` runs, called one by
/// one. The per-shard stage runs on [`JOBS`] workers pulling shard indices
/// in order, as the campaign pool does; its two layers report busy time
/// summed over the workers, and `pool` is the stage's wall time.
fn traced(setup: &Setup, seed: u64) -> Result<(Plant, Schedule, Layers), String> {
    let cfg = Setup::shard_cfg(seed);
    let mut l = Layers::default();
    let started = Instant::now();

    let t = Instant::now();
    let plant = generate(&setup.plant_cfg, seed);
    l.generate = ms(t.elapsed());
    l.links = plant.links().len() as f64;

    let t = Instant::now();
    let plan = plan(&plant, &setup.channels, &cfg, JOBS).map_err(|e| e.to_string())?;
    l.plan = ms(t.elapsed());
    l.colors = plan.color_count as f64;

    let t = Instant::now();
    let scheduler = setup.algo.build();
    let next = AtomicUsize::new(0);
    let parts: Mutex<Vec<Option<Result<ShardPart, String>>>> =
        Mutex::new((0..SHARDS).map(|_| None).collect());
    let busy = Mutex::new((Duration::ZERO, Duration::ZERO, 0usize));
    std::thread::scope(|s| {
        for _ in 0..JOBS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= SHARDS {
                    break;
                }
                let t = Instant::now();
                let part = build_problem(&plant, &setup.channels, &plan, &cfg, i, 1)
                    .map_err(|e| e.to_string())
                    .and_then(|problem| {
                        let built = t.elapsed();
                        let bytes = problem.model.hops().bytes();
                        let t = Instant::now();
                        let schedule = schedule_shard(
                            &problem,
                            scheduler.as_ref(),
                            &SchedulerConfig::default(),
                        )
                        .map_err(|e| e.to_string())?;
                        let mut b = busy.lock().expect("no worker panics holding the lock");
                        b.0 += built;
                        b.1 += t.elapsed();
                        b.2 += bytes;
                        Ok(ShardPart {
                            shard: i,
                            flow_count: problem.flows.len(),
                            local_to_global: problem.local_to_global,
                            offset_base: problem.offset_base,
                            schedule,
                        })
                    });
                parts.lock().expect("no worker panics holding the lock")[i] = Some(part);
            });
        }
    });
    let parts: Vec<ShardPart> = parts
        .into_inner()
        .expect("workers joined")
        .into_iter()
        .map(|p| p.expect("every shard index was taken"))
        .collect::<Result<_, _>>()?;
    let (built, scheduled, bytes) = busy.into_inner().expect("workers joined");
    l.pool = ms(t.elapsed());
    l.build_problem = ms(built);
    l.schedule = ms(scheduled);
    l.hop_bytes = bytes as f64;

    let t = Instant::now();
    let schedule =
        stitch(plant.node_count(), setup.channels.len(), &parts).map_err(|e| e.to_string())?;
    l.stitch = ms(t.elapsed());
    l.entries = schedule.entry_count() as f64;

    let t = Instant::now();
    let valid = validate_stitched(&plant, &setup.channels, cfg.reuse_floor, &schedule);
    l.validate = ms(t.elapsed());
    l.wall = ms(started.elapsed());
    if let Err(v) = valid {
        return Err(format!("{} stitched violations", v.len()));
    }

    // Probe outside the pipeline wall: one communication graph and one
    // reuse graph, as `plan` builds (and each `build_problem` rebuilds the
    // reuse graph). Reported on its own, not summed into the stages.
    let t = Instant::now();
    black_box(plant.comm_graph(&setup.channels, cfg.prr_t));
    black_box(plant.reuse_graph(&setup.channels));
    l.graphs = ms(t.elapsed());
    Ok((plant, schedule, l))
}

/// Runs one plant's pipeline in this process and prints its measurements
/// as one `key=value` line: the body of a `--city-child` process. Each
/// pipeline gets a fresh process, as each `wsan shard` invocation does, so
/// its peak RSS and first-touch costs are its own and not an accident of
/// the plants before it.
pub fn child(seed: u64, trace: bool) -> Result<(), String> {
    let (setup, setup_took) = set_up();
    let t = Instant::now();
    let (plant, schedule) = pipeline(&setup, seed)?;
    let wall = t.elapsed();
    let mut fields = vec![
        ("setup_s", setup_took.as_secs_f64()),
        ("wall_s", wall.as_secs_f64()),
        ("rss_mb", peak_rss_mb("self")?),
    ];
    let mut digests = vec![
        ("plant", digest::plant(&plant)),
        ("links", plant.links().len() as u64),
        ("stitched", digest::schedule(&schedule)),
        ("entries", schedule.entry_count() as u64),
    ];
    let violations = validate_stitched(&plant, &setup.channels, Some(RHO_T), &schedule)
        .err()
        .map_or(0, |v| v.len());
    digests.push(("violations", violations as u64));
    drop((plant, schedule));
    if trace {
        let (plant, schedule, l) = traced(&setup, seed)?;
        digests.push(("traced_plant", digest::plant(&plant)));
        digests.push(("traced_stitched", digest::schedule(&schedule)));
        let unattributed = l.wall - (l.generate + l.plan + l.pool + l.stitch + l.validate);
        let values = [
            l.generate,
            l.links,
            l.graphs,
            l.plan,
            l.colors,
            l.pool,
            l.build_problem,
            l.hop_bytes,
            l.schedule,
            l.entries,
            l.stitch,
            l.validate,
            l.wall,
            unattributed,
            l.wall - ms(wall),
        ];
        fields.extend(LAYERS.into_iter().zip(values));
    }
    let mut line: Vec<String> = fields.iter().map(|(k, v)| format!("{k}={v:?}")).collect();
    line.extend(digests.iter().map(|(k, v)| format!("{k}=0x{v:016x}")));
    println!("{}", line.join(" "));
    Ok(())
}

/// One child pipeline's printed measurements.
struct ChildReport(Vec<(String, String)>);

impl ChildReport {
    fn num(&self, key: &str) -> Result<f64, String> {
        self.raw(key)?.parse().map_err(|_| format!("child field {key} is not a number"))
    }

    fn hex(&self, key: &str) -> Result<u64, String> {
        let raw = self.raw(key)?;
        u64::from_str_radix(raw.trim_start_matches("0x"), 16)
            .map_err(|_| format!("child field {key} is not hex"))
    }

    fn raw(&self, key: &str) -> Result<&str, String> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .ok_or_else(|| format!("child printed no {key}"))
    }
}

fn spawn_child(seed: u64, trace: bool) -> Result<ChildReport, String> {
    let out = crate::run_self(&[
        "--city-child",
        &seed.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ])?;
    let line = out.lines().last().ok_or("city child printed nothing")?;
    Ok(ChildReport(
        line.split_whitespace()
            .filter_map(|kv| kv.split_once('='))
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
    ))
}

/// Checks a child's outputs against the recorded pool entry.
fn check(rec: &Recorded, report: &ChildReport, trace: bool) -> Result<(), String> {
    let mut want = vec![
        ("plant", rec.plant),
        ("links", rec.links as u64),
        ("stitched", rec.stitched),
        ("entries", rec.entries as u64),
        ("violations", 0),
    ];
    if trace {
        want.extend([("traced_plant", rec.plant), ("traced_stitched", rec.stitched)]);
    }
    for (key, expected) in want {
        let got = report.hex(key)?;
        if got != expected {
            return Err(format!("plant seed {}: {key} {got:#x}, recorded {expected:#x}", rec.seed));
        }
    }
    Ok(())
}

pub fn run(opts: &Options) -> RunResult {
    let mut result = RunResult { correct: true, ..RunResult::default() };
    let plants = plants_for(opts.seed);
    let started = Instant::now();
    let mut reports: Vec<ChildReport> = Vec::new();
    // Pipeline times per plant; plants run round-robin until the run has
    // lasted `--seconds` and every plant ran at least once.
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); PER_RUN];
    for i in 0.. {
        if i >= PER_RUN && started.elapsed() >= opts.seconds {
            break;
        }
        let rec = plants[i % PER_RUN];
        result.attempted += 1;
        match spawn_child(rec.seed, opts.trace).and_then(|r| check(rec, &r, opts.trace).map(|()| r))
        {
            Ok(r) => {
                walls[i % PER_RUN].push(r.num("wall_s").unwrap_or(f64::NAN));
                reports.push(r);
            }
            Err(e) => result.fail(format!("city-shard: {e}")),
        }
    }

    let column =
        |key: &str| -> Vec<f64> { reports.iter().filter_map(|r| r.num(key).ok()).collect() };
    if reports.is_empty() {
        result.fail("no city pipeline completed");
    } else if opts.trace {
        for name in LAYERS {
            let v = column(name);
            result.set(name, v.iter().sum::<f64>() / v.len().max(1) as f64);
        }
    } else {
        result.set("setup_s", median(&column("setup_s")));
        // Seconds per pipeline: the mean over the run's plants of each
        // plant's median time.
        let per_plant: Vec<f64> =
            walls.iter().filter(|w| !w.is_empty()).map(|w| median(w)).collect();
        result.set("wall_s", per_plant.iter().sum::<f64>() / per_plant.len() as f64);
        result.set("peak_rss_mb", median(&column("rss_mb")));
    }
    eprintln!(
        "city-shard: {} pipelines on plants {:?}; pipeline walls (s) {:.3?}; setups (s) {:.4?}; peak RSS (MB) {:.1?}",
        result.attempted,
        plants.iter().map(|r| r.seed).collect::<Vec<_>>(),
        column("wall_s"),
        column("setup_s"),
        column("rss_mb")
    );
    result
}

/// Prints the pool table with the outputs of the current code.
pub fn record() {
    let setup = Setup::new();
    for rec in &POOL {
        let (plant, schedule) = pipeline(&setup, rec.seed).expect("pool plants schedule");
        println!(
            "    Recorded {{ seed: {}, plant: 0x{:016x}, links: {}, stitched: 0x{:016x}, entries: {} }},",
            rec.seed,
            digest::plant(&plant),
            plant.links().len(),
            digest::schedule(&schedule),
            schedule.entry_count()
        );
    }
}
