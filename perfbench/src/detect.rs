//! `detect-wifi`: the Figs. 10–11 pipeline, in process and single-threaded.
//!
//! One pass evaluates [`PER_RUN`] flow-set seeds × {RC, RA} with
//! `wsan_expr::detection::evaluate_algo` on WUSTL channels 11–14 and the
//! default simulator engine: schedule, then 6 clean and 6 WiFi epochs
//! simulated and K-S classified. Traced, the benchmark calls the same
//! stages itself and times each; its result must equal the untraced one.
//!
//! Flow-set seeds come from a recorded pool so every schedule has an exact
//! digest to check; `--seed` picks which [`PER_RUN`] consecutive pool
//! entries (wrapping) a run uses.

use crate::report::RunResult;
use crate::speed::{self, Pace};
use crate::stats::{median, peak_rss_mb, sum_of_medians};
use crate::{digest, Options};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::{Duration, Instant};
use wsan_core::{NetworkModel, Schedule};
use wsan_detect::EpochReport;
use wsan_expr::detection::{evaluate_algo, per_floor_interferers, DetectionConfig, DetectionRun};
use wsan_expr::schedulable::set_seed;
use wsan_expr::Algorithm;
use wsan_flow::{FlowSet, FlowSetConfig, FlowSetGenerator, PeriodRange, TrafficPattern};
use wsan_net::{testbeds, ChannelId, ChannelSet, DirectedLink, Prr, Topology};
use wsan_sim::{LinkCondition, SimConfig, Simulator};

/// Flow-set seeds per pass.
const PER_RUN: usize = 8;
/// RC and RA, both at ρ = 2, as in Figs. 10–11.
const ALGOS: [Algorithm; 2] = [Algorithm::Rc { rho_t: 2 }, Algorithm::Ra { rho: 2 }];

/// Exact schedule digests recorded for one pool flow-set seed.
struct Recorded {
    seed: u64,
    rc: u64,
    ra: u64,
}

const POOL: [Recorded; 16] = [
    Recorded { seed: 1, rc: 0xc30dd2685383bc7d, ra: 0x1bfb5d6c08fcde78 },
    Recorded { seed: 2, rc: 0xd2acc6a8aa13d6d3, ra: 0x1fdfbe69aa72e078 },
    Recorded { seed: 3, rc: 0x179ef60db85c0f91, ra: 0xd6f297bf52ebafd9 },
    Recorded { seed: 4, rc: 0x2808ab365f13d96e, ra: 0x32839b8501e83419 },
    Recorded { seed: 5, rc: 0x2e25518d70e3b60e, ra: 0x805ec9ae29e1f219 },
    Recorded { seed: 6, rc: 0xcdb96ce4b74a0b0a, ra: 0x3802729d9ed5c419 },
    Recorded { seed: 7, rc: 0x7e0cbbe5506a701d, ra: 0xa3e9b239b612c719 },
    Recorded { seed: 8, rc: 0x5a1860b942aaff46, ra: 0x8e17bfc848e432f8 },
    Recorded { seed: 9, rc: 0x750330bdcd2e2b8b, ra: 0x29b5fe495136bc78 },
    Recorded { seed: 10, rc: 0x348345470f1a4bab, ra: 0xea0a66932c65f8f8 },
    Recorded { seed: 11, rc: 0xe5d2bca6c6471ba8, ra: 0x21b8636b5eaeef78 },
    Recorded { seed: 12, rc: 0xc2d39413cfb3372c, ra: 0xe52a447e52bb33d9 },
    Recorded { seed: 13, rc: 0x10745c860066fa0e, ra: 0xe896907a71915e59 },
    Recorded { seed: 14, rc: 0x0e03d11767fd1515, ra: 0x196c19c8b14fbab8 },
    Recorded { seed: 15, rc: 0x74b7f6f4b57000f3, ra: 0x582180832b539ed9 },
    Recorded { seed: 16, rc: 0x3cc7ca7141615bea, ra: 0xc457f32e4cd61419 },
];

fn seeds_for(seed: u64) -> Vec<&'static Recorded> {
    let start = (seed % POOL.len() as u64) as usize;
    (0..PER_RUN).map(|i| &POOL[(start + i) % POOL.len()]).collect()
}

/// The inputs every evaluation shares.
struct Setup {
    topology: Topology,
    channels: ChannelSet,
}

fn config(seed: u64) -> DetectionConfig {
    DetectionConfig { seed, ..DetectionConfig::default() }
}

/// In-process set-up: the WUSTL testbed and channel set, plus one full
/// warm-up evaluation (RC on a flow set outside the pool). A set-up of a
/// few milliseconds swung by a third with the host's load; one of about
/// 0.15 s swings far less. A set-up runs before every flow set of every
/// pass, so `setup_s` is a median over dozens of set-ups spread over the
/// whole run, as the evaluations are: set-ups bunched at the start of a
/// run all catch the same seconds of host speed.
fn set_up() -> (Setup, Duration) {
    let started = Instant::now();
    let setup = Setup {
        topology: testbeds::wustl(1),
        channels: ChannelId::range(11, 14).expect("channels 11-14 exist"),
    };
    let run = evaluate_algo(&setup.topology, &setup.channels, ALGOS[0], &config(0x5eed))
        .expect("the warm-up evaluation runs");
    black_box(run);
    (setup, started.elapsed())
}

/// The flow set and schedule `evaluate_algo` builds for `(seed, algo)`.
fn schedule_of(setup: &Setup, seed: u64, algo: Algorithm) -> Result<(FlowSet, Schedule), String> {
    let cfg = config(seed);
    let prr = Prr::new(cfg.prr_threshold).map_err(|e| e.to_string())?;
    let comm = setup.topology.comm_graph(&setup.channels, prr);
    let model = NetworkModel::new(&setup.topology, &setup.channels);
    let set = FlowSetGenerator::new(cfg.seed)
        .generate(&comm, &flow_config(&cfg))
        .map_err(|e| e.to_string())?;
    let schedule = algo.build().schedule(&set, &model).map_err(|e| e.to_string())?;
    Ok((set, schedule))
}

fn flow_config(cfg: &DetectionConfig) -> FlowSetConfig {
    FlowSetConfig::new(
        cfg.flow_count,
        PeriodRange::new(0, 0).expect("constant range is valid"),
        TrafficPattern::PeerToPeer,
    )
}

/// Links that share a cell with another transmission somewhere in the
/// schedule.
fn reuse_links(schedule: &Schedule) -> usize {
    let mut links = BTreeSet::new();
    for (_, _, cell) in schedule.occupied_cells() {
        if cell.len() >= 2 {
            links.extend(cell.iter().map(|tx| tx.link));
        }
    }
    links.len()
}

/// Per-layer busy times of one traced pass, in ms, plus counts.
#[derive(Default)]
struct Layers {
    graphs: f64,
    model: f64,
    genset: f64,
    schedule: f64,
    sim_build: f64,
    clean: f64,
    wifi: f64,
    slots: f64,
    classify: f64,
    records: f64,
    rejected: f64,
    wall: f64,
}

fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed().as_secs_f64() * 1e3;
    out
}

/// `evaluate_algo`, stage by stage, with each stage's time added to `l`.
fn traced(
    setup: &Setup,
    seed: u64,
    algo: Algorithm,
    l: &mut Layers,
) -> Result<DetectionRun, String> {
    let cfg = config(seed);
    let topo = &setup.topology;
    let prr = Prr::new(cfg.prr_threshold).map_err(|e| e.to_string())?;
    let comm = timed(&mut l.graphs, || topo.comm_graph(&setup.channels, prr));
    let model = timed(&mut l.model, || NetworkModel::new(topo, &setup.channels));
    let set = timed(&mut l.genset, || {
        FlowSetGenerator::new(cfg.seed).generate(&comm, &flow_config(&cfg))
    })
    .map_err(|e| e.to_string())?;
    let interferers = per_floor_interferers(topo, cfg.wifi_power_dbm, cfg.wifi_duty);
    let schedule = timed(&mut l.schedule, || algo.build().schedule(&set, &model))
        .map_err(|e| format!("{algo} cannot schedule flow-set seed {seed}: {e}"))?;
    let sim =
        timed(&mut l.sim_build, || Simulator::try_new(topo, &setup.channels, &set, &schedule))
            .map_err(|e| e.to_string())?;
    let reps = cfg.samples_per_epoch * cfg.window_reps;
    let run_env = |wifi: bool, l: &mut Layers| -> Result<Vec<EpochReport>, String> {
        (0..cfg.epochs)
            .map(|epoch| {
                let sim_cfg = SimConfig {
                    seed: set_seed(cfg.seed, epoch + if wifi { 1000 } else { 0 }),
                    repetitions: reps,
                    window_reps: cfg.window_reps,
                    capture: cfg.capture,
                    interferers: if wifi { interferers.clone() } else { Vec::new() },
                    discovery_probes: 1,
                    ..SimConfig::default()
                };
                let acc = if wifi { &mut l.wifi } else { &mut l.clean };
                let report = timed(acc, || sim.try_run_with(cfg.engine, &sim_cfg))
                    .map_err(|e| e.to_string())?;
                l.slots += f64::from(schedule.horizon()) * f64::from(reps);
                let epoch_report = timed(&mut l.classify, || {
                    let samples = report.links_with_reuse().into_iter().map(|link| {
                        (
                            link,
                            report.prr_distribution(link, LinkCondition::Reuse),
                            report.prr_distribution(link, LinkCondition::ContentionFree),
                        )
                    });
                    EpochReport::evaluate(epoch, &cfg.policy, samples)
                });
                l.records += epoch_report.records.len() as f64;
                l.rejected += epoch_report.rejected().len() as f64;
                Ok(epoch_report)
            })
            .collect()
    };
    let clean = run_env(false, l)?;
    let interfered = run_env(true, l)?;
    let links_with_reuse = clean
        .iter()
        .chain(&interfered)
        .flat_map(|e| e.records.iter().map(|r| r.link))
        .collect::<BTreeSet<DirectedLink>>()
        .len();
    Ok(DetectionRun { algorithm: algo.to_string(), links_with_reuse, clean, interfered })
}

/// Digest of a detection result. Passes keep digests, not results, so the
/// benchmark's own memory stays out of `peak_rss_mb`.
fn run_digest(run: &DetectionRun) -> u64 {
    let mut h = digest::Fnv::new();
    for byte in serde_json::to_string(run).expect("detection results serialize").bytes() {
        h.eat(u64::from(byte));
    }
    h.finish()
}

/// What one untraced pass measured.
struct Pass {
    /// The last set-up, for the checks that follow.
    setup: Setup,
    /// Each evaluation's result digest; `Err` names the one that failed.
    runs: Vec<Result<u64, String>>,
    /// Each evaluation's time, scaled to the reference host speed.
    secs: Vec<f64>,
    /// Host seconds of the pass's evaluations.
    host_secs: f64,
}

/// One untraced pass: a fresh set-up before each flow set, its scaled
/// time added to `setups`, then the flow set's evaluations. A probe runs
/// between every two of these, so each is scaled by the host speed of
/// its own moment.
fn pass(seeds: &[&Recorded], pace: &mut Pace, setups: &mut Vec<f64>) -> Result<Pass, String> {
    let mut runs = Vec::with_capacity(seeds.len() * ALGOS.len());
    let mut secs = Vec::with_capacity(seeds.len() * ALGOS.len());
    let mut host_secs = 0.0;
    let mut last = None;
    let mut before = pace.probe()?;
    for rec in seeds {
        let (setup, took) = set_up();
        let after = pace.probe()?;
        setups.push(speed::scaled(took.as_secs_f64(), before, after));
        before = after;
        for algo in ALGOS {
            let cfg = config(rec.seed);
            let t = Instant::now();
            let evaluated = evaluate_algo(&setup.topology, &setup.channels, algo, &cfg);
            let took = t.elapsed().as_secs_f64();
            let after = pace.probe()?;
            secs.push(speed::scaled(took, before, after));
            host_secs += took;
            before = after;
            runs.push(match evaluated {
                Ok(Some(run)) => Ok(run_digest(&run)),
                Ok(None) => Err(format!("{algo} cannot schedule flow-set seed {}", rec.seed)),
                Err(e) => Err(format!("{algo} on flow-set seed {}: {e}", rec.seed)),
            });
        }
        last = Some(setup);
    }
    Ok(Pass { setup: last.expect("a pass has flow sets"), runs, secs, host_secs })
}

/// Schedule digests against the pool, and the paper's claim that RC puts
/// fewer links into reuse than RA over the run's flow sets.
fn check_schedules(setup: &Setup, seeds: &[&Recorded], result: &mut RunResult) {
    let (mut rc_links, mut ra_links) = (0, 0);
    for rec in seeds {
        for (algo, want) in ALGOS.iter().zip([rec.rc, rec.ra]) {
            match schedule_of(setup, rec.seed, *algo) {
                Ok((_, schedule)) => {
                    let got = digest::schedule(&schedule);
                    if got != want {
                        result.fail(format!(
                            "{algo} flow-set seed {}: schedule digest {got:016x}, recorded {want:016x}",
                            rec.seed
                        ));
                    }
                    match algo {
                        Algorithm::Rc { .. } => rc_links += reuse_links(&schedule),
                        _ => ra_links += reuse_links(&schedule),
                    }
                }
                Err(e) => result.fail(format!("{algo} flow-set seed {}: {e}", rec.seed)),
            }
        }
    }
    if rc_links >= ra_links {
        result.fail(format!("RC put {rc_links} links into reuse, RA only {ra_links}"));
    }
    eprintln!("detect-wifi: links in reuse over the run's flow sets: RC {rc_links}, RA {ra_links}");
}

pub fn run(opts: &Options) -> Result<RunResult, String> {
    let mut result = RunResult { correct: true, ..RunResult::default() };
    let seeds = seeds_for(opts.seed);
    // One thread: pinned, so the probe helper shares its CPU.
    speed::pin_to_one_cpu()?;
    let mut pace = Pace::spawn()?;

    let started = Instant::now();
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut host_walls = Vec::new();
    let mut traced_passes: Vec<Layers> = Vec::new();
    let mut first: Option<Vec<Result<u64, String>>> = None;
    let setup = loop {
        let Pass { setup, runs, secs, host_secs } = pass(&seeds, &mut pace, &mut setups)?;
        walls.push(secs);
        host_walls.push(host_secs);
        result.attempted += runs.len() as u64;
        for r in &runs {
            if let Err(e) = r {
                result.fail(e);
            }
        }
        if opts.trace {
            let mut l = Layers::default();
            let t = Instant::now();
            let mut i = 0;
            for rec in &seeds {
                for algo in ALGOS {
                    result.attempted += 1;
                    match traced(&setup, rec.seed, algo, &mut l) {
                        Ok(run) if runs[i].as_ref().ok() == Some(&run_digest(&run)) => {}
                        Ok(_) => result.fail(format!(
                            "{algo} flow-set seed {}: traced stages disagree with evaluate_algo",
                            rec.seed
                        )),
                        Err(e) => result.fail(e),
                    }
                    i += 1;
                }
            }
            l.wall = t.elapsed().as_secs_f64() * 1e3;
            traced_passes.push(l);
        }
        match &first {
            None => first = Some(runs),
            Some(f) if *f != runs => {
                result.fail("a repeated pass gave different detection results")
            }
            Some(_) => {}
        }
        if started.elapsed() >= opts.seconds {
            break setup;
        }
    };
    check_schedules(&setup, &seeds, &mut result);

    if opts.trace {
        let mean = |f: fn(&Layers) -> f64| {
            traced_passes.iter().map(f).sum::<f64>() / traced_passes.len() as f64
        };
        result.set("net.graph.build_ms", mean(|l| l.graphs));
        result.set("core.model_ms", mean(|l| l.model));
        result.set("flow.genset_ms", mean(|l| l.genset));
        result.set("core.schedule_ms", mean(|l| l.schedule));
        result.set("sim.build_ms", mean(|l| l.sim_build));
        result.set("sim.run.clean_ms", mean(|l| l.clean));
        result.set("sim.run.wifi_ms", mean(|l| l.wifi));
        result.set("sim.slots", mean(|l| l.slots));
        result.set("sim.ns_per_slot", mean(|l| (l.clean + l.wifi) * 1e6 / l.slots));
        result.set("detect.classify_ms", mean(|l| l.classify));
        result.set("detect.rejected_share", mean(|l| l.rejected / l.records.max(1.0)));
        let wall = mean(|l| l.wall);
        let stages = mean(|l| {
            l.graphs + l.model + l.genset + l.schedule + l.sim_build + l.clean + l.wifi + l.classify
        });
        result.set("detect-wifi.wall_ms", wall);
        result.set("detect-wifi.unattributed_ms", wall - stages);
        result.set("detect-wifi.tracing_overhead_ms", wall - median(&host_walls) * 1e3);
    } else {
        result.set("setup_s", median(&setups));
        result.set("wall_s", sum_of_medians(&walls));
        match peak_rss_mb("self") {
            Ok(mb) => result.set("peak_rss_mb", mb),
            Err(e) => result.fail(e),
        }
    }
    eprintln!(
        "detect-wifi: {} evaluations over flow-set seeds {:?}; pass walls (s) {:.3?}, host {:.3?}; setups (s) {:.4?}",
        result.attempted,
        seeds.iter().map(|r| r.seed).collect::<Vec<_>>(),
        walls.iter().map(|p| p.iter().sum::<f64>()).collect::<Vec<_>>(),
        host_walls,
        setups
    );
    Ok(result)
}

/// Prints the pool table with the schedules of the current code.
pub fn record() {
    let (setup, _) = set_up();
    for rec in &POOL {
        let digests: Vec<u64> = ALGOS
            .iter()
            .map(|algo| {
                let (_, s) = schedule_of(&setup, rec.seed, *algo).expect("pool flow sets schedule");
                digest::schedule(&s)
            })
            .collect();
        println!(
            "    Recorded {{ seed: {}, rc: 0x{:016x}, ra: 0x{:016x} }},",
            rec.seed, digests[0], digests[1]
        );
    }
}
