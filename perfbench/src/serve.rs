//! `serve-churn`: one closed-loop client against a spawned
//! `wsan serve --listen` (WUSTL, channels 11–14, RC ρ = 2).
//!
//! A pass spawns a fresh server (`setup_s` runs from the spawn until the
//! socket answers a `status`), sends [`REQUESTS`] requests of the seeded
//! stream one at a time, exports the live schedule and shuts the server
//! down. Every pass replays the same stream, so passes are equal work and
//! their outcomes must agree.
//!
//! The first pass of a run serves with `--journal` (in `--work`, inside
//! the checkout) and is not timed: it checks the `live == replay` oracle —
//! a server started with `--resume-journal` on its journal must export a
//! byte-identical CSV — and warms up. The timed passes serve without a
//! journal, so `wall_s` measures parse → admit → respond and not the
//! fdatasync latency of whatever disk holds the checkout, which swung a
//! whole run by 40% with the host's I/O load.
//!
//! Traced, each pass is followed by an in-process replay of the same
//! requests through the gateway's public API — routing, admission, journal
//! append — timing each call; the server itself is never instrumented.

use crate::report::RunResult;
use crate::speed::{self, Pace};
use crate::stats::{median, peak_rss_mb, percentile, sum_of_medians};
use crate::stream::{all_pairs_hops, Outcome, Request, Stream};
use crate::Options;
use serde::value::Value;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use wsan_core::gateway::journal::{GatewayOp, Journal, JournalHeader};
use wsan_core::gateway::{DeltaPath, FlowSpec, GatewayConfig, GatewayError, GatewayState};
use wsan_core::{NetworkModel, ReuseConservatively};
use wsan_flow::Period;
use wsan_net::{routing, testbeds, ChannelId, CommGraph, NodeId, Prr};

/// Requests per pass.
const REQUESTS: usize = 10_000;
/// Requests between two host-speed probes.
const CHUNK: usize = 1_000;
/// WUSTL testbed instance the server builds (`--seed` of `wsan serve`).
const TESTBED_SEED: u64 = 1;
/// Longest wait for a spawned server's socket to answer.
const SPAWN_TIMEOUT: Duration = Duration::from_secs(60);

fn server_args() -> Vec<String> {
    [
        "serve",
        "--testbed",
        "wustl",
        "--seed",
        "1",
        "--channels",
        "11-14",
        "--algo",
        "rc",
        "--rho",
        "2",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// A spawned `wsan serve --listen` and the client connection to it.
struct Server {
    child: Child,
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Server {
    /// Spawns the server, journaling to `journal` if given, and waits
    /// until its socket answers a `status`.
    fn spawn(
        opts: &Options,
        journal: Option<&Path>,
        socket: &Path,
    ) -> Result<(Server, Duration), String> {
        let _ = std::fs::remove_file(socket);
        let started = Instant::now();
        let mut args = server_args();
        if let Some(journal) = journal {
            let _ = std::fs::remove_file(journal);
            args.push("--journal".to_string());
            args.push(journal.display().to_string());
        }
        args.push("--listen".to_string());
        args.push(socket.display().to_string());
        let mut child = Command::new(&opts.wsan)
            .args(&args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", opts.wsan.display()))?;
        let stream = loop {
            match UnixStream::connect(socket) {
                Ok(s) => break s,
                Err(_) if started.elapsed() < SPAWN_TIMEOUT => {
                    if let Ok(Some(status)) = child.try_wait() {
                        return Err(format!("wsan serve exited early: {status}"));
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
                Err(e) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("wsan serve socket never answered: {e}"));
                }
            }
        };
        let writer = stream.try_clone().map_err(|e| format!("socket clone failed: {e}"))?;
        let mut server = Server { child, reader: BufReader::new(stream), writer };
        let status = server.call("{\"op\":\"status\"}");
        let took = started.elapsed();
        match status {
            Ok(v) if v.get("ok") == Some(&Value::Bool(true)) => Ok((server, took)),
            other => {
                let _ = server.stop();
                Err(format!("first status failed: {other:?}"))
            }
        }
    }

    /// Sends one line and reads one response line, unparsed.
    fn round_trip(&mut self, line: &str) -> Result<Vec<u8>, String> {
        let mut request = Vec::with_capacity(line.len() + 1);
        request.extend_from_slice(line.as_bytes());
        request.push(b'\n');
        self.writer.write_all(&request).map_err(|e| format!("send failed: {e}"))?;
        let mut response = Vec::new();
        self.reader.read_until(b'\n', &mut response).map_err(|e| format!("read failed: {e}"))?;
        if response.last() != Some(&b'\n') {
            return Err("server closed the connection".to_string());
        }
        Ok(response)
    }

    /// One request, its response parsed.
    fn call(&mut self, line: &str) -> Result<Value, String> {
        parse(&self.round_trip(line)?)
    }

    /// Asks the server to shut down and waits for it; kills it if asking
    /// fails.
    fn stop(mut self) -> Result<(), String> {
        let asked = self.call("{\"op\":\"shutdown\"}");
        if asked.is_err() {
            let _ = self.child.kill();
        }
        let status = self.child.wait().map_err(|e| format!("cannot wait for wsan serve: {e}"))?;
        asked?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("wsan serve exited with {status}"))
        }
    }
}

fn parse(response: &[u8]) -> Result<Value, String> {
    let text = String::from_utf8_lossy(response);
    serde_json::from_str(&text).map_err(|e| format!("bad response {text:?}: {e}"))
}

fn str_field<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    match v.get(key) {
        Some(Value::Str(s)) => Some(s),
        _ => None,
    }
}

fn outcome_of(v: &Value) -> Outcome {
    let kind = if v.get("ok") == Some(&Value::Bool(true)) {
        "ok".to_string()
    } else {
        v.get("error").and_then(|e| str_field(e, "kind")).unwrap_or("malformed").to_string()
    };
    let evicted = v
        .get("evicted")
        .and_then(Value::as_seq)
        .map(|s| {
            s.iter()
                .filter_map(|n| if let Value::Str(n) = n { Some(n.clone()) } else { None })
                .collect()
        })
        .unwrap_or_default();
    Outcome { kind, evicted, path: str_field(v, "path").unwrap_or("").to_string() }
}

/// What one pass measured and returned.
struct Pass {
    setup: Duration,
    /// `setup`, scaled to the reference host speed.
    setup_s: f64,
    rss_mb: f64,
    /// Round-trip time of each request as the client saw it, in order.
    latency_us: Vec<f64>,
    /// `latency_us`, scaled by the probes on either side of its chunk.
    scaled_us: Vec<f64>,
    requests: Vec<Request>,
    outcomes: Vec<Outcome>,
    /// Flows admitted when the stream ended.
    live_at_end: usize,
}

/// The routing graph the server builds: WUSTL's communication graph over
/// channels 11–14 at PRR 0.9.
fn routing_graph() -> CommGraph {
    let topo = testbeds::wustl(TESTBED_SEED);
    let channels = ChannelId::range(11, 14).expect("channels 11-14 exist");
    topo.comm_graph(&channels, Prr::new(0.9).expect("0.9 is a valid PRR"))
}

fn hops_of(comm: &CommGraph) -> Vec<Vec<u32>> {
    all_pairs_hops(comm.node_count(), |u| {
        comm.neighbors(NodeId::new(u)).iter().map(|v| v.index()).collect()
    })
}

/// One pass of the stream on a fresh server, with a host-speed probe
/// before the spawn, after it and after every [`CHUNK`] requests. A
/// journaled pass also checks that a server resumed from its journal
/// exports the live schedule.
fn one_pass(
    opts: &Options,
    hops: &[Vec<u32>],
    journaled: bool,
    pace: &mut Pace,
    result: &mut RunResult,
) -> Result<Pass, String> {
    std::fs::create_dir_all(&opts.work)
        .map_err(|e| format!("cannot create {}: {e}", opts.work.display()))?;
    let journal = opts.work.join("serve-churn.journal");
    let socket = opts.work.join("serve-churn.sock");
    let mut before = pace.probe()?;
    let (mut server, setup) = Server::spawn(opts, journaled.then_some(&*journal), &socket)?;

    let mut stream = Stream::new(opts.seed, hops.to_vec());
    let mut pass = Pass {
        setup,
        setup_s: 0.0,
        rss_mb: 0.0,
        latency_us: Vec::with_capacity(REQUESTS),
        scaled_us: Vec::with_capacity(REQUESTS),
        requests: Vec::with_capacity(REQUESTS),
        outcomes: Vec::with_capacity(REQUESTS),
        live_at_end: 0,
    };
    let exchanged = (|| -> Result<String, String> {
        let after = pace.probe()?;
        pass.setup_s = speed::scaled(setup.as_secs_f64(), before, after);
        before = after;
        for _ in 0..REQUESTS / CHUNK {
            let chunk = pass.latency_us.len();
            for _ in 0..CHUNK {
                let request = stream.next_request();
                let line = request.to_line();
                let t = Instant::now();
                let response = server.round_trip(&line)?;
                pass.latency_us.push(t.elapsed().as_secs_f64() * 1e6);
                let response = parse(&response)?;
                let outcome = outcome_of(&response);
                stream.observe(&request, &outcome);
                pass.requests.push(request);
                pass.outcomes.push(outcome);
            }
            let after = pace.probe()?;
            let scaled =
                pass.latency_us[chunk..].iter().map(|&us| speed::scaled(us, before, after));
            pass.scaled_us.extend(scaled);
            before = after;
        }
        pass.live_at_end = stream.live();
        pass.rss_mb = peak_rss_mb(&server.child.id().to_string())?;
        let export = server.call("{\"op\":\"export\"}")?;
        str_field(&export, "csv")
            .map(str::to_string)
            .ok_or_else(|| format!("export failed: {export:?}"))
    })();
    let stopped = server.stop();
    let live_csv = exchanged?;
    stopped?;

    if !journaled {
        return Ok(pass);
    }
    let replayed = replay_export(opts, &journal)?;
    if replayed != live_csv {
        result.fail(format!(
            "live export ({} bytes) differs from the --resume-journal export ({} bytes)",
            live_csv.len(),
            replayed.len()
        ));
    }
    Ok(pass)
}

/// Restarts a server from the journal on stdin and returns its export.
fn replay_export(opts: &Options, journal: &Path) -> Result<String, String> {
    let mut child = Command::new(&opts.wsan)
        .args(server_args())
        .args(["--resume-journal".as_ref(), journal.as_os_str()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", opts.wsan.display()))?;
    let sent = child
        .stdin
        .take()
        .expect("stdin is piped")
        .write_all(b"{\"op\":\"export\"}\n{\"op\":\"shutdown\"}\n");
    let output = child.wait_with_output().map_err(|e| format!("cannot wait for replay: {e}"))?;
    sent.map_err(|e| format!("cannot send to replay: {e}"))?;
    if !output.status.success() {
        return Err(format!("replay server exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let first = stdout.lines().next().ok_or("replay server answered nothing")?;
    let v: Value = serde_json::from_str(first).map_err(|e| format!("bad replay response: {e}"))?;
    str_field(&v, "csv").map(str::to_string).ok_or_else(|| format!("replay export failed: {first}"))
}

/// Gateway-layer times of one in-process replay, in µs per call.
#[derive(Default)]
struct Layers {
    add_us: Vec<f64>,
    remove_us: Vec<f64>,
    update_us: Vec<f64>,
    journal_us: Vec<f64>,
    route_us: Vec<f64>,
    suffix: u64,
    full: u64,
    unchanged: u64,
}

fn elapsed_us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

fn kind_of(e: &GatewayError) -> &'static str {
    match e {
        GatewayError::CapacityExceeded { .. } => "capacity",
        GatewayError::Infeasible { .. } => "infeasible",
        _ => "other",
    }
}

/// Replays a pass's requests through `GatewayState` and a journal, timing
/// the routing, admission and journal calls the server makes for each,
/// and checks every outcome against the server's.
fn replay_in_process(
    opts: &Options,
    comm: &CommGraph,
    pass: &Pass,
    result: &mut RunResult,
) -> Layers {
    let topo = testbeds::wustl(TESTBED_SEED);
    let channels = ChannelId::range(11, 14).expect("channels 11-14 exist");
    let model = NetworkModel::new(&topo, &channels);
    let mut state = GatewayState::new(
        model,
        Box::new(ReuseConservatively::new(2)),
        GatewayConfig { rho_t: Some(2), ..GatewayConfig::default() },
    );
    let path = opts.work.join("serve-churn.replica.journal");
    let header = JournalHeader::new(format!("wustl/seed={TESTBED_SEED}/ch=11-14/prr=0.9"), "rc/2");
    let mut journal = match Journal::create(&path, &header) {
        Ok(j) => j,
        Err(e) => {
            result.fail(format!("cannot create {}: {e}", path.display()));
            return Layers::default();
        }
    };
    let mut l = Layers::default();
    for (request, served) in pass.requests.iter().zip(&pass.outcomes) {
        let (op, applied) = match request {
            Request::AddFlow { name, source, dest, period, deadline } => {
                let t = Instant::now();
                let route = routing::shortest_path(comm, NodeId::new(*source), NodeId::new(*dest));
                l.route_us.push(elapsed_us(t));
                let period_ok = Period::from_slots(*period).expect("stream periods are nonzero");
                let t = Instant::now();
                let applied = match route {
                    Ok(route) => state.add_flow(
                        name,
                        FlowSpec { route, period: period_ok, deadline_slots: *deadline },
                    ),
                    Err(e) => Err(GatewayError::InvalidSpec { reason: e.to_string() }),
                };
                l.add_us.push(elapsed_us(t));
                let op = GatewayOp::AddFlow {
                    name: name.clone(),
                    source: *source,
                    dest: *dest,
                    period: *period,
                    deadline: *deadline,
                };
                (op, applied)
            }
            Request::RemoveFlow { name } => {
                let t = Instant::now();
                let applied = state.remove_flow(name);
                l.remove_us.push(elapsed_us(t));
                (GatewayOp::RemoveFlow { name: name.clone() }, applied)
            }
            Request::UpdateRate { name, period, deadline } => {
                let period_ok = Period::from_slots(*period).expect("stream periods are nonzero");
                let t = Instant::now();
                let applied = state.update_rate(name, period_ok, *deadline);
                l.update_us.push(elapsed_us(t));
                (
                    GatewayOp::UpdateRate {
                        name: name.clone(),
                        period: *period,
                        deadline: *deadline,
                    },
                    applied,
                )
            }
            Request::Status | Request::Export => continue,
        };
        let replica = match &applied {
            Ok(report) => {
                match report.path {
                    DeltaPath::Suffix { .. } => l.suffix += 1,
                    DeltaPath::Full => l.full += 1,
                    DeltaPath::Unchanged => l.unchanged += 1,
                    DeltaPath::Recovery => {}
                }
                let t = Instant::now();
                if let Err(e) = journal.append(&op) {
                    result.fail(format!("replica journal append failed: {e}"));
                }
                l.journal_us.push(elapsed_us(t));
                Outcome {
                    kind: "ok".to_string(),
                    evicted: report.evicted.clone(),
                    path: report.path.to_string(),
                }
            }
            Err(e) => {
                Outcome { kind: kind_of(e).to_string(), evicted: Vec::new(), path: String::new() }
            }
        };
        let served_cmp = Outcome {
            kind: if served.ok() || served.refused() {
                served.kind.clone()
            } else {
                "other".to_string()
            },
            ..served.clone()
        };
        if replica != served_cmp {
            result.fail(format!(
                "{}: server said {served:?}, in-process replay {replica:?}",
                request.to_line()
            ));
        }
    }
    let _ = std::fs::remove_file(&path);
    l
}

pub fn run(opts: &Options) -> Result<RunResult, String> {
    let mut result = RunResult { correct: true, ..RunResult::default() };
    // Client, servers and probe helper take turns on CPU 0, so a round
    // trip never waits for the host to wake an idle second vCPU.
    speed::pin_to_one_cpu()?;
    let mut pace = Pace::spawn()?;
    let comm = routing_graph();
    let hops = hops_of(&comm);

    let journaled = one_pass(opts, &hops, true, &mut pace, &mut result)?;
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut replicas: Vec<Layers> = Vec::new();
    loop {
        let pass = one_pass(opts, &hops, false, &mut pace, &mut result)?;
        if opts.trace {
            replicas.push(replay_in_process(opts, &comm, &pass, &mut result));
        }
        if pass.outcomes != journaled.outcomes {
            result.fail("a repeated pass of the same stream got different responses");
        }
        passes.push(pass);
        if started.elapsed() >= opts.seconds {
            break;
        }
    }

    // Failure accounting over every request sent.
    let (mut adds, mut refused_adds, mut refused, mut errored) = (0u64, 0u64, 0u64, 0u64);
    for pass in &passes {
        for (request, outcome) in pass.requests.iter().zip(&pass.outcomes) {
            result.attempted += 1;
            let is_add = matches!(request, Request::AddFlow { .. });
            adds += u64::from(is_add);
            if outcome.refused() {
                refused += 1;
                refused_adds += u64::from(is_add);
            } else if !outcome.ok() {
                errored += 1;
                result.fail(format!("{} -> error kind {}", request.to_line(), outcome.kind));
            }
        }
    }
    eprintln!(
        "serve-churn: {} passes of {REQUESTS} requests: attempted {}, refused {refused} \
         ({refused_adds} of {adds} admissions), errored {errored}, {} flows live at the end",
        passes.len(),
        result.attempted,
        passes[0].live_at_end
    );
    // Seconds of round trips per pass.
    let walls: Vec<f64> = passes.iter().map(|p| p.latency_us.iter().sum::<f64>() / 1e6).collect();
    let scaled: Vec<f64> = passes.iter().map(|p| p.scaled_us.iter().sum::<f64>() / 1e6).collect();
    let setups: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    let host_setups: Vec<f64> = passes.iter().map(|p| p.setup.as_secs_f64()).collect();
    eprintln!(
        "serve-churn: pass walls (s) {scaled:.3?}, host {walls:.3?}; setups (s) {setups:.4?}, host {host_setups:.4?}"
    );

    if opts.trace {
        let all: Vec<f64> = passes.iter().flat_map(|p| p.latency_us.iter()).copied().collect();
        let (mut reads, mut writes) = (Vec::new(), Vec::new());
        for p in &passes {
            for (request, us) in p.requests.iter().zip(&p.latency_us) {
                if request.is_write() {
                    writes.push(*us)
                } else {
                    reads.push(*us)
                }
            }
        }
        let total_wall: f64 = walls.iter().sum();
        eprintln!(
            "serve-churn: request percentiles over {} samples ({} reads, {} writes)",
            all.len(),
            reads.len(),
            writes.len()
        );
        let p = |v: &[f64], q: f64| percentile(v, q).ok_or("too few samples for a percentile");
        result.set("serve.req_p50_us", p(&all, 0.5)?);
        result.set("serve.req_p99_us", p(&all, 0.99)?);
        result.set("serve.read_us", p(&reads, 0.5)?);
        result.set("serve.write_us", p(&writes, 0.5)?);
        result.set("serve.ops_per_s", all.len() as f64 / total_wall);
        result.set("serve.refused_share", refused_adds as f64 / adds.max(1) as f64);

        let pooled = |f: fn(&Layers) -> &Vec<f64>| -> Vec<f64> {
            replicas.iter().flat_map(|l| f(l).iter()).copied().collect()
        };
        let per_pass_ms = |f: fn(&Layers) -> &Vec<f64>| -> f64 {
            replicas.iter().map(|l| f(l).iter().sum::<f64>() / 1e3).sum::<f64>()
                / replicas.len() as f64
        };
        result.set("core.gateway.admit_us.add_flow", p(&pooled(|l| &l.add_us), 0.5)?);
        result.set("core.gateway.admit_us.remove_flow", p(&pooled(|l| &l.remove_us), 0.5)?);
        result.set("core.gateway.admit_us.update_rate", p(&pooled(|l| &l.update_us), 0.5)?);
        let admit_ms = per_pass_ms(|l| &l.add_us)
            + per_pass_ms(|l| &l.remove_us)
            + per_pass_ms(|l| &l.update_us);
        result.set("core.gateway.admit_ms", admit_ms);
        let (suffix, full, unchanged) = replicas
            .iter()
            .fold((0, 0, 0), |(s, f, u), l| (s + l.suffix, f + l.full, u + l.unchanged));
        let paths = (suffix + full + unchanged).max(1) as f64;
        result.set("core.gateway.path_share.suffix", suffix as f64 / paths);
        result.set("core.gateway.path_share.full", full as f64 / paths);
        result.set("core.gateway.path_share.unchanged", unchanged as f64 / paths);
        result.set("core.gateway.journal_us", p(&pooled(|l| &l.journal_us), 0.5)?);
        // The timed passes serve without a journal, so its time is reported
        // but not part of the passes' wall.
        result.set("core.gateway.journal_ms", per_pass_ms(|l| &l.journal_us));
        result.set("net.routing.shortest_path_us", p(&pooled(|l| &l.route_us), 0.5)?);
        let wall_ms = median(&walls) * 1e3;
        result.set("serve-churn.wall_ms", wall_ms);
        result
            .set("serve-churn.unattributed_ms", wall_ms - admit_ms - per_pass_ms(|l| &l.route_us));
    } else {
        result.set("setup_s", median(&setups));
        let latencies: Vec<Vec<f64>> = passes.iter().map(|p| p.scaled_us.clone()).collect();
        result.set("wall_s", sum_of_medians(&latencies) / 1e6);
        result.set("peak_rss_mb", median(&passes.iter().map(|p| p.rss_mb).collect::<Vec<_>>()));
    }
    Ok(result)
}
