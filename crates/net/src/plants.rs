//! Seeded parametric generator of city-scale plants.
//!
//! The paper's evaluation tops out at two ~80-node testbeds. This module
//! generates *plants* — campuses of multi-floor buildings with 1k–10k
//! nodes — whose per-link, per-channel PRR comes from the same indoor
//! [`propagation`](crate::propagation) model the testbeds use. Where a
//! [`Topology`](crate::Topology) stores a dense `n² × 16` PRR table
//! (~19 TB at 10k nodes), a [`Plant`] stores links *sparsely*: the
//! propagation model's hard PRR floor zeroes every link beyond a radio
//! cutoff of a few tens of meters, so only geometric neighbors are kept.
//!
//! Determinism: every draw affecting a pair `{a, b}` comes from an RNG
//! seeded by `(seed, a, b)`, so the generated plant is independent of link
//! enumeration order and identical across runs and thread counts. That
//! keying is what lets link generation fan out over rows and stop a pair's
//! draws early once no later draw can give it a nonzero PRR.

use crate::channel::BAND_SIZE;
use crate::parallel::parallel_map_with;
use crate::propagation::PropagationModel;
use crate::{ChannelSet, CommGraph, NodeId, Position, Prr, ReuseGraph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Layout and scale of a generated plant: a grid of identical multi-floor
/// buildings separated by streets.
#[derive(Debug, Clone, PartialEq)]
pub struct PlantConfig {
    /// Name recorded on the generated [`Plant`].
    pub name: String,
    /// Buildings east-west.
    pub buildings_x: usize,
    /// Buildings north-south.
    pub buildings_y: usize,
    /// Floors per building.
    pub floors: usize,
    /// Nodes placed on each floor of each building.
    pub nodes_per_floor: usize,
    /// Building extent east-west, in meters.
    pub building_width_m: f64,
    /// Building extent north-south, in meters.
    pub building_depth_m: f64,
    /// Street gap between adjacent buildings, in meters. Must stay well
    /// inside radio range or the plant cannot be connected.
    pub street_gap_m: f64,
    /// Radio and environment model (also drives the link cutoff).
    pub model: PropagationModel,
    /// Standard deviation of the campus-wide per-channel quality offset
    /// (dB), modelling channels that are systematically better or worse.
    pub channel_offset_sigma_db: f64,
}

impl PlantConfig {
    /// A campus sized to roughly `target_nodes` nodes: 4-floor buildings
    /// of 25 nodes per floor on a near-square street grid.
    ///
    /// The actual node count is `buildings × floors × nodes_per_floor`,
    /// the smallest such multiple that is ≥ `target_nodes`.
    pub fn city(name: impl Into<String>, target_nodes: usize) -> Self {
        let floors = 4;
        let nodes_per_floor = 25;
        let per_building = floors * nodes_per_floor;
        let buildings = target_nodes.div_ceil(per_building).max(1);
        // the most square grid whose cell count overshoots the least
        let (mut bx, mut by) = (buildings, 1);
        for cand_x in 1..=buildings {
            let cand_y = buildings.div_ceil(cand_x);
            let better_fit = cand_x * cand_y < bx * by;
            let as_good = cand_x * cand_y == bx * by;
            let squarer = cand_x.abs_diff(cand_y) < bx.abs_diff(by);
            if better_fit || (as_good && squarer) {
                (bx, by) = (cand_x, cand_y);
            }
        }
        PlantConfig {
            name: name.into(),
            buildings_x: bx,
            buildings_y: by,
            floors,
            nodes_per_floor,
            building_width_m: 40.0,
            building_depth_m: 20.0,
            street_gap_m: 12.0,
            model: PropagationModel::default(),
            channel_offset_sigma_db: 1.5,
        }
    }

    /// Total node count of the configured plant.
    pub fn node_count(&self) -> usize {
        self.buildings_x * self.buildings_y * self.floors * self.nodes_per_floor
    }
}

/// One measured radio link of a plant: an unordered node pair (`a < b`)
/// with directed per-channel PRR in both directions.
#[derive(Debug, Clone, PartialEq)]
pub struct PlantLink {
    /// Lower endpoint.
    pub a: NodeId,
    /// Upper endpoint.
    pub b: NodeId,
    /// PRR of `a → b` per channel (band indices 0..16).
    pub prr_ab: [f32; BAND_SIZE],
    /// PRR of `b → a` per channel.
    pub prr_ba: [f32; BAND_SIZE],
}

/// A generated city-scale plant: node placement plus a sparse per-channel
/// PRR map over the pairs within radio range.
///
/// Pairs without a stored link have PRR 0 on every channel by
/// construction — they are beyond the propagation model's sensitivity
/// cutoff (see [`link_cutoff_m`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Plant {
    name: String,
    positions: Vec<Position>,
    /// Building index of each node (row-major over the street grid).
    building_of: Vec<u32>,
    /// Links sorted by `(a, b)`.
    links: Vec<PlantLink>,
    /// Per-node neighbor list: `(other endpoint, index into links)`.
    adjacency: Vec<Vec<(NodeId, u32)>>,
    cutoff_m: f64,
}

impl Plant {
    /// Name of the plant.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.positions.len()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.node_count()).map(NodeId::new)
    }

    /// Position of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn position(&self, node: NodeId) -> Position {
        self.positions[node.index()]
    }

    /// Building index of `node` (row-major over the street grid).
    pub fn building(&self, node: NodeId) -> u32 {
        self.building_of[node.index()]
    }

    /// The measured links, sorted by `(a, b)`.
    pub fn links(&self) -> &[PlantLink] {
        &self.links
    }

    /// The geometric link cutoff (meters) used during generation: pairs
    /// farther apart carry no link.
    pub fn cutoff_m(&self) -> f64 {
        self.cutoff_m
    }

    /// PRR of the directed link `tx → rx` on `channel`; zero for pairs
    /// without a stored link (beyond the cutoff).
    pub fn prr(&self, tx: NodeId, rx: NodeId, channel: crate::ChannelId) -> Prr {
        if tx == rx {
            return Prr::ZERO;
        }
        let Some(&(_, idx)) = self.adjacency[tx.index()].iter().find(|(other, _)| *other == rx)
        else {
            return Prr::ZERO;
        };
        let link = &self.links[idx as usize];
        let ch = channel.band_index();
        let raw = if link.a == tx { link.prr_ab[ch] } else { link.prr_ba[ch] };
        Prr::saturating(f64::from(raw))
    }

    /// Builds the communication graph over `channels` with link-selection
    /// threshold `prr_t`: an edge `uv` exists iff `PRR ≥ prr_t` in **both**
    /// directions on **every** channel (the [`Topology::comm_graph`]
    /// rule, evaluated over the sparse link set).
    ///
    /// [`Topology::comm_graph`]: crate::Topology::comm_graph
    pub fn comm_graph(&self, channels: &ChannelSet, prr_t: Prr) -> CommGraph {
        let t = prr_t.value() as f32;
        let edges: Vec<(NodeId, NodeId)> = self
            .links
            .iter()
            .filter(|l| {
                channels
                    .iter()
                    .all(|ch| l.prr_ab[ch.band_index()] >= t && l.prr_ba[ch.band_index()] >= t)
            })
            .map(|l| (l.a, l.b))
            .collect();
        CommGraph::from_edges(self.node_count(), &edges)
    }

    /// Builds the channel reuse graph over `channels`: an edge `uv` exists
    /// iff **any** channel has `PRR > 0` in **either** direction (the
    /// [`Topology::reuse_graph`] rule over the sparse link set).
    ///
    /// [`Topology::reuse_graph`]: crate::Topology::reuse_graph
    pub fn reuse_graph(&self, channels: &ChannelSet) -> ReuseGraph {
        let edges: Vec<(NodeId, NodeId)> = self
            .links
            .iter()
            .filter(|l| {
                channels
                    .iter()
                    .any(|ch| l.prr_ab[ch.band_index()] > 0.0 || l.prr_ba[ch.band_index()] > 0.0)
            })
            .map(|l| (l.a, l.b))
            .collect();
        ReuseGraph::from_edges(self.node_count(), &edges)
    }
}

/// The distance beyond which the propagation model cannot yield a nonzero
/// PRR even under a `+margin_db` shadowing draw: the smallest `d` where
/// `prr_from_rssi(mean_rssi(d, 0) + margin_db)` hits the hard floor.
///
/// Link generation only evaluates pairs within this cutoff; everything
/// farther is PRR 0 *by definition of the plant model*. The margin is
/// sized at 4σ of the combined shadowing terms, so the truncation lives
/// far out in the shadowing tail.
pub fn link_cutoff_m(model: &PropagationModel, margin_db: f64) -> f64 {
    let dead = |d: f64| model.prr_from_rssi(model.mean_rssi_dbm(d, 0) + margin_db).value() <= 0.0;
    let mut lo = 0.5;
    let mut hi = 1.0;
    while !dead(hi) {
        hi *= 2.0;
        if hi > 1e6 {
            return hi; // pathological model without a sensitivity floor
        }
    }
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if dead(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// Combined 4σ shadowing margin of a configuration, used to size the link
/// cutoff conservatively.
fn shadow_margin_db(config: &PlantConfig) -> f64 {
    let m = &config.model;
    let var = m.pair_shadowing_sigma_db.powi(2)
        + m.channel_shadowing_sigma_db.powi(2)
        + m.asymmetry_sigma_db.powi(2)
        + config.channel_offset_sigma_db.powi(2);
    4.0 * var.sqrt()
}

/// Generates a validated plant from a configuration and seed.
///
/// Determinism: the same `(config, seed)` always yields the same plant.
/// If a candidate's communication graph (all 16 channels, `PRR_t = 0.9`)
/// is disconnected, deterministic retry seeds are derived from `seed`
/// until one passes — the same convention as
/// [`testbeds::generate`](crate::testbeds::generate).
///
/// # Panics
///
/// Panics if the configuration is degenerate (zero buildings, floors, or
/// nodes per floor; more than 65 536 nodes), or if no connected candidate
/// is found within 64 attempts (streets far wider than radio range).
pub fn generate(config: &PlantConfig, seed: u64) -> Plant {
    assert!(config.buildings_x > 0 && config.buildings_y > 0, "plant needs at least one building");
    assert!(config.floors > 0, "buildings need at least one floor");
    assert!(config.nodes_per_floor > 0, "floors need at least one node");
    assert!(
        config.node_count() <= usize::from(u16::MAX) + 1,
        "plant exceeds the 65 536-node id space"
    );
    let all = crate::ChannelId::all();
    let prr_t = Prr::new(0.9).expect("0.9 is a valid PRR");
    for attempt in 0..64u64 {
        let candidate_seed = seed.wrapping_add(attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let plant = generate_unchecked(config, candidate_seed);
        if plant.comm_graph(&all, prr_t).is_connected() {
            return plant;
        }
    }
    panic!(
        "no connected communication graph after 64 attempts for plant '{}'; \
         the street grid is out of radio range",
        config.name
    );
}

/// Generates a candidate plant without the connectivity check.
fn generate_unchecked(config: &PlantConfig, seed: u64) -> Plant {
    let mut rng = StdRng::seed_from_u64(seed);
    // Campus-wide per-channel quality offsets (drawn before any pair state
    // so they do not depend on the layout).
    let channel_offsets: Vec<f64> =
        (0..BAND_SIZE).map(|_| gaussian(&mut rng) * config.channel_offset_sigma_db).collect();
    let (positions, building_of) = place_nodes(config, &mut rng);

    let cutoff = link_cutoff_m(&config.model, shadow_margin_db(config));
    let links = generate_links(config, seed, &positions, cutoff, &channel_offsets, 0);

    let mut adjacency = vec![Vec::new(); positions.len()];
    for (i, link) in links.iter().enumerate() {
        adjacency[link.a.index()].push((link.b, i as u32));
        adjacency[link.b.index()].push((link.a, i as u32));
    }
    Plant { name: config.name.clone(), positions, building_of, links, adjacency, cutoff_m: cutoff }
}

/// Places nodes on a jittered grid per floor per building (the
/// [`testbeds`](crate::testbeds) placement, tiled over the street grid).
fn place_nodes(config: &PlantConfig, rng: &mut StdRng) -> (Vec<Position>, Vec<u32>) {
    let mut positions = Vec::with_capacity(config.node_count());
    let mut building_of = Vec::with_capacity(config.node_count());
    let pitch_x = config.building_width_m + config.street_gap_m;
    let pitch_y = config.building_depth_m + config.street_gap_m;
    let count = config.nodes_per_floor;
    // grid dimensions closest to the floor aspect ratio
    let cols =
        ((count as f64 * config.building_width_m / config.building_depth_m).sqrt()).ceil() as usize;
    let cols = cols.max(1);
    let rows = count.div_ceil(cols);
    let dx = config.building_width_m / cols as f64;
    let dy = config.building_depth_m / rows as f64;
    for by in 0..config.buildings_y {
        for bx in 0..config.buildings_x {
            let building = (by * config.buildings_x + bx) as u32;
            let x0 = bx as f64 * pitch_x;
            let y0 = by as f64 * pitch_y;
            for floor in 0..config.floors {
                let z = floor as f64 * config.model.floor_height_m;
                let mut placed = 0;
                'grid: for r in 0..rows {
                    for c in 0..cols {
                        if placed == count {
                            break 'grid;
                        }
                        let jx = (rng.gen::<f64>() - 0.5) * dx * 0.6;
                        let jy = (rng.gen::<f64>() - 0.5) * dy * 0.6;
                        positions.push(Position::new(
                            x0 + (c as f64 + 0.5) * dx + jx,
                            y0 + (r as f64 + 0.5) * dy + jy,
                            z,
                        ));
                        building_of.push(building);
                        placed += 1;
                    }
                }
            }
        }
    }
    (positions, building_of)
}

/// Rows (lower endpoints `a`) evaluated per parallel work item.
const ROWS_PER_CHUNK: usize = 64;

/// Evaluates every pair within `cutoff` through the propagation model,
/// keeping the links with a nonzero PRR somewhere. Neighbor candidates
/// come from a uniform `cutoff × cutoff` spatial grid, so the work is
/// `O(nodes × neighborhood)` instead of `O(nodes²)`.
///
/// Rows fan out in [`ROWS_PER_CHUNK`] blocks over `workers` threads (`0`
/// selects `available_parallelism`). Each row's links are sorted by `b`
/// and the blocks are appended in row order, so the result is sorted by
/// `(a, b)` and identical for every worker count.
fn generate_links(
    config: &PlantConfig,
    seed: u64,
    positions: &[Position],
    cutoff: f64,
    channel_offsets: &[f64],
    workers: usize,
) -> Vec<PlantLink> {
    let lm = LinkModel::new(&config.model, channel_offsets);
    let cell = cutoff.max(1.0);
    let key = |p: &Position| ((p.x / cell).floor() as i64, (p.y / cell).floor() as i64);
    let mut grid: BTreeMap<(i64, i64), Vec<usize>> = BTreeMap::new();
    for (i, p) in positions.iter().enumerate() {
        grid.entry(key(p)).or_default().push(i);
    }
    let block = |chunk: usize| {
        let rows = chunk * ROWS_PER_CHUNK..((chunk + 1) * ROWS_PER_CHUNK).min(positions.len());
        let mut links = Vec::new();
        for i in rows {
            let pa = &positions[i];
            let row_start = links.len();
            let (kx, ky) = key(pa);
            for nx in (kx - 1)..=(kx + 1) {
                for ny in (ky - 1)..=(ky + 1) {
                    let Some(bucket) = grid.get(&(nx, ny)) else { continue };
                    for &j in bucket {
                        if j <= i {
                            continue;
                        }
                        let pb = &positions[j];
                        let d = pa.distance(pb);
                        if d > cutoff {
                            continue;
                        }
                        if let Some(link) = link_between(&lm, seed, i, j, pa, pb, d) {
                            links.push(link);
                        }
                    }
                }
            }
            links[row_start..].sort_unstable_by_key(|l: &PlantLink| l.b);
        }
        links
    };
    // Each finished block is appended as soon as every block before it
    // is, and freed: holding all blocks until the end would double the
    // peak memory of the link table.
    let merged = Mutex::new(Merge { next: 0, pending: BTreeMap::new(), links: Vec::new() });
    parallel_map_with(positions.len().div_ceil(ROWS_PER_CHUNK), workers, |chunk| {
        let rows = block(chunk);
        let mut guard = merged.lock().expect("no worker panics while holding the merge lock");
        let m = &mut *guard;
        m.pending.insert(chunk, rows);
        while let Some(rows) = m.pending.remove(&m.next) {
            m.links.extend(rows);
            m.next += 1;
        }
    });
    merged.into_inner().expect("no worker panics while holding the merge lock").links
}

/// In-order assembly of the row blocks that workers finish out of order.
struct Merge {
    /// The next block to append.
    next: usize,
    /// Finished blocks waiting for an earlier one.
    pending: BTreeMap<usize, Vec<PlantLink>>,
    /// The links of blocks `0..next`, in order.
    links: Vec<PlantLink>,
}

/// Largest magnitude [`gaussian`] can return: Box–Muller at its smallest
/// first draw `u1 = ε` with `cos = 1` is `sqrt(-2·ln ε) ≈ 8.4904244`,
/// rounded up here.
const GAUSSIAN_BOUND: f64 = 8.490_425;

/// Slack (dB) between the analytic zero-PRR threshold and
/// [`LinkModel::dead_rssi`], far wider than the rounding of any RSSI sum.
const DEAD_RSSI_SLACK_DB: f64 = 1e-6;

/// Everything a pair's draw reads besides the pair itself: the radio
/// model, the campus-wide channel offsets, and exact early-out thresholds.
/// An RSSI below `dead_rssi` gives PRR exactly 0, and the headrooms bound
/// how much the draws still to come can add to an RSSI.
struct LinkModel<'a> {
    model: &'a PropagationModel,
    channel_offsets: &'a [f64],
    /// RSSI below which `prr_from_rssi` is exactly zero; `-∞` when the
    /// model gives no such guarantee, which turns every shortcut off.
    dead_rssi: f64,
    /// Most the per-channel shadowing, the channel offset, and the
    /// asymmetry can add to `mean + pair_shadow`.
    pair_headroom: f64,
    /// Most the asymmetry can add to `mean + shadow` of one channel.
    direction_headroom: f64,
}

impl<'a> LinkModel<'a> {
    fn new(model: &'a PropagationModel, channel_offsets: &'a [f64]) -> Self {
        let max_offset = channel_offsets.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        LinkModel {
            model,
            channel_offsets,
            dead_rssi: dead_rssi_dbm(model),
            pair_headroom: GAUSSIAN_BOUND
                * (model.channel_shadowing_sigma_db.abs() + model.asymmetry_sigma_db.abs())
                + max_offset,
            direction_headroom: GAUSSIAN_BOUND * model.asymmetry_sigma_db.abs(),
        }
    }
}

/// The RSSI `R*` below which `model.prr_from_rssi` returns exactly zero:
/// the logistic crosses the floor at `midpoint + slope·ln(floor/(1−floor))`,
/// less [`DEAD_RSSI_SLACK_DB`]. The curve is nondecreasing in RSSI only for
/// a positive slope, so `R*` is used only then, and only when it is finite
/// and the model itself confirms a zero PRR there; otherwise `-∞`.
fn dead_rssi_dbm(model: &PropagationModel) -> f64 {
    let floor = model.prr_floor;
    let r = model.prr_midpoint_dbm + model.prr_slope_db * (floor / (1.0 - floor)).ln()
        - DEAD_RSSI_SLACK_DB;
    let sound = r.is_finite() && model.prr_slope_db > 0.0 && model.prr_from_rssi(r) == Prr::ZERO;
    if sound {
        r
    } else {
        f64::NEG_INFINITY
    }
}

/// Draws one pair's per-channel PRR from an RNG keyed by `(seed, a, b)`;
/// returns `None` when every direction of every channel lands on zero.
///
/// Draws that can no longer lift any RSSI to `lm.dead_rssi` are skipped:
/// the whole pair after its first draw, a channel's two asymmetry draws,
/// and a direction's `exp`. The RNG belongs to this pair alone, so
/// skipping its tail changes no other pair, and the result is the one the
/// full draw sequence gives.
fn link_between(
    lm: &LinkModel,
    seed: u64,
    a: usize,
    b: usize,
    pa: &Position,
    pb: &Position,
    d: f64,
) -> Option<PlantLink> {
    let model = lm.model;
    let floors = pa.floors_between(pb, model.floor_height_m);
    let mean = model.mean_rssi_dbm(d, floors);
    let mut rng = StdRng::seed_from_u64(pair_seed(seed, a, b));
    // Pair-level shadowing: one draw for the whole band (the testbeds
    // draw order, replayed from the pair-keyed RNG).
    let pair_shadow = gaussian(&mut rng) * model.pair_shadowing_sigma_db;
    if mean + pair_shadow + lm.pair_headroom < lm.dead_rssi {
        return None;
    }
    let mut prr_ab = [0.0f32; BAND_SIZE];
    let mut prr_ba = [0.0f32; BAND_SIZE];
    let mut any = false;
    for ch in 0..BAND_SIZE {
        let shadow = pair_shadow
            + gaussian(&mut rng) * model.channel_shadowing_sigma_db
            + lm.channel_offsets[ch];
        if mean + shadow + lm.direction_headroom < lm.dead_rssi {
            // both directions of this channel are 0: keep the stream aligned
            skip_gaussian(&mut rng);
            skip_gaussian(&mut rng);
            continue;
        }
        for dir in [&mut prr_ab, &mut prr_ba] {
            // ... plus a small per-direction asymmetry
            let rssi = mean + shadow + gaussian(&mut rng) * model.asymmetry_sigma_db;
            if rssi < lm.dead_rssi {
                continue;
            }
            let prr = model.prr_from_rssi(rssi).value() as f32;
            dir[ch] = prr;
            any |= prr > 0.0;
        }
    }
    any.then(|| PlantLink { a: NodeId::new(a), b: NodeId::new(b), prr_ab, prr_ba })
}

/// Order-independent per-pair seed: a splitmix64-style finalizer over the
/// base seed and both endpoints.
fn pair_seed(seed: u64, a: usize, b: usize) -> u64 {
    let mut x = seed
        ^ (a as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (b as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Standard normal draw via Box–Muller (mirrors `testbeds::gaussian`).
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen::<f64>();
    box_muller(u1, u2)
}

/// Advances `rng` exactly as [`gaussian`] does, without the `ln`, `sqrt`
/// and `cos`.
fn skip_gaussian(rng: &mut StdRng) {
    let _: f64 = rng.gen_range(f64::EPSILON..1.0);
    let _: f64 = rng.gen::<f64>();
}

/// The Box–Muller transform of two uniform draws, `u1` in `(0, 1)`.
fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChannelId;
    use proptest::prelude::*;

    /// The unpruned, sequential link generator the fast path replaced, kept
    /// verbatim as its oracle: every pair makes all 49 draws, and the links
    /// are sorted once at the end.
    fn reference_links(
        config: &PlantConfig,
        seed: u64,
        positions: &[Position],
        cutoff: f64,
        channel_offsets: &[f64],
    ) -> Vec<PlantLink> {
        let model = &config.model;
        let cell = cutoff.max(1.0);
        let key = |p: &Position| ((p.x / cell).floor() as i64, (p.y / cell).floor() as i64);
        let mut grid: std::collections::BTreeMap<(i64, i64), Vec<usize>> =
            std::collections::BTreeMap::new();
        for (i, p) in positions.iter().enumerate() {
            grid.entry(key(p)).or_default().push(i);
        }
        let mut links = Vec::new();
        for (i, pa) in positions.iter().enumerate() {
            let (kx, ky) = key(pa);
            for nx in (kx - 1)..=(kx + 1) {
                for ny in (ky - 1)..=(ky + 1) {
                    let Some(bucket) = grid.get(&(nx, ny)) else { continue };
                    for &j in bucket {
                        if j <= i {
                            continue;
                        }
                        let pb = &positions[j];
                        let d = pa.distance(pb);
                        if d > cutoff {
                            continue;
                        }
                        if let Some(link) =
                            reference_link_between(model, seed, i, j, pa, pb, d, channel_offsets)
                        {
                            links.push(link);
                        }
                    }
                }
            }
        }
        links.sort_by_key(|l| (l.a, l.b));
        links
    }

    /// The oracle's per-pair draw: all 1 + 16 × 3 Gaussians, an `exp` each.
    #[allow(clippy::too_many_arguments)]
    fn reference_link_between(
        model: &PropagationModel,
        seed: u64,
        a: usize,
        b: usize,
        pa: &Position,
        pb: &Position,
        d: f64,
        channel_offsets: &[f64],
    ) -> Option<PlantLink> {
        let floors = pa.floors_between(pb, model.floor_height_m);
        let mean = model.mean_rssi_dbm(d, floors);
        let mut rng = StdRng::seed_from_u64(pair_seed(seed, a, b));
        // Pair-level shadowing: one draw for the whole band (the testbeds
        // draw order, replayed from the pair-keyed RNG).
        let pair_shadow = gaussian(&mut rng) * model.pair_shadowing_sigma_db;
        let mut prr_ab = [0.0f32; BAND_SIZE];
        let mut prr_ba = [0.0f32; BAND_SIZE];
        let mut any = false;
        for ch in 0..BAND_SIZE {
            let shadow = pair_shadow
                + gaussian(&mut rng) * model.channel_shadowing_sigma_db
                + channel_offsets[ch];
            for dir in [&mut prr_ab, &mut prr_ba] {
                // ... plus a small per-direction asymmetry
                let asym = gaussian(&mut rng) * model.asymmetry_sigma_db;
                let prr = model.prr_from_rssi(mean + shadow + asym).value() as f32;
                dir[ch] = prr;
                any |= prr > 0.0;
            }
        }
        any.then(|| PlantLink { a: NodeId::new(a), b: NodeId::new(b), prr_ab, prr_ba })
    }

    /// The inputs `generate_unchecked` hands to `generate_links`.
    fn link_inputs(config: &PlantConfig, seed: u64) -> (Vec<f64>, Vec<Position>, f64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let offsets: Vec<f64> =
            (0..BAND_SIZE).map(|_| gaussian(&mut rng) * config.channel_offset_sigma_db).collect();
        let (positions, _) = place_nodes(config, &mut rng);
        let cutoff = link_cutoff_m(&config.model, shadow_margin_db(config));
        (offsets, positions, cutoff)
    }

    /// 1–4 buildings in every street-grid shape (a row of 3 or 4 spans two
    /// grid cells, so rows draw from several buckets), 1–4 floors, so the
    /// 2- and 3-floor pairs that pruning drops are present.
    fn arb_layout() -> impl Strategy<Value = (PlantConfig, u64)> {
        const SHAPES: [(usize, usize); 8] =
            [(1, 1), (2, 1), (3, 1), (4, 1), (1, 2), (1, 3), (1, 4), (2, 2)];
        (0..SHAPES.len(), 1usize..=4, 1usize..=24, 0u64..u64::MAX).prop_map(
            |(shape, floors, nodes_per_floor, seed)| {
                let (buildings_x, buildings_y) = SHAPES[shape];
                let cfg = PlantConfig {
                    buildings_x,
                    buildings_y,
                    floors,
                    nodes_per_floor,
                    ..small_config()
                };
                (cfg, seed)
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The pruned, row-parallel generator returns exactly the links,
        /// PRRs and order of the unpruned sequential one, at any worker
        /// count.
        #[test]
        fn equivalence_pruned_parallel_links_match_reference((cfg, seed) in arb_layout()) {
            let (offsets, positions, cutoff) = link_inputs(&cfg, seed);
            let reference = reference_links(&cfg, seed, &positions, cutoff, &offsets);
            for workers in 1..=3 {
                let fast = generate_links(&cfg, seed, &positions, cutoff, &offsets, workers);
                prop_assert_eq!(&fast, &reference, "{} workers", workers);
            }
        }
    }

    #[test]
    fn gaussian_bound_holds_at_the_smallest_draw() {
        let extreme = box_muller(f64::EPSILON, 0.0);
        assert!(extreme <= GAUSSIAN_BOUND);
        assert!(GAUSSIAN_BOUND - extreme < 1e-6, "bound {GAUSSIAN_BOUND} is loose: {extreme}");
        // the magnitude only falls as u1 grows or the angle turns
        for (u1, u2) in [(2.0 * f64::EPSILON, 0.0), (1e-9, 0.5), (0.5, 0.25), (f64::EPSILON, 0.5)] {
            assert!(box_muller(u1, u2).abs() <= GAUSSIAN_BOUND);
        }
    }

    #[test]
    fn headrooms_cover_the_largest_remaining_draws() {
        let model = PropagationModel::default();
        let offsets = [-1.0, 2.5, 0.3];
        let lm = LinkModel::new(&model, &offsets);
        let g = box_muller(f64::EPSILON, 0.0);
        let asym = g * model.asymmetry_sigma_db;
        assert!(lm.direction_headroom >= asym);
        assert!(lm.pair_headroom >= g * model.channel_shadowing_sigma_db + 2.5 + asym);
    }

    #[test]
    fn dead_rssi_gives_exactly_zero_prr() {
        let model = PropagationModel::default();
        let dead = dead_rssi_dbm(&model);
        assert!(dead.is_finite());
        assert_eq!(model.prr_from_rssi(dead), Prr::ZERO);
        // ... and sits just under the first nonzero PRR
        assert!(model.prr_from_rssi(dead + 1e-3).value() > 0.0);
        // a model without a usable floor turns every shortcut off
        let no_floor = PropagationModel { prr_floor: 0.0, ..PropagationModel::default() };
        assert_eq!(dead_rssi_dbm(&no_floor), f64::NEG_INFINITY);
        let falling = PropagationModel { prr_slope_db: -1.0, ..PropagationModel::default() };
        assert_eq!(dead_rssi_dbm(&falling), f64::NEG_INFINITY);
    }

    #[test]
    fn skip_gaussian_advances_the_rng_like_gaussian() {
        let mut drawn = StdRng::seed_from_u64(0xfeed);
        let mut skipped = drawn.clone();
        for _ in 0..64 {
            gaussian(&mut drawn);
            skip_gaussian(&mut skipped);
            assert_eq!(drawn, skipped);
        }
    }

    fn small_config() -> PlantConfig {
        PlantConfig {
            name: "small".to_string(),
            buildings_x: 2,
            buildings_y: 1,
            floors: 3,
            nodes_per_floor: 10,
            building_width_m: 40.0,
            building_depth_m: 20.0,
            street_gap_m: 12.0,
            model: PropagationModel::default(),
            channel_offset_sigma_db: 1.5,
        }
    }

    #[test]
    fn small_plant_is_connected_and_sized() {
        let plant = generate(&small_config(), 1);
        assert_eq!(plant.node_count(), 60);
        let g = plant.comm_graph(&ChannelId::all(), Prr::new(0.9).unwrap());
        assert!(g.is_connected());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&small_config(), 7);
        let b = generate(&small_config(), 7);
        assert_eq!(a, b);
        let c = generate(&small_config(), 8);
        assert_ne!(a, c);
    }

    #[test]
    fn links_are_sparse_and_within_cutoff() {
        let plant = generate(&small_config(), 3);
        let n = plant.node_count();
        assert!(plant.links().len() < n * (n - 1) / 2, "plant must not be a clique");
        for link in plant.links() {
            assert!(link.a < link.b);
            let d = plant.position(link.a).distance(&plant.position(link.b));
            assert!(d <= plant.cutoff_m(), "link of length {d} beyond cutoff");
        }
    }

    #[test]
    fn prr_lookup_matches_link_table_and_defaults_to_zero() {
        // a 3-building row is wider than the ~100 m link cutoff, so the
        // far corners are guaranteed to carry no link
        let mut cfg = small_config();
        cfg.buildings_x = 3;
        let plant = generate(&cfg, 5);
        let ch = ChannelId::new(13).unwrap();
        let link = &plant.links()[0];
        let expect = f64::from(link.prr_ab[ch.band_index()]);
        assert!((plant.prr(link.a, link.b, ch).value() - expect).abs() < 1e-9);
        // the farthest pair must be beyond the cutoff in a 2-building plant
        let (mut far_a, mut far_b, mut far_d) = (NodeId::new(0), NodeId::new(0), 0.0);
        for a in plant.nodes() {
            for b in plant.nodes() {
                let d = plant.position(a).distance(&plant.position(b));
                if d > far_d {
                    (far_a, far_b, far_d) = (a, b, d);
                }
            }
        }
        assert!(far_d > plant.cutoff_m());
        assert_eq!(plant.prr(far_a, far_b, ch), Prr::ZERO);
        assert_eq!(plant.prr(far_a, far_a, ch), Prr::ZERO);
    }

    #[test]
    fn city_config_reaches_the_target_scale() {
        let cfg = PlantConfig::city("kilo", 1000);
        assert!(cfg.node_count() >= 1000);
        assert!(cfg.node_count() <= 1100, "sizing overshoot: {}", cfg.node_count());
    }

    #[test]
    fn reuse_graph_is_denser_than_comm_graph() {
        let plant = generate(&small_config(), 11);
        let chans = ChannelId::range(11, 14).unwrap();
        let comm = plant.comm_graph(&chans, Prr::new(0.9).unwrap());
        let reuse = plant.reuse_graph(&chans);
        assert!(reuse.edge_count() > comm.edge_count());
    }

    #[test]
    fn buildings_are_assigned_row_major() {
        let plant = generate(&small_config(), 13);
        assert_eq!(plant.building(NodeId::new(0)), 0);
        assert_eq!(plant.building(NodeId::new(59)), 1);
        // building 1 sits one street east of building 0
        let p0 = plant.position(NodeId::new(0));
        let p1 = plant.position(NodeId::new(30));
        assert!(p1.x > p0.x);
    }

    #[test]
    fn cutoff_is_finite_and_indoor_scale() {
        let cutoff = link_cutoff_m(&PropagationModel::default(), 20.0);
        assert!(cutoff > 10.0 && cutoff < 500.0, "cutoff {cutoff} out of range");
    }
}
