//! The seeded `serve-churn` request stream.
//!
//! A closed-loop client: the generator emits one request, the client sends
//! it and feeds the outcome back before the next is drawn. Removals and
//! re-rates name flows the client knows to be admitted (admissions minus
//! removals minus evictions the gateway reported), so none is rejected for
//! naming an unknown flow. Admissions outnumber removals, so the live flow
//! count climbs to the gateway's capacity and hovers there: low-priority
//! admissions are then refused and high-priority ones evict.
//!
//! Since the gateway is deterministic, the whole exchange — every line
//! sent — is a function of the seed.

/// Op mix, as cumulative thresholds on a uniform draw.
const ADD: f64 = 0.45;
const REMOVE: f64 = 0.60;
const UPDATE: f64 = 0.75;
const STATUS: f64 = 0.90;

/// Periods the stream draws from, in slots.
const PERIODS: [u32; 3] = [32, 64, 128];

/// Splitmix64: the benchmark's own generator, independent of the
/// program's RNG.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed ^ 0x5e7e_c4a1_2f0b_7d31)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u32, hi: u32) -> u32 {
        lo + (self.next_u64() % u64::from(hi - lo + 1)) as u32
    }
}

/// One client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    AddFlow { name: String, source: usize, dest: usize, period: u32, deadline: u32 },
    RemoveFlow { name: String },
    UpdateRate { name: String, period: u32, deadline: u32 },
    Status,
    Export,
}

impl Request {
    /// The JSONL line (without newline).
    pub fn to_line(&self) -> String {
        match self {
            Request::AddFlow { name, source, dest, period, deadline } => format!(
                "{{\"op\":\"add_flow\",\"name\":\"{name}\",\"source\":{source},\"dest\":{dest},\
                 \"period\":{period},\"deadline\":{deadline}}}"
            ),
            Request::RemoveFlow { name } => format!("{{\"op\":\"remove_flow\",\"name\":\"{name}\"}}"),
            Request::UpdateRate { name, period, deadline } => format!(
                "{{\"op\":\"update_rate\",\"name\":\"{name}\",\"period\":{period},\"deadline\":{deadline}}}"
            ),
            Request::Status => "{\"op\":\"status\"}".to_string(),
            Request::Export => "{\"op\":\"export\"}".to_string(),
        }
    }

    /// Whether the request mutates gateway state (and is journaled).
    pub fn is_write(&self) -> bool {
        matches!(
            self,
            Request::AddFlow { .. } | Request::RemoveFlow { .. } | Request::UpdateRate { .. }
        )
    }
}

/// What the client learned from a response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// `"ok"` on success, otherwise the error kind.
    pub kind: String,
    /// Flows the gateway shed to make room.
    pub evicted: Vec<String>,
    /// The delta path of a successful write (`""` for reads and errors).
    pub path: String,
}

impl Outcome {
    pub fn ok(&self) -> bool {
        self.kind == "ok"
    }

    /// The gateway declined for lack of room: not an error of the run.
    pub fn refused(&self) -> bool {
        self.kind == "capacity" || self.kind == "infeasible"
    }
}

/// The seeded generator plus the client's view of the admitted flows.
pub struct Stream {
    rng: SplitMix,
    /// Hop counts between node pairs on the routing graph (`u32::MAX`:
    /// unreachable); used to pick routable pairs and deadline windows.
    hops: Vec<Vec<u32>>,
    /// Admitted flows with their route length, in admission order.
    live: Vec<(String, u32)>,
    next_name: u64,
}

impl Stream {
    pub fn new(seed: u64, hops: Vec<Vec<u32>>) -> Self {
        Stream { rng: SplitMix::new(seed), hops, live: Vec::new(), next_name: 0 }
    }

    /// Flows the client believes are admitted.
    pub fn live(&self) -> usize {
        self.live.len()
    }

    /// A period and a deadline in `[min(2·hops, P), P]`, as in the
    /// repository's churn campaign.
    fn timing(&mut self, hops: u32) -> (u32, u32) {
        let period = PERIODS[self.rng.range(0, PERIODS.len() as u32 - 1) as usize];
        let deadline = self.rng.range((2 * hops).clamp(1, period), period);
        (period, deadline)
    }

    /// Draws the next request.
    pub fn next_request(&mut self) -> Request {
        let roll = self.rng.unit();
        if roll < ADD || self.live.is_empty() {
            let n = self.hops.len();
            let (source, dest, hops) = loop {
                let s = self.rng.range(0, n as u32 - 1) as usize;
                let d = self.rng.range(0, n as u32 - 1) as usize;
                let h = self.hops[s][d];
                if s != d && h != u32::MAX {
                    break (s, d, h);
                }
            };
            let (period, deadline) = self.timing(hops);
            let name = format!("f{}", self.next_name);
            self.next_name += 1;
            return Request::AddFlow { name, source, dest, period, deadline };
        }
        let pick = self.rng.range(0, self.live.len() as u32 - 1) as usize;
        let (name, hops) = self.live[pick].clone();
        if roll < REMOVE {
            Request::RemoveFlow { name }
        } else if roll < UPDATE {
            let (period, deadline) = self.timing(hops);
            Request::UpdateRate { name, period, deadline }
        } else if roll < STATUS {
            Request::Status
        } else {
            Request::Export
        }
    }

    /// Feeds back the outcome of `request`.
    pub fn observe(&mut self, request: &Request, outcome: &Outcome) {
        if !outcome.ok() {
            return;
        }
        match request {
            Request::AddFlow { name, source, dest, .. } => {
                self.live.push((name.clone(), self.hops[*source][*dest]));
            }
            Request::RemoveFlow { name } => self.live.retain(|(n, _)| n != name),
            _ => {}
        }
        self.live.retain(|(n, _)| !outcome.evicted.contains(n));
    }
}

/// Breadth-first hop counts from every node over `neighbors`.
pub fn all_pairs_hops(n: usize, neighbors: impl Fn(usize) -> Vec<usize>) -> Vec<Vec<u32>> {
    (0..n)
        .map(|src| {
            let mut dist = vec![u32::MAX; n];
            dist[src] = 0;
            let mut queue = std::collections::VecDeque::from([src]);
            while let Some(u) = queue.pop_front() {
                for v in neighbors(u) {
                    if dist[v] == u32::MAX {
                        dist[v] = dist[u] + 1;
                        queue.push_back(v);
                    }
                }
            }
            dist
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 6-node ring.
    fn ring() -> Vec<Vec<u32>> {
        all_pairs_hops(6, |u| vec![(u + 1) % 6, (u + 5) % 6])
    }

    /// A scripted gateway: admits while fewer than 4 flows are live,
    /// evicts the oldest flow on every 7th write, and refuses otherwise.
    fn exchange(seed: u64, requests: usize) -> Vec<String> {
        let mut stream = Stream::new(seed, ring());
        let mut lines = Vec::new();
        for i in 0..requests {
            let req = stream.next_request();
            lines.push(req.to_line());
            let evicted = if i % 7 == 0 && stream.live() > 0 {
                vec![stream.live[0].0.clone()]
            } else {
                Vec::new()
            };
            let kind = match &req {
                Request::AddFlow { .. } if stream.live() >= 4 => "infeasible",
                _ => "ok",
            };
            let outcome = Outcome { kind: kind.to_string(), evicted, path: String::new() };
            stream.observe(&req, &outcome);
        }
        lines
    }

    #[test]
    fn the_stream_is_deterministic_for_a_seed() {
        assert_eq!(exchange(7, 500), exchange(7, 500));
    }

    #[test]
    fn different_seeds_give_different_streams() {
        assert_ne!(exchange(7, 50), exchange(8, 50));
    }

    #[test]
    fn writes_only_name_flows_the_client_saw_admitted() {
        let mut stream = Stream::new(3, ring());
        let mut admitted = std::collections::HashSet::new();
        for _ in 0..1000 {
            let req = stream.next_request();
            match &req {
                Request::AddFlow { name, source, dest, period, deadline } => {
                    assert_ne!(source, dest);
                    assert!(*deadline >= 1 && deadline <= period);
                    admitted.insert(name.clone());
                }
                Request::RemoveFlow { name } | Request::UpdateRate { name, .. } => {
                    assert!(admitted.contains(name), "{name} was never admitted");
                }
                _ => {}
            }
            let outcome =
                Outcome { kind: "ok".to_string(), evicted: Vec::new(), path: String::new() };
            stream.observe(&req, &outcome);
            if let Request::RemoveFlow { name } = &req {
                admitted.remove(name);
            }
        }
    }

    #[test]
    fn ring_hops_are_shortest_paths() {
        let h = ring();
        assert_eq!(h[0][3], 3);
        assert_eq!(h[0][5], 1);
        assert_eq!(h[2][2], 0);
    }
}
