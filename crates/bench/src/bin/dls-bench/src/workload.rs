//! The four workloads' inputs. Every input is a pure function of the seed
//! and the request id, so the oracle can regenerate any request after the
//! timed run instead of keeping it; the server sees only the generated
//! lines.

use dlt::model::{LinearNetwork, TreeNode};
use svc::handlers::{self, RequestKind, WorkRequest};
use workloads::{ft_line, solve_line, ChainConfig};

/// The service's solver-cache quantum; the oracle parses requests with it.
pub const QUANTUM: f64 = svc::DEFAULT_QUANTUM;

/// A workload name on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cache hits straight to one shard: the service front path.
    HotDirect,
    /// Distinct chains through the fleet router: solve, settle, serialize.
    ColdRouted,
    /// Fault-injected protocol runs straight to one shard.
    FtrunDirect,
    /// Strategyproofness sweeps through the library, no server.
    SettleSweep,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::HotDirect,
        Workload::ColdRouted,
        Workload::FtrunDirect,
        Workload::SettleSweep,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotDirect => "hot-direct",
            Workload::ColdRouted => "cold-routed",
            Workload::FtrunDirect => "ftrun-direct",
            Workload::SettleSweep => "settle-sweep",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A seeded, stateless draw: stream `stream`, index `i` (splitmix64).
pub fn draw(seed: u64, stream: u64, i: u64) -> u64 {
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    mix(mix(seed ^ mix(stream)) ^ i)
}

/// A uniform draw in `[lo, hi)`.
pub fn uniform(bits: u64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// One chain: root rate, link rates, and the strategic processors' rates
/// (bid truthfully).
#[derive(Debug, Clone, PartialEq)]
pub struct Chain {
    /// `w_0`.
    pub root: f64,
    /// `z_1 … z_m`.
    pub links: Vec<f64>,
    /// `w_1 … w_m`.
    pub rates: Vec<f64>,
}

impl Chain {
    /// A uniform-random chain of `m` strategic processors.
    pub fn generate(m: usize, seed: u64) -> Self {
        let config = ChainConfig {
            processors: m + 1,
            ..ChainConfig::default()
        };
        let net = workloads::chain(&config, seed);
        Self {
            root: net.w(0),
            links: net.rates_z(),
            rates: (1..net.len()).map(|j| net.w(j)).collect(),
        }
    }

    /// The chain as a network (root first).
    pub fn network(&self) -> LinearNetwork {
        let mut w = vec![self.root];
        w.extend_from_slice(&self.rates);
        LinearNetwork::from_rates(&w, &self.links)
    }

    /// A `solve` request line for this chain.
    pub fn solve_line(&self, id: i64) -> String {
        solve_line(id, self.root, &self.links, &self.rates)
    }
}

/// One `ft_run` input: a chain, the scenario seed, and an optional crash
/// `(node, phase, progress)`.
#[derive(Debug, Clone, PartialEq)]
pub struct FtCase {
    /// The chain (true rates).
    pub chain: Chain,
    /// Scenario RNG seed.
    pub seed: u64,
    /// The one crash, if any.
    pub crash: Option<(usize, u8, f64)>,
}

impl FtCase {
    /// An `ft_run` request line.
    pub fn line(&self, id: i64) -> String {
        let c = &self.chain;
        ft_line(id, c.root, &c.rates, &c.links, self.seed, self.crash)
    }
}

/// The inputs one replayed request feeds to every timed library function.
#[derive(Debug, Clone)]
pub struct ReplayInput {
    /// Trace id shared by the request's spans (the request id + 1).
    pub trace: u64,
    /// The request line as sent.
    pub line: String,
    /// The chain behind it.
    pub chain: Chain,
    /// The fault-injected run behind it.
    pub ft: FtCase,
    /// A tree for the tree layers, with its agents' rates in preorder.
    pub tree: (TreeNode, Vec<f64>),
}

impl ReplayInput {
    /// The replay input of a chain request: its fault-free run and the
    /// chain itself as a (path) tree.
    pub fn of_chain(trace: u64, line: String, chain: Chain) -> Self {
        let tree = (TreeNode::from_chain(&chain.network()), chain.rates.clone());
        let ft = FtCase {
            chain: chain.clone(),
            seed: trace,
            crash: None,
        };
        Self {
            trace,
            line,
            chain,
            ft,
            tree,
        }
    }
}

/// A served workload's request stream and its oracle.
pub trait Stream: Sync {
    /// Request line `id`.
    fn line(&self, id: i64) -> String;
    /// The exact response line `dls-serve` owes request `id`.
    fn expected(&self, id: i64) -> Result<String, String>;
    /// Lines sent during set-up, before any timing (cache warm-up), with
    /// the responses they are owed. Their ids are negative.
    fn warm_lines(&self) -> Vec<(String, String)> {
        Vec::new()
    }
    /// The library-level inputs behind request `id`.
    fn replay(&self, id: i64) -> ReplayInput;
}

/// What the server computes for a solve line: parse, canonicalize, solve,
/// settle, serialize.
fn solve_response(line: &str, id: i64, cached: bool) -> Result<String, String> {
    match handlers::parse_request(line, QUANTUM).map(|r| r.kind) {
        Ok(RequestKind::Work(WorkRequest::Solve(chain))) => Ok(handlers::ok_response(
            Some(id),
            Some(cached),
            &handlers::solve_body(&chain),
        )),
        other => Err(format!("generated solve line does not parse: {other:?}")),
    }
}

/// `hot-direct`: solves over 64 chains of 6 strategic processors, each
/// solved once at set-up, so every timed request is a cache hit.
pub struct Hot {
    seed: u64,
    chains: Vec<Chain>,
    bodies: Vec<Result<String, String>>,
}

const HOT_CHAINS: usize = 64;

impl Hot {
    /// The chain set for `seed`, with the oracle bodies.
    pub fn new(seed: u64) -> Self {
        let chains: Vec<Chain> = (0..HOT_CHAINS as u64)
            .map(|k| Chain::generate(6, draw(seed, 1, k)))
            .collect();
        let bodies = chains
            .iter()
            .map(|c| solve_response(&c.solve_line(0), 0, true))
            .collect();
        Self {
            seed,
            chains,
            bodies,
        }
    }

    fn pick(&self, id: i64) -> usize {
        (draw(self.seed, 2, id as u64) % HOT_CHAINS as u64) as usize
    }
}

impl Stream for Hot {
    fn line(&self, id: i64) -> String {
        self.chains[self.pick(id)].solve_line(id)
    }

    fn expected(&self, id: i64) -> Result<String, String> {
        // The bodies were computed for id 0; only the envelope's id moves.
        let body = self.bodies[self.pick(id)].as_ref()?;
        Ok(body.replacen("{\"id\":0,", &format!("{{\"id\":{id},"), 1))
    }

    fn warm_lines(&self) -> Vec<(String, String)> {
        self.chains
            .iter()
            .enumerate()
            .map(|(k, c)| {
                let id = k as i64 - HOT_CHAINS as i64;
                let line = c.solve_line(id);
                let owed = solve_response(&line, id, false).unwrap_or_default();
                (line, owed)
            })
            .collect()
    }

    fn replay(&self, id: i64) -> ReplayInput {
        ReplayInput::of_chain(
            id as u64 + 1,
            self.line(id),
            self.chains[self.pick(id)].clone(),
        )
    }
}

/// `cold-routed`: every request a distinct chain of 4, 16 or 64
/// processors, so every request misses the cache.
pub struct Cold {
    seed: u64,
}

impl Cold {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    fn chain(&self, id: i64) -> Chain {
        let m = [4, 16, 64][(draw(self.seed, 3, id as u64) % 3) as usize];
        Chain::generate(m, draw(self.seed, 4, id as u64))
    }
}

impl Stream for Cold {
    fn line(&self, id: i64) -> String {
        self.chain(id).solve_line(id)
    }

    fn expected(&self, id: i64) -> Result<String, String> {
        solve_response(&self.line(id), id, false)
    }

    fn replay(&self, id: i64) -> ReplayInput {
        ReplayInput::of_chain(id as u64 + 1, self.line(id), self.chain(id))
    }
}

/// `ftrun-direct`: `ft_run` ops drawn from 240 seeded cases of 4, 8 or 16
/// processors, half with one crash. The server never caches `ft_run`, so
/// repeating cases costs it the same as new ones and keeps the oracle to
/// 240 protocol runs.
pub struct Ft {
    seed: u64,
    cases: Vec<FtCase>,
    bodies: Vec<Result<String, String>>,
}

/// A multiple of 3 sizes × (no crash, a crash in each of 4 phases), so
/// every seed has the same mix of sizes and crash phases: the seed moves
/// rates and crash points, not the cost profile.
const FT_CASES: usize = 240;

impl Ft {
    /// The case set for `seed`, with the oracle bodies.
    pub fn new(seed: u64) -> Self {
        let cases: Vec<FtCase> = (0..FT_CASES as u64)
            .map(|k| {
                let m = [4, 8, 16][(k % 3) as usize];
                let crash = ((k / 3) % 2 == 0).then(|| {
                    (
                        1 + (draw(seed, 6, k) % m as u64) as usize,
                        1 + ((k / 6) % 4) as u8,
                        uniform(draw(seed, 8, k), 0.1, 0.9),
                    )
                });
                FtCase {
                    chain: Chain::generate(m, draw(seed, 9, k)),
                    seed: draw(seed, 10, k),
                    crash,
                }
            })
            .collect();
        let bodies = cases.iter().map(ft_response).collect();
        Self {
            seed,
            cases,
            bodies,
        }
    }

    fn pick(&self, id: i64) -> usize {
        (draw(self.seed, 11, id as u64) % FT_CASES as u64) as usize
    }
}

/// What the server computes for an `ft_run` line, checked to conserve load.
fn ft_response(case: &FtCase) -> Result<String, String> {
    let line = case.line(0);
    let Ok(RequestKind::Work(WorkRequest::FtRun {
        root_rate,
        rates,
        links,
        seed,
        crash,
    })) = handlers::parse_request(&line, QUANTUM).map(|r| r.kind)
    else {
        return Err(format!("generated ft_run line does not parse: {line}"));
    };
    let body = handlers::ft_body(root_rate, &rates, &links, seed, crash)?;
    if !body.contains("\"load_conserved\":true") {
        return Err(format!("ft_run does not conserve load: {line}"));
    }
    Ok(handlers::ok_response(Some(0), None, &body))
}

impl Stream for Ft {
    fn line(&self, id: i64) -> String {
        self.cases[self.pick(id)].line(id)
    }

    fn expected(&self, id: i64) -> Result<String, String> {
        let body = self.bodies[self.pick(id)].as_ref()?;
        Ok(body.replacen("{\"id\":0,", &format!("{{\"id\":{id},"), 1))
    }

    fn replay(&self, id: i64) -> ReplayInput {
        let case = self.cases[self.pick(id)].clone();
        let mut input = ReplayInput::of_chain(id as u64 + 1, self.line(id), case.chain.clone());
        input.ft = case;
        input
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hot"), None);
    }

    #[test]
    fn inputs_depend_only_on_seed_and_id() {
        assert_eq!(Cold::new(3).line(17), Cold::new(3).line(17));
        assert_ne!(Cold::new(3).line(17), Cold::new(4).line(17));
        assert_ne!(Cold::new(3).line(17), Cold::new(3).line(18));
        assert_eq!(Hot::new(5).line(9), Hot::new(5).line(9));
        assert_eq!(draw(1, 2, 3), draw(1, 2, 3));
        let u = uniform(draw(1, 2, 3), 0.1, 0.9);
        assert!((0.1..0.9).contains(&u));
    }

    #[test]
    fn oracles_answer_every_generated_request() {
        let hot = Hot::new(1);
        for (line, owed) in hot.warm_lines() {
            assert!(owed.contains("\"cached\":false"), "{line}");
        }
        let want = hot.expected(12).unwrap();
        assert!(want.starts_with("{\"id\":12,\"status\":\"ok\",\"cached\":true,"));
        assert!(Cold::new(1)
            .expected(40)
            .unwrap()
            .contains("\"cached\":false"));
        let ft = Ft::new(1);
        for id in 0..16 {
            let owed = ft.expected(id).unwrap();
            assert!(owed.starts_with(&format!("{{\"id\":{id},\"status\":\"ok\",")));
            assert!(owed.contains("\"load_conserved\":true"));
        }
    }
}
