//! `settle-sweep`: E4-style strategyproofness sweeps through the mechanism
//! library in-process, with no JSON and no I/O. An agent's sweep is its
//! truthful settlement plus one settlement per bid factor of
//! `verify::default_factor_grid()`, every other agent truthful. The unit of
//! work is a quarter of a sweep (the truthful settlement and a quarter of
//! the grid), checked against Theorem 5.3 (no bid beats the truth) and
//! Theorem 5.4 (the truthful utility is non-negative) as it runs. One
//! request is a bundle of quarter sweeps of fixed composition.

use crate::oracle::{fnv1a, Answers};
use crate::pace::Schedule;
use crate::probe;
use crate::workload::{draw, uniform, Chain, FtCase, ReplayInput};
use dlt::model::{Processor, TreeNode};
use mechanism::{verify, Agent, Conduct, DlsLbl, TreeMechanism};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Chain sizes in the pool.
const CHAIN_SIZES: [usize; 4] = [4, 16, 64, 256];

/// Seeded chains of each size.
const CHAINS_PER_SIZE: usize = 3;

/// Quarter sweeps per request by class: m = 4, 16, 64, 256, then trees.
/// Each count is the class's time share over its sweep cost (50, 100, 254
/// and 930 µs per whole chain sweep, 242 µs per tree sweep, measured once
/// on a 2-vCPU x86-64 VM), so each chain size takes about 3/16 of a request
/// and the trees about 1/4. Every request then costs about the same, so
/// the latency percentiles do not jump between classes; the counts are
/// frozen so the mix stays put when a later change makes one class
/// cheaper. Quarters keep a request short (≈0.8 ms): a hypervisor pause
/// then lands in fewer requests, and `p90_ms` stays a property of the code.
const BUNDLE: [usize; 5] = [19, 9, 4, 1, 5];

/// Bid factors per quarter sweep: the 45-factor grid splits 12, 12, 12, 9.
const QUARTER: usize = 12;

/// The tree shapes come from this fixed grid; the run's seed redraws their
/// processors' rates, so a seed changes values but not shapes or costs.
const TREE_GRID_SEED: u64 = 0x7EE;

/// Utility tolerance of the theorem checks (the E4 tolerance).
const TOL: f64 = 1e-9;

/// The open loop probes the core in the gap before a request only when
/// the request is due at least this far off, so a probe never delays one.
const PROBE_ROOM: Duration = Duration::from_micros(300);

/// Requests per saturation chunk; the core is probed between chunks.
const CHUNK: usize = 8;

struct ChainCase {
    chain: Chain,
    mech: DlsLbl,
    agents: Vec<Agent>,
    truthful: Vec<Conduct>,
}

struct TreeCase {
    shape: TreeNode,
    rates: Vec<f64>,
    mech: TreeMechanism,
    agents: Vec<Agent>,
    truthful: Vec<Conduct>,
}

/// The sweep inputs of one seed.
pub struct Pool {
    chains: Vec<ChainCase>,
    trees: Vec<TreeCase>,
    grid: Vec<f64>,
}

/// One quarter sweep: `agent` (1-based) of a chain or tree case, over
/// quarter `part` of the factor grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sweep {
    /// Chain case index (size-major), agent and grid quarter.
    Chain(usize, usize, usize),
    /// Tree case index, agent and grid quarter.
    Tree(usize, usize, usize),
}

/// The result of a sweep or a bundle of sweeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    /// Hash of every utility's bits, in settlement order.
    pub hash: u64,
    /// Theorems 5.3 and 5.4 hold on every sweep.
    pub holds: bool,
    /// Profiles settled.
    pub profiles: usize,
}

fn truthful(agents: &[Agent]) -> Vec<Conduct> {
    agents.iter().map(|&a| Conduct::truthful(a)).collect()
}

fn verdict(truthful_utility: f64, utilities: impl Iterator<Item = f64>) -> Verdict {
    let mut bytes = truthful_utility.to_bits().to_le_bytes().to_vec();
    let mut holds = truthful_utility >= -TOL;
    let mut profiles = 1;
    for u in utilities {
        bytes.extend_from_slice(&u.to_bits().to_le_bytes());
        holds &= u <= truthful_utility + TOL;
        profiles += 1;
    }
    Verdict {
        hash: fnv1a(&bytes),
        holds,
        profiles,
    }
}

/// Fold sweep verdicts into a request verdict.
fn combine(parts: impl Iterator<Item = Verdict>) -> Verdict {
    let mut bytes = Vec::new();
    let mut out = Verdict {
        hash: 0,
        holds: true,
        profiles: 0,
    };
    for v in parts {
        bytes.extend_from_slice(&v.hash.to_le_bytes());
        out.holds &= v.holds;
        out.profiles += v.profiles;
    }
    out.hash = fnv1a(&bytes);
    out
}

/// `node` with every processor rate replaced by `rate()`, in preorder;
/// links, and so the canonical child order, are kept.
fn redraw(node: &TreeNode, rate: &mut impl FnMut() -> f64) -> TreeNode {
    TreeNode {
        processor: Processor::new(rate()),
        children: node
            .children
            .iter()
            .map(|(link, child)| (*link, redraw(child, rate)))
            .collect(),
    }
}

impl Pool {
    /// Build the chains, trees and mechanisms for `seed`.
    pub fn new(seed: u64) -> Self {
        let chains = CHAIN_SIZES
            .iter()
            .flat_map(|&m| (0..CHAINS_PER_SIZE).map(move |k| (m, k)))
            .map(|(m, k)| {
                let chain = Chain::generate(m, draw(seed, 30 + m as u64, k as u64));
                let agents: Vec<Agent> = chain.rates.iter().map(|&w| Agent::new(w)).collect();
                ChainCase {
                    mech: DlsLbl::new(chain.root, chain.links.clone()),
                    truthful: truthful(&agents),
                    agents,
                    chain,
                }
            })
            .collect();
        let mut k = 0;
        let trees = workloads::tree_shape_grid(TREE_GRID_SEED)
            .into_iter()
            .map(|case| {
                let shape = redraw(&case.shape, &mut || {
                    k += 1;
                    uniform(draw(seed, 31, k), 0.5, 4.0)
                });
                let rates = preorder_rates(&shape);
                let agents: Vec<Agent> = rates.iter().map(|&w| Agent::new(w)).collect();
                TreeCase {
                    mech: TreeMechanism::new(shape.clone()),
                    truthful: truthful(&agents),
                    agents,
                    shape,
                    rates,
                }
            })
            .collect();
        Self {
            chains,
            trees,
            grid: verify::default_factor_grid(),
        }
    }

    /// The sweeps of request `id` in the stream for `seed`.
    pub fn request(&self, seed: u64, id: u64) -> Vec<Sweep> {
        let mut sweeps = Vec::new();
        for (class, &count) in BUNDLE.iter().enumerate() {
            for k in 0..count as u64 {
                // Cases rotate so every bundle costs about the same; the
                // seed picks the agents.
                let slot = (id * count as u64 + k) as usize;
                let agent =
                    |n: usize| 1 + (draw(seed, 41 + class as u64, id * 64 + k) % n as u64) as usize;
                let part = slot % 4;
                sweeps.push(if class < CHAIN_SIZES.len() {
                    let case = class * CHAINS_PER_SIZE + slot % CHAINS_PER_SIZE;
                    Sweep::Chain(case, agent(CHAIN_SIZES[class]), part)
                } else {
                    let case = slot % self.trees.len();
                    Sweep::Tree(case, agent(self.trees[case].agents.len()), part)
                });
            }
        }
        sweeps
    }

    /// Run one request.
    pub fn run(&self, seed: u64, id: u64) -> Verdict {
        combine(self.request(seed, id).into_iter().map(|s| self.execute(s)))
    }

    /// Run one quarter sweep.
    pub fn execute(&self, sweep: Sweep) -> Verdict {
        let factors = |part: usize| {
            self.grid
                .chunks(QUARTER)
                .nth(part)
                .expect("the grid has four quarters")
        };
        match sweep {
            Sweep::Chain(case, j, part) => {
                let c = &self.chains[case];
                let sweep = verify::bid_sweep(&c.mech, &c.agents, j, &c.truthful, factors(part));
                verdict(
                    sweep.truthful_utility,
                    sweep.points.iter().map(|p| p.utility),
                )
            }
            Sweep::Tree(case, j, part) => {
                let t = &self.trees[case];
                let me = t.agents[j - 1];
                let utility_at = |bid: f64| {
                    let mut conducts = t.truthful.clone();
                    conducts[j - 1] = Conduct {
                        bid,
                        actual_rate: me.feasible_actual(bid.min(me.true_rate)),
                        actual_load: None,
                    };
                    t.mech.settle(&conducts).utility(j)
                };
                verdict(
                    utility_at(me.true_rate),
                    factors(part).iter().map(|f| utility_at(me.true_rate * f)),
                )
            }
        }
    }

    /// The library-level inputs behind request `id`: one of its chain
    /// sweeps' chains, cycling through the sizes, and its first tree.
    pub fn replay_input(&self, seed: u64, id: u64) -> ReplayInput {
        let sweeps = self.request(seed, id);
        let class = id as usize % CHAIN_SIZES.len();
        let first_of_class: usize = BUNDLE[..class].iter().sum();
        let chain = match sweeps[first_of_class] {
            Sweep::Chain(case, ..) => self.chains[case].chain.clone(),
            Sweep::Tree(..) => unreachable!("chain classes come first"),
        };
        let tree = sweeps
            .iter()
            .find_map(|s| match *s {
                Sweep::Tree(case, ..) => Some(&self.trees[case]),
                Sweep::Chain(..) => None,
            })
            .expect("every bundle sweeps a tree");
        let trace = id + 1;
        ReplayInput {
            trace,
            line: chain.solve_line(id as i64),
            ft: FtCase {
                chain: chain.clone(),
                seed: trace,
                crash: None,
            },
            chain,
            tree: (tree.shape.clone(), tree.rates.clone()),
        }
    }
}

/// Non-root processor rates of a tree, in preorder.
fn preorder_rates(node: &TreeNode) -> Vec<f64> {
    node.children
        .iter()
        .flat_map(|(_, child)| std::iter::once(child.processor.w).chain(preorder_rates(child)))
        .collect()
}

/// One phase of requests.
pub struct Phase {
    /// Verdict hashes by id.
    pub answers: Answers,
    /// Requests with a sweep that broke a theorem.
    pub violations: usize,
    /// Profiles settled.
    pub profiles: u64,
    /// Per request: due time to completion, µs (open loop only).
    pub latency_us: Vec<f64>,
    /// Per request: due time to start, µs (open loop only).
    pub wait_us: Vec<f64>,
    /// Per request: start to completion, µs (open loop only).
    pub service_us: Vec<f64>,
    /// Per request: the [`probe::scale`] of the probe taken just before it
    /// (open loop only).
    pub scale: Vec<f64>,
    /// Scheduled span over the span the starts took (open loop only).
    pub achieved_ratio: f64,
}

impl Phase {
    fn new(base: i64, n: usize) -> Self {
        Self {
            answers: Answers::new(base, n),
            violations: 0,
            profiles: 0,
            latency_us: vec![f64::NAN; n],
            wait_us: vec![f64::NAN; n],
            service_us: vec![f64::NAN; n],
            scale: vec![f64::NAN; n],
            achieved_ratio: f64::NAN,
        }
    }

    fn record(&mut self, i: usize, v: Verdict) {
        self.answers.record_hash(i, v.hash);
        self.violations += usize::from(!v.holds);
        self.profiles += v.profiles as u64;
    }

    /// Per request: latency scaled to the reference core, µs.
    pub fn scaled_latency_us(&self) -> Vec<f64> {
        self.latency_us
            .iter()
            .zip(&self.scale)
            .map(|(l, k)| l * k)
            .collect()
    }
}

/// Open loop in-process: one worker thread serves a constant-rate arrival
/// schedule in order, so a request that arrives while an earlier one runs
/// waits, and its latency counts from when it was due. The worker spins
/// until each due time rather than sleeping: a sleeping thread's vCPU goes
/// idle, and waking it costs the hypervisor's rescheduling delay, which
/// would time the host rather than the library. In the gap before each
/// request it probes the core's speed.
pub fn open_loop(pool: &Pool, seed: u64, base: i64, n: usize, rate: f64) -> Phase {
    let schedule = Schedule::new(Instant::now() + Duration::from_millis(2), rate, n);
    let mut phase = Phase::new(base, n);
    let mut last_start = schedule.due(0);
    let mut probed = probe::probe_us();
    for i in 0..n {
        let due = schedule.due(i);
        if Instant::now() + PROBE_ROOM < due {
            probed = probe::probe_us();
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        let start = Instant::now();
        let v = pool.run(seed, (base + i as i64) as u64);
        let end = Instant::now();
        phase.latency_us[i] = (end - due).as_secs_f64() * 1e6;
        phase.wait_us[i] = (start - due).as_secs_f64() * 1e6;
        phase.service_us[i] = (end - start).as_secs_f64() * 1e6;
        phase.scale[i] = probe::scale(probed);
        phase.record(i, v);
        last_start = start;
    }
    let planned = (schedule.due(n - 1) - schedule.due(0)).as_secs_f64();
    let taken = (last_start - schedule.due(0)).as_secs_f64();
    phase.achieved_ratio = if taken > 0.0 { planned / taken } else { 1.0 };
    phase
}

/// Closed loop: run `n` requests back to back on this thread, probing the
/// core between chunks of [`CHUNK`]. Returns the phase and its throughput
/// in requests per second, as measured and scaled to the reference core
/// (each chunk's time scaled by the mean of the probes around it).
pub fn saturate(pool: &Pool, seed: u64, base: i64, n: usize) -> (Phase, f64, f64) {
    let mut phase = Phase::new(base, n);
    let (mut busy, mut scaled) = (0.0, 0.0);
    let mut before = probe::probe_us();
    for first in (0..n).step_by(CHUNK) {
        let started = Instant::now();
        for i in first..n.min(first + CHUNK) {
            phase.record(i, pool.run(seed, (base + i as i64) as u64));
        }
        let took = started.elapsed().as_secs_f64();
        let after = probe::probe_us();
        busy += took;
        scaled += took * probe::scale((before + after) / 2.0);
        before = after;
    }
    (phase, n as f64 / busy, n as f64 / scaled)
}

/// Re-runs sweeps out of band, once per distinct sweep.
pub struct Oracle<'a> {
    pool: &'a Pool,
    seed: u64,
    memo: HashMap<Sweep, Verdict>,
}

impl<'a> Oracle<'a> {
    /// An oracle over `pool`'s stream for `seed`.
    pub fn new(pool: &'a Pool, seed: u64) -> Self {
        Self {
            pool,
            seed,
            memo: HashMap::new(),
        }
    }

    /// The verdict hash request `id` must produce.
    pub fn expected(&mut self, id: i64) -> u64 {
        let sweeps = self.pool.request(self.seed, id as u64);
        let verdicts: Vec<Verdict> = sweeps
            .into_iter()
            .map(|s| *self.memo.entry(s).or_insert_with(|| self.pool.execute(s)))
            .collect();
        combine(verdicts.into_iter()).hash
    }

    /// A digest of the first `n` requests' verdicts: pins the utilities'
    /// bits for one seed.
    pub fn digest(&mut self, n: i64) -> u64 {
        let bytes: Vec<u8> = (0..n)
            .flat_map(|id| self.expected(id).to_le_bytes())
            .collect();
        fnv1a(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundles_have_their_fixed_composition_and_satisfy_the_theorems() {
        let pool = Pool::new(1);
        for id in 0..8 {
            let sweeps = pool.request(1, id);
            assert_eq!(sweeps.len(), BUNDLE.iter().sum::<usize>());
            let mut seen = [0usize; 5];
            for s in &sweeps {
                match *s {
                    Sweep::Chain(case, j, _) => {
                        let class = case / CHAINS_PER_SIZE;
                        assert!((1..=CHAIN_SIZES[class]).contains(&j));
                        seen[class] += 1;
                    }
                    Sweep::Tree(case, j, _) => {
                        assert!(j >= 1 && j <= pool.trees[case].agents.len());
                        seen[4] += 1;
                    }
                }
            }
            assert_eq!(seen, BUNDLE);
            let v = pool.run(1, id);
            assert!(v.holds, "request {id} breaks a theorem");
            // Three quarters of 12 bids and one of 9, each with the truth.
            let quarters = [13, 13, 13, 10];
            assert!(v.profiles >= sweeps.len() * 10 && v.profiles <= sweeps.len() * 13);
            assert_eq!(
                quarters.iter().sum::<usize>(),
                1 + verify::default_factor_grid().len() + 3
            );
        }
        assert_ne!(pool.request(1, 0), pool.request(1, 1));
    }

    #[test]
    fn redrawn_trees_keep_their_shape() {
        let grid = workloads::tree_shape_grid(TREE_GRID_SEED);
        let a = Pool::new(1);
        let b = Pool::new(2);
        for ((case, ta), tb) in grid.iter().zip(&a.trees).zip(&b.trees) {
            assert_eq!(ta.shape.size(), case.shape.size());
            assert_eq!(ta.rates.len(), ta.shape.size() - 1);
            assert_ne!(ta.rates, tb.rates, "the seed redraws rates");
        }
    }

    #[test]
    fn a_profitable_lie_breaks_the_verdict() {
        let honest = verdict(0.5, [0.1, 0.5, 0.2].into_iter());
        assert!(honest.holds);
        assert!(!verdict(0.5, [0.1, 0.6].into_iter()).holds, "Theorem 5.3");
        assert!(!verdict(-0.1, [-0.2].into_iter()).holds, "Theorem 5.4");
        assert_ne!(honest.hash, verdict(0.5, [0.1, 0.5, 0.3].into_iter()).hash);
    }

    #[test]
    fn in_process_phases_agree_with_the_oracle() {
        let pool = Pool::new(2);
        let open = open_loop(&pool, 2, 0, 40, 20_000.0);
        let (sat, rate, scaled) = saturate(&pool, 2, 40, 40);
        assert!(rate > 0.0 && scaled > 0.0);
        assert!(open.scale.iter().all(|k| k.is_finite() && *k > 0.0));
        let mut oracle = Oracle::new(&pool, 2);
        assert_eq!(open.answers.failures(|id| oracle.expected(id)), 0);
        assert_eq!(sat.answers.failures(|id| oracle.expected(id)), 0);
        assert_eq!(open.violations + sat.violations, 0);
        assert!(open.latency_us.iter().all(|x| x.is_finite() && *x >= 0.0));
    }
}
