//! Request-mix generators for the serving layer (`dls-serve`).
//!
//! Produces deterministic streams of NDJSON request lines in the `svc`
//! wire format over a pool of distinct chains. The pool size controls the
//! solver-cache hit rate a run converges to (`1 − distinct/total` for the
//! solve stream).

use crate::generators::{chain, ChainConfig};
use dlt::model::LinearNetwork;
use minijson::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of one request stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestMixConfig {
    /// Total request lines to generate.
    pub total: usize,
    /// Distinct chains to rotate through (small → cache-hot stream).
    pub distinct_chains: usize,
    /// Processors per chain (root + `m − 1` strategic when `m ≥ 2`).
    pub processors: usize,
    /// RNG seed (chain pool and op interleaving).
    pub seed: u64,
}

impl Default for RequestMixConfig {
    fn default() -> Self {
        Self {
            total: 10_000,
            distinct_chains: 64,
            processors: 6,
            seed: 0xE23,
        }
    }
}

fn numbers(xs: impl IntoIterator<Item = f64>) -> Value {
    Value::Array(xs.into_iter().map(Value::Number).collect())
}

/// A `solve` request line for the bid chain `(w_0, z, b)`.
pub fn solve_line(id: i64, root_rate: f64, links: &[f64], bids: &[f64]) -> String {
    Value::Object(vec![
        ("op".into(), Value::String("solve".into())),
        ("id".into(), Value::Number(id as f64)),
        ("root_rate".into(), Value::Number(root_rate)),
        ("links".into(), numbers(links.iter().copied())),
        ("bids".into(), numbers(bids.iter().copied())),
    ])
    .to_json()
}

/// An `ft_run` request line with an optional single crash.
pub fn ft_line(
    id: i64,
    root_rate: f64,
    rates: &[f64],
    links: &[f64],
    seed: u64,
    crash: Option<(usize, u8, f64)>,
) -> String {
    let mut fields = vec![
        ("op".into(), Value::String("ft_run".into())),
        ("id".into(), Value::Number(id as f64)),
        ("root_rate".into(), Value::Number(root_rate)),
        ("rates".into(), numbers(rates.iter().copied())),
        ("links".into(), numbers(links.iter().copied())),
        ("seed".into(), Value::Number(seed as f64)),
    ];
    if let Some((node, phase, progress)) = crash {
        fields.push((
            "crash".into(),
            Value::Object(vec![
                ("node".into(), Value::Number(node as f64)),
                ("phase".into(), Value::Number(phase as f64)),
                ("progress".into(), Value::Number(progress)),
            ]),
        ));
    }
    Value::Object(fields).to_json()
}

/// The chain pool a [`RequestMixConfig`] draws from (deterministic in the
/// seed). Exposed so a harness can replay cold solves out-of-band.
pub fn chain_pool(cfg: &RequestMixConfig) -> Vec<LinearNetwork> {
    let gen = ChainConfig {
        processors: cfg.processors.max(2),
        ..ChainConfig::default()
    };
    (0..cfg.distinct_chains.max(1))
        .map(|i| chain(&gen, cfg.seed.wrapping_add(i as u64)))
        .collect()
}

/// A solve-only stream that also reports which pool chain each line was
/// drawn from, as `(line, pool_index)` with ids `0 .. total`. The chaos
/// harness (E25) needs the index to check every response against an
/// out-of-band fresh solve of the same chain — the bit-identity oracle.
pub fn solve_lines_indexed(cfg: &RequestMixConfig) -> Vec<(String, usize)> {
    let pool = chain_pool(cfg);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xA5A5_5A5A_C0FF_EE25);
    (0..cfg.total)
        .map(|i| {
            let idx = rng.gen_range(0..pool.len());
            let net = &pool[idx];
            let bids: Vec<f64> = (1..net.len()).map(|j| net.w(j)).collect();
            (solve_line(i as i64, net.w(0), &net.rates_z(), &bids), idx)
        })
        .collect()
}

/// Configuration of one multi-job stream (`submit_job` ops for E28 and
/// the jobs CI lane). Independent of [`RequestMixConfig`] because job
/// streams sweep loads and round hints, not op blends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobMixConfig {
    /// Total `submit_job` lines to generate.
    pub total: usize,
    /// Distinct chains to rotate through (each chain gets its own queue).
    pub distinct_chains: usize,
    /// Processors per chain (root + `m − 1` strategic when `m ≥ 2`).
    pub processors: usize,
    /// Inclusive load range each job draws from uniformly.
    pub load_range: (f64, f64),
    /// Fraction of jobs carrying an explicit `rounds` hint (1..=8);
    /// the rest let the server pick `best_rounds`.
    pub pinned_rounds_fraction: f64,
    /// Per-installment communication startup cost forwarded on each line.
    pub comm_startup: f64,
    /// RNG seed (chain pool, loads, round hints).
    pub seed: u64,
}

impl Default for JobMixConfig {
    fn default() -> Self {
        Self {
            total: 256,
            distinct_chains: 8,
            processors: 6,
            load_range: (0.5, 4.0),
            pinned_rounds_fraction: 0.25,
            comm_startup: 0.0,
            seed: 0xE28,
        }
    }
}

/// A `submit_job` request line. `rounds = None` lets the server pick the
/// installment count via `best_rounds`.
pub fn job_line(
    id: i64,
    root_rate: f64,
    links: &[f64],
    bids: &[f64],
    load: f64,
    rounds: Option<usize>,
    comm_startup: f64,
) -> String {
    let mut fields = vec![
        ("op".into(), Value::String("submit_job".into())),
        ("id".into(), Value::Number(id as f64)),
        ("root_rate".into(), Value::Number(root_rate)),
        ("links".into(), numbers(links.iter().copied())),
        ("bids".into(), numbers(bids.iter().copied())),
        ("load".into(), Value::Number(load)),
    ];
    if let Some(k) = rounds {
        fields.push(("rounds".into(), Value::Number(k as f64)));
    }
    if comm_startup > 0.0 {
        fields.push(("comm_startup".into(), Value::Number(comm_startup)));
    }
    Value::Object(fields).to_json()
}

/// A `job_status` request line for `job_id` on the given chain (the chain
/// routes the request to the shard owning the job's queue).
pub fn job_status_line(
    id: i64,
    root_rate: f64,
    links: &[f64],
    bids: &[f64],
    job_id: u64,
) -> String {
    Value::Object(vec![
        ("op".into(), Value::String("job_status".into())),
        ("id".into(), Value::Number(id as f64)),
        ("root_rate".into(), Value::Number(root_rate)),
        ("links".into(), numbers(links.iter().copied())),
        ("bids".into(), numbers(bids.iter().copied())),
        ("job_id".into(), Value::Number(job_id as f64)),
    ])
    .to_json()
}

/// The chain pool a [`JobMixConfig`] draws from (deterministic in the
/// seed). Same construction as [`chain_pool`] so job streams and solve
/// streams over matching configs hit the same chains.
pub fn job_chain_pool(cfg: &JobMixConfig) -> Vec<LinearNetwork> {
    chain_pool(&RequestMixConfig {
        total: cfg.total,
        distinct_chains: cfg.distinct_chains,
        processors: cfg.processors,
        seed: cfg.seed,
    })
}

/// A `submit_job` stream that reports which pool chain each line was
/// drawn from, as `(line, pool_index)` with ids `0 .. total` — the same
/// oracle-index shape as [`solve_lines_indexed`], so a harness can check
/// each job report against an out-of-band composition of the same chain.
pub fn job_lines_indexed(cfg: &JobMixConfig) -> Vec<(String, usize)> {
    let pool = job_chain_pool(cfg);
    let (lo, hi) = cfg.load_range;
    let (lo, hi) = (lo.min(hi).max(1e-6), hi.max(lo).max(1e-6));
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xA5A5_5A5A_C0FF_EE28);
    (0..cfg.total)
        .map(|i| {
            let idx = rng.gen_range(0..pool.len());
            let net = &pool[idx];
            let bids: Vec<f64> = (1..net.len()).map(|j| net.w(j)).collect();
            let load = if hi > lo { rng.gen_range(lo..=hi) } else { lo };
            let rounds = (rng.gen_range(0.0..1.0) < cfg.pinned_rounds_fraction)
                .then(|| rng.gen_range(1..=8usize));
            (
                job_line(
                    i as i64,
                    net.w(0),
                    &net.rates_z(),
                    &bids,
                    load,
                    rounds,
                    cfg.comm_startup,
                ),
                idx,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexed_solve_lines_point_back_into_the_pool() {
        let cfg = RequestMixConfig {
            total: 100,
            distinct_chains: 5,
            ..RequestMixConfig::default()
        };
        let pool = chain_pool(&cfg);
        let a = solve_lines_indexed(&cfg);
        assert_eq!(a, solve_lines_indexed(&cfg), "must be deterministic");
        assert_eq!(a.len(), 100);
        for (i, (line, idx)) in a.iter().enumerate() {
            assert!(*idx < pool.len());
            let v = Value::parse(line).unwrap();
            assert_eq!(v.get("op").unwrap().as_str(), Some("solve"));
            assert_eq!(v.get("id").unwrap().as_i64(), Some(i as i64));
            // The line really encodes the chain its index claims.
            let net = &pool[*idx];
            let bids = v.get("bids").unwrap().as_array().unwrap();
            assert_eq!(bids.len(), net.len() - 1);
            assert_eq!(bids[0].as_f64(), Some(net.w(1)));
        }
    }

    #[test]
    fn job_streams_are_deterministic_and_well_formed() {
        let cfg = JobMixConfig {
            total: 120,
            distinct_chains: 5,
            pinned_rounds_fraction: 0.5,
            comm_startup: 0.01,
            ..JobMixConfig::default()
        };
        let pool = job_chain_pool(&cfg);
        let a = job_lines_indexed(&cfg);
        assert_eq!(a, job_lines_indexed(&cfg), "must be deterministic");
        assert_eq!(a.len(), 120);
        let mut pinned = 0usize;
        for (i, (line, idx)) in a.iter().enumerate() {
            assert!(*idx < pool.len());
            let v = Value::parse(line).unwrap();
            assert_eq!(v.get("op").unwrap().as_str(), Some("submit_job"));
            assert_eq!(v.get("id").unwrap().as_i64(), Some(i as i64));
            let load = v.get("load").unwrap().as_f64().unwrap();
            assert!((0.5..=4.0).contains(&load), "load out of range: {load}");
            if let Some(k) = v.get("rounds") {
                pinned += 1;
                let k = k.as_u64().unwrap();
                assert!((1..=8).contains(&k), "rounds hint out of range: {k}");
            }
            assert_eq!(v.get("comm_startup").unwrap().as_f64(), Some(0.01));
            // The line really encodes the chain its index claims.
            let net = &pool[*idx];
            let bids = v.get("bids").unwrap().as_array().unwrap();
            assert_eq!(bids.len(), net.len() - 1);
            assert_eq!(bids[0].as_f64(), Some(net.w(1)));
        }
        assert!(
            pinned > 20 && pinned < 100,
            "pinned-rounds share off: {pinned}/120"
        );
    }

    #[test]
    fn job_status_line_carries_chain_and_job_id() {
        let line = job_status_line(3, 1.0, &[0.2, 0.1], &[2.0, 0.5], 17);
        let v = Value::parse(&line).unwrap();
        assert_eq!(v.get("op").unwrap().as_str(), Some("job_status"));
        assert_eq!(v.get("job_id").unwrap().as_u64(), Some(17));
        assert_eq!(v.get("bids").unwrap().as_array().unwrap().len(), 2);
    }
}
