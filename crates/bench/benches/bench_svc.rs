//! Served-path benchmarks: the JSON number writer, the `svc::handlers`
//! stages a `solve` request passes through (parse, solve + serialize, the
//! `ok` envelope), on seeded uniform-random chains, and the solver cache's
//! hit and full-cache miss at the server's geometry.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use minijson::Value;
use std::hint::black_box;
use svc::handlers::{self, RequestKind, WorkRequest};
use svc::{CanonicalChain, ChainKey, SolverCache};
use workloads::ChainConfig;

const QUANTUM: f64 = svc::DEFAULT_QUANTUM;

/// A seeded `solve` line with `m` strategic processors.
fn solve_line(m: usize) -> String {
    let cfg = ChainConfig {
        processors: m + 1,
        ..Default::default()
    };
    let net = workloads::chain(&cfg, 42);
    let bids: Vec<f64> = (1..net.len()).map(|j| net.w(j)).collect();
    workloads::solve_line(7, net.w(0), &net.rates_z(), &bids)
}

fn chain(m: usize) -> CanonicalChain {
    match handlers::parse_request(&solve_line(m), QUANTUM).map(|r| r.kind) {
        Ok(RequestKind::Work(WorkRequest::Solve(chain))) => chain,
        other => panic!("not a solve: {other:?}"),
    }
}

/// Every number of a solve body, in written order.
fn body_numbers(body: &str) -> Vec<f64> {
    fn walk(v: &Value, out: &mut Vec<f64>) {
        match v {
            Value::Number(x) => out.push(*x),
            Value::Array(items) => items.iter().for_each(|x| walk(x, out)),
            Value::Object(members) => members.iter().for_each(|(_, x)| walk(x, out)),
            _ => {}
        }
    }
    let mut out = Vec::new();
    walk(&Value::parse(body).expect("body is JSON"), &mut out);
    out
}

/// The 3m + 4 numbers of one m = 64 solve body, written as one array.
fn json(c: &mut Criterion) {
    let numbers = body_numbers(&handlers::solve_body(&chain(64)));
    assert_eq!(numbers.len(), 196);
    let array = Value::Array(numbers.into_iter().map(Value::Number).collect());
    let mut group = c.benchmark_group("json");
    group.throughput(Throughput::Elements(196));
    group.bench_function("write_numbers", |b| b.iter(|| black_box(array.to_json())));
    group.finish();
}

fn svc_stages(c: &mut Criterion) {
    let mut group = c.benchmark_group("svc");
    for &m in &[4usize, 16, 64] {
        let chain = chain(m);
        group.bench_with_input(BenchmarkId::new("solve_body", m), &chain, |b, chain| {
            b.iter(|| black_box(handlers::solve_body(chain)))
        });
        let line = solve_line(m);
        group.bench_with_input(BenchmarkId::new("parse_request", m), &line, |b, line| {
            b.iter(|| black_box(handlers::parse_request(line, QUANTUM)))
        });
    }
    let body = handlers::solve_body(&chain(64));
    group.bench_with_input(BenchmarkId::new("ok_response", 64), &body, |b, body| {
        b.iter(|| black_box(handlers::ok_response(Some(7), Some(true), body)))
    });
    group.finish();
}

/// `dls-serve`'s cache geometry: 16 shards of 512 entries.
const CACHE_SHARDS: usize = 16;
const CACHE_PER_SHARD: usize = 512;

/// `n` distinct keys of `m`-processor chains, ticks drawn by splitmix64.
fn fresh_keys(m: usize, n: usize) -> Vec<ChainKey> {
    let mut state = m as u64;
    let mut tick = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 34) as i64 + 1
    };
    (0..n)
        .map(|_| ChainKey {
            m,
            ticks: (0..2 * m + 1).map(|_| tick()).collect(),
        })
        .collect()
}

/// A lookup of a resident key, and a miss into a full cache, which evicts
/// the least recently used entry of its shard. The miss cycles through
/// twice the cache's capacity of keys, so every shard sees more keys than
/// it holds and LRU order never lets one hit.
fn cache(c: &mut Criterion) {
    let capacity = CACHE_SHARDS * CACHE_PER_SHARD;
    let mut group = c.benchmark_group("svc");
    for &m in &[4usize, 16, 64] {
        let keys = fresh_keys(m, 2 * capacity);
        // A quarter of the capacity stays resident: no shard fills up.
        let resident = &keys[..capacity / 4];
        let hits = SolverCache::new(CACHE_SHARDS, CACHE_PER_SHARD);
        for key in resident {
            hits.get_or_insert(key, String::new);
        }
        assert!(resident
            .iter()
            .all(|k| hits.get_or_insert(k, String::new).1));
        let mut next = 0;
        group.bench_function(BenchmarkId::new("cache/hit", m), |b| {
            b.iter(|| {
                next = (next + 1) % resident.len();
                black_box(hits.get_or_insert(&resident[next], String::new))
            })
        });
        let misses = SolverCache::new(CACHE_SHARDS, CACHE_PER_SHARD);
        for key in &keys {
            misses.get_or_insert(key, String::new);
        }
        assert_eq!(misses.len(), capacity);
        let mut next = 0;
        group.bench_function(BenchmarkId::new("cache/miss_full", m), |b| {
            b.iter(|| {
                next = (next + 1) % keys.len();
                black_box(misses.get_or_insert(&keys[next], String::new))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, json, svc_stages, cache);
criterion_main!(benches);
