//! Served-path benchmarks: the JSON number writer and the `svc::handlers`
//! stages a `solve` request passes through (parse, solve + serialize, the
//! `ok` envelope), on seeded uniform-random chains.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use minijson::Value;
use std::hint::black_box;
use svc::handlers::{self, RequestKind, WorkRequest};
use svc::CanonicalChain;
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

criterion_group!(benches, json, svc_stages);
criterion_main!(benches);
