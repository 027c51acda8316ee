//! Ablation benchmarks for the design choices called out in DESIGN.md §5:
//!
//! * f64 reduction solver vs exact-rational solver (speed cost of
//!   exactness);
//! * far-end-first reduction (Algorithm 1) vs bisection fixed-point
//!   baseline (algorithmic choice);
//! * DES execution vs closed-form schedule evaluation (simulation cost).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dlt::baseline::{solve_bisection, BisectionParams};
use dlt::exact::ExactChain;
use dlt::timing::ChainSchedule;
use dlt::{exact, linear};
use std::hint::black_box;
use workloads::ChainConfig;

fn arithmetic(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_arithmetic");
    let n = 12usize;
    let w: Vec<i64> = (0..n as i64).map(|i| 10 + (i * 7) % 13).collect();
    let z: Vec<i64> = (1..n as i64).map(|i| 1 + (i * 3) % 5).collect();
    let chain = ExactChain::from_scaled_ints(&w, &z, 10);
    let f64net = chain.to_f64_network();
    group.bench_function("f64", |b| b.iter(|| black_box(linear::solve(&f64net))));
    group.bench_function("exact_rational", |b| {
        b.iter(|| black_box(exact::chain::solve(&chain)))
    });
    group.finish();
}

fn algorithm(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_algorithm");
    for &n in &[16usize, 256] {
        let cfg = ChainConfig {
            processors: n,
            ..Default::default()
        };
        let net = workloads::chain(&cfg, 42);
        group.bench_with_input(BenchmarkId::new("reduction", n), &net, |b, net| {
            b.iter(|| black_box(linear::solve(net)))
        });
        group.bench_with_input(BenchmarkId::new("bisection", n), &net, |b, net| {
            b.iter(|| black_box(solve_bisection(net, BisectionParams::default())))
        });
    }
    group.finish();
}

fn execution_model(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_execution");
    for &n in &[16usize, 256] {
        let cfg = ChainConfig {
            processors: n,
            ..Default::default()
        };
        let net = workloads::chain(&cfg, 42);
        let sol = linear::solve(&net);
        group.bench_with_input(BenchmarkId::new("des", n), &net, |b, net| {
            b.iter(|| black_box(sim::simulate_honest(net, &sol.local)))
        });
        group.bench_with_input(BenchmarkId::new("closed_form", n), &net, |b, net| {
            b.iter(|| black_box(ChainSchedule::analytic(net, &sol.alloc)))
        });
    }
    group.finish();
}

fn des_granularity(c: &mut Criterion) {
    // DESIGN.md §5: per-block (Λ-granular) events vs aggregate transfers.
    let mut group = c.benchmark_group("ablation_des_granularity");
    group.sample_size(20);
    let net = workloads::chain(
        &ChainConfig {
            processors: 8,
            ..Default::default()
        },
        42,
    );
    let sol = linear::solve(&net);
    let rates = net.rates_w();
    group.bench_function("aggregate", |b| {
        b.iter(|| black_box(sim::simulate_honest(&net, &sol.local)))
    });
    for &blocks in &[100usize, 1_000, 10_000] {
        group.bench_with_input(
            criterion::BenchmarkId::new("per_block", blocks),
            &blocks,
            |b, &blocks| {
                b.iter(|| black_box(sim::simulate_blocks(&net, &sol.local, &rates, blocks)))
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    arithmetic,
    algorithm,
    execution_model,
    des_granularity
);
criterion_main!(benches);
