//! E9 — solver scaling benchmarks: Algorithm 1 (O(m)) vs the bisection
//! oracle (O(m log 1/ε)) vs the exact-rational solver, the batch core
//! (`solve_many` vs a scalar loop, `solve_all_suffixes` vs the per-suffix
//! loop), plus the companion star/tree/interior solvers, across chain
//! lengths.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dlt::baseline::{solve_bisection, BisectionParams};
use dlt::exact::ExactChain;
use dlt::interior::InteriorNetwork;
use dlt::model::{StarNetwork, TreeNode};
use dlt::{exact, interior, linear, star, tree};
use std::hint::black_box;
use workloads::ChainConfig;

fn chains(c: &mut Criterion) {
    let mut group = c.benchmark_group("linear_solver");
    for &n in &[4usize, 16, 64, 256, 1024] {
        let cfg = ChainConfig {
            processors: n,
            ..Default::default()
        };
        let net = workloads::chain(&cfg, 42);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("algorithm1", n), &net, |b, net| {
            b.iter(|| black_box(linear::solve(net)))
        });
        group.bench_with_input(BenchmarkId::new("bisection", n), &net, |b, net| {
            b.iter(|| black_box(solve_bisection(net, BisectionParams::default())))
        });
        group.bench_with_input(BenchmarkId::new("equivalent_only", n), &net, |b, net| {
            b.iter(|| black_box(linear::equivalent_time(net)))
        });
    }
    group.finish();
}

fn exact_solver(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact_solver");
    for &n in &[4usize, 8, 16] {
        let w: Vec<i64> = (0..n as i64).map(|i| 10 + (i * 7) % 13).collect();
        let z: Vec<i64> = (1..n as i64).map(|i| 1 + (i * 3) % 5).collect();
        let chain = ExactChain::from_scaled_ints(&w, &z, 10);
        group.bench_with_input(BenchmarkId::new("rational", n), &chain, |b, chain| {
            b.iter(|| black_box(exact::chain::solve(chain)))
        });
    }
    group.finish();
}

fn batch_core(c: &mut Criterion) {
    use dlt::batch::{self, BatchScratch, BatchSolution};
    let mut group = c.benchmark_group("batch_solver");
    let cfg = ChainConfig {
        processors: 16,
        ..Default::default()
    };
    for &k in &[32usize, 1024, 32_768] {
        let nets = workloads::chain_population(&cfg, 0..k as u64);
        group.throughput(Throughput::Elements(k as u64));
        group.bench_with_input(BenchmarkId::new("scalar_loop", k), &nets, |b, nets| {
            b.iter(|| {
                for net in nets {
                    black_box(linear::solve(net));
                }
            })
        });
        let mut scratch = BatchScratch::new();
        let mut out = BatchSolution::new();
        group.bench_with_input(BenchmarkId::new("solve_many", k), &nets, |b, nets| {
            b.iter(|| {
                batch::solve_many_into(nets, &mut scratch, &mut out);
                black_box(&out);
            })
        });
    }
    for &m in &[16usize, 256] {
        let cfg = ChainConfig {
            processors: m,
            ..Default::default()
        };
        let net = workloads::chain(&cfg, 42);
        group.bench_with_input(BenchmarkId::new("suffix_loop", m), &net, |b, net| {
            b.iter(|| {
                for i in 0..net.len() {
                    black_box(linear::solve(&net.suffix(i)));
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("suffix_sweep", m), &net, |b, net| {
            b.iter(|| black_box(batch::solve_all_suffixes(net)))
        });
    }
    group.finish();
}

fn companions(c: &mut Criterion) {
    let mut group = c.benchmark_group("companion_solvers");
    for &n in &[16usize, 256] {
        let cfg = ChainConfig {
            processors: n,
            ..Default::default()
        };
        let net = workloads::chain(&cfg, 42);
        let star_net = StarNetwork::from_rates(&net.rates_w(), &net.rates_z());
        group.bench_with_input(BenchmarkId::new("star", n), &star_net, |b, s| {
            b.iter(|| black_box(star::solve(s)))
        });
        let tree_net = TreeNode::from_chain(&net);
        group.bench_with_input(BenchmarkId::new("tree_chain", n), &tree_net, |b, t| {
            b.iter(|| black_box(tree::solve(t)))
        });
        let interior_net = InteriorNetwork::new(net.clone(), n / 2);
        group.bench_with_input(BenchmarkId::new("interior", n), &interior_net, |b, i| {
            b.iter(|| black_box(interior::solve(i)))
        });
    }
    group.finish();
}

criterion_group!(benches, chains, batch_core, exact_solver, companions);
criterion_main!(benches);
