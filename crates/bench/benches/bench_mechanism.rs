//! Mechanism-layer benchmarks: settlement cost per round, per-agent
//! payment computation, one agent's bid sweep (whole-profile settlement
//! against one `DlsLbl::deviation`), the full strategyproofness sweep used
//! by E4, and tree settlement on the shape grid of the `settle-sweep`
//! benchmark workload.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mechanism::payment::{self, PaymentInputs};
use mechanism::verify::{bid_sweep, default_factor_grid, strategyproofness_report};
use mechanism::{Agent, Conduct, DlsLbl, TreeMechanism};
use std::hint::black_box;
use workloads::ChainConfig;

fn setup(n: usize) -> (DlsLbl, Vec<Agent>) {
    let cfg = ChainConfig {
        processors: n + 1,
        ..Default::default()
    };
    let net = workloads::chain(&cfg, 42);
    let parts = workloads::mechanism_parts(&net);
    let mech = DlsLbl::new(parts.root_rate, parts.link_rates);
    let agents = parts.true_rates.into_iter().map(Agent::new).collect();
    (mech, agents)
}

fn settle(c: &mut Criterion) {
    let mut group = c.benchmark_group("settle_round");
    for &m in &[4usize, 16, 64, 256] {
        let (mech, agents) = setup(m);
        let conducts: Vec<Conduct> = agents.iter().map(|&a| Conduct::truthful(a)).collect();
        group.throughput(Throughput::Elements(m as u64));
        group.bench_with_input(BenchmarkId::from_parameter(m), &conducts, |b, conducts| {
            b.iter(|| black_box(mech.settle(conducts, false)))
        });
    }
    group.finish();
}

fn single_payment(c: &mut Criterion) {
    let (mech, agents) = setup(16);
    let (net, sol) = mech.allocate(&agents.iter().map(|a| a.true_rate).collect::<Vec<_>>());
    let j = 8;
    let inputs = PaymentInputs {
        assigned_load: sol.alloc.alpha(j),
        actual_load: sol.alloc.alpha(j),
        actual_rate: net.w(j),
    };
    c.bench_function("payment_single_agent", |b| {
        b.iter(|| black_box(payment::settle(&net, j, inputs, 0.0)))
    });
}

fn sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("strategyproof_sweep");
    group.sample_size(10);
    let grid = default_factor_grid();
    for &m in &[4usize, 16] {
        let (mech, agents) = setup(m);
        group.bench_with_input(BenchmarkId::from_parameter(m), &agents, |b, agents| {
            b.iter(|| black_box(strategyproofness_report(&mech, agents, &grid)))
        });
    }
    group.finish();
}

/// One agent's sweep over the 45-bid factor grid, the others truthful:
/// settling every profile whole (`settle/m`) against one deviation
/// settler that solves the others' suffix once (`deviation/m`), and the
/// whole `verify::bid_sweep` call the `settle-sweep` workload makes
/// (`bid_sweep/m`: the truthful bid, then every factor). The agent is the
/// middle one, so the deviation's O(j) walk has average length.
fn one_agent_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("one_agent_sweep");
    let grid = default_factor_grid();
    for &m in &[4usize, 16, 64, 256] {
        let (mech, agents) = setup(m);
        let truthful: Vec<Conduct> = agents.iter().map(|&a| Conduct::truthful(a)).collect();
        let j = m / 2;
        let bid = |f: f64| Conduct::misreport(agents[j - 1], f);
        group.throughput(Throughput::Elements(grid.len() as u64));
        group.bench_with_input(BenchmarkId::new("settle", m), &truthful, |b, others| {
            b.iter(|| {
                grid.iter()
                    .map(|&f| {
                        let mut profile = others.to_vec();
                        profile[j - 1] = bid(f);
                        mech.settle(&profile, false).utility(j)
                    })
                    .sum::<f64>()
            })
        });
        group.bench_with_input(BenchmarkId::new("deviation", m), &truthful, |b, others| {
            b.iter(|| {
                let mut deviation = mech.deviation(others, j);
                grid.iter()
                    .map(|&f| deviation.settle(bid(f), false).breakdown.utility)
                    .sum::<f64>()
            })
        });
        group.bench_with_input(BenchmarkId::new("bid_sweep", m), &truthful, |b, others| {
            b.iter(|| black_box(bid_sweep(&mech, &agents, j, others, &grid)))
        });
    }
    group.finish();
}

/// `TreeMechanism::settle` of the truthful profile on each shape of the
/// grid the `settle-sweep` workload draws its trees from.
fn tree_settle(c: &mut Criterion) {
    let mut group = c.benchmark_group("tree_settle");
    for case in workloads::tree_shape_grid(0x7EE) {
        let mech = TreeMechanism::new(case.shape);
        let conducts: Vec<Conduct> = case
            .true_rates
            .iter()
            .map(|&w| Conduct::truthful(Agent::new(w)))
            .collect();
        group.bench_with_input(
            BenchmarkId::from_parameter(&case.label),
            &conducts,
            |b, c| b.iter(|| black_box(mech.settle(c))),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    settle,
    single_payment,
    one_agent_sweep,
    sweep,
    tree_settle
);
criterion_main!(benches);
