//! Protocol-layer benchmarks: full four-phase runs (honest and deviant),
//! the Λ block mint, the DES event engine's raw throughput, and the
//! signature substrate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use protocol::{BlockMint, Deviation, LoadTag, Registry, Scenario};
use sim::{Engine, SimTime};
use std::hint::black_box;
use workloads::ChainConfig;

fn scenario(m: usize) -> Scenario {
    let cfg = ChainConfig {
        processors: m + 1,
        ..Default::default()
    };
    let net = workloads::chain(&cfg, 42);
    let parts = workloads::mechanism_parts(&net);
    Scenario::honest(parts.root_rate, parts.true_rates, parts.link_rates)
}

fn full_run(c: &mut Criterion) {
    let mut group = c.benchmark_group("protocol_run");
    group.sample_size(20);
    for &m in &[4usize, 16, 64] {
        let honest = scenario(m);
        group.throughput(Throughput::Elements(m as u64));
        group.bench_with_input(BenchmarkId::new("honest", m), &honest, |b, s| {
            b.iter(|| black_box(protocol::run(s)))
        });
        let deviant = scenario(m).with_deviation(2, Deviation::ShedLoad { keep_fraction: 0.5 });
        group.bench_with_input(BenchmarkId::new("shed_load", m), &deviant, |b, s| {
            b.iter(|| black_box(protocol::run(s)))
        });
    }
    group.finish();
}

/// The Λ mint at a protocol run's 10,000 blocks: reading the ids of half
/// the load from a fresh mint (a run's first read of a receipt), one chain
/// receipt (the tail of the load a node received), and verifying half the
/// load as a range of the verifier's own mint and as ids held outright.
fn lambda(c: &mut Criterion) {
    const BLOCKS: usize = 10_000;
    let mut group = c.benchmark_group("lambda");
    group.bench_function("ids", |b| {
        b.iter(|| {
            let tag = BlockMint::new(BLOCKS, 42).range(BLOCKS / 2, BLOCKS / 2);
            let ids = tag.ids();
            black_box(&ids);
        })
    });
    let mint = BlockMint::new(BLOCKS, 42);
    group.bench_function("chain_receipt", |b| {
        b.iter(|| black_box(mint.range(BLOCKS / 2, BLOCKS / 2)))
    });
    let range = mint.range(BLOCKS / 2, BLOCKS / 2);
    let owned = LoadTag::from_ids(range.ids().to_vec());
    group.bench_function("verify_same_mint_range", |b| {
        b.iter(|| black_box(mint.verify(&range)))
    });
    group.bench_function("verify_owned", |b| {
        b.iter(|| black_box(mint.verify(&owned)))
    });
    group.finish();
}

fn event_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_engine");
    for &events in &[1_000usize, 100_000] {
        group.throughput(Throughput::Elements(events as u64));
        group.bench_with_input(BenchmarkId::from_parameter(events), &events, |b, &n| {
            b.iter(|| {
                let mut eng: Engine<u64> = Engine::new();
                for i in 0..n as u64 {
                    // pseudo-random interleaving without rand in the hot loop
                    let t = ((i.wrapping_mul(2654435761)) % 1_000_000) as f64;
                    eng.schedule_at(SimTime::new(t), i);
                }
                let mut acc = 0u64;
                while let Some((_, e)) = eng.next_event() {
                    acc = acc.wrapping_add(e);
                }
                black_box(acc)
            })
        });
    }
    group.finish();
}

fn signatures(c: &mut Criterion) {
    let registry = Registry::new(16, 42);
    let key = registry.keypair(3);
    let payload = 0.123456789f64;
    c.bench_function("dsm_sign", |b| {
        b.iter(|| black_box(key.sign(black_box(payload))))
    });
    let sig = key.sign(payload);
    c.bench_function("dsm_verify", |b| {
        b.iter(|| black_box(registry.verify(3, black_box(payload), sig)))
    });
}

criterion_group!(benches, full_run, lambda, event_engine, signatures);
criterion_main!(benches);
