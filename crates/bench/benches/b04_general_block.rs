//! E4 — GENERAL_BLOCK: cost of computing a weight-balanced partition
//! (binary search + greedy) and of binding it, across workload sizes.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use hpf_bench::{random_weights, triangular_weights};
use hpf_core::GeneralBlock;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("general_block_balance");
    for n in [10_000usize, 100_000, 1_000_000] {
        let tri = triangular_weights(n);
        g.bench_with_input(BenchmarkId::new("triangular", n), &n, |b, _| {
            b.iter(|| black_box(GeneralBlock::balanced(&tri, 64).unwrap()))
        });
        let rnd = random_weights(n, 1000, 42);
        g.bench_with_input(BenchmarkId::new("random", n), &n, |b, _| {
            b.iter(|| black_box(GeneralBlock::balanced(&rnd, 64).unwrap()))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
