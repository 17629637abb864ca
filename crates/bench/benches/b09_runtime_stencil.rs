//! E10 — owner-computes execution, cold (inspect + one step per call):
//! the `SharedMem` backend vs the 4-worker SPMD fleet on the
//! staggered-grid statement with direct block distributions.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use hpf_bench::replay::statement_session;
use hpf_bench::{staggered_mappings, staggered_statement, StaggeredScheme};
use hpf_core::FormatSpec;
use hpf_runtime::{Backend, DistArray};

fn arrays(n: i64) -> (Vec<DistArray<f64>>, hpf_runtime::Assignment) {
    let maps = staggered_mappings(n, 2, &StaggeredScheme::Direct(FormatSpec::Block));
    let stmt = staggered_statement(n, &maps);
    let arrays = vec![
        DistArray::new("P", maps[0].clone(), 4, 0.0),
        DistArray::from_fn("U", maps[1].clone(), 4, |i| (i[0] + i[1]) as f64),
        DistArray::from_fn("V", maps[2].clone(), 4, |i| (i[0] - i[1]) as f64),
    ];
    (arrays, stmt)
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("runtime_stencil");
    g.sample_size(20);
    for n in [128i64, 512] {
        let (base, stmt) = arrays(n);
        for (name, backend) in [("seq", Backend::SharedMem), ("par4", Backend::Channels)] {
            g.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                b.iter_batched(
                    || statement_session(base.clone(), &stmt, backend),
                    |mut session| black_box(session.run(1).unwrap()),
                    criterion::BatchSize::LargeInput,
                )
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
