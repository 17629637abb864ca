//! B12 — compiled execution plans: cold (inspect + execute every call)
//! vs warm (cached-plan replay) timesteps of the §8.1.1 staggered-grid
//! statement. The warm path skips validation, ownership lookups, and the
//! region-algebraic communication analysis, executing stage → exchange →
//! compute straight from the compiled schedule.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use hpf_bench::replay::statement_session;
use hpf_bench::{staggered_mappings, staggered_statement, StaggeredScheme};
use hpf_core::FormatSpec;
use hpf_runtime::{Assignment, Backend, DistArray};

fn arrays(n: i64) -> (Vec<DistArray<f64>>, Assignment) {
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
    let mut g = c.benchmark_group("plan_cache");
    g.sample_size(20);
    for n in [128i64, 512] {
        let (base, stmt) = arrays(n);
        // cold: every timestep pays inspection (the pre-plan behavior)
        g.bench_with_input(BenchmarkId::new("cold", n), &n, |b, _| {
            let mut session = statement_session(base.clone(), &stmt, Backend::SharedMem);
            b.iter(|| {
                session.program_mut().clear_plan_cache();
                black_box(session.run(1).unwrap())
            })
        });
        // warm: one inspection, then zero-allocation cached replays into
        // the cache's workspace
        g.bench_with_input(BenchmarkId::new("warm", n), &n, |b, _| {
            let mut session = statement_session(base.clone(), &stmt, Backend::SharedMem);
            session.run(1).unwrap(); // populate
            b.iter(|| {
                session.run(1).unwrap();
                black_box(session.last_analyses()[0].remote_reads)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
