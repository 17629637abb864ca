//! B14 — exchange-backend comparison on the b13 replay workloads.
//!
//! Steps the same one-statement programs, warm, on both [`ExchangeBackend`]s:
//! `shared_mem` (direct copies staged through persistent per-pair buffers,
//! zero-allocation warm) and `channels` (the true message-passing SPMD
//! executor — persistent per-processor workers, packed messages over
//! channels, disjoint ownership). The spread is the cost of *real*
//! message-passing discipline over the same frozen schedules: ownership
//! handoff, wire packing, and channel traffic per superstep, amortized by
//! the persistent worker fleet.
//!
//! [`ExchangeBackend`]: hpf_runtime::ExchangeBackend

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};
use hpf_bench::replay::{
    arrays_1d, arrays_2d, cyclic_transpose, replay_elements, shift_1d, statement_session,
    stencil_2d,
};
use hpf_core::FormatSpec;
use hpf_runtime::{Backend, ExecPlan};
use std::time::Instant;

/// Headline numbers for the CI log: warm superstep throughput of both
/// backends on the block stencil, plus the wire volumes the backends
/// cross-check against the frozen analyses.
fn print_summary() {
    let smoke = std::env::args().any(|a| a == "--test")
        || std::env::var_os("CRITERION_SMOKE").is_some();
    let iters: u64 = if smoke { 3 } else { 200 };
    let n = 192i64;
    let arrays = arrays_2d(n, 2, &FormatSpec::Block);
    let stmt = stencil_2d(n, &arrays);
    let plan = ExecPlan::inspect(&arrays, &stmt).unwrap();
    let elems = replay_elements(&plan);

    let warm = |backend: Backend| {
        let mut session = statement_session(arrays.clone(), &stmt, backend);
        session.run(1).unwrap(); // warm (spawns the fleet)
        let t = Instant::now();
        session.run(iters).unwrap();
        t.elapsed()
    };
    let shared_t = warm(Backend::SharedMem);
    let channels_t = warm(Backend::Channels);

    let rate = |d: std::time::Duration| {
        (elems as f64 * iters as f64) / d.as_secs_f64() / 1.0e6
    };
    println!(
        "b14 summary: 2-D block stencil n={n} — shared_mem {:.0} Melem/s, \
         channels {:.0} Melem/s, wire {} elements = {} B per superstep \
         over {} pair messages (frozen analysis: {})",
        rate(shared_t),
        rate(channels_t),
        plan.wire_elements(),
        plan.wire_bytes(),
        plan.messages(),
        plan.analysis_verdict(),
    );
}

fn bench(c: &mut Criterion) {
    print_summary();
    let mut g = c.benchmark_group("backend_exchange");
    g.sample_size(20);

    // workload set mirrors b13: 1-D shift, 2-D stencil, cyclic transpose
    let n1 = 65_536i64;
    let a1 = arrays_1d(n1, 8, &FormatSpec::Block);
    let s1 = shift_1d(n1, &a1);
    let n2 = 192i64;
    let a2 = arrays_2d(n2, 2, &FormatSpec::Block);
    let s2 = stencil_2d(n2, &a2);
    let (a3, s3) = cyclic_transpose(65_536, 8);

    for (tag, arrays, stmt) in
        [("shift_1d_block", a1, s1), ("stencil_2d_block", a2, s2), ("cyclic_transpose", a3, s3)]
    {
        for (name, backend) in [("shared_mem", Backend::SharedMem), ("channels", Backend::Channels)]
        {
            let mut session = statement_session(arrays.clone(), &stmt, backend);
            session.run(1).unwrap(); // spawn the fleet untimed
            g.bench_function(BenchmarkId::new(tag, name), |b| {
                b.iter(|| black_box(session.run(1).unwrap()))
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench);

fn main() {
    benches();
}
