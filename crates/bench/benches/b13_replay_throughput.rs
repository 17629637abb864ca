//! B13 — warm replay throughput of the strided-run schedules.
//!
//! Measures elements/second of a warm (cached-plan, preallocated
//! workspace, zero-allocation) one-statement `Session` step on the
//! `SharedMem` backend for three statement shapes — 1-D
//! shift, 2-D 5-point stencil, and a block↔cyclic redistribution copy
//! ("cyclic transpose") — each under BLOCK and CYCLIC(1) distributions, to
//! show the spread: block mappings compress to a handful of
//! `copy_from_slice` runs per processor, a BLOCK↔CYCLIC(1) reference to
//! one strided gather per processor pair. The `elementwise` variants replay the *same plans*
//! through the expanded per-element path
//! ([`ExecPlan::execute_seq_uncompressed`]) — the pre-compression
//! baseline the acceptance criterion compares against.
//!
//! [`ExecPlan::execute_seq_uncompressed`]: hpf_runtime::ExecPlan::execute_seq_uncompressed

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};
use hpf_bench::replay::{
    arrays_1d, arrays_2d, cyclic_transpose, replay_elements, shift_1d, statement_session,
    stencil_2d,
};
use hpf_core::FormatSpec;
use hpf_runtime::{Backend, ExecPlan};
use std::time::Instant;

/// Headline numbers for the CI log: warm compressed vs uncompressed
/// replay of the block-distributed 2-D stencil (the acceptance-criterion
/// comparison), plus the per-format compression ratios.
fn print_summary() {
    let smoke = std::env::args().any(|a| a == "--test")
        || std::env::var_os("CRITERION_SMOKE").is_some();
    let iters: u64 = if smoke { 3 } else { 300 };
    let n = 192i64;
    let arrays = arrays_2d(n, 2, &FormatSpec::Block);
    let stmt = stencil_2d(n, &arrays);
    let plan = ExecPlan::inspect(&arrays, &stmt).unwrap();
    let elems = replay_elements(&plan);
    let mut session = statement_session(arrays, &stmt, Backend::SharedMem);

    session.run(1).unwrap(); // warm
    let t = Instant::now();
    session.run(iters).unwrap();
    let compressed = t.elapsed();

    let arrays = &mut session.program_mut().arrays;
    plan.execute_seq_uncompressed(arrays); // warm
    let t = Instant::now();
    for _ in 0..iters {
        plan.execute_seq_uncompressed(arrays);
    }
    let elementwise = t.elapsed();

    let rate = |d: std::time::Duration| {
        (elems as f64 * iters as f64) / d.as_secs_f64() / 1.0e6
    };
    println!(
        "b13 summary: 2-D block stencil n={n} — compressed {:.0} Melem/s, \
         elementwise {:.0} Melem/s, speedup {:.1}x, \
         schedule {} runs for {} element entries ({:.0} elems/run, {} B vs {} B)",
        rate(compressed),
        rate(elementwise),
        elementwise.as_secs_f64() / compressed.as_secs_f64(),
        plan.schedule_runs(),
        plan.schedule_elements(),
        plan.compression_ratio(),
        plan.schedule_bytes(),
        plan.uncompressed_bytes(),
    );
    for fmt in [FormatSpec::Block, FormatSpec::Cyclic(1)] {
        let arrays = arrays_2d(n, 2, &fmt);
        let plan = ExecPlan::inspect(&arrays, &stencil_2d(n, &arrays)).unwrap();
        println!(
            "b13 summary: stencil {fmt:?} compression ratio {:.1} elems/run",
            plan.compression_ratio()
        );
        let n1 = 65_536i64;
        let a1 = arrays_1d(n1, 8, &fmt);
        let p1 = ExecPlan::inspect(&a1, &shift_1d(n1, &a1)).unwrap();
        println!(
            "b13 summary: shift_1d {fmt:?} compression ratio {:.1} elems/run",
            p1.compression_ratio()
        );
    }
    let (arrays, stmt) = cyclic_transpose(65_536, 8);
    let plan = ExecPlan::inspect(&arrays, &stmt).unwrap();
    println!(
        "b13 summary: block←cyclic(1) copy compression ratio {:.1} elems/run",
        plan.compression_ratio()
    );
}

fn bench(c: &mut Criterion) {
    print_summary();
    let mut g = c.benchmark_group("replay_throughput");
    g.sample_size(20);

    // 1-D shift and 2-D stencil, block vs cyclic(1): the coalescing spread
    for (fmt, tag) in [(FormatSpec::Block, "block"), (FormatSpec::Cyclic(1), "cyclic1")] {
        let n1 = 65_536i64;
        let a1 = arrays_1d(n1, 8, &fmt);
        let s1 = shift_1d(n1, &a1);
        let mut session = statement_session(a1, &s1, Backend::SharedMem);
        g.bench_function(BenchmarkId::new("shift_1d", tag), |b| {
            b.iter(|| black_box(session.run(1).unwrap()))
        });

        let n2 = 192i64;
        let a2 = arrays_2d(n2, 2, &fmt);
        let s2 = stencil_2d(n2, &a2);
        let p2 = ExecPlan::inspect(&a2, &s2).unwrap();
        let mut session = statement_session(a2, &s2, Backend::SharedMem);
        g.bench_function(BenchmarkId::new("stencil_2d", tag), |b| {
            b.iter(|| black_box(session.run(1).unwrap()))
        });
        // the uncompressed per-element reference on the same plan
        let a2 = &mut session.program_mut().arrays;
        g.bench_function(BenchmarkId::new("stencil_2d_elementwise", tag), |b| {
            b.iter(|| p2.execute_seq_uncompressed(a2))
        });
    }

    // block ← cyclic(1) redistribution copy: all-to-all, one strided run per pair
    let n = 65_536i64;
    let (arrays, stmt) = cyclic_transpose(n, 8);
    let plan = ExecPlan::inspect(&arrays, &stmt).unwrap();
    let mut session = statement_session(arrays, &stmt, Backend::SharedMem);
    g.bench_function(BenchmarkId::new("cyclic_transpose", "compressed"), |b| {
        b.iter(|| black_box(session.run(1).unwrap()))
    });
    let arrays = &mut session.program_mut().arrays;
    g.bench_function(BenchmarkId::new("cyclic_transpose", "elementwise"), |b| {
        b.iter(|| plan.execute_seq_uncompressed(arrays))
    });
    g.finish();
}

criterion_group!(benches, bench);

fn main() {
    benches();
}
