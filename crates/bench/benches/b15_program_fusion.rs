//! B15 — program-level plan fusion on a whole-timestep workload.
//!
//! Runs the [`fusion_timestep`] program — a stencil plus two consumers of
//! a never-written CYCLIC(1) coefficient array, all in one superstep —
//! through the fused [`ProgramPlan`] (the `Session` default: level
//! scheduling, per-pair message coalescing, ghost-region dirty tracking)
//! and through the same plan compiled unfused (`Session::fused(false)`:
//! one full BSP superstep and a complete ghost exchange per statement).
//! Warm fused replays skip the entire cyclic all-to-all (its operand is
//! clean), which is where the headline ratio comes from; the perf gate
//! pins that ratio hardware-neutrally in `BENCH_b15.json`.
//!
//! [`fusion_timestep`]: hpf_bench::replay::fusion_timestep
//! [`ProgramPlan`]: hpf_runtime::ProgramPlan

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};
use hpf_bench::replay::fusion_timestep;
use hpf_runtime::{Program, Session};
use std::time::Instant;

const N: i64 = 65_536;
const NP: usize = 8;

fn build(fused: bool) -> Session {
    let (arrays, stmts) = fusion_timestep(N, NP);
    let mut prog = Program::new(arrays);
    for s in stmts {
        prog.push(s).unwrap();
    }
    let mut sess = Session::new(prog).fused(fused);
    // warm: inspect the plans, build the fused schedule, run the cold
    // timestep that ships (and dirty-tracks) every ghost region
    sess.run(1).unwrap();
    sess
}

/// Headline numbers for the CI log: warm whole-timestep throughput of
/// both paths plus the fusion statistics the speedup comes from.
fn print_summary() {
    let smoke = std::env::args().any(|a| a == "--test")
        || std::env::var_os("CRITERION_SMOKE").is_some();
    let iters: u64 = if smoke { 3 } else { 200 };

    let mut fused = build(true);
    let t = Instant::now();
    fused.run(iters).unwrap();
    let fused_t = t.elapsed();

    let mut unfused = build(false);
    let t = Instant::now();
    unfused.run(iters).unwrap();
    let unfused_t = t.elapsed();

    let fs = fused.program().fusion_stats();
    assert!(
        fs.ghost_bytes_avoided() > 0,
        "warm fused timesteps must skip the clean cyclic ghosts: {fs}"
    );
    println!(
        "b15 summary: fusion timestep n={N} np={NP} — fused {:.2} ms/timestep, \
         unfused {:.2} ms/timestep ({:.2}x); {fs}",
        fused_t.as_secs_f64() * 1e3 / iters as f64,
        unfused_t.as_secs_f64() * 1e3 / iters as f64,
        unfused_t.as_secs_f64() / fused_t.as_secs_f64(),
    );
}

fn bench(c: &mut Criterion) {
    print_summary();
    let mut g = c.benchmark_group("program_fusion");
    g.sample_size(20);

    let mut fused = build(true);
    g.bench_function(BenchmarkId::new("fusion_timestep", "fused"), |b| {
        b.iter(|| {
            fused.run(1).unwrap();
            black_box(());
        })
    });
    let mut unfused = build(false);
    g.bench_function(BenchmarkId::new("fusion_timestep", "unfused"), |b| {
        b.iter(|| {
            unfused.run(1).unwrap();
            black_box(());
        })
    });
    g.finish();
}

criterion_group!(benches, bench);

fn main() {
    benches();
}
