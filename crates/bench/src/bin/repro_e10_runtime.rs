//! E10 (§1) — owner-computes execution end to end: correctness against a
//! dense reference, the `SharedMem` backend vs the SPMD fleet, ghost
//! regions and the full machine pricing of the staggered-grid statement.

use hpf_bench::replay::statement_session;
use hpf_bench::{staggered_mappings, staggered_statement, StaggeredScheme};
use hpf_core::FormatSpec;
use hpf_machine::{CostModel, Machine, Topology};
use hpf_runtime::{dense_reference, ghost_regions, Backend, DistArray};
use std::time::Instant;

fn main() {
    let n = 512i64;
    let np_side = 2usize;
    let np = np_side * np_side;
    println!("E10 — owner-computes runtime, staggered grid N = {n}, NP = {np}\n");

    let maps = staggered_mappings(n, np_side, &StaggeredScheme::Direct(FormatSpec::Block));
    let stmt = staggered_statement(n, &maps);
    let build = || {
        vec![
            DistArray::new("P", maps[0].clone(), np, 0.0),
            DistArray::from_fn("U", maps[1].clone(), np, |i| (i[0] * 3 + i[1]) as f64),
            DistArray::from_fn("V", maps[2].clone(), np, |i| (i[0] - 2 * i[1]) as f64),
        ]
    };

    // correctness: both backends equal the dense reference (cold: each
    // timing includes inspection, and the fleet's spawn)
    let expect = dense_reference(&build(), &stmt);
    let mut seq = statement_session(build(), &stmt, Backend::SharedMem);
    let t0 = Instant::now();
    seq.run(1).unwrap();
    let t_seq = t0.elapsed();
    assert_eq!(seq.program().arrays[0].to_dense(), expect);
    let analysis = seq.last_analyses()[0].clone();

    let mut par = statement_session(build(), &stmt, Backend::Channels);
    let t0 = Instant::now();
    par.run(1).unwrap();
    let t_par = t0.elapsed();
    assert_eq!(par.program().arrays[0].to_dense(), expect);
    println!("numerics: shared-mem == channels == dense reference  ✓");
    println!(
        "wall-clock (host): shared-mem {:.1} ms, channels ({np} workers) {:.1} ms\n",
        t_seq.as_secs_f64() * 1e3,
        t_par.as_secs_f64() * 1e3
    );

    // ghost regions per processor
    println!("ghost (overlap) volumes per processor, per the 4 operand terms:");
    for g in ghost_regions(&maps, np, &stmt) {
        let per: Vec<usize> = g.per_term.iter().map(|r| r.volume_disjoint()).collect();
        println!("  {}: {:?} → total {}", g.proc, per, g.volume);
    }

    // machine pricing
    let machine = Machine::new(
        np,
        Topology::Mesh2D { rows: np_side, cols: np_side },
        CostModel::default(),
    );
    let rep = machine.superstep_time(&analysis.loads, &analysis.comm);
    println!("\nmachine estimate: {rep}");
    println!(
        "remote fraction {:.2}% — the §1 collocation payoff on the\n\
         template-free (BLOCK,BLOCK) mapping.",
        analysis.remote_fraction() * 100.0
    );
}
