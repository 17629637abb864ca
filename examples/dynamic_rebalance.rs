//! Dynamic redistribution paying for itself (§4.2's motivation).
//!
//! A two-phase computation over `X(1:N)`:
//!
//! * phase 1 — uniform sweeps: every element costs 1 op; `BLOCK` is ideal;
//! * phase 2 — skewed sweeps: element `i` costs ~`i` ops; `BLOCK` leaves
//!   the last processor with ~2× the average load.
//!
//! A `DYNAMIC` array can `REDISTRIBUTE` to a weight-balanced
//! `GENERAL_BLOCK` between the phases. This example prices both plans —
//! static BLOCK vs redistribute-in-the-middle — including the *cost of the
//! redistribution itself* (computed exactly by `remap_analysis`), and
//! shows the crossover as phase-2 gets longer.
//!
//! It then *runs* the two-phase trajectory through the fused program
//! plan: the three sweep statements are level-scheduled into supersteps,
//! the never-written coefficient array's ghost regions stop being re-sent
//! after the cold timestep, and the mid-trajectory `REDISTRIBUTE`
//! invalidates exactly the plans that involve the remapped array — while
//! staying bit-identical to the unfused per-statement execution.
//!
//! Run with: `cargo run --release --example dynamic_rebalance`

use hpf::prelude::*;

const N: usize = 100_000;
const NP: usize = 8;

fn phase_time(machine: &Machine, map: &EffectiveDist, weights: &[u64]) -> f64 {
    let mut loads = vec![0u64; NP];
    for p in 1..=NP as u32 {
        for i in map.owned_region(ProcId(p)).iter() {
            loads[(p - 1) as usize] += weights[(i[0] - 1) as usize];
        }
    }
    machine.superstep_time(&loads, &CommStats::new()).total_time()
}

fn main() {
    let machine = Machine::new(NP, Topology::Ring, CostModel::default());
    let uniform: Vec<u64> = vec![1; N];
    let skewed: Vec<u64> = (1..=N as u64).map(|i| i / 5000 + 30).collect();

    // mappings
    let mut ds = DataSpace::new(NP);
    let x = ds.declare("X", IndexDomain::of_shape(&[N]).unwrap()).unwrap();
    ds.set_dynamic(x);
    ds.distribute(x, &DistributeSpec::new(vec![FormatSpec::Block])).unwrap();
    let block = ds.effective(x).unwrap();

    let gb = GeneralBlock::balanced(&skewed, NP).unwrap();
    let bounds: Vec<i64> = (1..NP).map(|j| gb.bound(j)).collect();
    ds.redistribute(x, &DistributeSpec::new(vec![FormatSpec::GeneralBlock(bounds)]))
        .unwrap();
    let balanced = ds.effective(x).unwrap();

    // the redistribution event itself
    let remap = remap_analysis(&block, &balanced, NP);
    let remap_time = machine
        .superstep_time(&[], &remap.comm)
        .total_time();
    println!(
        "REDISTRIBUTE X(BLOCK) → X(GENERAL_BLOCK): {} of {} elements move \
         ({:.1}%), est. {:.0} µs\n",
        remap.moved,
        N,
        remap.moved_fraction() * 100.0,
        remap_time
    );

    let t1_block = phase_time(&machine, &block, &uniform);
    let t2_block = phase_time(&machine, &block, &skewed);
    let t2_bal = phase_time(&machine, &balanced, &skewed);

    println!(
        "{:>14} {:>16} {:>22} {:>10}",
        "phase-2 sweeps", "static BLOCK (µs)", "redistribute plan (µs)", "winner"
    );
    for sweeps in [0u32, 1, 2, 5, 10, 20, 50] {
        let s = sweeps as f64;
        let static_plan = t1_block + s * t2_block;
        let dynamic_plan = t1_block + remap_time + s * t2_bal;
        println!(
            "{sweeps:>14} {static_plan:>17.0} {dynamic_plan:>22.0} {:>10}",
            if dynamic_plan < static_plan { "dynamic" } else { "static" }
        );
    }
    println!(
        "\nthe paper's §4.2 point: REDISTRIBUTE is worth a one-off data motion\n\
         once enough skewed work follows — and GENERAL_BLOCK (not available\n\
         in HPF) is what the balanced target distribution is written in.\n"
    );

    run_two_phase(block, balanced, &mut ds);
}

/// Execute the two-phase trajectory for real — phase 1 under BLOCK, a
/// mid-trajectory REDISTRIBUTE, phase 2 under the balanced
/// GENERAL_BLOCK — through the fused program plan, twinned against the
/// unfused per-statement execution.
fn run_two_phase(
    block: std::sync::Arc<EffectiveDist>,
    balanced: std::sync::Arc<EffectiveDist>,
    ds: &mut DataSpace,
) {
    let y = ds.declare("Y", IndexDomain::of_shape(&[N]).unwrap()).unwrap();
    ds.distribute(y, &DistributeSpec::new(vec![FormatSpec::Block])).unwrap();
    let y_map = ds.effective(y).unwrap();
    let c = ds.declare("C", IndexDomain::of_shape(&[N]).unwrap()).unwrap();
    ds.distribute(c, &DistributeSpec::new(vec![FormatSpec::Block])).unwrap();
    let c_map = ds.effective(c).unwrap();

    let arrays = vec![
        DistArray::from_fn("X", block, NP, |i| (i[0] % 97) as f64),
        DistArray::from_fn("Y", y_map, NP, |_| 0.0),
        DistArray::from_fn("C", c_map, NP, |i| 1.0 / (i[0] as f64 + 1.0)),
    ];
    let doms: Vec<&IndexDomain> = arrays.iter().map(|a| a.domain()).collect();
    let n = N as i64;
    // X smooths itself, Y samples the smoothed field, then folds in the
    // *constant* coefficients C — a 3-statement, 3-superstep chain
    let stmts = vec![
        Assignment::new(
            0,
            Section::from_triplets(vec![span(2, n - 1)]),
            vec![
                Term::new(0, Section::from_triplets(vec![span(1, n - 2)])),
                Term::new(0, Section::from_triplets(vec![span(3, n)])),
            ],
            Combine::Average,
            &doms,
        )
        .unwrap(),
        Assignment::new(
            1,
            Section::from_triplets(vec![span(2, n - 1)]),
            vec![
                Term::new(0, Section::from_triplets(vec![span(1, n - 2)])),
                Term::new(0, Section::from_triplets(vec![span(3, n)])),
            ],
            Combine::Average,
            &doms,
        )
        .unwrap(),
        Assignment::new(
            1,
            Section::from_triplets(vec![span(2, n - 1)]),
            vec![
                Term::new(1, Section::from_triplets(vec![span(2, n - 1)])),
                Term::new(2, Section::from_triplets(vec![span(1, n - 2)])),
            ],
            Combine::Sum,
            &doms,
        )
        .unwrap(),
    ];

    let mut fused = Program::new(arrays.clone());
    let mut unfused = Program::new(arrays);
    for s in &stmts {
        fused.push(s.clone()).unwrap();
        unfused.push(s.clone()).unwrap();
    }
    let mut fused = Session::new(fused);
    let mut unfused = Session::new(unfused).fused(false);

    const PHASE: u64 = 3;
    fused.run(PHASE).unwrap();
    unfused.run(PHASE).unwrap();
    assert_eq!(fused.program().cache_misses(), 3, "one inspection per statement");
    let fs = fused.program().fusion_stats();
    println!("phase 1 (BLOCK, {PHASE} timesteps): {fs}");
    assert!(
        fs.ghost_bytes_avoided() > 0,
        "C is never written — its ghosts must stop moving after the cold \
         timestep: {fs}"
    );

    // mid-trajectory REDISTRIBUTE: every cached plan involving X is
    // invalidated (the fused program plan with them); Y+C's statement
    // survives untouched
    let moved = fused.program_mut().remap(0, balanced.clone()).unwrap();
    unfused.program_mut().remap(0, balanced).unwrap();
    println!(
        "REDISTRIBUTE mid-trajectory: {} elements moved, fused plan rebuilt",
        moved.moved
    );
    fused.run(PHASE).unwrap();
    unfused.run(PHASE).unwrap();
    assert_eq!(
        fused.program().cache_misses(),
        5,
        "remap re-inspects the two X statements; the Y+C plan survives"
    );
    for k in 0..3 {
        assert_eq!(
            fused.program().arrays[k].to_dense(),
            unfused.program().arrays[k].to_dense(),
            "fused and per-statement execution must agree bit for bit"
        );
    }
    let fs = fused.program().fusion_stats();
    println!("phase 2 (GENERAL_BLOCK, {PHASE} timesteps): {fs}");
    println!(
        "\nfused ≡ unfused across the whole remapped trajectory; \
         {} ghost bytes never re-sent.",
        fs.ghost_bytes_avoided()
    );
}
