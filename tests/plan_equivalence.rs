//! Property tests for the compiled-plan runtime: plan-based execution —
//! inline and under a random thread bound — is bit-identical to the naive
//! element-wise reference across random block / cyclic / general-block / replicated
//! mappings in 1-D and 2-D, the run-length compressed schedules expand to
//! exactly the uncompressed per-element `(src, offset)` sequences, and a
//! cached plan replay equals a freshly inspected one — including across a
//! remap invalidation.

mod common;

use common::{run_stmt, Config};
use hpf::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// Independently recompute the *uncompressed* gather sequence of processor
/// `p` for term `t`: walk the LHS owner's region rects in local-buffer
/// order, keep the elements the LHS section selects, and resolve each read
/// to `(source processor, flat offset)` with first-owner ghost semantics —
/// the per-element schedule the compressed [`CopyRun`]s must expand to.
fn expected_gather_refs(
    arrays: &[DistArray<f64>],
    stmt: &Assignment,
    p: ProcId,
    t: usize,
) -> Vec<(u32, usize)> {
    let lhs = &arrays[stmt.lhs];
    let term_arr = &arrays[stmt.terms[t].array];
    let own = term_arr.region_of(p);
    let mut out = Vec::new();
    for rect in lhs.region_of(p).rects() {
        for gi in rect.iter() {
            let Some(rel) = stmt.lhs_section.project(&gi) else { continue };
            let ri = stmt.rhs_index(t, &rel);
            let src =
                if own.contains(&ri) { p } else { term_arr.mapping().owner(&ri) };
            let off = term_arr.local_offset(src, &ri).expect("owner holds its region");
            out.push((src.zero_based() as u32, off));
        }
    }
    out
}

/// The uncompressed LHS flat-offset sequence of processor `p`, recomputed
/// the same way.
fn expected_lhs_offsets(
    arrays: &[DistArray<f64>],
    stmt: &Assignment,
    p: ProcId,
) -> Vec<usize> {
    let lhs = &arrays[stmt.lhs];
    let mut out = Vec::new();
    for rect in lhs.region_of(p).rects() {
        for gi in rect.iter() {
            if stmt.lhs_section.project(&gi).is_some() {
                out.push(lhs.local_offset(p, &gi).expect("owner holds its region"));
            }
        }
    }
    out
}

/// Assert the compressed schedule of `plan` expands element-for-element to
/// the uncompressed sequences, and that every run list tiles the element
/// order contiguously.
fn assert_schedule_expands_exactly(arrays: &[DistArray<f64>], stmt: &Assignment, plan: &ExecPlan) {
    for pp in plan.per_proc() {
        let want_lhs = expected_lhs_offsets(arrays, stmt, pp.proc);
        assert_eq!(pp.volume, want_lhs.len(), "{}", pp.proc);
        let got_lhs: Vec<usize> = pp.iter_lhs_offsets().collect();
        assert_eq!(got_lhs, want_lhs, "{} store expansion", pp.proc);
        let mut pos = 0usize;
        for r in &pp.lhs_runs {
            assert_eq!(r.pos, pos, "{} store runs must tile", pp.proc);
            assert!(r.len > 0);
            pos += r.len;
        }
        assert_eq!(pos, pp.volume);
        for (t, ts) in pp.terms.iter().enumerate() {
            let want = expected_gather_refs(arrays, stmt, pp.proc, t);
            let got: Vec<(u32, usize)> =
                ts.iter_refs().map(|g| (g.src, g.offset)).collect();
            assert_eq!(got, want, "{} term {t} gather expansion", pp.proc);
            let mut k = 0usize;
            for r in &ts.runs {
                assert_eq!(r.dst_off, k, "{} term {t} gather runs must tile", pp.proc);
                assert!(r.len > 0);
                k += r.len;
            }
            assert_eq!(k, ts.elements);
        }
    }
}

/// Random GENERAL_BLOCK sizes: `np` non-negative lengths summing to `n`.
fn gb_sizes(n: usize, np: usize, seed: u64) -> Vec<i64> {
    use rand::{RngExt, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut cuts: Vec<i64> = (0..np.saturating_sub(1))
        .map(|_| rng.random_range(0..=n as u64) as i64)
        .collect();
    cuts.sort_unstable();
    cuts.push(n as i64);
    let mut prev = 0i64;
    cuts.into_iter()
        .map(|c| {
            let s = c - prev;
            prev = c;
            s
        })
        .collect()
}

/// One of the paper's mapping families, selected by `kind`.
fn mapping_of(kind: u8, n: usize, np: usize, seed: u64) -> Arc<EffectiveDist> {
    if kind % 6 == 5 {
        return Arc::new(EffectiveDist::Replicated {
            domain: IndexDomain::of_shape(&[n]).unwrap(),
            procs: ProcSet::all(np),
        });
    }
    let fmt = match kind % 6 {
        0 => FormatSpec::Block,
        1 => FormatSpec::BlockBalanced,
        2 => FormatSpec::Cyclic(1),
        3 => FormatSpec::Cyclic(3),
        _ => FormatSpec::GeneralBlockSizes(gb_sizes(n, np, seed)),
    };
    let mut ds = DataSpace::new(np);
    let a = ds.declare("M", IndexDomain::of_shape(&[n]).unwrap()).unwrap();
    ds.distribute(a, &DistributeSpec::new(vec![fmt])).unwrap();
    ds.effective(a).unwrap()
}

fn build_arrays(n: usize, np: usize, ka: u8, kb: u8, seed: u64) -> Vec<DistArray<f64>> {
    vec![
        DistArray::from_fn("A", mapping_of(ka, n, np, seed), np, |i| i[0] as f64),
        DistArray::from_fn("B", mapping_of(kb, n, np, seed ^ 0x9e37), np, |i| {
            (i[0] * 13 - 5) as f64
        }),
    ]
}

/// A random 2-D mapping over an `np_side × np_side` grid: per-dimension
/// block / cyclic(k) / general-block formats, or full replication
/// (`kind == 16`).
fn mapping_2d(kind: u8, n: usize, np_side: usize, seed: u64) -> Arc<EffectiveDist> {
    let np = np_side * np_side;
    if kind >= 16 {
        return Arc::new(EffectiveDist::Replicated {
            domain: IndexDomain::of_shape(&[n, n]).unwrap(),
            procs: ProcSet::all(np),
        });
    }
    let fmt = |k: u8, s: u64| match k % 4 {
        0 => FormatSpec::Block,
        1 => FormatSpec::Cyclic(1),
        2 => FormatSpec::Cyclic(2),
        _ => FormatSpec::GeneralBlockSizes(gb_sizes(n, np_side, s)),
    };
    let mut ds = DataSpace::new(np);
    ds.declare_processors("G", IndexDomain::of_shape(&[np_side, np_side]).unwrap())
        .unwrap();
    let a = ds.declare("M", IndexDomain::of_shape(&[n, n]).unwrap()).unwrap();
    ds.distribute(
        a,
        &DistributeSpec::to(vec![fmt(kind % 4, seed), fmt(kind / 4, seed ^ 0x55)], "G"),
    )
    .unwrap();
    ds.effective(a).unwrap()
}

/// A 2-D stencil-flavored statement over `A(2:n-1, 2:n-1)`, with shifted
/// `B` reads and (for some combiners) an aliasing `A` term.
fn build_stmt_2d(n: i64, combine_k: u8, arrays: &[DistArray<f64>]) -> Assignment {
    let doms: Vec<&IndexDomain> = arrays.iter().map(|a| a.domain()).collect();
    let west = Section::from_triplets(vec![span(1, n - 2), span(2, n - 1)]);
    let east = Section::from_triplets(vec![span(3, n), span(2, n - 1)]);
    let south = Section::from_triplets(vec![span(2, n - 1), span(1, n - 2)]);
    let (combine, terms) = match combine_k % 4 {
        0 => (Combine::Copy, vec![Term::new(1, west)]),
        1 => (
            Combine::Sum,
            vec![
                Term::new(1, west),
                Term::new(1, east.clone()),
                Term::new(1, south),
                Term::new(0, east),
            ],
        ),
        2 => (Combine::Average, vec![Term::new(1, west), Term::new(1, east)]),
        _ => (Combine::Max, vec![Term::new(1, west), Term::new(0, south)]),
    };
    Assignment::new(
        0,
        Section::from_triplets(vec![span(2, n - 1), span(2, n - 1)]),
        terms,
        combine,
        &doms,
    )
    .unwrap()
}

/// `A(2:n) = combine(B(1:n-1)[, A(1:n-1)])` — LHS aliasing included.
fn build_stmt(n: i64, combine_k: u8, arrays: &[DistArray<f64>]) -> Assignment {
    let doms: Vec<&IndexDomain> = arrays.iter().map(|a| a.domain()).collect();
    let rhs = Section::from_triplets(vec![span(1, n - 1)]);
    let (combine, terms) = match combine_k % 4 {
        0 => (Combine::Copy, vec![Term::new(1, rhs)]),
        1 => (Combine::Sum, vec![Term::new(1, rhs.clone()), Term::new(0, rhs)]),
        2 => (Combine::Average, vec![Term::new(1, rhs.clone()), Term::new(0, rhs)]),
        _ => (Combine::Max, vec![Term::new(1, rhs.clone()), Term::new(0, rhs)]),
    };
    Assignment::new(0, Section::from_triplets(vec![span(2, n)]), terms, combine, &doms)
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Plan-based execution, inline and under a thread bound (bounded
    /// scoped threads below `np`, the SPMD fleet from `np` up), is
    /// bit-identical to the naive element-wise reference, for every
    /// mapping family combination.
    #[test]
    fn plan_execution_matches_naive_reference(
        n in 16usize..48,
        np in 1usize..5,
        ka in 0u8..6,
        kb in 0u8..6,
        seed in 0u64..1000,
        threads in 1usize..5,
        combine_k in 0u8..4,
    ) {
        let mut seq = build_arrays(n, np, ka, kb, seed);
        let mut par = build_arrays(n, np, ka, kb, seed);
        let stmt = build_stmt(n as i64, combine_k, &seq);
        let expect = dense_reference(&seq, &stmt);
        run_stmt(&mut seq, &stmt, Config::DEFAULT);
        run_stmt(&mut par, &stmt, Config { threads, ..Config::DEFAULT });
        prop_assert_eq!(seq[0].to_dense(), expect);
        prop_assert_eq!(seq[0].to_dense(), par[0].to_dense());
        prop_assert_eq!(seq[1].to_dense(), par[1].to_dense());
    }

    /// The run-length compressed schedule expands to exactly the
    /// uncompressed per-element `(src, offset)` sequence, for every 1-D
    /// mapping family combination (and the runs tile the element order).
    #[test]
    fn compressed_schedule_expands_exactly_1d(
        n in 16usize..48,
        np in 1usize..5,
        ka in 0u8..6,
        kb in 0u8..6,
        seed in 0u64..1000,
        combine_k in 0u8..4,
    ) {
        let arrays = build_arrays(n, np, ka, kb, seed);
        let stmt = build_stmt(n as i64, combine_k, &arrays);
        let plan = ExecPlan::inspect(&arrays, &stmt).unwrap();
        assert_schedule_expands_exactly(&arrays, &stmt, &plan);
        // expansion and replay agree with the naive reference too
        let mut seq = build_arrays(n, np, ka, kb, seed);
        let expect = dense_reference(&seq, &stmt);
        run_stmt(&mut seq, &stmt, Config::DEFAULT);
        prop_assert_eq!(seq[0].to_dense(), expect);
    }

    /// 2-D: compressed replay, inline and thread-bounded, is bit-identical to the naive
    /// reference over random per-dimension block / cyclic(k) /
    /// general-block formats and replicated mappings; the compressed
    /// schedules expand exactly; and for partitioning mappings the plan's
    /// ghost volume equals the frozen analysis's remote reads.
    #[test]
    fn plan_execution_matches_reference_2d(
        n in 6usize..14,
        np_side in 1usize..3,
        ka in 0u8..17,
        kb in 0u8..17,
        seed in 0u64..1000,
        threads in 1usize..6,
        combine_k in 0u8..4,
    ) {
        let np = np_side * np_side;
        let mk = || vec![
            DistArray::from_fn("A", mapping_2d(ka, n, np_side, seed), np, |i| {
                (i[0] * 31 + i[1]) as f64
            }),
            DistArray::from_fn("B", mapping_2d(kb, n, np_side, seed ^ 0x77), np, |i| {
                (i[0] - 2 * i[1]) as f64
            }),
        ];
        let mut seq = mk();
        let mut par = mk();
        let stmt = build_stmt_2d(n as i64, combine_k, &seq);
        let plan = ExecPlan::inspect(&seq, &stmt).unwrap();
        assert_schedule_expands_exactly(&seq, &stmt, &plan);
        if ka < 16 && kb < 16 {
            // partitioning mappings: plan ghosts are exactly the remote
            // reads (replication changes who computes, so the quantities
            // deliberately differ there)
            prop_assert_eq!(plan.ghost_elements() as u64, plan.analysis().remote_reads);
        }
        let expect = dense_reference(&seq, &stmt);
        run_stmt(&mut seq, &stmt, Config::DEFAULT);
        run_stmt(&mut par, &stmt, Config { threads, ..Config::DEFAULT });
        prop_assert_eq!(seq[0].to_dense(), expect);
        prop_assert_eq!(seq[0].to_dense(), par[0].to_dense());
        prop_assert_eq!(seq[1].to_dense(), par[1].to_dense());
    }

    /// A cached plan replay equals a freshly inspected plan on every
    /// timestep — before and after a remap invalidation.
    #[test]
    fn cached_replay_equals_fresh_inspection_across_remap(
        n in 16usize..48,
        np in 1usize..5,
        ka in 0u8..6,
        kb in 0u8..6,
        seed in 0u64..1000,
        combine_k in 0u8..4,
    ) {
        let mk_prog = || {
            let mut p = Program::new(build_arrays(n, np, ka, kb, seed));
            let stmt = build_stmt(n as i64, combine_k, &p.arrays);
            p.push(stmt).unwrap();
            p
        };
        let mut cached = Session::new(mk_prog());
        let mut fresh = Session::new(mk_prog());
        for _ in 0..3 {
            cached.run(1).unwrap();
            fresh.program_mut().clear_plan_cache(); // force re-inspection every timestep
            fresh.run(1).unwrap();
            prop_assert_eq!(
                cached.program().arrays[0].to_dense(),
                fresh.program().arrays[0].to_dense()
            );
        }
        prop_assert_eq!(cached.program().cache_misses(), 1);
        prop_assert_eq!(cached.program().cache_hits(), 2);

        // REDISTRIBUTE B to a different mapping family (same allocation
        // shared by both programs) — the cached program must re-inspect
        let new_map = mapping_of(kb + 1, n, np, seed ^ 0xbeef);
        cached.program_mut().remap(1, new_map.clone()).unwrap();
        fresh.program_mut().remap(1, new_map).unwrap();
        prop_assert_eq!(
            cached.program().arrays[1].to_dense(),
            fresh.program().arrays[1].to_dense()
        );
        for _ in 0..2 {
            cached.run(1).unwrap();
            fresh.program_mut().clear_plan_cache();
            fresh.run(1).unwrap();
            prop_assert_eq!(
                cached.program().arrays[0].to_dense(),
                fresh.program().arrays[0].to_dense()
            );
        }
        prop_assert_eq!(cached.program().cache_misses(), 2, "remap invalidates exactly once");
        prop_assert_eq!(cached.program().cache_hits(), 3);
    }
}

/// Deterministic acceptance check: an iterated 2-D stencil program replays
/// its compiled plans (hit counter), the plan's ghost volumes agree with
/// the region-algebraic ghost analysis, and numerics match the reference.
#[test]
fn iterated_stencil_amortizes_inspection() {
    let n = 16i64;
    let np = 4usize;
    let mut ds = DataSpace::new(np);
    ds.declare_processors("G", IndexDomain::of_shape(&[2, 2]).unwrap()).unwrap();
    let p = ds.declare("P", IndexDomain::standard(&[(1, n), (1, n)]).unwrap()).unwrap();
    let u = ds.declare("U", IndexDomain::standard(&[(1, n), (1, n)]).unwrap()).unwrap();
    for id in [p, u] {
        ds.distribute(id, &DistributeSpec::to(vec![FormatSpec::Block, FormatSpec::Block], "G"))
            .unwrap();
    }
    let mut prog = Program::new(vec![
        DistArray::new("P", ds.effective(p).unwrap(), np, 0.0),
        DistArray::from_fn("U", ds.effective(u).unwrap(), np, |i| (i[0] * 100 + i[1]) as f64),
    ]);
    let doms: Vec<&IndexDomain> = prog.arrays.iter().map(|a| a.domain()).collect();
    let stmt = Assignment::new(
        0,
        Section::from_triplets(vec![span(2, n - 1), span(2, n - 1)]),
        vec![
            Term::new(1, Section::from_triplets(vec![span(1, n - 2), span(2, n - 1)])),
            Term::new(1, Section::from_triplets(vec![span(3, n), span(2, n - 1)])),
            Term::new(1, Section::from_triplets(vec![span(2, n - 1), span(1, n - 2)])),
            Term::new(1, Section::from_triplets(vec![span(2, n - 1), span(3, n)])),
        ],
        Combine::Sum,
        &doms,
    )
    .unwrap();

    // the plan's gather schedules see exactly the SUPERB overlap areas
    let maps: Vec<Arc<EffectiveDist>> =
        prog.arrays.iter().map(|a| a.mapping().clone()).collect();
    let plan = ExecPlan::inspect(&prog.arrays, &stmt).unwrap();
    let ghosts = ghost_regions(&maps, np, &stmt);
    for (pp, g) in plan.per_proc().iter().zip(&ghosts) {
        assert_eq!(pp.ghost_elements(), g.volume, "{}", pp.proc);
    }
    assert_eq!(plan.ghost_elements() as u64, plan.analysis().remote_reads);

    prog.push(stmt.clone()).unwrap();
    let mut sess = Session::new(prog);
    let timesteps = 25u64;
    for _ in 0..timesteps {
        let expect = dense_reference(&sess.program().arrays, &stmt);
        sess.run(1).unwrap();
        assert_eq!(sess.program().arrays[0].to_dense(), expect);
    }
    assert_eq!(sess.program().cache_misses(), 1, "one inspection for the whole loop");
    assert_eq!(sess.program().cache_hits(), timesteps - 1);
}
