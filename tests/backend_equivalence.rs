//! Backend-equivalence property suite: the `Channels` message-passing
//! SPMD executor, the `SharedMem` staged-copy backend (inline and under a
//! thread bound), fused and unfused, and the dense naive oracle all agree
//! bit-for-bit over random block / cyclic(k) / general-block / replicated
//! mappings — and the bytes each backend actually puts on the wire match
//! the frozen schedules exactly (and, for partitioning mappings, the
//! frozen `CommAnalysis` pair for pair).
//!
//! This is what finally *validates* the paper's statically-computed
//! communication sets against a real distributed-memory execution model:
//! each `Channels` worker owns only its local shards, so any element the
//! schedule fails to ship would be read as stale/zero data and break the
//! equality with the oracle.

mod common;

use hpf::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

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

/// One of the paper's mapping families, selected by `kind` (kind % 6 == 5
/// is full replication — the only non-partitioning family).
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
        DistArray::from_fn("B", mapping_of(kb, n, np, seed ^ 0x517c), np, |i| {
            (i[0] * 11 - 3) as f64
        }),
    ]
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

/// A random 2-D mapping over an `np_side × np_side` grid (kind == 16 is
/// full replication).
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
        &DistributeSpec::to(vec![fmt(kind % 4, seed), fmt(kind / 4, seed ^ 0x2e)], "G"),
    )
    .unwrap();
    ds.effective(a).unwrap()
}

/// A 2-D stencil-flavored statement over `A(2:n-1, 2:n-1)`.
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

/// Run one statement on every row of the configuration matrix over
/// identically-initialized arrays and assert they all equal the dense
/// oracle; then assert the wire accounting: every backend moved exactly
/// the frozen schedule's bytes, and for partitioning mappings that equals
/// the frozen `CommAnalysis` down to the per-pair entries.
fn assert_backends_agree(
    arrays: Vec<DistArray<f64>>,
    stmt: &Assignment,
    partitioned: bool,
) {
    let plan = Arc::new(ExecPlan::inspect(&arrays, stmt).unwrap());
    let expect = dense_reference(&arrays, stmt);
    for config in common::MATRIX {
        // clones share the mapping allocations
        let mut prog = Program::new(arrays.clone());
        prog.push(stmt.clone()).unwrap();
        let mut sess = config.apply(Session::new(prog));
        sess.run(1).unwrap();
        let prog = sess.program();
        assert_eq!(prog.arrays[0].to_dense(), expect, "{config:?} ≡ oracle");
        assert_eq!(prog.arrays[1].to_dense(), arrays[1].to_dense(), "{config:?}: RHS untouched");
        // bytes on the wire: measured == the frozen plan's remote runs, always
        // (a cold timestep ships everything, fused or not)
        assert_eq!(prog.stats().bytes_sent, plan.wire_bytes(), "{config:?}");
        let fs = prog.fusion_stats();
        if !config.fused {
            assert_eq!(fs.messages_after, fs.messages_before, "unfused coalesces nothing");
        }
        if config.backend == Backend::Channels {
            assert_eq!(prog.spmd_workers_spawned(), prog.np() as u64, "{config:?} ran the fleet");
        }
    }
    if partitioned {
        // ... and exactly the frozen CommAnalysis for partitioning
        // mappings, down to each (sender, receiver) entry
        let analysis = plan.analysis();
        assert_eq!(plan.analysis_verdict(), AnalysisVerdict::Exact);
        assert_eq!(plan.wire_bytes(), analysis.total_bytes());
        assert_eq!(plan.messages(), analysis.comm.messages());
        let fused = ProgramPlan::compile(std::slice::from_ref(stmt), vec![plan.clone()], true);
        assert_eq!(fused.pairs().len(), plan.messages());
        for pair in fused.pairs() {
            assert_eq!(
                pair.elements as u64,
                analysis
                    .comm
                    .elements_between(ProcId(pair.sender + 1), ProcId(pair.receiver + 1)),
                "pair {} → {}",
                pair.sender + 1,
                pair.receiver + 1
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// 1-D: every configuration ≡ dense oracle over random mapping-family
    /// pairs, with exact wire accounting.
    #[test]
    fn backends_agree_1d(
        n in 16usize..48,
        np in 1usize..5,
        ka in 0u8..6,
        kb in 0u8..6,
        seed in 0u64..1000,
        combine_k in 0u8..4,
    ) {
        let arrays = build_arrays(n, np, ka, kb, seed);
        let stmt = build_stmt(n as i64, combine_k, &arrays);
        let partitioned = ka % 6 != 5 && kb % 6 != 5;
        assert_backends_agree(arrays, &stmt, partitioned);
    }

    /// 2-D: the same equivalence over random per-dimension block /
    /// cyclic(k) / general-block formats and replicated mappings.
    #[test]
    fn backends_agree_2d(
        n in 6usize..14,
        np_side in 1usize..3,
        ka in 0u8..17,
        kb in 0u8..17,
        seed in 0u64..1000,
        combine_k in 0u8..4,
    ) {
        let np = np_side * np_side;
        let arrays = vec![
            DistArray::from_fn("A", mapping_2d(ka, n, np_side, seed), np, |i| {
                (i[0] * 29 + i[1]) as f64
            }),
            DistArray::from_fn("B", mapping_2d(kb, n, np_side, seed ^ 0x4d), np, |i| {
                (i[0] - 3 * i[1]) as f64
            }),
        ];
        let stmt = build_stmt_2d(n as i64, combine_k, &arrays);
        assert_backends_agree(arrays, &stmt, ka < 16 && kb < 16);
    }

    /// Iterated session timesteps agree across exchange backends, with
    /// the plan cache shared and the per-statement wire bytes accumulated
    /// faithfully on both.
    #[test]
    fn program_run_on_backends_agree(
        n in 16usize..40,
        np in 2usize..5,
        ka in 0u8..5,
        kb in 0u8..5,
        seed in 0u64..1000,
        combine_k in 0u8..4,
        timesteps in 1usize..4,
    ) {
        let mk_prog = || {
            let mut p = Program::new(build_arrays(n, np, ka, kb, seed));
            let stmt = build_stmt(n as i64, combine_k, &p.arrays);
            p.push(stmt).unwrap();
            p
        };
        let mut shared = Session::new(mk_prog()).backend(Backend::SharedMem);
        let mut channels = Session::new(mk_prog()).backend(Backend::Channels);
        let mut per_step = 0u64;
        let mut prev_shared = 0u64;
        let mut prev_channels = 0u64;
        for t in 0..timesteps {
            shared.run(1).unwrap();
            channels.run(1).unwrap();
            let a1 = shared.last_analyses().to_vec();
            let a2 = channels.last_analyses().to_vec();
            prop_assert_eq!(a1[0].comm.clone(), a2[0].comm.clone());
            prop_assert_eq!(
                shared.program().arrays[0].to_dense(),
                channels.program().arrays[0].to_dense()
            );
            let step_shared = shared.program().backend_bytes_sent() - prev_shared;
            let step_channels = channels.program().backend_bytes_sent() - prev_channels;
            prev_shared = shared.program().backend_bytes_sent();
            prev_channels = channels.program().backend_bytes_sent();
            // both backends drive the identical fused schedule and dirty
            // mask, so their wire accounting must agree byte for byte
            prop_assert_eq!(step_shared, step_channels);
            if t == 0 {
                per_step = step_shared;
                // cold timestep ships everything: for partitioning
                // mappings the wire is exactly the analysis
                prop_assert_eq!(per_step, a1[0].total_bytes());
            } else {
                // ghost-region reuse may only ever *shrink* a warm
                // timestep's traffic, never grow it
                prop_assert!(
                    step_shared <= per_step,
                    "warm timestep sent {} bytes > cold {}",
                    step_shared,
                    per_step
                );
            }
        }
        prop_assert_eq!(channels.program().spmd_workers_spawned(), np as u64,
            "worker fleet spawned once, reused every timestep");
        prop_assert_eq!(shared.program().spmd_workers_spawned(), 0);
    }
}

/// Deterministic acceptance check: a 2-D block stencil program produces
/// identical trajectories on both backends across remap invalidation, and
/// the Channels fleet persists across all of it.
#[test]
fn stencil_program_identical_across_backends_and_remap() {
    let n = 20i64;
    let np = 4usize;
    let mk = || {
        let mut ds = DataSpace::new(np);
        ds.declare_processors("G", IndexDomain::of_shape(&[2, 2]).unwrap()).unwrap();
        let p = ds.declare("P", IndexDomain::standard(&[(1, n), (1, n)]).unwrap()).unwrap();
        let u = ds.declare("U", IndexDomain::standard(&[(1, n), (1, n)]).unwrap()).unwrap();
        for id in [p, u] {
            ds.distribute(
                id,
                &DistributeSpec::to(vec![FormatSpec::Block, FormatSpec::Block], "G"),
            )
            .unwrap();
        }
        let mut prog = Program::new(vec![
            DistArray::new("P", ds.effective(p).unwrap(), np, 0.0),
            DistArray::from_fn("U", ds.effective(u).unwrap(), np, |i| {
                (i[0] * 100 + i[1]) as f64
            }),
        ]);
        let doms: Vec<&IndexDomain> = prog.arrays.iter().map(|a| a.domain()).collect();
        let sweep = Assignment::new(
            0,
            Section::from_triplets(vec![span(2, n - 1), span(2, n - 1)]),
            vec![
                Term::new(1, Section::from_triplets(vec![span(1, n - 2), span(2, n - 1)])),
                Term::new(1, Section::from_triplets(vec![span(3, n), span(2, n - 1)])),
            ],
            Combine::Sum,
            &doms,
        )
        .unwrap();
        prog.push(sweep).unwrap();
        prog
    };
    let mut shared = Session::new(mk()).backend(Backend::SharedMem);
    let mut channels = Session::new(mk()).backend(Backend::Channels);
    for _ in 0..3 {
        shared.run(1).unwrap();
        channels.run(1).unwrap();
        assert_eq!(
            shared.program().arrays[0].to_dense(),
            channels.program().arrays[0].to_dense()
        );
    }
    // REDISTRIBUTE U to cyclic: plans invalidate, backends still agree
    let remap_target = || {
        let mut ds = DataSpace::new(np);
        ds.declare_processors("G", IndexDomain::of_shape(&[2, 2]).unwrap()).unwrap();
        let u = ds.declare("U", IndexDomain::standard(&[(1, n), (1, n)]).unwrap()).unwrap();
        ds.distribute(
            u,
            &DistributeSpec::to(vec![FormatSpec::Cyclic(1), FormatSpec::Cyclic(2)], "G"),
        )
        .unwrap();
        ds.effective(u).unwrap()
    };
    shared.program_mut().remap(1, remap_target()).unwrap();
    channels.program_mut().remap(1, remap_target()).unwrap();
    for _ in 0..2 {
        shared.run(1).unwrap();
        channels.run(1).unwrap();
        assert_eq!(
            shared.program().arrays[0].to_dense(),
            channels.program().arrays[0].to_dense()
        );
    }
    let channels = channels.into_program();
    assert_eq!(channels.cache_misses(), 2, "one cold miss + one remap invalidation");
    assert_eq!(
        channels.spmd_workers_spawned(),
        np as u64,
        "the SPMD fleet survives plan invalidation"
    );
}
