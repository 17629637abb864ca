//! Static schedule verification across the whole mapping space: every plan
//! the inspector compiles for random block / cyclic / general-block /
//! replicated mappings (1-D and 2-D) must *prove* the five safety
//! properties — write coverage, bounds, race freedom, deadlock freedom,
//! conservation — with replication reported as the explicit divergence
//! verdict rather than silently skipped. (The shipped `.hpf` programs are
//! verified end to end by `hpf_pipeline`.)

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

/// One of the paper's 1-D mapping families, selected by `kind` (5 =
/// replicated).
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

/// A random 2-D mapping over an `np_side × np_side` grid (16 = replicated).
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

/// A 2-D stencil statement over `A(2:n-1, 2:n-1)` with shifted `B` reads.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every plan the inspector compiles for a random pair of 1-D mappings
    /// proves all five properties, and partitioning mappings get the
    /// `Exact` conservation verdict (replication gets the explicit
    /// `ReplicatedDivergence` verdict — reported, never a finding).
    #[test]
    fn random_1d_plans_verify_clean(
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
        let report = verify_plan(&arrays, &stmt, &plan);
        prop_assert!(report.is_clean(), "{report}");
        let replicated = ka % 6 == 5 || kb % 6 == 5;
        if !replicated {
            prop_assert_eq!(report.verdict, AnalysisVerdict::Exact, "{}", report);
        }
        prop_assert!(report.verdict != AnalysisVerdict::Divergent);
    }

    /// Same for 2-D grids: random per-dimension formats and replication.
    #[test]
    fn random_2d_plans_verify_clean(
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
                (i[0] * 31 + i[1]) as f64
            }),
            DistArray::from_fn("B", mapping_2d(kb, n, np_side, seed ^ 0x77), np, |i| {
                (i[0] - 2 * i[1]) as f64
            }),
        ];
        let stmt = build_stmt_2d(n as i64, combine_k, &arrays);
        let plan = ExecPlan::inspect(&arrays, &stmt).unwrap();
        let report = verify_plan(&arrays, &stmt, &plan);
        prop_assert!(report.is_clean(), "{report}");
        if ka < 16 && kb < 16 {
            prop_assert_eq!(report.verdict, AnalysisVerdict::Exact, "{}", report);
        }
    }
}

/// Lower one of the shipped `examples/programs/*.hpf` over 4 processors.
fn lowered(name: &str) -> Program {
    let path = format!("{}/../../examples/programs/{name}.hpf", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap();
    let elab = Elaborator::new(4).run(&src).expect("elaborates");
    let (lowered, diags) = Lowerer::lower(&elab);
    assert!(diags.is_empty(), "{name}: {diags:?}");
    lowered.program
}

/// A replicated operand carries the explicit `ReplicatedDivergence`
/// verdict — the once-silent analysis divergence is now a documented,
/// queryable outcome.
#[test]
fn replicated_scenario_reports_divergence_verdict() {
    // A(1:16) = B(1:16) + C(1:16): A block-balanced, B CYCLIC(3), C
    // replicated on every processor
    let arrays: Vec<DistArray<f64>> = [("A", 1), ("B", 3), ("C", 5)]
        .into_iter()
        .map(|(name, kind)| {
            DistArray::from_fn(name, mapping_of(kind, 16, 4, 0), 4, |i| i[0] as f64)
        })
        .collect();
    let doms: Vec<&IndexDomain> = arrays.iter().map(|a| a.domain()).collect();
    let full = Section::from_triplets(vec![span(1, 16)]);
    let stmt = Assignment::new(
        0,
        full.clone(),
        vec![Term::new(1, full.clone()), Term::new(2, full)],
        Combine::Sum,
        &doms,
    )
    .unwrap();
    let mut prog = Program::new(arrays);
    prog.push(stmt).unwrap();
    let report = prog.verify_all().unwrap();
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.statements[0].verdict, AnalysisVerdict::ReplicatedDivergence);
    assert_eq!(report.replicated_statements(), 1);

    // and a fully-partitioned program is Exact
    let mut prog = lowered("quickstart");
    let report = prog.verify_all().unwrap();
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.statements[0].verdict, AnalysisVerdict::Exact);
    assert_eq!(report.replicated_statements(), 0);
}

/// Verification runs on the *re-inspected* plan after a mid-program
/// REDISTRIBUTE: the sweep has already executed under BLOCK and been
/// remapped live onto `dynamic_rebalance.hpf`'s GENERAL_BLOCK by the time
/// `verify_all` sees it.
#[test]
fn rebalanced_program_verifies_clean_after_remap() {
    let mut prog = lowered("dynamic_rebalance");
    let general_block = prog.arrays[0].mapping().clone();
    prog.remap(0, mapping_of(0, 32, 4, 0)).expect("start from BLOCK");
    let mut sess = Session::new(prog);
    sess.run(1).expect("pre-rebalance sweep");
    let mut prog = sess.into_program();
    prog.remap(0, general_block).expect("redistribute");
    let report = prog.verify_all().unwrap();
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.statements[0].verdict, AnalysisVerdict::Exact);
}

// ---- compute-piece table: one mutation per diagnostic ---------------------

/// `A(2:n) = A(1:n-1) + B(1:n-1)` over 64-element blocks: term 0 names the
/// LHS array and is staged, term 1 is read in place, and every processor
/// but the first has a ghost piece ahead of its local piece.
fn direct_setup() -> (Vec<DistArray<f64>>, Assignment, ExecPlan) {
    let n = 256i64;
    let arrays = build_arrays(n as usize, 4, 0, 0, 7);
    let doms: Vec<&IndexDomain> = arrays.iter().map(|a| a.domain()).collect();
    let rhs = Section::from_triplets(vec![span(1, n - 1)]);
    let stmt = Assignment::new(
        0,
        Section::from_triplets(vec![span(2, n)]),
        vec![Term::new(0, rhs.clone()), Term::new(1, rhs)],
        Combine::Sum,
        &doms,
    )
    .unwrap();
    let plan = ExecPlan::inspect(&arrays, &stmt).unwrap();
    assert!(verify_plan(&arrays, &stmt, &plan).is_clean());
    let pp = &plan.per_proc()[1];
    assert!(!pp.terms[0].direct && pp.terms[1].direct);
    assert_eq!(pp.piece_srcs.len(), pp.pieces.len() * 2);
    (arrays, stmt, plan)
}

/// Corrupt processor 1's schedule with `mutate` and return the kinds the
/// verifier reports.
fn kinds_after(mutate: impl FnOnce(&mut ProcPlan)) -> Vec<DiagnosticKind> {
    let (arrays, stmt, mut plan) = direct_setup();
    mutate(&mut plan.per_proc_mut()[1]);
    verify_plan(&arrays, &stmt, &plan).diagnostics.into_iter().map(|d| d.kind).collect()
}

/// Index into `piece_srcs` of processor 1's first in-place read of term 1.
fn first_own(pp: &ProcPlan) -> usize {
    pp.piece_srcs
        .iter()
        .position(|s| matches!(s, PieceSrc::Own(_)))
        .expect("term 1 is direct")
}

#[test]
fn truncated_source_list_is_a_malformed_piece_table() {
    let kinds = kinds_after(|pp| {
        pp.piece_srcs.pop();
    });
    assert!(
        kinds.iter().any(|k| matches!(k, DiagnosticKind::PieceTableMalformed { proc: 1, .. })),
        "{kinds:?}"
    );
}

#[test]
fn dropped_piece_breaks_the_tiling() {
    let kinds = kinds_after(|pp| {
        pp.pieces.remove(0);
        pp.piece_srcs.drain(..2);
    });
    assert!(
        kinds.iter().any(|k| matches!(
            k,
            DiagnosticKind::PieceTilingMismatch { proc: 1, piece: 0, expected: 0, .. }
        )),
        "{kinds:?}"
    );
}

#[test]
fn piece_storing_beside_its_store_run_is_caught() {
    let kinds = kinds_after(|pp| pp.pieces[1].dst_off -= 1);
    assert!(
        kinds.iter().any(|k| matches!(k, DiagnosticKind::PieceStoreMismatch { proc: 1, piece: 1, .. })),
        "{kinds:?}"
    );
}

#[test]
fn in_place_read_past_the_own_shard_is_caught() {
    let kinds = kinds_after(|pp| {
        let i = first_own(pp);
        pp.piece_srcs[i] = PieceSrc::Own(usize::MAX / 2);
    });
    assert!(
        kinds.iter().any(|k| matches!(k, DiagnosticKind::DirectSourceOutOfShard { proc: 1, term: 1, .. })),
        "{kinds:?}"
    );
}

#[test]
fn in_place_read_of_the_wrong_element_is_caught() {
    // stays inside the shard, but is no longer the element the gather
    // schedule names for that position
    let kinds = kinds_after(|pp| {
        let i = first_own(pp);
        let PieceSrc::Own(off) = pp.piece_srcs[i] else { unreachable!() };
        pp.piece_srcs[i] = PieceSrc::Own(off + 1);
        let piece = i / 2;
        pp.pieces[piece].len -= 1; // keep the shifted read inside the shard
    });
    assert!(
        kinds.iter().any(|k| matches!(k, DiagnosticKind::DirectSourceMismatch { proc: 1, term: 1, .. })),
        "{kinds:?}"
    );
}

#[test]
fn in_place_read_of_the_stored_array_is_caught() {
    // term 0 names the LHS array: reading it in place would see elements
    // the kernel already overwrote
    let kinds = kinds_after(|pp| {
        let i = first_own(pp);
        let PieceSrc::Own(off) = pp.piece_srcs[i] else { unreachable!() };
        pp.piece_srcs[i - 1] = PieceSrc::Own(off);
    });
    assert!(
        kinds.iter().any(|k| matches!(
            k,
            DiagnosticKind::DirectReadsStoredArray { proc: 1, term: 0, array: 0 }
        )),
        "{kinds:?}"
    );
}

#[test]
fn packed_read_of_an_unstaged_local_run_is_caught() {
    // a direct term's local runs are never staged, so pointing its piece
    // back at the packed buffer reads positions nothing fills
    let kinds = kinds_after(|pp| {
        let i = first_own(pp);
        pp.piece_srcs[i] = PieceSrc::Packed;
    });
    assert!(
        kinds.iter().any(|k| matches!(k, DiagnosticKind::UnpackedLocalRead { proc: 1, term: 1, .. })),
        "{kinds:?}"
    );
}

// ---- strided gather runs: one mutation per progression field --------------

/// Corrupt a stride or the length of a strided [`CopyRun`] — local and
/// remote, with the stride on the packed side (`BLOCK` ← `CYCLIC(1)`) and
/// on the source side (`CYCLIC(1)` ← `BLOCK`): every corruption must be
/// refuted, by the diagnostic that names what it broke.
#[test]
fn corrupted_strides_and_strided_lengths_of_a_copy_run_are_caught() {
    use DiagnosticKind as K;
    type Mutation = (&'static str, fn(&mut CopyRun), fn(&K) -> bool);
    let mutations: [Mutation; 6] = [
        // other source elements than the statement names (or none at all)
        ("src_stride + 1", |r| r.src_stride += 1, |k| {
            matches!(k, K::GatherWrongElement { .. } | K::CopyRunOutOfBounds { .. })
        }),
        ("src_stride = 0", |r| r.src_stride = 0, |k| matches!(k, K::GatherWrongElement { .. })),
        // other packed positions: someone else's, or past the buffer
        ("dst_stride + 1", |r| r.dst_stride += 1, |k| {
            matches!(k, K::PackOverlap { .. } | K::PackRunOutOfBounds { .. })
        }),
        ("dst_stride = 0", |r| r.dst_stride = 0, |k| matches!(k, K::PackOverlap { .. })),
        // a progression cut short leaves its last position unfilled
        ("len - 1", |r| r.len -= 1, |k| matches!(k, K::PackGap { .. })),
        // one element too many lands on a neighbour or leaves a buffer
        ("len + 1", |r| r.len += 1, |k| {
            matches!(
                k,
                K::PackOverlap { .. } | K::PackRunOutOfBounds { .. } | K::CopyRunOutOfBounds { .. }
            )
        }),
    ];
    for (ka, kb) in [(0u8, 2u8), (2, 0)] {
        let arrays = build_arrays(64, 4, ka, kb, 1);
        let stmt = build_stmt(64, 0, &arrays);
        let pristine = ExecPlan::inspect(&arrays, &stmt).unwrap();
        assert!(verify_plan(&arrays, &stmt, &pristine).is_clean());
        for remote in [false, true] {
            for (what, mutate, names_it) in mutations {
                let mut plan = pristine.clone();
                let pp = &mut plan.per_proc_mut()[1];
                let run = pp.terms[0]
                    .runs
                    .iter_mut()
                    .find(|r| (r.src != 1) == remote && r.len >= 3 && !r.is_unit())
                    .expect("every source contributes one strided run");
                mutate(run);
                let report = verify_plan(&arrays, &stmt, &plan);
                let kinds: Vec<&K> = report.diagnostics.iter().map(|d| &d.kind).collect();
                assert!(kinds.iter().any(|k| names_it(k)), "{what} (remote: {remote}):\n{report}");
                if remote {
                    // the same corruption on the send side: the fused
                    // segment serving that run no longer pairs up with it
                    let stmts = std::slice::from_ref(&stmt);
                    let mut fused =
                        ProgramPlan::compile(stmts, vec![Arc::new(pristine.clone())], true);
                    let seg = fused
                        .pairs_mut()
                        .iter_mut()
                        .filter(|p| p.receiver == 1)
                        .flat_map(|p| &mut p.segments)
                        .find(|s| s.len >= 3 && (s.src_stride, s.dst_stride) != (1, 1))
                        .expect("the strided remote run is shipped as one segment");
                    let mut run = CopyRun {
                        src: 0,
                        src_off: seg.src_off,
                        src_stride: seg.src_stride,
                        dst_off: seg.dst_off,
                        dst_stride: seg.dst_stride,
                        len: seg.len,
                    };
                    mutate(&mut run);
                    (seg.src_stride, seg.dst_stride, seg.len) =
                        (run.src_stride, run.dst_stride, run.len);
                    let report = verify_program_plan(&arrays, stmts, &fused);
                    assert!(
                        report.findings_for(Property::DeadlockFreedom).any(|d| {
                            matches!(
                                d.kind,
                                K::FusedSegmentOrphan { .. } | K::FusedSegmentMissing { .. }
                            )
                        }),
                        "{what}:\n{report}"
                    );
                }
            }
        }
    }
}
