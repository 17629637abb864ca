//! Equivalence suite for operands read in place: every configuration of
//! the one step path — `SharedMem`, `SharedMem` with a thread bound, and
//! `Channels`, each fused and unfused (`common::MATRIX`) — must stay
//! **bit-identical** to the dense oracle on exactly the statement shapes
//! where skipping the pack snapshot could go wrong: LHS aliasing,
//! same-superstep write-after-read, replicated operands, mixed
//! direct/staged terms, run lengths at the direct threshold, and
//! degenerate processor counts.
//!
//! The random suites (`backend_equivalence`, `plan_equivalence`,
//! `program_fusion`) use extents too small for any term to reach the
//! direct threshold, so these deterministic cases are what drives the
//! in-place path through every configuration.

mod common;

use hpf::prelude::*;
use std::sync::Arc;

/// How one test array is mapped.
enum Map {
    Fmt(FormatSpec),
    Replicated,
}

use Map::{Fmt, Replicated};

/// 1-D arrays over `1..=n` with non-dyadic values, so a kernel that
/// associated a sum differently from the oracle would differ in the last
/// bit.
fn arrays_1d(n: usize, np: usize, maps: &[Map]) -> Vec<DistArray<f64>> {
    maps.iter()
        .enumerate()
        .map(|(k, m)| {
            let dom = IndexDomain::of_shape(&[n]).unwrap();
            let mapping = match m {
                Replicated => {
                    Arc::new(EffectiveDist::Replicated { domain: dom, procs: ProcSet::all(np) })
                }
                Fmt(f) => {
                    let mut ds = DataSpace::new(np);
                    let id = ds.declare("M", dom).unwrap();
                    ds.distribute(id, &DistributeSpec::new(vec![f.clone()])).unwrap();
                    ds.effective(id).unwrap()
                }
            };
            DistArray::from_fn(&format!("A{k}"), mapping, np, |i| {
                ((i[0] * 37 + k as i64 * 11) % 101) as f64 * 0.1 + 1e-3 * (k as f64 + 1.0)
            })
        })
        .collect()
}

/// `A<lhs>(lo:hi) = combine(A<k>(lo+shift : hi+shift) …)` for `(k, shift)`
/// terms.
fn stmt_1d(
    arrays: &[DistArray<f64>],
    lhs: usize,
    (lo, hi): (i64, i64),
    terms: &[(usize, i64)],
    combine: Combine,
) -> Assignment {
    let doms: Vec<&IndexDomain> = arrays.iter().map(|a| a.domain()).collect();
    let terms = terms
        .iter()
        .map(|&(k, shift)| {
            Term::new(k, Section::from_triplets(vec![span(lo + shift, hi + shift)]))
        })
        .collect();
    Assignment::new(lhs, Section::from_triplets(vec![span(lo, hi)]), terms, combine, &doms)
        .unwrap()
}

fn assert_bits(got: &[DistArray<f64>], want: &[Vec<f64>], path: &str) {
    for (k, (a, w)) in got.iter().zip(want).enumerate() {
        let dense = a.to_dense();
        let same = dense.iter().zip(w).all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(same, "{path}: array #{k} is not bit-identical to the dense oracle");
    }
}

/// Run `stmts` for `steps` timesteps on every row of the configuration
/// matrix and hold each to the dense oracle bit for bit. Returns the
/// inspected plans so a case can assert which terms its shape made direct.
fn check_all_paths(
    arrays: Vec<DistArray<f64>>,
    stmts: &[Assignment],
    steps: usize,
) -> Vec<Arc<ExecPlan>> {
    let domains: Vec<IndexDomain> = arrays.iter().map(|a| a.domain().clone()).collect();
    let mut oracle: Vec<Vec<f64>> = arrays.iter().map(|a| a.to_dense()).collect();
    for _ in 0..steps {
        for s in stmts {
            apply_dense(&mut oracle, &domains, s);
        }
    }
    let plans: Vec<Arc<ExecPlan>> = stmts
        .iter()
        .map(|s| {
            let plan = ExecPlan::inspect(&arrays, s).unwrap();
            let report = verify_plan(&arrays, s, &plan);
            assert!(report.is_clean(), "{report}");
            Arc::new(plan)
        })
        .collect();
    for config in common::MATRIX {
        let mut prog = Program::new(arrays.clone());
        for s in stmts {
            prog.push(s.clone()).unwrap();
        }
        let mut sess = config.apply(Session::new(prog));
        // one timestep per run call, so warm replays (ghost reuse, the
        // persistent worker buffers) are part of what is checked
        for _ in 0..steps {
            sess.run(1).unwrap();
        }
        assert_bits(&sess.program().arrays, &oracle, &format!("{config:?}"));
    }
    plans
}

/// True iff some processor reads term `t` of `plan` in place.
fn direct(plan: &ExecPlan, t: usize) -> bool {
    plan.per_proc().iter().any(|pp| pp.terms[t].direct)
}

#[test]
fn shifted_self_reference_keeps_its_snapshot() {
    // A(2:n) = A(1:n-1) + B(1:n-1): the aliasing term must read
    // pre-assignment values although the kernel overwrites A's shard as it
    // goes; B is read in place beside it
    let n = 256usize;
    let arrays = arrays_1d(n, 4, &[Fmt(FormatSpec::Block), Fmt(FormatSpec::Block)]);
    for combine in [Combine::Sum, Combine::Average, Combine::Max] {
        let stmt = stmt_1d(&arrays, 0, (2, n as i64), &[(0, -1), (1, -1)], combine);
        let plans = check_all_paths(arrays.clone(), &[stmt], 3);
        assert!(!direct(&plans[0], 0), "a term naming the LHS array is staged");
        assert!(direct(&plans[0], 1), "the other array is read in place");
    }
    // and the pure self-shift, where nothing is direct
    let stmt = stmt_1d(&arrays, 0, (2, n as i64), &[(0, -1)], Combine::Copy);
    let plans = check_all_paths(arrays, &[stmt], 3);
    assert!(!direct(&plans[0], 0));
}

#[test]
fn same_superstep_war_with_a_direct_reader() {
    // C = A + B reads A in place; A = B overwrites it in the same
    // superstep (WAR fuses). Program-order compute keeps the reader ahead
    // of the writer on every backend.
    let n = 192usize;
    let block = || Fmt(FormatSpec::Block);
    let arrays = arrays_1d(n, 3, &[block(), block(), block()]);
    let hi = n as i64;
    let reader = stmt_1d(&arrays, 2, (1, hi), &[(0, 0), (1, 0)], Combine::Sum);
    let writer = stmt_1d(&arrays, 0, (1, hi), &[(1, 0)], Combine::Copy);
    let stmts = [reader, writer];
    let plans = check_all_paths(arrays.clone(), &stmts, 3);
    assert!(direct(&plans[0], 0) && direct(&plans[0], 1));
    let fused = ProgramPlan::compile(&stmts, plans, true);
    assert_eq!(fused.supersteps().len(), 1, "WAR shares a superstep");
    assert!(verify_program_plan(&arrays, &stmts, &fused).is_clean());
}

#[test]
fn writer_is_not_hoisted_before_a_deeper_direct_reader() {
    // T = B; C = T + A (level 1, reads A in place); A = A + B. Levelled by
    // RAW/WAW alone the last statement lands in superstep 0, ahead of the
    // statement that still has to read A.
    let n = 160usize;
    let block = || Fmt(FormatSpec::Block);
    let arrays = arrays_1d(n, 4, &[block(), block(), block(), block()]);
    let hi = n as i64;
    let (a, b, c, t) = (0, 1, 2, 3);
    let stmts = [
        stmt_1d(&arrays, t, (1, hi), &[(b, 0)], Combine::Copy),
        stmt_1d(&arrays, c, (2, hi - 1), &[(t, -1), (a, 1)], Combine::Sum),
        stmt_1d(&arrays, a, (1, hi), &[(a, 0), (b, 0)], Combine::Sum),
    ];
    let plans = check_all_paths(arrays.clone(), &stmts, 3);
    assert!(direct(&plans[1], 1), "the deeper reader reads A in place");
    let fused = ProgramPlan::compile(&stmts, plans, true);
    let level_of = |s: usize| {
        fused.supersteps().iter().position(|st| st.stmts.contains(&s)).unwrap()
    };
    assert_eq!((level_of(0), level_of(1), level_of(2)), (0, 1, 1));
    assert!(verify_program_plan(&arrays, &stmts, &fused).is_clean());
}

#[test]
fn replicated_operand_is_read_from_the_own_copy() {
    let n = 200usize;
    // A = R + A: every processor holds all of R, so R never rides the wire
    // and is read in place from the processor's own replica
    let arrays = arrays_1d(n, 4, &[Fmt(FormatSpec::Block), Replicated]);
    let stmt = stmt_1d(&arrays, 0, (1, n as i64), &[(1, 0), (0, 0)], Combine::Sum);
    let plans = check_all_paths(arrays, &[stmt], 3);
    assert!(direct(&plans[0], 0));
    assert_eq!(plans[0].wire_elements(), 0);
    // R = B: every replica computes the whole section, reading its own
    // block of B in place and the rest as ghosts
    let arrays = arrays_1d(n, 4, &[Replicated, Fmt(FormatSpec::Block)]);
    let stmt = stmt_1d(&arrays, 0, (1, n as i64), &[(1, 0)], Combine::Copy);
    let plans = check_all_paths(arrays, &[stmt], 2);
    assert!(direct(&plans[0], 0));
    assert!(plans[0].wire_elements() > 0);
}

#[test]
fn cyclic_terms_stay_staged_beside_direct_ones() {
    let n = 256usize;
    let arrays = arrays_1d(
        n,
        4,
        &[Fmt(FormatSpec::Block), Fmt(FormatSpec::Cyclic(1)), Fmt(FormatSpec::Block)],
    );
    // all staged: strided local runs
    let stmt = stmt_1d(&arrays, 0, (1, n as i64), &[(1, 0)], Combine::Copy);
    let plans = check_all_paths(arrays.clone(), &[stmt], 3);
    assert!(!direct(&plans[0], 0));
    assert!(plans[0].per_proc().iter().all(|pp| pp.pieces.is_empty()));
    // mixed: the cyclic term staged, the block term in place — the piece
    // table is refined at the block term's runs only
    let stmt =
        stmt_1d(&arrays, 0, (2, n as i64 - 1), &[(1, -1), (2, 1), (1, 1)], Combine::Sum);
    let plans = check_all_paths(arrays, &[stmt], 3);
    assert!(!direct(&plans[0], 0) && direct(&plans[0], 1) && !direct(&plans[0], 2));
}

/// Which processors (zero-based) read term `t` of `plan` in place.
fn direct_procs(plan: &ExecPlan, t: usize) -> Vec<usize> {
    plan.per_proc()
        .iter()
        .filter(|pp| pp.terms[t].direct)
        .map(|pp| pp.proc.zero_based())
        .collect()
}

#[test]
fn run_lengths_straddle_the_direct_threshold() {
    let m = DIRECT_MIN_RUN as i64;
    // two 2m-element blocks; the section decides how much of each block
    // a processor computes, i.e. the length of its one local run
    let arrays = arrays_1d(4 * m as usize, 2, &[Fmt(FormatSpec::Block), Fmt(FormatSpec::Block)]);
    let cut = 2 * m; // last element of the first block
    for (lo, hi, expect) in [
        (cut - m + 2, cut + m + 1, vec![1]),   // m-1 | m+1
        (cut - m + 1, cut + m, vec![0, 1]),    // m   | m
        (cut - m, cut + m - 1, vec![0]),       // m+1 | m-1
    ] {
        let stmt = stmt_1d(&arrays, 0, (lo, hi), &[(1, 0)], Combine::Copy);
        let plans = check_all_paths(arrays.clone(), &[stmt], 2);
        assert_eq!(direct_procs(&plans[0], 0), expect, "section {lo}:{hi}");
    }
    // shifted by one, the second processor's first element turns into a
    // ghost: its local run shrinks by one and a piece boundary appears
    let stmt = stmt_1d(&arrays, 0, (cut - m + 1, cut + m + 1), &[(1, -1)], Combine::Copy);
    let plans = check_all_paths(arrays.clone(), &[stmt], 2);
    assert_eq!(direct_procs(&plans[0], 0), vec![0, 1], "m | 1 ghost + m");
    assert_eq!(plans[0].per_proc()[1].pieces.len(), 2, "ghost piece + local piece");
    let stmt = stmt_1d(&arrays, 0, (cut - m + 2, cut + m), &[(1, -1)], Combine::Copy);
    let plans = check_all_paths(arrays, &[stmt], 2);
    assert_eq!(direct_procs(&plans[0], 0), Vec::<usize>::new(), "m-1 | 1 ghost + m-1");
}

#[test]
fn column_runs_average_at_the_threshold() {
    // (BLOCK, :) over two processors: dropping the first and last row
    // leaves every processor `cols` separate column runs of `h - 1`
    // elements — the average over many runs is what decides
    let cols = 5i64;
    for h in [DIRECT_MIN_RUN as i64, DIRECT_MIN_RUN as i64 + 1] {
        let rows = 2 * h;
        let mut ds = DataSpace::new(2);
        ds.declare_processors("G", IndexDomain::of_shape(&[2, 1]).unwrap()).unwrap();
        let arrays: Vec<DistArray<f64>> = (0..2)
            .map(|k| {
                let id = ds
                    .declare(
                        &format!("M{k}"),
                        IndexDomain::standard(&[(1, rows), (1, cols)]).unwrap(),
                    )
                    .unwrap();
                ds.distribute(
                    id,
                    &DistributeSpec::to(vec![FormatSpec::Block, FormatSpec::Block], "G"),
                )
                .unwrap();
                DistArray::from_fn(&format!("A{k}"), ds.effective(id).unwrap(), 2, |i| {
                    ((i[0] * 13 + i[1] * 7) % 89) as f64 * 0.1 + k as f64
                })
            })
            .collect();
        let doms: Vec<&IndexDomain> = arrays.iter().map(|a| a.domain()).collect();
        let inner = Section::from_triplets(vec![span(2, rows - 1), span(1, cols)]);
        let stmt = Assignment::new(
            0,
            inner.clone(),
            vec![Term::new(1, inner.clone()), Term::new(0, inner)],
            Combine::Sum,
            &doms,
        )
        .unwrap();
        let plans = check_all_paths(arrays, &[stmt], 2);
        let runs = &plans[0].per_proc()[0].terms[0].runs;
        assert_eq!(runs.len(), cols as usize);
        assert!(runs.iter().all(|r| r.len as i64 == h - 1));
        assert_eq!(direct(&plans[0], 0), h > DIRECT_MIN_RUN as i64, "column runs of {}", h - 1);
    }
}

#[test]
fn degenerate_processor_counts() {
    // np = 1: everything is local and read in place
    let arrays = arrays_1d(100, 1, &[Fmt(FormatSpec::Block), Fmt(FormatSpec::Block)]);
    let stmt = stmt_1d(&arrays, 0, (2, 100), &[(1, -1), (0, -1)], Combine::Average);
    let plans = check_all_paths(arrays, &[stmt], 3);
    assert!(direct(&plans[0], 0) && !direct(&plans[0], 1));
    // np > extent: most shards are empty and nothing reaches the threshold
    let arrays = arrays_1d(3, 5, &[Fmt(FormatSpec::Block), Fmt(FormatSpec::Block)]);
    let stmt = stmt_1d(&arrays, 0, (1, 3), &[(1, 0)], Combine::Copy);
    let plans = check_all_paths(arrays, &[stmt], 2);
    assert!(!direct(&plans[0], 0));
    // empty shards beside long direct runs
    let sizes = || Fmt(FormatSpec::GeneralBlockSizes(vec![0, 100, 0, 60]));
    let arrays = arrays_1d(160, 4, &[sizes(), sizes(), Fmt(FormatSpec::Block)]);
    let stmt = stmt_1d(&arrays, 0, (2, 159), &[(1, 1), (2, -1)], Combine::Max);
    let plans = check_all_paths(arrays, &[stmt], 3);
    assert!(direct(&plans[0], 0) && direct(&plans[0], 1));
    assert!(plans[0].per_proc()[0].pieces.is_empty(), "an empty shard has no pieces");
}

#[test]
fn block_block_stencil_with_copy_back() {
    // the benchmark's shape at a size where runs clear the threshold:
    // 36-element columns per processor, ghosts in both dimensions
    let n = 72i64;
    let np = 4usize;
    let mut ds = DataSpace::new(np);
    ds.declare_processors("G", IndexDomain::of_shape(&[2, 2]).unwrap()).unwrap();
    let ids: Vec<_> = ["UNEW", "U"]
        .iter()
        .map(|name| {
            let id =
                ds.declare(name, IndexDomain::standard(&[(1, n), (1, n)]).unwrap()).unwrap();
            ds.distribute(
                id,
                &DistributeSpec::to(vec![FormatSpec::Block, FormatSpec::Block], "G"),
            )
            .unwrap();
            id
        })
        .collect();
    let arrays: Vec<DistArray<f64>> = ids
        .iter()
        .enumerate()
        .map(|(k, &id)| {
            DistArray::from_fn(&format!("A{k}"), ds.effective(id).unwrap(), np, |i| {
                ((i[0] * 31 + i[1] * 17) % 97) as f64 * 0.01 + k as f64
            })
        })
        .collect();
    let doms: Vec<&IndexDomain> = arrays.iter().map(|a| a.domain()).collect();
    let inner = Section::from_triplets(vec![span(2, n - 1), span(2, n - 1)]);
    let at = |di: i64, dj: i64| {
        Term::new(
            1,
            Section::from_triplets(vec![span(2 + di, n - 1 + di), span(2 + dj, n - 1 + dj)]),
        )
    };
    let sweep = Assignment::new(
        0,
        inner.clone(),
        vec![at(-1, 0), at(1, 0), at(0, -1), at(0, 1)],
        Combine::Sum,
        &doms,
    )
    .unwrap();
    let copy_back =
        Assignment::new(1, inner.clone(), vec![Term::new(0, inner)], Combine::Copy, &doms)
            .unwrap();
    let plans = check_all_paths(arrays, &[sweep, copy_back], 3);
    assert!((0..4).all(|t| direct(&plans[0], t)) && direct(&plans[1], 0));
}

