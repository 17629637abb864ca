//! Property tests on the runtime: execution agrees with the dense
//! reference, thread-bounded execution is bit-identical to inline
//! execution, and the region-algebraic communication analysis agrees with
//! exact element-wise enumeration on random statements.

mod common;

use common::{run_stmt, Config};
use hpf::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

fn fmt_of(k: u8) -> FormatSpec {
    match k {
        0 => FormatSpec::Block,
        1 => FormatSpec::BlockBalanced,
        2 => FormatSpec::Cyclic(1),
        3 => FormatSpec::Cyclic(2),
        _ => FormatSpec::Cyclic(5),
    }
}

/// A random 1-D scenario: two arrays with independent formats, a strided
/// LHS window and a conforming strided RHS window.
#[derive(Debug, Clone)]
struct Scenario {
    n: i64,
    np: usize,
    fmt_a: u8,
    fmt_b: u8,
    lhs_start: i64,
    rhs_start: i64,
    rhs_stride: i64,
    count: i64,
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (20i64..80, 1usize..6, 0..5u8, 0..5u8, 1i64..5, 1i64..5, 1i64..4, 3i64..12).prop_map(
        |(n, np, fmt_a, fmt_b, lhs_start, rhs_start, rhs_stride, count)| {
            // clamp so both windows fit
            let count = count
                .min(n - lhs_start)
                .min((n - rhs_start) / rhs_stride)
                .max(1);
            Scenario { n, np, fmt_a, fmt_b, lhs_start, rhs_start, rhs_stride, count }
        },
    )
}

fn build(s: &Scenario) -> (Vec<DistArray<f64>>, Assignment) {
    let mut ds = DataSpace::new(s.np);
    let a = ds.declare("A", IndexDomain::of_shape(&[s.n as usize]).unwrap()).unwrap();
    let b = ds.declare("B", IndexDomain::of_shape(&[s.n as usize]).unwrap()).unwrap();
    ds.distribute(a, &DistributeSpec::new(vec![fmt_of(s.fmt_a)])).unwrap();
    ds.distribute(b, &DistributeSpec::new(vec![fmt_of(s.fmt_b)])).unwrap();
    let arrays = vec![
        DistArray::from_fn("A", ds.effective(a).unwrap(), s.np, |i| i[0] as f64),
        DistArray::from_fn("B", ds.effective(b).unwrap(), s.np, |i| (i[0] * 31) as f64),
    ];
    let doms: Vec<&IndexDomain> = arrays.iter().map(|x| x.domain()).collect();
    let lhs_sec =
        Section::from_triplets(vec![span(s.lhs_start, s.lhs_start + s.count - 1)]);
    let rhs_sec = Section::from_triplets(vec![triplet(
        s.rhs_start,
        s.rhs_start + (s.count - 1) * s.rhs_stride,
        s.rhs_stride,
    )]);
    let stmt = Assignment::new(
        0,
        lhs_sec,
        vec![Term::new(1, rhs_sec.clone()), Term::new(0, rhs_sec)],
        Combine::Sum,
        &doms,
    )
    .unwrap();
    (arrays, stmt)
}

/// Exact element-wise analysis oracle.
fn brute_analysis(maps: &[Arc<EffectiveDist>], _np: usize, stmt: &Assignment) -> CommStats {
    let mut comm = CommStats::new();
    let shape: Vec<usize> = stmt
        .lhs_section
        .dims()
        .iter()
        .filter(|d| !d.is_scalar())
        .map(|d| d.as_triplet().len())
        .collect();
    for rel in IndexDomain::of_shape(&shape).unwrap().iter() {
        let li = stmt.lhs_index(&rel);
        let computer = maps[stmt.lhs].owner(&li);
        for (t, term) in stmt.terms.iter().enumerate() {
            let ri = stmt.rhs_index(t, &rel);
            let owners = maps[term.array].owners(&ri);
            if !owners.contains(computer) {
                comm.record(owners.iter().next().unwrap(), computer, 1);
            }
        }
    }
    comm
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Inline execution equals the dense reference.
    #[test]
    fn seq_matches_dense_reference(s in arb_scenario()) {
        let (mut arrays, stmt) = build(&s);
        let expect = dense_reference(&arrays, &stmt);
        run_stmt(&mut arrays, &stmt, Config::DEFAULT);
        prop_assert_eq!(arrays[0].to_dense(), expect);
    }

    /// Execution under a thread bound (scoped threads below `np`, the
    /// SPMD fleet from `np` up) is bit-identical to inline execution.
    #[test]
    fn par_matches_seq(s in arb_scenario(), threads in 1usize..5) {
        let (mut seq_arrays, stmt) = build(&s);
        let (mut par_arrays, _) = build(&s);
        run_stmt(&mut seq_arrays, &stmt, Config::DEFAULT);
        run_stmt(&mut par_arrays, &stmt, Config { threads, ..Config::DEFAULT });
        prop_assert_eq!(seq_arrays[0].to_dense(), par_arrays[0].to_dense());
        prop_assert_eq!(seq_arrays[1].to_dense(), par_arrays[1].to_dense());
    }

    /// The region-algebraic analysis equals element-wise enumeration.
    #[test]
    fn region_analysis_exact(s in arb_scenario()) {
        let (arrays, stmt) = build(&s);
        let maps: Vec<Arc<EffectiveDist>> =
            arrays.iter().map(|a| a.mapping().clone()).collect();
        let got = comm_analysis(&maps, s.np, &stmt);
        let want = brute_analysis(&maps, s.np, &stmt);
        prop_assert_eq!(&got.comm, &want);
        // loads sum = elements × terms
        let total: u64 = got.loads.iter().sum();
        prop_assert_eq!(total, (stmt.element_count() * stmt.terms.len()) as u64);
    }

    /// Identical mappings never communicate (the §1 collocation payoff).
    #[test]
    fn identical_mappings_zero_comm(fmt in 0..5u8, n in 10usize..60, np in 1usize..6) {
        let mut ds = DataSpace::new(np);
        let a = ds.declare("A", IndexDomain::of_shape(&[n]).unwrap()).unwrap();
        let b = ds.declare("B", IndexDomain::of_shape(&[n]).unwrap()).unwrap();
        ds.distribute(a, &DistributeSpec::new(vec![fmt_of(fmt)])).unwrap();
        ds.distribute(b, &DistributeSpec::new(vec![fmt_of(fmt)])).unwrap();
        let maps = vec![ds.effective(a).unwrap(), ds.effective(b).unwrap()];
        let doms: Vec<&IndexDomain> = maps.iter().map(|m| m.domain()).collect();
        let stmt = Assignment::new(
            0,
            Section::from_triplets(vec![span(1, n as i64)]),
            vec![Term::new(1, Section::from_triplets(vec![span(1, n as i64)]))],
            Combine::Copy,
            &doms,
        ).unwrap();
        let analysis = comm_analysis(&maps, np, &stmt);
        prop_assert!(analysis.comm.is_empty());
        prop_assert_eq!(analysis.remote_reads, 0);
    }

    /// Storage totals: partitioned mappings store each element exactly
    /// once, however the formats fall.
    #[test]
    fn storage_is_partition(fmt in 0..5u8, n in 1usize..80, np in 1usize..7) {
        let mut ds = DataSpace::new(np);
        let a = ds.declare("A", IndexDomain::of_shape(&[n]).unwrap()).unwrap();
        ds.distribute(a, &DistributeSpec::new(vec![fmt_of(fmt)])).unwrap();
        let arr = DistArray::new("A", ds.effective(a).unwrap(), np, 0.0f64);
        prop_assert_eq!(arr.total_storage(), n);
    }
}

/// Deterministic regression: a 2-D transpose-flavoured statement across
/// mismatched grids, all three consistency checks at once.
#[test]
fn transpose_statement_consistency() {
    let n = 12i64;
    let np = 4usize;
    let mut ds = DataSpace::new(np);
    ds.declare_processors("G", IndexDomain::of_shape(&[2, 2]).unwrap()).unwrap();
    let a = ds.declare("A", IndexDomain::standard(&[(1, n), (1, n)]).unwrap()).unwrap();
    let b = ds.declare("B", IndexDomain::standard(&[(1, n), (1, n)]).unwrap()).unwrap();
    ds.distribute(a, &DistributeSpec::to(vec![FormatSpec::Block, FormatSpec::Block], "G"))
        .unwrap();
    ds.distribute(b, &DistributeSpec::to(vec![FormatSpec::Cyclic(1), FormatSpec::Block], "G"))
        .unwrap();
    let mut arrays = vec![
        DistArray::new("A", ds.effective(a).unwrap(), np, 0.0),
        DistArray::from_fn("B", ds.effective(b).unwrap(), np, |i| (i[0] * 100 + i[1]) as f64),
    ];
    let doms: Vec<&IndexDomain> = arrays.iter().map(|x| x.domain()).collect();
    let stmt = Assignment::new(
        0,
        Section::from_triplets(vec![span(1, n), span(1, n)]),
        vec![Term::new(1, Section::from_triplets(vec![span(1, n), span(1, n)]))],
        Combine::Copy,
        &doms,
    )
    .unwrap();
    let expect = dense_reference(&arrays, &stmt);
    let maps: Vec<Arc<EffectiveDist>> = arrays.iter().map(|x| x.mapping().clone()).collect();
    let analysis = run_stmt(&mut arrays, &stmt, Config::DEFAULT);
    assert_eq!(arrays[0].to_dense(), expect);
    assert_eq!(&analysis.comm, &brute_analysis(&maps, np, &stmt));
}
