//! Every worked example in the paper, executed against the library.
//!
//! Section references are to Chapman, Mehrotra & Zima, ICASE 93-17.

mod common;

use common::{run_stmt, Config};
use hpf::prelude::*;
use std::sync::Arc;

/// §4.1.1: BLOCK divides into contiguous blocks of q = ⌈N/NP⌉, with the
/// stated owner and local-index formulas.
#[test]
fn s411_block_formulas() {
    let mut ds = DataSpace::new(4);
    let a = ds.declare("A", IndexDomain::of_shape(&[14]).unwrap()).unwrap();
    ds.distribute(a, &DistributeSpec::new(vec![FormatSpec::Block])).unwrap();
    let eff = ds.effective(a).unwrap();
    let dist = eff.as_direct().unwrap();
    let q = 4; // ⌈14/4⌉
    for i in 1..=14i64 {
        let j = (i + q - 1) / q;
        assert_eq!(dist.owner(&Idx::d1(i)), ProcId(j as u32), "owner of {i}");
        assert_eq!(dist.local(&Idx::d1(i)), Idx::d1(i - (j - 1) * q), "local of {i}");
    }
    // last block is short: P4 owns only 13..14
    assert_eq!(eff.owned_region(ProcId(4)).volume_disjoint(), 2);
}

/// §4.1.2: GENERAL_BLOCK(G) — block i is [G(i−1)+1 : G(i)], block NP ends
/// at N; M ≥ NP−1 entries allowed.
#[test]
fn s412_general_block() {
    let mut ds = DataSpace::new(3);
    let c = ds.declare("C", IndexDomain::of_shape(&[10]).unwrap()).unwrap();
    ds.distribute(c, &DistributeSpec::new(vec![FormatSpec::GeneralBlock(vec![2, 7, 99])]))
        .unwrap();
    let owners: Vec<u32> = (1..=10)
        .map(|i| ds.owners(c, &Idx::d1(i)).unwrap().as_single().unwrap().0)
        .collect();
    assert_eq!(owners, vec![1, 1, 2, 2, 2, 2, 2, 3, 3, 3]);
}

/// §4.1.3: CYCLIC(k) deals segments of length k cyclically; CYCLIC ≡
/// CYCLIC(1).
#[test]
fn s413_cyclic() {
    let mut ds = DataSpace::new(3);
    let a = ds.declare("A", IndexDomain::of_shape(&[12]).unwrap()).unwrap();
    let b = ds.declare("B", IndexDomain::of_shape(&[12]).unwrap()).unwrap();
    ds.distribute(a, &DistributeSpec::new(vec![FormatSpec::Cyclic(2)])).unwrap();
    ds.distribute(b, &DistributeSpec::new(vec![FormatSpec::Cyclic(1)])).unwrap();
    let owners_a: Vec<u32> = (1..=12)
        .map(|i| ds.owners(a, &Idx::d1(i)).unwrap().as_single().unwrap().0)
        .collect();
    assert_eq!(owners_a, vec![1, 1, 2, 2, 3, 3, 1, 1, 2, 2, 3, 3]);
    let owners_b: Vec<u32> = (1..=6)
        .map(|i| ds.owners(b, &Idx::d1(i)).unwrap().as_single().unwrap().0)
        .collect();
    assert_eq!(owners_b, vec![1, 2, 3, 1, 2, 3]);
}

/// §4 examples: the four DISTRIBUTE directives, including the processor
/// section target `Q(1:NOP:2)`.
#[test]
fn s4_distribute_directive_examples() {
    let mut ds = DataSpace::new(8);
    ds.declare_processors("Q", IndexDomain::of_shape(&[8]).unwrap()).unwrap();
    let b = ds.declare("B", IndexDomain::of_shape(&[8]).unwrap()).unwrap();
    ds.distribute(
        b,
        &DistributeSpec::to_section(
            vec![FormatSpec::Cyclic(1)],
            "Q",
            Section::from_triplets(vec![triplet(1, 8, 2)]),
        ),
    )
    .unwrap();
    // odd processors only
    for i in 1..=8i64 {
        let p = ds.owners(b, &Idx::d1(i)).unwrap().as_single().unwrap();
        assert_eq!(p.0 % 2, 1, "element {i} on even processor {p}");
    }
}

/// §5.1 example 1: `ALIGN A(:) WITH D(:,*)` — "aligns a copy of A with
/// every column of D"; α(J) = {(J,k) | 1 ≤ k ≤ M}.
#[test]
fn s51_replication_example() {
    let (n, m) = (6i64, 4i64);
    let mut ds = DataSpace::new(6);
    let d = ds.declare("D", IndexDomain::standard(&[(1, n), (1, m)]).unwrap()).unwrap();
    let a = ds.declare("A", IndexDomain::standard(&[(1, n)]).unwrap()).unwrap();
    ds.declare_processors("G", IndexDomain::of_shape(&[3, 2]).unwrap()).unwrap();
    ds.distribute(d, &DistributeSpec::to(vec![FormatSpec::Block, FormatSpec::Block], "G"))
        .unwrap();
    ds.align(
        a,
        d,
        &AlignSpec::new(
            vec![AligneeAxis::Colon],
            vec![BaseSubscript::COLON, BaseSubscript::Star],
        ),
    )
    .unwrap();
    // A(J) owners = union of owners of D(J, 1..m)
    for j in 1..=n {
        let mut want: Vec<ProcId> = (1..=m)
            .map(|k| ds.owners(d, &Idx::d2(j, k)).unwrap().as_single().unwrap())
            .collect();
        want.sort_unstable();
        want.dedup();
        let got: Vec<ProcId> = ds.owners(a, &Idx::d1(j)).unwrap().iter().collect();
        assert_eq!(got, want, "A({j})");
    }
}

/// §5.1 example 2: `ALIGN B(:,*) WITH E(:)` — α(J1,J2) = {(J1)}.
#[test]
fn s51_collapse_example() {
    let (n, m) = (6i64, 4i64);
    let mut ds = DataSpace::new(3);
    let e = ds.declare("E", IndexDomain::standard(&[(1, n)]).unwrap()).unwrap();
    let b = ds.declare("B", IndexDomain::standard(&[(1, n), (1, m)]).unwrap()).unwrap();
    ds.distribute(e, &DistributeSpec::new(vec![FormatSpec::Cyclic(1)])).unwrap();
    ds.align(
        b,
        e,
        &AlignSpec::new(
            vec![AligneeAxis::Colon, AligneeAxis::Star],
            vec![BaseSubscript::COLON],
        ),
    )
    .unwrap();
    for j1 in 1..=n {
        for j2 in 1..=m {
            assert_eq!(
                ds.owners(b, &Idx::d2(j1, j2)).unwrap(),
                ds.owners(e, &Idx::d1(j1)).unwrap()
            );
        }
    }
}

/// §8.1.1: the template-free rendering of Thole's staggered grid —
/// `DISTRIBUTE (BLOCK,BLOCK) :: U,V,P` — plus the executable statement,
/// with exact numerics.
#[test]
fn s811_staggered_grid_direct_blocks() {
    let n = 16i64;
    let np = 4usize;
    let mut ds = DataSpace::new(np);
    ds.declare_processors("G", IndexDomain::of_shape(&[2, 2]).unwrap()).unwrap();
    let p = ds.declare("P", IndexDomain::standard(&[(1, n), (1, n)]).unwrap()).unwrap();
    let u = ds.declare("U", IndexDomain::standard(&[(0, n), (1, n)]).unwrap()).unwrap();
    let v = ds.declare("V", IndexDomain::standard(&[(1, n), (0, n)]).unwrap()).unwrap();
    for id in [p, u, v] {
        ds.distribute(
            id,
            &DistributeSpec::to(vec![FormatSpec::Block, FormatSpec::Block], "G"),
        )
        .unwrap();
    }
    let maps: Vec<Arc<EffectiveDist>> =
        [p, u, v].iter().map(|&id| ds.effective(id).unwrap()).collect();
    let doms: Vec<&IndexDomain> = maps.iter().map(|m| m.domain()).collect();
    let stmt = Assignment::new(
        0,
        Section::from_triplets(vec![span(1, n), span(1, n)]),
        vec![
            Term::new(1, Section::from_triplets(vec![span(0, n - 1), span(1, n)])),
            Term::new(1, Section::from_triplets(vec![span(1, n), span(1, n)])),
            Term::new(2, Section::from_triplets(vec![span(1, n), span(0, n - 1)])),
            Term::new(2, Section::from_triplets(vec![span(1, n), span(1, n)])),
        ],
        Combine::Sum,
        &doms,
    )
    .unwrap();
    let mut arrays = vec![
        DistArray::new("P", maps[0].clone(), np, 0.0),
        DistArray::from_fn("U", maps[1].clone(), np, |i| (i[0] * 100 + i[1]) as f64),
        DistArray::from_fn("V", maps[2].clone(), np, |i| (i[0] + i[1] * 100) as f64),
    ];
    let expect = dense_reference(&arrays, &stmt);
    let analysis = run_stmt(&mut arrays, &stmt, Config::DEFAULT);
    assert_eq!(arrays[0].to_dense(), expect);
    // P(i,j) = U(i-1,j) + U(i,j) + V(i,j-1) + V(i,j)
    let val = arrays[0].get(&Idx::d2(5, 5));
    let want = (4 * 100 + 5) + (5 * 100 + 5) + (5 + 4 * 100) + (5 + 5 * 100);
    assert_eq!(val, want as f64);
    // and the communication is only block-boundary ghost exchange
    assert!(analysis.remote_fraction() < 0.05, "{}", analysis.remote_fraction());
}

/// §8.1.2: the dummy inheriting `A(2:996:2)` from `A(1000) CYCLIC(3)`;
/// inheritance is free, the alternative `ALIGN X(I) WITH A(2*I)` rendering
/// describes the same mapping.
#[test]
fn s812_section_passing() {
    let mut ds = DataSpace::new(4);
    let a = ds.declare("A", IndexDomain::of_shape(&[1000]).unwrap()).unwrap();
    ds.distribute(a, &DistributeSpec::new(vec![FormatSpec::Cyclic(3)])).unwrap();

    // inheritance: zero movement
    let def = ProcedureDef::new("SUB", vec![Dummy::new("X", DummySpec::Inherit)]);
    let sec = Section::from_triplets(vec![triplet(2, 996, 2)]);
    let frame = CallFrame::enter(&ds, &def, &[Actual::section(a, sec.clone())]).unwrap();
    assert_eq!(frame.events().len(), 0);

    // the ALIGN X(I) WITH A(2*I) alternative describes the same owners
    let x = frame.dummy(0);
    let align = hpf::core::reduce(
        &AlignSpec::with_exprs(1, vec![AlignExpr::dummy(0) * 2]),
        frame.local().domain(x).unwrap(),
        ds.domain(a).unwrap(),
    )
    .unwrap();
    let constructed = EffectiveDist::Aligned {
        align: Arc::new(align),
        base: ds.effective(a).unwrap(),
    };
    let inherited = frame.local().effective(x).unwrap();
    assert!(inherited.equal_exhaustive(&constructed));
    assert_eq!(frame.exit().unwrap().total_volume(), 0);
}

/// §2.2: scalars live on an index domain of exactly one element and can be
/// replicated (footnote: "every array element can be distributed to an
/// arbitrary (positive) number of processors").
#[test]
fn s22_scalars_and_replication() {
    let mut ds = DataSpace::new(4);
    let s = ds.declare("S", IndexDomain::scalar()).unwrap();
    let owners = ds.owners(s, &Idx::SCALAR).unwrap();
    assert_eq!(owners.len(), 4);
    let region = ds.owned_region(s, ProcId(2)).unwrap();
    assert_eq!(region.volume_disjoint(), 1);
}

/// §2.4: the alignment forest constraints as stated.
#[test]
fn s24_forest_constraints() {
    let mut ds = DataSpace::new(2);
    let dom = IndexDomain::of_shape(&[8]).unwrap();
    let b = ds.declare("B", dom.clone()).unwrap();
    let a = ds.declare("A", dom.clone()).unwrap();
    let c = ds.declare("C", dom.clone()).unwrap();
    ds.align(a, b, &AlignSpec::identity(1)).unwrap();
    // "Each array occurring as an alignment base must not be aligned to
    // another array."
    assert!(matches!(
        ds.align(c, a, &AlignSpec::identity(1)),
        Err(HpfError::BaseIsSecondary(_))
    ));
    // "Each array occurring as an alignee can be aligned with only one
    // alignment base."
    assert!(matches!(
        ds.align(a, c, &AlignSpec::identity(1)),
        Err(HpfError::AlreadyAligned(_))
    ));
    // trees have height ≤ 1: a base with children cannot become an alignee
    assert!(matches!(
        ds.align(b, c, &AlignSpec::identity(1)),
        Err(HpfError::AligneeHasChildren(_))
    ));
}
