//! Full-pipeline integration: directive source → frontend elaboration →
//! core mappings → runtime execution → machine cost model.

mod common;

use common::{run_stmt, Config};
use hpf::prelude::*;
use std::sync::Arc;

/// Elaborate the §8.1.1 program, pull the recognized assignment out of the
/// report, execute it on distributed storage, and price it on a mesh.
#[test]
fn staggered_program_through_all_crates() {
    let n = 32i64;
    let src = format!(
        r#"
      PROGRAM STAG
      PARAMETER (N = {n})
      REAL U(0:N,1:N), V(1:N,0:N), P(1:N,1:N)
!HPF$ PROCESSORS G(2,2)
!HPF$ DISTRIBUTE (BLOCK,BLOCK) TO G :: U,V,P
      P=U(0:N-1,:)+U(1:N,:)+V(:,0:N-1)+V(:,1:N)
      END
"#
    );
    let elab = Elaborator::new(4).run(&src).unwrap();
    let ev = &elab.report.assignments()[0];

    // assemble the runtime statement from the elaborated event
    let ids = {
        let mut v = vec![ev.lhs];
        v.extend(ev.terms.iter().map(|(_, id, _)| *id));
        v.sort_by_key(|id| id.0);
        v.dedup();
        v
    };
    let pos = |id: ArrayId| ids.iter().position(|&x| x == id).unwrap();
    let maps: Vec<Arc<EffectiveDist>> =
        ids.iter().map(|&id| elab.space.effective(id).unwrap()).collect();
    let doms: Vec<&IndexDomain> = maps.iter().map(|m| m.domain()).collect();
    let stmt = Assignment::new(
        pos(ev.lhs),
        ev.lhs_section.clone(),
        ev.terms
            .iter()
            .map(|(_, id, s)| Term::new(pos(*id), s.clone()))
            .collect(),
        Combine::Sum,
        &doms,
    )
    .unwrap();

    let mut arrays: Vec<DistArray<f64>> = ids
        .iter()
        .map(|&id| {
            DistArray::from_fn(elab.space.name(id), elab.space.effective(id).unwrap(), 4, |i| {
                (i[0] * 7 + i[1] * 3) as f64
            })
        })
        .collect();
    let expect = dense_reference(&arrays, &stmt);
    let analysis = run_stmt(&mut arrays, &stmt, Config::DEFAULT);
    assert_eq!(arrays[pos(ev.lhs)].to_dense(), expect);

    // machine pricing: boundary exchange only
    let machine = Machine::new(4, Topology::Mesh2D { rows: 2, cols: 2 }, CostModel::default());
    let report = machine.superstep_time(&analysis.loads, &analysis.comm);
    assert!(analysis.remote_fraction() < 0.1);
    assert!(report.comm_time > 0.0);
    assert!(report.compute_time > 0.0);
}

/// The same pipeline under a thread bound, checking bit-equality.
#[test]
fn parallel_executor_through_pipeline() {
    let src = r#"
      PARAMETER (N = 24)
      REAL A(N,N), B(N,N)
!HPF$ PROCESSORS G(2,2)
!HPF$ DISTRIBUTE (BLOCK,CYCLIC) TO G :: A
!HPF$ DISTRIBUTE (CYCLIC,BLOCK) TO G :: B
      A = B
      END
"#;
    let elab = Elaborator::new(4).run(src).unwrap();
    let (a, b) = (elab.array("A").unwrap(), elab.array("B").unwrap());
    let build = || {
        vec![
            DistArray::from_fn("A", elab.space.effective(a).unwrap(), 4, |_| 0.0),
            DistArray::from_fn("B", elab.space.effective(b).unwrap(), 4, |i| {
                (i[0] * 100 + i[1]) as f64
            }),
        ]
    };
    let ev = &elab.report.assignments()[0];
    let arrays0 = build();
    let doms: Vec<&IndexDomain> = arrays0.iter().map(|x| x.domain()).collect();
    let stmt = Assignment::new(
        0,
        ev.lhs_section.clone(),
        vec![Term::new(1, ev.terms[0].2.clone())],
        Combine::Copy,
        &doms,
    )
    .unwrap();
    let mut seq = build();
    let mut par = build();
    let s1 = run_stmt(&mut seq, &stmt, Config::DEFAULT);
    let s2 = run_stmt(&mut par, &stmt, Config { threads: 2, ..Config::DEFAULT });
    assert_eq!(seq[0].to_dense(), par[0].to_dense());
    assert_eq!(s1.comm, s2.comm);
    // mismatched distributions → substantial traffic
    assert!(s1.remote_reads > 0);
}

/// Processor sections, EQUIVALENCE overlap and the machine topology all
/// cooperating: distribute onto the odd processors of a ring and check hop
/// accounting distinguishes near from far.
#[test]
fn processor_sections_and_topology() {
    let np = 8;
    let mut ds = DataSpace::new(np);
    ds.declare_processors("Q", IndexDomain::of_shape(&[np]).unwrap()).unwrap();
    let a = ds.declare("A", IndexDomain::of_shape(&[64]).unwrap()).unwrap();
    let b = ds.declare("B", IndexDomain::of_shape(&[64]).unwrap()).unwrap();
    ds.distribute(
        a,
        &DistributeSpec::to_section(
            vec![FormatSpec::Block],
            "Q",
            Section::from_triplets(vec![triplet(1, 8, 2)]),
        ),
    )
    .unwrap();
    ds.distribute(
        b,
        &DistributeSpec::to_section(
            vec![FormatSpec::Block],
            "Q",
            Section::from_triplets(vec![triplet(2, 8, 2)]),
        ),
    )
    .unwrap();
    // A lives on odd processors, B on even — a copy must cross
    let maps = vec![ds.effective(a).unwrap(), ds.effective(b).unwrap()];
    let doms: Vec<&IndexDomain> = maps.iter().map(|m| m.domain()).collect();
    let stmt = Assignment::new(
        0,
        Section::from_triplets(vec![span(1, 64)]),
        vec![Term::new(1, Section::from_triplets(vec![span(1, 64)]))],
        Combine::Copy,
        &doms,
    )
    .unwrap();
    let analysis = comm_analysis(&maps, np, &stmt);
    assert_eq!(analysis.remote_fraction(), 1.0);
    // each message is odd ← even neighbour: 1 hop on the ring
    let ring = Machine::new(np, Topology::Ring, CostModel::default());
    for (s, d, _) in analysis.comm.iter() {
        assert_eq!(ring.hops(s, d), 1, "{s}->{d}");
    }
}

/// Inquiry + frontend: descriptors survive the whole path and report the
/// §8.2 facts.
#[test]
fn inquiry_across_pipeline() {
    let src = r#"
      REAL A(100), B(100)
!HPF$ DISTRIBUTE B(CYCLIC(5))
!HPF$ ALIGN A(I) WITH B(101-I)
      END
"#;
    let elab = Elaborator::new(5).run(src).unwrap();
    let a = elab.array("A").unwrap();
    let d = hpf::core::inquiry::describe(&elab.space, a);
    assert_eq!(
        d.role,
        hpf::core::inquiry::Role::Secondary { base: "B".into() }
    );
    assert_eq!(d.kind, Some(hpf::core::inquiry::MappingKind::Constructed));
    // reversal alignment: total elements preserved per processor
    let hist = hpf::core::inquiry::ownership_histogram(&elab.space, a).unwrap();
    assert_eq!(hist.iter().map(|&(_, n)| n).sum::<usize>(), 100);
}
