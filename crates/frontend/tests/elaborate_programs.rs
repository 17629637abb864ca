//! End-to-end elaboration tests: the paper's example programs, verbatim
//! where possible, through parse → elaborate → mapping queries.

use hpf_core::{inquiry, ProcSet};
use hpf_frontend::{Elaborator, Event, FrontendError};
use hpf_index::Idx;
use hpf_procs::ProcId;

#[test]
fn section4_distribute_examples() {
    let src = r#"
      PROGRAM EXAMPLES
      PARAMETER (NOP = 8)
      REAL A(16), B(10), C(12), E(8,6), F(8,6)
!HPF$ PROCESSORS Q(NOP)
!HPF$ DISTRIBUTE A(BLOCK)
!HPF$ DISTRIBUTE B(CYCLIC) TO Q(1:NOP:2)
!HPF$ DISTRIBUTE C(GENERAL_BLOCK(S))
!HPF$ DISTRIBUTE (BLOCK, :) :: E,F
      END
"#;
    let elab = Elaborator::new(8)
        .with_param_array("S", vec![4, 7, 9, 12, 12, 12, 12])
        .run(src)
        .unwrap();
    let sp = &elab.space;

    // A(BLOCK) over the implicit AP of 8: q = 2
    let a = elab.array("A").unwrap();
    assert_eq!(sp.owners(a, &Idx::d1(1)).unwrap(), ProcSet::One(ProcId(1)));
    assert_eq!(sp.owners(a, &Idx::d1(3)).unwrap(), ProcSet::One(ProcId(2)));

    // B(CYCLIC) TO Q(1:8:2): deals over P1,P3,P5,P7
    let b = elab.array("B").unwrap();
    assert_eq!(sp.owners(b, &Idx::d1(1)).unwrap(), ProcSet::One(ProcId(1)));
    assert_eq!(sp.owners(b, &Idx::d1(2)).unwrap(), ProcSet::One(ProcId(3)));
    assert_eq!(sp.owners(b, &Idx::d1(5)).unwrap(), ProcSet::One(ProcId(1)));

    // C(GENERAL_BLOCK(S)) with S = 4,7,9,... over 8 procs on 12 elements
    let c = elab.array("C").unwrap();
    assert_eq!(sp.owners(c, &Idx::d1(4)).unwrap(), ProcSet::One(ProcId(1)));
    assert_eq!(sp.owners(c, &Idx::d1(5)).unwrap(), ProcSet::One(ProcId(2)));
    assert_eq!(sp.owners(c, &Idx::d1(10)).unwrap(), ProcSet::One(ProcId(4)));

    // E and F both (BLOCK,:)
    let e = elab.array("E").unwrap();
    let f = elab.array("F").unwrap();
    for j in 1..=6 {
        assert_eq!(sp.owners(e, &Idx::d2(1, j)).unwrap(), ProcSet::One(ProcId(1)));
        assert_eq!(
            sp.owners(e, &Idx::d2(8, j)).unwrap(),
            sp.owners(f, &Idx::d2(8, j)).unwrap()
        );
    }
}

#[test]
fn section5_alignment_examples() {
    // REAL A(1:N), D(1:N,1:M); ALIGN A(:) WITH D(:,*)
    // REAL B(1:N,1:M), E(1:N); ALIGN B(:,*) WITH E(:)
    let src = r#"
      PARAMETER (N = 8, M = 3)
      REAL A(N), D(N,M), B(N,M), E(N)
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE D(BLOCK, :) TO P
!HPF$ DISTRIBUTE E(CYCLIC) TO P
!HPF$ ALIGN A(:) WITH D(:,*)
!HPF$ ALIGN B(:,*) WITH E(:)
      END
"#;
    let elab = Elaborator::new(4).run(src).unwrap();
    let sp = &elab.space;
    let (a, d, b, e) = (
        elab.array("A").unwrap(),
        elab.array("D").unwrap(),
        elab.array("B").unwrap(),
        elab.array("E").unwrap(),
    );
    // A(J) collocated with D(J,k) for every k (replication), and since D's
    // second dim is collapsed the owners coincide exactly
    for j in 1..=8i64 {
        assert_eq!(
            sp.owners(a, &Idx::d1(j)).unwrap(),
            sp.owners(d, &Idx::d2(j, 1)).unwrap()
        );
    }
    // B(J1,J2) collocated with E(J1) regardless of J2 (collapse)
    for j1 in 1..=8i64 {
        for j2 in 1..=3i64 {
            assert_eq!(
                sp.owners(b, &Idx::d2(j1, j2)).unwrap(),
                sp.owners(e, &Idx::d1(j1)).unwrap()
            );
        }
    }
}

#[test]
fn section6_allocatable_program_verbatim() {
    // the §6 example, at miniature scale (PR(4), M=3, N=4)
    let src = r#"
      REAL, ALLOCATABLE :: A(:,:), B(:,:)
      REAL, ALLOCATABLE :: C(:), D(:)
!HPF$ PROCESSORS PR(4)
!HPF$ DISTRIBUTE A(CYCLIC,BLOCK) TO GRID
!HPF$ DISTRIBUTE (BLOCK) :: C,D
!HPF$ DYNAMIC B,C
!HPF$ PROCESSORS GRID(2,2)
      READ 6,M,N
      ALLOCATE(A(N*M,N*M))
      ALLOCATE(B(N,N))
!HPF$ REALIGN B(:,:) WITH A(M::M,1::M)
      ALLOCATE(C(40), D(40))
!HPF$ REDISTRIBUTE C(CYCLIC) TO PR
      END
"#;
    let elab = Elaborator::new(4).with_input("M", 3).with_input("N", 4).run(src).unwrap();
    let sp = &elab.space;
    let (a, b, c, d) = (
        elab.array("A").unwrap(),
        elab.array("B").unwrap(),
        elab.array("C").unwrap(),
        elab.array("D").unwrap(),
    );
    // B(i,j) collocated with A(3i, 3j−2)
    for i in 1..=4i64 {
        for j in 1..=4i64 {
            assert_eq!(
                sp.owners(b, &Idx::d2(i, j)).unwrap(),
                sp.owners(a, &Idx::d2(3 * i, 3 * j - 2)).unwrap(),
                "B({i},{j})"
            );
        }
    }
    // C was redistributed CYCLIC TO PR
    assert_eq!(sp.owners(c, &Idx::d1(2)).unwrap(), ProcSet::One(ProcId(2)));
    // D keeps the propagated BLOCK
    assert_eq!(sp.owners(d, &Idx::d1(40)).unwrap(), ProcSet::One(ProcId(4)));
    // events recorded the REALIGN and REDISTRIBUTE with movement counts
    assert!(elab
        .report
        .events
        .iter()
        .any(|e| matches!(e, Event::Realigned { alignee, .. } if alignee == "B")));
    assert!(elab
        .report
        .events
        .iter()
        .any(|e| matches!(e, Event::Redistributed { name, moved, .. } if name == "C" && *moved > 0)));
}

#[test]
fn section8_1_2_call_with_inherited_section() {
    // REAL A(1000); DISTRIBUTE A(CYCLIC(3)); CALL SUB(A(2:996:2))
    let src = r#"
      REAL A(1000)
!HPF$ DISTRIBUTE A(CYCLIC(3))
      CALL SUB(A(2:996:2))
      END
      SUBROUTINE SUB(X)
      REAL X(:)
!HPF$ DISTRIBUTE X *
      END
"#;
    let elab = Elaborator::new(4).run(src).unwrap();
    let calls = elab.report.calls();
    assert_eq!(calls.len(), 1);
    assert_eq!(calls[0].total_volume(), 0, "inheritance must not move data");
}

#[test]
fn section8_1_2_inheritance_matching() {
    // the §8.2 variant: DISTRIBUTE X *(CYCLIC(3)) — mismatching actual
    let src = r#"
      REAL A(1000)
!HPF$ DISTRIBUTE A(CYCLIC(3))
      CALL SUB(A)
      END
      SUBROUTINE SUB(X)
      REAL X(:)
!HPF$ DISTRIBUTE X *(CYCLIC(3))
      END
"#;
    // whole array with matching distribution: accepted, no movement
    let elab = Elaborator::new(4).run(src).unwrap();
    assert_eq!(elab.report.calls()[0].total_volume(), 0);

    // a section actual does NOT match CYCLIC(3) → non-conforming (§7 case 3)
    let src_section = src.replace("CALL SUB(A)", "CALL SUB(A(2:996:2))");
    let err = Elaborator::new(4).run(&src_section).unwrap_err();
    assert!(matches!(
        err,
        FrontendError::Semantic(hpf_core::HpfError::DistributionMismatch { .. })
    ));

    // with interface blocks visible the language processor remaps instead
    let elab = Elaborator::new(4)
        .with_interface_blocks(true)
        .run(&src_section)
        .unwrap();
    let r = elab.report.calls()[0].clone();
    assert!(r.total_volume() > 0, "remap in + restore out");
    assert_eq!(r.events.len(), 2);
}

#[test]
fn explicit_dummy_redistribution_restored() {
    let src = r#"
      REAL A(100)
!HPF$ DISTRIBUTE A(BLOCK)
      CALL W(A)
      END
      SUBROUTINE W(X)
      REAL X(:)
!HPF$ DISTRIBUTE X(CYCLIC)
      END
"#;
    let elab = Elaborator::new(4).run(src).unwrap();
    let call = &elab.report.calls()[0];
    // remap at entry, restore at exit — equal volumes
    assert_eq!(call.events.len(), 2);
    assert_eq!(call.events[0].volume, call.events[1].volume);
    assert!(call.events[0].volume > 0);
}

#[test]
fn staggered_grid_program_parses_and_maps() {
    // §8.1.1 without templates: direct (BLOCK,BLOCK) as the paper proposes
    let src = r#"
      PARAMETER (N = 16)
      REAL U(0:N,1:N), V(1:N,0:N), P(1:N,1:N)
!HPF$ PROCESSORS G(2,2)
!HPF$ DISTRIBUTE (BLOCK,BLOCK) TO G :: U,V,P
      P=U(0:N-1,:)+U(1:N,:)+V(:,0:N-1)+V(:,1:N)
      END
"#;
    let elab = Elaborator::new(4).run(src).unwrap();
    let assigns = elab.report.assignments();
    assert_eq!(assigns.len(), 1);
    let a = assigns[0];
    assert_eq!(a.lhs_name, "P");
    assert_eq!(a.terms.len(), 4);
    assert_eq!(a.lhs_section.size(), 256);
    assert_eq!(a.terms[0].2.size(), 256);
    // interior collocation: P(8,8) and U(8,8) on the same processor
    let (p, u) = (elab.array("P").unwrap(), elab.array("U").unwrap());
    assert_eq!(
        elab.space.owners(p, &Idx::d2(8, 8)).unwrap(),
        elab.space.owners(u, &Idx::d2(8, 8)).unwrap()
    );
}

#[test]
fn template_directive_is_a_guided_error() {
    let src = r#"
      REAL P(8,8)
!HPF$ TEMPLATE T(0:16,0:16)
      END
"#;
    let err = Elaborator::new(4).run(src).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("TEMPLATE"));
    assert!(msg.contains("§8"));
}

#[test]
fn dynamic_required_for_redistribute() {
    let src = r#"
      REAL A(16)
!HPF$ DISTRIBUTE A(BLOCK)
!HPF$ REDISTRIBUTE A(CYCLIC)
      END
"#;
    let err = Elaborator::new(4).run(src).unwrap_err();
    assert!(matches!(
        err,
        FrontendError::Semantic(hpf_core::HpfError::NotDynamic(_))
    ));
}

#[test]
fn missing_read_input_reported() {
    let src = "READ 5,N\nEND";
    assert!(matches!(
        Elaborator::new(2).run(src),
        Err(FrontendError::MissingInput(_))
    ));
}

#[test]
fn undeclared_array_reported_with_line() {
    let src = "!HPF$ DISTRIBUTE NOSUCH(BLOCK)";
    assert!(matches!(
        Elaborator::new(2).run(src),
        Err(FrontendError::Undeclared { .. })
    ));
}

#[test]
fn scalar_declaration_replicates() {
    let src = r#"
      REAL S
      REAL A(8)
      END
"#;
    let elab = Elaborator::new(4).run(src).unwrap();
    let s = elab.array("S").unwrap();
    let owners = elab.space.owners(s, &Idx::SCALAR).unwrap();
    assert_eq!(owners.len(), 4, "scalars replicate over all processors");
}

#[test]
fn inquiry_describes_elaborated_arrays() {
    let src = r#"
      PARAMETER (N = 12)
      REAL B(N), A(N)
!HPF$ DISTRIBUTE B(CYCLIC(2))
!HPF$ ALIGN A(:) WITH B(:)
      END
"#;
    let elab = Elaborator::new(3).run(src).unwrap();
    let a = elab.array("A").unwrap();
    let b = elab.array("B").unwrap();
    let da = inquiry::describe(&elab.space, a);
    assert_eq!(da.role, inquiry::Role::Secondary { base: "B".into() });
    let db = inquiry::describe(&elab.space, b);
    assert_eq!(db.dims, vec![inquiry::DimKind::Cyclic(2)]);
    assert_eq!(db.children, vec!["A".to_string()]);
    let hist = inquiry::ownership_histogram(&elab.space, b).unwrap();
    let total: usize = hist.iter().map(|&(_, n)| n).sum();
    assert_eq!(total, 12);
}

#[test]
fn indirect_extension_format() {
    // §1: "the concept of distribution functions has been defined in a
    // general way so that future language standards may easily incorporate
    // more general mappings" — an explicit owner table through the
    // directive language.
    let src = r#"
      REAL A(8)
!HPF$ DISTRIBUTE A(INDIRECT(2, 1, 2, 1, 3, 3, 1, 2))
      END
"#;
    let elab = Elaborator::new(3).run(src).unwrap();
    let a = elab.array("A").unwrap();
    let want = [2u32, 1, 2, 1, 3, 3, 1, 2];
    for (i, &w) in want.iter().enumerate() {
        assert_eq!(
            elab.space.owners(a, &Idx::d1(i as i64 + 1)).unwrap(),
            ProcSet::One(ProcId(w)),
            "element {}",
            i + 1
        );
    }
    // via a parameter array too
    let src2 = r#"
      REAL A(8)
!HPF$ DISTRIBUTE A(INDIRECT(MAP))
      END
"#;
    let elab2 = Elaborator::new(3)
        .with_param_array("MAP", vec![2, 1, 2, 1, 3, 3, 1, 2])
        .run(src2)
        .unwrap();
    let a2 = elab2.array("A").unwrap();
    for (i, &w) in want.iter().enumerate() {
        assert_eq!(
            elab2.space.owners(a2, &Idx::d1(i as i64 + 1)).unwrap(),
            ProcSet::One(ProcId(w))
        );
    }
    // bad coordinate rejected
    let bad = r#"
      REAL A(2)
!HPF$ DISTRIBUTE A(INDIRECT(1, 9))
      END
"#;
    assert!(Elaborator::new(3).run(bad).is_err());
}

#[test]
fn local_aligned_to_dummy_in_subroutine() {
    // §7: "Further, a local data object may be aligned to a dummy argument."
    let src = r#"
      REAL A(100)
!HPF$ DISTRIBUTE A(CYCLIC(7))
      CALL S(A)
      END
      SUBROUTINE S(X)
      REAL X(:)
      REAL W(100)
!HPF$ DISTRIBUTE X *
!HPF$ ALIGN W(I) WITH X(I)
      END
"#;
    // the call must succeed with no movement, and inside the frame W's
    // owners equal X's — verified via the call report being clean
    let elab = Elaborator::new(4).run(src).unwrap();
    assert_eq!(elab.report.calls()[0].total_volume(), 0);
}

#[test]
fn local_distributed_and_redistributed_in_subroutine() {
    let src = r#"
      REAL A(64)
!HPF$ DISTRIBUTE A(BLOCK)
      CALL S(A)
      END
      SUBROUTINE S(X)
      REAL X(:)
      REAL TMP(64)
!HPF$ DYNAMIC TMP
!HPF$ DISTRIBUTE X *
!HPF$ DISTRIBUTE TMP(CYCLIC)
!HPF$ REDISTRIBUTE TMP(BLOCK)
      END
"#;
    let elab = Elaborator::new(4).run(src).unwrap();
    // dummy untouched → zero boundary movement
    assert_eq!(elab.report.calls()[0].total_volume(), 0);
}

#[test]
fn undeclared_local_in_subroutine_align_reported() {
    let src = r#"
      REAL A(8)
      CALL S(A)
      END
      SUBROUTINE S(X)
      REAL X(:)
!HPF$ ALIGN NOPE(I) WITH X(I)
      END
"#;
    assert!(matches!(
        Elaborator::new(2).run(src),
        Err(FrontendError::Undeclared { .. })
    ));
}
