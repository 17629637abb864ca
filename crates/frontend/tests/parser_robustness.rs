//! Parser robustness: arbitrary input never panics — through the
//! elaborator and on into lowering — diagnostics carry line numbers, and
//! a corpus of realistic-but-wrong programs produces the intended errors.

use hpf_frontend::{lex, parse, Elaborator, FrontendError, Lowerer};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The lexer never panics on arbitrary bytes-as-strings.
    #[test]
    fn lexer_total(src in "\\PC*") {
        let _ = lex(&src);
    }

    /// The parser never panics on arbitrary ASCII-ish source soup.
    #[test]
    fn parser_total(src in "[A-Za-z0-9 ,():*+=!$\\n-]{0,200}") {
        let _ = parse(&src);
    }

    /// The full elaborator never panics either, nor does lowering what it
    /// recovered.
    #[test]
    fn elaborator_total(src in "[A-Za-z0-9 ,():*+=!$\\n-]{0,160}") {
        let _ = Elaborator::new(4).run(&src);
        let (elab, _) = Elaborator::new(4).run_recover(&src);
        let _ = Lowerer::lower(&elab);
    }

    /// Directive soup built from real keywords also never panics.
    #[test]
    fn directive_soup(parts in prop::collection::vec(
        prop_oneof![
            Just("!HPF$ "), Just("DISTRIBUTE "), Just("ALIGN "), Just("WITH "),
            Just("PROCESSORS "), Just("REALIGN "), Just("DYNAMIC "), Just("TO "),
            Just("BLOCK"), Just("CYCLIC"), Just("A"), Just("B"), Just("("),
            Just(")"), Just(","), Just(":"), Just("*"), Just("\n"), Just("1"),
            Just("REAL "), Just("ALLOCATE"), Just("END"),
        ], 0..40))
    {
        let src: String = parts.concat();
        let _ = Elaborator::new(2).run(&src);
    }

    /// Fills against every life stage of an allocatable — unallocated,
    /// allocated, deallocated, allocated again with another extent, in and
    /// out of bounds — elaborate to diagnostics or lower to storage, and
    /// never panic.
    #[test]
    fn fills_of_allocatables_lower_without_panicking(parts in prop::collection::vec(
        prop_oneof![
            Just("ALLOCATE(A(10))\n"), Just("ALLOCATE(A(4))\n"), Just("ALLOCATE(A(0:3))\n"),
            Just("DEALLOCATE(A)\n"), Just("A = 3\n"), Just("A(2:5) = 1\n"),
            Just("A(0:11) = 2\n"), Just("FORALL (I = 1:6) A(I) = 2 * I\n"),
            Just("FORALL (I = 1:4) A(3 * I - 2) = 12 / (I - 3)\n"), Just("B(1:4) = A(1:4)\n"),
        ], 0..10))
    {
        let src = format!(
            "REAL, ALLOCATABLE :: A(:)\nREAL B(4)\n!HPF$ DISTRIBUTE A(CYCLIC(2))\n{}END\n",
            parts.concat()
        );
        let (elab, _) = Elaborator::new(3).run_recover(&src);
        let (low, _) = Lowerer::lower(&elab);
        for (array, image) in low.program.arrays.iter().zip(&low.initial_dense) {
            prop_assert_eq!(&array.to_dense(), image);
        }
    }
}

/// The minimised program of a lowering panic: a fill of an allocation that
/// was deallocated (and allocated again with another extent) used to be
/// replayed into the new storage. Values die with `DEALLOCATE`.
#[test]
fn fill_of_a_deallocated_instance_is_dropped() {
    let src = include_str!("../../../examples/programs/realloc_fill.hpf");
    let (elab, diags) = Elaborator::new(4).run_recover(src);
    assert!(diags.is_empty(), "{diags:?}");
    assert_eq!(elab.report.fills().len(), 1, "only B's fill is left");
    let (low, diags) = Lowerer::lower(&elab);
    assert!(diags.is_empty(), "{diags:?}");
    let a = low.array("A").unwrap();
    assert_eq!(low.initial_dense[a], vec![0.0; 4]);
    assert_eq!(low.program.arrays[a].to_dense(), vec![0.0; 4]);
    assert_eq!(low.initial_dense[low.array("B").unwrap()], vec![7.0; 4]);
}

#[test]
fn errors_carry_line_numbers() {
    let src = "REAL A(4)\nREAL B(4)\n!HPF$ DISTRIBUTE C(BLOCK)\n";
    match Elaborator::new(2).run(src) {
        Err(FrontendError::Undeclared { line, name }) => {
            assert_eq!(line, 3);
            assert_eq!(name, "C");
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn error_corpus() {
    let np = 4;
    let cases: Vec<(&str, &str)> = vec![
        // (source, substring expected in the error message)
        ("!HPF$ DISTRIBUTE (BLOCK) :: ", "expected identifier"),
        ("!HPF$ ALIGN A(:) B(:)", "WITH"),
        ("REAL A(4)\n!HPF$ ALIGN A(:,:) WITH A(:)", "cannot be aligned to itself"),
        ("REAL A(4), B(2,2)\n!HPF$ ALIGN A(:,:) WITH B(:,:)", "rank"),
        ("REAL A(4)\n!HPF$ DISTRIBUTE A(BLOCK, BLOCK)", "rank"),
        ("REAL A(4)\n!HPF$ DISTRIBUTE A(CYCLIC(0))", "CYCLIC"),
        ("PARAMETER (N = 1/0)", "division by zero"),
        ("REAL A(N)", "unknown parameter"),
        ("!HPF$ TEMPLATE T(8)", "TEMPLATE"),
        ("CALL NOPE()", "unknown subroutine"),
        ("REAL A(4)\nALLOCATE(A(4))", "ALLOCATABLE"),
        ("REAL, ALLOCATABLE :: W(:)\nDEALLOCATE(W)", "not currently allocated"),
        // fills are evaluated where they are written, not when lowered
        ("REAL A(4)\nFORALL (I = 1:4) A(I + 1) = I", "FORALL writes `A(5)` outside its domain"),
        ("REAL A(4)\nFORALL (I = 1:4) A(I) = 6 / (I - 2)", "division by zero"),
        ("REAL A(4)\nA(0:5) = 1", "`A`: section exceeds array bounds"),
    ];
    for (src, needle) in cases {
        let err = Elaborator::new(np).run(src).expect_err(src);
        let msg = err.to_string();
        assert!(
            msg.to_lowercase().contains(&needle.to_lowercase()),
            "source {src:?}: expected {needle:?} in {msg:?}"
        );
    }
}

#[test]
fn deeply_nested_expressions_ok() {
    // deep but sane nesting parses fine
    let mut expr = String::from("1");
    for _ in 0..40 {
        expr = format!("({expr}+1)");
    }
    let src = format!("PARAMETER (N = {expr})\nREAL A(N)\nEND");
    let elab = Elaborator::new(2).run(&src).unwrap();
    assert!(elab.array("A").is_some());
}

#[test]
fn comments_and_blank_lines_everywhere() {
    let src = r#"

! leading comment
      PROGRAM T   ! trailing on program

      REAL A(8)   ! decl comment
! comment between
!HPF$ DISTRIBUTE A(BLOCK)   ! directive comment

      END ! the end
"#;
    let elab = Elaborator::new(2).run(src).unwrap();
    assert!(elab.array("A").is_some());
}
