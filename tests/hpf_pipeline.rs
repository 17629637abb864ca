//! End-to-end pipeline suite: every `.hpf` program under
//! `examples/programs/` must elaborate cleanly, lower into a runtime
//! program, statically verify, and execute timesteps on *both* exchange
//! backends with results identical to the dense element-wise oracle.
//! Plus the acceptance test for the recovering frontend: a source with
//! several distinct syntax errors reports them all, with spans, in one
//! run.

use hpf::prelude::*;
use std::path::PathBuf;

fn programs_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/programs"))
}

fn program_sources() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(programs_dir()).expect("examples/programs exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) == Some("hpf") {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            out.push((name, std::fs::read_to_string(&path).unwrap()));
        }
    }
    out.sort();
    assert!(out.len() >= 4, "expected the shipped .hpf programs, found {}", out.len());
    out
}

/// Processor count each program was written for (directive_tour needs 8
/// for `PROCESSORS P(NOP)`; everything else runs on the default 4).
fn np_for(name: &str) -> usize {
    if name.contains("directive_tour") {
        8
    } else {
        4
    }
}

#[test]
fn every_program_runs_verified_on_both_backends() {
    for (name, src) in program_sources() {
        for backend in [Backend::SharedMem, Backend::Channels] {
            let (elab, diags) = Elaborator::new(np_for(&name)).run_recover(&src);
            assert!(diags.is_empty(), "{name}: {diags:?}");
            let (mut lowered, diags) = Lowerer::lower(&elab);
            assert!(diags.is_empty(), "{name}: {diags:?}");
            assert!(!lowered.statements.is_empty(), "{name} has no statements");

            // static schedule verification before anything runs
            let report = lowered.program.verify_all().expect("plans compile");
            assert!(report.is_clean(), "{name}: {report}");

            // three timesteps (cold plan + warm replays) against the oracle
            lowered
                .run_verified(3, backend)
                .unwrap_or_else(|e| panic!("{name} on {backend:?}: {e}"));
        }
    }
}

/// `hpfrun --verify`'s code path (lower, then `verify_all`) proves the
/// plan a timestep executes: a corrupted fused pair of the *cached*
/// program plan is refuted, by name, in any build — and the cold step
/// after a clean `verify_all` replays that very plan without compiling.
#[test]
fn verify_all_proves_the_fused_plan_that_runs() {
    let (name, src) = program_sources()
        .into_iter()
        .find(|(n, _)| n.contains("relaxation"))
        .expect("relaxation.hpf ships");
    let elab = Elaborator::new(np_for(&name)).run(&src).expect("elaborates");
    let (mut lowered, diags) = Lowerer::lower(&elab);
    assert!(diags.is_empty(), "{diags:?}");

    let report = lowered.program.verify_all().expect("plans compile");
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.timestep.statements, lowered.statements.len());
    assert!(report.timestep.pairs > 0 && report.timestep.segments > 0, "{report}");
    assert!(report.to_string().contains("timestep plan ["), "{report}");

    // the cold step replays the proven plan: nothing is compiled
    let misses = lowered.program.cache_misses();
    let mut sess = Session::new(lowered.program);
    sess.run(1).expect("runs");
    assert_eq!(sess.program().cache_misses(), misses, "the cold step compiled a plan");
    let mut program = sess.into_program();

    let plan = program.timestep_plan_mut().expect("verify_all cached the timestep plan");
    plan.pairs_mut()[0].segments[0].src_off += 1;
    let report = program.verify_all().expect("plans compile");
    assert!(!report.is_clean(), "a corrupted fused pair went unnoticed:\n{report}");
    assert!(report.statements.iter().all(StatementReport::is_clean), "{report}");
    assert!(report.finding_count() >= 2, "{report}");
    assert!(
        report
            .timestep
            .findings_for(Property::DeadlockFreedom)
            .any(|d| matches!(d.kind, DiagnosticKind::FusedSegmentOrphan { pair: 0, segment: 0 })),
        "{report}"
    );
}

#[test]
fn backends_agree_bit_for_bit() {
    for (name, src) in program_sources() {
        let run = |backend: Backend| {
            let elab = Elaborator::new(np_for(&name)).run(&src).expect("elaborates");
            let (lowered, diags) = Lowerer::lower(&elab);
            assert!(diags.is_empty(), "{diags:?}");
            let mut sess = Session::new(lowered.program).backend(backend);
            sess.run(2).expect("runs");
            sess.program().arrays.iter().map(|a| a.to_dense()).collect::<Vec<_>>()
        };
        assert_eq!(
            run(Backend::SharedMem),
            run(Backend::Channels),
            "{name}: backends diverge"
        );
    }
}

#[test]
fn warm_timesteps_replay_from_the_plan_cache() {
    let (name, src) = program_sources()
        .into_iter()
        .find(|(n, _)| n.contains("relaxation"))
        .expect("relaxation.hpf ships");
    let elab = Elaborator::new(np_for(&name)).run(&src).expect("elaborates");
    let (lowered, diags) = Lowerer::lower(&elab);
    assert!(diags.is_empty(), "{diags:?}");
    let mut sess = Session::new(lowered.program);
    sess.run(5).expect("runs");
    assert_eq!(sess.program().cache_misses(), 2, "one inspection per statement");
    assert_eq!(sess.program().cache_hits(), 8, "4 warm timesteps × 2 statements");
    let fs = sess.program().fusion_stats();
    assert_eq!(fs.supersteps, 2, "RAW dependency forces two supersteps");
}

/// Acceptance: a source with three or more distinct syntax errors reports
/// every one of them, each with a span, in a single run.
#[test]
fn multi_error_source_reports_all_spans() {
    let src = "\
      PROGRAM BAD
      REAL A(4
!HPF$ TEMPLATE T(100)
!HPF$ DISTRIBUTE A(BLOCK TO P
      REAL OK(8)
      END
";
    let (_, diags) = Elaborator::new(4).run_recover(src);
    assert!(diags.len() >= 3, "expected >=3 diagnostics, got {diags:?}");
    let lines: Vec<usize> = diags.iter().map(|d| d.span.line).collect();
    assert!(lines.contains(&2), "{lines:?}");
    assert!(lines.contains(&3), "{lines:?}");
    assert!(lines.contains(&4), "{lines:?}");
    for d in &diags {
        assert!(d.span.line >= 1 && d.span.col >= 1, "degenerate span in {d}");
    }
    let rendered = render_diagnostics(src, &diags);
    assert!(rendered.contains("errors found"), "{rendered}");
    // every diagnostic rendered its source line with a caret
    assert_eq!(rendered.matches("-->").count(), diags.len(), "{rendered}");
}
