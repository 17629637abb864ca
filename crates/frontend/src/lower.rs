//! Lowering: an elaborated translation unit → a runtime [`Program`].
//!
//! This is the layer that closes the pipeline the paper describes: the
//! directives have been elaborated into [`hpf_core::EffectiveDist`]
//! mappings, the statement surface into resolved section assignments and
//! fills — lowering evaluates the fills into one dense image per array,
//! deals each image out to distributed storage
//! ([`DistArray::from_dense`]), and turns the assignments into a
//! multi-statement [`Program`] that executes through the inspector–executor
//! machinery (plan cache, program-level fusion, static verification)
//! unchanged.
//!
//! Lowering is total in the same way the recovering frontend is: every
//! problem (a non-conforming assignment, a fill or a remap after the
//! timestep statements began, a statement in a called subroutine's body,
//! a scalar in an array statement) is reported as a span-carrying
//! [`SourceDiagnostic`] and the rest of the program is still built, so a
//! tool such as `hpfrun` can render all defects in one run. A statement
//! lowering cannot run where it stands is refused, never dropped: every
//! array is built under its final mapping, and only the main unit's
//! assignments run.

use crate::elaborate::Elaboration;
use crate::error::FrontendError;
use crate::report::{Event, SourceDiagnostic};
use crate::token::Span;
use hpf_core::ArrayId;
use hpf_index::IndexDomain;
use hpf_runtime::{apply_dense, Assignment, Backend, Combine, DistArray, Program, Session, Term};
use std::collections::HashMap;

/// A lowered translation unit: the runtime program (arrays initialized
/// from the fills), plus the bookkeeping a driver or test needs to relate
/// runtime indices back to source names and spans.
#[derive(Debug)]
pub struct LoweredProgram {
    /// The runtime program, ready to run timesteps.
    pub program: Program,
    /// Array name of each runtime index (parallel to `program.arrays`).
    pub names: Vec<String>,
    /// The statements pushed into the program, in order (a copy — the
    /// program owns its own; kept so oracles can replay them).
    pub statements: Vec<Assignment>,
    /// Source span of each statement, parallel to `statements`.
    pub spans: Vec<Span>,
    /// Dense image of every array *after fills, before any timestep* — the
    /// very images the distributed storage was built from, and the
    /// starting state of [`LoweredProgram::dense_oracle`].
    pub initial_dense: Vec<Vec<f64>>,
}

impl LoweredProgram {
    /// Runtime index of array `name`, if it was lowered.
    pub fn array(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// Compute the expected dense value of every array after `steps`
    /// whole-program timesteps by naive element-wise evaluation, starting
    /// from the post-fill initial state. O(steps · statements · elements);
    /// never on the execution path — this is the oracle `--verify` and the
    /// equivalence tests compare distributed results against.
    pub fn dense_oracle(&self, steps: usize) -> Vec<Vec<f64>> {
        let domains: Vec<IndexDomain> =
            self.program.arrays.iter().map(|a| a.domain().clone()).collect();
        let mut dense = self.initial_dense.clone();
        for _ in 0..steps {
            for stmt in &self.statements {
                apply_dense(&mut dense, &domains, stmt);
            }
        }
        dense
    }

    /// Run `steps` timesteps on `backend` and compare every array,
    /// element for element, against [`LoweredProgram::dense_oracle`].
    /// Returns the first mismatch as a readable message. Must be called
    /// on a freshly lowered program (the oracle starts from the initial
    /// state).
    pub fn run_verified(&mut self, steps: usize, backend: Backend) -> Result<(), String> {
        let oracle = self.dense_oracle(steps);
        let program = std::mem::replace(&mut self.program, Program::new(Vec::new()));
        let mut session = Session::new(program).backend(backend);
        let outcome = session.run(steps as u64);
        self.program = session.into_program();
        outcome.map_err(|e| e.to_string())?;
        for (k, want) in oracle.iter().enumerate() {
            let got = self.program.arrays[k].to_dense();
            if &got != want {
                let at = got
                    .iter()
                    .zip(want)
                    .position(|(g, w)| g != w)
                    .expect("lengths equal, some element differs");
                return Err(format!(
                    "array `{}` diverges from the dense oracle after {} timestep(s): \
                     element {} is {} but the oracle says {}",
                    self.names[k], steps, at, got[at], want[at]
                ));
            }
        }
        Ok(())
    }
}

/// Lowers an [`Elaboration`] into a [`LoweredProgram`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Lowerer;

impl Lowerer {
    /// Lower `elab`, accumulating diagnostics instead of failing: arrays
    /// whose statements are defective are still created, and every valid
    /// statement still executes. An empty diagnostic vector means the
    /// whole unit lowered cleanly.
    pub fn lower(elab: &Elaboration) -> (LoweredProgram, Vec<SourceDiagnostic>) {
        let mut diags = Vec::new();
        let np = elab.space.np();

        // Deterministic array order: elaboration declaration order (ArrayId
        // is the DataSpace insertion index). Rank-0 scalars and
        // never-allocated allocatables have no distributed storage to
        // create; statements referencing them get diagnostics below.
        let mut ids: Vec<(&String, ArrayId)> =
            elab.arrays.iter().map(|(n, &id)| (n, id)).collect();
        ids.sort_by_key(|&(_, id)| id.0);
        let mut index: HashMap<ArrayId, usize> = HashMap::new();
        let mut names = Vec::new();
        let mut mappings = Vec::new();
        let mut images: Vec<Vec<f64>> = Vec::new();
        for (name, id) in ids {
            let Some(dom) = elab.space.domain(id) else { continue };
            if dom.rank() == 0 {
                continue;
            }
            let Ok(mapping) = elab.space.effective(id) else { continue };
            index.insert(id, names.len());
            names.push(name.clone());
            mappings.push(mapping);
            images.push(vec![0.0; dom.size()]);
        }

        // Walk the elaboration narrative in program order. Fills run once,
        // now, on the arrays' dense images (zero until filled); assignments
        // become the program's timestep statements. A fill written after
        // the first assignment would run out of order, so it is rejected.
        let domains_owned: Vec<IndexDomain> =
            mappings.iter().map(|m| m.domain().clone()).collect();
        let mut statements: Vec<Assignment> = Vec::new();
        let mut spans: Vec<Span> = Vec::new();
        for ev in &elab.report.events {
            match ev {
                Event::Fill(f) => {
                    let Some(&k) = index.get(&f.array) else {
                        diags.push(SourceDiagnostic::new(
                            scalar_in_array_stmt(&f.name, f.span),
                            f.span,
                        ));
                        continue;
                    };
                    if !statements.is_empty() {
                        diags.push(SourceDiagnostic::new(
                            FrontendError::Parse {
                                line: f.span.line,
                                what: format!(
                                    "fill of `{}` after an array assignment — fills \
                                     initialize storage once and must precede the \
                                     timestep statements",
                                    f.name
                                ),
                            },
                            f.span,
                        ));
                        continue;
                    }
                    let image = &mut images[k];
                    if let Err(e) = f.for_each(|position, v| image[position] = v) {
                        diags.push(SourceDiagnostic::new(e, f.span));
                    }
                }
                Event::Assignment(a) => {
                    let Some(&lhs) = index.get(&a.lhs) else {
                        diags.push(SourceDiagnostic::new(
                            scalar_in_array_stmt(&a.lhs_name, a.span),
                            a.span,
                        ));
                        continue;
                    };
                    let mut terms = Vec::with_capacity(a.terms.len());
                    let mut ok = true;
                    for (tname, tid, tsec) in &a.terms {
                        match index.get(tid) {
                            Some(&t) => terms.push(Term::new(t, tsec.clone())),
                            None => {
                                diags.push(SourceDiagnostic::new(
                                    scalar_in_array_stmt(tname, a.span),
                                    a.span,
                                ));
                                ok = false;
                            }
                        }
                    }
                    if !ok {
                        continue;
                    }
                    let combine =
                        if terms.len() == 1 { Combine::Copy } else { Combine::Sum };
                    let doms: Vec<&IndexDomain> = domains_owned.iter().collect();
                    match Assignment::new(lhs, a.lhs_section.clone(), terms, combine, &doms)
                    {
                        Ok(stmt) => {
                            statements.push(stmt);
                            spans.push(a.span);
                        }
                        Err(e) => diags.push(SourceDiagnostic::new(
                            FrontendError::Parse {
                                line: a.span.line,
                                what: format!("cannot lower assignment to `{}`: {e}", a.lhs_name),
                            },
                            a.span,
                        )),
                    }
                }
                Event::Redistributed { span, .. } | Event::Realigned { span, .. }
                    if !statements.is_empty() =>
                {
                    diags.push(SourceDiagnostic::new(
                        FrontendError::Parse {
                            line: span.line,
                            what: "remap after an array assignment — every statement runs \
                                   under the final mapping and the remap itself never \
                                   runs; remaps must precede the timestep statements"
                                .into(),
                        },
                        *span,
                    ));
                }
                Event::CallBody { procedure, span } => diags.push(SourceDiagnostic::new(
                    FrontendError::Parse {
                        line: span.line,
                        what: format!(
                            "executable statement in the body of SUBROUTINE {procedure} — \
                             a CALL applies only the body's specification part and \
                             mapping directives, so this statement would never run"
                        ),
                    },
                    *span,
                )),
                _ => {}
            }
        }

        let arrays = (0..names.len())
            .map(|k| DistArray::from_dense(&names[k], mappings[k].clone(), np, &images[k]))
            .collect();
        let mut program = Program::new(arrays);
        for stmt in &statements {
            program.push(stmt.clone()).expect("validated above against the same domains");
        }
        (
            LoweredProgram { program, names, statements, spans, initial_dense: images },
            diags,
        )
    }
}

fn scalar_in_array_stmt(name: &str, span: Span) -> FrontendError {
    FrontendError::Parse {
        line: span.line,
        what: format!(
            "`{name}` has no distributed storage (scalar or never-allocated array) — \
             it cannot appear in an array statement"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Elaborator;

    fn lower_src(src: &str) -> (LoweredProgram, Vec<SourceDiagnostic>) {
        let elab = Elaborator::new(4).run(src).expect("elaborates");
        Lowerer::lower(&elab)
    }

    #[test]
    fn quickstart_shape_lowers_and_runs() {
        let src = "\
      PROGRAM DEMO
      PARAMETER (N = 16)
      REAL A(N), B(N)
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE A(BLOCK) TO P
!HPF$ DISTRIBUTE B(CYCLIC) TO P
      FORALL (I = 1:N) B(I) = I
      A(2:N) = B(1:N-1)
      END
";
        let (mut low, diags) = lower_src(src);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(low.names, vec!["A", "B"]);
        assert_eq!(low.statements.len(), 1);
        low.run_verified(3, Backend::SharedMem).unwrap();
    }

    #[test]
    fn fills_evaluate_into_the_dense_image_in_statement_order() {
        let src = "\
      PROGRAM DEMO
      REAL A(4), M(3,2)
!HPF$ PROCESSORS G(2,2)
!HPF$ DISTRIBUTE A(CYCLIC)
!HPF$ DISTRIBUTE M(BLOCK,CYCLIC) TO G
      A = 1
      FORALL (I = 1:4) A((I + 1) / 2) = 2 * I
      M(2,:) = 5
      M(3:1:-2,2) = 9
      END
";
        let (low, diags) = lower_src(src);
        assert!(diags.is_empty(), "{diags:?}");
        // two FORALL points per element of A(1:2): the later one stays
        assert_eq!(low.initial_dense[0], vec![4.0, 8.0, 1.0, 1.0]);
        assert_eq!(low.initial_dense[1], vec![0.0, 5.0, 0.0, 9.0, 5.0, 9.0]);
        for (array, image) in low.program.arrays.iter().zip(&low.initial_dense) {
            assert_eq!(&array.to_dense(), image, "{}", array.name());
        }
    }

    #[test]
    fn bad_conformance_is_a_spanned_diagnostic() {
        let src = "\
      PROGRAM DEMO
      PARAMETER (N = 8)
      REAL A(N), B(N)
!HPF$ DISTRIBUTE A(BLOCK)
      A(1:4) = B(1:5)
      END
";
        let (low, diags) = lower_src(src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].span.line, 5);
        assert!(low.statements.is_empty());
        assert!(diags[0].to_string().contains("cannot lower assignment"), "{}", diags[0]);
    }

    #[test]
    fn fill_after_assignment_is_rejected() {
        let src = "\
      PROGRAM DEMO
      PARAMETER (N = 8)
      REAL A(N), B(N)
      A(1:N) = B(1:N)
      B = 1
      END
";
        let (_, diags) = lower_src(src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].to_string().contains("fill of `B` after"), "{}", diags[0]);
        assert_eq!(diags[0].span.line, 5);
    }

    #[test]
    fn specification_only_calls_and_early_remaps_still_lower() {
        let src = "\
      PROGRAM DEMO
      PARAMETER (N = 16)
      REAL A(N), B(N)
!HPF$ DYNAMIC A
!HPF$ DISTRIBUTE (BLOCK) :: A, B
      FORALL (I = 1:N) A(I) = I
!HPF$ REDISTRIBUTE A(CYCLIC)
      CALL SUB(A)
      B(2:N) = A(1:N-1)
!HPF$ REDISTRIBUTE A(CYCLIC(2))
      CALL SUB(A)
      END

      SUBROUTINE SUB(X)
      REAL X(16)
!HPF$ DISTRIBUTE X(CYCLIC(3))
      END
";
        let (_, diags) = lower_src(src);
        assert_eq!(diags.len(), 1, "only the remap after the assignment: {diags:?}");
        assert_eq!(diags[0].span.line, 10);
        let clean = src.replace("!HPF$ REDISTRIBUTE A(CYCLIC(2))\n", "");
        let (mut low, diags) = lower_src(&clean);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(low.statements.len(), 1);
        low.run_verified(2, Backend::SharedMem).unwrap();
    }
}
