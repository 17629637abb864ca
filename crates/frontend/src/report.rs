use crate::error::FrontendError;
use crate::eval::BoundExpr;
use crate::token::Span;
use hpf_core::{ArrayId, CallReport};
use hpf_index::{Idx, IndexDomain, Section};
use std::fmt;

/// One elaboration event — the narrative of what the directives did.
#[derive(Debug, Clone)]
pub enum Event {
    /// A processor arrangement was declared.
    Processors {
        /// Arrangement name.
        name: String,
        /// Shape rendering (empty for scalar arrangements).
        shape: String,
    },
    /// An array was declared.
    Declared {
        /// Array name.
        name: String,
        /// Domain rendering (`<deferred>` for unallocated allocatables).
        domain: String,
        /// `ALLOCATABLE` attribute.
        allocatable: bool,
    },
    /// A `DISTRIBUTE` directive was applied (or recorded, for
    /// allocatables).
    Distributed {
        /// Distributee.
        name: String,
        /// Directive rendering.
        spec: String,
    },
    /// An `ALIGN` directive was applied (or recorded).
    Aligned {
        /// Alignee.
        alignee: String,
        /// Base.
        base: String,
    },
    /// `DYNAMIC` was granted.
    Dynamic(String),
    /// An `ALLOCATE` executed.
    Allocated {
        /// Array.
        name: String,
        /// The allocated domain.
        domain: String,
    },
    /// A `DEALLOCATE` executed.
    Deallocated {
        /// Array.
        name: String,
        /// Former alignees promoted to primaries (§6).
        promoted: Vec<String>,
    },
    /// A `REDISTRIBUTE` executed.
    Redistributed {
        /// Array.
        name: String,
        /// Elements whose owner changed.
        moved: usize,
        /// Source span of the directive.
        span: Span,
    },
    /// A `REALIGN` executed.
    Realigned {
        /// Alignee.
        alignee: String,
        /// New base.
        base: String,
        /// Elements whose owner changed.
        moved: usize,
        /// Source span of the directive.
        span: Span,
    },
    /// A `READ` bound an input value.
    Read {
        /// Name.
        name: String,
        /// Value.
        value: i64,
    },
    /// A `CALL` completed, with its §7 remap accounting.
    Call(CallReport),
    /// An executable statement in the body of a called subroutine. A
    /// `CALL` applies the body's specification part and mapping
    /// directives only, so the statement is recorded, not executed.
    CallBody {
        /// The subroutine.
        procedure: String,
        /// Source span of the statement.
        span: Span,
    },
    /// An array assignment was recognized (to be executed by the runtime).
    Assignment(AssignEvent),
    /// A scalar-valued fill was resolved (to initialize runtime storage).
    Fill(FillEvent),
}

/// An array-assignment statement in resolved form: array ids plus concrete
/// sections, ready to hand to `hpf-runtime`.
#[derive(Debug, Clone)]
pub struct AssignEvent {
    /// LHS array name.
    pub lhs_name: String,
    /// LHS array id in the elaborated space.
    pub lhs: ArrayId,
    /// LHS section.
    pub lhs_section: Section,
    /// RHS terms: `(name, id, section)`.
    pub terms: Vec<(String, ArrayId, Section)>,
    /// Source span of the statement (for lowering-time diagnostics).
    pub span: Span,
}

/// A fill statement (`A(sec) = expr` or `FORALL (...) A(...) = expr`) in
/// resolved form: the statement itself, names bound, ready to be evaluated
/// over its index ranges — never a list of its elements. Fills run once,
/// before the timestep loop: the elaborator drives [`FillEvent::for_each`]
/// once to report every evaluation error at the statement, lowering
/// drives it again straight into the array's dense image.
///
/// `A(sec) = c` has the shape of the `FORALL` it abbreviates: an index per
/// dimension of `sec`, identity subscripts, a constant value.
#[derive(Debug, Clone)]
pub struct FillEvent {
    /// Target array name.
    pub name: String,
    /// Target array id in the elaborated space.
    pub array: ArrayId,
    /// Index domain of the target when the statement executed.
    pub domain: IndexDomain,
    /// The `FORALL` index space: dimension `k` is the range of the index
    /// in slot `k` of the expressions below.
    pub indices: IndexDomain,
    /// Subscript of the target in each of its dimensions.
    pub subscripts: Vec<BoundExpr>,
    /// The value stored.
    pub value: BoundExpr,
    /// Source span of the statement.
    pub span: Span,
}

impl FillEvent {
    /// Evaluate the statement: `sink(position, value)` for every point of
    /// the index space, first index fastest, with `position` the
    /// column-major position of the stored element in [`FillEvent::domain`]
    /// (a later point overwrites an earlier one at the same position).
    /// Stops at the first point whose subscripts or value fail to
    /// evaluate, or that lies outside the domain.
    pub fn for_each(&self, mut sink: impl FnMut(usize, f64)) -> Result<(), FrontendError> {
        for point in self.indices.iter() {
            let mut idx = Idx::SCALAR;
            for sub in &self.subscripts {
                idx.push(sub.eval(&point)?);
            }
            let position = self.domain.linearize(&idx).map_err(|_| {
                FrontendError::Eval(format!(
                    "FORALL writes `{}{}` outside its domain {}",
                    self.name, idx, self.domain
                ))
            })?;
            sink(position, self.value.eval(&point)? as f64);
        }
        Ok(())
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Processors { name, shape } => write!(f, "PROCESSORS {name}{shape}"),
            Event::Declared { name, domain, allocatable } => {
                write!(f, "declare {name}{domain}")?;
                if *allocatable {
                    write!(f, " ALLOCATABLE")?;
                }
                Ok(())
            }
            Event::Distributed { name, spec } => write!(f, "DISTRIBUTE {name} {spec}"),
            Event::Aligned { alignee, base } => write!(f, "ALIGN {alignee} WITH {base}"),
            Event::Dynamic(n) => write!(f, "DYNAMIC {n}"),
            Event::Allocated { name, domain } => write!(f, "ALLOCATE {name}{domain}"),
            Event::Deallocated { name, promoted } => {
                write!(f, "DEALLOCATE {name}")?;
                if !promoted.is_empty() {
                    write!(f, " (promoted to primary: {})", promoted.join(", "))?;
                }
                Ok(())
            }
            Event::Redistributed { name, moved, .. } => {
                write!(f, "REDISTRIBUTE {name} ({moved} elements moved)")
            }
            Event::Realigned { alignee, base, moved, .. } => {
                write!(f, "REALIGN {alignee} WITH {base} ({moved} elements moved)")
            }
            Event::Read { name, value } => write!(f, "READ {name} = {value}"),
            Event::Call(r) => {
                write!(f, "CALL {} ({} elements moved across boundary)", r.procedure, r.total_volume())
            }
            Event::CallBody { procedure, span } => {
                write!(f, "CALL {procedure}: line {} of the body not executed", span.line)
            }
            Event::Assignment(a) => {
                write!(f, "{}{} = ", a.lhs_name, a.lhs_section)?;
                for (k, (n, _, s)) in a.terms.iter().enumerate() {
                    if k > 0 {
                        write!(f, " + ")?;
                    }
                    write!(f, "{n}{s}")?;
                }
                Ok(())
            }
            Event::Fill(fl) => {
                write!(f, "fill {} ({} elements)", fl.name, fl.indices.size())
            }
        }
    }
}

/// The full elaboration narrative.
#[derive(Debug, Clone, Default)]
pub struct ElaborationReport {
    /// Events in program order.
    pub events: Vec<Event>,
}

impl ElaborationReport {
    /// All recognized array assignments, in order.
    pub fn assignments(&self) -> Vec<&AssignEvent> {
        self.events
            .iter()
            .filter_map(|e| match e {
                Event::Assignment(a) => Some(a),
                _ => None,
            })
            .collect()
    }

    /// All resolved fills, in order.
    pub fn fills(&self) -> Vec<&FillEvent> {
        self.events
            .iter()
            .filter_map(|e| match e {
                Event::Fill(fl) => Some(fl),
                _ => None,
            })
            .collect()
    }

    /// All completed calls.
    pub fn calls(&self) -> Vec<&CallReport> {
        self.events
            .iter()
            .filter_map(|e| match e {
                Event::Call(r) => Some(r),
                _ => None,
            })
            .collect()
    }

    /// Total elements moved by dynamic remapping (REDISTRIBUTE + REALIGN +
    /// procedure boundaries).
    pub fn total_remap_volume(&self) -> usize {
        self.events
            .iter()
            .map(|e| match e {
                Event::Redistributed { moved, .. } | Event::Realigned { moved, .. } => *moved,
                Event::Call(r) => r.total_volume(),
                _ => 0,
            })
            .sum()
    }
}

impl fmt::Display for ElaborationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.events {
            writeln!(f, "  {e}")?;
        }
        Ok(())
    }
}

// ------------------------------------------------------------ diagnostics

/// A frontend problem with the source span it was detected at.
///
/// The recovering entry points ([`crate::lex_recover`],
/// [`crate::parse_recover`], [`crate::Elaborator::run_recover`])
/// accumulate these instead of failing on the first error, so a malformed
/// program produces one batch of readable reports. Render a batch against
/// the source with [`render_diagnostics`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceDiagnostic {
    /// What went wrong.
    pub error: FrontendError,
    /// Where.
    pub span: Span,
}

impl SourceDiagnostic {
    /// Pair an error with its span.
    pub fn new(error: FrontendError, span: Span) -> Self {
        SourceDiagnostic { error, span }
    }

    /// The error message without any location prefix (the span carries
    /// the location).
    pub fn message(&self) -> String {
        let s = self.error.to_string();
        // FrontendError prefixes some variants with "line N: " — the span
        // already says where, so strip the redundant prefix for rendering.
        match s.split_once(": ") {
            Some((head, rest)) if head.starts_with("line ") => rest.to_string(),
            _ => s,
        }
    }
}

impl fmt::Display for SourceDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.span, self.message())
    }
}

/// Render a batch of diagnostics against the source text, `rustc`-style:
/// each diagnostic shows its message, position, the offending source
/// line, and a caret marker under the span.
///
/// ```text
/// error: expected `)`, found `,`
///   --> 3:19
///    |
///  3 | !HPF$ DISTRIBUTE A,BLOCK)
///    |                   ^
/// ```
pub fn render_diagnostics(src: &str, diags: &[SourceDiagnostic]) -> String {
    let lines: Vec<&str> = src.lines().collect();
    let mut out = String::new();
    for d in diags {
        out.push_str(&format!("error: {}\n", d.message()));
        out.push_str(&format!("  --> {}\n", d.span));
        if d.span.line >= 1 && d.span.line <= lines.len() {
            let text = lines[d.span.line - 1];
            let num = d.span.line.to_string();
            let pad = " ".repeat(num.len());
            out.push_str(&format!(" {pad} |\n"));
            out.push_str(&format!(" {num} | {text}\n"));
            let underline_at = d.span.col.saturating_sub(1).min(text.len());
            let carets = "^".repeat(d.span.len.max(1));
            out.push_str(&format!(" {pad} | {}{carets}\n", " ".repeat(underline_at)));
        }
    }
    if !diags.is_empty() {
        out.push_str(&format!(
            "{} error{} found\n",
            diags.len(),
            if diags.len() == 1 { "" } else { "s" }
        ));
    }
    out
}

#[cfg(test)]
mod render_tests {
    use super::*;

    #[test]
    fn renderer_underlines_the_span() {
        let src = "REAL A(4)\nREAL B(]";
        let diags = vec![SourceDiagnostic::new(
            FrontendError::Parse { line: 2, what: "expected expression, found `]`".into() },
            Span::new(2, 8, 1),
        )];
        let r = render_diagnostics(src, &diags);
        assert!(r.contains("error: expected expression"), "{r}");
        assert!(r.contains("--> 2:8"), "{r}");
        assert!(r.contains("2 | REAL B(]"), "{r}");
        assert!(r.contains("|        ^"), "{r}");
        assert!(r.contains("1 error found"), "{r}");
    }

    #[test]
    fn message_strips_line_prefix() {
        let d = SourceDiagnostic::new(
            FrontendError::Parse { line: 7, what: "bad thing".into() },
            Span::new(7, 3, 2),
        );
        assert_eq!(d.message(), "bad thing");
        assert_eq!(d.to_string(), "7:3: bad thing");
    }
}
