//! # hpf-frontend — the directive sub-language
//!
//! A lexer, parser and elaborator for the language the paper defines: the
//! Fortran-90 declaration subset plus the `!HPF$` directives `PROCESSORS`,
//! `DISTRIBUTE`, `REDISTRIBUTE`, `ALIGN`, `REALIGN` and `DYNAMIC`, the
//! `ALLOCATE`/`DEALLOCATE` statements of §6, and the `CALL`/`SUBROUTINE`
//! machinery of §7 (including the `DISTRIBUTE A *` inheritance forms).
//!
//! There is — deliberately — **no `TEMPLATE` directive**: parsing one
//! produces [`FrontendError::TemplateDirective`] with the §8 rewrite
//! guidance. That is the paper's thesis as a compiler diagnostic.
//!
//! ```
//! use hpf_frontend::Elaborator;
//! use hpf_index::Idx;
//!
//! let program = r#"
//!       PROGRAM DEMO
//!       PARAMETER (N = 16)
//!       REAL A(N), B(N)
//! !HPF$ PROCESSORS P(4)
//! !HPF$ DISTRIBUTE B(CYCLIC) TO P
//! !HPF$ ALIGN A(I) WITH B(N+1-I)
//!       END
//! "#;
//! let elab = Elaborator::new(4).run(program).unwrap();
//! let a = elab.array("A").unwrap();
//! let b = elab.array("B").unwrap();
//! // the collocation guarantee: A(I) lives with B(N+1-I)
//! assert_eq!(
//!     elab.space.owners(a, &Idx::d1(1)).unwrap(),
//!     elab.space.owners(b, &Idx::d1(16)).unwrap(),
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
mod elaborate;
mod error;
mod eval;
mod lexer;
pub mod lower;
mod output;
mod parser;
mod report;
mod token;

pub use elaborate::{Elaboration, Elaborator};
pub use error::FrontendError;
pub use eval::{BoundExpr, Env};
pub use lexer::{lex, lex_recover};
pub use lower::{LoweredProgram, Lowerer};
pub use output::ToolOutput;
pub use parser::{parse, parse_recover};
pub use report::{
    render_diagnostics, AssignEvent, ElaborationReport, Event, FillEvent, SourceDiagnostic,
};
pub use token::{Span, Spanned, Tok};
