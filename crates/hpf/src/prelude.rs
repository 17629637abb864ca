//! The most common imports in one place: `use hpf::prelude::*;`.
//!
//! Re-exports exactly the names the workspace's tests and examples use
//! (everything else stays reachable through the crate modules, e.g.
//! `hpf::runtime::VerifyReport`):
//!
//! * from `hpf-core` — the mapping model: [`DataSpace`], the directive
//!   bodies [`DistributeSpec`]/[`FormatSpec`] and [`AlignSpec`], the
//!   resolved [`EffectiveDist`], procedure boundaries ([`CallFrame`] and
//!   friends), and [`inquiry`];
//! * from `hpf-index` — [`IndexDomain`], [`Idx`], [`Section`],
//!   [`Triplet`], and the [`span`]/[`triplet`] constructors;
//! * from `hpf-procs` — [`ProcId`];
//! * from `hpf-machine` — the machine simulator entry points;
//! * from `hpf-runtime` — distributed arrays, compiled plans, the
//!   execution [`Session`], checkpoints, fault plans and the static
//!   verifier's reports;
//! * from `hpf-frontend` — the `!HPF$` [`Elaborator`] and [`Lowerer`];
//! * from `hpf-template` — the §8 template-model baseline.

pub use hpf_core::{
    inquiry, Actual, AlignExpr, AlignSpec, AligneeAxis, ArrayId, BaseSubscript, CallFrame,
    DataSpace, DistributeSpec, Dummy, DummySpec, EffectiveDist, FormatSpec, GeneralBlock, HpfError,
    ProcSet, ProcedureDef,
};
pub use hpf_frontend::{render_diagnostics, Elaborator, Lowerer};
pub use hpf_index::{span, triplet, Idx, IndexDomain, Section, Triplet};
pub use hpf_machine::{CommStats, CostModel, Machine, Topology};
pub use hpf_procs::ProcId;
pub use hpf_runtime::{
    apply_dense, comm_analysis, dense_reference, ghost_regions, latest_checkpoint, remap_analysis,
    restore_checkpoint, save_checkpoint, verify_plan, verify_program_plan, AdaptPolicy,
    AdaptReport, AnalysisVerdict, Assignment, Backend, CheckpointSpec, CkptError, Combine,
    CommAnalysis, CopyRun, DiagnosticKind, DistArray, ExecPlan, Fault, FaultPlan, FusedPair,
    FusionReport, PieceSrc, PlanCache, ProcPlan, Program, ProgramPlan, Property, Session,
    SharedMemBackend, StatementReport, Term, DIRECT_MIN_RUN,
};
pub use hpf_template::{TemplateError, TemplateModel};
