//! The most common imports in one place: `use hpf::prelude::*;`.
//!
//! Re-exports the surface every test, example, and downstream program
//! touches:
//!
//! * from `hpf-core` — the mapping model: [`DataSpace`], the directive
//!   bodies [`DistributeSpec`]/[`FormatSpec`]/[`TargetSpec`] and
//!   [`AlignSpec`], the resolved [`Distribution`]/[`EffectiveDist`],
//!   procedure boundaries ([`CallFrame`] and friends), and [`inquiry`];
//! * from `hpf-index` — [`IndexDomain`], [`Idx`], [`Section`],
//!   [`Triplet`], the region algebra, and the [`span`]/[`triplet`]
//!   constructors;
//! * from `hpf-procs` — [`ProcId`], [`ProcSpace`], [`ProcTarget`];
//! * from `hpf-machine` — the machine simulator entry points;
//! * from `hpf-runtime` — distributed arrays, compiled plans, the
//!   execution [`Session`] and the exchange backends;
//! * from `hpf-frontend` — the `!HPF$` [`Elaborator`];
//! * from `hpf-template` — the §8 template-model baseline.

pub use hpf_core::{
    inquiry, Actual, AlignExpr, AlignSpec, AligneeAxis, AlignmentFn, ArrayId, AxisMap,
    BaseSubscript, CallFrame, DataSpace, DistributeSpec, Distribution, Dummy, DummySpec,
    EffectiveDist, FormatSpec, GeneralBlock, HpfError, MappingId, ProcSet, ProcedureDef,
    TargetSpec,
};
pub use hpf_frontend::{
    render_diagnostics, Elaboration, Elaborator, FrontendError, LoweredProgram, Lowerer,
    SourceDiagnostic, Span,
};
pub use hpf_index::{
    span, triplet, Idx, IndexDomain, Rect, Region, Section, SectionDim, Triplet,
};
pub use hpf_machine::{CommStats, CostModel, Machine, Topology};
pub use hpf_procs::{ProcId, ProcSpace, ProcTarget, ScalarPolicy};
pub use hpf_runtime::{
    apply_dense, comm_analysis, dense_reference, ghost_regions, latest_checkpoint,
    remap_analysis, restore_checkpoint, save_checkpoint, verify_plan,
    verify_program_plan, AdaptController, AdaptEvent, AdaptPolicy, AdaptReport,
    AnalysisVerdict, Assignment, Backend, BufferDomain, ChannelsBackend, CheckpointSpec,
    CkptError, CkptReport, Combine, CommAnalysis, CopyRun, Diagnostic, DiagnosticKind,
    DistArray, ExchangeBackend, ExchangeError, ExecPlan, Fault, FaultPlan, FusedPair,
    FusedSegment, FusedState, FusedWorkspace, FusionReport, FusionStats, GatherRef,
    GhostReport, PieceSrc, PlanCache, PlanWorkspace, ProcPlan, Program, ProgramPlan,
    ProgramStats, Property, RecoveryPolicy, RemapAnalysis, RestoreReport, Session,
    SessionReport, SharedMemBackend, StatementReport, StatementTrace, StoreRun, Superstep,
    Term, TermSchedule, VerifyReport, VerifyStats, DIRECT_MIN_RUN,
};
pub use hpf_template::{TemplateError, TemplateModel};
