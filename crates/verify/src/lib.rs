//! # hpf-verify — prove compiled plans safe before they run
//!
//! The public surface of the static schedule verifier: the analysis pass
//! itself lives in `hpf-runtime` (so the [`PlanCache`] can run it on every
//! plan insertion without a dependency cycle); this crate re-exports it,
//! packages the workspace's example programs as verifiable
//! [`scenarios`], and ships the `hpf-lint` binary that runs the full pass
//! from the command line:
//!
//! ```text
//! cargo run --release -p hpf-verify --bin hpf-lint          # all scenarios
//! cargo run --release -p hpf-verify --bin hpf-lint -- quickstart
//! ```
//!
//! Five properties are decided per program, each refutation carrying
//! exact processor/run/segment coordinates. The gather runs of each
//! statement's [`ExecPlan`](hpf_runtime::ExecPlan) are the one description
//! of what is exchanged and the fused pairs of the timestep's
//! [`ProgramPlan`](hpf_runtime::ProgramPlan) the one form it is sent in,
//! so [`VerifyReport`] holds a [`StatementReport`] per statement and one
//! [`FusionReport`] for the timestep:
//!
//! 1. **write coverage** (statement) — store runs tile every processor's
//!    owned LHS section exactly (no gap, overlap, or stray write);
//! 2. **bounds** (both) — every [`CopyRun`](hpf_runtime::CopyRun) source
//!    and destination stays inside the owning shard and pack-buffer
//!    extents and addresses the statement-named element; every
//!    [`FusedSegment`](hpf_runtime::FusedSegment) the sender packs stays
//!    inside its shard;
//! 3. **race freedom** (both) — disjoint worker store sets and a sound
//!    stage → exchange → compute happens-before order per statement; no
//!    same-superstep hazard, sound pack phases and sound dirty flags per
//!    timestep;
//! 4. **deadlock freedom** (timestep) — the fused pairs form a schedulable
//!    exchange (no self-message, processors in range, strictly ordered,
//!    non-empty) whose segments are exactly the remote gather runs: every
//!    send is received, every expected receive is sent;
//! 5. **conservation** (both) — the remote runs' elements equal the frozen
//!    [`CommAnalysis`](hpf_runtime::CommAnalysis) totals pair for pair,
//!    with replicated mappings reported as an explicit
//!    [`AnalysisVerdict::ReplicatedDivergence`] instead of being skipped;
//!    every fused pair declares exactly what its segments carry.
//!
//! [`PlanCache`]: hpf_runtime::PlanCache

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod scenarios;

pub use hpf_runtime::{
    verify_plan, verify_program_plan, AnalysisVerdict, Diagnostic, DiagnosticKind, FusionReport,
    Property, StatementReport, VerifyReport, VerifyStats,
};
