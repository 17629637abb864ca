//! # hpf-runtime — distributed arrays and owner-computes execution
//!
//! The substrate that turns the paper's mapping model into running code:
//! global-index-space array assignments (the programming style HPF's
//! directives support — "these languages allow a programming style in which
//! global data references are used", §1) executed over distributed storage
//! with the **owner-computes rule**, exactly as a 1993 HPF compiler would
//! lower them:
//!
//! * [`DistArray`] — an array whose elements live in per-processor local
//!   buffers according to an `hpf-core` [`hpf_core::EffectiveDist`];
//! * [`Assignment`] — `LHS(section) = f(RHS1(section1), ...)`, the §8.1.1
//!   staggered-grid statement being the canonical instance;
//! * [`comm_analysis`] — *exact* communication sets computed with the
//!   regular-section algebra (no per-element enumeration for affine
//!   mappings);
//! * [`ExecPlan`] / [`PlanCache`] — the inspector–executor split: a
//!   statement is lowered **once** into per-processor store/gather
//!   schedules of regular sections ([`StoreRun`] blocks and strided
//!   [`CopyRun`]s — a BLOCK↔CYCLIC exchange costs a run per processor
//!   pair, not per element) plus a compute-piece table
//!   saying which local operands the kernel reads in place and which are
//!   staged first, then replayed every timestep from a cache keyed by
//!   statement shape and mapping identity. The receiver-side gather runs
//!   are the **one** description of a reference's communication set: a
//!   remote run is a ghost block, and nothing else writes it down again;
//! * [`ProgramPlan`] — program-level plan fusion: the statements of a
//!   timestep scheduled into a superstep DAG (level scheduling over
//!   RAW/WAW hazards; a WAR pair may share a superstep — operands are
//!   snapshotted or read before the later statement's kernel runs — but a
//!   writer is never hoisted before its reader), their remote gather runs
//!   bucketed straight into one [`FusedPair`] per (superstep, sender,
//!   receiver) — the single send-side form, whose [`FusedSegment`]s carry
//!   the static dirty flags, so ghost data whose source no statement wrote
//!   is never re-packed or re-sent on warm timesteps. A single statement
//!   is the one-superstep plan;
//! * [`ExchangeBackend`] — **the one step path**: a timestep executes as
//!   [`PlanCache::replay`] → [`ExchangeBackend::step`] on a
//!   [`ProgramPlan`], and the backend — how messages move — is the only
//!   thing that varies: [`SharedMemBackend`] (direct copies staged through
//!   the persistent buffers of a [`FusedWorkspace`], zero-allocation warm;
//!   a thread bound spreads stage and compute over scoped threads) or
//!   `ChannelsBackend` (a true message-passing SPMD executor: one
//!   long-lived worker per simulated processor owning only its local
//!   shards, packed messages over channels, measured wire bytes
//!   cross-checked against the dirty-tracking mask);
//! * [`dense_reference`] / [`apply_dense`] — the dense oracle every
//!   configuration is verified against element for element;
//! * [`remap_analysis`] — the exact traffic of a `REDISTRIBUTE`/`REALIGN`
//!   event (§4.2/§5.2) and of §7 copy-in/copy-out;
//! * [`ghost_regions`] — SUPERB-style overlap areas per processor and
//!   operand (the paper's reference \[11\]);
//! * [`Program`] — multi-statement execution with cumulative statistics
//!   ([`FusionStats`] counting supersteps, coalesced messages, and ghost
//!   bytes avoided);
//! * [`verify_plan`] / [`verify_program_plan`] — static schedule
//!   verification: prove (or refute with precise diagnostics) write
//!   coverage, bounds, race freedom and analysis conservation of each
//!   statement's runs, and hazard freedom, deadlock freedom and
//!   conservation of the fused messages that execute, before anything
//!   runs. [`Program::verify_all`] returns both in one [`VerifyReport`];
//!   [`PlanCache`] also asserts them on every insertion in debug builds
//!   and behind the `verify` feature in release;
//! * [`ckpt`] / [`FaultPlan`] — fault-tolerant execution: exchange
//!   faults surface as typed [`ExchangeError`]s instead of panics,
//!   deterministic fault injection (worker kills, dropped/corrupted/
//!   delayed messages, pool poisoning) exercises the failure paths,
//!   and distribution-aware checkpoints restore across *different*
//!   mappings and processor counts ([`Session::run`] ties it into a
//!   restore-and-replay recovery loop with bounded retries and
//!   graceful degradation to `SharedMem`);
//! * [`Session`] — the execution-session API: one builder for backend,
//!   thread bound, fusion, checkpoint cadence, fault recovery, and
//!   adaptive redistribution — all configurations of the one step path;
//! * [`adapt`] — self-adaptive redistribution: a controller that watches
//!   the measured per-rank load of warm replay ([`Program::stats`]
//!   exposes the per-processor breakdown), prices candidate remappings
//!   (`GENERAL_BLOCK` fitted to observed load, re-blocking, grid
//!   reshapes) against the machine model with an amortization horizon,
//!   and performs live [`Program::remap`]s under hysteresis + cooldown.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapt;
mod array;
mod assign;
mod backend;
mod cache;
pub mod ckpt;
mod commsets;
mod exec;
mod fault;
mod fuse;
mod ghost;
mod plan;
mod program;
mod remap;
mod session;
mod spmd;
#[cfg(test)]
mod testing;
pub mod verify;
mod workspace;

pub use array::DistArray;
pub use assign::{Assignment, Combine, Term};
pub use backend::{Backend, ExchangeBackend, ExchangeError, SharedMemBackend};
pub use adapt::{AdaptEvent, AdaptPolicy, AdaptReport};
pub use cache::PlanCache;
pub use ckpt::{
    latest_checkpoint, restore_checkpoint, save_checkpoint, CheckpointSpec, CkptError,
    CkptReport, RecoveryPolicy, RestoreReport,
};
pub use fault::{Fault, FaultPlan};
pub use commsets::{comm_analysis, CommAnalysis};
pub use exec::{apply_dense, dense_reference};
pub use fuse::{
    BufferDomain, FusedPair, FusedSegment, FusedState, FusionStats, ProgramPlan, Superstep,
};
pub use ghost::{ghost_regions, GhostReport};
pub use plan::{
    AnalysisVerdict, CopyRun, ExecPlan, GatherRef, PieceSrc, ProcPlan, StoreRun, TermSchedule,
    DIRECT_MIN_RUN,
};
pub use program::{Program, ProgramStats};
pub use remap::{remap_analysis, RemapAnalysis};
pub use session::{Session, SessionReport};
pub use verify::{
    verify_plan, verify_program_plan, Diagnostic, DiagnosticKind, FusionReport, Property,
    StatementReport, VerifyReport, VerifyStats,
};
pub use workspace::FusedWorkspace;
