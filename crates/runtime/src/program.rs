//! Multi-statement execution: a sequence of array assignments over a
//! shared set of distributed arrays, with cumulative communication and
//! load statistics — the unit the E-series experiments price on the
//! machine model.
//!
//! Programs execute through a [`PlanCache`], driven by a
//! [`Session`](crate::Session): each statement is inspected into an
//! [`crate::ExecPlan`] the first time it runs, the statement list is
//! compiled into one [`crate::ProgramPlan`], and every later timestep
//! replays it through the selected [`ExchangeBackend`] — so iterated
//! solvers pay inspection (ownership lookups, comm analysis) once, and
//! O(elements moved + computed) per iteration. Warm timesteps on the
//! `SharedMem` backend without a thread bound are **allocation-free**:
//! the cache replays the plan into its preallocated
//! [`crate::FusedWorkspace`], the per-statement analyses come back as
//! `Arc` handles into the frozen plans, and the result buffer is reused
//! across calls (asserted by the `zero_alloc_replay` integration test).
//! A thread bound reuses the same workspace but pays scoped-thread spawn
//! cost (and its allocations) per timestep. Remapping an array (see
//! [`Program::remap`]) changes its mapping identity and invalidates
//! exactly the plans that involve it — the primitive the adaptive
//! controller (see [`crate::adapt`]) drives live.

use crate::assign::Assignment;
use crate::backend::{Backend, ExchangeBackend, SharedMemBackend};
use crate::cache::PlanCache;
use crate::ckpt::{self, CkptError, CkptReport, RestoreReport};
use crate::commsets::CommAnalysis;
use crate::fault::FaultPlan;
use crate::fuse::FusionStats;
use crate::remap::{remap_analysis, RemapAnalysis};
use crate::spmd::ChannelsBackend;
use crate::DistArray;
use hpf_core::{EffectiveDist, HpfError};
use hpf_machine::{CommStats, Machine, SuperstepReport};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Per-processor breakdown of the last executed timestep — the
/// observability surface the adaptive controller (and users) read.
///
/// `rank_loads` and `rank_bytes_sent` come from the frozen per-statement
/// analyses (modeled element-ops computed and wire bytes originated per
/// simulated processor, before dirty-tracking elides clean ghost units);
/// `rank_compute_ns` is the *measured* wall-time each simulated processor
/// spent in compute kernels during the last timestep, sampled by the
/// exchange backend that ran it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProgramStats {
    /// Simulated processor count the vectors below are indexed by.
    pub np: usize,
    /// Modeled per-rank load (elements computed × RHS terms) of the last
    /// timestep, summed over statements.
    pub rank_loads: Vec<u64>,
    /// Modeled wire bytes each rank *originated* in the last timestep
    /// (sender-side, summed over statements).
    pub rank_bytes_sent: Vec<u64>,
    /// Measured wall-nanoseconds each rank spent in compute kernels
    /// during the last timestep (zeros when unmeasured).
    pub rank_compute_ns: Vec<u64>,
    /// Lifetime bytes the exchange backends actually moved.
    pub bytes_sent: u64,
    /// Lifetime cached-plan replays.
    pub cache_hits: u64,
    /// Lifetime fresh plan inspections.
    pub cache_misses: u64,
}

impl ProgramStats {
    /// Measured load imbalance of the last timestep: `max/mean` of the
    /// per-rank compute-time samples (falling back to the modeled loads
    /// when the measured vector is all zeros). `1.0` means perfectly
    /// balanced; returns `1.0` when nothing ran.
    pub fn imbalance(&self) -> f64 {
        let pick = |v: &[u64]| -> Option<f64> {
            let sum: u64 = v.iter().sum();
            if sum == 0 || v.is_empty() {
                return None;
            }
            let max = *v.iter().max().unwrap() as f64;
            Some(max / (sum as f64 / v.len() as f64))
        };
        pick(&self.rank_compute_ns).or_else(|| pick(&self.rank_loads)).unwrap_or(1.0)
    }
}

/// A program: distributed arrays plus an ordered statement list, executed
/// a whole timestep at a time (see [`crate::ProgramPlan`]).
#[derive(Debug, Default)]
pub struct Program {
    /// The arrays, referenced by position from the statements.
    pub arrays: Vec<DistArray<f64>>,
    stmts: Vec<Assignment>,
    cache: PlanCache,
    exchanges: Exchanges,
    /// Reused per-run analysis handles — retains its capacity so warm
    /// timesteps push into it without allocating.
    last: Vec<Arc<CommAnalysis>>,
    /// Fault plan waiting to be armed on whichever backend the next run
    /// selects (arming only the selected backend keeps a one-shot fault
    /// from firing twice when recovery degrades to the other backend).
    pending_faults: Option<FaultPlan>,
}

/// The exchange backends a program can run on, one instance each: the one
/// place a [`Backend`] selector turns into an [`ExchangeBackend`].
#[derive(Debug, Default)]
struct Exchanges {
    /// The shared-address-space backend (cheap, always present).
    shared: SharedMemBackend,
    /// The message-passing SPMD backend, created lazily by the first
    /// timestep that selects it; its worker fleet then persists across
    /// timesteps.
    channels: Option<ChannelsBackend>,
    /// Wedge-detection timeout for the `Channels` driver, if overridden.
    step_timeout: Option<Duration>,
}

impl Exchanges {
    /// The instance of `backend`, with `threads` as the `SharedMem` thread
    /// bound.
    fn select(&mut self, backend: Backend, threads: usize) -> &mut dyn ExchangeBackend {
        match backend {
            Backend::SharedMem => {
                self.shared.set_threads(threads);
                &mut self.shared
            }
            Backend::Channels => {
                let timeout = self.step_timeout;
                self.channels.get_or_insert_with(|| {
                    let mut ch = ChannelsBackend::new();
                    if let Some(t) = timeout {
                        ch.set_step_timeout(t);
                    }
                    ch
                })
            }
        }
    }

    /// Every backend that exists so far.
    fn iter(&self) -> impl Iterator<Item = &dyn ExchangeBackend> {
        let channels = self.channels.as_ref().map(|c| c as &dyn ExchangeBackend);
        std::iter::once(&self.shared as &dyn ExchangeBackend).chain(channels)
    }
}

impl Clone for Program {
    /// Clones the arrays, statements, and plan cache. Backend state
    /// (worker fleets, byte counters) and armed fault injection are
    /// per-instance and start fresh in the clone.
    fn clone(&self) -> Self {
        Program {
            arrays: self.arrays.clone(),
            stmts: self.stmts.clone(),
            cache: self.cache.clone(),
            exchanges: Exchanges {
                step_timeout: self.exchanges.step_timeout,
                ..Exchanges::default()
            },
            last: self.last.clone(),
            pending_faults: None,
        }
    }
}

impl Program {
    /// Create over a set of arrays.
    pub fn new(arrays: Vec<DistArray<f64>>) -> Self {
        Program {
            arrays,
            stmts: Vec::new(),
            cache: PlanCache::new(),
            exchanges: Exchanges::default(),
            last: Vec::new(),
            pending_faults: None,
        }
    }

    /// Append a statement (validated against the arrays' domains).
    pub fn push(&mut self, stmt: Assignment) -> Result<(), HpfError> {
        let doms: Vec<&hpf_index::IndexDomain> =
            self.arrays.iter().map(|a| a.domain()).collect();
        stmt.validate(&doms)?;
        self.stmts.push(stmt);
        Ok(())
    }

    /// Number of statements.
    pub fn len(&self) -> usize {
        self.stmts.len()
    }

    /// True iff no statements were added.
    pub fn is_empty(&self) -> bool {
        self.stmts.is_empty()
    }

    /// Execute one timestep — every statement in order — on the selected
    /// [`Backend`], the one way a program runs. The statement list
    /// replays through the cached [`crate::ProgramPlan`] (see
    /// [`PlanCache::replay`]): fused, statements are level-scheduled into
    /// supersteps, same-pair messages coalesce, and ghost units whose
    /// receiver-side data is still current are skipped entirely; with
    /// `fused = false` every statement is its own superstep with a full
    /// ghost exchange — the pre-fusion baseline the `bench_gate` fusion
    /// entry and the fusion equivalence suite compare against. `threads`
    /// bounds the scoped threads the `SharedMem` backend spreads stage and
    /// compute over (`<= 1`: inline, allocation-free when warm); the
    /// `Channels` backend's SPMD worker fleet — one worker per simulated
    /// processor — is created on first use and persists across timesteps.
    /// Returns the per-statement analyses (shared handles into the frozen
    /// plans).
    pub(crate) fn step(
        &mut self,
        backend: Backend,
        threads: usize,
        fused: bool,
    ) -> Result<&[Arc<CommAnalysis>], HpfError> {
        self.last.clear();
        if self.stmts.is_empty() {
            return Ok(&self.last);
        }
        let exchange = self.exchanges.select(backend, threads);
        if let Some(faults) = self.pending_faults.take() {
            // armed on the selected backend only, so a degraded retry on
            // the other one replays clean instead of re-arming the same
            // faults against a fresh step counter
            exchange.inject(faults);
        }
        // on failure `last` stays empty, so a truncated run never
        // masquerades as a successful one
        let plan = self.cache.replay(&mut self.arrays, &self.stmts, fused, exchange)?;
        self.last.reserve(self.stmts.len()); // no-op once warmed
        self.last.extend(plan.plans().iter().map(|p| p.shared_analysis()));
        Ok(&self.last)
    }

    /// The analyses of the most recent timestep.
    pub fn last_analyses(&self) -> &[Arc<CommAnalysis>] {
        &self.last
    }

    /// Simulated processor count (max over the arrays; 0 when empty).
    pub fn np(&self) -> usize {
        self.arrays.iter().map(DistArray::np).max().unwrap_or(0)
    }

    /// The current statement list, in execution order.
    pub fn statements(&self) -> &[Assignment] {
        &self.stmts
    }

    /// Replace the whole statement list (each statement re-validated
    /// against the arrays' domains). Cached plans for statements that
    /// survive the swap stay warm — the cache is keyed by statement
    /// structure, so a drifting workload that re-lowers its stencil each
    /// epoch only pays re-inspection for the statements that actually
    /// changed.
    pub fn set_statements(&mut self, stmts: Vec<Assignment>) -> Result<(), HpfError> {
        let doms: Vec<&hpf_index::IndexDomain> =
            self.arrays.iter().map(|a| a.domain()).collect();
        for stmt in &stmts {
            stmt.validate(&doms)?;
        }
        self.stmts = stmts;
        Ok(())
    }

    /// Per-processor breakdown of the last executed timestep: modeled
    /// per-rank loads and originated wire bytes (from the frozen
    /// analyses), plus the backends' *measured* per-rank compute-time
    /// samples — the vectors the adaptive controller feeds on. Allocates
    /// fresh vectors; call off the warm path.
    pub fn stats(&self) -> ProgramStats {
        let np = self.np();
        let mut rank_loads = vec![0u64; np];
        let mut rank_bytes_sent = vec![0u64; np];
        for a in &self.last {
            for (p, l) in a.loads.iter().enumerate() {
                if p < np {
                    rank_loads[p] += l;
                }
            }
            for (src, _dst, elems) in a.comm.iter() {
                let s = src.zero_based();
                if s < np {
                    rank_bytes_sent[s] += elems * 8;
                }
            }
        }
        let mut rank_compute_ns = vec![0u64; np];
        let measured = self.last_rank_compute_ns();
        let n = measured.len().min(np);
        rank_compute_ns[..n].copy_from_slice(&measured[..n]);
        ProgramStats {
            np,
            rank_loads,
            rank_bytes_sent,
            rank_compute_ns,
            bytes_sent: self.backend_bytes_sent(),
            cache_hits: self.cache_hits(),
            cache_misses: self.cache_misses(),
        }
    }

    /// The measured per-rank compute-time sample of the last timestep
    /// (empty when nothing ran yet). Borrowed straight from the plan
    /// cache's workspace — no allocation, safe on the warm path.
    pub fn last_rank_compute_ns(&self) -> &[u64] {
        self.cache.rank_compute_ns()
    }

    /// Statically verify what a timestep executes — prove (or refute with
    /// precise diagnostics) write coverage, bounds, race freedom and
    /// analysis conservation of every statement's compiled plan (see
    /// [`crate::verify::verify_plan`]), and hazard freedom, deadlock
    /// freedom and conservation across coalescing of the fused
    /// [`crate::ProgramPlan`] whose messages are actually packed and sent
    /// (see [`crate::verify::verify_program_plan`]) — *before* anything
    /// executes.
    ///
    /// The plans are resolved through the plan cache, so a later
    /// [`Session::run`](crate::Session::run) replays the very plans that
    /// were just proven safe without compiling anything. No array data
    /// moves and no operand buffer is allocated. Returns `Err` only when a
    /// statement cannot be compiled at all; schedule defects come back as
    /// diagnostics in the [`VerifyReport`](crate::VerifyReport).
    pub fn verify_all(&mut self) -> Result<crate::VerifyReport, HpfError> {
        let plan = self.cache.program_plan_for(&self.arrays, &self.stmts, true)?;
        let statements = self
            .stmts
            .iter()
            .zip(plan.plans())
            .map(|(stmt, p)| crate::verify::verify_plan(&self.arrays, stmt, p))
            .collect();
        let timestep = crate::verify::verify_program_plan(&self.arrays, &self.stmts, &plan);
        Ok(crate::VerifyReport { statements, timestep })
    }

    /// Mutable access to the cached timestep plan.
    ///
    /// Only for mutation tests that corrupt the plan a timestep would run
    /// to prove [`Program::verify_all`] refutes it — never mutate a plan
    /// that will execute.
    #[doc(hidden)]
    pub fn timestep_plan_mut(&mut self) -> Option<&mut crate::ProgramPlan> {
        self.cache.program_plan_mut()
    }

    /// Remap array `k` onto a new mapping: move its values into storage
    /// laid out by `new` through the dense image ([`DistArray::to_dense`]
    /// then [`DistArray::from_dense`] — a row copy per rect row of the old
    /// and of the new shards, one transient image), return the exact
    /// traffic of the move, and (by replacing the mapping allocation)
    /// invalidate every cached plan that involves the array.
    pub fn remap(
        &mut self,
        k: usize,
        new: Arc<EffectiveDist>,
    ) -> Result<RemapAnalysis, HpfError> {
        let old = self
            .arrays
            .get(k)
            .ok_or_else(|| HpfError::UnknownArray(format!("array #{k}")))?;
        if old.domain() != new.domain() {
            return Err(HpfError::NotConforming(format!(
                "remap of `{}` changes its index domain",
                old.name()
            )));
        }
        let np = old.np();
        let analysis = remap_analysis(old.mapping(), &new, np);
        self.arrays[k] = DistArray::from_dense(old.name(), new, np, &old.to_dense());
        Ok(analysis)
    }

    /// Arm deterministic fault injection (see [`crate::FaultPlan`]) on
    /// whichever exchange backend the *next* run selects. Each fault
    /// fires once when its superstep comes around; an affected run
    /// returns [`HpfError::Exchange`] and the array data must be
    /// restored from a checkpoint before replaying (see
    /// [`Program::restore_latest`] and
    /// [`Session::checkpoint`](crate::Session::checkpoint)).
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        self.pending_faults = Some(plan);
    }

    /// Injected faults that have fired so far, across both backends.
    pub fn faults_fired(&self) -> usize {
        self.exchanges.iter().map(|b| b.faults_fired()).sum()
    }

    /// Override the `Channels` driver's wedge-detection timeout (how long
    /// it waits without worker progress before declaring the superstep
    /// lost — default 120s). Fault-injection tests dial this down so a
    /// dropped message surfaces in milliseconds.
    pub fn set_exchange_timeout(&mut self, timeout: Duration) {
        self.exchanges.step_timeout = Some(timeout);
        if let Some(ch) = &mut self.exchanges.channels {
            ch.set_step_timeout(timeout);
        }
    }

    /// Snapshot every array's distributed shards into
    /// `dir/step-<timestep>/` — each simulated processor's owned rects
    /// serialized independently, with a manifest recording shapes,
    /// layouts, mapping identity, and per-shard checksums. See
    /// [`crate::ckpt`] for the format and [`ckpt::save_checkpoint`] for
    /// the parallel writer this delegates to.
    pub fn checkpoint(&self, dir: &Path, timestep: u64) -> Result<CkptReport, CkptError> {
        ckpt::save_checkpoint(&self.arrays, timestep, dir)
    }

    /// Restore array values from the checkpoint at `step_dir` (a
    /// `step-<T>` directory), verifying every shard checksum. Mappings
    /// need not match the checkpoint's: shards from a different layout or
    /// processor count are scattered into the current distribution through
    /// the array's dense image, which the manifest's rects must cover.
    /// All-or-nothing — on `Err` no array has changed (see
    /// [`ckpt::restore_checkpoint`]).
    pub fn restore_checkpoint(&mut self, step_dir: &Path) -> Result<RestoreReport, CkptError> {
        ckpt::restore_checkpoint(&mut self.arrays, step_dir)
    }

    /// Restore from the newest `step-<T>` checkpoint under `dir` that
    /// reads and verifies. A newer snapshot that fails — a torn or
    /// corrupt shard, a bad manifest, a layout that does not fit — is
    /// skipped and listed in [`RestoreReport::skipped`] with the reason.
    /// Each attempt is all-or-nothing, so a skipped snapshot leaves every
    /// array as it was. When every snapshot fails, the error is
    /// [`CkptError::Unrestorable`], naming the newest and why it failed.
    pub fn restore_latest(&mut self, dir: &Path) -> Result<RestoreReport, CkptError> {
        let snapshots = ckpt::checkpoints(dir)?;
        let mut skipped = Vec::new();
        let mut newest_failure = None;
        for step in &snapshots {
            match ckpt::restore_checkpoint(&mut self.arrays, step) {
                Ok(report) => return Ok(RestoreReport { skipped, ..report }),
                Err(e) => {
                    skipped.push((step.clone(), e.to_string()));
                    newest_failure.get_or_insert(e);
                }
            }
        }
        match newest_failure {
            Some(cause) => Err(CkptError::Unrestorable {
                newest: snapshots[0].clone(),
                cause: Box::new(cause),
                tried: snapshots.len(),
            }),
            None => Err(CkptError::NoCheckpoint { dir: dir.to_path_buf() }),
        }
    }

    /// Bytes the exchange backends have moved between simulated
    /// processors over the program's lifetime (both backends combined) —
    /// the measured wire truth the frozen analyses are cross-checked
    /// against.
    pub fn backend_bytes_sent(&self) -> u64 {
        self.exchanges.iter().map(|b| b.bytes_sent()).sum()
    }

    /// SPMD worker threads spawned over the program's lifetime: 0 before
    /// the first `Channels` run, then the simulated processor count —
    /// staying there across warm parallel timesteps is the
    /// persistent-worker contract.
    pub fn spmd_workers_spawned(&self) -> u64 {
        self.exchanges.channels.as_ref().map_or(0, |c| c.workers_spawned())
    }

    /// Observability snapshot of the timestep plan: supersteps formed,
    /// messages before/after coalescing, and the ghost traffic
    /// dirty-tracking avoided — alongside the existing
    /// [`Program::cache_hits`] / [`Program::backend_bytes_sent`]
    /// counters. Zeroed until the timestep plan is first compiled (by
    /// [`Program::verify_all`] or the first timestep).
    pub fn fusion_stats(&self) -> FusionStats {
        self.cache.fusion_stats()
    }

    /// Cached-plan replays performed so far.
    pub fn cache_hits(&self) -> u64 {
        self.cache.hits()
    }

    /// Fresh plan inspections performed so far (cold + invalidated).
    pub fn cache_misses(&self) -> u64 {
        self.cache.misses()
    }

    /// Drop all cached plans (they will be re-inspected on the next run).
    pub fn clear_plan_cache(&mut self) {
        self.cache.clear();
    }

    /// Bytes held by the schedules of every cached plan.
    pub fn plan_schedule_bytes(&self) -> usize {
        self.cache.schedule_bytes()
    }

    /// Runs in the schedules of every cached plan.
    pub fn plan_schedule_runs(&self) -> usize {
        self.cache.schedule_runs()
    }

    /// Element entries the cached schedules would hold uncompressed — over
    /// [`Program::plan_schedule_runs`], how far strided runs collapsed them.
    pub fn plan_schedule_elements(&self) -> usize {
        self.cache.schedule_elements()
    }

    /// Price a set of per-statement analyses on a machine: the sum of the
    /// per-superstep estimates plus the merged traffic matrix. Accepts
    /// both owned analyses and the shared handles
    /// [`Program::last_analyses`] returns.
    pub fn price<A: std::borrow::Borrow<CommAnalysis>>(
        analyses: &[A],
        machine: &Machine,
    ) -> (f64, CommStats, Vec<SuperstepReport>) {
        let mut total = 0.0;
        let mut traffic = CommStats::new();
        let mut reports = Vec::with_capacity(analyses.len());
        for a in analyses {
            let a = a.borrow();
            let rep = machine.superstep_time(&a.loads, &a.comm);
            total += rep.total_time();
            traffic.merge(&a.comm);
            reports.push(rep);
        }
        (total, traffic, reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::{Combine, Term};
    use crate::exec::dense_reference;
    use hpf_core::{DataSpace, DistributeSpec, FormatSpec};
    use hpf_index::{span, IndexDomain, Section};

    fn setup() -> Program {
        let np = 4;
        let mut ds = DataSpace::new(np);
        let a = ds.declare("A", IndexDomain::of_shape(&[32]).unwrap()).unwrap();
        let b = ds.declare("B", IndexDomain::of_shape(&[32]).unwrap()).unwrap();
        ds.distribute(a, &DistributeSpec::new(vec![FormatSpec::Block])).unwrap();
        ds.distribute(b, &DistributeSpec::new(vec![FormatSpec::Cyclic(1)])).unwrap();
        Program::new(vec![
            DistArray::from_fn("A", ds.effective(a).unwrap(), np, |i| i[0] as f64),
            DistArray::from_fn("B", ds.effective(b).unwrap(), np, |i| (i[0] * 2) as f64),
        ])
    }

    fn full(n: i64) -> Section {
        Section::from_triplets(vec![span(1, n)])
    }

    #[test]
    fn sequences_compose() {
        let mut prog = setup();
        let doms: Vec<&IndexDomain> = prog.arrays.iter().map(|a| a.domain()).collect();
        // A = B; then B = A + B (reads the updated A)
        let s1 = Assignment::new(
            0,
            full(32),
            vec![Term::new(1, full(32))],
            Combine::Copy,
            &doms,
        )
        .unwrap();
        let s2 = Assignment::new(
            1,
            full(32),
            vec![Term::new(0, full(32)), Term::new(1, full(32))],
            Combine::Sum,
            &doms,
        )
        .unwrap();
        prog.push(s1).unwrap();
        prog.push(s2).unwrap();
        assert_eq!(prog.len(), 2);
        let analyses = prog.step(Backend::SharedMem, 1, true).unwrap();
        assert_eq!(analyses.len(), 2);
        // A = B = 2i; then B = A + B = 4i
        for i in 1..=32i64 {
            assert_eq!(prog.arrays[0].get(&hpf_index::Idx::d1(i)), (2 * i) as f64);
            assert_eq!(prog.arrays[1].get(&hpf_index::Idx::d1(i)), (4 * i) as f64);
        }
    }

    #[test]
    fn parallel_run_matches_sequential() {
        let build_stmts = |prog: &mut Program| {
            let doms: Vec<&IndexDomain> = prog.arrays.iter().map(|a| a.domain()).collect();
            let s1 = Assignment::new(
                0,
                Section::from_triplets(vec![span(2, 32)]),
                vec![Term::new(1, Section::from_triplets(vec![span(1, 31)]))],
                Combine::Copy,
                &doms,
            )
            .unwrap();
            let s2 = Assignment::new(
                1,
                full(32),
                vec![Term::new(0, full(32))],
                Combine::Copy,
                &doms,
            )
            .unwrap();
            prog.push(s1).unwrap();
            prog.push(s2).unwrap();
        };
        let mut seq = setup();
        build_stmts(&mut seq);
        let mut par = setup();
        build_stmts(&mut par);
        seq.step(Backend::SharedMem, 1, true).unwrap();
        par.step(Backend::SharedMem, 3, true).unwrap();
        assert_eq!(seq.arrays[0].to_dense(), par.arrays[0].to_dense());
        assert_eq!(seq.arrays[1].to_dense(), par.arrays[1].to_dense());
    }

    #[test]
    fn pricing_accumulates() {
        let mut prog = setup();
        let doms: Vec<&IndexDomain> = prog.arrays.iter().map(|a| a.domain()).collect();
        let s = Assignment::new(
            0,
            full(32),
            vec![Term::new(1, full(32))],
            Combine::Copy,
            &doms,
        )
        .unwrap();
        prog.push(s.clone()).unwrap();
        prog.push(s).unwrap();
        let analyses = prog.step(Backend::SharedMem, 1, true).unwrap();
        let machine = Machine::simple(4);
        let (total, traffic, reports) = Program::price(analyses, &machine);
        assert_eq!(reports.len(), 2);
        assert!((total - (reports[0].total_time() + reports[1].total_time())).abs() < 1e-9);
        assert_eq!(
            traffic.total_elements(),
            analyses[0].comm.total_elements() + analyses[1].comm.total_elements()
        );
    }

    #[test]
    fn invalid_statement_rejected() {
        let mut prog = setup();
        let doms: Vec<&IndexDomain> = prog.arrays.iter().map(|a| a.domain()).collect();
        let bad = Assignment::new(
            0,
            full(32),
            vec![Term::new(1, full(16))],
            Combine::Copy,
            &doms,
        );
        assert!(bad.is_err());
        // rank mismatch detected at push-time too
        let half = Assignment {
            lhs: 0,
            lhs_section: full(32),
            terms: vec![Term::new(1, full(16))],
            combine: Combine::Copy,
        };
        assert!(prog.push(half).is_err());
    }

    #[test]
    fn dense_reference_still_oracle() {
        let mut prog = setup();
        let doms: Vec<&IndexDomain> = prog.arrays.iter().map(|a| a.domain()).collect();
        let s = Assignment::new(
            0,
            Section::from_triplets(vec![span(1, 16)]),
            vec![Term::new(1, Section::from_triplets(vec![hpf_index::triplet(2, 32, 2)]))],
            Combine::Copy,
            &doms,
        )
        .unwrap();
        let expect = dense_reference(&prog.arrays, &s);
        prog.push(s).unwrap();
        prog.step(Backend::SharedMem, 1, true).unwrap();
        assert_eq!(prog.arrays[0].to_dense(), expect);
    }

    #[test]
    fn timesteps_amortize_inspection() {
        // the acceptance-criterion counter: 1 cold miss, then pure hits
        let mut prog = setup();
        let doms: Vec<&IndexDomain> = prog.arrays.iter().map(|a| a.domain()).collect();
        let sweep = Assignment::new(
            0,
            Section::from_triplets(vec![span(2, 32)]),
            vec![
                Term::new(0, Section::from_triplets(vec![span(1, 31)])),
                Term::new(1, Section::from_triplets(vec![span(2, 32)])),
            ],
            Combine::Sum,
            &doms,
        )
        .unwrap();
        prog.push(sweep).unwrap();
        let timesteps = 10u64;
        for _ in 0..timesteps {
            prog.step(Backend::SharedMem, 1, true).unwrap();
        }
        assert_eq!(prog.cache_misses(), 1, "exactly one inspection");
        assert_eq!(prog.cache_hits(), timesteps - 1, "every later timestep replays");
    }

    #[test]
    fn remap_moves_values_and_invalidates_plans() {
        let mut prog = setup();
        let doms: Vec<&IndexDomain> = prog.arrays.iter().map(|a| a.domain()).collect();
        let s = Assignment::new(
            0,
            full(32),
            vec![Term::new(1, full(32))],
            Combine::Copy,
            &doms,
        )
        .unwrap();
        prog.push(s).unwrap();
        prog.step(Backend::SharedMem, 1, true).unwrap();
        prog.step(Backend::SharedMem, 1, true).unwrap();
        assert_eq!((prog.cache_hits(), prog.cache_misses()), (1, 1));

        // REDISTRIBUTE B: BLOCK now — values survive, plans invalidate
        let mut ds = DataSpace::new(4);
        let b = ds.declare("B", IndexDomain::of_shape(&[32]).unwrap()).unwrap();
        ds.distribute(b, &DistributeSpec::new(vec![FormatSpec::Block])).unwrap();
        let before = prog.arrays[1].to_dense();
        let r = prog.remap(1, ds.effective(b).unwrap()).unwrap();
        assert_eq!(prog.arrays[1].to_dense(), before, "values must survive the move");
        assert!(r.moved > 0, "BLOCK ↔ CYCLIC moves most elements");

        prog.step(Backend::SharedMem, 1, true).unwrap();
        assert_eq!(prog.cache_misses(), 2, "remap forces re-inspection");
        prog.step(Backend::SharedMem, 1, true).unwrap();
        assert_eq!(prog.cache_hits(), 2, "and the fresh plan is reused again");
    }

    #[test]
    fn remap_rejects_domain_change() {
        let mut prog = setup();
        let mut ds = DataSpace::new(4);
        let b = ds.declare("B", IndexDomain::of_shape(&[16]).unwrap()).unwrap();
        ds.distribute(b, &DistributeSpec::new(vec![FormatSpec::Block])).unwrap();
        assert!(prog.remap(1, ds.effective(b).unwrap()).is_err());
        assert!(prog.remap(9, prog.arrays[0].mapping().clone()).is_err());
    }
}
