//! Plan caching: amortize inspection across timesteps.
//!
//! Iterative solvers (red–black sweeps, stencil timesteps) execute the
//! *same* statements over the *same* mappings thousands of times. A
//! [`PlanCache`] keys each statement's compiled [`ExecPlan`] by the
//! statement's structure plus the [`MappingId`](hpf_core::MappingId) of
//! every involved array, so a repeated statement replays its schedule — no
//! re-validation, no re-inspection, no re-running the region-algebraic
//! communication analysis — while a `REDISTRIBUTE`/`REALIGN` (which
//! produces new mapping allocations) invalidates exactly the affected
//! entries.
//!
//! Each entry also keeps a [`PlanWorkspace`] sized for its plan, so
//! [`PlanCache::replay_seq`] performs **zero heap allocations** on a warm
//! hit: one cache lookup, staged and ghost operands block-copied into the
//! preallocated buffers, single-pass slice-kernel compute (local operands
//! read in place), and an `Arc`-handle return of the frozen
//! analysis. [`PlanCache::replay_par`] reuses the same buffers but pays
//! the scoped-thread spawn cost (and its allocations) per replay.

use crate::array::DistArray;
use crate::assign::Assignment;
use crate::backend::{ExchangeBackend, ExchangeError, SharedMemBackend};
use crate::commsets::CommAnalysis;
use crate::fuse::{execute_fused_par, BufferDomain, FusedState, FusionStats, ProgramPlan};
use crate::plan::ExecPlan;
use crate::spmd::ChannelsBackend;
use crate::workspace::{FusedWorkspace, PlanWorkspace};
use hpf_core::HpfError;
use std::collections::HashMap;
use std::sync::Arc;

/// A cached plan plus its preallocated replay scratch.
#[derive(Debug, Clone)]
struct Entry {
    plan: Arc<ExecPlan>,
    ws: PlanWorkspace,
}

/// The cached fused timestep: the statement sequence it was compiled
/// from (the cache key — structural equality, compared without
/// allocating), the compiled [`ProgramPlan`], its dirty-tracking replay
/// state, and the preallocated fused scratch.
#[derive(Debug, Clone)]
struct FusedEntry {
    stmts: Vec<Assignment>,
    plan: Arc<ProgramPlan>,
    state: FusedState,
    ws: FusedWorkspace,
}

/// Which executor a fused timestep runs on — the fused analogue of
/// choosing a [`Backend`](crate::Backend) / thread count for the
/// per-statement paths.
#[derive(Debug)]
pub enum FusedTarget<'a> {
    /// The shared-address-space backend (zero-allocation warm replays).
    Shared(&'a mut SharedMemBackend),
    /// Scoped threads, at most this many (for thread caps below the
    /// simulated processor count).
    Par(usize),
    /// The message-passing SPMD worker fleet.
    Channels(&'a mut ChannelsBackend),
}

/// Statically verify a plan at the moment it enters the cache — the five
/// properties of [`crate::verify::verify_plan`], asserted hard: a plan
/// that cannot be proven safe must never be handed to a replay loop.
///
/// Runs in every debug build and, behind the `verify` feature, in release
/// too. Verification happens only at insertion (cold miss or remap
/// invalidation), so the warm replay path is untouched — `verify` off has
/// zero warm-replay overhead by construction.
#[cfg(any(debug_assertions, feature = "verify"))]
fn verify_inserted(arrays: &[DistArray<f64>], stmt: &Assignment, plan: &ExecPlan) {
    let report = crate::verify::verify_plan(arrays, stmt, plan);
    assert!(
        report.is_clean(),
        "statically invalid plan inserted into the cache:\n{report}"
    );
}

#[cfg(not(any(debug_assertions, feature = "verify")))]
fn verify_inserted(_: &[DistArray<f64>], _: &Assignment, _: &ExecPlan) {}

/// Statically verify a fused plan at the moment it enters the cache —
/// the fused properties of [`crate::verify::verify_program_plan`]
/// (superstep hazard freedom, segment conservation across coalescing,
/// pack-phase soundness, dirty-flag consistency), asserted hard under the
/// same gating as [`verify_inserted`].
#[cfg(any(debug_assertions, feature = "verify"))]
fn verify_fused_inserted(
    arrays: &[DistArray<f64>],
    stmts: &[Assignment],
    plan: &ProgramPlan,
) {
    let report = crate::verify::verify_program_plan(arrays, stmts, plan);
    assert!(
        report.is_clean(),
        "statically invalid fused plan inserted into the cache:\n{report}"
    );
}

#[cfg(not(any(debug_assertions, feature = "verify")))]
fn verify_fused_inserted(_: &[DistArray<f64>], _: &[Assignment], _: &ProgramPlan) {}

/// A cache of compiled execution plans, keyed by statement shape and
/// mapping identity.
///
/// At most one entry is kept per distinct statement (statements hash and
/// compare structurally): when a statement's mappings change (an array was
/// remapped), the stale plan is replaced in place — without re-cloning the
/// statement key — so the cache never grows beyond the program's statement
/// count.
#[derive(Debug, Clone, Default)]
pub struct PlanCache {
    entries: HashMap<Assignment, Entry>,
    fused: Option<FusedEntry>,
    hits: u64,
    misses: u64,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// The plan for `stmt` over `arrays`: a cached replay if the statement
    /// was seen before under the same mapping allocations, otherwise a
    /// fresh inspection (cached for next time).
    pub fn plan_for(
        &mut self,
        arrays: &[DistArray<f64>],
        stmt: &Assignment,
    ) -> Result<Arc<ExecPlan>, HpfError> {
        if let Some(e) = self.entries.get_mut(stmt) {
            if e.plan.is_valid_for(arrays) {
                self.hits += 1;
                return Ok(e.plan.clone());
            }
            // stale: re-inspect and replace in place — no Assignment
            // clone (the key is owned by the map) and no workspace
            // reallocation when the new plan's buffer shape is unchanged
            // (the common remap-rebalance pattern)
            self.misses += 1;
            let plan = Arc::new(ExecPlan::inspect(arrays, stmt)?);
            verify_inserted(arrays, stmt, &plan);
            e.ws.ensure(&plan);
            e.plan = plan.clone();
            return Ok(plan);
        }
        self.misses += 1;
        let plan = Arc::new(ExecPlan::inspect(arrays, stmt)?);
        verify_inserted(arrays, stmt, &plan);
        let ws = PlanWorkspace::for_plan(&plan);
        self.entries.insert(stmt.clone(), Entry { plan: plan.clone(), ws });
        Ok(plan)
    }

    /// Execute `stmt` sequentially through the cache: resolve (or inspect)
    /// the plan, replay it into the entry's own workspace, and return the
    /// frozen analysis as a shared handle. On a warm hit this performs no
    /// heap allocation at all — and exactly one cache lookup.
    pub fn replay_seq(
        &mut self,
        arrays: &mut [DistArray<f64>],
        stmt: &Assignment,
    ) -> Result<Arc<CommAnalysis>, HpfError> {
        self.replay_with(arrays, stmt, |plan, arrays, ws| {
            plan.execute_seq_with(arrays, ws);
            Ok(())
        })
    }

    /// [`PlanCache::replay_seq`] with parallel pack and compute phases
    /// spread over at most `threads` OS threads (capped at the simulated
    /// processor count). The workspace is reused, but the per-replay
    /// thread spawns do allocate — the zero-allocation contract is the
    /// sequential path's.
    pub fn replay_par(
        &mut self,
        arrays: &mut [DistArray<f64>],
        stmt: &Assignment,
        threads: usize,
    ) -> Result<Arc<CommAnalysis>, HpfError> {
        self.replay_with(arrays, stmt, |plan, arrays, ws| {
            plan.execute_par_with(arrays, threads, ws);
            Ok(())
        })
    }

    /// Execute `stmt` through the cache on an explicit
    /// [`ExchangeBackend`]: resolve (or inspect) the plan, run one
    /// superstep on the backend with the entry's own workspace, and
    /// return the frozen analysis as a shared handle. With the
    /// `SharedMem` backend a warm hit stays allocation-free (the entry's
    /// message staging buffers are preallocated); the `Channels` backend
    /// reuses its persistent workers across hits. An exchange failure
    /// (worker death, lost or damaged message) surfaces as
    /// [`HpfError::Exchange`]; the cached plan stays valid — only the
    /// array *data* needs restoring before a replay.
    pub fn replay_on(
        &mut self,
        arrays: &mut [DistArray<f64>],
        stmt: &Assignment,
        backend: &mut dyn ExchangeBackend,
    ) -> Result<Arc<CommAnalysis>, HpfError> {
        self.replay_with(arrays, stmt, |plan, arrays, ws| backend.step(plan, arrays, ws))
    }

    /// Shared replay driver: one lookup on the warm path; cold and stale
    /// statements fall through to [`PlanCache::plan_for`] for inspection.
    fn replay_with(
        &mut self,
        arrays: &mut [DistArray<f64>],
        stmt: &Assignment,
        mut exec: impl FnMut(
            &Arc<ExecPlan>,
            &mut [DistArray<f64>],
            &mut PlanWorkspace,
        ) -> Result<(), ExchangeError>,
    ) -> Result<Arc<CommAnalysis>, HpfError> {
        if let Some(e) = self.entries.get_mut(stmt) {
            if e.plan.is_valid_for(arrays) {
                self.hits += 1;
                exec(&e.plan, arrays, &mut e.ws)?;
                return Ok(e.plan.shared_analysis());
            }
        }
        self.plan_for(arrays, stmt)?; // cold or stale: inspect + cache
        let e = self.entries.get_mut(stmt).expect("plan_for caches the entry");
        exec(&e.plan, arrays, &mut e.ws)?;
        Ok(e.plan.shared_analysis())
    }

    /// Execute one whole timestep — every statement of `stmts`, in
    /// program order — through the cached fused [`ProgramPlan`] on the
    /// chosen [`FusedTarget`], compiling (and statically verifying) the
    /// fused plan first if the statement sequence changed or any involved
    /// array was remapped.
    ///
    /// Counter semantics match the per-statement paths exactly: a warm
    /// fused timestep counts one hit per statement; a rebuild resolves
    /// each constituent plan through [`PlanCache::plan_for`], which
    /// charges hits for statements whose per-statement plans are still
    /// valid and misses for cold or invalidated ones.
    ///
    /// Warm timesteps on the `Shared` target perform **zero heap
    /// allocations**: the dirty bits, effective-send mask, fused staging
    /// buffers, and per-statement operand buffers are all reused in
    /// place, and the elements physically staged are asserted equal to
    /// the mask's prediction.
    pub fn replay_fused_on(
        &mut self,
        arrays: &mut [DistArray<f64>],
        stmts: &[Assignment],
        target: FusedTarget<'_>,
    ) -> Result<Arc<ProgramPlan>, HpfError> {
        let warm = self
            .fused
            .as_ref()
            .is_some_and(|e| e.stmts == stmts && e.plan.is_valid_for(arrays));
        if warm {
            self.hits += stmts.len() as u64;
        } else {
            let plans = stmts
                .iter()
                .map(|s| self.plan_for(arrays, s))
                .collect::<Result<Vec<_>, _>>()?;
            let plan = Arc::new(ProgramPlan::compile(stmts, plans));
            verify_fused_inserted(arrays, stmts, &plan);
            let ws = FusedWorkspace::for_plan(&plan);
            let mut state = FusedState::new(&plan, arrays);
            if let Some(old) = &self.fused {
                state.carry_counters(&old.state);
            }
            self.fused = Some(FusedEntry { stmts: stmts.to_vec(), plan, state, ws });
        }
        let FusedEntry { plan, state, ws, .. } =
            self.fused.as_mut().expect("fused entry was just ensured");
        match target {
            FusedTarget::Shared(backend) => {
                state.begin_timestep(plan, arrays, BufferDomain::Workspace);
                let staged = match backend.step_fused(plan, arrays, state, ws) {
                    Ok(staged) => staged,
                    Err(e) => {
                        // the timestep is torn: the mask's assumptions
                        // about receiver-side ghost data no longer hold
                        state.poison();
                        return Err(e.into());
                    }
                };
                assert_eq!(
                    staged,
                    state.last_sent(),
                    "staged ghost elements diverged from the dirty-tracking mask"
                );
            }
            FusedTarget::Par(threads) => {
                state.begin_timestep(plan, arrays, BufferDomain::Workspace);
                let staged = execute_fused_par(plan, arrays, state, ws, threads);
                assert_eq!(
                    staged,
                    state.last_sent(),
                    "staged ghost elements diverged from the dirty-tracking mask"
                );
            }
            FusedTarget::Channels(backend) => {
                // worker fleet first: a respawn (processor-count change
                // elsewhere) empties the workers' persistent buffers, and
                // the generation stamp forces an all-dirty mask
                let generation = backend.prepare(plan.np());
                state.begin_timestep(plan, arrays, BufferDomain::Channels(generation));
                if let Err(e) = backend.step_fused(
                    plan,
                    arrays,
                    state.eff_arc(),
                    state.eff_version(),
                    state.last_sent(),
                ) {
                    // a failed fused timestep leaves the fleet torn down
                    // (its ghost buffers are gone) and the arrays partial:
                    // distrust every dirty assumption until data is
                    // restored and the next begin_timestep re-derives them
                    state.poison();
                    return Err(e.into());
                }
            }
        }
        state.finish_timestep(plan, arrays);
        Ok(plan.clone())
    }

    /// Observability snapshot of the fused path: DAG shape of the current
    /// fused plan plus lifetime-cumulative reuse counters (carried across
    /// rebuilds). Zeroed before the first fused timestep.
    pub fn fusion_stats(&self) -> FusionStats {
        match &self.fused {
            None => FusionStats::default(),
            Some(e) => FusionStats {
                statements: e.stmts.len(),
                supersteps: e.plan.supersteps().len(),
                messages_before: e.plan.messages_before(),
                messages_after: e.plan.messages_after(),
                fused_timesteps: e.state.timesteps(),
                ghost_elements_sent: e.state.sent_elements(),
                ghost_elements_avoided: e.state.avoided_elements(),
            },
        }
    }

    /// Cached-replay count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Fresh-inspection count (cold misses plus remap invalidations).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of plans currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff no plan is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bytes held by the compressed schedules of every cached plan (see
    /// [`ExecPlan::schedule_bytes`]) — what the run-length compression
    /// makes observable.
    pub fn schedule_bytes(&self) -> usize {
        self.entries.values().map(|e| e.plan.schedule_bytes()).sum()
    }

    /// Total `f64` elements preallocated across all cached workspaces.
    pub fn workspace_elements(&self) -> usize {
        self.entries.values().map(|e| e.ws.buffer_elements()).sum()
    }

    /// Drop every cached plan, including the fused program plan
    /// (counters are kept).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.fused = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::{Combine, Term};
    use hpf_core::{DataSpace, DistributeSpec, FormatSpec};
    use hpf_index::{span, IndexDomain, Section};

    fn arrays(n: usize, np: usize, fmt_b: FormatSpec) -> Vec<DistArray<f64>> {
        let mut ds = DataSpace::new(np);
        let a = ds.declare("A", IndexDomain::of_shape(&[n]).unwrap()).unwrap();
        let b = ds.declare("B", IndexDomain::of_shape(&[n]).unwrap()).unwrap();
        ds.distribute(a, &DistributeSpec::new(vec![FormatSpec::Block])).unwrap();
        ds.distribute(b, &DistributeSpec::new(vec![fmt_b])).unwrap();
        vec![
            DistArray::from_fn("A", ds.effective(a).unwrap(), np, |i| i[0] as f64),
            DistArray::from_fn("B", ds.effective(b).unwrap(), np, |i| (i[0] * 2) as f64),
        ]
    }

    fn copy_stmt(n: i64, arrays: &[DistArray<f64>]) -> Assignment {
        let doms: Vec<&IndexDomain> = arrays.iter().map(|a| a.domain()).collect();
        Assignment::new(
            0,
            Section::from_triplets(vec![span(1, n)]),
            vec![Term::new(1, Section::from_triplets(vec![span(1, n)]))],
            Combine::Copy,
            &doms,
        )
        .unwrap()
    }

    #[test]
    fn repeat_statement_hits() {
        let mut cache = PlanCache::new();
        let arrs = arrays(32, 4, FormatSpec::Cyclic(1));
        let stmt = copy_stmt(32, &arrs);
        let p1 = cache.plan_for(&arrs, &stmt).unwrap();
        let p2 = cache.plan_for(&arrs, &stmt).unwrap();
        assert!(Arc::ptr_eq(&p1, &p2), "replay must reuse the compiled plan");
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn remap_invalidates_in_place() {
        let mut cache = PlanCache::new();
        let mut arrs = arrays(32, 4, FormatSpec::Cyclic(1));
        let stmt = copy_stmt(32, &arrs);
        let p1 = cache.plan_for(&arrs, &stmt).unwrap();
        // remap B: a new mapping allocation → the entry is stale
        arrs[1] = arrays(32, 4, FormatSpec::Block).into_iter().nth(1).unwrap();
        let p2 = cache.plan_for(&arrs, &stmt).unwrap();
        assert!(!Arc::ptr_eq(&p1, &p2));
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        // replaced, not accumulated
        assert_eq!(cache.len(), 1);
        // and the fresh plan is hit on the next replay
        cache.plan_for(&arrs, &stmt).unwrap();
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn distinct_statements_coexist() {
        let mut cache = PlanCache::new();
        let arrs = arrays(32, 4, FormatSpec::Cyclic(1));
        let s1 = copy_stmt(32, &arrs);
        let s2 = copy_stmt(16, &arrs);
        cache.plan_for(&arrs, &s1).unwrap();
        cache.plan_for(&arrs, &s2).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.misses(), 2);
        assert!(cache.schedule_bytes() > 0);
        assert_eq!(cache.workspace_elements(), 32 + 16);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.schedule_bytes(), 0);
    }

    #[test]
    fn replay_through_cache_matches_reference() {
        let mut cache = PlanCache::new();
        let mut seq = arrays(40, 4, FormatSpec::Cyclic(3));
        let mut par = seq.clone();
        let stmt = copy_stmt(40, &seq);
        for _ in 0..3 {
            let expect = crate::exec::dense_reference(&seq, &stmt);
            let a1 = cache.replay_seq(&mut seq, &stmt).unwrap();
            let a2 = cache.replay_par(&mut par, &stmt, 8).unwrap();
            assert_eq!(seq[0].to_dense(), expect);
            assert_eq!(par[0].to_dense(), expect);
            assert!(Arc::ptr_eq(&a1, &a2), "both replays share the frozen analysis");
        }
        assert_eq!(cache.misses(), 1, "one inspection for both executors");
        assert_eq!(cache.hits(), 5);
    }
}
