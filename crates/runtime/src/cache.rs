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
//! Execution goes through [`PlanCache::replay`], the one way a timestep
//! runs: it resolves the statement list's [`ProgramPlan`] through
//! [`PlanCache::program_plan_for`] (compiling and statically verifying it
//! when the list, the mode or a mapping changed — the same lookup
//! [`Program::verify_all`](crate::Program::verify_all) proves, so what was
//! proven is what replays), brackets the step with the dirty-tracking
//! state's begin/finish, and hands plan, state and the entry's
//! [`FusedWorkspace`] to an [`ExchangeBackend`]. On the `SharedMem` backend a warm replay performs
//! **zero heap allocations**.

use crate::array::DistArray;
use crate::assign::Assignment;
use crate::backend::ExchangeBackend;
use crate::fuse::{FusedState, FusionStats, ProgramPlan};
use crate::plan::ExecPlan;
use crate::workspace::FusedWorkspace;
use hpf_core::HpfError;
use std::collections::HashMap;
use std::sync::Arc;

/// The cached timestep: the statement sequence it was compiled from (the
/// cache key together with the plan's mode — structural equality,
/// compared without allocating), the compiled [`ProgramPlan`], its
/// dirty-tracking replay state, and the preallocated scratch.
#[derive(Debug, Clone)]
struct FusedEntry {
    stmts: Vec<Assignment>,
    plan: Arc<ProgramPlan>,
    state: FusedState,
    ws: FusedWorkspace,
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
/// remapped), the stale plan is replaced in place, so the cache never
/// grows beyond the program's statement count.
#[derive(Debug, Clone, Default)]
pub struct PlanCache {
    entries: HashMap<Assignment, Arc<ExecPlan>>,
    fused: Option<FusedEntry>,
    hits: u64,
    misses: u64,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// The plan for `stmt` over `arrays`: the cached one if the statement
    /// was seen before under the same mapping allocations, otherwise a
    /// fresh inspection (cached for next time).
    pub fn plan_for(
        &mut self,
        arrays: &[DistArray<f64>],
        stmt: &Assignment,
    ) -> Result<Arc<ExecPlan>, HpfError> {
        if let Some(plan) = self.entries.get(stmt).filter(|p| p.is_valid_for(arrays)) {
            self.hits += 1;
            return Ok(plan.clone());
        }
        // cold or stale: (re-)inspect; a stale plan is replaced under its
        // statement's key, so the cache never holds two plans for one
        // statement
        self.misses += 1;
        let plan = Arc::new(ExecPlan::inspect(arrays, stmt)?);
        verify_inserted(arrays, stmt, &plan);
        self.entries.insert(stmt.clone(), plan.clone());
        Ok(plan)
    }

    /// The [`ProgramPlan`] of one whole timestep — every statement of
    /// `stmts`, in program order — compiled (and statically verified)
    /// first if the statement sequence or `fused` changed or any involved
    /// array was remapped. `fused = false` selects the per-statement
    /// compile mode (see [`ProgramPlan::compile`]).
    ///
    /// A warm lookup counts one hit per statement; a rebuild resolves each
    /// constituent plan through [`PlanCache::plan_for`], which charges
    /// hits for statements whose plans are still valid and misses for cold
    /// or invalidated ones. The entry's workspace starts empty: the first
    /// [`ExchangeBackend::step`] sizes it, so a caller that only lints the
    /// plan never pays for operand buffers.
    pub fn program_plan_for(
        &mut self,
        arrays: &[DistArray<f64>],
        stmts: &[Assignment],
        fused: bool,
    ) -> Result<Arc<ProgramPlan>, HpfError> {
        let warm = self.fused.as_ref().is_some_and(|e| {
            e.plan.fused() == fused && e.stmts == stmts && e.plan.is_valid_for(arrays)
        });
        if warm {
            self.hits += stmts.len() as u64;
        } else {
            let plans = stmts
                .iter()
                .map(|s| self.plan_for(arrays, s))
                .collect::<Result<Vec<_>, _>>()?;
            let plan = Arc::new(ProgramPlan::compile(stmts, plans, fused));
            verify_fused_inserted(arrays, stmts, &plan);
            let mut state = FusedState::new(&plan, arrays);
            if let Some(old) = &self.fused {
                state.carry_counters(&old.state);
            }
            let ws = FusedWorkspace::new();
            self.fused = Some(FusedEntry { stmts: stmts.to_vec(), plan, state, ws });
        }
        Ok(self.fused.as_ref().expect("fused entry was just ensured").plan.clone())
    }

    /// Execute one whole timestep through the cached [`ProgramPlan`] (see
    /// [`PlanCache::program_plan_for`]) on `backend`.
    ///
    /// Warm timesteps on the `SharedMem` backend perform **zero heap
    /// allocations**: the dirty bits, effective-send mask, staging
    /// buffers, and per-statement operand buffers are all reused in
    /// place. An exchange failure (worker death, lost or damaged message)
    /// surfaces as [`HpfError::Exchange`]; the cached plans stay valid —
    /// only the array *data* needs restoring before a replay.
    pub fn replay(
        &mut self,
        arrays: &mut [DistArray<f64>],
        stmts: &[Assignment],
        fused: bool,
        backend: &mut dyn ExchangeBackend,
    ) -> Result<Arc<ProgramPlan>, HpfError> {
        self.program_plan_for(arrays, stmts, fused)?;
        let FusedEntry { plan, state, ws, .. } =
            self.fused.as_mut().expect("fused entry was just ensured");
        // backend first: a respawned worker fleet has empty buffers, and
        // its new generation stamp forces an all-dirty mask
        let domain = backend.buffer_domain(plan.np());
        state.begin_timestep(plan, arrays, domain);
        if let Err(e) = backend.step(plan, arrays, state, ws) {
            // the timestep is torn (the arrays partial; on `Channels` the
            // fleet and its ghost buffers gone): distrust every dirty
            // assumption until data is restored and the next
            // begin_timestep re-derives them
            state.poison();
            return Err(e.into());
        }
        state.finish_timestep(plan, arrays);
        Ok(plan.clone())
    }

    /// The cached timestep plan, mutably (see
    /// [`Program::timestep_plan_mut`](crate::Program::timestep_plan_mut)).
    pub(crate) fn program_plan_mut(&mut self) -> Option<&mut ProgramPlan> {
        self.fused.as_mut().map(|e| Arc::make_mut(&mut e.plan))
    }

    /// Measured wall-nanoseconds each simulated processor spent in compute
    /// kernels during the last timestep (empty before the first one).
    pub fn rank_compute_ns(&self) -> &[u64] {
        self.fused.as_ref().map_or(&[], |e| &e.ws.rank_ns)
    }

    /// Observability snapshot of the timestep plan: DAG shape of the
    /// current [`ProgramPlan`] plus lifetime-cumulative reuse counters
    /// (carried across rebuilds). Zeroed before the plan is first compiled.
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

    /// Bytes held by the schedules of every cached plan (see
    /// [`ExecPlan::schedule_bytes`]) — what the strided-run representation
    /// makes observable.
    pub fn schedule_bytes(&self) -> usize {
        self.entries.values().map(|plan| plan.schedule_bytes()).sum()
    }

    /// Runs in the schedules of every cached plan (see
    /// [`ExecPlan::schedule_runs`]).
    pub fn schedule_runs(&self) -> usize {
        self.entries.values().map(|plan| plan.schedule_runs()).sum()
    }

    /// Element entries the same schedules would hold uncompressed (see
    /// [`ExecPlan::schedule_elements`]).
    pub fn schedule_elements(&self) -> usize {
        self.entries.values().map(|plan| plan.schedule_elements()).sum()
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
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.schedule_bytes(), 0);
    }

    #[test]
    fn replay_through_cache_matches_reference() {
        use crate::backend::SharedMemBackend;
        use crate::spmd::ChannelsBackend;
        // one cache, one compiled plan, every backend configuration
        let mut cache = PlanCache::new();
        let mut seq = arrays(40, 4, FormatSpec::Cyclic(3));
        let mut par = seq.clone();
        let mut spmd = seq.clone();
        let stmts = [copy_stmt(40, &seq)];
        let mut shared = SharedMemBackend::new();
        let mut threaded = crate::testing::threaded(8);
        let mut channels = ChannelsBackend::new();
        for _ in 0..3 {
            let expect = crate::exec::dense_reference(&seq, &stmts[0]);
            let p1 = cache.replay(&mut seq, &stmts, true, &mut shared).unwrap();
            let p2 = cache.replay(&mut par, &stmts, true, &mut threaded).unwrap();
            let p3 = cache.replay(&mut spmd, &stmts, true, &mut channels).unwrap();
            assert_eq!(seq[0].to_dense(), expect);
            assert_eq!(par[0].to_dense(), expect);
            assert_eq!(spmd[0].to_dense(), expect);
            assert!(Arc::ptr_eq(&p1, &p2) && Arc::ptr_eq(&p2, &p3), "one plan for all backends");
        }
        assert_eq!(cache.misses(), 1, "one inspection for every backend");
        assert_eq!(cache.hits(), 8);
        // toggling the compile mode recompiles the program plan but reuses
        // the statement's inspection
        let unfused = cache.replay(&mut seq, &stmts, false, &mut shared).unwrap();
        assert!(!unfused.fused());
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.fusion_stats().messages_after, cache.fusion_stats().messages_before);
    }
}
