//! Reusable execution scratch — the zero-allocation warm-replay contract.
//!
//! A [`PlanWorkspace`] owns the per-processor, per-term packed operand
//! buffers of one statement. What lands in them is decided per term at
//! inspect time (see [`crate::plan`]): the exchange delivers **ghost**
//! data at the positions the remote gather runs name (each fused segment
//! carries its run's `dst_off`/`dst_stride`), and the stage phase
//! snapshots the **staged** local runs — every local run of a term naming
//! the statement's LHS array, whose pre-assignment values the kernel must
//! still see after it starts storing, strided local runs, and unit-stride
//! ones too short to be worth a piece each. The unit-stride local
//! positions of a *direct* term are never written: the kernel reads them
//! in place from the processor's own shard. Every buffer keeps the full
//! `dst_off` layout either way (so gather runs and the fused segments cut
//! from them address it unchanged); the untouched stretches of a
//! zero-initialised buffer are never paged in.
//!
//! A [`FusedWorkspace`] holds one `PlanWorkspace` per statement of a
//! timestep plus one message staging buffer per fused pair. It starts
//! empty; the first [`ExchangeBackend::step`](crate::ExchangeBackend::step)
//! through it sizes it for its plan (the one place a replay allocates), and
//! every later step on the `SharedMem` backend reuses the buffers, so a
//! **warm timestep performs zero heap allocations** (asserted by the
//! `zero_alloc_replay` integration test with a counting global allocator).
//! [`crate::PlanCache`] keeps the workspace beside the cached
//! [`ProgramPlan`], which is how a [`crate::Session`] gets
//! allocation-free timesteps without callers managing workspaces
//! themselves — and how a caller that only verifies the plan
//! ([`Program::verify_all`](crate::Program::verify_all)) never pays for
//! operand buffers.

use crate::fuse::ProgramPlan;
use crate::plan::ExecPlan;

/// Preallocated pack buffers for one [`ExecPlan`]: `bufs[p][t]` is the
/// packed operand buffer of simulated processor `p` for RHS term `t`,
/// sized to exactly the processor's computed volume (ghost positions
/// always; local positions only for staged terms — see the module docs).
#[derive(Debug, Clone, Default)]
pub(crate) struct PlanWorkspace {
    pub(crate) bufs: Vec<Vec<Vec<f64>>>,
}

impl PlanWorkspace {
    /// An empty workspace; the first replay through it sizes it for its
    /// plan (allocating once).
    pub fn new() -> Self {
        PlanWorkspace::default()
    }

    /// A workspace preallocated for `plan` — replays through it allocate
    /// nothing.
    pub fn for_plan(plan: &ExecPlan) -> Self {
        let mut ws = PlanWorkspace::new();
        ws.ensure(plan);
        ws
    }

    /// True iff the buffers already have exactly the shape `plan`'s replay
    /// needs (in which case a replay reuses them without allocating).
    pub fn matches(&self, plan: &ExecPlan) -> bool {
        let per_proc = plan.per_proc();
        self.bufs.len() == per_proc.len()
            && self.bufs.iter().zip(per_proc).all(|(bufs, pp)| {
                bufs.len() == pp.terms.len()
                    && bufs.iter().zip(&pp.terms).all(|(b, ts)| b.len() == ts.elements)
            })
    }

    /// Resize for `plan` if the shape differs (the only point where a
    /// replay path may allocate).
    pub(crate) fn ensure(&mut self, plan: &ExecPlan) {
        if self.matches(plan) {
            return;
        }
        self.bufs = plan
            .per_proc()
            .iter()
            .map(|pp| pp.terms.iter().map(|ts| vec![0.0f64; ts.elements]).collect())
            .collect();
    }

    /// Total `f64` elements held across all pack buffers (the workspace's
    /// memory footprint in elements).
    pub fn buffer_elements(&self) -> usize {
        self.bufs.iter().flatten().map(Vec::len).sum()
    }
}

/// Preallocated scratch for a fused timestep (see [`crate::ProgramPlan`]):
/// one `PlanWorkspace` per constituent statement — the persistent
/// receiver-side packed operand buffers that ghost-region reuse relies on
/// — plus one message staging buffer per *fused* pair, sized for the
/// pair's full coalesced message (a warm timestep may stage any subset of
/// its segments, never more). Warm fused replays through a matching
/// workspace perform **zero heap allocations**.
#[derive(Debug, Clone, Default)]
pub struct FusedWorkspace {
    pub(crate) per_stmt: Vec<PlanWorkspace>,
    pub(crate) stage: Vec<Vec<f64>>,
    /// Measured wall-nanoseconds each simulated processor spent in compute
    /// kernels during the last timestep through this workspace, written by
    /// whichever backend ran it — the adaptive controller's per-rank load
    /// sample. Preallocated here so sampling never costs the warm path an
    /// allocation.
    pub(crate) rank_ns: Vec<u64>,
}

impl FusedWorkspace {
    /// An empty workspace; the first fused replay sizes it (allocating
    /// once).
    pub fn new() -> Self {
        FusedWorkspace::default()
    }

    /// True iff the buffers already have exactly the shape `plan`'s fused
    /// replay needs.
    pub fn matches(&self, plan: &ProgramPlan) -> bool {
        self.per_stmt.len() == plan.plans().len()
            && self.per_stmt.iter().zip(plan.plans()).all(|(ws, p)| ws.matches(p))
            && self.stage.len() == plan.pairs().len()
            && self.stage.iter().zip(plan.pairs()).all(|(s, p)| s.len() == p.elements)
            && self.rank_ns.len() == plan.np()
    }

    /// Resize for `plan` if the shape differs (the only point where a
    /// fused replay may allocate).
    pub(crate) fn ensure(&mut self, plan: &ProgramPlan) {
        if self.matches(plan) {
            return;
        }
        self.per_stmt = plan.plans().iter().map(|p| PlanWorkspace::for_plan(p)).collect();
        self.stage = plan.pairs().iter().map(|p| vec![0.0f64; p.elements]).collect();
        self.rank_ns = vec![0u64; plan.np()];
    }

    /// Total `f64` elements held across every statement's pack buffers.
    pub fn buffer_elements(&self) -> usize {
        self.per_stmt.iter().map(PlanWorkspace::buffer_elements).sum()
    }

    /// Total `f64` elements held across the fused per-pair staging
    /// buffers (= the fused timestep's worst-case wire traffic).
    pub fn stage_elements(&self) -> usize {
        self.stage.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::DistArray;
    use crate::assign::{Assignment, Combine, Term};
    use hpf_core::{DataSpace, DistributeSpec, FormatSpec};
    use hpf_index::{span, IndexDomain, Section};

    fn plan_of(n: usize, np: usize) -> (Vec<DistArray<f64>>, Assignment, ExecPlan) {
        let mut ds = DataSpace::new(np);
        let a = ds.declare("A", IndexDomain::of_shape(&[n]).unwrap()).unwrap();
        let b = ds.declare("B", IndexDomain::of_shape(&[n]).unwrap()).unwrap();
        ds.distribute(a, &DistributeSpec::new(vec![FormatSpec::Block])).unwrap();
        ds.distribute(b, &DistributeSpec::new(vec![FormatSpec::Cyclic(1)])).unwrap();
        let arrays = vec![
            DistArray::from_fn("A", ds.effective(a).unwrap(), np, |i| i[0] as f64),
            DistArray::from_fn("B", ds.effective(b).unwrap(), np, |i| (i[0] * 2) as f64),
        ];
        let doms: Vec<&IndexDomain> = arrays.iter().map(|x| x.domain()).collect();
        let stmt = Assignment::new(
            0,
            Section::from_triplets(vec![span(1, n as i64)]),
            vec![Term::new(1, Section::from_triplets(vec![span(1, n as i64)]))],
            Combine::Copy,
            &doms,
        )
        .unwrap();
        let plan = ExecPlan::inspect(&arrays, &stmt).unwrap();
        (arrays, stmt, plan)
    }

    #[test]
    fn sized_exactly_for_plan() {
        let (_, _, plan) = plan_of(20, 4);
        let ws = PlanWorkspace::for_plan(&plan);
        assert!(ws.matches(&plan));
        // one term, full domain computed → 20 buffered elements
        assert_eq!(ws.buffer_elements(), 20);
    }

    #[test]
    fn empty_workspace_resizes_once() {
        let (_, _, plan) = plan_of(12, 3);
        let mut ws = PlanWorkspace::new();
        assert!(!ws.matches(&plan));
        ws.ensure(&plan);
        assert!(ws.matches(&plan));
        let before = ws.buffer_elements();
        ws.ensure(&plan); // idempotent
        assert_eq!(ws.buffer_elements(), before);
    }

    #[test]
    fn mismatched_shape_detected() {
        let (_, _, p1) = plan_of(20, 4);
        let (_, _, p2) = plan_of(24, 4);
        let ws = PlanWorkspace::for_plan(&p1);
        assert!(!ws.matches(&p2));
    }

    #[test]
    fn fused_workspace_is_sized_by_the_first_ensure() {
        // BLOCK ← CYCLIC(1) copy communicates heavily: one staging buffer
        // per fused pair, together holding the plan's whole wire traffic
        let (_, stmt, plan) = plan_of(20, 4);
        let wire = plan.wire_elements() as usize;
        assert!(wire > 0);
        let fused = ProgramPlan::compile(&[stmt], vec![std::sync::Arc::new(plan)], true);
        let mut ws = FusedWorkspace::new();
        assert!(!ws.matches(&fused));
        ws.ensure(&fused);
        assert!(ws.matches(&fused));
        assert_eq!((ws.stage_elements(), ws.buffer_elements()), (wire, 20));
    }
}
