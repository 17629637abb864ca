//! Shared drivers for the in-crate unit tests.

use crate::{
    Assignment, CommAnalysis, DistArray, ExchangeBackend, PlanCache, SharedMemBackend,
};
use std::sync::Arc;

/// Execute `stmt` once over `arrays` on `backend` the way everything
/// executes — as a one-statement [`crate::ProgramPlan`] through
/// [`PlanCache::replay`] — and return its frozen analysis.
pub(crate) fn run_stmt(
    arrays: &mut [DistArray<f64>],
    stmt: &Assignment,
    backend: &mut dyn ExchangeBackend,
) -> Arc<CommAnalysis> {
    let plan = PlanCache::new()
        .replay(arrays, std::slice::from_ref(stmt), true, backend)
        .expect("no fault injected");
    plan.plans()[0].shared_analysis()
}

/// A `SharedMem` backend spreading stage and compute over at most
/// `threads` scoped threads.
pub(crate) fn threaded(threads: usize) -> SharedMemBackend {
    let mut backend = SharedMemBackend::new();
    backend.set_threads(threads);
    backend
}
