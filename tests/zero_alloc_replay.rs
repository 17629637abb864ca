//! A warm [`Session::run`] timestep performs **zero heap allocations**.
//!
//! The plan cache keeps a preallocated `FusedWorkspace` beside the compiled
//! program plan, the strided-run schedules replay with block moves, strided
//! gathers/scatters into preallocated buffers and slice kernels, and the per-statement analyses come back as `Arc`
//! handles into the frozen plans — so once the first timestep has
//! populated the cache, later timesteps touch no allocator at all. This
//! test pins that contract with a counting global allocator.
//!
//! Kept as its own integration binary so no concurrently running test can
//! pollute the counter between the snapshots.

// The workspace denies unsafe code; a `#[global_allocator]` is the one
// thing that cannot be written without it, so this test opts out locally.
#![allow(unsafe_code)]

use hpf::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocator entry point (allocations and reallocations —
/// frees are irrelevant to the contract) on top of the system allocator.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the only addition is a relaxed
// counter bump, which cannot violate the GlobalAlloc contract.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Extent at which the stencil's operands are all staged.
const STAGED_N: i64 = 24;

/// Extent at which the stencil's operands are all read in place (80-row
/// blocks: column runs of 78–80 elements against a threshold of 32).
const DIRECT_N: i64 = 160;

/// The test harness runs `#[test]`s concurrently; the counter is global,
/// so each test holds this lock across its measurement window.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// A 2-statement iterated program: a 2-D 5-point-flavored stencil sweep
/// plus a 1-D-sectioned copy-back, over block-distributed arrays on a
/// 2 × 2 grid — the `b13` warm-replay shape. At `n = 24` every
/// processor's column runs are 11–12 elements, so all operands are staged;
/// [`DIRECT_N`] makes them long enough to be read in place.
fn stencil_program(n: i64) -> Program {
    let np = 4usize;
    let mut ds = DataSpace::new(np);
    ds.declare_processors("G", IndexDomain::of_shape(&[2, 2]).unwrap()).unwrap();
    let p = ds.declare("P", IndexDomain::standard(&[(1, n), (1, n)]).unwrap()).unwrap();
    let u = ds.declare("U", IndexDomain::standard(&[(1, n), (1, n)]).unwrap()).unwrap();
    for id in [p, u] {
        ds.distribute(
            id,
            &DistributeSpec::to(vec![FormatSpec::Block, FormatSpec::Block], "G"),
        )
        .unwrap();
    }
    let mut prog = Program::new(vec![
        DistArray::new("P", ds.effective(p).unwrap(), np, 0.0),
        DistArray::from_fn("U", ds.effective(u).unwrap(), np, |i| {
            (i[0] * 100 + i[1]) as f64
        }),
    ]);
    let doms: Vec<&IndexDomain> = prog.arrays.iter().map(|a| a.domain()).collect();
    let sweep = Assignment::new(
        0,
        Section::from_triplets(vec![span(2, n - 1), span(2, n - 1)]),
        vec![
            Term::new(1, Section::from_triplets(vec![span(1, n - 2), span(2, n - 1)])),
            Term::new(1, Section::from_triplets(vec![span(3, n), span(2, n - 1)])),
            Term::new(1, Section::from_triplets(vec![span(2, n - 1), span(1, n - 2)])),
            Term::new(1, Section::from_triplets(vec![span(2, n - 1), span(3, n)])),
        ],
        Combine::Sum,
        &doms,
    )
    .unwrap();
    let copy_back = Assignment::new(
        1,
        Section::from_triplets(vec![span(2, n - 1), span(2, n - 1)]),
        vec![Term::new(0, Section::from_triplets(vec![span(2, n - 1), span(2, n - 1)]))],
        Combine::Copy,
        &doms,
    )
    .unwrap();
    prog.push(sweep).unwrap();
    prog.push(copy_back).unwrap();
    prog
}

#[test]
fn warm_session_run_allocates_nothing() {
    let _serial = SERIAL.lock().unwrap();
    let mut sess = Session::new(stencil_program(STAGED_N)).threads(1);
    // cold timesteps: inspection, workspace construction, result-buffer
    // growth — all allocation happens here
    sess.run(2).unwrap();
    assert_eq!(sess.program().cache_misses(), 2, "one inspection per statement");

    // warm timesteps: zero heap allocations, several in a row — the
    // session's own bookkeeping must stay plain field updates
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..5 {
        sess.run(1).unwrap();
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "warm Session::run must not touch the heap ({} allocations in 5 timesteps)",
        after - before
    );

    // the replays were real work, not an optimized-out no-op
    assert_eq!(sess.program().cache_hits(), 2 + 5 * 2);
    let analyses = sess.last_analyses();
    assert_eq!(analyses.len(), 2);
    assert!(analyses[0].remote_reads > 0, "the stencil communicates");
}

/// Assert the shape premise of the direct-path tests: every term of both
/// statements is read in place on every processor.
fn assert_all_direct(prog: &Program) {
    for stmt in prog.statements() {
        let plan = ExecPlan::inspect(&prog.arrays, stmt).unwrap();
        assert!(
            plan.per_proc().iter().all(|pp| pp.terms.iter().all(|ts| ts.direct)),
            "{stmt}: the direct-path program must have no staged term"
        );
    }
}

#[test]
fn warm_direct_path_step_allocates_nothing_on_shared_mem() {
    let _serial = SERIAL.lock().unwrap();
    let prog = stencil_program(DIRECT_N);
    assert_all_direct(&prog);
    let mut sess = Session::new(prog).backend(Backend::SharedMem);
    sess.run(2).unwrap();

    let before = ALLOCS.load(Ordering::Relaxed);
    sess.run(5).unwrap();
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(after - before, 0, "a warm in-place timestep must not touch the heap");
    assert_eq!(sess.program().cache_hits(), 2 + 5 * 2);
    assert!(sess.last_analyses()[0].remote_reads > 0, "the stencil communicates");
}

/// Warm allocations per timestep of `prog` on the `Channels` fleet,
/// averaged over enough timesteps that the channel implementation's
/// occasional block allocation rounds away.
fn channels_allocs_per_timestep(prog: Program) -> u64 {
    let mut sess = Session::new(prog).backend(Backend::Channels);
    sess.run(3).unwrap();
    let timesteps = 40u64;
    let before = ALLOCS.load(Ordering::Relaxed);
    sess.run(timesteps).unwrap();
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(sess.program().spmd_workers_spawned(), sess.program().np() as u64);
    (after - before) / timesteps
}

#[test]
fn warm_direct_path_step_adds_no_allocation_on_channels() {
    let _serial = SERIAL.lock().unwrap();
    // a Channels timestep is never allocation-free — the shard handoff and
    // the command/completion messages allocate a fixed handful per worker —
    // so the in-place path is pinned against the staged program of the
    // same shape: reading operands in place and moving the LHS shard out
    // and back must add exactly nothing to that constant
    let direct = stencil_program(DIRECT_N);
    assert_all_direct(&direct);
    let staged = channels_allocs_per_timestep(stencil_program(STAGED_N));
    let in_place = channels_allocs_per_timestep(direct);
    assert_eq!(
        in_place, staged,
        "in-place operands changed the Channels fleet's warm allocations per timestep"
    );
    // the constant itself: one shard vector per worker plus the channel
    // implementation's amortized block — the work order must not grow it
    assert!(staged <= 5, "a warm Channels timestep allocates {staged} times (was 5)");
}

/// The exchange-bound shape of the `pingpong` benchmark workload:
/// `A = B; B(2:N) = A(1:N-1) + B(2:N)` with `A` `BLOCK` and `B` `CYCLIC` on
/// two processors. Every operand run is strided, every term is staged,
/// both sources are rewritten each timestep (nothing is ever clean), and
/// half of each array crosses the wire.
fn block_cyclic_program(n: i64) -> Program {
    let np = 2usize;
    let mut ds = DataSpace::new(np);
    let a = ds.declare("A", IndexDomain::standard(&[(1, n)]).unwrap()).unwrap();
    let b = ds.declare("B", IndexDomain::standard(&[(1, n)]).unwrap()).unwrap();
    ds.distribute(a, &DistributeSpec::new(vec![FormatSpec::Block])).unwrap();
    ds.distribute(b, &DistributeSpec::new(vec![FormatSpec::Cyclic(1)])).unwrap();
    let mut prog = Program::new(vec![
        DistArray::new("A", ds.effective(a).unwrap(), np, 0.0),
        DistArray::from_fn("B", ds.effective(b).unwrap(), np, |i| (i[0] % 7) as f64 * 0.25),
    ]);
    let doms: Vec<&IndexDomain> = prog.arrays.iter().map(|a| a.domain()).collect();
    let sec = |lo, hi| Section::from_triplets(vec![span(lo, hi)]);
    let ping =
        Assignment::new(0, sec(1, n), vec![Term::new(1, sec(1, n))], Combine::Copy, &doms).unwrap();
    let pong = Assignment::new(
        1,
        sec(2, n),
        vec![Term::new(0, sec(1, n - 1)), Term::new(1, sec(2, n))],
        Combine::Sum,
        &doms,
    )
    .unwrap();
    prog.push(ping).unwrap();
    prog.push(pong).unwrap();
    prog
}

#[test]
fn warm_block_cyclic_exchange_allocates_nothing_beyond_the_handoff() {
    let _serial = SERIAL.lock().unwrap();
    let n = 4096i64;
    let prog = block_cyclic_program(n);
    for stmt in prog.statements() {
        let plan = ExecPlan::inspect(&prog.arrays, stmt).unwrap();
        assert!(plan.per_proc().iter().all(|pp| pp.terms.iter().all(|ts| !ts.direct)));
        assert!(plan.schedule_runs() <= 16, "{stmt}: {} runs", plan.schedule_runs());
    }
    let mut sess = Session::new(prog).backend(Backend::SharedMem);
    sess.run(2).unwrap();
    let before = ALLOCS.load(Ordering::Relaxed);
    sess.run(5).unwrap();
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(after - before, 0, "strided gathers and scatters must reuse the workspace");
    let fs = sess.program().fusion_stats();
    assert_eq!(fs.ghost_elements_avoided, 0, "both sources are rewritten every timestep");
    assert_eq!(fs.ghost_elements_sent, 7 * (n as u64 - 1));

    // the fleet: a strided pack gathers straight into a recycled wire
    // buffer, so the per-timestep constant stays the shard handoff's
    let per_timestep = channels_allocs_per_timestep(block_cyclic_program(n));
    assert!(per_timestep <= 5, "a warm Channels timestep allocates {per_timestep} times");
}

#[test]
fn warm_parallel_run_reuses_spmd_workers() {
    let _serial = SERIAL.lock().unwrap();
    let mut sess = Session::new(stencil_program(STAGED_N)).threads(4);
    // cold parallel timesteps: plan inspection plus the one-time spawn of
    // the persistent SPMD worker fleet (one worker per simulated processor)
    sess.run(2).unwrap();
    assert_eq!(sess.program().spmd_workers_spawned(), 4, "the fleet spawns exactly once");

    let before = ALLOCS.load(Ordering::Relaxed);
    let timesteps = 5u64;
    sess.run(timesteps).unwrap();
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        sess.program().spmd_workers_spawned(),
        4,
        "warm parallel timesteps must reuse the persistent workers, not respawn"
    );
    // Unlike a thread bound below np (two spawn waves per statement per
    // timestep), a warm fleet timestep only pays bounded channel traffic:
    // command/done handoffs and recycled message buffers. Pin that the
    // per-timestep allocation count stays a small constant — far below
    // what per-timestep thread spawning plus workspace rebuilds would cost.
    let per_timestep = (after - before) / timesteps;
    assert!(
        per_timestep < 600,
        "a warm parallel session allocates {per_timestep} times per timestep — \
         persistent workers should keep this a small constant"
    );

    // the replays were real work with real exchange on the wire
    assert!(sess.program().backend_bytes_sent() > 0);
    let analyses = sess.last_analyses();
    assert_eq!(analyses.len(), 2);
    assert!(analyses[0].remote_reads > 0, "the stencil communicates");
}

#[test]
fn warm_cache_replay_allocates_nothing() {
    let _serial = SERIAL.lock().unwrap();
    // the same contract one level down: PlanCache::replay on a hit
    let mut prog = stencil_program(STAGED_N);
    let mut arrays = std::mem::take(&mut prog.arrays);
    let doms: Vec<&IndexDomain> = arrays.iter().map(|a| a.domain()).collect();
    let n = 24i64;
    let stmts = [Assignment::new(
        0,
        Section::from_triplets(vec![span(2, n - 1), span(2, n - 1)]),
        vec![Term::new(1, Section::from_triplets(vec![span(1, n - 2), span(2, n - 1)]))],
        Combine::Copy,
        &doms,
    )
    .unwrap()];
    let mut cache = PlanCache::new();
    let mut backend = SharedMemBackend::new();
    cache.replay(&mut arrays, &stmts, true, &mut backend).unwrap();

    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..3 {
        cache.replay(&mut arrays, &stmts, true, &mut backend).unwrap();
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(after - before, 0, "warm replay must not allocate");
    assert_eq!((cache.hits(), cache.misses()), (3, 1));
}
