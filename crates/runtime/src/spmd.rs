//! A true message-passing SPMD executor: the [`ChannelsBackend`].
//!
//! Each simulated processor runs as a **long-lived worker thread** that
//! owns only its local shards (one buffer per array) plus its ghost
//! regions for the plan being executed. Data moves between workers
//! exclusively as packed messages over channels — no worker ever reads
//! another worker's buffer, which is what finally *validates* that the
//! compiled schedules (and the paper's statically-computed communication
//! sets behind them) are sufficient for a real distributed-memory
//! machine.
//!
//! One timestep ([`ChannelsBackend::step`] via the [`ExchangeBackend`]
//! trait):
//!
//! 1. the driver moves each processor's local buffers *by value* into its
//!    worker (an ownership handoff — pointer moves, no copying), together
//!    with the [`ProgramPlan`] and the timestep's effective-send mask;
//! 2. every worker runs the plan's supersteps **without global barriers**
//!    (see `run_step`): it snapshots its *staged* local runs from its own
//!    shards (terms naming the LHS array, whose old values the kernel
//!    must still see once it starts storing, and strided or short runs
//!    not worth reading piecewise — see [`crate::plan`]), packs **one
//!    message per outgoing pair** hoisted to the phase — a strided gather
//!    per segment straight into the wire buffer — and ships it; spent message buffers are recycled through a shared
//!    free-list, so warm steps reuse wire buffers instead of growing the
//!    heap;
//! 3. it receives exactly the messages the schedule and the mask say it
//!    must (checking each physically received buffer's length against
//!    them — a damaged payload, or sender and receiver executing
//!    different plans, surfaces as a typed [`ExchangeError`] before any
//!    garbage is unpacked), unpacks them into its packed operand buffers
//!    (a strided scatter per segment; the buffers are kept across steps,
//!    per worker), and computes into its own LHS
//!    shards — reading ghost and staged operands from those buffers and
//!    every other local operand **in place** from the shards it owns;
//! 4. the driver collects the shards back and reinstalls them. The
//!    schedule itself was already cross-checked pair for pair against the
//!    independent region-algebraic [`CommAnalysis`](crate::CommAnalysis)
//!    at inspect time (see [`ExecPlan::inspect`]).
//!
//! Workers persist across timesteps (and across plans — any plan with
//! the same processor count reuses them), so iterated programs pay thread
//! spawn cost **once**, not per timestep.
//!
//! ## Failure handling
//!
//! A timestep that cannot complete — a worker died (crash or injected
//! kill), a message was lost or arrived damaged, the fleet wedged — does
//! not abort the process. The worker that *detects* the problem
//! reports it to the driver as a typed [`ExchangeError`] (a worker whose
//! peer vanished reports that peer's rank; the driver's completion scan
//! pins silent deaths by polling thread handles); the driver then raises
//! the shutdown flag so blocked peers abandon, drains whatever completed
//! shards still come back during a short grace window, tears the fleet
//! down, and returns the error. The next timestep respawns a fresh
//! fleet automatically — the spawn-generation bump tells the
//! dirty-tracking state its workers' ghost buffers are gone (see
//! [`ExchangeBackend::buffer_domain`]) — and the caller restores array
//! state from a checkpoint and replays (see
//! [`Session::run`](crate::Session::run)).
//! A dead worker takes the shards in its custody with it, which is
//! exactly what a crashed distributed-memory node does: recovery is
//! restore-and-replay, never patch-up.

use crate::array::{DistArray, Shard};
use crate::backend::{ExchangeBackend, ExchangeError};
use crate::fault::{FaultPlan, FaultSwitch, SendAction};
use crate::fuse::{BufferDomain, FusedState, ProgramPlan};
use crate::plan::{compute_pieces, copy_strided, pack_staged_runs, ExecPlan, ProcPlan};
use crate::workspace::FusedWorkspace;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// One timestep's work order for a worker: the plan, the timestep's
/// effective-send mask with its per-pair element totals (shared by every
/// worker, so sender and receiver agree on which units ride the wire and
/// how long each message is), and the worker's own shards (its local
/// buffer of every array), moved in by value.
#[derive(Debug)]
struct Cmd {
    plan: Arc<ProgramPlan>,
    eff: Arc<Vec<bool>>,
    /// Elements each coalesced pair ships under `eff`, from the same
    /// [`crate::fuse::FusedState`] rebuild as the mask itself.
    pair_eff: Arc<Vec<u64>>,
    shards: Vec<Shard<f64>>,
    /// Backend step counter at dispatch (workers use it to stamp errors
    /// and to match injected faults).
    step: u64,
}

/// A worker's completed timestep: its shards moved back to the driver,
/// or the typed failure it detected (its own shards are then lost with
/// it, exactly as a crashed node's would be).
#[derive(Debug)]
struct Done {
    proc: usize,
    result: Result<Vec<Shard<f64>>, ExchangeError>,
    /// Wall-nanoseconds this worker spent in its compute kernels during
    /// the step — the measured per-processor load sample the adaptive
    /// controller consumes.
    compute_ns: u64,
}

/// A packed message on the wire.
#[derive(Debug)]
struct Msg {
    from: u32,
    /// Index of the [`FusedPair`](crate::FusedPair) the payload belongs to.
    pair: u32,
    data: Vec<f64>,
}

/// Shared free-list of spent message buffers: receivers return unpacked
/// buffers here, senders take them back before allocating fresh ones —
/// the message-passing analogue of persistent MPI requests.
type BufferPool = Arc<Mutex<Vec<Vec<f64>>>>;

/// Lock the buffer pool, recovering from a poisoned `Mutex`. The pool
/// holds only spent wire buffers (plain `Vec<f64>`s with no invariant
/// between them), so the state behind a poisoned lock is always valid —
/// recovering via [`PoisonError::into_inner`] keeps one worker panic
/// (or an injected [`crate::Fault::PoisonPool`]) from cascading into
/// every later pool access fleet-wide.
fn pool_lock(pool: &BufferPool) -> MutexGuard<'_, Vec<Vec<f64>>> {
    pool.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Deliberately poison the buffer-pool `Mutex` for an injected
/// [`crate::Fault::PoisonPool`]: panic while holding the guard, catching
/// the unwind so only the lock — not the worker — is damaged. The panic
/// message lands on stderr by design; it is the observable trace that
/// the fault fired.
fn poison_pool(pool: &BufferPool) {
    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _guard = pool_lock(pool);
        panic!("injected: poisoning the SPMD buffer pool");
    }));
}

/// How long the driver waits for worker supersteps by default before
/// concluding the fleet is wedged (a lost message or a schedule bug, not
/// back-pressure: channels are unbounded, so a correct superstep cannot
/// deadlock). Tunable per backend via
/// [`ChannelsBackend::set_step_timeout`].
const WORKER_TIMEOUT: Duration = Duration::from_secs(120);

/// After a failure is detected, how long the driver keeps draining
/// completions so surviving workers' shards are reinstalled rather than
/// dropped (blocked workers notice the shutdown flag within their 50ms
/// poll slice, so this comfortably covers the stragglers).
const DRAIN_GRACE: Duration = Duration::from_millis(250);

/// Per-worker fused-replay scratch, persistent across timesteps: the
/// per-statement packed operand buffers ghost-region reuse relies on
/// (`packed[s][t]` mirrors the shared path's `FusedWorkspace`), rebuilt
/// whenever a different plan arrives (the driver starts every new plan
/// all-dirty, so the fresh zeros never reach a kernel), plus per-timestep
/// arrival bookkeeping.
#[derive(Debug, Default)]
struct FusedScratch {
    /// The plan `packed` is shaped for. Held, not just compared by
    /// address: the driver drops its plan when an array is remapped, and a
    /// recompiled plan allocated at the freed address must not be taken
    /// for the old one.
    plan: Option<Arc<ProgramPlan>>,
    packed: Vec<Vec<Vec<f64>>>,
    arrived: Vec<bool>,
}

/// Everything a worker thread needs besides the work order itself.
struct WorkerCtx {
    me: usize,
    inbox: Receiver<Msg>,
    peers: Vec<Sender<Msg>>,
    pool: BufferPool,
    shutdown: Arc<AtomicBool>,
    faults: Option<Arc<FaultSwitch>>,
}

impl WorkerCtx {
    /// Consult the fault switch for this outgoing message.
    fn send_action(&self, receiver: u32, step: u64) -> SendAction {
        self.faults
            .as_ref()
            .map_or(SendAction::Deliver, |sw| sw.on_send(self.me as u32, receiver, step))
    }

    /// Receive one message, abandoning on fleet shutdown (`None`).
    fn recv(&self) -> Option<Msg> {
        loop {
            match self.inbox.recv_timeout(Duration::from_millis(50)) {
                Ok(m) => return Some(m),
                Err(_) if self.shutdown.load(Ordering::Relaxed) => return None,
                Err(_) => continue,
            }
        }
    }

    /// Pack `data` for `receiver`, apply any injected message fault, and
    /// ship. `Ok(false)` means the superstep must be abandoned (fleet
    /// shutting down); an `Err` is a failure this worker detected (a
    /// vanished peer is reported by rank — its inbox died with it).
    fn ship(&self, receiver: u32, pair: u32, mut data: Vec<f64>, step: u64)
        -> Result<bool, ExchangeError>
    {
        match self.send_action(receiver, step) {
            SendAction::Drop => {
                pool_lock(&self.pool).push(data);
                return Ok(true); // silently lost: the receiver will wedge
            }
            SendAction::Corrupt => {
                data.pop();
            }
            SendAction::Delay(ms) => std::thread::sleep(Duration::from_millis(ms)),
            SendAction::Deliver => {}
        }
        if self.peers[receiver as usize]
            .send(Msg { from: self.me as u32, pair, data })
            .is_err()
        {
            if self.shutdown.load(Ordering::Relaxed) {
                return Ok(false); // orderly teardown, not a death
            }
            return Err(ExchangeError::WorkerDied { rank: receiver, step });
        }
        Ok(true)
    }
}

/// One whole timestep on a worker: run the [`ProgramPlan`]'s supersteps
/// **without global barriers** — snapshot the superstep's staged local
/// runs, ship every outgoing pair *hoisted* to this phase (a strided
/// gather of its effective segments into the wire buffer; an all-clean
/// pair sends nothing and the receiver, holding the same mask, skips it
/// too), unpack whatever has arrived with a strided scatter per segment
/// (messages for later supersteps are welcome early — remote and local
/// runs fill disjoint buffer positions), block only on the arrivals this
/// superstep's kernels actually read, then compute the superstep's
/// statements in program order (which is what lets an earlier statement
/// read in place an array a later one in the same superstep overwrites).
/// A pair packed at an earlier phase than its home superstep is therefore
/// in flight while the intervening supersteps compute — the
/// pack/exchange-overlap leg of the fusion design. Returns `Ok(false)` iff
/// abandoned on shutdown; `Err` is a detected failure.
fn run_step(
    ctx: &WorkerCtx,
    cmd: &mut Cmd,
    scratch: &mut FusedScratch,
    compute_ns: &mut u64,
) -> Result<bool, ExchangeError> {
    let Cmd { plan, eff, pair_eff, shards, step } = cmd;
    let (eff, pair_eff, step) = (eff.as_slice(), pair_eff.as_slice(), *step);
    let me = ctx.me;
    let me32 = me as u32;
    if !scratch.plan.as_ref().is_some_and(|held| Arc::ptr_eq(held, plan)) {
        scratch.packed = plan
            .plans()
            .iter()
            .map(|p| {
                p.per_proc()[me].terms.iter().map(|t| vec![0.0f64; t.elements]).collect()
            })
            .collect();
        scratch.plan = Some(plan.clone());
    }
    scratch.arrived.clear();
    scratch.arrived.resize(plan.pairs().len(), false);

    for phase in 0..plan.supersteps().len() {
        // snapshot this superstep's staged local runs from this worker's
        // own shards
        for &s in &plan.supersteps()[phase].stmts {
            let pp = &plan.plans()[s].per_proc()[me];
            pack_staged_runs(pp, &mut scratch.packed[s], |k| &shards[k]);
        }
        // ship every outgoing pair hoisted to this phase
        for (k, pair) in plan.pairs().iter().enumerate() {
            if pair.pack_phase != phase || pair.sender != me32 || pair_eff[k] == 0 {
                continue;
            }
            // a recycled wire buffer usually has this very length already
            let mut data = pool_lock(&ctx.pool).pop().unwrap_or_default();
            data.resize(pair_eff[k] as usize, 0.0);
            let mut off = 0usize;
            for seg in pair.segments.iter().filter(|s| eff[s.unit]) {
                let shard = &shards[seg.array];
                copy_strided(&mut data, (off, 1), shard, (seg.src_off, seg.src_stride), seg.len);
                off += seg.len;
            }
            if !ctx.ship(pair.receiver, k as u32, data, step)? {
                return Ok(false);
            }
        }
        // block until every pair this superstep's kernels read has
        // arrived, unpacking arrivals (from any phase) as they come in
        loop {
            let waiting = plan.pairs().iter().enumerate().any(|(k, p)| {
                p.superstep == phase
                    && p.receiver == me32
                    && pair_eff[k] > 0
                    && !scratch.arrived[k]
            });
            if !waiting {
                break;
            }
            let Some(Msg { from, pair: k, data }) = ctx.recv() else {
                return Ok(false); // shutdown mid-timestep
            };
            let k = k as usize;
            // a pair this plan does not have, or one delivered to a worker
            // whose schedule doesn't receive it, is a routing failure, not
            // corruption
            let Some(pair) = plan.pairs().get(k).filter(|p| (p.sender, p.receiver) == (from, me32))
            else {
                return Err(ExchangeError::Misrouted { rank: me32, step });
            };
            // sender and receiver hold the same mask, so a length
            // mismatch means the payload was damaged in flight or they
            // executed different fused plans
            if data.len() as u64 != pair_eff[k] {
                return Err(ExchangeError::CorruptMessage {
                    sender: from,
                    receiver: me32,
                    step,
                    got: data.len(),
                    expected: pair_eff[k] as usize,
                });
            }
            let mut off = 0usize;
            for seg in pair.segments.iter().filter(|s| eff[s.unit]) {
                let buf = &mut scratch.packed[seg.stmt][seg.term];
                copy_strided(buf, (seg.dst_off, seg.dst_stride), &data, (off, 1), seg.len);
                off += seg.len;
            }
            scratch.arrived[k] = true;
            pool_lock(&ctx.pool).push(data);
        }
        // compute this superstep's statements into this worker's shards
        // (timed — the per-processor load sample reported back with the
        // completion)
        let t0 = Instant::now();
        for &s in &plan.supersteps()[phase].stmts {
            let sp = &plan.plans()[s];
            compute_shard(&sp.per_proc()[me], sp, shards, &scratch.packed[s]);
        }
        *compute_ns += t0.elapsed().as_nanos() as u64;
    }
    Ok(true)
}

/// Run this worker's kernel for one statement: the LHS shard is moved out
/// for the duration (a pointer move), so the kernel can write it while
/// reading direct operands in place from the worker's other shards.
fn compute_shard(pp: &ProcPlan, plan: &ExecPlan, shards: &mut [Shard<f64>], packed: &[Vec<f64>]) {
    let mut out = std::mem::take(&mut shards[plan.lhs()]);
    compute_pieces(pp, plan.combine(), &mut out, packed, |k| &shards[k]);
    shards[plan.lhs()] = out;
}

fn worker_loop(ctx: WorkerCtx, cmds: Receiver<Cmd>, done: Sender<Done>) {
    let mut scratch = FusedScratch::default();
    while let Ok(mut cmd) = cmds.recv() {
        if let Some(sw) = &ctx.faults {
            let step = cmd.step;
            if sw.kill(ctx.me as u32, step) {
                // injected crash: die silently, taking the shards just
                // handed over with us — the driver's completion scan must
                // detect the death, exactly as it would a real one
                return;
            }
            if sw.poison(ctx.me as u32, step) {
                poison_pool(&ctx.pool);
            }
        }
        let mut compute_ns = 0u64;
        let result = match run_step(&ctx, &mut cmd, &mut scratch, &mut compute_ns) {
            Ok(true) => Ok(cmd.shards),
            Ok(false) => return, // shutdown mid-timestep: no Done
            Err(e) => Err(e),
        };
        let failed = result.is_err();
        if done.send(Done { proc: ctx.me, result, compute_ns }).is_err() || failed {
            // driver gone, or this worker just reported a failure: its
            // packed buffers may hold a half-unpacked step, and the
            // driver tears the fleet down on any failure anyway
            return;
        }
    }
}

/// The message-passing SPMD backend (see module docs). Workers are
/// spawned lazily on the first superstep and persist until the backend is
/// dropped; a plan over a different processor count replaces the fleet,
/// as does the first superstep after a failed one.
pub(crate) struct ChannelsBackend {
    np: usize,
    cmd_txs: Vec<Sender<Cmd>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    done_rx: Option<Receiver<Done>>,
    pool: BufferPool,
    /// Set (before the command channels drop) when the fleet is being
    /// torn down, so a worker blocked mid-superstep on its inbox abandons
    /// instead of waiting for a message that will never arrive.
    shutdown: Arc<AtomicBool>,
    /// Armed fault injection, cloned into every worker at spawn.
    faults: Option<Arc<FaultSwitch>>,
    timeout: Duration,
    bytes_sent: u64,
    workers_spawned: u64,
    steps: u64,
}

impl Default for ChannelsBackend {
    fn default() -> Self {
        ChannelsBackend::new()
    }
}

impl std::fmt::Debug for ChannelsBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChannelsBackend")
            .field("workers", &self.cmd_txs.len())
            .field("workers_spawned", &self.workers_spawned)
            .field("steps", &self.steps)
            .field("bytes_sent", &self.bytes_sent)
            .finish_non_exhaustive()
    }
}

impl ChannelsBackend {
    /// A backend with no workers yet (they spawn on the first superstep).
    pub fn new() -> Self {
        ChannelsBackend {
            np: 0,
            cmd_txs: Vec::new(),
            handles: Vec::new(),
            done_rx: None,
            pool: Arc::new(Mutex::new(Vec::new())),
            shutdown: Arc::new(AtomicBool::new(false)),
            faults: None,
            timeout: WORKER_TIMEOUT,
            bytes_sent: 0,
            workers_spawned: 0,
            steps: 0,
        }
    }

    /// Worker threads spawned over the backend's lifetime — stays at the
    /// processor count across warm supersteps (the persistent-worker
    /// contract `zero_alloc_replay` pins). Grows by `np` on every fleet
    /// respawn: a different processor count, or recovery after a failed
    /// superstep.
    pub fn workers_spawned(&self) -> u64 {
        self.workers_spawned
    }

    /// Supersteps *completed* so far (a failed superstep is not counted —
    /// it never happened as far as the trajectory is concerned, and a
    /// replay of the same timestep reuses its step number with the
    /// one-shot fault already spent).
    #[cfg(test)]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Live worker count (0 before the first superstep, and 0 again
    /// after a failure tears the fleet down).
    #[cfg(test)]
    pub fn workers(&self) -> usize {
        self.cmd_txs.len()
    }

    /// Replace the wedge-detection timeout (default 120s): how long the
    /// driver waits without any worker completing before declaring the
    /// superstep [`ExchangeError::Wedged`]. Fault-injection tests dial
    /// this down so a dropped message is detected in milliseconds.
    pub fn set_step_timeout(&mut self, timeout: Duration) {
        self.timeout = timeout.max(Duration::from_millis(1));
    }

    fn ensure_workers(&mut self, np: usize) {
        if self.np == np && !self.cmd_txs.is_empty() {
            return;
        }
        self.shutdown();
        self.shutdown = Arc::new(AtomicBool::new(false));
        let (done_tx, done_rx) = channel();
        let mut inbox_rxs = Vec::with_capacity(np);
        let mut peer_txs = Vec::with_capacity(np);
        for _ in 0..np {
            let (tx, rx) = channel();
            peer_txs.push(tx);
            inbox_rxs.push(rx);
        }
        for (me, inbox) in inbox_rxs.into_iter().enumerate() {
            let (cmd_tx, cmd_rx) = channel();
            let ctx = WorkerCtx {
                me,
                inbox,
                peers: peer_txs.clone(),
                pool: self.pool.clone(),
                shutdown: self.shutdown.clone(),
                faults: self.faults.clone(),
            };
            let done = done_tx.clone();
            self.handles.push(
                std::thread::Builder::new()
                    .name(format!("hpf-spmd-{}", me + 1))
                    .spawn(move || worker_loop(ctx, cmd_rx, done))
                    .expect("spawn SPMD worker"),
            );
            self.cmd_txs.push(cmd_tx);
        }
        self.done_rx = Some(done_rx);
        self.np = np;
        self.workers_spawned += np as u64;
    }

    /// Collect `np` completed work orders and reinstall their shards.
    ///
    /// On the first sign of failure — a worker-reported [`ExchangeError`],
    /// a thread found dead without a completion, a disconnected completion
    /// channel, or no progress within the step timeout — the driver raises
    /// the shutdown flag (so blocked peers abandon), keeps draining
    /// completions for a short grace window to reinstall surviving
    /// shards, tears the fleet down, and returns the failure. The arrays
    /// then hold a *partial* timestep (dead workers' shards are gone) and
    /// must be reloaded from a checkpoint — see [`crate::ckpt`]. Each
    /// completion's measured compute time lands in its slot of `rank_ns`.
    fn collect_done(
        &mut self,
        arrays: &mut [DistArray<f64>],
        rank_ns: &mut [u64],
    ) -> Result<(), ExchangeError> {
        let np = rank_ns.len();
        let step = self.steps;
        let mut failure: Option<ExchangeError> = None;
        rank_ns.fill(0);
        {
            let done_rx = self.done_rx.as_ref().expect("workers are running");
            let deadline = Instant::now() + self.timeout;
            let mut grace: Option<Instant> = None;
            let mut returned = vec![false; np];
            let mut outstanding = np;
            let fail = |e: ExchangeError,
                            failure: &mut Option<ExchangeError>,
                            grace: &mut Option<Instant>| {
                if failure.is_none() {
                    *failure = Some(e);
                    self.shutdown.store(true, Ordering::Relaxed);
                    *grace = Some(Instant::now() + DRAIN_GRACE);
                }
            };
            while outstanding > 0 {
                // poll in short slices so a crashed worker is reported
                // promptly by name instead of stalling the full timeout
                match done_rx.recv_timeout(Duration::from_millis(20)) {
                    Ok(Done { proc, result, compute_ns }) => {
                        returned[proc] = true;
                        outstanding -= 1;
                        rank_ns[proc] = compute_ns;
                        match result {
                            Ok(shards) => {
                                for (a, buf) in arrays.iter_mut().zip(shards) {
                                    a.put_local(proc, buf);
                                }
                            }
                            Err(e) => fail(e, &mut failure, &mut grace),
                        }
                    }
                    Err(RecvTimeoutError::Disconnected) => {
                        fail(ExchangeError::FleetDied { step }, &mut failure, &mut grace);
                        break;
                    }
                    Err(RecvTimeoutError::Timeout) => {
                        // a finished handle while its Done is outstanding
                        // means the worker died silently (idle workers
                        // block on their command channel, they never exit)
                        if let Some(dead) = self
                            .handles
                            .iter()
                            .position(|h| h.is_finished())
                            .filter(|&i| !returned[i])
                        {
                            fail(
                                ExchangeError::WorkerDied { rank: dead as u32, step },
                                &mut failure,
                                &mut grace,
                            );
                        } else if failure.is_none() && Instant::now() >= deadline {
                            fail(
                                ExchangeError::Wedged {
                                    step,
                                    waited_ms: self.timeout.as_millis() as u64,
                                },
                                &mut failure,
                                &mut grace,
                            );
                        }
                        if grace.is_some_and(|g| Instant::now() >= g) {
                            break; // stragglers abandoned without a Done
                        }
                    }
                }
            }
        }
        match failure {
            None => Ok(()),
            Some(e) => {
                // tear the failed fleet down; the next timestep respawns
                // a fresh one (and bumps the spawn generation, which the
                // dirty-tracking state watches)
                self.shutdown();
                Err(e)
            }
        }
    }

    /// Stop and join the worker fleet: raise the shutdown flag (so a
    /// worker blocked mid-superstep abandons), then drop the command
    /// channels (ending each idle worker's loop) and join.
    fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        self.cmd_txs.clear();
        self.done_rx = None;
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        self.np = 0;
    }
}

impl Drop for ChannelsBackend {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl ExchangeBackend for ChannelsBackend {
    fn name(&self) -> &'static str {
        "channels"
    }

    /// The spawn generation (cumulative workers spawned) stamps the
    /// domain: a changed generation means the workers' persistent packed
    /// buffers are gone (processor-count change *or* post-failure
    /// respawn), so every ghost unit must be re-sent.
    fn buffer_domain(&mut self, np: usize) -> BufferDomain {
        self.ensure_workers(np);
        BufferDomain::Channels(self.workers_spawned)
    }

    /// Hand each worker its shards plus the shared effective-send mask,
    /// collect the shards back, and account the masked wire traffic (the
    /// mask's element count — sender-side measured lengths are checked
    /// against it inside every worker). The workers keep their own packed
    /// operand buffers; of `ws` only the per-rank compute-time sample is
    /// written. Counts one step per timestep.
    fn step(
        &mut self,
        plan: &Arc<ProgramPlan>,
        arrays: &mut [DistArray<f64>],
        state: &FusedState,
        ws: &mut FusedWorkspace,
    ) -> Result<(), ExchangeError> {
        assert!(plan.is_valid_for(arrays), "stale fused plan: an involved array was remapped");
        ws.ensure(plan);
        self.ensure_workers(plan.np());
        let step = self.steps;
        // ownership handoff: every worker gets exactly its own shards
        for (p, cmd) in self.cmd_txs.iter().enumerate() {
            let shards: Vec<Shard<f64>> =
                arrays.iter_mut().map(|a| a.take_local(p)).collect();
            // a send can only fail if the worker already died; the
            // completion scan below pins and reports the death
            let _ = cmd.send(Cmd {
                plan: plan.clone(),
                eff: state.eff_arc(),
                pair_eff: state.pair_eff_arc(),
                shards,
                step,
            });
        }
        self.collect_done(arrays, &mut ws.rank_ns)?;
        self.bytes_sent += state.last_sent() * std::mem::size_of::<f64>() as u64;
        self.steps += 1;
        Ok(())
    }

    fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    fn inject(&mut self, plan: FaultPlan) {
        self.faults = Some(Arc::new(FaultSwitch::arm(plan)));
        if !self.cmd_txs.is_empty() {
            // the running fleet was spawned without the switch: replace
            // it so every worker holds the armed plan
            self.shutdown();
        }
    }

    fn faults_fired(&self) -> usize {
        self.faults.as_ref().map_or(0, |s| s.fired())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::{Assignment, Combine, Term};
    use crate::exec::dense_reference;
    use crate::testing::run_stmt;
    use crate::PlanCache;
    use hpf_core::{DataSpace, DistributeSpec, FormatSpec, HpfError};
    use hpf_index::{span, IndexDomain, Section};

    fn setup(n: usize, np: usize, fmts: &[FormatSpec]) -> Vec<DistArray<f64>> {
        let mut ds = DataSpace::new(np);
        let mut out = Vec::new();
        for (k, f) in fmts.iter().enumerate() {
            let name = format!("A{k}");
            let id = ds.declare(&name, IndexDomain::of_shape(&[n]).unwrap()).unwrap();
            ds.distribute(id, &DistributeSpec::new(vec![f.clone()])).unwrap();
            out.push(DistArray::from_fn(
                &name,
                ds.effective(id).unwrap(),
                np,
                |i| (i[0] * (k as i64 + 3) - 7) as f64,
            ));
        }
        out
    }

    fn shift_stmt(n: i64, arrays: &[DistArray<f64>]) -> Assignment {
        let doms: Vec<&IndexDomain> = arrays.iter().map(|a| a.domain()).collect();
        Assignment::new(
            0,
            Section::from_triplets(vec![span(2, n)]),
            vec![Term::new(1, Section::from_triplets(vec![span(1, n - 1)]))],
            Combine::Copy,
            &doms,
        )
        .unwrap()
    }

    #[test]
    fn channels_matches_reference_and_counts_bytes() {
        let mut arrays = setup(48, 4, &[FormatSpec::Block, FormatSpec::Cyclic(3)]);
        let stmts = [shift_stmt(48, &arrays)];
        let wire = ExecPlan::inspect(&arrays, &stmts[0]).unwrap().wire_bytes();
        let mut cache = PlanCache::new();
        let mut backend = ChannelsBackend::new();
        for step in 1..=4u64 {
            let expect = dense_reference(&arrays, &stmts[0]);
            // unfused: the full ghost exchange rides the wire every step
            cache.replay(&mut arrays, &stmts, false, &mut backend).unwrap();
            assert_eq!(arrays[0].to_dense(), expect, "step {step}");
            assert_eq!(backend.bytes_sent(), step * wire);
        }
        assert_eq!(backend.steps(), 4);
        assert_eq!(backend.workers(), 4);
        assert_eq!(backend.workers_spawned(), 4, "workers persist across steps");
    }

    #[test]
    fn different_processor_count_respawns_fleet() {
        let mut backend = ChannelsBackend::new();
        let mut a4 = setup(32, 4, &[FormatSpec::Block, FormatSpec::Block]);
        let s4 = shift_stmt(32, &a4);
        run_stmt(&mut a4, &s4, &mut backend);
        assert_eq!(backend.workers(), 4);
        let mut a3 = setup(32, 3, &[FormatSpec::Cyclic(1), FormatSpec::Block]);
        let s3 = shift_stmt(32, &a3);
        let expect = dense_reference(&a3, &s3);
        run_stmt(&mut a3, &s3, &mut backend);
        assert_eq!(a3[0].to_dense(), expect);
        assert_eq!(backend.workers(), 3);
        assert_eq!(backend.workers_spawned(), 7, "4 then 3");
        // and back on the first plan the fleet respawns again
        run_stmt(&mut a4, &s4, &mut backend);
        assert_eq!(backend.workers_spawned(), 11);
    }

    #[test]
    fn aliasing_shift_is_bsp_safe_over_channels() {
        // A(2:16) = A(1:15): every worker ships its messages before
        // computing, so receivers see pre-assignment values
        let mut arrays = setup(16, 4, &[FormatSpec::Block]);
        let doms: Vec<&IndexDomain> = arrays.iter().map(|a| a.domain()).collect();
        let stmt = Assignment::new(
            0,
            Section::from_triplets(vec![span(2, 16)]),
            vec![Term::new(0, Section::from_triplets(vec![span(1, 15)]))],
            Combine::Copy,
            &doms,
        )
        .unwrap();
        let expect = dense_reference(&arrays, &stmt);
        run_stmt(&mut arrays, &stmt, &mut ChannelsBackend::new());
        assert_eq!(arrays[0].to_dense(), expect);
    }

    /// In the shift statement's schedule over block mappings, worker 3 is
    /// a pure receiver (pairs are p→p+1), so killing it pins the death
    /// deterministically: worker 2's send fails (rank 3's inbox died) and
    /// the driver's handle scan sees rank 3 finished without a Done.
    #[test]
    fn injected_kill_surfaces_typed_error_and_replay_recovers() {
        let mut arrays = setup(48, 4, &[FormatSpec::Block, FormatSpec::Block]);
        let stmts = [shift_stmt(48, &arrays)];
        let mut cache = PlanCache::new();
        let mut backend = ChannelsBackend::new();
        backend.inject(FaultPlan::parse("kill:rank=3,step=1").unwrap());
        cache.replay(&mut arrays, &stmts, true, &mut backend).unwrap(); // step 0
        let ckpt = arrays.clone(); // stand-in for a real checkpoint
        let expect = dense_reference(&arrays, &stmts[0]);
        let err = cache.replay(&mut arrays, &stmts, true, &mut backend).unwrap_err();
        let died = ExchangeError::WorkerDied { rank: 3, step: 1 };
        assert_eq!(died.rank(), Some(3));
        assert_eq!(err, HpfError::from(died));
        assert_eq!(backend.workers(), 0, "failed fleet must be torn down");
        assert_eq!(backend.steps(), 1, "a failed timestep never happened");
        assert_eq!(backend.faults_fired(), 1);
        // recovery: restore shards, replay — the one-shot fault is spent,
        // the fleet respawns on its own (its empty ghost buffers refilled,
        // because the failure re-dirtied every unit), and the answer matches
        arrays = ckpt;
        cache.replay(&mut arrays, &stmts, true, &mut backend).unwrap();
        assert_eq!(arrays[0].to_dense(), expect);
        assert_eq!(backend.workers(), 4);
        assert_eq!(backend.workers_spawned(), 8, "one respawn after the kill");
        assert_eq!(backend.faults_fired(), 1, "replay runs clean");
    }

    #[test]
    fn injected_drop_wedges_and_times_out() {
        let mut arrays = setup(48, 4, &[FormatSpec::Block, FormatSpec::Block]);
        let stmts = [shift_stmt(48, &arrays)];
        let mut backend = ChannelsBackend::new();
        backend.set_step_timeout(Duration::from_millis(300));
        backend.inject(FaultPlan::parse("drop:from=2,to=3,step=0").unwrap());
        let err =
            PlanCache::new().replay(&mut arrays, &stmts, true, &mut backend).unwrap_err();
        let wedged = ExchangeError::Wedged { step: 0, waited_ms: 300 };
        assert_eq!(wedged.rank(), None, "a lost message pins no rank");
        assert_eq!(err, HpfError::from(wedged));
        assert_eq!(backend.workers(), 0);
    }

    #[test]
    fn injected_corruption_is_detected_before_unpacking() {
        let mut arrays = setup(48, 4, &[FormatSpec::Block, FormatSpec::Block]);
        let stmts = [shift_stmt(48, &arrays)];
        let plan = Arc::new(ExecPlan::inspect(&arrays, &stmts[0]).unwrap());
        let plan = ProgramPlan::compile(&stmts, vec![plan], true);
        let pair = plan.pairs().iter().find(|p| (p.sender, p.receiver) == (1, 2));
        let expected = pair.expect("rank 3 reads a ghost from rank 2").elements;
        let mut backend = ChannelsBackend::new();
        backend.inject(FaultPlan::parse("corrupt:from=1,to=2,step=0").unwrap());
        let err =
            PlanCache::new().replay(&mut arrays, &stmts, true, &mut backend).unwrap_err();
        let corrupt = ExchangeError::CorruptMessage {
            sender: 1,
            receiver: 2,
            step: 0,
            got: expected - 1,
            expected,
        };
        assert_eq!(corrupt.rank(), Some(2), "corruption is pinned to the receiver");
        assert_eq!(err, HpfError::from(corrupt));
    }

    #[test]
    fn injected_delay_and_pool_poison_do_not_fail_the_step() {
        // a delayed message is a slow link, and a poisoned pool lock is
        // recovered via into_inner — both steps must still complete and
        // match the reference (the poison recovery is satellite #1: one
        // fault stays one fault)
        let mut arrays = setup(48, 4, &[FormatSpec::Block, FormatSpec::Cyclic(3)]);
        let stmts = [shift_stmt(48, &arrays)];
        let mut cache = PlanCache::new();
        let mut backend = ChannelsBackend::new();
        backend.inject(
            FaultPlan::parse("delay:from=0,to=1,step=0,ms=30; poison:rank=2,step=1")
                .unwrap(),
        );
        for _ in 0..3 {
            let expect = dense_reference(&arrays, &stmts[0]);
            cache.replay(&mut arrays, &stmts, false, &mut backend).unwrap();
            assert_eq!(arrays[0].to_dense(), expect);
        }
        assert_eq!(backend.steps(), 3);
        assert_eq!(backend.faults_fired(), 2);
        assert_eq!(backend.workers_spawned(), 4, "no respawn: nothing failed");
    }

    #[test]
    fn recompiled_plans_never_reuse_a_workers_scratch() {
        // Recompile a differently shaped plan into the live fleet, round
        // after round, the way a `remap` does: the driver drops the old
        // plan — the workers handed theirs back with the step — and the
        // allocator gives the next one the freed address. A worker that
        // recognised plans by address, and masks by a version every fresh
        // `FusedState` restarts, would keep the other shape's operand
        // buffers (an out-of-range unpack kills it) and per-pair message
        // lengths (a spurious `CorruptMessage`).
        let mut backend = ChannelsBackend::new();
        let mut previous: Option<Arc<ProgramPlan>> = None;
        for round in 0..20 {
            for n in [24usize, 96, 40] {
                let mut arrays = setup(n, 4, &[FormatSpec::Block, FormatSpec::Cyclic(1)]);
                let stmt = shift_stmt(n as i64, &arrays);
                let expect = dense_reference(&arrays, &stmt);
                let exec = Arc::new(ExecPlan::inspect(&arrays, &stmt).unwrap());
                let compiled = ProgramPlan::compile(std::slice::from_ref(&stmt), vec![exec], true);
                drop(previous.take());
                let plan = Arc::new(compiled);
                let mut state = FusedState::new(&plan, &arrays);
                state.begin_timestep(&plan, &arrays, backend.buffer_domain(4));
                backend
                    .step(&plan, &mut arrays, &state, &mut FusedWorkspace::new())
                    .unwrap_or_else(|e| panic!("round {round}, n = {n}: {e}"));
                assert_eq!(arrays[0].to_dense(), expect, "round {round}, n = {n}");
                previous = Some(plan);
            }
        }
        assert_eq!(backend.workers_spawned(), 4, "one fleet served every plan");
    }
}
