//! Pluggable exchange backends — the transport-neutral boundary between
//! compiled schedules and the wire.
//!
//! * What moves is decided before any backend sees it: a [`ProgramPlan`]
//!   buckets the remote gather runs of its statements' [`ExecPlan`]s into
//!   one [`FusedPair`](crate::FusedPair) per `(superstep, sender,
//!   receiver)` — the standard vectorized-message aggregation the machine
//!   model prices — whose [`FusedSegment`](crate::FusedSegment)s say what
//!   the sender gathers into the message and where the receiver scatters
//!   it. There is no other send-side form.
//! * [`ExchangeBackend`] abstracts *how* those messages move, and it is
//!   the **only** thing that varies between ways of running a timestep:
//!   [`ExchangeBackend::step`] executes one whole [`ProgramPlan`] — per
//!   superstep, stage → exchange → compute (see [`crate::plan`] for which
//!   operands are staged and which the kernel reads in place). A single
//!   statement is the one-superstep plan.
//! * [`SharedMemBackend`] copies within one address space (each pair's
//!   effective segments staged through a persistent, preallocated buffer
//!   in the [`FusedWorkspace`], then unpacked into the receiver's operand
//!   buffers), preserving the **zero-allocation warm-replay contract**;
//!   its thread bound spreads stage and compute over scoped threads.
//! * [`ChannelsBackend`](crate::ChannelsBackend) (see [`crate::spmd`]) is
//!   a true message-passing SPMD executor: one long-lived worker per
//!   simulated processor, owning only its local shards, exchanging packed
//!   messages over channels — no worker ever reads another's buffer.
//!
//! Every backend cross-checks the elements it actually moves against the
//! dirty-tracking mask of the timestep, and
//! [`ExecPlan::analysis_verdict`](crate::ExecPlan::analysis_verdict)
//! records (asserted at inspect time) that for partitioning mappings the
//! full wire traffic is *exactly* the frozen
//! [`CommAnalysis`](crate::CommAnalysis) — the paper's statically-computed
//! communication sets are sufficient for a real distributed-memory
//! exchange.
//!
//! [`ExecPlan`]: crate::ExecPlan

use crate::array::DistArray;
use crate::fault::{Fault, FaultPlan, FaultSwitch};
use crate::fuse::{execute_fused, BufferDomain, FusedState, ProgramPlan};
use crate::workspace::FusedWorkspace;
use hpf_core::HpfError;
use std::sync::Arc;

/// A typed exchange failure — what used to be a mid-superstep panic.
///
/// Every variant carries the backend's superstep counter at detection
/// time, and [`ExchangeError::rank`] pins the failure to a zero-based
/// rank when one could be identified. Crossing the crate boundary it
/// becomes [`HpfError::Exchange`] (via `From`), which
/// [`Session::run`](crate::Session::run) matches on to drive
/// restore-and-replay recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExchangeError {
    /// A worker thread died mid-superstep without completing its work
    /// order (crash, injected kill).
    WorkerDied {
        /// Zero-based rank of the dead worker.
        rank: u32,
        /// Superstep counter at detection.
        step: u64,
    },
    /// Every worker (and with them the completion channel) is gone.
    FleetDied {
        /// Superstep counter at detection.
        step: u64,
    },
    /// No worker progress within the step timeout — a dropped message or
    /// a schedule bug has the fleet waiting on data that will never
    /// arrive (a correct superstep cannot deadlock: channels are
    /// unbounded).
    Wedged {
        /// Superstep counter at detection.
        step: u64,
        /// How long the driver waited before giving up, in milliseconds.
        waited_ms: u64,
    },
    /// A physically received message's length disagrees with the frozen
    /// schedule — the payload was damaged in flight, or sender and
    /// receiver executed different plans. Detected *before* unpacking,
    /// so garbage never reaches a kernel.
    CorruptMessage {
        /// Zero-based sending rank.
        sender: u32,
        /// Zero-based receiving rank (where the damage was detected).
        receiver: u32,
        /// Superstep counter at detection.
        step: u64,
        /// Elements physically received.
        got: usize,
        /// Elements the receiver's schedule promises.
        expected: usize,
    },
    /// A message arrived at a worker whose schedule has no entry for it.
    Misrouted {
        /// Zero-based rank that received the stray message.
        rank: u32,
        /// Superstep counter at detection.
        step: u64,
    },
}

impl ExchangeError {
    /// The zero-based rank the failure is pinned to, if identifiable
    /// (corruption is pinned to the receiving rank, where it was
    /// detected).
    pub fn rank(&self) -> Option<u32> {
        match *self {
            ExchangeError::WorkerDied { rank, .. }
            | ExchangeError::Misrouted { rank, .. } => Some(rank),
            ExchangeError::CorruptMessage { receiver, .. } => Some(receiver),
            ExchangeError::FleetDied { .. } | ExchangeError::Wedged { .. } => None,
        }
    }

    /// The backend's superstep counter when the failure was detected.
    pub fn step(&self) -> u64 {
        match *self {
            ExchangeError::WorkerDied { step, .. }
            | ExchangeError::FleetDied { step }
            | ExchangeError::Wedged { step, .. }
            | ExchangeError::CorruptMessage { step, .. }
            | ExchangeError::Misrouted { step, .. } => step,
        }
    }
}

/// Ranks print zero-based, as `--inject` and [`ExchangeError::rank`] take
/// them, and `step` prints as what it counts: the backend's superstep.
impl std::fmt::Display for ExchangeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ExchangeError::WorkerDied { rank, step } => {
                write!(f, "SPMD worker rank {rank} died mid-superstep (superstep {step})")
            }
            ExchangeError::FleetDied { step } => {
                write!(f, "every SPMD worker died mid-superstep (superstep {step})")
            }
            ExchangeError::Wedged { step, waited_ms } => write!(
                f,
                "superstep {step} wedged: no worker progress within {waited_ms}ms \
                 (a message was lost, or the schedule is wrong)"
            ),
            ExchangeError::CorruptMessage { sender, receiver, step, got, expected } => {
                write!(
                    f,
                    "worker rank {receiver}: message from rank {sender} in superstep {step} \
                     has {got} element(s), schedule says {expected}"
                )
            }
            ExchangeError::Misrouted { rank, step } => write!(
                f,
                "worker rank {rank}: received a message its schedule has no entry for \
                 (superstep {step})"
            ),
        }
    }
}

impl std::error::Error for ExchangeError {}

impl From<ExchangeError> for HpfError {
    fn from(e: ExchangeError) -> HpfError {
        HpfError::Exchange { rank: e.rank(), step: e.step(), reason: e.to_string() }
    }
}

/// How a timestep's data moves between simulated processors — the one
/// thing that varies between ways of executing a [`ProgramPlan`].
///
/// Select one with [`Backend`] or instantiate directly. The contract:
/// `step` executes one whole timestep of `plan` over `arrays`
/// (semantically identical across backends — the backend-equivalence
/// property suite pins `Channels` ≡ `SharedMem` ≡ the dense reference),
/// and [`ExchangeBackend::bytes_sent`] reports the cumulative bytes the
/// backend actually put on its wire, which every implementation must
/// cross-check against the timestep's effective-send mask.
/// [`PlanCache::replay`](crate::PlanCache::replay) is the driver: it
/// resolves the plan and brackets each `step` with the dirty-tracking
/// state's begin/finish.
pub trait ExchangeBackend {
    /// Human-readable backend name (for reports).
    fn name(&self) -> &'static str;

    /// Get ready to run a timestep over `np` simulated processors and say
    /// which buffers will hold the receiver-side ghost data, so the
    /// dirty-tracking state can tell whether the copies it believes are
    /// current still exist. Called before the effective-send mask of the
    /// timestep is built.
    fn buffer_domain(&mut self, np: usize) -> BufferDomain;

    /// Execute one timestep: per superstep of `plan`, stage → exchange the
    /// units `state`'s effective-send mask selects → compute. `ws` is the
    /// plan's preallocated scratch; a backend that keeps its operand
    /// buffers elsewhere still reports each rank's measured compute time
    /// into it.
    ///
    /// Exchange failures (worker death, lost or damaged messages, a
    /// wedged fleet) come back as a typed [`ExchangeError`] — the arrays
    /// may then hold a partial timestep (a dead worker takes its shards
    /// with it) and must be reloaded from a checkpoint before the
    /// trajectory continues (see [`crate::ckpt`]).
    ///
    /// # Panics
    /// Panics if `plan` is stale for `arrays` (see
    /// [`ProgramPlan::is_valid_for`]) — staleness is a caller bug, not a
    /// runtime fault.
    fn step(
        &mut self,
        plan: &Arc<ProgramPlan>,
        arrays: &mut [DistArray<f64>],
        state: &FusedState,
        ws: &mut FusedWorkspace,
    ) -> Result<(), ExchangeError>;

    /// Cumulative bytes this backend has moved between processors.
    fn bytes_sent(&self) -> u64;

    /// Arm deterministic fault injection (see [`FaultPlan`]): each
    /// fault in `plan` fires once when its timestep comes around. The
    /// default implementation ignores the plan — backends that support
    /// injection override it.
    fn inject(&mut self, plan: FaultPlan) {
        let _ = plan;
    }

    /// Injected faults that have fired so far (0 for backends without
    /// injection support).
    fn faults_fired(&self) -> usize {
        0
    }
}

/// Backend selector, threaded through [`crate::Session`] and [`crate::Program`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Direct copies within one address space, staged through persistent
    /// per-pair buffers — zero-allocation warm replays.
    #[default]
    SharedMem,
    /// True message-passing SPMD: one long-lived worker per simulated
    /// processor, packed messages over channels, disjoint ownership.
    Channels,
}

impl Backend {
    /// Instantiate the selected backend.
    pub fn instantiate(self) -> Box<dyn ExchangeBackend + Send> {
        match self {
            Backend::SharedMem => Box::new(SharedMemBackend::new()),
            Backend::Channels => Box::new(crate::spmd::ChannelsBackend::new()),
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backend::SharedMem => write!(f, "shared-mem"),
            Backend::Channels => write!(f, "channels"),
        }
    }
}

/// The shared-address-space backend: every pair's effective segments are
/// packed from the sender's local buffers into a persistent, preallocated
/// staging buffer in the [`FusedWorkspace`] (the pair's send/recv buffer),
/// then unpacked into the receiver's packed operand buffers — the same
/// two-sided message discipline as the `Channels` backend, minus the
/// workers. The elements physically staged are counted and asserted equal
/// to the dirty-tracking mask's prediction every step, so
/// [`ExchangeBackend::bytes_sent`] is measured, not assumed. Without a
/// thread bound, warm steps perform **zero heap allocations**.
#[derive(Debug, Clone, Default)]
pub struct SharedMemBackend {
    bytes_sent: u64,
    steps: u64,
    /// Upper bound on the scoped threads stage and compute spread over
    /// (`<= 1`: everything runs inline on the caller's thread).
    threads: usize,
    /// Armed fault injection, if any. This backend has no threads, wire,
    /// or locks, so it simulates each fault's *detection outcome* at the
    /// step boundary (same typed errors, arrays untouched) instead of
    /// physically provoking it — see [`crate::fault`]. `None` on the
    /// warm path: one branch, no lock.
    faults: Option<Arc<FaultSwitch>>,
}

impl SharedMemBackend {
    /// A fresh backend with zeroed counters.
    pub fn new() -> Self {
        SharedMemBackend::default()
    }

    /// Timesteps executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Bound the scoped threads a timestep's stage and compute phases
    /// spread over (capped at the simulated processor count per plan).
    pub(crate) fn set_threads(&mut self, threads: usize) {
        self.threads = threads;
    }

    /// Simulate every injected fault scheduled for the current step:
    /// delays sleep, a pool poison is a no-op (there is no pool), and
    /// kill/drop/corrupt return the typed error their physical form
    /// would be detected as — before any array data moves, so the
    /// timestep simply did not happen.
    fn injected_failure(&mut self) -> Result<(), ExchangeError> {
        let Some(switch) = &self.faults else {
            return Ok(());
        };
        let step = self.steps;
        while let Some(fault) = switch.at_step(step) {
            match fault {
                Fault::DelayMessage { millis, .. } => {
                    std::thread::sleep(std::time::Duration::from_millis(millis));
                }
                Fault::PoisonPool { .. } => {}
                Fault::KillWorker { rank, .. } => {
                    return Err(ExchangeError::WorkerDied { rank, step });
                }
                Fault::DropMessage { .. } => {
                    return Err(ExchangeError::Wedged { step, waited_ms: 0 });
                }
                Fault::CorruptMessage { sender, receiver, .. } => {
                    return Err(ExchangeError::CorruptMessage {
                        sender,
                        receiver,
                        step,
                        got: 0,
                        expected: 1,
                    });
                }
            }
        }
        Ok(())
    }
}

impl ExchangeBackend for SharedMemBackend {
    fn name(&self) -> &'static str {
        "shared-mem"
    }

    fn buffer_domain(&mut self, _np: usize) -> BufferDomain {
        BufferDomain::Workspace
    }

    /// Clean units are skipped — their receiver-side data is still current
    /// from an earlier timestep. Counts one step per timestep.
    fn step(
        &mut self,
        plan: &Arc<ProgramPlan>,
        arrays: &mut [DistArray<f64>],
        state: &FusedState,
        ws: &mut FusedWorkspace,
    ) -> Result<(), ExchangeError> {
        self.injected_failure()?;
        let staged = execute_fused(plan, arrays, state, ws, self.threads);
        assert_eq!(
            staged,
            state.last_sent(),
            "staged ghost elements diverged from the dirty-tracking mask"
        );
        self.bytes_sent += staged * std::mem::size_of::<f64>() as u64;
        self.steps += 1;
        Ok(())
    }

    fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    fn inject(&mut self, plan: FaultPlan) {
        self.faults = Some(Arc::new(FaultSwitch::arm(plan)));
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
    use crate::testing::{run_stmt, threaded};
    use crate::{AnalysisVerdict, ExecPlan, PlanCache};
    use hpf_core::{DataSpace, DistributeSpec, FormatSpec};
    use hpf_procs::ProcId;
    use hpf_index::{span, triplet, IndexDomain, Section};

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
                |i| (i[0] * (k as i64 + 2)) as f64,
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
    fn wire_traffic_matches_comm_analysis_exactly() {
        let arrays = setup(64, 4, &[FormatSpec::Block, FormatSpec::Cyclic(3)]);
        let stmt = shift_stmt(64, &arrays);
        let plan = Arc::new(ExecPlan::inspect(&arrays, &stmt).unwrap());
        assert_eq!(plan.analysis_verdict(), AnalysisVerdict::Exact, "partitioned mappings");
        assert_eq!(plan.wire_elements(), plan.analysis().comm.total_elements());
        assert_eq!(plan.wire_bytes(), plan.analysis().total_bytes());
        assert_eq!(plan.messages(), plan.analysis().comm.messages());
        // and the messages that execute carry it pair for pair
        let fused = ProgramPlan::compile(std::slice::from_ref(&stmt), vec![plan.clone()], true);
        assert_eq!(fused.pairs().len(), plan.messages());
        for p in fused.pairs() {
            assert_ne!(p.sender, p.receiver, "local data never rides the wire");
            assert!(p.elements > 0);
            assert_eq!(p.elements, p.segments.iter().map(|s| s.len).sum::<usize>());
            let froze =
                plan.analysis().comm.elements_between(ProcId(p.sender + 1), ProcId(p.receiver + 1));
            assert_eq!(p.elements as u64, froze, "{} → {}", p.sender, p.receiver);
        }
    }

    #[test]
    fn collocated_statement_exchanges_nothing() {
        let arrays = setup(32, 4, &[FormatSpec::Block, FormatSpec::Block]);
        let doms: Vec<&IndexDomain> = arrays.iter().map(|a| a.domain()).collect();
        let stmt = Assignment::new(
            0,
            Section::from_triplets(vec![span(1, 32)]),
            vec![Term::new(1, Section::from_triplets(vec![span(1, 32)]))],
            Combine::Copy,
            &doms,
        )
        .unwrap();
        let plan = ExecPlan::inspect(&arrays, &stmt).unwrap();
        assert_eq!((plan.messages(), plan.wire_bytes()), (0, 0));
        assert_eq!(plan.analysis_verdict(), AnalysisVerdict::Exact);
    }

    #[test]
    fn shared_mem_backend_matches_direct_replay() {
        // the operand is never written, so the fused mask ships the ghosts
        // once and reuses them; the unfused mode re-ships them every step
        let mut fused = setup(48, 4, &[FormatSpec::Block, FormatSpec::Cyclic(2)]);
        let mut unfused = fused.clone();
        let stmts = [shift_stmt(48, &fused)];
        let wire = ExecPlan::inspect(&fused, &stmts[0]).unwrap().wire_bytes();
        let (mut c1, mut c2) = (PlanCache::new(), PlanCache::new());
        let (mut b1, mut b2) = (SharedMemBackend::new(), SharedMemBackend::new());
        for _ in 0..3 {
            let expect = dense_reference(&fused, &stmts[0]);
            c1.replay(&mut fused, &stmts, true, &mut b1).unwrap();
            c2.replay(&mut unfused, &stmts, false, &mut b2).unwrap();
            assert_eq!(fused[0].to_dense(), expect);
            assert_eq!(unfused[0].to_dense(), expect);
        }
        assert_eq!((b1.steps(), b2.steps()), (3, 3));
        assert_eq!(b1.bytes_sent(), wire);
        assert_eq!(b2.bytes_sent(), 3 * wire);
        assert_eq!(b1.name(), "shared-mem");
    }

    #[test]
    fn replicated_mapping_diverges_from_analysis_but_executes() {
        // replicated LHS: every replica computes, so the wire traffic is
        // legitimately different from the analysis's broadcast model
        let dom = IndexDomain::of_shape(&[12]).unwrap();
        let rep = Arc::new(hpf_core::EffectiveDist::Replicated {
            domain: dom,
            procs: hpf_core::ProcSet::all(3),
        });
        let mut ds = DataSpace::new(3);
        let b = ds.declare("B", IndexDomain::of_shape(&[12]).unwrap()).unwrap();
        ds.distribute(b, &DistributeSpec::new(vec![FormatSpec::Block])).unwrap();
        let mut arrays = vec![
            DistArray::new("R", rep, 3, 0.0),
            DistArray::from_fn("B", ds.effective(b).unwrap(), 3, |i| (i[0] * 5) as f64),
        ];
        let doms: Vec<&IndexDomain> = arrays.iter().map(|a| a.domain()).collect();
        let stmt = Assignment::new(
            0,
            Section::from_triplets(vec![span(1, 12)]),
            vec![Term::new(1, Section::from_triplets(vec![span(1, 12)]))],
            Combine::Copy,
            &doms,
        )
        .unwrap();
        let plan = ExecPlan::inspect(&arrays, &stmt).unwrap();
        assert_eq!(
            plan.analysis_verdict(),
            AnalysisVerdict::ReplicatedDivergence,
            "replication must be reported as the expected divergence, not a bug"
        );
        let expect = dense_reference(&arrays, &stmt);
        run_stmt(&mut arrays, &stmt, &mut SharedMemBackend::new());
        assert_eq!(arrays[0].to_dense(), expect);
    }

    #[test]
    fn shared_mem_simulates_injected_faults_at_step_boundary() {
        let mut arrays = setup(48, 4, &[FormatSpec::Block, FormatSpec::Block]);
        let stmts = [shift_stmt(48, &arrays)];
        let mut cache = PlanCache::new();
        let mut backend = SharedMemBackend::new();
        backend.inject(FaultPlan::parse("kill:rank=2,step=1").unwrap());
        cache.replay(&mut arrays, &stmts, true, &mut backend).unwrap();
        let before = arrays[0].to_dense();
        let err = cache.replay(&mut arrays, &stmts, true, &mut backend).unwrap_err();
        let died = ExchangeError::WorkerDied { rank: 2, step: 1 };
        assert_eq!((died.rank(), died.step()), (Some(2), 1));
        assert_eq!(err, HpfError::from(died));
        // the failed timestep never happened: arrays untouched, step not
        // counted, and the one-shot fault is spent
        assert_eq!(arrays[0].to_dense(), before, "failed step must not move data");
        assert_eq!(backend.steps(), 1);
        assert_eq!(backend.faults_fired(), 1);
        cache.replay(&mut arrays, &stmts, true, &mut backend).unwrap();
        assert_eq!(backend.steps(), 2);
        assert_eq!(backend.faults_fired(), 1, "one-shot faults must not re-fire");
    }

    fn arrays_2d(n: usize, np_side: usize) -> Vec<DistArray<f64>> {
        let np = np_side * np_side;
        let mut ds = DataSpace::new(np);
        ds.declare_processors("G", IndexDomain::of_shape(&[np_side, np_side]).unwrap())
            .unwrap();
        let mut out = Vec::new();
        for name in ["P", "U"] {
            let id = ds
                .declare(name, IndexDomain::of_shape(&[n, n]).unwrap())
                .unwrap();
            ds.distribute(
                id,
                &DistributeSpec::to(vec![FormatSpec::Block, FormatSpec::Block], "G"),
            )
            .unwrap();
            out.push(DistArray::from_fn(name, ds.effective(id).unwrap(), np, |i| {
                (i[0] * 1000 + i[1]) as f64
            }));
        }
        out
    }

    #[test]
    fn parallel_matches_sequential_1d() {
        let build = || {
            let mut ds = DataSpace::new(4);
            let a = ds.declare("A", IndexDomain::of_shape(&[64]).unwrap()).unwrap();
            let b = ds.declare("B", IndexDomain::of_shape(&[64]).unwrap()).unwrap();
            ds.distribute(a, &DistributeSpec::new(vec![FormatSpec::Block])).unwrap();
            ds.distribute(b, &DistributeSpec::new(vec![FormatSpec::Cyclic(3)])).unwrap();
            vec![
                DistArray::from_fn("A", ds.effective(a).unwrap(), 4, |i| i[0] as f64),
                DistArray::from_fn("B", ds.effective(b).unwrap(), 4, |i| (i[0] * 7) as f64),
            ]
        };
        let doms_owner = build();
        let doms: Vec<&IndexDomain> = doms_owner.iter().map(|a| a.domain()).collect();
        let stmt = Assignment::new(
            0,
            Section::from_triplets(vec![span(1, 32)]),
            vec![
                Term::new(1, Section::from_triplets(vec![triplet(2, 64, 2)])),
                Term::new(0, Section::from_triplets(vec![span(33, 64)])),
            ],
            Combine::Sum,
            &doms,
        )
        .unwrap();
        let mut seq = build();
        let mut par = build();
        let a1 = run_stmt(&mut seq, &stmt, &mut SharedMemBackend::new());
        let a2 = run_stmt(&mut par, &stmt, &mut threaded(3));
        assert_eq!(seq[0].to_dense(), par[0].to_dense());
        assert_eq!(a1.comm, a2.comm);
    }

    #[test]
    fn parallel_matches_reference_2d_stencil() {
        let n = 16;
        let mut arrays = arrays_2d(n, 2);
        let doms: Vec<&IndexDomain> = arrays.iter().map(|a| a.domain()).collect();
        // P(2:N-1, 2:N-1) = U(1:N-2, 2:N-1) + U(3:N, 2:N-1)
        let ni = n as i64;
        let stmt = Assignment::new(
            0,
            Section::from_triplets(vec![span(2, ni - 1), span(2, ni - 1)]),
            vec![
                Term::new(1, Section::from_triplets(vec![span(1, ni - 2), span(2, ni - 1)])),
                Term::new(1, Section::from_triplets(vec![span(3, ni), span(2, ni - 1)])),
            ],
            Combine::Sum,
            &doms,
        )
        .unwrap();
        let expect = dense_reference(&arrays, &stmt);
        // more threads than processors: capped at one processor per thread
        run_stmt(&mut arrays, &stmt, &mut threaded(16));
        assert_eq!(arrays[0].to_dense(), expect);
    }

    #[test]
    fn single_thread_degenerate() {
        let mut arrays = arrays_2d(8, 2);
        let doms: Vec<&IndexDomain> = arrays.iter().map(|a| a.domain()).collect();
        let stmt = Assignment::new(
            0,
            Section::from_triplets(vec![span(1, 8), span(1, 8)]),
            vec![Term::new(1, Section::from_triplets(vec![span(1, 8), span(1, 8)]))],
            Combine::Copy,
            &doms,
        )
        .unwrap();
        let expect = dense_reference(&arrays, &stmt);
        run_stmt(&mut arrays, &stmt, &mut threaded(1));
        assert_eq!(arrays[0].to_dense(), expect);
    }

    #[test]
    fn parallel_plan_replay_matches_seq_replay() {
        let mut seq = arrays_2d(12, 2);
        let mut par = arrays_2d(12, 2);
        let doms: Vec<&IndexDomain> = seq.iter().map(|a| a.domain()).collect();
        let stmts = [Assignment::new(
            0,
            Section::from_triplets(vec![span(2, 11), span(1, 12)]),
            vec![
                Term::new(1, Section::from_triplets(vec![span(1, 10), span(1, 12)])),
                Term::new(1, Section::from_triplets(vec![span(3, 12), span(1, 12)])),
            ],
            Combine::Average,
            &doms,
        )
        .unwrap()];
        let (mut cache_seq, mut cache_par) = (PlanCache::new(), PlanCache::new());
        let (mut backend_seq, mut backend_par) = (SharedMemBackend::new(), threaded(2));
        for _ in 0..3 {
            cache_seq.replay(&mut seq, &stmts, true, &mut backend_seq).unwrap();
            cache_par.replay(&mut par, &stmts, true, &mut backend_par).unwrap();
        }
        assert_eq!(seq[0].to_dense(), par[0].to_dense());
        // every bounded-thread timestep samples each rank's compute time
        assert_eq!(cache_par.rank_compute_ns().len(), 4);
        assert!(cache_par.rank_compute_ns().iter().all(|&ns| ns > 0));
    }

    #[test]
    fn backend_selector_instantiates() {
        assert_eq!(Backend::default(), Backend::SharedMem);
        assert_eq!(Backend::SharedMem.to_string(), "shared-mem");
        assert_eq!(Backend::Channels.to_string(), "channels");
        assert_eq!(Backend::SharedMem.instantiate().name(), "shared-mem");
        assert_eq!(Backend::Channels.instantiate().name(), "channels");
    }
}
