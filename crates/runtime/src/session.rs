//! The execution-session API: one builder, every execution concern.
//!
//! A [`Session`] is how a [`Program`] runs — backend, thread bound,
//! fusion, checkpoint cadence, fault recovery, and adaptive
//! redistribution are options of one builder, and every timestep takes
//! the same path underneath ([`Session::run`] →
//! [`PlanCache::replay`](crate::PlanCache::replay) →
//! [`ExchangeBackend::step`](crate::ExchangeBackend::step)):
//!
//! ```
//! use hpf_runtime::{Backend, Program, Session};
//! # let program = Program::new(Vec::new());
//! let mut session = Session::new(program)
//!     .backend(Backend::SharedMem); // .threads(8), .checkpoint(spec),
//!                                   // .adapt(policy), .fused(false), ...
//! let report = session.run(10).unwrap();
//! assert_eq!(report.timesteps, 10);
//! ```
//!
//! A session owns its program ([`Session::program`] /
//! [`Session::program_mut`] / [`Session::into_program`] give it back),
//! tracks the absolute timestep across `run` calls, executes a
//! restore-and-replay recovery loop whenever a checkpoint cadence is
//! configured, and hosts the [`AdaptController`] so mappings are
//! re-balanced *live* between timesteps (see [`crate::adapt`]).
//!
//! Warm `run` calls on the `SharedMem` backend without a thread bound
//! preserve the zero-allocation replay contract: the session's own
//! bookkeeping is plain field updates, so everything the timestep
//! allocates is what the program's replay path allocates — nothing.

use crate::adapt::{AdaptController, AdaptPolicy, AdaptReport};
use crate::backend::Backend;
use crate::ckpt::{CheckpointSpec, RecoveryPolicy};
use crate::commsets::CommAnalysis;
use crate::fault::FaultPlan;
use crate::program::Program;
use hpf_core::HpfError;
use hpf_machine::Machine;
use std::sync::Arc;
use std::time::Duration;

/// What a [`Session::run`] call did (cumulative across the session).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionReport {
    /// Absolute timestep the session has reached.
    pub timesteps: u64,
    /// Exchange faults survived so far.
    pub failures: u64,
    /// Timesteps re-executed after restores (work lost to faults).
    pub replayed: u64,
    /// Checkpoints written.
    pub checkpoints: u64,
    /// True iff recovery degraded from `Channels` to `SharedMem`.
    pub degraded: bool,
    /// Backend the last timestep actually ran on — after the thread bound
    /// and any degradation were taken into account.
    pub final_backend: Backend,
    /// Live remaps the adaptive controller performed.
    pub remaps: u64,
}

/// Builder-style driver for a [`Program`]: backend, thread bound,
/// fusion, checkpoint cadence, fault recovery, and adaptive
/// redistribution in one place.
#[derive(Debug)]
pub struct Session {
    program: Program,
    backend: Backend,
    threads: usize,
    fused: bool,
    checkpoint: Option<CheckpointSpec>,
    recovery: RecoveryPolicy,
    adapt_policy: Option<AdaptPolicy>,
    machine: Option<Machine>,
    controller: Option<AdaptController>,
    timestep: u64,
    report: SessionReport,
}

impl Session {
    /// A session over `program` with the defaults: `SharedMem` backend, no
    /// thread bound, fused timesteps, no checkpoints, no adaptation.
    pub fn new(program: Program) -> Self {
        Session {
            program,
            backend: Backend::SharedMem,
            threads: 0,
            fused: true,
            checkpoint: None,
            recovery: RecoveryPolicy::default(),
            adapt_policy: None,
            machine: None,
            controller: None,
            timestep: 0,
            report: SessionReport {
                timesteps: 0,
                failures: 0,
                replayed: 0,
                checkpoints: 0,
                degraded: false,
                final_backend: Backend::SharedMem,
                remaps: 0,
            },
        }
    }

    /// Select the exchange backend (default `SharedMem`).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Bound the worker threads per timestep. `t >= np` routes through
    /// the persistent `Channels` SPMD fleet (one worker per simulated
    /// processor); `1 < t < np` spreads the `SharedMem` backend's stage
    /// and compute over at most `t` scoped threads; `t <= 1` (the default)
    /// defers to the configured [`Session::backend`].
    /// [`SessionReport::final_backend`] names what ran.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Compile timesteps into the fused program plan (default `true`).
    /// `fused(false)` compiles one superstep per statement with a full
    /// ghost exchange every timestep — the pre-fusion baseline, on the
    /// same backend.
    pub fn fused(mut self, fused: bool) -> Self {
        self.fused = fused;
        self
    }

    /// Checkpoint on `spec`'s cadence and recover from exchange faults
    /// by restore-and-replay.
    pub fn checkpoint(mut self, spec: CheckpointSpec) -> Self {
        self.checkpoint = Some(spec);
        self
    }

    /// How to react to exchange faults (default [`RecoveryPolicy::default`];
    /// only consulted when a checkpoint cadence is configured).
    pub fn recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = policy;
        self
    }

    /// Enable adaptive redistribution: between timesteps the
    /// controller watches measured load, prices candidate
    /// remappings on the machine model, and remaps live when one pays
    /// for itself within the policy's horizon.
    pub fn adapt(mut self, policy: AdaptPolicy) -> Self {
        self.adapt_policy = Some(policy);
        self.controller = None;
        self
    }

    /// Price adaptive decisions on this machine model instead of
    /// `Machine::simple(np)`.
    pub fn machine(mut self, machine: Machine) -> Self {
        self.machine = Some(machine);
        self.controller = None;
        self
    }

    /// Arm deterministic fault injection on the backend the next
    /// timestep selects (see [`Program::inject_faults`]).
    pub fn inject_faults(mut self, plan: FaultPlan) -> Self {
        self.program.inject_faults(plan);
        self
    }

    /// Override the `Channels` driver's wedge-detection timeout.
    pub fn exchange_timeout(mut self, timeout: Duration) -> Self {
        self.program.set_exchange_timeout(timeout);
        self
    }

    /// The driven program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Mutable access to the driven program — for mid-session
    /// statement swaps ([`Program::set_statements`]) or manual remaps.
    pub fn program_mut(&mut self) -> &mut Program {
        &mut self.program
    }

    /// Dissolve the session, returning the program.
    pub fn into_program(self) -> Program {
        self.program
    }

    /// Absolute timestep reached so far.
    pub fn timestep(&self) -> u64 {
        self.timestep
    }

    /// The adaptive controller's decisions so far (`None` unless
    /// [`Session::adapt`] was configured and `run` was called).
    pub fn adapt_report(&self) -> Option<&AdaptReport> {
        self.controller.as_ref().map(|c| c.report())
    }

    /// The per-statement analyses of the most recent timestep.
    pub fn last_analyses(&self) -> &[Arc<CommAnalysis>] {
        self.program.last_analyses()
    }

    /// The backend and `SharedMem` thread bound the configured options
    /// select for this program (see [`Session::threads`]).
    fn resolve(&self) -> (Backend, usize) {
        match self.threads {
            0 | 1 => (self.backend, 1),
            t if t >= self.program.np() => (Backend::Channels, 1),
            t => (Backend::SharedMem, t),
        }
    }

    /// Advance the session by `steps` timesteps, applying every
    /// configured concern per timestep: adaptive remap decision →
    /// execute → observe → checkpoint cadence — with the
    /// restore-and-replay recovery loop around the execute when a
    /// checkpoint cadence is configured. Returns the cumulative report.
    ///
    /// On an exchange fault with no checkpoint configured (or with
    /// retries exhausted) the fault propagates to the caller.
    pub fn run(&mut self, steps: u64) -> Result<SessionReport, HpfError> {
        if self.adapt_policy.is_some() && self.controller.is_none() {
            let np = self.program.np();
            let machine =
                self.machine.clone().unwrap_or_else(|| Machine::simple(np.max(1)));
            let policy = self.adapt_policy.clone().expect("checked");
            self.controller = Some(AdaptController::new(policy, machine));
        }
        // resolved once per call, so what is reported, what degrades and
        // what runs are the same thing; a degraded session stays degraded
        let (mut backend, threads) =
            if self.report.degraded { (Backend::SharedMem, 1) } else { self.resolve() };
        let end = self.timestep + steps;
        let mut consecutive = 0u32;
        // baseline snapshot: a fault in the very first timestep of this
        // run call must have something to restore
        if let Some(spec) = &self.checkpoint {
            if steps > 0 {
                self.program.checkpoint(&spec.dir, self.timestep)?;
                self.report.checkpoints += 1;
            }
        }
        while self.timestep < end {
            if let Some(ctrl) = &mut self.controller {
                if ctrl.decide(&mut self.program, self.timestep)? {
                    self.report.remaps += 1;
                    // a remap changes the mapping identity every later
                    // restore must target; snapshot the moved state so
                    // recovery replays from the adapted layout
                    if let Some(spec) = &self.checkpoint {
                        self.program.checkpoint(&spec.dir, self.timestep)?;
                        self.report.checkpoints += 1;
                    }
                }
            }
            match self.program.step(backend, threads, self.fused) {
                Ok(_) => {
                    self.timestep += 1;
                    consecutive = 0;
                    if let Some(ctrl) = &mut self.controller {
                        ctrl.observe(&self.program);
                    }
                    if let Some(spec) = &self.checkpoint {
                        if self.timestep == end
                            || (spec.every > 0 && self.timestep % spec.every == 0)
                        {
                            self.program.checkpoint(&spec.dir, self.timestep)?;
                            self.report.checkpoints += 1;
                        }
                    }
                }
                Err(e @ HpfError::Exchange { .. }) => {
                    self.report.failures += 1;
                    consecutive += 1;
                    let Some(spec) = &self.checkpoint else {
                        return Err(e);
                    };
                    if consecutive > self.recovery.max_retries {
                        return Err(e);
                    }
                    if backend == Backend::Channels
                        && consecutive >= self.recovery.degrade_after
                    {
                        backend = Backend::SharedMem;
                        self.report.degraded = true;
                    }
                    std::thread::sleep(self.recovery.backoff * consecutive);
                    let restored = self.program.restore_latest(&spec.dir)?;
                    debug_assert!(restored.timestep <= self.timestep);
                    self.report.replayed += self.timestep - restored.timestep;
                    self.timestep = restored.timestep;
                }
                Err(e) => return Err(e),
            }
        }
        self.report.timesteps = self.timestep;
        self.report.final_backend = backend;
        Ok(self.report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::{Assignment, Combine, Term};
    use crate::DistArray;
    use hpf_core::{DataSpace, DistributeSpec, FormatSpec};
    use hpf_index::{span, IndexDomain, Section};

    fn stencil(n: usize, np: usize) -> Program {
        let mut ds = DataSpace::new(np);
        let a = ds.declare("A", IndexDomain::of_shape(&[n]).unwrap()).unwrap();
        let b = ds.declare("B", IndexDomain::of_shape(&[n]).unwrap()).unwrap();
        ds.distribute(a, &DistributeSpec::new(vec![FormatSpec::Block])).unwrap();
        ds.distribute(b, &DistributeSpec::new(vec![FormatSpec::Cyclic(1)])).unwrap();
        let mut prog = Program::new(vec![
            DistArray::from_fn("A", ds.effective(a).unwrap(), np, |i| i[0] as f64),
            DistArray::from_fn("B", ds.effective(b).unwrap(), np, |i| (i[0] * 2) as f64),
        ]);
        let doms: Vec<&IndexDomain> = prog.arrays.iter().map(|x| x.domain()).collect();
        let n = n as i64;
        let sweep = Assignment::new(
            0,
            Section::from_triplets(vec![span(2, n)]),
            vec![
                Term::new(0, Section::from_triplets(vec![span(1, n - 1)])),
                Term::new(1, Section::from_triplets(vec![span(2, n)])),
            ],
            Combine::Sum,
            &doms,
        )
        .unwrap();
        prog.push(sweep).unwrap();
        prog
    }

    #[test]
    fn session_matches_legacy_sequential_run() {
        let mut direct = stencil(48, 4);
        let mut session = Session::new(stencil(48, 4));
        for _ in 0..5 {
            direct.step(Backend::SharedMem, 1, true).unwrap();
        }
        let report = session.run(5).unwrap();
        assert_eq!(report.timesteps, 5);
        assert_eq!(report.failures, 0);
        assert_eq!(
            direct.arrays[0].to_dense(),
            session.program().arrays[0].to_dense()
        );
    }

    #[test]
    fn session_accumulates_across_run_calls() {
        let mut s = Session::new(stencil(32, 4));
        s.run(3).unwrap();
        let rep = s.run(2).unwrap();
        assert_eq!(rep.timesteps, 5);
        assert_eq!(s.timestep(), 5);
        assert_eq!(s.program().cache_misses(), 1, "plans stay warm across calls");
    }

    #[test]
    fn threads_route_to_channels_fleet() {
        let mut s = Session::new(stencil(32, 4)).threads(4);
        let rep = s.run(3).unwrap();
        assert_eq!(s.program().spmd_workers_spawned(), 4);
        assert_eq!(rep.final_backend, Backend::Channels, "the report names what ran");
        let mut twin = Session::new(stencil(32, 4));
        twin.run(3).unwrap();
        assert_eq!(
            s.program().arrays[0].to_dense(),
            twin.program().arrays[0].to_dense(),
            "channels ≡ shared-mem bit for bit"
        );
    }

    #[test]
    fn threads_resolve_to_the_documented_regimes() {
        // t <= 1 defers to the configured backend
        let mut s = Session::new(stencil(32, 4)).backend(Backend::Channels).threads(1);
        assert_eq!(s.run(2).unwrap().final_backend, Backend::Channels);
        assert_eq!(s.program().spmd_workers_spawned(), 4);
        // 1 < t < np bounds scoped threads on SharedMem, whatever was
        // configured
        let mut s = Session::new(stencil(32, 4)).backend(Backend::Channels).threads(2);
        assert_eq!(s.run(2).unwrap().final_backend, Backend::SharedMem);
        assert_eq!(s.program().spmd_workers_spawned(), 0);
    }

    #[test]
    fn bounded_thread_timesteps_are_measured() {
        // the adaptive controller's load sample must not go dark under a
        // thread bound: every rank's kernels are timed on every path
        let mut s = Session::new(stencil(1 << 14, 4)).threads(2);
        s.run(2).unwrap();
        let measured = s.program().stats().rank_compute_ns;
        assert_eq!(measured.len(), 4);
        assert!(measured.iter().all(|&ns| ns > 0), "unmeasured rank in {measured:?}");
    }

    #[test]
    fn unfused_session_matches_fused() {
        let mut fused = Session::new(stencil(40, 4));
        fused.run(4).unwrap();
        for backend in [Backend::SharedMem, Backend::Channels] {
            let mut unfused = Session::new(stencil(40, 4)).backend(backend).fused(false);
            unfused.run(4).unwrap();
            let fleet = if backend == Backend::Channels { 4 } else { 0 };
            assert_eq!(
                unfused.program().spmd_workers_spawned(),
                fleet,
                "unfused runs where it was asked to"
            );
            assert_eq!(
                fused.program().arrays[0].to_dense(),
                unfused.program().arrays[0].to_dense()
            );
        }
    }

    #[test]
    fn empty_program_runs_trivially() {
        let mut s = Session::new(Program::new(Vec::new()));
        let rep = s.run(3).unwrap();
        assert_eq!(rep.timesteps, 3);
    }

    #[test]
    fn into_program_returns_the_driven_program() {
        let mut s = Session::new(stencil(32, 4));
        s.run(2).unwrap();
        let prog = s.into_program();
        assert_eq!(prog.len(), 1);
        assert!(prog.cache_hits() > 0);
    }
}
