//! `hpfrun` — the end-to-end pipeline driver.
//!
//! Reads a Fortran-with-`!HPF$`-directives source file, elaborates the
//! directives and statements, lowers them into a runtime
//! [`Program`](hpf_runtime::Program) over
//! distributed storage, and executes timesteps through the fused-plan
//! machinery on the selected exchange backend.
//!
//! ```text
//! hpfrun FILE.hpf [--np N] [--steps N] [--backend shared-mem|channels]
//!                 [--threads N] [--set NAME=VALUE]... [--verify] [--stats]
//!                 [--adapt] [--checkpoint-dir D] [--checkpoint-every N]
//!                 [--resume] [--inject SPEC]... [--step-timeout-ms N]
//! ```
//!
//! All frontend and lowering problems are reported together, rendered
//! against the source with spans — one run shows every defect.
//!
//! `--verify` prints the static verifier's verdict on every compiled plan
//! — one line per statement plan, one `timestep plan [...]` line for the
//! fused plan that executes them — before any timestep runs; with
//! `--steps 0` it checks the plans and executes nothing.
//!
//! Exit status: 0 on success, 1 when the source has diagnostics, a plan
//! carries a verifier finding, or execution fails, 2 on usage errors
//! (unknown flags, `--np 0`, an `--inject` fault that does not parse or
//! names a rank outside `0..np`).
//!
//! Execution is driven through a [`hpf_runtime::Session`]: with
//! `--checkpoint-dir` the session writes distributed snapshots on a
//! cadence, and on an exchange fault (injected via `--inject` or real)
//! performs restore-and-replay recovery with bounded retries.
//! `--resume` restores the newest snapshot that verifies first (a newer,
//! torn one is skipped with a note on stderr) and runs only the
//! remaining timesteps — even under a different `--np` or distribution
//! than the checkpoint was written with. `--adapt` arms the adaptive
//! redistribution controller: between timesteps it watches the
//! measured per-rank load, prices candidate remappings on the machine
//! model, and redistributes live when a remap pays for itself.
//!
//! Example:
//! ```text
//! cargo run -p hpf-frontend --bin hpfrun -- examples/programs/quickstart.hpf \
//!     --backend channels --steps 10 --verify --stats
//! ```

use hpf_frontend::{render_diagnostics, Elaborator, Lowerer, ToolOutput};
use hpf_runtime::{AdaptPolicy, Backend, CheckpointSpec, Fault, FaultPlan, Session};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    file: String,
    np: usize,
    steps: usize,
    backend: Backend,
    threads: usize,
    sets: Vec<(String, i64)>,
    verify: bool,
    stats: bool,
    adapt: bool,
    checkpoint_dir: Option<PathBuf>,
    checkpoint_every: u64,
    resume: bool,
    faults: Option<FaultPlan>,
    step_timeout_ms: Option<u64>,
}

fn usage() -> ! {
    eprintln!(
        "usage: hpfrun FILE [--np N] [--steps N] [--backend shared-mem|channels]\n\
         \x20             [--threads N] [--set NAME=VALUE]... [--verify] [--stats]\n\
         \n\
         elaborates FILE over N abstract processors (default 4), lowers the\n\
         statements into a runtime program, and executes N timesteps\n\
         (default 1) through the fused-plan path.\n\
         --backend    exchange backend (default shared-mem); `channels` runs\n\
         \x20            the message-passing SPMD worker fleet\n\
         --threads    with shared-mem, bound the scoped threads a timestep's\n\
         \x20            stage and compute spread over (N >= --np runs the\n\
         \x20            channels fleet instead: one worker per processor)\n\
         --set        provide PARAMETER/READ inputs\n\
         --verify     statically verify every compiled plan (one line per\n\
         \x20            plan), then check the distributed result element for\n\
         \x20            element against the dense oracle; with --steps 0\n\
         \x20            only the plans are checked\n\
         --stats      print plan-cache, fusion, schedule-size, and wire-traffic statistics\n\
         --adapt      adaptive redistribution: watch measured per-rank load\n\
         \x20            and remap live when a rebalance pays for itself\n\
         --checkpoint-dir D   run fault-tolerantly, snapshotting distributed\n\
         \x20            state into D (restore-and-replay on exchange faults)\n\
         --checkpoint-every N checkpoint cadence in timesteps (default 1;\n\
         \x20            0 = only the baseline and final snapshots)\n\
         --resume     restore the newest checkpoint under D that verifies\n\
         \x20            first and run only the remaining timesteps (any\n\
         \x20            --np/distribution)\n\
         --inject SPEC        arm deterministic fault injection, e.g.\n\
         \x20            'kill:rank=1,step=2' or 'drop:from=0,to=2,step=1';\n\
         \x20            repeatable\n\
         --step-timeout-ms N  channels wedge-detection timeout"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        file: String::new(),
        np: 4,
        steps: 1,
        backend: Backend::SharedMem,
        threads: 1,
        sets: Vec::new(),
        verify: false,
        stats: false,
        adapt: false,
        checkpoint_dir: None,
        checkpoint_every: 1,
        resume: false,
        faults: None,
        step_timeout_ms: None,
    };
    let mut inject = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--np" => {
                args.np = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
                if args.np == 0 {
                    eprintln!("hpfrun: --np must be at least 1");
                    usage();
                }
            }
            "--steps" => {
                args.steps =
                    it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
            }
            "--threads" => {
                args.threads =
                    it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
            }
            "--backend" => match it.next().as_deref() {
                Some("shared-mem") => args.backend = Backend::SharedMem,
                Some("channels") => args.backend = Backend::Channels,
                _ => usage(),
            },
            "--set" => {
                let kv = it.next().unwrap_or_else(|| usage());
                let (k, v) = kv.split_once('=').unwrap_or_else(|| usage());
                let v: i64 = v.parse().unwrap_or_else(|_| usage());
                args.sets.push((k.to_string(), v));
            }
            "--verify" => args.verify = true,
            "--stats" => args.stats = true,
            "--adapt" => args.adapt = true,
            "--checkpoint-dir" => {
                args.checkpoint_dir = Some(PathBuf::from(it.next().unwrap_or_else(|| usage())))
            }
            "--checkpoint-every" => {
                args.checkpoint_every =
                    it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
            }
            "--resume" => args.resume = true,
            "--inject" => inject.push(it.next().unwrap_or_else(|| usage())),
            "--step-timeout-ms" => {
                args.step_timeout_ms =
                    Some(it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()))
            }
            "--help" | "-h" => usage(),
            f if args.file.is_empty() && !f.starts_with('-') => args.file = f.to_string(),
            _ => usage(),
        }
    }
    if args.file.is_empty() {
        usage();
    }
    if args.resume && args.checkpoint_dir.is_none() {
        eprintln!("hpfrun: --resume requires --checkpoint-dir");
        usage();
    }
    if args.verify && args.adapt {
        eprintln!("hpfrun: --verify runs the static pipeline; adaptive remaps are exercised without it (the controller's equivalence is pinned by the test suite)");
        usage();
    }
    if args.verify && (args.resume || args.checkpoint_dir.is_some()) {
        eprintln!("hpfrun: --verify compares against the dense oracle of the *initial* values; it cannot be combined with --checkpoint-dir/--resume");
        usage();
    }
    if !inject.is_empty() {
        let plan = FaultPlan::parse(&inject.join("; ")).unwrap_or_else(|e| {
            eprintln!("hpfrun: bad --inject spec: {e}");
            usage()
        });
        for fault in plan.faults() {
            let ranks = match *fault {
                Fault::KillWorker { rank, .. } | Fault::PoisonPool { rank, .. } => [rank, rank],
                Fault::DropMessage { sender, receiver, .. }
                | Fault::CorruptMessage { sender, receiver, .. }
                | Fault::DelayMessage { sender, receiver, .. } => [sender, receiver],
            };
            if ranks.iter().any(|&r| r as usize >= args.np) {
                eprintln!("hpfrun: --inject fault `{fault}` names a rank outside 0..{}", args.np);
                usage();
            }
        }
        args.faults = Some(plan);
    }
    args
}

fn main() -> ExitCode {
    let out = ToolOutput("hpfrun");
    let mut args = parse_args();
    let src = match std::fs::read_to_string(&args.file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("hpfrun: cannot read {}: {e}", args.file);
            return ExitCode::FAILURE;
        }
    };

    // Front half: elaborate with recovery, then lower — accumulate every
    // diagnostic from both layers before giving up.
    let mut elab = Elaborator::new(args.np);
    for (k, v) in &args.sets {
        elab = elab.with_input(k, *v);
    }
    let (elaboration, mut diags) = elab.run_recover(&src);
    let (mut lowered, lower_diags) = Lowerer::lower(&elaboration);
    diags.extend(lower_diags);
    if !diags.is_empty() {
        eprint!("{}", render_diagnostics(&src, &diags));
        return ExitCode::FAILURE;
    }

    writeln!(out,
        "— lowered {}: {} array(s), {} statement(s), {} abstract processors —",
        args.file,
        lowered.names.len(),
        lowered.statements.len(),
        args.np
    );

    // Fault tolerance knobs: armed before anything executes.
    if let Some(plan) = args.faults.take() {
        lowered.program.inject_faults(plan);
    }
    if let Some(ms) = args.step_timeout_ms {
        lowered.program.set_exchange_timeout(Duration::from_millis(ms));
    }

    // Back half: verify (static plans + dense oracle) or just run.
    if args.verify {
        let report = match lowered.program.verify_all() {
            Ok(report) => report,
            Err(e) => {
                eprintln!("hpfrun: verification failed to compile plans: {e}");
                return ExitCode::FAILURE;
            }
        };
        write!(out, "{report}");
        if !report.is_clean() {
            eprintln!("hpfrun: {} finding(s) — plans are NOT proven safe", report.finding_count());
            return ExitCode::FAILURE;
        }
        writeln!(out,
            "verified: {} statement plan(s) and the timestep plan ({} superstep(s), \
             {} message(s)) proven safe before execution",
            report.statements.len(),
            report.timestep.supersteps,
            report.timestep.pairs
        );
        if let Err(msg) = lowered.run_verified(args.steps, args.backend) {
            eprintln!("hpfrun: {msg}");
            return ExitCode::FAILURE;
        }
        writeln!(out,
            "verified: {} timestep(s) on {} match the dense oracle",
            args.steps,
            args.backend
        );
    } else {
        // Everything else is one Session: backend, thread bound,
        // checkpoint cadence + recovery, and adaptive redistribution.
        let mut session = Session::new(lowered.program).backend(args.backend);
        if args.threads > 1 && args.backend == Backend::SharedMem {
            session = session.threads(args.threads);
        }
        if args.adapt {
            session = session.adapt(AdaptPolicy::default());
        }
        let mut start = 0u64;
        if let Some(dir) = &args.checkpoint_dir {
            if args.resume {
                match session.program_mut().restore_latest(Path::new(dir)) {
                    Ok(r) => {
                        for (snapshot, why) in &r.skipped {
                            eprintln!("hpfrun: skipped checkpoint {}: {why}", snapshot.display());
                        }
                        writeln!(out,
                            "resumed from checkpoint at timestep {} ({} array(s), {})",
                            r.timestep,
                            r.arrays,
                            if r.remapped > 0 {
                                "scattered into the current distribution"
                            } else {
                                "fast path"
                            }
                        );
                        start = r.timestep;
                    }
                    Err(e) => {
                        eprintln!("hpfrun: resume failed: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            session = session.checkpoint(CheckpointSpec::new(dir, args.checkpoint_every));
        }
        let remaining = (args.steps as u64).saturating_sub(start);
        match session.run(remaining) {
            Ok(rep) => {
                write!(out,
                    "ran {} timestep(s) on {}",
                    rep.timesteps,
                    rep.final_backend
                );
                if args.checkpoint_dir.is_some() {
                    write!(out, " — {} checkpoint(s) written", rep.checkpoints);
                }
                if rep.failures > 0 {
                    write!(out,
                        ", {} fault(s) survived, {} timestep(s) replayed",
                        rep.failures, rep.replayed
                    );
                }
                if rep.degraded {
                    write!(out, ", degraded to shared-mem");
                }
                writeln!(out);
            }
            Err(e) => {
                eprintln!("hpfrun: execution failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        if args.adapt {
            if let Some(rep) = session.adapt_report() {
                writeln!(out,
                    "adaptive: {} remap(s), {} element(s) moved, last imbalance {:.2}",
                    rep.remaps, rep.remap_elements, rep.last_imbalance
                );
                for e in &rep.events {
                    writeln!(out,
                        "  t={}: {} -> {} (imbalance {:.2}, stay {:.1}us vs move {:.1}us+{:.1}us, predicted gain {:.1}us)",
                        e.timestep,
                        e.arrays.join(","),
                        e.candidate,
                        e.observed_imbalance,
                        e.cost_stay,
                        e.cost_candidate,
                        e.remap_cost,
                        e.predicted_gain
                    );
                }
            }
        }
        lowered.program = session.into_program();
    }

    // Result digest: one line per array so runs are comparable.
    for (k, name) in lowered.names.iter().enumerate() {
        let dense = lowered.program.arrays[k].to_dense();
        let sum: f64 = dense.iter().sum();
        writeln!(out, "  {name}: {} element(s), sum {sum}", dense.len());
    }

    if args.stats {
        let fs = lowered.program.fusion_stats();
        writeln!(out, "— statistics —");
        writeln!(out,
            "  plan cache: {} hit(s), {} miss(es)",
            lowered.program.cache_hits(),
            lowered.program.cache_misses()
        );
        writeln!(out,
            "  fusion: {} superstep(s), {} message(s) coalesced to {}, \
             {} ghost byte(s) avoided",
            fs.supersteps,
            fs.messages_before,
            fs.messages_after,
            fs.ghost_bytes_avoided()
        );
        let runs = lowered.program.plan_schedule_runs();
        writeln!(out,
            "  schedule: {} run(s), {} byte(s), ×{:.1} compression",
            runs,
            lowered.program.plan_schedule_bytes(),
            lowered.program.plan_schedule_elements() as f64 / runs.max(1) as f64
        );
        writeln!(out,
            "  wire: {} byte(s) sent, {} SPMD worker(s) spawned",
            lowered.program.backend_bytes_sent(),
            lowered.program.spmd_workers_spawned()
        );
    }
    ExitCode::SUCCESS
}
