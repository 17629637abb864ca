//! One workload, one run: the untraced run that yields the end-to-end
//! metrics and the traced run that yields the per-layer ledger.

use crate::gen::{self, ProgramSpec};
use crate::host;
use crate::pipeline::{self, CkptProbe, CoreProbe, FrontendProbe, InspectProbe, Trip};
use crate::reference::{self, Dense};
use crate::stats::{median, median_ns, tail};
use crate::trace::{Ledger, Recorder};
use hpf_runtime::Backend;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// Fixed shape of a workload's run: the seed never changes these.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Warm timesteps after the cold one.
    pub warm_steps: usize,
    /// Repetitions of the whole trip an untraced run makes at least,
    /// over all its shard processes together.
    pub min_reps: usize,
    /// Whether the trip calls `verify_all` before running.
    pub verify: bool,
    /// Warm timesteps of the other-backend comparison.
    pub other_backend_steps: usize,
    /// Every how many programs the checkpoint, core-lookup and CLI
    /// probes run (1 for the single-program workloads).
    pub probe_every: usize,
}

pub fn plan(workload: &str) -> Option<Plan> {
    Some(match workload {
        "stencil2d" => Plan {
            warm_steps: 200,
            min_reps: 3,
            verify: false,
            other_backend_steps: 40,
            probe_every: 1,
        },
        "pingpong" => Plan {
            warm_steps: 150,
            min_reps: 3,
            verify: false,
            other_backend_steps: 40,
            probe_every: 1,
        },
        "smallstep" => Plan {
            warm_steps: 20000,
            min_reps: 3,
            verify: false,
            other_backend_steps: 4000,
            probe_every: 1,
        },
        "corpus" => Plan {
            warm_steps: 3,
            min_reps: 5,
            verify: true,
            other_backend_steps: 3,
            probe_every: 32,
        },
        _ => return None,
    })
}

/// Untraced runs stop repeating once this much wall time is spent, even
/// if `--seconds` asks for more: a run must end well inside the driver's
/// 180-second limit.
const MAX_RUN_WALL_S: f64 = 60.0;

pub struct Settings {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    /// Trips this process makes at least (untraced runs).
    pub min_reps: usize,
    /// Where sources, traces and checkpoints go.
    pub out_dir: PathBuf,
    /// The built `hpfrun` binary (traced runs cross-check against it).
    pub hpfrun: PathBuf,
}

/// What one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample counts and context printed beside the metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    fn op(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            eprintln!("FAILED {what}: {why}");
        }
    }
}

/// The reference side of a workload: the expected final state of every
/// program, and the step times of the hand-written (or generic dense)
/// loop over the whole workload, sampled at several moments of the run.
struct Reference {
    want: Vec<Dense>,
    step_samples: Vec<u64>,
}

impl Reference {
    fn new(programs: &[ProgramSpec], plan: &Plan) -> Self {
        let passes = if programs.len() > 1 { 5 } else { 1 };
        let (want, step_samples) = reference::run(programs, plan.warm_steps + 1, passes);
        Reference { want, step_samples }
    }

    /// Time the reference again on freshly allocated arrays.
    fn resample(&mut self, programs: &[ProgramSpec], plan: &Plan) {
        let steps = (plan.warm_steps + 1).min(24);
        self.step_samples
            .extend(reference::run(programs, steps, 4).1);
    }

    fn step_ns(&self) -> f64 {
        median_ns(&self.step_samples)
    }
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn secs(ns: f64) -> f64 {
    ns / 1e9
}

/// The untraced run: repeated source-to-digest trips, tracing off.
pub fn run_untraced(settings: &Settings) -> Result<Outcome, String> {
    let plan = plan(&settings.workload).ok_or("unknown workload")?;
    let programs = gen::programs(&settings.workload, settings.seed).ok_or("unknown workload")?;
    let mut reference = Reference::new(&programs, &plan);
    let mut out = Outcome::default();

    let started = Instant::now();
    let mut rec = Recorder::new(false);
    let mut rep_setup = Vec::new();
    let mut rep_total = Vec::new();
    let mut warm: Vec<Vec<u64>> = vec![Vec::new(); programs.len()];
    let mut measured_s = 0.0;
    while rep_total.len() < settings.min_reps
        || (measured_s < settings.seconds && started.elapsed().as_secs_f64() < MAX_RUN_WALL_S)
    {
        let (mut setup, mut total) = (0u64, 0u64);
        for (k, spec) in programs.iter().enumerate() {
            let result = pipeline::trip(
                spec,
                spec.backend,
                plan.warm_steps,
                plan.verify,
                &reference.want[k],
                &mut rec,
            );
            let what = format!("{} rep {}", spec.name, rep_total.len());
            out.op(
                &what,
                result.map(|t| {
                    setup += t.setup_ns;
                    total += t.total_ns;
                    warm[k].extend(t.warm_ns);
                }),
            );
        }
        rep_setup.push(setup as f64);
        rep_total.push(total as f64);
        measured_s += secs(total as f64);
        reference.resample(&programs, &plan);
    }
    let peak_rss_mb = host::peak_rss_mb();

    let warm_step_ns: f64 = warm.iter().map(|w| median_ns(w)).sum();
    let reference_step_ns = reference.step_ns();
    out.metrics.insert("setup_s", secs(median(&rep_setup)));
    out.metrics.insert("warm_step_ms", ms(warm_step_ns));
    out.metrics
        .insert("time_to_result_s", secs(median(&rep_total)));
    out.metrics
        .insert("handwritten_ratio", reference_step_ns / warm_step_ns);
    out.metrics.insert("peak_rss_mb", peak_rss_mb);

    let pooled: Vec<f64> = warm.iter().flatten().map(|&v| ms(v as f64)).collect();
    out.notes.push(format!(
        "{} repetition(s) of {} program(s); warm_step_ms pools {} samples{}",
        rep_total.len(),
        programs.len(),
        pooled.len(),
        match tail(&pooled) {
            Some((pct, v)) => format!(", p{pct} of a single step {v:.4} ms"),
            None => String::new(),
        }
    ));
    out.notes.push(format!(
        "reference step {:.4} ms over the same statements; failed_ops {} of {} ops_attempted",
        ms(reference_step_ns),
        out.failed,
        out.attempted
    ));
    Ok(out)
}

/// Median nanoseconds of one `copy_from_slice` over `elements` doubles.
fn copy_step_ns(elements: usize) -> f64 {
    let src = vec![1.0f64; elements];
    let mut dst = vec![0.0f64; elements];
    let samples: Vec<u64> = (0..101)
        .map(|_| {
            let t = Instant::now();
            dst.copy_from_slice(std::hint::black_box(&src));
            std::hint::black_box(&mut dst);
            t.elapsed().as_nanos() as u64
        })
        .collect();
    median_ns(&samples)
}

/// Run the built `hpfrun` on the generated source with the same
/// processor count, backend and step count as the in-process trip and
/// require the same digest lines. Returns its wall time in seconds.
fn cli_check(
    settings: &Settings,
    spec: &ProgramSpec,
    steps: usize,
    digest: &[String],
) -> Result<f64, String> {
    let file = if spec.name == settings.workload {
        format!("{}-{}.hpf", settings.workload, settings.seed)
    } else {
        format!("{}-{}-{}.hpf", settings.workload, settings.seed, spec.name)
    };
    let path = settings.out_dir.join(file);
    std::fs::write(&path, &spec.source)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let t = Instant::now();
    let output = Command::new(&settings.hpfrun)
        .arg(&path)
        .args(["--np", &spec.np.to_string()])
        .args(["--backend", gen::backend_name(spec.backend)])
        .args(["--steps", &steps.to_string()])
        .output()
        .map_err(|e| format!("cannot run {}: {e}", settings.hpfrun.display()))?;
    let wall_s = t.elapsed().as_secs_f64();
    if spec.name != settings.workload {
        // the runtime workloads' sources stay for inspection; a corpus
        // sample per seed would only pile up
        let _ = std::fs::remove_file(&path);
    }
    if !output.status.success() {
        return Err(format!(
            "hpfrun exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let lines: Vec<&str> = stdout
        .lines()
        .filter(|l| l.contains(" element(s), sum "))
        .collect();
    if lines != digest {
        return Err(format!(
            "hpfrun digest {lines:?} differs from the in-process digest {digest:?}"
        ));
    }
    Ok(wall_s)
}

/// Everything the traced run learnt about one program.
struct Sample {
    trip: TripTimes,
    frontend: FrontendProbe,
    inspect: InspectProbe,
    verify_warm_ns: u64,
    verify_unclean: u64,
    plans: usize,
    other_backend_ns: f64,
    ckpt: CkptProbe,
    core: CoreProbe,
}

/// The numbers of a [`Trip`] that outlive its lowered program.
struct TripTimes {
    setup_ns: u64,
    warm_ns: Vec<u64>,
    gather_ns: u64,
    total_ns: u64,
    counters: pipeline::Counters,
}

impl From<Trip> for TripTimes {
    fn from(t: Trip) -> Self {
        TripTimes {
            setup_ns: t.setup_ns,
            warm_ns: t.warm_ns,
            gather_ns: t.gather_ns,
            total_ns: t.total_ns,
            counters: t.counters,
        }
    }
}

/// The traced run: one traced trip with the post-trip probes, the
/// other-backend comparison, the checkpoint round trip and the `hpfrun`
/// cross-check, between two untraced trips (warm-up and the
/// tracing-overhead baseline).
pub fn run_traced(settings: &Settings) -> Result<Outcome, String> {
    let plan = plan(&settings.workload).ok_or("unknown workload")?;
    let programs = gen::programs(&settings.workload, settings.seed).ok_or("unknown workload")?;
    let reference = Reference::new(&programs, &plan);
    let mut out = Outcome::default();

    // tracing off, once before and once after the traced trip. The first
    // trip of a process also pays for fresh pages, so only the second is
    // the baseline the traced trip is compared against.
    let mut off = Recorder::new(false);
    let mut untraced = |out: &mut Outcome, label: &str| {
        let mut total_ns = 0u64;
        for (k, spec) in programs.iter().enumerate() {
            let result = pipeline::trip(
                spec,
                spec.backend,
                plan.warm_steps,
                plan.verify,
                &reference.want[k],
                &mut off,
            );
            out.op(
                &format!("{} {label}", spec.name),
                result.map(|t| total_ns += t.total_ns),
            );
        }
        total_ns
    };
    untraced(&mut out, "untraced warm-up");

    let mut rec = Recorder::new(true);
    rec.rep = 1;
    let mut samples: Vec<Sample> = Vec::with_capacity(programs.len());
    let (mut cli_wall_s, mut cli_inprocess_s) = (0.0, 0.0);
    for (k, spec) in programs.iter().enumerate() {
        rec.program = k as u32;
        let want = &reference.want[k];
        let mut trip = match pipeline::trip(
            spec,
            spec.backend,
            plan.warm_steps,
            plan.verify,
            want,
            &mut rec,
        ) {
            Ok(t) => {
                out.op(&format!("{} traced", spec.name), Ok(()));
                t
            }
            Err(why) => {
                out.op(&format!("{} traced", spec.name), Err(why));
                continue;
            }
        };
        let frontend = pipeline::probe_frontend(&spec.source);
        let parse = rec.attribute(trip.elaborate_span, "parse", frontend.parse_ns);
        rec.attribute(parse, "lex", frontend.lex_ns);
        let inspect = pipeline::probe_inspect(&trip.lowered).unwrap_or_else(|why| {
            out.op(&format!("{} inspect probe", spec.name), Err(why));
            InspectProbe::default()
        });
        rec.attribute(trip.compile_span, "inspect", inspect.inspect_ns);
        let (verify_warm_ns, clean) =
            pipeline::probe_verify(&mut trip.lowered).unwrap_or_else(|why| {
                out.op(&format!("{} verify probe", spec.name), Err(why));
                (0, false)
            });
        let other_backend_ns = pipeline::warm_step_on(
            spec,
            gen::other_backend(spec.backend),
            plan.other_backend_steps,
        )
        .unwrap_or_else(|why| {
            out.op(&format!("{} on the other backend", spec.name), Err(why));
            f64::NAN
        });

        let (mut ckpt, mut core) = (CkptProbe::default(), CoreProbe::default());
        if k % plan.probe_every == 0 {
            core = pipeline::probe_core(spec, &trip.lowered, settings.seed, 1 << 16);
            let dir = settings.out_dir.join(format!("ckpt-{}", settings.workload));
            let result = rec.span("ckpt", || {
                pipeline::probe_ckpt(spec, &mut trip.lowered, want, &dir)
            });
            out.op(
                &format!("{} checkpoint round trip", spec.name),
                result.map(|c| ckpt = c),
            );
            let cli = cli_check(settings, spec, plan.warm_steps + 1, &trip.digest);
            out.op(
                &format!("{} hpfrun cross-check", spec.name),
                cli.map(|wall_s| {
                    cli_wall_s += wall_s;
                    cli_inprocess_s += secs(trip.total_ns as f64);
                }),
            );
        }
        samples.push(Sample {
            plans: trip.lowered.statements.len(),
            trip: trip.into(),
            frontend,
            inspect,
            verify_warm_ns,
            verify_unclean: u64::from(!clean),
            other_backend_ns,
            ckpt,
            core,
        });
    }

    let untraced_total_ns = untraced(&mut out, "untraced baseline");

    // ---- the ledger: parts against wholes, from the recorder
    let self_s = |name: &str| secs(rec.self_total_ns(name, 1) as f64);
    let sum = |f: &dyn Fn(&Sample) -> f64| samples.iter().map(f).sum::<f64>();
    let setup_s = secs(sum(&|s| s.trip.setup_ns as f64));
    let warm_total_s = secs(rec.total_ns("warm_step", 1) as f64);
    let gather_s = secs(rec.total_ns("gather", 1) as f64);
    let time_to_result_s = secs(sum(&|s| s.trip.total_ns as f64));
    let ledger = Ledger {
        setup_parts_s: [
            "lex",
            "parse",
            "elaborate",
            "lower",
            "verify",
            "inspect",
            "cold_step",
        ]
        .iter()
        .map(|n| self_s(n))
        .sum(),
        setup_s,
        trip_parts_s: setup_s + warm_total_s + gather_s,
        time_to_result_s,
    };
    out.op("ledger", ledger.check());

    let trace_path = settings
        .out_dir
        .join(format!("trace-{}.jsonl", settings.workload));
    std::fs::File::create(&trace_path)
        .and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            rec.write_jsonl(&settings.workload, &mut w)?;
            std::io::Write::flush(&mut w)
        })
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;

    // ---- per-layer metrics
    let m = &mut out.metrics;
    let src_bytes: usize = programs.iter().map(|p| p.source.len()).sum();
    let fill_elems: usize = programs.iter().map(ProgramSpec::fill_elements).sum();
    let step_elems: usize = programs.iter().map(ProgramSpec::step_elements).sum();
    let array_elems: usize = programs.iter().map(|p| p.array_elements()).sum();
    let warm = plan.warm_steps as f64;

    m.insert("lex.us", self_s("lex") * 1e6);
    m.insert("lex.mb_per_s", src_bytes as f64 / 1e6 / self_s("lex"));
    m.insert("lex.tokens", sum(&|s| s.frontend.tokens as f64));
    m.insert("parse.us", self_s("parse") * 1e6);
    m.insert("parse.items", sum(&|s| s.frontend.items as f64));
    m.insert("elaborate.s", self_s("elaborate"));
    m.insert(
        "elaborate.fill_melem_per_s",
        fill_elems as f64 / 1e6 / self_s("elaborate"),
    );
    m.insert("lower.s", self_s("lower"));
    m.insert(
        "lower.melem_per_s",
        fill_elems as f64 / 1e6 / self_s("lower"),
    );
    m.insert("inspect.s", self_s("inspect"));
    m.insert(
        "inspect.melem_per_s",
        sum(&|s| s.inspect.schedule_elements as f64) / 1e6 / self_s("inspect"),
    );
    let schedule_bytes = sum(&|s| s.inspect.schedule_bytes as f64);
    m.insert("inspect.schedule_bytes", schedule_bytes);
    m.insert(
        "inspect.compression_ratio",
        sum(&|s| s.inspect.uncompressed_bytes) / schedule_bytes,
    );
    m.insert("fuse.cold_rest_s", self_s("cold_step"));
    m.insert(
        "fuse.supersteps",
        sum(&|s| s.trip.counters.supersteps as f64),
    );
    m.insert(
        "fuse.messages_before",
        sum(&|s| s.trip.counters.messages_before as f64),
    );
    m.insert(
        "fuse.messages_after",
        sum(&|s| s.trip.counters.messages_after as f64),
    );
    m.insert("verify.s", secs(sum(&|s| s.verify_warm_ns as f64)));
    m.insert("verify.plans", sum(&|s| s.plans as f64));
    m.insert("verify.diagnostics", sum(&|s| s.verify_unclean as f64));

    let step_ns = sum(&|s| median_ns(&s.trip.warm_ns));
    let compute_ns = sum(&|s| median_ns(&s.trip.counters.compute_ns));
    let noncompute_ns = step_ns - compute_ns;
    let pooled: Vec<f64> = samples
        .iter()
        .flat_map(|s| &s.trip.warm_ns)
        .map(|&v| ms(v as f64))
        .collect();
    let (tail_pct, tail_ms) =
        tail(&pooled).unwrap_or((100.0, pooled.iter().copied().fold(f64::NAN, f64::max)));
    let copy_ns = copy_step_ns(step_elems);
    m.insert("replay.step_ms", ms(step_ns));
    m.insert("replay.step_tail_ms", tail_ms);
    m.insert("replay.step_tail_pct", tail_pct);
    m.insert(
        "replay.melem_per_s",
        step_elems as f64 / 1e6 / secs(step_ns),
    );
    m.insert("replay.compute_ms", ms(compute_ns));
    m.insert("replay.noncompute_share", noncompute_ns / step_ns);
    m.insert(
        "replay.cache_misses_warm",
        sum(&|s| s.trip.counters.cache_misses_warm as f64),
    );
    m.insert("replay.roofline_frac", copy_ns / step_ns);

    let bytes_per_step = sum(&|s| s.trip.counters.warm_bytes_sent as f64) / warm;
    let supersteps = sum(&|s| s.trip.counters.supersteps as f64);
    m.insert("exchange.bytes_per_step", bytes_per_step);
    m.insert(
        "exchange.messages_per_step",
        sum(&|s| s.trip.counters.messages_after as f64),
    );
    m.insert(
        "exchange.ghost_bytes_avoided_per_step",
        sum(&|s| s.trip.counters.warm_ghost_bytes_avoided as f64) / warm,
    );
    m.insert(
        "exchange.gb_per_s",
        bytes_per_step / 1e9 / secs(noncompute_ns),
    );
    m.insert(
        "exchange.us_per_superstep",
        noncompute_ns / 1e3 / supersteps,
    );
    let other_ns = sum(&|s| s.other_backend_ns);
    m.insert("exchange.other_backend_step_ms", ms(other_ns));
    let on = |b: Backend| -> f64 {
        programs
            .iter()
            .zip(&samples)
            .map(|(p, s)| {
                if p.backend == b {
                    median_ns(&s.trip.warm_ns)
                } else {
                    s.other_backend_ns
                }
            })
            .sum()
    };
    m.insert(
        "exchange.channels_vs_shared",
        on(Backend::SharedMem) / on(Backend::Channels),
    );

    m.insert("gather.to_dense_ms", ms(sum(&|s| s.trip.gather_ns as f64)));
    m.insert("gather.melem_per_s", array_elems as f64 / 1e6 / gather_s);
    m.insert("ckpt.write_ms", ms(sum(&|s| s.ckpt.write_ns as f64)));
    m.insert("ckpt.bytes", sum(&|s| s.ckpt.bytes as f64));
    m.insert(
        "ckpt.restore_same_ms",
        ms(sum(&|s| s.ckpt.restore_same_ns as f64)),
    );
    m.insert(
        "ckpt.restore_cross_ms",
        ms(sum(&|s| s.ckpt.restore_cross_ns as f64)),
    );
    let lookups = sum(&|s| s.core.lookups as f64);
    m.insert(
        "core.owner_lookup_mops",
        lookups * 1e3 / sum(&|s| s.core.owner_ns as f64),
    );
    m.insert(
        "core.local_offset_mops",
        lookups * 1e3 / sum(&|s| s.core.local_offset_ns as f64),
    );

    let reference_ns = reference.step_ns();
    m.insert("reference.step_ms", ms(reference_ns));
    m.insert("reference.copy_step_ms", ms(copy_ns));
    m.insert(
        "reference.memcpy_gb_per_s",
        step_elems as f64 * 8.0 / copy_ns,
    );
    let peak = |f: &dyn Fn(&Sample) -> f64| samples.iter().map(f).fold(0.0, f64::max);
    m.insert(
        "mem.rss_after_lower_mb",
        peak(&|s| s.trip.counters.rss_after_lower_mb),
    );
    m.insert(
        "mem.rss_after_cold_mb",
        peak(&|s| s.trip.counters.rss_after_cold_mb),
    );
    m.insert(
        "trace.overhead_pct",
        (time_to_result_s - secs(untraced_total_ns as f64)) / secs(untraced_total_ns as f64)
            * 100.0,
    );
    m.insert("cli.wall_s", cli_wall_s);
    m.insert(
        "cli.delta_pct",
        (cli_wall_s - cli_inprocess_s) / cli_inprocess_s * 100.0,
    );
    m.insert(
        "ledger.setup_parts_share",
        ledger.setup_parts_s / ledger.setup_s,
    );
    m.insert(
        "ledger.trip_parts_share",
        ledger.trip_parts_s / ledger.time_to_result_s,
    );
    m.insert("ledger.setup_s", setup_s);
    m.insert("ledger.warm_total_s", warm_total_s);
    m.insert("ledger.time_to_result_s", time_to_result_s);

    out.notes.push(format!(
        "{} program(s); arrays {:.2} MiB, {} element(s) stored per step; {} span(s) in {}",
        programs.len(),
        array_elems as f64 * 8.0 / (1 << 20) as f64,
        step_elems,
        rec.spans().len(),
        trace_path.display()
    ));
    out.notes.push(format!(
        "ledger: set-up parts {:.6} s of setup_s {:.6} s; setup + warm + gather {:.6} s of \
         time_to_result_s {:.6} s",
        ledger.setup_parts_s, ledger.setup_s, ledger.trip_parts_s, ledger.time_to_result_s
    ));
    if (cli_wall_s - cli_inprocess_s).abs() > 0.15 * cli_inprocess_s {
        out.notes.push(format!(
            "note: hpfrun took {cli_wall_s:.4} s against {cli_inprocess_s:.4} s in process (more than 15 % apart)"
        ));
    }
    Ok(out)
}

/// The sibling `hpfrun` of this executable, built on first use from the
/// repository's own workspace into the same target directory.
pub fn ensure_hpfrun(target_dir: &Path) -> Result<PathBuf, String> {
    let hpfrun = target_dir.join("release").join("hpfrun");
    if hpfrun.is_file() {
        return Ok(hpfrun);
    }
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("Cargo.toml");
    let status = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "hpf-frontend",
            "--bin",
            "hpfrun",
        ])
        .arg("--manifest-path")
        .arg(&manifest)
        .arg("--target-dir")
        .arg(target_dir)
        // build output must not end up on the result line's stream
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo to build hpfrun: {e}"))?;
    if !status.success() || !hpfrun.is_file() {
        return Err(format!("building hpfrun failed ({status})"));
    }
    Ok(hpfrun)
}
