//! The measured trip — source text in, digest out — and the standalone
//! probes of the layers the trip cannot see into.
//!
//! The trip makes exactly the calls `hpfrun`'s `main` makes
//! (`run_recover → lower → Session::new(..).backend(..).run(..) →
//! to_dense`), with `verify_all` added for the corpus. Everything the
//! harness calls is on the allow-list in `README.md`.

use crate::gen::ProgramSpec;
use crate::host;
use crate::reference::{self, Dense};
use crate::rng::Rng;
use crate::stats;
use crate::trace::Recorder;
use hpf_frontend::{lex_recover, parse_recover, Elaborator, LoweredProgram, Lowerer};
use hpf_index::Idx;
use hpf_runtime::{Backend, ExecPlan, Session};
use std::path::Path;
use std::time::Instant;

fn ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Counters only the traced run reads, taken between spans.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub rss_after_lower_mb: f64,
    pub rss_after_cold_mb: f64,
    pub supersteps: usize,
    pub messages_before: usize,
    pub messages_after: usize,
    /// Critical-path compute time of sampled warm steps.
    pub compute_ns: Vec<u64>,
    pub cache_misses_warm: u64,
    pub warm_bytes_sent: u64,
    pub warm_ghost_bytes_avoided: u64,
}

/// One source-to-digest trip.
#[derive(Debug)]
pub struct Trip {
    /// Source text in memory → end of the first (cold) timestep.
    pub setup_ns: u64,
    /// Each warm `Session::run(1)`.
    pub warm_ns: Vec<u64>,
    /// `to_dense` of every array plus the digest.
    pub gather_ns: u64,
    /// The whole trip.
    pub total_ns: u64,
    /// One line per array, as `hpfrun` prints them.
    pub digest: Vec<String>,
    pub counters: Counters,
    /// Span ids for post-trip attribution (0 when tracing is off).
    pub elaborate_span: u32,
    /// The span inside which plans were first compiled: `verify` when the
    /// trip verifies, the cold step otherwise.
    pub compile_span: u32,
    /// The lowered program after the run (warm plan cache, final data).
    pub lowered: LoweredProgram,
}

/// Critical-path compute time of a timestep: the simulated processors
/// run one after another on `SharedMem`, side by side on `Channels`.
fn critical_path_ns(rank_compute_ns: &[u64], backend: Backend) -> u64 {
    match backend {
        Backend::SharedMem => rank_compute_ns.iter().sum(),
        Backend::Channels => rank_compute_ns.iter().copied().max().unwrap_or(0),
    }
}

/// The final arrays in the order of `spec.arrays`.
fn gather_in_spec_order(
    spec: &ProgramSpec,
    lowered: &LoweredProgram,
    mut got: Dense,
) -> Result<Dense, String> {
    spec.arrays
        .iter()
        .map(|a| {
            let k = lowered
                .names
                .iter()
                .position(|n| *n == a.name)
                .ok_or_else(|| format!("array {} was not lowered", a.name))?;
            Ok(std::mem::take(&mut got[k]))
        })
        .collect()
}

/// Take `spec` from source text to digest on `backend`, `warm_steps`
/// timesteps after the cold one, and compare every final array bit for
/// bit with `want`. With an enabled recorder each call into a layer is a
/// span and the between-span counters are taken.
pub fn trip(
    spec: &ProgramSpec,
    backend: Backend,
    warm_steps: usize,
    verify: bool,
    want: &Dense,
    rec: &mut Recorder,
) -> Result<Trip, String> {
    let traced = rec.enabled();
    let mut counters = Counters::default();
    let root = rec.enter("program");
    let fail = |rec: &mut Recorder, why: String| {
        rec.close_through(root);
        Err(why)
    };

    let t0 = Instant::now();
    let elaborate_span = rec.enter("elaborate");
    let (elaboration, mut diags) = Elaborator::new(spec.np).run_recover(&spec.source);
    rec.exit(elaborate_span);
    let lower_span = rec.enter("lower");
    let (mut lowered, lower_diags) = Lowerer::lower(&elaboration);
    rec.exit(lower_span);
    diags.extend(lower_diags);
    if let Some(first) = diags.first() {
        return fail(
            rec,
            format!("{} diagnostic(s), first: {first}", diags.len()),
        );
    }
    if traced {
        counters.rss_after_lower_mb = host::rss_mb();
    }

    let mut compile_span = 0;
    if verify {
        compile_span = rec.enter("verify");
        let report = lowered.program.verify_all();
        rec.exit(compile_span);
        match report {
            Ok(r) if r.is_clean() => {}
            Ok(_) => return fail(rec, "verify_all refuted a compiled plan".into()),
            Err(e) => return fail(rec, format!("verify_all could not compile a plan: {e}")),
        }
    }

    let cold_span = rec.enter("cold_step");
    let mut session = Session::new(lowered.program).backend(backend);
    let cold = session.run(1);
    rec.exit(cold_span);
    let setup_ns = ns(t0);
    if let Err(e) = cold {
        return fail(rec, format!("cold timestep failed: {e}"));
    }
    if !verify {
        compile_span = cold_span;
    }
    let before = traced.then(|| {
        counters.rss_after_cold_mb = host::rss_mb();
        let fusion = session.program().fusion_stats();
        counters.supersteps = fusion.supersteps;
        counters.messages_before = fusion.messages_before;
        counters.messages_after = fusion.messages_after;
        (session.program().stats(), fusion)
    });

    let mut warm_ns = Vec::with_capacity(warm_steps);
    let sample_every = (warm_steps / 256).max(1);
    for k in 0..warm_steps {
        let span = rec.enter("warm_step");
        let t = Instant::now();
        let step = session.run(1);
        let dt = ns(t);
        rec.exit(span);
        if let Err(e) = step {
            return fail(rec, format!("warm timestep {} failed: {e}", k + 1));
        }
        warm_ns.push(dt);
        if traced && k % sample_every == 0 {
            let stats = session.program().stats();
            counters
                .compute_ns
                .push(critical_path_ns(&stats.rank_compute_ns, backend));
        }
    }
    if let Some((stats0, fusion0)) = before {
        let stats1 = session.program().stats();
        let fusion1 = session.program().fusion_stats();
        counters.cache_misses_warm = stats1.cache_misses - stats0.cache_misses;
        counters.warm_bytes_sent = stats1.bytes_sent - stats0.bytes_sent;
        counters.warm_ghost_bytes_avoided =
            fusion1.ghost_bytes_avoided() - fusion0.ghost_bytes_avoided();
    }

    let gather_span = rec.enter("gather");
    let tg = Instant::now();
    lowered.program = session.into_program();
    let mut got: Dense = Vec::with_capacity(lowered.names.len());
    let mut digest = Vec::with_capacity(lowered.names.len());
    for (k, name) in lowered.names.iter().enumerate() {
        let dense = lowered.program.arrays[k].to_dense();
        let sum: f64 = dense.iter().sum();
        digest.push(format!("  {name}: {} element(s), sum {sum}", dense.len()));
        got.push(dense);
    }
    let gather_ns = ns(tg);
    rec.exit(gather_span);
    let total_ns = ns(t0);
    rec.exit(root);

    // the clock has stopped: the rest is the harness checking the answer
    let got = gather_in_spec_order(spec, &lowered, got)?;
    if let Some(diff) = reference::first_mismatch(spec, want, &got) {
        return Err(format!("result differs from the reference — {diff}"));
    }
    Ok(Trip {
        setup_ns,
        warm_ns,
        gather_ns,
        total_ns,
        digest,
        counters,
        elaborate_span,
        compile_span,
        lowered,
    })
}

/// Bring `spec` up on `backend` without timing anything and return the
/// median wall time of `warm_steps` warm timesteps.
pub fn warm_step_on(
    spec: &ProgramSpec,
    backend: Backend,
    warm_steps: usize,
) -> Result<f64, String> {
    let (elaboration, mut diags) = Elaborator::new(spec.np).run_recover(&spec.source);
    let (lowered, lower_diags) = Lowerer::lower(&elaboration);
    diags.extend(lower_diags);
    if let Some(first) = diags.first() {
        return Err(format!("{} diagnostic(s), first: {first}", diags.len()));
    }
    let mut session = Session::new(lowered.program).backend(backend);
    session
        .run(1)
        .map_err(|e| format!("cold timestep failed: {e}"))?;
    let mut warm = Vec::with_capacity(warm_steps);
    for _ in 0..warm_steps {
        let t = Instant::now();
        session
            .run(1)
            .map_err(|e| format!("warm timestep failed: {e}"))?;
        warm.push(ns(t));
    }
    Ok(stats::median_ns(&warm))
}

// ------------------------------------------------------ standalone probes

/// Median wall nanoseconds of `f` over five calls.
fn median_of_five<T>(mut f: impl FnMut() -> T) -> (u64, T) {
    let mut times = Vec::with_capacity(5);
    let mut last = None;
    for _ in 0..5 {
        let t = Instant::now();
        let out = std::hint::black_box(f());
        times.push(ns(t));
        last = Some(out);
    }
    (
        stats::median_ns(&times) as u64,
        last.expect("five calls were made"),
    )
}

#[derive(Debug, Clone, Copy, Default)]
pub struct FrontendProbe {
    pub lex_ns: u64,
    pub tokens: usize,
    /// `parse_recover`, which lexes first.
    pub parse_ns: u64,
    pub items: usize,
}

/// Standalone `lex_recover` and `parse_recover` over `source`.
pub fn probe_frontend(source: &str) -> FrontendProbe {
    let (lex_ns, tokens) = median_of_five(|| lex_recover(source).0.len());
    let (parse_ns, items) = median_of_five(|| {
        let (file, _) = parse_recover(source);
        file.main.stmts.len()
            + file
                .subroutines
                .iter()
                .map(|u| u.stmts.len())
                .sum::<usize>()
    });
    FrontendProbe {
        lex_ns,
        tokens,
        parse_ns,
        items,
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct InspectProbe {
    pub inspect_ns: u64,
    pub schedule_bytes: usize,
    pub schedule_elements: usize,
    /// Σ `compression_ratio · schedule_bytes` — what the schedules would
    /// weigh uncompressed.
    pub uncompressed_bytes: f64,
}

/// Standalone `ExecPlan::inspect` over every statement of a lowered
/// program (inspection depends on mappings, not on values, so running it
/// after the trip measures the same work the cold step did).
pub fn probe_inspect(lowered: &LoweredProgram) -> Result<InspectProbe, String> {
    let mut probe = InspectProbe::default();
    for stmt in &lowered.statements {
        let t = Instant::now();
        let plan = ExecPlan::inspect(&lowered.program.arrays, stmt);
        probe.inspect_ns += ns(t);
        let plan = plan.map_err(|e| format!("inspect failed: {e}"))?;
        probe.schedule_bytes += plan.schedule_bytes();
        probe.schedule_elements += plan.schedule_elements();
        probe.uncompressed_bytes += plan.compression_ratio() * plan.schedule_bytes() as f64;
    }
    Ok(probe)
}

/// `verify_all` on the warm plan cache: verification alone, no
/// inspection. Returns wall nanoseconds and whether the report was clean.
pub fn probe_verify(lowered: &mut LoweredProgram) -> Result<(u64, bool), String> {
    let t = Instant::now();
    let report = lowered.program.verify_all();
    let dt = ns(t);
    let report = report.map_err(|e| format!("verify_all could not compile a plan: {e}"))?;
    Ok((dt, report.is_clean()))
}

#[derive(Debug, Clone, Copy, Default)]
pub struct CkptProbe {
    pub write_ns: u64,
    pub bytes: u64,
    pub restore_same_ns: u64,
    pub restore_cross_ns: u64,
}

/// Checkpoint the finished program into `dir`, restore it into itself
/// (same distribution), then into a freshly lowered `CYCLIC`, two
/// processor variant (cross distribution); both restores must reproduce
/// `want` bit for bit. `dir` is created and removed here.
pub fn probe_ckpt(
    spec: &ProgramSpec,
    lowered: &mut LoweredProgram,
    want: &Dense,
    dir: &Path,
) -> Result<CkptProbe, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let outcome = (|| {
        let t = Instant::now();
        let written = lowered
            .program
            .checkpoint(dir, 1)
            .map_err(|e| format!("checkpoint failed: {e}"))?;
        let write_ns = ns(t);

        let t = Instant::now();
        lowered
            .program
            .restore_latest(dir)
            .map_err(|e| format!("same-distribution restore failed: {e}"))?;
        let restore_same_ns = ns(t);
        check_restored(spec, lowered, want, "same-distribution")?;

        let (elaboration, mut diags) = Elaborator::new(2).run_recover(&spec.cross_source);
        let (mut cross, lower_diags) = Lowerer::lower(&elaboration);
        diags.extend(lower_diags);
        if let Some(first) = diags.first() {
            return Err(format!(
                "cross variant: {} diagnostic(s), first: {first}",
                diags.len()
            ));
        }
        let t = Instant::now();
        cross
            .program
            .restore_latest(dir)
            .map_err(|e| format!("cross-distribution restore failed: {e}"))?;
        let restore_cross_ns = ns(t);
        check_restored(spec, &cross, want, "cross-distribution")?;
        Ok(CkptProbe {
            write_ns,
            bytes: written.bytes,
            restore_same_ns,
            restore_cross_ns,
        })
    })();
    let _ = std::fs::remove_dir_all(dir);
    outcome
}

fn check_restored(
    spec: &ProgramSpec,
    lowered: &LoweredProgram,
    want: &Dense,
    which: &str,
) -> Result<(), String> {
    let got: Dense = lowered
        .program
        .arrays
        .iter()
        .map(|a| a.to_dense())
        .collect();
    let got = gather_in_spec_order(spec, lowered, got)?;
    match reference::first_mismatch(spec, want, &got) {
        Some(diff) => Err(format!(
            "{which} restore differs from the reference — {diff}"
        )),
        None => Ok(()),
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct CoreProbe {
    pub lookups: u64,
    pub owner_ns: u64,
    pub local_offset_ns: u64,
}

/// `EffectiveDist::owner` and `DistArray::local_offset` at seeded random
/// indices of the program's own arrays — the two per-element calls that
/// inspection and lowering are made of.
pub fn probe_core(
    spec: &ProgramSpec,
    lowered: &LoweredProgram,
    seed: u64,
    lookups_per_array: usize,
) -> CoreProbe {
    let mut rng = Rng::fork(seed, 77);
    let mut probe = CoreProbe::default();
    for (array, name) in lowered.program.arrays.iter().zip(&lowered.names) {
        let Some(decl) = spec.arrays.iter().find(|a| a.name == *name) else {
            continue;
        };
        let indices: Vec<Idx> = (0..lookups_per_array)
            .map(|_| {
                let at: Vec<i64> = decl
                    .dims
                    .iter()
                    .map(|&(lo, hi)| rng.range(lo, hi))
                    .collect();
                Idx::new(&at).expect("rank of a generated array is at most 2")
            })
            .collect();
        let mapping = array.mapping();
        let t = Instant::now();
        let owners: Vec<_> = indices.iter().map(|i| mapping.owner(i)).collect();
        probe.owner_ns += ns(t);
        let t = Instant::now();
        let mut found = 0usize;
        for (i, &p) in indices.iter().zip(&owners) {
            found += usize::from(array.local_offset(p, i).is_some());
        }
        probe.local_offset_ns += ns(t);
        assert_eq!(
            std::hint::black_box(found),
            indices.len(),
            "an owner holds its element"
        );
        probe.lookups += indices.len() as u64;
    }
    probe
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    /// Every program of the corpus must be a valid input: it elaborates
    /// and lowers without a single diagnostic, and lowers exactly the
    /// arrays the harness's description says it declares.
    #[test]
    fn every_corpus_program_elaborates_and_lowers_cleanly_for_seeds_1_to_5() {
        for seed in 1..=5 {
            for spec in gen::corpus(seed) {
                let (elaboration, mut diags) = Elaborator::new(spec.np).run_recover(&spec.source);
                let (lowered, lower_diags) = Lowerer::lower(&elaboration);
                diags.extend(lower_diags);
                assert!(
                    diags.is_empty(),
                    "seed {seed} {}: {}\n{}",
                    spec.name,
                    diags[0],
                    spec.source
                );
                let mut names: Vec<&str> = spec.arrays.iter().map(|a| a.name.as_str()).collect();
                let mut lowered_names: Vec<&str> =
                    lowered.names.iter().map(String::as_str).collect();
                names.sort_unstable();
                lowered_names.sort_unstable();
                assert_eq!(names, lowered_names, "seed {seed} {}", spec.name);
                assert_eq!(
                    lowered.statements.len(),
                    spec.stmts.len(),
                    "seed {seed} {}",
                    spec.name
                );

                let (cross, cross_diags) = Elaborator::new(2).run_recover(&spec.cross_source);
                let (_, cross_lower_diags) = Lowerer::lower(&cross);
                assert!(
                    cross_diags.is_empty() && cross_lower_diags.is_empty(),
                    "{}",
                    spec.cross_source
                );
            }
        }
    }

    /// The gate passes a right answer on both backends and refuses a
    /// wrong one: the trip compares against the reference it is given.
    #[test]
    fn the_trip_checks_its_answer_against_the_reference() {
        let spec = gen::stencil2d(4, 16);
        let want = reference::expected(&spec, 4).dense;
        for backend in [Backend::SharedMem, Backend::Channels] {
            let mut rec = Recorder::new(true);
            let trip = trip(&spec, backend, 3, true, &want, &mut rec)
                .expect("bit-identical to the reference");
            assert_eq!(trip.warm_ns.len(), 3);
            assert_eq!(trip.digest.len(), 2);
            assert!(trip.total_ns >= trip.setup_ns + trip.gather_ns);
            let names: Vec<&str> = rec.spans().iter().map(|s| s.name).collect();
            assert_eq!(
                names,
                [
                    "program",
                    "elaborate",
                    "lower",
                    "verify",
                    "cold_step",
                    "warm_step",
                    "warm_step",
                    "warm_step",
                    "gather"
                ]
            );
        }
        let mut wrong = want.clone();
        wrong[0][17] += 1.0;
        let mut rec = Recorder::new(false);
        let refused = trip(&spec, Backend::SharedMem, 3, false, &wrong, &mut rec).unwrap_err();
        assert!(refused.contains("differs from the reference"), "{refused}");
        let one_step_short = reference::expected(&spec, 3).dense;
        assert!(trip(
            &spec,
            Backend::SharedMem,
            3,
            false,
            &one_step_short,
            &mut rec
        )
        .is_err());
    }

    #[test]
    fn a_source_with_a_diagnostic_is_a_failed_operation_not_a_panic() {
        let mut spec = gen::smallstep(1, 32);
        spec.source = spec
            .source
            .replace("DISTRIBUTE U(BLOCK)", "DISTRIBUTE U(BLOK)");
        let want = reference::expected(&spec, 2).dense;
        let mut rec = Recorder::new(true);
        let why = trip(&spec, Backend::SharedMem, 1, false, &want, &mut rec).unwrap_err();
        assert!(why.contains("diagnostic"), "{why}");
        assert!(rec.spans().iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn probes_measure_the_layers_of_a_small_program() {
        let spec = gen::pingpong(2, 64);
        let want = reference::expected(&spec, 3).dense;
        let mut rec = Recorder::new(false);
        let mut trip = trip(&spec, spec.backend, 2, false, &want, &mut rec).unwrap();
        let frontend = probe_frontend(&spec.source);
        assert!(frontend.tokens > 50 && frontend.items == 9, "{frontend:?}");
        let inspect = probe_inspect(&trip.lowered).unwrap();
        assert!(inspect.schedule_elements >= spec.step_elements());
        assert!(inspect.uncompressed_bytes >= inspect.schedule_bytes as f64);
        assert!(probe_verify(&mut trip.lowered).unwrap().1);
        let core = probe_core(&spec, &trip.lowered, 9, 100);
        assert_eq!(core.lookups, 200);
        let dir = std::env::temp_dir().join(format!("hpfbench-test-ckpt-{}", std::process::id()));
        let ckpt = probe_ckpt(&spec, &mut trip.lowered, &want, &dir).unwrap();
        assert!(ckpt.bytes >= 2 * 64 * 8);
        assert!(!dir.exists(), "the probe removes its checkpoint directory");
    }
}
