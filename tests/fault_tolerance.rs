//! Fault-tolerance suite: distribution-aware checkpoint/restore,
//! deterministic fault injection, and restore-and-replay recovery.
//!
//! The properties this pins:
//!
//! * a checkpoint written under *any* of the paper's mapping families
//!   and processor counts restores into *any other* bit-for-bit (the
//!   dense oracle is the invariant — the physical layout is not);
//! * a restore into the identical layout takes the fast path and
//!   preserves mapping identity, so the plan cache stays warm across a
//!   crash;
//! * corrupted shards and mangled manifests are rejected with precise
//!   diagnostics before a single element is written — and so is a
//!   manifest whose shard rects lie about where the values go (a hole
//!   in the domain, a rect outside it, the wrong rank, absurd bounds);
//! * an injected worker death on the `Channels` SPMD backend surfaces
//!   as a typed [`HpfError::Exchange`] (no panic, no hang), and
//!   a checkpointed [`Session`]'s restore-and-replay recovery converges
//!   to the exact state of an uninterrupted run;
//! * repeated fleet deaths degrade gracefully to `SharedMem` and the
//!   trajectory still completes correctly;
//! * a session running under an [`AdaptPolicy`] recovers from a kill
//!   injected *after* its live remap: the checkpoint carries the
//!   adapted layout through the restore, and the result still matches
//!   the uninterrupted static run bit-for-bit.

use hpf::prelude::*;
use proptest::prelude::*;
use std::path::PathBuf;
use std::time::Duration;

/// Unique temp directory per test (removed on success).
fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir()
        .join(format!("hpf-fault-tolerance-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// One of the paper's 1-D mapping families over `[n]` on `np` procs.
fn mapping_of(kind: u8, n: usize, np: usize) -> std::sync::Arc<EffectiveDist> {
    if kind % 5 == 4 {
        return std::sync::Arc::new(EffectiveDist::Replicated {
            domain: IndexDomain::of_shape(&[n]).unwrap(),
            procs: ProcSet::all(np),
        });
    }
    let fmt = match kind % 5 {
        0 => FormatSpec::Block,
        1 => FormatSpec::BlockBalanced,
        2 => FormatSpec::Cyclic(1),
        _ => FormatSpec::Cyclic(3),
    };
    let mut ds = DataSpace::new(np);
    let a = ds.declare("M", IndexDomain::of_shape(&[n]).unwrap()).unwrap();
    ds.distribute(a, &DistributeSpec::new(vec![fmt])).unwrap();
    ds.effective(a).unwrap()
}

fn arrays_with(kinds: (u8, u8), n: usize, np: usize, init: impl Fn(i64, i64) -> f64) -> Vec<DistArray<f64>> {
    vec![
        DistArray::from_fn("A", mapping_of(kinds.0, n, np), np, |i| init(i[0], 0)),
        DistArray::from_fn("B", mapping_of(kinds.1, n, np), np, |i| init(i[0], 1)),
    ]
}

/// A two-statement iterated program: a shifted sum (communicates across
/// every partition boundary) followed by a copy-back, so timesteps
/// compound and any lost or stale element diverges immediately.
fn build_program(kinds: (u8, u8), n: usize, np: usize) -> Program {
    let arrays = arrays_with(kinds, n, np, |i, k| (i * (k + 2) - 7) as f64);
    let mut prog = Program::new(arrays);
    let doms: Vec<&IndexDomain> = prog.arrays.iter().map(|a| a.domain()).collect();
    let n = n as i64;
    let s1 = Assignment::new(
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
    let s2 = Assignment::new(
        1,
        Section::from_triplets(vec![span(1, n)]),
        vec![Term::new(0, Section::from_triplets(vec![span(1, n)]))],
        Combine::Copy,
        &doms,
    )
    .unwrap();
    prog.push(s1).unwrap();
    prog.push(s2).unwrap();
    prog
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Checkpoint under one (mapping, np), restore under another: the
    /// dense image survives bit-for-bit, whatever the layouts. When
    /// source and target layouts coincide the fast path must be taken.
    #[test]
    fn checkpoint_restores_across_any_mapping_change(
        ka in 0u8..5,
        kb in 0u8..5,
        ka2 in 0u8..5,
        kb2 in 0u8..5,
        np_src in 2usize..6,
        np_dst in 2usize..6,
    ) {
        let n = 33usize;
        let dir = tmpdir(&format!("prop-{ka}{kb}{ka2}{kb2}-{np_src}-{np_dst}"));
        let src = arrays_with((ka, kb), n, np_src, |i, k| (i * 31 + k * 17) as f64);
        let want: Vec<Vec<f64>> = src.iter().map(DistArray::to_dense).collect();
        let rep = save_checkpoint(&src, 5, &dir).unwrap();
        prop_assert_eq!(rep.timestep, 5);

        let mut dst = arrays_with((ka2, kb2), n, np_dst, |_, _| -1.0);
        let restored = restore_checkpoint(&mut dst, &rep.dir).unwrap();
        prop_assert_eq!(restored.arrays, 2);
        prop_assert_eq!(restored.fast + restored.remapped, 2);
        for (a, w) in dst.iter().zip(&want) {
            prop_assert_eq!(&a.to_dense(), w, "{} must match the dense oracle", a.name());
        }
        // identical layout ⇒ the cheap whole-shard path, and mapping
        // identity (hence plan-cache validity) is preserved
        if np_src == np_dst && ka == ka2 && kb == kb2 {
            prop_assert_eq!(restored.fast, 2);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The checkpoint written mid-trajectory equals the state a fresh
    /// reader restores — save/restore composes with real execution on
    /// either backend.
    #[test]
    fn trajectory_checkpoints_are_consistent_snapshots(
        ka in 0u8..4,
        kb in 0u8..4,
        backend_k in 0u8..2,
        steps in 1u64..4,
    ) {
        let backend = if backend_k == 0 { Backend::SharedMem } else { Backend::Channels };
        let dir = tmpdir(&format!("traj-{ka}-{kb}-{backend_k}-{steps}"));
        let mut sess = Session::new(build_program((ka, kb), 29, 4))
            .backend(backend)
            .checkpoint(CheckpointSpec::new(&dir, 1));
        let rep = sess.run(steps).unwrap();
        prop_assert_eq!(rep.timesteps, steps);
        prop_assert_eq!(rep.failures, 0);
        // the newest snapshot must reproduce the live final state
        let latest = latest_checkpoint(&dir).unwrap().expect("trajectory checkpointed");
        let mut mirror = build_program((ka, kb), 29, 4);
        let r = restore_checkpoint(&mut mirror.arrays, &latest).unwrap();
        prop_assert_eq!(r.timestep, steps);
        for (a, b) in sess.program().arrays.iter().zip(&mirror.arrays) {
            prop_assert_eq!(a.to_dense(), b.to_dense());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// 2-D block×block → fewer procs with a different layout: exercises the
/// multi-dimensional rect walk of the scatter path.
#[test]
fn two_dim_checkpoint_scatters_across_process_grids() {
    let dir = tmpdir("2d");
    let mk = |np: usize, grid: &[usize], fmts: Vec<FormatSpec>| {
        let mut ds = DataSpace::new(np);
        ds.declare_processors("G", IndexDomain::of_shape(grid).unwrap()).unwrap();
        let id = ds.declare("M", IndexDomain::of_shape(&[12, 10]).unwrap()).unwrap();
        ds.distribute(id, &DistributeSpec::to(fmts, "G")).unwrap();
        ds.effective(id).unwrap()
    };
    let src = vec![DistArray::from_fn(
        "M",
        mk(4, &[2, 2], vec![FormatSpec::Block, FormatSpec::Block]),
        4,
        |i| (i[0] * 100 + i[1]) as f64,
    )];
    let want = src[0].to_dense();
    let rep = save_checkpoint(&src, 1, &dir).unwrap();

    let mut dst = vec![DistArray::from_fn(
        "M",
        mk(2, &[1, 2], vec![FormatSpec::Cyclic(1), FormatSpec::Block]),
        2,
        |_| f64::NAN,
    )];
    let restored = restore_checkpoint(&mut dst, &rep.dir).unwrap();
    assert_eq!((restored.fast, restored.remapped, restored.elements), (0, 1, 120));
    assert_eq!(dst[0].to_dense(), want, "2-D cross-grid restore is exact");
    let _ = std::fs::remove_dir_all(&dir);
}

/// An injected worker kill on `Channels` surfaces as a typed error and
/// a checkpointed session recovers to the exact uninterrupted state —
/// with the plan cache surviving (the restore preserves mapping identity).
#[test]
fn injected_worker_death_recovers_to_uninterrupted_state() {
    let dir = tmpdir("kill");
    let steps = 5u64;
    let mut reference = Session::new(build_program((0, 2), 41, 6));
    reference.run(steps).unwrap();

    let mut sess = Session::new(build_program((0, 2), 41, 6))
        .backend(Backend::Channels)
        .checkpoint(CheckpointSpec::new(&dir, 1))
        .inject_faults(FaultPlan::new().with(Fault::KillWorker { rank: 3, step: 2 }));
    let rep = sess.run(steps).unwrap();
    assert_eq!(rep.timesteps, steps);
    assert_eq!(rep.failures, 1, "exactly the injected kill");
    assert!(!rep.degraded, "one fault must not trigger degradation");
    assert_eq!(rep.final_backend, Backend::Channels);
    let prog = sess.into_program();
    assert_eq!(prog.faults_fired(), 1);
    for (a, b) in prog.arrays.iter().zip(&reference.program().arrays) {
        assert_eq!(
            a.to_dense(),
            b.to_dense(),
            "{} must equal the uninterrupted run bit-for-bit",
            a.name()
        );
    }
    // fast-path restores preserve the mapping Arcs, so recovery never
    // re-inspects: one cold miss per statement, nothing more
    assert_eq!(prog.cache_misses(), 2, "plan cache must survive recovery");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The adaptive suite's hotspot workload: the sweep is confined to the
/// first quarter of a BLOCK-distributed pair (declared DYNAMIC), with a
/// 48-cell upwind gather so the controller's load-fitted
/// `GENERAL_BLOCK` deterministically wins the candidate pricing; a
/// copy-back compounds timesteps so a lost element diverges forever.
fn hotspot_program(n: i64, np: usize) -> Program {
    let mut ds = DataSpace::new(np);
    let a = ds.declare("A", IndexDomain::standard(&[(1, n)]).unwrap()).unwrap();
    let b = ds.declare("B", IndexDomain::standard(&[(1, n)]).unwrap()).unwrap();
    for id in [a, b] {
        ds.distribute(id, &DistributeSpec::new(vec![FormatSpec::Block])).unwrap();
        ds.set_dynamic(id);
    }
    let arrays = vec![
        DistArray::from_fn("A", ds.effective(a).unwrap(), np, |i| i[0] as f64),
        DistArray::from_fn("B", ds.effective(b).unwrap(), np, |i| (i[0] % 7) as f64),
    ];
    let doms: Vec<&IndexDomain> = arrays.iter().map(|x| x.domain()).collect();
    let (reach, hot) = (48, n / 4);
    let here = Section::from_triplets(vec![span(reach + 2, hot)]);
    let sweep = Assignment::new(
        0,
        here.clone(),
        vec![
            Term::new(0, Section::from_triplets(vec![span(2, hot - reach)])),
            Term::new(1, here.clone()),
        ],
        Combine::Sum,
        &doms,
    )
    .unwrap();
    let copy_back =
        Assignment::new(1, here.clone(), vec![Term::new(0, here)], Combine::Copy, &doms)
            .unwrap();
    let mut prog = Program::new(arrays);
    prog.push(sweep).unwrap();
    prog.push(copy_back).unwrap();
    prog
}

/// An injected kill *after* the adaptive controller's live remap: the
/// recovery restores the checkpoint written under the adapted
/// `GENERAL_BLOCK` layout, the trajectory converges to the
/// uninterrupted static run bit-for-bit, and the adapted layout itself
/// survives the restore — the controller never has to remap twice.
#[test]
fn adaptive_remap_survives_injected_kill() {
    let dir = tmpdir("adapt-kill");
    let steps = 6u64;
    let (n, np) = (65_536i64, 4usize);
    let mut reference = Session::new(hotspot_program(n, np));
    reference.run(steps).unwrap();

    let mut sess = Session::new(hotspot_program(n, np))
        .backend(Backend::Channels)
        .checkpoint(CheckpointSpec::new(&dir, 1))
        .adapt(AdaptPolicy::aggressive())
        .inject_faults(FaultPlan::new().with(Fault::KillWorker { rank: 2, step: 4 }));
    let rep = sess.run(steps).unwrap();
    assert_eq!(rep.timesteps, steps);
    assert_eq!(rep.failures, 1, "exactly the injected kill");
    assert!(!rep.degraded);

    let report = sess.adapt_report().expect("adapt configured").clone();
    assert!(report.remaps >= 1, "the hotspot must remap before the kill: {report:?}");
    assert!(
        report.events[0].candidate.starts_with("GENERAL_BLOCK"),
        "wide upwind reach prices CYCLIC out: {}",
        report.events[0].candidate
    );
    assert!(
        report.events[0].timestep < 4,
        "remap must land before the injected kill so the restore \
         exercises the adapted layout: {report:?}"
    );

    let prog = sess.into_program();
    assert_eq!(prog.faults_fired(), 1);
    for (a, b) in prog.arrays.iter().zip(&reference.program().arrays) {
        assert_eq!(
            a.to_dense(),
            b.to_dense(),
            "{} must equal the uninterrupted static run bit-for-bit",
            a.name()
        );
    }
    // the checkpoint was written under the post-remap mappings, so the
    // restore keeps the load-fitted layout in place
    assert!(
        format!("{:?}", prog.arrays[0].mapping()).contains("GeneralBlock"),
        "adapted layout must survive restore-and-replay"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Three consecutive fleet deaths exhaust the `Channels` retry budget
/// and the trajectory degrades to `SharedMem` — completing with the
/// same result instead of failing. The fleet degrades the same whether it
/// was asked for by name or by a thread bound covering every processor.
#[test]
fn repeated_fleet_death_degrades_to_shared_mem() {
    let steps = 4u64;
    let np = 5;
    let mut reference = Session::new(build_program((1, 3), 35, np));
    reference.run(steps).unwrap();

    type Configure = fn(Session) -> Session;
    let fleets: [(&str, Configure); 2] = [
        ("degrade", |s| s.backend(Backend::Channels)),
        ("degrade-threads", |s| s.threads(5)),
    ];
    for (tag, fleet) in fleets {
        // what runs is what is reported
        let mut clean = fleet(Session::new(build_program((1, 3), 35, np)));
        assert_eq!(clean.run(1).unwrap().final_backend, Backend::Channels, "{tag}");

        // a failed superstep does not advance the backend's step counter, so
        // each retry replays step 0 and consumes the next identical kill —
        // three *consecutive* failures
        let dir = tmpdir(tag);
        let mut sess = fleet(Session::new(build_program((1, 3), 35, np)))
            .checkpoint(CheckpointSpec::new(&dir, 1))
            .inject_faults(
                FaultPlan::new()
                    .with(Fault::KillWorker { rank: 1, step: 0 })
                    .with(Fault::KillWorker { rank: 1, step: 0 })
                    .with(Fault::KillWorker { rank: 1, step: 0 }),
            );
        let rep = sess.run(steps).unwrap();
        assert_eq!(rep.timesteps, steps);
        assert_eq!(rep.failures, 3);
        assert!(rep.degraded, "{tag}: three consecutive failures must degrade");
        assert_eq!(rep.final_backend, Backend::SharedMem);
        for (a, b) in sess.program().arrays.iter().zip(&reference.program().arrays) {
            assert_eq!(a.to_dense(), b.to_dense(), "{} after degradation ({tag})", a.name());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Without a checkpoint to restore from, the typed fault propagates to
/// the caller instead of hanging or panicking — and it names the rank
/// and superstep.
#[test]
fn fault_without_checkpoint_is_a_typed_error() {
    let mut sess = Session::new(build_program((0, 1), 25, 4))
        .backend(Backend::Channels)
        .inject_faults(FaultPlan::new().with(Fault::KillWorker { rank: 2, step: 0 }));
    let err = sess.run(3).unwrap_err();
    match err {
        HpfError::Exchange { rank, step, ref reason } => {
            assert_eq!(rank, Some(2));
            assert_eq!(step, 0);
            assert!(reason.contains("died"), "got reason {reason:?}");
        }
        other => panic!("expected HpfError::Exchange, got {other}"),
    }
}

/// A dropped message wedges the superstep; the driver's timeout turns
/// it into a typed error in bounded time rather than hanging forever.
#[test]
fn dropped_message_times_out_with_typed_error() {
    let mut sess = Session::new(build_program((0, 0), 25, 4))
        .backend(Backend::Channels)
        .exchange_timeout(Duration::from_millis(250))
        .inject_faults(FaultPlan::new().with(Fault::DropMessage {
            sender: 0,
            receiver: 1,
            step: 0,
        }));
    let err = sess.run(1).unwrap_err();
    assert!(
        matches!(err, HpfError::Exchange { rank: None, step: 0, .. }),
        "got {err}"
    );
    // the fleet was torn down and respawns clean: replay converges
    let mut reference = Session::new(build_program((0, 0), 25, 4));
    reference.run(1).unwrap();
    // lost shards must be restored before replaying — use a checkpoint
    // of the initial state
    let dir = tmpdir("drop");
    let init = build_program((0, 0), 25, 4);
    save_checkpoint(&init.arrays, 0, &dir).unwrap();
    sess.program_mut().restore_latest(&dir).unwrap();
    sess.run(1).unwrap();
    for (a, b) in sess.program().arrays.iter().zip(&reference.program().arrays) {
        assert_eq!(a.to_dense(), b.to_dense());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Delay and pool-poison faults are *survivable*: the step completes
/// correctly (the poisoned pool mutex is recovered via `into_inner`),
/// no error surfaces, and the fault counter proves they actually fired.
#[test]
fn delay_and_pool_poison_are_survived_in_place() {
    let mut reference = Session::new(build_program((2, 0), 31, 4));
    reference.run(3).unwrap();
    let mut sess = Session::new(build_program((2, 0), 31, 4))
        .backend(Backend::Channels)
        .inject_faults(
            FaultPlan::new()
                .with(Fault::DelayMessage { sender: 0, receiver: 1, step: 0, millis: 30 })
                .with(Fault::PoisonPool { rank: 1, step: 1 }),
        );
    sess.run(3).unwrap();
    let prog = sess.into_program();
    assert_eq!(prog.faults_fired(), 2, "both faults must actually fire");
    for (a, b) in prog.arrays.iter().zip(&reference.program().arrays) {
        assert_eq!(a.to_dense(), b.to_dense());
    }
}

/// Corruption diagnostics: a flipped payload bit is caught by the
/// shard checksum, a truncated manifest by the `end` sentinel — both
/// *before* any element is written.
#[test]
fn corrupted_checkpoints_are_rejected_with_diagnostics() {
    let dir = tmpdir("reject");
    let mut prog = build_program((0, 1), 25, 4);
    let rep = prog.checkpoint(&dir, 1).unwrap();

    // flip one payload bit in a shard
    let shard = rep.dir.join("A.p0.shard");
    let mut bytes = std::fs::read(&shard).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&shard, &bytes).unwrap();
    let before: Vec<Vec<f64>> = prog.arrays.iter().map(DistArray::to_dense).collect();
    let err = prog.restore_checkpoint(&rep.dir).unwrap_err();
    assert!(err.to_string().contains("checksum mismatch"), "got {err}");
    for (a, w) in prog.arrays.iter().zip(&before) {
        assert_eq!(&a.to_dense(), w, "a rejected restore must not write anything");
    }

    // truncate the manifest below its `end` sentinel
    let manifest = rep.dir.join("manifest.txt");
    let text = std::fs::read_to_string(&manifest).unwrap();
    let cut = text.rfind("end").unwrap();
    std::fs::write(&manifest, &text[..cut]).unwrap();
    let err = prog.restore_checkpoint(&rep.dir).unwrap_err();
    assert!(err.to_string().contains("no `end`"), "got {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The manifest's rects are its word for where a shard's values go when
/// the layout changed; a manifest that lies is rejected with an error
/// that says where, nothing panics, and no array changes.
#[test]
fn hostile_manifests_are_rejected_with_located_errors() {
    let dir = tmpdir("hostile");
    let saved = vec![DistArray::from_fn("A", mapping_of(0, 16, 2), 2, |i| i[0] as f64)];
    let rep = save_checkpoint(&saved, 1, &dir).unwrap();
    let manifest = rep.dir.join("manifest.txt");
    let pristine = std::fs::read_to_string(&manifest).unwrap();
    let shard1 = pristine.lines().position(|l| l.starts_with("shard A 1 ")).unwrap();
    assert!(pristine.lines().nth(shard1).unwrap().ends_with(" rects 9:16:1"), "{pristine}");
    // shard 1's line with other rects (`None`: the line dropped)
    let with_rects = |rects: Option<&str>| -> String {
        let lines = pristine.lines().enumerate().filter_map(|(k, l)| match rects {
            Some(r) if k == shard1 => Some(l.replace("rects 9:16:1", &format!("rects {r}"))),
            None if k == shard1 => None,
            _ => Some(l.to_string()),
        });
        lines.map(|l| l + "\n").collect()
    };
    let huge = "1:4294967296:1x1:4294967296:1";
    let whole_i64 = "-9223372036854775808:9223372036854775807:1";
    let manifest_line = format!("manifest.txt:{}:", shard1 + 1);
    let cases: [(&str, Option<&str>, &[&str]); 7] = [
        ("dropped shard line", None, &["array `A`", "element (9)", "do not cover"]),
        ("overlapping rects", Some("1:8:1"), &["array `A`", "element (9)", "do not cover"]),
        ("rect outside the domain", Some("10:17:1"), &["array `A` shard 2", "{10:17} does not lie in the domain"]),
        ("strided off the end", Some("2:16:2"), &["array `A`", "element (9)"]),
        ("rank mismatch", Some("9:16:1x1:1:1"), &["array `A` shard 2", "1:1} does not lie in the domain"]),
        ("volume overflows usize", Some(huge), &[&manifest_line, "more than usize::MAX"]),
        ("bounds span all of i64", Some(whole_i64), &[&manifest_line, "shard declares 8"]),
    ];
    for (what, rects, needles) in cases {
        std::fs::write(&manifest, with_rects(rects)).unwrap();
        let mut target = vec![DistArray::new("A", mapping_of(2, 16, 4), 4, -3.0)];
        let err = restore_checkpoint(&mut target, &rep.dir).unwrap_err();
        assert!(
            matches!(err, CkptError::Mismatch { .. } | CkptError::Manifest { .. }),
            "{what}: got {err:?}"
        );
        for needle in needles {
            assert!(err.to_string().contains(needle), "{what}: `{needle}` not in `{err}`");
        }
        assert_eq!(target[0].to_dense(), vec![-3.0; 16], "{what}: the array must be untouched");
    }
    // the untampered manifest restores into the same target
    std::fs::write(&manifest, &pristine).unwrap();
    let mut target = vec![DistArray::new("A", mapping_of(2, 16, 4), 4, -3.0)];
    restore_checkpoint(&mut target, &rep.dir).unwrap();
    assert_eq!(target[0].to_dense(), saved[0].to_dense());
    let _ = std::fs::remove_dir_all(&dir);
}

/// `restore_latest` on an empty directory is the precise
/// "nothing to restore" diagnostic, not a panic or a silent no-op.
#[test]
fn restore_latest_reports_missing_checkpoints() {
    let dir = tmpdir("none");
    let mut prog = build_program((0, 1), 25, 4);
    let err = prog.restore_latest(&dir.join("empty")).unwrap_err();
    assert!(matches!(err, CkptError::NoCheckpoint { .. }), "got {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Checkpoints of one trajectory at timesteps 3 and 4, the dense state
/// at 3, and the shard of array `A` on processor 0 in each snapshot.
fn two_snapshots(dir: &std::path::Path) -> (Vec<Vec<f64>>, [PathBuf; 2]) {
    let mut sess = Session::new(build_program((0, 1), 25, 4));
    sess.run(3).unwrap();
    let at3 = sess.program().checkpoint(dir, 3).unwrap().dir;
    let want: Vec<Vec<f64>> = sess.program().arrays.iter().map(DistArray::to_dense).collect();
    sess.run(1).unwrap();
    let at4 = sess.program().checkpoint(dir, 4).unwrap().dir;
    (want, [at4.join("A.p0.shard"), at3.join("A.p0.shard")])
}

/// Cut a shard file inside its 24-byte header, as a crash mid-write can.
fn tear(shard: &std::path::Path) {
    std::fs::OpenOptions::new().write(true).open(shard).unwrap().set_len(20).unwrap();
}

/// A torn shard in the newest snapshot does not block a restore: the
/// newest snapshot that verifies is restored, and the report names the
/// one it skipped and why.
#[test]
fn torn_newest_snapshot_restores_the_previous_one() {
    let dir = tmpdir("torn-newest");
    let (want, [newest, _]) = two_snapshots(&dir);
    tear(&newest);
    let mut prog = build_program((0, 1), 25, 4);
    let report = prog.restore_latest(&dir).unwrap();
    assert_eq!(report.timestep, 3);
    assert_eq!(report.skipped.len(), 1, "{report:?}");
    assert_eq!(report.skipped[0].0, newest.parent().unwrap());
    assert!(report.skipped[0].1.contains("truncated shard"), "{report:?}");
    let got: Vec<Vec<f64>> = prog.arrays.iter().map(DistArray::to_dense).collect();
    assert_eq!(got, want);
    let _ = std::fs::remove_dir_all(&dir);
}

/// When every snapshot is torn, the restore fails, names the newest
/// snapshot and why it failed, and writes nothing.
#[test]
fn all_torn_snapshots_name_the_newest() {
    let dir = tmpdir("torn-all");
    let (_, shards) = two_snapshots(&dir);
    shards.iter().for_each(|s| tear(s));
    let mut prog = build_program((0, 1), 25, 4);
    let before: Vec<Vec<f64>> = prog.arrays.iter().map(DistArray::to_dense).collect();
    let err = prog.restore_latest(&dir).unwrap_err();
    match &err {
        CkptError::Unrestorable { newest, tried, .. } => {
            assert_eq!(newest, shards[0].parent().unwrap());
            assert_eq!(*tried, 2);
        }
        other => panic!("got {other:?}"),
    }
    let text = err.to_string();
    assert!(text.contains("step-00000004") && text.contains("truncated shard"), "{text}");
    let after: Vec<Vec<f64>> = prog.arrays.iter().map(DistArray::to_dense).collect();
    assert_eq!(after, before, "a failed restore must not write anything");
    let _ = std::fs::remove_dir_all(&dir);
}
