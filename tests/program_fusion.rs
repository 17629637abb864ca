//! Program-fusion equivalence suite: a whole timestep routed through the
//! fused [`ProgramPlan`] — statements level-scheduled into supersteps,
//! same-pair messages coalesced, clean ghost units skipped — must stay
//! bit-identical to the pre-fusion per-statement execution and to the
//! dense naive oracle, over random block / cyclic(k) / general-block /
//! replicated mappings, on every execution path (`SharedMem`, `Channels`
//! SPMD workers, bounded-thread parallel), across warm timesteps and
//! straight through a mid-trajectory `REDISTRIBUTE`.
//!
//! The suite also pins the *safety net*: a fused plan whose coalesced
//! schedule is corrupted — an element count that no longer conserves, a
//! pack phase hoisted before a writer, a segment the constituents never
//! shipped — is refuted by [`verify_program_plan`] before it can run.

use hpf::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// Random GENERAL_BLOCK sizes: `np` non-negative lengths summing to `n`.
fn gb_sizes(n: usize, np: usize, seed: u64) -> Vec<i64> {
    use rand::{RngExt, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut cuts: Vec<i64> = (0..np.saturating_sub(1))
        .map(|_| rng.random_range(0..=n as u64) as i64)
        .collect();
    cuts.sort_unstable();
    cuts.push(n as i64);
    let mut prev = 0i64;
    cuts.into_iter()
        .map(|c| {
            let s = c - prev;
            prev = c;
            s
        })
        .collect()
}

/// One of the paper's mapping families (kind % 6 == 5 is replication).
fn mapping_of(kind: u8, n: usize, np: usize, seed: u64) -> Arc<EffectiveDist> {
    if kind % 6 == 5 {
        return Arc::new(EffectiveDist::Replicated {
            domain: IndexDomain::of_shape(&[n]).unwrap(),
            procs: ProcSet::all(np),
        });
    }
    let fmt = match kind % 6 {
        0 => FormatSpec::Block,
        1 => FormatSpec::BlockBalanced,
        2 => FormatSpec::Cyclic(1),
        3 => FormatSpec::Cyclic(3),
        _ => FormatSpec::GeneralBlockSizes(gb_sizes(n, np, seed)),
    };
    let mut ds = DataSpace::new(np);
    let a = ds.declare("M", IndexDomain::of_shape(&[n]).unwrap()).unwrap();
    ds.distribute(a, &DistributeSpec::new(vec![fmt])).unwrap();
    ds.effective(a).unwrap()
}

/// Three 1-D arrays over independently random mappings.
fn build_arrays(n: usize, np: usize, kinds: [u8; 3], seed: u64) -> Vec<DistArray<f64>> {
    vec![
        DistArray::from_fn("A", mapping_of(kinds[0], n, np, seed), np, |i| i[0] as f64),
        DistArray::from_fn("B", mapping_of(kinds[1], n, np, seed ^ 0x517c), np, |i| {
            (i[0] * 11 - 3) as f64
        }),
        DistArray::from_fn("C", mapping_of(kinds[2], n, np, seed ^ 0xe3a1), np, |i| {
            (7 - i[0] * 2) as f64
        }),
    ]
}

/// One statement shape from a small dependence-rich repertoire: shapes
/// write different arrays so random sequences produce real superstep
/// DAGs (RAW chains, WAW collisions, independent statements that fuse
/// and coalesce) and leave `C` clean in shape-0/2-only programs.
fn build_stmt(shape: u8, n: i64, arrays: &[DistArray<f64>]) -> Assignment {
    let doms: Vec<&IndexDomain> = arrays.iter().map(|a| a.domain()).collect();
    let lo = Section::from_triplets(vec![span(1, n - 2)]);
    let hi = Section::from_triplets(vec![span(3, n)]);
    let mid = Section::from_triplets(vec![span(2, n - 1)]);
    let (lhs, combine, terms) = match shape % 4 {
        // A smooths itself (self-WAR: safe inside one superstep)
        0 => (0usize, Combine::Average, vec![Term::new(0, lo), Term::new(0, hi)]),
        // B folds in A (RAW after shape 0, fuses beside shape 2/3)
        1 => (1, Combine::Sum, vec![Term::new(1, mid), Term::new(0, lo)]),
        // A accumulates the never-written coefficients C
        2 => (0, Combine::Sum, vec![Term::new(0, mid), Term::new(2, lo)]),
        // B stencils A (coalesces with shape 1 in the same superstep)
        _ => (1, Combine::Max, vec![Term::new(0, lo), Term::new(0, hi)]),
    };
    Assignment::new(lhs, Section::from_triplets(vec![mid_section(n)]), terms, combine, &doms)
        .unwrap()
}

fn mid_section(n: i64) -> Triplet {
    span(2, n - 1)
}

/// Apply one timestep's statements to a dense oracle copy, statement by
/// statement in program order with Fortran 90 copy-in/copy-out semantics.
fn oracle_step(arrays: &mut [DistArray<f64>], stmts: &[Assignment]) {
    for stmt in stmts {
        let dense = dense_reference(arrays, stmt);
        let dom = arrays[stmt.lhs].domain().clone();
        for (k, i) in dom.iter().enumerate() {
            arrays[stmt.lhs].set(&i, dense[k]);
        }
    }
}

/// Build identical programs over clones that *share* mapping allocations
/// (so fused plans and caches behave identically across paths).
fn programs(arrays: &[DistArray<f64>], stmts: &[Assignment], copies: usize) -> Vec<Program> {
    (0..copies)
        .map(|_| {
            let mut p = Program::new(arrays.to_vec());
            for s in stmts {
                p.push(s.clone()).unwrap();
            }
            p
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fused ≡ per-statement ≡ dense oracle: random statement sequences
    /// over random mapping triples, every fused execution path, several
    /// warm timesteps.
    #[test]
    fn fused_paths_match_unfused_and_oracle(
        n in 16usize..40,
        np in 2usize..5,
        ka in 0u8..6,
        kb in 0u8..6,
        kc in 0u8..6,
        seed in 0u64..1000,
        shapes in proptest::collection::vec(0u8..4, 1..5),
        timesteps in 1usize..4,
    ) {
        let arrays = build_arrays(n, np, [ka, kb, kc], seed);
        let stmts: Vec<Assignment> =
            shapes.iter().map(|&s| build_stmt(s, n as i64, &arrays)).collect();
        let mut oracle = arrays.clone();
        let threads = (np / 2).max(2).min(np.saturating_sub(1)).max(2);
        let mut paths: Vec<Session> = {
            let mut ps = programs(&arrays, &stmts, 5).into_iter();
            vec![
                Session::new(ps.next().unwrap()),
                Session::new(ps.next().unwrap()).backend(Backend::Channels),
                Session::new(ps.next().unwrap()).threads(threads),
                Session::new(ps.next().unwrap()).fused(false),
                Session::new(ps.next().unwrap()).backend(Backend::Channels).fused(false),
            ]
        };
        for _ in 0..timesteps {
            oracle_step(&mut oracle, &stmts);
            for path in paths.iter_mut() {
                path.run(1).unwrap();
            }
            for (which, path) in paths.iter().enumerate() {
                for (k, o) in oracle.iter().enumerate() {
                    prop_assert_eq!(
                        path.program().arrays[k].to_dense(),
                        o.to_dense(),
                        "path {} array {} diverged from the dense oracle",
                        which,
                        k
                    );
                }
            }
        }
        // each *distinct* statement was inspected once (duplicates share
        // the structurally-keyed cache entry), then every later timestep
        // replayed the fused plan warm
        let distinct: std::collections::HashSet<&Assignment> = stmts.iter().collect();
        for path in &paths[..3] {
            let p = path.program();
            prop_assert_eq!(p.cache_misses(), distinct.len() as u64);
            prop_assert_eq!(
                p.cache_hits(),
                (stmts.len() - distinct.len()) as u64
                    + (timesteps as u64 - 1) * stmts.len() as u64
            );
            prop_assert_eq!(p.fusion_stats().fused_timesteps, timesteps as u64);
        }
        // unfused is a compile mode, not a backend: it runs where it was
        // asked to, ships the full exchange every timestep on either
        // backend, and coalesces nothing
        let (shared, fleet) = (paths[3].program(), paths[4].program());
        prop_assert_eq!(fleet.spmd_workers_spawned(), np as u64);
        prop_assert_eq!(shared.spmd_workers_spawned(), 0);
        prop_assert_eq!(fleet.stats().bytes_sent, shared.stats().bytes_sent);
        for p in [shared, fleet] {
            let fs = p.fusion_stats();
            prop_assert_eq!(fs.messages_after, fs.messages_before);
            prop_assert_eq!(fs.supersteps, stmts.len());
            prop_assert_eq!(fs.ghost_elements_avoided, 0);
        }
    }

    /// A mid-trajectory `REDISTRIBUTE` of a random array invalidates the
    /// fused plan (and exactly the constituent plans that involve it),
    /// and the trajectory stays equal to the oracle across the remap.
    #[test]
    fn remap_invalidates_fused_plan(
        n in 16usize..40,
        np in 2usize..5,
        ka in 0u8..5,
        kb in 0u8..5,
        kc in 0u8..5,
        knew in 0u8..5,
        seed in 0u64..1000,
        shapes in proptest::collection::vec(0u8..4, 2..5),
        remap_which in 0usize..3,
    ) {
        let arrays = build_arrays(n, np, [ka, kb, kc], seed);
        let stmts: Vec<Assignment> =
            shapes.iter().map(|&s| build_stmt(s, n as i64, &arrays)).collect();
        let mut oracle = arrays.clone();
        let mut progs = {
            let mut ps = programs(&arrays, &stmts, 2).into_iter();
            vec![
                Session::new(ps.next().unwrap()),
                Session::new(ps.next().unwrap()).fused(false),
            ]
        };
        for _ in 0..2 {
            oracle_step(&mut oracle, &stmts);
            progs[0].run(1).unwrap();
            progs[1].run(1).unwrap();
        }
        let distinct: std::collections::HashSet<&Assignment> = stmts.iter().collect();
        let cold_misses = progs[0].program().cache_misses();
        prop_assert_eq!(cold_misses, distinct.len() as u64);

        // remap one array onto a fresh allocation (same family is fine:
        // identity invalidation is what's under test)
        let new_map = mapping_of(knew, n, np, seed ^ 0xbeef);
        let stale = distinct
            .iter()
            .filter(|s| {
                s.lhs == remap_which || s.terms.iter().any(|t| t.array == remap_which)
            })
            .count() as u64;
        progs[0].program_mut().remap(remap_which, new_map.clone()).unwrap();
        progs[1].program_mut().remap(remap_which, new_map).unwrap();
        for (k, o) in oracle.iter().enumerate() {
            // the remap moved values, not semantics
            prop_assert_eq!(progs[0].program().arrays[k].to_dense(), o.to_dense());
        }
        for _ in 0..2 {
            oracle_step(&mut oracle, &stmts);
            progs[0].run(1).unwrap();
            progs[1].run(1).unwrap();
            for (k, o) in oracle.iter().enumerate() {
                prop_assert_eq!(progs[0].program().arrays[k].to_dense(), o.to_dense());
                prop_assert_eq!(progs[1].program().arrays[k].to_dense(), o.to_dense());
            }
        }
        // exactly the statements touching the remapped array were
        // re-inspected; the rest replayed from the cache
        prop_assert_eq!(progs[0].program().cache_misses(), cold_misses + stale);
    }
}

/// The ISSUE's dirty-tracking regression: in the CYCLIC(1) red-black
/// solver the boundary values `U(0)`/`U(n+1)` are read every sweep but
/// written by neither — after the cold timestep their ghost units are
/// clean and warm timesteps must move strictly less data than the
/// unfused per-statement replay, which re-ships them forever.
#[test]
fn clean_ghosts_are_not_resent_on_warm_timesteps() {
    let n = 31i64;
    let np = 4usize;
    let mut ds = DataSpace::new(np);
    let u = ds.declare("U", IndexDomain::standard(&[(0, n + 1)]).unwrap()).unwrap();
    ds.distribute(u, &DistributeSpec::new(vec![FormatSpec::Cyclic(1)])).unwrap();
    let arrays =
        vec![DistArray::from_fn("U", ds.effective(u).unwrap(), np, |i| i[0] as f64)];
    let doms: Vec<&IndexDomain> = arrays.iter().map(|a| a.domain()).collect();
    let red = Assignment::new(
        0,
        Section::from_triplets(vec![triplet(2, n, 2)]),
        vec![
            Term::new(0, Section::from_triplets(vec![triplet(1, n - 1, 2)])),
            Term::new(0, Section::from_triplets(vec![triplet(3, n + 1, 2)])),
        ],
        Combine::Average,
        &doms,
    )
    .unwrap();
    let black = Assignment::new(
        0,
        Section::from_triplets(vec![triplet(1, n, 2)]),
        vec![
            Term::new(0, Section::from_triplets(vec![triplet(0, n - 1, 2)])),
            Term::new(0, Section::from_triplets(vec![triplet(2, n + 1, 2)])),
        ],
        Combine::Average,
        &doms,
    )
    .unwrap();
    let stmts = vec![red, black];
    let mut oracle = arrays.clone();
    let mut progs = {
        let mut ps = programs(&arrays, &stmts, 2).into_iter();
        vec![
            Session::new(ps.next().unwrap()),
            Session::new(ps.next().unwrap()).fused(false),
        ]
    };

    let timesteps = 4u64;
    let mut fused_cold = 0u64;
    let mut unfused_cold = 0u64;
    let (mut prev_fused, mut prev_unfused) = (0u64, 0u64);
    for t in 0..timesteps {
        oracle_step(&mut oracle, &stmts);
        progs[0].run(1).unwrap();
        progs[1].run(1).unwrap();
        assert_eq!(progs[0].program().arrays[0].to_dense(), oracle[0].to_dense());
        assert_eq!(progs[1].program().arrays[0].to_dense(), oracle[0].to_dense());
        let fused_step = progs[0].program().backend_bytes_sent() - prev_fused;
        let unfused_step = progs[1].program().backend_bytes_sent() - prev_unfused;
        prev_fused = progs[0].program().backend_bytes_sent();
        prev_unfused = progs[1].program().backend_bytes_sent();
        if t == 0 {
            fused_cold = fused_step;
            unfused_cold = unfused_step;
            // the cold timestep ships the full ghost exchange on both
            assert_eq!(fused_cold, unfused_cold);
        } else {
            // every warm timestep: the never-written boundary ghosts
            // U(0)/U(n+1) are NOT re-sent on the fused path, while the
            // unfused replay re-ships everything
            assert_eq!(unfused_step, unfused_cold, "unfused re-sends everything");
            assert_eq!(
                fused_step,
                fused_cold - 2 * 8,
                "exactly the two clean boundary elements are skipped"
            );
        }
    }
    let fs = progs[0].program().fusion_stats();
    assert_eq!(fs.supersteps, 2);
    assert_eq!(
        fs.ghost_elements_avoided,
        2 * (timesteps - 1),
        "two boundary elements per warm timestep: {fs}"
    );
}

/// Mutation tests: corrupt one coalesced schedule entry at a time and
/// assert the static verifier refutes the specific property — the fused
/// layer cannot silently ship a plan that diverges from its constituent
/// statements.
#[test]
fn verifier_catches_corrupted_fused_plans() {
    let n = 24usize;
    let np = 3usize;
    let arrays = build_arrays(n, np, [0, 2, 4], 7);
    let stmts: Vec<Assignment> =
        [0u8, 1, 2].iter().map(|&s| build_stmt(s, n as i64, &arrays)).collect();
    let plans: Vec<Arc<ExecPlan>> = stmts
        .iter()
        .map(|s| Arc::new(ExecPlan::inspect(&arrays, s).unwrap()))
        .collect();
    let pristine = ProgramPlan::compile(&stmts, plans, true);
    let report = verify_program_plan(&arrays, &stmts, &pristine);
    assert!(report.is_clean(), "the honest plan must verify:\n{report}");
    assert!(report.segments > 0, "the workload must actually communicate");

    // (a) shrink one coalesced segment: the pair's declared element
    // count no longer conserves, and an element the constituents ship
    // goes missing
    let mut mutant = pristine.clone();
    let seg = &mut mutant.pairs_mut()[0].segments[0];
    assert!(seg.len >= 1);
    seg.len -= 1;
    let report = verify_program_plan(&arrays, &stmts, &mutant);
    assert!(!report.is_clean());
    assert!(
        report.findings_for(Property::Conservation).next().is_some(),
        "shrunken segment must break conservation:\n{report}"
    );
    assert!(
        report.findings_for(Property::DeadlockFreedom).next().is_some(),
        "shrunken segment must orphan the constituent flow:\n{report}"
    );

    // (b) hoist a pack phase before the statement's writers: the staged
    // copy would snapshot stale data
    let mut mutant = pristine.clone();
    let hoistable = (0..mutant.pairs().len())
        .find(|&k| mutant.pairs()[k].pack_phase > 0)
        .expect("the RAW chain must force a phase > 0");
    mutant.pairs_mut()[hoistable].pack_phase = 0;
    let report = verify_program_plan(&arrays, &stmts, &mutant);
    assert!(
        report
            .findings_for(Property::RaceFreedom)
            .any(|d| matches!(d.kind, DiagnosticKind::FusedPhaseRace { .. })),
        "hoisted pack phase must be a race:\n{report}"
    );

    // (c) teleport a segment's source offset: the multiset of shipped
    // element flows diverges from the constituents in both directions
    let mut mutant = pristine.clone();
    mutant.pairs_mut()[0].segments[0].src_off += 1;
    let report = verify_program_plan(&arrays, &stmts, &mutant);
    assert!(
        report
            .findings_for(Property::DeadlockFreedom)
            .any(|d| matches!(d.kind, DiagnosticKind::FusedSegmentOrphan { .. })),
        "teleported segment must be an orphan:\n{report}"
    );
    assert!(
        report
            .findings_for(Property::DeadlockFreedom)
            .any(|d| matches!(d.kind, DiagnosticKind::FusedSegmentMissing { .. })),
        "the constituent flow it replaced must be reported missing:\n{report}"
    );

    // (d)–(f) the strided form: corrupt a stride or the length of a
    // strided coalesced segment (CYCLIC B reads BLOCK A with a stride in
    // the sender's shard)
    let (k, si) = (0..pristine.pairs().len())
        .flat_map(|k| (0..pristine.pairs()[k].segments.len()).map(move |si| (k, si)))
        .find(|&(k, si)| {
            let seg = &pristine.pairs()[k].segments[si];
            seg.len >= 2 && seg.src_stride > 1
        })
        .expect("a CYCLIC(1) ← BLOCK reference ships strided segments");
    let flow_diverges = |report: &FusionReport| {
        let has = |want: fn(&DiagnosticKind) -> bool| {
            report.findings_for(Property::DeadlockFreedom).any(|d| want(&d.kind))
        };
        has(|k| matches!(k, DiagnosticKind::FusedSegmentOrphan { .. }))
            && has(|k| matches!(k, DiagnosticKind::FusedSegmentMissing { .. }))
    };
    // (d) a wider source stride reads other elements than the receiver's
    // gather run names
    let mut mutant = pristine.clone();
    mutant.pairs_mut()[k].segments[si].src_stride += 1;
    let report = verify_program_plan(&arrays, &stmts, &mutant);
    assert!(flow_diverges(&report), "a re-strided gather must diverge:\n{report}");
    // (e) a wider destination stride scatters into other positions
    let mut mutant = pristine.clone();
    mutant.pairs_mut()[k].segments[si].dst_stride += 1;
    let report = verify_program_plan(&arrays, &stmts, &mutant);
    assert!(flow_diverges(&report), "a re-strided scatter must diverge:\n{report}");
    // (f) a shorter strided segment drops the tail of the progression
    let mut mutant = pristine.clone();
    mutant.pairs_mut()[k].segments[si].len -= 1;
    let report = verify_program_plan(&arrays, &stmts, &mutant);
    assert!(report.findings_for(Property::Conservation).next().is_some(), "{report}");
    assert!(flow_diverges(&report), "{report}");

    // (g)–(j) the shape of the pairs themselves: every rank posts its
    // sends and receives by walking the pair list, so a self-message, a
    // processor outside the machine, a pair out of (superstep, sender,
    // receiver) order or an empty message is a rendezvous that cannot
    // complete — each refutes deadlock freedom by name
    assert!(pristine.pairs().len() >= 2);
    type Shape = (&'static str, fn(&mut Vec<FusedPair>), fn(&DiagnosticKind) -> bool);
    let shapes: [Shape; 5] = [
        ("sender = receiver", |p| p[0].sender = p[0].receiver, |k| {
            matches!(k, DiagnosticKind::SelfMessage { pair: 0, .. })
        }),
        ("processor >= np", |p| p[0].receiver = 3, |k| {
            matches!(k, DiagnosticKind::InvalidPairProc { pair: 0, proc: 3, np: 3 })
        }),
        ("two pairs swapped", |p| p.swap(0, 1), |k| {
            matches!(k, DiagnosticKind::UnorderedPairs { pair: 1 })
        }),
        ("a pair duplicated", |p| p.insert(0, p[0].clone()), |k| {
            matches!(k, DiagnosticKind::UnorderedPairs { pair: 1 })
        }),
        ("a pair with no segments", |p| p[0].segments.clear(), |k| {
            matches!(k, DiagnosticKind::EmptyMessage { .. })
        }),
    ];
    for (what, mutate, names_it) in shapes {
        let mut mutant = pristine.clone();
        mutate(mutant.pairs_mut());
        let report = verify_program_plan(&arrays, &stmts, &mutant);
        assert!(
            report.findings_for(Property::DeadlockFreedom).any(|d| names_it(&d.kind)),
            "{what}:\n{report}"
        );
    }
}

/// Dirty tracking is exact on strided units. `A` is `CYCLIC`, `B` and `C`
/// are `BLOCK` on two processors, so `A(1:n) = B(1:n)` gathers every other
/// element of the peer's block: processor 1 reads `B(1), B(3), …` from
/// shard 0 (offsets 0, 2, …, 14) and `B(17), B(19), …` from shard 1.
/// A writer that stores only *between* a unit's elements must leave it
/// clean; one that hits a single element must ship that element — and only
/// it.
#[test]
fn strided_units_ship_exactly_when_a_store_hits_one_of_their_elements() {
    let n = 32i64;
    let arrays = build_arrays(n as usize, 2, [2, 0, 0], 3);
    let doms: Vec<&IndexDomain> = arrays.iter().map(|a| a.domain()).collect();
    let whole = Section::from_triplets(vec![span(1, n)]);
    let reader =
        Assignment::new(0, whole.clone(), vec![Term::new(1, whole)], Combine::Copy, &doms).unwrap();
    // B(sec) = B(sec) + C(sec): collocated, and B changes every timestep,
    // so a unit wrongly left clean would show as a stale A
    let writer = |sec: Triplet| {
        let sec = Section::from_triplets(vec![sec]);
        Assignment::new(
            1,
            sec.clone(),
            vec![Term::new(1, sec.clone()), Term::new(2, sec)],
            Combine::Sum,
            &doms,
        )
        .unwrap()
    };
    // (stored section, ghost elements re-sent per warm timestep)
    for (stored, resent) in [
        // the even B: every element processor 2 reads from shard 0, and
        // exactly the gaps of what processor 1 reads from shard 1
        (triplet(2, n, 2), 8),
        // one element of the unit on shard 1 (B(19), offset 2)
        (span(19, 19), 1),
        // one gap of it (B(20), offset 3) — processor 2's own element
        (span(20, 20), 0),
    ] {
        let stmts = [reader.clone(), writer(stored)];
        let plans = stmts.iter().map(|s| Arc::new(ExecPlan::inspect(&arrays, s).unwrap()));
        let plan = ProgramPlan::compile(&stmts, plans.collect(), true);
        assert!(verify_program_plan(&arrays, &stmts, &plan).is_clean());
        let segs = || plan.segments().map(|(_, seg)| seg);
        let dirty: usize = segs().filter(|s| s.post_dirty).map(|s| s.len).sum();
        assert_eq!(dirty, resent, "{stored}: statically dirty elements");
        assert!(segs().all(|s| !s.intra_dirty), "the writer follows the reader");
        assert_eq!(segs().map(|s| s.len).sum::<usize>(), 16, "half of A is remote");

        let timesteps = 4u64;
        for backend in [Backend::SharedMem, Backend::Channels] {
            let mut oracle = arrays.clone();
            let mut sess = Session::new(programs(&arrays, &stmts, 1).remove(0)).backend(backend);
            for t in 0..timesteps {
                oracle_step(&mut oracle, &stmts);
                sess.run(1).unwrap();
                for (k, o) in oracle.iter().enumerate() {
                    assert_eq!(sess.program().arrays[k].to_dense(), o.to_dense(), "{stored} t={t}");
                }
            }
            let fs = sess.program().fusion_stats();
            assert_eq!(fs.ghost_elements_sent, 16 + resent as u64 * (timesteps - 1), "{stored}");
            assert_eq!(fs.ghost_elements_avoided, (16 - resent as u64) * (timesteps - 1));
        }
    }
}

/// The fused `Channels` path tolerates an idle-timeout worker-fleet
/// respawn boundary: switching between executor families (SharedMem ↔
/// Channels) re-ships everything rather than trusting buffers the other
/// family staged.
#[test]
fn switching_executor_families_stays_correct() {
    let n = 24usize;
    let np = 3usize;
    let arrays = build_arrays(n, np, [0, 2, 0], 11);
    let stmts: Vec<Assignment> =
        [1u8, 2].iter().map(|&s| build_stmt(s, n as i64, &arrays)).collect();
    let mut oracle = arrays.clone();
    let mut sess = Session::new(programs(&arrays, &stmts, 1).remove(0));
    for t in 0..6 {
        oracle_step(&mut oracle, &stmts);
        // a session can be re-pointed at another backend between steps
        sess = sess.backend(if t % 2 == 0 {
            Backend::SharedMem
        } else {
            Backend::Channels
        });
        sess.run(1).unwrap();
        for (k, o) in oracle.iter().enumerate() {
            assert_eq!(sess.program().arrays[k].to_dense(), o.to_dense());
        }
    }
    assert_eq!(sess.program().cache_misses(), stmts.len() as u64);
}
