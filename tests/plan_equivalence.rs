//! Property tests for the compiled-plan runtime: plan-based execution —
//! inline and under a random thread bound — is bit-identical to the naive
//! element-wise reference across random block / cyclic / general-block / replicated
//! mappings in 1-D and 2-D, the strided-run schedules (gather runs and
//! fused message segments alike) expand to exactly the uncompressed
//! per-element `(src, offset)` sequences — over random strided and
//! reversed sections of `BLOCK` / `CYCLIC(k)` / `GENERAL_BLOCK` /
//! `INDIRECT` arrays too — a BLOCK↔CYCLIC exchange compiles to a schedule
//! per processor pair, not per element, and a cached plan replay equals a
//! freshly inspected one — including across a remap invalidation. Moving
//! values between layouts through the dense image (`from_dense`, `remap`,
//! cross-layout restore) is held, shard for shard, to the per-element
//! oracle.

mod common;

use common::{run_stmt, Config};
use hpf::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// The section-relative positions processor `p` computes, in the plan's
/// element order, recomputed independently: walk the LHS owner's region
/// rects in local-buffer order, keep the elements the LHS section selects,
/// positions ascending within a rect (a reversed 1-D section walks its
/// rect backwards; the 2-D suites use ascending sections only).
fn computed_positions(arrays: &[DistArray<f64>], stmt: &Assignment, p: ProcId) -> Vec<Idx> {
    let mut out = Vec::new();
    for rect in arrays[stmt.lhs].region_of(p).rects() {
        let mut rels: Vec<Idx> =
            rect.iter().filter_map(|gi| stmt.lhs_section.project(&gi)).collect();
        if stmt.lhs_section.rank() == 1 {
            rels.sort_by_key(|rel| rel[0]);
        }
        out.extend(rels);
    }
    out
}

/// The *uncompressed* gather sequence of processor `p` for term `t`:
/// resolve each computed position's read to `(source processor, flat
/// offset)` with first-owner ghost semantics — the per-element schedule
/// the [`CopyRun`]s must expand to.
fn expected_gather_refs(
    arrays: &[DistArray<f64>],
    stmt: &Assignment,
    p: ProcId,
    t: usize,
) -> Vec<(u32, usize)> {
    let term_arr = &arrays[stmt.terms[t].array];
    let own = term_arr.region_of(p);
    computed_positions(arrays, stmt, p)
        .iter()
        .map(|rel| {
            let ri = stmt.rhs_index(t, rel);
            let src = if own.contains(&ri) { p } else { term_arr.mapping().owner(&ri) };
            let off = term_arr.local_offset(src, &ri).expect("owner holds its region");
            (src.zero_based() as u32, off)
        })
        .collect()
}

/// The uncompressed LHS flat-offset sequence of processor `p`, recomputed
/// the same way.
fn expected_lhs_offsets(
    arrays: &[DistArray<f64>],
    stmt: &Assignment,
    p: ProcId,
) -> Vec<usize> {
    let lhs = &arrays[stmt.lhs];
    computed_positions(arrays, stmt, p)
        .iter()
        .map(|rel| lhs.local_offset(p, &stmt.lhs_index(rel)).expect("owner holds its region"))
        .collect()
}

/// Assert the schedule of `plan` expands element-for-element to the
/// uncompressed sequences, that the store runs tile the element order
/// contiguously, and that every term's gather runs are well-formed
/// progressions partitioning it.
fn assert_schedule_expands_exactly(arrays: &[DistArray<f64>], stmt: &Assignment, plan: &ExecPlan) {
    for pp in plan.per_proc() {
        let want_lhs = expected_lhs_offsets(arrays, stmt, pp.proc);
        assert_eq!(pp.volume, want_lhs.len(), "{}", pp.proc);
        let got_lhs: Vec<usize> = pp.iter_lhs_offsets().collect();
        assert_eq!(got_lhs, want_lhs, "{} store expansion", pp.proc);
        let mut pos = 0usize;
        for r in &pp.lhs_runs {
            assert_eq!(r.pos, pos, "{} store runs must tile", pp.proc);
            assert!(r.len > 0);
            pos += r.len;
        }
        assert_eq!(pos, pp.volume);
        for (t, ts) in pp.terms.iter().enumerate() {
            let want = expected_gather_refs(arrays, stmt, pp.proc, t);
            let got: Vec<(u32, usize)> =
                ts.iter_refs().map(|g| (g.src, g.offset)).collect();
            assert_eq!(got, want, "{} term {t} gather expansion", pp.proc);
            assert!(
                ts.runs.windows(2).all(|w| w[0].dst_off < w[1].dst_off),
                "{} term {t} gather runs are stored by position",
                pp.proc
            );
            let mut filled = vec![false; ts.elements];
            for r in &ts.runs {
                assert!(r.len > 0 && r.src_stride > 0 && r.dst_stride > 0, "{r:?}");
                assert!(r.len > 1 || r.is_unit(), "a one-element run carries strides 1: {r:?}");
                for i in 0..r.len {
                    let k = r.dst_off + i * r.dst_stride;
                    assert!(
                        !std::mem::replace(&mut filled[k], true),
                        "{} term {t}: position {k} gathered twice",
                        pp.proc
                    );
                }
            }
            assert!(filled.iter().all(|&f| f), "{} term {t} gather runs must partition", pp.proc);
        }
    }
}

/// Assert the fused message segments of the one-statement program plan
/// carry exactly the ghost elements of the per-element enumeration: every
/// position a receiver reads from another processor is delivered once, by
/// that owner, from that local offset.
fn assert_segments_expand_exactly(arrays: &[DistArray<f64>], stmt: &Assignment, plan: &ExecPlan) {
    let fused =
        ProgramPlan::compile(std::slice::from_ref(stmt), vec![Arc::new(plan.clone())], true);
    let report = verify_program_plan(arrays, std::slice::from_ref(stmt), &fused);
    assert!(report.is_clean(), "{report}");
    for (t, _) in stmt.terms.iter().enumerate() {
        for pp in plan.per_proc() {
            let me = pp.proc.zero_based() as u32;
            let want = expected_gather_refs(arrays, stmt, pp.proc, t);
            let mut got: Vec<Option<(u32, usize)>> = vec![None; want.len()];
            for pair in fused.pairs().iter().filter(|p| p.receiver == me) {
                for seg in pair.segments.iter().filter(|s| s.term == t) {
                    for i in 0..seg.len {
                        let slot = &mut got[seg.dst_off + i * seg.dst_stride];
                        let sent = (pair.sender, seg.src_off + i * seg.src_stride);
                        assert!(slot.replace(sent).is_none(), "position delivered twice");
                    }
                }
            }
            for (k, (w, g)) in want.iter().zip(&got).enumerate() {
                let ghost = (w.0 != me).then_some(*w);
                assert_eq!(*g, ghost, "{} term {t} position {k}", pp.proc);
            }
        }
    }
}

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

/// One of the paper's mapping families, selected by `kind`.
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

fn build_arrays(n: usize, np: usize, ka: u8, kb: u8, seed: u64) -> Vec<DistArray<f64>> {
    vec![
        DistArray::from_fn("A", mapping_of(ka, n, np, seed), np, |i| i[0] as f64),
        DistArray::from_fn("B", mapping_of(kb, n, np, seed ^ 0x9e37), np, |i| {
            (i[0] * 13 - 5) as f64
        }),
    ]
}

/// A random 2-D mapping over an `np_side × np_side` grid: per-dimension
/// block / cyclic(k) / general-block formats, or full replication
/// (`kind == 16`).
fn mapping_2d(kind: u8, n: usize, np_side: usize, seed: u64) -> Arc<EffectiveDist> {
    let np = np_side * np_side;
    if kind >= 16 {
        return Arc::new(EffectiveDist::Replicated {
            domain: IndexDomain::of_shape(&[n, n]).unwrap(),
            procs: ProcSet::all(np),
        });
    }
    let fmt = |k: u8, s: u64| match k % 4 {
        0 => FormatSpec::Block,
        1 => FormatSpec::Cyclic(1),
        2 => FormatSpec::Cyclic(2),
        _ => FormatSpec::GeneralBlockSizes(gb_sizes(n, np_side, s)),
    };
    let mut ds = DataSpace::new(np);
    ds.declare_processors("G", IndexDomain::of_shape(&[np_side, np_side]).unwrap())
        .unwrap();
    let a = ds.declare("M", IndexDomain::of_shape(&[n, n]).unwrap()).unwrap();
    ds.distribute(
        a,
        &DistributeSpec::to(vec![fmt(kind % 4, seed), fmt(kind / 4, seed ^ 0x55)], "G"),
    )
    .unwrap();
    ds.effective(a).unwrap()
}

/// A 2-D stencil-flavored statement over `A(2:n-1, 2:n-1)`, with shifted
/// `B` reads and (for some combiners) an aliasing `A` term.
fn build_stmt_2d(n: i64, combine_k: u8, arrays: &[DistArray<f64>]) -> Assignment {
    let doms: Vec<&IndexDomain> = arrays.iter().map(|a| a.domain()).collect();
    let west = Section::from_triplets(vec![span(1, n - 2), span(2, n - 1)]);
    let east = Section::from_triplets(vec![span(3, n), span(2, n - 1)]);
    let south = Section::from_triplets(vec![span(2, n - 1), span(1, n - 2)]);
    let (combine, terms) = match combine_k % 4 {
        0 => (Combine::Copy, vec![Term::new(1, west)]),
        1 => (
            Combine::Sum,
            vec![
                Term::new(1, west),
                Term::new(1, east.clone()),
                Term::new(1, south),
                Term::new(0, east),
            ],
        ),
        2 => (Combine::Average, vec![Term::new(1, west), Term::new(1, east)]),
        _ => (Combine::Max, vec![Term::new(1, west), Term::new(0, south)]),
    };
    Assignment::new(
        0,
        Section::from_triplets(vec![span(2, n - 1), span(2, n - 1)]),
        terms,
        combine,
        &doms,
    )
    .unwrap()
}

/// `A(2:n) = combine(B(1:n-1)[, A(1:n-1)])` — LHS aliasing included.
fn build_stmt(n: i64, combine_k: u8, arrays: &[DistArray<f64>]) -> Assignment {
    let doms: Vec<&IndexDomain> = arrays.iter().map(|a| a.domain()).collect();
    let rhs = Section::from_triplets(vec![span(1, n - 1)]);
    let (combine, terms) = match combine_k % 4 {
        0 => (Combine::Copy, vec![Term::new(1, rhs)]),
        1 => (Combine::Sum, vec![Term::new(1, rhs.clone()), Term::new(0, rhs)]),
        2 => (Combine::Average, vec![Term::new(1, rhs.clone()), Term::new(0, rhs)]),
        _ => (Combine::Max, vec![Term::new(1, rhs.clone()), Term::new(0, rhs)]),
    };
    Assignment::new(0, Section::from_triplets(vec![span(2, n)]), terms, combine, &doms)
        .unwrap()
}

/// One of the 1-D layout families `mapping_of` draws from, plus the ones it
/// leaves out: `INDIRECT` (6), a reversed alignment onto a `CYCLIC(2)` base
/// (7) and a strided alignment onto a `BLOCK` base twice as long (8).
fn layout_1d(kind: u8, n: usize, np: usize, seed: u64) -> Arc<EffectiveDist> {
    use rand::{RngExt, SeedableRng};
    let n_i = n as i64;
    let (base_n, base_fmt, align) = match kind % 9 {
        6 => {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let owners = (0..n).map(|_| rng.random_range(1..=np as u64) as u32).collect();
            (n_i, FormatSpec::Indirect(owners), AlignExpr::dummy(0))
        }
        7 => (n_i, FormatSpec::Cyclic(2), AlignExpr::dummy(0) * -1 + (n_i + 1)),
        8 => (2 * n_i, FormatSpec::Block, AlignExpr::dummy(0) * 2 - 1),
        k => return mapping_of(k, n, np, seed),
    };
    let mut ds = DataSpace::new(np);
    let b = ds.declare("B", IndexDomain::standard(&[(1, base_n)]).unwrap()).unwrap();
    let a = ds.declare("M", IndexDomain::of_shape(&[n]).unwrap()).unwrap();
    ds.distribute(b, &DistributeSpec::new(vec![base_fmt])).unwrap();
    ds.align(a, b, &AlignSpec::with_exprs(1, vec![align])).unwrap();
    ds.effective(a).unwrap()
}

/// The shard files `save_checkpoint` writes for `arr` — each one is a
/// local buffer in fill order behind a header, so two arrays of the same
/// layout have bit-identical shards iff these bytes agree.
fn shard_files(arr: &DistArray<f64>, tag: &str) -> (std::path::PathBuf, Vec<Vec<u8>>) {
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "hpf-layouts-{}-{tag}-{}",
        std::process::id(),
        NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let rep = save_checkpoint(std::slice::from_ref(arr), 0, &dir).unwrap();
    let files = (0..arr.np())
        .map(|p0| std::fs::read(rep.dir.join(format!("{}.p{p0}.shard", arr.name()))).unwrap())
        .collect();
    (dir, files)
}

/// `got` stores exactly what `want` stores, shard for shard.
fn assert_same_shards(got: &DistArray<f64>, want: &DistArray<f64>, what: &str) {
    assert_eq!(got.np(), want.np(), "{what}");
    let (gd, g) = shard_files(got, "got");
    let (wd, w) = shard_files(want, "want");
    assert_eq!(g, w, "{what}: shards differ ({} on {} processors)", got.mapping(), got.np());
    let _ = std::fs::remove_dir_all(gd);
    let _ = std::fs::remove_dir_all(wd);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Plan-based execution, inline and under a thread bound (bounded
    /// scoped threads below `np`, the SPMD fleet from `np` up), is
    /// bit-identical to the naive element-wise reference, for every
    /// mapping family combination.
    #[test]
    fn plan_execution_matches_naive_reference(
        n in 16usize..48,
        np in 1usize..5,
        ka in 0u8..6,
        kb in 0u8..6,
        seed in 0u64..1000,
        threads in 1usize..5,
        combine_k in 0u8..4,
    ) {
        let mut seq = build_arrays(n, np, ka, kb, seed);
        let mut par = build_arrays(n, np, ka, kb, seed);
        let stmt = build_stmt(n as i64, combine_k, &seq);
        let expect = dense_reference(&seq, &stmt);
        run_stmt(&mut seq, &stmt, Config::DEFAULT);
        run_stmt(&mut par, &stmt, Config { threads, ..Config::DEFAULT });
        prop_assert_eq!(seq[0].to_dense(), expect);
        prop_assert_eq!(seq[0].to_dense(), par[0].to_dense());
        prop_assert_eq!(seq[1].to_dense(), par[1].to_dense());
    }

    /// The strided-run schedule expands to exactly the uncompressed
    /// per-element `(src, offset)` sequence, for every 1-D mapping family
    /// combination (and the runs partition the element order).
    #[test]
    fn compressed_schedule_expands_exactly_1d(
        n in 16usize..48,
        np in 1usize..5,
        ka in 0u8..6,
        kb in 0u8..6,
        seed in 0u64..1000,
        combine_k in 0u8..4,
    ) {
        let arrays = build_arrays(n, np, ka, kb, seed);
        let stmt = build_stmt(n as i64, combine_k, &arrays);
        let plan = ExecPlan::inspect(&arrays, &stmt).unwrap();
        assert_schedule_expands_exactly(&arrays, &stmt, &plan);
        // expansion and replay agree with the naive reference too
        let mut seq = build_arrays(n, np, ka, kb, seed);
        let expect = dense_reference(&seq, &stmt);
        run_stmt(&mut seq, &stmt, Config::DEFAULT);
        prop_assert_eq!(seq[0].to_dense(), expect);
    }

    /// 2-D: compressed replay, inline and thread-bounded, is bit-identical to the naive
    /// reference over random per-dimension block / cyclic(k) /
    /// general-block formats and replicated mappings; the compressed
    /// schedules expand exactly; and for partitioning mappings the plan's
    /// ghost volume equals the frozen analysis's remote reads.
    #[test]
    fn plan_execution_matches_reference_2d(
        n in 6usize..14,
        np_side in 1usize..3,
        ka in 0u8..17,
        kb in 0u8..17,
        seed in 0u64..1000,
        threads in 1usize..6,
        combine_k in 0u8..4,
    ) {
        let np = np_side * np_side;
        let mk = || vec![
            DistArray::from_fn("A", mapping_2d(ka, n, np_side, seed), np, |i| {
                (i[0] * 31 + i[1]) as f64
            }),
            DistArray::from_fn("B", mapping_2d(kb, n, np_side, seed ^ 0x77), np, |i| {
                (i[0] - 2 * i[1]) as f64
            }),
        ];
        let mut seq = mk();
        let mut par = mk();
        let stmt = build_stmt_2d(n as i64, combine_k, &seq);
        let plan = ExecPlan::inspect(&seq, &stmt).unwrap();
        assert_schedule_expands_exactly(&seq, &stmt, &plan);
        if ka < 16 && kb < 16 {
            // partitioning mappings: plan ghosts are exactly the remote
            // reads (replication changes who computes, so the quantities
            // deliberately differ there)
            prop_assert_eq!(plan.ghost_elements() as u64, plan.analysis().remote_reads);
        }
        let expect = dense_reference(&seq, &stmt);
        run_stmt(&mut seq, &stmt, Config::DEFAULT);
        run_stmt(&mut par, &stmt, Config { threads, ..Config::DEFAULT });
        prop_assert_eq!(seq[0].to_dense(), expect);
        prop_assert_eq!(seq[0].to_dense(), par[0].to_dense());
        prop_assert_eq!(seq[1].to_dense(), par[1].to_dense());
    }

    /// Strided runs over what the 1-D suites above never generate: random
    /// strided and reversed sections of `BLOCK` / `CYCLIC(k)` /
    /// `GENERAL_BLOCK` / `INDIRECT` arrays. The gather runs and the fused
    /// message segments both expand to exactly the per-element
    /// `(owner, local offset)` enumeration, the plans verify clean, and
    /// every row of the configuration matrix is bit-identical to the dense
    /// reference.
    #[test]
    fn strided_runs_expand_exactly_over_random_sections(
        n in 24usize..72,
        np in 1usize..5,
        ka in 0u8..5,
        kb in 0u8..5,
        seed in 0u64..100_000,
        strides in (1i64..4, 1i64..4, 1i64..4),
        eighths in 1i64..9,
        reversed in 0u8..8,
        alias in 0u8..2,
    ) {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut mapping = |kind: u8| {
            let fmt = match kind {
                0 => FormatSpec::Block,
                1 => FormatSpec::Cyclic(1),
                2 => FormatSpec::Cyclic(rng.random_range(2..6u64)),
                3 => FormatSpec::GeneralBlockSizes(gb_sizes(n, np, rng.random_range(0..1000u64))),
                _ => FormatSpec::Indirect(
                    (0..n).map(|_| rng.random_range(1..=np as u64) as u32).collect(),
                ),
            };
            let mut ds = DataSpace::new(np);
            let a = ds.declare("M", IndexDomain::of_shape(&[n]).unwrap()).unwrap();
            ds.distribute(a, &DistributeSpec::new(vec![fmt])).unwrap();
            ds.effective(a).unwrap()
        };
        let arrays = vec![
            DistArray::from_fn("A", mapping(ka), np, |i| (i[0] * 7 % 23) as f64 * 0.1 + 0.3),
            DistArray::from_fn("B", mapping(kb), np, |i| (i[0] * 13 % 31) as f64 * 0.1 - 0.7),
        ];
        // `count` elements per section: as many as the widest stride
        // allows, scaled down by `eighths`
        let widest = strides.0.max(strides.1).max(strides.2);
        let count = (((n as i64 - 1) / widest + 1) * eighths / 8).max(1);
        let mut section = |stride: i64, reverse: bool| {
            let extent = (count - 1) * stride + 1;
            let lo = 1 + rng.random_range(0..=(n as i64 - extent) as u64) as i64;
            let hi = lo + extent - 1;
            Section::from_triplets(vec![if reverse {
                triplet(hi, lo, -stride)
            } else {
                triplet(lo, hi, stride)
            }])
        };
        let lhs = section(strides.0, reversed & 1 != 0);
        let mut terms = vec![Term::new(1, section(strides.1, reversed & 2 != 0))];
        if alias == 1 {
            terms.push(Term::new(0, section(strides.2, reversed & 4 != 0)));
        }
        let combine = if alias == 1 { Combine::Sum } else { Combine::Copy };
        let doms: Vec<&IndexDomain> = arrays.iter().map(|a| a.domain()).collect();
        let stmt = Assignment::new(0, lhs, terms, combine, &doms).unwrap();

        let plan = ExecPlan::inspect(&arrays, &stmt).unwrap();
        let report = verify_plan(&arrays, &stmt, &plan);
        prop_assert!(report.is_clean(), "{}", report);
        assert_schedule_expands_exactly(&arrays, &stmt, &plan);
        assert_segments_expand_exactly(&arrays, &stmt, &plan);
        let expect = dense_reference(&arrays, &stmt);
        for config in common::MATRIX {
            let mut got = arrays.clone();
            run_stmt(&mut got, &stmt, config);
            let same =
                got[0].to_dense().iter().zip(&expect).all(|(x, y)| x.to_bits() == y.to_bits());
            prop_assert!(same, "{:?} is not bit-identical to the dense reference", config);
        }
    }

    /// Every way of moving an array between layouts goes through its dense
    /// image, and each is exact: dealing an array's own image back out
    /// reproduces its shards; `remap` equals the per-element oracle
    /// (`from_fn` reading `get`); a checkpoint written under one layout and
    /// processor count restores into any other as the dense image dealt
    /// out there — over every 1-D family (replicated, `INDIRECT`, reversed
    /// and strided alignments included, `np = 1` and `np > extent`) and
    /// the 2-D grid mappings.
    #[test]
    fn layouts_exchange_values_exactly_through_the_dense_image(
        rank2 in 0u8..2,
        n in 1usize..40,
        (np1, np2) in (1usize..7, 1usize..7),
        (k1, k2, k3) in (0u8..17, 0u8..17, 0u8..17),
        seed in 0u64..100_000,
    ) {
        // 2-D: an `n × n` domain (n ≥ 2) on `side × side` grids
        let rank2 = rank2 == 1;
        let n = if rank2 { 2 + n % 8 } else { n };
        let (np1, np2) = if rank2 { ([1, 4][np1 % 2], [1, 4, 9][np2 % 3]) } else { (np1, np2) };
        let layout = |kind: u8, np: usize, seed: u64| {
            if rank2 {
                mapping_2d(kind, n, (np as f64).sqrt() as usize, seed)
            } else {
                layout_1d(kind, n, np, seed)
            }
        };
        let value = |i: &Idx| (i.iter().fold(17, |h, &v| h * 31 + v) % 1009) as f64 * 0.37 - 5.0;
        let a = DistArray::from_fn("A", layout(k1, np1, seed), np1, value);
        let dense = a.to_dense();
        let want: Vec<f64> = a.domain().iter().map(|i| value(&i)).collect();
        prop_assert_eq!(&dense, &want);

        let dealt = DistArray::from_dense("A", a.mapping().clone(), np1, &dense);
        assert_same_shards(&dealt, &a, "from_dense(to_dense)");

        let m2 = layout(k2, np1, seed ^ 0x5bd1);
        let mut prog = Program::new(vec![a.clone()]);
        prog.remap(0, m2.clone()).unwrap();
        let oracle = DistArray::from_fn("A", m2, np1, |i| a.get(i));
        assert_same_shards(&prog.arrays[0], &oracle, "remap");

        let m3 = layout(k3, np2, seed ^ 0xc2b2);
        let (dir, _) = shard_files(&a, "saved");
        let mut target = vec![DistArray::new("A", m3.clone(), np2, -1.0)];
        let step = latest_checkpoint(&dir).unwrap().unwrap();
        let report = restore_checkpoint(&mut target, &step).unwrap();
        prop_assert_eq!(report.arrays, 1);
        prop_assert_eq!(&target[0].to_dense(), &dense);
        assert_same_shards(&target[0], &DistArray::from_dense("A", m3, np2, &dense), "restore");
        let _ = std::fs::remove_dir_all(dir);
    }

    /// A cached plan replay equals a freshly inspected plan on every
    /// timestep — before and after a remap invalidation.
    #[test]
    fn cached_replay_equals_fresh_inspection_across_remap(
        n in 16usize..48,
        np in 1usize..5,
        ka in 0u8..6,
        kb in 0u8..6,
        seed in 0u64..1000,
        combine_k in 0u8..4,
    ) {
        let mk_prog = || {
            let mut p = Program::new(build_arrays(n, np, ka, kb, seed));
            let stmt = build_stmt(n as i64, combine_k, &p.arrays);
            p.push(stmt).unwrap();
            p
        };
        let mut cached = Session::new(mk_prog());
        let mut fresh = Session::new(mk_prog());
        for _ in 0..3 {
            cached.run(1).unwrap();
            fresh.program_mut().clear_plan_cache(); // force re-inspection every timestep
            fresh.run(1).unwrap();
            prop_assert_eq!(
                cached.program().arrays[0].to_dense(),
                fresh.program().arrays[0].to_dense()
            );
        }
        prop_assert_eq!(cached.program().cache_misses(), 1);
        prop_assert_eq!(cached.program().cache_hits(), 2);

        // REDISTRIBUTE B to a different mapping family (same allocation
        // shared by both programs) — the cached program must re-inspect
        let new_map = mapping_of(kb + 1, n, np, seed ^ 0xbeef);
        cached.program_mut().remap(1, new_map.clone()).unwrap();
        fresh.program_mut().remap(1, new_map).unwrap();
        prop_assert_eq!(
            cached.program().arrays[1].to_dense(),
            fresh.program().arrays[1].to_dense()
        );
        for _ in 0..2 {
            cached.run(1).unwrap();
            fresh.program_mut().clear_plan_cache();
            fresh.run(1).unwrap();
            prop_assert_eq!(
                cached.program().arrays[0].to_dense(),
                fresh.program().arrays[0].to_dense()
            );
        }
        prop_assert_eq!(cached.program().cache_misses(), 2, "remap invalidates exactly once");
        prop_assert_eq!(cached.program().cache_hits(), 3);
    }
}

/// Deterministic acceptance check: an iterated 2-D stencil program replays
/// its compiled plans (hit counter), the plan's ghost volumes agree with
/// the region-algebraic ghost analysis, and numerics match the reference.
#[test]
fn iterated_stencil_amortizes_inspection() {
    let n = 16i64;
    let np = 4usize;
    let mut ds = DataSpace::new(np);
    ds.declare_processors("G", IndexDomain::of_shape(&[2, 2]).unwrap()).unwrap();
    let p = ds.declare("P", IndexDomain::standard(&[(1, n), (1, n)]).unwrap()).unwrap();
    let u = ds.declare("U", IndexDomain::standard(&[(1, n), (1, n)]).unwrap()).unwrap();
    for id in [p, u] {
        ds.distribute(id, &DistributeSpec::to(vec![FormatSpec::Block, FormatSpec::Block], "G"))
            .unwrap();
    }
    let mut prog = Program::new(vec![
        DistArray::new("P", ds.effective(p).unwrap(), np, 0.0),
        DistArray::from_fn("U", ds.effective(u).unwrap(), np, |i| (i[0] * 100 + i[1]) as f64),
    ]);
    let doms: Vec<&IndexDomain> = prog.arrays.iter().map(|a| a.domain()).collect();
    let stmt = Assignment::new(
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

    // the plan's gather schedules see exactly the SUPERB overlap areas
    let maps: Vec<Arc<EffectiveDist>> =
        prog.arrays.iter().map(|a| a.mapping().clone()).collect();
    let plan = ExecPlan::inspect(&prog.arrays, &stmt).unwrap();
    let ghosts = ghost_regions(&maps, np, &stmt);
    for (pp, g) in plan.per_proc().iter().zip(&ghosts) {
        assert_eq!(pp.ghost_elements(), g.volume, "{}", pp.proc);
    }
    assert_eq!(plan.ghost_elements() as u64, plan.analysis().remote_reads);

    prog.push(stmt.clone()).unwrap();
    let mut sess = Session::new(prog);
    let timesteps = 25u64;
    for _ in 0..timesteps {
        let expect = dense_reference(&sess.program().arrays, &stmt);
        sess.run(1).unwrap();
        assert_eq!(sess.program().arrays[0].to_dense(), expect);
    }
    assert_eq!(sess.program().cache_misses(), 1, "one inspection for the whole loop");
    assert_eq!(sess.program().cache_hits(), timesteps - 1);
}

/// The point of strided runs: between a `BLOCK` and a `CYCLIC(1)` array the
/// schedule, the coalesced segments and the dirty-tracking units are
/// counted in processor pairs, whatever the extent — in both directions.
#[test]
fn block_cyclic_exchange_costs_a_schedule_per_pair_not_per_element() {
    let n = 65_536usize;
    for np in [2usize, 4] {
        let arrays = vec![
            DistArray::from_fn("A", mapping_of(0, n, np, 0), np, |i| i[0] as f64),
            DistArray::from_fn("B", mapping_of(2, n, np, 0), np, |i| (i[0] * 3) as f64),
        ];
        let doms: Vec<&IndexDomain> = arrays.iter().map(|a| a.domain()).collect();
        let whole = || Section::from_triplets(vec![span(1, n as i64)]);
        for (lhs, rhs) in [(0, 1), (1, 0)] {
            let stmt =
                Assignment::new(lhs, whole(), vec![Term::new(rhs, whole())], Combine::Copy, &doms)
                    .unwrap();
            let plan = ExecPlan::inspect(&arrays, &stmt).unwrap();
            assert!(plan.schedule_runs() <= 4 * np * np, "{} runs", plan.schedule_runs());
            assert!(plan.schedule_bytes() < 8 * 1024, "{} bytes", plan.schedule_bytes());
            assert_eq!(plan.schedule_elements(), 2 * n);
            let fused = ProgramPlan::compile(
                std::slice::from_ref(&stmt),
                vec![Arc::new(plan)],
                true,
            );
            let units = fused.segments().count();
            assert!(units <= 2 * np * np, "{units} units");
            assert_eq!(fused.pairs().len(), np * (np - 1), "one message per ordered pair");
            assert!(fused.pairs().iter().all(|p| p.segments.len() == 1));
        }
    }
}
