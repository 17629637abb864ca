//! The paper's tables E1–E10 with their claims checked ([`paper`], printed
//! by the `repro` binary), the mappings and statements they are built from,
//! and the replay workloads the `bench_gate` perf gate measures
//! ([`replay`]).

#![forbid(unsafe_code)]

pub mod paper;

use hpf_core::{
    AlignExpr, AlignSpec, DataSpace, DistributeSpec, EffectiveDist, FormatSpec,
};
use hpf_index::{span, IndexDomain, Section};
use hpf_runtime::{Assignment, Combine, Term};
use hpf_template::TemplateModel;
use std::sync::Arc;

/// A named mapping scheme for the staggered-grid experiment (E2).
pub enum StaggeredScheme {
    /// Template `T(0:2N,0:2N)` distributed with the given formats.
    Template(Vec<FormatSpec>),
    /// Template `T(0:N,0:N)` (the "size (N+1,N+1)" alternative of §8.1.1).
    SmallTemplate(Vec<FormatSpec>),
    /// Direct distribution of U, V, P with the given per-dim format.
    Direct(FormatSpec),
}

/// Build the §8.1.1 mappings `[P, U, V]` for a scheme over an
/// `np_side × np_side` grid.
pub fn staggered_mappings(
    n: i64,
    np_side: usize,
    scheme: &StaggeredScheme,
) -> Vec<Arc<EffectiveDist>> {
    let np = np_side * np_side;
    let d = AlignExpr::dummy;
    match scheme {
        StaggeredScheme::Template(formats) | StaggeredScheme::SmallTemplate(formats) => {
            // T(0:2N,0:2N) puts P, U and V on odd and even positions (s = 2);
            // the (N+1,N+1) template collocates them (s = 1)
            let s = if matches!(scheme, StaggeredScheme::Template(_)) { 2 } else { 1 };
            let mut m = TemplateModel::new(np);
            m.declare_processors("G", IndexDomain::of_shape(&[np_side, np_side]).unwrap())
                .unwrap();
            let t = m.template("T", IndexDomain::standard(&[(0, s * n); 2]).unwrap()).unwrap();
            let p = m.array("P", IndexDomain::standard(&[(1, n), (1, n)]).unwrap()).unwrap();
            let u = m.array("U", IndexDomain::standard(&[(0, n), (1, n)]).unwrap()).unwrap();
            let v = m.array("V", IndexDomain::standard(&[(1, n), (0, n)]).unwrap()).unwrap();
            // (I, J) → (s·I − di, s·J − dj)
            let at = |di, dj| AlignSpec::with_exprs(2, vec![d(0) * s - di, d(1) * s - dj]);
            let o = s - 1;
            m.align(p, t, &at(o, o)).unwrap();
            m.align(u, t, &at(0, o)).unwrap();
            m.align(v, t, &at(o, 0)).unwrap();
            m.distribute(t, &DistributeSpec::to(formats.clone(), "G")).unwrap();
            vec![m.resolve(p).unwrap(), m.resolve(u).unwrap(), m.resolve(v).unwrap()]
        }
        StaggeredScheme::Direct(fmt) => {
            let mut ds = DataSpace::new(np);
            ds.declare_processors("G", IndexDomain::of_shape(&[np_side, np_side]).unwrap())
                .unwrap();
            let p = ds.declare("P", IndexDomain::standard(&[(1, n), (1, n)]).unwrap()).unwrap();
            let u = ds.declare("U", IndexDomain::standard(&[(0, n), (1, n)]).unwrap()).unwrap();
            let v = ds.declare("V", IndexDomain::standard(&[(1, n), (0, n)]).unwrap()).unwrap();
            for id in [p, u, v] {
                ds.distribute(id, &DistributeSpec::to(vec![fmt.clone(), fmt.clone()], "G"))
                    .unwrap();
            }
            vec![ds.effective(p).unwrap(), ds.effective(u).unwrap(), ds.effective(v).unwrap()]
        }
    }
}

/// The §8.1.1 statement `P = U(0:N-1,:) + U(1:N,:) + V(:,0:N-1) + V(:,1:N)`
/// over mappings `[P, U, V]`.
pub fn staggered_statement(n: i64, maps: &[Arc<EffectiveDist>]) -> Assignment {
    let doms: Vec<&IndexDomain> = maps.iter().map(|m| m.domain()).collect();
    Assignment::new(
        0,
        Section::from_triplets(vec![span(1, n), span(1, n)]),
        vec![
            Term::new(1, Section::from_triplets(vec![span(0, n - 1), span(1, n)])),
            Term::new(1, Section::from_triplets(vec![span(1, n), span(1, n)])),
            Term::new(2, Section::from_triplets(vec![span(1, n), span(0, n - 1)])),
            Term::new(2, Section::from_triplets(vec![span(1, n), span(1, n)])),
        ],
        Combine::Sum,
        &doms,
    )
    .expect("conforming")
}

/// A 1-D mapping with the given format over `np` processors.
pub fn mapping_1d(n: usize, np: usize, fmt: FormatSpec) -> Arc<EffectiveDist> {
    let mut ds = DataSpace::new(np);
    let a = ds.declare("A", IndexDomain::of_shape(&[n]).unwrap()).unwrap();
    ds.distribute(a, &DistributeSpec::new(vec![fmt])).unwrap();
    ds.effective(a).unwrap()
}

/// Triangular workload weights: position `i` costs `i`.
pub fn triangular_weights(n: usize) -> Vec<u64> {
    (1..=n as u64).collect()
}

/// Random workload weights in `[1, max_w]`, deterministic per seed.
pub fn random_weights(n: usize, max_w: u64, seed: u64) -> Vec<u64> {
    use rand::{RngExt, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.random_range(1..=max_w)).collect()
}

/// The replay workloads the `bench_gate` perf gate measures: its b13–b16
/// entry sets are built from these and nothing else.
pub mod replay {
    use hpf_core::{DataSpace, DistributeSpec, FormatSpec};
    use hpf_index::{span, IndexDomain, Section};
    use hpf_runtime::{
        Assignment, Backend, Combine, DistArray, ExecPlan, Program, Session, Term,
    };

    /// A session over the one-statement program `stmt` on `backend` — how
    /// the per-statement entries (b13, b14) drive a statement. Compiled
    /// unfused: no workload here ever writes its operands, so the fused
    /// plan's dirty tracking would ship the ghosts once and then skip the
    /// exchange these entries exist to time; unfused ships it every step.
    pub fn statement_session(
        arrays: Vec<DistArray<f64>>,
        stmt: &Assignment,
        backend: Backend,
    ) -> Session {
        let mut prog = Program::new(arrays);
        prog.push(stmt.clone()).expect("conforming statement");
        Session::new(prog).backend(backend).fused(false)
    }

    /// Two 1-D arrays of extent `n`, both distributed with `fmt`.
    pub fn arrays_1d(n: i64, np: usize, fmt: &FormatSpec) -> Vec<DistArray<f64>> {
        let mut ds = DataSpace::new(np);
        let a = ds.declare("A", IndexDomain::standard(&[(1, n)]).unwrap()).unwrap();
        let b = ds.declare("B", IndexDomain::standard(&[(1, n)]).unwrap()).unwrap();
        for id in [a, b] {
            ds.distribute(id, &DistributeSpec::new(vec![fmt.clone()])).unwrap();
        }
        vec![
            DistArray::from_fn("A", ds.effective(a).unwrap(), np, |i| i[0] as f64),
            DistArray::from_fn("B", ds.effective(b).unwrap(), np, |i| (i[0] * 3) as f64),
        ]
    }

    /// `A(2:N) = B(1:N-1)` — the 1-D shift.
    pub fn shift_1d(n: i64, arrays: &[DistArray<f64>]) -> Assignment {
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

    /// Two `n × n` arrays over an `np_side × np_side` grid, both
    /// distributed `(fmt, fmt)`.
    pub fn arrays_2d(n: i64, np_side: usize, fmt: &FormatSpec) -> Vec<DistArray<f64>> {
        let np = np_side * np_side;
        let mut ds = DataSpace::new(np);
        ds.declare_processors("G", IndexDomain::of_shape(&[np_side, np_side]).unwrap())
            .unwrap();
        let p = ds.declare("P", IndexDomain::standard(&[(1, n), (1, n)]).unwrap()).unwrap();
        let u = ds.declare("U", IndexDomain::standard(&[(1, n), (1, n)]).unwrap()).unwrap();
        for id in [p, u] {
            ds.distribute(id, &DistributeSpec::to(vec![fmt.clone(), fmt.clone()], "G"))
                .unwrap();
        }
        vec![
            DistArray::new("P", ds.effective(p).unwrap(), np, 0.0),
            DistArray::from_fn("U", ds.effective(u).unwrap(), np, |i| {
                (i[0] * 100 + i[1]) as f64
            }),
        ]
    }

    /// The 2-D 5-point stencil sum over `P(2:N-1, 2:N-1)`.
    pub fn stencil_2d(n: i64, arrays: &[DistArray<f64>]) -> Assignment {
        let doms: Vec<&IndexDomain> = arrays.iter().map(|a| a.domain()).collect();
        Assignment::new(
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
        .unwrap()
    }

    /// The same statement as [`stencil_2d`] written by hand over two dense
    /// column-major `n × n` arrays — the "no abstraction" reference the
    /// `stencil_2d_block_vs_dense_loop` gate entry divides by. Terms are
    /// added in the statement's order, so the values match bit for bit.
    pub fn dense_stencil_step(n: usize, p: &mut [f64], u: &[f64]) {
        assert!(p.len() == n * n && u.len() == n * n && n >= 3);
        for j in 1..n - 1 {
            let (west, mid, east) =
                (&u[(j - 1) * n..j * n], &u[j * n..(j + 1) * n], &u[(j + 1) * n..(j + 2) * n]);
            let out = &mut p[j * n..(j + 1) * n];
            for i in 1..n - 1 {
                out[i] = mid[i - 1] + mid[i + 1] + west[i] + east[i];
            }
        }
    }

    /// Block array reading a CYCLIC(1) array over the full domain: every
    /// cyclic period scatters across all processors — the worst case for
    /// coalescing, the analogue of a transpose's all-to-all.
    pub fn cyclic_transpose(n: i64, np: usize) -> (Vec<DistArray<f64>>, Assignment) {
        let mut ds = DataSpace::new(np);
        let a = ds.declare("A", IndexDomain::standard(&[(1, n)]).unwrap()).unwrap();
        let b = ds.declare("B", IndexDomain::standard(&[(1, n)]).unwrap()).unwrap();
        ds.distribute(a, &DistributeSpec::new(vec![FormatSpec::Block])).unwrap();
        ds.distribute(b, &DistributeSpec::new(vec![FormatSpec::Cyclic(1)])).unwrap();
        let arrays = vec![
            DistArray::from_fn("A", ds.effective(a).unwrap(), np, |i| i[0] as f64),
            DistArray::from_fn("B", ds.effective(b).unwrap(), np, |i| (i[0] * 7) as f64),
        ];
        let doms: Vec<&IndexDomain> = arrays.iter().map(|x| x.domain()).collect();
        let stmt = Assignment::new(
            0,
            Section::from_triplets(vec![span(1, n)]),
            vec![Term::new(1, Section::from_triplets(vec![span(1, n)]))],
            Combine::Copy,
            &doms,
        )
        .unwrap();
        (arrays, stmt)
    }

    /// Elements computed per replay of `plan`.
    pub fn replay_elements(plan: &ExecPlan) -> usize {
        plan.per_proc().iter().map(|pp| pp.volume).sum()
    }

    /// The b16 adaptive-redistribution workload: a deposit sweep confined
    /// to the first quarter of two BLOCK-distributed arrays, gathering 48
    /// cells upwind.
    ///
    /// ```text
    /// RHO(50:N/4) = RHO(2:N/4-48) + SRC(50:N/4)
    /// ```
    ///
    /// Under BLOCK one of the `np` processors does all the work; the wide
    /// gather makes CYCLIC re-blocking price out (most reads would cross
    /// block boundaries), so the adaptive controller's winning candidate
    /// is the load-fitted `GENERAL_BLOCK` — the §4.1.2 format the paper
    /// motivates by exactly this workload class.
    pub fn adaptive_hotspot(n: i64, np: usize) -> (Vec<DistArray<f64>>, Vec<Assignment>) {
        let reach = 48;
        let hot = n / 4;
        let mut ds = DataSpace::new(np);
        let rho = ds.declare("RHO", IndexDomain::standard(&[(1, n)]).unwrap()).unwrap();
        let src = ds.declare("SRC", IndexDomain::standard(&[(1, n)]).unwrap()).unwrap();
        for id in [rho, src] {
            ds.distribute(id, &DistributeSpec::new(vec![FormatSpec::Block])).unwrap();
            ds.set_dynamic(id);
        }
        let arrays = vec![
            DistArray::from_fn("RHO", ds.effective(rho).unwrap(), np, |i| i[0] as f64),
            DistArray::from_fn("SRC", ds.effective(src).unwrap(), np, |i| {
                (i[0] % 7) as f64
            }),
        ];
        let doms: Vec<&IndexDomain> = arrays.iter().map(|a| a.domain()).collect();
        let stmts = vec![Assignment::new(
            0,
            Section::from_triplets(vec![span(reach + 2, hot)]),
            vec![
                Term::new(0, Section::from_triplets(vec![span(2, hot - reach)])),
                Term::new(1, Section::from_triplets(vec![span(reach + 2, hot)])),
            ],
            Combine::Sum,
            &doms,
        )
        .unwrap()];
        (arrays, stmts)
    }

    /// The b15 program-fusion timestep: three independent statements in
    /// one superstep over BLOCK state arrays `U`, `V`, `W` and a
    /// CYCLIC(1) coefficient array `C` that is *never written*.
    ///
    /// ```text
    /// U(2:N-1) = (U(1:N-2) + U(3:N)) / 2     ! stencil: ghosts stay hot
    /// V(2:N-1) = V(2:N-1) + C(1:N-2)         ! cyclic reads: all-to-all
    /// W(2:N-1) = W(2:N-1) + C(3:N)           ! same pairs → coalesce
    /// ```
    ///
    /// The cyclic `C` reads dominate the wire; both consumers share every
    /// `(sender, receiver)` pair, so fusion coalesces their messages —
    /// and since no statement writes `C`, every one of those segments is
    /// clean after the cold timestep and warm fused replays skip the
    /// entire all-to-all, leaving only the stencil's boundary ghosts.
    pub fn fusion_timestep(
        n: i64,
        np: usize,
    ) -> (Vec<DistArray<f64>>, Vec<Assignment>) {
        let mut ds = DataSpace::new(np);
        let ids: Vec<_> = ["U", "V", "W", "C"]
            .iter()
            .map(|name| {
                ds.declare(name, IndexDomain::standard(&[(1, n)]).unwrap()).unwrap()
            })
            .collect();
        for (k, &id) in ids.iter().enumerate() {
            let fmt = if k == 3 { FormatSpec::Cyclic(1) } else { FormatSpec::Block };
            ds.distribute(id, &DistributeSpec::new(vec![fmt])).unwrap();
        }
        let arrays: Vec<DistArray<f64>> = ids
            .iter()
            .enumerate()
            .map(|(k, &id)| {
                let name = ["U", "V", "W", "C"][k];
                DistArray::from_fn(name, ds.effective(id).unwrap(), np, move |i| {
                    (i[0] * (k as i64 + 1) % 101) as f64
                })
            })
            .collect();
        let doms: Vec<&IndexDomain> = arrays.iter().map(|a| a.domain()).collect();
        let mid = Section::from_triplets(vec![span(2, n - 1)]);
        let lo = Section::from_triplets(vec![span(1, n - 2)]);
        let hi = Section::from_triplets(vec![span(3, n)]);
        let stmts = vec![
            Assignment::new(
                0,
                mid.clone(),
                vec![Term::new(0, lo.clone()), Term::new(0, hi.clone())],
                Combine::Average,
                &doms,
            )
            .unwrap(),
            Assignment::new(
                1,
                mid.clone(),
                vec![Term::new(1, mid.clone()), Term::new(3, lo)],
                Combine::Sum,
                &doms,
            )
            .unwrap(),
            Assignment::new(
                2,
                mid.clone(),
                vec![Term::new(2, mid), Term::new(3, hi)],
                Combine::Sum,
                &doms,
            )
            .unwrap(),
        ];
        (arrays, stmts)
    }
}
