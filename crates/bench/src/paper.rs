//! The paper's evidence as checked tables.
//!
//! Each function `e1` … `e10` computes one experiment table once, as typed
//! rows, and states the paper's claims about it as predicates over those
//! rows. A [`Table`] prints its rows and then every claim with ✓ or ✗; the
//! `repro` binary prints the tables, and the test suite `paper_claims`
//! asserts every claim over every row of its sweep.

use crate::replay::statement_session;
use crate::{mapping_1d, random_weights, staggered_mappings, staggered_statement};
use crate::{triangular_weights, StaggeredScheme};
use hpf_core::inquiry::{self, MappingKind};
use hpf_core::{
    Actual, AlignExpr, AlignSpec, AligneeAxis, ArrayId, BaseSubscript, CallFrame, DataSpace,
    DistributeSpec, Dummy, DummySpec, EffectiveDist, FormatSpec, GeneralBlock, HpfError,
    ProcedureDef, RemapPhase,
};
use hpf_frontend::Elaborator;
use hpf_index::{span, triplet, Idx, IndexDomain, Section};
use hpf_machine::{CostModel, Machine, Topology};
use hpf_procs::{ProcId, ProcSpace, ScalarPolicy};
use hpf_runtime::{
    comm_analysis, dense_reference, ghost_regions, Assignment, Backend, CommAnalysis, Combine,
    DistArray, Term,
};
use hpf_template::TemplateModel;
use std::collections::BTreeSet;
use std::fmt;

/// A table's id and the function that computes it.
pub type Experiment = (&'static str, fn() -> Table);

/// Every table by id, in the paper's order.
pub const TABLES: [Experiment; 10] = [
    ("e1", e1), ("e2", e2), ("e3", e3), ("e4", e4), ("e5", e5),
    ("e6", e6), ("e7", e7), ("e8", e8), ("e9", e9), ("e10", e10),
];

/// One experiment: its rows as printed, and the claims checked over them.
pub struct Table {
    /// The heading: experiment id, paper section, setting.
    pub title: &'static str,
    /// The rows as printed.
    pub lines: Vec<String>,
    /// The paper's claims about the rows.
    pub claims: Vec<Claim>,
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}\n\n{}\n\nclaims:", self.title, self.lines.join("\n").trim_start())?;
        for c in &self.claims {
            match &c.counterexample {
                None => writeln!(f, "  ✓ {}", c.text)?,
                Some(row) => writeln!(f, "  ✗ {}\n      fails on: {row}", c.text)?,
            }
        }
        Ok(())
    }
}

/// A claim of the paper, checked over a table's rows.
pub struct Claim {
    /// The claim as the table states it.
    pub text: &'static str,
    /// The first row the claim fails on, if any.
    pub counterexample: Option<String>,
}

impl Claim {
    /// True iff the claim holds on every row.
    pub fn holds(&self) -> bool {
        self.counterexample.is_none()
    }
}

/// The claim `text`, which holds iff `pred` accepts every row.
fn every<R: fmt::Debug>(text: &'static str, rows: &[R], pred: impl Fn(&R) -> bool) -> Claim {
    Claim { text, counterexample: rows.iter().find(|r| !pred(r)).map(|r| format!("{r:?}")) }
}

fn declare(ds: &mut DataSpace, name: &str, bounds: &[(i64, i64)]) -> ArrayId {
    ds.declare(name, IndexDomain::standard(bounds).unwrap()).unwrap()
}

/// The 1-D section `lo:hi`.
fn sec(lo: i64, hi: i64) -> Section {
    Section::from_triplets(vec![span(lo, hi)])
}

/// The owner of each element `1..=n` of a 1-D, unreplicated mapping.
fn owners_1d(map: &EffectiveDist, n: usize) -> Vec<u32> {
    (1..=n as i64).map(|i| map.owner(&Idx::d1(i)).0).collect()
}

fn mesh(side: usize) -> Machine {
    Machine::new(side * side, Topology::Mesh2D { rows: side, cols: side }, CostModel::default())
}

/// `CALL SUB(A(2:996:2))` with `A(1000)` CYCLIC(3) over 4 processors, and
/// SUB's dummy `X` mapped by `spec` (§8.1.2).
fn call_sub(spec: DummySpec) -> Result<CallFrame, HpfError> {
    let mut ds = DataSpace::new(4);
    let a = declare(&mut ds, "A", &[(1, 1000)]);
    ds.distribute(a, &DistributeSpec::new(vec![FormatSpec::Cyclic(3)])).unwrap();
    let def = ProcedureDef::new("SUB", vec![Dummy::new("X", spec)]);
    let actual = Actual::section(a, Section::from_triplets(vec![triplet(2, 996, 2)]));
    CallFrame::enter(&ds, &def, &[actual])
}

// ---------------------------------------------------------------- E1

#[derive(Debug)]
struct OwnerRow {
    format: FormatSpec,
    owners: Vec<u32>,
    /// What §4.1's formula gives.
    formula: Vec<u32>,
}

/// E1 (§4.1): the formats place elements as the formulas say.
pub fn e1() -> Table {
    let (n, np) = (16u32, 4u32);
    let g = [0, 2, 9, 12, n];
    let formula = |f: &dyn Fn(u32) -> u32| (1..=n).map(f).collect::<Vec<u32>>();
    let block_of = |i, end: &dyn Fn(u32) -> u32| (1..=np).find(|&p| i <= end(p)).unwrap();
    let small: Vec<OwnerRow> = [
        (FormatSpec::Block, formula(&|i| i.div_ceil(n.div_ceil(np)))),
        // the first N mod NP blocks are one longer
        (
            FormatSpec::BlockBalanced,
            formula(&|i| block_of(i, &|p| p * (n / np) + p.min(n % np))),
        ),
        (FormatSpec::Cyclic(1), formula(&|i| (i - 1) % np + 1)),
        (FormatSpec::Cyclic(3), formula(&|i| (i - 1) / 3 % np + 1)),
        (FormatSpec::GeneralBlock(vec![2, 9, 12]), formula(&|i| block_of(i, &|p| g[p as usize]))),
    ]
    .into_iter()
    .map(|(format, formula)| {
        let owners = owners_1d(&mapping_1d(n as usize, np as usize, format.clone()), n as usize);
        OwnerRow { format, owners, formula }
    })
    .collect();

    let (big_n, big_np) = (1_000_000usize, 32usize);
    // (format, elements on each processor)
    let big: Vec<(FormatSpec, Vec<usize>)> =
        [FormatSpec::Block, FormatSpec::BlockBalanced, FormatSpec::Cyclic(8)]
            .into_iter()
            .map(|format| {
                let map = mapping_1d(big_n, big_np, format.clone());
                let count = |p| map.owned_region(ProcId(p)).volume_disjoint();
                (format, (1..=big_np as u32).map(count).collect())
            })
            .collect();

    let weights = triangular_weights(100_000);
    let gb = GeneralBlock::balanced(&weights, 8).unwrap();
    let (bottleneck, ideal) = (gb.bottleneck(&weights), weights.iter().sum::<u64>().div_ceil(8));

    let elements: String = (1..=n).map(|i| format!("{i:>3}")).collect();
    let mut lines = vec![format!("{:<24}{elements}", "element")];
    for r in &small {
        let owners: String = r.owners.iter().map(|o| format!("{o:>3}")).collect();
        lines.push(format!("{:<24}{owners}", r.format.to_string()));
    }
    lines.push(format!("\nper-processor element counts at N = {big_n}, NP = {big_np}:"));
    let min_max = |c: &[usize]| (*c.iter().min().unwrap(), *c.iter().max().unwrap());
    for (format, counts) in &big {
        let ((min, max), total) = (min_max(counts), counts.iter().sum::<usize>());
        let format = format.to_string();
        lines.push(format!("  {format:<16} min {min:>7}  max {max:>7}  total {total}"));
    }
    lines.push("\nbalanced GENERAL_BLOCK on triangular weights (N = 10^5, NP = 8):".into());
    let bounds: Vec<i64> = (1..8).map(|j| gb.bound(j)).collect();
    lines.push(format!("  bounds G = {bounds:?}\n  bottleneck = {bottleneck} (ideal = {ideal})"));

    let q = big_n.div_ceil(big_np);
    Table {
        title: "E1 — §4.1 distribution formats, N = 16, NP = 4",
        lines,
        claims: vec![
            every("each format places element i where §4.1's formula says", &small, |r| {
                r.formula == r.owners
            }),
            every(
                "at N = 10^6 each format places every element once; BLOCK gives processor p \
                 min(q, N − (p−1)q), BLOCK_BALANCED's counts differ by ≤ 1, CYCLIC(8)'s by ≤ 8",
                &big,
                |(format, counts)| {
                    let (min, max) = min_max(counts);
                    counts.iter().sum::<usize>() == big_n
                        && match format {
                            FormatSpec::Block => counts.iter().enumerate().all(|(p, &c)| {
                                c == q.min(big_n.saturating_sub(p * q))
                            }),
                            FormatSpec::BlockBalanced => max - min <= 1,
                            _ => max - min <= 8,
                        }
                },
            ),
            every(
                "balanced GENERAL_BLOCK's bottleneck is under the ideal share plus one weight",
                &[(ideal, bottleneck, *weights.iter().max().unwrap())],
                |&(ideal, b, w)| ideal <= b && b < ideal + w,
            ),
        ],
    }
}

// ---------------------------------------------------------------- E2

#[derive(Debug)]
struct StaggeredRow {
    side: usize,
    n: i64,
    scheme: &'static str,
    msgs: usize,
    elements: u64,
    local: u64,
    remote: u64,
    /// Σ over processors of the ghost-region volumes (direct schemes).
    ghosts: Option<u64>,
}

impl StaggeredRow {
    fn remote_fraction(&self) -> f64 {
        self.remote as f64 / (self.local + self.remote) as f64
    }
}

const BALANCED: &str = "direct (BLOCK_BAL,BLOCK_BAL)";

/// E2 (§8.1.1): the staggered grid under templates and direct mappings.
pub fn e2() -> Table {
    let two = |f: FormatSpec| vec![f.clone(), f];
    let schemes = [
        ("template2N (CYCLIC,CYCLIC)", StaggeredScheme::Template(two(FormatSpec::Cyclic(1)))),
        ("template2N (BLOCK,BLOCK)", StaggeredScheme::Template(two(FormatSpec::Block))),
        ("templateN+1 (BLOCK,BLOCK)", StaggeredScheme::SmallTemplate(two(FormatSpec::Block))),
        ("direct (BLOCK,BLOCK)", StaggeredScheme::Direct(FormatSpec::Block)),
        (BALANCED, StaggeredScheme::Direct(FormatSpec::BlockBalanced)),
    ];
    let (mut rows, mut lines) = (Vec::new(), Vec::new());
    for (side, sizes) in [(2usize, &[16i64, 64, 256, 1024][..]), (4, &[64, 256, 1024])] {
        let np = side * side;
        for &n in sizes {
            lines.push(format!("\nN = {n}, NP = {np} ({side}x{side} mesh)"));
            let [s, m, e, r, t] = ["scheme", "msgs", "elements", "remote%", "est.time"];
            lines.push(format!("{s:<28} {m:>8} {e:>12} {r:>10} {t:>14}"));
            for (scheme, mapping) in &schemes {
                let maps = staggered_mappings(n, side, mapping);
                let stmt = staggered_statement(n, &maps);
                let a = comm_analysis(&maps, np, &stmt);
                let report = mesh(side).superstep_time(&a.loads, &a.comm);
                let ghosts = matches!(mapping, StaggeredScheme::Direct(_))
                    .then(|| ghost_regions(&maps, np, &stmt).iter().map(|g| g.volume as u64).sum());
                let (msgs, elements) = (report.messages, report.elements);
                let (local, remote) = (a.local_reads, a.remote_reads);
                let (share, time) = (a.remote_fraction() * 100.0, report.total_time());
                lines.push(format!(
                    "{scheme:<28} {msgs:>8} {elements:>12} {share:>9.1}% {time:>12.1}µs"
                ));
                rows.push(StaggeredRow { side, n, scheme, msgs, elements, local, remote, ghosts });
            }
        }
    }

    let balanced = |r: &StaggeredRow| {
        rows.iter().find(|s| (s.side, s.n, s.scheme) == (r.side, r.n, BALANCED)).unwrap()
    };
    let of = |k: usize| rows.iter().filter(|r| r.scheme == schemes[k].0).collect::<Vec<_>>();
    let direct: Vec<&StaggeredRow> = rows.iter().filter(|r| r.ghosts.is_some()).collect();
    Table {
        title: "E2 — §8.1.1 staggered grid: P = U(0:N-1,:) + U(1:N,:) + V(:,0:N-1) + V(:,1:N)",
        lines,
        claims: vec![
            every(
                "(CYCLIC,CYCLIC) template → 100% remote operand reads at every size \
                 (\"the worst possible effect\")",
                &of(0),
                |r| r.local == 0 && r.remote > 0,
            ),
            every(
                "direct blocks move only block-boundary ghosts: one message per interior \
                 boundary and staggered array, carrying exactly the ghost regions",
                &direct,
                |r| r.msgs == 2 * r.side * (r.side - 1) && r.ghosts == Some(r.elements),
            ),
            every("direct blocks' remote share falls as N grows (surface-to-volume)", &direct, |r| {
                let larger = |s: &&&StaggeredRow| (s.side, s.scheme) == (r.side, r.scheme) && s.n > r.n;
                direct.iter().filter(larger).all(|s| s.remote_fraction() < r.remote_fraction())
            }),
            every(
                "the (N+1)-template moves exactly what direct BLOCK_BALANCED moves (messages, \
                 elements, remote reads) on every row: the template added nothing",
                &of(2),
                |r| {
                    let b = balanced(r);
                    (r.msgs, r.elements, r.remote) == (b.msgs, b.elements, b.remote)
                },
            ),
            every(
                "direct HPF (BLOCK,BLOCK)'s excess over them is the §8.1.1 footnote's drift: \
                 2N × E9's 1-D excess at NP = mesh side",
                &of(3),
                |r| {
                    let drift = stencil_1d(r.n, r.side, FormatSpec::Block).remote_reads
                        - stencil_1d(r.n, r.side, FormatSpec::BlockBalanced).remote_reads;
                    r.elements - balanced(r).elements == 2 * r.n as u64 * drift
                },
            ),
        ],
    }
}

// ---------------------------------------------------------------- E3

/// E3 (§7, §8.1.2): what each dummy mapping mode moves across a call.
pub fn e3() -> Table {
    let dist = |f: FormatSpec| DistributeSpec::new(vec![f]);
    let explicit = |f| DummySpec::Explicit(dist(f));
    let matched = |f, i| DummySpec::InheritMatching { spec: dist(f), interface_block: i };
    // (mode, elements moved on entry, on exit)
    let rows: Vec<(&str, usize, usize)> = [
        ("DISTRIBUTE X *              (inherit)", DummySpec::Inherit),
        ("DISTRIBUTE X (BLOCK)        (explicit)", explicit(FormatSpec::Block)),
        ("DISTRIBUTE X (CYCLIC(3))    (explicit)", explicit(FormatSpec::Cyclic(3))),
        ("DISTRIBUTE X *(CYCLIC(3))   (match+iface)", matched(FormatSpec::Cyclic(3), true)),
        ("(no directive)              (implicit)", DummySpec::Implicit),
    ]
    .into_iter()
    .map(|(mode, spec)| {
        let frame = call_sub(spec).unwrap();
        let entering = frame.events().iter().filter(|e| e.phase == RemapPhase::Enter);
        let enter = entering.map(|e| e.volume).sum();
        (mode, enter, frame.exit().unwrap().total_volume() - enter)
    })
    .collect();
    let strict = call_sub(matched(FormatSpec::Block, false)).err().map(|e| e.to_string());

    let [m, i, o, t] = ["dummy mapping mode", "enter", "exit", "total"];
    let mut lines = vec![format!("{m:<46} {i:>10} {o:>10} {t:>10}")];
    for (mode, enter, exit) in &rows {
        lines.push(format!("{mode:<46} {enter:>10} {exit:>10} {:>10}", enter + exit));
    }
    lines.push("\nstrict matching without an interface block (§7 case 3):".into());
    lines.push(format!("  {}", strict.as_deref().unwrap_or("accepted")));

    Table {
        title: "E3 — §8.1.2: A(1000) CYCLIC(3) over 4 processors; CALL SUB(A(2:996:2))",
        lines,
        claims: vec![
            every(
                "inheriting (DISTRIBUTE X *) and the implicit mode move nothing",
                &[rows[0], rows[4]],
                |&(_, enter, exit)| enter + exit == 0,
            ),
            every(
                "an explicit or matched mapping moves part of the 498-element section in on \
                 entry and the same back on exit",
                &rows[1..4],
                |&(_, enter, exit)| enter == exit && 0 < enter && enter <= 498,
            ),
            every(
                "matching with an interface block moves what explicit CYCLIC(3) moves",
                &[rows[3]],
                |&(_, enter, exit)| (enter, exit) == (rows[2].1, rows[2].2),
            ),
            every(
                "strict matching without an interface block is rejected as non-conforming",
                &[strict],
                |e| e.as_ref().is_some_and(|e| e.starts_with("§7(3)")),
            ),
        ],
    }
}

// ---------------------------------------------------------------- E4

#[derive(Debug)]
struct BalanceRow {
    workload: &'static str,
    n: usize,
    np: usize,
    scheme: &'static str,
    imbalance: f64,
    /// Elements the sweep `A(2:N) = A(1:N-1)` moves.
    swept: u64,
}

/// E4 (§1, §4.1.2): GENERAL_BLOCK balances load at block-sweep traffic.
pub fn e4() -> Table {
    let (mut rows, mut lines) = (Vec::new(), Vec::new());
    for np in [8usize, 64] {
        let ring = Machine::new(np, Topology::Ring, CostModel::default());
        for (workload, weights) in [
            ("triangular (weight i)", triangular_weights(100_000)),
            ("random [1,1000]", random_weights(100_000, 1000, 7)),
        ] {
            let (n, last) = (weights.len(), weights.len() as i64);
            lines.push(format!("\nworkload = {workload}, N = {n}, NP = {np} (ring)"));
            let [s, l, i, c, t] = ["scheme", "max load", "imbalance", "comm elems", "est. µs"];
            lines.push(format!("  {s:<16} {l:>14} {i:>11} {c:>12} {t:>10}"));
            let gb = GeneralBlock::balanced(&weights, np).unwrap();
            for (scheme, format) in [
                ("BLOCK", FormatSpec::Block),
                ("BLOCK_BALANCED", FormatSpec::BlockBalanced),
                ("CYCLIC", FormatSpec::Cyclic(1)),
                ("GENERAL_BLOCK", FormatSpec::GeneralBlock((1..np).map(|j| gb.bound(j)).collect())),
            ] {
                let map = mapping_1d(n, np, format);
                let weight = |i: Idx| weights[i[0] as usize - 1];
                let load = |p| map.owned_region(ProcId(p)).iter().map(weight).sum::<u64>();
                let loads: Vec<u64> = (1..=np as u32).map(load).collect();
                let shift = vec![Term::new(0, sec(1, last - 1))];
                let stmt = Assignment::new(0, sec(2, last), shift, Combine::Copy, &[map.domain()]);
                let comm = comm_analysis(&[map], np, &stmt.unwrap()).comm;
                let rep = ring.superstep_time(&loads, &comm);
                let (max_load, swept) = (*loads.iter().max().unwrap(), comm.total_elements());
                let (imbalance, time) = (rep.imbalance, rep.total_time());
                lines.push(format!(
                    "  {scheme:<16} {max_load:>14} {imbalance:>10.2}x {swept:>12} {time:>10.0}"
                ));
                rows.push(BalanceRow { workload, n, np, scheme, imbalance, swept });
            }
        }
    }

    let of = |scheme| rows.iter().filter(|r| r.scheme == scheme).collect::<Vec<&BalanceRow>>();
    let (general, cyclic) = (of("GENERAL_BLOCK"), of("CYCLIC"));
    Table {
        title: "E4 — GENERAL_BLOCK \"is important for the support of load balancing\"",
        lines,
        claims: vec![
            every(
                "GENERAL_BLOCK reaches CYCLIC-grade balance: imbalance ≤ 1.01 and ≤ CYCLIC's",
                &general,
                |g| {
                    let c = cyclic.iter().find(|c| (c.workload, c.np) == (g.workload, g.np));
                    g.imbalance <= 1.01 && g.imbalance <= c.unwrap().imbalance
                },
            ),
            every("GENERAL_BLOCK's sweep moves exactly NP − 1 boundary elements", &general, |g| {
                g.swept == g.np as u64 - 1
            }),
            every("CYCLIC's sweep moves N − 1 elements", &cyclic, |c| c.swept == c.n as u64 - 1),
        ],
    }
}

// ---------------------------------------------------------------- E5

/// E5 (§6): the allocatable example, and the BLOCK→CYCLIC churn sweep.
pub fn e5() -> Table {
    let src = r#"
      REAL, ALLOCATABLE :: A(:,:), B(:,:)
      REAL, ALLOCATABLE :: C(:), D(:)
!HPF$ PROCESSORS PR(8)
!HPF$ PROCESSORS GRID(2,4)
!HPF$ DISTRIBUTE A(CYCLIC,BLOCK) TO GRID
!HPF$ DISTRIBUTE (BLOCK) :: C,D
!HPF$ DYNAMIC B,C
      READ 6,M,N
      ALLOCATE(A(N*M,N*M))
      ALLOCATE(B(N,N))
!HPF$ REALIGN B(:,:) WITH A(M::M,1::M)
      ALLOCATE(C(10000), D(10000))
!HPF$ REDISTRIBUTE C(CYCLIC) TO PR
      END
"#;
    let (m, n, np) = (3i64, 16i64, 8usize);
    let elab = Elaborator::new(np).with_input("M", m).with_input("N", n).run(src).unwrap();
    let owner = |name, i: Idx| elab.space.owners(elab.array(name).unwrap(), &i).unwrap();
    let owner = |name, i| owner(name, i).as_single().unwrap().0 as i64;
    let square = |hi: i64| (1..=hi).flat_map(move |i| (1..=hi).map(move |j| Idx::d2(i, j)));
    // (n, elements C(n) moves from BLOCK to CYCLIC)
    let churn: Vec<(usize, usize)> = [1000usize, 10_000, 100_000]
        .into_iter()
        .map(|n| {
            let src = format!(
                "      REAL, ALLOCATABLE :: C(:)\n!HPF$ DISTRIBUTE (BLOCK) :: C\n!HPF$ DYNAMIC C\n\
                 \x20     ALLOCATE(C({n}))\n!HPF$ REDISTRIBUTE C(CYCLIC)\n      END\n"
            );
            (n, Elaborator::new(np).run(&src).unwrap().report.total_remap_volume())
        })
        .collect();

    let mut lines: Vec<String> = elab.report.to_string().lines().map(String::from).collect();
    let moved = elab.report.total_remap_volume();
    lines.push(format!("\ntotal elements moved by dynamic remapping: {moved}"));
    lines.push("\nredistribution churn sweep (C(n) BLOCK → CYCLIC on 8 procs):".into());
    lines.push(format!("  {:>8} {:>12} {:>10}", "n", "moved", "moved/n"));
    for &(n, moved) in &churn {
        lines.push(format!("  {n:>8} {moved:>12} {:>10.3}", moved as f64 / n as f64));
    }

    let grid_owner = |i: &Idx| 1 + (i[0] - 1) % 2 + 2 * ((i[1] - 1) / 12);
    Table {
        title: "E5 — §6 allocatable example (M = 3, N = 16, 8 processors)",
        lines,
        claims: vec![
            every(
                "spec-part directives propagate to every ALLOCATE: A is (CYCLIC,BLOCK) on \
                 GRID(2,4), D is BLOCK, and C is CYCLIC after its REDISTRIBUTE",
                &[()],
                |_| {
                    square(n * m).all(|i| owner("A", i) == grid_owner(&i))
                        && (1..=10_000).all(|i| {
                            owner("D", Idx::d1(i)) == (i - 1) / 1250 + 1
                                && owner("C", Idx::d1(i)) == (i - 1) % 8 + 1
                        })
                },
            ),
            every(
                "REALIGN keeps the §2.3 collocation invariant: B(i,j) lives with A(M·i, 1+M·(j−1))",
                &[()],
                |_| {
                    let image = |i: &Idx| Idx::d2(m * i[0], 1 + m * (i[1] - 1));
                    square(n).all(|i| owner("B", i) == owner("A", image(&i)))
                },
            ),
            every(
                "BLOCK→CYCLIC moves (NP − 1)/NP of the elements, within one element per processor",
                &churn,
                |&(n, moved)| moved.abs_diff(n * (np - 1) / np) <= np,
            ),
        ],
    }
}

// ---------------------------------------------------------------- E6

/// E6 (§2.3, §5.1): the alignment examples and the CONSTRUCT guarantee.
pub fn e6() -> Table {
    let (n, m) = (4i64, 3i64);
    let mut lines = vec![format!("ALIGN A(:) WITH D(:,*), D(1:{n},1:{m}) (BLOCK,BLOCK) on 2x3:")];
    let mut ds = DataSpace::new(6);
    ds.declare_processors("G", IndexDomain::of_shape(&[2, 3]).unwrap()).unwrap();
    let (d, a) = (declare(&mut ds, "D", &[(1, n), (1, m)]), declare(&mut ds, "A", &[(1, n)]));
    ds.distribute(d, &DistributeSpec::to(vec![FormatSpec::Block, FormatSpec::Block], "G")).unwrap();
    let replicate = vec![BaseSubscript::COLON, BaseSubscript::Star];
    ds.align(a, d, &AlignSpec::new(vec![AligneeAxis::Colon], replicate)).unwrap();
    // (J, owners(A(J)), ∪_k owners(D(J,k)))
    let replicated: Vec<(i64, BTreeSet<ProcId>, BTreeSet<ProcId>)> = (1..=n)
        .map(|j| {
            let got = ds.owners(a, &Idx::d1(j)).unwrap();
            lines.push(format!("  A({j}) → α = {{({j},k) | 1 ≤ k ≤ {m}}} → owners {got}"));
            let on_d = |k| ds.owners(d, &Idx::d2(j, k)).unwrap().as_single().unwrap();
            (j, got.iter().collect(), (1..=m).map(on_d).collect())
        })
        .collect();

    lines.push("\nALIGN B(:,*) WITH E(:), E CYCLIC on 4:".into());
    let mut ds = DataSpace::new(4);
    let (e, b) = (declare(&mut ds, "E", &[(1, n)]), declare(&mut ds, "B", &[(1, n), (1, m)]));
    ds.distribute(e, &DistributeSpec::new(vec![FormatSpec::Cyclic(1)])).unwrap();
    let collapse = vec![AligneeAxis::Colon, AligneeAxis::Star];
    ds.align(b, e, &AlignSpec::new(collapse, vec![BaseSubscript::COLON])).unwrap();
    // (J1, every B(J1,·) lives on owners(E(J1)))
    let collapsed: Vec<(i64, bool)> = (1..=n)
        .map(|j1| {
            let base = ds.owners(e, &Idx::d1(j1)).unwrap();
            lines.push(format!("  B({j1},1..{m}) owners = {base}"));
            (j1, (1..=m).all(|j2| ds.owners(b, &Idx::d2(j1, j2)).unwrap() == base))
        })
        .collect();

    lines.push("\nCONSTRUCT(α, δ_B) (Definition 4), A(1:24) aligned WITH B(a·i + c):".into());
    // (format of B, a, c, elements i with owners(A,i) ≠ owners(B,α(i)))
    let mut construct: Vec<(FormatSpec, i64, i64, usize)> = Vec::new();
    for format in [FormatSpec::Block, FormatSpec::Cyclic(1), FormatSpec::Cyclic(3)] {
        for (ac, cc) in [(1i64, 0i64), (2, 3), (3, 1)] {
            let nn = 24i64;
            let mut s = DataSpace::new(4);
            let base = declare(&mut s, "B", &[(1, ac * nn + cc)]);
            let al = declare(&mut s, "A", &[(1, nn)]);
            s.distribute(base, &DistributeSpec::new(vec![format.clone()])).unwrap();
            let alpha = AlignSpec::with_exprs(1, vec![AlignExpr::dummy(0) * ac + cc]);
            s.align(al, base, &alpha).unwrap();
            let owners = |id, i| s.owners(id, &Idx::d1(i)).unwrap();
            let apart = (1..=nn).filter(|&i| owners(al, i) != owners(base, ac * i + cc)).count();
            let f = format.to_string();
            lines.push(format!("  B {f:<10} a = {ac}, c = {cc}: {apart} of {nn} pairs apart"));
            construct.push((format.clone(), ac, cc, apart));
        }
    }

    Table {
        title: "E6 — §5.1 alignment examples and the CONSTRUCT guarantee",
        lines,
        claims: vec![
            every(
                "ALIGN A(:) WITH D(:,*) puts a copy of A(J) with every D(J,k): \
                 owners(A(J)) = ∪_k owners(D(J,k))",
                &replicated,
                |(_, got, want)| got == want,
            ),
            every(
                "ALIGN B(:,*) WITH E(:) collapses: every B(J1,·) lives on owners(E(J1))",
                &collapsed,
                |r| r.1,
            ),
            every(
                "CONSTRUCT collocates: owners(A,i) = owners(B,α(i)) for all 216 pairs",
                &construct,
                |r| r.3 == 0,
            ),
        ],
    }
}

// ---------------------------------------------------------------- E7

/// E7 (§8.2): the two language problems of templates, executed, and the
/// structural cost behind them: a template model resolves an owner through
/// an align chain of any height, the paper's forest through one level.
pub fn e7() -> Table {
    let mut tm = TemplateModel::new(4);
    let allocatable_template = tm.allocatable_template("T").err().map(|e| e.to_string());
    let mut ds = DataSpace::new(4);
    let w = ds.declare_allocatable("W", 1).unwrap();
    ds.distribute(w, &DistributeSpec::new(vec![FormatSpec::Cyclic(1)])).unwrap();
    // (shape, every W(i) lives on (i − 1) mod 4 + 1)
    let allocations: Vec<(usize, bool)> = [100usize, 37, 2048]
        .into_iter()
        .map(|n| {
            ds.allocate(w, IndexDomain::of_shape(&[n]).unwrap()).unwrap();
            let owners = owners_1d(&ds.effective(w).unwrap(), n);
            ds.deallocate(w).unwrap();
            (n, owners.iter().enumerate().all(|(i, &o)| o as usize == i % 4 + 1))
        })
        .collect();

    let t = tm.template("T", IndexDomain::of_shape(&[1000]).unwrap()).unwrap();
    let a = tm.array("A", IndexDomain::of_shape(&[1000]).unwrap()).unwrap();
    tm.align(a, t, &AlignSpec::identity(1)).unwrap();
    tm.distribute(t, &DistributeSpec::new(vec![FormatSpec::Cyclic(3)])).unwrap();
    let template_dummy = tm.describe_in_procedure(a, "SUB").err().map(|e| e.to_string());
    let frame = call_sub(DummySpec::Inherit).unwrap();
    let (x, local) = (frame.dummy(0), frame.local());
    let kind = inquiry::mapping_kind(&local.effective(x).unwrap());
    let histogram: Vec<usize> =
        inquiry::ownership_histogram(local, x).unwrap().iter().map(|&(_, n)| n).collect();

    // A(I) → B(2I) → T(2I) in the template model; the forest composes it
    // into the one alignment A(I) → TB(4I). Same CYCLIC(3) target.
    let n = 10_000i64;
    let by = |k: i64| AlignSpec::with_exprs(1, vec![AlignExpr::dummy(0) * k]);
    let cyclic3 = DistributeSpec::new(vec![FormatSpec::Cyclic(3)]);
    let mut chained = TemplateModel::new(8);
    let ct = chained.template("T", IndexDomain::standard(&[(1, 4 * n)]).unwrap()).unwrap();
    let cb = chained.array("B", IndexDomain::standard(&[(1, 2 * n)]).unwrap()).unwrap();
    let ca = chained.array("A", IndexDomain::standard(&[(1, n)]).unwrap()).unwrap();
    chained.align(cb, ct, &by(2)).unwrap();
    chained.align(ca, cb, &by(2)).unwrap();
    chained.distribute(ct, &cyclic3).unwrap();
    let (root, chain_depth) = chained.ultimate_target(ca);
    let root = chained.name(root);
    let chain = chained.resolve(ca).unwrap();
    let mut ds = DataSpace::new(8);
    let tb = declare(&mut ds, "TB", &[(1, 4 * n)]);
    let af = declare(&mut ds, "A", &[(1, n)]);
    ds.distribute(tb, &cyclic3).unwrap();
    ds.align(af, tb, &by(4)).unwrap();
    let forest_depth = std::iter::successors(ds.base_of(af), |&x| ds.base_of(x)).count();
    let flat = ds.effective(af).unwrap();
    let indices: Vec<i64> = (1..=n).collect();
    let same_owners = |&i: &i64| chain.owners(&Idx::d1(i)) == flat.owners(&Idx::d1(i));
    let differing = indices.iter().filter(|i| !same_owners(i)).count();

    let said = |e: &Option<String>| e.clone().unwrap_or_else(|| "accepted".into());
    let shapes: Vec<usize> = allocations.iter().map(|a| a.0).collect();
    let lines = vec![
        "problem 1: templates cannot handle allocatable arrays".into(),
        format!("  template model: {}", said(&allocatable_template)),
        format!("  paper's model: ALLOCATABLE W (CYCLIC) allocated at run-time shapes {shapes:?}"),
        "\nproblem 2: templates cannot be passed across procedure boundaries".into(),
        format!("  template model: {}", said(&template_dummy)),
        format!("  paper's model: X's mapping inside SUB is {kind:?}, {histogram:?} on P1..P4"),
        format!("\nresolution: A({n}) CYCLIC(3) over 8 processors"),
        format!("  template model: A → B → T resolves at depth {chain_depth}, to {root}"),
        format!("  paper's model: A → TB resolves at depth {forest_depth}"),
        format!("  owners differ at {differing} of {n} indices"),
    ];
    Table {
        title: "E7 — §8.2: \"Language Problems with Templates\", executed",
        lines,
        claims: vec![
            every(
                "the template model rejects an ALLOCATABLE template (§8.2 problem 1)",
                &[allocatable_template],
                |e| e.as_ref().is_some_and(|e| e.starts_with("§8.2(1)")),
            ),
            every(
                "the paper's model maps W at each allocation: CYCLIC at every run-time shape",
                &allocations,
                |a| a.1,
            ),
            every(
                "the template model cannot describe the dummy across the call (§8.2 problem 2)",
                &[template_dummy],
                |e| e.as_ref().is_some_and(|e| e.starts_with("§8.2(2)")),
            ),
            every(
                "the paper's model does: X inherits A(2:996:2)'s mapping, all 498 elements",
                &[(kind, histogram.iter().sum::<usize>())],
                |&(kind, total)| kind == MappingKind::Inherited && total == 498,
            ),
            every(
                "an owner lookup walks 2 ALIGN levels to the template, 1 in the forest (§8.2)",
                &[(root, chain_depth, forest_depth)],
                |&(root, chain, forest)| root == "T" && chain == 2 && forest == 1,
            ),
            every(
                "both resolve A to the same owners, at every index",
                &indices,
                same_owners,
            ),
        ],
    }
}

// ---------------------------------------------------------------- E8

/// E8 (§3): processor arrangements, storage association and sections.
pub fn e8() -> Table {
    let mut ps = ProcSpace::new(32);
    let pr = ps.declare_array("PR", IndexDomain::of_shape(&[32]).unwrap()).unwrap();
    let grid = ps.declare_array("GRID", IndexDomain::of_shape(&[4, 8]).unwrap()).unwrap();
    let mut lines = vec!["PROCESSORS PR(32), GRID(4,8) — column-major association:".to_string()];
    // (i, j, k): GRID(i,j) ≡ PR(k)
    let association: Vec<(i64, i64, i64)> = [(1i64, 1i64), (2, 1), (1, 2), (4, 8)]
        .into_iter()
        .map(|(i, j)| {
            let ap = ps.ap_of(grid, &Idx::d2(i, j)).unwrap();
            let k = ps.index_of(pr, ap).unwrap()[0];
            lines.push(format!("  GRID({i},{j}) ≡ {ap} ≡ PR({k})"));
            (i, j, k)
        })
        .collect();
    let overlap = ps.overlap(pr, grid);
    let ctl = ps.declare_scalar("CTL", ScalarPolicy::ControlProcessor).unwrap();
    let rep = ps.declare_scalar("REP", ScalarPolicy::ReplicateAll).unwrap();
    let scalars = (ps.scalar_residence(ctl).unwrap(), ps.scalar_residence(rep).unwrap().len());

    let mut ds = DataSpace::new(16);
    ds.declare_processors("Q", IndexDomain::of_shape(&[16]).unwrap()).unwrap();
    let b = declare(&mut ds, "B", &[(1, 12)]);
    let odd = Section::from_triplets(vec![triplet(1, 16, 2)]);
    ds.distribute(b, &DistributeSpec::to_section(vec![FormatSpec::Cyclic(1)], "Q", odd)).unwrap();
    let owners = owners_1d(&ds.effective(b).unwrap(), 12);
    lines.extend([
        format!("  overlap(PR, GRID) = {overlap}"),
        format!("\nscalar arrangements:\n  CTL (control processor) → {:?}", scalars.0),
        format!("  REP (replicated) → {} processors", scalars.1),
        "\nDISTRIBUTE B(CYCLIC) TO Q(1:16:2)  [B(1:12)]:".into(),
        format!("  owners:{}", owners.iter().map(|o| format!(" P{o}")).collect::<String>()),
    ]);

    Table {
        title: "E8 — §3 PROCESSORS: storage association and sections",
        lines,
        claims: vec![
            every(
                "arrangements share AP by column-major association: GRID(i,j) ≡ PR(i + 4(j−1))",
                &association,
                |&(i, j, k)| k == i + 4 * (j - 1),
            ),
            every("PR and GRID share abstract, hence physical, processors", &[overlap], |&o| o),
            every(
                "a control-processor scalar lives on P1 alone, a replicated one on all 32",
                &[scalars],
                |s| s.0 == [ProcId(1)] && s.1 == 32,
            ),
            every(
                "distributing to the section Q(1:16:2) deals B cyclically over the odd \
                 processors: B(i) on P(2((i−1) mod 8) + 1)",
                &[owners],
                |o| o.iter().enumerate().all(|(i, &p)| p as usize == 2 * (i % 8) + 1),
            ),
        ],
    }
}

// ---------------------------------------------------------------- E9

/// The footnote's 1-D stencil `P(1:N) = U(0:N-1) + U(1:N)` with `P(1:N)`
/// and `U(0:N)` both distributed `fmt` over `np` processors.
fn stencil_1d(n: i64, np: usize, fmt: FormatSpec) -> CommAnalysis {
    let mut ds = DataSpace::new(np);
    let (p, u) = (declare(&mut ds, "P", &[(1, n)]), declare(&mut ds, "U", &[(0, n)]));
    ds.distribute(p, &DistributeSpec::new(vec![fmt.clone()])).unwrap();
    ds.distribute(u, &DistributeSpec::new(vec![fmt])).unwrap();
    let maps = vec![ds.effective(p).unwrap(), ds.effective(u).unwrap()];
    let terms = vec![Term::new(1, sec(0, n - 1)), Term::new(1, sec(1, n))];
    let doms = [maps[0].domain(), maps[1].domain()];
    let stmt = Assignment::new(0, sec(1, n), terms, Combine::Sum, &doms);
    comm_analysis(&maps, np, &stmt.unwrap())
}

#[derive(Debug)]
struct FootnoteRow {
    np: usize,
    n: i64,
    hpf: u64,
    vienna: u64,
}

/// E9 (§8.1.1 footnote): HPF against Vienna BLOCK on the 1-D stencil.
pub fn e9() -> Table {
    let sweeps: [(usize, &[i64]); 2] = [
        (8, &[63, 64, 65, 127, 128, 129, 255, 256, 257, 1024]),
        (4, &[15, 16, 31, 32, 63, 64, 127, 128]),
    ];
    let rows: Vec<FootnoteRow> = sweeps
        .iter()
        .flat_map(|&(np, sizes)| sizes.iter().map(move |&n| (np, n)))
        .map(|(np, n)| {
            let remote = |f| stencil_1d(n, np, f).remote_reads;
            let [hpf, vienna] = [FormatSpec::Block, FormatSpec::BlockBalanced].map(remote);
            FootnoteRow { np, n, hpf, vienna }
        })
        .collect();
    let divides = |r: &FootnoteRow| r.n % r.np as i64 == 0;
    let mut lines = vec![
        "remote operand reads of P(1:N) = U(0:N-1) + U(1:N), P(1:N) and U(0:N) both BLOCK\n".into(),
        format!("{:>4} {:>6} {:>10} {:>12} {:>14}", "NP", "N", "NP | N?", "HPF", "Vienna BLOCK"),
    ];
    for r in &rows {
        let yes = if divides(r) { "yes" } else { "no" };
        lines.push(format!("{:>4} {:>6} {yes:>10} {:>12} {:>14}", r.np, r.n, r.hpf, r.vienna));
    }
    Table {
        title: "E9 — §8.1.1 footnote: HPF vs Vienna BLOCK",
        lines,
        claims: vec![
            every(
                "HPF BLOCK's remote reads jump exactly on the rows where NP divides N \
                 (block-size drift ⌈(N+1)/NP⌉ ≠ N/NP), and equal Vienna's elsewhere",
                &rows,
                |r| if divides(r) { r.hpf > r.vienna } else { r.hpf == r.vienna },
            ),
            every(
                "Vienna's balanced BLOCK never jumps: NP − 1 remote reads, one per boundary",
                &rows,
                |r| r.vienna == r.np as u64 - 1,
            ),
        ],
    }
}

// ---------------------------------------------------------------- E10

/// E10 (§1): owner-computes execution of the staggered-grid statement.
pub fn e10() -> Table {
    let (n, side) = (512i64, 2usize);
    let np = side * side;
    let maps = staggered_mappings(n, side, &StaggeredScheme::Direct(FormatSpec::Block));
    let stmt = staggered_statement(n, &maps);
    let build = || {
        vec![
            DistArray::new("P", maps[0].clone(), np, 0.0),
            DistArray::from_fn("U", maps[1].clone(), np, |i| (i[0] * 3 + i[1]) as f64),
            DistArray::from_fn("V", maps[2].clone(), np, |i| (i[0] - 2 * i[1]) as f64),
        ]
    };
    let expect = dense_reference(&build(), &stmt);
    let mut lines = Vec::new();
    // (backend, its result equals the dense reference)
    let numerics: Vec<(Backend, bool)> = [Backend::SharedMem, Backend::Channels]
        .into_iter()
        .map(|backend| {
            let mut session = statement_session(build(), &stmt, backend);
            session.run(1).unwrap();
            let same = session.program().arrays[0].to_dense() == expect;
            let eq = if same { "==" } else { "!=" };
            lines.push(format!("numerics: {backend} {eq} the dense reference"));
            (backend, same)
        })
        .collect();
    let analysis = comm_analysis(&maps, np, &stmt);
    let ghosts = ghost_regions(&maps, np, &stmt);
    let rep = mesh(side).superstep_time(&analysis.loads, &analysis.comm);
    lines.push("\nghost (overlap) volumes per processor, per the 4 operand terms:".into());
    for g in &ghosts {
        let per: Vec<usize> = g.per_term.iter().map(|r| r.volume_disjoint()).collect();
        lines.push(format!("  {}: {per:?} → total {}", g.proc, g.volume));
    }
    let ghost_total = ghosts.iter().map(|g| g.volume as u64).sum::<u64>();
    let remote = analysis.remote_fraction() * 100.0;
    lines.push(format!("\nmachine estimate: {rep}"));
    lines.push(format!("remote fraction {remote:.2}% on the template-free (BLOCK,BLOCK) mapping"));

    Table {
        title: "E10 — owner-computes runtime, staggered grid N = 512, NP = 4",
        lines,
        claims: vec![
            every("both backends compute exactly the dense reference", &numerics, |r| r.1),
            every("only the shifted operands U(0:N-1,:) and V(:,0:N-1) need ghosts", &ghosts, |g| {
                g.per_term[1].volume_disjoint() == 0 && g.per_term[3].volume_disjoint() == 0
            }),
            every(
                "the §1 collocation payoff: nothing moves but the ghosts — \
                 ghost total = wire elements = remote reads",
                &[(ghost_total, rep.elements, analysis.remote_reads)],
                |&(g, wire, remote)| g == wire && wire == remote,
            ),
        ],
    }
}
