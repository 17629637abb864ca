//! Workload generators: every input the program under test sees is a
//! `.hpf` source text produced here from `--seed`.
//!
//! A generator returns a [`ProgramSpec`]: the source text plus the
//! harness's own description of what that text means (arrays, fills,
//! assignments). The description — never anything the frontend or
//! runtime computed — is what `reference.rs` evaluates, so the
//! correctness gate is independent of the code under test.

use crate::rng::Rng;
use hpf_runtime::Backend;
use std::fmt::Write as _;

/// Names of the four workloads, in ledger order.
pub const WORKLOADS: [&str; 4] = ["stencil2d", "pingpong", "smallstep", "corpus"];

/// Programs in one corpus.
pub const CORPUS_PROGRAMS: usize = 256;

/// `lo, lo+stride, …` — `count` indices of one dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Range {
    pub lo: i64,
    pub stride: i64,
    pub count: usize,
}

impl Range {
    pub fn span(lo: i64, hi: i64) -> Self {
        Range {
            lo,
            stride: 1,
            count: (hi - lo + 1) as usize,
        }
    }

    pub fn hi(&self) -> i64 {
        self.lo + self.stride * (self.count as i64 - 1)
    }
}

/// One subscript of an array reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sub {
    At(i64),
    Span(Range),
}

/// `NAME(subs)` — a section of array `array` (index into
/// [`ProgramSpec::arrays`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ref {
    pub array: usize,
    pub subs: Vec<Sub>,
}

/// An array and its inclusive per-dimension bounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayDecl {
    pub name: String,
    pub dims: Vec<(i64, i64)>,
}

impl ArrayDecl {
    pub fn len(&self) -> usize {
        self.dims
            .iter()
            .map(|&(lo, hi)| (hi - lo + 1) as usize)
            .product()
    }
}

/// `A(i…) = c0 + Σ coef[d]·i_d` over `ranges` (one per dimension);
/// all-zero coefficients are a scalar fill.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fill {
    pub array: usize,
    pub ranges: Vec<Range>,
    pub coef: Vec<i64>,
    pub c0: i64,
}

/// `lhs = terms[0] + terms[1] + …`, all right-hand sides read before the
/// left-hand side is stored (Fortran 90 array-assignment semantics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assign {
    pub lhs: Ref,
    pub terms: Vec<Ref>,
}

/// A generated program: the text handed to the pipeline and the
/// harness's independent description of it.
#[derive(Debug, Clone)]
pub struct ProgramSpec {
    pub name: String,
    pub np: usize,
    pub backend: Backend,
    pub arrays: Vec<ArrayDecl>,
    pub fills: Vec<Fill>,
    pub stmts: Vec<Assign>,
    pub source: String,
    /// Same declarations under a different mapping (`CYCLIC` over two
    /// processors, no statements): the target of the cross-distribution
    /// checkpoint restore.
    pub cross_source: String,
}

impl ProgramSpec {
    /// Elements written by the fills (the per-element work of
    /// elaboration and lowering).
    pub fn fill_elements(&self) -> usize {
        self.fills
            .iter()
            .map(|f| f.ranges.iter().map(|r| r.count).product::<usize>())
            .sum()
    }

    /// Elements stored per timestep.
    pub fn step_elements(&self) -> usize {
        self.stmts.iter().map(|s| ref_len(&s.lhs)).sum()
    }

    /// Elements held by all arrays.
    pub fn array_elements(&self) -> usize {
        self.arrays.iter().map(ArrayDecl::len).sum()
    }
}

pub fn ref_len(r: &Ref) -> usize {
    r.subs
        .iter()
        .map(|s| match s {
            Sub::At(_) => 1,
            Sub::Span(r) => r.count,
        })
        .product()
}

pub fn backend_name(b: Backend) -> &'static str {
    match b {
        Backend::SharedMem => "shared-mem",
        Backend::Channels => "channels",
    }
}

pub fn other_backend(b: Backend) -> Backend {
    match b {
        Backend::SharedMem => Backend::Channels,
        Backend::Channels => Backend::SharedMem,
    }
}

// ------------------------------------------------------------ rendering

/// `a*I+c` with the usual elisions (`I`, `I+3`, `2*I-1`, `17-I`, `5`).
fn affine(a: i64, var: &str, c: i64) -> String {
    let lead = match a {
        0 => return c.to_string(),
        1 => var.to_string(),
        -1 if c > 0 => return format!("{c}-{var}"),
        _ => format!("{a}*{var}"),
    };
    match c {
        0 => lead,
        c if c > 0 => format!("{lead}+{c}"),
        c => format!("{lead}{c}"),
    }
}

fn render_range(r: &Range) -> String {
    if r.stride == 1 {
        format!("{}:{}", r.lo, r.hi())
    } else {
        format!("{}:{}:{}", r.lo, r.hi(), r.stride)
    }
}

fn render_ref(arrays: &[ArrayDecl], r: &Ref) -> String {
    let subs: Vec<String> = r
        .subs
        .iter()
        .map(|s| match s {
            Sub::At(v) => v.to_string(),
            Sub::Span(r) => render_range(r),
        })
        .collect();
    format!("{}({})", arrays[r.array].name, subs.join(","))
}

/// The same reference written for a `FORALL` whose indices run `1:count`
/// over the spanned dimensions.
fn render_forall_ref(arrays: &[ArrayDecl], r: &Ref) -> String {
    const VARS: [&str; 2] = ["I", "J"];
    let mut k = 0;
    let subs: Vec<String> = r
        .subs
        .iter()
        .map(|s| match s {
            Sub::At(v) => v.to_string(),
            Sub::Span(r) => {
                k += 1;
                affine(r.stride, VARS[k - 1], r.lo - r.stride)
            }
        })
        .collect();
    format!("{}({})", arrays[r.array].name, subs.join(","))
}

fn render_assign(arrays: &[ArrayDecl], s: &Assign, as_forall: bool) -> String {
    let counts: Vec<usize> = s
        .lhs
        .subs
        .iter()
        .filter_map(|s| match s {
            Sub::Span(r) => Some(r.count),
            Sub::At(_) => None,
        })
        .collect();
    if as_forall && !counts.is_empty() && counts.len() <= 2 {
        let header: Vec<String> = counts
            .iter()
            .zip(["I", "J"])
            .map(|(n, v)| format!("{v} = 1:{n}"))
            .collect();
        let terms: Vec<String> = s
            .terms
            .iter()
            .map(|t| render_forall_ref(arrays, t))
            .collect();
        format!(
            "      FORALL ({}) {} = {}\n",
            header.join(", "),
            render_forall_ref(arrays, &s.lhs),
            terms.join(" + ")
        )
    } else {
        let terms: Vec<String> = s.terms.iter().map(|t| render_ref(arrays, t)).collect();
        format!(
            "      {} = {}\n",
            render_ref(arrays, &s.lhs),
            terms.join(" + ")
        )
    }
}

fn render_fill(arrays: &[ArrayDecl], f: &Fill) -> String {
    const VARS: [&str; 2] = ["I", "J"];
    let a = &arrays[f.array];
    if f.coef.iter().all(|&c| c == 0) {
        let whole = f
            .ranges
            .iter()
            .zip(&a.dims)
            .all(|(r, &(lo, hi))| *r == Range::span(lo, hi));
        if whole {
            return format!("      {} = {}\n", a.name, f.c0);
        }
        let subs: Vec<String> = f.ranges.iter().map(render_range).collect();
        return format!("      {}({}) = {}\n", a.name, subs.join(","), f.c0);
    }
    let header: Vec<String> = f
        .ranges
        .iter()
        .zip(VARS)
        .map(|(r, v)| format!("{v} = {}", render_range(r)))
        .collect();
    let mut value = String::new();
    for (&c, v) in f.coef.iter().zip(VARS) {
        if c == 0 {
            continue;
        }
        let term = affine(c.abs(), v, 0);
        if value.is_empty() {
            if c < 0 {
                value.push('-');
            }
            value.push_str(&term);
        } else {
            write!(value, " {} {term}", if c < 0 { '-' } else { '+' }).unwrap();
        }
    }
    if f.c0 != 0 {
        write!(
            value,
            " {} {}",
            if f.c0 < 0 { '-' } else { '+' },
            f.c0.abs()
        )
        .unwrap();
    }
    let subs = &VARS[..f.ranges.len()];
    format!(
        "      FORALL ({}) {}({}) = {value}\n",
        header.join(", "),
        a.name,
        subs.join(",")
    )
}

fn render_dims(dims: &[(i64, i64)]) -> String {
    let d: Vec<String> = dims
        .iter()
        .map(|&(lo, hi)| {
            if lo == 1 {
                hi.to_string()
            } else {
                format!("{lo}:{hi}")
            }
        })
        .collect();
    d.join(",")
}

/// The cross-restore variant: same names and shapes, every array
/// `CYCLIC` in its last dimension over two processors.
fn render_cross(name: &str, arrays: &[ArrayDecl]) -> String {
    let mut s = format!("      PROGRAM {name}X\n");
    for a in arrays {
        writeln!(s, "      REAL {}({})", a.name, render_dims(&a.dims)).unwrap();
    }
    s.push_str("!HPF$ PROCESSORS Q(2)\n");
    for a in arrays {
        let mut fmts = vec![":"; a.dims.len()];
        *fmts.last_mut().expect("rank >= 1") = "CYCLIC";
        writeln!(s, "!HPF$ DISTRIBUTE {}({}) TO Q", a.name, fmts.join(",")).unwrap();
    }
    s.push_str("      END\n");
    s
}

fn whole(dims: &[(i64, i64)]) -> Vec<Range> {
    dims.iter().map(|&(lo, hi)| Range::span(lo, hi)).collect()
}

fn span_ref(array: usize, spans: &[(i64, i64)]) -> Ref {
    Ref {
        array,
        subs: spans
            .iter()
            .map(|&(lo, hi)| Sub::Span(Range::span(lo, hi)))
            .collect(),
    }
}

// ------------------------------------------------ the runtime workloads

/// `stencil2d`: a four-point relaxation with a read-after-write pair of
/// statements on an `n × n` grid, `(BLOCK,BLOCK)` over a 2×2 mesh.
pub fn stencil2d(seed: u64, n: i64) -> ProgramSpec {
    let mut rng = Rng::fork(seed, 1);
    let (a, b, c) = (rng.range(1, 9), rng.range(1, 9), rng.range(0, 99));
    let arrays = vec![
        ArrayDecl {
            name: "U".into(),
            dims: vec![(1, n), (1, n)],
        },
        ArrayDecl {
            name: "UNEW".into(),
            dims: vec![(1, n), (1, n)],
        },
    ];
    let fills = vec![Fill {
        array: 0,
        ranges: whole(&arrays[0].dims),
        coef: vec![a, b],
        c0: c,
    }];
    let inner = [(2, n - 1), (2, n - 1)];
    let stmts = vec![
        Assign {
            lhs: span_ref(1, &inner),
            terms: vec![
                span_ref(0, &[(1, n - 2), (2, n - 1)]),
                span_ref(0, &[(3, n), (2, n - 1)]),
                span_ref(0, &[(2, n - 1), (1, n - 2)]),
                span_ref(0, &[(2, n - 1), (3, n)]),
            ],
        },
        Assign {
            lhs: span_ref(0, &inner),
            terms: vec![span_ref(1, &inner)],
        },
    ];
    let mut source = String::new();
    writeln!(source, "! hpfbench workload stencil2d, seed {seed}").unwrap();
    source.push_str("      PROGRAM STENCIL2D\n");
    writeln!(source, "      PARAMETER (N = {n})").unwrap();
    source.push_str("      REAL U(N,N), UNEW(N,N)\n");
    source.push_str("!HPF$ PROCESSORS MESH(2,2)\n");
    source.push_str("!HPF$ DISTRIBUTE U(BLOCK,BLOCK) TO MESH\n");
    source.push_str("!HPF$ ALIGN UNEW(I,J) WITH U(I,J)\n");
    source.push_str(&render_fill(&arrays, &fills[0]));
    source.push_str(
        "      UNEW(2:N-1,2:N-1) = U(1:N-2,2:N-1) + U(3:N,2:N-1) + U(2:N-1,1:N-2) + U(2:N-1,3:N)\n",
    );
    source.push_str("      U(2:N-1,2:N-1) = UNEW(2:N-1,2:N-1)\n");
    source.push_str("      END\n");
    let cross_source = render_cross("STENCIL2D", &arrays);
    ProgramSpec {
        name: "stencil2d".into(),
        np: 4,
        backend: Backend::SharedMem,
        arrays,
        fills,
        stmts,
        source,
        cross_source,
    }
}

/// `pingpong`: `A` is `BLOCK`, `B` is `CYCLIC`, and both are rewritten
/// from each other every step, so half of each array crosses the wire.
pub fn pingpong(seed: u64, n: i64) -> ProgramSpec {
    let mut rng = Rng::fork(seed, 2);
    let arrays = vec![
        ArrayDecl {
            name: "A".into(),
            dims: vec![(1, n)],
        },
        ArrayDecl {
            name: "B".into(),
            dims: vec![(1, n)],
        },
    ];
    let fills = vec![
        Fill {
            array: 0,
            ranges: whole(&arrays[0].dims),
            coef: vec![rng.range(1, 9)],
            c0: rng.range(0, 99),
        },
        Fill {
            array: 1,
            ranges: whole(&arrays[1].dims),
            coef: vec![rng.range(1, 9)],
            c0: rng.range(0, 99),
        },
    ];
    let stmts = vec![
        Assign {
            lhs: span_ref(0, &[(1, n)]),
            terms: vec![span_ref(1, &[(1, n)])],
        },
        Assign {
            lhs: span_ref(1, &[(2, n)]),
            terms: vec![span_ref(0, &[(1, n - 1)]), span_ref(1, &[(2, n)])],
        },
    ];
    let mut source = String::new();
    writeln!(source, "! hpfbench workload pingpong, seed {seed}").unwrap();
    source.push_str("      PROGRAM PINGPONG\n");
    writeln!(source, "      PARAMETER (N = {n})").unwrap();
    source.push_str("      REAL A(N), B(N)\n");
    source.push_str("!HPF$ PROCESSORS P(2)\n");
    source.push_str("!HPF$ DISTRIBUTE A(BLOCK) TO P\n");
    source.push_str("!HPF$ DISTRIBUTE B(CYCLIC) TO P\n");
    source.push_str(&render_fill(&arrays, &fills[0]));
    source.push_str(&render_fill(&arrays, &fills[1]));
    source.push_str("      A(1:N) = B(1:N)\n");
    source.push_str("      B(2:N) = A(1:N-1) + B(2:N)\n");
    source.push_str("      END\n");
    let cross_source = render_cross("PINGPONG", &arrays);
    ProgramSpec {
        name: "pingpong".into(),
        np: 2,
        backend: Backend::Channels,
        arrays,
        fills,
        stmts,
        source,
        cross_source,
    }
}

/// `smallstep`: a rotation by one element through a scratch array —
/// three supersteps that move 16 bytes, so rendezvous cost is all there
/// is. Values stay a permutation of the fill at any step count.
pub fn smallstep(seed: u64, n: i64) -> ProgramSpec {
    let mut rng = Rng::fork(seed, 3);
    let arrays = vec![
        ArrayDecl {
            name: "U".into(),
            dims: vec![(1, n)],
        },
        ArrayDecl {
            name: "T".into(),
            dims: vec![(1, n)],
        },
    ];
    let fills = vec![Fill {
        array: 0,
        ranges: whole(&arrays[0].dims),
        coef: vec![rng.range(1, 9)],
        c0: rng.range(0, 99),
    }];
    let stmts = vec![
        Assign {
            lhs: span_ref(1, &[(2, n)]),
            terms: vec![span_ref(0, &[(1, n - 1)])],
        },
        Assign {
            lhs: span_ref(1, &[(1, 1)]),
            terms: vec![span_ref(0, &[(n, n)])],
        },
        Assign {
            lhs: span_ref(0, &[(1, n)]),
            terms: vec![span_ref(1, &[(1, n)])],
        },
    ];
    let mut source = String::new();
    writeln!(source, "! hpfbench workload smallstep, seed {seed}").unwrap();
    source.push_str("      PROGRAM SMALLSTEP\n");
    writeln!(source, "      PARAMETER (N = {n})").unwrap();
    source.push_str("      REAL U(N), T(N)\n");
    source.push_str("!HPF$ PROCESSORS P(2)\n");
    source.push_str("!HPF$ DISTRIBUTE U(BLOCK) TO P\n");
    source.push_str("!HPF$ ALIGN T(I) WITH U(I)\n");
    source.push_str(&render_fill(&arrays, &fills[0]));
    source.push_str("      T(2:N) = U(1:N-1)\n");
    source.push_str("      T(1:1) = U(N:N)\n");
    source.push_str("      U(1:N) = T(1:N)\n");
    source.push_str("      END\n");
    let cross_source = render_cross("SMALLSTEP", &arrays);
    ProgramSpec {
        name: "smallstep".into(),
        np: 2,
        backend: Backend::Channels,
        arrays,
        fills,
        stmts,
        source,
        cross_source,
    }
}

// ----------------------------------------------------------- the corpus

/// How a corpus array is mapped; decides which directive lines it gets.
#[derive(Debug, Clone)]
enum Mapping {
    /// No directive: the compiler's implicit distribution.
    Implicit,
    /// `DISTRIBUTE name(formats) [TO target]`.
    Distribute(String),
    /// `DISTRIBUTE (formats) [TO target] :: name` (prefix form).
    DistributePrefix(String),
    /// `ALIGN name(axes) WITH base(subscripts)`.
    Align(String),
}

struct CorpusArray {
    decl: ArrayDecl,
    mapping: Mapping,
    allocatable: bool,
    dynamic: bool,
    /// May serve as an alignment base (static, primary, never realigned).
    base_ok: bool,
    /// Executable-part remapping, already rendered.
    remap: Option<String>,
}

/// A distribution format for a dimension of `extent` elements over `np`
/// target positions, drawn from every format the frontend accepts.
fn format_for(shape: &mut Rng, rng: &mut Rng, extent: i64, np: i64) -> String {
    match shape.below(9) {
        0 | 1 => "BLOCK".into(),
        2 => "BLOCK_BALANCED".into(),
        3 => "CYCLIC".into(),
        4 | 5 => format!("CYCLIC({})", rng.range(2, 5)),
        6 | 7 => {
            // GENERAL_BLOCK by bounds: np-1 non-decreasing block ends
            let mut ends: Vec<i64> = (1..np).map(|_| rng.range(0, extent)).collect();
            ends.sort_unstable();
            let list: Vec<String> = ends.iter().map(i64::to_string).collect();
            format!("GENERAL_BLOCK({})", list.join(","))
        }
        _ => {
            let list: Vec<String> = (0..extent).map(|_| rng.range(1, np).to_string()).collect();
            format!("INDIRECT({})", list.join(","))
        }
    }
}

/// A one-dimensional processor target and its extent.
fn target_1d(shape: &mut Rng, rng: &mut Rng, np: i64) -> (String, i64) {
    match shape.below(7) {
        0 | 1 => (String::new(), np),
        2 | 3 => (" TO P".into(), np),
        4 => (format!(" TO P(1:{np}:2)"), np / 2),
        5 => (format!(" TO P({}:{np})", np / 2 + 1), np / 2),
        _ => (
            format!(" TO MESH({},1:{})", rng.range(1, 2), np / 2),
            np / 2,
        ),
    }
}

/// The `(formats) [TO target]` part of a DISTRIBUTE for `dims`.
fn distribute_clause(shape: &mut Rng, rng: &mut Rng, dims: &[(i64, i64)], np: i64) -> String {
    let ext = |d: usize| dims[d].1 - dims[d].0 + 1;
    if dims.len() == 1 {
        let (target, tn) = target_1d(shape, rng, np);
        return format!("({}){target}", format_for(shape, rng, ext(0), tn));
    }
    if shape.chance(1, 2) {
        let f0 = format_for(shape, rng, ext(0), 2);
        let f1 = format_for(shape, rng, ext(1), np / 2);
        return format!("({f0},{f1}) TO MESH");
    }
    let (target, tn) = target_1d(shape, rng, np);
    let d = shape.below(2);
    let f = format_for(shape, rng, ext(d), tn);
    if d == 0 {
        format!("({f},:){target}")
    } else {
        format!("(:,{f}){target}")
    }
}

/// Bounds of a fresh dimension with extent in `lo_ext..=hi_ext`.
fn fresh_dim(shape: &mut Rng, rng: &mut Rng, lo_ext: i64, hi_ext: i64) -> (i64, i64) {
    let lower = match rng.below(6) {
        0 => 0,
        1 => -3,
        _ => 1,
    };
    (lower, lower + shape.range(lo_ext, hi_ext) - 1)
}

/// One aligned dimension: bounds of an alignee dimension whose image
/// `a·I + c` stays inside base bounds `(lb, ub)`, and the base subscript
/// text. Identity, offset, stride-2 and reversal alignments.
fn aligned_dim(
    shape: &mut Rng,
    rng: &mut Rng,
    (lb, ub): (i64, i64),
    var: &str,
) -> ((i64, i64), String) {
    let eb = ub - lb + 1;
    let a = match shape.below(6) {
        0 => 2,
        1 => -1,
        _ => 1,
    };
    let extent = if a == 2 {
        shape.range(4, eb / 2)
    } else {
        shape.range((eb / 2).max(4), eb)
    };
    let la = if rng.chance(1, 4) { 0 } else { 1 };
    let ua = la + extent - 1;
    let c = match a {
        -1 => rng.range(lb + ua, ub + la),
        a => rng.range(lb - a * la, ub - a * ua),
    };
    ((la, ua), affine(a, var, c))
}

/// An ALIGN of a fresh array onto `base`: the alignee's bounds and the
/// directive tail `(axes) WITH BASE(subscripts)`.
fn alignment(shape: &mut Rng, rng: &mut Rng, base: &ArrayDecl) -> (Vec<(i64, i64)>, String) {
    let b = &base.name;
    match (base.dims.len(), shape.below(4)) {
        (1, 0) => {
            // rank-2 alignee collapsed onto a rank-1 base
            let (d, sub) = aligned_dim(shape, rng, base.dims[0], "I");
            let other = fresh_dim(shape, rng, 4, 12);
            if rng.chance(1, 2) {
                (vec![d, other], format!("(I,*) WITH {b}({sub})"))
            } else {
                (vec![other, d], format!("(*,I) WITH {b}({sub})"))
            }
        }
        (1, 1) => {
            // colon form against a base triplet long enough for the alignee
            let (lb, ub) = base.dims[0];
            let stride = shape.range(1, 2);
            let lo = rng.range(lb, lb + 2);
            let avail = (ub - lo) / stride + 1;
            let extent = shape.range((avail / 2).max(2), avail);
            let d = (1, extent);
            let trip = if stride == 1 {
                format!("{lo}:{ub}")
            } else {
                format!("{lo}:{ub}:{stride}")
            };
            (vec![d], format!("(:) WITH {b}({trip})"))
        }
        (1, _) => {
            let (d, sub) = aligned_dim(shape, rng, base.dims[0], "I");
            (vec![d], format!("(I) WITH {b}({sub})"))
        }
        (_, 0) => {
            // rank-1 alignee embedded in one row or column of the base
            let along = rng.below(2);
            let (d, sub) = aligned_dim(shape, rng, base.dims[along], "I");
            let (ol, ou) = base.dims[1 - along];
            let at = rng.range(ol, ou);
            if along == 0 {
                (vec![d], format!("(I) WITH {b}({sub},{at})"))
            } else {
                (vec![d], format!("(I) WITH {b}({at},{sub})"))
            }
        }
        (_, 1) => {
            // transposed
            let (d0, s0) = aligned_dim(shape, rng, base.dims[1], "I");
            let (d1, s1) = aligned_dim(shape, rng, base.dims[0], "J");
            (vec![d0, d1], format!("(I,J) WITH {b}({s1},{s0})"))
        }
        _ => {
            let (d0, s0) = aligned_dim(shape, rng, base.dims[0], "I");
            let (d1, s1) = aligned_dim(shape, rng, base.dims[1], "J");
            (vec![d0, d1], format!("(I,J) WITH {b}({s0},{s1})"))
        }
    }
}

/// A section of `dims` with the given per-span element counts: for a
/// rank-2 array and a one-dimensional shape, one subscript is a scalar.
/// `None` when the shape does not fit.
fn section_of(
    shape: &mut Rng,
    rng: &mut Rng,
    dims: &[(i64, i64)],
    counts: &[usize],
) -> Option<Vec<Sub>> {
    let fit = |shape: &mut Rng, rng: &mut Rng, (lo, hi): (i64, i64), count: usize| -> Option<Sub> {
        let extent = hi - lo + 1;
        let n = count as i64;
        if n > extent {
            return None;
        }
        let max_stride = if n == 1 {
            1
        } else {
            ((extent - 1) / (n - 1)).min(3)
        };
        let stride = if shape.chance(2, 3) {
            1
        } else {
            shape.range(1, max_stride)
        };
        let start = rng.range(lo, hi - stride * (n - 1));
        Some(Sub::Span(Range {
            lo: start,
            stride,
            count,
        }))
    };
    match (dims.len(), counts.len()) {
        (1, 1) => Some(vec![fit(shape, rng, dims[0], counts[0])?]),
        (2, 2) => Some(vec![
            fit(shape, rng, dims[0], counts[0])?,
            fit(shape, rng, dims[1], counts[1])?,
        ]),
        (2, 1) => {
            let along = shape.below(2);
            let span = fit(shape, rng, dims[along], counts[0])?;
            let at = Sub::At(rng.range(dims[1 - along].0, dims[1 - along].1));
            Some(if along == 0 {
                vec![span, at]
            } else {
                vec![at, span]
            })
        }
        _ => None,
    }
}

/// Would appending `next` let the runtime's superstep scheduler hoist a
/// write above an earlier read of the same array?
///
/// The fused plan levels statements by read-after-write and
/// write-after-write hazards only; a statement that overwrites an array
/// an *earlier, deeper-levelled* statement still reads can be scheduled
/// into a superstep before that reader and clobber its operand (found by
/// this corpus: `A = Z`, `W = A + X`, `X = X + Y` stores `X` before `W`
/// reads it). Workloads must not fail, so the corpus keeps to programs
/// where every earlier reader of the written array sits at level 0 —
/// judged at whole-array granularity, which over-approximates the
/// runtime's hazards and so never under-rejects.
fn hoistable_past_a_reader(stmts: &[Assign], next: &Assign) -> bool {
    let touches =
        |s: &Assign, array: usize| s.lhs.array == array || s.terms.iter().any(|t| t.array == array);
    let level_0 = |i: usize| {
        !stmts[..i]
            .iter()
            .any(|earlier| touches(&stmts[i], earlier.lhs.array))
    };
    (0..stmts.len())
        .any(|i| stmts[i].terms.iter().any(|t| t.array == next.lhs.array) && !level_0(i))
}

/// Program `k` of the corpus for `seed`.
///
/// The *size* of the program — array count, ranks, extents, how arrays
/// are mapped in kind (distributed, aligned, allocatable, dynamic), how
/// many fills and statements of what shape — follows `k` alone (the
/// `shape` stream), so the work in a corpus stays comparable from seed
/// to seed; so do the kind of each format and target, the operands of
/// each statement and their strides. The seed picks everything else:
/// lower bounds, format arguments (`CYCLIC(k)`, block bounds, indirect
/// maps), processor sections, alignment bases and offsets, fill
/// coefficients, section offsets, and which statements are written as
/// `FORALL`s.
pub fn corpus_program(seed: u64, k: usize) -> ProgramSpec {
    let mut rng = Rng::fork(seed, 1000 + k as u64);
    let shape = &mut Rng::fork(0x5eed_1e55, k as u64);
    let np: i64 = if k % 2 == 0 { 4 } else { 8 };
    let backend = if (k / 2) % 2 == 0 {
        Backend::SharedMem
    } else {
        Backend::Channels
    };
    let n_arrays = 8 + (k * 5) % 17;
    let name = format!("C{k:03}");

    let mut arrays: Vec<CorpusArray> = Vec::with_capacity(n_arrays);
    for j in 0..n_arrays {
        let aname = format!("{}{j}", if j % 2 == 0 { "A" } else { "W" });
        let bases: Vec<usize> = (0..arrays.len()).filter(|&b| arrays[b].base_ok).collect();
        let roll = shape.below(10);
        let mut arr = if roll < 3 && !bases.is_empty() {
            let base = bases[rng.below(bases.len())];
            let (dims, tail) = alignment(shape, &mut rng, &arrays[base].decl);
            CorpusArray {
                decl: ArrayDecl {
                    name: aname.clone(),
                    dims,
                },
                mapping: Mapping::Align(format!("{aname}{tail}")),
                allocatable: shape.chance(1, 5),
                dynamic: false,
                base_ok: false,
                remap: None,
            }
        } else {
            let rank2 = (j + k) % 3 == 0;
            let dims = if rank2 {
                vec![
                    fresh_dim(shape, &mut rng, 8, 32),
                    fresh_dim(shape, &mut rng, 8, 32),
                ]
            } else {
                vec![fresh_dim(shape, &mut rng, 8, 48)]
            };
            let allocatable = shape.chance(1, 6);
            let mapping = match roll {
                3 => Mapping::Implicit,
                4 | 5 => Mapping::DistributePrefix(distribute_clause(shape, &mut rng, &dims, np)),
                _ => Mapping::Distribute(distribute_clause(shape, &mut rng, &dims, np)),
            };
            CorpusArray {
                decl: ArrayDecl {
                    name: aname.clone(),
                    dims,
                },
                mapping,
                allocatable,
                dynamic: false,
                base_ok: !allocatable,
                remap: None,
            }
        };
        // DYNAMIC + an executable-part remapping for about one in five
        if shape.chance(1, 5) {
            arr.dynamic = true;
            let candidates: Vec<usize> = (0..arrays.len())
                .filter(|&b| arrays[b].base_ok && arrays[b].decl.dims == arr.decl.dims)
                .collect();
            if !candidates.is_empty() && shape.chance(1, 2) {
                let base = &arrays[candidates[rng.below(candidates.len())]].decl.name;
                let subs = if arr.decl.dims.len() == 1 {
                    "(I)"
                } else {
                    "(I,J)"
                };
                arr.remap = Some(format!("!HPF$ REALIGN {aname}{subs} WITH {base}{subs}\n"));
                arr.base_ok = false;
            } else {
                let clause = distribute_clause(shape, &mut rng, &arr.decl.dims, np);
                arr.remap = Some(format!("!HPF$ REDISTRIBUTE {aname}{clause}\n"));
            }
        }
        arrays.push(arr);
    }
    let decls: Vec<ArrayDecl> = arrays.iter().map(|a| a.decl.clone()).collect();

    // fills: 2–6, over whole arrays or strided subsets
    let n_fills = shape.range(2, 6) as usize;
    let mut fills = Vec::with_capacity(n_fills);
    for f in 0..n_fills {
        let array = if f < 2 { f } else { shape.below(n_arrays) };
        let dims = &decls[array].dims;
        let ranges: Vec<Range> = dims
            .iter()
            .map(|&(lo, hi)| {
                if shape.chance(1, 4) {
                    let stride = shape.range(2, 3);
                    let start = rng.range(lo, lo + 1);
                    Range {
                        lo: start,
                        stride,
                        count: ((hi - start) / stride + 1) as usize,
                    }
                } else {
                    Range::span(lo, hi)
                }
            })
            .collect();
        let scalar = shape.chance(1, 5);
        let coef = dims
            .iter()
            .map(|_| if scalar { 0 } else { rng.range(-4, 9) })
            .collect();
        fills.push(Fill {
            array,
            ranges,
            coef,
            c0: rng.range(-20, 99),
        });
    }

    // section assignments: 2–6, each over a shape every operand admits
    let n_stmts = shape.range(2, 6) as usize;
    let mut stmts: Vec<Assign> = Vec::with_capacity(n_stmts);
    let mut forall_form = Vec::with_capacity(n_stmts);
    // a bounded search: with few arrays the hoisting rule can leave no
    // admissible left-hand side, and the program then has fewer statements
    let mut attempts = 0;
    while stmts.len() < n_stmts && attempts < 64 {
        attempts += 1;
        let lhs = shape.below(n_arrays);
        let ldims = &decls[lhs].dims;
        let counts: Vec<usize> = if ldims.len() == 2 && shape.chance(2, 3) {
            ldims
                .iter()
                .map(|&(lo, hi)| shape.range(2, hi - lo + 1) as usize)
                .collect()
        } else {
            let (lo, hi) = ldims[shape.below(ldims.len())];
            vec![shape.range(2, hi - lo + 1) as usize]
        };
        let Some(lsubs) = section_of(shape, &mut rng, ldims, &counts) else {
            continue;
        };
        let n_terms = shape.range(1, 4) as usize;
        let mut terms = Vec::with_capacity(n_terms);
        for _ in 0..n_terms * 4 {
            if terms.len() == n_terms {
                break;
            }
            let t = shape.below(n_arrays);
            if let Some(subs) = section_of(shape, &mut rng, &decls[t].dims, &counts) {
                terms.push(Ref { array: t, subs });
            }
        }
        if terms.is_empty() {
            continue;
        }
        let candidate = Assign {
            lhs: Ref {
                array: lhs,
                subs: lsubs,
            },
            terms,
        };
        if hoistable_past_a_reader(&stmts, &candidate) {
            continue;
        }
        stmts.push(candidate);
        forall_form.push(rng.chance(1, 3));
    }

    // ---- render
    let mut s = String::new();
    writeln!(s, "! hpfbench corpus program {k}, seed {seed}").unwrap();
    writeln!(s, "      PROGRAM {name}").unwrap();
    writeln!(s, "      PARAMETER (NOP = {np})").unwrap();
    for a in &arrays {
        if a.allocatable {
            let colons = vec![":"; a.decl.dims.len()].join(",");
            writeln!(s, "      REAL, ALLOCATABLE :: {}({colons})", a.decl.name).unwrap();
        } else {
            writeln!(
                s,
                "      REAL {}({})",
                a.decl.name,
                render_dims(&a.decl.dims)
            )
            .unwrap();
        }
    }
    s.push_str("!HPF$ PROCESSORS P(NOP)\n");
    writeln!(s, "!HPF$ PROCESSORS MESH(2,{})", np / 2).unwrap();
    for a in &arrays {
        match &a.mapping {
            Mapping::Implicit => {}
            Mapping::Distribute(c) => writeln!(s, "!HPF$ DISTRIBUTE {}{c}", a.decl.name).unwrap(),
            Mapping::DistributePrefix(c) => {
                writeln!(s, "!HPF$ DISTRIBUTE {c} :: {}", a.decl.name).unwrap()
            }
            Mapping::Align(tail) => writeln!(s, "!HPF$ ALIGN {tail}").unwrap(),
        }
    }
    let dynamic: Vec<&str> = arrays
        .iter()
        .filter(|a| a.dynamic)
        .map(|a| a.decl.name.as_str())
        .collect();
    if !dynamic.is_empty() {
        writeln!(s, "!HPF$ DYNAMIC {}", dynamic.join(", ")).unwrap();
    }
    for a in arrays.iter().filter(|a| a.allocatable) {
        let dims: Vec<String> = a
            .decl
            .dims
            .iter()
            .map(|&(lo, hi)| format!("{lo}:{hi}"))
            .collect();
        writeln!(s, "      ALLOCATE({}({}))", a.decl.name, dims.join(",")).unwrap();
    }
    for a in &arrays {
        if let Some(r) = &a.remap {
            s.push_str(r);
        }
    }
    for f in &fills {
        s.push_str(&render_fill(&decls, f));
    }
    for (st, &fa) in stmts.iter().zip(&forall_form) {
        s.push_str(&render_assign(&decls, st, fa));
    }
    s.push_str("      END\n");

    let cross_source = render_cross(&name, &decls);
    ProgramSpec {
        name,
        np: np as usize,
        backend,
        arrays: decls,
        fills,
        stmts,
        source: s,
        cross_source,
    }
}

pub fn corpus(seed: u64) -> Vec<ProgramSpec> {
    (0..CORPUS_PROGRAMS)
        .map(|k| corpus_program(seed, k))
        .collect()
}

/// Problem sizes of the three runtime workloads (fixed; the seed varies
/// only fill coefficients).
pub const STENCIL_N: i64 = 1024;
pub const PINGPONG_N: i64 = 1 << 20;
pub const SMALLSTEP_N: i64 = 16384;

/// The programs of a workload: one for the runtime workloads, the whole
/// corpus for `corpus`.
pub fn programs(workload: &str, seed: u64) -> Option<Vec<ProgramSpec>> {
    Some(match workload {
        "stencil2d" => vec![stencil2d(seed, STENCIL_N)],
        "pingpong" => vec![pingpong(seed, PINGPONG_N)],
        "smallstep" => vec![smallstep(seed, SMALLSTEP_N)],
        "corpus" => corpus(seed),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_different_seed_different_bytes() {
        for w in WORKLOADS {
            let a = programs(w, 7).unwrap();
            let b = programs(w, 7).unwrap();
            let c = programs(w, 8).unwrap();
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(
                    x.source, y.source,
                    "{w}: same seed must give identical bytes"
                );
                assert_eq!(x.cross_source, y.cross_source);
            }
            assert!(
                a.iter().zip(&c).any(|(x, y)| x.source != y.source),
                "{w}: a different seed must change the inputs"
            );
        }
    }

    #[test]
    fn affine_rendering() {
        assert_eq!(affine(1, "I", 0), "I");
        assert_eq!(affine(1, "I", 3), "I+3");
        assert_eq!(affine(2, "I", -1), "2*I-1");
        assert_eq!(affine(-1, "I", 17), "17-I");
        assert_eq!(affine(0, "I", 5), "5");
    }

    #[test]
    fn corpus_covers_the_directive_language() {
        let all: String = corpus(1).iter().map(|p| p.source.as_str()).collect();
        for needle in [
            "BLOCK_BALANCED",
            "CYCLIC(",
            "GENERAL_BLOCK(",
            "INDIRECT(",
            ",:)",
            "(:,",
            " TO P(",
            " TO MESH(",
            " TO MESH\n",
            "ALIGN ",
            "REALIGN ",
            "REDISTRIBUTE ",
            "DYNAMIC ",
            "ALLOCATE(",
            "ALLOCATABLE",
            "FORALL",
            ":: ",
            "(I,*)",
            "(:) WITH",
        ] {
            assert!(all.contains(needle), "corpus never uses `{needle}`");
        }
    }
}
