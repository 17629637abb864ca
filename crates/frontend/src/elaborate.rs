use crate::ast::*;
use crate::error::FrontendError;
use crate::eval::{BoundExpr, Env};
use crate::parser::parse_recover;
use crate::report::{AssignEvent, ElaborationReport, Event, FillEvent, SourceDiagnostic};
use hpf_core::{
    Actual, AligneeAxis, AlignSpec, ArrayId, BaseSubscript, CallFrame,
    DataSpace, DistributeSpec, Dummy, DummySpec, FormatSpec, ProcedureDef, TargetSpec,
};
use hpf_index::{IndexDomain, Section, SectionDim, Triplet};
use std::collections::HashMap;

/// The result of elaborating a source file: the final data space, the
/// event narrative, and the name → id map.
#[derive(Debug)]
pub struct Elaboration {
    /// The main unit's data space after all statements executed.
    pub space: DataSpace,
    /// What happened, in order.
    pub report: ElaborationReport,
    /// Array ids by name.
    pub arrays: HashMap<String, ArrayId>,
}

impl Elaboration {
    /// Look up an array id by (case-insensitive) name.
    pub fn array(&self, name: &str) -> Option<ArrayId> {
        self.arrays.get(&name.to_ascii_uppercase()).copied()
    }
}

/// Configurable elaborator.
pub struct Elaborator {
    np: usize,
    inputs: HashMap<String, i64>,
    param_arrays: HashMap<String, Vec<i64>>,
    interface_blocks: bool,
}

impl Elaborator {
    /// Elaborate onto `np` abstract processors.
    pub fn new(np: usize) -> Self {
        Elaborator {
            np,
            inputs: HashMap::new(),
            param_arrays: HashMap::new(),
            interface_blocks: false,
        }
    }

    /// Provide a value for a `READ` name (and as a pre-set parameter).
    pub fn with_input(mut self, name: &str, value: i64) -> Self {
        self.inputs.insert(name.to_ascii_uppercase(), value);
        self
    }

    /// Provide an integer parameter array (e.g. the `S` of
    /// `GENERAL_BLOCK(S)`).
    pub fn with_param_array(mut self, name: &str, values: Vec<i64>) -> Self {
        self.param_arrays.insert(name.to_ascii_uppercase(), values);
        self
    }

    /// Treat every call as if interface blocks were visible: §7(3)
    /// inheritance-matching mismatches remap instead of failing.
    pub fn with_interface_blocks(mut self, on: bool) -> Self {
        self.interface_blocks = on;
        self
    }

    /// Parse and elaborate a source text, failing on the first error.
    ///
    /// This is the fail-fast wrapper around [`Elaborator::run_recover`]:
    /// the first accumulated diagnostic (lexical, then syntactic, then
    /// semantic, in statement order) becomes the `Err`.
    pub fn run(&self, src: &str) -> Result<Elaboration, FrontendError> {
        let (elab, diags) = self.run_recover(src);
        match diags.into_iter().next() {
            Some(d) => Err(d.error),
            None => Ok(elab),
        }
    }

    /// Parse and elaborate a source text, recovering from errors: every
    /// problem — lexical, syntactic, or semantic — is accumulated as a
    /// span-carrying [`SourceDiagnostic`] while the remaining statements
    /// keep elaborating, so one pass reports them all. The returned
    /// [`Elaboration`] reflects every statement that succeeded.
    pub fn run_recover(&self, src: &str) -> (Elaboration, Vec<SourceDiagnostic>) {
        let (file, mut diags) = parse_recover(src);
        let mut ctx = Ctx {
            space: DataSpace::new(self.np),
            env: Env {
                params: self.inputs.clone(),
                param_arrays: self.param_arrays.clone(),
                array_bounds: HashMap::new(),
            },
            arrays: HashMap::new(),
            report: ElaborationReport::default(),
            subroutines: file
                .subroutines
                .iter()
                .map(|u| (u.name.clone(), u.clone()))
                .collect(),
            inputs: self.inputs.clone(),
            interface_blocks: self.interface_blocks,
        };
        for s in &file.main.stmts {
            if let Err(e) = ctx.statement(s) {
                diags.push(SourceDiagnostic::new(e, s.span));
            }
        }
        (
            Elaboration { space: ctx.space, report: ctx.report, arrays: ctx.arrays },
            diags,
        )
    }
}

/// Storage below this many bytes is not probed. Releasing a probe of
/// 128 KiB to 32 MiB raises glibc's mmap threshold, which moves later
/// allocations from `mmap` to the heap and raises a small program's peak
/// RSS; an allocation this small fails only when the process is out of
/// memory altogether.
const PROBE_MIN_BYTES: usize = 64 << 20;

/// Refuse an array whose storage cannot be allocated, at its declaration
/// or `ALLOCATE` — before any statement is evaluated over it. Lowering
/// needs at least one `f64` per element: reserving that much, and
/// releasing it unused, proves the byte count fits `isize` and the
/// allocator grants it.
fn check_storage(name: &str, dom: &IndexDomain) -> Result<(), FrontendError> {
    if dom.size().saturating_mul(std::mem::size_of::<f64>()) < PROBE_MIN_BYTES {
        return Ok(());
    }
    let mut probe = Vec::<f64>::new();
    probe.try_reserve_exact(dom.size()).map_err(|e| {
        FrontendError::Eval(format!(
            "`{name}{dom}` needs {} element(s) of storage: {e}",
            dom.size()
        ))
    })?;
    // the reservation must happen, not be folded into a known success
    std::hint::black_box(&probe);
    Ok(())
}

struct Ctx {
    space: DataSpace,
    env: Env,
    arrays: HashMap<String, ArrayId>,
    report: ElaborationReport,
    subroutines: HashMap<String, Unit>,
    inputs: HashMap<String, i64>,
    interface_blocks: bool,
}

impl Ctx {
    fn array(&self, name: &str, line: usize) -> Result<ArrayId, FrontendError> {
        self.arrays
            .get(name)
            .copied()
            .ok_or_else(|| FrontendError::Undeclared { line, name: name.to_string() })
    }

    fn statement(&mut self, s: &SpannedStmt) -> Result<(), FrontendError> {
        let line = s.line;
        match &s.stmt {
            Stmt::Program(_) | Stmt::End | Stmt::Subroutine { .. } => Ok(()),
            Stmt::Parameter(pairs) => {
                for (name, e) in pairs {
                    let v = self.env.eval(e)?;
                    self.env.params.insert(name.clone(), v);
                }
                Ok(())
            }
            Stmt::Declaration { allocatable, dimension, entities, .. } => {
                for ent in entities {
                    let dims = ent.dims.as_ref().or(dimension.as_ref());
                    self.declare_entity(&ent.name, dims, *allocatable, line)?;
                }
                Ok(())
            }
            Stmt::Processors(ents) => {
                for ent in ents {
                    match &ent.dims {
                        Some(dims) => {
                            let dom = self.env.eval_shape(dims)?;
                            let shape = dom.to_string();
                            self.space.declare_processors(&ent.name, dom)?;
                            self.report.events.push(Event::Processors {
                                name: ent.name.clone(),
                                shape,
                            });
                        }
                        None => {
                            self.space.declare_scalar_processors(&ent.name)?;
                            self.report.events.push(Event::Processors {
                                name: ent.name.clone(),
                                shape: String::new(),
                            });
                        }
                    }
                }
                Ok(())
            }
            Stmt::Distribute { redistribute, distributees, formats, target, inherit } => {
                if *inherit != InheritAst::None {
                    return Err(FrontendError::Parse {
                        line,
                        what: "inheritance forms (`DISTRIBUTE A *`) are only valid for \
                               dummy arguments inside subroutines (§7)"
                            .into(),
                    });
                }
                let spec = self.distribute_spec(formats, target)?;
                for name in distributees {
                    let id = self.array(name, line)?;
                    if *redistribute {
                        let before = self.space.effective(id).map_err(FrontendError::Semantic)?;
                        self.space.redistribute(id, &spec)?;
                        let after = self.space.effective(id).map_err(FrontendError::Semantic)?;
                        let moved = before.remap_volume(&after);
                        self.report.events.push(Event::Redistributed {
                            name: name.clone(),
                            moved,
                            span: s.span,
                        });
                    } else {
                        self.space.distribute(id, &spec)?;
                        self.report.events.push(Event::Distributed {
                            name: name.clone(),
                            spec: spec.to_string(),
                        });
                    }
                }
                Ok(())
            }
            Stmt::Align { realign, alignee, axes, base, subscripts } => {
                let a = self.array(alignee, line)?;
                let b = self.array(base, line)?;
                let spec = self.align_spec(axes, subscripts)?;
                if *realign {
                    let before = self.space.effective(a).ok();
                    self.space.realign(a, b, &spec)?;
                    let after = self.space.effective(a).map_err(FrontendError::Semantic)?;
                    let moved = before.map(|x| x.remap_volume(&after)).unwrap_or(0);
                    self.report.events.push(Event::Realigned {
                        alignee: alignee.clone(),
                        base: base.clone(),
                        moved,
                        span: s.span,
                    });
                } else {
                    self.space.align(a, b, &spec)?;
                    self.report.events.push(Event::Aligned {
                        alignee: alignee.clone(),
                        base: base.clone(),
                    });
                }
                Ok(())
            }
            Stmt::Dynamic(names) => {
                for n in names {
                    let id = self.array(n, line)?;
                    self.space.set_dynamic(id);
                    self.report.events.push(Event::Dynamic(n.clone()));
                }
                Ok(())
            }
            Stmt::Allocate(allocs) => {
                for (name, dims) in allocs {
                    let id = self.array(name, line)?;
                    let dom = self.env.eval_shape(dims)?;
                    check_storage(name, &dom)?;
                    self.env.array_bounds.insert(
                        name.clone(),
                        dom.dims().iter().map(|t| (t.lower(), t.upper())).collect(),
                    );
                    let rendered = dom.to_string();
                    self.space.allocate(id, dom)?;
                    self.report
                        .events
                        .push(Event::Allocated { name: name.clone(), domain: rendered });
                }
                Ok(())
            }
            Stmt::Deallocate(names) => {
                for name in names {
                    let id = self.array(name, line)?;
                    let promoted: Vec<String> = self
                        .space
                        .children(id)
                        .iter()
                        .map(|&c| self.space.name(c).to_string())
                        .collect();
                    self.space.deallocate(id)?;
                    // values die with the allocation: its fills reach no storage
                    self.report.events.retain(|e| !matches!(e, Event::Fill(f) if f.array == id));
                    self.report
                        .events
                        .push(Event::Deallocated { name: name.clone(), promoted });
                }
                Ok(())
            }
            Stmt::Read(names) => {
                for n in names {
                    let v = *self
                        .inputs
                        .get(n)
                        .ok_or_else(|| FrontendError::MissingInput(n.clone()))?;
                    self.env.params.insert(n.clone(), v);
                    self.report.events.push(Event::Read { name: n.clone(), value: v });
                }
                Ok(())
            }
            Stmt::Call { name, args } => self.call(name, args, line),
            Stmt::ArrayAssign { lhs, terms } => {
                let (lhs_id, _, lhs_sec) = self.resolve_ref(lhs, line)?;
                let mut rterms = Vec::with_capacity(terms.len());
                for t in terms {
                    let (id, _, sec) = self.resolve_ref(t, line)?;
                    rterms.push((t.name.clone(), id, sec));
                }
                self.report.events.push(Event::Assignment(AssignEvent {
                    lhs_name: lhs.name.clone(),
                    lhs: lhs_id,
                    lhs_section: lhs_sec,
                    terms: rterms,
                    span: s.span,
                }));
                Ok(())
            }
            Stmt::ScalarAssign { lhs, value } => {
                self.check_scalar_expr(value, line)?;
                let v = self.env.eval(value)?;
                let (id, dom, sec) = self.resolve_ref(lhs, line)?;
                sec.validate(&dom)
                    .map_err(|e| FrontendError::Eval(format!("`{}`: {e}", lhs.name)))?;
                // the FORALL it abbreviates: an index per dimension of the
                // section, identity subscripts, a constant
                let subscripts = (0..sec.dims().len()).map(BoundExpr::Slot).collect();
                self.fill(FillEvent {
                    name: lhs.name.clone(),
                    array: id,
                    domain: dom,
                    indices: sec.domain_full_rank().map_err(|e| FrontendError::Eval(e.to_string()))?,
                    subscripts,
                    value: BoundExpr::Const(v),
                    span: s.span,
                })
            }
            Stmt::Forall { indices, lhs, rhs } => self.forall(indices, lhs, rhs, line, s.span),
        }
    }

    /// Reject array references inside a scalar-valued expression: the
    /// statement surface keeps array terms (`A = B + C`) and scalar fills
    /// (`A = 2*N`) as disjoint forms, so a name in a scalar position must
    /// be a parameter, a `READ` binding, or a FORALL index.
    fn check_scalar_expr(&self, e: &Expr, line: usize) -> Result<(), FrontendError> {
        match e {
            Expr::Int(_) => Ok(()),
            Expr::Name(n) => {
                if self.arrays.contains_key(n) && !self.env.params.contains_key(n) {
                    Err(FrontendError::Parse {
                        line,
                        what: format!(
                            "`{n}` names an array — array references cannot appear in a \
                             scalar expression (use an array assignment `LHS = {n}` instead)"
                        ),
                    })
                } else {
                    Ok(())
                }
            }
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Div(a, b)
            | Expr::Max(a, b)
            | Expr::Min(a, b) => {
                self.check_scalar_expr(a, line)?;
                self.check_scalar_expr(b, line)
            }
            Expr::Neg(a) => self.check_scalar_expr(a, line),
            Expr::LBound(_, d) | Expr::UBound(_, d) | Expr::Size(_, d) => {
                self.check_scalar_expr(d, line)
            }
        }
    }

    /// Elaborate a `FORALL`. Reference right-hand sides lower to a section
    /// assignment (§5.1: affine subscripts become subscript triplets);
    /// scalar right-hand sides evaluate to an element-by-element fill.
    fn forall(
        &mut self,
        indices: &[ForallIndex],
        lhs: &ArrayRef,
        rhs: &ForallRhs,
        line: usize,
        span: crate::token::Span,
    ) -> Result<(), FrontendError> {
        let mut dummies: HashMap<String, usize> = HashMap::new();
        let mut ranges: Vec<Triplet> = Vec::with_capacity(indices.len());
        for (k, ix) in indices.iter().enumerate() {
            if dummies.insert(ix.name.clone(), k).is_some() {
                return Err(FrontendError::Parse {
                    line,
                    what: format!("duplicate FORALL index `{}`", ix.name),
                });
            }
            let lo = self.env.eval(&ix.lower)?;
            let up = self.env.eval(&ix.upper)?;
            let st = match &ix.stride {
                Some(e) => self.env.eval(e)?,
                None => 1,
            };
            let t = Triplet::new(lo, up, st).map_err(|e| FrontendError::Eval(e.to_string()))?;
            if t.is_empty() {
                return Err(FrontendError::Eval(format!(
                    "FORALL index `{}` has an empty range {lo}:{up}:{st}",
                    ix.name
                )));
            }
            ranges.push(t);
        }
        match rhs {
            ForallRhs::Refs(terms) => {
                let (lhs_id, lhs_sec, lhs_order) =
                    self.forall_section(lhs, &dummies, indices, &ranges, line)?;
                let mut rterms = Vec::with_capacity(terms.len());
                for t in terms {
                    let (id, sec, order) =
                        self.forall_section(t, &dummies, indices, &ranges, line)?;
                    if let (Some(lo), Some(to)) = (&lhs_order, &order) {
                        if lo != to {
                            return Err(FrontendError::Parse {
                                line,
                                what: format!(
                                    "FORALL indices must appear in the same order on `{}` \
                                     as on the left-hand side (transposes are not supported)",
                                    t.name
                                ),
                            });
                        }
                    }
                    rterms.push((t.name.clone(), id, sec));
                }
                self.report.events.push(Event::Assignment(AssignEvent {
                    lhs_name: lhs.name.clone(),
                    lhs: lhs_id,
                    lhs_section: lhs_sec,
                    terms: rterms,
                    span,
                }));
                Ok(())
            }
            ForallRhs::Scalar(value) => {
                self.check_scalar_expr(value, line)?;
                let id = self.array(&lhs.name, line)?;
                let dom = self.space.domain(id).cloned().ok_or_else(|| {
                    FrontendError::Semantic(hpf_core::HpfError::NotAllocated(lhs.name.clone()))
                })?;
                let subs = lhs.section.as_deref().ok_or_else(|| FrontendError::Parse {
                    line,
                    what: format!(
                        "FORALL left-hand side `{}` needs explicit subscripts",
                        lhs.name
                    ),
                })?;
                if subs.len() != dom.rank() {
                    return Err(FrontendError::Eval(format!(
                        "`{}` has rank {} but {} subscripts were given",
                        lhs.name,
                        dom.rank(),
                        subs.len()
                    )));
                }
                // names resolve once; a point of the domain costs arithmetic only
                let mut bound_subs = Vec::with_capacity(subs.len());
                for sd in subs {
                    match sd {
                        SectionDimAst::Scalar(e) => bound_subs.push(self.env.bind(e, &dummies)?),
                        SectionDimAst::Triplet { .. } => {
                            return Err(FrontendError::Parse {
                                line,
                                what: "subscript triplets are not allowed in a FORALL \
                                       assignment"
                                    .into(),
                            })
                        }
                    }
                }
                let value = self.env.bind(value, &dummies)?;
                self.fill(FillEvent {
                    name: lhs.name.clone(),
                    array: id,
                    domain: dom,
                    indices: IndexDomain::new(ranges).map_err(|e| FrontendError::Eval(e.to_string()))?,
                    subscripts: bound_subs,
                    value,
                    span,
                })
            }
        }
    }

    /// Record a fill — after evaluating it once, so that every error it
    /// can raise (a zero divisor, a store outside the domain) is reported
    /// here, at the statement, and lowering replays a statement known to
    /// evaluate.
    fn fill(&mut self, fill: FillEvent) -> Result<(), FrontendError> {
        fill.for_each(|_, _| {})?;
        self.report.events.push(Event::Fill(fill));
        Ok(())
    }

    /// Resolve one FORALL array reference into a concrete section by
    /// classifying each subscript: a constant becomes a scalar selector, an
    /// expression affine in exactly one FORALL index `I = l:u:s` with
    /// positive coefficient `a` (so `a*I + c`) becomes the triplet
    /// `a·l+c : a·u+c : a·s`. Also returns the order in which the FORALL
    /// indices appear across the dimensions (`None` for a bare reference,
    /// which imposes no order constraint).
    #[allow(clippy::type_complexity)]
    fn forall_section(
        &self,
        r: &ArrayRef,
        dummies: &HashMap<String, usize>,
        indices: &[ForallIndex],
        ranges: &[Triplet],
        line: usize,
    ) -> Result<(ArrayId, Section, Option<Vec<usize>>), FrontendError> {
        let id = self.array(&r.name, line)?;
        let dom = self.space.domain(id).cloned().ok_or_else(|| {
            FrontendError::Semantic(hpf_core::HpfError::NotAllocated(r.name.clone()))
        })?;
        let subs = match &r.section {
            None => return Ok((id, Section::full(&dom), None)),
            Some(s) => s,
        };
        if subs.len() != dom.rank() {
            return Err(FrontendError::Eval(format!(
                "`{}` has rank {} but {} subscripts were given",
                r.name,
                dom.rank(),
                subs.len()
            )));
        }
        let mut dims = Vec::with_capacity(subs.len());
        let mut order = Vec::new();
        for sd in subs {
            let e = match sd {
                SectionDimAst::Scalar(e) => e,
                SectionDimAst::Triplet { .. } => {
                    return Err(FrontendError::Parse {
                        line,
                        what: "subscript triplets are not allowed in a FORALL assignment"
                            .into(),
                    })
                }
            };
            let ax = self.env.to_align_expr(e, dummies)?;
            let mut hit: Option<(usize, i64, i64)> = None;
            let mut constant: Option<i64> = None;
            for k in 0..ranges.len() {
                if let Some((a, c)) = ax.linear_in(k) {
                    if a != 0 {
                        hit = Some((k, a, c));
                        break;
                    }
                    constant = Some(c);
                }
            }
            match hit {
                Some((k, a, c)) => {
                    if a < 0 {
                        return Err(FrontendError::Parse {
                            line,
                            what: format!(
                                "FORALL subscript on `{}` runs backwards in index `{}` — \
                                 only increasing affine subscripts are supported",
                                r.name, indices[k].name
                            ),
                        });
                    }
                    let t = &ranges[k];
                    let sec_t =
                        Triplet::new(a * t.lower() + c, a * t.upper() + c, a * t.stride())
                            .map_err(|e| FrontendError::Eval(e.to_string()))?;
                    dims.push(SectionDim::Triplet(sec_t));
                    order.push(k);
                }
                None => match constant {
                    Some(c) => dims.push(SectionDim::Scalar(c)),
                    None => {
                        return Err(FrontendError::Parse {
                            line,
                            what: format!(
                                "subscript on `{}` must be affine in at most one FORALL \
                                 index",
                                r.name
                            ),
                        })
                    }
                },
            }
        }
        let sec = Section::new(dims);
        sec.validate(&dom)
            .map_err(|e| FrontendError::Eval(format!("`{}`: {e}", r.name)))?;
        Ok((id, sec, Some(order)))
    }

    fn declare_entity(
        &mut self,
        name: &str,
        dims: Option<&Vec<DimDecl>>,
        allocatable: bool,
        _line: usize,
    ) -> Result<(), FrontendError> {
        let id = match dims {
            None => {
                // scalar
                let id = self.space.declare(name, IndexDomain::scalar())?;
                self.report.events.push(Event::Declared {
                    name: name.to_string(),
                    domain: "".into(),
                    allocatable: false,
                });
                id
            }
            Some(ds) if allocatable || ds.iter().any(|d| matches!(d, DimDecl::Deferred)) => {
                let id = self.space.declare_allocatable(name, ds.len())?;
                self.report.events.push(Event::Declared {
                    name: name.to_string(),
                    domain: "<deferred>".into(),
                    allocatable: true,
                });
                id
            }
            Some(ds) => {
                let dom = self.env.eval_shape(ds)?;
                check_storage(name, &dom)?;
                self.env.array_bounds.insert(
                    name.to_string(),
                    dom.dims().iter().map(|t| (t.lower(), t.upper())).collect(),
                );
                let rendered = dom.to_string();
                let id = self.space.declare(name, dom)?;
                self.report.events.push(Event::Declared {
                    name: name.to_string(),
                    domain: rendered,
                    allocatable: false,
                });
                id
            }
        };
        self.arrays.insert(name.to_string(), id);
        Ok(())
    }

    fn distribute_spec(
        &self,
        formats: &[FormatAst],
        target: &Option<TargetAst>,
    ) -> Result<DistributeSpec, FrontendError> {
        let mut fs = Vec::with_capacity(formats.len());
        for f in formats {
            fs.push(match f {
                FormatAst::Block => FormatSpec::Block,
                FormatAst::BlockBalanced => FormatSpec::BlockBalanced,
                FormatAst::Cyclic(None) => FormatSpec::Cyclic(1),
                FormatAst::Cyclic(Some(e)) => {
                    let k = self.env.eval(e)?;
                    if k < 1 {
                        return Err(FrontendError::Semantic(hpf_core::HpfError::BadCyclicArg(k)));
                    }
                    FormatSpec::Cyclic(k as u64)
                }
                FormatAst::Colon => FormatSpec::Collapsed,
                FormatAst::GeneralBlock(es) => {
                    // a single name may refer to a parameter array
                    if let [Expr::Name(n)] = es.as_slice() {
                        if let Some(values) = self.env.param_arrays.get(n) {
                            fs.push(FormatSpec::GeneralBlock(values.clone()));
                            continue;
                        }
                    }
                    let mut g = Vec::with_capacity(es.len());
                    for e in es {
                        g.push(self.env.eval(e)?);
                    }
                    FormatSpec::GeneralBlock(g)
                }
                FormatAst::Indirect(es) => {
                    let values: Vec<i64> = if let [Expr::Name(n)] = es.as_slice() {
                        match self.env.param_arrays.get(n) {
                            Some(v) => v.clone(),
                            None => vec![self.env.eval(&es[0])?],
                        }
                    } else {
                        es.iter()
                            .map(|e| self.env.eval(e))
                            .collect::<Result<_, _>>()?
                    };
                    let coords: Result<Vec<u32>, FrontendError> = values
                        .iter()
                        .map(|&v| {
                            u32::try_from(v).map_err(|_| {
                                FrontendError::Eval(format!(
                                    "INDIRECT coordinate {v} is not a processor number"
                                ))
                            })
                        })
                        .collect();
                    FormatSpec::Indirect(coords?)
                }
            });
        }
        let t = match target {
            None => None,
            Some(TargetAst { name, section: None }) => Some(TargetSpec::Whole(name.clone())),
            Some(TargetAst { name, section: Some(dims) }) => {
                let arr_id = self
                    .space
                    .procs()
                    .by_name(name)
                    .map_err(hpf_core::HpfError::from)?;
                let dom = self
                    .space
                    .procs()
                    .get(arr_id)
                    .domain()
                    .cloned()
                    .ok_or_else(|| {
                        FrontendError::Eval(format!("`{name}` is a scalar arrangement"))
                    })?;
                let sec = self.env.eval_section(dims, &dom)?;
                Some(TargetSpec::Section(name.clone(), sec))
            }
        };
        Ok(DistributeSpec { formats: fs, target: t })
    }

    fn align_spec(
        &self,
        axes: &[AxisAst],
        subscripts: &[BaseSubAst],
    ) -> Result<AlignSpec, FrontendError> {
        let mut dummies: HashMap<String, usize> = HashMap::new();
        let mut alignee = Vec::with_capacity(axes.len());
        for ax in axes {
            alignee.push(match ax {
                AxisAst::Colon => AligneeAxis::Colon,
                AxisAst::Star => AligneeAxis::Star,
                AxisAst::Dummy(n) => {
                    let next = dummies.len();
                    let id = *dummies.entry(n.clone()).or_insert(next);
                    AligneeAxis::Dummy(id)
                }
            });
        }
        let mut base = Vec::with_capacity(subscripts.len());
        for sub in subscripts {
            base.push(match sub {
                BaseSubAst::Star => BaseSubscript::Star,
                BaseSubAst::Expr(e) => {
                    BaseSubscript::Expr(self.env.to_align_expr(e, &dummies)?)
                }
                BaseSubAst::Triplet { lower, upper, stride } => BaseSubscript::Triplet {
                    lower: lower.as_ref().map(|e| self.env.eval(e)).transpose()?,
                    upper: upper.as_ref().map(|e| self.env.eval(e)).transpose()?,
                    stride: stride.as_ref().map(|e| self.env.eval(e)).transpose()?,
                },
            });
        }
        Ok(AlignSpec::new(alignee, base))
    }

    fn resolve_ref(
        &self,
        r: &ArrayRef,
        line: usize,
    ) -> Result<(ArrayId, IndexDomain, Section), FrontendError> {
        let id = self.array(&r.name, line)?;
        let dom = self
            .space
            .domain(id)
            .cloned()
            .ok_or_else(|| FrontendError::Semantic(hpf_core::HpfError::NotAllocated(r.name.clone())))?;
        let sec = match &r.section {
            None => Section::full(&dom),
            Some(dims) => self.env.eval_section(dims, &dom)?,
        };
        Ok((id, dom, sec))
    }

    /// Elaborate a `CALL`: build the §7 procedure definition from the
    /// subroutine's specification part, enter the frame, execute the body's
    /// dynamic directives, and exit (restoring distributions). The body's
    /// executable statements are recorded as [`Event::CallBody`], not
    /// executed.
    fn call(&mut self, name: &str, args: &[ArrayRef], line: usize) -> Result<(), FrontendError> {
        let unit = self
            .subroutines
            .get(name)
            .cloned()
            .ok_or_else(|| FrontendError::UnknownSubroutine(name.to_string()))?;

        // scan the subroutine's statements for dummy mapping directives
        let mut dummy_specs: HashMap<String, DummySpec> = HashMap::new();
        let mut dummy_dynamic: HashMap<String, bool> = HashMap::new();
        let dummy_pos: HashMap<&str, usize> = unit
            .dummies
            .iter()
            .enumerate()
            .map(|(k, d)| (d.as_str(), k))
            .collect();
        for s in &unit.stmts {
            match &s.stmt {
                Stmt::Distribute { distributees, formats, target, inherit, redistribute: false } => {
                    for d in distributees {
                        if !dummy_pos.contains_key(d.as_str()) {
                            continue;
                        }
                        let spec = match inherit {
                            InheritAst::Inherit => DummySpec::Inherit,
                            InheritAst::InheritMatching => DummySpec::InheritMatching {
                                spec: self.distribute_spec(formats, target)?,
                                interface_block: self.interface_blocks,
                            },
                            InheritAst::None => {
                                DummySpec::Explicit(self.distribute_spec(formats, target)?)
                            }
                        };
                        dummy_specs.insert(d.clone(), spec);
                    }
                }
                Stmt::Align { realign: false, alignee, axes, base, subscripts } => {
                    if let (Some(_), Some(&bpos)) =
                        (dummy_pos.get(alignee.as_str()), dummy_pos.get(base.as_str()))
                    {
                        let spec = self.align_spec(axes, subscripts)?;
                        dummy_specs.insert(
                            alignee.clone(),
                            DummySpec::AlignToDummy { base: bpos, spec },
                        );
                    }
                }
                Stmt::Dynamic(names) => {
                    for n in names {
                        if dummy_pos.contains_key(n.as_str()) {
                            dummy_dynamic.insert(n.clone(), true);
                        }
                    }
                }
                _ => {}
            }
        }
        let def = ProcedureDef::new(
            name,
            unit.dummies
                .iter()
                .map(|d| {
                    let mut dm = Dummy::new(
                        d,
                        dummy_specs.get(d).cloned().unwrap_or(DummySpec::Implicit),
                    );
                    if dummy_dynamic.get(d).copied().unwrap_or(false) {
                        dm.dynamic = true;
                    }
                    dm
                })
                .collect(),
        );

        // resolve actuals
        let mut actuals = Vec::with_capacity(args.len());
        for a in args {
            let id = self.array(&a.name, line)?;
            match &a.section {
                None => actuals.push(Actual::whole(id)),
                Some(dims) => {
                    let dom = self.space.domain(id).cloned().ok_or_else(|| {
                        FrontendError::Semantic(hpf_core::HpfError::NotAllocated(a.name.clone()))
                    })?;
                    actuals.push(Actual::section(id, self.env.eval_section(dims, &dom)?));
                }
            }
        }

        let mut frame = CallFrame::enter(&self.space, &def, &actuals)?;

        // elaborate the body: local declarations, local mapping directives
        // (§7: "a local data object may be aligned to a dummy argument"),
        // and dynamic directives on dummies and locals
        let mut local_names: HashMap<String, ArrayId> = unit
            .dummies
            .iter()
            .enumerate()
            .map(|(k, d)| (d.clone(), frame.dummy(k)))
            .collect();
        let mut local_env = self.env.clone();
        for s in &unit.stmts {
            match &s.stmt {
                Stmt::Declaration { allocatable, dimension, entities, .. } => {
                    for ent in entities {
                        if dummy_pos.contains_key(ent.name.as_str()) {
                            continue; // dummy shape declaration, already handled
                        }
                        let dims = ent.dims.as_ref().or(dimension.as_ref());
                        let id = match dims {
                            None => frame
                                .local_mut()
                                .declare(&ent.name, IndexDomain::scalar())?,
                            Some(ds) if *allocatable
                                || ds.iter().any(|d| matches!(d, DimDecl::Deferred)) =>
                            {
                                frame.local_mut().declare_allocatable(&ent.name, ds.len())?
                            }
                            Some(ds) => {
                                let dom = local_env.eval_shape(ds)?;
                                local_env.array_bounds.insert(
                                    ent.name.clone(),
                                    dom.dims()
                                        .iter()
                                        .map(|t| (t.lower(), t.upper()))
                                        .collect(),
                                );
                                frame.local_mut().declare(&ent.name, dom)?
                            }
                        };
                        local_names.insert(ent.name.clone(), id);
                    }
                }
                Stmt::Distribute { redistribute, distributees, formats, target, inherit } => {
                    if *inherit != InheritAst::None {
                        continue; // dummy mapping directive, already handled
                    }
                    let spec = self.distribute_spec(formats, target)?;
                    for d in distributees {
                        let is_dummy = dummy_pos.contains_key(d.as_str());
                        if *redistribute {
                            let Some(&id) = local_names.get(d) else { continue };
                            frame
                                .local_mut()
                                .redistribute(id, &spec)
                                .map_err(FrontendError::Semantic)?;
                        } else if !is_dummy {
                            // explicit DISTRIBUTE on a local
                            let Some(&id) = local_names.get(d) else {
                                return Err(FrontendError::Undeclared {
                                    line: s.line,
                                    name: d.clone(),
                                });
                            };
                            frame
                                .local_mut()
                                .distribute(id, &spec)
                                .map_err(FrontendError::Semantic)?;
                        }
                    }
                }
                Stmt::Align { realign, alignee, base, axes, subscripts } => {
                    let alignee_is_dummy = dummy_pos.contains_key(alignee.as_str());
                    if !*realign && alignee_is_dummy {
                        continue; // dummy-to-dummy spec, already handled
                    }
                    let (Some(&a_id), Some(&b_id)) =
                        (local_names.get(alignee), local_names.get(base))
                    else {
                        return Err(FrontendError::Undeclared {
                            line: s.line,
                            name: alignee.clone(),
                        });
                    };
                    let spec = self.align_spec(axes, subscripts)?;
                    if *realign {
                        frame
                            .local_mut()
                            .realign(a_id, b_id, &spec)
                            .map_err(FrontendError::Semantic)?;
                    } else {
                        frame
                            .local_mut()
                            .align(a_id, b_id, &spec)
                            .map_err(FrontendError::Semantic)?;
                    }
                }
                Stmt::Dynamic(names) => {
                    for n in names {
                        if let Some(&id) = local_names.get(n) {
                            frame.local_mut().set_dynamic(id);
                        }
                    }
                }
                _ => {}
            }
        }

        let report = frame.exit()?;
        self.report.events.push(Event::Call(report));
        for s in &unit.stmts {
            if matches!(
                s.stmt,
                Stmt::ArrayAssign { .. }
                    | Stmt::ScalarAssign { .. }
                    | Stmt::Forall { .. }
                    | Stmt::Call { .. }
                    | Stmt::Allocate(_)
                    | Stmt::Deallocate(_)
                    | Stmt::Read(_)
            ) {
                self.report
                    .events
                    .push(Event::CallBody { procedure: name.to_string(), span: s.span });
            }
        }
        Ok(())
    }
}
