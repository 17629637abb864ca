use crate::ast::{DimDecl, Expr, SectionDimAst};
use crate::error::FrontendError;
use hpf_core::AlignExpr;
use hpf_index::{IndexDomain, Section, SectionDim, Triplet};
use std::collections::HashMap;

/// The specification-expression environment: named integer parameters
/// (from `PARAMETER` and `READ`), integer parameter arrays (for
/// `GENERAL_BLOCK(S)`), and the bounds of declared arrays (for `LBOUND`,
/// `UBOUND`, `SIZE` folding).
#[derive(Debug, Clone, Default)]
pub struct Env {
    /// Scalar integer parameters.
    pub params: HashMap<String, i64>,
    /// Integer parameter arrays.
    pub param_arrays: HashMap<String, Vec<i64>>,
    /// Array bounds by name: `(lower, upper)` per dimension.
    pub array_bounds: HashMap<String, Vec<(i64, i64)>>,
}

/// An expression whose names are resolved (see [`Env::bind`]): evaluating
/// it at one point of a `FORALL` domain touches no name table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoundExpr {
    /// A literal, parameter or folded inquiry.
    Const(i64),
    /// The `FORALL` index in this slot.
    Slot(usize),
    /// `a + b`.
    Add(Box<BoundExpr>, Box<BoundExpr>),
    /// `a − b`.
    Sub(Box<BoundExpr>, Box<BoundExpr>),
    /// `a * b`.
    Mul(Box<BoundExpr>, Box<BoundExpr>),
    /// `a / b` (integer division).
    Div(Box<BoundExpr>, Box<BoundExpr>),
    /// `−a`.
    Neg(Box<BoundExpr>),
    /// `MAX(a, b)`.
    Max(Box<BoundExpr>, Box<BoundExpr>),
    /// `MIN(a, b)`.
    Min(Box<BoundExpr>, Box<BoundExpr>),
}

impl BoundExpr {
    /// Evaluate with `indices[k]` as the value of slot `k`.
    pub fn eval(&self, indices: &[i64]) -> Result<i64, FrontendError> {
        Ok(match self {
            BoundExpr::Const(v) => *v,
            BoundExpr::Slot(k) => indices[*k],
            BoundExpr::Add(a, b) => checked(a.eval(indices)?.checked_add(b.eval(indices)?))?,
            BoundExpr::Sub(a, b) => checked(a.eval(indices)?.checked_sub(b.eval(indices)?))?,
            BoundExpr::Mul(a, b) => checked(a.eval(indices)?.checked_mul(b.eval(indices)?))?,
            BoundExpr::Div(a, b) => {
                let d = nonzero(b.eval(indices)?)?;
                checked(a.eval(indices)?.checked_div(d))?
            }
            BoundExpr::Neg(a) => checked(a.eval(indices)?.checked_neg())?,
            BoundExpr::Max(a, b) => a.eval(indices)?.max(b.eval(indices)?),
            BoundExpr::Min(a, b) => a.eval(indices)?.min(b.eval(indices)?),
        })
    }
}

/// Source integers are `i64`; a result outside it is an error, never a
/// wrapped value.
fn checked(v: Option<i64>) -> Result<i64, FrontendError> {
    v.ok_or_else(|| FrontendError::Eval("integer overflow".into()))
}

fn nonzero(d: i64) -> Result<i64, FrontendError> {
    if d == 0 {
        return Err(FrontendError::Eval("division by zero".into()));
    }
    Ok(d)
}

impl Env {
    /// Evaluate a dummyless specification expression.
    pub fn eval(&self, e: &Expr) -> Result<i64, FrontendError> {
        match e {
            Expr::Int(v) => Ok(*v),
            Expr::Name(n) => self
                .params
                .get(n)
                .copied()
                .ok_or_else(|| FrontendError::UnknownParameter(n.clone())),
            Expr::Add(a, b) => checked(self.eval(a)?.checked_add(self.eval(b)?)),
            Expr::Sub(a, b) => checked(self.eval(a)?.checked_sub(self.eval(b)?)),
            Expr::Mul(a, b) => checked(self.eval(a)?.checked_mul(self.eval(b)?)),
            Expr::Div(a, b) => {
                let d = nonzero(self.eval(b)?)?;
                checked(self.eval(a)?.checked_div(d))
            }
            Expr::Neg(a) => checked(self.eval(a)?.checked_neg()),
            Expr::Max(a, b) => Ok(self.eval(a)?.max(self.eval(b)?)),
            Expr::Min(a, b) => Ok(self.eval(a)?.min(self.eval(b)?)),
            Expr::LBound(arr, d) | Expr::UBound(arr, d) | Expr::Size(arr, d) => {
                let dim = self.eval(d)?;
                let bounds = self
                    .array_bounds
                    .get(arr)
                    .ok_or_else(|| FrontendError::UnknownParameter(arr.clone()))?;
                let (lo, up) = *usize::try_from(dim)
                    .ok()
                    .and_then(|k| bounds.get(k.checked_sub(1)?))
                    .ok_or_else(|| {
                        FrontendError::Eval(format!("dimension {dim} out of range for `{arr}`"))
                    })?;
                Ok(match e {
                    Expr::LBound(..) => lo,
                    Expr::UBound(..) => up,
                    _ => checked(up.checked_sub(lo).and_then(|n| n.checked_add(1)))?.max(0),
                })
            }
        }
    }

    /// Resolve the names of an expression once, for repeated evaluation
    /// over a `FORALL` domain: a name in `slots` (the `FORALL` indices,
    /// which shadow parameters) becomes its slot, every other leaf its
    /// value.
    pub fn bind(
        &self,
        e: &Expr,
        slots: &HashMap<String, usize>,
    ) -> Result<BoundExpr, FrontendError> {
        let pair = |a: &Expr, b: &Expr| -> Result<_, FrontendError> {
            Ok((Box::new(self.bind(a, slots)?), Box::new(self.bind(b, slots)?)))
        };
        Ok(match e {
            Expr::Name(n) => match slots.get(n) {
                Some(&k) => BoundExpr::Slot(k),
                None => BoundExpr::Const(self.eval(e)?),
            },
            Expr::Int(_) | Expr::LBound(..) | Expr::UBound(..) | Expr::Size(..) => {
                BoundExpr::Const(self.eval(e)?)
            }
            Expr::Add(a, b) => pair(a, b).map(|(a, b)| BoundExpr::Add(a, b))?,
            Expr::Sub(a, b) => pair(a, b).map(|(a, b)| BoundExpr::Sub(a, b))?,
            Expr::Mul(a, b) => pair(a, b).map(|(a, b)| BoundExpr::Mul(a, b))?,
            // the divisor first, as evaluation takes it
            Expr::Div(a, b) => pair(b, a).map(|(b, a)| BoundExpr::Div(a, b))?,
            Expr::Neg(a) => BoundExpr::Neg(Box::new(self.bind(a, slots)?)),
            Expr::Max(a, b) => pair(a, b).map(|(a, b)| BoundExpr::Max(a, b))?,
            Expr::Min(a, b) => pair(a, b).map(|(a, b)| BoundExpr::Min(a, b))?,
        })
    }

    /// Translate an alignment expression into a core [`AlignExpr`]: names
    /// that match a declared align-dummy become [`AlignExpr::Dummy`];
    /// everything else is folded to constants (`LBOUND`/`UBOUND`/`SIZE`
    /// are specification-time constants, as DESIGN.md documents).
    pub fn to_align_expr(
        &self,
        e: &Expr,
        dummies: &HashMap<String, usize>,
    ) -> Result<AlignExpr, FrontendError> {
        // fully constant subtrees fold immediately
        if !self.uses_dummy(e, dummies) {
            return Ok(AlignExpr::Const(self.eval(e)?));
        }
        Ok(match e {
            Expr::Int(v) => AlignExpr::Const(*v),
            Expr::Name(n) => match dummies.get(n) {
                Some(id) => AlignExpr::Dummy(*id),
                None => AlignExpr::Const(self.eval(e)?),
            },
            Expr::Add(a, b) => {
                self.to_align_expr(a, dummies)? + self.to_align_expr(b, dummies)?
            }
            Expr::Sub(a, b) => {
                self.to_align_expr(a, dummies)? - self.to_align_expr(b, dummies)?
            }
            Expr::Mul(a, b) => {
                self.to_align_expr(a, dummies)? * self.to_align_expr(b, dummies)?
            }
            Expr::Div(_, _) => {
                return Err(FrontendError::Eval(
                    "division of an align-dummy is not a linear alignment".into(),
                ))
            }
            Expr::Neg(a) => -self.to_align_expr(a, dummies)?,
            Expr::Max(a, b) => self
                .to_align_expr(a, dummies)?
                .max(self.to_align_expr(b, dummies)?),
            Expr::Min(a, b) => self
                .to_align_expr(a, dummies)?
                .min(self.to_align_expr(b, dummies)?),
            Expr::LBound(..) | Expr::UBound(..) | Expr::Size(..) => {
                AlignExpr::Const(self.eval(e)?)
            }
        })
    }

    fn uses_dummy(&self, e: &Expr, dummies: &HashMap<String, usize>) -> bool {
        match e {
            Expr::Int(_) => false,
            Expr::Name(n) => dummies.contains_key(n),
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Div(a, b)
            | Expr::Max(a, b)
            | Expr::Min(a, b) => {
                self.uses_dummy(a, dummies) || self.uses_dummy(b, dummies)
            }
            Expr::Neg(a) => self.uses_dummy(a, dummies),
            Expr::LBound(..) | Expr::UBound(..) | Expr::Size(..) => false,
        }
    }

    /// Evaluate a declaration shape to an index domain. Each extent and
    /// the element count are checked arithmetic: a shape whose extent
    /// overflows `i64`, or whose element count overflows `usize`, is an
    /// error, never a wrapped size.
    pub fn eval_shape(&self, dims: &[DimDecl]) -> Result<IndexDomain, FrontendError> {
        let mut bounds = Vec::with_capacity(dims.len());
        for d in dims {
            match d {
                DimDecl::Deferred => {
                    return Err(FrontendError::Eval(
                        "deferred shape where an explicit shape is required".into(),
                    ))
                }
                DimDecl::Explicit { lower, upper } => {
                    let lo = match lower {
                        Some(e) => self.eval(e)?,
                        None => 1,
                    };
                    let up = self.eval(upper)?;
                    if up >= lo {
                        checked(up.checked_sub(lo).and_then(|n| n.checked_add(1)))?;
                    }
                    bounds.push((lo, up));
                }
            }
        }
        let dom =
            IndexDomain::standard(&bounds).map_err(|e| FrontendError::Eval(e.to_string()))?;
        let counted = dom.dims().iter().try_fold(1usize, |n, t| n.checked_mul(t.len()));
        if counted.is_none() && !dom.is_empty() {
            return Err(FrontendError::Eval(format!(
                "shape {dom} has more than usize::MAX elements"
            )));
        }
        Ok(dom)
    }

    /// Evaluate a section reference against its parent domain, applying
    /// Fortran defaults (`:` spans the whole dimension, stride defaults 1).
    pub fn eval_section(
        &self,
        dims: &[SectionDimAst],
        parent: &IndexDomain,
    ) -> Result<Section, FrontendError> {
        if dims.len() != parent.rank() {
            return Err(FrontendError::Eval(format!(
                "section has {} subscripts, array has rank {}",
                dims.len(),
                parent.rank()
            )));
        }
        let mut out = Vec::with_capacity(dims.len());
        for (d, sd) in dims.iter().enumerate() {
            match sd {
                SectionDimAst::Scalar(e) => out.push(SectionDim::Scalar(self.eval(e)?)),
                SectionDimAst::Triplet { lower, upper, stride } => {
                    let lo = match lower {
                        Some(e) => self.eval(e)?,
                        None => parent.lower(d),
                    };
                    let up = match upper {
                        Some(e) => self.eval(e)?,
                        None => parent.upper(d),
                    };
                    let st = match stride {
                        Some(e) => self.eval(e)?,
                        None => 1,
                    };
                    let t = Triplet::new(lo, up, st)
                        .map_err(|e| FrontendError::Eval(e.to_string()))?;
                    out.push(SectionDim::Triplet(t));
                }
            }
        }
        Ok(Section::new(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::ast::Stmt;

    fn env() -> Env {
        let mut e = Env::default();
        e.params.insert("N".into(), 64);
        e.params.insert("M".into(), 3);
        e.array_bounds.insert("A".into(), vec![(1, 100), (0, 9)]);
        e
    }

    fn expr_of(src: &str) -> Expr {
        // parse "X = <expr>" as a parameter to extract the expression
        match parse(&format!("PARAMETER (X = {src})")).unwrap().main.stmts[0].stmt.clone() {
            Stmt::Parameter(p) => p[0].1.clone(),
            s => panic!("{s:?}"),
        }
    }

    #[test]
    fn bound_expressions_evaluate_like_the_tree_they_came_from() {
        let e = env();
        // `N` names a FORALL index here and shadows the parameter
        let slots: HashMap<String, usize> = [("I".to_string(), 0), ("N".to_string(), 1)].into();
        let b = e.bind(&expr_of("MAX(2*I - M, N/2) + UBOUND(A, 2)"), &slots).unwrap();
        for (i, n) in [(1, 8), (5, 2), (-3, 7)] {
            assert_eq!(b.eval(&[i, n]).unwrap(), (2 * i - 3).max(n / 2) + 9);
        }
        // an unknown name fails when bound, a zero divisor where it occurs
        assert!(matches!(
            e.bind(&expr_of("I + Q"), &slots),
            Err(FrontendError::UnknownParameter(q)) if q == "Q"
        ));
        let d = e.bind(&expr_of("M / (I - 2)"), &slots).unwrap();
        assert_eq!(d.eval(&[3, 0]).unwrap(), 3);
        assert!(matches!(d.eval(&[2, 0]), Err(FrontendError::Eval(_))));
    }

    #[test]
    fn arithmetic() {
        let e = env();
        assert_eq!(e.eval(&expr_of("2*N - 1")).unwrap(), 127);
        assert_eq!(e.eval(&expr_of("N/M")).unwrap(), 21);
        assert_eq!(e.eval(&expr_of("-(N + 1)")).unwrap(), -65);
        assert_eq!(e.eval(&expr_of("MAX(N, 100)")).unwrap(), 100);
        assert_eq!(e.eval(&expr_of("MIN(N, 100)")).unwrap(), 64);
    }

    #[test]
    fn bounds_intrinsics() {
        let e = env();
        assert_eq!(e.eval(&expr_of("LBOUND(A, 2)")).unwrap(), 0);
        assert_eq!(e.eval(&expr_of("UBOUND(A, 1)")).unwrap(), 100);
        assert_eq!(e.eval(&expr_of("SIZE(A, 2)")).unwrap(), 10);
    }

    #[test]
    fn unknown_parameter() {
        assert!(matches!(
            env().eval(&expr_of("Q + 1")),
            Err(FrontendError::UnknownParameter(_))
        ));
    }

    #[test]
    fn division_by_zero() {
        assert!(env().eval(&expr_of("N/0")).is_err());
    }

    #[test]
    fn overflow_is_an_error_not_a_wrapped_value() {
        let e = env();
        let slots: HashMap<String, usize> = [("I".to_string(), 0)].into();
        // at I = 1 the last two reach i64::MIN / -1 and -i64::MIN
        for (src, i) in [
            ("I * 9223372036854775807", 2),
            ("I + 9223372036854775807", 1),
            ("-I - 9223372036854775807", 2),
            ("(-I - 9223372036854775807) / (-1)", 1),
            ("-(-I - 9223372036854775807)", 1),
        ] {
            let err = e.bind(&expr_of(src), &slots).unwrap().eval(&[i]).unwrap_err();
            assert_eq!(err, FrontendError::Eval("integer overflow".into()), "{src}");
            let folded = src.replace('I', &i.to_string());
            assert_eq!(e.eval(&expr_of(&folded)), Err(err), "{folded}");
        }
    }

    #[test]
    fn align_expr_translation() {
        let e = env();
        let mut dummies = HashMap::new();
        dummies.insert("I".into(), 0usize);
        // 2*I - 1 with I a dummy
        let ae = e.to_align_expr(&expr_of("2*I - 1"), &dummies).unwrap();
        assert_eq!(ae.linear_in(0), Some((2, -1)));
        // M*I + N folds M and N
        let ae = e.to_align_expr(&expr_of("M*I + N"), &dummies).unwrap();
        assert_eq!(ae.linear_in(0), Some((3, 64)));
        // fully constant folds to Const
        let ae = e.to_align_expr(&expr_of("N*M"), &dummies).unwrap();
        assert_eq!(ae, AlignExpr::Const(192));
    }

    #[test]
    fn shapes_and_sections() {
        let e = env();
        let dom = e
            .eval_shape(&[
                DimDecl::Explicit { lower: Some(Expr::Int(0)), upper: expr_of("N") },
                DimDecl::Explicit { lower: None, upper: expr_of("N") },
            ])
            .unwrap();
        assert_eq!(dom.to_string(), "[0:64, 1:64]");
        let sec = e
            .eval_section(
                &[
                    SectionDimAst::Triplet { lower: None, upper: None, stride: None },
                    SectionDimAst::Scalar(Expr::Int(3)),
                ],
                &dom,
            )
            .unwrap();
        assert_eq!(sec.rank(), 1);
        assert_eq!(sec.size(), 65);
    }

    #[test]
    fn shapes_whose_size_overflows_are_errors() {
        let e = env();
        let dim = |lo: &str, up: &str| DimDecl::Explicit {
            lower: Some(expr_of(lo)),
            upper: expr_of(up),
        };
        let extent = e.eval_shape(&[dim("-9223372036854775807", "9223372036854775807")]);
        assert_eq!(extent.unwrap_err().to_string(), "specification expression: integer overflow");
        let huge = dim("1", "100000000000");
        let count = e.eval_shape(&[huge.clone(), huge.clone()]);
        assert!(count.unwrap_err().to_string().contains("more than usize::MAX"));
        // an empty dimension makes the whole shape empty, however large the rest
        let empty = e.eval_shape(&[huge.clone(), huge, dim("1", "0")]);
        assert_eq!(empty.unwrap().size(), 0);
    }
}
