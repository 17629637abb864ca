//! The independent reference: what the generated programs must compute,
//! worked out from the harness's own [`ProgramSpec`] by plain dense
//! loops. Nothing here calls the frontend or the runtime, so agreement
//! with it is evidence, and its step time is the same-host "no
//! abstraction" cost the runtime is measured against.
//!
//! Right-hand-side terms are added in source order, left to right,
//! which is the order the runtime's kernels use; results are therefore
//! compared bit for bit, not within a tolerance.

use crate::gen::{Assign, ProgramSpec, Ref, Sub};
use std::time::Instant;

/// Dense column-major storage, one vector per array of the spec.
pub type Dense = Vec<Vec<f64>>;

/// Column-major weights of an array's dimensions.
fn weights(dims: &[(i64, i64)]) -> Vec<usize> {
    let mut w = Vec::with_capacity(dims.len());
    let mut acc = 1usize;
    for &(lo, hi) in dims {
        w.push(acc);
        acc *= (hi - lo + 1) as usize;
    }
    w
}

/// Arrays zero-initialised, then the fills applied in program order.
pub fn initial(spec: &ProgramSpec) -> Dense {
    let mut dense: Dense = spec.arrays.iter().map(|a| vec![0.0; a.len()]).collect();
    for f in &spec.fills {
        let a = &spec.arrays[f.array];
        let w = weights(&a.dims);
        let out = &mut dense[f.array];
        let mut idx: Vec<usize> = vec![0; f.ranges.len()];
        'fill: loop {
            let mut value = f.c0;
            let mut pos = 0usize;
            for (d, r) in f.ranges.iter().enumerate() {
                let i = r.lo + r.stride * idx[d] as i64;
                value += f.coef[d] * i;
                pos += (i - a.dims[d].0) as usize * w[d];
            }
            out[pos] = value as f64;
            for (i, r) in idx.iter_mut().zip(&f.ranges) {
                *i += 1;
                if *i < r.count {
                    continue 'fill;
                }
                *i = 0;
            }
            break;
        }
    }
    dense
}

/// A reference resolved to linear addressing: element `(p, q)` of the
/// section lives at `base + p·step[0] + q·step[1]`.
struct Walk {
    array: usize,
    base: usize,
    step: [usize; 2],
}

fn walk(spec: &ProgramSpec, r: &Ref) -> Walk {
    let dims = &spec.arrays[r.array].dims;
    let w = weights(dims);
    let mut base = 0usize;
    let mut step = [0usize; 2];
    let mut k = 0;
    for (d, s) in r.subs.iter().enumerate() {
        match s {
            Sub::At(v) => base += (v - dims[d].0) as usize * w[d],
            Sub::Span(range) => {
                base += (range.lo - dims[d].0) as usize * w[d];
                step[k] = range.stride as usize * w[d];
                k += 1;
            }
        }
    }
    Walk {
        array: r.array,
        base,
        step,
    }
}

/// The `(rows, columns)` extent of a statement's sections.
fn shape(s: &Assign) -> (usize, usize) {
    let mut counts = s.lhs.subs.iter().filter_map(|s| match s {
        Sub::Span(r) => Some(r.count),
        Sub::At(_) => None,
    });
    (counts.next().unwrap_or(1), counts.next().unwrap_or(1))
}

/// A program's statements resolved once, so a timed step is loops only.
pub struct Evaluator {
    stmts: Vec<(Walk, Vec<Walk>, (usize, usize))>,
    scratch: Vec<f64>,
}

impl Evaluator {
    pub fn new(spec: &ProgramSpec) -> Self {
        let stmts: Vec<_> = spec
            .stmts
            .iter()
            .map(|s| {
                (
                    walk(spec, &s.lhs),
                    s.terms.iter().map(|t| walk(spec, t)).collect(),
                    shape(s),
                )
            })
            .collect();
        let most = stmts.iter().map(|(_, _, (n, m))| n * m).max().unwrap_or(0);
        Evaluator {
            stmts,
            scratch: vec![0.0; most],
        }
    }

    /// One timestep: every statement in order, each computed into
    /// scratch from the pre-statement values and then stored.
    pub fn step(&mut self, dense: &mut Dense) {
        for (lhs, terms, (n, m)) in &self.stmts {
            let (n, m) = (*n, *m);
            for (t, term) in terms.iter().enumerate() {
                let src = &dense[term.array];
                for q in 0..m {
                    let row = term.base + q * term.step[1];
                    let out = &mut self.scratch[q * n..(q + 1) * n];
                    if t == 0 {
                        for (p, o) in out.iter_mut().enumerate() {
                            *o = src[row + p * term.step[0]];
                        }
                    } else {
                        for (p, o) in out.iter_mut().enumerate() {
                            *o += src[row + p * term.step[0]];
                        }
                    }
                }
            }
            let dst = &mut dense[lhs.array];
            for q in 0..m {
                let row = lhs.base + q * lhs.step[1];
                for (p, v) in self.scratch[q * n..(q + 1) * n].iter().enumerate() {
                    dst[row + p * lhs.step[0]] = *v;
                }
            }
        }
    }
}

// ---- the hand-written loops of the three runtime workloads: what a
// programmer would write for these statements with no mapping layer.

/// `UNEW(2:N-1,2:N-1) = U(i-1,j) + U(i+1,j) + U(i,j-1) + U(i,j+1)` then
/// `U(2:N-1,2:N-1) = UNEW(2:N-1,2:N-1)`, column-major `n × n`.
pub fn stencil2d_step(u: &mut [f64], unew: &mut [f64], n: usize) {
    for j in 1..n - 1 {
        let left = &u[(j - 1) * n + 1..j * n - 1];
        let right = &u[(j + 1) * n + 1..(j + 2) * n - 1];
        let up = &u[j * n..(j + 1) * n - 2];
        let down = &u[j * n + 2..(j + 1) * n];
        let out = &mut unew[j * n + 1..(j + 1) * n - 1];
        for i in 0..n - 2 {
            out[i] = up[i] + down[i] + left[i] + right[i];
        }
    }
    for j in 1..n - 1 {
        u[j * n + 1..(j + 1) * n - 1].copy_from_slice(&unew[j * n + 1..(j + 1) * n - 1]);
    }
}

/// `A(1:N) = B(1:N)` then `B(2:N) = A(1:N-1) + B(2:N)`.
pub fn pingpong_step(a: &mut [f64], b: &mut [f64]) {
    a.copy_from_slice(b);
    for (bi, ai) in b[1..].iter_mut().zip(a.iter()) {
        *bi += *ai; // `A + B` in source order; IEEE addition commutes
    }
}

/// `T(2:N) = U(1:N-1)`, `T(1:1) = U(N:N)`, `U(1:N) = T(1:N)`.
pub fn smallstep_step(u: &mut [f64], t: &mut [f64]) {
    let n = u.len();
    t[1..].copy_from_slice(&u[..n - 1]);
    t[0] = u[n - 1];
    u.copy_from_slice(t);
}

/// A hand-written step over a workload's two arrays and its extent `n`.
type HandWritten = fn(&mut [f64], &mut [f64], usize);

/// What a program must hold after `steps` timesteps, and how long one
/// step of the reference took.
pub struct Expected {
    pub dense: Dense,
    /// Wall nanoseconds of each reference step.
    pub step_ns: Vec<u64>,
}

/// Run the reference for `steps` timesteps: the hand-written loop for
/// the three runtime workloads, the generic evaluator otherwise.
pub fn expected(spec: &ProgramSpec, steps: usize) -> Expected {
    let mut dense = initial(spec);
    let mut step_ns = Vec::with_capacity(steps);
    let mut timed = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        step_ns.push(t.elapsed().as_nanos() as u64);
    };
    let hand_written: Option<HandWritten> = match spec.name.as_str() {
        "stencil2d" => Some(stencil2d_step),
        "pingpong" => Some(|a, b, _| pingpong_step(a, b)),
        "smallstep" => Some(|u, t, _| smallstep_step(u, t)),
        _ => None,
    };
    match hand_written {
        Some(step) => {
            let (first, rest) = dense.split_at_mut(1);
            let (x, y) = (&mut first[0][..], &mut rest[0][..]);
            let n = (spec.arrays[0].dims[0].1 - spec.arrays[0].dims[0].0 + 1) as usize;
            for _ in 0..steps {
                timed(&mut || step(x, y, n));
            }
        }
        None => {
            let mut ev = Evaluator::new(spec);
            for _ in 0..steps {
                timed(&mut || ev.step(&mut dense));
            }
        }
    }
    Expected { dense, step_ns }
}

/// The closed form of `smallstep`: after `steps ≥ 1` rotations both
/// arrays hold the fill shifted by `steps` positions.
pub fn smallstep_closed_form(spec: &ProgramSpec, steps: usize) -> Dense {
    let u0 = &initial(spec)[0];
    let n = u0.len();
    let u: Vec<f64> = (0..n).map(|i| u0[(i + n - steps % n) % n]).collect();
    vec![u.clone(), u]
}

/// The reference side of a whole workload: `passes` times, allocate the
/// initial state afresh and take `steps` timesteps. Returns what every
/// program holds after the last pass and the wall nanoseconds of every
/// reference step of the whole workload.
///
/// A single program is stepped by its hand-written loop, each step a
/// sample. The corpus programs are far too small to time one by one, so
/// there a sample is one step of *every* program. Fresh allocations per
/// pass matter: the step time of these cache-resident loops moves by
/// several percent with where the pages land, and callers pool passes
/// taken at different moments of the run to see through that.
pub fn run(programs: &[ProgramSpec], steps: usize, passes: usize) -> (Vec<Dense>, Vec<u64>) {
    let mut samples = Vec::with_capacity(steps * passes);
    let mut state = Vec::new();
    if let [spec] = programs {
        for _ in 0..passes {
            let e = expected(spec, steps);
            samples.extend(e.step_ns);
            state = vec![e.dense];
        }
        if spec.name == "smallstep" {
            let closed = smallstep_closed_form(spec, steps);
            assert_eq!(
                first_mismatch(spec, &closed, &state[0]),
                None,
                "rotation loop and closed form disagree"
            );
        }
        return (state, samples);
    }
    let mut evaluators: Vec<Evaluator> = programs.iter().map(Evaluator::new).collect();
    for _ in 0..passes {
        state = programs.iter().map(initial).collect();
        for _ in 0..steps {
            let t = Instant::now();
            for (ev, dense) in evaluators.iter_mut().zip(&mut state) {
                ev.step(dense);
            }
            samples.push(t.elapsed().as_nanos() as u64);
        }
    }
    (state, samples)
}

/// First position at which two dense states differ bit for bit.
pub fn first_mismatch(spec: &ProgramSpec, want: &Dense, got: &Dense) -> Option<String> {
    for (k, (w, g)) in want.iter().zip(got).enumerate() {
        if w.len() != g.len() {
            return Some(format!(
                "{}: {} element(s), reference has {}",
                spec.arrays[k].name,
                g.len(),
                w.len()
            ));
        }
        if let Some(at) = w
            .iter()
            .zip(g)
            .position(|(a, b)| a.to_bits() != b.to_bits())
        {
            return Some(format!(
                "{}: element {at} is {} but the reference says {}",
                spec.arrays[k].name, g[at], w[at]
            ));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    /// The generic evaluator and the hand-written loops are two
    /// implementations of the same statements; they must agree exactly.
    #[test]
    fn hand_written_loops_match_the_generic_evaluator() {
        for spec in [
            gen::stencil2d(3, 24),
            gen::pingpong(3, 64),
            gen::smallstep(3, 32),
        ] {
            let by_hand = expected(&spec, 9).dense;
            let mut generic = initial(&spec);
            let mut ev = Evaluator::new(&spec);
            for _ in 0..9 {
                ev.step(&mut generic);
            }
            assert_eq!(
                first_mismatch(&spec, &generic, &by_hand),
                None,
                "{}",
                spec.name
            );
        }
    }

    #[test]
    fn smallstep_rotation_has_its_closed_form() {
        let spec = gen::smallstep(5, 32);
        for steps in [1, 7, 32, 45] {
            let looped = expected(&spec, steps).dense;
            assert_eq!(
                first_mismatch(&spec, &smallstep_closed_form(&spec, steps), &looped),
                None,
                "after {steps} steps"
            );
        }
    }

    #[test]
    fn fills_follow_their_coefficients() {
        let spec = gen::stencil2d(1, 8);
        let f = &spec.fills[0];
        let dense = initial(&spec);
        // U(3,5) sits at column-major (3-1) + (5-1)*8
        assert_eq!(
            dense[0][2 + 4 * 8],
            (f.c0 + f.coef[0] * 3 + f.coef[1] * 5) as f64
        );
        assert!(dense[1].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn overlapping_sections_read_before_they_store() {
        // A(2:4) = A(1:3): the pre-statement values shift, they do not smear
        let mut spec = gen::smallstep(1, 4);
        spec.stmts = vec![Assign {
            lhs: Ref {
                array: 0,
                subs: vec![Sub::Span(gen::Range::span(2, 4))],
            },
            terms: vec![Ref {
                array: 0,
                subs: vec![Sub::Span(gen::Range::span(1, 3))],
            }],
        }];
        let mut dense = vec![vec![1.0, 2.0, 3.0, 4.0], vec![0.0; 4]];
        Evaluator::new(&spec).step(&mut dense);
        assert_eq!(dense[0], vec![1.0, 1.0, 2.0, 3.0]);
    }
}
