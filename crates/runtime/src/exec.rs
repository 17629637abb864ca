//! The dense oracle: naive element-wise evaluation of a statement over
//! global index space — what every execution path is held bit-identical
//! to. Never on the execution path itself.

use crate::assign::Assignment;
use crate::DistArray;
use hpf_index::IndexDomain;

/// Compute the expected dense value of the LHS array after `stmt` by naive
/// element-wise evaluation, reading the arrays' *current* values — the
/// oracle compiled plans are tested against. Deliberately simple and
/// O(global size).
pub fn dense_reference(arrays: &[DistArray<f64>], stmt: &Assignment) -> Vec<f64> {
    let lhs_dom = arrays[stmt.lhs].domain().clone();
    let mut dense = arrays[stmt.lhs].to_dense();
    let mut vals = vec![0.0f64; stmt.terms.len()];
    let mut updates = Vec::with_capacity(stmt.element_count());
    for rel in stmt.positions() {
        for (t, term) in stmt.terms.iter().enumerate() {
            vals[t] = arrays[term.array].get(&stmt.rhs_index(t, &rel));
        }
        updates.push((stmt.lhs_index(&rel), stmt.combine.apply(&vals)));
    }
    for (gi, v) in updates {
        dense[lhs_dom.linearize(&gi).expect("validated sections stay in bounds")] = v;
    }
    dense
}

/// Apply `stmt` to a set of dense mirrors in place — the multi-timestep
/// companion of [`dense_reference`]. `dense[k]` holds array `k` in
/// column-major global order over `domains[k]`; repeating this over every
/// statement of a program, timestep after timestep, yields the oracle the
/// end-to-end pipeline (`hpfrun --verify`) compares distributed results
/// against. Same aliasing discipline as [`dense_reference`]: all updates
/// are computed from the pre-statement values, then stored.
pub fn apply_dense(dense: &mut [Vec<f64>], domains: &[IndexDomain], stmt: &Assignment) {
    let mut vals = vec![0.0f64; stmt.terms.len()];
    let mut updates = Vec::with_capacity(stmt.element_count());
    for rel in stmt.positions() {
        for (t, term) in stmt.terms.iter().enumerate() {
            let gi = stmt.rhs_index(t, &rel);
            vals[t] = dense[term.array]
                [domains[term.array].linearize(&gi).expect("validated sections stay in bounds")];
        }
        updates.push((stmt.lhs_index(&rel), stmt.combine.apply(&vals)));
    }
    let lhs_dom = &domains[stmt.lhs];
    for (gi, v) in updates {
        dense[stmt.lhs][lhs_dom.linearize(&gi).expect("validated sections stay in bounds")] = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::{Combine, Term};
    use crate::testing::run_stmt;
    use crate::SharedMemBackend;
    use hpf_core::{DataSpace, DistributeSpec, FormatSpec};
    use hpf_index::{span, triplet, IndexDomain, Section};

    fn setup(n: usize, np: usize, fmts: &[FormatSpec]) -> Vec<DistArray<f64>> {
        let mut ds = DataSpace::new(np);
        let mut out = Vec::new();
        for (k, f) in fmts.iter().enumerate() {
            let name = format!("A{k}");
            let id = ds.declare(&name, IndexDomain::of_shape(&[n]).unwrap()).unwrap();
            ds.distribute(id, &DistributeSpec::new(vec![f.clone()])).unwrap();
            out.push(DistArray::from_fn(
                &name,
                ds.effective(id).unwrap(),
                np,
                |i| (i[0] * (k as i64 + 1)) as f64,
            ));
        }
        out
    }

    #[test]
    fn copy_assignment_matches_reference() {
        let mut arrays = setup(32, 4, &[FormatSpec::Block, FormatSpec::Cyclic(1)]);
        let doms: Vec<&IndexDomain> = arrays.iter().map(|a| a.domain()).collect();
        let stmt = Assignment::new(
            0,
            Section::from_triplets(vec![span(1, 32)]),
            vec![Term::new(1, Section::from_triplets(vec![span(1, 32)]))],
            Combine::Copy,
            &doms,
        )
        .unwrap();
        let expect = dense_reference(&arrays, &stmt);
        run_stmt(&mut arrays, &stmt, &mut SharedMemBackend::new());
        assert_eq!(arrays[0].to_dense(), expect);
        // A0(i) must now be 2*i (copied from A1)
        assert_eq!(arrays[0].get(&hpf_index::Idx::d1(5)), 10.0);
    }

    #[test]
    fn shift_with_aliasing_is_safe() {
        // A(2:16) = A(1:15): must read old values (Fortran semantics)
        let mut arrays = setup(16, 4, &[FormatSpec::Block]);
        let doms: Vec<&IndexDomain> = arrays.iter().map(|a| a.domain()).collect();
        let stmt = Assignment::new(
            0,
            Section::from_triplets(vec![span(2, 16)]),
            vec![Term::new(0, Section::from_triplets(vec![span(1, 15)]))],
            Combine::Copy,
            &doms,
        )
        .unwrap();
        run_stmt(&mut arrays, &stmt, &mut SharedMemBackend::new());
        let dense = arrays[0].to_dense();
        // original A(i) = i; after shift A(i) = i−1 for i ≥ 2
        assert_eq!(dense[0], 1.0);
        for i in 2..=16usize {
            assert_eq!(dense[i - 1], (i - 1) as f64, "A({i})");
        }
    }

    #[test]
    fn sum_of_two_terms() {
        let mut arrays = setup(20, 4, &[FormatSpec::Block, FormatSpec::Block]);
        let doms: Vec<&IndexDomain> = arrays.iter().map(|a| a.domain()).collect();
        // A0(1:10) = A1(1:10) + A1(11:20)
        let stmt = Assignment::new(
            0,
            Section::from_triplets(vec![span(1, 10)]),
            vec![
                Term::new(1, Section::from_triplets(vec![span(1, 10)])),
                Term::new(1, Section::from_triplets(vec![span(11, 20)])),
            ],
            Combine::Sum,
            &doms,
        )
        .unwrap();
        let analysis = run_stmt(&mut arrays, &stmt, &mut SharedMemBackend::new());
        for i in 1..=10i64 {
            // 2i + 2(i+10) = 4i + 20
            assert_eq!(arrays[0].get(&hpf_index::Idx::d1(i)), (4 * i + 20) as f64);
        }
        assert!(analysis.remote_reads > 0, "cross-half reads must communicate");
    }

    #[test]
    fn strided_gather() {
        let mut arrays = setup(40, 4, &[FormatSpec::Block, FormatSpec::Cyclic(3)]);
        let doms: Vec<&IndexDomain> = arrays.iter().map(|a| a.domain()).collect();
        // A0(1:20) = A1(2:40:2)
        let stmt = Assignment::new(
            0,
            Section::from_triplets(vec![span(1, 20)]),
            vec![Term::new(1, Section::from_triplets(vec![triplet(2, 40, 2)]))],
            Combine::Copy,
            &doms,
        )
        .unwrap();
        let expect = dense_reference(&arrays, &stmt);
        run_stmt(&mut arrays, &stmt, &mut SharedMemBackend::new());
        assert_eq!(arrays[0].to_dense(), expect);
    }

    #[test]
    fn execute_plan_replays() {
        // one inspection, several replays through the same cache: every
        // replay applies the statement to the arrays' *current* values
        let mut arrays = setup(24, 3, &[FormatSpec::Block, FormatSpec::Cyclic(2)]);
        let doms: Vec<&IndexDomain> = arrays.iter().map(|a| a.domain()).collect();
        let stmt = Assignment::new(
            0,
            Section::from_triplets(vec![span(2, 24)]),
            vec![
                Term::new(0, Section::from_triplets(vec![span(1, 23)])),
                Term::new(1, Section::from_triplets(vec![span(1, 23)])),
            ],
            Combine::Sum,
            &doms,
        )
        .unwrap();
        let mut cache = crate::PlanCache::new();
        let mut backend = SharedMemBackend::new();
        for _ in 0..3 {
            let expect = dense_reference(&arrays, &stmt);
            cache.replay(&mut arrays, std::slice::from_ref(&stmt), true, &mut backend).unwrap();
            assert_eq!(arrays[0].to_dense(), expect);
        }
        assert_eq!((cache.hits(), cache.misses()), (2, 1));
    }
}
