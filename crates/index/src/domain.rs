use crate::{Idx, IndexError, Triplet, MAX_RANK};
use std::fmt;

/// A rank-*n* index domain (§2.1 of the paper): an ordered set of subscript
/// tuples represented by a subscript-triplet list of length *n*.
///
/// A domain is *standard* iff every triplet has stride 1; declared arrays
/// and processor arrays are always associated with standard index domains
/// (`I^A`), while array *sections* have general triplet domains.
///
/// Iteration and linearization are Fortran **column-major**: the first
/// dimension varies fastest. This matters because §3 maps processor
/// arrangements onto the abstract processor arrangement "in the same way as
/// storage association is defined for the Fortran 90 EQUIVALENCE statement",
/// i.e. by column-major position.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct IndexDomain {
    dims: Vec<Triplet>,
}

impl IndexDomain {
    /// Build a domain from explicit triplets.
    pub fn new(dims: Vec<Triplet>) -> Result<Self, IndexError> {
        if dims.len() > MAX_RANK {
            return Err(IndexError::RankTooHigh(dims.len()));
        }
        Ok(IndexDomain { dims })
    }

    /// Standard domain from `(lower, upper)` bound pairs (stride 1).
    pub fn standard(bounds: &[(i64, i64)]) -> Result<Self, IndexError> {
        if bounds.len() > MAX_RANK {
            return Err(IndexError::RankTooHigh(bounds.len()));
        }
        Ok(IndexDomain {
            dims: bounds.iter().map(|&(l, u)| Triplet::unit(l, u)).collect(),
        })
    }

    /// 1-based standard domain of the given extents, e.g. `of_shape(&[4, 8])`
    /// is `[1:4, 1:8]`.
    pub fn of_shape(extents: &[usize]) -> Result<Self, IndexError> {
        if extents.len() > MAX_RANK {
            return Err(IndexError::RankTooHigh(extents.len()));
        }
        Ok(IndexDomain {
            dims: extents.iter().map(|&e| Triplet::unit(1, e as i64)).collect(),
        })
    }

    /// The rank-0 domain of scalars: exactly one (empty) index.
    pub fn scalar() -> Self {
        IndexDomain { dims: Vec::new() }
    }

    /// Rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// The triplet of dimension `d` (0-based).
    pub fn dim(&self, d: usize) -> &Triplet {
        &self.dims[d]
    }

    /// All dimension triplets.
    pub fn dims(&self) -> &[Triplet] {
        &self.dims
    }

    /// Declared lower bound of dimension `d`.
    pub fn lower(&self, d: usize) -> i64 {
        self.dims[d].lower()
    }

    /// Declared upper bound of dimension `d`.
    pub fn upper(&self, d: usize) -> i64 {
        self.dims[d].upper()
    }

    /// Extent (number of members) of dimension `d`.
    pub fn extent(&self, d: usize) -> usize {
        self.dims[d].len()
    }

    /// Total number of indices (product of extents; 1 for rank 0, and 0
    /// whenever an extent is, however large the others).
    pub fn size(&self) -> usize {
        if self.is_empty() {
            return 0;
        }
        self.dims.iter().map(Triplet::len).product()
    }

    /// True iff the domain has no indices.
    pub fn is_empty(&self) -> bool {
        self.dims.iter().any(Triplet::is_empty)
    }

    /// True iff every stride is 1 (§2.1 "standard index domain").
    pub fn is_standard(&self) -> bool {
        self.dims.iter().all(|t| t.stride() == 1)
    }

    /// The standard domain `[1:e1, ..., 1:en]` with the same extents —
    /// the index domain a section presents when passed as an argument (§7).
    pub fn standardized(&self) -> IndexDomain {
        IndexDomain {
            dims: self.dims.iter().map(|t| Triplet::unit(1, t.len() as i64)).collect(),
        }
    }

    /// Membership test for a full-rank subscript tuple.
    pub fn contains(&self, i: &Idx) -> bool {
        i.rank() == self.rank()
            && self.dims.iter().zip(i.as_slice()).all(|(t, &v)| t.contains(v))
    }

    /// Validate membership, reporting the offending dimension.
    pub fn check(&self, i: &Idx) -> Result<(), IndexError> {
        if i.rank() != self.rank() {
            return Err(IndexError::RankMismatch { expected: self.rank(), found: i.rank() });
        }
        for (d, (t, &v)) in self.dims.iter().zip(i.as_slice()).enumerate() {
            if !t.contains(v) {
                return Err(IndexError::OutOfBounds { dim: d, value: v });
            }
        }
        Ok(())
    }

    /// Column-major position of `i` in the domain (0-based).
    ///
    /// Inverse of [`IndexDomain::delinearize`].
    pub fn linearize(&self, i: &Idx) -> Result<usize, IndexError> {
        if i.rank() != self.rank() {
            return Err(IndexError::RankMismatch { expected: self.rank(), found: i.rank() });
        }
        let mut pos = 0usize;
        let mut weight = 1usize;
        for (d, (t, &v)) in self.dims.iter().zip(i.as_slice()).enumerate() {
            let p = t.position(v).ok_or(IndexError::OutOfBounds { dim: d, value: v })?;
            pos += p * weight;
            weight *= t.len();
        }
        Ok(pos)
    }

    /// The subscript tuple at column-major position `pos` (0-based).
    pub fn delinearize(&self, pos: usize) -> Result<Idx, IndexError> {
        if pos >= self.size() {
            return Err(IndexError::OutOfBounds { dim: 0, value: pos as i64 });
        }
        let mut rem = pos;
        let mut out = Idx::SCALAR;
        for t in &self.dims {
            let e = t.len();
            out.push(t.nth(rem % e).expect("in range"));
            rem /= e;
        }
        Ok(out)
    }

    /// Iterate all indices in column-major order (first dim fastest).
    pub fn iter(&self) -> ColumnMajorIter<'_> {
        ColumnMajorIter::new(self)
    }
}

impl fmt::Debug for IndexDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IndexDomain{self}")
    }
}

impl fmt::Display for IndexDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (d, t) in self.dims.iter().enumerate() {
            if d > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "]")
    }
}

/// Column-major iterator over the indices of an [`IndexDomain`].
#[derive(Debug, Clone)]
pub struct ColumnMajorIter<'a> {
    domain: &'a IndexDomain,
    cursor: [usize; MAX_RANK],
    /// The index at `cursor` (meaningless once `remaining` is 0).
    at: Idx,
    remaining: usize,
}

impl<'a> ColumnMajorIter<'a> {
    fn new(domain: &'a IndexDomain) -> Self {
        let mut at = Idx::SCALAR;
        for t in &domain.dims {
            at.push(t.lower());
        }
        ColumnMajorIter { domain, cursor: [0; MAX_RANK], at, remaining: domain.size() }
    }
}

impl Iterator for ColumnMajorIter<'_> {
    type Item = Idx;

    fn next(&mut self) -> Option<Idx> {
        if self.remaining == 0 {
            return None;
        }
        let out = self.at;
        self.remaining -= 1;
        // advance column-major: dimension 0 fastest; only the dimensions
        // that turn over are touched
        for (d, t) in self.domain.dims.iter().enumerate() {
            self.cursor[d] += 1;
            if let Some(v) = t.nth(self.cursor[d]) {
                self.at = self.at.with(d, v);
                break;
            }
            self.cursor[d] = 0;
            self.at = self.at.with(d, t.lower());
        }
        Some(out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for ColumnMajorIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triplet;

    #[test]
    fn standard_domain_basics() {
        let d = IndexDomain::standard(&[(0, 4), (1, 3)]).unwrap();
        assert_eq!(d.rank(), 2);
        assert_eq!(d.extent(0), 5);
        assert_eq!(d.extent(1), 3);
        assert_eq!(d.size(), 15);
        assert!(d.is_standard());
        assert!(d.contains(&Idx::d2(0, 1)));
        assert!(!d.contains(&Idx::d2(5, 1)));
        assert!(!d.contains(&Idx::d1(0)));
    }

    #[test]
    fn of_shape_is_one_based() {
        let d = IndexDomain::of_shape(&[4, 8]).unwrap();
        assert_eq!(d.lower(0), 1);
        assert_eq!(d.upper(1), 8);
    }

    #[test]
    fn scalar_domain_single_index() {
        let d = IndexDomain::scalar();
        assert_eq!(d.rank(), 0);
        assert_eq!(d.size(), 1);
        let all: Vec<Idx> = d.iter().collect();
        assert_eq!(all, vec![Idx::SCALAR]);
        assert_eq!(d.linearize(&Idx::SCALAR).unwrap(), 0);
    }

    #[test]
    fn column_major_order() {
        let d = IndexDomain::standard(&[(1, 2), (1, 3)]).unwrap();
        let got: Vec<Idx> = d.iter().collect();
        let want = vec![
            Idx::d2(1, 1),
            Idx::d2(2, 1),
            Idx::d2(1, 2),
            Idx::d2(2, 2),
            Idx::d2(1, 3),
            Idx::d2(2, 3),
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn linearize_roundtrip() {
        let d = IndexDomain::new(vec![triplet(0, 10, 2), triplet(5, 1, -1), triplet(3, 3, 1)])
            .unwrap();
        for (pos, i) in d.iter().enumerate() {
            assert_eq!(d.linearize(&i).unwrap(), pos);
            assert_eq!(d.delinearize(pos).unwrap(), i);
        }
        assert!(d.delinearize(d.size()).is_err());
    }

    #[test]
    fn linearize_rejects_foreign_index() {
        let d = IndexDomain::standard(&[(1, 4)]).unwrap();
        assert_eq!(
            d.linearize(&Idx::d1(9)),
            Err(IndexError::OutOfBounds { dim: 0, value: 9 })
        );
        assert_eq!(
            d.linearize(&Idx::d2(1, 1)),
            Err(IndexError::RankMismatch { expected: 1, found: 2 })
        );
    }

    #[test]
    fn standardized_section_domain() {
        let d = IndexDomain::new(vec![triplet(2, 996, 2)]).unwrap();
        assert!(!d.is_standard());
        let s = d.standardized();
        assert_eq!(s.dims(), &[Triplet::unit(1, 498)]);
    }

    #[test]
    fn empty_domain() {
        let d = IndexDomain::standard(&[(5, 4), (1, 3)]).unwrap();
        assert!(d.is_empty());
        assert_eq!(d.size(), 0);
        assert_eq!(d.iter().count(), 0);
    }

    #[test]
    fn display() {
        let d = IndexDomain::new(vec![triplet(0, 8, 2), triplet(1, 3, 1)]).unwrap();
        assert_eq!(d.to_string(), "[0:8:2, 1:3]");
    }

    #[test]
    fn rank_limit() {
        assert!(IndexDomain::of_shape(&[2; 8]).is_err());
    }
}
