use crate::gcd::solve_crt;
use crate::IndexError;
use std::fmt;

/// A Fortran 90 subscript triplet `lower : upper : stride`, viewed as the
/// *set* `{ lower + k·stride | k ≥ 0, value between lower and upper }`.
///
/// This is the atom of the paper's model: index domains (§2.1) are lists of
/// triplets, array sections are triplets, `GENERAL_BLOCK` inverses and
/// `CYCLIC` ownership sets are unions of triplets, and the §5.1 alignment
/// reduction rewrites triplets into affine expressions.
///
/// Triplets may be empty (e.g. `5:4:1`) and may have negative stride
/// (`10:2:-2`); as sets, `10:2:-2` and `2:10:2` are equal, and all the set
/// operations treat them so.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Triplet {
    lower: i64,
    upper: i64,
    stride: i64,
}

impl Triplet {
    /// Create a triplet; fails if `stride == 0` (Fortran 90 R619 constraint).
    pub fn new(lower: i64, upper: i64, stride: i64) -> Result<Self, IndexError> {
        if stride == 0 {
            return Err(IndexError::ZeroStride);
        }
        Ok(Triplet { lower, upper, stride })
    }

    /// Stride-1 triplet `lower:upper` (possibly empty).
    pub const fn unit(lower: i64, upper: i64) -> Self {
        Triplet { lower, upper, stride: 1 }
    }

    /// The singleton set `{v}`.
    pub const fn scalar(v: i64) -> Self {
        Triplet { lower: v, upper: v, stride: 1 }
    }

    /// An empty triplet.
    pub const fn empty() -> Self {
        Triplet { lower: 1, upper: 0, stride: 1 }
    }

    /// Declared lower bound (first element for non-empty ascending triplets).
    pub const fn lower(&self) -> i64 {
        self.lower
    }

    /// Declared upper bound.
    pub const fn upper(&self) -> i64 {
        self.upper
    }

    /// Declared stride (never 0, may be negative).
    pub const fn stride(&self) -> i64 {
        self.stride
    }

    /// Number of elements, by the Fortran rule
    /// `MAX((upper − lower + stride) / stride, 0)`.
    pub fn len(&self) -> usize {
        // 64-bit arithmetic whenever it cannot overflow (every per-element
        // membership test lands here); the 128-bit form only for extents
        // near the ends of the `i64` range
        let narrow = self
            .upper
            .checked_sub(self.lower)
            .and_then(|d| d.checked_add(self.stride))
            .and_then(|d| if self.stride == 1 { Some(d) } else { d.checked_div(self.stride) });
        let n = match narrow {
            Some(n) => n as i128,
            None => {
                (self.upper as i128 - self.lower as i128 + self.stride as i128)
                    / self.stride as i128
            }
        };
        if n <= 0 {
            0
        } else {
            n as usize
        }
    }

    /// True iff the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `k`-th element in declaration order (`k` is 0-based).
    ///
    /// Returns `None` when `k ≥ len()`.
    pub fn nth(&self, k: usize) -> Option<i64> {
        if k >= self.len() {
            return None;
        }
        Some(self.lower + k as i64 * self.stride)
    }

    /// First element in declaration order, if non-empty.
    pub fn first(&self) -> Option<i64> {
        if self.is_empty() {
            None
        } else {
            Some(self.lower)
        }
    }

    /// Last element in declaration order, if non-empty.
    pub fn last(&self) -> Option<i64> {
        let n = self.len();
        if n == 0 {
            None
        } else {
            Some(self.lower + (n as i64 - 1) * self.stride)
        }
    }

    /// Smallest element of the set, if non-empty.
    pub fn min(&self) -> Option<i64> {
        if self.stride > 0 {
            self.first()
        } else {
            self.last()
        }
    }

    /// Largest element of the set, if non-empty.
    pub fn max(&self) -> Option<i64> {
        if self.stride > 0 {
            self.last()
        } else {
            self.first()
        }
    }

    /// Set membership.
    pub fn contains(&self, v: i64) -> bool {
        self.position(v).is_some()
    }

    /// Position of `v` in declaration order, or `None` if absent.
    pub fn position(&self, v: i64) -> Option<usize> {
        // 64-bit arithmetic unless `v − lower` overflows (see `len`)
        let k = match (v.checked_sub(self.lower), self.stride) {
            (Some(d), 1) => d as i128,
            (Some(d), -1) => -(d as i128),
            (Some(d), s) => {
                if d % s != 0 {
                    return None;
                }
                (d / s) as i128
            }
            (None, _) => {
                let d = v as i128 - self.lower as i128;
                let s = self.stride as i128;
                if d % s != 0 {
                    return None;
                }
                d / s
            }
        };
        if k < 0 || k as usize >= self.len() {
            None
        } else {
            Some(k as usize)
        }
    }

    /// The same set with positive stride and `lower == min()`.
    ///
    /// Empty triplets normalize to [`Triplet::empty`].
    pub fn ascending(&self) -> Triplet {
        if self.is_empty() {
            return Triplet::empty();
        }
        if self.stride > 0 {
            // Trim the upper bound to the last actual member so that two
            // equal sets always compare equal after normalization.
            Triplet { lower: self.lower, upper: self.last().unwrap(), stride: self.stride }
        } else {
            Triplet { lower: self.last().unwrap(), upper: self.lower, stride: -self.stride }
        }
    }

    /// Set equality (ignores representation differences).
    pub fn set_eq(&self, other: &Triplet) -> bool {
        let (a, b) = (self.ascending(), other.ascending());
        if a.len() != b.len() {
            return false;
        }
        if a.is_empty() {
            return true;
        }
        a.lower == b.lower && (a.len() == 1 || a.stride == b.stride)
    }

    /// Set intersection of two triplets: the result is again an arithmetic
    /// progression, computed exactly via the Chinese remainder theorem.
    ///
    /// Returns an ascending triplet; empty intersections yield
    /// [`Triplet::empty`].
    pub fn intersect(&self, other: &Triplet) -> Triplet {
        let a = self.ascending();
        let b = other.ascending();
        if a.is_empty() || b.is_empty() {
            return Triplet::empty();
        }
        let lo = a.lower.max(b.lower);
        let hi = a.upper.min(b.upper);
        if lo > hi {
            return Triplet::empty();
        }
        let (sa, sb) = (a.stride, b.stride);
        let (ra, rb) = (a.lower.rem_euclid(sa), b.lower.rem_euclid(sb));
        match solve_crt(ra, sa, rb, sb) {
            None => Triplet::empty(),
            Some((x0, l)) => {
                // smallest member ≥ lo that is ≡ x0 (mod l)
                let delta = (lo as i128 - x0 as i128).rem_euclid(l as i128);
                let start = lo as i128 + ((l as i128 - delta) % l as i128);
                if start > hi as i128 {
                    Triplet::empty()
                } else {
                    Triplet { lower: start as i64, upper: hi, stride: l }.ascending()
                }
            }
        }
    }

    /// True iff every element of `self` is in `other`.
    pub fn is_subset_of(&self, other: &Triplet) -> bool {
        self.intersect(other).len() == self.len()
    }

    /// True iff the two sets share no element.
    pub fn is_disjoint(&self, other: &Triplet) -> bool {
        self.intersect(other).is_empty()
    }

    /// Affine image `{ a·x + c | x ∈ self }`.
    ///
    /// For `a == 0` this is the singleton `{c}` (if `self` is non-empty,
    /// else empty). Fails on `i64` overflow.
    pub fn affine_image(&self, a: i64, c: i64) -> Result<Triplet, IndexError> {
        if self.is_empty() {
            return Ok(Triplet::empty());
        }
        if a == 0 {
            return Ok(Triplet::scalar(c));
        }
        let map = |x: i64| -> Result<i64, IndexError> {
            let v = a as i128 * x as i128 + c as i128;
            i64::try_from(v).map_err(|_| IndexError::Overflow)
        };
        let lo = map(self.lower)?;
        let hi = map(self.last().unwrap())?;
        let s = (a as i128 * self.stride as i128).clamp(i64::MIN as i128, i64::MAX as i128) as i64;
        if s == 0 {
            return Err(IndexError::Overflow);
        }
        Ok(Triplet { lower: lo, upper: hi, stride: s }.ascending())
    }

    /// Iterate over the members in declaration order.
    pub fn iter(&self) -> TripletIter {
        TripletIter { next: self.lower, remaining: self.len(), stride: self.stride }
    }

    /// Shift the whole set by `c` (image under `x ↦ x + c`).
    pub fn shifted(&self, c: i64) -> Triplet {
        Triplet { lower: self.lower + c, upper: self.upper + c, stride: self.stride }
    }

    /// Clamp an ascending stride-1 triplet to `[lo, hi]`; general triplets
    /// are first normalized with [`Triplet::ascending`] and then filtered to
    /// the window (the stride is preserved).
    pub fn clamped(&self, lo: i64, hi: i64) -> Triplet {
        self.intersect(&Triplet::unit(lo, hi))
    }
}

impl fmt::Display for Triplet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.stride == 1 {
            write!(f, "{}:{}", self.lower, self.upper)
        } else {
            write!(f, "{}:{}:{}", self.lower, self.upper, self.stride)
        }
    }
}

/// Iterator over the members of a [`Triplet`] in declaration order.
#[derive(Debug, Clone)]
pub struct TripletIter {
    next: i64,
    remaining: usize,
    stride: i64,
}

impl Iterator for TripletIter {
    type Item = i64;

    fn next(&mut self) -> Option<i64> {
        if self.remaining == 0 {
            return None;
        }
        let v = self.next;
        self.remaining -= 1;
        self.next += self.stride;
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for TripletIter {}

impl IntoIterator for Triplet {
    type Item = i64;
    type IntoIter = TripletIter;
    fn into_iter(self) -> TripletIter {
        self.iter()
    }
}

impl IntoIterator for &Triplet {
    type Item = i64;
    type IntoIter = TripletIter;
    fn into_iter(self) -> TripletIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(l: i64, u: i64, s: i64) -> Triplet {
        Triplet::new(l, u, s).unwrap()
    }

    #[test]
    fn zero_stride_rejected() {
        assert_eq!(Triplet::new(1, 10, 0), Err(IndexError::ZeroStride));
    }

    #[test]
    fn length_rule_matches_fortran() {
        assert_eq!(t(1, 10, 1).len(), 10);
        assert_eq!(t(1, 10, 3).len(), 4); // 1,4,7,10
        assert_eq!(t(2, 996, 2).len(), 498); // the §8.1.2 section
        assert_eq!(t(10, 1, -2).len(), 5); // 10,8,6,4,2
        assert_eq!(t(5, 4, 1).len(), 0);
        assert_eq!(t(4, 5, -1).len(), 0);
        assert_eq!(t(7, 7, 5).len(), 1);
    }

    #[test]
    fn len_and_position_agree_with_wide_arithmetic_at_the_ends_of_the_range() {
        // the 64-bit fast paths must give what 128-bit arithmetic gives,
        // also where `upper − lower`, `+ stride` or `v − lower` overflow
        let wide_len = |tr: &Triplet| {
            let n = (tr.upper as i128 - tr.lower as i128 + tr.stride as i128) / tr.stride as i128;
            n.max(0) as usize
        };
        let wide_position = |tr: &Triplet, v: i64| {
            let (d, s) = (v as i128 - tr.lower as i128, tr.stride as i128);
            let k = d / s;
            (d % s == 0 && k >= 0 && (k as usize) < wide_len(tr)).then_some(k as usize)
        };
        let ends = [i64::MIN, i64::MIN + 1, -7, -1, 0, 1, 6, i64::MAX - 1, i64::MAX];
        let strides = [1, -1, 2, -2, 3, 1 << 40, -(1 << 40), i64::MAX, i64::MIN];
        for &l in &ends {
            for &u in &ends {
                for &s in &strides {
                    let tr = t(l, u, s);
                    assert_eq!(tr.len(), wide_len(&tr), "{l}:{u}:{s}");
                    for &v in &ends {
                        assert_eq!(tr.position(v), wide_position(&tr, v), "{v} in {l}:{u}:{s}");
                    }
                }
            }
        }
    }

    #[test]
    fn iteration_matches_nth() {
        let tr = t(3, 20, 4);
        let v: Vec<i64> = tr.iter().collect();
        assert_eq!(v, vec![3, 7, 11, 15, 19]);
        for (k, x) in v.iter().enumerate() {
            assert_eq!(tr.nth(k), Some(*x));
            assert_eq!(tr.position(*x), Some(k));
        }
        assert_eq!(tr.nth(5), None);
        assert_eq!(tr.position(4), None);
        assert_eq!(tr.position(23), None);
    }

    #[test]
    fn negative_stride_set_semantics() {
        let desc = t(10, 2, -2);
        let asc = desc.ascending();
        assert_eq!(asc, t(2, 10, 2));
        assert!(desc.set_eq(&t(2, 10, 2)));
        assert!(desc.contains(6));
        assert!(!desc.contains(5));
    }

    #[test]
    fn ascending_trims_upper() {
        assert_eq!(t(1, 11, 3).ascending(), t(1, 10, 3)); // 1,4,7,10
    }

    #[test]
    fn intersection_same_stride() {
        let a = t(1, 100, 2); // odds
        let b = t(51, 200, 2); // odds from 51
        assert!(a.intersect(&b).set_eq(&t(51, 99, 2)));
    }

    #[test]
    fn intersection_coprime_strides() {
        let a = t(0, 100, 3);
        let b = t(0, 100, 5);
        assert!(a.intersect(&b).set_eq(&t(0, 100, 15).ascending()));
    }

    #[test]
    fn intersection_incompatible_residues() {
        let a = t(0, 100, 4); // ≡0 mod 4
        let b = t(2, 100, 4); // ≡2 mod 4
        assert!(a.intersect(&b).is_empty());
        assert!(a.is_disjoint(&b));
    }

    #[test]
    fn intersection_brute_force() {
        let cases = [
            (t(1, 40, 3), t(2, 50, 5)),
            (t(-10, 10, 2), t(-9, 9, 3)),
            (t(0, 0, 1), t(0, 5, 1)),
            (t(5, 4, 1), t(1, 10, 1)),
            (t(30, -5, -7), t(-2, 28, 4)),
            (t(2, 996, 2), t(1, 1000, 3)),
        ];
        for (a, b) in cases {
            let got: Vec<i64> = a.intersect(&b).iter().collect();
            let want: Vec<i64> =
                (-100..1100).filter(|v| a.contains(*v) && b.contains(*v)).collect();
            assert_eq!(got, want, "a={a} b={b}");
        }
    }

    #[test]
    fn subset_relation() {
        assert!(t(2, 10, 4).is_subset_of(&t(2, 10, 2)));
        assert!(!t(2, 10, 2).is_subset_of(&t(2, 10, 4)));
        assert!(Triplet::empty().is_subset_of(&t(1, 3, 1)));
    }

    #[test]
    fn affine_images() {
        // 2*I - 1 over I=1:4 → 1,3,5,7  (the §8.1.1 template alignment)
        let img = t(1, 4, 1).affine_image(2, -1).unwrap();
        assert!(img.set_eq(&t(1, 7, 2)));
        // negative coefficient
        let img = t(1, 4, 1).affine_image(-1, 0).unwrap();
        assert!(img.set_eq(&t(-4, -1, 1)));
        // zero coefficient collapses
        let img = t(1, 4, 1).affine_image(0, 9).unwrap();
        assert!(img.set_eq(&Triplet::scalar(9)));
        // empty stays empty
        assert!(Triplet::empty().affine_image(3, 1).unwrap().is_empty());
    }

    #[test]
    fn affine_overflow_detected() {
        assert_eq!(
            t(1, 10, 1).affine_image(i64::MAX, i64::MAX),
            Err(IndexError::Overflow)
        );
    }

    #[test]
    fn clamp_window() {
        let tr = t(1, 100, 7); // 1,8,15,...
        let c = tr.clamped(10, 40);
        let v: Vec<i64> = c.iter().collect();
        assert_eq!(v, vec![15, 22, 29, 36]);
    }

    #[test]
    fn display_forms() {
        assert_eq!(t(1, 9, 1).to_string(), "1:9");
        assert_eq!(t(1, 9, 2).to_string(), "1:9:2");
    }

    #[test]
    fn min_max() {
        assert_eq!(t(10, 2, -2).min(), Some(2));
        assert_eq!(t(10, 2, -2).max(), Some(10));
        assert_eq!(Triplet::empty().min(), None);
    }
}
