//! The distribution formats of §4.1 and their validated, bound forms.

use crate::HpfError;
use std::fmt;
use std::sync::Arc;

/// One dimension's distribution format as written in a `DISTRIBUTE`
/// directive (§4.1). This is the *unbound* form: it is validated against a
/// dimension extent and a target extent when a [`crate::Distribution`] is
/// constructed, yielding a [`DimFormat`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormatSpec {
    /// HPF `BLOCK` (§4.1.1): contiguous blocks of `q = ⌈N/NP⌉`; the last
    /// processors may be short or empty.
    Block,
    /// Vienna Fortran balanced `BLOCK` (the §8.1.1 footnote): block sizes
    /// differ by at most one, so `NP | N` causes no boundary drift.
    BlockBalanced,
    /// `CYCLIC(k)` (§4.1.3): segments of length `k` dealt round-robin;
    /// `CYCLIC` is `Cyclic(1)`.
    Cyclic(u64),
    /// `GENERAL_BLOCK(G)` by *bounds* (§4.1.2): `G(i)` is the last index
    /// position of block `i`; block `NP` always ends at `N`, and at least
    /// `NP − 1` entries must be given.
    GeneralBlock(Vec<i64>),
    /// `GENERAL_BLOCK` by *sizes*: exactly `NP` non-negative block lengths
    /// summing to `N` (the form produced by partitioning tools).
    GeneralBlockSizes(Vec<i64>),
    /// `:` — the dimension is not distributed (§4.1: "A colon indicates
    /// that the corresponding dimension of the array is not distributed").
    Collapsed,
    /// `INDIRECT(M)` extension: element `i` lives at target coordinate
    /// `M(i)` (1-based). The map must cover the whole dimension.
    Indirect(Vec<u32>),
}

impl FormatSpec {
    /// True iff this is the collapsing `:` format.
    pub fn is_collapsed(&self) -> bool {
        matches!(self, FormatSpec::Collapsed)
    }

    /// Validate against a dimension of `n` elements distributed over `np`
    /// target positions, producing the bound [`DimFormat`].
    pub fn bind(&self, n: usize, np: usize) -> Result<DimFormat, HpfError> {
        match self {
            FormatSpec::Block => Ok(DimFormat::Block),
            FormatSpec::BlockBalanced => Ok(DimFormat::BlockBalanced),
            FormatSpec::Cyclic(k) => {
                if *k == 0 {
                    return Err(HpfError::BadCyclicArg(0));
                }
                Ok(DimFormat::Cyclic(*k))
            }
            FormatSpec::GeneralBlock(bounds) => {
                Ok(DimFormat::GeneralBlock(GeneralBlock::from_bounds(bounds, np, n)?))
            }
            FormatSpec::GeneralBlockSizes(sizes) => {
                Ok(DimFormat::GeneralBlock(GeneralBlock::from_sizes(sizes, np, n)?))
            }
            FormatSpec::Collapsed => Ok(DimFormat::Collapsed),
            FormatSpec::Indirect(map) => {
                Ok(DimFormat::Indirect(IndirectMap::new(map, np, n)?))
            }
        }
    }
}

impl fmt::Display for FormatSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatSpec::Block => write!(f, "BLOCK"),
            FormatSpec::BlockBalanced => write!(f, "BLOCK_BALANCED"),
            FormatSpec::Cyclic(1) => write!(f, "CYCLIC"),
            FormatSpec::Cyclic(k) => write!(f, "CYCLIC({k})"),
            FormatSpec::GeneralBlock(g) => {
                write!(f, "GENERAL_BLOCK(")?;
                for (i, b) in g.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{b}")?;
                }
                write!(f, ")")
            }
            FormatSpec::GeneralBlockSizes(s) => {
                write!(f, "GENERAL_BLOCK(sizes ")?;
                for (i, b) in s.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{b}")?;
                }
                write!(f, ")")
            }
            FormatSpec::Collapsed => write!(f, ":"),
            FormatSpec::Indirect(_) => write!(f, "INDIRECT(...)"),
        }
    }
}

/// A format *bound* to a dimension: validated, normalized, and carrying
/// whatever precomputation its owner-lookup needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DimFormat {
    /// HPF `BLOCK`.
    Block,
    /// Vienna balanced `BLOCK`.
    BlockBalanced,
    /// `GENERAL_BLOCK` with its normalized partition.
    GeneralBlock(GeneralBlock),
    /// `CYCLIC(k)`.
    Cyclic(u64),
    /// Not distributed.
    Collapsed,
    /// `INDIRECT` with its validated map.
    Indirect(IndirectMap),
}

/// A normalized `GENERAL_BLOCK` partition (§4.1.2) of positions `1..=n`
/// into `np` contiguous (possibly empty) blocks.
///
/// Stored as cumulative block *ends*: block `j` (1-based) covers positions
/// `bound(j−1)+1 ..= bound(j)`, with `bound(0) = 0` and `bound(np) = n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneralBlock {
    ends: Vec<i64>,
}

impl GeneralBlock {
    /// Build from the directive's bound array `G` (§4.1.2): `G(i)` is the
    /// last position of block `i`. At least `np − 1` entries are required;
    /// block `np` always ends at `n` regardless of any further entries.
    /// Bounds must be non-decreasing and non-negative (values beyond `n`
    /// are clamped — the paper's `GENERAL_BLOCK(2,7,99)` example).
    pub fn from_bounds(bounds: &[i64], np: usize, n: usize) -> Result<Self, HpfError> {
        if np == 0 {
            return Err(HpfError::BadGeneralBlock("zero target processors".into()));
        }
        if bounds.len() + 1 < np {
            return Err(HpfError::BadGeneralBlock(format!(
                "{} bound(s) given but NP−1 = {} required",
                bounds.len(),
                np - 1
            )));
        }
        let mut ends = Vec::with_capacity(np);
        let mut prev = 0i64;
        for &b in &bounds[..np - 1] {
            if b < prev {
                return Err(HpfError::BadGeneralBlock(format!(
                    "bounds must be non-decreasing ({b} after {prev})"
                )));
            }
            let clamped = b.min(n as i64);
            ends.push(clamped);
            prev = b;
        }
        ends.push(n as i64);
        Ok(GeneralBlock { ends })
    }

    /// Build from exactly `np` non-negative block sizes summing to `n`.
    pub fn from_sizes(sizes: &[i64], np: usize, n: usize) -> Result<Self, HpfError> {
        if sizes.len() != np {
            return Err(HpfError::BadGeneralBlock(format!(
                "{} size(s) given for NP = {np}",
                sizes.len()
            )));
        }
        let mut ends = Vec::with_capacity(np);
        let mut acc = 0i64;
        for &s in sizes {
            if s < 0 {
                return Err(HpfError::BadGeneralBlock(format!("negative block size {s}")));
            }
            acc += s;
            ends.push(acc);
        }
        if acc != n as i64 {
            return Err(HpfError::BadGeneralBlock(format!(
                "sizes sum to {acc}, dimension extent is {n}"
            )));
        }
        Ok(GeneralBlock { ends })
    }

    /// Partition weighted positions `1..=weights.len()` into `np`
    /// contiguous blocks minimizing the heaviest block (the load-balancing
    /// use of `GENERAL_BLOCK` from §1/§4.1.2), via binary search on the
    /// bottleneck plus a greedy packing. The result is optimal: no
    /// contiguous `np`-partition has a lighter heaviest block.
    pub fn balanced(weights: &[u64], np: usize) -> Result<Self, HpfError> {
        if np == 0 {
            return Err(HpfError::BadGeneralBlock("zero target processors".into()));
        }
        if weights.is_empty() {
            return Err(HpfError::BadGeneralBlock("empty weight array".into()));
        }
        let max_w = *weights.iter().max().expect("non-empty");
        let total: u128 = weights.iter().map(|&w| w as u128).sum();
        let (mut lo, mut hi) = (max_w as u128, total);
        let fits = |cap: u128| -> bool {
            let mut blocks = 1usize;
            let mut acc: u128 = 0;
            for &w in weights {
                if acc + w as u128 > cap {
                    blocks += 1;
                    if blocks > np {
                        return false;
                    }
                    acc = w as u128;
                } else {
                    acc += w as u128;
                }
            }
            true
        };
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if fits(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        // pack greedily at the optimal bottleneck
        let cap = lo;
        let mut ends = Vec::with_capacity(np);
        let mut acc: u128 = 0;
        for (i, &w) in weights.iter().enumerate() {
            if acc + w as u128 > cap {
                ends.push(i as i64);
                acc = w as u128;
            } else {
                acc += w as u128;
            }
        }
        ends.push(weights.len() as i64);
        while ends.len() < np {
            ends.push(weights.len() as i64);
        }
        Ok(GeneralBlock { ends })
    }

    /// Number of blocks (`NP`).
    pub fn np(&self) -> usize {
        self.ends.len()
    }

    /// Number of positions (`N`).
    pub fn n(&self) -> usize {
        *self.ends.last().expect("np ≥ 1") as usize
    }

    /// The cumulative bound of block `j`: the last position block `j`
    /// covers, with `bound(0) = 0`.
    pub fn bound(&self, j: usize) -> i64 {
        if j == 0 {
            0
        } else {
            self.ends[j - 1]
        }
    }

    /// Size of block `j` (1-based).
    pub fn size(&self, j: usize) -> usize {
        (self.bound(j) - self.bound(j - 1)) as usize
    }

    /// The 1-based block owning position `pos` (binary search, O(log NP)).
    pub fn block_of(&self, pos: i64) -> i64 {
        self.ends.partition_point(|&e| e < pos) as i64 + 1
    }

    /// The heaviest block's total weight under this partition.
    pub fn bottleneck(&self, weights: &[u64]) -> u64 {
        let mut worst = 0u64;
        for j in 1..=self.np() {
            let lo = self.bound(j - 1) as usize;
            let hi = (self.bound(j) as usize).min(weights.len());
            let load: u64 = weights[lo..hi].iter().sum();
            worst = worst.max(load);
        }
        worst
    }
}

/// A validated `INDIRECT` map: `coords[i]` is the 1-based target
/// coordinate of position `i + 1`, with per-coordinate local-index ranks
/// and position lists precomputed so lookups stay O(1).
#[derive(Debug, Clone)]
pub struct IndirectMap {
    coords: Arc<Vec<u32>>,
    /// `ranks[i]` = local (1-based) index of position `i + 1` within its
    /// target coordinate.
    ranks: Arc<Vec<u32>>,
    /// Positions (1-based) per coordinate, ascending.
    positions: Arc<Vec<Vec<i64>>>,
}

impl IndirectMap {
    /// Validate a raw map against dimension extent `n` and target extent
    /// `np`.
    pub fn new(map: &[u32], np: usize, n: usize) -> Result<Self, HpfError> {
        if map.len() != n {
            return Err(HpfError::BadIndirectMap(format!(
                "map has {} entries, dimension extent is {n}",
                map.len()
            )));
        }
        let mut positions: Vec<Vec<i64>> = vec![Vec::new(); np];
        let mut ranks = Vec::with_capacity(n);
        for (i, &c) in map.iter().enumerate() {
            if c == 0 || c as usize > np {
                return Err(HpfError::BadIndirectMap(format!(
                    "coordinate {c} at position {} outside 1..={np}",
                    i + 1
                )));
            }
            let bucket = &mut positions[c as usize - 1];
            bucket.push(i as i64 + 1);
            ranks.push(bucket.len() as u32);
        }
        Ok(IndirectMap {
            coords: Arc::new(map.to_vec()),
            ranks: Arc::new(ranks),
            positions: Arc::new(positions),
        })
    }

    /// Number of target coordinates.
    pub fn np(&self) -> usize {
        self.positions.len()
    }

    /// The 1-based target coordinate of position `pos`.
    pub fn coord_of(&self, pos: i64) -> i64 {
        self.coords[pos as usize - 1] as i64
    }

    /// The 1-based local index of position `pos` within its coordinate.
    pub fn rank_of(&self, pos: i64) -> i64 {
        self.ranks[pos as usize - 1] as i64
    }

    /// Number of positions mapped to `coord`.
    pub fn count(&self, coord: i64) -> usize {
        self.positions[coord as usize - 1].len()
    }

    /// The positions (ascending, 1-based) mapped to `coord`.
    pub fn positions_of(&self, coord: i64) -> &[i64] {
        &self.positions[coord as usize - 1]
    }
}

impl PartialEq for IndirectMap {
    fn eq(&self, other: &Self) -> bool {
        self.coords == other.coords && self.np() == other.np()
    }
}

impl Eq for IndirectMap {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_follow_the_paper_example() {
        // §4.1.2: GENERAL_BLOCK(2,7,99) over 10 elements, 3 processors
        let g = GeneralBlock::from_bounds(&[2, 7, 99], 3, 10).unwrap();
        assert_eq!(g.np(), 3);
        assert_eq!((g.bound(0), g.bound(1), g.bound(2), g.bound(3)), (0, 2, 7, 10));
        let owners: Vec<i64> = (1..=10).map(|p| g.block_of(p)).collect();
        assert_eq!(owners, vec![1, 1, 2, 2, 2, 2, 2, 3, 3, 3]);
        assert_eq!((g.size(1), g.size(2), g.size(3)), (2, 5, 3));
    }

    #[test]
    fn bounds_allow_exactly_np_minus_one_entries() {
        let g = GeneralBlock::from_bounds(&[50], 2, 100).unwrap();
        assert_eq!(g.bound(1), 50);
        assert_eq!(g.bound(2), 100);
    }

    #[test]
    fn bad_bounds_rejected() {
        // fewer than NP−1 entries
        assert!(matches!(
            GeneralBlock::from_bounds(&[99], 4, 16),
            Err(HpfError::BadGeneralBlock(_))
        ));
        // decreasing
        assert!(matches!(
            GeneralBlock::from_bounds(&[7, 2], 3, 10),
            Err(HpfError::BadGeneralBlock(_))
        ));
        // negative
        assert!(matches!(
            GeneralBlock::from_bounds(&[-1, 5], 3, 10),
            Err(HpfError::BadGeneralBlock(_))
        ));
    }

    #[test]
    fn sizes_roundtrip_and_validate() {
        let g = GeneralBlock::from_sizes(&[0, 4, 6], 3, 10).unwrap();
        assert_eq!(g.block_of(1), 2);
        assert_eq!(g.block_of(5), 3);
        assert_eq!(g.size(1), 0);
        assert!(GeneralBlock::from_sizes(&[4, 6], 3, 10).is_err());
        assert!(GeneralBlock::from_sizes(&[4, 4, 4], 3, 10).is_err());
        assert!(GeneralBlock::from_sizes(&[-2, 6, 6], 3, 10).is_err());
    }

    #[test]
    fn balanced_is_within_greedy_bound_on_modular_weights() {
        // weights (i % 97) + 1
        let n = 10_000usize;
        let np = 32usize;
        let weights: Vec<u64> = (0..n).map(|i| (i % 97 + 1) as u64).collect();
        let g = GeneralBlock::balanced(&weights, np).unwrap();
        let total: u64 = weights.iter().sum();
        let max_w = *weights.iter().max().unwrap();
        let ideal = total.div_ceil(np as u64);
        let bn = g.bottleneck(&weights);
        assert!(bn >= ideal, "bottleneck {bn} below ideal {ideal}");
        assert!(
            bn < ideal + max_w,
            "bottleneck {bn} exceeds ideal {ideal} + max weight {max_w}"
        );
        // partition covers exactly 1..=n
        assert_eq!(g.n(), n);
        let covered: usize = (1..=np).map(|j| g.size(j)).sum();
        assert_eq!(covered, n);
    }

    #[test]
    fn balanced_triangular_weights_beat_uniform_block() {
        // position i costs i: plain BLOCK gives the last processor ~n²/np
        // of the work; the balanced partition's bottleneck is near ideal
        let n = 4096usize;
        let np = 8usize;
        let weights: Vec<u64> = (1..=n as u64).collect();
        let g = GeneralBlock::balanced(&weights, np).unwrap();
        let total: u64 = weights.iter().sum();
        let ideal = total / np as u64;
        let uniform_last: u64 = weights[n - n / np..].iter().sum();
        assert!(g.bottleneck(&weights) < uniform_last);
        assert!(g.bottleneck(&weights) <= ideal + n as u64);
    }

    #[test]
    fn balanced_with_more_processors_than_elements() {
        let g = GeneralBlock::balanced(&[5, 5], 4).unwrap();
        assert_eq!(g.np(), 4);
        assert_eq!(g.n(), 2);
        let covered: usize = (1..=4).map(|j| g.size(j)).sum();
        assert_eq!(covered, 2);
    }

    #[test]
    fn indirect_map_validation_and_ranks() {
        let m = IndirectMap::new(&[2, 1, 2, 2, 1], 2, 5).unwrap();
        assert_eq!(m.coord_of(1), 2);
        assert_eq!(m.coord_of(2), 1);
        assert_eq!(m.rank_of(1), 1);
        assert_eq!(m.rank_of(3), 2);
        assert_eq!(m.rank_of(4), 3);
        assert_eq!(m.count(1), 2);
        assert_eq!(m.positions_of(2), &[1, 3, 4]);
        assert!(IndirectMap::new(&[1, 2], 2, 3).is_err(), "wrong length");
        assert!(IndirectMap::new(&[1, 3], 2, 2).is_err(), "coord out of range");
        assert!(IndirectMap::new(&[0, 1], 2, 2).is_err(), "zero coord");
    }

    #[test]
    fn cyclic_zero_rejected_at_bind() {
        assert!(matches!(
            FormatSpec::Cyclic(0).bind(10, 2),
            Err(HpfError::BadCyclicArg(0))
        ));
        assert!(FormatSpec::Cyclic(1).bind(10, 2).is_ok());
    }

    #[test]
    fn display_forms() {
        assert_eq!(FormatSpec::Cyclic(1).to_string(), "CYCLIC");
        assert_eq!(FormatSpec::Cyclic(3).to_string(), "CYCLIC(3)");
        assert_eq!(FormatSpec::Block.to_string(), "BLOCK");
        assert_eq!(FormatSpec::Collapsed.to_string(), ":");
        assert_eq!(FormatSpec::GeneralBlock(vec![2, 7]).to_string(), "GENERAL_BLOCK(2,7)");
    }
}
