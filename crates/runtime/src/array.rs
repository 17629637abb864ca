use hpf_core::EffectiveDist;
use hpf_index::{Idx, IndexDomain, Rect, Region, MAX_RANK};
use hpf_procs::ProcId;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// Bytes of a page: the distance at which two addresses look alike to the
/// load/store disambiguation of current x86 cores ("4K aliasing").
const PAGE: usize = 4096;
/// Positions within the page a shard can be seated at, [`PAGE`]` / LANES`
/// bytes apart.
const LANES: usize = 8;
/// Shards smaller than this stay where the allocator put them: they live
/// in cache and a page of slack would be a visible share of them.
const SEAT_MIN_BYTES: usize = 8 * PAGE;

/// One processor's local buffer of one array, seated at a fixed position
/// within the 4 KiB page.
///
/// The compute kernels stream a statement's operands out of one shard per
/// array and its result into another. When the store stream runs a few
/// dozen bytes ahead of a load stream *modulo 4096*, every load falsely
/// depends on a store still in flight and the kernel loses a third of its
/// speed. Where the allocator puts a buffer decides that distance, so the
/// same program ran in a fast or a slow regime depending on what had been
/// allocated and freed before it. A shard therefore over-allocates by one
/// page and starts its elements at the address whose low twelve bits are
/// its array's *lane* (derived from the array name): equal for the shards
/// of one array, [`PAGE`]` / `[`LANES`] bytes or a multiple apart between
/// arrays, whatever the allocator does. The slack in front is never read.
#[derive(Debug)]
pub(crate) struct Shard<T> {
    buf: Vec<T>,
    /// Elements of slack in front of the data.
    head: usize,
    /// Wanted position of the data within the page, in bytes.
    lane: usize,
}

impl<T> Default for Shard<T> {
    /// The empty placeholder [`DistArray::take_local`] leaves behind.
    fn default() -> Self {
        Shard { buf: Vec::new(), head: 0, lane: 0 }
    }
}

impl<T: Clone> Shard<T> {
    /// A shard of exactly `len` elements drawn from `items`, seated at
    /// byte `lane` of the page when it is large enough to matter.
    fn seated(lane: usize, len: usize, items: impl IntoIterator<Item = T>) -> Self {
        let size = std::mem::size_of::<T>();
        let seat = size > 0 && PAGE % size == 0 && len * size >= SEAT_MIN_BYTES;
        let mut items = items.into_iter().peekable();
        let mut buf: Vec<T> = Vec::with_capacity(len + if seat { PAGE / size } else { 0 });
        let mut head = 0;
        if let (true, Some(first)) = (seat, items.peek()) {
            // within its capacity the buffer never moves, so the address
            // seen now is the address the data keeps
            let slack = (lane + PAGE - buf.as_ptr() as usize % PAGE) % PAGE;
            // allocations are aligned to the element size; were one not,
            // the shard would stay where it is
            if slack % size == 0 {
                head = slack / size;
                buf.extend(std::iter::repeat_n(first.clone(), head));
            }
        }
        buf.extend(items);
        debug_assert_eq!(buf.len(), head + len);
        Shard { buf, head, lane }
    }
}

impl<T: Clone> Clone for Shard<T> {
    /// A copy seated at the same lane (a plain `Vec` clone would land
    /// wherever the allocator likes).
    fn clone(&self) -> Self {
        Shard::seated(self.lane, self.len(), self.iter().cloned())
    }
}

impl<T> Deref for Shard<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.buf[self.head..]
    }
}

impl<T> DerefMut for Shard<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.buf[self.head..]
    }
}

/// The page position of every shard of the array called `name`: FNV-1a
/// of the name, folded onto the lanes.
fn lane_of(name: &str) -> usize {
    let hash = name
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3));
    (hash % LANES as u64) as usize * (PAGE / LANES)
}

/// An array distributed over the simulated machine's processors.
///
/// Each processor holds a local buffer covering exactly the region the
/// mapping assigns to it (`owned_region`); replicated mappings give several
/// processors a copy of the same element, and writes keep all copies
/// coherent (the §2.2 footnote's replication semantics).
#[derive(Debug, Clone)]
pub struct DistArray<T> {
    name: String,
    mapping: Arc<EffectiveDist>,
    np: usize,
    regions: Vec<Region>,
    /// Per processor: cumulative base offset of each rect of its region in
    /// the local buffer, so addressing never re-sums preceding rect volumes.
    rect_bases: Vec<Vec<usize>>,
    locals: Vec<Shard<T>>,
    /// Per-shard write epochs: bumped on every mutable access to a shard
    /// (element writes, executor stores, SPMD shard restores). The fused
    /// program path snapshots these to detect out-of-band writes that
    /// would invalidate ghost data cached on the receiving side.
    versions: Vec<u64>,
}

impl<T: Clone> DistArray<T> {
    /// Create with every element initialized to `init`.
    pub fn new(name: &str, mapping: Arc<EffectiveDist>, np: usize, init: T) -> Self {
        Self::from_fn(name, mapping, np, |_| init.clone())
    }

    /// Create with `f(global_index)` as the initial value of each element.
    pub fn from_fn(
        name: &str,
        mapping: Arc<EffectiveDist>,
        np: usize,
        mut f: impl FnMut(&Idx) -> T,
    ) -> Self {
        Self::seat(name, mapping, np, |lane, len, region| {
            Shard::seated(lane, len, region.iter().map(|i| f(&i)))
        })
    }

    /// Create from `image`, the array's values in column-major global
    /// order — the inverse of [`DistArray::to_dense`], and like it a row
    /// copy per rect row of every shard, no per-element ownership lookup.
    ///
    /// # Panics
    /// Panics if `image` does not hold exactly one value per element of
    /// the mapping's domain.
    pub fn from_dense(name: &str, mapping: Arc<EffectiveDist>, np: usize, image: &[T]) -> Self {
        // `assign_dense` seats every shard that has not its region's volume
        let mut array = Self::seat(name, mapping, np, |_, _, _| Shard::default());
        array.assign_dense(image);
        array
    }

    /// Lay the storage out: per processor, `shard(lane, volume, region)` of
    /// its owned region.
    fn seat(
        name: &str,
        mapping: Arc<EffectiveDist>,
        np: usize,
        mut shard: impl FnMut(usize, usize, &Region) -> Shard<T>,
    ) -> Self {
        let mut regions = Vec::with_capacity(np);
        let mut rect_bases = Vec::with_capacity(np);
        let mut locals = Vec::with_capacity(np);
        let lane = lane_of(name);
        for p in 1..=np as u32 {
            let region = mapping.owned_region(ProcId(p));
            let buf = shard(lane, region.volume_disjoint(), &region);
            let mut bases = Vec::with_capacity(region.rects().len());
            let mut base = 0usize;
            for rect in region.rects() {
                bases.push(base);
                base += rect.volume();
            }
            regions.push(region);
            rect_bases.push(bases);
            locals.push(buf);
        }
        let versions = vec![0u64; np];
        DistArray { name: name.to_string(), mapping, np, regions, rect_bases, locals, versions }
    }

    /// Array name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The mapping the storage follows.
    pub fn mapping(&self) -> &Arc<EffectiveDist> {
        &self.mapping
    }

    /// Global index domain.
    pub fn domain(&self) -> &IndexDomain {
        self.mapping.domain()
    }

    /// Number of processors.
    pub fn np(&self) -> usize {
        self.np
    }

    /// The region processor `p` owns.
    pub fn region_of(&self, p: ProcId) -> &Region {
        &self.regions[p.zero_based()]
    }

    /// Local buffer length of processor `p` (its memory footprint).
    pub fn local_len(&self, p: ProcId) -> usize {
        self.locals[p.zero_based()].len()
    }

    /// Total storage over all processors (> domain size iff replicated).
    pub fn total_storage(&self) -> usize {
        self.locals.iter().map(|l| l.len()).sum()
    }

    /// Position of global index `i` within `p`'s local buffer: the
    /// precomputed base offset of the containing rect plus the column-major
    /// position inside it — O(rank) per rect checked, no volume re-summing.
    /// Returns `None` if `p` does not own `i`.
    pub fn local_offset(&self, p: ProcId, i: &Idx) -> Option<usize> {
        let region = &self.regions[p.zero_based()];
        let bases = &self.rect_bases[p.zero_based()];
        region
            .rects()
            .iter()
            .zip(bases)
            .find_map(|(rect, &base)| Some(base + rect_position(rect, i)?))
    }

    /// Read-only view of processor `p0`'s (zero-based) local buffer.
    pub(crate) fn local(&self, p0: usize) -> &[T] {
        &self.locals[p0]
    }

    /// Read element `i` from its (first) owner's local memory.
    ///
    /// # Panics
    /// Panics if `i` is outside the array domain.
    pub fn get(&self, i: &Idx) -> T {
        let p = self.mapping.owner(i);
        let off = self
            .local_offset(p, i)
            .unwrap_or_else(|| panic!("{}: owner {p} does not hold {i}", self.name));
        self.locals[p.zero_based()][off].clone()
    }

    /// Write element `i` into every owner's copy.
    pub fn set(&mut self, i: &Idx, v: T) {
        let owners = self.mapping.owners(i);
        for p in owners.iter() {
            let off = self
                .local_offset(p, i)
                .unwrap_or_else(|| panic!("{}: owner {p} does not hold {i}", self.name));
            self.locals[p.zero_based()][off] = v.clone();
            self.versions[p.zero_based()] += 1;
        }
    }

    /// Snapshot the whole array in column-major global order.
    ///
    /// Every shard is copied into the image a rect row at a time: one
    /// `clone_from_slice` per row that is contiguous in the image, a
    /// strided store otherwise — one pass over the distributed storage, no
    /// per-element owner lookups, rect scans or index arithmetic (this is
    /// the gather of every trip and the oracle of every equivalence test).
    /// Replicated mappings write each element once per copy; the copies
    /// are coherent, so the snapshot is the same whichever owner lands
    /// last.
    ///
    /// # Panics
    /// Panics if the mapping leaves some element of the domain unowned.
    pub fn to_dense(&self) -> Vec<T> {
        let dom = self.domain();
        // any value seeds the image; with none there is nothing to copy
        let seed = self.locals.iter().find_map(|shard| shard.first());
        let mut image = seed.map_or(Vec::new(), |v| vec![v.clone(); dom.size()]);
        let mut covered = vec![false; dom.size()];
        for (region, shard) in self.regions.iter().zip(&self.locals) {
            scatter_shard(dom, region.rects(), shard, &mut image, &mut covered)
                .expect("an owned region lies in the domain");
        }
        assert!(
            covered.iter().all(|&c| c),
            "{}: every element of the domain has an owner",
            self.name
        );
        image
    }

    /// Overwrite the whole array from `image`, its values in column-major
    /// global order: every owner's copy of every element, a rect row at a
    /// time. A shard a dead worker took with it is seated anew, and every
    /// shard epoch is bumped.
    ///
    /// # Panics
    /// Panics if `image` does not hold exactly one value per element of
    /// the domain.
    pub fn assign_dense(&mut self, image: &[T]) {
        let dom = self.mapping.domain();
        assert_eq!(image.len(), dom.size(), "{}: dense image of the wrong size", self.name);
        let lane = lane_of(&self.name);
        for (p0, region) in self.regions.iter().enumerate() {
            let want = region.volume_disjoint();
            if self.locals[p0].len() != want {
                // any value will do, the rows below overwrite all of them
                // (only an empty domain has none, and its shards are empty)
                let any = image.first().into_iter().cycle().take(want).cloned();
                self.locals[p0] = Shard::seated(lane, want, any);
            }
            let shard: &mut [T] = &mut self.locals[p0];
            for_each_row(dom, region.rects(), |row| {
                let dst = &mut shard[row.shard..row.shard + row.len];
                if row.step == 1 {
                    dst.clone_from_slice(&image[row.dense..row.dense + row.len]);
                } else {
                    for (d, pos) in dst.iter_mut().zip(row.positions()) {
                        *d = image[pos].clone();
                    }
                }
            })
            .expect("an owned region lies in the domain");
            self.versions[p0] += 1;
        }
    }

    /// Per-processor `(region, mutable local buffer)` views, for the
    /// parallel executor. Every shard epoch is bumped: the caller gets
    /// mutable access to all of them, so all must be assumed written.
    pub(crate) fn parts_mut(&mut self) -> (&[Region], &mut [Shard<T>]) {
        for v in &mut self.versions {
            *v += 1;
        }
        (&self.regions, &mut self.locals)
    }

    /// Current write epoch of processor `p0`'s (zero-based) shard.
    pub(crate) fn shard_version(&self, p0: usize) -> u64 {
        self.versions[p0]
    }

    /// Move processor `p0`'s (zero-based) local buffer out of the array —
    /// the ownership handoff to an SPMD worker. The array keeps an empty
    /// placeholder until [`DistArray::put_local`] restores the shard; any
    /// access in between (even a read of a supposedly untouched element)
    /// fails loudly instead of returning stale data.
    pub(crate) fn take_local(&mut self, p0: usize) -> Shard<T> {
        std::mem::take(&mut self.locals[p0])
    }

    /// Re-install a shard moved out by [`DistArray::take_local`].
    ///
    /// # Panics
    /// Panics if `buf` does not have exactly the owned-region volume — a
    /// worker returning the wrong shard must not silently corrupt storage.
    pub(crate) fn put_local(&mut self, p0: usize, buf: Shard<T>) {
        assert_eq!(
            buf.len(),
            self.regions[p0].volume_disjoint(),
            "{}: returned shard has the wrong volume for processor {}",
            self.name,
            p0 + 1
        );
        self.locals[p0] = buf;
        self.versions[p0] += 1;
    }

    /// Overwrite processor `p0`'s (zero-based) shard with `data` — the
    /// whole-shard checkpoint restore. A shard a dead worker took with it
    /// is rebuilt.
    ///
    /// # Panics
    /// Panics if `data` does not have exactly the owned-region volume.
    pub(crate) fn restore_local(&mut self, p0: usize, data: &[T]) {
        if self.locals[p0].len() == data.len() {
            self.locals[p0].clone_from_slice(data);
            self.versions[p0] += 1;
        } else {
            let shard = Shard::seated(lane_of(&self.name), data.len(), data.iter().cloned());
            self.put_local(p0, shard);
        }
    }
}

/// One row of a rect — its extent along dimension 0 — laid against the
/// column-major dense image of a domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Row {
    /// Dense position of the row's first element.
    pub dense: usize,
    /// Distance in the image from one element of the row to the next
    /// (negative for a descending rect dimension, 0 for a one-element row).
    pub step: isize,
    /// Position of the row's first element in shard fill order (rects in
    /// order, column-major within each).
    pub shard: usize,
    /// Elements in the row.
    pub len: usize,
}

impl Row {
    /// Dense positions of the row's elements, in shard order.
    pub fn positions(self) -> impl Iterator<Item = usize> {
        (0..self.len as isize).map(move |k| (self.dense as isize + k * self.step) as usize)
    }
}

/// Call `f` with every row of `rects`, in shard fill order — the one place
/// that knows how a shard's rects sit inside the dense column-major image
/// of `dom`. A rect dimension is an arithmetic progression of the
/// domain's, so a dense position is affine in each rect coordinate: two
/// [`Triplet::position`](hpf_index::Triplet) calls per dimension fix
/// start and step (and prove the whole dimension inside the domain), and
/// the walk itself is additions only.
///
/// Returns the first rect that does not lie in `dom`, by rank or by
/// bounds (rects may come from a checkpoint manifest); rows of earlier
/// rects have been delivered by then.
pub(crate) fn for_each_row(
    dom: &IndexDomain,
    rects: &[Rect],
    mut f: impl FnMut(Row),
) -> Result<(), String> {
    let rank = dom.rank();
    let mut shard = 0usize;
    for rect in rects.iter().filter(|r| !r.is_empty()) {
        let outside = || format!("rect {rect} does not lie in the domain {dom}");
        if rect.rank() != rank {
            return Err(outside());
        }
        let mut step = [0isize; MAX_RANK];
        let mut len = [1usize; MAX_RANK];
        let mut outer = 0isize;
        let mut w = 1isize;
        for (d, (t, dt)) in rect.dims().iter().zip(dom.dims()).enumerate() {
            len[d] = t.len();
            let pos = |k: usize| t.nth(k).and_then(|v| dt.position(v)).map(|p| p as i128);
            // positions are affine along the dimension: with the first two
            // elements in the domain, the last one is iff its position is
            let last = |(p0, p1): &(i128, i128)| p0 + (len[d] as i128 - 1) * (p1 - p0);
            let (p0, p1) = pos(0)
                .zip(pos(1.min(len[d] - 1)))
                .filter(|ends| (0..dt.len() as i128).contains(&last(ends)))
                .ok_or_else(outside)?;
            step[d] = (p1 - p0) as isize * w;
            outer += p0 as isize * w;
            w *= dt.len() as isize;
        }
        // `outer` is the position of `(first of dimension 0, cursor[1..])`;
        // a rank-0 rect is one row of one element
        let mut cursor = [0usize; MAX_RANK];
        'rows: loop {
            f(Row { dense: outer as usize, step: step[0], shard, len: len[0] });
            shard += len[0];
            let mut d = 1;
            loop {
                if d >= rank {
                    break 'rows;
                }
                cursor[d] += 1;
                outer += step[d];
                if cursor[d] < len[d] {
                    break;
                }
                outer -= step[d] * len[d] as isize;
                cursor[d] = 0;
                d += 1;
            }
        }
    }
    Ok(())
}

/// Copy one shard — `data`, in the fill order of `rects` — to its
/// positions in the dense `image` of `dom`, marking them in `covered`.
/// The shards come from a live array ([`DistArray::to_dense`]) or from a
/// checkpoint written under another layout ([`crate::ckpt`]); `Err` says
/// which rect does not lie in the domain.
///
/// # Panics
/// Panics if `data` is shorter than the rects' volume.
pub(crate) fn scatter_shard<T: Clone>(
    dom: &IndexDomain,
    rects: &[Rect],
    data: &[T],
    image: &mut [T],
    covered: &mut [bool],
) -> Result<(), String> {
    for_each_row(dom, rects, |row| {
        let src = &data[row.shard..row.shard + row.len];
        if row.step == 1 {
            image[row.dense..row.dense + row.len].clone_from_slice(src);
            covered[row.dense..row.dense + row.len].fill(true);
        } else {
            for (v, pos) in src.iter().zip(row.positions()) {
                image[pos] = v.clone();
                covered[pos] = true;
            }
        }
    })
}

/// Column-major position of `i` within a rect, `None` if the rect does
/// not hold it — membership test and addressing in one pass over the
/// dimensions.
pub(crate) fn rect_position(rect: &Rect, i: &Idx) -> Option<usize> {
    if i.rank() != rect.rank() {
        return None;
    }
    let mut pos = 0usize;
    let mut w = 1usize;
    for (t, &v) in rect.dims().iter().zip(i.as_slice()) {
        pos += t.position(v)? * w;
        w *= t.len();
    }
    Some(pos)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_core::{DataSpace, DistributeSpec, FormatSpec, ProcSet};

    fn block_array(n: usize, np: usize) -> DistArray<f64> {
        let mut ds = DataSpace::new(np);
        let a = ds.declare("A", IndexDomain::of_shape(&[n]).unwrap()).unwrap();
        ds.distribute(a, &DistributeSpec::new(vec![FormatSpec::Block])).unwrap();
        DistArray::from_fn("A", ds.effective(a).unwrap(), np, |i| i[0] as f64)
    }

    #[test]
    fn large_shards_sit_at_their_lane() {
        let n = SEAT_MIN_BYTES / 8;
        for lane in [0, 512, 3584] {
            let shard = Shard::seated(lane, n, (0..n).map(|k| k as f64));
            assert_eq!(shard.as_ptr() as usize % PAGE, lane);
            assert_eq!(shard.len(), n);
            assert!(shard.iter().enumerate().all(|(k, v)| *v == k as f64));
            // a copy is a new allocation seated at the same lane
            let copy = shard.clone();
            assert_eq!(copy.as_ptr() as usize % PAGE, lane);
            assert_eq!(&copy[..], &shard[..]);
        }
        // the shards of one array share a lane whatever the allocator does
        let a = block_array(4 * n, 4);
        let lanes = |a: &DistArray<f64>| -> Vec<usize> {
            (0..4).map(|p| a.local(p).as_ptr() as usize % PAGE).collect()
        };
        assert_eq!(lanes(&a), vec![lane_of("A"); 4]);
        // ... also when dealt out of a dense image
        let dealt = DistArray::from_dense("A", a.mapping().clone(), 4, &a.to_dense());
        assert_eq!(lanes(&dealt), vec![lane_of("A"); 4]);
        assert!((0..4).all(|p| dealt.local(p) == a.local(p)));
    }

    #[test]
    fn small_and_empty_shards_carry_no_slack() {
        let small = Shard::seated(512, 7, (0..7).map(f64::from));
        assert_eq!((small.head, small.buf.capacity()), (0, 7));
        assert_eq!(&small[..], &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let empty: Shard<f64> = Shard::seated(512, 0, std::iter::empty());
        assert!(empty.is_empty());
        assert!(Shard::<f64>::default().is_empty());
    }

    /// Dense positions of `rects` in shard order, checking on the way that
    /// the rows tile the shard.
    fn walk(dom: &IndexDomain, rects: &[Rect]) -> Vec<usize> {
        let mut got = Vec::new();
        for_each_row(dom, rects, |row| {
            assert_eq!(row.shard, got.len());
            got.extend(row.positions());
        })
        .unwrap();
        got
    }

    #[test]
    fn linear_walk_matches_per_index_linearization() {
        use hpf_index::Triplet;
        let t = |l, u, s| Triplet::new(l, u, s).unwrap();
        let dom = IndexDomain::new(vec![t(0, 11, 1), t(-3, 21, 3), t(5, 5, 1)]).unwrap();
        let rects = [
            Rect::new(vec![t(1, 11, 2), t(0, 21, 6), t(5, 5, 1)]),
            Rect::new(vec![t(10, 0, -5), t(21, -3, -3), t(5, 5, 1)]),
            Rect::new(vec![t(4, 4, 1), t(3, 3, 3), t(5, 5, 1)]),
            Rect::new(vec![t(4, 3, 1), t(-3, 21, 3), t(5, 5, 1)]),
        ];
        for rect in &rects {
            let want: Vec<usize> = rect.iter().map(|i| dom.linearize(&i).unwrap()).collect();
            assert_eq!(walk(&dom, std::slice::from_ref(rect)), want, "{rect}");
        }
        // several rects: shard offsets run on from one rect to the next
        let want: Vec<usize> =
            rects.iter().flat_map(Rect::iter).map(|i| dom.linearize(&i).unwrap()).collect();
        assert_eq!(walk(&dom, &rects), want);
        let scalar = IndexDomain::new(vec![]).unwrap();
        assert_eq!(walk(&scalar, &[Rect::new(vec![])]), vec![0]);
        // a rect that leaves the domain is named, never walked
        for bad in [
            Rect::new(vec![t(1, 12, 1), t(0, 21, 3), t(5, 5, 1)]),
            Rect::new(vec![t(0, 11, 1), t(-2, 21, 3), t(5, 5, 1)]),
            Rect::new(vec![t(0, 11, 1), t(0, 4, 2), t(5, 5, 1)]),
            Rect::new(vec![t(0, i64::MAX, i64::MAX / 2), t(0, 21, 3), t(5, 5, 1)]),
            Rect::new(vec![t(0, 11, 1), t(0, 21, 3)]),
        ] {
            let err = for_each_row(&dom, std::slice::from_ref(&bad), |_| {}).unwrap_err();
            assert!(err.contains("domain"), "{bad}: {err}");
        }
    }

    #[test]
    fn storage_partitions_elements() {
        let a = block_array(10, 4);
        assert_eq!(a.total_storage(), 10);
        assert_eq!(a.local_len(ProcId(1)), 3);
        assert_eq!(a.local_len(ProcId(4)), 1);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut a = block_array(16, 4);
        assert_eq!(a.get(&Idx::d1(7)), 7.0);
        a.set(&Idx::d1(7), 99.0);
        assert_eq!(a.get(&Idx::d1(7)), 99.0);
        let dense = a.to_dense();
        assert_eq!(dense[6], 99.0);
        assert_eq!(dense[0], 1.0);
    }

    #[test]
    fn assign_dense_overwrites_every_copy_and_reseats_a_lost_shard() {
        let image: Vec<f64> = (0..10).map(|k| k as f64 * 0.5 - 1.0).collect();
        let mut a = block_array(10, 4);
        // a dead worker took shard 3 with it
        drop(a.take_local(2));
        let epochs: Vec<u64> = (0..4).map(|p| a.shard_version(p)).collect();
        a.assign_dense(&image);
        assert_eq!(a.to_dense(), image);
        assert_eq!(a.local(2), &image[6..9]);
        assert!((0..4).all(|p| a.shard_version(p) > epochs[p]), "every shard was written");

        let dom = IndexDomain::of_shape(&[10]).unwrap();
        let copies = Arc::new(hpf_core::EffectiveDist::Replicated { domain: dom, procs: ProcSet::all(3) });
        let r = DistArray::from_dense("R", copies, 3, &image);
        assert!((0..3).all(|p| r.local(p) == &image[..]));
    }

    #[test]
    fn cyclic_local_layout() {
        let mut ds = DataSpace::new(3);
        let id = ds.declare("C", IndexDomain::of_shape(&[10]).unwrap()).unwrap();
        ds.distribute(id, &DistributeSpec::new(vec![FormatSpec::Cyclic(1)])).unwrap();
        let c = DistArray::from_fn("C", ds.effective(id).unwrap(), 3, |i| i[0]);
        // P1 owns 1,4,7,10
        assert_eq!(c.local_len(ProcId(1)), 4);
        for v in [1i64, 4, 7, 10] {
            assert_eq!(c.get(&Idx::d1(v)), v);
        }
    }

    #[test]
    fn local_offsets_match_fill_order() {
        // CYCLIC(2): strided multi-rect ownership; the precomputed rect
        // bases must reproduce the construction fill order exactly
        let mut ds = DataSpace::new(3);
        let id = ds.declare("C", IndexDomain::of_shape(&[17]).unwrap()).unwrap();
        ds.distribute(id, &DistributeSpec::new(vec![FormatSpec::Cyclic(2)])).unwrap();
        let c = DistArray::from_fn("C", ds.effective(id).unwrap(), 3, |i| i[0]);
        for p in (1..=3u32).map(ProcId) {
            for (k, i) in c.region_of(p).iter().enumerate() {
                assert_eq!(c.local_offset(p, &i), Some(k), "{p} {i}");
            }
        }
    }

    #[test]
    fn replicated_array_keeps_copies_coherent() {
        let dom = IndexDomain::of_shape(&[5]).unwrap();
        let mapping = Arc::new(hpf_core::EffectiveDist::Replicated {
            domain: dom,
            procs: ProcSet::all(3),
        });
        let mut r = DistArray::new("R", mapping, 3, 0i64);
        assert_eq!(r.total_storage(), 15); // 3 full copies
        r.set(&Idx::d1(2), 42);
        // every copy sees the write
        for p in 1..=3u32 {
            assert_eq!(r.local_len(ProcId(p)), 5);
        }
        assert_eq!(r.get(&Idx::d1(2)), 42);
        assert_eq!(r.to_dense(), vec![0, 42, 0, 0, 0]);
    }

    #[test]
    fn two_dim_storage() {
        let mut ds = DataSpace::new(4);
        ds.declare_processors("G", IndexDomain::of_shape(&[2, 2]).unwrap()).unwrap();
        let id = ds.declare("M", IndexDomain::of_shape(&[6, 6]).unwrap()).unwrap();
        ds.distribute(
            id,
            &DistributeSpec::to(vec![FormatSpec::Block, FormatSpec::Block], "G"),
        )
        .unwrap();
        let m = DistArray::from_fn("M", ds.effective(id).unwrap(), 4, |i| i[0] * 10 + i[1]);
        assert_eq!(m.total_storage(), 36);
        for i in m.domain().clone().iter() {
            assert_eq!(m.get(&i), i[0] * 10 + i[1]);
        }
    }
}
