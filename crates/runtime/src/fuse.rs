//! Program-level plan fusion: superstep DAG construction, cross-statement
//! message coalescing, and ghost-region reuse for warm replay.
//!
//! Per-statement plans ([`ExecPlan`]) treat every statement as its own
//! island: an iterated solver re-exchanges its full ghost sets every
//! timestep even when the overlap data has not changed, and back-to-back
//! statements reading the same operand pack the same bytes twice. This
//! module lifts the inspector–executor boundary from *statement* to
//! *program*:
//!
//! 1. **Superstep DAG** — the timestep's statements are level-scheduled at
//!    array granularity: statement `s` must run after an earlier statement
//!    `r` iff `s` reads `r`'s LHS array (RAW) or writes the same array
//!    (WAW). WAR — `s` overwrites an array an earlier `r` reads — only
//!    forbids `s` from landing in a superstep *before* `r`'s; the same
//!    superstep is legal. A staged operand was snapshotted before any
//!    same-superstep store (Fortran 90 array-assignment semantics), and an
//!    operand read in place (see [`crate::plan`]) is read by `r`'s kernel
//!    before `s`'s kernel runs, because every executor computes a
//!    superstep's statements in program order and a processor's in-place
//!    reads touch only its own shards.
//! 2. **Message coalescing** — the remote gather runs of a superstep's
//!    statements ([`ProcPlan::remote_runs`](crate::ProcPlan::remote_runs))
//!    are bucketed by `(sender, receiver)` straight into one
//!    [`FusedPair`]: one vectorized message per pair per superstep instead
//!    of one per pair per statement. The receiver-side runs are the only
//!    source of the exchange schedule and [`FusedSegment`] its only
//!    send-side form — nothing is regrouped in between.
//! 3. **Ghost-region reuse** — each coalesced segment is a dirty-tracking
//!    *unit*: a strided progression of source offsets on the sending
//!    shard. At compile time the fused plan computes, from exact store-run
//!    / source-progression intersections (a store that lands *between* two
//!    elements of a strided unit does not touch it), which statements
//!    overwrite each segment's source data and records the answer on the
//!    segment (`intra_dirty` / `post_dirty`); at run time a [`FusedState`]
//!    combines that with
//!    per-shard write epochs (see `DistArray::shard_version`) to skip
//!    re-sending units whose receiver-side copy is still current. The
//!    receiving buffers persist across timesteps, so a skipped unit's data
//!    is simply still there.
//! 4. **Pack/compute overlap** — a fused pair's message is packed and
//!    shipped at its `pack_phase`, the earliest superstep at which its
//!    source data is final. A pair whose operands no earlier superstep
//!    writes is hoisted to phase 0, so its exchange overlaps the compute
//!    of every earlier superstep (the `Channels` workers run phases
//!    without global barriers; they block only on the arrivals the next
//!    kernel actually reads).
//!
//! A [`ProgramPlan`] is immutable once compiled; `PlanCache` keeps one per
//! statement sequence and invalidates it exactly like the per-statement
//! plans — structural statement equality plus `MappingId` identity of
//! every involved mapping (so `Program::remap` invalidates it).

use crate::array::DistArray;
use crate::assign::Assignment;
use crate::plan::{copy_strided, ExecPlan};
use crate::workspace::FusedWorkspace;
use std::sync::Arc;

/// One strided piece of a coalesced message, tied back to the statement
/// it feeds: `len` elements from shard `sender` of array `array` at
/// `src_off + i·src_stride`, landing in statement `stmt`'s packed operand
/// buffer for term `term` at `dst_off + i·dst_stride` on the receiver — a
/// remote [`CopyRun`](crate::CopyRun) of that statement's gather schedule
/// seen from the wire, or the sub-progression of one between two write
/// boundaries (same strides). Also the granularity of ghost dirty
/// tracking: the two static flags say which program statements overwrite
/// the source data, and `unit` is the segment's slot in the
/// [`FusedState`] masks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FusedSegment {
    /// Index of the statement (and constituent plan) this segment feeds.
    pub stmt: usize,
    /// RHS term index within that statement.
    pub term: usize,
    /// Operand array index (selects the sender's local buffer).
    pub array: usize,
    /// First flat offset into the sender's local shard.
    pub src_off: usize,
    /// Distance between consecutive source offsets.
    pub src_stride: usize,
    /// First position in the receiver's packed operand buffer for `term`.
    pub dst_off: usize,
    /// Distance between consecutive packed positions.
    pub dst_stride: usize,
    /// Elements moved.
    pub len: usize,
    /// The segment's flat index in `(pair, segment)` order — its slot in
    /// the dirty and effective-send masks.
    pub unit: usize,
    /// True iff some statement in a superstep *before* the pair's pack
    /// phase writes one of the source elements: the segment must then be
    /// re-sent every timestep regardless of its cross-timestep dirty bit,
    /// because the current timestep changes the data before it is staged.
    /// Always true in a plan compiled unfused.
    pub intra_dirty: bool,
    /// True iff some statement at or after the pair's home superstep
    /// writes one of the source elements: the receiver's copy is stale
    /// *after* the timestep, so the segment re-enters the next timestep
    /// dirty.
    pub post_dirty: bool,
}

/// Everything one ordered processor pair exchanges for one superstep,
/// coalesced across every statement of that superstep — the one message
/// the sender packs and the receiver unpacks.
#[derive(Debug, Clone)]
pub struct FusedPair {
    /// Zero-based sending processor.
    pub sender: u32,
    /// Zero-based receiving processor.
    pub receiver: u32,
    /// The superstep whose kernels read this message (its *home*).
    pub superstep: usize,
    /// The phase at which the message is packed and shipped: the earliest
    /// superstep index at which no earlier-superstep statement can still
    /// write the source data. `pack_phase ≤ superstep`; a strict
    /// inequality is the pack/compute overlap window.
    pub pack_phase: usize,
    /// Total elements when every segment is sent (= sum of segment
    /// lengths). The actual wire traffic of a warm timestep is the sum
    /// over *effective* (dirty) segments only.
    pub elements: usize,
    /// The message layout, in pack order.
    pub segments: Vec<FusedSegment>,
}

/// One level of the fused timestep: the statements (by index) that
/// execute together, pairwise free of RAW/WAW conflicts.
#[derive(Debug, Clone)]
pub struct Superstep {
    /// Statement indices, in program order.
    pub stmts: Vec<usize>,
}

/// A whole timestep compiled as one fused schedule: the constituent
/// per-statement plans, the superstep DAG flattened to levels, and the
/// coalesced per-pair messages with their static dirty flags.
/// Immutable once compiled; see the module docs for invalidation rules.
#[derive(Debug, Clone)]
pub struct ProgramPlan {
    plans: Vec<Arc<ExecPlan>>,
    fused: bool,
    supersteps: Vec<Superstep>,
    pairs: Vec<FusedPair>,
    messages_before: usize,
    messages_after: usize,
}

/// Merge possibly-overlapping `(start, end)` intervals into a sorted
/// disjoint list.
pub(crate) fn merge_intervals(mut iv: Vec<(usize, usize)>) -> Vec<(usize, usize)> {
    iv.sort_unstable();
    let mut out: Vec<(usize, usize)> = Vec::with_capacity(iv.len());
    for (a, b) in iv {
        match out.last_mut() {
            Some(last) if a <= last.1 => last.1 = last.1.max(b),
            _ => out.push((a, b)),
        }
    }
    out
}

/// The elements of the progression `off + i·stride`, `i < len`, that the
/// sorted disjoint interval list `iv` covers, as maximal index ranges
/// `[lo, hi)` in ascending order — exact: an interval lying strictly
/// between two elements hits nothing. `stride ≥ 1`.
pub(crate) fn hit_ranges(
    iv: &[(usize, usize)],
    off: usize,
    stride: usize,
    len: usize,
) -> impl Iterator<Item = (usize, usize)> + '_ {
    // index of the first element at or after offset `x`
    let first_at = move |x: usize| x.saturating_sub(off).div_ceil(stride).min(len);
    let end = crate::plan::span_end(off, stride, len);
    let mut ranges = iv[iv.partition_point(|&(_, e)| e <= off)..]
        .iter()
        .take_while(move |&&(s, _)| s < end)
        .map(move |&(s, e)| (first_at(s), first_at(e)))
        .filter(|&(lo, hi)| lo < hi)
        .peekable();
    std::iter::from_fn(move || {
        let (lo, mut hi) = ranges.next()?;
        while let Some(&(_, h)) = ranges.peek().filter(|r| r.0 == hi) {
            hi = h;
            ranges.next();
        }
        Some((lo, hi))
    })
}

impl ProgramPlan {
    /// Compile the fused schedule for one timestep: level-schedule the
    /// statements, bucket their remote gather runs into one message per
    /// `(superstep, sender, receiver)`, and derive the static dirty/phase
    /// metadata from exact store-run / source-progression intersections.
    ///
    /// `plans[s]` must be the compiled plan of `stmts[s]` against the
    /// current mappings (the `PlanCache` resolves them; direct callers can
    /// use [`ExecPlan::inspect`]).
    ///
    /// With `fused = false` the same schedule is compiled in its
    /// per-statement form — the pre-fusion baseline, on the same executor:
    /// every statement is a superstep of its own (so nothing coalesces),
    /// every message is packed at its home superstep, and every unit is
    /// re-sent every timestep (the full ghost exchange).
    ///
    /// # Panics
    /// Panics if `stmts` and `plans` disagree in length.
    pub fn compile(stmts: &[Assignment], plans: Vec<Arc<ExecPlan>>, fused: bool) -> ProgramPlan {
        assert_eq!(stmts.len(), plans.len(), "one plan per statement");
        let n = stmts.len();

        // 1. greedy level scheduling at array granularity: s must land in
        // a strictly later superstep than an earlier r iff s reads r's LHS
        // (RAW) or writes the same array (WAW), and in a superstep no
        // earlier than r's iff s overwrites an array r reads (WAR) — a
        // writer hoisted past a deeper-levelled reader would destroy the
        // values that reader still needs. The same superstep stays legal
        // for WAR (see the module docs). Unfused, statement s is simply
        // superstep s.
        let mut level: Vec<usize> = if fused { vec![0; n] } else { (0..n).collect() };
        for s in (0..n).filter(|_| fused) {
            for r in 0..s {
                let raw = stmts[s].terms.iter().any(|t| t.array == stmts[r].lhs);
                let waw = stmts[s].lhs == stmts[r].lhs;
                let war = stmts[r].terms.iter().any(|t| t.array == stmts[s].lhs);
                if raw || waw {
                    level[s] = level[s].max(level[r] + 1);
                } else if war {
                    level[s] = level[s].max(level[r]);
                }
            }
        }
        let depth = level.iter().map(|l| l + 1).max().unwrap_or(0);
        let mut supersteps: Vec<Superstep> =
            (0..depth).map(|_| Superstep { stmts: Vec::new() }).collect();
        for (s, &lv) in level.iter().enumerate() {
            supersteps[lv].stmts.push(s);
        }

        // 2. per-statement store intervals in flat shard-offset space:
        // writes[s][q] = what statement s stores into shard q of its LHS.
        let np = plans.iter().map(|p| p.per_proc().len()).max().unwrap_or(0);
        let writes: Vec<Vec<Vec<(usize, usize)>>> = plans
            .iter()
            .map(|p| {
                let mut per: Vec<Vec<(usize, usize)>> = vec![Vec::new(); np];
                for pp in p.per_proc() {
                    per[pp.proc.zero_based()] = merge_intervals(
                        pp.lhs_runs.iter().map(|r| (r.dst_off, r.dst_off + r.len)).collect(),
                    );
                }
                per
            })
            .collect();

        // 3. coalesce messages: every remote gather run of a superstep's
        // statements lands in the bucket of its (sender, receiver) pair,
        // in (stmt, term, dst_off) order within the bucket. Each run is
        // split where the set of statements writing its source elements
        // changes, so a never-written stretch (e.g. a fixed boundary
        // element a stencil reads but no sweep updates) gets its own
        // dirty-tracking unit — ghost validity is decided per homogeneous
        // stretch, not per whole gather run. The boundaries are element
        // indices into the run's progression, from the exact
        // progression-vs-store-interval test: stores that fall between the
        // elements of a strided run cut nothing.
        let mut messages_before = 0usize;
        let mut map: std::collections::BTreeMap<(usize, u32, u32), Vec<FusedSegment>> =
            std::collections::BTreeMap::new();
        let mut cuts: Vec<usize> = Vec::new();
        for (s, plan) in plans.iter().enumerate() {
            messages_before += plan.messages();
            for pp in plan.per_proc() {
                let me = pp.proc.zero_based() as u32;
                for (t, ts, r) in pp.remote_runs() {
                    cuts.clear();
                    cuts.extend([0, r.len]);
                    for (w, _) in stmts.iter().enumerate().filter(|(_, st)| st.lhs == ts.array) {
                        let written = &writes[w][r.src as usize];
                        for (lo, hi) in hit_ranges(written, r.src_off, r.src_stride, r.len) {
                            cuts.extend([lo, hi]);
                        }
                    }
                    cuts.sort_unstable();
                    cuts.dedup();
                    let bucket = map.entry((level[s], r.src, me)).or_default();
                    for w in cuts.windows(2) {
                        bucket.push(FusedSegment {
                            stmt: s,
                            term: t,
                            array: ts.array,
                            src_off: r.src_off + w[0] * r.src_stride,
                            src_stride: r.src_stride,
                            dst_off: r.dst_off + w[0] * r.dst_stride,
                            dst_stride: r.dst_stride,
                            len: w[1] - w[0],
                            // assigned below
                            unit: 0,
                            intra_dirty: false,
                            post_dirty: false,
                        });
                    }
                }
            }
        }

        // 4. unit indices, dirty flags, and pack phases. A segment's
        // writers split by superstep relative to the pair's home: writers
        // strictly before the home push the pack phase past them (and
        // force a same-timestep re-send); writers at or after the home
        // happen after staging, so they leave the receiver's copy stale
        // for the *next* timestep.
        let mut pairs = Vec::with_capacity(map.len());
        let mut units = 0usize;
        for ((superstep, sender, receiver), mut segments) in map {
            // unfused: packed at home, and every unit re-sent every timestep
            let mut pack_phase = if fused { 0 } else { superstep };
            for seg in &mut segments {
                seg.unit = units;
                units += 1;
                seg.intra_dirty = !fused;
                for (w, stmt) in stmts.iter().enumerate() {
                    if stmt.lhs != seg.array
                        || hit_ranges(
                            &writes[w][sender as usize],
                            seg.src_off,
                            seg.src_stride,
                            seg.len,
                        )
                        .next()
                        .is_none()
                    {
                        continue;
                    }
                    if level[w] < superstep {
                        seg.intra_dirty = true;
                        pack_phase = pack_phase.max(level[w] + 1);
                    } else {
                        seg.post_dirty = true;
                    }
                }
            }
            let elements = segments.iter().map(|s| s.len).sum();
            pairs.push(FusedPair { sender, receiver, superstep, pack_phase, elements, segments });
        }
        let messages_after = pairs.len();

        ProgramPlan { plans, fused, supersteps, pairs, messages_before, messages_after }
    }

    /// True iff the plan was compiled fused (see [`ProgramPlan::compile`]).
    pub fn fused(&self) -> bool {
        self.fused
    }

    /// The constituent per-statement plans, in program order.
    pub fn plans(&self) -> &[Arc<ExecPlan>] {
        &self.plans
    }

    /// The superstep levels, each pairwise free of RAW/WAW conflicts.
    pub fn supersteps(&self) -> &[Superstep] {
        &self.supersteps
    }

    /// The coalesced messages, sorted by `(superstep, sender, receiver)`.
    pub fn pairs(&self) -> &[FusedPair] {
        &self.pairs
    }

    /// Every coalesced segment with the pair that ships it, in unit order
    /// (a segment's position here is its [`FusedSegment::unit`]).
    pub fn segments(&self) -> impl Iterator<Item = (&FusedPair, &FusedSegment)> {
        self.pairs.iter().flat_map(|p| p.segments.iter().map(move |s| (p, s)))
    }

    /// Constituent `(sender, receiver)` messages before coalescing (one
    /// per pair per statement).
    pub fn messages_before(&self) -> usize {
        self.messages_before
    }

    /// Coalesced messages after fusion (one per pair per superstep).
    pub fn messages_after(&self) -> usize {
        self.messages_after
    }

    /// Simulated processor count the fused schedule drives.
    pub fn np(&self) -> usize {
        self.plans.iter().map(|p| p.per_proc().len()).max().unwrap_or(0)
    }

    /// True iff every constituent plan is still valid for `arrays` (same
    /// `MappingId` for every involved mapping — see
    /// [`ExecPlan::is_valid_for`]).
    pub fn is_valid_for(&self, arrays: &[DistArray<f64>]) -> bool {
        self.plans.iter().all(|p| p.is_valid_for(arrays))
    }

    /// Mutable access to the coalesced pairs.
    ///
    /// Only for mutation tests that corrupt a frozen fused schedule to
    /// prove [`verify_program_plan`](crate::verify::verify_program_plan)
    /// catches it — never mutate a plan that will execute.
    #[doc(hidden)]
    pub fn pairs_mut(&mut self) -> &mut Vec<FusedPair> {
        &mut self.pairs
    }
}

/// Which buffers currently hold the receiver-side packed operand data
/// that clean-unit skipping relies on — what
/// [`ExchangeBackend::buffer_domain`](crate::ExchangeBackend::buffer_domain)
/// reports before every timestep. A change of domain (another backend, or
/// a respawned worker fleet whose buffers start empty) re-dirties every
/// unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferDomain {
    /// No timestep has run yet, or the last one failed.
    None,
    /// The [`FusedWorkspace`] handed to the step (the `SharedMem` backend).
    Workspace,
    /// The `Channels` workers' own buffers, stamped with the fleet's spawn
    /// generation.
    Channels(u64),
}

/// Mutable per-`ProgramPlan` replay state: the cross-timestep dirty bits,
/// the per-timestep effective-send mask, per-shard write-epoch snapshots
/// for out-of-band-write detection, and the reuse counters behind
/// [`FusionStats`](crate::FusionStats). Warm timesteps mutate it without
/// allocating.
#[derive(Debug, Clone)]
pub struct FusedState {
    dirty: Vec<bool>,
    /// Effective-send mask of the current timestep; `Arc` so the
    /// `Channels` driver can ship it to the workers without copying.
    eff: Arc<Vec<bool>>,
    /// Effective elements per coalesced pair under the current mask — the
    /// executors' O(1) whole-pair skip and the length each `Channels`
    /// message must have; `Arc` so it ships to the workers beside the mask
    /// it was built with.
    pair_eff: Arc<Vec<u64>>,
    /// True while `eff`/`pair_eff` match `dirty` — steady warm timesteps
    /// skip every per-unit pass.
    eff_current: bool,
    /// True while `dirty` equals the static `post_dirty` column, which is
    /// the steady-state fixpoint `finish_timestep` drives it to.
    dirty_is_post: bool,
    /// Per-pair `(start, end)` ranges into `eff_segs`.
    eff_ranges: Vec<(u32, u32)>,
    /// Flat per-pair lists of effective segment indices (into each
    /// [`FusedPair::segments`]), so the staging loops touch only the
    /// segments that actually ship instead of filtering the full
    /// coalesced list every timestep. Capacity is reserved up front so
    /// mask rebuilds never allocate.
    eff_segs: Vec<u32>,
    /// `snaps[a][q]` = shard version of array `a`, shard `q` at the end
    /// of the last fused timestep.
    snaps: Vec<Vec<u64>>,
    domain: BufferDomain,
    last_sent: u64,
    last_avoided: u64,
    sent_elements: u64,
    avoided_elements: u64,
    timesteps: u64,
}

impl FusedState {
    /// Fresh state for `plan`: everything dirty, so the first timestep
    /// ships the full schedule and populates the receiver-side buffers.
    pub(crate) fn new(plan: &ProgramPlan, arrays: &[DistArray<f64>]) -> FusedState {
        let nseg = plan.pairs.iter().map(|p| p.segments.len()).sum();
        FusedState {
            dirty: vec![true; nseg],
            eff: Arc::new(vec![false; nseg]),
            pair_eff: Arc::new(vec![0; plan.pairs.len()]),
            eff_current: false,
            dirty_is_post: false,
            eff_ranges: vec![(0, 0); plan.pairs.len()],
            eff_segs: Vec::with_capacity(nseg),
            snaps: arrays.iter().map(|a| vec![0u64; a.np()]).collect(),
            domain: BufferDomain::None,
            last_sent: 0,
            last_avoided: 0,
            sent_elements: 0,
            avoided_elements: 0,
            timesteps: 0,
        }
    }

    /// Open a timestep: dirty everything if the buffer domain changed
    /// (different backend or respawned worker fleet), fold in
    /// out-of-band shard writes detected via the write epochs, and build
    /// the effective-send mask (`dirty ∨ intra_dirty`).
    ///
    /// The expensive passes here are all O(units), and a strided LHS
    /// (red-black) or a misaligned `CYCLIC(k)` still has a unit per few
    /// elements — so the steady warm state must not touch them. The out-of-band probe is O(arrays × shards); when it
    /// is quiet, the domain is unchanged, and the mask already matches
    /// the dirty bits, the previous timestep's mask, per-pair totals and
    /// segment lists are all still exact and the call returns
    /// immediately.
    pub(crate) fn begin_timestep(
        &mut self,
        plan: &ProgramPlan,
        arrays: &[DistArray<f64>],
        domain: BufferDomain,
    ) {
        let mut event = self.domain != domain;
        if event {
            self.dirty.iter_mut().for_each(|d| *d = true);
            self.domain = domain;
            self.dirty_is_post = false;
        }
        let quiet = self.snaps.iter().zip(arrays).all(|(snap, arr)| {
            snap.iter().enumerate().all(|(q, &s)| arr.shard_version(q) == s)
        });
        if !quiet {
            for (d, (pair, seg)) in self.dirty.iter_mut().zip(plan.segments()) {
                let shard = pair.sender as usize;
                if arrays[seg.array].shard_version(shard) != self.snaps[seg.array][shard] {
                    *d = true;
                }
            }
            self.dirty_is_post = false;
            event = true;
        }
        if !event && self.eff_current {
            return; // steady state: mask, counters and segment lists hold
        }
        let eff = Arc::make_mut(&mut self.eff);
        let pair_eff = Arc::make_mut(&mut self.pair_eff);
        (self.last_sent, self.last_avoided) = (0, 0);
        self.eff_segs.clear();
        let mut start = 0u32;
        for ((range, elems), pair) in
            self.eff_ranges.iter_mut().zip(pair_eff.iter_mut()).zip(&plan.pairs)
        {
            *elems = 0;
            for (i, seg) in pair.segments.iter().enumerate() {
                eff[seg.unit] = self.dirty[seg.unit] || seg.intra_dirty;
                if eff[seg.unit] {
                    self.eff_segs.push(i as u32);
                    *elems += seg.len as u64;
                } else {
                    self.last_avoided += seg.len as u64;
                }
            }
            self.last_sent += *elems;
            let end = self.eff_segs.len() as u32;
            *range = (start, end);
            start = end;
        }
        self.eff_current = true;
    }

    /// The effective segment indices of pair `k` under the current mask.
    pub fn eff_segments(&self, k: usize) -> &[u32] {
        let (lo, hi) = self.eff_ranges[k];
        &self.eff_segs[lo as usize..hi as usize]
    }

    /// The mask as a shareable handle (for the `Channels` driver).
    pub fn eff_arc(&self) -> Arc<Vec<bool>> {
        self.eff.clone()
    }

    /// The elements each pair ships under the current mask, as a
    /// shareable handle (for the `Channels` driver).
    pub fn pair_eff_arc(&self) -> Arc<Vec<u64>> {
        self.pair_eff.clone()
    }

    /// Elements the current timestep's mask ships.
    pub fn last_sent(&self) -> u64 {
        self.last_sent
    }

    /// Close a timestep: a unit re-enters dirty iff some statement at or
    /// after its pack point overwrote its source this timestep (the
    /// static `post_dirty` — sound because units the mask skipped had no
    /// writers at all, and units it shipped were staged past every
    /// earlier writer). Then resync the write-epoch snapshots.
    pub(crate) fn finish_timestep(&mut self, plan: &ProgramPlan, arrays: &[DistArray<f64>]) {
        if !self.dirty_is_post {
            let mut changed = false;
            for (d, (_, seg)) in self.dirty.iter_mut().zip(plan.segments()) {
                if *d != seg.post_dirty {
                    *d = seg.post_dirty;
                    changed = true;
                }
            }
            self.dirty_is_post = true;
            if changed {
                self.eff_current = false;
            }
        }
        for (snap, arr) in self.snaps.iter_mut().zip(arrays) {
            for (q, s) in snap.iter_mut().enumerate() {
                *s = arr.shard_version(q);
            }
        }
        self.sent_elements += self.last_sent;
        self.avoided_elements += self.last_avoided;
        self.timesteps += 1;
    }

    /// Cumulative ghost elements shipped across fused timesteps.
    pub(crate) fn sent_elements(&self) -> u64 {
        self.sent_elements
    }

    /// Cumulative ghost elements skipped as clean across fused timesteps.
    pub(crate) fn avoided_elements(&self) -> u64 {
        self.avoided_elements
    }

    /// Fused timesteps executed through this state.
    pub(crate) fn timesteps(&self) -> u64 {
        self.timesteps
    }

    /// Distrust everything after a failed timestep: an exchange fault
    /// left the arrays partial (and, on `Channels`, the fleet torn down
    /// with its receiver-side ghost buffers), so every unit must re-ship
    /// on the next attempt. Setting the domain to `None` also forces
    /// `begin_timestep`'s domain-change path, which re-dirties and
    /// rebuilds the mask no matter which executor retries — checkpoint
    /// restore then replays through a state with no stale assumptions.
    pub(crate) fn poison(&mut self) {
        self.dirty.iter_mut().for_each(|d| *d = true);
        self.dirty_is_post = false;
        self.eff_current = false;
        self.domain = BufferDomain::None;
    }

    /// Carry the cumulative observability counters over from the state
    /// of an invalidated plan, so `fusion_stats` stays lifetime-cumulative
    /// across remaps and statement-list changes.
    pub(crate) fn carry_counters(&mut self, old: &FusedState) {
        self.sent_elements = old.sent_elements;
        self.avoided_elements = old.avoided_elements;
        self.timesteps = old.timesteps;
    }
}

/// Observability snapshot of the fused program path — what
/// [`Program::fusion_stats`](crate::Program::fusion_stats) returns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FusionStats {
    /// Statements in the fused plan.
    pub statements: usize,
    /// Superstep levels the DAG flattened to.
    pub supersteps: usize,
    /// Constituent per-statement messages before coalescing.
    pub messages_before: usize,
    /// Coalesced messages after fusion.
    pub messages_after: usize,
    /// Timesteps replayed through the fused plan.
    pub fused_timesteps: u64,
    /// Ghost elements actually shipped across those timesteps.
    pub ghost_elements_sent: u64,
    /// Ghost elements skipped because their receiver-side copy was still
    /// current (never re-packed, never re-sent).
    pub ghost_elements_avoided: u64,
}

impl FusionStats {
    /// Ghost bytes actually shipped.
    pub fn ghost_bytes_sent(&self) -> u64 {
        self.ghost_elements_sent * std::mem::size_of::<f64>() as u64
    }

    /// Ghost bytes avoided by clean-unit reuse.
    pub fn ghost_bytes_avoided(&self) -> u64 {
        self.ghost_elements_avoided * std::mem::size_of::<f64>() as u64
    }
}

impl std::fmt::Display for FusionStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} statements in {} supersteps, {} messages coalesced to {}, \
             {} timesteps: {} ghost bytes sent, {} avoided by reuse",
            self.statements,
            self.supersteps,
            self.messages_before,
            self.messages_after,
            self.fused_timesteps,
            self.ghost_bytes_sent(),
            self.ghost_bytes_avoided(),
        )
    }
}

/// Stage the effective segments of every fused pair hoisted to `phase`
/// into its staging buffer (a strided gather per segment, the message as
/// it would ride the wire) and deliver them into the per-statement packed
/// operand buffers (a strided scatter per segment) — the workspace
/// executors' exchange leg. Returns the elements staged.
fn stage_phase(
    plan: &ProgramPlan,
    arrays: &[DistArray<f64>],
    state: &FusedState,
    ws: &mut FusedWorkspace,
    phase: usize,
) -> u64 {
    let mut staged_total = 0u64;
    for (k, pair) in plan.pairs.iter().enumerate() {
        if pair.pack_phase != phase || state.pair_eff[k] == 0 {
            continue;
        }
        let segs = state.eff_segments(k);
        let stage = &mut ws.stage[k];
        let mut off = 0usize;
        for &i in segs {
            let seg = &pair.segments[i as usize];
            let shard = arrays[seg.array].local(pair.sender as usize);
            copy_strided(stage, (off, 1), shard, (seg.src_off, seg.src_stride), seg.len);
            off += seg.len;
        }
        staged_total += off as u64;
        let mut off = 0usize;
        for &i in segs {
            let seg = &pair.segments[i as usize];
            let buf = &mut ws.per_stmt[seg.stmt].bufs[pair.receiver as usize][seg.term];
            copy_strided(buf, (seg.dst_off, seg.dst_stride), stage, (off, 1), seg.len);
            off += seg.len;
        }
    }
    staged_total
}

/// One whole timestep over one address space — the `SharedMem` backend's
/// executor: per phase, snapshot the staged local runs of the superstep's
/// statements, deliver the effective segments of every pair hoisted to the
/// phase, then compute the superstep's statements in program order —
/// direct operands are read in place from the shards (see
/// [`crate::plan`]). Stage and compute spread over at most `threads`
/// scoped threads, chunked by processor; `threads <= 1` runs everything
/// inline and a warm call then performs zero heap allocations. The
/// exchange leg stays serial — it is exactly the leg clean-unit skipping
/// shrinks. Returns the elements staged (the timestep's wire traffic).
pub(crate) fn execute_fused(
    plan: &ProgramPlan,
    arrays: &mut [DistArray<f64>],
    state: &FusedState,
    ws: &mut FusedWorkspace,
    threads: usize,
) -> u64 {
    assert!(plan.is_valid_for(arrays), "stale fused plan: an involved array was remapped");
    ws.ensure(plan);
    ws.rank_ns.fill(0);
    let np = plan.np().max(1);
    let chunk = np.div_ceil(threads.clamp(1, np));
    let mut staged_total = 0u64;
    for phase in 0..plan.supersteps.len() {
        for &s in &plan.supersteps[phase].stmts {
            plan.plans[s].stage(arrays, &mut ws.per_stmt[s].bufs, chunk);
        }
        staged_total += stage_phase(plan, arrays, state, ws, phase);
        for &s in &plan.supersteps[phase].stmts {
            plan.plans[s].compute(arrays, &ws.per_stmt[s].bufs, chunk, &mut ws.rank_ns);
        }
    }
    staged_total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::{Combine, Term};
    use hpf_core::{DataSpace, DistributeSpec, FormatSpec};
    use hpf_index::{span, triplet, IndexDomain, Section};

    fn arrays_1d(n: usize, np: usize, fmts: &[FormatSpec]) -> Vec<DistArray<f64>> {
        let mut ds = DataSpace::new(np);
        let mut out = Vec::new();
        for (k, f) in fmts.iter().enumerate() {
            let name = format!("A{k}");
            let id = ds.declare(&name, IndexDomain::of_shape(&[n]).unwrap()).unwrap();
            ds.distribute(id, &DistributeSpec::new(vec![f.clone()])).unwrap();
            out.push(DistArray::from_fn(&name, ds.effective(id).unwrap(), np, |i| {
                (i[0] * (k as i64 + 2)) as f64
            }));
        }
        out
    }

    fn compile(arrays: &[DistArray<f64>], stmts: &[Assignment]) -> ProgramPlan {
        let plans = stmts
            .iter()
            .map(|s| Arc::new(ExecPlan::inspect(arrays, s).unwrap()))
            .collect();
        ProgramPlan::compile(stmts, plans, true)
    }

    #[test]
    fn independent_statements_fuse_into_one_superstep() {
        let n = 32i64;
        let arrays =
            arrays_1d(32, 4, &[FormatSpec::Block, FormatSpec::Block, FormatSpec::Cyclic(1)]);
        let doms: Vec<&IndexDomain> = arrays.iter().map(|a| a.domain()).collect();
        // A0 and A1 both read the cyclic A2: independent at array level
        let mk = |lhs: usize| {
            Assignment::new(
                lhs,
                Section::from_triplets(vec![span(1, n)]),
                vec![Term::new(2, Section::from_triplets(vec![span(1, n)]))],
                Combine::Copy,
                &doms,
            )
            .unwrap()
        };
        let stmts = vec![mk(0), mk(1)];
        let plan = compile(&arrays, &stmts);
        assert_eq!(plan.supersteps().len(), 1);
        assert_eq!(plan.supersteps()[0].stmts, vec![0, 1]);
        // both statements' pairs coalesce: strictly fewer fused messages
        assert!(plan.messages_after() < plan.messages_before());
        // A2 is never written → every unit is clean in steady state
        assert!(plan.segments().all(|(_, s)| !s.intra_dirty && !s.post_dirty));
        assert!(plan.pairs().iter().all(|p| p.pack_phase == 0));
    }

    #[test]
    fn raw_dependence_forces_a_later_superstep() {
        let n = 32i64;
        let arrays = arrays_1d(32, 4, &[FormatSpec::Block, FormatSpec::Block]);
        let doms: Vec<&IndexDomain> = arrays.iter().map(|a| a.domain()).collect();
        let s0 = Assignment::new(
            0,
            Section::from_triplets(vec![span(2, n)]),
            vec![Term::new(1, Section::from_triplets(vec![span(1, n - 1)]))],
            Combine::Copy,
            &doms,
        )
        .unwrap();
        // reads A0, which s0 writes → RAW → superstep 1
        let s1 = Assignment::new(
            1,
            Section::from_triplets(vec![span(2, n)]),
            vec![Term::new(0, Section::from_triplets(vec![span(1, n - 1)]))],
            Combine::Copy,
            &doms,
        )
        .unwrap();
        let plan = compile(&arrays, &[s0, s1]);
        assert_eq!(plan.supersteps().len(), 2);
        assert_eq!(plan.supersteps()[0].stmts, vec![0]);
        assert_eq!(plan.supersteps()[1].stmts, vec![1]);
        // s1's ghost units read A0 data that s0 rewrites *earlier in the
        // same timestep*: the pack phase is hoisted past the write and the
        // unit re-sends every timestep (intra). The write precedes the
        // pack, so the staged copy is current at timestep end — no
        // post-dirty carryover is needed on top.
        for pair in plan.pairs().iter().filter(|p| p.superstep == 1) {
            assert_eq!(pair.pack_phase, 1, "{} → {}", pair.sender, pair.receiver);
        }
        for (_, seg) in plan.segments().filter(|(p, _)| p.superstep == 1) {
            assert!(seg.intra_dirty, "rewritten before its pack phase → intra");
            assert!(!seg.post_dirty, "packed after the write → current at timestep end");
        }
    }

    #[test]
    fn red_black_boundary_units_stay_clean() {
        // the red/black sweeps under CYCLIC(1): interior ghosts are
        // rewritten by the opposite sweep every timestep, but the
        // boundary elements U(0) and U(n+1) are never written — their
        // units must be statically clean (post_dirty = false)
        let n = 31i64;
        let np = 4usize;
        let mut ds = DataSpace::new(np);
        let u = ds.declare("U", IndexDomain::standard(&[(0, n + 1)]).unwrap()).unwrap();
        ds.distribute(u, &DistributeSpec::new(vec![FormatSpec::Cyclic(1)])).unwrap();
        let arrays =
            vec![DistArray::from_fn("U", ds.effective(u).unwrap(), np, |i| i[0] as f64)];
        let doms: Vec<&IndexDomain> = arrays.iter().map(|a| a.domain()).collect();
        let red = Assignment::new(
            0,
            Section::from_triplets(vec![triplet(2, n, 2)]),
            vec![
                Term::new(0, Section::from_triplets(vec![triplet(1, n - 1, 2)])),
                Term::new(0, Section::from_triplets(vec![triplet(3, n + 1, 2)])),
            ],
            Combine::Average,
            &doms,
        )
        .unwrap();
        let black = Assignment::new(
            0,
            Section::from_triplets(vec![triplet(1, n, 2)]),
            vec![
                Term::new(0, Section::from_triplets(vec![triplet(0, n - 1, 2)])),
                Term::new(0, Section::from_triplets(vec![triplet(2, n + 1, 2)])),
            ],
            Combine::Average,
            &doms,
        )
        .unwrap();
        let plan = compile(&arrays, &[red, black]);
        assert_eq!(plan.supersteps().len(), 2, "black reads what red writes");
        let clean: Vec<&FusedSegment> = plan
            .segments()
            .map(|(_, s)| s)
            .filter(|s| !s.post_dirty && !s.intra_dirty)
            .collect();
        // exactly the units sourcing the never-written boundary elements
        assert!(!clean.is_empty(), "U(0)/U(n+1) ghost units must be clean");
        let total_clean: usize = clean.iter().map(|u| u.len).sum();
        assert_eq!(total_clean, 2, "one element each for U(0) and U(n+1)");
    }

    #[test]
    fn interval_helpers() {
        let merged = merge_intervals(vec![(5, 8), (0, 2), (2, 4), (7, 10)]);
        assert_eq!(merged, vec![(0, 4), (5, 10)]);
        let hits = |off, stride, len| hit_ranges(&merged, off, stride, len).collect::<Vec<_>>();
        // contiguous progressions: plain interval overlap
        assert_eq!(hits(3, 1, 2), [(0, 1)]);
        assert_eq!(hits(4, 1, 1), []);
        assert_eq!(hits(3, 1, 4), [(0, 1), (2, 4)]);
        assert_eq!(hits(9, 1, 11), [(0, 1)]);
        assert_eq!(hits(10, 1, 10), []);
        // strided: 4 falls in the gap, and hits in touching ranges merge
        assert_eq!(hits(1, 3, 4), [(0, 1), (2, 3)], "1 ✓, 4 ✗, 7 ✓, 10 ✗");
        assert_eq!(hits(3, 2, 4), [(0, 4)], "3 | 5 7 9 span both intervals, no gap between");
        assert_eq!(hits(4, 6, 3), [], "4, 10, 16 all fall between or beyond");
        assert_eq!(hits(0, 1, 0), []);
    }
}
