//! Compiled execution plans — the **inspector** half of an
//! inspector–executor runtime.
//!
//! The paper's central payoff is that distribution/alignment information
//! makes communication sets *statically computable* (§1, §8.1.1). This
//! module exploits that at execution time the way HPF-descended runtimes
//! do: an [`ExecPlan`] is inspected **once** from an [`Assignment`] and the
//! arrays' [`EffectiveDist`] mappings, and then replayed every timestep.
//!
//! Schedules are lists of **strided runs**. The paper's owner and
//! communication sets are closed-form regular sections: the elements one
//! processor reads from one peer form arithmetic progressions both in the
//! peer's local buffer and in the reader's element order — contiguous
//! stretches between block mappings, stride-`np` triplets between a
//! `BLOCK` and a `CYCLIC` array. Instead of one `(src, offset)` entry per
//! element, a plan stores:
//!
//! * per RHS term, a list of [`CopyRun`]s — `len` elements of one source
//!   processor's buffer at `src_off + i·src_stride`, landing at positions
//!   `dst_off + i·dst_stride` of the packed operand buffer (remote runs
//!   are exactly the statement's SUPERB-style ghost blocks, the paper's
//!   reference \[11\] — the one place a reference's communication set is
//!   recorded; [`ExecPlan::inspect`] tallies them per processor pair once,
//!   to assert they are the region-algebraic [`CommAnalysis`] pair for
//!   pair). Both strides 1 is the contiguous run; the
//!   inspector grows maximal progressions *online*, one open run per
//!   source processor, so `A(1:N) = B(1:N)` with `A` `BLOCK` and `B`
//!   `CYCLIC` costs a run per processor pair, never a run per element.
//!   The **invariant** is that a term's `dst` progressions *partition*
//!   `0..elements` (every position filled exactly once); runs are stored
//!   by ascending `dst_off`, but progressions from different sources
//!   interleave, so they do not tile the element order contiguously; and
//! * for the LHS, a list of [`StoreRun`]s — contiguous slices of the
//!   owner's local buffer that receive consecutive computed elements
//!   (`pos` ranges do tile `0..volume` in order; a strided LHS section
//!   degrades to short store runs).
//!
//! A replay therefore moves data with one strided gather/scatter per run
//! ([`copy_strided`], a `copy_from_slice` block transfer when both strides
//! are 1) and combines operands with single-pass slice kernels specialized
//! by `(Combine, term count)`, instead of per-element indexed loads.
//!
//! ## What is staged and what is read in place
//!
//! Which references are local is known statically from an array's own
//! distribution — the point of the paper's model — so a replay does not
//! copy local operands anywhere. Each [`ProcPlan`] carries a
//! **compute-piece table** ([`ProcPlan::pieces`]): its store runs refined
//! at the boundaries of every run read in place. A piece names, per term,
//! either an offset into the processor's **own shard** (read in place by
//! the kernel) or its position in the term's **packed operand buffer**.
//! A replay is then stage → exchange → compute:
//!
//! * **stage** ([`pack_staged_runs`]) snapshots the *staged* local runs
//!   only — every local run of a staged term, and the strided local runs
//!   of a direct one;
//! * **exchange** delivers every remote run (the ghost data) into the
//!   packed buffers at its `dst_off`. The remote runs *are* the exchange
//!   schedule: a [`ProgramPlan`](crate::ProgramPlan) buckets them by
//!   `(superstep, sender, receiver)` into the messages the backends pack
//!   and send, and nothing in between writes them down again;
//! * **compute** ([`compute_pieces`]) walks the pieces once, reading
//!   direct operands from the shard and ghost/staged operands from the
//!   packed buffers.
//!
//! A term is direct ([`TermSchedule::direct`]) iff both hold:
//!
//! * its array is **not the statement's LHS**. Fortran 90 array
//!   assignment reads every operand before any store, so a shifted
//!   self-reference such as `A(2:N) = A(1:N-1)` must read a snapshot taken
//!   before the kernel overwrites the shard — the staged pack *is* that
//!   snapshot. Any other array is not written by this statement, and the
//!   executors compute a superstep's statements in program order, so an
//!   in-place read sees exactly the values the pack would have copied;
//! * its **unit-stride** local runs (both strides 1) average at least
//!   [`DIRECT_MIN_RUN`] elements. Only a unit-stride run is a slice the
//!   kernel can read in place; refining the store runs at many short ones
//!   would turn one long vectorized kernel call into a table walk, which
//!   is slower and larger than the block-copy pack it replaces.
//!
//! A **strided local run stays staged**, in a direct term too: its
//! elements are scattered over the element order (a BLOCK↔CYCLIC
//! reference interleaves them with the ghosts of every other processor),
//! so reading it in place would need a piece per element. One strided
//! scatter into the packed buffer turns it into the contiguous operand
//! the kernels want; a term whose local runs are all strided is simply
//! not direct.
//!
//! Both are properties of the compiled schedule, identical for every
//! executor, and [`crate::verify::verify_plan`] proves them. Reading in
//! place makes the kernel's speed depend on where the shards of different
//! arrays sit relative to each other within the 4 KiB page; the storage
//! fixes that position per array (see `Shard` in `array.rs`), so a replay
//! costs the same whatever the allocator did before it. With a
//! reusable [`PlanWorkspace`](crate::PlanWorkspace) holding the packed
//! operand buffers, a warm replay performs **zero heap allocations**. The
//! frozen [`CommAnalysis`] rides along, so replays also skip the
//! region-algebraic analysis.
//!
//! [`EffectiveDist`]: hpf_core::EffectiveDist

use crate::array::{DistArray, Shard};
use crate::assign::{Assignment, Combine};
use crate::commsets::{comm_analysis, project_region, CommAnalysis};
use hpf_core::{HpfError, MappingId};
use hpf_index::IndexDomain;
use hpf_procs::ProcId;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One gather source: which processor's local buffer to read, and where.
///
/// This is the *uncompressed* schedule element. Plans store [`CopyRun`]s
/// instead; [`TermSchedule::iter_refs`] expands a compressed schedule back
/// into this per-element form (tests assert the expansion is exact, and
/// [`ExecPlan::execute_seq_uncompressed`] replays through it as the
/// benchmark reference).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatherRef {
    /// Zero-based source processor.
    pub src: u32,
    /// Flat offset into the source processor's local buffer.
    pub offset: usize,
}

/// A strided gather run — the one schedule entry: `len` elements of one
/// source processor's local buffer at `src_off + i·src_stride`, copied to
/// positions `dst_off + i·dst_stride` of the packed operand buffer
/// (`i < len`). Both strides 1 is the contiguous run, moved with a single
/// `copy_from_slice`. Strides are at least 1; a one-element run carries
/// strides 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopyRun {
    /// Zero-based source processor.
    pub src: u32,
    /// First flat offset into the source processor's local buffer.
    pub src_off: usize,
    /// Distance between consecutive source offsets.
    pub src_stride: usize,
    /// First position in the packed operand buffer (element order).
    pub dst_off: usize,
    /// Distance between consecutive packed positions.
    pub dst_stride: usize,
    /// Number of elements moved.
    pub len: usize,
}

impl CopyRun {
    /// True iff the run is contiguous on both sides — a slice the kernel
    /// can read in place.
    pub fn is_unit(&self) -> bool {
        self.src_stride == 1 && self.dst_stride == 1
    }
}

/// One past the largest offset of the progression `off + i·stride`,
/// `i < len` (`off` itself when empty) — what a bounds check compares with
/// the buffer extent. Saturates instead of overflowing, so a corrupted
/// schedule entry is reported as out of bounds rather than wrapping into
/// range.
pub(crate) fn span_end(off: usize, stride: usize, len: usize) -> usize {
    match len.checked_sub(1) {
        None => off,
        Some(steps) => off.saturating_add(steps.saturating_mul(stride)).saturating_add(1),
    }
}

/// `dst[dst_off + i·dst_stride] = src[src_off + i·src_stride]` for
/// `i < len` — the strided gather/scatter every run, message segment and
/// fused segment is moved with. Contiguous on both sides it is one
/// `copy_from_slice`.
///
/// # Panics
/// Panics if either progression leaves its slice, or a stride is 0 on a
/// run longer than one element.
#[inline]
pub(crate) fn copy_strided(
    dst: &mut [f64],
    (dst_off, dst_stride): (usize, usize),
    src: &[f64],
    (src_off, src_stride): (usize, usize),
    len: usize,
) {
    // exact extents: a progression that leaves its buffer panics here
    // instead of being cut short by the zip below
    let dst = &mut dst[dst_off..span_end(dst_off, dst_stride, len)];
    let src = &src[src_off..span_end(src_off, src_stride, len)];
    if dst_stride == 1 && src_stride == 1 {
        dst.copy_from_slice(src);
    } else {
        for (d, s) in dst.iter_mut().step_by(dst_stride).zip(src.iter().step_by(src_stride)) {
            *d = *s;
        }
    }
}

/// A run-length compressed store: `len` consecutive computed elements
/// (packed-buffer positions `pos..pos+len`) written to a contiguous slice
/// of the LHS owner's local buffer starting at `dst_off`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreRun {
    /// Starting element position in the packed operand buffers.
    pub pos: usize,
    /// Starting flat offset into the LHS local buffer.
    pub dst_off: usize,
    /// Number of consecutive elements stored.
    pub len: usize,
}

/// Minimum average length, in elements, of a term's unit-stride local
/// runs for them to be read in place (see the module docs for why short
/// runs stay staged).
pub const DIRECT_MIN_RUN: usize = 32;

/// Where one compute piece reads one term's operand from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PieceSrc {
    /// The term's packed operand buffer, at the piece's own `pos` — ghost
    /// data delivered by the exchange, or a staged term's snapshot.
    Packed,
    /// The processor's own shard of the term's array, starting at this
    /// flat offset — read in place.
    Own(usize),
}

/// The gather schedule of one processor for one RHS term.
#[derive(Debug, Clone)]
pub struct TermSchedule {
    /// Index of the operand array.
    pub array: usize,
    /// Strided gather runs by ascending `dst_off`; their `dst`
    /// progressions partition `0..elements` (every position filled exactly
    /// once).
    pub runs: Vec<CopyRun>,
    /// Total elements gathered (the processor's computed volume).
    pub elements: usize,
    /// How many of the gathered elements are remote — the term's ghost
    /// volume on this processor.
    pub ghost_elements: usize,
    /// True iff the kernel reads this term's unit-stride local runs in
    /// place from the processor's own shard (they are then never packed);
    /// false iff every local run is staged into the packed operand buffer
    /// first. Strided local runs are staged either way.
    pub direct: bool,
}

impl TermSchedule {
    /// Expand the runs into the exact per-element `(src, offset)` sequence
    /// an uncompressed schedule would hold, in element order.
    pub fn iter_refs(&self) -> impl Iterator<Item = GatherRef> + '_ {
        let mut refs = vec![GatherRef { src: 0, offset: 0 }; self.elements];
        for r in &self.runs {
            for i in 0..r.len {
                refs[r.dst_off + i * r.dst_stride] =
                    GatherRef { src: r.src, offset: r.src_off + i * r.src_stride };
            }
        }
        refs.into_iter()
    }

    /// True iff the kernel of processor `me` (zero-based) reads `run` in
    /// place from its own shard: a unit-stride local run of a direct term.
    pub(crate) fn in_place(&self, run: &CopyRun, me: u32) -> bool {
        self.direct && run.src == me && run.is_unit()
    }

    /// True iff the stage phase of processor `me` snapshots `run` into the
    /// packed operand buffer: a local run the kernel does not read in
    /// place.
    pub(crate) fn staged(&self, run: &CopyRun, me: u32) -> bool {
        run.src == me && !self.in_place(run, me)
    }
}

/// Everything one processor must do to execute the statement: which LHS
/// slices it fills and where each operand block comes from.
#[derive(Debug, Clone)]
pub struct ProcPlan {
    /// The processor.
    pub proc: ProcId,
    /// Number of elements this processor computes.
    pub volume: usize,
    /// Compressed store runs into the LHS local buffer (`pos` ranges tile
    /// `0..volume` in order).
    pub lhs_runs: Vec<StoreRun>,
    /// Per-term gather schedules (parallel to the statement's terms).
    pub terms: Vec<TermSchedule>,
    /// The compute-piece table: `lhs_runs` refined at the boundaries of
    /// every run read in place, so each piece reads each operand from one
    /// contiguous source. Empty iff no term is direct — the kernel then
    /// walks `lhs_runs` with every operand packed.
    pub pieces: Vec<StoreRun>,
    /// Operand sources, piece-major: entry `i * terms.len() + t` is where
    /// piece `i` reads term `t`.
    pub piece_srcs: Vec<PieceSrc>,
}

impl ProcPlan {
    /// The pieces the compute kernel walks: the refined table when some
    /// term is direct, otherwise the store runs themselves.
    pub(crate) fn effective_pieces(&self) -> &[StoreRun] {
        if self.pieces.is_empty() {
            &self.lhs_runs
        } else {
            &self.pieces
        }
    }

    /// Where piece `i` of [`ProcPlan::effective_pieces`] reads term `t`.
    pub(crate) fn piece_src(&self, i: usize, t: usize) -> PieceSrc {
        if self.pieces.is_empty() {
            PieceSrc::Packed
        } else {
            self.piece_srcs[i * self.terms.len() + t]
        }
    }

    /// Refine `lhs_runs` at the boundaries of every run read in place into
    /// the compute-piece table (both stay empty when no term is direct).
    /// Packed positions need no cut: whatever run filled them, the packed
    /// buffer is contiguous in element order.
    fn build_pieces(&mut self) {
        if !self.terms.iter().any(|ts| ts.direct) {
            return;
        }
        let me = self.proc.zero_based() as u32;
        let mut cuts: Vec<usize> = self.lhs_runs.iter().map(|r| r.pos).collect();
        for ts in &self.terms {
            for r in ts.runs.iter().filter(|r| ts.in_place(r, me)) {
                cuts.extend([r.dst_off, r.dst_off + r.len]);
            }
        }
        cuts.push(self.volume);
        cuts.sort_unstable();
        cuts.dedup();
        // store runs tile 0..volume in order and every term's runs are
        // sorted by `dst_off`, so one forward cursor each finds the store
        // run and the in-place run (if any) covering a piece
        let mut store = 0usize;
        let mut cursors = vec![0usize; self.terms.len()];
        for w in cuts.windows(2) {
            let (pos, len) = (w[0], w[1] - w[0]);
            while self.lhs_runs[store].pos + self.lhs_runs[store].len <= pos {
                store += 1;
            }
            let sr = self.lhs_runs[store];
            self.pieces.push(StoreRun { pos, dst_off: sr.dst_off + (pos - sr.pos), len });
            for (ts, cur) in self.terms.iter().zip(cursors.iter_mut()) {
                while ts
                    .runs
                    .get(*cur)
                    .is_some_and(|r| !ts.in_place(r, me) || r.dst_off + r.len <= pos)
                {
                    *cur += 1;
                }
                self.piece_srcs.push(match ts.runs.get(*cur) {
                    Some(r) if r.dst_off <= pos => PieceSrc::Own(r.src_off + (pos - r.dst_off)),
                    _ => PieceSrc::Packed,
                });
            }
        }
    }

    /// Total ghost elements this processor receives across all terms.
    pub fn ghost_elements(&self) -> usize {
        self.terms.iter().map(|t| t.ghost_elements).sum()
    }

    /// The remote gather runs — the ghost blocks other processors ship to
    /// this one — as `(term index, term schedule, run)`, terms in order and
    /// each term's runs in schedule order. The one record of what the
    /// statement exchanges.
    pub fn remote_runs(&self) -> impl Iterator<Item = (usize, &TermSchedule, &CopyRun)> + '_ {
        let me = self.proc.zero_based() as u32;
        self.terms.iter().enumerate().flat_map(move |(t, ts)| {
            ts.runs.iter().filter(move |r| r.src != me).map(move |r| (t, ts, r))
        })
    }

    /// Expand the compressed store runs into the per-element flat LHS
    /// offset sequence an uncompressed schedule would hold.
    pub fn iter_lhs_offsets(&self) -> impl Iterator<Item = usize> + '_ {
        self.lhs_runs.iter().flat_map(|r| (0..r.len).map(move |i| r.dst_off + i))
    }
}

/// How a plan's remote gather runs relate to the statement's frozen
/// region-algebraic [`CommAnalysis`] — the two are computed independently
/// (per-element gather enumeration vs. region algebra), so their agreement
/// is a meaningful cross-check, and their *disagreement* has two very
/// different causes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum AnalysisVerdict {
    /// The schedules match the analysis pair for pair — the strict
    /// contract that holds whenever every involved mapping partitions its
    /// array.
    #[default]
    Exact,
    /// An involved mapping replicates, so the comparison is inapplicable
    /// *by design*: the analysis models first-owner-computes plus a
    /// result broadcast, while execution has every replica compute its
    /// own copy (no broadcast ever rides the wire). Expected, documented
    /// divergence — not a schedule bug.
    ReplicatedDivergence,
    /// All mappings partition yet the schedules still disagree with the
    /// analysis — a genuine schedule or analysis bug.
    /// [`ExecPlan::inspect`] refuses to freeze such a plan.
    Divergent,
}

impl std::fmt::Display for AnalysisVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalysisVerdict::Exact => write!(f, "exact"),
            AnalysisVerdict::ReplicatedDivergence => write!(f, "replicated-divergence"),
            AnalysisVerdict::Divergent => write!(f, "divergent"),
        }
    }
}

/// A compiled execution plan for one assignment under fixed mappings.
///
/// Built by [`ExecPlan::inspect`]; executed as a constituent of a
/// [`ProgramPlan`](crate::ProgramPlan) through
/// [`ExchangeBackend::step`](crate::ExchangeBackend::step) (a single
/// statement is the one-superstep program plan). A plan is bound to the
/// exact `Arc<EffectiveDist>` allocations it was inspected from (see
/// [`MappingId`]); [`ExecPlan::is_valid_for`] checks that binding, and the
/// backends assert it, so a remapped array can never be driven through a
/// stale schedule.
///
/// [`EffectiveDist`]: hpf_core::EffectiveDist
#[derive(Debug, Clone)]
pub struct ExecPlan {
    lhs: usize,
    combine: Combine,
    per_proc: Vec<ProcPlan>,
    analysis: Arc<CommAnalysis>,
    /// Communicating `(sender, receiver)` pairs among the remote runs.
    messages: usize,
    /// How the remote runs relate to `analysis`, decided at inspect time.
    verdict: AnalysisVerdict,
    /// Identity of every involved array's mapping at inspection time.
    mappings: Vec<(usize, MappingId)>,
}

impl ExecPlan {
    /// Inspect `stmt` over `arrays`: validate conformance, lower the
    /// owner-computes iteration into per-processor store runs and strided
    /// gather runs (grown online — the per-element list is never
    /// materialised), and freeze the exact communication analysis.
    pub fn inspect(
        arrays: &[DistArray<f64>],
        stmt: &Assignment,
    ) -> Result<ExecPlan, HpfError> {
        let domains: Vec<&IndexDomain> = arrays.iter().map(|a| a.domain()).collect();
        stmt.validate(&domains)?;
        let np = arrays[stmt.lhs].np();

        let mut per_proc = Vec::with_capacity(np);
        // one open run per source processor (`len == 0`: none open)
        let closed =
            CopyRun { src: 0, src_off: 0, src_stride: 1, dst_off: 0, dst_stride: 1, len: 0 };
        let mut open = vec![closed; np];
        for p in (1..=np as u32).map(ProcId) {
            let lhs_arr = &arrays[stmt.lhs];
            // the section-relative positions this processor computes
            let positions = project_region(lhs_arr.region_of(p), &stmt.lhs_section);
            let volume = positions.volume_disjoint();
            let mut lhs_runs: Vec<StoreRun> = Vec::new();
            for (pos, rel) in positions.iter().enumerate() {
                let gi = stmt.lhs_index(&rel);
                let off =
                    lhs_arr.local_offset(p, &gi).expect("owner holds its region");
                match lhs_runs.last_mut() {
                    Some(r) if r.dst_off + r.len == off => r.len += 1,
                    _ => lhs_runs.push(StoreRun { pos, dst_off: off, len: 1 }),
                }
            }
            let me = p.zero_based() as u32;
            let mut terms = Vec::with_capacity(stmt.terms.len());
            for (t, term) in stmt.terms.iter().enumerate() {
                let src_arr = &arrays[term.array];
                let mut runs: Vec<CopyRun> = Vec::new();
                let mut ghost_elements = 0usize;
                for (k, rel) in positions.iter().enumerate() {
                    let ri = stmt.rhs_index(t, &rel);
                    // prefer the processor's own copy (replication makes
                    // ownership non-exclusive); otherwise gather from the
                    // first owner — a ghost element
                    let (src, offset) = match src_arr.local_offset(p, &ri) {
                        Some(offset) => (p, offset),
                        None => {
                            ghost_elements += 1;
                            let owner = src_arr.mapping().owner(&ri);
                            let offset = src_arr
                                .local_offset(owner, &ri)
                                .expect("owner holds its region");
                            (owner, offset)
                        }
                    };
                    // grow the source processor's open progression, or
                    // close it and open the next: the second element of a
                    // run fixes its strides, every later one must continue
                    // both progressions
                    let r = &mut open[src.zero_based()];
                    if r.len == 1 && offset > r.src_off {
                        r.src_stride = offset - r.src_off;
                        r.dst_stride = k - r.dst_off;
                        r.len = 2;
                    } else if r.len > 1
                        && offset == r.src_off + r.len * r.src_stride
                        && k == r.dst_off + r.len * r.dst_stride
                    {
                        r.len += 1;
                    } else {
                        if r.len > 0 {
                            runs.push(*r);
                        }
                        *r = CopyRun {
                            src: src.zero_based() as u32,
                            src_off: offset,
                            src_stride: 1,
                            dst_off: k,
                            dst_stride: 1,
                            len: 1,
                        };
                    }
                }
                for r in open.iter_mut().filter(|r| r.len > 0) {
                    runs.push(*r);
                    r.len = 0;
                }
                runs.sort_unstable_by_key(|r| r.dst_off);
                let (unit_runs, unit_elements) = runs
                    .iter()
                    .filter(|r| r.src == me && r.is_unit())
                    .fold((0usize, 0usize), |(n, e), r| (n + 1, e + r.len));
                let direct = term.array != stmt.lhs
                    && unit_runs > 0
                    && unit_elements >= DIRECT_MIN_RUN * unit_runs;
                terms.push(TermSchedule {
                    array: term.array,
                    runs,
                    elements: volume,
                    ghost_elements,
                    direct,
                });
            }
            let mut pp = ProcPlan {
                proc: p,
                volume,
                lhs_runs,
                terms,
                pieces: Vec::new(),
                piece_srcs: Vec::new(),
            };
            pp.build_pieces();
            per_proc.push(pp);
        }

        let maps: Vec<Arc<hpf_core::EffectiveDist>> =
            arrays.iter().map(|a| a.mapping().clone()).collect();
        let analysis = Arc::new(comm_analysis(&maps, np, stmt));
        // The real wire cross-check: the remote runs come from per-element
        // gather enumeration, the analysis from region algebra — two
        // independent computations of the same communication sets. For
        // partitioning mappings they must agree pair for pair; a
        // divergence is a schedule bug, caught here before anything
        // executes. (Replication legitimately differs — an expected
        // `AnalysisVerdict::ReplicatedDivergence`, never `Divergent`.)
        let mut wire: BTreeMap<(u32, u32), u64> = BTreeMap::new();
        for pp in &per_proc {
            let me = pp.proc.zero_based() as u32;
            for (_, _, r) in pp.remote_runs() {
                *wire.entry((r.src, me)).or_default() += r.len as u64;
            }
        }
        let exact = analysis.comm.messages() == wire.len()
            && analysis.comm.total_elements() == wire.values().sum::<u64>()
            && wire.iter().all(|(&(sender, receiver), &n)| {
                analysis.comm.elements_between(ProcId(sender + 1), ProcId(receiver + 1)) == n
            });
        let verdict = if exact {
            AnalysisVerdict::Exact
        } else if analysis.region_exact {
            AnalysisVerdict::Divergent
        } else {
            AnalysisVerdict::ReplicatedDivergence
        };
        assert!(
            verdict != AnalysisVerdict::Divergent,
            "gather runs diverge from the region-algebraic analysis"
        );

        let mut involved = vec![stmt.lhs];
        involved.extend(stmt.terms.iter().map(|t| t.array));
        involved.sort_unstable();
        involved.dedup();
        let mappings = involved
            .into_iter()
            .map(|k| (k, MappingId::of(arrays[k].mapping())))
            .collect();

        Ok(ExecPlan {
            lhs: stmt.lhs,
            combine: stmt.combine,
            per_proc,
            analysis,
            messages: wire.len(),
            verdict,
            mappings,
        })
    }

    /// The frozen communication analysis of the statement.
    pub fn analysis(&self) -> &CommAnalysis {
        &self.analysis
    }

    /// The frozen analysis as a shared handle (cloning it is a refcount
    /// bump, not a heap allocation — what the zero-allocation replay path
    /// returns to callers).
    pub fn shared_analysis(&self) -> Arc<CommAnalysis> {
        self.analysis.clone()
    }

    /// The per-processor schedules.
    pub fn per_proc(&self) -> &[ProcPlan] {
        &self.per_proc
    }

    /// Index of the LHS array.
    pub fn lhs(&self) -> usize {
        self.lhs
    }

    /// How the computed operand values combine.
    pub fn combine(&self) -> Combine {
        self.combine
    }

    /// Communicating `(sender, receiver)` pairs: the vectorized messages a
    /// replay of this statement alone exchanges.
    pub fn messages(&self) -> usize {
        self.messages
    }

    /// Total elements crossing processor boundaries per replay — every
    /// remote run rides the wire once, so this is the ghost volume.
    pub fn wire_elements(&self) -> u64 {
        self.ghost_elements() as u64
    }

    /// Total bytes crossing processor boundaries per replay.
    pub fn wire_bytes(&self) -> u64 {
        self.wire_elements() * std::mem::size_of::<f64>() as u64
    }

    /// How the remote runs relate to the frozen analysis — exact match
    /// pair for pair, or the expected replication divergence
    /// ([`ExecPlan::inspect`] refuses to freeze a `Divergent` plan).
    pub fn analysis_verdict(&self) -> AnalysisVerdict {
        self.verdict
    }

    /// Identity of every involved array's mapping at inspection time.
    pub fn mappings(&self) -> &[(usize, MappingId)] {
        &self.mappings
    }

    /// Mutable per-processor schedules.
    ///
    /// Only for mutation tests that corrupt a frozen schedule to prove
    /// [`verify_plan`](crate::verify::verify_plan) catches it — never
    /// mutate a plan that will execute.
    #[doc(hidden)]
    pub fn per_proc_mut(&mut self) -> &mut Vec<ProcPlan> {
        &mut self.per_proc
    }

    /// Total ghost elements exchanged per replay, over all processors.
    pub fn ghost_elements(&self) -> usize {
        self.per_proc.iter().map(ProcPlan::ghost_elements).sum()
    }

    /// Number of runs in the schedule (store runs + strided copy runs,
    /// over all processors and terms).
    pub fn schedule_runs(&self) -> usize {
        self.per_proc
            .iter()
            .map(|pp| {
                pp.lhs_runs.len()
                    + pp.terms.iter().map(|t| t.runs.len()).sum::<usize>()
            })
            .sum()
    }

    /// Number of element entries an uncompressed schedule would hold (one
    /// LHS offset per computed element plus one gather ref per element
    /// read).
    pub fn schedule_elements(&self) -> usize {
        self.per_proc
            .iter()
            .map(|pp| pp.volume + pp.terms.iter().map(|t| t.elements).sum::<usize>())
            .sum()
    }

    /// Memory held by the schedule entries (store runs, copy runs, and
    /// the compute-piece table), in bytes.
    pub fn schedule_bytes(&self) -> usize {
        self.per_proc
            .iter()
            .map(|pp| {
                (pp.lhs_runs.len() + pp.pieces.len()) * std::mem::size_of::<StoreRun>()
                    + pp.piece_srcs.len() * std::mem::size_of::<PieceSrc>()
                    + pp.terms
                        .iter()
                        .map(|t| t.runs.len() * std::mem::size_of::<CopyRun>())
                        .sum::<usize>()
            })
            .sum()
    }

    /// Memory the equivalent uncompressed per-element schedule would hold,
    /// in bytes — the denominator of the compression win.
    pub fn uncompressed_bytes(&self) -> usize {
        self.per_proc
            .iter()
            .map(|pp| {
                pp.volume * std::mem::size_of::<usize>()
                    + pp.terms
                        .iter()
                        .map(|t| t.elements * std::mem::size_of::<GatherRef>())
                        .sum::<usize>()
            })
            .sum()
    }

    /// Element entries per run — how much the strided-run representation
    /// collapsed the schedule (≫ 1 between block and `CYCLIC` mappings;
    /// near the block length for misaligned `CYCLIC(k)`; 1.0 = a run per
    /// element, e.g. reversed sections).
    pub fn compression_ratio(&self) -> f64 {
        let runs = self.schedule_runs();
        if runs == 0 {
            1.0
        } else {
            self.schedule_elements() as f64 / runs as f64
        }
    }

    /// True iff every involved array still carries the exact mapping
    /// allocation the plan was inspected from.
    pub fn is_valid_for(&self, arrays: &[DistArray<f64>]) -> bool {
        self.mappings
            .iter()
            .all(|(k, id)| arrays.get(*k).is_some_and(|a| id.is(a.mapping())))
    }

    /// Stage phase over every processor: snapshot the local runs of the
    /// staged terms into the packed operand buffers `bufs[p]` (reads only
    /// — Fortran 90 semantics even when the LHS appears on the RHS).
    /// `chunk` processors per thread; one chunk covering every processor
    /// runs inline, without a spawn.
    pub(crate) fn stage(
        &self,
        arrays: &[DistArray<f64>],
        bufs: &mut [Vec<Vec<f64>>],
        chunk: usize,
    ) {
        let stage = |pps: &[ProcPlan], bufss: &mut [Vec<Vec<f64>>]| {
            for (pp, bufs) in pps.iter().zip(bufss) {
                let p0 = pp.proc.zero_based();
                pack_staged_runs(pp, bufs, |k| arrays[k].local(p0));
            }
        };
        if chunk >= self.per_proc.len() {
            return stage(&self.per_proc, bufs);
        }
        std::thread::scope(|scope| {
            for (pps, bufss) in self.per_proc.chunks(chunk).zip(bufs.chunks_mut(chunk)) {
                scope.spawn(move || stage(pps, bufss));
            }
        });
    }

    /// Compute phase over every processor, from packed operand buffers
    /// `bufs[p]` already staged and exchanged: each processor's kernel
    /// writes its own LHS shard, reading direct operands in place from
    /// arrays the statement does not store to. The wall-nanoseconds each
    /// kernel took are *added* to the processor's slot of `rank_ns` — the
    /// adaptive controller's measured load sample. `chunk` processors per
    /// thread; one chunk covering every processor runs inline, without a
    /// spawn.
    pub(crate) fn compute(
        &self,
        arrays: &mut [DistArray<f64>],
        bufs: &[Vec<Vec<f64>>],
        chunk: usize,
        rank_ns: &mut [u64],
    ) {
        let combine = self.combine;
        // per_proc is ordered 1..=np, matching the local-buffer order
        let (lhs_arr, others) = split_lhs(arrays, self.lhs);
        let (_, locals) = lhs_arr.parts_mut();
        let compute = |pps: &[ProcPlan],
                       bufss: &[Vec<Vec<f64>>],
                       locs: &mut [Shard<f64>],
                       ns: &mut [u64]| {
            for (((pp, bufs), local), ns) in pps.iter().zip(bufss).zip(locs).zip(ns) {
                let p0 = pp.proc.zero_based();
                let t0 = std::time::Instant::now();
                compute_pieces(pp, combine, local, bufs, |k| others.local(k, p0));
                *ns += t0.elapsed().as_nanos() as u64;
            }
        };
        if chunk >= self.per_proc.len() {
            return compute(&self.per_proc, bufs, locals, rank_ns);
        }
        debug_assert!(
            crate::verify::workers_disjoint(&self.per_proc),
            "two workers drive the same processor: store sets would race"
        );
        std::thread::scope(|scope| {
            for (((pps, bufss), locs), ns) in self
                .per_proc
                .chunks(chunk)
                .zip(bufs.chunks(chunk))
                .zip(locals.chunks_mut(chunk))
                .zip(rank_ns.chunks_mut(chunk))
            {
                scope.spawn(move || compute(pps, bufss, locs, ns));
            }
        });
    }

    /// Replay through the *uncompressed* per-element schedule (expanding
    /// every run back into `(src, offset)` loads and per-element combine
    /// calls, with per-replay buffer allocation). Semantically identical
    /// to a replay of the compressed schedule; exists as the reference the
    /// `bench_gate` perf gate measures the compression win against
    /// (`stencil_2d_block_compress_speedup`) — never as a way to drive a
    /// program.
    ///
    /// # Panics
    /// Panics if the plan is stale for `arrays` (see
    /// [`ExecPlan::is_valid_for`]).
    pub fn execute_seq_uncompressed(&self, arrays: &mut [DistArray<f64>]) {
        assert!(self.is_valid_for(arrays), "stale plan: an involved array was remapped");
        let packed: Vec<Vec<Vec<f64>>> = self
            .per_proc
            .iter()
            .map(|pp| {
                pp.terms
                    .iter()
                    .map(|ts| {
                        let src_arr = &arrays[ts.array];
                        ts.iter_refs()
                            .map(|g| src_arr.local(g.src as usize)[g.offset])
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let (_, locals) = arrays[self.lhs].parts_mut();
        for (pp, bufs) in self.per_proc.iter().zip(&packed) {
            let local = &mut locals[pp.proc.zero_based()];
            let mut vals = vec![0.0f64; bufs.len()];
            for (k, off) in pp.iter_lhs_offsets().enumerate() {
                for (v, b) in vals.iter_mut().zip(bufs) {
                    *v = b[k];
                }
                local[off] = self.combine.apply(&vals);
            }
        }
    }
}

/// Read-only view of every array except the statement's LHS — what the
/// compute kernels read direct operands from while the LHS shards are
/// mutably borrowed. Direct terms never name the LHS array (see the
/// module docs), so the view has no need to reach it.
#[derive(Clone, Copy)]
struct Others<'a> {
    before: &'a [DistArray<f64>],
    after: &'a [DistArray<f64>],
}

impl<'a> Others<'a> {
    /// Processor `p0`'s (zero-based) shard of array `array`.
    ///
    /// # Panics
    /// Panics if `array` is the LHS array — a direct read of the array the
    /// statement stores to would bypass the snapshot.
    fn local(&self, array: usize, p0: usize) -> &'a [f64] {
        let lhs = self.before.len();
        match array.cmp(&lhs) {
            std::cmp::Ordering::Less => self.before[array].local(p0),
            std::cmp::Ordering::Greater => self.after[array - lhs - 1].local(p0),
            std::cmp::Ordering::Equal => {
                panic!("direct operand read of the LHS array #{array}")
            }
        }
    }
}

/// Borrow the LHS array mutably and every other array read-only.
fn split_lhs(
    arrays: &mut [DistArray<f64>],
    lhs: usize,
) -> (&mut DistArray<f64>, Others<'_>) {
    let (before, rest) = arrays.split_at_mut(lhs);
    let (lhs_arr, after) = rest.split_first_mut().expect("the LHS array exists");
    (lhs_arr, Others { before, after })
}

/// Stage phase for one processor: snapshot every *staged* local run (see
/// [`TermSchedule::staged`]) from the processor's own shards (`own(k)` is
/// its shard of array `k`) into the packed operand buffers — one strided
/// gather/scatter per run. Runs read in place are skipped, and remote
/// positions are left for the exchange to fill.
pub(crate) fn pack_staged_runs<'a>(
    pp: &ProcPlan,
    packed: &mut [Vec<f64>],
    own: impl Fn(usize) -> &'a [f64],
) {
    let me = pp.proc.zero_based() as u32;
    for (ts, buf) in pp.terms.iter().zip(packed) {
        let shard = own(ts.array);
        for r in ts.runs.iter().filter(|r| ts.staged(r, me)) {
            copy_strided(buf, (r.dst_off, r.dst_stride), shard, (r.src_off, r.src_stride), r.len);
        }
    }
}

/// Compute phase for one processor — the one kernel entry point of every
/// executor: walk the compute pieces once, combining each piece's
/// operands into `out` (the processor's LHS shard). A piece reads a term
/// either in place from the processor's own shard (`own(k)` is its shard
/// of array `k`; only arrays other than the LHS are asked for) or from
/// `packed` (ghost or staged data).
///
/// Kernels are single-pass and specialized by `(Combine, term count)` for
/// 1..=8 terms, associating left to right exactly like
/// [`Combine::apply`]; longer statements fall back to one pass per term.
pub(crate) fn compute_pieces<'a>(
    pp: &ProcPlan,
    combine: Combine,
    out: &mut [f64],
    packed: &'a [Vec<f64>],
    own: impl Fn(usize) -> &'a [f64],
) {
    match pp.terms.len() {
        1 => walk_pieces::<1>(pp, combine, out, packed, own),
        2 => walk_pieces::<2>(pp, combine, out, packed, own),
        3 => walk_pieces::<3>(pp, combine, out, packed, own),
        4 => walk_pieces::<4>(pp, combine, out, packed, own),
        5 => walk_pieces::<5>(pp, combine, out, packed, own),
        6 => walk_pieces::<6>(pp, combine, out, packed, own),
        7 => walk_pieces::<7>(pp, combine, out, packed, own),
        8 => walk_pieces::<8>(pp, combine, out, packed, own),
        _ => walk_pieces_many(pp, combine, out, packed, own),
    }
}

fn walk_pieces<'a, const N: usize>(
    pp: &ProcPlan,
    combine: Combine,
    out: &mut [f64],
    packed: &'a [Vec<f64>],
    own: impl Fn(usize) -> &'a [f64],
) {
    // each term's two possible sources, resolved once per processor
    let bufs: [&[f64]; N] = std::array::from_fn(|t| packed[t].as_slice());
    let shards: [&[f64]; N] = std::array::from_fn(|t| {
        let ts = &pp.terms[t];
        if ts.direct {
            own(ts.array)
        } else {
            &[]
        }
    });
    let mut kernel = |piece: &StoreRun, srcs: &[PieceSrc]| {
        let xs: [&[f64]; N] = std::array::from_fn(|t| match srcs[t] {
            PieceSrc::Packed => &bufs[t][piece.pos..piece.pos + piece.len],
            PieceSrc::Own(off) => &shards[t][off..off + piece.len],
        });
        combine_slices(combine, &mut out[piece.dst_off..piece.dst_off + piece.len], xs);
    };
    if pp.pieces.is_empty() {
        for run in &pp.lhs_runs {
            kernel(run, &[PieceSrc::Packed; N]);
        }
    } else {
        for (piece, srcs) in pp.pieces.iter().zip(pp.piece_srcs.chunks_exact(N)) {
            kernel(piece, srcs);
        }
    }
}

/// `out[k] = combine(xs[0][k], …, xs[N-1][k])` in one pass, folding left
/// to right.
#[inline(always)]
fn combine_slices<const N: usize>(combine: Combine, out: &mut [f64], xs: [&[f64]; N]) {
    let len = out.len();
    // equal, known lengths let the loops below vectorize without bounds
    // checks
    let xs = xs.map(|x| &x[..len]);
    let (first, rest) = xs.split_first().expect("validated: ≥ 1 term");
    match combine {
        Combine::Copy => out.copy_from_slice(first),
        Combine::Sum => {
            for (k, o) in out.iter_mut().enumerate() {
                *o = rest.iter().fold(first[k], |acc, x| acc + x[k]);
            }
        }
        Combine::Average => {
            let n = N as f64;
            for (k, o) in out.iter_mut().enumerate() {
                *o = rest.iter().fold(first[k], |acc, x| acc + x[k]) / n;
            }
        }
        Combine::Max => {
            // fold from −∞ exactly like `Combine::apply`
            for (k, o) in out.iter_mut().enumerate() {
                *o = xs.iter().fold(f64::NEG_INFINITY, |acc, x| acc.max(x[k]));
            }
        }
    }
}

/// More than eight terms: one pass per term, accumulating into the LHS
/// slice (safe because a direct operand never aliases the LHS shard and a
/// staged one was snapshotted).
fn walk_pieces_many<'a>(
    pp: &ProcPlan,
    combine: Combine,
    out: &mut [f64],
    packed: &'a [Vec<f64>],
    own: impl Fn(usize) -> &'a [f64],
) {
    let n = pp.terms.len();
    for (i, piece) in pp.effective_pieces().iter().enumerate() {
        let out = &mut out[piece.dst_off..piece.dst_off + piece.len];
        let x = |t: usize| match pp.piece_src(i, t) {
            PieceSrc::Packed => &packed[t][piece.pos..piece.pos + piece.len],
            PieceSrc::Own(off) => &own(pp.terms[t].array)[off..off + piece.len],
        };
        match combine {
            Combine::Copy => unreachable!("validation rejects multi-term Copy"),
            Combine::Sum | Combine::Average => {
                out.copy_from_slice(x(0));
                for t in 1..n {
                    for (o, v) in out.iter_mut().zip(x(t)) {
                        *o += v;
                    }
                }
                if matches!(combine, Combine::Average) {
                    for o in out.iter_mut() {
                        *o /= n as f64;
                    }
                }
            }
            Combine::Max => {
                out.fill(f64::NEG_INFINITY);
                for t in 0..n {
                    for (o, v) in out.iter_mut().zip(x(t)) {
                        *o = o.max(*v);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::Term;
    use crate::exec::dense_reference;
    use crate::fuse::{FusedState, ProgramPlan};
    use crate::ghost::ghost_regions;
    use crate::testing::run_stmt;
    use crate::workspace::FusedWorkspace;
    use crate::{BufferDomain, ExchangeBackend, SharedMemBackend};
    use hpf_core::{DataSpace, DistributeSpec, FormatSpec};
    use hpf_index::{span, Section};

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
                |i| (i[0] * (k as i64 + 3)) as f64,
            ));
        }
        out
    }

    fn shift_stmt(n: i64, arrays: &[DistArray<f64>]) -> Assignment {
        let doms: Vec<&IndexDomain> = arrays.iter().map(|a| a.domain()).collect();
        Assignment::new(
            0,
            Section::from_triplets(vec![span(2, n)]),
            vec![Term::new(1, Section::from_triplets(vec![span(1, n - 1)]))],
            Combine::Copy,
            &doms,
        )
        .unwrap()
    }

    #[test]
    fn plan_replay_matches_reference() {
        let mut arrays = setup(40, 4, &[FormatSpec::Block, FormatSpec::Cyclic(3)]);
        let stmt = shift_stmt(40, &arrays);
        let expect = dense_reference(&arrays, &stmt);
        run_stmt(&mut arrays, &stmt, &mut SharedMemBackend::new());
        assert_eq!(arrays[0].to_dense(), expect);
        // replay again on the mutated state — still the dense semantics
        let expect2 = dense_reference(&arrays, &stmt);
        run_stmt(&mut arrays, &stmt, &mut SharedMemBackend::new());
        assert_eq!(arrays[0].to_dense(), expect2);
    }

    #[test]
    fn block_schedule_compresses_to_few_runs() {
        // BLOCK → BLOCK shift: each processor's gather is at most two
        // contiguous stretches (own block + one ghost cell)
        let arrays = setup(64, 4, &[FormatSpec::Block, FormatSpec::Block]);
        let stmt = shift_stmt(64, &arrays);
        let plan = ExecPlan::inspect(&arrays, &stmt).unwrap();
        for pp in plan.per_proc() {
            assert!(pp.lhs_runs.len() <= 2, "{}: {:?}", pp.proc, pp.lhs_runs);
            for ts in &pp.terms {
                assert!(ts.runs.len() <= 2, "{}: {:?}", pp.proc, ts.runs);
            }
        }
        assert!(plan.compression_ratio() > 10.0, "{}", plan.compression_ratio());
        assert!(plan.schedule_bytes() < plan.uncompressed_bytes());
    }

    #[test]
    fn cyclic_schedule_expands_exactly() {
        // BLOCK ← CYCLIC(1) shift: what a processor reads from one source
        // is a single progression — contiguous in the source's shard,
        // stride np in the reader's element order — and the progressions
        // of the np sources partition the element order exactly
        let arrays = setup(64, 4, &[FormatSpec::Block, FormatSpec::Cyclic(1)]);
        let stmt = shift_stmt(64, &arrays);
        let plan = ExecPlan::inspect(&arrays, &stmt).unwrap();
        for pp in plan.per_proc() {
            assert_eq!(pp.iter_lhs_offsets().count(), pp.volume);
            for ts in &pp.terms {
                assert_eq!(ts.elements, pp.volume);
                assert_eq!(ts.runs.len(), 4, "{}: {:?}", pp.proc, ts.runs);
                assert!(ts.runs.iter().all(|r| r.len >= 3));
                assert!(ts.runs.windows(2).all(|w| w[0].dst_off < w[1].dst_off));
                let mut filled = vec![false; ts.elements];
                for r in &ts.runs {
                    assert_eq!((r.src_stride, r.dst_stride), (1, 4), "{r:?}");
                    for i in 0..r.len {
                        assert!(!std::mem::replace(&mut filled[r.dst_off + i * r.dst_stride], true));
                    }
                }
                assert!(filled.iter().all(|&f| f), "dst progressions partition 0..elements");
                assert_eq!(ts.iter_refs().count(), ts.elements);
                assert!(!ts.direct, "strided local runs stay staged");
            }
        }
        // the reverse reference gathers with a source stride instead
        let arrays = setup(64, 4, &[FormatSpec::Cyclic(1), FormatSpec::Block]);
        let plan = ExecPlan::inspect(&arrays, &shift_stmt(64, &arrays)).unwrap();
        let strided = plan.per_proc().iter().flat_map(|pp| &pp.terms[0].runs);
        assert!(strided.filter(|r| r.len > 1).all(|r| (r.src_stride, r.dst_stride) == (4, 1)));
    }

    #[test]
    fn copy_strided_gathers_scatters_and_checks_extents() {
        let src: Vec<f64> = (0..10).map(f64::from).collect();
        let mut dst = vec![-1.0; 8];
        copy_strided(&mut dst, (1, 3), &src, (2, 2), 3); // 2,4,6 → 1,4,7
        assert_eq!(dst, [-1.0, 2.0, -1.0, -1.0, 4.0, -1.0, -1.0, 6.0]);
        copy_strided(&mut dst, (0, 1), &src, (5, 1), 3); // the copy_from_slice case
        assert_eq!(dst[..3], [5.0, 6.0, 7.0]);
        copy_strided(&mut dst, (7, 5), &src, (9, 9), 1); // one element, any stride
        assert_eq!(dst[7], 9.0);
        copy_strided(&mut dst, (8, 2), &src, (10, 3), 0); // empty at the very end
        assert_eq!((span_end(4, 3, 0), span_end(4, 3, 1), span_end(4, 3, 3)), (4, 5, 11));
        assert_eq!(span_end(usize::MAX / 2, usize::MAX, 3), usize::MAX, "saturates");
        for (d, s) in [((1, 3), (2, 2)), ((0, 1), (3, 4))] {
            let past_the_end = std::panic::catch_unwind(|| {
                copy_strided(&mut [0.0; 8], d, &[0.0; 10], s, 4);
            });
            assert!(past_the_end.is_err(), "{d:?} ← {s:?} leaves its buffer");
        }
    }

    #[test]
    fn uncompressed_baseline_matches_compressed() {
        let mut a = setup(48, 4, &[FormatSpec::Cyclic(2), FormatSpec::Block]);
        let mut b = a.clone();
        let stmt = shift_stmt(48, &a);
        let plan = ExecPlan::inspect(&a, &stmt).unwrap();
        run_stmt(&mut a, &stmt, &mut SharedMemBackend::new());
        plan.execute_seq_uncompressed(&mut b);
        assert_eq!(a[0].to_dense(), b[0].to_dense());
    }

    /// Drive `backend` one timestep over the one-statement program plan of
    /// `stmt`, the way [`crate::PlanCache::replay`] does but with the
    /// caller's own workspace.
    fn step_with(
        arrays: &mut [DistArray<f64>],
        stmt: &Assignment,
        ws: &mut FusedWorkspace,
    ) -> Arc<ProgramPlan> {
        let plan = Arc::new(ExecPlan::inspect(arrays, stmt).unwrap());
        let plan = Arc::new(ProgramPlan::compile(std::slice::from_ref(stmt), vec![plan], true));
        let mut state = FusedState::new(&plan, arrays);
        state.begin_timestep(&plan, arrays, BufferDomain::Workspace);
        SharedMemBackend::new().step(&plan, arrays, &state, ws).unwrap();
        plan
    }

    #[test]
    fn workspace_reuse_is_stable() {
        let mut arrays = setup(40, 4, &[FormatSpec::Block, FormatSpec::Block]);
        let stmt = shift_stmt(40, &arrays);
        let mut ws = FusedWorkspace::new();
        for _ in 0..3 {
            let expect = dense_reference(&arrays, &stmt);
            let plan = step_with(&mut arrays, &stmt, &mut ws);
            assert!(ws.matches(&plan));
            assert_eq!(arrays[0].to_dense(), expect);
        }
        // a workspace built for another plan is resized, not trusted
        let mut other = setup(24, 4, &[FormatSpec::Block, FormatSpec::Block]);
        let stmt2 = shift_stmt(24, &other);
        let expect = dense_reference(&other, &stmt2);
        let plan2 = step_with(&mut other, &stmt2, &mut ws);
        assert!(ws.matches(&plan2));
        assert_eq!(other[0].to_dense(), expect);
    }

    #[test]
    fn plan_ghosts_match_region_algebra() {
        let arrays = setup(64, 4, &[FormatSpec::Block, FormatSpec::Block]);
        let stmt = shift_stmt(64, &arrays);
        let plan = ExecPlan::inspect(&arrays, &stmt).unwrap();
        let maps: Vec<_> = arrays.iter().map(|a| a.mapping().clone()).collect();
        let ghosts = ghost_regions(&maps, 4, &stmt);
        for (pp, g) in plan.per_proc().iter().zip(&ghosts) {
            assert_eq!(pp.ghost_elements(), g.volume, "{}", pp.proc);
        }
        // and both agree with the frozen analysis's remote reads
        assert_eq!(plan.ghost_elements() as u64, plan.analysis().remote_reads);
    }

    #[test]
    fn aliasing_shift_reads_old_values() {
        // A(2:16) = A(1:15) with the LHS on the RHS: pack-before-compute
        // must preserve Fortran array-assignment semantics
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
        let expect = dense_reference(&arrays, &stmt);
        run_stmt(&mut arrays, &stmt, &mut SharedMemBackend::new());
        assert_eq!(arrays[0].to_dense(), expect);
    }

    #[test]
    fn piece_table_refines_store_runs_at_direct_boundaries() {
        // BLOCK ← BLOCK shift over 64-element blocks: every processor but
        // the first computes one ghost element, then its own block
        let arrays = setup(256, 4, &[FormatSpec::Block, FormatSpec::Block]);
        let stmt = shift_stmt(256, &arrays);
        let plan = ExecPlan::inspect(&arrays, &stmt).unwrap();
        let first = &plan.per_proc()[0];
        assert!(first.terms[0].direct);
        assert_eq!(first.pieces, vec![StoreRun { pos: 0, dst_off: 1, len: 63 }]);
        assert_eq!(first.piece_srcs, vec![PieceSrc::Own(0)]);
        let second = &plan.per_proc()[1];
        assert_eq!(
            second.pieces,
            vec![
                StoreRun { pos: 0, dst_off: 0, len: 1 },
                StoreRun { pos: 1, dst_off: 1, len: 63 },
            ]
        );
        assert_eq!(second.piece_srcs, vec![PieceSrc::Packed, PieceSrc::Own(0)]);
        // the pieces tile exactly what the store runs cover
        for pp in plan.per_proc() {
            assert_eq!(pp.pieces.iter().map(|p| p.len).sum::<usize>(), pp.volume);
        }
    }

    #[test]
    fn staged_statements_get_no_piece_table() {
        // strided local runs (BLOCK ← CYCLIC) and LHS aliasing both keep
        // the snapshot: no refinement, no extra schedule bytes
        let arrays = setup(256, 4, &[FormatSpec::Block, FormatSpec::Cyclic(1)]);
        let cyclic = ExecPlan::inspect(&arrays, &shift_stmt(256, &arrays)).unwrap();
        let doms: Vec<&IndexDomain> = arrays.iter().map(|a| a.domain()).collect();
        let alias = Assignment::new(
            0,
            Section::from_triplets(vec![span(2, 256)]),
            vec![Term::new(0, Section::from_triplets(vec![span(1, 255)]))],
            Combine::Copy,
            &doms,
        )
        .unwrap();
        let alias = ExecPlan::inspect(&arrays, &alias).unwrap();
        for plan in [&cyclic, &alias] {
            let runs_only: usize = plan
                .per_proc()
                .iter()
                .map(|pp| {
                    assert!(pp.pieces.is_empty() && pp.piece_srcs.is_empty());
                    assert!(pp.terms.iter().all(|ts| !ts.direct));
                    pp.lhs_runs.len() * std::mem::size_of::<StoreRun>()
                        + pp.terms
                            .iter()
                            .map(|ts| ts.runs.len() * std::mem::size_of::<CopyRun>())
                            .sum::<usize>()
                })
                .sum();
            assert_eq!(plan.schedule_bytes(), runs_only);
        }
    }

    #[test]
    fn kernels_match_the_oracle_bit_for_bit_at_every_term_count() {
        // 1..=8 terms take the single-pass kernels, 9 and 10 the per-term
        // fallback; the operands mix an in-place array (B), the aliased
        // LHS (A, staged) and a cyclic array (C, staged), with non-dyadic
        // values so a different association would show in the last bit
        let n = 256i64;
        let mut arrays =
            setup(n as usize, 4, &[FormatSpec::Block, FormatSpec::Block, FormatSpec::Cyclic(1)]);
        for (k, a) in arrays.iter_mut().enumerate() {
            let dom = a.domain().clone();
            for i in dom.iter() {
                a.set(&i, ((i[0] * 37 + k as i64 * 11) % 101) as f64 * 0.1 + 1e-3);
            }
        }
        let doms: Vec<&IndexDomain> = arrays.iter().map(|a| a.domain()).collect();
        for nterms in 1..=10usize {
            for combine in [Combine::Sum, Combine::Average, Combine::Max] {
                let terms = (0..nterms)
                    .map(|t| {
                        let shift = (t % 3) as i64;
                        Term::new(
                            [1, 0, 2][t % 3],
                            Section::from_triplets(vec![span(1 + shift, n - 2 + shift)]),
                        )
                    })
                    .collect();
                let stmt = Assignment::new(
                    0,
                    Section::from_triplets(vec![span(2, n - 1)]),
                    terms,
                    combine,
                    &doms,
                )
                .unwrap();
                let plan = ExecPlan::inspect(&arrays, &stmt).unwrap();
                assert!(plan.per_proc()[1].terms[0].direct);
                let expect = dense_reference(&arrays, &stmt);
                let mut got = arrays.clone();
                run_stmt(&mut got, &stmt, &mut SharedMemBackend::new());
                let same = got[0]
                    .to_dense()
                    .iter()
                    .zip(&expect)
                    .all(|(x, y)| x.to_bits() == y.to_bits());
                assert!(same, "{nterms} term(s), {combine:?}");
            }
        }
    }

    #[test]
    fn stale_plan_detected() {
        let mut arrays = setup(32, 4, &[FormatSpec::Block, FormatSpec::Block]);
        let stmt = shift_stmt(32, &arrays);
        let plan = ExecPlan::inspect(&arrays, &stmt).unwrap();
        assert!(plan.is_valid_for(&arrays));
        // remap A1 to a different allocation → plan must refuse
        let remapped = setup(32, 4, &[FormatSpec::Block, FormatSpec::Cyclic(1)]);
        arrays[1] = remapped.into_iter().nth(1).unwrap();
        assert!(!plan.is_valid_for(&arrays));
        let plan = Arc::new(ProgramPlan::compile(&[stmt], vec![Arc::new(plan)], true));
        let state = FusedState::new(&plan, &arrays);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut a = arrays;
            SharedMemBackend::new().step(&plan, &mut a, &state, &mut FusedWorkspace::new())
        }));
        assert!(res.is_err(), "executing a stale plan must panic, not corrupt");
    }

    #[test]
    fn replicated_lhs_keeps_copies_coherent() {
        let dom = IndexDomain::of_shape(&[12]).unwrap();
        let rep = Arc::new(hpf_core::EffectiveDist::Replicated {
            domain: dom,
            procs: hpf_core::ProcSet::all(3),
        });
        let mut ds = DataSpace::new(3);
        let b = ds.declare("B", IndexDomain::of_shape(&[12]).unwrap()).unwrap();
        ds.distribute(b, &DistributeSpec::new(vec![FormatSpec::Cyclic(1)])).unwrap();
        let mut arrays = vec![
            DistArray::new("R", rep, 3, 0.0),
            DistArray::from_fn("B", ds.effective(b).unwrap(), 3, |i| (i[0] * 7) as f64),
        ];
        let doms: Vec<&IndexDomain> = arrays.iter().map(|a| a.domain()).collect();
        let stmt = Assignment::new(
            0,
            Section::from_triplets(vec![span(1, 12)]),
            vec![Term::new(1, Section::from_triplets(vec![span(1, 12)]))],
            Combine::Copy,
            &doms,
        )
        .unwrap();
        let expect = dense_reference(&arrays, &stmt);
        run_stmt(&mut arrays, &stmt, &mut SharedMemBackend::new());
        assert_eq!(arrays[0].to_dense(), expect);
        // every replica holds the full updated copy
        for p in (1..=3u32).map(ProcId) {
            for i in arrays[0].domain().clone().iter() {
                let off = arrays[0].local_offset(p, &i).unwrap();
                assert_eq!(arrays[0].local(p.zero_based())[off], (i[0] * 7) as f64);
            }
        }
    }
}
