//! Static schedule verification — prove a compiled plan safe before it
//! runs.
//!
//! The paper's central claim is that distribution/alignment mappings make
//! communication sets *statically computable*. The flip side: once a
//! timestep is frozen into per-statement [`ExecPlan`]s and the
//! [`ProgramPlan`](crate::ProgramPlan) that executes them, every safety
//! property of its execution is statically **decidable** from the plans
//! alone, before a single element moves. This module decides five of
//! them. A schedule is written down once — the receiver-side gather runs
//! — and sent in one form — the fused pairs — so each property is proven
//! on the object that carries it, by one of two reports:
//!
//! 1. **Write coverage** ([`verify_plan`] → [`StatementReport`]) — the
//!    union of all [`StoreRun`](crate::StoreRun)s equals exactly the LHS
//!    owned region (∩ the statement's section) of every processor: no
//!    gap, no overlapping or duplicate write, no write landing at an
//!    offset the owner-computes rule did not assign.
//! 2. **Bounds** (both) — every element of every strided
//!    [`CopyRun`](crate::CopyRun) progression addresses the
//!    statement-named element *inside the owning shard*, and every
//!    destination stays inside the pack-buffer extents
//!    ([`StatementReport`]); every
//!    [`FusedSegment`](crate::FusedSegment) the sender packs stays inside
//!    its shard ([`FusionReport`]).
//! 3. **Race freedom** (both) — per statement, the parallel executor's
//!    partitioning gives every simulated processor to exactly one worker
//!    (store sets cannot intersect), every pack-buffer position compute
//!    reads is filled exactly once before, and the compute-piece table
//!    reads in place only what is safe to — own-shard elements the gather
//!    schedule names, never the array the statement stores to (the
//!    RAW/WAR hazard check that makes LHS-aliasing statements under
//!    shifted sections safe). Per timestep, no two statements of one
//!    superstep conflict, every message is packed after the last
//!    in-timestep writer of its source, and the static dirty flags match
//!    the store schedules.
//! 4. **Deadlock freedom** ([`verify_program_plan`] → [`FusionReport`]) —
//!    the [`FusedPair`](crate::FusedPair)s form a schedulable exchange: no
//!    self-message, every processor inside the machine, a strict total
//!    order over pairs, no empty message, and the coalesced segments are
//!    exactly the remote gather runs — every send matched by the receive a
//!    gather schedule expects, element for element: no orphan message, no
//!    unserved gather, no cyclic wait.
//! 5. **Conservation** (both) — the remote runs' elements equal the
//!    frozen [`CommAnalysis`](crate::CommAnalysis) totals, pair for pair
//!    ([`StatementReport`]), and each fused pair declares exactly what its
//!    segments carry ([`FusionReport`]). Replicated mappings legitimately
//!    diverge from the analysis's first-owner-computes model; that case is
//!    an explicit [`AnalysisVerdict::ReplicatedDivergence`] verdict,
//!    reported rather than silently skipped.
//!
//! The pass is a *re-derivation*: it recomputes, from the mappings and the
//! statements, what every schedule entry must say, and diagnoses any
//! divergence with exact processor/run/segment coordinates. Entry points:
//! [`verify_plan`] for one statement's runs, [`verify_program_plan`] for
//! the timestep's messages, [`Program::verify_all`](crate::Program::verify_all)
//! for both in one [`VerifyReport`] (what `hpfrun --verify` prints: one
//! line per statement plan and one for the timestep plan), and
//! [`crate::PlanCache`], which asserts both on every plan insertion in
//! debug builds and, behind the `verify` feature, in release builds too.

use crate::array::DistArray;
use crate::assign::Assignment;
use crate::commsets::project_region;
use crate::plan::{span_end, AnalysisVerdict, ExecPlan, PieceSrc, ProcPlan};
use hpf_index::{Idx, Triplet};
use hpf_procs::ProcId;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// The five statically-decidable safety properties of a compiled timestep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Property {
    /// Store runs tile each processor's owned LHS section exactly.
    WriteCoverage,
    /// Every source/destination offset stays inside the owning shard and
    /// pack-buffer extents, and addresses the statement-named element.
    Bounds,
    /// Disjoint worker store sets and a sound pack → exchange → compute
    /// happens-before order (RAW/WAR hazard freedom).
    RaceFreedom,
    /// The fused pairs form a schedulable exchange with matched sends and
    /// receives.
    DeadlockFreedom,
    /// Wire elements over pairs equal the frozen analysis totals, and
    /// every message declares what it carries.
    Conservation,
}

impl fmt::Display for Property {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Property::WriteCoverage => "write-coverage",
            Property::Bounds => "bounds",
            Property::RaceFreedom => "race-freedom",
            Property::DeadlockFreedom => "deadlock-freedom",
            Property::Conservation => "conservation",
        };
        f.write_str(s)
    }
}

/// What exactly diverged, with processor/run/segment coordinates.
///
/// Processors are reported zero-based (`p0`, matching
/// [`FusedPair`](crate::FusedPair) sender/receiver numbering); offsets are
/// flat positions into the named buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DiagnosticKind {
    /// An involved array no longer carries the mapping allocation the
    /// plan was inspected from — nothing else can be decided.
    StaleMapping {
        /// Index of the remapped array.
        array: usize,
    },
    /// A processor with a non-empty owned LHS section has no schedule.
    WorkerMissing {
        /// Zero-based processor.
        proc: u32,
        /// Elements the owner-computes rule assigns it.
        expected_volume: usize,
    },
    /// A schedule names a processor outside the machine.
    WorkerOutOfRange {
        /// Zero-based processor as recorded in the plan.
        proc: u32,
        /// Machine size.
        np: usize,
    },
    /// Two per-processor schedules drive the same processor — their store
    /// sets alias the same local buffer.
    DuplicateWorker {
        /// Zero-based processor.
        proc: u32,
    },
    /// A processor's declared compute volume differs from the owned
    /// section volume.
    VolumeMismatch {
        /// Zero-based processor.
        proc: u32,
        /// Volume recorded in the plan.
        declared: usize,
        /// Volume the mapping assigns.
        expected: usize,
    },
    /// Owned LHS offsets that no store run writes.
    CoverageGap {
        /// Zero-based processor.
        proc: u32,
        /// First uncovered flat offset of the LHS local buffer.
        offset: usize,
        /// Consecutive uncovered offsets.
        len: usize,
    },
    /// LHS offsets (or computed positions) written more than once.
    CoverageOverlap {
        /// Zero-based processor.
        proc: u32,
        /// First duplicated flat offset.
        offset: usize,
        /// Consecutive duplicated offsets.
        len: usize,
    },
    /// A store run writes an offset the owner-computes rule assigned to a
    /// different computed position (or none at all).
    StrayWrite {
        /// Zero-based processor.
        proc: u32,
        /// Store-run index within the processor's schedule.
        run: usize,
        /// Offset actually written.
        offset: usize,
        /// Offset the statement assigns to that position.
        expected: usize,
    },
    /// A store run's computed positions exceed the processor's volume.
    StoreRunBeyondVolume {
        /// Zero-based processor.
        proc: u32,
        /// Store-run index.
        run: usize,
        /// One-past-the-end position of the run.
        end: usize,
        /// The processor's computed volume.
        volume: usize,
    },
    /// A store run writes past the end of the LHS local buffer.
    StoreRunOutOfBounds {
        /// Zero-based processor.
        proc: u32,
        /// Store-run index.
        run: usize,
        /// One-past-the-end offset of the run.
        end: usize,
        /// The LHS local buffer length.
        extent: usize,
    },
    /// A gather run names a source processor outside the machine.
    InvalidSourceProc {
        /// Zero-based gathering processor.
        proc: u32,
        /// RHS term index.
        term: usize,
        /// Gather-run index.
        run: usize,
        /// The invalid source.
        src: u32,
        /// Machine size.
        np: usize,
    },
    /// A gather run reads past the end of the source shard.
    CopyRunOutOfBounds {
        /// Zero-based gathering processor.
        proc: u32,
        /// RHS term index.
        term: usize,
        /// Gather-run index.
        run: usize,
        /// One-past-the-end source offset.
        end: usize,
        /// The source shard length.
        extent: usize,
    },
    /// A gather run lands past the end of the packed operand buffer.
    PackRunOutOfBounds {
        /// Zero-based gathering processor.
        proc: u32,
        /// RHS term index.
        term: usize,
        /// Gather-run index.
        run: usize,
        /// One-past-the-end pack position.
        end: usize,
        /// The pack buffer length.
        extent: usize,
    },
    /// A term's pack buffer is not sized to the processor's volume — the
    /// compute kernels would read out of extent.
    TermBufferMismatch {
        /// Zero-based processor.
        proc: u32,
        /// RHS term index.
        term: usize,
        /// Buffer length recorded in the plan.
        elements: usize,
        /// The processor's computed volume.
        volume: usize,
    },
    /// A term schedule names a different array than the statement's term.
    TermArrayMismatch {
        /// Zero-based processor.
        proc: u32,
        /// RHS term index.
        term: usize,
        /// Array index recorded in the plan.
        declared: usize,
        /// Array index the statement names.
        expected: usize,
    },
    /// A gather run reads an address that is not the statement-named
    /// element inside the source's owned shard (wrong element, or the
    /// source does not own it).
    GatherWrongElement {
        /// Zero-based gathering processor.
        proc: u32,
        /// RHS term index.
        term: usize,
        /// Packed position whose read is wrong.
        pos: usize,
        /// The source processor the run names.
        src: u32,
        /// The source offset the run names.
        offset: usize,
    },
    /// Pack-buffer positions never filled by any gather run or message —
    /// compute would read uninitialized (or stale) operand data.
    PackGap {
        /// Zero-based processor.
        proc: u32,
        /// RHS term index.
        term: usize,
        /// First unfilled pack position.
        offset: usize,
        /// Consecutive unfilled positions.
        len: usize,
    },
    /// Pack-buffer positions filled more than once — two transfers race
    /// on the same slot.
    PackOverlap {
        /// Zero-based processor.
        proc: u32,
        /// RHS term index.
        term: usize,
        /// First doubly-filled pack position.
        offset: usize,
        /// Consecutive doubly-filled positions.
        len: usize,
    },
    /// A fused pair sends a processor data from itself.
    SelfMessage {
        /// Fused pair index.
        pair: usize,
        /// The processor (zero-based).
        proc: u32,
    },
    /// A fused pair names a processor outside the machine.
    InvalidPairProc {
        /// Fused pair index.
        pair: usize,
        /// The invalid processor (zero-based).
        proc: u32,
        /// Machine size.
        np: usize,
    },
    /// Fused pairs are not strictly ordered by `(superstep, sender,
    /// receiver)` — a duplicate or out-of-order pair breaks the total
    /// order every rank posts its sends and receives in.
    UnorderedPairs {
        /// Index of the offending pair.
        pair: usize,
    },
    /// A fused pair carries no segments — an empty send the receiver still
    /// has to wait for.
    EmptyMessage {
        /// Zero-based sender.
        sender: u32,
        /// Zero-based receiver.
        receiver: u32,
    },
    /// A coalesced segment's source progression leaves the sender's shard.
    SegmentOutOfBounds {
        /// Zero-based sender.
        sender: u32,
        /// Zero-based receiver.
        receiver: u32,
        /// Segment index within the fused pair.
        segment: usize,
        /// One-past-the-end source offset.
        end: usize,
        /// The sender's shard length.
        extent: usize,
    },
    /// The plan's total ghost (remote-read) volume differs from the
    /// frozen analysis's remote reads.
    GhostTotalMismatch {
        /// Remote elements the schedules gather.
        planned: u64,
        /// Remote reads the analysis froze.
        analysis: u64,
    },
    /// A term's declared ghost count differs from its runs' remote volume.
    TermGhostMismatch {
        /// Zero-based processor.
        proc: u32,
        /// RHS term index.
        term: usize,
        /// Ghost elements the term schedule declares.
        declared: usize,
        /// Remote elements its runs actually gather.
        actual: usize,
    },
    /// One pair's wire traffic differs from the frozen analysis entry.
    AnalysisPairMismatch {
        /// Zero-based sender.
        sender: u32,
        /// Zero-based receiver.
        receiver: u32,
        /// Elements the remote gather runs move.
        planned: u64,
        /// Elements the analysis froze.
        analysis: u64,
    },
    /// Total wire elements differ from the frozen analysis total.
    AnalysisTotalMismatch {
        /// Elements the remote gather runs move.
        planned: u64,
        /// Elements the analysis froze.
        analysis: u64,
    },
    /// The compute-piece table's source list is not `pieces × terms` long
    /// — the kernel would pair pieces with the wrong operand sources.
    PieceTableMalformed {
        /// Zero-based processor.
        proc: u32,
        /// Pieces in the table.
        pieces: usize,
        /// Operand sources recorded.
        sources: usize,
        /// RHS terms of the statement.
        terms: usize,
    },
    /// The compute pieces do not tile `0..volume` in order: a position
    /// would be computed twice, never, or out of sequence.
    PieceTilingMismatch {
        /// Zero-based processor.
        proc: u32,
        /// Piece index (the piece count when the table ends short of, or
        /// past, the volume).
        piece: usize,
        /// Position the piece starts at (where the table ends, for the
        /// final check).
        pos: usize,
        /// Position the tiling requires there.
        expected: usize,
    },
    /// A compute piece stores to a different LHS offset than the store
    /// runs (and the statement) assign to its positions.
    PieceStoreMismatch {
        /// Zero-based processor.
        proc: u32,
        /// Piece index.
        piece: usize,
        /// Offset the piece writes.
        offset: usize,
        /// Offset the statement assigns to that position.
        expected: usize,
    },
    /// A piece's in-place operand read runs past the end of the
    /// processor's own shard.
    DirectSourceOutOfShard {
        /// Zero-based processor.
        proc: u32,
        /// RHS term index.
        term: usize,
        /// Piece index.
        piece: usize,
        /// One-past-the-end shard offset of the read.
        end: usize,
        /// The processor's shard length.
        extent: usize,
    },
    /// A piece reads an operand in place from an address that is not what
    /// the term's gather schedule says for that position (a different
    /// offset, an element another processor owns, or any in-place read of
    /// a term the schedule marks staged).
    DirectSourceMismatch {
        /// Zero-based processor.
        proc: u32,
        /// RHS term index.
        term: usize,
        /// Piece index.
        piece: usize,
        /// First computed position whose in-place read is wrong.
        pos: usize,
        /// Own-shard offset the piece reads there.
        offset: usize,
    },
    /// A piece reads in place from the array the statement stores to —
    /// the kernel would see elements it has already overwritten instead
    /// of the pre-assignment snapshot.
    DirectReadsStoredArray {
        /// Zero-based processor.
        proc: u32,
        /// RHS term index.
        term: usize,
        /// The array both read in place and stored to.
        array: usize,
    },
    /// A piece reads packed-buffer positions the stage phase never fills:
    /// they are local, and the term is marked direct, so its local runs
    /// are not staged.
    UnpackedLocalRead {
        /// Zero-based processor.
        proc: u32,
        /// RHS term index.
        term: usize,
        /// First unfilled pack position read.
        offset: usize,
        /// Consecutive unfilled positions read.
        len: usize,
    },
    /// A fused plan's constituent plan list disagrees with the statement
    /// list it claims to implement.
    FusedShapeMismatch {
        /// Statements the program has.
        statements: usize,
        /// Constituent plans the fused plan carries.
        plans: usize,
    },
    /// Two statements fused into the same superstep have a RAW or WAW
    /// conflict — their kernels would race on the shared array — or a
    /// statement sits on a different level than the re-derived schedule
    /// assigns it (reported with `earlier == later`), e.g. a writer
    /// hoisted into a superstep before an earlier reader of its array.
    FusedHazard {
        /// The superstep holding both statements.
        superstep: usize,
        /// Statement index of the earlier conflicting statement.
        earlier: usize,
        /// Statement index of the later conflicting statement.
        later: usize,
        /// The array both touch hazardously.
        array: usize,
    },
    /// A coalesced segment that no statement's remote gather run expects —
    /// a fused send nobody receives.
    FusedSegmentOrphan {
        /// Fused pair index.
        pair: usize,
        /// Segment index within the fused pair.
        segment: usize,
    },
    /// A remote gather run the fused schedule never ships — the receiver
    /// would wait for (or compute on) data that never rides the wire.
    FusedSegmentMissing {
        /// Statement whose gather goes unserved.
        stmt: usize,
        /// Zero-based sender of the dropped segment.
        sender: u32,
        /// Zero-based receiver of the dropped segment.
        receiver: u32,
        /// Elements dropped.
        len: usize,
    },
    /// A fused pair's declared element count differs from the sum of its
    /// segments — conservation across coalescing is broken.
    FusedPairMismatch {
        /// Fused pair index.
        pair: usize,
        /// Elements the fused pair declares.
        declared: usize,
        /// Elements its coalesced segments actually carry.
        actual: usize,
    },
    /// A fused pair's pack phase is unsound: it differs from the earliest
    /// superstep at which every earlier in-timestep writer of the pair's
    /// source data has completed, or lies after the pair's home superstep
    /// — either way a kernel could read data packed too early or still
    /// in flight.
    FusedPhaseRace {
        /// Fused pair index.
        pair: usize,
        /// Pack phase the fused plan declares.
        declared: usize,
        /// Pack phase re-derived from the store schedules.
        required: usize,
        /// The pair's home superstep.
        superstep: usize,
    },
    /// A coalesced segment's static dirty flags disagree with the store
    /// schedules: ghost reuse would skip data a statement rewrites (or
    /// re-send data nothing writes).
    FusedDirtyUnsound {
        /// The segment's unit index.
        unit: usize,
        /// `intra_dirty` the fused plan declares.
        intra: bool,
        /// `post_dirty` the fused plan declares.
        post: bool,
        /// `intra_dirty` re-derived from the store schedules.
        expected_intra: bool,
        /// `post_dirty` re-derived from the store schedules.
        expected_post: bool,
    },
    /// A coalesced segment's `unit` is not its flat position in `(pair,
    /// segment)` order: two segments would share a slot of the dirty and
    /// effective-send masks, or index past them.
    FusedUnitMismatch {
        /// Fused pair index.
        pair: usize,
        /// Segment index within the fused pair.
        segment: usize,
        /// The unit index the segment names.
        unit: usize,
    },
}

impl fmt::Display for DiagnosticKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use DiagnosticKind::*;
        match self {
            StaleMapping { array } => {
                write!(f, "array #{array} was remapped since inspection; plan is stale")
            }
            WorkerMissing { proc, expected_volume } => write!(
                f,
                "p{proc}: no schedule, but its owned section holds {expected_volume} \
                 element(s)"
            ),
            WorkerOutOfRange { proc, np } => {
                write!(f, "schedule drives p{proc}, outside the {np}-processor machine")
            }
            DuplicateWorker { proc } => {
                write!(f, "p{proc}: two schedules drive the same processor")
            }
            VolumeMismatch { proc, declared, expected } => write!(
                f,
                "p{proc}: declared volume {declared} ≠ owned-section volume {expected}"
            ),
            CoverageGap { proc, offset, len } => write!(
                f,
                "p{proc}: owned offset(s) {offset}..{} never written",
                offset + len
            ),
            CoverageOverlap { proc, offset, len } => write!(
                f,
                "p{proc}: offset(s)/position(s) {offset}..{} written more than once",
                offset + len
            ),
            StrayWrite { proc, run, offset, expected } => write!(
                f,
                "p{proc} store run {run}: writes offset {offset} where the statement \
                 assigns {expected}"
            ),
            StoreRunBeyondVolume { proc, run, end, volume } => write!(
                f,
                "p{proc} store run {run}: positions end at {end}, beyond volume {volume}"
            ),
            StoreRunOutOfBounds { proc, run, end, extent } => write!(
                f,
                "p{proc} store run {run}: writes end at {end}, beyond the LHS shard \
                 extent {extent}"
            ),
            InvalidSourceProc { proc, term, run, src, np } => write!(
                f,
                "p{proc} term {term} run {run}: source p{src} outside the \
                 {np}-processor machine"
            ),
            CopyRunOutOfBounds { proc, term, run, end, extent } => write!(
                f,
                "p{proc} term {term} run {run}: reads end at {end}, beyond the source \
                 shard extent {extent}"
            ),
            PackRunOutOfBounds { proc, term, run, end, extent } => write!(
                f,
                "p{proc} term {term} run {run}: pack positions end at {end}, beyond \
                 the buffer extent {extent}"
            ),
            TermBufferMismatch { proc, term, elements, volume } => write!(
                f,
                "p{proc} term {term}: pack buffer holds {elements} element(s) but the \
                 processor computes {volume}"
            ),
            TermArrayMismatch { proc, term, declared, expected } => write!(
                f,
                "p{proc} term {term}: schedule reads array #{declared}, statement \
                 names #{expected}"
            ),
            GatherWrongElement { proc, term, pos, src, offset } => write!(
                f,
                "p{proc} term {term} position {pos}: p{src}[{offset}] is not the \
                 statement-named element inside the owning shard"
            ),
            PackGap { proc, term, offset, len } => write!(
                f,
                "p{proc} term {term}: pack position(s) {offset}..{} never filled \
                 before compute reads them",
                offset + len
            ),
            PackOverlap { proc, term, offset, len } => write!(
                f,
                "p{proc} term {term}: pack position(s) {offset}..{} filled more than \
                 once",
                offset + len
            ),
            SelfMessage { pair, proc } => {
                write!(f, "pair {pair}: p{proc} sends a message to itself")
            }
            InvalidPairProc { pair, proc, np } => write!(
                f,
                "pair {pair}: processor p{proc} outside the {np}-processor machine"
            ),
            UnorderedPairs { pair } => write!(
                f,
                "pair {pair}: not strictly ordered by (superstep, sender, receiver)"
            ),
            EmptyMessage { sender, receiver } => {
                write!(f, "pair {sender}→{receiver}: empty message")
            }
            SegmentOutOfBounds { sender, receiver, segment, end, extent } => write!(
                f,
                "pair {sender}→{receiver} segment {segment}: send reads end at {end}, \
                 beyond the sender shard extent {extent}"
            ),
            GhostTotalMismatch { planned, analysis } => write!(
                f,
                "schedules gather {planned} remote element(s), analysis froze \
                 {analysis} remote reads"
            ),
            TermGhostMismatch { proc, term, declared, actual } => write!(
                f,
                "p{proc} term {term}: declares {declared} ghost element(s), runs \
                 gather {actual}"
            ),
            AnalysisPairMismatch { sender, receiver, planned, analysis } => write!(
                f,
                "pair {sender}→{receiver}: plan moves {planned} element(s), analysis \
                 froze {analysis}"
            ),
            AnalysisTotalMismatch { planned, analysis } => write!(
                f,
                "plan moves {planned} wire element(s), analysis froze {analysis}"
            ),
            PieceTableMalformed { proc, pieces, sources, terms } => write!(
                f,
                "p{proc}: piece table records {sources} operand source(s) for \
                 {pieces} piece(s) × {terms} term(s)"
            ),
            PieceTilingMismatch { proc, piece, pos, expected } => write!(
                f,
                "p{proc} piece {piece}: at position {pos} where the tiling of the \
                 computed volume requires {expected}"
            ),
            PieceStoreMismatch { proc, piece, offset, expected } => write!(
                f,
                "p{proc} piece {piece}: stores to offset {offset} where the statement \
                 assigns {expected}"
            ),
            DirectSourceOutOfShard { proc, term, piece, end, extent } => write!(
                f,
                "p{proc} term {term} piece {piece}: in-place read ends at {end}, \
                 beyond the own shard extent {extent}"
            ),
            DirectSourceMismatch { proc, term, piece, pos, offset } => write!(
                f,
                "p{proc} term {term} piece {piece} position {pos}: in-place read of \
                 own offset {offset} is not what the gather schedule names"
            ),
            DirectReadsStoredArray { proc, term, array } => write!(
                f,
                "p{proc} term {term}: reads array #{array} in place while the \
                 statement stores to it — the snapshot is bypassed"
            ),
            UnpackedLocalRead { proc, term, offset, len } => write!(
                f,
                "p{proc} term {term}: pack position(s) {offset}..{} are local to a \
                 direct term, never staged, yet read from the packed buffer",
                offset + len
            ),
            FusedShapeMismatch { statements, plans } => write!(
                f,
                "fused plan carries {plans} constituent plan(s) for {statements} \
                 statement(s)"
            ),
            FusedHazard { superstep, earlier, later, array } => write!(
                f,
                "superstep {superstep}: statements #{earlier} and #{later} conflict \
                 on array #{array} (RAW/WAW/WAR-hoist) at this level"
            ),
            FusedSegmentOrphan { pair, segment } => write!(
                f,
                "fused pair {pair} segment {segment}: no remote gather run expects \
                 it — a send nobody receives"
            ),
            FusedSegmentMissing { stmt, sender, receiver, len } => write!(
                f,
                "statement #{stmt} pair {sender}→{receiver}: {len} element(s) of its \
                 remote gather runs missing from the fused plan"
            ),
            FusedPairMismatch { pair, declared, actual } => write!(
                f,
                "fused pair {pair}: declares {declared} element(s) but its coalesced \
                 segments carry {actual}"
            ),
            FusedPhaseRace { pair, declared, required, superstep } => write!(
                f,
                "fused pair {pair}: pack phase {declared} but store schedules \
                 require {required} (home superstep {superstep})"
            ),
            FusedDirtyUnsound { unit, intra, post, expected_intra, expected_post } => {
                write!(
                    f,
                    "unit {unit}: declares intra/post dirty {intra}/{post}, store \
                     schedules derive {expected_intra}/{expected_post}"
                )
            }
            FusedUnitMismatch { pair, segment, unit } => write!(
                f,
                "fused pair {pair} segment {segment}: unit {unit} is not its flat \
                 position in the dirty-tracking masks"
            ),
        }
    }
}

/// One verified divergence: which property failed and exactly where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The safety property the finding refutes.
    pub property: Property,
    /// What diverged, with coordinates.
    pub kind: DiagnosticKind,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.property, self.kind)
    }
}

/// What the verifier examined — the denominators of a clean report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifyStats {
    /// Simulated processors.
    pub procs: usize,
    /// Store runs checked.
    pub store_runs: usize,
    /// Gather runs checked.
    pub copy_runs: usize,
    /// Wire elements accounted (the remote gather runs' volume).
    pub wire_elements: u64,
}

/// The verifier's result for one statement: a verdict on the
/// analysis-conservation contract plus zero or more refuting diagnostics.
///
/// A report with no diagnostics is a *proof* (by exhaustive re-derivation
/// from the mappings) that write coverage, bounds, race freedom and
/// conservation hold for this plan; deadlock freedom is a property of the
/// messages that execute and is proven by the [`FusionReport`]. A
/// [`AnalysisVerdict::ReplicatedDivergence`] verdict is clean: it records
/// that the conservation comparison is inapplicable by design, not that it
/// failed.
#[derive(Debug, Clone)]
pub struct StatementReport {
    /// The statement, rendered.
    pub statement: String,
    /// How the remote gather runs relate to the frozen analysis.
    pub verdict: AnalysisVerdict,
    /// Every property violation found (empty = every per-statement
    /// property holds).
    pub diagnostics: Vec<Diagnostic>,
    /// What was examined.
    pub stats: VerifyStats,
}

impl StatementReport {
    /// True iff no property was refuted.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Findings refuting one specific property.
    pub fn findings_for(&self, property: Property) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.property == property)
    }
}

impl fmt::Display for StatementReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}  [{}; {} procs, {} store runs, {} copy runs, {} wire elements]",
            self.statement,
            self.verdict,
            self.stats.procs,
            self.stats.store_runs,
            self.stats.copy_runs,
            self.stats.wire_elements,
        )?;
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

/// A whole program's verification: one [`StatementReport`] per statement
/// plus the [`FusionReport`] of the timestep plan that executes them.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Per-statement reports, in program order.
    pub statements: Vec<StatementReport>,
    /// The fused timestep plan's report — the messages actually packed and
    /// sent.
    pub timestep: FusionReport,
}

impl VerifyReport {
    /// True iff every statement and the timestep plan verified clean.
    pub fn is_clean(&self) -> bool {
        self.statements.iter().all(StatementReport::is_clean) && self.timestep.is_clean()
    }

    /// Total findings over all statements and the timestep plan.
    pub fn finding_count(&self) -> usize {
        self.statements.iter().map(|s| s.diagnostics.len()).sum::<usize>()
            + self.timestep.diagnostics.len()
    }

    /// Statements whose conservation comparison was inapplicable because
    /// a mapping replicates (reported, not skipped).
    pub fn replicated_statements(&self) -> usize {
        self.statements
            .iter()
            .filter(|s| s.verdict == AnalysisVerdict::ReplicatedDivergence)
            .count()
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, s) in self.statements.iter().enumerate() {
            write!(f, "#{k} {s}")?;
        }
        write!(f, "{}", self.timestep)
    }
}

/// True iff every per-processor schedule drives a distinct processor — the
/// precondition for the parallel executor's store sets being disjoint.
pub(crate) fn workers_disjoint(per_proc: &[ProcPlan]) -> bool {
    let mut seen = vec![false; per_proc.len()];
    per_proc.iter().all(|pp| {
        let z = pp.proc.zero_based();
        z < seen.len() && !std::mem::replace(&mut seen[z], true)
    })
}

/// Coalesce a sorted-deduplicated index list into `(start, len)` ranges so
/// a contiguous corruption yields one diagnostic, not one per element.
fn coalesce(mut xs: Vec<usize>) -> Vec<(usize, usize)> {
    xs.sort_unstable();
    xs.dedup();
    let mut out: Vec<(usize, usize)> = Vec::new();
    for x in xs {
        match out.last_mut() {
            Some((s, l)) if *s + *l == x => *l += 1,
            _ => out.push((x, 1)),
        }
    }
    out
}

/// Statically verify `plan` against the statement and mappings it claims
/// to implement: prove (or refute, with precise coordinates) write
/// coverage, bounds, race freedom, and conservation of its runs.
///
/// The pass re-derives every schedule entry from `arrays`' mappings and
/// `stmt`, so it costs about as much as one inspection — run it at plan
/// build/insertion time (as [`crate::PlanCache`] does), never on the warm
/// replay path.
pub fn verify_plan(
    arrays: &[DistArray<f64>],
    stmt: &Assignment,
    plan: &ExecPlan,
) -> StatementReport {
    let statement = stmt.to_string();
    let mut diags: Vec<Diagnostic> = Vec::new();
    let push = |property: Property, kind: DiagnosticKind, diags: &mut Vec<Diagnostic>| {
        diags.push(Diagnostic { property, kind });
    };

    // Precondition: the plan must still be bound to these mappings —
    // otherwise none of the extents below mean anything.
    for (k, id) in plan.mappings() {
        if !arrays.get(*k).is_some_and(|a| id.is(a.mapping())) {
            push(Property::Bounds, DiagnosticKind::StaleMapping { array: *k }, &mut diags);
        }
    }
    if !diags.is_empty() {
        return StatementReport {
            statement,
            verdict: AnalysisVerdict::Divergent,
            diagnostics: diags,
            stats: VerifyStats::default(),
        };
    }

    let lhs_arr = &arrays[plan.lhs()];
    let np = lhs_arr.np();
    let mut stats = VerifyStats { procs: np, ..VerifyStats::default() };

    // ---- race freedom (a): worker partition --------------------------------
    let mut driven = vec![false; np];
    for pp in plan.per_proc() {
        let z = pp.proc.zero_based();
        if z >= np {
            push(
                Property::Bounds,
                DiagnosticKind::WorkerOutOfRange { proc: z as u32, np },
                &mut diags,
            );
        } else if std::mem::replace(&mut driven[z], true) {
            push(
                Property::RaceFreedom,
                DiagnosticKind::DuplicateWorker { proc: z as u32 },
                &mut diags,
            );
        }
    }
    for (z, has) in driven.iter().enumerate() {
        if !has {
            let vol = project_region(lhs_arr.region_of(ProcId(z as u32 + 1)), &stmt.lhs_section)
                .volume_disjoint();
            if vol > 0 {
                push(
                    Property::WriteCoverage,
                    DiagnosticKind::WorkerMissing { proc: z as u32, expected_volume: vol },
                    &mut diags,
                );
            }
        }
    }

    // Elements the remote gather runs move per (sender, receiver) pair —
    // the statement's wire traffic, held to the analysis below.
    let mut wire: BTreeMap<(u32, u32), u64> = BTreeMap::new();

    // ---- per-processor schedules -------------------------------------------
    for pp in plan.per_proc() {
        let p = pp.proc;
        let me = p.zero_based() as u32;
        if p.zero_based() >= np {
            continue; // already diagnosed above; extents below would panic
        }
        let positions = project_region(lhs_arr.region_of(p), &stmt.lhs_section);
        let rels: Vec<Idx> = positions.iter().collect();
        let volume = rels.len();
        if pp.volume != volume {
            push(
                Property::WriteCoverage,
                DiagnosticKind::VolumeMismatch {
                    proc: me,
                    declared: pp.volume,
                    expected: volume,
                },
                &mut diags,
            );
        }

        // -- write coverage + store bounds --
        let expected: Vec<usize> = rels
            .iter()
            .map(|rel| {
                lhs_arr
                    .local_offset(p, &stmt.lhs_index(rel))
                    .expect("owner holds its owned section")
            })
            .collect();
        let extent = lhs_arr.local_len(p);
        let mut seen_pos = vec![false; volume];
        let mut wrote = vec![false; extent];
        let mut overlaps = Vec::new();
        for (ri, r) in pp.lhs_runs.iter().enumerate() {
            stats.store_runs += 1;
            if r.pos + r.len > volume {
                push(
                    Property::Bounds,
                    DiagnosticKind::StoreRunBeyondVolume {
                        proc: me,
                        run: ri,
                        end: r.pos + r.len,
                        volume,
                    },
                    &mut diags,
                );
                continue;
            }
            if r.dst_off + r.len > extent {
                push(
                    Property::Bounds,
                    DiagnosticKind::StoreRunOutOfBounds {
                        proc: me,
                        run: ri,
                        end: r.dst_off + r.len,
                        extent,
                    },
                    &mut diags,
                );
                continue;
            }
            let mut strayed = false;
            for i in 0..r.len {
                let (pos, off) = (r.pos + i, r.dst_off + i);
                if std::mem::replace(&mut seen_pos[pos], true)
                    | std::mem::replace(&mut wrote[off], true)
                {
                    overlaps.push(off);
                }
                if expected[pos] != off && !strayed {
                    strayed = true; // one stray diagnostic per run
                    push(
                        Property::WriteCoverage,
                        DiagnosticKind::StrayWrite {
                            proc: me,
                            run: ri,
                            offset: off,
                            expected: expected[pos],
                        },
                        &mut diags,
                    );
                }
            }
        }
        for (offset, len) in coalesce(overlaps) {
            push(
                Property::WriteCoverage,
                DiagnosticKind::CoverageOverlap { proc: me, offset, len },
                &mut diags,
            );
        }
        let gaps: Vec<usize> = (0..volume).filter(|&k| !seen_pos[k]).map(|k| expected[k]).collect();
        for (offset, len) in coalesce(gaps) {
            push(
                Property::WriteCoverage,
                DiagnosticKind::CoverageGap { proc: me, offset, len },
                &mut diags,
            );
        }

        // -- gather bounds + correctness + pack happens-before --
        // per term, the (source, offset) its gather runs name for every
        // computed position — what the compute pieces are held to below
        /// `(source processor, offset, read in place)` per computed
        /// position; `None` where no gather run fills it.
        type Sources = Vec<Option<(u32, usize, bool)>>;
        let mut gathered: Vec<Option<Sources>> = vec![None; pp.terms.len()];
        for (t, ts) in pp.terms.iter().enumerate() {
            let Some(term) = stmt.terms.get(t) else { continue };
            if ts.array != term.array {
                push(
                    Property::Bounds,
                    DiagnosticKind::TermArrayMismatch {
                        proc: me,
                        term: t,
                        declared: ts.array,
                        expected: term.array,
                    },
                    &mut diags,
                );
                continue;
            }
            if ts.elements != volume {
                push(
                    Property::Bounds,
                    DiagnosticKind::TermBufferMismatch {
                        proc: me,
                        term: t,
                        elements: ts.elements,
                        volume,
                    },
                    &mut diags,
                );
            }
            let src_arr = &arrays[ts.array];
            let mut filled: Sources = vec![None; ts.elements];
            let mut pack_overlaps = Vec::new();
            let mut remote = 0usize;
            for (ri, r) in ts.runs.iter().enumerate() {
                stats.copy_runs += 1;
                if (r.src as usize) >= np {
                    push(
                        Property::Bounds,
                        DiagnosticKind::InvalidSourceProc {
                            proc: me,
                            term: t,
                            run: ri,
                            src: r.src,
                            np,
                        },
                        &mut diags,
                    );
                    continue;
                }
                let src = ProcId(r.src + 1);
                let src_end = span_end(r.src_off, r.src_stride, r.len);
                if src_end > src_arr.local_len(src) {
                    push(
                        Property::Bounds,
                        DiagnosticKind::CopyRunOutOfBounds {
                            proc: me,
                            term: t,
                            run: ri,
                            end: src_end,
                            extent: src_arr.local_len(src),
                        },
                        &mut diags,
                    );
                    continue;
                }
                let dst_end = span_end(r.dst_off, r.dst_stride, r.len);
                if dst_end > ts.elements {
                    push(
                        Property::Bounds,
                        DiagnosticKind::PackRunOutOfBounds {
                            proc: me,
                            term: t,
                            run: ri,
                            end: dst_end,
                            extent: ts.elements,
                        },
                        &mut diags,
                    );
                    continue;
                }
                if r.src != me {
                    remote += r.len;
                    *wire.entry((r.src, me)).or_default() += r.len as u64;
                }
                let in_place = ts.in_place(r, me);
                let mut wrong = false;
                for i in 0..r.len {
                    let (k, off) = (r.dst_off + i * r.dst_stride, r.src_off + i * r.src_stride);
                    if filled[k].replace((r.src, off, in_place)).is_some() {
                        pack_overlaps.push(k);
                    }
                    if !wrong && k < volume {
                        let gi = stmt.rhs_index(t, &rels[k]);
                        if src_arr.local_offset(src, &gi) != Some(off) {
                            wrong = true; // one wrong-element diagnostic per run
                            push(
                                Property::Bounds,
                                DiagnosticKind::GatherWrongElement {
                                    proc: me,
                                    term: t,
                                    pos: k,
                                    src: r.src,
                                    offset: off,
                                },
                                &mut diags,
                            );
                        }
                    }
                }
            }
            if remote != ts.ghost_elements {
                push(
                    Property::Conservation,
                    DiagnosticKind::TermGhostMismatch {
                        proc: me,
                        term: t,
                        declared: ts.ghost_elements,
                        actual: remote,
                    },
                    &mut diags,
                );
            }
            for (offset, len) in coalesce(pack_overlaps) {
                push(
                    Property::RaceFreedom,
                    DiagnosticKind::PackOverlap { proc: me, term: t, offset, len },
                    &mut diags,
                );
            }
            let gaps: Vec<usize> =
                (0..ts.elements).filter(|&k| filled[k].is_none()).collect();
            for (offset, len) in coalesce(gaps) {
                push(
                    Property::RaceFreedom,
                    DiagnosticKind::PackGap { proc: me, term: t, offset, len },
                    &mut diags,
                );
            }
            gathered[t] = Some(filled);
        }

        // -- compute-piece table: what the kernel actually walks --
        let nt = pp.terms.len();
        if pp.piece_srcs.len() != pp.pieces.len() * nt {
            push(
                Property::Bounds,
                DiagnosticKind::PieceTableMalformed {
                    proc: me,
                    pieces: pp.pieces.len(),
                    sources: pp.piece_srcs.len(),
                    terms: nt,
                },
                &mut diags,
            );
            continue; // the source lookups below would index out of extent
        }
        let pieces = pp.effective_pieces();
        let refined = !pp.pieces.is_empty(); // else `lhs_runs`, checked above
        let mut next = 0usize;
        let mut stored_array_read = vec![false; nt];
        let mut unpacked: Vec<Vec<usize>> = vec![Vec::new(); nt];
        for (i, piece) in pieces.iter().enumerate() {
            if refined && piece.pos != next {
                push(
                    Property::WriteCoverage,
                    DiagnosticKind::PieceTilingMismatch {
                        proc: me,
                        piece: i,
                        pos: piece.pos,
                        expected: next,
                    },
                    &mut diags,
                );
            }
            next = piece.pos + piece.len;
            if next > volume {
                continue; // diagnosed by the tiling check (or as a store run)
            }
            if refined {
                if let Some(k) =
                    (0..piece.len).find(|&k| expected[piece.pos + k] != piece.dst_off + k)
                {
                    push(
                        Property::WriteCoverage,
                        DiagnosticKind::PieceStoreMismatch {
                            proc: me,
                            piece: i,
                            offset: piece.dst_off + k,
                            expected: expected[piece.pos + k],
                        },
                        &mut diags,
                    );
                }
            }
            for (t, ts) in pp.terms.iter().enumerate() {
                let Some(named) = &gathered[t] else { continue };
                let named = |k: usize| named.get(piece.pos + k).copied().flatten();
                match pp.piece_src(i, t) {
                    PieceSrc::Own(off) => {
                        if ts.array == plan.lhs()
                            && !std::mem::replace(&mut stored_array_read[t], true)
                        {
                            push(
                                Property::RaceFreedom,
                                DiagnosticKind::DirectReadsStoredArray {
                                    proc: me,
                                    term: t,
                                    array: ts.array,
                                },
                                &mut diags,
                            );
                        }
                        let extent = arrays[ts.array].local_len(p);
                        if off + piece.len > extent {
                            push(
                                Property::Bounds,
                                DiagnosticKind::DirectSourceOutOfShard {
                                    proc: me,
                                    term: t,
                                    piece: i,
                                    end: off + piece.len,
                                    extent,
                                },
                                &mut diags,
                            );
                        } else if let Some(k) = (0..piece.len)
                            // only the runs the stage phase skips are an
                            // in-place source
                            .find(|&k| named(k) != Some((me, off + k, true)))
                        {
                            push(
                                Property::Bounds,
                                DiagnosticKind::DirectSourceMismatch {
                                    proc: me,
                                    term: t,
                                    piece: i,
                                    pos: piece.pos + k,
                                    offset: off + k,
                                },
                                &mut diags,
                            );
                        }
                    }
                    PieceSrc::Packed => unpacked[t].extend(
                        (0..piece.len)
                            .filter(|&k| named(k).is_some_and(|(_, _, in_place)| in_place))
                            .map(|k| piece.pos + k),
                    ),
                }
            }
        }
        if refined && next != volume {
            push(
                Property::WriteCoverage,
                DiagnosticKind::PieceTilingMismatch {
                    proc: me,
                    piece: pieces.len(),
                    pos: next,
                    expected: volume,
                },
                &mut diags,
            );
        }
        for (t, positions) in unpacked.into_iter().enumerate() {
            for (offset, len) in coalesce(positions) {
                push(
                    Property::RaceFreedom,
                    DiagnosticKind::UnpackedLocalRead { proc: me, term: t, offset, len },
                    &mut diags,
                );
            }
        }
    }

    // ---- conservation ------------------------------------------------------
    let planned: u64 = wire.values().sum();
    stats.wire_elements = planned;
    let analysis = plan.analysis();
    let verdict = if !analysis.region_exact {
        // Replication: the analysis models first-owner-computes plus a
        // result broadcast while execution has every replica compute, so
        // the comparison is inapplicable by design. Reported, not skipped.
        AnalysisVerdict::ReplicatedDivergence
    } else {
        let before = diags.len();
        // both directions: a pair the runs move and the analysis prices
        // differently, and a pair the analysis froze that no run serves
        let unserved = analysis
            .comm
            .iter()
            .map(|(src, dst, _)| (src.zero_based() as u32, dst.zero_based() as u32))
            .filter(|pair| !wire.contains_key(pair));
        for (sender, receiver) in wire.keys().copied().chain(unserved) {
            let moved = wire.get(&(sender, receiver)).copied().unwrap_or(0);
            let froze = analysis.comm.elements_between(ProcId(sender + 1), ProcId(receiver + 1));
            if moved != froze {
                push(
                    Property::Conservation,
                    DiagnosticKind::AnalysisPairMismatch {
                        sender,
                        receiver,
                        planned: moved,
                        analysis: froze,
                    },
                    &mut diags,
                );
            }
        }
        if planned != analysis.comm.total_elements() {
            push(
                Property::Conservation,
                DiagnosticKind::AnalysisTotalMismatch {
                    planned,
                    analysis: analysis.comm.total_elements(),
                },
                &mut diags,
            );
        }
        if planned != analysis.remote_reads {
            push(
                Property::Conservation,
                DiagnosticKind::GhostTotalMismatch { planned, analysis: analysis.remote_reads },
                &mut diags,
            );
        }
        if diags.len() == before {
            AnalysisVerdict::Exact
        } else {
            AnalysisVerdict::Divergent
        }
    };

    StatementReport { statement, verdict, diagnostics: diags, stats }
}

/// The verifier's result for one fused [`ProgramPlan`](crate::ProgramPlan): the DAG's
/// denominators plus zero or more refuting diagnostics. A report with no
/// diagnostics proves (by re-derivation from the constituent schedules)
/// that the fusion preserved the per-statement semantics: no
/// same-superstep hazard, segment-for-segment conservation across
/// coalescing, sound pack phases, and dirty flags that exactly match the
/// store schedules.
#[derive(Debug, Clone, Default)]
pub struct FusionReport {
    /// Statements in the fused plan.
    pub statements: usize,
    /// Superstep levels.
    pub supersteps: usize,
    /// Coalesced pairs checked.
    pub pairs: usize,
    /// Coalesced segments checked.
    pub segments: usize,
    /// Every property violation found.
    pub diagnostics: Vec<Diagnostic>,
}

impl FusionReport {
    /// True iff no property was refuted.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Findings refuting one specific property.
    pub fn findings_for(&self, property: Property) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.property == property)
    }
}

impl fmt::Display for FusionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "timestep plan [{} statements, {} supersteps, {} pairs, {} segments]",
            self.statements, self.supersteps, self.pairs, self.segments,
        )?;
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

/// Statically verify a [`ProgramPlan`](crate::ProgramPlan) — the
/// messages a timestep actually packs and sends — against the statements
/// and mappings it claims to implement, *on top of* [`verify_plan`] (which
/// proves each constituent plan's gather runs):
///
/// * **race freedom** — no two statements fused into one superstep have a
///   RAW or WAW conflict; every pair's pack phase equals the earliest
///   superstep past all of its in-timestep writers and does not exceed
///   its home superstep; every dirty-tracking unit's static
///   `intra_dirty`/`post_dirty` flags match a re-derivation from the
///   store schedules (unsound flags would let ghost reuse skip data a
///   statement rewrites). A plan compiled unfused is held to the
///   per-statement schedule instead: statement `s` alone in superstep
///   `s`, home-phase packing, every unit re-sent every timestep;
/// * **deadlock freedom** — the fused pairs form a schedulable exchange:
///   no self-message, every processor inside the machine, a strict
///   `(superstep, sender, receiver)` order, no empty message, and the
///   coalesced segments are exactly (as a multiset of element flows) the
///   remote gather runs of the constituent plans — every send is a receive
///   some gather expects, every expected receive is sent;
/// * **conservation** — each fused pair's declared element count equals
///   the sum of its coalesced segments, summed across the statements the
///   pair serves;
/// * **bounds** — every coalesced segment reads inside the sending shard.
///
/// Like [`verify_plan`], this is a re-derivation pass run by
/// [`Program::verify_all`](crate::Program::verify_all) and at plan
/// insertion (see [`crate::PlanCache`]), never on the warm replay path.
pub fn verify_program_plan(
    arrays: &[DistArray<f64>],
    stmts: &[Assignment],
    plan: &crate::fuse::ProgramPlan,
) -> FusionReport {
    use crate::fuse::merge_intervals;

    let mut diags: Vec<Diagnostic> = Vec::new();
    let push = |property: Property, kind: DiagnosticKind, diags: &mut Vec<Diagnostic>| {
        diags.push(Diagnostic { property, kind });
    };
    let mut report = FusionReport {
        statements: stmts.len(),
        supersteps: plan.supersteps().len(),
        pairs: plan.pairs().len(),
        segments: 0,
        ..FusionReport::default()
    };

    if plan.plans().len() != stmts.len() {
        push(
            Property::Bounds,
            DiagnosticKind::FusedShapeMismatch {
                statements: stmts.len(),
                plans: plan.plans().len(),
            },
            &mut diags,
        );
        report.diagnostics = diags;
        return report;
    }
    // the constituent plans must still be bound to these mappings —
    // otherwise none of the extents or store schedules mean anything
    for p in plan.plans() {
        for (k, id) in p.mappings() {
            if !arrays.get(*k).is_some_and(|a| id.is(a.mapping())) {
                push(
                    Property::Bounds,
                    DiagnosticKind::StaleMapping { array: *k },
                    &mut diags,
                );
            }
        }
    }
    if !diags.is_empty() {
        report.diagnostics = diags;
        return report;
    }

    // ---- re-derive the level schedule and per-statement store intervals ----
    // The plan's recorded mode says *which* schedule to re-derive; its
    // levels, phases and flags are never read, only compared against.
    // Unfused: one superstep per statement, every message packed at its
    // home superstep, every unit re-sent every timestep.
    let fused = plan.fused();
    let n = stmts.len();
    let mut level: Vec<usize> = if fused { vec![0; n] } else { (0..n).collect() };
    for s in (0..n).filter(|_| fused) {
        for r in 0..s {
            let raw = stmts[s].terms.iter().any(|t| t.array == stmts[r].lhs);
            let waw = stmts[s].lhs == stmts[r].lhs;
            // WAR: a writer may share its earlier reader's superstep but
            // must never be hoisted before it
            let war = stmts[r].terms.iter().any(|t| t.array == stmts[s].lhs);
            if raw || waw {
                level[s] = level[s].max(level[r] + 1);
            } else if war {
                level[s] = level[s].max(level[r]);
            }
        }
    }
    let np = plan.np();
    let writes: Vec<Vec<Vec<(usize, usize)>>> = plan
        .plans()
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

    // ---- race freedom (a): no same-superstep RAW/WAW --------------------
    for (j, step) in plan.supersteps().iter().enumerate() {
        for (i, &s) in step.stmts.iter().enumerate() {
            if level[s] != j {
                // a statement on the wrong level conflicts with whatever
                // forced its re-derived level
                push(
                    Property::RaceFreedom,
                    DiagnosticKind::FusedHazard {
                        superstep: j,
                        earlier: s,
                        later: s,
                        array: stmts[s].lhs,
                    },
                    &mut diags,
                );
            }
            for &r in &step.stmts[..i] {
                let raw = stmts[s].terms.iter().any(|t| t.array == stmts[r].lhs);
                let waw = stmts[s].lhs == stmts[r].lhs;
                if raw || waw {
                    push(
                        Property::RaceFreedom,
                        DiagnosticKind::FusedHazard {
                            superstep: j,
                            earlier: r,
                            later: s,
                            array: if waw { stmts[s].lhs } else { stmts[r].lhs },
                        },
                        &mut diags,
                    );
                }
            }
        }
    }

    // ---- deadlock freedom: fused segments ≡ remote gather runs ----------
    // the fused plan regroups and *splits* the receivers' remote runs
    // (dirty-tracking units are per homogeneous write stretch), but the
    // element flow must be identical — so both sides are normalized to
    // maximal (src → dst) progressions per (stmt, sender, receiver, term,
    // array) and compared as multisets
    type RunKey = (usize, u32, u32, usize, usize);
    /// A strided (src → dst) run; `pair`/`segment` ride along for
    /// diagnostics and are ignored by merging.
    #[derive(Clone, Copy)]
    struct Run {
        src: (usize, usize),
        dst: (usize, usize),
        len: usize,
        pair: usize,
        segment: usize,
    }
    /// The run minus its diagnostic coordinates — what the multisets hold.
    type Flow = ((usize, usize), (usize, usize), usize);
    /// Merge runs that continue one another. A piece split off a
    /// progression keeps its strides, so the pieces of one progression
    /// share the direction `(src stride, dst stride)` and the line they
    /// lie on in `(src, dst)` space — `src·dst_stride − dst·src_stride` is
    /// constant along it — and sort next to each other by source offset.
    fn normalize(mut runs: Vec<Run>) -> Vec<Run> {
        let line = |r: &Run| {
            // wrapping: only a corrupted entry can overflow, and the merge
            // below re-checks adjacency exactly
            let cross = (r.src.0 as i128)
                .wrapping_mul(r.dst.1 as i128)
                .wrapping_sub((r.dst.0 as i128).wrapping_mul(r.src.1 as i128));
            (r.src.1, r.dst.1, cross, r.src.0)
        };
        runs.sort_unstable_by_key(line);
        let mut out: Vec<Run> = Vec::new();
        for r in runs {
            if let Some(last) = out.last_mut() {
                if (last.src.1, last.dst.1) == (r.src.1, r.dst.1)
                    && span_end(last.src.0, last.src.1, last.len + 1) == r.src.0.saturating_add(1)
                    && span_end(last.dst.0, last.dst.1, last.len + 1) == r.dst.0.saturating_add(1)
                {
                    last.len += r.len;
                    continue;
                }
            }
            out.push(r);
        }
        out
    }
    let mut expected_runs: HashMap<RunKey, Vec<Run>> = HashMap::new();
    for (s, p) in plan.plans().iter().enumerate() {
        for pp in p.per_proc() {
            let me = pp.proc.zero_based() as u32;
            for (t, ts, r) in pp.remote_runs() {
                expected_runs.entry((s, r.src, me, t, ts.array)).or_default().push(Run {
                    src: (r.src_off, r.src_stride),
                    dst: (r.dst_off, r.dst_stride),
                    len: r.len,
                    pair: 0,
                    segment: 0,
                });
            }
        }
    }
    let mut fused_runs: HashMap<RunKey, Vec<Run>> = HashMap::new();
    let mut prev: Option<(usize, u32, u32)> = None;
    for (k, pair) in plan.pairs().iter().enumerate() {
        // pair shape: what every rank's send/receive posting order rests on
        let key = (pair.superstep, pair.sender, pair.receiver);
        if prev.is_some_and(|p| p >= key) {
            push(Property::DeadlockFreedom, DiagnosticKind::UnorderedPairs { pair: k }, &mut diags);
        }
        prev = Some(key);
        if pair.sender == pair.receiver {
            push(
                Property::DeadlockFreedom,
                DiagnosticKind::SelfMessage { pair: k, proc: pair.sender },
                &mut diags,
            );
        }
        if pair.segments.is_empty() {
            push(
                Property::DeadlockFreedom,
                DiagnosticKind::EmptyMessage { sender: pair.sender, receiver: pair.receiver },
                &mut diags,
            );
        }
        let mut in_machine = true;
        for proc in [pair.sender, pair.receiver] {
            if proc as usize >= np {
                push(
                    Property::DeadlockFreedom,
                    DiagnosticKind::InvalidPairProc { pair: k, proc, np },
                    &mut diags,
                );
                in_machine = false;
            }
        }
        let actual: usize = pair.segments.iter().map(|s| s.len).sum();
        if actual != pair.elements {
            push(
                Property::Conservation,
                DiagnosticKind::FusedPairMismatch { pair: k, declared: pair.elements, actual },
                &mut diags,
            );
        }
        let mut required_phase = 0usize;
        for (si, seg) in pair.segments.iter().enumerate() {
            // the masks of the replay state are indexed by flat position
            if seg.unit != report.segments {
                push(
                    Property::RaceFreedom,
                    DiagnosticKind::FusedUnitMismatch { pair: k, segment: si, unit: seg.unit },
                    &mut diags,
                );
            }
            report.segments += 1;
            if !fused {
                required_phase = required_phase.max(level.get(seg.stmt).copied().unwrap_or(0));
            }
            fused_runs
                .entry((seg.stmt, pair.sender, pair.receiver, seg.term, seg.array))
                .or_default()
                .push(Run {
                    src: (seg.src_off, seg.src_stride),
                    dst: (seg.dst_off, seg.dst_stride),
                    len: seg.len,
                    pair: k,
                    segment: si,
                });
            let Some(arr) = arrays.get(seg.array).filter(|_| in_machine) else {
                continue; // the shard lookups below would index outside the machine
            };
            // bounds: the sender must be able to read every source element
            let src_end = span_end(seg.src_off, seg.src_stride, seg.len);
            let extent = arr.local_len(ProcId(pair.sender + 1));
            if src_end > extent {
                push(
                    Property::Bounds,
                    DiagnosticKind::SegmentOutOfBounds {
                        sender: pair.sender,
                        receiver: pair.receiver,
                        segment: si,
                        end: src_end,
                        extent,
                    },
                    &mut diags,
                );
            }
            // re-derive the writer split from the store schedules: a
            // writer counts iff one of its store intervals holds an
            // element of the source progression — exactly, so a store
            // between two strided elements is no writer
            let Ok(source) =
                Triplet::new(seg.src_off as i64, src_end as i64 - 1, seg.src_stride as i64)
            else {
                continue; // a zero stride: refuted as an orphan flow below
            };
            let (mut intra, mut post) = (!fused, false);
            for (w, stmt) in stmts.iter().enumerate() {
                let written = &writes[w][pair.sender as usize];
                let near = written.partition_point(|&(_, e)| e <= seg.src_off);
                if stmt.lhs != seg.array
                    || written[near..].iter().take_while(|&&(s, _)| s < src_end).all(|&(s, e)| {
                        source.is_disjoint(&Triplet::unit(s as i64, e as i64 - 1))
                    })
                {
                    continue;
                }
                if level[w] < pair.superstep {
                    intra = true;
                    required_phase = required_phase.max(level[w] + 1);
                } else {
                    post = true;
                }
            }
            if seg.intra_dirty != intra || seg.post_dirty != post {
                push(
                    Property::RaceFreedom,
                    DiagnosticKind::FusedDirtyUnsound {
                        unit: seg.unit,
                        intra: seg.intra_dirty,
                        post: seg.post_dirty,
                        expected_intra: intra,
                        expected_post: post,
                    },
                    &mut diags,
                );
            }
        }
        // pack phase: exactly past every in-timestep writer, never past
        // the home superstep
        if in_machine && (pair.pack_phase != required_phase || pair.pack_phase > pair.superstep) {
            push(
                Property::RaceFreedom,
                DiagnosticKind::FusedPhaseRace {
                    pair: k,
                    declared: pair.pack_phase,
                    required: required_phase,
                    superstep: pair.superstep,
                },
                &mut diags,
            );
        }
    }
    // normalized comparison: every fused run must be a gather run, every
    // gather run must be shipped
    let mut expected_norm: HashMap<(RunKey, Flow), usize> = HashMap::new();
    for (key, runs) in expected_runs {
        for r in normalize(runs) {
            *expected_norm.entry((key, (r.src, r.dst, r.len))).or_insert(0) += 1;
        }
    }
    let mut fused_keys: Vec<RunKey> = fused_runs.keys().copied().collect();
    fused_keys.sort_unstable();
    for key in fused_keys {
        for r in normalize(fused_runs.remove(&key).unwrap()) {
            match expected_norm.get_mut(&(key, (r.src, r.dst, r.len))) {
                Some(c) if *c > 0 => *c -= 1,
                _ => push(
                    Property::DeadlockFreedom,
                    DiagnosticKind::FusedSegmentOrphan { pair: r.pair, segment: r.segment },
                    &mut diags,
                ),
            }
        }
    }
    // gather runs the fused plan never ships
    let mut missing: Vec<(RunKey, Flow)> = expected_norm
        .into_iter()
        .filter(|&(_, c)| c > 0)
        .map(|(k, _)| k)
        .collect();
    missing.sort_unstable();
    for ((stmt, sender, receiver, _term, _array), (_src, _dst, len)) in missing {
        push(
            Property::DeadlockFreedom,
            DiagnosticKind::FusedSegmentMissing { stmt, sender, receiver, len },
            &mut diags,
        );
    }

    report.diagnostics = diags;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::{Combine, Term};
    use crate::fuse::{FusedPair, FusedSegment, ProgramPlan};
    use hpf_core::{DataSpace, DistributeSpec, FormatSpec};
    use hpf_index::{span, IndexDomain, Section};
    use std::sync::Arc;

    /// BLOCK → CYCLIC(3) shift: plenty of remote traffic, several pairs.
    fn setup(n: usize, np: usize) -> (Vec<DistArray<f64>>, Assignment) {
        setup_with(n, np, FormatSpec::Block, FormatSpec::Cyclic(3))
    }

    /// `A(2:n) = B(1:n-1)` with `A` and `B` distributed as given.
    fn setup_with(
        n: usize,
        np: usize,
        lhs: FormatSpec,
        rhs: FormatSpec,
    ) -> (Vec<DistArray<f64>>, Assignment) {
        let mut ds = DataSpace::new(np);
        let a = ds.declare("A", IndexDomain::of_shape(&[n]).unwrap()).unwrap();
        let b = ds.declare("B", IndexDomain::of_shape(&[n]).unwrap()).unwrap();
        ds.distribute(a, &DistributeSpec::new(vec![lhs])).unwrap();
        ds.distribute(b, &DistributeSpec::new(vec![rhs])).unwrap();
        let arrays = vec![
            DistArray::from_fn("A", ds.effective(a).unwrap(), np, |i| i[0] as f64),
            DistArray::from_fn("B", ds.effective(b).unwrap(), np, |i| (i[0] * 7) as f64),
        ];
        let doms: Vec<&IndexDomain> = arrays.iter().map(|x| x.domain()).collect();
        let ni = n as i64;
        let stmt = Assignment::new(
            0,
            Section::from_triplets(vec![span(2, ni)]),
            vec![Term::new(1, Section::from_triplets(vec![span(1, ni - 1)]))],
            Combine::Copy,
            &doms,
        )
        .unwrap();
        (arrays, stmt)
    }

    fn kinds(report: &StatementReport) -> Vec<&DiagnosticKind> {
        report.diagnostics.iter().map(|d| &d.kind).collect()
    }

    #[test]
    fn clean_plan_proves_all_five_properties() {
        let (arrays, stmt) = setup(40, 4);
        let plan = ExecPlan::inspect(&arrays, &stmt).unwrap();
        let report = verify_plan(&arrays, &stmt, &plan);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.verdict, AnalysisVerdict::Exact);
        assert_eq!(report.stats.procs, 4);
        assert!(report.stats.store_runs > 0);
        assert!(report.stats.copy_runs > 0);
        assert!(report.stats.wire_elements > 0);
        // Display renders the statement plus the stats line, no findings
        let shown = report.to_string();
        assert!(shown.contains("exact"), "{shown}");
    }

    #[test]
    fn dropped_store_run_is_a_coverage_gap() {
        let (arrays, stmt) = setup(40, 4);
        let mut plan = ExecPlan::inspect(&arrays, &stmt).unwrap();
        let pp = plan.per_proc_mut().iter_mut().find(|pp| !pp.lhs_runs.is_empty()).unwrap();
        pp.lhs_runs.pop().unwrap();
        let report = verify_plan(&arrays, &stmt, &plan);
        assert!(
            kinds(&report).iter().any(|k| matches!(k, DiagnosticKind::CoverageGap { .. })),
            "{report}"
        );
        assert!(report
            .findings_for(Property::WriteCoverage)
            .next()
            .is_some());
    }

    #[test]
    fn duplicated_store_run_is_a_coverage_overlap() {
        let (arrays, stmt) = setup(40, 4);
        let mut plan = ExecPlan::inspect(&arrays, &stmt).unwrap();
        let pp = plan.per_proc_mut().iter_mut().find(|pp| !pp.lhs_runs.is_empty()).unwrap();
        let dup = pp.lhs_runs[0];
        pp.lhs_runs.push(dup);
        let report = verify_plan(&arrays, &stmt, &plan);
        assert!(
            kinds(&report)
                .iter()
                .any(|k| matches!(k, DiagnosticKind::CoverageOverlap { .. })),
            "{report}"
        );
    }

    #[test]
    fn store_run_past_shard_extent_is_caught() {
        let (arrays, stmt) = setup(40, 4);
        let mut plan = ExecPlan::inspect(&arrays, &stmt).unwrap();
        let pp = plan.per_proc_mut().iter_mut().find(|pp| !pp.lhs_runs.is_empty()).unwrap();
        pp.lhs_runs[0].dst_off = usize::MAX / 2; // far past any extent
        let report = verify_plan(&arrays, &stmt, &plan);
        assert!(
            kinds(&report)
                .iter()
                .any(|k| matches!(k, DiagnosticKind::StoreRunOutOfBounds { .. })),
            "{report}"
        );
    }

    #[test]
    fn copy_run_shifted_out_of_bounds_is_caught() {
        let (arrays, stmt) = setup(40, 4);
        let mut plan = ExecPlan::inspect(&arrays, &stmt).unwrap();
        let r = plan.per_proc_mut()[0].terms[0].runs.first_mut().unwrap();
        r.src_off = usize::MAX / 2;
        let report = verify_plan(&arrays, &stmt, &plan);
        assert!(
            kinds(&report)
                .iter()
                .any(|k| matches!(k, DiagnosticKind::CopyRunOutOfBounds { .. })),
            "{report}"
        );
    }

    #[test]
    fn copy_run_shifted_within_bounds_reads_wrong_element() {
        let (arrays, stmt) = setup(40, 4);
        let mut plan = ExecPlan::inspect(&arrays, &stmt).unwrap();
        // pick a local run with room to shift down: stays inside the
        // shard, but no longer addresses the statement-named element
        let shifted = plan
            .per_proc_mut()
            .iter_mut()
            .flat_map(|pp| {
                let me = pp.proc.zero_based() as u32;
                pp.terms[0].runs.iter_mut().filter(move |r| r.src == me)
            })
            .find(|r| r.src_off > 0)
            .expect("some local gather starts past offset 0");
        shifted.src_off -= 1;
        let report = verify_plan(&arrays, &stmt, &plan);
        assert!(
            kinds(&report)
                .iter()
                .any(|k| matches!(k, DiagnosticKind::GatherWrongElement { .. })),
            "{report}"
        );
    }

    /// The one-statement program plan of `stmt` — the messages that execute.
    fn fused(arrays: &[DistArray<f64>], stmt: &Assignment) -> ProgramPlan {
        let plan = Arc::new(ExecPlan::inspect(arrays, stmt).unwrap());
        let fused = ProgramPlan::compile(std::slice::from_ref(stmt), vec![plan], true);
        assert!(verify_program_plan(arrays, std::slice::from_ref(stmt), &fused).is_clean());
        fused
    }

    fn fused_kinds(
        arrays: &[DistArray<f64>],
        stmt: &Assignment,
        plan: &ProgramPlan,
    ) -> Vec<DiagnosticKind> {
        let report = verify_program_plan(arrays, std::slice::from_ref(stmt), plan);
        report.diagnostics.into_iter().map(|d| d.kind).collect()
    }

    #[test]
    fn orphaned_pair_schedule_is_caught() {
        let (arrays, stmt) = setup(40, 4);
        let mut plan = fused(&arrays, &stmt);
        let unit = plan.segments().count();
        plan.pairs_mut().push(FusedPair {
            sender: 3,
            receiver: 0,
            superstep: 0,
            pack_phase: 0,
            elements: 2,
            segments: vec![FusedSegment {
                stmt: 0,
                term: 0,
                array: 1,
                src_off: 0,
                src_stride: 1,
                dst_off: 0,
                dst_stride: 1,
                len: 2,
                unit,
                intra_dirty: false,
                post_dirty: false,
            }],
        });
        let kinds = fused_kinds(&arrays, &stmt, &plan);
        assert!(
            kinds.iter().any(|k| matches!(k, DiagnosticKind::FusedSegmentOrphan { .. })),
            "{kinds:?}"
        );
    }

    #[test]
    fn corrupted_strides_and_strided_lengths_of_a_segment_are_caught() {
        // CYCLIC(1) B read through BLOCK A (and the reverse) ships one
        // strided segment per pair: whichever of its progression fields is
        // corrupted, the message no longer is what a receiver run expects
        for (lhs, rhs) in [
            (FormatSpec::Block, FormatSpec::Cyclic(1)),
            (FormatSpec::Cyclic(1), FormatSpec::Block),
        ] {
            let (arrays, stmt) = setup_with(64, 4, lhs, rhs);
            let pristine = fused(&arrays, &stmt);
            type Mutation = (&'static str, fn(&mut FusedSegment));
            let mutations: [Mutation; 6] = [
                ("src_stride + 1", |seg| seg.src_stride += 1),
                ("src_stride = 0", |seg| seg.src_stride = 0),
                ("dst_stride + 1", |seg| seg.dst_stride += 1),
                ("dst_stride = 0", |seg| seg.dst_stride = 0),
                ("len - 1", |seg| seg.len -= 1),
                ("array - 1", |seg| seg.array -= 1),
            ];
            for (what, mutate) in mutations {
                let mut plan = pristine.clone();
                let seg = &mut plan.pairs_mut()[0].segments[0];
                assert!(seg.len >= 3 && (seg.src_stride, seg.dst_stride) != (1, 1), "{seg:?}");
                mutate(seg);
                let found = fused_kinds(&arrays, &stmt, &plan);
                assert!(
                    found.iter().any(|k| matches!(k, DiagnosticKind::FusedSegmentOrphan { .. }))
                        && found
                            .iter()
                            .any(|k| matches!(k, DiagnosticKind::FusedSegmentMissing { .. })),
                    "{what}: {found:?}"
                );
            }
            // a stride that walks out of the sender's shard is also a
            // bounds finding of its own
            let mut plan = pristine.clone();
            plan.pairs_mut()[0].segments[0].src_stride += 40;
            let kinds = fused_kinds(&arrays, &stmt, &plan);
            assert!(
                kinds.iter().any(|k| matches!(k, DiagnosticKind::SegmentOutOfBounds { .. })),
                "{kinds:?}"
            );
            // and a unit that is not the segment's flat position would
            // alias another segment's slot of the dirty masks
            let mut plan = pristine.clone();
            plan.pairs_mut()[0].segments[0].unit += 1;
            let kinds = fused_kinds(&arrays, &stmt, &plan);
            assert!(
                kinds.iter().any(|k| matches!(
                    k,
                    DiagnosticKind::FusedUnitMismatch { pair: 0, segment: 0, unit: 1 }
                )),
                "{kinds:?}"
            );
        }
    }

    #[test]
    fn dropped_pair_schedule_is_a_read_before_exchange() {
        let (arrays, stmt) = setup(40, 4);
        let mut plan = fused(&arrays, &stmt);
        let dropped = plan.pairs_mut().remove(0);
        let kinds = fused_kinds(&arrays, &stmt, &plan);
        assert!(
            kinds.iter().any(|k| matches!(
                k,
                DiagnosticKind::FusedSegmentMissing { stmt: 0, sender, receiver, .. }
                    if (*sender, *receiver) == (dropped.sender, dropped.receiver)
            )),
            "{kinds:?}"
        );
    }

    #[test]
    fn skewed_byte_count_is_caught() {
        let (arrays, stmt) = setup(40, 4);
        let mut plan = fused(&arrays, &stmt);
        plan.pairs_mut()[0].elements += 1;
        let kinds = fused_kinds(&arrays, &stmt, &plan);
        assert!(
            kinds.iter().any(|k| matches!(k, DiagnosticKind::FusedPairMismatch { pair: 0, .. })),
            "{kinds:?}"
        );
    }

    #[test]
    fn skewed_wire_total_is_caught() {
        // a skewed ghost tally (what `ExecPlan::wire_elements` reports)
        let (arrays, stmt) = setup(40, 4);
        let mut plan = ExecPlan::inspect(&arrays, &stmt).unwrap();
        plan.per_proc_mut()[1].terms[0].ghost_elements += 7;
        let report = verify_plan(&arrays, &stmt, &plan);
        assert!(
            kinds(&report)
                .iter()
                .any(|k| matches!(k, DiagnosticKind::TermGhostMismatch { proc: 1, term: 0, .. })),
            "{report}"
        );
        // a dropped remote run: its pair, the wire total and the ghost
        // total all fall short of what the analysis froze
        let mut plan = ExecPlan::inspect(&arrays, &stmt).unwrap();
        let runs = &mut plan.per_proc_mut()[1].terms[0].runs;
        let remote = runs.iter().position(|r| r.src != 1).expect("p1 reads ghosts");
        let dropped = runs.remove(remote);
        let report = verify_plan(&arrays, &stmt, &plan);
        assert_eq!(report.verdict, AnalysisVerdict::Divergent);
        let found = kinds(&report);
        assert!(
            found.iter().any(|k| matches!(
                k,
                DiagnosticKind::AnalysisPairMismatch { sender, receiver: 1, .. }
                    if *sender == dropped.src
            )),
            "{report}"
        );
        for want in [
            (|k| matches!(k, DiagnosticKind::AnalysisTotalMismatch { .. }))
                as fn(&DiagnosticKind) -> bool,
            |k| matches!(k, DiagnosticKind::GhostTotalMismatch { .. }),
        ] {
            assert!(found.iter().any(|k| want(k)), "{report}");
        }
    }

    #[test]
    fn duplicate_worker_is_a_race() {
        let (arrays, stmt) = setup(40, 4);
        let mut plan = ExecPlan::inspect(&arrays, &stmt).unwrap();
        let dup = plan.per_proc()[1].clone();
        plan.per_proc_mut().push(dup);
        assert!(!workers_disjoint(plan.per_proc()));
        let report = verify_plan(&arrays, &stmt, &plan);
        assert!(
            kinds(&report)
                .iter()
                .any(|k| matches!(k, DiagnosticKind::DuplicateWorker { proc: 1 })),
            "{report}"
        );
    }

    #[test]
    fn stale_mapping_is_reported_not_dereferenced() {
        let (mut arrays, stmt) = setup(40, 4);
        let plan = ExecPlan::inspect(&arrays, &stmt).unwrap();
        // remap B to a different allocation → verification must stop at
        // the precondition instead of checking meaningless extents
        let (fresh, _) = setup(40, 4);
        arrays[1] = fresh.into_iter().nth(1).unwrap();
        let report = verify_plan(&arrays, &stmt, &plan);
        assert!(
            kinds(&report)
                .iter()
                .any(|k| matches!(k, DiagnosticKind::StaleMapping { array: 1 })),
            "{report}"
        );
    }

    #[test]
    fn replication_verdict_is_reported_and_clean() {
        let dom = IndexDomain::of_shape(&[12]).unwrap();
        let rep = std::sync::Arc::new(hpf_core::EffectiveDist::Replicated {
            domain: dom,
            procs: hpf_core::ProcSet::all(3),
        });
        let mut ds = DataSpace::new(3);
        let b = ds.declare("B", IndexDomain::of_shape(&[12]).unwrap()).unwrap();
        ds.distribute(b, &DistributeSpec::new(vec![FormatSpec::Block])).unwrap();
        let arrays = vec![
            DistArray::new("R", rep, 3, 0.0),
            DistArray::from_fn("B", ds.effective(b).unwrap(), 3, |i| (i[0] * 5) as f64),
        ];
        let doms: Vec<&IndexDomain> = arrays.iter().map(|x| x.domain()).collect();
        let stmt = Assignment::new(
            0,
            Section::from_triplets(vec![span(1, 12)]),
            vec![Term::new(1, Section::from_triplets(vec![span(1, 12)]))],
            Combine::Copy,
            &doms,
        )
        .unwrap();
        let plan = ExecPlan::inspect(&arrays, &stmt).unwrap();
        let report = verify_plan(&arrays, &stmt, &plan);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.verdict, AnalysisVerdict::ReplicatedDivergence);
    }

    #[test]
    fn aliasing_shift_verifies_clean() {
        // A(2:16) = A(1:15): the LHS aliases the RHS under a shifted
        // section — the RAW/WAR case the happens-before check exists for
        let mut ds = DataSpace::new(4);
        let a = ds.declare("A", IndexDomain::of_shape(&[16]).unwrap()).unwrap();
        ds.distribute(a, &DistributeSpec::new(vec![FormatSpec::Block])).unwrap();
        let arrays =
            vec![DistArray::from_fn("A", ds.effective(a).unwrap(), 4, |i| i[0] as f64)];
        let doms: Vec<&IndexDomain> = arrays.iter().map(|x| x.domain()).collect();
        let stmt = Assignment::new(
            0,
            Section::from_triplets(vec![span(2, 16)]),
            vec![Term::new(0, Section::from_triplets(vec![span(1, 15)]))],
            Combine::Copy,
            &doms,
        )
        .unwrap();
        let plan = ExecPlan::inspect(&arrays, &stmt).unwrap();
        let report = verify_plan(&arrays, &stmt, &plan);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.verdict, AnalysisVerdict::Exact);
    }

    #[test]
    fn coalesce_merges_contiguous_indices() {
        assert_eq!(coalesce(vec![]), vec![]);
        assert_eq!(coalesce(vec![5, 3, 4, 9, 4]), vec![(3, 3), (9, 1)]);
        assert_eq!(coalesce(vec![0]), vec![(0, 1)]);
    }
}
