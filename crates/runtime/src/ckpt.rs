//! Distribution-aware checkpoint/restore and the fault-tolerant
//! trajectory driver.
//!
//! A checkpoint snapshots every [`DistArray`]'s distributed shards in
//! parallel: each simulated processor serializes exactly the rects it
//! owns (no dense gather anywhere), and a text manifest records the
//! index domains, processor counts, layout fingerprints, mapping
//! descriptions, and per-shard FNV-1a checksums. Because the manifest
//! carries the *global rect description* of every shard, a checkpoint
//! written under one distribution restores into any other: same
//! mapping and processor count take the fast path (whole-shard
//! installs that preserve mapping identity, so cached plans stay
//! valid), while a different layout or `np` scatters element-wise
//! through the rect descriptions into the current distribution.
//!
//! On-disk layout of one checkpoint:
//!
//! ```text
//! <dir>/step-<T:08>/manifest.txt       text, written last via tmp+rename
//! <dir>/step-<T:08>/<array>.p<k>.shard binary, one per (array, processor)
//! ```
//!
//! A shard file is `HPFSHRD1` magic, a little-endian `u64` element
//! count, a little-endian `u64` FNV-1a checksum of the payload, then
//! the elements as little-endian `f64`s in owned-region fill order
//! (rects in region order, column-major within each rect — the same
//! order [`DistArray`] buffers use in memory). The manifest is written
//! only after every shard hit the disk, so a crash mid-checkpoint
//! leaves a directory [`latest_checkpoint`] ignores rather than a
//! half-readable snapshot.
//!
//! [`Session::run`](crate::Session::run) combines the pieces into the
//! recovery loop the fault-injection suite exercises: run timesteps,
//! checkpoint on a cadence ([`CheckpointSpec`]), and on an
//! [`HpfError::Exchange`] fault restore the
//! newest checkpoint and replay forward — with bounded retries, backoff,
//! and graceful degradation from `Channels` to `SharedMem` when the
//! worker fleet keeps dying ([`RecoveryPolicy`]).

use crate::DistArray;
use hpf_core::HpfError;
use hpf_index::{Idx, Triplet};
use hpf_procs::ProcId;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Magic prefix of a shard file.
const MAGIC: &[u8; 8] = b"HPFSHRD1";
/// Shard header: magic + element count + checksum.
const HEADER: usize = 24;
/// Manifest file name inside a `step-<T>` directory.
const MANIFEST: &str = "manifest.txt";

/// Errors of the checkpoint subsystem — every variant pins the file (and
/// for manifests the line) that broke, so a corrupted snapshot is
/// diagnosable from the message alone.
#[derive(Debug)]
pub enum CkptError {
    /// An OS-level file operation failed.
    Io {
        /// File or directory the operation targeted.
        path: PathBuf,
        /// Operation that failed (`create`, `write`, `read`, `rename`, ...).
        op: &'static str,
        /// The underlying error text.
        detail: String,
    },
    /// The manifest is malformed.
    Manifest {
        /// Manifest file.
        path: PathBuf,
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong with it.
        detail: String,
    },
    /// A shard file is corrupt (bad magic, truncation, checksum mismatch).
    Shard {
        /// Shard file.
        path: PathBuf,
        /// What was wrong with it.
        detail: String,
    },
    /// The checkpoint does not fit the program it is being restored into.
    Mismatch {
        /// What disagreed.
        detail: String,
    },
    /// No usable checkpoint exists under the directory.
    NoCheckpoint {
        /// Directory that was scanned.
        dir: PathBuf,
    },
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io { path, op, detail } => {
                write!(f, "{op} {}: {detail}", path.display())
            }
            CkptError::Manifest { path, line, detail } => {
                write!(f, "{}:{line}: {detail}", path.display())
            }
            CkptError::Shard { path, detail } => {
                write!(f, "{}: {detail}", path.display())
            }
            CkptError::Mismatch { detail } => write!(f, "{detail}"),
            CkptError::NoCheckpoint { dir } => {
                write!(f, "no checkpoint found under {}", dir.display())
            }
        }
    }
}

impl std::error::Error for CkptError {}

impl From<CkptError> for HpfError {
    fn from(e: CkptError) -> Self {
        HpfError::NotConforming(format!("checkpoint: {e}"))
    }
}

/// What [`save_checkpoint`] wrote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CkptReport {
    /// The `step-<T>` directory the snapshot lives in.
    pub dir: PathBuf,
    /// Timestep the snapshot captures.
    pub timestep: u64,
    /// Arrays snapshotted.
    pub arrays: usize,
    /// Shard files written.
    pub shards: usize,
    /// Total bytes written (shards + manifest).
    pub bytes: u64,
}

/// What [`restore_checkpoint`] installed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestoreReport {
    /// Timestep the restored snapshot captures.
    pub timestep: u64,
    /// Arrays restored.
    pub arrays: usize,
    /// Arrays restored by the fast path (identical layout and `np`:
    /// whole-shard installs, mapping identity preserved).
    pub fast: usize,
    /// Arrays restored by element-wise scatter into a *different*
    /// distribution than the checkpoint was written under.
    pub remapped: usize,
    /// Elements written into distributed storage.
    pub elements: u64,
}

/// FNV-1a (64-bit) — the checksum of shard payloads and the layout
/// fingerprint hash. Offline-friendly, allocation-free, and stable
/// across platforms (all serialization is explicitly little-endian).
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn fmt_triplet(t: &Triplet) -> String {
    format!("{}:{}:{}", t.lower(), t.upper(), t.stride())
}

/// A region as manifest text: rects joined by `;`, dims of a rect
/// joined by `x`, each dim `lower:upper:stride`; `-` for the empty
/// region (a processor owning nothing still writes an empty shard).
fn fmt_region(region: &hpf_index::Region) -> String {
    if region.rects().iter().all(|r| r.is_empty()) {
        return "-".to_string();
    }
    region
        .rects()
        .iter()
        .map(|r| r.dims().iter().map(fmt_triplet).collect::<Vec<_>>().join("x"))
        .collect::<Vec<_>>()
        .join(";")
}

/// One parsed rect: per-dimension `(lower, upper, stride)`.
type RectSpec = Vec<(i64, i64, i64)>;

fn parse_rects(spec: &str) -> Result<Vec<RectSpec>, String> {
    if spec == "-" {
        return Ok(Vec::new());
    }
    let mut out = Vec::new();
    for rect in spec.split(';') {
        let mut dims = Vec::new();
        for dim in rect.split('x') {
            let parts: Vec<&str> = dim.split(':').collect();
            if parts.len() != 3 {
                return Err(format!("rect dim `{dim}` is not lower:upper:stride"));
            }
            let mut vals = [0i64; 3];
            for (v, p) in vals.iter_mut().zip(&parts) {
                *v = p
                    .parse::<i64>()
                    .map_err(|_| format!("rect bound `{p}` is not an integer"))?;
            }
            if vals[2] == 0 {
                return Err(format!("rect dim `{dim}` has zero stride"));
            }
            dims.push((vals[0], vals[1], vals[2]));
        }
        out.push(dims);
    }
    Ok(out)
}

/// Elements of one triplet spec, by the Fortran rule.
fn spec_len((lo, hi, stride): (i64, i64, i64)) -> usize {
    let n = (hi as i128 - lo as i128 + stride as i128) / stride as i128;
    if n <= 0 {
        0
    } else {
        n as usize
    }
}

fn spec_volume(rect: &RectSpec) -> usize {
    rect.iter().map(|&d| spec_len(d)).product()
}

/// Iterate a rect spec in shard fill order (column-major, dimension 0
/// fastest — matching [`hpf_index::Rect::iter`] and hence the order
/// shard payloads were written in), calling `f` with each global index.
fn for_each_index(
    rect: &RectSpec,
    f: &mut impl FnMut(&Idx) -> Result<(), CkptError>,
) -> Result<(), CkptError> {
    let lens: Vec<usize> = rect.iter().map(|&d| spec_len(d)).collect();
    if lens.contains(&0) {
        return Ok(());
    }
    let mut counters = vec![0usize; rect.len()];
    let mut idx =
        Idx::new(&rect.iter().map(|&(lo, _, _)| lo).collect::<Vec<_>>()).expect("rank checked");
    loop {
        f(&idx)?;
        let mut d = 0;
        loop {
            if d == rect.len() {
                return Ok(());
            }
            counters[d] += 1;
            if counters[d] < lens[d] {
                idx = idx.with(d, rect[d].0 + counters[d] as i64 * rect[d].2);
                break;
            }
            counters[d] = 0;
            idx = idx.with(d, rect[d].0);
            d += 1;
        }
    }
}

/// Fingerprint of an array's physical layout: `np` plus the rect
/// decomposition of every processor's owned region. Two arrays with
/// equal fingerprints store their elements in bit-identical shard
/// order, which is exactly the precondition of the fast restore path.
fn layout_fingerprint(arr: &DistArray<f64>) -> u64 {
    let mut s = format!("np={}", arr.np());
    for p0 in 0..arr.np() {
        s.push('|');
        s.push_str(&fmt_region(arr.region_of(ProcId(p0 as u32 + 1))));
    }
    fnv1a64(s.as_bytes())
}

fn io_err(path: &Path, op: &'static str, e: std::io::Error) -> CkptError {
    CkptError::Io { path: path.to_path_buf(), op, detail: e.to_string() }
}

/// Serialize one shard to `path`. Returns the bytes written.
fn write_shard(path: &Path, data: &[f64]) -> Result<(u64, u64), CkptError> {
    let mut payload = Vec::with_capacity(data.len() * 8);
    for v in data {
        payload.extend_from_slice(&v.to_le_bytes());
    }
    let checksum = fnv1a64(&payload);
    let mut buf = Vec::with_capacity(HEADER + payload.len());
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&(data.len() as u64).to_le_bytes());
    buf.extend_from_slice(&checksum.to_le_bytes());
    buf.extend_from_slice(&payload);
    fs::write(path, &buf).map_err(|e| io_err(path, "write", e))?;
    Ok((buf.len() as u64, checksum))
}

/// Read and validate one shard file: magic, element count, payload
/// length, and checksum all have to agree before any value is trusted.
fn read_shard(path: &Path) -> Result<(Vec<f64>, u64), CkptError> {
    let bytes = fs::read(path).map_err(|e| io_err(path, "read", e))?;
    let fail = |detail: String| CkptError::Shard { path: path.to_path_buf(), detail };
    if bytes.len() < HEADER {
        return Err(fail(format!("truncated shard: {} byte(s), header needs {HEADER}", bytes.len())));
    }
    if &bytes[..8] != MAGIC {
        return Err(fail("bad magic (not an HPF shard file)".to_string()));
    }
    let elements = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes")) as usize;
    let stored = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
    let want = HEADER + elements * 8;
    if bytes.len() != want {
        return Err(fail(format!(
            "truncated shard: header promises {elements} element(s) ({want} bytes), file holds {}",
            bytes.len()
        )));
    }
    let payload = &bytes[HEADER..];
    let computed = fnv1a64(payload);
    if computed != stored {
        return Err(fail(format!(
            "checksum mismatch: stored {stored:016x}, computed {computed:016x}"
        )));
    }
    let mut data = Vec::with_capacity(elements);
    for chunk in payload.chunks_exact(8) {
        data.push(f64::from_le_bytes(chunk.try_into().expect("8 bytes")));
    }
    Ok((data, stored))
}

struct ShardMeta {
    array: usize,
    proc: usize,
    elements: usize,
    checksum: u64,
    file: String,
    rects: String,
    bytes: u64,
}

/// Snapshot `arrays` at `timestep` into `dir/step-<timestep>/`.
///
/// Shards are written in parallel — one writer thread per simulated
/// processor, each serializing only the rects that processor owns, of
/// every array. The manifest is written last (tmp + rename), so a
/// directory containing a manifest always describes fully-written
/// shards.
pub fn save_checkpoint(
    arrays: &[DistArray<f64>],
    timestep: u64,
    dir: &Path,
) -> Result<CkptReport, CkptError> {
    for arr in arrays {
        if arr.name().chars().any(|c| c.is_whitespace() || c == '/') {
            return Err(CkptError::Mismatch {
                detail: format!("array name `{}` cannot be checkpointed", arr.name()),
            });
        }
    }
    let step_dir = dir.join(format!("step-{timestep:08}"));
    fs::create_dir_all(&step_dir).map_err(|e| io_err(&step_dir, "create", e))?;
    let max_np = arrays.iter().map(DistArray::np).max().unwrap_or(0);

    let mut metas: Vec<ShardMeta> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..max_np)
            .map(|p0| {
                let step_dir = &step_dir;
                s.spawn(move || -> Result<Vec<ShardMeta>, CkptError> {
                    let mut out = Vec::new();
                    for (k, arr) in arrays.iter().enumerate() {
                        if p0 >= arr.np() {
                            continue;
                        }
                        let region = arr.region_of(ProcId(p0 as u32 + 1));
                        let data = arr.local(p0);
                        if data.len() != region.volume_disjoint() {
                            return Err(CkptError::Mismatch {
                                detail: format!(
                                    "array `{}` shard {} holds {} element(s) but owns {} — \
                                     storage is mid-exchange or fault-damaged; checkpoint \
                                     only between timesteps",
                                    arr.name(),
                                    p0 + 1,
                                    data.len(),
                                    region.volume_disjoint()
                                ),
                            });
                        }
                        let file = format!("{}.p{}.shard", arr.name(), p0);
                        let (bytes, checksum) = write_shard(&step_dir.join(&file), data)?;
                        out.push(ShardMeta {
                            array: k,
                            proc: p0,
                            elements: data.len(),
                            checksum,
                            file,
                            rects: fmt_region(region),
                            bytes,
                        });
                    }
                    Ok(out)
                })
            })
            .collect();
        let mut all = Vec::new();
        let mut first_err = None;
        for h in handles {
            match h.join().expect("checkpoint writer thread panicked") {
                Ok(mut metas) => all.append(&mut metas),
                Err(e) if first_err.is_none() => first_err = Some(e),
                Err(_) => {}
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(all),
        }
    })?;
    metas.sort_by_key(|m| (m.array, m.proc));

    let mut manifest = String::new();
    manifest.push_str("hpf-checkpoint v1\n");
    manifest.push_str(&format!("timestep {timestep}\n"));
    manifest.push_str(&format!("np {max_np}\n"));
    manifest.push_str(&format!("arrays {}\n", arrays.len()));
    for (k, arr) in arrays.iter().enumerate() {
        let shape =
            arr.domain().dims().iter().map(fmt_triplet).collect::<Vec<_>>().join(",");
        manifest.push_str(&format!(
            "array {} np {} shape {} layout {:016x} mapping {}\n",
            arr.name(),
            arr.np(),
            shape,
            layout_fingerprint(arr),
            arr.mapping()
        ));
        for m in metas.iter().filter(|m| m.array == k) {
            manifest.push_str(&format!(
                "shard {} {} elements {} checksum {:016x} file {} rects {}\n",
                arr.name(),
                m.proc,
                m.elements,
                m.checksum,
                m.file,
                m.rects
            ));
        }
    }
    manifest.push_str("end\n");

    let tmp = step_dir.join("manifest.tmp");
    let final_path = step_dir.join(MANIFEST);
    fs::write(&tmp, &manifest).map_err(|e| io_err(&tmp, "write", e))?;
    fs::rename(&tmp, &final_path).map_err(|e| io_err(&final_path, "rename", e))?;

    Ok(CkptReport {
        dir: step_dir,
        timestep,
        arrays: arrays.len(),
        shards: metas.len(),
        bytes: metas.iter().map(|m| m.bytes).sum::<u64>() + manifest.len() as u64,
    })
}

struct ShardEntry {
    proc: usize,
    elements: usize,
    checksum: u64,
    file: String,
    rects: Vec<RectSpec>,
}

struct ArrayEntry {
    name: String,
    np: usize,
    shape: Vec<(i64, i64, i64)>,
    layout: u64,
    shards: Vec<ShardEntry>,
}

struct Manifest {
    timestep: u64,
    arrays: Vec<ArrayEntry>,
}

fn parse_manifest(step_dir: &Path) -> Result<Manifest, CkptError> {
    let path = step_dir.join(MANIFEST);
    let text = fs::read_to_string(&path).map_err(|e| io_err(&path, "read", e))?;
    let err = |line: usize, detail: String| CkptError::Manifest {
        path: path.clone(),
        line,
        detail,
    };
    let mut timestep = None;
    let mut declared_arrays = None;
    let mut arrays: Vec<ArrayEntry> = Vec::new();
    let mut saw_header = false;
    let mut saw_end = false;
    for (n0, raw) in text.lines().enumerate() {
        let lineno = n0 + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if saw_end {
            return Err(err(lineno, "content after `end`".to_string()));
        }
        if !saw_header {
            if line != "hpf-checkpoint v1" {
                return Err(err(
                    lineno,
                    format!("not an hpf-checkpoint v1 manifest (got `{line}`)"),
                ));
            }
            saw_header = true;
            continue;
        }
        let toks: Vec<&str> = line.split_whitespace().collect();
        let int = |pos: usize, what: &str| -> Result<u64, CkptError> {
            toks.get(pos)
                .and_then(|t| t.parse::<u64>().ok())
                .ok_or_else(|| err(lineno, format!("expected {what} at token {}", pos + 1)))
        };
        let hex = |pos: usize, what: &str| -> Result<u64, CkptError> {
            toks.get(pos)
                .and_then(|t| u64::from_str_radix(t, 16).ok())
                .ok_or_else(|| err(lineno, format!("expected hex {what} at token {}", pos + 1)))
        };
        let key = |pos: usize, want: &str| -> Result<(), CkptError> {
            if toks.get(pos) == Some(&want) {
                Ok(())
            } else {
                Err(err(
                    lineno,
                    format!(
                        "expected keyword `{want}` at token {}, got `{}`",
                        pos + 1,
                        toks.get(pos).unwrap_or(&"<eol>")
                    ),
                ))
            }
        };
        match toks[0] {
            "timestep" => timestep = Some(int(1, "timestep")?),
            "np" => {
                int(1, "processor count")?;
            }
            "arrays" => declared_arrays = Some(int(1, "array count")? as usize),
            "array" => {
                let name = toks
                    .get(1)
                    .ok_or_else(|| err(lineno, "array line without a name".to_string()))?
                    .to_string();
                key(2, "np")?;
                let np = int(3, "processor count")? as usize;
                key(4, "shape")?;
                let shape_tok = toks
                    .get(5)
                    .ok_or_else(|| err(lineno, "array line without a shape".to_string()))?;
                // shape dims are comma-joined triplets (rect dims use `x`)
                let shape = parse_rects(&shape_tok.replace(',', "x"))
                    .map_err(|e| err(lineno, e))?
                    .into_iter()
                    .next()
                    .ok_or_else(|| err(lineno, "empty shape".to_string()))?;
                key(6, "layout")?;
                let layout = hex(7, "layout fingerprint")?;
                key(8, "mapping")?;
                arrays.push(ArrayEntry { name, np, shape, layout, shards: Vec::new() });
            }
            "shard" => {
                let arr = arrays.last_mut().ok_or_else(|| {
                    err(lineno, "shard line before any array line".to_string())
                })?;
                let name = toks
                    .get(1)
                    .ok_or_else(|| err(lineno, "shard line without a name".to_string()))?;
                if *name != arr.name {
                    return Err(err(
                        lineno,
                        format!("shard of `{name}` under array `{}`", arr.name),
                    ));
                }
                let proc = int(2, "processor index")? as usize;
                key(3, "elements")?;
                let elements = int(4, "element count")? as usize;
                key(5, "checksum")?;
                let checksum = hex(6, "checksum")?;
                key(7, "file")?;
                let file = toks
                    .get(8)
                    .ok_or_else(|| err(lineno, "shard line without a file".to_string()))?
                    .to_string();
                key(9, "rects")?;
                let rects_tok = toks
                    .get(10)
                    .ok_or_else(|| err(lineno, "shard line without rects".to_string()))?;
                let rects = parse_rects(rects_tok).map_err(|e| err(lineno, e))?;
                let volume: usize = rects.iter().map(spec_volume).sum();
                if volume != elements {
                    return Err(err(
                        lineno,
                        format!("rects cover {volume} element(s) but shard declares {elements}"),
                    ));
                }
                arr.shards.push(ShardEntry { proc, elements, checksum, file, rects });
            }
            "end" => saw_end = true,
            other => return Err(err(lineno, format!("unknown record `{other}`"))),
        }
    }
    if !saw_end {
        return Err(err(
            text.lines().count() + 1,
            "manifest has no `end` line (truncated write?)".to_string(),
        ));
    }
    let timestep = timestep
        .ok_or_else(|| err(0, "manifest declares no timestep".to_string()))?;
    if let Some(n) = declared_arrays {
        if n != arrays.len() {
            return Err(err(
                0,
                format!("manifest declares {n} array(s) but describes {}", arrays.len()),
            ));
        }
    }
    Ok(Manifest { timestep, arrays })
}

/// Restore array values from the checkpoint in `step_dir`.
///
/// Arrays are matched to checkpoint entries **by name**; the index
/// domain must agree exactly, but the mapping and processor count need
/// not: an array whose current layout fingerprint and `np` match the
/// checkpoint's is restored by whole-shard installs (fast — and the
/// mapping `Arc` is untouched, so every cached plan keyed on it stays
/// valid), while anything else is scattered element-wise through the
/// manifest's rect descriptions into the current distribution. Every
/// shard checksum is verified before a single element is written.
pub fn restore_checkpoint(
    arrays: &mut [DistArray<f64>],
    step_dir: &Path,
) -> Result<RestoreReport, CkptError> {
    let manifest = parse_manifest(step_dir)?;
    let mut used = vec![false; manifest.arrays.len()];
    let mut report = RestoreReport {
        timestep: manifest.timestep,
        arrays: 0,
        fast: 0,
        remapped: 0,
        elements: 0,
    };
    for arr in arrays.iter_mut() {
        let (slot, entry) = manifest
            .arrays
            .iter()
            .enumerate()
            .find(|(_, e)| e.name == arr.name())
            .ok_or_else(|| CkptError::Mismatch {
                detail: format!(
                    "checkpoint at {} has no data for array `{}`",
                    step_dir.display(),
                    arr.name()
                ),
            })?;
        used[slot] = true;
        let dom = arr.domain();
        if dom.rank() != entry.shape.len()
            || dom.dims().iter().zip(&entry.shape).any(|(t, &(lo, hi, st))| {
                t.lower() != lo || t.upper() != hi || t.stride() != st
            })
        {
            let shape =
                dom.dims().iter().map(fmt_triplet).collect::<Vec<_>>().join(",");
            let want = entry
                .shape
                .iter()
                .map(|&(lo, hi, st)| format!("{lo}:{hi}:{st}"))
                .collect::<Vec<_>>()
                .join(",");
            return Err(CkptError::Mismatch {
                detail: format!(
                    "array `{}` has domain {shape} but the checkpoint was written for {want}",
                    arr.name()
                ),
            });
        }
        let fast = entry.np == arr.np() && entry.layout == layout_fingerprint(arr);
        if fast {
            restore_fast(arr, entry, step_dir)?;
            report.fast += 1;
        } else {
            restore_scatter(arr, entry, step_dir)?;
            report.remapped += 1;
        }
        report.arrays += 1;
        report.elements += entry.shards.iter().map(|s| s.elements as u64).sum::<u64>();
    }
    if let Some(slot) = used.iter().position(|&u| !u) {
        return Err(CkptError::Mismatch {
            detail: format!(
                "checkpoint contains array `{}` unknown to the program",
                manifest.arrays[slot].name
            ),
        });
    }
    Ok(report)
}

/// Read a shard named by a manifest entry and cross-check it against
/// the manifest's own element count and checksum — catching a shard
/// file swapped in from a different snapshot even when the file itself
/// is internally consistent.
fn read_manifest_shard(
    step_dir: &Path,
    se: &ShardEntry,
) -> Result<(Vec<f64>, u64), CkptError> {
    let path = step_dir.join(&se.file);
    let (data, checksum) = read_shard(&path)?;
    if data.len() != se.elements {
        return Err(CkptError::Shard {
            path,
            detail: format!(
                "manifest promises {} element(s), shard holds {}",
                se.elements,
                data.len()
            ),
        });
    }
    if checksum != se.checksum {
        return Err(CkptError::Shard {
            path,
            detail: format!(
                "shard checksum {checksum:016x} disagrees with the manifest's {:016x} \
                 (shard from a different snapshot?)",
                se.checksum
            ),
        });
    }
    Ok((data, checksum))
}

/// Fast path: the current layout is bit-identical to the checkpoint's,
/// so each shard file *is* the local buffer. All shards are read and
/// verified before any is installed — a corrupt file leaves the array
/// untouched.
fn restore_fast(
    arr: &mut DistArray<f64>,
    entry: &ArrayEntry,
    step_dir: &Path,
) -> Result<(), CkptError> {
    let mut shards: Vec<Option<Vec<f64>>> = (0..arr.np()).map(|_| None).collect();
    for se in &entry.shards {
        if se.proc >= arr.np() {
            return Err(CkptError::Mismatch {
                detail: format!(
                    "array `{}` shard names processor {} but np is {}",
                    entry.name,
                    se.proc + 1,
                    arr.np()
                ),
            });
        }
        let (data, _) = read_manifest_shard(step_dir, se)?;
        let want = arr.region_of(ProcId(se.proc as u32 + 1)).volume_disjoint();
        if data.len() != want {
            return Err(CkptError::Mismatch {
                detail: format!(
                    "array `{}` shard {} holds {} element(s) but the region owns {want}",
                    entry.name,
                    se.proc + 1,
                    data.len()
                ),
            });
        }
        shards[se.proc] = Some(data);
    }
    for (p0, slot) in shards.into_iter().enumerate() {
        let data = slot.ok_or_else(|| CkptError::Mismatch {
            detail: format!(
                "array `{}` has no shard for processor {} in the checkpoint",
                entry.name,
                p0 + 1
            ),
        })?;
        arr.restore_local(p0, &data);
    }
    Ok(())
}

/// Scatter path: the checkpoint was written under a different layout
/// or processor count. Re-establish the storage invariant (a dead
/// worker may have taken shards with it), then walk each checkpoint
/// shard's rects in fill order and write every element into the
/// current distribution through the global index space.
fn restore_scatter(
    arr: &mut DistArray<f64>,
    entry: &ArrayEntry,
    step_dir: &Path,
) -> Result<(), CkptError> {
    let dom = arr.domain().clone();
    for se in &entry.shards {
        for rect in &se.rects {
            if rect.len() != dom.rank() {
                return Err(CkptError::Mismatch {
                    detail: format!(
                        "array `{}` shard {} has a rank-{} rect but the domain is rank {}",
                        entry.name,
                        se.proc + 1,
                        rect.len(),
                        dom.rank()
                    ),
                });
            }
            for (d, &spec) in rect.iter().enumerate() {
                let (lo, hi, stride) = spec;
                let n = spec_len(spec);
                if n == 0 {
                    continue;
                }
                let last = lo + (n as i64 - 1) * stride;
                let (min, max) = (lo.min(last), lo.max(last));
                let t = dom.dim(d);
                if min < t.min().unwrap_or(i64::MAX) || max > t.max().unwrap_or(i64::MIN) {
                    return Err(CkptError::Mismatch {
                        detail: format!(
                            "array `{}` shard {} rect dim {d} spans {lo}:{hi}:{stride}, \
                             outside the domain",
                            entry.name,
                            se.proc + 1
                        ),
                    });
                }
            }
        }
    }
    arr.heal_locals();
    for se in &entry.shards {
        let (data, _) = read_manifest_shard(step_dir, se)?;
        let mut k = 0usize;
        for rect in &se.rects {
            for_each_index(rect, &mut |idx| {
                arr.set(idx, data[k]);
                k += 1;
                Ok(())
            })?;
        }
    }
    Ok(())
}

/// The newest complete checkpoint under `dir` (its `step-<T>`
/// directory), or `None` if the directory is missing or holds no
/// directory with a manifest — half-written snapshots (no manifest
/// yet) are invisible by construction.
pub fn latest_checkpoint(dir: &Path) -> Result<Option<PathBuf>, CkptError> {
    let rd = match fs::read_dir(dir) {
        Ok(rd) => rd,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err(dir, "scan", e)),
    };
    let mut best: Option<(u64, PathBuf)> = None;
    for entry in rd {
        let entry = entry.map_err(|e| io_err(dir, "scan", e))?;
        let name = entry.file_name();
        let Some(t) = name
            .to_str()
            .and_then(|n| n.strip_prefix("step-"))
            .and_then(|n| n.parse::<u64>().ok())
        else {
            continue;
        };
        let path = entry.path();
        if !path.join(MANIFEST).is_file() {
            continue;
        }
        if best.as_ref().is_none_or(|(bt, _)| t > *bt) {
            best = Some((t, path));
        }
    }
    Ok(best.map(|(_, p)| p))
}

/// Checkpoint cadence of a [`Session`](crate::Session).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointSpec {
    /// Directory holding the `step-<T>` snapshots.
    pub dir: PathBuf,
    /// Checkpoint after every `every` completed timesteps (0 = only the
    /// baseline at the start and the final state).
    pub every: u64,
}

impl CheckpointSpec {
    /// Checkpoint into `dir` every `every` timesteps.
    pub fn new(dir: impl Into<PathBuf>, every: u64) -> Self {
        CheckpointSpec { dir: dir.into(), every }
    }
}

/// How [`Session::run`](crate::Session::run) reacts to exchange faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Give up after this many *consecutive* failed timesteps.
    pub max_retries: u32,
    /// Base backoff slept before a retry (multiplied by the consecutive
    /// failure count).
    pub backoff: Duration,
    /// After this many consecutive failures on the `Channels` backend,
    /// degrade to `SharedMem` for the remainder of the trajectory.
    pub degrade_after: u32,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 4,
            backoff: Duration::from_millis(25),
            degrade_after: 3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_core::{DataSpace, DistributeSpec, FormatSpec};
    use hpf_index::IndexDomain;

    fn mk(name: &str, n: usize, np: usize, fmt: FormatSpec) -> DistArray<f64> {
        let mut ds = DataSpace::new(np);
        let id = ds.declare(name, IndexDomain::of_shape(&[n]).unwrap()).unwrap();
        ds.distribute(id, &DistributeSpec::new(vec![fmt])).unwrap();
        DistArray::from_fn(name, ds.effective(id).unwrap(), np, |i| (i[0] * 3) as f64)
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir()
            .join(format!("hpf-ckpt-unit-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn fnv_test_vectors() {
        // The canonical FNV-1a reference values.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn roundtrip_same_layout_takes_fast_path() {
        let dir = tmpdir("fast");
        let mut arrays = vec![mk("A", 37, 4, FormatSpec::Block), mk("B", 37, 4, FormatSpec::Cyclic(3))];
        let want: Vec<Vec<f64>> = arrays.iter().map(DistArray::to_dense).collect();
        let rep = save_checkpoint(&arrays, 7, &dir).unwrap();
        assert_eq!((rep.timestep, rep.arrays, rep.shards), (7, 2, 8));
        // clobber the values, then restore
        for a in &mut arrays {
            for i in a.domain().clone().iter() {
                a.set(&i, -1.0);
            }
        }
        let r = restore_checkpoint(&mut arrays, &rep.dir).unwrap();
        assert_eq!((r.timestep, r.arrays, r.fast, r.remapped), (7, 2, 2, 0));
        assert_eq!(r.elements, 74);
        for (a, w) in arrays.iter().zip(&want) {
            assert_eq!(&a.to_dense(), w, "{} must restore bit-for-bit", a.name());
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_scatters_into_different_np_and_layout() {
        let dir = tmpdir("scatter");
        let saved = vec![mk("A", 41, 8, FormatSpec::Block)];
        let want = saved[0].to_dense();
        let rep = save_checkpoint(&saved, 3, &dir).unwrap();
        // same name + domain, different np and format
        let mut target = vec![mk("A", 41, 4, FormatSpec::Cyclic(2))];
        for i in target[0].domain().clone().iter() {
            target[0].set(&i, -9.0);
        }
        let r = restore_checkpoint(&mut target, &rep.dir).unwrap();
        assert_eq!((r.fast, r.remapped), (0, 1));
        assert_eq!(target[0].to_dense(), want, "cross-distribution restore is exact");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_shard_is_rejected_by_checksum() {
        let dir = tmpdir("corrupt");
        let mut arrays = vec![mk("A", 16, 2, FormatSpec::Block)];
        let rep = save_checkpoint(&arrays, 1, &dir).unwrap();
        let shard = rep.dir.join("A.p0.shard");
        let mut bytes = fs::read(&shard).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40; // flip a payload bit
        fs::write(&shard, &bytes).unwrap();
        let err = restore_checkpoint(&mut arrays, &rep.dir).unwrap_err();
        assert!(
            matches!(&err, CkptError::Shard { detail, .. } if detail.contains("checksum mismatch")),
            "got {err}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_shard_is_rejected_with_byte_counts() {
        let dir = tmpdir("truncate");
        let mut arrays = vec![mk("A", 16, 2, FormatSpec::Block)];
        let rep = save_checkpoint(&arrays, 1, &dir).unwrap();
        let shard = rep.dir.join("A.p1.shard");
        let bytes = fs::read(&shard).unwrap();
        fs::write(&shard, &bytes[..bytes.len() - 5]).unwrap();
        let err = restore_checkpoint(&mut arrays, &rep.dir).unwrap_err();
        assert!(
            matches!(&err, CkptError::Shard { detail, .. } if detail.contains("truncated")),
            "got {err}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mangled_manifest_reports_the_line() {
        let dir = tmpdir("manifest");
        let mut arrays = vec![mk("A", 16, 2, FormatSpec::Block)];
        let rep = save_checkpoint(&arrays, 1, &dir).unwrap();
        let mpath = rep.dir.join(MANIFEST);
        let text = fs::read_to_string(&mpath).unwrap().replace("elements", "elephants");
        fs::write(&mpath, text).unwrap();
        let err = restore_checkpoint(&mut arrays, &rep.dir).unwrap_err();
        match err {
            CkptError::Manifest { line, ref detail, .. } => {
                assert_eq!(line, 6, "first shard line");
                assert!(detail.contains("elements"), "got {detail}");
            }
            other => panic!("expected Manifest error, got {other}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn domain_mismatch_is_a_precise_diagnostic() {
        let dir = tmpdir("domain");
        let arrays = vec![mk("A", 16, 2, FormatSpec::Block)];
        let rep = save_checkpoint(&arrays, 1, &dir).unwrap();
        let mut other = vec![mk("A", 32, 2, FormatSpec::Block)];
        let err = restore_checkpoint(&mut other, &rep.dir).unwrap_err();
        assert!(
            matches!(&err, CkptError::Mismatch { detail } if detail.contains("domain")),
            "got {err}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn latest_checkpoint_picks_the_newest_complete_one() {
        let dir = tmpdir("latest");
        assert_eq!(latest_checkpoint(&dir.join("nope")).unwrap(), None);
        let arrays = vec![mk("A", 8, 2, FormatSpec::Block)];
        save_checkpoint(&arrays, 2, &dir).unwrap();
        let newest = save_checkpoint(&arrays, 11, &dir).unwrap();
        // an incomplete (manifest-less) later snapshot must be invisible
        fs::create_dir_all(dir.join("step-00000099")).unwrap();
        assert_eq!(latest_checkpoint(&dir).unwrap(), Some(newest.dir));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_shards_roundtrip() {
        // np larger than the extent: trailing processors own nothing
        let dir = tmpdir("empty");
        let mut arrays = vec![mk("A", 3, 6, FormatSpec::Block)];
        let want = arrays[0].to_dense();
        let rep = save_checkpoint(&arrays, 1, &dir).unwrap();
        assert_eq!(rep.shards, 6);
        let r = restore_checkpoint(&mut arrays, &rep.dir).unwrap();
        assert_eq!(r.elements, 3);
        assert_eq!(arrays[0].to_dense(), want);
        let _ = fs::remove_dir_all(&dir);
    }
}
