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
//! valid), while a different layout or `np` goes through the dense
//! image: the shards are copied into it by their rect descriptions, the
//! image is checked for holes, and the current distribution is dealt out
//! of it. Either way a restore is all-or-nothing — every shard of every
//! array is read and verified before the first element is written.
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
//! newest checkpoint that verifies
//! ([`Program::restore_latest`](crate::Program::restore_latest)) and
//! replay forward — with bounded retries, backoff,
//! and graceful degradation from `Channels` to `SharedMem` when the
//! worker fleet keeps dying ([`RecoveryPolicy`]).

use crate::array::scatter_shard;
use crate::DistArray;
use hpf_core::HpfError;
use hpf_index::{Rect, Triplet};
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
    /// Every checkpoint under a directory failed to restore.
    Unrestorable {
        /// The newest snapshot (its `step-<T>` directory).
        newest: PathBuf,
        /// Why the newest failed.
        cause: Box<CkptError>,
        /// Snapshots tried, the newest included.
        tried: usize,
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
            CkptError::Unrestorable { newest, cause, tried } => {
                write!(f, "newest checkpoint {} does not restore: {cause}", newest.display())?;
                if *tried > 1 {
                    write!(f, " (nor does any of the {} older one(s))", tried - 1)?;
                }
                Ok(())
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestoreReport {
    /// Timestep the restored snapshot captures.
    pub timestep: u64,
    /// Arrays restored.
    pub arrays: usize,
    /// Arrays restored by the fast path (identical layout and `np`:
    /// whole-shard installs, mapping identity preserved).
    pub fast: usize,
    /// Arrays scattered, through their dense image, into a *different*
    /// distribution than the checkpoint was written under.
    pub remapped: usize,
    /// Elements written into distributed storage.
    pub elements: u64,
    /// Newer snapshots skipped because they failed to restore (see
    /// [`Program::restore_latest`](crate::Program::restore_latest)): each
    /// `step-<T>` directory with the reason, newest first.
    pub skipped: Vec<(PathBuf, String)>,
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

/// Parse the text [`fmt_region`] writes back into rects.
fn parse_rects(spec: &str) -> Result<Vec<Rect>, String> {
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
            dims.push(
                Triplet::new(vals[0], vals[1], vals[2])
                    .map_err(|_| format!("rect dim `{dim}` has zero stride"))?,
            );
        }
        out.push(Rect::new(dims));
    }
    Ok(out)
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
    rects: Vec<Rect>,
}

struct ArrayEntry {
    name: String,
    np: usize,
    shape: Rect,
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
                // checked: the bounds are the manifest's word, not ours
                let volume = rects.iter().try_fold(0usize, |sum, r| {
                    let mut dims = r.dims().iter().map(Triplet::len);
                    sum.checked_add(dims.try_fold(1usize, |v, n| v.checked_mul(n))?)
                });
                if volume != Some(elements) {
                    let volume = volume.map_or("more than usize::MAX".to_string(), |v| v.to_string());
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

/// One array's values, read from a checkpoint and verified, waiting to be
/// installed.
enum Staged {
    /// Same layout and `np`: each shard file is a local buffer.
    Shards(Vec<Vec<f64>>),
    /// Another layout or `np`: the dense image the shards were copied into.
    Image(Vec<f64>),
}

/// Restore array values from the checkpoint in `step_dir`.
///
/// Arrays are matched to checkpoint entries **by name**; the index
/// domain must agree exactly, but the mapping and processor count need
/// not: an array whose current layout fingerprint and `np` match the
/// checkpoint's is restored by whole-shard installs (fast — and the
/// mapping `Arc` is untouched, so every cached plan keyed on it stays
/// valid), while anything else goes through the dense image: the
/// checkpoint's shards are copied into one column-major image of the
/// array by the rects the manifest gives them, the image must come out
/// covered, and [`DistArray::assign_dense`] deals it out to the current
/// distribution.
///
/// The restore is all-or-nothing: every shard of every array is read,
/// checked against its checksum and the manifest, and staged before a
/// single element is written, so an `Err` leaves every array as it was.
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
        skipped: Vec::new(),
    };
    let mut staged = Vec::with_capacity(arrays.len());
    for arr in arrays.iter() {
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
        if dom.dims() != entry.shape.dims() {
            let shape = |dims: &[Triplet]| dims.iter().map(fmt_triplet).collect::<Vec<_>>().join(",");
            return Err(CkptError::Mismatch {
                detail: format!(
                    "array `{}` has domain {} but the checkpoint was written for {}",
                    arr.name(),
                    shape(dom.dims()),
                    shape(entry.shape.dims())
                ),
            });
        }
        if entry.np == arr.np() && entry.layout == layout_fingerprint(arr) {
            staged.push(Staged::Shards(read_same_layout(arr, entry, step_dir)?));
            report.fast += 1;
        } else {
            staged.push(Staged::Image(read_image(arr, entry, step_dir)?));
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
    // nothing above wrote to an array, nothing below can fail
    for (arr, values) in arrays.iter_mut().zip(staged) {
        match values {
            Staged::Shards(shards) => {
                for (p0, data) in shards.iter().enumerate() {
                    arr.restore_local(p0, data);
                }
            }
            Staged::Image(image) => arr.assign_dense(&image),
        }
    }
    Ok(report)
}

/// Read a shard named by a manifest entry and cross-check it against
/// the manifest's own element count and checksum — catching a shard
/// file swapped in from a different snapshot even when the file itself
/// is internally consistent.
fn read_manifest_shard(step_dir: &Path, se: &ShardEntry) -> Result<Vec<f64>, CkptError> {
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
    Ok(data)
}

/// The current layout is bit-identical to the checkpoint's, so each shard
/// file *is* a local buffer — provided the manifest lists what that layout
/// has: one shard per processor, in order, of the owned volume.
fn read_same_layout(
    arr: &DistArray<f64>,
    entry: &ArrayEntry,
    step_dir: &Path,
) -> Result<Vec<Vec<f64>>, CkptError> {
    let owned = (0..arr.np()).map(|p0| (p0, arr.region_of(ProcId(p0 as u32 + 1)).volume_disjoint()));
    let listed = entry.shards.iter().map(|se| (se.proc, se.elements));
    if !owned.clone().eq(listed.clone()) {
        return Err(CkptError::Mismatch {
            detail: format!(
                "array `{}` is checkpointed in the current layout, whose (processor, elements) \
                 per shard are {:?}, but the manifest lists {:?}",
                entry.name,
                owned.collect::<Vec<_>>(),
                listed.collect::<Vec<_>>()
            ),
        });
    }
    entry.shards.iter().map(|se| read_manifest_shard(step_dir, se)).collect()
}

/// The checkpoint was written under a different layout or processor
/// count: read and verify every shard and copy it into the array's dense
/// image by the rects the manifest gives it. The rects are the manifest's
/// word, so each must lie in the domain and together they must cover it
/// (replicated checkpoints cover elements more than once; their copies
/// agree).
fn read_image(
    arr: &DistArray<f64>,
    entry: &ArrayEntry,
    step_dir: &Path,
) -> Result<Vec<f64>, CkptError> {
    let dom = arr.domain();
    let mut image = vec![0.0; dom.size()];
    let mut covered = vec![false; dom.size()];
    for se in &entry.shards {
        let data = read_manifest_shard(step_dir, se)?;
        scatter_shard(dom, &se.rects, &data, &mut image, &mut covered).map_err(|why| {
            CkptError::Mismatch {
                detail: format!("array `{}` shard {}: {why}", entry.name, se.proc + 1),
            }
        })?;
    }
    if let Some(hole) = covered.iter().position(|&c| !c) {
        let at = dom.delinearize(hole).expect("a position of the image");
        return Err(CkptError::Mismatch {
            detail: format!(
                "array `{}`: no shard of the checkpoint holds element {at} — its rects do \
                 not cover the domain",
                entry.name
            ),
        });
    }
    Ok(image)
}

/// The newest complete checkpoint under `dir` (its `step-<T>`
/// directory), or `None` if the directory is missing or holds no
/// directory with a manifest — half-written snapshots (no manifest
/// yet) are invisible by construction.
pub fn latest_checkpoint(dir: &Path) -> Result<Option<PathBuf>, CkptError> {
    Ok(checkpoints(dir)?.into_iter().next())
}

/// Every complete checkpoint under `dir` (its `step-<T>` directories),
/// newest first; empty if the directory is missing. Like
/// [`latest_checkpoint`], it lists only directories with a manifest.
pub(crate) fn checkpoints(dir: &Path) -> Result<Vec<PathBuf>, CkptError> {
    let rd = match fs::read_dir(dir) {
        Ok(rd) => rd,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(io_err(dir, "scan", e)),
    };
    let mut found: Vec<(u64, PathBuf)> = Vec::new();
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
        if path.join(MANIFEST).is_file() {
            found.push((t, path));
        }
    }
    found.sort_by_key(|&(t, _)| std::cmp::Reverse(t));
    Ok(found.into_iter().map(|(_, p)| p).collect())
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
        corrupt(&rep.dir, "A.p0.shard");
        let err = restore_checkpoint(&mut arrays, &rep.dir).unwrap_err();
        assert!(
            matches!(&err, CkptError::Shard { detail, .. } if detail.contains("checksum mismatch")),
            "got {err}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// Flip a payload bit of `file` under `step_dir`.
    fn corrupt(step_dir: &Path, file: &str) {
        let shard = step_dir.join(file);
        let mut bytes = fs::read(&shard).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&shard, &bytes).unwrap();
    }

    /// Shard buffers of every array, bit for bit.
    fn shards(arrays: &[DistArray<f64>]) -> Vec<Vec<u64>> {
        arrays
            .iter()
            .flat_map(|a| (0..a.np()).map(|p0| a.local(p0).iter().map(|v| v.to_bits()).collect()))
            .collect()
    }

    #[test]
    fn failed_cross_layout_restore_leaves_every_array_untouched() {
        let dir = tmpdir("all-or-nothing");
        let saved = vec![mk("A", 40, 4, FormatSpec::Block), mk("B", 40, 4, FormatSpec::Block)];
        let rep = save_checkpoint(&saved, 2, &dir).unwrap();
        let live = || {
            vec![
                DistArray::new("A", mk("A", 40, 2, FormatSpec::Cyclic(3)).mapping().clone(), 2, -9.0),
                DistArray::new("B", mk("B", 40, 2, FormatSpec::Cyclic(1)).mapping().clone(), 2, -7.0),
            ]
        };
        // the *last* shard of the first array: everything before it reads clean
        for file in ["A.p3.shard", "B.p3.shard"] {
            let pristine = fs::read(rep.dir.join(file)).unwrap();
            corrupt(&rep.dir, file);
            let mut target = live();
            let before = shards(&target);
            let err = restore_checkpoint(&mut target, &rep.dir).unwrap_err();
            assert!(
                matches!(&err, CkptError::Shard { detail, .. } if detail.contains("checksum mismatch")),
                "got {err}"
            );
            assert_eq!(shards(&target), before, "{file} corrupt: no element may change");
            fs::write(rep.dir.join(file), pristine).unwrap();
        }
        // and with every shard intact the same restore goes through
        let mut target = live();
        let r = restore_checkpoint(&mut target, &rep.dir).unwrap();
        assert_eq!((r.fast, r.remapped, r.elements), (0, 2, 80));
        assert_eq!(target[0].to_dense(), saved[0].to_dense());
        assert_eq!(target[1].to_dense(), saved[1].to_dense());
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
