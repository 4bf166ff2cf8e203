//! Deterministic on-disk snapshots of the session cache.
//!
//! A snapshot persists three cache layers — programs, solved summaries,
//! demand answers — so a restarted server cold-starts **warm**: restored
//! entries answer queries with zero compile/solve misses. A program is
//! stored as its source text only; decoding lowers and compiles it again
//! (both are deterministic, and cheap next to a solve), so the file holds
//! no compiled form that restore would have to trust. A solved summary is
//! stored as what it holds: its options, its scalars and the solver result,
//! whose model is rebuilt from the options. The tables rendered from a
//! summary are not written; the first query after a restore renders them
//! again, as on a never-restarted server.
//!
//! A summary is written only while its program is resident, and decoding
//! checks it against that program: every location names an object of the
//! program and carries the one field kind its instance produces (a leaf of
//! Collapse on Cast or CIS is written as its field path, which must name a
//! leaf of the object's type exactly), and every call edge names a
//! statement and a function of the program.
//!
//! # Format
//!
//! Everything is little-endian, length-prefixed, and written in a
//! canonical sort order, so one logical cache state has exactly one byte
//! representation (`encode` is deterministic and re-serialization after a
//! restore is byte-identical):
//!
//! ```text
//! file    := magic(8 = "SCSNAP01") version(u32) section_count(u32) section*
//! section := tag(u8) payload_len(u64) fnv64(payload) payload
//! ```
//!
//! Section tags: 1 = programs, 2 = solved summaries, 3 = demand answers.
//! Every section carries its own length and FNV-1a checksum; a flipped
//! byte or a truncation anywhere yields a typed [`SnapshotError`], never a
//! panic and never a silently-wrong warm cache. See `DESIGN.md` §7 for the
//! per-section payload grammars.

use crate::cache::{DemandAnswer, DemandPayload, ProgramEntry, SessionCache, Solved, source_hash};
use crate::proto::{parse_layout, QueryOpts};
use std::collections::{BTreeSet, HashMap};
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;
use structcast::models::ModelOptions;
use structcast::{
    AnalysisResult, CompatMode, FactStore, FieldPath, FieldRep, FuncId, Loc, ModelKind,
    ModelStats, ObjId, Program, StmtId,
};

/// The snapshot file name inside a `--snapshot` directory.
pub const SNAPSHOT_FILE: &str = "cache.scsnap";

/// File magic: identifies a structcast cache snapshot, revision 01.
pub const MAGIC: [u8; 8] = *b"SCSNAP01";

/// Format version inside the header; bumped on any grammar change. Version
/// 2 dropped the rendered tables from the solved section, version 3 the
/// compiled constraints from the programs section.
pub const VERSION: u32 = 3;

const TAG_PROGRAMS: u8 = 1;
const TAG_SOLVED: u8 = 2;
const TAG_DEMAND: u8 = 3;

/// FNV-1a over raw bytes: the frame checksum of the snapshot and the WAL,
/// and the hash behind the cache key ([`source_hash`]).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Why a snapshot failed to load. Every variant is a *refusal*: the cache
/// is left untouched and the caller falls back to a cold start.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem-level failure reading or writing the snapshot.
    Io(std::io::Error),
    /// The file does not begin with [`MAGIC`].
    BadMagic,
    /// The header names a format version this build does not speak.
    BadVersion(u32),
    /// The file ends before the named section (or its header) is complete.
    Truncated {
        /// Which part of the file was cut short.
        section: &'static str,
        /// Byte offset at which the reader ran out of input.
        offset: usize,
    },
    /// A section's payload does not match its recorded FNV checksum.
    Checksum {
        /// The corrupted section.
        section: &'static str,
    },
    /// A payload passed its checksum but decodes to nonsense (impossible
    /// tag, key/source mismatch, unlowerable source) — refused all the
    /// same rather than restoring a wrong cache.
    Malformed {
        /// The offending section.
        section: &'static str,
        /// What was wrong.
        detail: String,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::Truncated { section, offset } => {
                write!(f, "snapshot truncated in {section} at byte {offset}")
            }
            SnapshotError::Checksum { section } => {
                write!(f, "snapshot checksum mismatch in {section}")
            }
            SnapshotError::Malformed { section, detail } => {
                write!(f, "malformed snapshot {section}: {detail}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> SnapshotError {
        SnapshotError::Io(e)
    }
}

/// A decoded snapshot: fully reconstructed cache values, not yet inserted.
pub struct SnapshotData {
    /// Restored program entries (stage 1), in key order.
    pub programs: Vec<ProgramEntry>,
    /// Restored solved summaries with their cache keys.
    pub solved: Vec<((u64, String), Solved)>,
    /// Restored demand answers with their cache keys.
    pub demand: Vec<((u64, String), DemandAnswer)>,
}

impl SnapshotData {
    /// Total entries across the three layers.
    pub fn len(&self) -> usize {
        self.programs.len() + self.solved.len() + self.demand.len()
    }

    /// True when the snapshot held an empty cache.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One section's position inside an encoded snapshot — the corruption
/// property tests truncate and flip bytes at exactly these boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionInfo {
    /// The section tag (1 programs, 2 solved, 3 demand).
    pub tag: u8,
    /// Byte offset of the section header (its tag byte).
    pub header_start: usize,
    /// Byte offset where the payload begins.
    pub payload_start: usize,
    /// Byte offset one past the payload's last byte.
    pub payload_end: usize,
}

// ----- primitive writers -----

/// Little-endian writer shared by the snapshot and the WAL.
pub(crate) struct W(pub(crate) Vec<u8>);

/// Bytes of a frame before its payload: tag, length, checksum.
const FRAME_HEADER_LEN: usize = 1 + 8 + 8;

impl W {
    /// Appends one frame, `tag u8 · payload_len u64-le · fnv64(payload)
    /// u64-le · payload`: a snapshot section or a WAL record.
    pub(crate) fn frame(&mut self, tag: u8, payload: &[u8]) {
        self.u8(tag);
        self.u64(payload.len() as u64);
        self.u64(fnv64(payload));
        self.0.extend_from_slice(payload);
    }
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    pub(crate) fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    pub(crate) fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.0.extend_from_slice(s.as_bytes());
    }
    fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
        }
    }
    fn strs(&mut self, v: &[String]) {
        self.u64(v.len() as u64);
        for s in v {
            self.str(s);
        }
    }
    fn steps(&mut self, p: &[u32]) {
        self.u32(p.len() as u32);
        for &s in p {
            self.u32(s);
        }
    }
    /// A location; a leaf location is written as its field path in
    /// `prog`, the program its summary was solved over.
    fn loc(&mut self, l: &Loc, prog: &Program) {
        self.u32(l.obj.0);
        match l.field {
            FieldRep::Whole => self.u8(0),
            FieldRep::Leaf(_) => {
                self.u8(1);
                self.steps(l.path(prog).expect("a leaf location has a path"));
            }
            FieldRep::Off(o) => {
                self.u8(2);
                self.u64(o);
            }
        }
    }
    fn locs<'l>(&mut self, locs: impl ExactSizeIterator<Item = &'l Loc>, prog: &Program) {
        self.u64(locs.len() as u64);
        locs.for_each(|l| self.loc(l, prog));
    }
}

/// The field tag of every location a `kind` summary holds (see [`W::loc`]):
/// each instance produces one field kind.
fn field_tag(kind: ModelKind) -> u8 {
    match kind {
        ModelKind::CollapseAlways => 0,
        ModelKind::CollapseOnCast | ModelKind::CommonInitialSeq => 1,
        ModelKind::Offsets => 2,
    }
}

// ----- primitive readers (every read is bounds-checked) -----

/// Bounds-checked little-endian reader shared by the snapshot and the
/// WAL: running out of bytes is a typed error, never a panic.
pub(crate) struct Rd<'a> {
    buf: &'a [u8],
    pub(crate) pos: usize,
    section: &'static str,
}

/// One frame read by [`Rd::frame`]; `name` is what its tag names.
pub(crate) struct Frame<'a> {
    pub(crate) tag: u8,
    pub(crate) name: &'static str,
    pub(crate) checksum: u64,
    pub(crate) payload: &'a [u8],
}

impl<'a> Rd<'a> {
    pub(crate) fn new(buf: &'a [u8], section: &'static str) -> Rd<'a> {
        Rd { buf, pos: 0, section }
    }

    fn truncated(&self) -> SnapshotError {
        SnapshotError::Truncated {
            section: self.section,
            offset: self.pos,
        }
    }

    fn malformed(&self, detail: impl Into<String>) -> SnapshotError {
        SnapshotError::Malformed {
            section: self.section,
            detail: detail.into(),
        }
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or_else(|| self.truncated())?;
        if end > self.buf.len() {
            return Err(self.truncated());
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A count of upcoming elements, sanity-capped by the remaining bytes
    /// (each element costs ≥ 1 byte) so a corrupt length can't drive a
    /// giant allocation before the data runs out.
    fn count(&mut self) -> Result<usize, SnapshotError> {
        let n = self.u64()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        if n > remaining {
            return Err(self.truncated());
        }
        Ok(n as usize)
    }

    pub(crate) fn str(&mut self) -> Result<String, SnapshotError> {
        let n = self.count()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| self.malformed(format!("bad utf-8: {e}")))
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, SnapshotError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            t => Err(self.malformed(format!("bad option tag {t}"))),
        }
    }

    fn strs(&mut self) -> Result<Vec<String>, SnapshotError> {
        let n = self.count()?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.str()?);
        }
        Ok(v)
    }

    /// A `u8` that must be 0 or 1; `what` names it in the error.
    fn bool(&mut self, what: &str) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(self.malformed(format!("bad {what} tag {t}"))),
        }
    }

    fn steps(&mut self) -> Result<FieldPath, SnapshotError> {
        let n = self.u32()? as usize;
        if n > self.buf.len() - self.pos {
            return Err(self.truncated());
        }
        let mut steps = Vec::with_capacity(n);
        for _ in 0..n {
            steps.push(self.u32()?);
        }
        Ok(FieldPath::from_steps(steps))
    }

    /// A location of a `kind` summary over `prog`: its object must be one
    /// of `prog`'s, its field tag the one `kind` produces, and a field path
    /// becomes the leaf it names, which it must name exactly.
    fn loc(&mut self, prog: &Program, kind: ModelKind) -> Result<Loc, SnapshotError> {
        let obj = ObjId(self.u32()?);
        if obj.0 as usize >= prog.objects.len() {
            return Err(self.malformed(format!("object {} out of range", obj.0)));
        }
        let tag = self.u8()?;
        if tag != field_tag(kind) {
            return Err(self.malformed(format!("loc field tag {tag} in a {kind} summary")));
        }
        match tag {
            0 => Ok(Loc::whole(obj)),
            1 => {
                let steps = self.steps()?;
                match prog.types.shape(prog.type_of(obj)).leaf_at(steps.steps()) {
                    Some(leaf) => Ok(Loc::leaf(obj, leaf)),
                    None => Err(self.malformed(format!(
                        "field path {steps} is not a leaf of object {}",
                        obj.0
                    ))),
                }
            }
            _ => Ok(Loc::off(obj, self.u64()?)),
        }
    }

    fn locs(&mut self, prog: &Program, kind: ModelKind) -> Result<BTreeSet<Loc>, SnapshotError> {
        (0..self.count()?).map(|_| self.loc(prog, kind)).collect()
    }

    /// Reads one frame (see [`W::frame`]). `name` maps the tag to the
    /// part it frames, which later errors name; an unknown tag is
    /// `Malformed` before anything after it is read. The checksum is read,
    /// not checked.
    pub(crate) fn frame(
        &mut self,
        name: impl Fn(u8) -> Option<&'static str>,
    ) -> Result<Frame<'a>, SnapshotError> {
        let tag = self.u8()?;
        self.section = name(tag).ok_or_else(|| SnapshotError::Malformed {
            section: "header",
            detail: format!("unknown frame tag {tag}"),
        })?;
        let len = self.u64()?;
        let checksum = self.u64()?;
        let payload = self.take(usize::try_from(len).map_err(|_| self.truncated())?)?;
        Ok(Frame { tag, name: self.section, checksum, payload })
    }

    pub(crate) fn done(&self) -> Result<(), SnapshotError> {
        if self.pos != self.buf.len() {
            return Err(SnapshotError::Malformed {
                section: self.section,
                detail: format!(
                    "{} trailing bytes after payload",
                    self.buf.len() - self.pos
                ),
            });
        }
        Ok(())
    }
}

// ----- query options -----

fn model_index(kind: ModelKind) -> u8 {
    ModelKind::ALL
        .iter()
        .position(|&k| k == kind)
        .expect("every ModelKind is in ALL") as u8
}

fn put_opts(w: &mut W, o: &QueryOpts) {
    w.u8(model_index(o.model));
    w.str(o.layout.name);
    w.u8(match o.compat {
        CompatMode::Structural => 0,
        CompatMode::TagBased => 1,
    });
    w.u8(u8::from(o.stride));
    w.opt_u64(o.deadline_ms);
    w.opt_u64(o.max_edges.map(|n| n as u64));
}

fn get_model(r: &mut Rd<'_>) -> Result<ModelKind, SnapshotError> {
    let i = r.u8()? as usize;
    ModelKind::ALL
        .get(i)
        .copied()
        .ok_or_else(|| r.malformed(format!("bad model index {i}")))
}

fn get_opts(r: &mut Rd<'_>) -> Result<QueryOpts, SnapshotError> {
    let model = get_model(r)?;
    let layout_name = r.str()?;
    let layout =
        parse_layout(&layout_name).map_err(|e| r.malformed(format!("bad layout: {e}")))?;
    let compat = match r.u8()? {
        0 => CompatMode::Structural,
        1 => CompatMode::TagBased,
        t => return Err(r.malformed(format!("bad compat tag {t}"))),
    };
    let stride = r.bool("stride")?;
    Ok(QueryOpts {
        model,
        layout,
        compat,
        stride,
        deadline_ms: r.opt_u64()?,
        max_edges: r.opt_u64()?.map(|n| n as usize),
    })
}

// ----- sections -----

/// The programs in key order. A program whose name a later load or update
/// took over is written under its hex hash, the one name that still
/// resolves to it, so a restore registers every name as it resolved here.
fn encode_programs(programs: &[Arc<ProgramEntry>], names: &HashMap<String, u64>) -> Vec<u8> {
    let mut sorted: Vec<&Arc<ProgramEntry>> = programs.iter().collect();
    sorted.sort_by_key(|e| e.key);
    let mut w = W(Vec::new());
    w.u64(sorted.len() as u64);
    for e in sorted {
        w.u64(e.key);
        w.str(if names.get(&e.name) == Some(&e.key) { &e.name } else { &e.hash_hex });
        w.str(&e.source);
    }
    w.0
}

/// Decodes the programs, lowering and compiling each source again; each
/// entry's `compile` is what that took here.
fn decode_programs(bytes: &[u8]) -> Result<Vec<ProgramEntry>, SnapshotError> {
    let mut r = Rd::new(bytes, "programs");
    let n = r.count()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let key = r.u64()?;
        let name = r.str()?;
        let source = r.str()?;
        // Integrity: the stored key must be the hash of the stored source —
        // and the source must still lower. Either failing means the
        // payload is not what `encode` wrote (despite the checksum), so
        // refuse it.
        if source_hash(&source) != key {
            return Err(r.malformed(format!("program {name}: key/source hash mismatch")));
        }
        let entry = ProgramEntry::build(key, Some(&name), &source)
            .map_err(|e| r.malformed(format!("program {name}: unlowerable source: {e}")))?;
        out.push(entry);
    }
    r.done()?;
    Ok(out)
}

/// The summaries in key order, each with its program. A summary whose
/// program was evicted is left out: no query can reach it before its
/// program is loaded again, and decoding checks a summary against its
/// program.
fn encode_solved(
    solved: &[((u64, String), Arc<Solved>)],
    programs: &[Arc<ProgramEntry>],
) -> Vec<u8> {
    let prog_of = |hash: u64| programs.iter().find(|e| e.key == hash).map(|e| &e.prog);
    let mut sorted: Vec<(&(u64, String), &Solved, &Program)> = solved
        .iter()
        .filter_map(|(k, s)| Some((k, &**s, prog_of(k.0)?)))
        .collect();
    sorted.sort_by(|a, b| a.0.cmp(b.0));
    let mut w = W(Vec::new());
    w.u64(sorted.len() as u64);
    for ((hash, optkey), s, prog) in sorted {
        w.u64(*hash);
        w.str(optkey);
        put_opts(&mut w, &s.opts);
        // Scalars, then the solver result every answer is rendered from.
        w.u64(s.edges as u64);
        w.f64(s.avg_deref);
        w.u64(s.deref_sites as u64);
        w.u8(model_index(s.res.kind));
        w.u64(s.res.iterations);
        w.u64(s.res.resolved_indirect_calls as u64);
        w.u64(s.res.elapsed.as_nanos() as u64);
        let st = &s.res.stats;
        for v in [
            st.lookup_calls,
            st.lookup_struct,
            st.lookup_mismatch,
            st.resolve_calls,
            st.resolve_struct,
            st.resolve_mismatch,
            st.out_of_bounds,
        ] {
            w.u64(v);
        }
        w.locs(s.res.unknown.iter(), prog);
        w.u64(s.res.call_edges.len() as u64);
        for (sid, fid) in &s.res.call_edges {
            w.u32(sid.0);
            w.u32(fid.0);
        }
        // Facts in canonical (sorted) edge order: the fact store's internal
        // interning order is solve-history-dependent, the sorted edge list
        // is not — this is what makes re-serialization byte-identical.
        let mut edges: Vec<(&Loc, &Loc)> = s.res.facts.iter().collect();
        edges.sort();
        edges.dedup();
        w.u64(edges.len() as u64);
        for (a, b) in edges {
            w.loc(a, prog);
            w.loc(b, prog);
        }
    }
    w.0
}

/// Decoded cache entries keyed by `(program hash, cache key)`.
type Entries<V> = Vec<((u64, String), V)>;

/// Decodes the summaries; `programs` are the snapshot's programs, which
/// each summary is checked against.
fn decode_solved(bytes: &[u8], programs: &[ProgramEntry]) -> Result<Entries<Solved>, SnapshotError> {
    let mut r = Rd::new(bytes, "solved");
    let n = r.count()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let hash = r.u64()?;
        let prog = programs
            .iter()
            .find(|e| e.key == hash)
            .map(|e| &e.prog)
            .ok_or_else(|| r.malformed(format!("summary of program {hash:016x}, which it lacks")))?;
        let optkey = r.str()?;
        let opts = get_opts(&mut r)?;
        if opts.cache_key() != optkey {
            return Err(r.malformed(format!(
                "solved entry key `{optkey}` disagrees with its options `{}`",
                opts.cache_key()
            )));
        }
        let edges_n = r.u64()? as usize;
        let avg_deref = r.f64()?;
        let deref_sites = r.u64()? as usize;
        let res_kind = get_model(&mut r)?;
        if res_kind != opts.model {
            return Err(r.malformed("summary model disagrees with its options"));
        }
        let res_iterations = r.u64()?;
        let resolved_indirect_calls = r.u64()? as usize;
        let elapsed = Duration::from_nanos(r.u64()?);
        let stats = ModelStats {
            lookup_calls: r.u64()?,
            lookup_struct: r.u64()?,
            lookup_mismatch: r.u64()?,
            resolve_calls: r.u64()?,
            resolve_struct: r.u64()?,
            resolve_mismatch: r.u64()?,
            out_of_bounds: r.u64()?,
        };
        let unknown = r.locs(prog, res_kind)?;
        let nce = r.count()?;
        let mut call_edges = Vec::with_capacity(nce);
        for _ in 0..nce {
            let (sid, fid) = (r.u32()?, r.u32()?);
            if sid as usize >= prog.stmts.len() || fid as usize >= prog.functions.len() {
                return Err(r.malformed(format!("call edge ({sid}, {fid}) out of range")));
            }
            call_edges.push((StmtId(sid), FuncId(fid)));
        }
        let ne = r.count()?;
        let mut facts = FactStore::new();
        for _ in 0..ne {
            let a = r.loc(prog, res_kind)?;
            let b = r.loc(prog, res_kind)?;
            facts.insert(a, b);
        }
        if facts.len() != edges_n {
            return Err(r.malformed(format!(
                "edge count {edges_n} disagrees with {} stored facts",
                facts.len()
            )));
        }
        let model_opts = ModelOptions {
            layout: opts.layout.clone(),
            compat: opts.compat,
            arith_stride: opts.stride,
        };
        let res = AnalysisResult::from_saved(
            res_kind,
            &model_opts,
            facts,
            stats,
            res_iterations,
            resolved_indirect_calls,
            elapsed,
            unknown,
            call_edges,
        );
        out.push(((hash, optkey), Solved::new(opts, res, (avg_deref, deref_sites))));
    }
    r.done()?;
    Ok(out)
}

fn encode_demand(demand: &[((u64, String), Arc<DemandAnswer>)]) -> Vec<u8> {
    let mut sorted: Vec<&((u64, String), Arc<DemandAnswer>)> = demand.iter().collect();
    sorted.sort_by(|a, b| a.0.cmp(&b.0));
    let mut w = W(Vec::new());
    w.u64(sorted.len() as u64);
    for ((hash, key), a) in sorted {
        w.u64(*hash);
        w.str(key);
        w.str(&a.subject);
        put_opts(&mut w, &a.opts);
        match &a.payload {
            DemandPayload::PointsTo(v) => {
                w.u8(0);
                w.strs(v);
            }
            DemandPayload::Alias(b) => {
                w.u8(1);
                w.u8(u8::from(*b));
            }
            DemandPayload::ModRef { mods, refs } => {
                w.u8(2);
                w.strs(mods);
                w.strs(refs);
            }
        }
        w.u64(a.slice_statements as u64);
        w.u64(a.total_statements as u64);
        w.u64(a.solve.as_nanos() as u64);
    }
    w.0
}

fn decode_demand(bytes: &[u8]) -> Result<Entries<DemandAnswer>, SnapshotError> {
    let mut r = Rd::new(bytes, "demand");
    let n = r.count()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let hash = r.u64()?;
        let key = r.str()?;
        let subject = r.str()?;
        let opts = get_opts(&mut r)?;
        let payload = match r.u8()? {
            0 => DemandPayload::PointsTo(r.strs()?),
            1 => DemandPayload::Alias(r.bool("alias")?),
            2 => DemandPayload::ModRef {
                mods: r.strs()?,
                refs: r.strs()?,
            },
            t => return Err(r.malformed(format!("bad demand payload tag {t}"))),
        };
        let slice_statements = r.u64()? as usize;
        let total_statements = r.u64()? as usize;
        let solve = Duration::from_nanos(r.u64()?);
        out.push((
            (hash, key),
            DemandAnswer {
                payload,
                slice_statements,
                total_statements,
                solve,
                subject,
                opts,
            },
        ));
    }
    r.done()?;
    Ok(out)
}

// ----- whole-file encode/decode -----

/// Serializes the cache's current contents. Deterministic: the same
/// logical cache state produces byte-identical output regardless of
/// insertion order, thread count, or whether the state itself was restored
/// from a snapshot.
pub fn encode(cache: &SessionCache) -> Vec<u8> {
    let resident = cache.export();
    let sections = [
        (TAG_PROGRAMS, encode_programs(&resident.programs, &resident.names)),
        (TAG_SOLVED, encode_solved(&resident.solved, &resident.programs)),
        (TAG_DEMAND, encode_demand(&resident.demand)),
    ];
    let mut out = W(MAGIC.to_vec());
    out.u32(VERSION);
    out.u32(sections.len() as u32);
    for (tag, payload) in sections {
        out.frame(tag, &payload);
    }
    out.0
}

fn section_name(tag: u8) -> Option<&'static str> {
    match tag {
        TAG_PROGRAMS => Some("programs"),
        TAG_SOLVED => Some("solved"),
        TAG_DEMAND => Some("demand"),
        _ => None,
    }
}

/// Reads the header and every section frame, each with the offset of its
/// tag byte, without checking checksums or decoding payloads.
fn read_frames(bytes: &[u8]) -> Result<Vec<(usize, Frame<'_>)>, SnapshotError> {
    let mut r = Rd::new(bytes, "header");
    if r.take(8)? != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(SnapshotError::BadVersion(version));
    }
    let nsections = r.u32()?;
    let mut out = Vec::new();
    for _ in 0..nsections {
        let header_start = r.pos;
        out.push((header_start, r.frame(section_name)?));
    }
    if r.pos != bytes.len() {
        return Err(SnapshotError::Malformed {
            section: "header",
            detail: format!("{} trailing bytes after last section", bytes.len() - r.pos),
        });
    }
    Ok(out)
}

/// Parses the header and section framing without decoding payloads — the
/// corruption property tests use these ranges to target their damage.
pub fn sections(bytes: &[u8]) -> Result<Vec<SectionInfo>, SnapshotError> {
    let info = |(header_start, f): (usize, Frame<'_>)| SectionInfo {
        tag: f.tag,
        header_start,
        payload_start: header_start + FRAME_HEADER_LEN,
        payload_end: header_start + FRAME_HEADER_LEN + f.payload.len(),
    };
    Ok(read_frames(bytes)?.into_iter().map(info).collect())
}

/// Decodes a snapshot into ready-to-insert cache values.
///
/// # Errors
///
/// Any framing, checksum, or payload defect comes back as the matching
/// [`SnapshotError`]; decoding never panics on untrusted bytes.
pub fn decode(bytes: &[u8]) -> Result<SnapshotData, SnapshotError> {
    let mut data = SnapshotData {
        programs: Vec::new(),
        solved: Vec::new(),
        demand: Vec::new(),
    };
    let mut payloads: [Option<&[u8]>; 3] = [None; 3];
    for (_, f) in read_frames(bytes)? {
        let section = f.name;
        if fnv64(f.payload) != f.checksum {
            return Err(SnapshotError::Checksum { section });
        }
        let slot = &mut payloads[(f.tag - 1) as usize];
        if slot.is_some() {
            return Err(SnapshotError::Malformed {
                section,
                detail: "duplicate section".to_string(),
            });
        }
        *slot = Some(f.payload);
    }
    // Programs first: the summaries are checked against them.
    let [programs, solved, demand] = payloads;
    if let Some(p) = programs {
        data.programs = decode_programs(p)?;
    }
    if let Some(p) = solved {
        data.solved = decode_solved(p, &data.programs)?;
    }
    if let Some(p) = demand {
        data.demand = decode_demand(p)?;
    }
    Ok(data)
}

/// Inserts decoded snapshot data into the cache **without** recording any
/// hit or miss — restored warmth answers no query. Returns the number of
/// entries inserted.
pub fn restore(cache: &SessionCache, data: SnapshotData) -> usize {
    let n = data.len();
    for e in data.programs {
        cache.restore_program(Arc::new(e));
    }
    for (k, s) in data.solved {
        cache.restore_solved(k, Arc::new(s));
    }
    for (k, a) in data.demand {
        cache.restore_demand(k, Arc::new(a));
    }
    n
}

/// Writes the cache to `dir/`[`SNAPSHOT_FILE`] atomically (temp file +
/// rename), creating `dir` if needed. Returns the bytes written.
///
/// # Errors
///
/// Filesystem failures only — encoding itself cannot fail.
pub fn save_to_dir(cache: &SessionCache, dir: &Path) -> Result<u64, SnapshotError> {
    std::fs::create_dir_all(dir)?;
    let bytes = encode(cache);
    let tmp = dir.join(format!("{SNAPSHOT_FILE}.tmp.{}", std::process::id()));
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, dir.join(SNAPSHOT_FILE))?;
    Ok(bytes.len() as u64)
}

/// Loads `dir/`[`SNAPSHOT_FILE`] into the cache. Returns `Ok(None)` when
/// no snapshot exists yet (a fresh directory is a cold start, not an
/// error) and `Ok(Some(entries))` after a successful restore.
///
/// # Errors
///
/// A present-but-unloadable snapshot: corrupt framing, checksum mismatch,
/// malformed payload, or an I/O failure mid-read. The cache is untouched
/// in every error case.
pub fn load_from_dir(cache: &SessionCache, dir: &Path) -> Result<Option<usize>, SnapshotError> {
    let path = dir.join(SNAPSHOT_FILE);
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(SnapshotError::Io(e)),
    };
    let data = decode(&bytes)?;
    Ok(Some(restore(cache, data)))
}
