//! Write-ahead journal for `update` ops.
//!
//! A snapshot captures the cache at an instant; every `update` accepted
//! *after* that instant would vanish on a crash. The WAL closes the gap:
//! each accepted update appends one checksummed record to
//! `<snapshot_dir>/wal`, fsync'd before the server replies, so restore is
//! snapshot load **followed by** journal replay and no acknowledged edit
//! is ever lost to a SIGKILL.
//!
//! ## File format
//!
//! The same `tag + len + fnv64 + payload` frame as `SCSNAP01`, written
//! and read by the same codec (see [`crate::snapshot`]), one frame per
//! record instead of per section:
//!
//! ```text
//! header:  magic "SCWAL001" (8 bytes) · version u32-le
//! record:  tag u8 (= 1, update) · payload_len u64-le · fnv64(payload) u64-le · payload
//! payload: program_len u64-le · program bytes · source_len u64-le · source bytes
//! ```
//!
//! ## Replay and truncation rules
//!
//! Replay reads records until the first malformed one — a torn tail from
//! a crash mid-append — and **stops there**: every whole record before
//! the tear re-applies, the tear itself is reported (`torn_tail`) and the
//! file is truncated back to the last whole record before new appends, so
//! one crash can never corrupt later appends. A missing file is an empty
//! journal; a file whose *header* is mangled replays nothing (and is
//! rewritten on open). Replay is idempotent: records carry the full
//! post-edit source text, so re-applying an update the snapshot already
//! covers converges to the same cache state.
//!
//! A successful snapshot save makes the journal's contents redundant, so
//! the saver truncates it back to a bare header — atomically, via the
//! same temp-file + rename dance as the snapshot itself.

use crate::faults::{DiskFault, FaultPlan};
use crate::snapshot::{fnv64, Rd, W};
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Journal file name inside the snapshot directory.
pub const WAL_FILE: &str = "wal";

/// Magic prefix of a journal file.
pub const MAGIC: [u8; 8] = *b"SCWAL001";

/// Format version this build reads and writes.
pub const VERSION: u32 = 1;

/// Record tag: one `update` op (program name + full post-edit source).
const TAG_UPDATE: u8 = 1;

const HEADER_LEN: u64 = 8 + 4;

/// One journaled update, decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Program name the update targeted.
    pub program: String,
    /// Full post-edit source text.
    pub source: String,
}

/// What a journal replay found.
#[derive(Debug, Default)]
pub struct ReplayInfo {
    /// Whole, checksum-valid records in journal order.
    pub records: Vec<WalRecord>,
    /// True when the file ended in a partial or corrupt record (crash
    /// mid-append): everything before it is in `records`.
    pub torn_tail: bool,
    /// Byte offset of the end of the last whole record (where appends
    /// should resume after truncating the tear).
    pub valid_bytes: u64,
}

/// An open journal, positioned for appending.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    depth: u64,
    /// Length of the durable, whole-record prefix — the file may be
    /// longer than this right after a short (torn) append.
    bytes: u64,
    /// A failed append left a torn record on disk past `bytes`; the next
    /// append truncates it away first so later good records are never
    /// orphaned behind it on replay.
    torn: bool,
}

fn encode_record(program: &str, source: &str) -> Vec<u8> {
    let mut payload = W(Vec::with_capacity(16 + program.len() + source.len()));
    payload.str(program);
    payload.str(source);
    let mut rec = W(Vec::with_capacity(17 + payload.0.len()));
    rec.frame(TAG_UPDATE, &payload.0);
    rec.0
}

fn header_bytes() -> Vec<u8> {
    let mut h = W(MAGIC.to_vec());
    h.u32(VERSION);
    h.0
}

/// Decodes the record frame at the reader's position; `None` when it is
/// torn, corrupt or of an unknown kind.
fn read_record(r: &mut Rd<'_>) -> Option<WalRecord> {
    let frame = r.frame(|tag| (tag == TAG_UPDATE).then_some("wal")).ok()?;
    if fnv64(frame.payload) != frame.checksum {
        return None;
    }
    let mut p = Rd::new(frame.payload, "wal");
    let record = WalRecord {
        program: p.str().ok()?,
        source: p.str().ok()?,
    };
    p.done().ok()?;
    Some(record)
}

/// Decodes every whole record of the journal at `dir/`[`WAL_FILE`].
/// A missing file is an empty journal; any malformed byte — bad header,
/// truncated record, checksum mismatch, unknown tag — ends the replay at
/// the last whole record with `torn_tail` set. Never panics, never errs
/// on corruption; only a genuine I/O failure (permissions, hardware)
/// returns `Err`.
pub fn replay(dir: &Path) -> std::io::Result<ReplayInfo> {
    let mut buf = Vec::new();
    match File::open(dir.join(WAL_FILE)) {
        Ok(mut f) => {
            f.read_to_end(&mut buf)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(ReplayInfo::default());
        }
        Err(e) => return Err(e),
    }
    let mut info = ReplayInfo::default();
    let mut r = Rd::new(&buf, "wal");
    if r.take(8).ok() != Some(&MAGIC[..]) || r.u32().ok() != Some(VERSION) {
        // A mangled header orphans the whole file: report it as torn (if
        // non-empty) and let `Wal::open` rewrite it from scratch.
        info.torn_tail = !buf.is_empty();
        return Ok(info);
    }
    info.valid_bytes = HEADER_LEN;
    while r.pos < buf.len() {
        match read_record(&mut r) {
            Some(rec) => {
                info.records.push(rec);
                info.valid_bytes = r.pos as u64;
            }
            None => {
                info.torn_tail = true;
                break;
            }
        }
    }
    Ok(info)
}

impl Wal {
    /// Opens (or creates) the journal in `dir`, positioned after the last
    /// whole record. A torn tail found by [`replay`] is cut off here —
    /// the file is truncated back to `valid_bytes` — so the next append
    /// lands on a clean boundary. `depth` seeds the records-since-last-
    /// snapshot gauge (pass the replay's record count).
    pub fn open(dir: &Path, depth: u64) -> std::io::Result<Wal> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(WAL_FILE);
        let info = replay(dir)?;
        let file = if info.valid_bytes < HEADER_LEN {
            // Missing or header-mangled: start a fresh journal.
            let mut f = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&path)?;
            f.write_all(&header_bytes())?;
            f.sync_all()?;
            f
        } else {
            let f = OpenOptions::new().write(true).open(&path)?;
            f.set_len(info.valid_bytes)?;
            if info.torn_tail {
                f.sync_all()?;
            }
            f
        };
        let bytes = file.metadata()?.len();
        let mut wal = Wal {
            file,
            path,
            depth,
            bytes,
            torn: false,
        };
        wal.seek_end()?;
        Ok(wal)
    }

    fn seek_end(&mut self) -> std::io::Result<()> {
        use std::io::Seek;
        self.file.seek(std::io::SeekFrom::End(0))?;
        Ok(())
    }

    /// Appends one update record and fsyncs before returning, so a reply
    /// sent after this call is durable. `faults` drives the injected disk
    /// sites: `err@wal_append` fails before writing anything,
    /// `short@wal_append` persists a deliberately torn half-record (what
    /// a power cut mid-append leaves behind) and then fails.
    pub fn append(
        &mut self,
        program: &str,
        source: &str,
        faults: &FaultPlan,
    ) -> std::io::Result<()> {
        let rec = encode_record(program, source);
        if self.torn {
            // A previous append tore; cut the partial record back out so
            // this record lands on a whole-record boundary. Until this
            // succeeds the journal stays torn (replay handles that).
            use std::io::Seek;
            self.file.set_len(self.bytes)?;
            self.file.seek(std::io::SeekFrom::Start(self.bytes))?;
            self.torn = false;
        }
        match faults.fire_disk("wal_append") {
            Some(DiskFault::Error) => {
                return Err(DiskFault::Error.to_error("wal_append"));
            }
            Some(DiskFault::ShortWrite) => {
                self.file.write_all(&rec[..rec.len() / 2])?;
                self.file.sync_all()?;
                self.torn = true;
                return Err(DiskFault::ShortWrite.to_error("wal_append"));
            }
            None => {}
        }
        if let Err(e) = self.file.write_all(&rec).and_then(|()| self.file.sync_all()) {
            // A real short/failed write may have persisted a prefix of
            // the record; treat the tail as torn like the injected case.
            self.torn = true;
            return Err(e);
        }
        self.depth += 1;
        self.bytes += rec.len() as u64;
        Ok(())
    }

    /// Atomically resets the journal to a bare header — called after a
    /// successful snapshot save makes its contents redundant. Writes a
    /// fresh header to a temp file, fsyncs, renames over the journal, and
    /// reopens: a crash at any point leaves either the old journal
    /// (harmless, replay is idempotent) or the new empty one.
    pub fn truncate(&mut self) -> std::io::Result<()> {
        let dir = self.path.parent().unwrap_or(Path::new("."));
        let tmp = dir.join(format!("{WAL_FILE}.tmp.{}", std::process::id()));
        let mut f = File::create(&tmp)?;
        f.write_all(&header_bytes())?;
        f.sync_all()?;
        std::fs::rename(&tmp, &self.path)?;
        self.file = OpenOptions::new().write(true).open(&self.path)?;
        self.depth = 0;
        self.bytes = HEADER_LEN;
        self.torn = false;
        self.seek_end()?;
        Ok(())
    }

    /// Records appended since the journal was last truncated (or, right
    /// after open, the replayed record count).
    pub fn depth(&self) -> u64 {
        self.depth
    }

    /// Current journal size in bytes (including any persisted torn tail
    /// from an injected short write).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "scast-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn no_faults() -> FaultPlan {
        FaultPlan::default()
    }

    #[test]
    fn append_then_replay_round_trips() {
        let dir = tmp_dir("roundtrip");
        let mut wal = Wal::open(&dir, 0).unwrap();
        wal.append("bst", "int x; void f(void) {}", &no_faults()).unwrap();
        wal.append("live", "int y, *p; void g(void) { p = &y; }", &no_faults())
            .unwrap();
        assert_eq!(wal.depth(), 2);
        let info = replay(&dir).unwrap();
        assert!(!info.torn_tail);
        assert_eq!(info.records.len(), 2);
        assert_eq!(info.records[0].program, "bst");
        assert_eq!(info.records[1].source, "int y, *p; void g(void) { p = &y; }");
        assert_eq!(info.valid_bytes, wal.bytes());
        // Reopen resumes appending after the existing records.
        drop(wal);
        let mut wal = Wal::open(&dir, info.records.len() as u64).unwrap();
        assert_eq!(wal.depth(), 2);
        wal.append("bst", "int z;", &no_faults()).unwrap();
        assert_eq!(replay(&dir).unwrap().records.len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_an_empty_journal() {
        let dir = tmp_dir("missing");
        let info = replay(&dir).unwrap();
        assert!(info.records.is_empty());
        assert!(!info.torn_tail);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncate_resets_to_bare_header() {
        let dir = tmp_dir("truncate");
        let mut wal = Wal::open(&dir, 0).unwrap();
        wal.append("bst", "int a;", &no_faults()).unwrap();
        wal.truncate().unwrap();
        assert_eq!(wal.depth(), 0);
        assert_eq!(wal.bytes(), HEADER_LEN);
        let info = replay(&dir).unwrap();
        assert!(info.records.is_empty());
        assert!(!info.torn_tail);
        // Appends keep working after the reset.
        wal.append("bst", "int b;", &no_faults()).unwrap();
        assert_eq!(replay(&dir).unwrap().records.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The acceptance sweep: truncating the journal at *every* byte
    /// offset must replay cleanly — whole records before the cut survive,
    /// the cut itself is reported as a torn tail, and nothing panics.
    #[test]
    fn torn_tail_sweep_over_every_truncation_offset() {
        let dir = tmp_dir("sweep");
        let mut wal = Wal::open(&dir, 0).unwrap();
        let updates = [
            ("bst", "int x;"),
            ("live", "int y, *p; void f(void) { p = &y; }"),
            ("bst", "int x, z;"),
        ];
        let mut boundaries = vec![HEADER_LEN];
        for (prog, src) in updates {
            wal.append(prog, src, &no_faults()).unwrap();
            boundaries.push(wal.bytes());
        }
        let full = std::fs::read(dir.join(WAL_FILE)).unwrap();
        for cut in 0..=full.len() {
            std::fs::write(dir.join(WAL_FILE), &full[..cut]).unwrap();
            let info = replay(&dir).unwrap();
            // Records survive exactly up to the last whole-record boundary.
            let whole = boundaries.iter().filter(|b| **b <= cut as u64).count();
            let expect_records = whole.saturating_sub(1);
            assert_eq!(
                info.records.len(),
                expect_records,
                "cut at byte {cut} of {}",
                full.len()
            );
            for (r, (prog, src)) in info.records.iter().zip(updates.iter()) {
                assert_eq!((r.program.as_str(), r.source.as_str()), (*prog, *src));
            }
            // Torn iff the cut lands mid-record or mid-header; a cut at a
            // record boundary (or the empty file) is a clean journal.
            let at_boundary = boundaries.contains(&(cut as u64));
            assert_eq!(
                info.torn_tail,
                cut != 0 && !at_boundary,
                "cut at byte {cut}"
            );
        }
        // An empty file replays as untorn-empty (fresh-journal case).
        std::fs::write(dir.join(WAL_FILE), b"").unwrap();
        assert!(!replay(&dir).unwrap().torn_tail);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_cuts_a_torn_tail_and_appends_cleanly_after_it() {
        let dir = tmp_dir("cut");
        let mut wal = Wal::open(&dir, 0).unwrap();
        wal.append("bst", "int x;", &no_faults()).unwrap();
        let good = wal.bytes();
        wal.append("live", "int y;", &no_faults()).unwrap();
        drop(wal);
        // Tear the second record in half.
        let full = std::fs::read(dir.join(WAL_FILE)).unwrap();
        let cut = (good as usize + full.len()) / 2;
        std::fs::write(dir.join(WAL_FILE), &full[..cut]).unwrap();
        let info = replay(&dir).unwrap();
        assert!(info.torn_tail);
        assert_eq!(info.records.len(), 1);
        let mut wal = Wal::open(&dir, info.records.len() as u64).unwrap();
        assert_eq!(wal.bytes(), good, "open truncated back to the whole record");
        wal.append("live", "int y2;", &no_faults()).unwrap();
        let info = replay(&dir).unwrap();
        assert!(!info.torn_tail, "post-cut append lands on a clean boundary");
        assert_eq!(info.records.len(), 2);
        assert_eq!(info.records[1].source, "int y2;");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checksum_catches_a_flipped_payload_bit() {
        let dir = tmp_dir("bitflip");
        let mut wal = Wal::open(&dir, 0).unwrap();
        wal.append("bst", "int x;", &no_faults()).unwrap();
        let mut bytes = std::fs::read(dir.join(WAL_FILE)).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(dir.join(WAL_FILE), &bytes).unwrap();
        let info = replay(&dir).unwrap();
        assert!(info.torn_tail);
        assert!(info.records.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mangled_header_orphans_the_file_and_open_rewrites_it() {
        let dir = tmp_dir("header");
        let mut wal = Wal::open(&dir, 0).unwrap();
        wal.append("bst", "int x;", &no_faults()).unwrap();
        drop(wal);
        let mut bytes = std::fs::read(dir.join(WAL_FILE)).unwrap();
        bytes[0] = b'X';
        std::fs::write(dir.join(WAL_FILE), &bytes).unwrap();
        let info = replay(&dir).unwrap();
        assert!(info.torn_tail);
        assert!(info.records.is_empty());
        let wal = Wal::open(&dir, 0).unwrap();
        assert_eq!(wal.bytes(), HEADER_LEN);
        assert!(!replay(&dir).unwrap().torn_tail);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_disk_faults_fail_append_deterministically() {
        let dir = tmp_dir("faults");
        let mut wal = Wal::open(&dir, 0).unwrap();
        let plan = FaultPlan::parse("err@wal_append:1.0").unwrap();
        let err = wal.append("bst", "int x;", &plan).unwrap_err();
        assert!(err.to_string().contains("injected disk error"), "{err}");
        assert_eq!(wal.depth(), 0);
        assert!(!replay(&dir).unwrap().torn_tail, "err fault writes nothing");

        let plan = FaultPlan::parse("short@wal_append:1.0").unwrap();
        let err = wal.append("bst", "int x;", &plan).unwrap_err();
        assert!(err.to_string().contains("injected short write"), "{err}");
        let info = replay(&dir).unwrap();
        assert!(info.torn_tail, "short write persists a torn half-record");
        assert!(info.records.is_empty());
        // A live journal self-heals: the next append truncates the torn
        // record first, so the new record is never orphaned behind it.
        wal.append("bst", "int healed;", &no_faults()).unwrap();
        let info = replay(&dir).unwrap();
        assert!(!info.torn_tail, "the tear was cut before appending");
        assert_eq!(info.records.len(), 1);
        assert_eq!(info.records[0].source, "int healed;");
        // Recovery across a crash: reopen also cuts a tear, appends resume.
        let plan = FaultPlan::parse("short@wal_append:1.0").unwrap();
        let _ = wal.append("bst", "int torn;", &plan).unwrap_err();
        drop(wal);
        let mut wal = Wal::open(&dir, 1).unwrap();
        wal.append("bst", "int x;", &no_faults()).unwrap();
        let info = replay(&dir).unwrap();
        assert!(!info.torn_tail);
        assert_eq!(info.records.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
