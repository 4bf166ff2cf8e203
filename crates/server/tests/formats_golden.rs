//! Golden bytes for the two on-disk formats: one `SCWAL001` journal (its
//! header plus two update records, byte for byte) and the section framing
//! of a one-program `SCSNAP01` snapshot (header bytes, each section's tag,
//! offsets, length and stored checksum, and a hash of the whole file).
//!
//! Both formats frame their records as `tag · len · fnv64 · payload`. A
//! change to the shared frame codec must leave every line here unchanged;
//! a file written by an older build must still read.
//!
//! Regenerate after an *intentional* format change (which also bumps the
//! format's version) with
//! `UPDATE_GOLDEN=1 cargo test -p structcast-server --test formats_golden`.

use std::fmt::Write as _;
use std::sync::Arc;
use structcast_server::metrics::Metrics;
use structcast_server::snapshot::{self, fnv64};
use structcast_server::wal::{self, Wal};
use structcast_server::{FaultPlan, SessionCache};

const GOLDEN: &str = include_str!("golden/formats.txt");

fn hex(bytes: &[u8]) -> String {
    bytes.iter().fold(String::new(), |mut s, b| {
        let _ = write!(s, "{b:02x}");
        s
    })
}

const UPDATES: [(&str, &str); 2] =
    [("bst", "int x;"), ("live", "int y, *p; void f(void) { p = &y; }")];

fn scratch_dir(test: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("scast-formats-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A journal holding two updates, rendered as hex in 32-byte rows.
fn wal_lines() -> String {
    let dir = scratch_dir("write");
    let mut journal = Wal::open(&dir, 0).unwrap();
    for (program, source) in UPDATES {
        journal.append(program, source, &FaultPlan::default()).unwrap();
    }
    let bytes = std::fs::read(dir.join(wal::WAL_FILE)).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    let mut out = format!("wal bytes={}\n", bytes.len());
    for row in bytes.chunks(32) {
        let _ = writeln!(out, "wal {}", hex(row));
    }
    out
}

/// The framing of a snapshot whose cache holds one program.
fn snapshot_lines() -> String {
    let cache = SessionCache::new(Arc::new(Metrics::new()));
    cache.load(Some("tiny"), "int x, *p; void f(void) { p = &x; }")
        .unwrap();
    let bytes = snapshot::encode(&cache);
    let mut out = format!(
        "snap bytes={} fnv64={:016x}\nsnap header {}\n",
        bytes.len(),
        fnv64(&bytes),
        hex(&bytes[..16])
    );
    for s in snapshot::sections(&bytes).unwrap() {
        let payload = &bytes[s.payload_start..s.payload_end];
        let stored = &bytes[s.payload_start - 8..s.payload_start];
        assert_eq!(hex(stored), hex(&fnv64(payload).to_le_bytes()));
        let _ = writeln!(
            out,
            "snap section tag={} header_start={} payload=[{},{}) frame={}",
            s.tag,
            s.header_start,
            s.payload_start,
            s.payload_end,
            hex(&bytes[s.header_start..s.payload_start])
        );
    }
    out
}

#[test]
fn wal_and_snapshot_bytes_match_the_golden() {
    let got = format!("{}{}", wal_lines(), snapshot_lines());
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/formats.txt");
        std::fs::write(path, &got).unwrap();
        return;
    }
    for (i, (g, w)) in got.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(g, w, "line {} of tests/golden/formats.txt", i + 1);
    }
    assert_eq!(got.lines().count(), GOLDEN.lines().count(), "golden line count");
}

/// The golden journal bytes replay to the two updates they were written
/// from, with no torn tail.
#[test]
fn golden_wal_bytes_replay_both_records() {
    let hex_rows: String = GOLDEN
        .lines()
        .filter_map(|l| l.strip_prefix("wal "))
        .filter(|l| !l.starts_with("bytes="))
        .collect();
    let bytes: Vec<u8> = (0..hex_rows.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex_rows[i..i + 2], 16).unwrap())
        .collect();
    let dir = scratch_dir("replay");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(wal::WAL_FILE), &bytes).unwrap();
    let info = wal::replay(&dir).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!info.torn_tail);
    assert_eq!(info.valid_bytes, bytes.len() as u64);
    let got: Vec<(&str, &str)> =
        info.records.iter().map(|r| (r.program.as_str(), r.source.as_str())).collect();
    assert_eq!(got, UPDATES);
}
