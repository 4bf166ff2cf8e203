//! Per-request and aggregate server metrics.
//!
//! Every scalar counter is one cell of a single array, described by one
//! row of [`COUNTERS`]: its path in the `stats` reply and how it renders.
//! [`Metrics::snapshot`] and [`Metrics::summary_line`] walk that table, so
//! adding a counter is one row in the `counters!` list below plus one
//! [`add`](Metrics::add)/[`set`](Metrics::set) where the event happens.
//!
//! Every cell is a relaxed atomic: workers bump them on their own threads
//! and the `stats` query (or the shutdown summary) reads a snapshot.
//! Relaxed ordering is fine — the counters are monotone tallies and
//! gauges, not synchronization.
//!
//! The counters reconcile: every reply the server emits records exactly
//! one of [`record_ok`](Metrics::record_ok) or
//! [`record_error`](Metrics::record_error), so
//! `requests == ok_replies + errors` and `errors == Σ errors_by_kind` hold
//! at any quiescent point — the chaos harness asserts exactly this.

use crate::json::Json;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Duration;

/// The request kinds the server tallies individually.
pub const OP_NAMES: [&str; 9] = [
    "load",
    "points_to",
    "alias",
    "modref",
    "compare_models",
    "stats",
    "shutdown",
    "update",
    "snapshot",
];

/// The failure taxonomy: every error reply carries exactly one of these
/// kinds (see DESIGN.md §7). Unknown kinds are tallied as `internal`.
pub const ERROR_KINDS: [&str; 7] = [
    "bad_request",
    "deadline",
    "edge_limit",
    "cancelled",
    "timeout",
    "overloaded",
    "internal",
];

/// How a counter's cell renders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// A tally or gauge, rendered as an integer.
    Count,
    /// Nanoseconds, rendered as seconds (`{:.3}` in the summary line).
    Secs,
}

/// One row of the metrics table.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Where the value sits in the `stats` reply: a top-level key, or
    /// `"group.key"` for a key of a nested object. Rows of one group are
    /// adjacent.
    pub path: &'static str,
    /// How the cell renders.
    pub unit: Unit,
    /// The shutdown summary's text after this value; empty when the
    /// counter is not in the summary.
    pub summary: &'static str,
}

/// Declares [`Counter`] and [`COUNTERS`] from one list, so the enum and
/// the table cannot disagree on order.
macro_rules! counters {
    ($($(#[doc = $doc:literal])* $name:ident: $path:literal, $unit:ident, $summary:literal;)*) => {
        /// One scalar server counter: its index into [`COUNTERS`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Counter { $($(#[doc = $doc])* $name,)* }

        /// The metrics table: one row per [`Counter`], in `stats` reply order.
        pub const COUNTERS: &[Row] = &[$(Row { path: $path, unit: Unit::$unit, summary: $summary },)*];
    };
}

counters! {
    /// Replies emitted (ok + every error kind).
    Requests: "requests", Count, " requests (";
    /// Successful replies. Not `ok`: every reply already carries that key
    /// as the success flag.
    Ok: "ok_replies", Count, " ok, ";
    /// Error replies of every kind (`errors_by_kind` and `by_op` follow).
    Errors: "errors", Count, " errors, ";
    /// Handler panics caught and converted into `internal` replies.
    Panics: "panics", Count, " panicked); cache program ";
    /// Program-cache (stage 1) hits.
    ProgramHits: "program_hits", Count, "h/";
    /// Program-cache misses: each paid a compile.
    ProgramMisses: "program_misses", Count, "m solve ";
    /// Solve-cache (stages 2+3) hits.
    SolveHits: "solve_hits", Count, "h/";
    /// Solve-cache misses: each paid a solve and a summary build.
    SolveMisses: "solve_misses", Count, "m demand ";
    /// Demand queries answered warm: a cached answer, or one derived from a
    /// resident full solve.
    DemandHits: "demand.hits", Count, "h/";
    /// Demand queries that sliced and solved.
    DemandMisses: "demand.misses", Count, "m evicted ";
    /// Statements kept by the slices of demand misses.
    DemandSliceStatements: "demand.slice_statements", Count, "";
    /// Statements of the whole programs those slices were cut from.
    DemandTotalStatements: "demand.total_statements", Count, "";
    /// Program entries evicted from the cache.
    ProgramEvictions: "program_evictions", Count, "p+";
    /// Summaries and demand answers evicted from the cache.
    SolveEvictions: "solve_evictions", Count, "s (";
    /// Gauge: approximate resident cache bytes.
    CacheBytes: "cache_bytes", Count, " bytes); compile ";
    /// Incremental updates applied.
    Updates: "updates.count", Count, "";
    /// Updates whose diff forced a cold re-solve.
    UpdateFallbacks: "updates.fallbacks", Count, "";
    /// Facts dropped by update retraction.
    UpdateRetractedEdges: "updates.retracted_edges", Count, "";
    /// Diff + re-solve time of updates, kept apart from query solves.
    UpdateResolve: "updates.resolve_s", Secs, "";
    /// Snapshots written to disk.
    SnapshotSaves: "snapshot.saves", Count, "";
    /// Gauge: size of the last snapshot written.
    SnapshotLastSaveBytes: "snapshot.last_save_bytes", Count, "";
    /// Successful startup restores.
    SnapshotRestores: "snapshot.restores", Count, "";
    /// Cache entries (programs + solved + demand) restored.
    SnapshotRestoredEntries: "snapshot.restored_entries", Count, "";
    /// Snapshot saves that failed: the cache stays resident and the WAL
    /// keeps growing.
    SnapshotSaveErrors: "snapshot.save_errors", Count, "";
    /// Snapshots that failed to load: the server started cold.
    SnapshotRestoreErrors: "snapshot.restore_errors", Count, "";
    /// Updates journaled to the write-ahead log.
    WalAppends: "wal.appends", Count, "";
    /// WAL appends that failed: the update applied but is not durable.
    WalAppendErrors: "wal.append_errors", Count, "";
    /// Journaled updates re-applied at startup.
    WalReplayed: "wal.replayed", Count, "";
    /// Journaled updates that failed to re-apply.
    WalReplayErrors: "wal.replay_errors", Count, "";
    /// Startup replays that ended in a torn (truncated mid-record) tail.
    WalTornTail: "wal.torn_tail", Count, "";
    /// Gauge: records journaled since the last snapshot.
    WalDepth: "wal.depth", Count, "";
    /// Gauge: bytes journaled since the last snapshot.
    WalBytes: "wal.bytes", Count, "";
    /// Replies served degraded: a second-choice answer (demand fallback,
    /// non-durable update, brownout shed) instead of the first choice.
    Degraded: "degraded.total", Count, "";
    /// Replies served from summaries known to predate a failed `update`.
    StaleServes: "degraded.stale_serves", Count, "";
    /// Cold-miss requests shed by brownout mode.
    BrownoutSheds: "degraded.brownout_sheds", Count, "";
    /// Compile time paid by program misses.
    Compile: "compile_s", Secs, "s solve ";
    /// Miss work of summaries and demand answers: solve plus summary
    /// build, plus rendering answers from a summary on their first read
    /// (a points-to table's index and each row, a MOD/REF table).
    Solve: "solve_s", Secs, "s lookup ";
    /// Request time outside compile, solve and update: parsing, cache
    /// hits, reading rendered answers, emitting the reply.
    Lookup: "lookup_s", Secs, "s";
}

/// Aggregate counters for one server lifetime.
#[derive(Debug)]
pub struct Metrics {
    cells: [AtomicU64; COUNTERS.len()],
    errors_by_kind: [AtomicU64; ERROR_KINDS.len()],
    by_op: [AtomicU64; OP_NAMES.len()],
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics::new()
    }
}

impl Metrics {
    /// A zeroed metrics block.
    pub fn new() -> Metrics {
        Metrics {
            cells: [const { AtomicU64::new(0) }; COUNTERS.len()],
            errors_by_kind: Default::default(),
            by_op: Default::default(),
        }
    }

    /// Adds `n` to counter `c`.
    pub fn add(&self, c: Counter, n: u64) {
        self.cells[c as usize].fetch_add(n, Relaxed);
    }

    /// Sets gauge `c` to `v`.
    pub fn set(&self, c: Counter, v: u64) {
        self.cells[c as usize].store(v, Relaxed);
    }

    /// Adds `d` to time counter `c` (a [`Unit::Secs`] row).
    pub fn add_time(&self, c: Counter, d: Duration) {
        self.add(c, d.as_nanos() as u64);
    }

    /// The current value of counter `c` (nanoseconds for time counters).
    pub fn get(&self, c: Counter) -> u64 {
        self.cells[c as usize].load(Relaxed)
    }

    /// Tallies one request of kind `op` (an index into [`OP_NAMES`]).
    /// This classifies the request; the outcome is recorded separately by
    /// [`record_ok`](Metrics::record_ok) /
    /// [`record_error`](Metrics::record_error) when the reply is emitted.
    pub fn record_op(&self, op: usize) {
        self.by_op[op].fetch_add(1, Relaxed);
    }

    /// Records one successful reply.
    pub fn record_ok(&self) {
        self.add(Counter::Requests, 1);
        self.add(Counter::Ok, 1);
    }

    /// Records one error reply of the given kind (an entry of
    /// [`ERROR_KINDS`]; unknown kinds count as `internal`).
    pub fn record_error(&self, kind: &str) {
        self.add(Counter::Requests, 1);
        self.add(Counter::Errors, 1);
        let idx = ERROR_KINDS
            .iter()
            .position(|k| *k == kind)
            .unwrap_or(ERROR_KINDS.len() - 1);
        self.errors_by_kind[idx].fetch_add(1, Relaxed);
    }

    /// Total replies emitted (ok + every error kind).
    pub fn requests(&self) -> u64 {
        self.get(Counter::Requests)
    }

    /// Successful replies emitted.
    pub fn ok(&self) -> u64 {
        self.get(Counter::Ok)
    }

    /// Error replies of the given kind.
    pub fn errors_of_kind(&self, kind: &str) -> u64 {
        ERROR_KINDS
            .iter()
            .position(|k| *k == kind)
            .map(|i| self.errors_by_kind[i].load(Relaxed))
            .unwrap_or(0)
    }

    /// Every `overloaded` reply: connections shed at the accept queue plus
    /// requests shed by brownout mode.
    pub fn shed(&self) -> u64 {
        self.errors_of_kind("overloaded")
    }

    /// Handler panics caught and converted into `internal` replies.
    pub fn panics(&self) -> u64 {
        self.get(Counter::Panics)
    }

    /// `(program, solved)` cache evictions so far.
    pub fn evictions(&self) -> (u64, u64) {
        (
            self.get(Counter::ProgramEvictions),
            self.get(Counter::SolveEvictions),
        )
    }

    /// Total cache misses (program compiles + solves).
    pub fn total_misses(&self) -> u64 {
        self.get(Counter::ProgramMisses) + self.get(Counter::SolveMisses)
    }

    /// The `stats` response payload: every table row in order, rows of a
    /// group nested under it, with `errors_by_kind` and `by_op` after
    /// `errors`.
    pub fn snapshot(&self) -> Json {
        let tally = |names: &[&'static str], cells: &[AtomicU64]| {
            let counts = cells.iter().map(|c| Json::count(c.load(Relaxed)));
            Json::obj(names.iter().copied().zip(counts))
        };
        let mut out: Vec<(String, Json)> = Vec::new();
        for (i, row) in COUNTERS.iter().enumerate() {
            let n = self.cells[i].load(Relaxed);
            let v = match row.unit {
                Unit::Count => Json::count(n),
                Unit::Secs => Json::num(n as f64 / 1e9),
            };
            match row.path.split_once('.') {
                None => out.push((row.path.to_string(), v)),
                Some((group, key)) => match out.last_mut() {
                    Some((g, Json::Obj(pairs))) if g == group => pairs.push((key.to_string(), v)),
                    _ => out.push((group.to_string(), Json::obj([(key, v)]))),
                },
            }
            if i == Counter::Errors as usize {
                let kinds = tally(&ERROR_KINDS, &self.errors_by_kind);
                out.push(("errors_by_kind".into(), kinds));
                out.push(("by_op".into(), tally(&OP_NAMES, &self.by_op)));
            }
        }
        Json::Obj(out)
    }

    /// The one-line shutdown summary: the rows with summary text, in table
    /// order, with the `shed` count after `errors`:
    ///
    /// `structcast-server: served R requests (O ok, E errors, S shed, P
    /// panicked); cache program Hh/Mm solve Hh/Mm demand Hh/Mm evicted
    /// Pp+Ss (B bytes); compile Cs solve Ss lookup Ls`
    pub fn summary_line(&self) -> String {
        let mut line = String::from("structcast-server: served ");
        for (i, row) in COUNTERS.iter().enumerate() {
            let n = self.cells[i].load(Relaxed);
            let _ = match row.unit {
                _ if row.summary.is_empty() => Ok(()),
                Unit::Count => write!(line, "{n}{}", row.summary),
                Unit::Secs => write!(line, "{:.3}{}", n as f64 / 1e9, row.summary),
            };
            if i == Counter::Errors as usize {
                let _ = write!(line, "{} shed, ", self.shed());
            }
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Counter::*;

    /// Records `n` events through `f`.
    fn times(n: u64, mut f: impl FnMut()) {
        (0..n).for_each(|_| f());
    }

    #[test]
    fn snapshot_reflects_recorded_events() {
        let m = Metrics::new();
        m.record_op(0);
        m.record_op(1);
        m.record_op(1);
        m.record_ok();
        m.record_ok();
        m.record_ok();
        m.record_error("bad_request");
        m.add(ProgramMisses, 1);
        m.add_time(Compile, Duration::from_millis(10));
        m.add(ProgramHits, 1);
        m.add(SolveMisses, 1);
        m.add_time(Solve, Duration::from_millis(20));
        m.add(SolveHits, 1);
        m.add_time(Lookup, Duration::from_micros(5));
        let s = m.snapshot();
        assert_eq!(s.get("requests").and_then(Json::as_u64), Some(4));
        assert_eq!(s.get("ok_replies").and_then(Json::as_u64), Some(3));
        assert_eq!(s.get("errors").and_then(Json::as_u64), Some(1));
        let by_kind = s.get("errors_by_kind").unwrap();
        assert_eq!(by_kind.get("bad_request").and_then(Json::as_u64), Some(1));
        assert_eq!(by_kind.get("internal").and_then(Json::as_u64), Some(0));
        let by_op = s.get("by_op").unwrap();
        assert_eq!(by_op.get("load").and_then(Json::as_u64), Some(1));
        assert_eq!(by_op.get("points_to").and_then(Json::as_u64), Some(2));
        assert_eq!(s.get("program_hits").and_then(Json::as_u64), Some(1));
        assert_eq!(s.get("program_misses").and_then(Json::as_u64), Some(1));
        assert_eq!(s.get("solve_hits").and_then(Json::as_u64), Some(1));
        assert_eq!(s.get("solve_misses").and_then(Json::as_u64), Some(1));
        assert!(s.get("compile_s").and_then(Json::as_f64).unwrap() > 0.0);
        assert_eq!(m.total_misses(), 2);
        let line = m.summary_line();
        assert!(line.contains("served 4 requests"), "{line}");
    }

    #[test]
    fn update_counters_tally_and_snapshot() {
        let m = Metrics::new();
        m.add(Updates, 1);
        m.add(UpdateRetractedEdges, 12);
        m.add_time(UpdateResolve, Duration::from_millis(2));
        m.add(Updates, 1);
        m.add(UpdateFallbacks, 1);
        m.add(UpdateRetractedEdges, 100);
        m.add_time(UpdateResolve, Duration::from_millis(5));
        assert_eq!((m.get(Updates), m.get(UpdateFallbacks)), (2, 1));
        let s = m.snapshot();
        let u = s.get("updates").unwrap();
        assert_eq!(u.get("count").and_then(Json::as_u64), Some(2));
        assert_eq!(u.get("fallbacks").and_then(Json::as_u64), Some(1));
        assert_eq!(u.get("retracted_edges").and_then(Json::as_u64), Some(112));
        assert!(u.get("resolve_s").and_then(Json::as_f64).unwrap() > 0.0);
        // The new op is tallied like any other.
        assert_eq!(OP_NAMES[7], "update");
        m.record_op(7);
        let s = m.snapshot();
        assert_eq!(
            s.get("by_op")
                .and_then(|o| o.get("update"))
                .and_then(Json::as_u64),
            Some(1)
        );
    }

    #[test]
    fn demand_counters_tally_and_snapshot() {
        let m = Metrics::new();
        m.add(DemandMisses, 1);
        m.add(DemandSliceStatements, 10);
        m.add(DemandTotalStatements, 100);
        m.add_time(Solve, Duration::from_millis(3));
        m.add(DemandHits, 1);
        assert_eq!((m.get(DemandHits), m.get(DemandMisses)), (1, 1));
        let s = m.snapshot();
        let d = s.get("demand").unwrap();
        assert_eq!(d.get("hits").and_then(Json::as_u64), Some(1));
        assert_eq!(d.get("misses").and_then(Json::as_u64), Some(1));
        assert_eq!(d.get("slice_statements").and_then(Json::as_u64), Some(10));
        assert_eq!(d.get("total_statements").and_then(Json::as_u64), Some(100));
        // Demand solve time folds into the shared solve gauge.
        assert!(s.get("solve_s").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(
            m.summary_line().contains("demand 1h/1m"),
            "{}",
            m.summary_line()
        );
    }

    #[test]
    fn wal_and_degradation_counters_tally_and_snapshot() {
        let m = Metrics::new();
        m.add(WalAppends, 1);
        m.set(WalDepth, 1);
        m.set(WalBytes, 64);
        m.add(WalAppends, 1);
        m.set(WalDepth, 2);
        m.set(WalBytes, 128);
        m.add(WalAppendErrors, 1);
        m.add(WalReplayed, 5);
        m.add(WalReplayErrors, 1);
        m.add(WalTornTail, 1);
        m.add(SnapshotSaveErrors, 1);
        m.add(Degraded, 2);
        m.add(StaleServes, 1);
        m.add(BrownoutSheds, 1);
        let wal = [
            WalAppends,
            WalAppendErrors,
            WalReplayed,
            WalReplayErrors,
            WalTornTail,
        ];
        assert_eq!(wal.map(|c| m.get(c)), [2, 1, 5, 1, 1]);
        assert_eq!((m.get(WalDepth), m.get(WalBytes)), (2, 128));
        assert_eq!(
            [Degraded, StaleServes, BrownoutSheds].map(|c| m.get(c)),
            [2, 1, 1]
        );
        m.set(WalDepth, 0);
        m.set(WalBytes, 0);
        assert_eq!(
            (m.get(WalDepth), m.get(WalBytes)),
            (0, 0),
            "snapshot truncation resets gauges"
        );
        let s = m.snapshot();
        let w = s.get("wal").unwrap();
        assert_eq!(w.get("appends").and_then(Json::as_u64), Some(2));
        assert_eq!(w.get("append_errors").and_then(Json::as_u64), Some(1));
        assert_eq!(w.get("replayed").and_then(Json::as_u64), Some(5));
        assert_eq!(w.get("replay_errors").and_then(Json::as_u64), Some(1));
        assert_eq!(w.get("torn_tail").and_then(Json::as_u64), Some(1));
        assert_eq!(w.get("depth").and_then(Json::as_u64), Some(0));
        let d = s.get("degraded").unwrap();
        assert_eq!(d.get("total").and_then(Json::as_u64), Some(2));
        assert_eq!(d.get("stale_serves").and_then(Json::as_u64), Some(1));
        assert_eq!(d.get("brownout_sheds").and_then(Json::as_u64), Some(1));
        let snap = s.get("snapshot").unwrap();
        assert_eq!(snap.get("save_errors").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn replies_reconcile_and_evictions_tally() {
        let m = Metrics::new();
        m.record_ok();
        m.record_error("deadline");
        m.record_error("edge_limit");
        m.record_error("overloaded");
        m.record_error("no-such-kind"); // tallied as internal
        m.add(Panics, 1);
        m.add(ProgramEvictions, 2);
        m.add(SolveEvictions, 5);
        m.set(CacheBytes, 12_345);
        assert_eq!(m.requests(), 5);
        assert_eq!(m.ok(), 1);
        let errors: u64 = ERROR_KINDS.iter().map(|k| m.errors_of_kind(k)).sum();
        assert_eq!(m.requests(), m.ok() + errors, "replies must reconcile");
        assert_eq!(m.errors_of_kind("internal"), 1);
        assert_eq!(m.shed(), 1);
        assert_eq!(m.panics(), 1);
        assert_eq!(m.evictions(), (2, 5));
        let s = m.snapshot();
        assert_eq!(s.get("program_evictions").and_then(Json::as_u64), Some(2));
        assert_eq!(s.get("solve_evictions").and_then(Json::as_u64), Some(5));
        assert_eq!(s.get("cache_bytes").and_then(Json::as_u64), Some(12_345));
        assert_eq!(s.get("panics").and_then(Json::as_u64), Some(1));
        let line = m.summary_line();
        assert!(line.contains("1 shed"), "{line}");
        assert!(line.contains("evicted 2p+5s"), "{line}");
    }

    #[test]
    fn stats_reply_and_summary_are_golden() {
        let m = Metrics::new();
        let ms = Duration::from_millis;
        for (i, kind) in ERROR_KINDS.iter().enumerate() {
            times(i as u64 + 1, || m.record_error(kind));
        }
        times(40, || m.record_ok());
        for op in 0..OP_NAMES.len() {
            times(op as u64 + 50, || m.record_op(op));
        }
        m.add(Panics, 11);
        m.add(ProgramHits, 12);
        m.add(ProgramMisses, 13);
        times(13, || m.add_time(Compile, ms(7)));
        m.add(SolveHits, 14);
        m.add(SolveMisses, 15);
        times(15, || m.add_time(Solve, ms(9)));
        m.add(DemandHits, 16);
        m.add(DemandMisses, 17);
        m.add(DemandSliceStatements, 17 * 5);
        m.add(DemandTotalStatements, 17 * 50);
        times(17, || m.add_time(Solve, ms(2)));
        m.add(ProgramEvictions, 18);
        m.add(SolveEvictions, 19);
        m.set(CacheBytes, 20_021);
        m.add(Updates, 22 + 23);
        m.add(UpdateFallbacks, 23);
        m.add(UpdateRetractedEdges, 22 * 5);
        times(22, || m.add_time(UpdateResolve, ms(1)));
        m.add(SnapshotSaves, 25);
        m.set(SnapshotLastSaveBytes, 25_026);
        m.add(SnapshotRestores, 27);
        m.add(SnapshotRestoredEntries, 27 * 4);
        m.add(SnapshotSaveErrors, 44);
        m.add(SnapshotRestoreErrors, 29);
        m.add(WalAppends, 30);
        m.add(WalAppendErrors, 31);
        m.add(WalReplayed, 32);
        m.add(WalReplayErrors, 33);
        m.add(WalTornTail, 34);
        m.set(WalDepth, 35);
        m.set(WalBytes, 36_037);
        m.add(Degraded, 38);
        m.add(StaleServes, 39);
        m.add(BrownoutSheds, 41);
        times(43, || m.add_time(Lookup, ms(3)));
        assert_eq!(
            m.snapshot().to_string(),
            concat!(
                r#"{"requests": 68, "ok_replies": 40, "errors": 28, "#,
                r#""errors_by_kind": {"bad_request": 1, "deadline": 2, "edge_limit": 3, "#,
                r#""cancelled": 4, "timeout": 5, "overloaded": 6, "internal": 7}, "#,
                r#""by_op": {"load": 50, "points_to": 51, "alias": 52, "modref": 53, "#,
                r#""compare_models": 54, "stats": 55, "shutdown": 56, "update": 57, "#,
                r#""snapshot": 58}, "panics": 11, "program_hits": 12, "program_misses": 13, "#,
                r#""solve_hits": 14, "solve_misses": 15, "#,
                r#""demand": {"hits": 16, "misses": 17, "slice_statements": 85, "#,
                r#""total_statements": 850}, "program_evictions": 18, "solve_evictions": 19, "#,
                r#""cache_bytes": 20021, "#,
                r#""updates": {"count": 45, "fallbacks": 23, "retracted_edges": 110, "#,
                r#""resolve_s": 0.022}, "#,
                r#""snapshot": {"saves": 25, "last_save_bytes": 25026, "restores": 27, "#,
                r#""restored_entries": 108, "save_errors": 44, "restore_errors": 29}, "#,
                r#""wal": {"appends": 30, "append_errors": 31, "replayed": 32, "#,
                r#""replay_errors": 33, "torn_tail": 34, "depth": 35, "bytes": 36037}, "#,
                r#""degraded": {"total": 38, "stale_serves": 39, "brownout_sheds": 41}, "#,
                r#""compile_s": 0.091, "solve_s": 0.169, "lookup_s": 0.129}"#,
            )
        );
        assert_eq!(
            m.summary_line(),
            "structcast-server: served 68 requests (40 ok, 28 errors, 6 shed, 11 panicked); \
             cache program 12h/13m solve 14h/15m demand 16h/17m evicted 18p+19s \
             (20021 bytes); compile 0.091s solve 0.169s lookup 0.129s"
        );
    }

    /// Every leaf of `v` as a dotted path.
    fn leaf_paths(v: &Json, prefix: &str, out: &mut Vec<String>) {
        match v {
            Json::Obj(pairs) => {
                for (k, child) in pairs {
                    let path = if prefix.is_empty() {
                        k.clone()
                    } else {
                        format!("{prefix}.{k}")
                    };
                    leaf_paths(child, &path, out);
                }
            }
            _ => out.push(prefix.to_string()),
        }
    }

    #[test]
    fn every_row_appears_exactly_once_in_the_stats_reply() {
        let mut leaves = Vec::new();
        leaf_paths(&Metrics::new().snapshot(), "", &mut leaves);
        for row in COUNTERS {
            let n = leaves.iter().filter(|p| *p == row.path).count();
            assert_eq!(n, 1, "{} appears {n} times in {leaves:?}", row.path);
        }
        // Everything else is the two indexed tallies.
        assert_eq!(
            leaves.len(),
            COUNTERS.len() + ERROR_KINDS.len() + OP_NAMES.len()
        );
    }
}
