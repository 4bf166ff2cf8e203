//! The TCP front end: accept loop, worker pool, request dispatch.
//!
//! The protocol is newline-delimited JSON over a plain `TcpStream`: one
//! request object per line, one response object per line, in order, on a
//! connection a client may hold for many requests. The accept loop hands
//! connections to a fixed pool of `std::thread` workers through a
//! **bounded** mpsc channel, so up to `threads` clients are served
//! concurrently, up to `backlog` more queue, and anything past that is
//! shed immediately with an `overloaded` reply instead of queueing
//! unboundedly.
//!
//! With a snapshot directory configured ([`ServerConfig::snapshot_dir`])
//! the server loads a warm cache at startup (falling back to a cold
//! start — with a metric — when the snapshot is corrupt), saves on
//! graceful shutdown and on every `snapshot` request, and optionally
//! saves periodically ([`ServerConfig::snapshot_every`]).
//!
//! # Failure containment
//!
//! Every request is dispatched inside `catch_unwind`: a panicking handler
//! costs that request an `internal` error reply, never a pool worker. The
//! shared state a panic could poison — the [`SessionCache`] lock — holds
//! only immutable-once-inserted values, so the cache recovers poisoned
//! guards instead of propagating. Stalled clients are bounded by a
//! per-connection read deadline; tripped budgets and malformed requests
//! come back as structured `{"error": {"kind": ...}}` replies (the
//! taxonomy in [`crate::metrics::ERROR_KINDS`]). Every reply — success,
//! error, or shed — records exactly one metrics outcome, so
//! `requests == ok_replies + Σ error kinds` reconciles at drain.
//!
//! A `shutdown` request is acknowledged on the requesting connection,
//! then: the shutdown flag flips, a loopback connection unblocks the
//! accept loop, the channel closes, workers finish their open connections
//! and exit, and the accept thread prints the final metrics summary line
//! (including shed/evicted/panicked counts).

use crate::cache::{named_var, DemandAnswer, DemandPayload, ProgramEntry, SessionCache, Solved};
use crate::faults::FaultPlan;
use crate::json::Json;
use crate::metrics::{Counter, Metrics};
use crate::proto::{
    error_response, error_response_with, ok_response, read_request_line, solve_error_response,
    LineRead, QueryOpts, Request,
};
use crate::wal::Wal;
use std::collections::HashSet;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, TrySendError};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use structcast::{DemandQuery, ModelKind, SolveError};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`ServerHandle::addr`] for the bound one).
    pub addr: String,
    /// Worker threads = maximum concurrently served connections.
    pub threads: usize,
    /// Approximate session-cache byte budget (0 = unbounded); see
    /// [`crate::cache::DEFAULT_MAX_BYTES`].
    pub max_cache_bytes: usize,
    /// Connections allowed to queue behind the busy workers before new
    /// ones are shed with an `overloaded` reply.
    pub backlog: usize,
    /// Per-connection read deadline: a connection idle (or stalled
    /// mid-line) this long gets a `timeout` reply and is closed.
    pub read_timeout: Option<Duration>,
    /// Fault-injection spec (see [`FaultPlan`]); `None` reads
    /// `SCAST_FAULTS` from the environment.
    pub faults: Option<String>,
    /// Snapshot directory: load a warm cache from it at startup, save to
    /// it on graceful shutdown and on `snapshot` requests. `None`
    /// disables the snapshot subsystem entirely.
    pub snapshot_dir: Option<PathBuf>,
    /// Also save a snapshot periodically at this interval (requires
    /// [`snapshot_dir`](ServerConfig::snapshot_dir)).
    pub snapshot_every: Option<Duration>,
    /// Journal accepted `update` ops to `<snapshot_dir>/wal` (fsync'd
    /// before the reply) so a crash between snapshots loses no
    /// acknowledged edit; restore replays the journal on top of the
    /// snapshot. Requires [`snapshot_dir`](ServerConfig::snapshot_dir);
    /// `false` trades durability for fsync-free update throughput.
    pub wal: bool,
    /// Brownout high-water mark: when this many connections are queued or
    /// in flight, cold-miss work is shed with `overloaded` replies while
    /// warm hits and `stats` keep answering. `None` disables brownout;
    /// `Some(0)` forces it permanently (deterministic tests). A sensible
    /// operational value is the [`backlog`](ServerConfig::backlog).
    pub brownout_high_water: Option<usize>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 8,
            max_cache_bytes: crate::cache::DEFAULT_MAX_BYTES,
            backlog: 128,
            read_timeout: Some(Duration::from_secs(30)),
            faults: None,
            snapshot_dir: None,
            snapshot_every: None,
            wal: true,
            brownout_high_water: None,
        }
    }
}

/// The flags [`ServerConfig::from_args`] reads, for usage texts.
pub const SERVE_FLAGS: &str = "[--addr HOST:PORT] [--threads N] [--max-cache-mb N] \
     [--snapshot DIR] [--snapshot-every-s N] [--no-wal] [--brownout N]";

impl ServerConfig {
    /// Parses the [`SERVE_FLAGS`] over the defaults: the one flag parser
    /// of `scast serve` and `scastd`. `SCAST_MAX_CACHE_BYTES` sets a
    /// byte-granular cache cap, which `--max-cache-mb` overrides (0 =
    /// unbounded). An unknown flag, a missing value or a bad value is an
    /// error that names the flag.
    pub fn from_args(args: &[String]) -> Result<ServerConfig, String> {
        fn parse<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("bad {flag} `{v}`"))
        }
        let mut cfg = ServerConfig::default();
        if let Ok(bytes) = std::env::var("SCAST_MAX_CACHE_BYTES") {
            cfg.max_cache_bytes = parse("SCAST_MAX_CACHE_BYTES", &bytes)?;
        }
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--addr" => cfg.addr = value()?.clone(),
                "--threads" => cfg.threads = parse(flag, value()?)?,
                "--max-cache-mb" => {
                    let mb: usize = parse(flag, value()?)?;
                    cfg.max_cache_bytes = mb.saturating_mul(1024 * 1024);
                }
                "--snapshot" => cfg.snapshot_dir = Some(value()?.into()),
                "--snapshot-every-s" => {
                    cfg.snapshot_every = Some(Duration::from_secs(parse(flag, value()?)?));
                }
                "--no-wal" => cfg.wal = false,
                "--brownout" => cfg.brownout_high_water = Some(parse(flag, value()?)?),
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(cfg)
    }
}

/// How long a shed client is told to wait before retrying.
const RETRY_AFTER_MS: u64 = 50;

struct Shared {
    cache: SessionCache,
    metrics: Arc<Metrics>,
    faults: FaultPlan,
    shutdown: AtomicBool,
    addr: SocketAddr,
    read_timeout: Option<Duration>,
    snapshot_dir: Option<PathBuf>,
    /// The update journal; `None` when no snapshot dir is configured or
    /// the WAL was disabled. Appends hold the lock across write+fsync so
    /// records never interleave.
    wal: Option<Mutex<Wal>>,
    /// Programs whose last `update` failed mid-re-solve: the cache still
    /// holds the pre-edit summaries, which keep serving flagged
    /// `stale: true` until an update (or full reload) succeeds.
    stale: RwLock<HashSet<String>>,
    /// Connections queued or in flight — the brownout gauge.
    pending: AtomicUsize,
    /// Brownout engages when `pending >= brownout_mark`.
    brownout_mark: usize,
}

/// A typed handler failure: the error-kind taxonomy of the protocol.
/// `Bad` covers client mistakes (unknown program/variable/option);
/// `Solve` carries a tripped budget; `Brownout` is the degradation
/// ladder shedding cold-miss work under load (kind `overloaded`, with
/// `retry_after_ms` and a `degraded` marker).
enum ServeError {
    Bad(String),
    Internal(String),
    Solve(SolveError),
    Brownout,
}

impl From<String> for ServeError {
    fn from(msg: String) -> ServeError {
        ServeError::Bad(msg)
    }
}

impl From<SolveError> for ServeError {
    fn from(e: SolveError) -> ServeError {
        ServeError::Solve(e)
    }
}

impl ServeError {
    fn kind(&self) -> &'static str {
        match self {
            ServeError::Bad(_) => "bad_request",
            ServeError::Internal(_) => "internal",
            ServeError::Solve(e) => e.kind(),
            ServeError::Brownout => "overloaded",
        }
    }

    fn response(&self) -> Json {
        match self {
            ServeError::Bad(msg) => error_response("bad_request", msg),
            ServeError::Internal(msg) => error_response("internal", msg),
            ServeError::Solve(e) => solve_error_response(e),
            ServeError::Brownout => error_response_with(
                "overloaded",
                "brownout: cold-miss work shed; retry later",
                [
                    ("retry_after_ms", Json::count(RETRY_AFTER_MS)),
                    ("degraded", Json::str("brownout")),
                ],
            ),
        }
    }
}

/// A running server. Dropping the handle does **not** stop the server;
/// send a `shutdown` request (or use
/// [`Client::shutdown_server`](crate::Client::shutdown_server)) and then
/// [`wait`](ServerHandle::wait).
pub struct ServerHandle {
    addr: SocketAddr,
    accept: JoinHandle<()>,
    metrics: Arc<Metrics>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live metrics block (shared with the workers).
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.metrics)
    }

    /// Blocks until the server has shut down, then returns the final
    /// summary line (which the accept thread also printed to stdout).
    ///
    /// Shutdown lets workers finish their open connections, so drop any
    /// other live [`Client`](crate::Client)s before calling this — a
    /// connection held across `wait` blocks it until its read deadline.
    pub fn wait(self) -> String {
        let _ = self.accept.join();
        self.metrics.summary_line()
    }
}

/// Binds `cfg.addr` and starts the accept loop plus worker pool in
/// background threads, returning immediately.
///
/// # Errors
///
/// Binding failures, and a malformed fault spec (`cfg.faults` /
/// `SCAST_FAULTS`) — a bad chaos configuration is a startup error, not a
/// silent no-op.
pub fn serve(cfg: &ServerConfig) -> io::Result<ServerHandle> {
    let faults = match &cfg.faults {
        Some(spec) => FaultPlan::parse(spec),
        None => FaultPlan::from_env(),
    }
    .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, format!("bad fault spec: {e}")))?;
    if faults.is_active() {
        FaultPlan::quiet_hook();
    }
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let metrics = Arc::new(Metrics::new());
    let cache = SessionCache::with_max_bytes(Arc::clone(&metrics), cfg.max_cache_bytes);

    // Cold-start warm: restore the previous process's cache. A corrupt or
    // unreadable snapshot is a metric and a cold start, never a crash.
    if let Some(dir) = &cfg.snapshot_dir {
        match crate::snapshot::load_from_dir(&cache, dir) {
            Ok(None) => {}
            Ok(Some(entries)) => {
                metrics.add(Counter::SnapshotRestores, 1);
                metrics.add(Counter::SnapshotRestoredEntries, entries as u64);
            }
            Err(e) => {
                metrics.add(Counter::SnapshotRestoreErrors, 1);
                eprintln!("snapshot load failed ({e}); starting cold");
            }
        }
    }
    // Replay the update journal on top of the snapshot: every `update`
    // acknowledged after the snapshot was cut re-applies here, so a
    // SIGKILL between snapshot intervals loses nothing. A torn tail from
    // a crash mid-append replays up to the last whole record (counted,
    // never fatal); `Wal::open` then cuts the tear off. WAL open failure
    // *is* fatal — a server promising durability must not start without
    // its journal.
    let wal = match (&cfg.snapshot_dir, cfg.wal) {
        (Some(dir), true) => {
            let info = crate::wal::replay(dir)?;
            let mut errors = 0u64;
            for rec in &info.records {
                let applied = match cache.update(&rec.program, &rec.source) {
                    Ok(_) => true,
                    // The snapshot predates this program entirely (or was
                    // absent): the journaled source is the full post-edit
                    // text, so a fresh load converges to the same state.
                    Err(_) => cache.load(Some(&rec.program), &rec.source).is_ok(),
                };
                if !applied {
                    errors += 1;
                }
            }
            metrics.add(Counter::WalReplayed, info.records.len() as u64 - errors);
            metrics.add(Counter::WalReplayErrors, errors);
            metrics.add(Counter::WalTornTail, u64::from(info.torn_tail));
            let wal = Wal::open(dir, info.records.len() as u64)?;
            set_wal_gauges(&metrics, &wal);
            Some(Mutex::new(wal))
        }
        _ => None,
    };

    let shared = Arc::new(Shared {
        cache,
        metrics: Arc::clone(&metrics),
        faults,
        shutdown: AtomicBool::new(false),
        addr,
        read_timeout: cfg.read_timeout,
        snapshot_dir: cfg.snapshot_dir.clone(),
        wal,
        stale: RwLock::new(HashSet::new()),
        pending: AtomicUsize::new(0),
        brownout_mark: cfg.brownout_high_water.unwrap_or(usize::MAX),
    });

    if let (Some(dir), Some(every)) = (cfg.snapshot_dir.clone(), cfg.snapshot_every) {
        let saver_shared = Arc::clone(&shared);
        std::thread::spawn(move || loop {
            std::thread::sleep(every);
            if saver_shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            if let Err(e) = save_snapshot(&saver_shared, &dir) {
                eprintln!("periodic snapshot failed: {e}");
            }
        });
    }

    let (tx, rx) = mpsc::sync_channel::<TcpStream>(cfg.backlog);
    let rx = Arc::new(Mutex::new(rx));
    let workers: Vec<JoinHandle<()>> = (0..cfg.threads.max(1))
        .map(|_| {
            let rx = Arc::clone(&rx);
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || loop {
                // Hold the receiver lock only for the dequeue, not while
                // serving the connection. A panicking peer poisons
                // nothing we can't recover: the lock guards only `recv`.
                let conn = rx
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .recv();
                match conn {
                    Ok(stream) => {
                        handle_connection(&shared, stream);
                        // Accepted connections were counted before
                        // enqueue, so the gauge never underflows.
                        shared.pending.fetch_sub(1, Ordering::SeqCst);
                    }
                    Err(_) => break, // channel closed: shutting down
                }
            })
        })
        .collect();

    // Connections the pool holds at most: one per worker plus the queue.
    let capacity = cfg.threads.max(1) + cfg.backlog;
    let accept_shared = Arc::clone(&shared);
    let accept = std::thread::spawn(move || {
        for stream in listener.incoming() {
            if accept_shared.shutdown.load(Ordering::SeqCst) {
                break; // the loopback poke (or any later connect) lands here
            }
            let Ok(stream) = stream else { continue };
            // Count the connection before enqueueing it (undone on a
            // failed send): the worker-side decrement can then never
            // observe the gauge at zero while it holds a connection.
            let held = accept_shared.pending.fetch_add(1, Ordering::SeqCst);
            match tx.try_send(stream) {
                Ok(()) => {}
                // A free worker may not be parked in `recv` yet (just
                // spawned, or just done with a connection), and with no
                // backlog the hand-off needs it there: wait for it rather
                // than shed a connection the pool has room for.
                Err(TrySendError::Full(stream)) if held < capacity => {
                    if tx.send(stream).is_err() {
                        accept_shared.pending.fetch_sub(1, Ordering::SeqCst);
                        break;
                    }
                }
                // Queue full: shed this connection with a structured
                // reply rather than queueing unboundedly. The reply is
                // written from the accept thread — cheap, the socket
                // buffer of a fresh connection never blocks a one-line
                // write.
                Err(TrySendError::Full(stream)) => {
                    accept_shared.pending.fetch_sub(1, Ordering::SeqCst);
                    shed(&accept_shared, stream);
                }
                // Every worker exited, which implies shutdown.
                Err(TrySendError::Disconnected(_)) => {
                    accept_shared.pending.fetch_sub(1, Ordering::SeqCst);
                    break;
                }
            }
        }
        drop(tx);
        for w in workers {
            let _ = w.join();
        }
        // Final snapshot: the next process starts where this one stopped.
        if let Some(dir) = accept_shared.snapshot_dir.clone() {
            if let Err(e) = save_snapshot(&accept_shared, &dir) {
                eprintln!("shutdown snapshot failed: {e}");
            }
        }
        println!("{}", accept_shared.metrics.summary_line());
    });

    Ok(ServerHandle {
        addr,
        accept,
        metrics,
    })
}

/// Rejects a connection the queue has no room for: one `overloaded`
/// reply (a lockstep client reads it as the response to its first
/// request), then the connection closes.
///
/// The reply + teardown runs on a short-lived thread so the accept loop
/// never blocks, and the teardown half-closes then *drains* briefly: a
/// lockstep client writes its first request before reading, and an
/// immediate full close would RST that write — discarding the reply from
/// the client's receive buffer before it was read.
fn shed(shared: &Shared, stream: TcpStream) {
    shared.metrics.record_error("overloaded");
    std::thread::spawn(move || {
        use std::io::Read;
        let resp = error_response_with(
            "overloaded",
            "server overloaded; retry later",
            [("retry_after_ms", Json::count(RETRY_AFTER_MS))],
        );
        let mut stream = stream;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(Duration::from_millis(2 * RETRY_AFTER_MS)));
        if writeln!(stream, "{resp}").and_then(|()| stream.flush()).is_ok() {
            let _ = stream.shutdown(std::net::Shutdown::Write);
            let mut sink = [0u8; 256];
            while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
        }
    });
}

/// Saves a snapshot and, on success, truncates the update journal — the
/// snapshot now covers its records. The journal lock is held across
/// save + truncate: an `update` landing mid-save blocks at its append
/// and re-journals *after* the truncation, so it is covered by the WAL
/// whether or not the snapshot caught it (a doubly-covered record is
/// harmless — replay is idempotent; an uncovered one would be data
/// loss). The injected `snapshot_save` disk site fails the save before
/// anything is written; real I/O errors land the same way. Either
/// failure leaves the journal intact: durability is preserved, only
/// compaction is missed.
fn save_snapshot(shared: &Shared, dir: &std::path::Path) -> io::Result<u64> {
    let mut wal = shared
        .wal
        .as_ref()
        .map(|w| w.lock().unwrap_or_else(std::sync::PoisonError::into_inner));
    if let Some(f) = shared.faults.fire_disk("snapshot_save") {
        shared.metrics.add(Counter::SnapshotSaveErrors, 1);
        return Err(f.to_error("snapshot_save"));
    }
    let bytes = crate::snapshot::save_to_dir(&shared.cache, dir).map_err(|e| {
        shared.metrics.add(Counter::SnapshotSaveErrors, 1);
        io::Error::other(format!("snapshot save failed: {e}"))
    })?;
    shared.metrics.add(Counter::SnapshotSaves, 1);
    shared.metrics.set(Counter::SnapshotLastSaveBytes, bytes);
    if let Some(wal) = wal.as_deref_mut() {
        match wal.truncate() {
            Ok(()) => set_wal_gauges(&shared.metrics, wal),
            Err(e) => eprintln!("wal truncate after snapshot failed: {e}"),
        }
    }
    Ok(bytes)
}

fn handle_connection(shared: &Shared, stream: TcpStream) {
    // One small response per request line; don't let Nagle delay it.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(shared.read_timeout);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    let mut line = String::new();
    loop {
        match read_request_line(&mut reader, &mut line) {
            LineRead::Line => {}
            LineRead::Closed => break,
            LineRead::Unreadable(kind, msg) => {
                shared.metrics.record_error(kind);
                let resp = error_response(kind, &msg);
                let _ = writeln!(writer, "{resp}").and_then(|()| writer.flush());
                break;
            }
        }
        if line.trim().is_empty() {
            continue;
        }
        let (resp, shutdown) = dispatch(shared, line.trim_end_matches(['\n', '\r']));
        if writeln!(writer, "{resp}").and_then(|()| writer.flush()).is_err() {
            break;
        }
        if shutdown {
            initiate_shutdown(shared);
            break;
        }
    }
}

fn initiate_shutdown(shared: &Shared) {
    // Flag first, then poke: the accept loop re-checks the flag on the
    // connection the poke produces, so the ordering closes the race.
    shared.shutdown.store(true, Ordering::SeqCst);
    // The poke must land: a completed connect proves a connection entered
    // the accept queue, which is what unblocks the accept thread. A
    // silently failed connect (a dropped SYN on a loaded host) would
    // strand that thread in `accept()` forever, so retry — bounded, since
    // past the bound nothing better is available than the old behavior.
    for _ in 0..40 {
        if TcpStream::connect_timeout(&shared.addr, Duration::from_millis(250)).is_ok() {
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// The `internal` reply for a caught handler panic (injected or real):
/// the panic costs this request an error reply, never a worker thread.
fn panic_reply(shared: &Shared, payload: &(dyn std::any::Any + Send)) -> (Json, bool) {
    shared.metrics.record_error("internal");
    let msg = record_panic(shared, payload);
    (
        error_response("internal", &format!("request handler panicked: {msg}")),
        false,
    )
}

/// Counts a caught panic and returns its message.
fn record_panic<'a>(shared: &Shared, payload: &'a (dyn std::any::Any + Send)) -> &'a str {
    shared.metrics.add(Counter::Panics, 1);
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("non-string panic payload")
}

/// Mirrors the journal's depth and size into the WAL gauges.
fn set_wal_gauges(metrics: &Metrics, wal: &Wal) {
    metrics.set(Counter::WalDepth, wal.depth());
    metrics.set(Counter::WalBytes, wal.bytes());
}

/// Handles one request line with panic isolation.
fn dispatch(shared: &Shared, line: &str) -> (Json, bool) {
    match catch_unwind(AssertUnwindSafe(|| dispatch_line(shared, line))) {
        Ok(r) => r,
        Err(payload) => panic_reply(shared, payload.as_ref()),
    }
}

/// Parses and handles one request line; returns the response and whether
/// a graceful shutdown was requested. Exactly one metrics outcome
/// (ok/error) is recorded per call — the reconciliation invariant.
fn dispatch_line(shared: &Shared, line: &str) -> (Json, bool) {
    let parsed = match Json::parse(line) {
        Ok(v) => v,
        Err(e) => {
            shared.metrics.record_error("bad_request");
            return (error_response("bad_request", &e.to_string()), false);
        }
    };
    let start = Instant::now();
    shared.faults.fire("read");
    let req = match Request::from_json(&parsed) {
        Ok(r) => r,
        Err(e) => {
            shared.metrics.record_error("bad_request");
            return (error_response("bad_request", &e), false);
        }
    };
    shared.metrics.record_op(req.op_index());
    let shutdown = matches!(req, Request::Shutdown);
    // Degradation ladder, stale rung: queries against a program whose
    // last update failed mid-re-solve keep answering from the pre-edit
    // summaries, flagged so the client knows the edit has not landed.
    let stale = match &req {
        Request::PointsTo { program, .. }
        | Request::Alias { program, .. }
        | Request::ModRef { program, .. }
        | Request::CompareModels { program, .. } => stale_contains(shared, program),
        _ => false,
    };
    // Brownout rung: with the backlog above the high-water mark, shed
    // cold-miss work with `overloaded` while warm hits keep answering.
    let brownout = shared.pending.load(Ordering::SeqCst) >= shared.brownout_mark
        && !answerable_warm(shared, &req);
    let mut paid = Duration::ZERO; // compile/solve time, excluded from lookup time
    let result = if brownout {
        shared.metrics.add(Counter::BrownoutSheds, 1);
        shared.metrics.add(Counter::Degraded, 1);
        Err(ServeError::Brownout)
    } else {
        handle(shared, req, &mut paid)
    };
    let resp = match result {
        Ok(resp) => {
            shared.metrics.record_ok();
            if stale {
                shared.metrics.add(Counter::StaleServes, 1);
                with_marker(resp, "stale", Json::Bool(true))
            } else {
                resp
            }
        }
        Err(e) => {
            shared.metrics.record_error(e.kind());
            e.response()
        }
    };
    shared
        .metrics
        .add_time(Counter::Lookup, start.elapsed().saturating_sub(paid));
    (resp, shutdown)
}

/// Resolves `program` to a cache entry, auto-loading embedded corpus
/// programs by name so scripted clients need no explicit `load` — and
/// transparently reloading programs the bounded cache has evicted.
fn resolve_program(
    shared: &Shared,
    program: &str,
    paid: &mut Duration,
) -> Result<Arc<ProgramEntry>, ServeError> {
    if let Some(entry) = shared.cache.entry(program) {
        return Ok(entry);
    }
    if let Some(p) = structcast_progen::corpus_program(program) {
        let (entry, compile) = shared.cache.load(Some(program), p.source)?;
        *paid += compile;
        return Ok(entry);
    }
    Err(ServeError::Bad(format!(
        "unknown program `{program}` (load it first)"
    )))
}

/// The program and its summary under `opts`, solving on a miss.
fn solved_for(
    shared: &Shared,
    program: &str,
    opts: &QueryOpts,
    paid: &mut Duration,
) -> Result<(Arc<ProgramEntry>, Arc<Solved>), ServeError> {
    let entry = resolve_program(shared, program, paid)?;
    shared.faults.fire("solve");
    let (solved, solve_paid) = shared.cache.solved(&entry, opts)?;
    *paid += solve_paid;
    Ok((entry, solved))
}

/// The per-op demand metrics block appended to demand-mode responses.
fn demand_meta(answer: &DemandAnswer, cached: bool) -> Json {
    Json::obj([
        ("slice_statements", Json::count(answer.slice_statements as u64)),
        ("total_statements", Json::count(answer.total_statements as u64)),
        ("ratio", Json::num(answer.ratio())),
        ("cached", Json::Bool(cached)),
    ])
}

/// Answers one demand-mode query: fire the `demand` fault site, consult
/// the demand cache (slicing+solving on a cold miss), and account the
/// solve time into `paid`. Returns `(answer, cached, degraded)`.
///
/// Degradation ladder, first rung: when the demand path itself fails —
/// a panic or a tripped budget — and a full summary for the same options
/// is resident, the query is answered from that summary instead of
/// refused (`degraded` true, the reply carries a `demand_fallback`
/// marker). An absorbed panic records neither `panics` nor `internal`,
/// so the `internal == panics` reconciliation still holds; with no warm
/// fallback the panic resumes and the usual containment replies
/// `internal`.
fn demand_for(
    shared: &Shared,
    entry: &ProgramEntry,
    opts: &QueryOpts,
    query: &DemandQuery,
    subject: &str,
    paid: &mut Duration,
) -> Result<(Arc<DemandAnswer>, bool, bool), ServeError> {
    let result = catch_unwind(AssertUnwindSafe(|| {
        shared.faults.fire("demand");
        shared.cache.demand(entry, opts, query, subject)
    }));
    let fallback = || shared.cache.demand_fallback(entry, opts, query, subject);
    match result {
        Ok(Ok((answer, solve_paid, cached))) => {
            *paid += solve_paid;
            Ok((answer, cached, false))
        }
        Ok(Err(e)) => match fallback() {
            Some(answer) => {
                shared.metrics.add(Counter::Degraded, 1);
                Ok((Arc::new(answer), true, true))
            }
            None => Err(e.into()),
        },
        Err(payload) => match fallback() {
            Some(answer) => {
                shared.metrics.add(Counter::Degraded, 1);
                Ok((Arc::new(answer), true, true))
            }
            None => std::panic::resume_unwind(payload),
        },
    }
}

/// Appends one marker field to an (object) reply.
fn with_marker(resp: Json, key: &str, val: Json) -> Json {
    match resp {
        Json::Obj(mut pairs) => {
            pairs.push((key.to_string(), val));
            Json::Obj(pairs)
        }
        other => other,
    }
}

fn stale_contains(shared: &Shared, program: &str) -> bool {
    shared
        .stale
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .contains(program)
}

fn set_stale(shared: &Shared, program: &str, stale: bool) {
    let mut set = shared
        .stale
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if stale {
        set.insert(program.to_string());
    } else {
        set.remove(program);
    }
}

/// Brownout triage: can `req` be answered from resident cache state
/// without compiling or solving anything? `stats`, `shutdown`, and
/// `snapshot` are always answered; a query is warm when its program and
/// summary (or demand answer) are resident; `update` and source-bearing
/// `load` are cold work by definition. Purely a probe — no hit/miss
/// metrics move, and a race with eviction merely turns one shed into one
/// served cold request.
fn answerable_warm(shared: &Shared, req: &Request) -> bool {
    let (q, program, demand, opts) = match req {
        Request::Stats | Request::Shutdown | Request::Snapshot => return true,
        Request::Load { name: Some(n), source: None } => return shared.cache.entry(n).is_some(),
        Request::Load { .. } | Request::Update { .. } => return false,
        Request::PointsTo { program, var, demand, opts } => {
            (Query::PointsTo(var), program, *demand, opts)
        }
        Request::Alias { program, a, b, demand, opts } => {
            (Query::Alias(a, b), program, *demand, opts)
        }
        Request::ModRef { program, func, demand, opts } => {
            (Query::ModRef(func.as_deref()), program, *demand, opts)
        }
        Request::CompareModels { program, opts } => {
            let Some(entry) = shared.cache.entry(program) else {
                return false;
            };
            return ModelKind::ALL.iter().all(|&k| {
                shared.cache.solved_if_resident(&entry, &opts.with_model(k)).is_some()
            });
        }
    };
    let Some(entry) = shared.cache.entry(program) else {
        return false;
    };
    let resident = |(subject, _): (String, DemandQuery)| {
        shared.cache.demand_is_resident(&entry, opts, &subject)
    };
    (demand && q.demand(&entry, program).is_ok_and(resident))
        || shared.cache.solved_if_resident(&entry, opts).is_some()
}

/// What a `points_to`, `alias` or `modref` request asks, borrowed from it.
#[derive(Clone, Copy)]
enum Query<'r> {
    /// The points-to set of a variable.
    PointsTo(&'r str),
    /// Whether two variables may alias.
    Alias(&'r str, &'r str),
    /// The MOD/REF sets of one function, or of every defined function
    /// (exhaustive mode only).
    ModRef(Option<&'r str>),
}

impl Query<'_> {
    /// The demand subject and [`DemandQuery`] of this query against
    /// `entry`, the loaded `program`: the one derivation the demand path
    /// and the brownout probe share. A variable name means the first named
    /// variable that carries it, as in exhaustive mode.
    fn demand(self, entry: &ProgramEntry, program: &str) -> Result<(String, DemandQuery), String> {
        let var = |v: &str| named_var(&entry.prog, v);
        match self {
            Query::PointsTo(v) => {
                let obj = var(v).ok_or_else(|| format!("unknown variable `{v}` in `{program}`"))?;
                Ok((format!("points_to/{v}"), DemandQuery::PointsTo { obj }))
            }
            Query::Alias(a, b) => match (var(a), var(b)) {
                (Some(oa), Some(ob)) => {
                    Ok((format!("alias/{a}/{b}"), DemandQuery::Alias { a: oa, b: ob }))
                }
                _ => Err(format!("unknown variable `{a}` or `{b}` in `{program}`")),
            },
            // The slice is rooted at one function's call closure, so the
            // all-functions form stays an exhaustive-only feature.
            Query::ModRef(None) => Err("demand mode requires \"func\" on modref".to_string()),
            Query::ModRef(Some(f)) => {
                let func = entry
                    .prog
                    .function_by_name(f)
                    .filter(|x| x.defined)
                    .map(|x| x.id)
                    .ok_or_else(|| format!("unknown function `{f}` in `{program}`"))?;
                Ok((format!("modref/{f}"), DemandQuery::ModRef { func }))
            }
        }
    }
}

/// A list of strings as a reply array.
fn strs(v: &[String]) -> Json {
    Json::Arr(v.iter().map(Json::str).collect())
}

/// One row of a `modref` reply.
fn modref_row(func: &str, mods: &[String], refs: &[String]) -> Json {
    Json::obj([("func", Json::str(func)), ("mod", strs(mods)), ("ref", strs(refs))])
}

/// The answer field of a query reply, from a demand answer of `q`.
fn demand_field(q: Query<'_>, payload: &DemandPayload) -> (&'static str, Json) {
    match (q, payload) {
        (_, DemandPayload::PointsTo(targets)) => ("points_to", strs(targets)),
        (_, DemandPayload::Alias(alias)) => ("alias", Json::Bool(*alias)),
        (Query::ModRef(Some(f)), DemandPayload::ModRef { mods, refs }) => {
            ("functions", Json::Arr(vec![modref_row(f, mods, refs)]))
        }
        (_, DemandPayload::ModRef { .. }) => {
            unreachable!("only a modref of one function has a demand answer")
        }
    }
}

/// The answer field of a query reply, from the tables of the program's
/// summary under `opts` (solved and rendered on a miss).
fn summary_field(
    shared: &Shared,
    q: Query<'_>,
    program: &str,
    opts: &QueryOpts,
    paid: &mut Duration,
) -> Result<(&'static str, Json), ServeError> {
    let (entry, solved) = solved_for(shared, program, opts, paid)?;
    if let Query::ModRef(func) = q {
        let (table, table_paid) = shared.cache.modref(&entry, &solved);
        *paid += table_paid;
        let rows = match func {
            Some(f) => {
                let (mods, refs) = table
                    .0
                    .get(f)
                    .ok_or_else(|| format!("unknown function `{f}` in `{program}`"))?;
                vec![modref_row(f, mods, refs)]
            }
            None => table.0.iter().map(|(f, (mods, refs))| modref_row(f, mods, refs)).collect(),
        };
        return Ok(("functions", Json::Arr(rows)));
    }
    let (table, table_paid) = shared.cache.points_to_table(&entry, &solved);
    *paid += table_paid;
    // A row renders on its first read, and that render is solve time.
    let mut answer = |var: &str| {
        let (answer, render) = table.answer(&entry.prog, &solved.res, var)?;
        if render > Duration::ZERO {
            shared.metrics.add_time(Counter::Solve, render);
            *paid += render;
        }
        Some(answer)
    };
    Ok(match q {
        Query::PointsTo(var) => {
            let answer =
                answer(var).ok_or_else(|| format!("unknown variable `{var}` in `{program}`"))?;
            ("points_to", strs(&answer.shown))
        }
        Query::Alias(a, b) => {
            let alias = answer(a)
                .zip(answer(b))
                .map(|(va, vb)| va.aliases(vb))
                .ok_or_else(|| format!("unknown variable `{a}` or `{b}` in `{program}`"))?;
            ("alias", Json::Bool(alias))
        }
        Query::ModRef(_) => unreachable!("answered above"),
    })
}

/// Answers a `points_to`, `alias` or `modref` request, from the demand
/// path or from the summary's tables, and renders its one reply: the
/// request's fields, the config and the answer, then for a demand answer
/// `mode`, the `demand` block and, on the fallback rung, `degraded`.
fn query(
    shared: &Shared,
    q: Query<'_>,
    program: &str,
    demand: bool,
    opts: &QueryOpts,
    paid: &mut Duration,
) -> Result<Json, ServeError> {
    let mut fields = vec![("program", Json::str(program))];
    match q {
        Query::PointsTo(var) => fields.push(("var", Json::str(var))),
        Query::Alias(a, b) => fields.extend([("a", Json::str(a)), ("b", Json::str(b))]),
        Query::ModRef(_) => {}
    }
    fields.push(("config", Json::str(opts.cache_key())));
    if !demand {
        fields.push(summary_field(shared, q, program, opts, paid)?);
        return Ok(ok_response(fields));
    }
    let entry = resolve_program(shared, program, paid)?;
    let (subject, query) = q.demand(&entry, program)?;
    let (answer, cached, degraded) = demand_for(shared, &entry, opts, &query, &subject, paid)?;
    fields.push(demand_field(q, &answer.payload));
    fields.push(("mode", Json::str("demand")));
    fields.push(("demand", demand_meta(&answer, cached)));
    if degraded {
        fields.push(("degraded", Json::str("demand_fallback")));
    }
    Ok(ok_response(fields))
}

fn handle(shared: &Shared, req: Request, paid: &mut Duration) -> Result<Json, ServeError> {
    match req {
        Request::Load { name, source } => {
            let (entry, compile) = match (&name, &source) {
                (_, Some(src)) => shared.cache.load(name.as_deref(), src)?,
                (Some(n), None) => {
                    let p = structcast_progen::corpus_program(n)
                        .ok_or_else(|| format!("unknown corpus program `{n}`"))?;
                    shared.cache.load(Some(n), p.source)?
                }
                (None, None) => unreachable!("parser requires name or source"),
            };
            // A successful full (re)load supersedes any failed update:
            // the session state is exactly the loaded source again.
            set_stale(shared, &entry.name, false);
            // Only a miss compiled; a warm load is all lookup.
            *paid += compile;
            Ok(ok_response([
                ("program", Json::str(&entry.name)),
                ("hash", Json::str(&entry.hash_hex)),
                ("objects", Json::count(entry.prog.objects.len() as u64)),
                ("functions", Json::count(entry.prog.functions.len() as u64)),
                ("constraints", Json::count(entry.constraints.len() as u64)),
                ("compile_s", Json::num(entry.compile.as_secs_f64())),
            ]))
        }
        Request::PointsTo { program, var, demand, opts } => {
            query(shared, Query::PointsTo(&var), &program, demand, &opts, paid)
        }
        Request::Alias { program, a, b, demand, opts } => {
            query(shared, Query::Alias(&a, &b), &program, demand, &opts, paid)
        }
        Request::ModRef { program, func, demand, opts } => {
            query(shared, Query::ModRef(func.as_deref()), &program, demand, &opts, paid)
        }
        Request::CompareModels { program, opts } => {
            // The four instances are independent solves over one shared
            // constraint set — solve the cold ones concurrently, one
            // worker per model.
            let entry = resolve_program(shared, &program, paid)?;
            shared.faults.fire("solve");
            let all: Vec<QueryOpts> =
                ModelKind::ALL.iter().map(|&k| opts.with_model(k)).collect();
            let (summaries, solve_paid) = shared.cache.solved_many(&entry, &all, all.len())?;
            *paid += solve_paid;
            let mut rows = Vec::new();
            let offsets_edges = summaries
                .iter()
                .find(|s| s.kind == ModelKind::Offsets)
                .map(|s| s.edges);
            for (kind, solved) in ModelKind::ALL.iter().zip(&summaries) {
                let vs = offsets_edges
                    .filter(|&o| o > 0)
                    .map_or(Json::Null, |o| Json::num(solved.edges as f64 / o as f64));
                rows.push(Json::obj([
                    ("model", Json::str(format!("{kind:?}"))),
                    ("edges", Json::count(solved.edges as u64)),
                    ("iterations", Json::count(solved.iterations)),
                    ("avg_deref_size", Json::num(solved.avg_deref)),
                    ("edges_vs_offsets", vs),
                ]));
            }
            Ok(ok_response([
                ("program", Json::str(&program)),
                ("models", Json::Arr(rows)),
            ]))
        }
        Request::Update { program, source } => {
            let start = Instant::now();
            // Stale rung of the degradation ladder: a failure (or panic)
            // mid-update leaves the cache unmodified — `cache.update` is
            // atomic on error — so the pre-edit summaries keep serving,
            // flagged `stale: true` until an edit lands. The panic is
            // converted locally (with its own `record_panic`, preserving
            // `internal == panics`) so the stale mark is set on the way
            // out.
            let result = catch_unwind(AssertUnwindSafe(|| {
                shared.faults.fire("solve");
                shared.cache.update(&program, &source)
            }));
            let report = match result {
                Ok(Ok(report)) => report,
                Ok(Err(msg)) => {
                    if shared.cache.entry(&program).is_some() {
                        set_stale(shared, &program, true);
                    }
                    return Err(ServeError::Bad(msg));
                }
                Err(payload) => {
                    if shared.cache.entry(&program).is_some() {
                        set_stale(shared, &program, true);
                    }
                    let msg = record_panic(shared, payload.as_ref());
                    return Err(ServeError::Internal(format!(
                        "update failed mid-re-solve: {msg}"
                    )));
                }
            };
            *paid += start.elapsed();
            shared.metrics.add(Counter::Updates, 1);
            shared.metrics.add(
                Counter::UpdateFallbacks,
                u64::from(report.fallback.is_some()),
            );
            shared
                .metrics
                .add(Counter::UpdateRetractedEdges, report.retracted_edges as u64);
            shared
                .metrics
                .add_time(Counter::UpdateResolve, report.resolve);
            set_stale(shared, &program, false);
            // Durability: journal the accepted edit, fsync'd before the
            // reply. Append failure degrades rather than refuses — the
            // update is applied in memory and the reply says plainly that
            // it is not durable.
            let durable = match &shared.wal {
                Some(wal) => {
                    let mut wal =
                        wal.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                    match wal.append(&program, &source, &shared.faults) {
                        Ok(()) => {
                            shared.metrics.add(Counter::WalAppends, 1);
                            set_wal_gauges(&shared.metrics, &wal);
                            Some(true)
                        }
                        Err(e) => {
                            shared.metrics.add(Counter::WalAppendErrors, 1);
                            shared.metrics.add(Counter::Degraded, 1);
                            eprintln!("wal append failed ({e}); update applied but not durable");
                            Some(false)
                        }
                    }
                }
                None => None,
            };
            let resp = ok_response([
                ("program", Json::str(&report.entry.name)),
                ("hash", Json::str(&report.entry.hash_hex)),
                ("reused_fns", Json::count(report.reused_fns as u64)),
                ("dirty_fns", Json::count(report.dirty_fns as u64)),
                ("dirty_statements", Json::count(report.dirty_statements as u64)),
                ("region_statements", Json::count(report.region_statements as u64)),
                ("total_statements", Json::count(report.total_statements as u64)),
                ("retracted_edges", Json::count(report.retracted_edges as u64)),
                ("kept_edges", Json::count(report.kept_edges as u64)),
                ("reused_constraints", Json::count(report.reused_constraints as u64)),
                ("fresh_constraints", Json::count(report.fresh_constraints as u64)),
                ("resolved_summaries", Json::count(report.resolved_summaries as u64)),
                ("resolve_s", Json::num(report.resolve.as_secs_f64())),
                ("fallback", report.fallback.map_or(Json::Null, Json::Str)),
            ]);
            Ok(match durable {
                Some(true) => with_marker(resp, "durable", Json::Bool(true)),
                Some(false) => with_marker(
                    with_marker(resp, "durable", Json::Bool(false)),
                    "degraded",
                    Json::str("wal_append_failed"),
                ),
                None => resp,
            })
        }
        Request::Stats => {
            // Counts, layer bytes and `cache_bytes` all come from one
            // reading of the cache, so they agree even when an insert moves
            // the metrics gauge between that reading and the snapshot.
            let l = shared.cache.layers();
            let Json::Obj(mut pairs) = shared.metrics.snapshot() else {
                unreachable!("snapshot is an object");
            };
            if let Some((_, v)) = pairs.iter_mut().find(|(k, _)| k == "cache_bytes") {
                *v = Json::count(l.bytes as u64);
            }
            pairs.push(("cached_programs".to_string(), Json::count(l.programs.0 as u64)));
            pairs.push(("cached_solves".to_string(), Json::count(l.solved.0 as u64)));
            pairs.push(("cached_demand".to_string(), Json::count(l.demand.0 as u64)));
            pairs.push((
                "max_cache_bytes".to_string(),
                Json::count(shared.cache.max_bytes() as u64),
            ));
            // Answers rendered from a summary count with the solved layer.
            pairs.push((
                "cache_layer_bytes".to_string(),
                Json::obj([
                    ("programs", Json::count(l.programs.1 as u64)),
                    ("solved", Json::count((l.solved.1 + l.rendered.1) as u64)),
                    ("demand", Json::count(l.demand.1 as u64)),
                ]),
            ));
            Ok(ok_response(pairs))
        }
        Request::Shutdown => Ok(ok_response([("shutdown", Json::Bool(true))])),
        Request::Snapshot => {
            let dir = shared.snapshot_dir.as_ref().ok_or_else(|| {
                "no snapshot directory configured (start the server with --snapshot <dir>)"
                    .to_string()
            })?;
            let start = Instant::now();
            let bytes = save_snapshot(shared, dir)
                .map_err(|e| ServeError::Internal(e.to_string()))?;
            *paid += start.elapsed();
            let l = shared.cache.layers();
            Ok(ok_response([
                (
                    "path",
                    Json::str(dir.join(crate::snapshot::SNAPSHOT_FILE).display().to_string()),
                ),
                ("bytes", Json::count(bytes)),
                ("programs", Json::count(l.programs.0 as u64)),
                ("solves", Json::count(l.solved.0 as u64)),
                ("demand", Json::count(l.demand.0 as u64)),
            ]))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_args(line: &str) -> Result<ServerConfig, String> {
        ServerConfig::from_args(&line.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn from_args_reads_every_serve_flag() {
        let cfg = from_args(
            "--addr 0.0.0.0:7199 --threads 3 --max-cache-mb 2 --snapshot d \
             --snapshot-every-s 9 --no-wal --brownout 4",
        )
        .unwrap();
        assert_eq!((cfg.addr.as_str(), cfg.threads), ("0.0.0.0:7199", 3));
        assert_eq!((cfg.max_cache_bytes, cfg.snapshot_dir), (2 << 20, Some("d".into())));
        assert_eq!(cfg.snapshot_every, Some(Duration::from_secs(9)));
        assert_eq!((cfg.wal, cfg.brownout_high_water), (false, Some(4)));
    }

    #[test]
    fn from_args_names_the_flag_of_a_bad_value() {
        for flag in ["--threads", "--max-cache-mb", "--snapshot-every-s", "--brownout"] {
            let err = from_args(&format!("{flag} lots")).unwrap_err();
            assert_eq!(err, format!("bad {flag} `lots`"));
        }
        assert_eq!(from_args("--threads").unwrap_err(), "--threads needs a value");
        assert_eq!(from_args("--faults x").unwrap_err(), "unknown flag `--faults`");
    }

    /// A server's state with no socket, snapshot or journal behind it.
    fn shared() -> Shared {
        let metrics = Arc::new(Metrics::new());
        Shared {
            cache: SessionCache::new(Arc::clone(&metrics)),
            metrics,
            faults: FaultPlan::default(),
            shutdown: AtomicBool::new(false),
            addr: "127.0.0.1:0".parse().unwrap(),
            read_timeout: None,
            snapshot_dir: None,
            wal: None,
            stale: RwLock::new(HashSet::new()),
            pending: AtomicUsize::new(0),
            brownout_mark: usize::MAX,
        }
    }

    #[test]
    fn first_query_after_update_renders_one_row() {
        let shared = shared();
        let ask = |line: &str| {
            let reply = dispatch(&shared, line).0.to_string();
            assert!(reply.contains(r#""ok": true"#), "{line}: {reply}");
            reply
        };
        ask(concat!(
            r#"{"op":"load","name":"live","source":"int x, y, *p, *q;\n"#,
            r#"void f(void) { p = &x; }\nvoid g(void) { q = &y; }"}"#
        ));
        ask(r#"{"op":"points_to","program":"live","var":"q"}"#);
        ask(concat!(
            r#"{"op":"update","program":"live","source":"int x, y, *p, *q;\n"#,
            r#"void f(void) { p = &x; }\nvoid g(void) { q = &x; }"}"#
        ));
        let entry = shared.cache.entry("live").unwrap();
        let (solved, _) = shared.cache.solved(&entry, &QueryOpts::default()).unwrap();
        let table = || shared.cache.points_to_table(&entry, &solved).0;
        let reply = ask(r#"{"op":"points_to","program":"live","var":"q"}"#);
        assert!(reply.contains(r#""points_to": ["x"]"#), "{reply}");
        assert_eq!(table().rendered_rows(), 1, "one answer renders one row");
        ask(r#"{"op":"alias","program":"live","a":"p","b":"y"}"#);
        assert_eq!(table().rendered_rows(), 3, "alias renders its two rows");
        let table = table();
        for o in &entry.prog.objects {
            let row = table.answer(&entry.prog, &solved.res, &o.name).map(|(a, _)| a.clone());
            assert_eq!(row, solved.var_answer(&entry.prog, &o.name), "{}", o.name);
        }
    }
}
