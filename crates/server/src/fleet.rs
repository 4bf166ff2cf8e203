//! Replica fleet: a consistent-hash router over N serve processes.
//!
//! `scast fleet --replicas N` runs N independent server *processes* and
//! one thin router in front of them. The router owns no analysis state:
//! it extracts each request's **routing key** (the `program`/`name`
//! field, or the source hash of an inline `source` — exactly the keys the
//! session cache indexes by), maps it through a consistent-hash ring
//! built from the same FNV-1a hash the cache uses, and forwards the
//! request verbatim to the owning replica. One program's queries always
//! land on one replica, so each replica's cache warms for its share of
//! the keyspace and N replicas give N-way solve parallelism across
//! programs.
//!
//! # Failover
//!
//! Each replica is spawned with its own snapshot directory
//! (`<root>/r<i>`). A background prober TCP-connects to every replica on
//! a short interval and keeps a per-replica `alive` flag; a replica that
//! stops answering (probe failure or a failed forward) is killed and
//! restarted **from its snapshot + WAL** in the background — a restarted
//! replica answers its re-warmed keys with zero compile/solve misses.
//! The ring is keyed by replica *index*, not address, so a restarted
//! replica owns exactly the keys it owned before and its snapshot is the
//! right warm state.
//!
//! While the owner is down, traffic degrades instead of failing:
//!
//! - **read-only ops** (queries, `load` by name, `stats`) fail over to
//!   the key's **ring successor** — the next ring point owned by a
//!   different alive replica. The analysis is deterministic, so a warm
//!   successor answers identically; a cold one pays an honest miss.
//! - **`update`** is shed with `overloaded` plus a typed
//!   `degraded: "replica_down"` marker: an update must reach its owner's
//!   WAL, never a successor's, so the client backs off and retries after
//!   the owner restarts.
//!
//! # Router ops
//!
//! Requests without a routing key are router-level:
//!
//! - `{"op":"fleet_stats"}` — per-replica `stats` plus router counters
//!   (forwarded, overloaded replies, restarts);
//! - `{"op":"snapshot"}` — broadcast to every replica;
//! - `{"op":"shutdown"}` — broadcast (each replica saves its snapshot and
//!   exits), then the router itself exits;
//! - anything else keyless (e.g. `stats`) routes to replica 0.
//!
//! The router speaks the same NDJSON lines as the single server and reads
//! them through the same `proto::read_request_line` step, so an unreadable
//! line gets the same typed reply from either.

use crate::cache::source_hash;
use crate::client::Client;
use crate::json::Json;
use crate::proto::{error_response_with, ok_response, read_request_line, LineRead};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Virtual points per replica on the hash ring — enough that the keyspace
/// splits roughly evenly for small fleets.
const VNODES: usize = 40;

/// How long a client shed by a dead replica is told to wait.
const RETRY_AFTER_MS: u64 = 50;

/// How often the health prober walks the fleet.
const PROBE_INTERVAL: Duration = Duration::from_millis(100);

/// Per-replica probe connect bound — long enough for a loaded loopback
/// accept queue, short enough that a dead replica is noticed fast.
const PROBE_CONNECT_TIMEOUT: Duration = Duration::from_millis(250);

/// Fleet configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Router bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Number of replica processes.
    pub replicas: usize,
    /// The serve binary to spawn per replica (e.g. `scastd`, or `scast`
    /// with `args: ["serve"]`).
    pub program: PathBuf,
    /// Arguments placed before the router-appended `--addr 127.0.0.1:0`
    /// (and `--snapshot <dir>` when configured). The spawned command must
    /// print `listening on HOST:PORT` on stdout once bound.
    pub args: Vec<String>,
    /// Per-replica snapshot root: replica `i` snapshots to `<root>/r<i>`
    /// and restarts warm from it. `None` restarts replicas cold.
    pub snapshot_root: Option<PathBuf>,
    /// Bound on every forwarded request's connect+read.
    pub forward_timeout: Duration,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            addr: "127.0.0.1:0".to_string(),
            replicas: 2,
            program: PathBuf::new(),
            args: Vec::new(),
            snapshot_root: None,
            forward_timeout: Duration::from_secs(30),
        }
    }
}

struct Replica {
    /// Where the live child listens; `None` while dead or restarting.
    addr: Mutex<Option<SocketAddr>>,
    child: Mutex<Option<Child>>,
    /// Serializes restarts; `try_lock` failure means a restart is already
    /// in flight and the caller should not start another.
    restart: Mutex<()>,
    restarts: AtomicU64,
    forwarded: AtomicU64,
    /// Last health-probe verdict (also cleared by a failed forward).
    alive: AtomicBool,
}

struct FleetShared {
    cfg: FleetConfig,
    replicas: Vec<Replica>,
    /// `(point, replica index)` sorted by point.
    ring: Vec<(u64, usize)>,
    shutdown: AtomicBool,
    addr: SocketAddr,
    overloaded: AtomicU64,
    /// Read-only requests answered by a ring successor while the owner
    /// was down.
    failovers: AtomicU64,
    /// `update` requests shed (with `degraded: "replica_down"`) because
    /// their owner was down — updates never fail over.
    update_sheds: AtomicU64,
}

impl FleetShared {
    /// The replica index owning `key` — first ring point at or past the
    /// key's hash, wrapping to the first point.
    fn route(&self, key: &str) -> usize {
        let h = source_hash(key);
        let i = self.ring.partition_point(|&(p, _)| p < h);
        self.ring[if i == self.ring.len() { 0 } else { i }].1
    }

    /// Probe-level health: the prober thinks the replica is up *and* it
    /// has a bound address (not mid-restart).
    fn is_alive(&self, idx: usize) -> bool {
        self.replicas[idx].alive.load(Ordering::SeqCst)
            && self.replicas[idx]
                .addr
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .is_some()
    }

    /// The failover target for `key` when `dead` is down: walk the ring
    /// from the key's owning point to the first point owned by a
    /// *different alive* replica. `None` when no other replica is up.
    fn successor(&self, key: Option<&str>, dead: usize) -> Option<usize> {
        let h = key.map_or(0, source_hash);
        let start = self.ring.partition_point(|&(p, _)| p < h);
        let n = self.ring.len();
        (0..n)
            .map(|s| self.ring[(start + s) % n].1)
            .find(|&i| i != dead && self.is_alive(i))
    }
}

/// `update` is the one op that must not fail over: it has to reach its
/// owner's WAL, not a successor's.
fn is_update(req: &Json) -> bool {
    req.get("op").and_then(Json::as_str) == Some("update")
}

/// The routing key of a request: the same identifier the session cache
/// indexes by, so all of one program's traffic lands on one replica.
fn routing_key(req: &Json) -> Option<String> {
    if let Some(p) = req.get("program").and_then(Json::as_str) {
        return Some(p.to_string());
    }
    if let Some(n) = req.get("name").and_then(Json::as_str) {
        return Some(n.to_string());
    }
    req.get("source")
        .and_then(Json::as_str)
        .map(|s| format!("{:016x}", source_hash(s)))
}

/// Spawns one replica process and scrapes its bound address off stdout.
fn spawn_replica(cfg: &FleetConfig, index: usize) -> io::Result<(Child, SocketAddr)> {
    let mut cmd = Command::new(&cfg.program);
    cmd.args(&cfg.args).arg("--addr").arg("127.0.0.1:0");
    if let Some(root) = &cfg.snapshot_root {
        cmd.arg("--snapshot").arg(root.join(format!("r{index}")));
    }
    cmd.stdout(Stdio::piped()).stdin(Stdio::null());
    let mut child = cmd.spawn()?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut lines = BufReader::new(stdout);
    let mut line = String::new();
    let addr = loop {
        line.clear();
        if lines.read_line(&mut line)? == 0 {
            let _ = child.kill();
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("replica {index} exited before printing its address"),
            ));
        }
        if let Some(rest) = line.trim().strip_prefix("listening on ") {
            match rest.parse::<SocketAddr>() {
                Ok(a) => break a,
                Err(e) => {
                    let _ = child.kill();
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("replica {index} printed an unparsable address: {e}"),
                    ));
                }
            }
        }
    };
    // Keep draining stdout (the shutdown summary line) so the child never
    // blocks on a full pipe.
    std::thread::spawn(move || {
        let mut sink = io::sink();
        let _ = io::copy(&mut lines, &mut sink);
    });
    Ok((child, addr))
}

/// Marks a replica dead and restarts it in the background (no-op if a
/// restart is already in flight). The restarted child reloads the
/// replica's snapshot, so its re-warmed keys answer without recompiling.
fn restart_replica(shared: &Arc<FleetShared>, idx: usize) {
    let Ok(_guard) = shared.replicas[idx].restart.try_lock() else {
        return;
    };
    shared.replicas[idx].alive.store(false, Ordering::SeqCst);
    *shared.replicas[idx].addr.lock().unwrap_or_else(|e| e.into_inner()) = None;
    let shared = Arc::clone(shared);
    std::thread::spawn(move || {
        let _guard = shared.replicas[idx]
            .restart
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // Double-check under the lock: a concurrent trigger may have
        // already brought the replica back.
        if shared.replicas[idx]
            .addr
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_some()
        {
            return;
        }
        if let Some(mut old) = shared.replicas[idx]
            .child
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
        {
            let _ = old.kill();
            let _ = old.wait();
        }
        match spawn_replica(&shared.cfg, idx) {
            Ok((child, addr)) => {
                *shared.replicas[idx].child.lock().unwrap_or_else(|e| e.into_inner()) =
                    Some(child);
                *shared.replicas[idx].addr.lock().unwrap_or_else(|e| e.into_inner()) =
                    Some(addr);
                shared.replicas[idx].alive.store(true, Ordering::SeqCst);
                shared.replicas[idx].restarts.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => eprintln!("fleet: replica {idx} restart failed: {e}"),
        }
    });
}

/// The `overloaded` reply a client gets when its replica is down and no
/// successor could answer either.
fn overloaded_reply(shared: &FleetShared, idx: usize) -> Json {
    shared.overloaded.fetch_add(1, Ordering::Relaxed);
    error_response_with(
        "overloaded",
        &format!("replica {idx} unavailable; retry later"),
        [("retry_after_ms", Json::count(RETRY_AFTER_MS))],
    )
}

/// The shed an `update` gets when its owner is down. Updates never fail
/// over — the durability contract is "journaled in the *owner's* WAL" —
/// so the client is told to back off and retry once the owner has
/// restarted from snapshot + WAL.
fn degraded_shed(shared: &FleetShared, idx: usize) -> Json {
    shared.overloaded.fetch_add(1, Ordering::Relaxed);
    shared.update_sheds.fetch_add(1, Ordering::Relaxed);
    error_response_with(
        "overloaded",
        &format!("replica {idx} unavailable; update shed, retry later"),
        [
            ("retry_after_ms", Json::count(RETRY_AFTER_MS)),
            ("degraded", Json::str("replica_down")),
        ],
    )
}

/// The health prober: walks the fleet on a short interval, TCP-connects
/// to each replica, and keeps the per-replica `alive` flags the failover
/// path consults. A probe failure also triggers a background restart, so
/// a dead replica recovers even with zero client traffic.
fn probe_loop(shared: &Arc<FleetShared>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        for (i, r) in shared.replicas.iter().enumerate() {
            let addr = *r.addr.lock().unwrap_or_else(|e| e.into_inner());
            match addr {
                Some(a) => {
                    let up = TcpStream::connect_timeout(&a, PROBE_CONNECT_TIMEOUT).is_ok();
                    r.alive.store(up, Ordering::SeqCst);
                    if !up && !shared.shutdown.load(Ordering::SeqCst) {
                        restart_replica(shared, i);
                    }
                }
                None => r.alive.store(false, Ordering::SeqCst),
            }
        }
        std::thread::sleep(PROBE_INTERVAL);
    }
}

/// A running fleet.
pub struct FleetHandle {
    shared: Arc<FleetShared>,
    accept: JoinHandle<()>,
}

impl FleetHandle {
    /// The router's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The replicas' current addresses (`None` = dead/restarting).
    pub fn replica_addrs(&self) -> Vec<Option<SocketAddr>> {
        self.shared
            .replicas
            .iter()
            .map(|r| *r.addr.lock().unwrap_or_else(|e| e.into_inner()))
            .collect()
    }

    /// The replica index that owns `key` under the router's hash ring.
    pub fn route(&self, key: &str) -> usize {
        self.shared.route(key)
    }

    /// Kills replica `idx`'s process outright (SIGKILL — no graceful
    /// shutdown, no snapshot save). Chaos tests use this to prove the
    /// router detects the death, sheds cleanly, and restarts the replica
    /// from its last snapshot.
    pub fn kill_replica(&self, idx: usize) -> io::Result<()> {
        let mut child = self.shared.replicas[idx]
            .child
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        match child.as_mut() {
            Some(c) => {
                c.kill()?;
                let _ = c.wait();
                Ok(())
            }
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("replica {idx} has no live process"),
            )),
        }
    }

    /// Blocks until the router has shut down (every replica asked to exit
    /// and reaped).
    pub fn wait(self) {
        let _ = self.accept.join();
    }
}

/// Spawns `cfg.replicas` serve processes and starts the router,
/// returning once every replica has printed its address and the router
/// is accepting.
///
/// # Errors
///
/// Replica spawn failures (bad binary path, a child that exits before
/// binding) and router bind failures. Already-spawned replicas are
/// killed on the way out.
pub fn fleet(cfg: &FleetConfig) -> io::Result<FleetHandle> {
    if cfg.replicas == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "a fleet needs at least one replica",
        ));
    }
    let mut spawned: Vec<(Child, SocketAddr)> = Vec::new();
    for i in 0..cfg.replicas {
        match spawn_replica(cfg, i) {
            Ok(pair) => spawned.push(pair),
            Err(e) => {
                for (mut c, _) in spawned {
                    let _ = c.kill();
                    let _ = c.wait();
                }
                return Err(e);
            }
        }
    }
    let listener = match TcpListener::bind(&cfg.addr) {
        Ok(l) => l,
        Err(e) => {
            for (mut c, _) in spawned {
                let _ = c.kill();
                let _ = c.wait();
            }
            return Err(e);
        }
    };
    let addr = listener.local_addr()?;
    let mut ring: Vec<(u64, usize)> = (0..cfg.replicas)
        .flat_map(|i| (0..VNODES).map(move |v| (source_hash(&format!("replica-{i}-{v}")), i)))
        .collect();
    ring.sort_unstable();
    let shared = Arc::new(FleetShared {
        cfg: cfg.clone(),
        replicas: spawned
            .into_iter()
            .map(|(child, raddr)| Replica {
                addr: Mutex::new(Some(raddr)),
                child: Mutex::new(Some(child)),
                restart: Mutex::new(()),
                restarts: AtomicU64::new(0),
                forwarded: AtomicU64::new(0),
                alive: AtomicBool::new(true),
            })
            .collect(),
        ring,
        shutdown: AtomicBool::new(false),
        addr,
        overloaded: AtomicU64::new(0),
        failovers: AtomicU64::new(0),
        update_sheds: AtomicU64::new(0),
    });
    let probe_shared = Arc::clone(&shared);
    std::thread::spawn(move || probe_loop(&probe_shared));
    let accept_shared = Arc::clone(&shared);
    let accept = std::thread::spawn(move || {
        for stream in listener.incoming() {
            if accept_shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let conn_shared = Arc::clone(&accept_shared);
            std::thread::spawn(move || route_connection(&conn_shared, stream));
        }
        // Reap whatever shutdown_fleet left behind.
        for r in &accept_shared.replicas {
            if let Some(mut c) = r.child.lock().unwrap_or_else(|e| e.into_inner()).take() {
                let _ = c.wait();
            }
        }
    });
    Ok(FleetHandle { shared, accept })
}

/// Forwards one request line to replica `idx`, returning the raw reply
/// line (byte-preserving) or `None` when the replica is unreachable
/// (after one reconnect attempt, in case the cached connection was merely
/// stale from a past restart). `conns` is the routed connection's
/// forwarding state: one lazily-opened connection per replica; a replica
/// restart invalidates its slot (the old socket errors and is dropped).
fn forward_line(
    shared: &FleetShared,
    conns: &mut [Option<Client>],
    idx: usize,
    line: &str,
) -> Option<String> {
    for attempt in 0..2 {
        if conns[idx].is_none() {
            let raddr = (*shared.replicas[idx].addr.lock().unwrap_or_else(|e| e.into_inner()))?;
            conns[idx] = Client::connect_timeout(raddr, shared.cfg.forward_timeout).ok();
        }
        if let Some(c) = conns[idx].as_mut() {
            match c.request_line(line) {
                Ok(reply) => {
                    shared.replicas[idx].forwarded.fetch_add(1, Ordering::Relaxed);
                    return Some(reply);
                }
                Err(_) => {
                    conns[idx] = None;
                    if attempt == 1 {
                        return None;
                    }
                }
            }
        } else if attempt == 1 {
            return None;
        }
    }
    None
}

/// Broadcasts a request to every live replica, returning per-replica
/// replies (`null` for unreachable ones).
fn broadcast(shared: &FleetShared, req: &Json) -> Vec<Json> {
    (0..shared.replicas.len())
        .map(|i| {
            let raddr = *shared.replicas[i].addr.lock().unwrap_or_else(|e| e.into_inner());
            let Some(raddr) = raddr else { return Json::Null };
            Client::connect_timeout(raddr, shared.cfg.forward_timeout)
                .and_then(|mut c| c.request(req))
                .unwrap_or(Json::Null)
        })
        .collect()
}

/// The `fleet_stats` reply: per-replica health + `stats`, plus the
/// router's own counters.
fn fleet_stats(shared: &FleetShared) -> Json {
    let stats_req = Json::obj([("op", Json::str("stats"))]);
    let mut rows = Vec::new();
    let mut restarts_total = 0;
    for (i, r) in shared.replicas.iter().enumerate() {
        let raddr = *r.addr.lock().unwrap_or_else(|e| e.into_inner());
        let stats = raddr.and_then(|a| {
            Client::connect_timeout(a, shared.cfg.forward_timeout)
                .and_then(|mut c| c.request(&stats_req))
                .ok()
        });
        let restarts = r.restarts.load(Ordering::Relaxed);
        restarts_total += restarts;
        // Surface the replica's journal depth (un-snapshotted updates it
        // would replay if killed right now) as a first-class row field.
        let wal_depth = stats
            .as_ref()
            .and_then(|s| s.get("wal"))
            .and_then(|w| w.get("depth"))
            .and_then(Json::as_u64);
        rows.push(Json::obj([
            ("replica", Json::count(i as u64)),
            (
                "addr",
                raddr.map_or(Json::Null, |a| Json::str(a.to_string())),
            ),
            ("alive", Json::Bool(stats.is_some())),
            ("probed_alive", Json::Bool(r.alive.load(Ordering::SeqCst))),
            ("restarts", Json::count(restarts)),
            ("forwarded", Json::count(r.forwarded.load(Ordering::Relaxed))),
            ("wal_depth", wal_depth.map_or(Json::Null, Json::count)),
            ("stats", stats.unwrap_or(Json::Null)),
        ]));
    }
    ok_response([
        ("replicas", Json::Arr(rows)),
        (
            "router",
            Json::obj([
                ("overloaded", Json::count(shared.overloaded.load(Ordering::Relaxed))),
                ("failovers", Json::count(shared.failovers.load(Ordering::Relaxed))),
                ("update_sheds", Json::count(shared.update_sheds.load(Ordering::Relaxed))),
                ("restarts", Json::count(restarts_total)),
            ]),
        ),
    ])
}

/// Handles a shutdown request: broadcast it (each replica saves its
/// snapshot and exits), reap the children, then stop the router.
fn shutdown_fleet(shared: &FleetShared) {
    // Flag first, then drain every restart lock: once a lock is held no
    // new child can appear (restart threads re-check the flag under it),
    // so the broadcast below reaches every child that exists and the
    // reap loop cannot race a resurrection.
    shared.shutdown.store(true, Ordering::SeqCst);
    let guards: Vec<_> = shared
        .replicas
        .iter()
        .map(|r| r.restart.lock().unwrap_or_else(|e| e.into_inner()))
        .collect();
    let req = Json::obj([("op", Json::str("shutdown"))]);
    let _ = broadcast(shared, &req);
    for r in &shared.replicas {
        if let Some(mut c) = r.child.lock().unwrap_or_else(|e| e.into_inner()).take() {
            let _ = c.wait();
        }
        *r.addr.lock().unwrap_or_else(|e| e.into_inner()) = None;
        r.alive.store(false, Ordering::SeqCst);
    }
    drop(guards);
    // Poke the accept loop awake (bounded retries, as in the server).
    for _ in 0..40 {
        if TcpStream::connect_timeout(&shared.addr, Duration::from_millis(250)).is_ok() {
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Where one request goes: router ops are answered locally, everything
/// else is forwarded by routing key.
enum Routed {
    /// Router-generated reply.
    Local(Json, bool),
    /// Forward to this replica; the key rides along so a failed forward
    /// can find the key's ring successor.
    Forward(usize, Option<String>),
}

fn classify(shared: &FleetShared, req: &Json) -> Routed {
    match req.get("op").and_then(Json::as_str) {
        Some("fleet_stats") => Routed::Local(fleet_stats(shared), false),
        Some("shutdown") => Routed::Local(ok_response([("shutdown", Json::Bool(true))]), true),
        Some("snapshot") => {
            let replies = broadcast(shared, req);
            let saved = replies.iter().filter(|r| !matches!(r, Json::Null)).count();
            Routed::Local(
                ok_response([
                    ("replicas", Json::Arr(replies)),
                    ("saved", Json::count(saved as u64)),
                ]),
                false,
            )
        }
        _ => {
            let key = routing_key(req);
            let idx = key.as_deref().map_or(0, |k| shared.route(k));
            Routed::Forward(idx, key)
        }
    }
}

/// One failed-forward recovery step: mark the home replica dead, kick off
/// its restart, and pick where the request goes instead. `Ok(successor)`
/// means fail the read over there; `Err(reply)` is the shed to send as-is
/// (updates, or no successor up).
fn failover_target(
    shared: &Arc<FleetShared>,
    idx: usize,
    key: Option<&str>,
    update: bool,
) -> Result<usize, Json> {
    shared.replicas[idx].alive.store(false, Ordering::SeqCst);
    restart_replica(shared, idx);
    if update {
        return Err(degraded_shed(shared, idx));
    }
    shared
        .successor(key, idx)
        .ok_or_else(|| overloaded_reply(shared, idx))
}

fn route_connection(shared: &Arc<FleetShared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.cfg.forward_timeout));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut conns: Vec<Option<Client>> = (0..shared.replicas.len()).map(|_| None).collect();
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    let mut line = String::new();
    loop {
        match read_request_line(&mut reader, &mut line) {
            LineRead::Line => {}
            LineRead::Closed => break,
            LineRead::Unreadable(kind, msg) => {
                let resp = error_response_with(kind, &msg, []);
                let _ = writeln!(writer, "{resp}").and_then(|()| writer.flush());
                break;
            }
        }
        let trimmed = line.trim_end_matches(['\n', '\r']);
        if trimmed.trim().is_empty() {
            continue;
        }
        // A parse failure still forwards (to replica 0): the replica owns
        // the error taxonomy, so its bad_request reply — and its metrics
        // accounting — stay authoritative.
        let parsed = Json::parse(trimmed).unwrap_or(Json::Null);
        let (reply, shutdown) = match classify(shared, &parsed) {
            Routed::Local(reply, shutdown) => (reply.to_string(), shutdown),
            Routed::Forward(idx, key) => match forward_line(shared, &mut conns, idx, trimmed) {
                Some(raw) => (raw, false),
                None => {
                    match failover_target(shared, idx, key.as_deref(), is_update(&parsed)) {
                        Ok(succ) => match forward_line(shared, &mut conns, succ, trimmed) {
                            Some(raw) => {
                                shared.failovers.fetch_add(1, Ordering::Relaxed);
                                (raw, false)
                            }
                            None => {
                                restart_replica(shared, succ);
                                (overloaded_reply(shared, idx).to_string(), false)
                            }
                        },
                        Err(shed) => (shed.to_string(), false),
                    }
                }
            },
        };
        if writeln!(writer, "{reply}").and_then(|()| writer.flush()).is_err() {
            break;
        }
        if shutdown {
            shutdown_fleet(shared);
            break;
        }
    }
}
