//! Query throughput of the structcast-server on a warm cache: 4 client
//! threads over real TCP connections, each firing a mix of `points_to`
//! and `alias` requests against programs the server has already compiled
//! and solved — so every request is a pure cache lookup and the number
//! measures the service overhead (framing, dispatch, lock traffic), not
//! the solver.
//!
//! Scenarios cover NDJSON queries on a single server, plus the replica
//! fleet behind the consistent-hash router at 1 and 2 replicas, plus the
//! live-editing `update` path with and without the write-ahead journal (the
//! `wal_fsync` column prices the fsync-per-edit durability guarantee
//! against `--no-wal`). Rows the host cannot measure honestly — replica
//! parallelism on a single-CPU box, a fleet without a built `scastd` —
//! are emitted with `wall_clock_s: null` and a `skipped_reason` instead
//! of a misleading number.
//!
//! Writes `BENCH_server.json` at the repo root: queries/sec per scenario
//! plus `host_cpus`, the `protocol`, and the miss counters proving the
//! measured section ran fully warm.
//!
//! Env knobs: `SCAST_BENCH_SMOKE=1` shrinks the per-thread query count to
//! the CI smoke size.

use std::path::PathBuf;
use std::time::Instant;
use structcast_server::json::Json;
use structcast_server::{fleet, serve, Client, FleetConfig, Metrics, ServerConfig};

const CLIENT_THREADS: usize = 4;

/// (program, var to query) — all embedded corpus programs, so the server
/// auto-loads them on first touch.
const TARGETS: [(&str, &str); 3] = [
    ("bst", "g_tree"),
    ("tagged-union", "g_registry"),
    ("list-utils", "g_head"),
];

fn host_cpus() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

fn points_to_req(prog: &str, var: &str) -> String {
    format!(r#"{{"op":"points_to","program":"{prog}","var":"{var}"}}"#)
}

fn main() {
    let smoke = std::env::var_os("SCAST_BENCH_SMOKE").is_some();
    let per_thread: usize = if smoke { 50 } else { 2000 };

    let handle = serve(&ServerConfig::default()).expect("bind ephemeral port");
    let addr = handle.addr();
    let metrics = handle.metrics();

    // Warm every (program, default-options) entry the measured section
    // will touch, from a single connection.
    let mut warm = Client::connect(addr).expect("connect");
    for (prog, var) in TARGETS {
        let resp = warm.request_line(&points_to_req(prog, var)).expect("warm query");
        assert!(resp.contains("\"ok\": true"), "{resp}");
    }
    // Close the warming connection: graceful shutdown waits for open
    // connections to drain, so a client held across `handle.wait()` would
    // deadlock the bench.
    drop(warm);
    let misses_before = metrics.total_misses();

    let mut records = Vec::new();
    for (scenario, alias_every) in [("points_to", usize::MAX), ("mixed", 3)] {
        let start = Instant::now();
        let threads: Vec<_> = (0..CLIENT_THREADS)
            .map(|t| {
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr).expect("connect");
                    for i in 0..per_thread {
                        let (prog, var) = TARGETS[(t + i) % TARGETS.len()];
                        let req = if alias_every != usize::MAX && i % alias_every == 0 {
                            format!(
                                r#"{{"op":"alias","program":"{prog}","a":"{var}","b":"{var}"}}"#
                            )
                        } else {
                            points_to_req(prog, var)
                        };
                        let resp = c.request_line(&req).expect("query");
                        assert!(resp.contains("\"ok\": true"), "{resp}");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("client thread");
        }
        let elapsed = start.elapsed().as_secs_f64();
        records.push(record(scenario, "ndjson", 1, per_thread, elapsed, &metrics));
    }

    // Warm means warm: the measured sections must not have compiled or
    // solved anything.
    assert_eq!(
        metrics.total_misses(),
        misses_before,
        "measured queries must all be cache hits"
    );

    let mut shut = Client::connect(addr).expect("connect");
    shut.shutdown_server().expect("shutdown");
    handle.wait();

    // Update rows: the live-editing path, journaled (every edit fsync'd
    // to the WAL before the reply) vs `--no-wal`. The delta between the
    // two rows is the price of durability.
    let edits = per_thread.min(500);
    for wal_fsync in [true, false] {
        records.push(update_record(wal_fsync, edits));
    }

    // Fleet rows: the same warm points_to storm through the router. A
    // replica count the host cannot exercise in parallel is reported as
    // skipped, not faked.
    for replicas in [1usize, 2] {
        records.push(fleet_record(replicas, per_thread));
    }

    for r in &records {
        match r.get("queries_per_sec") {
            Some(Json::Num(qps)) => {
                let scenario = r.get("scenario").and_then(Json::as_str).unwrap();
                let protocol = r.get("protocol").and_then(Json::as_str).unwrap();
                let repl = r.get("replicas").and_then(Json::as_u64).unwrap();
                let threads = r.get("client_threads").and_then(Json::as_u64).unwrap();
                let per = r.get("queries_per_thread").and_then(Json::as_u64).unwrap();
                let wal = match r.get("wal_fsync").and_then(Json::as_bool) {
                    Some(true) => " (wal fsync)",
                    Some(false) => " (no wal)",
                    None => "",
                };
                println!(
                    "{scenario:>10}/{protocol} x{repl}: {threads} threads x \
                     {per} queries = {qps:.0} queries/sec{wal}"
                );
            }
            _ => {
                let reason = r.get("skipped_reason").and_then(Json::as_str).unwrap();
                println!("   skipped: {reason}");
            }
        }
    }

    let json = format!("{}\n", Json::Arr(records));
    let path = repo_root_file("BENCH_server.json");
    std::fs::write(&path, json).expect("write BENCH_server.json");
    println!("\nwrote {}", path.display());
}

fn record(
    scenario: &str,
    protocol: &str,
    replicas: usize,
    per_thread: usize,
    elapsed: f64,
    metrics: &Metrics,
) -> Json {
    let total = (CLIENT_THREADS * per_thread) as f64;
    Json::obj([
        ("scenario", Json::str(scenario)),
        ("protocol", Json::str(protocol)),
        ("replicas", Json::count(replicas as u64)),
        ("host_cpus", Json::count(host_cpus())),
        ("client_threads", Json::count(CLIENT_THREADS as u64)),
        ("queries_per_thread", Json::count(per_thread as u64)),
        ("wall_clock_s", Json::num(elapsed)),
        ("queries_per_sec", Json::num(total / elapsed)),
        ("program_misses", Json::count(metrics_field(metrics, "program_misses"))),
        ("solve_misses", Json::count(metrics_field(metrics, "solve_misses"))),
    ])
}

/// One `update` scenario: a single editing client pushing alternating
/// one-function edits against a cached session, with the write-ahead
/// journal on (`wal_fsync: true` — every accepted edit is fsync'd before
/// the reply) or off (the `--no-wal` trade).
fn update_record(wal_fsync: bool, edits: usize) -> Json {
    let dir = std::env::temp_dir().join(format!(
        "scast-bench-wal-{}-{}",
        wal_fsync,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("bench snapshot dir");
    let cfg = ServerConfig {
        snapshot_dir: Some(dir.clone()),
        wal: wal_fsync,
        ..ServerConfig::default()
    };
    let handle = serve(&cfg).expect("bind ephemeral port");
    let mut c = Client::connect(handle.addr()).expect("connect");
    let src = |i: usize| {
        let tgt = if i.is_multiple_of(2) { "x" } else { "y" };
        format!("int x, y, *p; void f(void) {{ p = &{tgt}; }}")
    };
    let load = Json::obj([
        ("op", Json::str("load")),
        ("name", Json::str("live")),
        ("source", Json::str(src(0))),
    ]);
    let resp = c.request(&load).expect("load");
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");

    let start = Instant::now();
    for i in 1..=edits {
        let req = Json::obj([
            ("op", Json::str("update")),
            ("program", Json::str("live")),
            ("source", Json::str(src(i))),
        ]);
        let resp = c.request(&req).expect("update");
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
        assert_eq!(
            resp.get("durable").and_then(Json::as_bool),
            if wal_fsync { Some(true) } else { None },
            "durability claim must match the journal mode: {resp}"
        );
    }
    let elapsed = start.elapsed().as_secs_f64();

    c.shutdown_server().expect("shutdown");
    drop(c);
    handle.wait();
    let _ = std::fs::remove_dir_all(&dir);

    Json::obj([
        ("scenario", Json::str("update")),
        ("protocol", Json::str("ndjson")),
        ("replicas", Json::count(1)),
        ("host_cpus", Json::count(host_cpus())),
        ("client_threads", Json::count(1)),
        ("queries_per_thread", Json::count(edits as u64)),
        ("wal_fsync", Json::Bool(wal_fsync)),
        ("wall_clock_s", Json::num(elapsed)),
        ("queries_per_sec", Json::num(edits as f64 / elapsed)),
    ])
}

/// A row honestly declining a measurement the host cannot support.
fn skipped_record(replicas: usize, per_thread: usize, reason: &str) -> Json {
    Json::obj([
        ("scenario", Json::str("fleet_points_to")),
        ("protocol", Json::str("ndjson")),
        ("replicas", Json::count(replicas as u64)),
        ("host_cpus", Json::count(host_cpus())),
        ("client_threads", Json::count(CLIENT_THREADS as u64)),
        ("queries_per_thread", Json::count(per_thread as u64)),
        ("wall_clock_s", Json::Null),
        ("queries_per_sec", Json::Null),
        ("skipped_reason", Json::str(reason)),
    ])
}

/// One fleet scenario: `replicas` scastd processes behind the router,
/// warmed, then the points_to storm. Sums the replica miss counters via
/// `fleet_stats` to prove the measured section was pure routing + lookup.
fn fleet_record(replicas: usize, per_thread: usize) -> Json {
    let cpus = host_cpus();
    if replicas > 1 && cpus < 2 {
        return skipped_record(
            replicas,
            per_thread,
            &format!("host has {cpus} cpu(s); {replicas}-replica parallelism is unmeasurable"),
        );
    }
    let Some(program) = scastd_path() else {
        return skipped_record(
            replicas,
            per_thread,
            "scastd binary not found next to this bench (build -p structcast-server first)",
        );
    };
    let cfg = FleetConfig {
        replicas,
        program,
        ..FleetConfig::default()
    };
    let fleet_h = fleet(&cfg).expect("spawn fleet");
    let addr = fleet_h.addr();

    let mut warm = Client::connect(addr).expect("connect router");
    for (prog, var) in TARGETS {
        let resp = warm.request_line(&points_to_req(prog, var)).expect("warm query");
        assert!(resp.contains("\"ok\": true"), "{resp}");
    }
    let misses_before = fleet_misses(&mut warm);

    let start = Instant::now();
    let threads: Vec<_> = (0..CLIENT_THREADS)
        .map(|t| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect router");
                for i in 0..per_thread {
                    let (prog, var) = TARGETS[(t + i) % TARGETS.len()];
                    let resp = c.request_line(&points_to_req(prog, var)).expect("query");
                    assert!(resp.contains("\"ok\": true"), "{resp}");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }
    let elapsed = start.elapsed().as_secs_f64();
    let (prog_misses, solve_misses) = fleet_misses(&mut warm);
    assert_eq!(
        (prog_misses, solve_misses),
        misses_before,
        "fleet measured section must be all hits"
    );

    let resp = warm
        .request_line(r#"{"op":"shutdown"}"#)
        .expect("fleet shutdown");
    assert!(resp.contains("\"shutdown\": true"), "{resp}");
    drop(warm);
    fleet_h.wait();

    let total = (CLIENT_THREADS * per_thread) as f64;
    Json::obj([
        ("scenario", Json::str("fleet_points_to")),
        ("protocol", Json::str("ndjson")),
        ("replicas", Json::count(replicas as u64)),
        ("host_cpus", Json::count(host_cpus())),
        ("client_threads", Json::count(CLIENT_THREADS as u64)),
        ("queries_per_thread", Json::count(per_thread as u64)),
        ("wall_clock_s", Json::num(elapsed)),
        ("queries_per_sec", Json::num(total / elapsed)),
        ("program_misses", Json::count(prog_misses)),
        ("solve_misses", Json::count(solve_misses)),
    ])
}

/// Sums `(program_misses, solve_misses)` over every live replica from a
/// `fleet_stats` reply.
fn fleet_misses(c: &mut Client) -> (u64, u64) {
    let fs = c
        .request(&Json::obj([("op", Json::str("fleet_stats"))]))
        .expect("fleet_stats");
    let rows = fs
        .get("replicas")
        .and_then(Json::as_arr)
        .expect("replica rows");
    let mut prog = 0;
    let mut solve = 0;
    for row in rows {
        let stats = row.get("stats").expect("stats field");
        prog += stats.get("program_misses").and_then(Json::as_u64).unwrap_or(0);
        solve += stats.get("solve_misses").and_then(Json::as_u64).unwrap_or(0);
    }
    (prog, solve)
}

/// The `scastd` binary compiled into the same target directory as this
/// bench executable (`target/<profile>/deps/<bench>` → `target/<profile>/scastd`).
fn scastd_path() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    exe.ancestors()
        .skip(1)
        .take(3)
        .map(|dir| dir.join("scastd"))
        .find(|cand| cand.is_file())
}

fn metrics_field(metrics: &Metrics, key: &str) -> u64 {
    metrics
        .snapshot()
        .get(key)
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// `BENCH_server.json` lives at the repo root, two levels above this
/// crate's manifest.
fn repo_root_file(name: &str) -> std::path::PathBuf {
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest
        .ancestors()
        .nth(2)
        .unwrap_or(manifest)
        .join(name)
}
