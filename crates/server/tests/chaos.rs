//! The chaos harness plus robustness regression tests: seeded fault
//! injection under concurrency, budgeted queries over the wire, overload
//! shedding, read deadlines, partial-line handling, and the bounded-cache
//! sweep.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use structcast_server::json::Json;
use structcast_server::metrics::{Counter, ERROR_KINDS};
use structcast_server::{fleet, serve, Client, FleetConfig, ServerConfig};

fn ok(resp: &Json) -> bool {
    resp.get("ok").and_then(Json::as_bool) == Some(true)
}

fn error_kind(resp: &Json) -> Option<&str> {
    resp.get("error")?.get("kind")?.as_str()
}

/// Asserts the `stats` reply's per-layer cache byte split sums exactly to
/// the global `cache_bytes` gauge. Holds on every reply, also while other
/// connections insert and evict: `stats` reads the counts, the layer
/// bytes and the gauge from one reading of the cache.
fn assert_layer_bytes_reconcile(stats: &Json) {
    let layers = stats.get("cache_layer_bytes").expect("layer split in stats");
    let layer = |k: &str| layers.get(k).and_then(Json::as_u64).unwrap();
    assert_eq!(
        layer("programs") + layer("solved") + layer("demand"),
        stats.get("cache_bytes").and_then(Json::as_u64).unwrap(),
        "per-layer bytes must sum to the global gauge: {stats}"
    );
}

/// A reply is well-formed iff it is `{"ok": true, ...}` or
/// `{"ok": false, "error": {"kind": <taxonomy>, "message": ...}}`.
fn assert_well_formed(resp: &Json) {
    if ok(resp) {
        return;
    }
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false), "{resp}");
    let kind = error_kind(resp).unwrap_or_else(|| panic!("error reply without kind: {resp}"));
    assert!(ERROR_KINDS.contains(&kind), "unknown kind `{kind}`: {resp}");
    let msg = resp.get("error").and_then(|e| e.get("message")).and_then(Json::as_str);
    assert!(msg.is_some_and(|m| !m.is_empty()), "{resp}");
}

/// The tentpole chaos test: 4 concurrent clients against a server with
/// seeded injected panics and stalls. Every request gets a well-formed
/// reply (success or typed error), the server drains cleanly, and the
/// metrics reconcile (`requests == ok + Σ error kinds`).
#[test]
fn chaos_four_clients_every_reply_well_formed_and_metrics_reconcile() {
    let cfg = ServerConfig {
        faults: Some("panic@solve:0.15,stall@read:0.1,panic@read:0.05;seed=42".to_string()),
        threads: 4,
        ..ServerConfig::default()
    };
    let handle = serve(&cfg).expect("bind ephemeral port");
    let addr = handle.addr();

    let queries: Vec<String> = vec![
        r#"{"op":"load","name":"bst"}"#.into(),
        r#"{"op":"points_to","program":"bst","var":"g_tree"}"#.into(),
        r#"{"op":"points_to","program":"bst","var":"g_tree","model":"offsets"}"#.into(),
        r#"{"op":"alias","program":"bst","a":"g_tree","b":"g_tree"}"#.into(),
        r#"{"op":"modref","program":"bst"}"#.into(),
        r#"{"op":"compare_models","program":"bst"}"#.into(),
        r#"{"op":"points_to","program":"list-utils","var":"g_head"}"#.into(),
        r#"{"op":"stats"}"#.into(),
        r#"not even json"#.into(),
        r#"{"op":"points_to","program":"bst","var":"ghost"}"#.into(),
    ];
    let rounds = 5;
    let workers: Vec<_> = (0..4)
        .map(|i| {
            let queries = queries.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let mut well_formed = 0usize;
                for round in 0..rounds {
                    for j in 0..queries.len() {
                        // Stagger per client/round so fault counters see
                        // varied interleavings.
                        let q = &queries[(i + round + j) % queries.len()];
                        let line = c.request_line(q).unwrap();
                        let resp = Json::parse(&line)
                            .unwrap_or_else(|e| panic!("unparseable reply {line:?}: {e}"));
                        assert_well_formed(&resp);
                        well_formed += 1;
                    }
                }
                well_formed
            })
        })
        .collect();
    let total: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
    assert_eq!(total, 4 * rounds * queries.len());

    let metrics = handle.metrics();
    let mut c = Client::connect(addr).unwrap();
    // At quiescence the per-layer byte split must reconcile with the
    // global gauge — both sides sum the same per-slot estimates.
    assert_layer_bytes_reconcile(&c.stats().unwrap());
    let resp = c.shutdown_server().unwrap();
    assert!(ok(&resp), "{resp}");
    let summary = handle.wait();

    // Reconciliation: one recorded outcome per emitted reply.
    let errors: u64 = ERROR_KINDS.iter().map(|k| metrics.errors_of_kind(k)).sum();
    assert_eq!(
        metrics.requests(),
        metrics.ok() + errors,
        "requests must equal ok + error kinds: {summary}"
    );
    assert_eq!(
        metrics.requests(),
        total as u64 + 2,
        "final stats + shutdown included"
    );
    // The seeded plan really fired: panics were caught, not fatal.
    assert!(metrics.panics() > 0, "expected injected panics: {summary}");
    assert_eq!(metrics.errors_of_kind("internal"), metrics.panics());
    assert!(summary.contains("structcast-server: served"), "{summary}");
}

/// Demand-mode chaos: seeded panics at the `demand` fault site (plus read
/// stalls) while two clients mix demand and exhaustive queries. Every
/// reply stays well-formed, demand answers that do succeed are byte-equal
/// across modes, and the metrics reconcile with demand ops in the stream.
#[test]
fn chaos_demand_mode_replies_well_formed_and_metrics_reconcile() {
    let cfg = ServerConfig {
        faults: Some("panic@demand:0.25,stall@read:0.05;seed=7".to_string()),
        threads: 2,
        ..ServerConfig::default()
    };
    let handle = serve(&cfg).expect("bind ephemeral port");
    let addr = handle.addr();

    let queries: Vec<String> = vec![
        r#"{"op":"load","name":"bst"}"#.into(),
        r#"{"op":"points_to","program":"bst","var":"g_tree","mode":"demand"}"#.into(),
        r#"{"op":"points_to","program":"bst","var":"g_tree"}"#.into(),
        r#"{"op":"alias","program":"bst","a":"g_tree","b":"g_tree","mode":"demand"}"#.into(),
        r#"{"op":"modref","program":"bst","func":"main","mode":"demand"}"#.into(),
        r#"{"op":"points_to","program":"bst","var":"g_tree","model":"offsets","mode":"demand"}"#
            .into(),
        r#"{"op":"modref","program":"bst","mode":"demand"}"#.into(), // bad: no func
        r#"{"op":"stats"}"#.into(),
    ];
    let rounds = 6;
    let workers: Vec<_> = (0..2)
        .map(|i| {
            let queries = queries.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                // (exhaustive answer, demand answer) for the same query —
                // collected when both succeed despite the chaos.
                let mut pairs: Vec<(Option<Json>, Option<Json>)> = vec![(None, None)];
                let mut served = 0usize;
                for round in 0..rounds {
                    for j in 0..queries.len() {
                        let q = &queries[(i + round + j) % queries.len()];
                        let line = c.request_line(q).unwrap();
                        let resp = Json::parse(&line)
                            .unwrap_or_else(|e| panic!("unparseable reply {line:?}: {e}"));
                        assert_well_formed(&resp);
                        served += 1;
                        if ok(&resp) && q.contains(r#""var":"g_tree""#) && !q.contains("offsets") {
                            let slot = pairs.last_mut().unwrap();
                            if q.contains("demand") {
                                slot.1 = Some(resp.get("points_to").unwrap().clone());
                            } else {
                                slot.0 = Some(resp.get("points_to").unwrap().clone());
                            }
                        }
                    }
                }
                // Any round where both modes answered must agree.
                for (e, d) in pairs.into_iter() {
                    if let (Some(e), Some(d)) = (e, d) {
                        assert_eq!(e, d, "demand diverged from exhaustive under chaos");
                    }
                }
                served
            })
        })
        .collect();
    let total: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
    assert_eq!(total, 2 * rounds * queries.len());

    let metrics = handle.metrics();
    let mut c = Client::connect(addr).unwrap();
    c.shutdown_server().unwrap();
    let summary = handle.wait();

    let errors: u64 = ERROR_KINDS.iter().map(|k| metrics.errors_of_kind(k)).sum();
    assert_eq!(
        metrics.requests(),
        metrics.ok() + errors,
        "requests must equal ok + error kinds with demand ops: {summary}"
    );
    assert!(metrics.panics() > 0, "the demand fault site must fire: {summary}");
    assert_eq!(metrics.errors_of_kind("internal"), metrics.panics());
    let (hits, misses) = (
        metrics.get(Counter::DemandHits),
        metrics.get(Counter::DemandMisses),
    );
    assert!(
        hits + misses > 0,
        "demand queries must be counted: {summary}"
    );
}

/// Budget errors arrive over the wire as typed error replies, and the
/// server session stays fully usable afterwards.
#[test]
fn budgeted_queries_return_typed_errors_over_the_wire() {
    let handle = serve(&ServerConfig::default()).unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();

    let capped = c
        .request(
            &Json::parse(r#"{"op":"points_to","program":"bst","var":"g_tree","max_edges":1}"#)
                .unwrap(),
        )
        .unwrap();
    assert_eq!(error_kind(&capped), Some("edge_limit"), "{capped}");
    assert_eq!(
        capped.get("error").and_then(|e| e.get("limit")).and_then(Json::as_u64),
        Some(1)
    );

    let late = c
        .request(
            &Json::parse(r#"{"op":"points_to","program":"bst","var":"g_tree","deadline_ms":0}"#)
                .unwrap(),
        )
        .unwrap();
    assert_eq!(error_kind(&late), Some("deadline"), "{late}");

    // The failed solves corrupted nothing: the same query, unbudgeted,
    // succeeds on the same connection...
    let fine = c
        .request(&Json::parse(r#"{"op":"points_to","program":"bst","var":"g_tree"}"#).unwrap())
        .unwrap();
    assert!(ok(&fine), "{fine}");
    // ...and once warm, even an impossible budget is served from cache.
    let warm = c
        .request(
            &Json::parse(r#"{"op":"points_to","program":"bst","var":"g_tree","max_edges":1}"#)
                .unwrap(),
        )
        .unwrap();
    assert!(ok(&warm), "a cache hit computes nothing, budget moot: {warm}");
    assert_eq!(fine.get("points_to"), warm.get("points_to"));

    let metrics = handle.metrics();
    assert_eq!(metrics.errors_of_kind("edge_limit"), 1);
    assert_eq!(metrics.errors_of_kind("deadline"), 1);
    c.shutdown_server().unwrap();
    handle.wait();
}

/// Satellite regression: a partial line at EOF (no trailing newline, peer
/// half-closed) must produce a protocol error reply, not a silent drop.
#[test]
fn partial_line_at_eof_gets_an_error_reply_not_a_silent_drop() {
    let handle = serve(&ServerConfig::default()).unwrap();
    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    raw.write_all(br#"{"op":"stats""#).unwrap(); // truncated mid-object
    raw.shutdown(Shutdown::Write).unwrap(); // EOF with a partial line pending
    let mut reply = String::new();
    raw.read_to_string(&mut reply).unwrap();
    let line = reply.lines().next().expect("a reply line, not silence");
    let resp = Json::parse(line).unwrap();
    assert_eq!(error_kind(&resp), Some("bad_request"), "{resp}");

    // Same, split across two TCP segments with a flush in between.
    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    raw.write_all(br#"{"op":"sta"#).unwrap();
    raw.flush().unwrap();
    std::thread::sleep(Duration::from_millis(20));
    raw.write_all(br#"ts"}"#).unwrap();
    raw.write_all(b"\n").unwrap();
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let resp = Json::parse(line.trim()).unwrap();
    assert!(ok(&resp), "split-but-complete line must dispatch: {resp}");

    let mut c = Client::connect(handle.addr()).unwrap();
    c.shutdown_server().unwrap();
    handle.wait();
}

/// A stalled client trips the per-connection read deadline and gets a
/// `timeout` reply before the connection closes.
#[test]
fn stalled_connection_gets_a_timeout_reply() {
    let cfg = ServerConfig {
        read_timeout: Some(Duration::from_millis(100)),
        ..ServerConfig::default()
    };
    let handle = serve(&cfg).unwrap();
    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    // Send nothing; the server must give up on its own.
    let mut reply = String::new();
    raw.read_to_string(&mut reply).unwrap();
    let resp = Json::parse(reply.lines().next().unwrap()).unwrap();
    assert_eq!(error_kind(&resp), Some("timeout"), "{resp}");
    assert_eq!(handle.metrics().errors_of_kind("timeout"), 1);

    let mut c = Client::connect(handle.addr()).unwrap();
    c.shutdown_server().unwrap();
    handle.wait();
}

/// Connects until a request actually lands on a worker instead of being
/// shed at accept, and returns that served connection.
fn connect_until_served(addr: SocketAddr) -> Client {
    loop {
        let mut c = Client::connect(addr).unwrap();
        if ok(&c.stats().unwrap()) {
            return c;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// With every worker busy and no queue, a new connection is shed with an
/// `overloaded` reply carrying `retry_after_ms`.
#[test]
fn overloaded_server_sheds_with_retry_after() {
    let cfg = ServerConfig {
        threads: 1,
        backlog: 0,
        ..ServerConfig::default()
    };
    let handle = serve(&cfg).unwrap();
    let addr = handle.addr();

    // Engage the only worker: a completed request proves the connection
    // was dequeued and is now held by the worker. A rendezvous queue
    // (backlog 0) sheds anything that arrives before the worker is in
    // `recv`, so even this first connection may be shed under load.
    let mut busy = connect_until_served(addr);
    let shed_before = handle.metrics().shed();

    // Next connection: queue of 0, worker busy — shed at accept.
    let mut shed = Client::connect(addr).unwrap();
    let resp = shed.stats().unwrap(); // the unsolicited reply answers it
    assert_eq!(error_kind(&resp), Some("overloaded"), "{resp}");
    assert!(
        resp.get("error")
            .and_then(|e| e.get("retry_after_ms"))
            .and_then(Json::as_u64)
            .is_some(),
        "{resp}"
    );
    assert_eq!(handle.metrics().shed(), shed_before + 1);

    // The busy client's connection still works, and releasing it lets a
    // fresh client in.
    assert!(ok(&busy.stats().unwrap()));
    drop(shed);
    drop(busy);
    // The only worker may still be tearing down `busy`'s connection. A
    // shutdown sent on a shed connection would be consumed by the
    // `overloaded` reply and never reach the server.
    let mut c = connect_until_served(addr);
    let shed_total = handle.metrics().shed();
    c.shutdown_server().unwrap();
    let summary = handle.wait();
    assert!(summary.contains(&format!("{shed_total} shed")), "{summary}");
}

/// Satellite regression: `Client::connect_timeout` errors out against a
/// peer that accepts but never replies, instead of hanging forever.
#[test]
fn client_read_timeout_fails_fast_against_a_dead_server() {
    // A listener that never accepts: the kernel completes the handshake
    // (backlog), then nothing ever answers.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut c = Client::connect_timeout(addr, Duration::from_millis(150)).unwrap();
    let start = std::time::Instant::now();
    let err = c.request_line(r#"{"op":"stats"}"#).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::TimedOut, "{err}");
    assert!(err.to_string().contains("timed out"), "{err}");
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "must fail fast, not hang"
    );
}

/// Sums an alive replica row's `errors_by_kind` object from a
/// `fleet_stats` reply.
fn wire_errors_total(stats: &Json) -> u64 {
    match stats.get("errors_by_kind") {
        Some(Json::Obj(pairs)) => pairs.iter().filter_map(|(_, v)| v.as_u64()).sum(),
        _ => panic!("stats without errors_by_kind: {stats}"),
    }
}

/// The metrics `ok` *count* from a wire stats reply. The reply carries
/// two `ok` keys — the protocol flag (`true`) first, the counter second —
/// so `Json::get` (first match) cannot reach the counter.
fn wire_ok_count(stats: &Json) -> u64 {
    match stats {
        Json::Obj(pairs) => pairs
            .iter()
            .find_map(|(k, v)| (k == "ok").then(|| v.as_u64()).flatten())
            .unwrap_or_else(|| panic!("stats without an ok count: {stats}")),
        _ => panic!("not a stats object: {stats}"),
    }
}

/// The fleet chaos tentpole: SIGKILL a replica in the middle of a query
/// storm through the router. Every storm reply must be well-formed — a
/// real answer (the ring successor serves the victim's read keys during
/// the outage) or a typed `overloaded` shed — an `update` aimed at the
/// dead owner must shed with `degraded: "replica_down"` instead of
/// failing over, the router must restart the victim from its snapshot,
/// the restarted process must serve its re-warmed keys with **zero**
/// compile/solve misses, and the fleet's metrics must reconcile exactly —
/// per replica and at the router.
#[test]
fn replica_killed_mid_storm_is_shed_then_restarts_warm_with_zero_misses() {
    let root = std::env::temp_dir().join(format!(
        "scast-fleet-chaos-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();

    let cfg = FleetConfig {
        replicas: 2,
        program: env!("CARGO_BIN_EXE_scastd").into(),
        snapshot_root: Some(root.clone()),
        forward_timeout: Duration::from_secs(5),
        ..FleetConfig::default()
    };
    let fleet_h = fleet(&cfg).expect("spawn 2 replicas + router");
    let addr = fleet_h.addr();

    // The storm corpus: warm these exact queries first, so every reply a
    // live replica gives during (and after) the storm is a cache hit —
    // that is what makes "zero misses after restart" assertable.
    let storm: Vec<String> = vec![
        r#"{"op":"points_to","program":"bst","var":"g_tree"}"#.into(),
        r#"{"op":"alias","program":"bst","a":"g_tree","b":"g_tree"}"#.into(),
        r#"{"op":"modref","program":"bst","func":"main"}"#.into(),
        r#"{"op":"points_to","program":"bst","var":"g_tree","mode":"demand"}"#.into(),
        r#"{"op":"points_to","program":"list-utils","var":"g_head"}"#.into(),
    ];
    {
        let mut c = Client::connect(addr).unwrap();
        for q in [
            r#"{"op":"load","name":"bst"}"#,
            r#"{"op":"load","name":"list-utils"}"#,
        ] {
            let resp = Json::parse(&c.request_line(q).unwrap()).unwrap();
            assert!(ok(&resp), "warm load through router failed: {resp}");
        }
        for q in &storm {
            let resp = Json::parse(&c.request_line(q).unwrap()).unwrap();
            assert!(ok(&resp), "warm query through router failed: {resp}");
        }
        // Broadcast snapshot: both replicas persist their warm state.
        let resp = c
            .request_line(r#"{"op":"snapshot"}"#)
            .map(|l| Json::parse(&l).unwrap())
            .unwrap();
        assert!(ok(&resp), "{resp}");
        assert_eq!(
            resp.get("saved").and_then(Json::as_u64),
            Some(2),
            "both replicas must save: {resp}"
        );
    }

    // The victim owns "bst": killing it severs the storm's hottest keys.
    let victim = fleet_h.route("bst");
    assert!(victim < 2);

    // Every worker pauses after 10 rounds until the victim is dead, so
    // the remaining 50 rounds certainly reach the downed owner. (The
    // warm storm lasts about as long as a fixed sleep would, so a sleep
    // before the kill could let it finish first.)
    let mid_storm = Arc::new(Barrier::new(4));
    let workers: Vec<_> = (0..3)
        .map(|i| {
            let storm = storm.clone();
            let mid_storm = Arc::clone(&mid_storm);
            std::thread::spawn(move || -> (usize, u64) {
                let mut c = Client::connect(addr).unwrap();
                let mut shed = 0u64;
                let mut served = 0usize;
                for round in 0..60 {
                    if round == 10 {
                        mid_storm.wait(); // engaged
                        mid_storm.wait(); // victim killed
                    }
                    for j in 0..storm.len() {
                        let q = &storm[(i + round + j) % storm.len()];
                        let line = c.request_line(q).unwrap();
                        let resp = Json::parse(&line)
                            .unwrap_or_else(|e| panic!("unparseable reply {line:?}: {e}"));
                        // The only acceptable failure is a typed shed.
                        assert_well_formed(&resp);
                        if !ok(&resp) {
                            assert_eq!(
                                error_kind(&resp),
                                Some("overloaded"),
                                "a killed replica may only shed: {resp}"
                            );
                            assert!(
                                resp.get("error")
                                    .and_then(|e| e.get("retry_after_ms"))
                                    .and_then(Json::as_u64)
                                    .is_some(),
                                "{resp}"
                            );
                            shed += 1;
                        }
                        served += 1;
                    }
                }
                (served, shed)
            })
        })
        .collect();

    // Let the storm engage, then SIGKILL the victim mid-flight.
    mid_storm.wait();
    fleet_h.kill_replica(victim).expect("victim had a live process");
    mid_storm.wait();

    // While the owner is down, an update aimed at its keyspace must NOT
    // fail over to the successor (whose WAL is not the owner's): it sheds
    // with the typed `degraded: "replica_down"` marker. A ghost program
    // name that routes to the victim keeps the probe side-effect-free —
    // if the restart wins the race the reply is a plain bad_request.
    let ghost = (0..)
        .map(|n| format!("ghost-{n}"))
        .find(|g| fleet_h.route(g) == victim)
        .unwrap();
    let update_req =
        format!(r#"{{"op":"update","program":"{ghost}","source":"int g_ghost;"}}"#);
    let mut ghost_sheds = 0u64;
    {
        let mut c = Client::connect(addr).unwrap();
        let line = c.request_line(&update_req).unwrap();
        let resp = Json::parse(&line).unwrap();
        assert_well_formed(&resp);
        match error_kind(&resp) {
            Some("overloaded") => {
                assert_eq!(
                    resp.get("error")
                        .and_then(|e| e.get("degraded"))
                        .and_then(Json::as_str),
                    Some("replica_down"),
                    "an update shed by a dead owner must carry the marker: {resp}"
                );
                ghost_sheds += 1;
            }
            kind => panic!("update must shed while the owner is down, got {kind:?}: {resp}"),
        }
    }

    let (mut total, mut shed_seen) = (0usize, ghost_sheds);
    for w in workers {
        let (served, shed) = w.join().unwrap();
        total += served;
        shed_seen += shed;
    }
    assert_eq!(total, 3 * 60 * storm.len(), "no storm reply was dropped");

    // The kill triggered a background restart (health probe and failed
    // forwards both report it); with failover in front, recovery is
    // observed through the replica table, not through shed replies.
    let deadline = Instant::now() + Duration::from_secs(30);
    while fleet_h.replica_addrs()[victim].is_none() {
        assert!(Instant::now() < deadline, "victim never came back");
        std::thread::sleep(Duration::from_millis(50));
    }

    // Once the victim is re-bound, its keys route home again; the first
    // answer must come from its snapshot-restored cache.
    let mut c = Client::connect(addr).unwrap();
    let warm_reply = loop {
        let line = c
            .request_line(r#"{"op":"points_to","program":"bst","var":"g_tree"}"#)
            .unwrap();
        let resp = Json::parse(&line).unwrap();
        assert_well_formed(&resp);
        if ok(&resp) {
            break resp;
        }
        shed_seen += 1;
        assert!(
            Instant::now() < deadline,
            "victim never answered post-restart: {resp}"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(
        warm_reply
            .get("points_to")
            .and_then(Json::as_arr)
            .is_some_and(|pts| !pts.is_empty()),
        "restarted replica must serve real restored answers: {warm_reply}"
    );
    assert!(fleet_h.replica_addrs()[victim].is_some(), "victim alive again");

    // A restored demand answer is served as a hit too.
    let resp = Json::parse(
        &c.request_line(r#"{"op":"points_to","program":"bst","var":"g_tree","mode":"demand"}"#)
            .unwrap(),
    )
    .unwrap();
    assert!(ok(&resp), "{resp}");

    // Fleet-wide reconciliation.
    let fs = Json::parse(&c.request_line(r#"{"op":"fleet_stats"}"#).unwrap()).unwrap();
    assert!(ok(&fs), "{fs}");
    let rows = fs.get("replicas").and_then(Json::as_arr).unwrap();
    assert_eq!(rows.len(), 2);
    for row in rows {
        assert_eq!(row.get("alive").and_then(Json::as_bool), Some(true), "{row}");
        // Per-replica outcome accounting is exact even with the
        // fleet_stats-triggered stats request in flight: `requests` is
        // recorded at reply time.
        let stats = row.get("stats").unwrap();
        assert_eq!(
            stats.get("requests").and_then(Json::as_u64).unwrap(),
            wire_ok_count(stats) + wire_errors_total(stats),
            "replica outcomes must reconcile: {row}"
        );
    }
    let vrow = &rows[victim];
    assert_eq!(vrow.get("restarts").and_then(Json::as_u64), Some(1), "{vrow}");
    // The per-replica WAL depth is a first-class fleet_stats field; this
    // storm journaled nothing (the ghost update was shed or rejected), so
    // both replicas report an empty journal.
    for row in rows {
        assert_eq!(
            row.get("wal_depth").and_then(Json::as_u64),
            Some(0),
            "{row}"
        );
    }
    let vstats = vrow.get("stats").unwrap();
    // The tentpole claim: the restarted process recompiled NOTHING and
    // re-solved NOTHING — every post-restart answer came from the
    // snapshot it loaded at startup.
    assert_eq!(
        vstats.get("program_misses").and_then(Json::as_u64),
        Some(0),
        "restart must not recompile: {vstats}"
    );
    assert_eq!(
        vstats.get("solve_misses").and_then(Json::as_u64),
        Some(0),
        "restart must not re-solve: {vstats}"
    );
    // Query ops only count solve/demand hits (program hits are a `load`
    // notion), so those are the witnesses of restored warm state.
    assert!(
        vstats.get("solve_hits").and_then(Json::as_u64).unwrap() >= 1,
        "post-restart queries must be solve hits: {vstats}"
    );
    assert!(
        vstats
            .get("demand")
            .and_then(|d| d.get("hits"))
            .and_then(Json::as_u64)
            .unwrap()
            >= 1,
        "the restored demand answer must be served as a hit: {vstats}"
    );
    let snap = vstats.get("snapshot").unwrap();
    assert_eq!(snap.get("restores").and_then(Json::as_u64), Some(1), "{snap}");
    assert_eq!(snap.get("restore_errors").and_then(Json::as_u64), Some(0), "{snap}");
    assert!(
        snap.get("restored_entries").and_then(Json::as_u64).unwrap() >= 3,
        "the victim's programs + summaries + demand answer: {snap}"
    );
    // Router-side accounting: every shed the clients saw is counted,
    // reads really failed over to the successor during the outage, the
    // shed update is tallied separately, and exactly one restart happened
    // fleet-wide.
    let router = fs.get("router").unwrap();
    assert_eq!(
        router.get("overloaded").and_then(Json::as_u64),
        Some(shed_seen),
        "router sheds must equal the overloaded replies observed: {router}"
    );
    assert!(
        router.get("failovers").and_then(Json::as_u64).unwrap() >= 1,
        "the storm's reads must have failed over while the owner was down: {router}"
    );
    assert_eq!(
        router.get("update_sheds").and_then(Json::as_u64),
        Some(ghost_sheds),
        "update sheds must equal the degraded replies observed: {router}"
    );
    assert_eq!(router.get("restarts").and_then(Json::as_u64), Some(1), "{router}");

    // Graceful fleet shutdown: every replica exits, the router drains.
    let resp = Json::parse(&c.request_line(r#"{"op":"shutdown"}"#).unwrap()).unwrap();
    assert!(ok(&resp), "{resp}");
    fleet_h.wait();
    let _ = std::fs::remove_dir_all(&root);
}

/// Acceptance sweep: 50 distinct generated programs through a byte-capped
/// server. The accounted cache stays under the cap and evictions fire.
/// Loads 50 small generated programs, querying every fifth under all four
/// models so the solved layer fills too.
fn bounded_sweep(c: &mut Client) {
    for seed in 0..50u64 {
        let src = structcast_progen::generate(&structcast_progen::GenConfig::small(seed));
        let req = Json::obj([
            ("op", Json::str("load")),
            ("name", Json::str(format!("gen-{seed}"))),
            ("source", Json::str(&src)),
        ]);
        let resp = c.request(&req).unwrap();
        assert!(ok(&resp), "seed {seed}: {resp}");
        // Query a few to populate the solved layer too.
        if seed % 5 == 0 {
            let q = Json::obj([
                ("op", Json::str("compare_models")),
                ("program", Json::str(format!("gen-{seed}"))),
            ]);
            let resp = c.request(&q).unwrap();
            assert!(ok(&resp), "seed {seed}: {resp}");
        }
    }
}

#[test]
fn bounded_cache_sweep_stays_under_cap_with_evictions() {
    // A cap small enough that 50 small programs cannot all fit.
    let cfg = ServerConfig {
        max_cache_bytes: 192 * 1024,
        ..ServerConfig::default()
    };
    let handle = serve(&cfg).unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();
    bounded_sweep(&mut c);
    let stats = c.stats().unwrap();
    let bytes = stats.get("cache_bytes").and_then(Json::as_u64).unwrap();
    let cap = stats.get("max_cache_bytes").and_then(Json::as_u64).unwrap();
    assert!(bytes <= cap, "accounted bytes {bytes} must fit the cap {cap}");
    // Evictions moved bytes out of every layer; the split still reconciles.
    assert_layer_bytes_reconcile(&stats);
    let (pe, se) = handle.metrics().evictions();
    assert!(pe > 0, "50 programs past a tiny cap must evict ({pe}p/{se}s)");
    // Evicted programs are transparently recompiled on demand.
    let resp = c
        .request_line(r#"{"op":"points_to","program":"gen-0","var":"g0_x0"}"#)
        .unwrap();
    let resp = Json::parse(&resp).unwrap();
    // Whether g0_x0 exists depends on the generator; well-formed either way.
    assert_well_formed(&resp);
    c.shutdown_server().unwrap();
    handle.wait();
}

/// `stats` stays self-consistent under load: while one connection runs the
/// bounded sweep (inserting and evicting across all layers), a second
/// polls `stats` and every reply's layer split sums to its `cache_bytes`.
#[test]
fn stats_layer_bytes_reconcile_on_every_reply_under_load() {
    let cfg = ServerConfig {
        max_cache_bytes: 192 * 1024,
        ..ServerConfig::default()
    };
    let handle = serve(&cfg).unwrap();
    let addr = handle.addr();
    let done = Arc::new(AtomicBool::new(false));
    let poller = {
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            let mut polls = 0usize;
            while !done.load(Ordering::Relaxed) {
                assert_layer_bytes_reconcile(&c.stats().unwrap());
                polls += 1;
            }
            polls
        })
    };
    let mut c = Client::connect(addr).unwrap();
    bounded_sweep(&mut c);
    done.store(true, Ordering::Relaxed);
    let polls = poller.join().unwrap();
    assert!(polls > 0, "the poller must have raced the sweep");
    let (pe, se) = handle.metrics().evictions();
    assert!(pe > 0, "the sweep must evict while stats is polled ({pe}p/{se}s)");
    assert_layer_bytes_reconcile(&c.stats().unwrap());
    c.shutdown_server().unwrap();
    handle.wait();
}
