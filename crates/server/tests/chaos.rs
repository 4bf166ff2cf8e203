//! The chaos harness plus robustness regression tests: seeded fault
//! injection under concurrency, budgeted queries over the wire, overload
//! shedding, read deadlines, partial-line handling, and the bounded-cache
//! sweep.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use structcast_server::json::Json;
use structcast_server::metrics::{Counter, ERROR_KINDS};
use structcast_server::{serve, Client, ServerConfig};

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

/// Asserts no object anywhere in `v` repeats a key: parsers that keep the
/// last duplicate would read a different reply than ones that keep the
/// first.
fn assert_unique_keys(v: &Json, reply: &Json) {
    match v {
        Json::Obj(pairs) => {
            for (i, (k, child)) in pairs.iter().enumerate() {
                assert!(
                    pairs[..i].iter().all(|(seen, _)| seen != k),
                    "repeated key `{k}`: {reply}"
                );
                assert_unique_keys(child, reply);
            }
        }
        Json::Arr(items) => items.iter().for_each(|item| assert_unique_keys(item, reply)),
        _ => {}
    }
}

/// A reply is well-formed iff it is `{"ok": true, ...}` or
/// `{"ok": false, "error": {"kind": <taxonomy>, "message": ...}}`, and no
/// object in it repeats a key.
fn assert_well_formed(resp: &Json) {
    assert_unique_keys(resp, resp);
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
    let stats = c.stats().unwrap();
    assert_well_formed(&stats);
    assert_layer_bytes_reconcile(&stats);
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
