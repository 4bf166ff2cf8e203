//! Durability and degradation tests: the update WAL's crash story
//! (SIGKILL between snapshots, torn-tail restarts), the degradation
//! ladder (demand fallback, stale serving, brownout, non-durable
//! updates), client retry/backoff reconciliation, and hostile wire-input
//! sweeps against the server.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;
use structcast_server::json::Json;
use structcast_server::metrics::{Counter, ERROR_KINDS};
use structcast_server::wal;
use structcast_server::{serve, Client, RetryOpts, ServerConfig};

fn ok(resp: &Json) -> bool {
    resp.get("ok").and_then(Json::as_bool) == Some(true)
}

fn error_kind(resp: &Json) -> Option<&str> {
    resp.get("error")?.get("kind")?.as_str()
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scast-dur-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Version `i` of the edited program: `p` flips between `&a` and `&b`
/// per version and `q` targets a version-specific global, so every
/// edit observably changes the points-to answers.
fn version(i: usize) -> String {
    let (x, y) = if i.is_multiple_of(2) { ("a", "b") } else { ("b", "a") };
    format!(
        "int a; int b; int c{i}; int *p; int *q;\n\
         void f(void) {{ p = &{x}; q = &{y}; }}\n\
         void g(void) {{ q = &c{i}; }}\n"
    )
}

fn load_req(source: &str) -> String {
    Json::obj([
        ("op", Json::str("load")),
        ("name", Json::str("live")),
        ("source", Json::str(source)),
    ])
    .to_string()
}

fn update_req(source: &str) -> String {
    Json::obj([
        ("op", Json::str("update")),
        ("program", Json::str("live")),
        ("source", Json::str(source)),
    ])
    .to_string()
}

/// The deterministic query battery compared between a restored server and
/// its never-killed control: exhaustive answers only (no timing fields).
fn battery() -> Vec<String> {
    vec![
        r#"{"op":"points_to","program":"live","var":"p"}"#.into(),
        r#"{"op":"points_to","program":"live","var":"q"}"#.into(),
        r#"{"op":"alias","program":"live","a":"p","b":"q"}"#.into(),
        r#"{"op":"modref","program":"live","func":"f"}"#.into(),
        r#"{"op":"compare_models","program":"live"}"#.into(),
    ]
}

/// Spawns a real `scastd` process and scrapes its bound address.
fn spawn_scastd(dir: &Path, extra: &[&str]) -> (Child, SocketAddr) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_scastd"));
    cmd.arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--snapshot")
        .arg(dir)
        .args(extra)
        .stdout(Stdio::piped())
        .stdin(Stdio::null());
    let mut child = cmd.spawn().expect("spawn scastd");
    let stdout = child.stdout.take().unwrap();
    let mut lines = BufReader::new(stdout);
    let addr = loop {
        let mut line = String::new();
        assert_ne!(lines.read_line(&mut line).unwrap(), 0, "scastd died before binding");
        if let Some(rest) = line.trim().strip_prefix("listening on ") {
            break rest.parse::<SocketAddr>().unwrap();
        }
    };
    // Keep stdout drained so the child never blocks on a full pipe.
    std::thread::spawn(move || {
        let mut sink = std::io::sink();
        let _ = std::io::copy(&mut lines, &mut sink);
    });
    (child, addr)
}

fn wire_stats_field(stats: &Json, block: &str, field: &str) -> Option<u64> {
    stats.get(block)?.get(field)?.as_u64()
}

/// The durability tentpole: a real server process takes a snapshot, then
/// accepts an edit storm whose updates are only in the WAL, and is
/// SIGKILLed. The restarted process must replay the journal and answer
/// the full query battery **byte-identically** to a control server that
/// applied every edit and was never killed.
#[test]
fn kill_between_snapshots_replays_wal_identical_to_never_killed_control() {
    let dir = tmp_dir("kill-storm");
    let (mut child, addr) = spawn_scastd(&dir, &[]);
    let edits = 6usize;
    {
        let mut c = Client::connect_timeout(addr, Duration::from_secs(10)).unwrap();
        let resp = Json::parse(&c.request_line(&load_req(&version(0))).unwrap()).unwrap();
        assert!(ok(&resp), "{resp}");
        // Persist the baseline, emptying the journal.
        let resp = c.request(&Json::obj([("op", Json::str("snapshot"))])).unwrap();
        assert!(ok(&resp), "{resp}");
        // The edit storm: every accepted update is acked durable —
        // journaled and fsync'd before the reply — and NOT snapshotted.
        for i in 1..=edits {
            let resp = Json::parse(&c.request_line(&update_req(&version(i))).unwrap()).unwrap();
            assert!(ok(&resp), "edit {i}: {resp}");
            assert_eq!(
                resp.get("durable").and_then(Json::as_bool),
                Some(true),
                "acked edits must be journaled: {resp}"
            );
        }
        let stats = c.stats().unwrap();
        assert_eq!(
            wire_stats_field(&stats, "wal", "depth"),
            Some(edits as u64),
            "all edits live in the journal: {stats}"
        );
    }
    child.kill().unwrap();
    let _ = child.wait();

    // Restart from snapshot + WAL.
    let (mut child, addr) = spawn_scastd(&dir, &[]);
    let mut victim = Client::connect_timeout(addr, Duration::from_secs(10)).unwrap();
    let stats = victim.stats().unwrap();
    assert_eq!(
        wire_stats_field(&stats, "wal", "replayed"),
        Some(edits as u64),
        "every acked edit replays: {stats}"
    );
    assert_eq!(wire_stats_field(&stats, "wal", "replay_errors"), Some(0), "{stats}");
    assert_eq!(wire_stats_field(&stats, "wal", "torn_tail"), Some(0), "{stats}");

    // The never-killed control: same load, same edits, no WAL (no
    // snapshot dir), no kill.
    let control_handle = serve(&ServerConfig::default()).unwrap();
    let mut control = Client::connect(control_handle.addr()).unwrap();
    let resp = Json::parse(&control.request_line(&load_req(&version(0))).unwrap()).unwrap();
    assert!(ok(&resp), "{resp}");
    for i in 1..=edits {
        let resp = Json::parse(&control.request_line(&update_req(&version(i))).unwrap()).unwrap();
        assert!(ok(&resp), "{resp}");
        assert!(
            resp.get("durable").is_none(),
            "without a WAL there is no durability claim: {resp}"
        );
    }

    for q in battery() {
        let v = victim.request_line(&q).unwrap();
        let c = control.request_line(&q).unwrap();
        assert!(ok(&Json::parse(&v).unwrap()), "{v}");
        assert_eq!(v, c, "restored answer diverged from control for {q}");
    }

    let _ = control.shutdown_server();
    control_handle.wait();
    let resp = victim.shutdown_server().unwrap();
    assert!(ok(&resp), "{resp}");
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Torn-tail sweep, integration flavor: build a real snapshot + journal
/// with a SIGKILLed process, then restart a server on a copy truncated at
/// a sweep of byte offsets. Every truncation point must restore cleanly —
/// exactly the whole-record prefix replays, the torn-tail counter fires
/// iff the cut is mid-record, and the answers match the control state for
/// that prefix.
#[test]
fn torn_tail_restart_sweep_restores_every_prefix_cleanly() {
    let dir = tmp_dir("torn-sweep");
    let edits = 3usize;
    let (mut child, addr) = spawn_scastd(&dir, &[]);
    {
        let mut c = Client::connect_timeout(addr, Duration::from_secs(10)).unwrap();
        let loaded = c.request_line(&load_req(&version(0))).unwrap();
    assert!(ok(&Json::parse(&loaded).unwrap()));
        assert!(ok(&c.request(&Json::obj([("op", Json::str("snapshot"))])).unwrap()));
        for i in 1..=edits {
            let resp = Json::parse(&c.request_line(&update_req(&version(i))).unwrap()).unwrap();
            assert!(ok(&resp), "{resp}");
        }
    }
    child.kill().unwrap();
    let _ = child.wait();
    let wal_bytes = std::fs::read(dir.join("wal")).unwrap();

    // Control answers per replayed-prefix length: expected[k] is the
    // battery head (points_to p / points_to q) after k edits.
    let control_handle = serve(&ServerConfig::default()).unwrap();
    let mut control = Client::connect(control_handle.addr()).unwrap();
    assert!(ok(&Json::parse(&control.request_line(&load_req(&version(0))).unwrap()).unwrap()));
    let probe: Vec<String> = battery().into_iter().take(2).collect();
    let mut expected: Vec<Vec<String>> = Vec::new();
    expected.push(probe.iter().map(|q| control.request_line(q).unwrap()).collect());
    for i in 1..=edits {
        assert!(ok(&Json::parse(&control.request_line(&update_req(&version(i))).unwrap()).unwrap()));
        expected.push(probe.iter().map(|q| control.request_line(q).unwrap()).collect());
    }
    let _ = control.shutdown_server();
    control_handle.wait();

    // Sweep cuts: every record boundary plus a stride through the file.
    let mut cuts: Vec<usize> = (0..=wal_bytes.len()).step_by(13).collect();
    cuts.push(wal_bytes.len());
    for (n, cut) in cuts.into_iter().enumerate() {
        let copy = tmp_dir(&format!("torn-sweep-cut{n}"));
        std::fs::copy(
            dir.join(structcast_server::SNAPSHOT_FILE),
            copy.join(structcast_server::SNAPSHOT_FILE),
        )
        .unwrap();
        std::fs::write(copy.join("wal"), &wal_bytes[..cut]).unwrap();
        // What the wal module itself finds in this prefix is the spec for
        // what the server must do with it.
        let info = wal::replay(&copy).unwrap();
        let k = info.records.len();
        assert!(k <= edits);

        let cfg = ServerConfig {
            snapshot_dir: Some(copy.clone()),
            ..ServerConfig::default()
        };
        let handle = serve(&cfg).unwrap_or_else(|e| panic!("cut {cut}: restore failed: {e}"));
        let m = handle.metrics();
        let [replayed, replay_errors, torn] = [
            Counter::WalReplayed,
            Counter::WalReplayErrors,
            Counter::WalTornTail,
        ]
        .map(|c| m.get(c));
        assert_eq!(replayed, k as u64, "cut {cut}");
        assert_eq!(replay_errors, 0, "cut {cut}");
        assert_eq!(torn, u64::from(info.torn_tail), "cut {cut}");
        let mut c = Client::connect(handle.addr()).unwrap();
        for (q, want) in probe.iter().zip(&expected[k]) {
            let got = c.request_line(q).unwrap();
            assert_eq!(&got, want, "cut {cut} replayed {k} edits");
        }
        let _ = c.shutdown_server();
        handle.wait();
        let _ = std::fs::remove_dir_all(&copy);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Demand-path failure falls back to a resident exhaustive summary: the
/// reply is a real answer flagged `degraded: "demand_fallback"`, and the
/// absorbed panic never shows up in the panic/internal counters.
#[test]
fn demand_fallback_serves_resident_summary_when_demand_path_panics() {
    let cfg = ServerConfig {
        faults: Some("panic@demand:1.0".to_string()),
        ..ServerConfig::default()
    };
    let handle = serve(&cfg).unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();
    let loaded = c.request_line(&load_req(&version(0))).unwrap();
    assert!(ok(&Json::parse(&loaded).unwrap()));
    // Warm the exhaustive summary — the fallback the ladder steps to.
    let full = Json::parse(
        &c.request_line(r#"{"op":"points_to","program":"live","var":"p"}"#).unwrap(),
    )
    .unwrap();
    assert!(ok(&full), "{full}");

    let resp = Json::parse(
        &c.request_line(r#"{"op":"points_to","program":"live","var":"p","mode":"demand"}"#)
            .unwrap(),
    )
    .unwrap();
    assert!(ok(&resp), "fallback must answer: {resp}");
    assert_eq!(
        resp.get("degraded").and_then(Json::as_str),
        Some("demand_fallback"),
        "{resp}"
    );
    assert_eq!(
        resp.get("points_to").and_then(Json::as_arr),
        full.get("points_to").and_then(Json::as_arr),
        "fallback answers from the exhaustive summary: {resp}"
    );
    let m = handle.metrics();
    let degraded = m.get(Counter::Degraded);
    assert!(degraded >= 1);
    assert_eq!(m.panics(), 0, "the absorbed panic is not a panic outcome");
    assert_eq!(m.errors_of_kind("internal"), 0);

    // No resident summary to fall back on → the panic surfaces as a
    // typed internal error and the panic/internal invariant holds.
    let resp = Json::parse(
        &c.request_line(
            r#"{"op":"points_to","program":"live","var":"p","mode":"demand","model":"collapse"}"#,
        )
        .unwrap(),
    )
    .unwrap();
    assert_eq!(error_kind(&resp), Some("internal"), "{resp}");
    assert_eq!(m.panics(), 1);
    assert_eq!(m.errors_of_kind("internal"), m.panics());

    let _ = c.shutdown_server();
    handle.wait();
}

/// A failed mid-update re-solve keeps serving the pre-edit summaries,
/// flagged `stale: true`, until an edit lands.
#[test]
fn failed_update_serves_stale_flagged_summaries_until_an_edit_lands() {
    let handle = serve(&ServerConfig::default()).unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();
    let loaded = c.request_line(&load_req(&version(0))).unwrap();
    assert!(ok(&Json::parse(&loaded).unwrap()));
    let q = r#"{"op":"points_to","program":"live","var":"p"}"#;
    let fresh = Json::parse(&c.request_line(q).unwrap()).unwrap();
    assert!(ok(&fresh) && fresh.get("stale").is_none(), "{fresh}");

    // An update that cannot even parse: rejected, cache untouched, but
    // the program is now known-behind-the-editor.
    let bad = Json::parse(&c.request_line(&update_req("int %% not C @@")).unwrap()).unwrap();
    assert_eq!(error_kind(&bad), Some("bad_request"), "{bad}");

    let stale = Json::parse(&c.request_line(q).unwrap()).unwrap();
    assert!(ok(&stale), "pre-edit summaries keep serving: {stale}");
    assert_eq!(stale.get("stale").and_then(Json::as_bool), Some(true), "{stale}");
    assert_eq!(
        stale.get("points_to").and_then(Json::as_arr),
        fresh.get("points_to").and_then(Json::as_arr),
        "stale answers are the pre-edit answers"
    );
    let stale_serves = handle.metrics().get(Counter::StaleServes);
    assert!(stale_serves >= 1);

    // A good edit clears the flag.
    assert!(ok(&Json::parse(&c.request_line(&update_req(&version(1))).unwrap()).unwrap()));
    let resp = Json::parse(&c.request_line(q).unwrap()).unwrap();
    assert!(ok(&resp) && resp.get("stale").is_none(), "{resp}");

    let _ = c.shutdown_server();
    handle.wait();
}

/// Brownout sheds only cold-miss work: warm hits and `stats` answer,
/// cold queries get a typed `overloaded` + `degraded: "brownout"` shed.
#[test]
fn brownout_sheds_cold_misses_but_answers_warm_hits_and_stats() {
    let dir = tmp_dir("brownout");
    // Phase 1: warm a cache and snapshot it.
    {
        let cfg = ServerConfig {
            snapshot_dir: Some(dir.clone()),
            ..ServerConfig::default()
        };
        let handle = serve(&cfg).unwrap();
        let mut c = Client::connect(handle.addr()).unwrap();
        let loaded = c.request_line(&load_req(&version(0))).unwrap();
    assert!(ok(&Json::parse(&loaded).unwrap()));
        assert!(ok(&Json::parse(
            &c.request_line(r#"{"op":"points_to","program":"live","var":"p"}"#).unwrap()
        )
        .unwrap()));
        assert!(ok(&c.shutdown_server().unwrap()));
        handle.wait();
    }
    // Phase 2: restart warm with brownout pinned on (high water 0).
    let cfg = ServerConfig {
        snapshot_dir: Some(dir.clone()),
        brownout_high_water: Some(0),
        ..ServerConfig::default()
    };
    let handle = serve(&cfg).unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();
    // stats and warm hits answer.
    assert!(ok(&c.stats().unwrap()));
    let warm = Json::parse(
        &c.request_line(r#"{"op":"points_to","program":"live","var":"p"}"#).unwrap(),
    )
    .unwrap();
    assert!(ok(&warm), "warm hits ride through a brownout: {warm}");
    // A cold miss (corpus program never loaded here) is shed, typed.
    let cold = Json::parse(
        &c.request_line(r#"{"op":"points_to","program":"bst","var":"g_tree"}"#).unwrap(),
    )
    .unwrap();
    assert_eq!(error_kind(&cold), Some("overloaded"), "{cold}");
    assert_eq!(
        cold.get("error").and_then(|e| e.get("degraded")).and_then(Json::as_str),
        Some("brownout"),
        "{cold}"
    );
    assert!(
        cold.get("error")
            .and_then(|e| e.get("retry_after_ms"))
            .and_then(Json::as_u64)
            .is_some(),
        "{cold}"
    );
    let brownout_sheds = handle.metrics().get(Counter::BrownoutSheds);
    assert!(brownout_sheds >= 1);

    let _ = c.shutdown_server();
    handle.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// An injected WAL-append failure degrades instead of refusing: the
/// update applies in memory and the reply says plainly it is not durable.
#[test]
fn wal_append_fault_degrades_to_non_durable_updates() {
    let dir = tmp_dir("wal-fault");
    let cfg = ServerConfig {
        snapshot_dir: Some(dir.clone()),
        faults: Some("err@wal_append:1.0".to_string()),
        ..ServerConfig::default()
    };
    let handle = serve(&cfg).unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();
    let loaded = c.request_line(&load_req(&version(0))).unwrap();
    assert!(ok(&Json::parse(&loaded).unwrap()));
    let resp = Json::parse(&c.request_line(&update_req(&version(1))).unwrap()).unwrap();
    assert!(ok(&resp), "the update still applies: {resp}");
    assert_eq!(resp.get("durable").and_then(Json::as_bool), Some(false), "{resp}");
    assert_eq!(
        resp.get("degraded").and_then(Json::as_str),
        Some("wal_append_failed"),
        "{resp}"
    );
    // The edit is live in memory even though it never reached the disk.
    let pt = Json::parse(
        &c.request_line(r#"{"op":"points_to","program":"live","var":"p"}"#).unwrap(),
    )
    .unwrap();
    assert!(ok(&pt), "{pt}");
    let m = handle.metrics();
    let (appends, append_errors) = (m.get(Counter::WalAppends), m.get(Counter::WalAppendErrors));
    assert_eq!(appends, 0);
    assert_eq!(append_errors, 1);
    let degraded = m.get(Counter::Degraded);
    assert!(degraded >= 1);
    let _ = c.shutdown_server();
    handle.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// An injected snapshot-save failure is a typed internal error on the
/// `snapshot` op; the server keeps serving and still shuts down cleanly.
#[test]
fn snapshot_save_fault_is_typed_and_server_keeps_serving() {
    let dir = tmp_dir("snap-fault");
    let cfg = ServerConfig {
        snapshot_dir: Some(dir.clone()),
        faults: Some("err@snapshot_save:1.0".to_string()),
        ..ServerConfig::default()
    };
    let handle = serve(&cfg).unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();
    let loaded = c.request_line(&load_req(&version(0))).unwrap();
    assert!(ok(&Json::parse(&loaded).unwrap()));
    let resp = c.request(&Json::obj([("op", Json::str("snapshot"))])).unwrap();
    assert_eq!(error_kind(&resp), Some("internal"), "{resp}");
    // Still serving.
    assert!(ok(&c.stats().unwrap()));
    let _ = c.shutdown_server();
    handle.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Client backoff reconciliation: every `overloaded` reply the retrying
/// client absorbed (or finally surfaced) is counted on both sides, and
/// the two tallies must agree exactly.
#[test]
fn client_retry_backoff_reconciles_with_server_sheds() {
    let cfg = ServerConfig {
        threads: 1,
        backlog: 0,
        ..ServerConfig::default()
    };
    let handle = serve(&cfg).unwrap();
    let addr = handle.addr();

    // Engage the only worker.
    let mut busy = Client::connect(addr).unwrap();
    assert!(ok(&busy.stats().unwrap()));

    let opts = RetryOpts {
        max_retries: 3,
        backoff_seed: 7,
        cap_ms: 100,
    };
    let mut c = Client::connect(addr).unwrap();
    let stats_req = Json::obj([("op", Json::str("stats"))]);
    // Exhausted retries surface the typed shed, not a synthetic error.
    let resp = c.request_with_retry(&stats_req, &opts).unwrap();
    assert_eq!(error_kind(&resp), Some("overloaded"), "{resp}");
    assert_eq!(c.retries(), 3, "bounded budget spent");
    assert_eq!(c.sheds_observed(), 4, "initial attempt + 3 retries");

    // Release the worker; the retry loop must eventually land.
    drop(busy);
    loop {
        let resp = c.request_with_retry(&stats_req, &opts).unwrap();
        if ok(&resp) {
            break;
        }
        assert_eq!(error_kind(&resp), Some("overloaded"), "{resp}");
    }
    assert!(c.retries() > 3, "the recovery path retried at least once");
    // Exact reconciliation: the server shed precisely the replies this
    // client observed (no other client was ever shed).
    assert_eq!(handle.metrics().shed(), c.sheds_observed());

    let _ = c.shutdown_server();
    handle.wait();
}

/// Deterministic byte mangler (splitmix64) for the hostile-input sweeps.
struct Mangler(u64);

impl Mangler {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| (self.next() & 0xff) as u8).collect()
    }
}

/// Sends one 200,000-deep NDJSON line (`[[[[...`) and returns the reply.
fn ndjson_bomb(addr: SocketAddr) -> Json {
    let mut c = Client::connect(addr).unwrap();
    Json::parse(&c.request_line(&"[".repeat(200_000)).unwrap()).unwrap()
}

/// The first line an old binary-codec client sent: its four-byte
/// preamble, which is not UTF-8, then a newline.
const OLD_CODEC_PREAMBLE_LINE: &[u8] = &[0xB1, 0x53, 0x43, 0x50, 0x0A];

/// Writes `bytes` on a fresh connection and returns the one reply line,
/// or `None` if the peer closed without replying.
fn raw_reply(addr: SocketAddr, bytes: &[u8]) -> Option<Json> {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(bytes).unwrap();
    let mut reply = String::new();
    match BufReader::new(&s).read_line(&mut reply) {
        Ok(0) | Err(_) => None,
        Ok(_) => Some(Json::parse(reply.trim_end()).expect("a JSON reply line")),
    }
}

/// An unreadable line must get a typed `bad_request` reply naming the
/// failed read, not a silent close.
fn assert_unreadable_rejected(addr: SocketAddr, bytes: &[u8]) {
    let resp = raw_reply(addr, bytes).unwrap_or_else(|| panic!("no reply to {bytes:?}"));
    assert_eq!(error_kind(&resp), Some("bad_request"), "{resp}");
    let msg = resp.get("error").and_then(|e| e.get("message")).and_then(Json::as_str);
    assert!(msg.unwrap_or_default().starts_with("unreadable request line"), "{resp}");
}

/// A nesting bomb must come back as a typed `bad_request` naming the
/// bound and the byte offset — not as a stack overflow that aborts the
/// process.
fn assert_nesting_rejected(resp: &Json) {
    assert_eq!(error_kind(resp), Some("bad_request"), "{resp}");
    let msg = resp.get("error").and_then(|e| e.get("message")).and_then(Json::as_str);
    let msg = msg.unwrap_or_default();
    assert!(msg.contains("nesting deeper than 128") && msg.contains("at byte"), "{resp}");
}

/// Hostile NDJSON sweep: seeded garbage lines — random bytes, truncated
/// JSON, wrong shapes — must each produce a typed error reply (or a
/// clean close for unreadable bytes), never kill a worker, and leave the
/// metrics reconciling.
#[test]
fn hostile_ndjson_lines_get_typed_errors_and_never_kill_a_worker() {
    let handle = serve(&ServerConfig::default()).unwrap();
    let addr = handle.addr();
    let mut rng = Mangler(0xdead_beef);
    let mut replies = 0usize;
    for case in 0..48 {
        let mut line = match case % 4 {
            // Raw random bytes (often invalid UTF-8).
            0 => {
                let n = 1 + (rng.next() % 120) as usize;
                rng.bytes(n)
            }
            // Printable garbage.
            1 => {
                let n = 1 + (rng.next() % 120) as usize;
                rng.bytes(n).into_iter().map(|b| b % 94 + 32).collect()
            }
            // A JSON prefix cut mid-token.
            2 => {
                let full = format!(r#"{{"op":"points_to","program":"bst","var":"g_tree{case}"}}"#);
                full.as_bytes()[..1 + (rng.next() as usize % (full.len() - 1))].to_vec()
            }
            // Well-formed JSON, hostile shape.
            _ => format!(r#"{{"op":{case},"deep":[[[[[[{case}]]]]]]}}"#).into_bytes(),
        };
        line.retain(|&b| b != b'\n' && b != b'\r');
        line.push(b'\n');
        // A clean close is acceptable for unreadable bytes.
        if let Some(resp) = raw_reply(addr, &line) {
            assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false), "{resp}");
            let kind = error_kind(&resp).expect("typed kind");
            assert!(ERROR_KINDS.contains(&kind), "unknown kind {kind}");
            replies += 1;
        }
    }
    assert!(replies > 0, "most garbage lines get typed replies");
    assert_unreadable_rejected(addr, OLD_CODEC_PREAMBLE_LINE);
    assert_nesting_rejected(&ndjson_bomb(addr));
    // The server survived the sweep and no worker died.
    let mut c = Client::connect(addr).unwrap();
    assert!(ok(&c.stats().unwrap()));
    let m = handle.metrics();
    assert_eq!(m.panics(), 0, "garbage input must never panic a worker");
    let errors: u64 = ERROR_KINDS.iter().map(|k| m.errors_of_kind(k)).sum();
    assert_eq!(m.requests(), m.ok() + errors, "metrics reconcile after the sweep");
    let _ = c.shutdown_server();
    handle.wait();
}

/// A C-source nesting bomb: one `load` nesting 2,000 parentheses (about
/// 4 KB) must get a typed `bad_request` naming the position, not overflow
/// the worker's stack and abort the process.
#[test]
fn c_source_nesting_bomb_is_a_bad_request_and_the_server_keeps_serving() {
    let handle = serve(&ServerConfig::default()).unwrap();
    let deep = format!(
        "int x, *p; void f(void) {{ p = {}&x{}; }}",
        "(".repeat(2000),
        ")".repeat(2000)
    );
    let mut c = Client::connect(handle.addr()).unwrap();
    let resp = Json::parse(&c.request_line(&load_req(&deep)).unwrap()).unwrap();
    assert_eq!(error_kind(&resp), Some("bad_request"), "{resp}");
    let msg = resp
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Json::as_str);
    assert!(
        msg.unwrap_or_default()
            .contains("nesting deeper than 128 levels at line 1, column "),
        "{resp}"
    );
    drop(c);
    let mut c = Client::connect(handle.addr()).unwrap();
    assert!(ok(&c.stats().unwrap()));
    assert_eq!(handle.metrics().panics(), 0);
    let _ = c.shutdown_server();
    handle.wait();
}

/// Type-depth bombs: a 10,000-level typedef chain and a 10,000-level
/// by-value struct chain each get a typed `bad_request` from `load` and
/// from `update`, naming the position, and the session the update tried
/// to replace keeps answering.
#[test]
fn deep_type_chains_are_bad_requests_and_the_server_keeps_serving() {
    let handle = serve(&ServerConfig::default()).unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();
    let loaded = c.request_line(&load_req(&version(0))).unwrap();
    assert!(ok(&Json::parse(&loaded).unwrap()));
    let query = r#"{"op":"points_to","program":"live","var":"p"}"#;
    let points_to = |c: &mut Client| {
        let resp = Json::parse(&c.request_line(query).unwrap()).unwrap();
        resp.get("points_to").map(Json::to_string)
    };
    let before = points_to(&mut c);
    assert!(before.is_some());
    for src in [typedef_chain(10_000), struct_chain(10_000)] {
        for req in [load_req(&src), update_req(&src)] {
            let resp = Json::parse(&c.request_line(&req).unwrap()).unwrap();
            assert_eq!(error_kind(&resp), Some("bad_request"), "{resp}");
            let msg = resp
                .get("error")
                .and_then(|e| e.get("message"))
                .and_then(Json::as_str)
                .unwrap_or_default();
            assert!(
                msg.contains("type nested deeper than 128 levels at line ")
                    && msg.contains(", column "),
                "{resp}"
            );
        }
        // A failed update marks the session stale; its answers stand.
        assert_eq!(points_to(&mut c), before, "the session keeps answering");
    }
    assert_eq!(handle.metrics().panics(), 0);
    let _ = c.shutdown_server();
    drop(c);
    handle.wait();
}

/// `typedef int T0;` then `typedef T{i-1} *T{i};` on line `i + 1`.
fn typedef_chain(n: usize) -> String {
    let mut s = String::from("typedef int T0;\n");
    for i in 1..=n {
        s += &format!("typedef T{} *T{i};\n", i - 1);
    }
    s + &format!("T{n} p;\n")
}

/// `struct S0 { int *x; };` then `struct S{i} { struct S{i-1} f; };` on
/// line `i + 1`.
fn struct_chain(n: usize) -> String {
    let mut s = String::from("struct S0 { int *x; };\n");
    for i in 1..=n {
        s += &format!("struct S{i} {{ struct S{} f; }};\n", i - 1);
    }
    s + &format!("struct S{n} v;\n")
}
