//! The snapshot battery: deterministic serialization, warm restores that
//! pay one compile per program and zero solves (in-process and across a
//! real process kill/restart), and the corruption sweep — every truncation
//! point, every flipped byte and every summary that does not fit its
//! program yields a typed [`SnapshotError`], never a panic and never a
//! silently-wrong warm cache.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;
use structcast::constraints::compiles_on_thread;
use structcast::models::ModelOptions;
use structcast::{
    solves_on_thread, AnalysisResult, ConstraintSet, DemandQuery, FactStore, FuncId, Loc,
    ModelKind, ModelStats, ObjId, StmtId,
};
use structcast_server::json::Json;
use structcast_server::metrics::{Counter, Metrics};
use structcast_server::{
    serve, snapshot, Client, QueryOpts, ServerConfig, SessionCache, SnapshotError, Solved,
    SNAPSHOT_FILE,
};

/// A scratch directory under the system temp dir, wiped on entry so the
/// test always starts from a known state.
fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scast-snapshot-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Warms a fresh cache with every layer populated: two compiled programs,
/// solved summaries under two configurations each, and one demand answer.
fn warm_cache() -> SessionCache {
    let cache = SessionCache::new(Arc::new(Metrics::new()));
    for name in ["bst", "list-utils"] {
        let p = structcast_progen::corpus_program(name).unwrap();
        let entry = cache.load(Some(name), p.source).unwrap().0;
        cache.solved(&entry, &QueryOpts::default()).unwrap();
        cache
            .solved(&entry, &QueryOpts::default().with_model(ModelKind::Offsets))
            .unwrap();
    }
    let bst = cache.entry("bst").unwrap();
    let obj = bst
        .prog
        .objects
        .iter()
        .position(|o| o.name == "g_tree" && o.kind.is_named_variable())
        .unwrap();
    cache
        .demand(
            &bst,
            &QueryOpts::default(),
            &DemandQuery::PointsTo {
                obj: ObjId(obj as u32),
            },
            "points_to/g_tree",
        )
        .unwrap();
    cache
}

#[test]
fn encode_is_deterministic_and_restore_reserializes_byte_identically() {
    let cache = warm_cache();
    let bytes = snapshot::encode(&cache);
    assert!(!bytes.is_empty());
    // Same state, same bytes — twice over.
    assert_eq!(bytes, snapshot::encode(&cache));

    // Restoring in snapshot order reproduces the exact same file.
    let forward = SessionCache::new(Arc::new(Metrics::new()));
    let n = snapshot::restore(&forward, snapshot::decode(&bytes).unwrap());
    assert_eq!(n, 2 + 4 + 1, "2 programs, 4 summaries, 1 demand answer");
    assert_eq!(snapshot::encode(&forward), bytes);

    // Restoring the same entries in *reversed* order still reproduces it:
    // the byte representation depends on the logical state, not on
    // insertion order or map iteration order.
    let reversed = SessionCache::new(Arc::new(Metrics::new()));
    let data = snapshot::decode(&bytes).unwrap();
    for (k, a) in data.demand.into_iter().rev() {
        reversed.restore_demand(k, Arc::new(a));
    }
    for (k, s) in data.solved.into_iter().rev() {
        reversed.restore_solved(k, Arc::new(s));
    }
    for e in data.programs.into_iter().rev() {
        reversed.restore_program(Arc::new(e));
    }
    assert_eq!(snapshot::encode(&reversed), bytes);
}

/// A decoded snapshot is outside input, and its demand keys are not
/// checked: an answer stored under a program's key must neither displace
/// the program nor unbalance the byte total (all layers share one map).
#[test]
fn restored_answer_under_a_program_key_keeps_the_program() {
    let cache = warm_cache();
    let bst = cache.entry("bst").unwrap();
    let data = snapshot::decode(&snapshot::encode(&cache)).unwrap();
    let (_, answer) = data.demand.into_iter().next().unwrap();
    cache.restore_demand((bst.key, String::new()), Arc::new(answer));
    assert!(cache.entry("bst").is_some_and(|e| Arc::ptr_eq(&e, &bst)));
    let l = cache.layers();
    assert_eq!((l.programs.0, l.demand.0), (2, 1));
    assert_eq!(l.programs.1 + l.solved.1 + l.demand.1, cache.bytes());
}

#[test]
fn restore_pays_zero_compiles_and_zero_solves() {
    let bytes = snapshot::encode(&warm_cache());
    let metrics = Arc::new(Metrics::new());
    let cache = SessionCache::new(Arc::clone(&metrics));

    // Decoding lowers and compiles each program's source once, but never
    // re-runs the solver, and restored warmth is not a miss.
    let (compiles0, solves0) = (compiles_on_thread(), solves_on_thread());
    let restored = snapshot::restore(&cache, snapshot::decode(&bytes).unwrap());
    assert_eq!(restored, 7);
    assert_eq!(compiles_on_thread() - compiles0, 2, "one compile per restored program");
    let compiles0 = compiles_on_thread();
    assert_eq!(solves_on_thread(), solves0, "restore must not solve");
    assert_eq!(metrics.total_misses(), 0, "restored warmth is not a miss");

    // Every restored key now answers as a pure cache hit.
    let bst_src = structcast_progen::corpus_program("bst").unwrap().source;
    let entry = cache.load(Some("bst"), bst_src).unwrap().0;
    cache.solved(&entry, &QueryOpts::default()).unwrap();
    cache
        .solved(&entry, &QueryOpts::default().with_model(ModelKind::Offsets))
        .unwrap();
    assert_eq!(compiles_on_thread(), compiles0, "warm load recompiles nothing");
    assert_eq!(solves_on_thread(), solves0, "warm queries re-solve nothing");
    assert_eq!(metrics.total_misses(), 0);

    // The restored summary carries real data, not just a shell.
    let (solved, _) = cache.solved(&entry, &QueryOpts::default()).unwrap();
    let g_tree = solved.var_answer(&entry.prog, "g_tree").expect("g_tree is a variable");
    assert!(!g_tree.shown.is_empty());
    assert!(entry.compile > Duration::ZERO, "the restore's own lower+compile time");
}

/// A program saved after an `update` holds constraints from the
/// incremental compiler; restored, every program's constraints are a cold
/// compile of its source, and they equal the ones the live cache held.
/// The session name resolves to the edited program after the restore, as
/// it did before, and the pre-edit program by its hash.
#[test]
fn restored_programs_equal_a_cold_compile_after_an_update() {
    let cache = warm_cache();
    let bst = structcast_progen::corpus_program("bst").unwrap().source;
    // A second name holds the pre-edit source, so the update keeps that
    // version resident; the snapshot names it by its hash, since `bst`
    // now names the edit.
    cache.load(Some("bst-before"), bst).unwrap();
    let edited = format!("{bst}\nint *snap_p, snap_x;\nvoid snap_f(void) {{ snap_p = &snap_x; }}");
    let report = cache.update("bst", &edited).unwrap();
    assert!(report.reused_constraints > 0, "the edit compiled incrementally");
    let data = snapshot::decode(&snapshot::encode(&cache)).unwrap();
    assert_eq!(data.programs.len(), 3, "bst before and after the edit, list-utils");
    assert!(data.programs.iter().any(|e| e.key == report.entry.key));
    for e in &data.programs {
        let cold_prog = structcast::lower_source(&e.source).unwrap();
        let cold = ConstraintSet::compile(&cold_prog).dump(&cold_prog);
        assert_eq!(e.constraints.dump(&e.prog), cold, "{}", e.name);
        let live = cache.entry(&e.hash_hex).unwrap();
        assert_eq!(live.constraints.dump(&live.prog), cold, "{}", e.name);
    }
    let restored = SessionCache::new(Arc::new(Metrics::new()));
    snapshot::restore(&restored, data);
    assert_eq!(restored.entry("bst").unwrap().key, report.entry.key);
    let before = structcast_server::source_hash(bst);
    assert_eq!(restored.entry(&format!("{before:016x}")).unwrap().key, before);
}

/// A cache holding `src` as `tiny` and one summary under `opts` whose
/// result is `facts` and `call_edges`, encoded: every checksum is valid,
/// whatever the summary says.
fn snapshot_with_summary(
    src: &str,
    opts: &QueryOpts,
    facts: &[(Loc, Loc)],
    call_edges: &[(StmtId, FuncId)],
) -> Vec<u8> {
    let cache = SessionCache::new(Arc::new(Metrics::new()));
    let entry = cache.load(Some("tiny"), src).unwrap().0;
    let mut store = FactStore::new();
    for &(a, b) in facts {
        store.insert(a, b);
    }
    let model_opts = ModelOptions {
        layout: opts.layout.clone(),
        compat: opts.compat,
        arith_stride: opts.stride,
    };
    let edges = store.len();
    let res = AnalysisResult::from_saved(
        opts.model,
        &model_opts,
        store,
        ModelStats::default(),
        1,
        0,
        Duration::ZERO,
        BTreeSet::new(),
        call_edges.to_vec(),
    );
    #[allow(deprecated)] // the tables stay empty, as on every server path
    let solved = Solved {
        kind: opts.model,
        edges,
        iterations: 1,
        solve: Duration::ZERO,
        vars: Default::default(),
        points_to: Default::default(),
        pt_locs: Default::default(),
        modref: Default::default(),
        avg_deref: 0.0,
        deref_sites: 0,
        opts: opts.clone(),
        res,
    };
    cache.restore_solved((entry.key, opts.cache_key()), Arc::new(solved));
    snapshot::encode(&cache)
}

/// A snapshot whose checksums are valid is still refused when a summary
/// does not fit its program: an object id out of range (the probe below
/// decoded at format version 2, and the first render of the restored
/// summary panicked indexing the program's objects), a field kind its
/// instance never produces, a call edge out of range, or a summary whose
/// program the snapshot lacks.
#[test]
fn hostile_summaries_with_valid_checksums_are_refused() {
    let src = "int x, *p; void f(void) { p = &x; }";
    let prog = structcast::lower_source(src).unwrap();
    let [p, x] = ["p", "x"].map(|v| prog.object_by_name(v).unwrap());
    let offsets = QueryOpts::default().with_model(ModelKind::Offsets);
    let collapse = QueryOpts::default().with_model(ModelKind::CollapseAlways);
    let refused = |bytes: &[u8], what: &str| {
        let res = catch_unwind(AssertUnwindSafe(|| snapshot::decode(bytes)))
            .unwrap_or_else(|_| panic!("decode panicked on {what}"));
        match res {
            Err(SnapshotError::Malformed { section: "solved", detail }) => detail,
            Err(e) => panic!("{what}: refused as {e}, not as a malformed summary"),
            Ok(_) => panic!("{what}: decoded"),
        }
    };

    // The same summary with fitting facts restores and answers.
    let fits = snapshot_with_summary(src, &offsets, &[(Loc::off(p, 0), Loc::off(x, 0))], &[]);
    let cache = SessionCache::new(Arc::new(Metrics::new()));
    snapshot::restore(&cache, snapshot::decode(&fits).unwrap());
    let entry = cache.entry("tiny").unwrap();
    let (solved, _) = cache.solved(&entry, &offsets).unwrap();
    let table = cache.points_to_table(&entry, &solved).0;
    let (p_answer, _) = table.answer(&entry.prog, &solved.res, "p").unwrap();
    assert_eq!(p_answer.shown, vec!["x".to_string()]);

    // The probe: `p+0 -> object 1000000` under Offsets.
    let far = [(Loc::off(p, 0), Loc::off(ObjId(1_000_000), 0))];
    let detail = refused(&snapshot_with_summary(src, &offsets, &far, &[]), "a far object");
    assert!(detail.contains("object 1000000 out of range"), "{detail}");

    // A whole-object location under Offsets, an offset under Collapse
    // Always.
    let whole = [(Loc::off(p, 0), Loc::whole(x))];
    refused(&snapshot_with_summary(src, &offsets, &whole, &[]), "a whole object");
    let off = [(Loc::whole(p), Loc::off(x, 0))];
    refused(&snapshot_with_summary(src, &collapse, &off, &[]), "an offset");

    // A call edge from a statement the program does not have.
    let edge = [(StmtId(1000), FuncId(0))];
    let detail = refused(&snapshot_with_summary(src, &collapse, &[], &edge), "a far call edge");
    assert!(detail.contains("call edge"), "{detail}");

    // The fitting summary without its program: the header and the solved
    // section alone, checksum intact.
    let solved = snapshot::sections(&fits).unwrap().into_iter().find(|s| s.tag == 2).unwrap();
    let mut orphan = snapshot::MAGIC.to_vec();
    orphan.extend(snapshot::VERSION.to_le_bytes());
    orphan.extend(1u32.to_le_bytes());
    orphan.extend(&fits[solved.header_start..solved.payload_end]);
    refused(&orphan, "a summary without its program");
}

/// The corruption property sweep. Two passes over a real warm snapshot:
/// truncate the file at **every** byte offset, then flip **every** single
/// byte — each damaged variant must decode to a typed [`SnapshotError`]
/// (never a panic, never `Ok`). Then targeted per-section checks pin down
/// the error taxonomy: payload damage is a checksum failure naming the
/// section, header damage is framing, and short files are truncations.
#[test]
fn every_truncation_and_every_bit_flip_is_a_typed_refusal() {
    let base = snapshot::encode(&warm_cache());
    let infos = snapshot::sections(&base).unwrap();
    assert_eq!(infos.len(), 3, "programs, solved, demand");
    for info in &infos {
        assert!(info.payload_end > info.payload_start, "every layer populated");
    }

    // Truncation sweep: every proper prefix is refused.
    for cut in 0..base.len() {
        let t = &base[..cut];
        let res = catch_unwind(AssertUnwindSafe(|| snapshot::decode(t)));
        let decoded = res.unwrap_or_else(|_| panic!("decode panicked on truncation at {cut}"));
        assert!(decoded.is_err(), "truncation at {cut} must be refused");
    }

    // Flip sweep: every single-byte corruption is refused.
    for i in 0..base.len() {
        let mut bad = base.clone();
        bad[i] ^= 0xA5;
        let res = catch_unwind(AssertUnwindSafe(|| snapshot::decode(&bad)));
        let decoded = res.unwrap_or_else(|_| panic!("decode panicked on flip at {i}"));
        assert!(decoded.is_err(), "flip at byte {i} must be refused");
    }

    // Targeted taxonomy: damage in a known place yields the matching
    // typed error.
    let mut bad = base.clone();
    bad[0] ^= 0xFF; // magic
    assert!(matches!(snapshot::decode(&bad), Err(SnapshotError::BadMagic)));

    let mut bad = base.clone();
    bad[8] = 0xEE; // version field (little-endian low byte)
    assert!(matches!(
        snapshot::decode(&bad),
        Err(SnapshotError::BadVersion(_))
    ));

    for info in &infos {
        // One flipped payload byte: checksum failure in that section.
        let mid = (info.payload_start + info.payload_end) / 2;
        let mut bad = base.clone();
        bad[mid] ^= 0x01;
        assert!(
            matches!(snapshot::decode(&bad), Err(SnapshotError::Checksum { .. })),
            "payload flip in section {} must fail its checksum",
            info.tag
        );
        // A flipped checksum byte: same refusal (the stored sum no longer
        // matches the intact payload).
        let mut bad = base.clone();
        bad[info.payload_start - 1] ^= 0x01;
        assert!(
            matches!(snapshot::decode(&bad), Err(SnapshotError::Checksum { .. })),
            "checksum flip for section {} must be refused",
            info.tag
        );
        // An unknown section tag is a framing error.
        let mut bad = base.clone();
        bad[info.header_start] = 0x7F;
        assert!(
            matches!(snapshot::decode(&bad), Err(SnapshotError::Malformed { .. })),
            "unknown tag must be malformed framing"
        );
        // Cutting inside the payload is a truncation.
        let cut = &base[..info.payload_end - 1];
        assert!(
            matches!(
                snapshot::decode(cut),
                Err(SnapshotError::Truncated { .. }) | Err(SnapshotError::Malformed { .. })
            ),
            "mid-payload cut must truncate"
        );
    }

    // Trailing garbage after the last section is also refused.
    let mut bad = base.clone();
    bad.push(0);
    assert!(matches!(
        snapshot::decode(&bad),
        Err(SnapshotError::Malformed { .. })
    ));

    // The intact original still decodes — the sweep tested damage, not
    // the grammar.
    assert_eq!(snapshot::decode(&base).unwrap().len(), 7);
}

/// A corrupt snapshot on disk costs a cold start and a metric — the
/// server must come up serving, not crash, and must not restore wrongly.
#[test]
fn corrupt_snapshot_on_disk_falls_back_to_a_counted_cold_start() {
    let dir = scratch_dir("corrupt-cold-start");

    // A *real* snapshot with one byte flipped mid-file: the damage is
    // invisible without the checksum.
    std::fs::create_dir_all(&dir).unwrap();
    snapshot::save_to_dir(&warm_cache(), &dir).unwrap();
    let path = dir.join(SNAPSHOT_FILE);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();

    let cfg = ServerConfig {
        snapshot_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let handle = serve(&cfg).expect("corrupt snapshot must not prevent startup");
    let m = handle.metrics();
    let [restores, restore_errors] =
        [Counter::SnapshotRestores, Counter::SnapshotRestoreErrors].map(|c| m.get(c));
    assert_eq!(restores, 0, "nothing may be restored from a corrupt file");
    assert_eq!(restore_errors, 1, "the fallback is counted");

    // The server is cold but fully functional: the first query misses.
    let mut c = Client::connect(handle.addr()).unwrap();
    let resp = c
        .request_line(r#"{"op":"points_to","program":"bst","var":"g_tree"}"#)
        .unwrap();
    assert!(resp.contains("\"ok\": true"), "{resp}");
    assert!(handle.metrics().total_misses() > 0, "cold start really is cold");

    // The wire-visible stats agree with the in-process counters.
    let stats = c.stats().unwrap();
    let snap = stats.get("snapshot").expect("snapshot stats block");
    assert_eq!(snap.get("restore_errors").and_then(Json::as_u64), Some(1));
    assert_eq!(snap.get("restores").and_then(Json::as_u64), Some(0));
    c.shutdown_server().unwrap();
    handle.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A snapshot written under format version 1 (which stored rendered
/// tables in its solved section) or version 2 (which stored compiled
/// constraints in its programs section) is refused before any section is
/// read, and the server cold-starts and answers correctly.
#[test]
fn version_1_snapshot_is_refused_and_the_server_starts_cold() {
    let dir = scratch_dir("v1-cold-start");
    std::fs::create_dir_all(&dir).unwrap();
    let warm = warm_cache();
    let mut bytes = snapshot::encode(&warm);
    bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
    assert!(matches!(snapshot::decode(&bytes), Err(SnapshotError::BadVersion(2))));
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    assert!(matches!(snapshot::decode(&bytes), Err(SnapshotError::BadVersion(1))));
    std::fs::write(dir.join(SNAPSHOT_FILE), &bytes).unwrap();

    let cfg = ServerConfig {
        snapshot_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let handle = serve(&cfg).expect("an old snapshot must not prevent startup");
    let m = handle.metrics();
    assert_eq!(m.get(Counter::SnapshotRestores), 0);
    assert_eq!(m.get(Counter::SnapshotRestoreErrors), 1);

    let mut c = Client::connect(handle.addr()).unwrap();
    let resp = c
        .request(&Json::parse(r#"{"op":"points_to","program":"bst","var":"g_tree"}"#).unwrap())
        .unwrap();
    assert!(handle.metrics().total_misses() > 0, "cold start really is cold");
    let bst = warm.entry("bst").unwrap();
    let (solved, _) = warm.solved(&bst, &QueryOpts::default()).unwrap();
    let want = solved.var_answer(&bst.prog, "g_tree").unwrap().shown;
    assert!(!want.is_empty());
    assert_eq!(resp.get("points_to"), Some(&Json::Arr(want.iter().map(Json::str).collect())));
    c.shutdown_server().unwrap();
    drop(c);
    handle.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

// ----- kill/restart integration against the real scastd binary -----

/// Spawns a `scastd` process snapshotting into `dir` and scrapes its
/// bound address off stdout.
fn spawn_scastd(dir: &Path, threads: usize) -> (Child, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_scastd"))
        .args(["--addr", "127.0.0.1:0", "--threads", &threads.to_string()])
        .arg("--snapshot")
        .arg(dir)
        .stdout(Stdio::piped())
        .stdin(Stdio::null())
        .spawn()
        .expect("spawn scastd");
    let stdout = child.stdout.take().unwrap();
    let mut lines = BufReader::new(stdout);
    let addr = loop {
        let mut line = String::new();
        assert!(
            lines.read_line(&mut line).unwrap() > 0,
            "scastd exited before printing its address"
        );
        if let Some(rest) = line.trim().strip_prefix("listening on ") {
            break rest.parse().unwrap();
        }
    };
    // Keep draining stdout so the child never blocks on a full pipe.
    std::thread::spawn(move || {
        let mut sink = std::io::sink();
        let _ = std::io::copy(&mut lines, &mut sink);
    });
    (child, addr)
}

/// The tentpole acceptance test: warm a real server process, snapshot,
/// SIGKILL it, restart it from the snapshot directory, and prove the
/// replies are byte-identical and the restarted process pays **zero**
/// compile/solve misses for every previously-warm key — at 1, 2, and 8
/// worker threads.
#[test]
fn killed_server_restarts_warm_with_zero_misses_at_1_2_8_threads() {
    for threads in [1usize, 2, 8] {
        let dir = scratch_dir(&format!("kill-restart-t{threads}"));
        let (mut child, addr) = spawn_scastd(&dir, threads);
        let mut c = Client::connect_timeout(addr, Duration::from_secs(30)).unwrap();

        // Warm every layer: compile, two solved configs, one demand
        // answer — and capture the replies for the byte-identity check.
        let load = c.request_line(r#"{"op":"load","name":"bst"}"#).unwrap();
        assert!(load.contains("\"ok\": true"), "{load}");
        let queries = [
            r#"{"op":"points_to","program":"bst","var":"g_tree"}"#,
            r#"{"op":"points_to","program":"bst","var":"g_tree","model":"offsets"}"#,
            r#"{"op":"points_to","program":"bst","var":"g_tree","mode":"demand"}"#,
        ];
        let warm: Vec<String> = queries.iter().map(|q| c.request_line(q).unwrap()).collect();
        for r in &warm {
            assert!(r.contains("\"ok\": true"), "{r}");
        }

        // Persist, then kill without any graceful shutdown.
        let snap = c.request_line(r#"{"op":"snapshot"}"#).unwrap();
        assert!(snap.contains("\"ok\": true"), "{snap}");
        assert!(dir.join(SNAPSHOT_FILE).exists());
        drop(c);
        child.kill().unwrap();
        child.wait().unwrap();

        // Restart from the same directory.
        let (mut child, addr) = spawn_scastd(&dir, threads);
        let mut c = Client::connect_timeout(addr, Duration::from_secs(30)).unwrap();

        // Byte-identical replies, but for the load reply's compile_s: the
        // restore lowered and compiled the program again and timed that.
        let without_compile_s = |line: &str| match Json::parse(line).unwrap() {
            Json::Obj(pairs) => pairs.into_iter().filter(|(k, _)| k != "compile_s").collect(),
            other => panic!("a load reply is an object: {other}"),
        };
        let reload: Vec<(String, Json)> =
            without_compile_s(&c.request_line(r#"{"op":"load","name":"bst"}"#).unwrap());
        assert_eq!(reload, without_compile_s(&load), "threads={threads}");
        for (q, expect) in queries.iter().zip(&warm) {
            let got = c.request_line(q).unwrap();
            // The demand reply marks the restored answer as cached.
            let expect = expect.replace("\"cached\": false", "\"cached\": true");
            assert_eq!(got, expect, "threads={threads} query={q}");
        }

        // Zero misses: nothing above compiled or solved anything.
        let stats = c.stats().unwrap();
        let count = |k: &str| stats.get(k).and_then(Json::as_u64).unwrap();
        assert_eq!(count("program_misses"), 0, "threads={threads}: {stats}");
        assert_eq!(count("solve_misses"), 0, "threads={threads}: {stats}");
        assert!(count("program_hits") >= 1, "{stats}");
        assert!(count("solve_hits") >= 2, "{stats}");
        let snap = stats.get("snapshot").expect("snapshot stats block");
        assert_eq!(snap.get("restores").and_then(Json::as_u64), Some(1), "{stats}");
        assert!(
            snap.get("restored_entries").and_then(Json::as_u64).unwrap() >= 4,
            "program + 2 summaries + demand answer: {stats}"
        );
        assert_eq!(snap.get("restore_errors").and_then(Json::as_u64), Some(0));

        c.shutdown_server().unwrap();
        child.wait().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Graceful shutdown also saves — a server that was never asked for an
/// explicit `snapshot` op still leaves a warm state behind.
#[test]
fn graceful_shutdown_saves_a_snapshot_the_next_process_loads() {
    let dir = scratch_dir("shutdown-save");
    let cfg = ServerConfig {
        snapshot_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let handle = serve(&cfg).unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();
    let resp = c
        .request_line(r#"{"op":"points_to","program":"tagged-union","var":"g_registry"}"#)
        .unwrap();
    assert!(resp.contains("\"ok\": true"), "{resp}");
    c.shutdown_server().unwrap();
    handle.wait();
    assert!(dir.join(SNAPSHOT_FILE).exists(), "shutdown must save");

    let handle = serve(&cfg).unwrap();
    let m = handle.metrics();
    let [restores, errors] =
        [Counter::SnapshotRestores, Counter::SnapshotRestoreErrors].map(|c| m.get(c));
    assert_eq!((restores, errors), (1, 0));
    let mut c = Client::connect(handle.addr()).unwrap();
    let again = c
        .request_line(r#"{"op":"points_to","program":"tagged-union","var":"g_registry"}"#)
        .unwrap();
    assert_eq!(again, resp, "warm reply matches the pre-restart one");
    assert_eq!(handle.metrics().total_misses(), 0);
    c.shutdown_server().unwrap();
    handle.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `snapshot` against a server with no snapshot directory is a typed
/// `bad_request`, not a crash or a silent no-op.
#[test]
fn snapshot_op_without_a_directory_is_a_bad_request() {
    let handle = serve(&ServerConfig::default()).unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();
    let resp = c.request_line(r#"{"op":"snapshot"}"#).unwrap();
    let v = Json::parse(&resp).unwrap();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{resp}");
    assert_eq!(
        v.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str),
        Some("bad_request"),
        "{resp}"
    );
    c.shutdown_server().unwrap();
    handle.wait();
}
