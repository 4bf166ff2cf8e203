//! End-to-end server tests over real TCP connections: every request type,
//! concurrent clients, cache warmth, error paths, and graceful shutdown.

use structcast_server::json::Json;
use structcast_server::{serve, Client, ServerConfig};

fn start() -> (structcast_server::ServerHandle, std::net::SocketAddr) {
    let handle = serve(&ServerConfig::default()).expect("bind ephemeral port");
    let addr = handle.addr();
    (handle, addr)
}

fn ok(resp: &Json) -> bool {
    resp.get("ok").and_then(Json::as_bool) == Some(true)
}

#[test]
fn every_request_type_end_to_end() {
    let (handle, addr) = start();
    let mut c = Client::connect(addr).unwrap();

    let load = c
        .request(&Json::parse(r#"{"op":"load","name":"bst"}"#).unwrap())
        .unwrap();
    assert!(ok(&load), "{load}");
    assert!(load.get("constraints").and_then(Json::as_u64).unwrap() > 0);
    let hash = load.get("hash").and_then(Json::as_str).unwrap().to_string();

    let pt = c
        .request(
            &Json::parse(r#"{"op":"points_to","program":"bst","var":"g_tree"}"#).unwrap(),
        )
        .unwrap();
    assert!(ok(&pt), "{pt}");
    assert!(!pt.get("points_to").and_then(Json::as_arr).unwrap().is_empty());

    // The hash returned by load addresses the same cached program.
    let by_hash = c
        .request(&Json::parse(&format!(
            r#"{{"op":"points_to","program":"{hash}","var":"g_tree"}}"#
        )).unwrap())
        .unwrap();
    assert_eq!(by_hash.get("points_to"), pt.get("points_to"));

    let alias = c
        .request(&Json::parse(r#"{"op":"alias","program":"bst","a":"g_tree","b":"g_tree"}"#).unwrap())
        .unwrap();
    assert!(ok(&alias), "{alias}");
    assert_eq!(alias.get("alias").and_then(Json::as_bool), Some(true));

    let mr = c
        .request(&Json::parse(r#"{"op":"modref","program":"bst"}"#).unwrap())
        .unwrap();
    assert!(ok(&mr), "{mr}");
    assert!(!mr.get("functions").and_then(Json::as_arr).unwrap().is_empty());

    let cmp = c
        .request(&Json::parse(r#"{"op":"compare_models","program":"bst"}"#).unwrap())
        .unwrap();
    assert!(ok(&cmp), "{cmp}");
    let models = cmp.get("models").and_then(Json::as_arr).unwrap();
    assert_eq!(models.len(), 4);
    for m in models {
        assert!(m.get("edges").and_then(Json::as_u64).unwrap() > 0, "{m}");
    }

    // Inline source load under an alias.
    let inline = c
        .request(&Json::parse(
            r#"{"op":"load","name":"mine","source":"int x, *p; void f(void) { p = &x; }"}"#,
        ).unwrap())
        .unwrap();
    assert!(ok(&inline), "{inline}");
    let pt2 = c
        .request(&Json::parse(r#"{"op":"points_to","program":"mine","var":"p"}"#).unwrap())
        .unwrap();
    assert_eq!(
        pt2.get("points_to").and_then(Json::as_arr).unwrap(),
        &[Json::str("x")]
    );

    let stats = c.stats().unwrap();
    assert!(ok(&stats), "{stats}");
    assert!(stats.get("requests").and_then(Json::as_u64).unwrap() >= 8);
    assert!(stats.get("cached_programs").and_then(Json::as_u64).unwrap() >= 2);

    let bye = c.shutdown_server().unwrap();
    assert_eq!(bye.get("shutdown").and_then(Json::as_bool), Some(true));
    let summary = handle.wait();
    assert!(summary.contains("structcast-server: served"), "{summary}");
}

#[test]
fn warm_cache_serves_without_new_misses() {
    let (handle, addr) = start();
    let mut c = Client::connect(addr).unwrap();
    let queries = [
        r#"{"op":"load","name":"tagged-union"}"#,
        r#"{"op":"points_to","program":"tagged-union","var":"g_registry"}"#,
        r#"{"op":"points_to","program":"tagged-union","var":"g_registry","model":"offsets"}"#,
        r#"{"op":"alias","program":"tagged-union","a":"g_registry","b":"g_registry"}"#,
        r#"{"op":"modref","program":"tagged-union"}"#,
        r#"{"op":"compare_models","program":"tagged-union"}"#,
    ];
    let pass = |c: &mut Client| -> Vec<String> {
        queries.iter().map(|q| c.request_line(q).unwrap()).collect()
    };
    let first = pass(&mut c);
    let miss_after_first = handle.metrics().total_misses();
    assert!(miss_after_first > 0, "cold pass must miss");
    // Second pass: byte-identical responses, zero new misses.
    let second = pass(&mut c);
    assert_eq!(first, second);
    assert_eq!(handle.metrics().total_misses(), miss_after_first);
    c.shutdown_server().unwrap();
    handle.wait();
}

#[test]
fn four_concurrent_clients_get_deterministic_answers() {
    let (handle, addr) = start();
    // Mixed query stream, intentionally overlapping across clients so the
    // same keys are raced from four threads.
    let queries: Vec<String> = vec![
        r#"{"op":"load","name":"bst"}"#.into(),
        r#"{"op":"points_to","program":"bst","var":"g_tree"}"#.into(),
        r#"{"op":"points_to","program":"bst","var":"g_tree","model":"offsets"}"#.into(),
        r#"{"op":"points_to","program":"bst","var":"g_tree","model":"collapse"}"#.into(),
        r#"{"op":"alias","program":"bst","a":"g_tree","b":"g_tree"}"#.into(),
        r#"{"op":"modref","program":"bst"}"#.into(),
        r#"{"op":"compare_models","program":"bst"}"#.into(),
        r#"{"op":"points_to","program":"list-utils","var":"g_head"}"#.into(),
    ];
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let queries = queries.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                // Stagger the order per client so the cache is hit both
                // cold and warm from different threads.
                let mut order: Vec<usize> = (0..queries.len()).collect();
                order.rotate_left(i % queries.len());
                let mut out = vec![String::new(); queries.len()];
                for idx in order {
                    out[idx] = c.request_line(&queries[idx]).unwrap();
                }
                out
            })
        })
        .collect();
    let all: Vec<Vec<String>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for other in &all[1..] {
        assert_eq!(&all[0], other, "responses must not depend on scheduling");
    }
    // Sanity: the points_to answers really carry data.
    assert!(all[0][1].contains("points_to"), "{}", all[0][1]);

    let mut c = Client::connect(addr).unwrap();
    c.shutdown_server().unwrap();
    handle.wait();
}

#[test]
fn demand_mode_round_trips_byte_equal_to_exhaustive() {
    let (handle, addr) = start();
    let mut c = Client::connect(addr).unwrap();
    c.request_line(r#"{"op":"load","name":"bst"}"#).unwrap();

    // Cold demand pass, one of each query op — before any full solve has
    // populated the cache, so the answers come from real slices.
    let d_pt = c
        .request(&Json::parse(
            r#"{"op":"points_to","program":"bst","var":"g_tree","mode":"demand"}"#,
        ).unwrap())
        .unwrap();
    assert!(ok(&d_pt), "{d_pt}");
    assert_eq!(d_pt.get("mode").and_then(Json::as_str), Some("demand"));
    let meta = d_pt.get("demand").expect("demand metrics block");
    let slice = meta.get("slice_statements").and_then(Json::as_u64).unwrap();
    let total = meta.get("total_statements").and_then(Json::as_u64).unwrap();
    assert!(slice > 0 && slice <= total, "{meta}");
    assert_eq!(meta.get("cached").and_then(Json::as_bool), Some(false));

    let d_alias = c
        .request(&Json::parse(
            r#"{"op":"alias","program":"bst","a":"g_tree","b":"g_tree","mode":"demand"}"#,
        ).unwrap())
        .unwrap();
    assert!(ok(&d_alias), "{d_alias}");
    let d_mr = c
        .request(&Json::parse(
            r#"{"op":"modref","program":"bst","func":"main","mode":"demand"}"#,
        ).unwrap())
        .unwrap();
    assert!(ok(&d_mr), "{d_mr}");

    // The exhaustive answers for the same queries: the payload fields must
    // be byte-equal (demand responses add only `mode` and `demand`).
    let e_pt = c
        .request(&Json::parse(r#"{"op":"points_to","program":"bst","var":"g_tree"}"#).unwrap())
        .unwrap();
    assert_eq!(d_pt.get("points_to"), e_pt.get("points_to"));
    let e_alias = c
        .request(&Json::parse(
            r#"{"op":"alias","program":"bst","a":"g_tree","b":"g_tree"}"#,
        ).unwrap())
        .unwrap();
    assert_eq!(d_alias.get("alias"), e_alias.get("alias"));
    let e_mr = c
        .request(&Json::parse(r#"{"op":"modref","program":"bst","func":"main"}"#).unwrap())
        .unwrap();
    assert_eq!(d_mr.get("functions"), e_mr.get("functions"));

    // Repeating the demand query is a cache hit now.
    let again = c
        .request(&Json::parse(
            r#"{"op":"points_to","program":"bst","var":"g_tree","mode":"demand"}"#,
        ).unwrap())
        .unwrap();
    assert_eq!(
        again.get("demand").and_then(|m| m.get("cached")).and_then(Json::as_bool),
        Some(true)
    );
    assert_eq!(again.get("points_to"), d_pt.get("points_to"));

    // A demand query under a *different* model slices afresh and still
    // matches that model's exhaustive answer.
    let d_off = c
        .request_line(
            r#"{"op":"points_to","program":"bst","var":"g_tree","model":"offsets","mode":"demand"}"#,
        )
        .unwrap();
    let e_off = c
        .request(&Json::parse(
            r#"{"op":"points_to","program":"bst","var":"g_tree","model":"offsets"}"#,
        ).unwrap())
        .unwrap();
    assert_eq!(
        Json::parse(&d_off).unwrap().get("points_to"),
        e_off.get("points_to")
    );

    // Stats surface the demand cache and counters.
    let stats = c.stats().unwrap();
    assert!(stats.get("cached_demand").and_then(Json::as_u64).unwrap() >= 2, "{stats}");
    let demand = stats.get("demand").expect("demand counter block");
    assert!(demand.get("hits").and_then(Json::as_u64).unwrap() >= 1, "{stats}");
    assert!(demand.get("misses").and_then(Json::as_u64).unwrap() >= 2, "{stats}");

    c.shutdown_server().unwrap();
    handle.wait();
}

#[test]
fn demand_mode_error_paths() {
    let (handle, addr) = start();
    let mut c = Client::connect(addr).unwrap();
    for (req, needle) in [
        // Name validation mirrors exhaustive mode exactly.
        (r#"{"op":"points_to","program":"bst","var":"ghost","mode":"demand"}"#, "unknown variable `ghost` in `bst`"),
        (r#"{"op":"alias","program":"bst","a":"ghost","b":"g_tree","mode":"demand"}"#, "unknown variable `ghost` or `g_tree` in `bst`"),
        (r#"{"op":"modref","program":"bst","func":"ghost","mode":"demand"}"#, "unknown function `ghost` in `bst`"),
        // Demand modref is per-function by construction.
        (r#"{"op":"modref","program":"bst","mode":"demand"}"#, "demand mode requires \\\"func\\\""),
        // Unknown modes are rejected at parse time.
        (r#"{"op":"points_to","program":"bst","var":"g_tree","mode":"lazy"}"#, "unknown mode `lazy`"),
        (r#"{"op":"points_to","program":"nope","var":"v","mode":"demand"}"#, "unknown program"),
    ] {
        let resp = c.request_line(req).unwrap();
        let v = Json::parse(&resp).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{req}");
        assert!(resp.contains(needle), "{req} -> {resp}");
        assert!(
            v.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str)
                == Some("bad_request"),
            "{resp}"
        );
    }
    // A tripped budget on the sliced solve comes back typed, and the
    // connection survives to serve a working demand query.
    let capped = c
        .request_line(
            r#"{"op":"points_to","program":"bst","var":"g_tree","mode":"demand","max_edges":0}"#,
        )
        .unwrap();
    assert!(capped.contains("\"kind\": \"edge_limit\""), "{capped}");
    let fine = c
        .request_line(r#"{"op":"points_to","program":"bst","var":"g_tree","mode":"demand"}"#)
        .unwrap();
    assert!(fine.contains("\"ok\": true"), "{fine}");
    // Reconciliation holds with demand ops in the mix.
    let m = handle.metrics();
    let errors: u64 = structcast_server::metrics::ERROR_KINDS
        .iter()
        .map(|k| m.errors_of_kind(k))
        .sum();
    assert_eq!(m.requests(), m.ok() + errors);
    c.shutdown_server().unwrap();
    handle.wait();
}

#[test]
fn update_op_round_trips_and_migrates_the_session() {
    let (handle, addr) = start();
    let mut c = Client::connect(addr).unwrap();
    // A two-function session: p's pointer cone lives in f, q's in g.
    let load = c
        .request_line(
            r#"{"op":"load","name":"live","source":"int x, y, *p, *q;\nvoid f(void) { p = &x; }\nvoid g(void) { q = &y; }"}"#,
        )
        .unwrap();
    assert!(load.contains("\"ok\": true"), "{load}");

    // Warm the session: one full summary + two demand answers.
    let full = c
        .request(&Json::parse(r#"{"op":"points_to","program":"live","var":"q"}"#).unwrap())
        .unwrap();
    assert_eq!(
        full.get("points_to").and_then(Json::as_arr).unwrap(),
        &[Json::str("y")]
    );
    for var in ["p", "q"] {
        let d = c
            .request(&Json::parse(&format!(
                r#"{{"op":"points_to","program":"live","var":"{var}","mode":"demand"}}"#
            )).unwrap())
            .unwrap();
        assert!(ok(&d), "{d}");
    }

    // Edit only g (q retargets to &x) and push the delta.
    let up = c
        .request_line(
            r#"{"op":"update","program":"live","source":"int x, y, *p, *q;\nvoid f(void) { p = &x; }\nvoid g(void) { q = &x; }"}"#,
        )
        .unwrap();
    let up = Json::parse(&up).unwrap();
    assert!(ok(&up), "{up}");
    let count = |k: &str| up.get(k).and_then(Json::as_u64).unwrap_or_else(|| panic!("{k}: {up}"));
    assert!(count("reused_fns") > 0, "{up}");
    assert_eq!(count("dirty_fns"), 1, "{up}");
    assert_eq!(count("resolved_summaries"), 1, "{up}");
    assert!(up.get("kept_demand").is_none() && up.get("dropped_demand").is_none(), "{up}");
    assert!(count("reused_constraints") > 0, "{up}");
    assert!(count("region_statements") < count("total_statements"), "{up}");
    assert!(up.get("resolve_s").is_some(), "{up}");
    assert_eq!(up.get("fallback"), Some(&Json::Null), "{up}");

    // The session name serves post-edit answers, warm from the migrated
    // summary, in both modes: each demand subject gets the cold answer
    // of the edited program as a cache hit, and nothing is solved.
    let misses = |c: &mut Client| {
        let stats = c.stats().unwrap();
        let demand = stats.get("demand").and_then(|d| d.get("misses")).and_then(Json::as_u64);
        (stats.get("solve_misses").and_then(Json::as_u64), demand)
    };
    let misses0 = misses(&mut c);
    let post = c
        .request(&Json::parse(r#"{"op":"points_to","program":"live","var":"q"}"#).unwrap())
        .unwrap();
    assert_eq!(
        post.get("points_to").and_then(Json::as_arr).unwrap(),
        &[Json::str("x")],
        "{post}"
    );
    for var in ["p", "q"] {
        let d = c
            .request(&Json::parse(&format!(
                r#"{{"op":"points_to","program":"live","var":"{var}","mode":"demand"}}"#
            )).unwrap())
            .unwrap();
        assert_eq!(
            d.get("demand").and_then(|m| m.get("cached")).and_then(Json::as_bool),
            Some(true),
            "{d}"
        );
        assert_eq!(d.get("points_to").and_then(Json::as_arr).unwrap(), &[Json::str("x")], "{d}");
    }
    assert_eq!(misses(&mut c), misses0, "no solve and no slice after the edit");

    // Updating an unloaded session is a typed error; stats count the op.
    let bad = c
        .request_line(r#"{"op":"update","program":"ghost","source":"int x;"}"#)
        .unwrap();
    assert!(bad.contains("unknown program"), "{bad}");
    let stats = c.stats().unwrap();
    let updates = stats.get("updates").expect("updates counter block");
    assert_eq!(updates.get("count").and_then(Json::as_u64), Some(1), "{stats}");
    assert_eq!(updates.get("fallbacks").and_then(Json::as_u64), Some(0), "{stats}");
    assert!(
        updates.get("resolve_s").and_then(Json::as_f64).unwrap() > 0.0,
        "{stats}"
    );
    c.shutdown_server().unwrap();
    handle.wait();
}

#[test]
fn protocol_error_paths() {
    let (handle, addr) = start();
    let mut c = Client::connect(addr).unwrap();
    for (req, needle) in [
        ("this is not json", "invalid json"),
        (r#"{"op":"levitate"}"#, "unknown op"),
        (r#"{"op":"points_to","program":"bst"}"#, "missing \\\"var\\\""),
        (r#"{"op":"points_to","program":"nope","var":"v"}"#, "unknown program"),
        (r#"{"op":"points_to","program":"bst","var":"ghost"}"#, "unknown variable"),
        (r#"{"op":"alias","program":"bst","a":"ghost","b":"g_tree"}"#, "unknown variable"),
        (r#"{"op":"modref","program":"bst","func":"ghost"}"#, "unknown function"),
        (r#"{"op":"load","name":"no-such-corpus"}"#, "unknown corpus"),
        (r#"{"op":"load","source":"int x = ;;;"}"#, "parse error"),
    ] {
        let resp = c.request_line(req).unwrap();
        let v = Json::parse(&resp).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{req}");
        assert!(resp.contains(needle), "{req} -> {resp}");
    }
    // The connection survives every error, and valid requests still work.
    let pt = c
        .request_line(r#"{"op":"points_to","program":"bst","var":"g_tree"}"#)
        .unwrap();
    assert!(pt.contains("\"ok\": true"), "{pt}");
    c.shutdown_server().unwrap();
    handle.wait();
}

/// A warm `load` compiles nothing, so it charges nothing to `compile_s`
/// and all of its time to `lookup_s`; only the cold load compiles.
#[test]
fn warm_loads_charge_lookup_not_compile() {
    use structcast_server::metrics::Counter;
    let (handle, addr) = start();
    let mut c = Client::connect(addr).unwrap();
    let load = Json::parse(r#"{"op":"load","name":"bst"}"#).unwrap();
    assert!(ok(&c.request(&load).unwrap()));
    let m = handle.metrics();
    let (compile0, lookup0) = (m.get(Counter::Compile), m.get(Counter::Lookup));
    assert!(compile0 > 0);
    for _ in 0..20 {
        let resp = c.request(&load).unwrap();
        assert!(ok(&resp), "{resp}");
    }
    assert_eq!(
        m.get(Counter::Compile),
        compile0,
        "warm loads compile nothing"
    );
    assert!(
        m.get(Counter::Lookup) > lookup0,
        "warm loads are lookup time"
    );
    let _ = c.shutdown_server();
    drop(c);
    handle.wait();
}
