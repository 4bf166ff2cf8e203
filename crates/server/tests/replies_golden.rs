//! Golden reply bytes: the exact NDJSON line the server sends back for
//! every query kind, over the corpus programs plus one program in which
//! several objects carry the same name, under each of the four instances.
//!
//! Per program and instance, in this order (the order decides which demand
//! answers are sliced cold and which are derived from a resident summary):
//!
//! - demand `points_to` for a few variables, demand `alias` for a few
//!   pairs and demand `modref` for the first defined functions, all before
//!   any full solve of that instance;
//! - `points_to` for every named variable;
//! - `alias` for a fixed, seeded set of variable pairs;
//! - `modref` for every defined function, and once without `func`;
//! - demand `points_to` for a few other variables, now answered from the
//!   resident summary.
//!
//! Then `compare_models` once per program. No reply checked here carries a
//! timing field; `load` replies (which carry `compile_s`) are not recorded.
//!
//! Regenerate only for an intentional reply change with
//! `UPDATE_GOLDEN=1 cargo test -p structcast-server --test replies_golden`.

use std::fmt::Write as _;
use structcast_server::json::Json;
use structcast_server::{serve, Client, ServerConfig};

const GOLDEN: &str = include_str!("golden/replies.txt");

const MODELS: [&str; 4] = ["collapse", "cast", "cis", "offsets"];

/// Objects that share a name: the functions `w` and `v` precede the
/// globals `w` and `v`, the global `malloc_1` precedes the heap object
/// `malloc_1`, and the block local `f::r` follows the parameter `f::r`.
/// `w` is a demand subject sliced cold, `v` one answered from a resident
/// summary.
const DUP_NAMES: &str = "void w(void);\n\
    int *w;\n\
    void v(void);\n\
    int *v;\n\
    struct S { int *a; int *b; };\n\
    int x, y, z;\n\
    int *p, *q;\n\
    void *malloc(unsigned long n);\n\
    void f(int *r) { p = (int *)malloc(4); q = r; { int *r; r = &y; q = r; } }\n\
    int *malloc_1;\n\
    struct S s;\n\
    void g(void) { malloc_1 = &x; s.a = &z; s.b = malloc_1; w = &z; v = &y; p = w; f(&x); }\n";

/// Demand `points_to` subjects per program and instance in each phase:
/// the even-indexed variables before the full solve, the odd-indexed ones
/// after it.
const DEMAND_VARS: usize = 3;
/// Seeded alias pairs per program and instance.
const ALIAS_PAIRS: usize = 12;

/// Distinct named-variable names in object order, and defined functions.
fn subjects(src: &str) -> (Vec<String>, Vec<String>) {
    let prog = structcast::lower_source(src).expect("golden programs lower");
    let mut vars: Vec<String> = Vec::new();
    for o in prog.objects.iter().filter(|o| o.kind.is_named_variable()) {
        if !vars.contains(&o.name) {
            vars.push(o.name.clone());
        }
    }
    let funcs = prog.functions.iter().filter(|f| f.defined).map(|f| f.name.clone()).collect();
    (vars, funcs)
}

/// A fixed LCG: the alias pairs never depend on a library's RNG.
fn pairs(n: usize, seed: u64) -> Vec<(usize, usize)> {
    if n == 0 {
        return Vec::new();
    }
    let mut s = seed;
    let mut next = move || {
        s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (s >> 33) as usize % n
    };
    (0..ALIAS_PAIRS).map(|_| (next(), next())).collect()
}

struct Session {
    client: Client,
    out: String,
}

impl Session {
    fn ask(&mut self, req: &Json) {
        let line = req.to_string();
        let reply = self.client.request_line(&line).unwrap();
        let _ = writeln!(self.out, "> {line}\n< {}", reply.trim_end());
    }

    fn query(&mut self, op: &str, program: &str, model: &str, fields: &[(&str, &str)]) {
        let mut pairs = vec![
            ("op", Json::str(op)),
            ("program", Json::str(program)),
            ("model", Json::str(model)),
        ];
        pairs.extend(fields.iter().map(|&(k, v)| (k, Json::str(v))));
        self.ask(&Json::obj(pairs));
    }

    fn demand(&mut self, op: &str, program: &str, model: &str, fields: &[(&str, &str)]) {
        let mut pairs = vec![
            ("op", Json::str(op)),
            ("program", Json::str(program)),
            ("model", Json::str(model)),
            ("mode", Json::str("demand")),
        ];
        pairs.extend(fields.iter().map(|&(k, v)| (k, Json::str(v))));
        self.ask(&Json::obj(pairs));
    }
}

fn program(s: &mut Session, name: &str, src: &str, seed: u64) {
    let load = Json::obj([
        ("op", Json::str("load")),
        ("name", Json::str(name)),
        ("source", Json::str(src)),
    ]);
    let reply = s.client.request(&load).unwrap();
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");
    let (vars, funcs) = subjects(src);
    let alias = pairs(vars.len(), seed);
    for model in MODELS {
        for v in vars.iter().step_by(2).take(DEMAND_VARS) {
            s.demand("points_to", name, model, &[("var", v)]);
        }
        for &(a, b) in alias.iter().take(2) {
            s.demand("alias", name, model, &[("a", &vars[a]), ("b", &vars[b])]);
        }
        for f in funcs.iter().take(2) {
            s.demand("modref", name, model, &[("func", f)]);
        }
        for v in &vars {
            s.query("points_to", name, model, &[("var", v)]);
        }
        for &(a, b) in &alias {
            s.query("alias", name, model, &[("a", &vars[a]), ("b", &vars[b])]);
        }
        for f in &funcs {
            s.query("modref", name, model, &[("func", f)]);
        }
        s.query("modref", name, model, &[]);
        for v in vars.iter().skip(1).step_by(2).take(DEMAND_VARS) {
            s.demand("points_to", name, model, &[("var", v)]);
        }
    }
    s.ask(&Json::obj([("op", Json::str("compare_models")), ("program", Json::str(name))]));
}

fn replies() -> String {
    let handle = serve(&ServerConfig::default()).expect("bind ephemeral port");
    let mut s = Session { client: Client::connect(handle.addr()).unwrap(), out: String::new() };
    for (i, p) in structcast_progen::corpus().iter().enumerate() {
        program(&mut s, p.name, p.source, i as u64 + 1);
    }
    program(&mut s, "dup-names", DUP_NAMES, 0);
    let Session { mut client, out } = s;
    client.shutdown_server().unwrap();
    drop(client);
    handle.wait();
    out
}

#[test]
fn replies_match_the_golden() {
    let got = replies();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/replies.txt");
        std::fs::write(path, &got).unwrap();
        return;
    }
    for (i, (g, w)) in got.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(g, w, "line {} of tests/golden/replies.txt", i + 1);
    }
    assert_eq!(got.lines().count(), GOLDEN.lines().count(), "golden line count");
}

/// One name rule in every query mode: a name shared by a variable and a
/// function (or a heap site, or a second variable) means the first named
/// variable, whether the answer comes from a cold demand slice, from the
/// exhaustive summary, or from demand served out of that summary.
#[test]
fn demand_and_exhaustive_agree_on_colliding_names() {
    let handle = serve(&ServerConfig::default()).expect("bind ephemeral port");
    let mut client = Client::connect(handle.addr()).unwrap();
    let load = Json::obj([
        ("op", Json::str("load")),
        ("name", Json::str("dup-names")),
        ("source", Json::str(DUP_NAMES)),
    ]);
    assert_eq!(client.request(&load).unwrap().get("ok"), Some(&Json::Bool(true)));
    let (vars, _) = subjects(DUP_NAMES);
    for name in ["w", "v", "malloc_1", "f::r"] {
        assert!(vars.iter().any(|v| v == name), "{name} is a subject");
    }
    let mut ask = |model: &str, var: &str, demand: bool| {
        let mut fields = vec![
            ("op", Json::str("points_to")),
            ("program", Json::str("dup-names")),
            ("model", Json::str(model)),
            ("var", Json::str(var)),
        ];
        if demand {
            fields.push(("mode", Json::str("demand")));
        }
        let reply = client.request(&Json::obj(fields)).unwrap();
        reply.get("points_to").cloned().unwrap_or_else(|| panic!("{reply}"))
    };
    for model in MODELS {
        let cold: Vec<Json> = vars.iter().map(|v| ask(model, v, true)).collect();
        let exhaustive: Vec<Json> = vars.iter().map(|v| ask(model, v, false)).collect();
        let warm: Vec<Json> = vars.iter().map(|v| ask(model, v, true)).collect();
        for (i, var) in vars.iter().enumerate() {
            assert_eq!(cold[i], exhaustive[i], "{model} {var}: cold demand vs exhaustive");
            assert_eq!(warm[i], exhaustive[i], "{model} {var}: warm demand vs exhaustive");
        }
        assert_eq!(exhaustive[0], Json::Arr(vec![Json::str("z")]), "{model}: w is the variable");
    }
    client.shutdown_server().unwrap();
    drop(client);
    handle.wait();
}
