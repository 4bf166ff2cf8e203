//! Golden-file test for the front end: for a fixed set of inputs, the
//! token count, the pretty-printed AST, the lowered object table and the
//! compiled constraint dump are pinned, and so is every error message of a
//! set of malformed sources.
//!
//! The inputs are the 20-program corpus, the 20 medium programs of
//! scbench's `batch_cold` universe, and the `live_edit` base program with
//! the first 20 steps of its seed-1 edit trace. A change to the lexer,
//! parser, AST or lowering that is meant to be behaviour-preserving must
//! leave this file untouched: object names, types, kinds, ids and order,
//! and the constraints compiled from them, stay byte-identical.
//!
//! Regenerate after an *intentional* change with
//! `UPDATE_GOLDEN=1 cargo test -p structcast --test frontend_golden`.

use std::fmt::Write as _;
use structcast::{lower_source, parse, ConstraintSet};
use structcast_ast::{print_translation_unit, Lexer};
use structcast_progen::{corpus, edit_trace, generate, GenConfig};

const GOLDEN: &str = include_str!("golden/frontend.txt");

const HEADER: &str = "# input tokens stmts objects print_hash objects_hash dump_hash";

/// 64-bit FNV-1a: stable across toolchains, unlike std's hashers.
fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn inputs() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = corpus()
        .iter()
        .map(|p| (p.name.to_string(), p.source.to_string()))
        .collect();
    for u in 0..20u64 {
        let cfg = GenConfig::medium(0xBA7C_0000 + u).with_cast_ratio((u % 5) as f64 / 4.0);
        out.push((format!("universe{u}"), generate(&cfg)));
    }
    let base = generate(&GenConfig::medium(0x11FE_0000));
    for (i, step) in edit_trace(&base, 1, 20).into_iter().enumerate() {
        out.push((format!("live_edit{}", i + 1), step.source));
    }
    out.insert(40, ("live_edit0".to_string(), base));
    out.push(("scopes".to_string(), SCOPES.to_string()));
    out
}

/// Shadowing and scope exit in every namespace: block-scoped variables,
/// a variable shadowing a typedef, a struct tag redefined in a block, a
/// tag never defined but named in two functions (one record), a
/// parameter shadowing a global, and one warning or static buffer per
/// library name however often it is called.
const SCOPES: &str = "
typedef int T;
struct S { int *a; } gs;
int x, y, *p, *q;
enum E { A, B };
void f(void) {
    int x;
    p = &x;
    {
        struct S { int *b; int *c; } ls;
        int *x;
        ls.b = &y;
        x = ls.b;
        q = x;
        { T T; T = 1; p = &T; }
    }
    q = &x;
}
void g(void) {
    T t;
    struct U *up;
    enum E e;
    char *s1, *s2;
    p = &x;
    gs.a = &t;
    e = B;
    t = A;
    up = 0;
    frob(p);
    frob(q);
    s1 = getenv(\"A\");
    s2 = getenv(\"B\");
}
struct U { int *u; };
int h(int x) { p = &x; return x; }
void k1(void) { struct V *v1; v1 = 0; }
void k2(void) { struct V *v2; v2 = 0; }
";

fn row(name: &str, src: &str) -> String {
    let tokens = Lexer::new(src).tokenize().map_or(0, |v| v.len());
    let tu = parse(src).unwrap_or_else(|e| panic!("{name}: {e}"));
    let printed = print_translation_unit(&tu);
    let prog = lower_source(src).unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut objects = String::new();
    for (i, o) in prog.objects.iter().enumerate() {
        let _ = writeln!(
            objects,
            "{i} {} {} {} {:?}",
            o.name,
            o.ty.0,
            prog.types.display(o.ty),
            o.kind
        );
    }
    for w in &prog.warnings {
        let _ = writeln!(objects, "warning {w}");
    }
    let dump = ConstraintSet::compile(&prog).dump(&prog);
    format!(
        "{name} {tokens} {} {} {:016x} {:016x} {:016x}",
        prog.stmts.len(),
        prog.objects.len(),
        fnv(&printed),
        fnv(&objects),
        fnv(&dump)
    )
}

/// Malformed sources whose messages name identifiers, types or tokens.
const ERRORS: [(&str, &str); 14] = [
    ("undeclared", "int *p; void f(void) { p = &nowhere; }"),
    ("undeclared_lvalue", "void f(void) { nowhere = 0; }"),
    ("enum_lvalue", "enum E { A, B }; void f(void) { A = 1; }"),
    ("no_member", "struct S { int a; } s; int x; void f(void) { x = s.missing; }"),
    ("member_on_scalar", "int x, y; void f(void) { y = x.field; }"),
    ("not_callable", "enum E { A }; void f(void) { A(); }"),
    ("incomplete_member", "struct T; struct S { struct T inner; } s;"),
    ("expected_semi", "int x int y;"),
    ("expected_ident", "struct S { int a; } s; void f(void) { s.; }"),
    ("ident_in_type_name", "int x; void f(void) { x = sizeof(int y); }"),
    ("bad_declarator", "int (3);"),
    ("stray_ident", "void f(void) { int x; x y; }"),
    ("string_token", "int x; void f(void) { x = 3 \"a\\n\" \"b\"; }"),
    ("bad_char", "int x; void f(void) { x = @; }"),
];

fn current() -> String {
    let mut out = String::from(HEADER);
    out.push('\n');
    for (name, src) in inputs() {
        out.push_str(&row(&name, &src));
        out.push('\n');
    }
    for (name, src) in ERRORS {
        let err = lower_source(src).expect_err(name);
        let _ = writeln!(out, "error {name}: {err}");
    }
    out
}

#[test]
fn front_end_output_matches_golden_file() {
    let got = current();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let path = format!("{}/tests/golden/frontend.txt", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(&path, &got).expect("write golden file");
        return;
    }
    for (g, w) in got.lines().zip(GOLDEN.lines()) {
        assert_eq!(g, w, "front end drifted from tests/golden/frontend.txt");
    }
    assert_eq!(got.lines().count(), GOLDEN.lines().count(), "row count");
}
