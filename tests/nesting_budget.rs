//! The parser's nesting budget (`structcast_ast::MAX_NESTING`) keeps every
//! deep shape from overflowing a server worker's 2 MiB stack: past the
//! budget each shape is a typed parse error naming line and column, and at
//! the budget each one parses, lowers, solves under all four instances
//! and drops on a quarter of that stack.
//!
//! The type-depth budget (`structcast_ir::MAX_TYPE_DEPTH`) does the same
//! for deep *types*, which typedef and struct chains build by name rather
//! than by nesting: past it a chain is a typed lowering error, and at it
//! the chain lowers, diffs and solves on a worker stack.

use structcast::{analyze, diff_programs, lower_source, AnalysisConfig, ModelKind};
use structcast_ast::MAX_NESTING;
use structcast_ir::MAX_TYPE_DEPTH;

/// A server worker's stack.
const WORKER_STACK: usize = 2 << 20;

/// The six deep shapes, each `n` levels deep.
fn shapes(n: usize) -> [(&'static str, String); 6] {
    let wrap = |open: &str, inner: &str, close: &str| {
        format!("{}{inner}{}", open.repeat(n), close.repeat(n))
    };
    [
        (
            "parentheses",
            format!(
                "int x, *p; void f(void) {{ p = {}; }}",
                wrap("(", "&x", ")")
            ),
        ),
        (
            "flat + chain",
            format!("int y; void f(void) {{ y = y{}; }}", "+y".repeat(n)),
        ),
        (
            "else-if chain",
            format!(
                "int x; void f(void) {{ if (x) x = 0;{} }}",
                " else if (x) x = 1;".repeat(n)
            ),
        ),
        ("pointer declarator", format!("int {}p;", "*".repeat(n))),
        (
            "nested blocks",
            format!("int x; void f(void) {{ {} }}", wrap("{", "x = 0;", "}")),
        ),
        (
            "nested initializer",
            format!("int x, *q = {};", wrap("{", "&x", "}")),
        ),
    ]
}

/// Runs `f` on a thread with `stack` bytes of stack; a stack overflow
/// aborts the whole test binary.
fn on_stack<T: Send + 'static>(stack: usize, f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(stack)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("no panic")
}

#[test]
fn deep_shapes_are_typed_errors_on_a_worker_stack() {
    for (name, src) in shapes(200_000) {
        let err = on_stack(WORKER_STACK, move || lower_source(&src).map(drop))
            .expect_err(name)
            .to_string();
        assert!(
            err.contains(&format!(
                "nesting deeper than {MAX_NESTING} levels at line 1, column "
            )),
            "{name}: {err}"
        );
    }
}

#[test]
fn shapes_at_the_budget_run_end_to_end_on_a_quarter_worker_stack() {
    for i in 0..6 {
        let parses = |n: usize| structcast_ast::parse(&shapes(n)[i].1).is_ok();
        // The deepest accepted instance of the shape: the budget minus the
        // few levels its fixed wrapper (statement, assignment) spends.
        let n = (1..=MAX_NESTING)
            .rev()
            .find(|&n| parses(n))
            .expect("shallow shapes parse");
        let name = shapes(n)[i].0;
        assert!(n + 3 >= MAX_NESTING, "{name}: only {n} levels accepted");
        assert!(!parses(n + 1), "{name}: {} levels accepted", n + 1);
        let src = shapes(n)[i].1.clone();
        on_stack(WORKER_STACK / 4, move || {
            let prog = lower_source(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
            for model in ModelKind::ALL {
                analyze(&prog, &AnalysisConfig::new(model));
            }
        });
    }
}

/// `typedef int T0;` then `typedef T{i-1} *T{i};` on line `i + 1`: a
/// declarator chain `n` pointers deep, built by name.
fn typedef_chain(n: usize) -> String {
    let mut s = String::from("typedef int T0;\n");
    for i in 1..=n {
        s += &format!("typedef T{} *T{i};\n", i - 1);
    }
    s + &format!(
        "T{n} p, q, *pp; void *vp;\n\
         void f(void) {{ pp = &p; *pp = q; q = *pp; vp = pp; pp = vp; }}\n"
    )
}

/// `struct S0 { int *x; };` then `struct S{i} { struct S{i-1} f; };` on
/// line `i + 1`: a record containing records `n + 1` levels deep.
fn struct_chain(n: usize) -> String {
    let mut s = String::from("struct S0 { int *x; };\n");
    for i in 1..=n {
        s += &format!("struct S{i} {{ struct S{} f; }};\n", i - 1);
    }
    s + &format!("struct S{n} v, w, *pv; int a;\nvoid f(void) {{ pv = &v; w = v; *pv = w; }}\n")
}

#[test]
fn deep_type_chains_are_typed_errors_on_a_worker_stack() {
    // The typedef chain's first type past the budget is `T129` (line 130);
    // the struct chain's is `S128`, the 129th record level (line 129).
    for (src, at) in [
        (typedef_chain(10_000), "line 130, column 15"),
        (struct_chain(10_000), "line 129, column 1"),
    ] {
        let err = on_stack(WORKER_STACK, move || lower_source(&src).map(drop))
            .expect_err("a 10,000-level type")
            .to_string();
        assert_eq!(
            err,
            format!("type nested deeper than {MAX_TYPE_DEPTH} levels at {at}")
        );
    }
}

#[test]
fn type_chains_at_the_budget_lower_diff_and_solve_on_a_worker_stack() {
    // Each chain's deepest type (`*pp`, and `S127`) is exactly at the
    // budget.
    let chains = [
        typedef_chain(MAX_TYPE_DEPTH as usize - 1),
        struct_chain(MAX_TYPE_DEPTH as usize - 1),
    ];
    let past = MAX_TYPE_DEPTH as usize;
    for one_more in [typedef_chain(past), struct_chain(past)] {
        assert!(
            lower_source(&one_more).is_err(),
            "one level past the budget"
        );
    }
    for src in chains {
        on_stack(WORKER_STACK, move || {
            let prog = lower_source(&src).unwrap_or_else(|e| panic!("{e}"));
            let diff = diff_programs(&prog, &prog);
            assert!(
                diff.dirty_stmts.is_empty() && diff.fallback.is_none(),
                "{diff:?}"
            );
            for model in ModelKind::ALL {
                assert!(
                    analyze(&prog, &AnalysisConfig::new(model)).edge_count() > 0,
                    "{model}"
                );
            }
        });
    }
}
