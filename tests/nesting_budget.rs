//! The parser's nesting budget (`structcast_ast::MAX_NESTING`) keeps every
//! deep shape from overflowing a server worker's 2 MiB stack: past the
//! budget each shape is a typed parse error naming line and column, and at
//! the budget each one parses, lowers, solves under all four instances
//! and drops on a quarter of that stack.

use structcast::{analyze, lower_source, AnalysisConfig, ModelKind};
use structcast_ast::MAX_NESTING;

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
