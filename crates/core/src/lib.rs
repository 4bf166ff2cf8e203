//! # structcast
//!
//! A tunable, field-sensitive **pointer analysis for C programs with
//! structures and casting** — a from-scratch reproduction of
//!
//! > Suan Hsi Yong, Susan Horwitz, Thomas Reps.
//! > *Pointer Analysis for Programs with Structures and Casting.*
//! > PLDI 1999.
//!
//! Type casting lets a C program access an object as if it had a different
//! type, which breaks naive field-sensitive pointer analysis. The paper's
//! framework parameterizes a flow-insensitive, context-insensitive analysis
//! by three functions — `normalize`, `lookup`, `resolve` — and derives four
//! algorithms spanning the precision/portability spectrum:
//!
//! | instance ([`ModelKind`]) | fields? | casts? | portable? |
//! |---|---|---|---|
//! | `CollapseAlways` | collapsed | n/a | yes |
//! | `CollapseOnCast` | kept until cast | collapse tail | yes |
//! | `CommonInitialSeq` | kept until cast | keep shared prefix | yes |
//! | `Offsets` | byte offsets | exact | **no** (layout-specific) |
//!
//! ## Quickstart
//!
//! ```
//! use structcast::{analyze_source, AnalysisConfig, ModelKind};
//!
//! // The paper's introduction example: collapsing structures loses the
//! // fact that p can only point to x.
//! let src = r#"
//!     struct S { int *s1; int *s2; } s;
//!     int x, y, *p;
//!     void main(void) {
//!         s.s1 = &x;
//!         s.s2 = &y;
//!         p = s.s1;
//!     }
//! "#;
//!
//! let (prog, precise) =
//!     analyze_source(src, &AnalysisConfig::new(ModelKind::CommonInitialSeq))?;
//! assert_eq!(precise.points_to_names(&prog, "p"), vec!["x".to_string()]);
//!
//! let (prog, collapsed) =
//!     analyze_source(src, &AnalysisConfig::new(ModelKind::CollapseAlways))?;
//! assert_eq!(
//!     collapsed.points_to_names(&prog, "p"),
//!     vec!["x".to_string(), "y".to_string()]
//! );
//! # Ok::<(), structcast::LowerError>(())
//! ```
//!
//! ## Pipeline
//!
//! The crate re-exports the full pipeline so downstream users need only one
//! dependency:
//!
//! 1. [`parse`] (from `structcast-ast`) — C source → AST;
//! 2. [`lower`] / [`lower_source`] (from `structcast-ir`) — AST → the five
//!    normalized assignment forms of the paper's §2;
//! 3. the staged analysis (below) — [`analyze`] for one instance, or an
//!    [`AnalysisSession`] to solve several instances over one program;
//! 4. [`AnalysisResult`] — points-to queries, alias queries, and the
//!    metrics of the paper's Figures 3–6.
//!
//! ## Staged analysis: compile once, solve many
//!
//! The analysis itself runs in three explicit stages:
//!
//! ```text
//!   Program ──compile──▶ ConstraintSet ──specialize(model)──▶ solver
//!            (stage 1,    [constraints]    (stage 2, per        (stage 3,
//!             once)                         instance)            fixpoint)
//! ```
//!
//! 1. **Constraint compilation** (the [`constraints`] layer,
//!    `structcast-constraints`): the IR is walked *once* into a
//!    model-independent [`ConstraintSet`] — interned field paths,
//!    pre-resolved `τ`/`τ_p`/pointee types, one constraint per statement —
//!    with a stable dump for debugging and golden tests;
//! 2. **Model specialization**: each constraint's operands are mapped
//!    through the chosen instance's `normalize` and interned
//!    ([`Solver::from_constraints`]);
//! 3. **Solving**: the difference-propagation worklist fixpoint over the
//!    inference rules of Figure 2.
//!
//! [`AnalysisSession`] packages the staging: `compile` a program once,
//! then `solve` any number of configurations against the shared constraint
//! form — the shape of the paper's four-instance evaluation:
//!
//! ```
//! use structcast::{AnalysisConfig, AnalysisSession, ModelKind};
//!
//! let prog = structcast::lower_source("int x, *p; void f(void) { p = &x; }")?;
//! let session = AnalysisSession::compile(&prog); // stage 1, paid once
//! for kind in ModelKind::ALL {
//!     let res = session.solve(&AnalysisConfig::new(kind)); // stages 2+3
//!     assert_eq!(res.points_to_names(&prog, "p"), vec!["x".to_string()]);
//! }
//! # Ok::<(), structcast::LowerError>(())
//! ```
//!
//! A Steensgaard-style unification ablation lives in [`steensgaard`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod analysis;
mod arena;
mod budget;
pub mod demand;
mod facts;
pub mod incr;
mod loc;
mod model;
pub mod models;
pub mod modref;
mod session;
mod solver;
pub mod steensgaard;

pub use analysis::{analyze, analyze_source, try_analyze, AnalysisConfig, AnalysisResult};
pub use budget::{Budget, SolveError, TIME_CHECK_INTERVAL};
pub use demand::{
    slice_for_query, solve_demand_compiled, try_solve_demand_compiled, DemandQuery, DemandResult,
};
pub use facts::FactStore;
pub use incr::{resolve_incremental, IncrSolve, IncrStats};
pub use loc::{FieldRep, Loc, LocId};
pub use model::{FieldModel, ModelKind, ModelStats};
pub use session::{
    solve_compiled, solve_compiled_parallel, try_solve_compiled, try_solve_compiled_parallel,
    AnalysisSession,
};
pub use solver::{solves_on_thread, ArithMode, Solver, SolverOutput};

/// The model-independent constraint layer (re-export of
/// `structcast-constraints`): [`ConstraintSet`] and friends.
pub use structcast_constraints as constraints;
pub use structcast_constraints::{
    compile_incremental, diff_programs, CompileReuse, ConstraintSet, ConstraintSlicer,
    ProgramDiff, Slice, SliceStats,
};

// Re-export the pipeline so `structcast` is a one-stop dependency.
pub use structcast_ast::{parse, ParseError, TranslationUnit};

/// Front-end conveniences re-exported from `structcast-ast`.
pub mod parse_support {
    pub use structcast_ast::{preprocess, IncludeResolver, Lexer, Parser};
}
pub use structcast_ir::{lower, lower_source, FuncId, LowerError, ObjId, Program, Stmt, StmtId};
pub use structcast_types::{CompatMode, FieldPath, Layout, TypeId, TypeTable};
