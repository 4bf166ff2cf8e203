//! Demand-driven solving: answer one query from a slice of the program.
//!
//! An exhaustive solve pays for the whole-program fixpoint even when the
//! queried pointer touches a tiny fraction of it. The demand mode slices
//! the compiled [`ConstraintSet`] backward from the query's roots with
//! [`ConstraintSlicer`] and runs the ordinary specialize+solve pipeline on
//! the sub-set only — budgets and arithmetic modes included. The slicer's
//! conservative address-taken closure makes the slice *complete* for every
//! object it marks relevant, so the demand answer is byte-equal to what
//! the exhaustive solver would report for the same query, under all four
//! field models (see the slicer's module docs for the argument).
//!
//! Query roots per [`DemandQuery`] variant:
//!
//! * `PointsTo { obj }` — the queried object itself;
//! * `Alias { a, b }` — both objects (the alias check only compares their
//!   two points-to sets);
//! * `ModRef { func }` — every pointer dereferenced by the functions
//!   statically reachable from `func`, with the call constraints of those
//!   functions force-included so the slice resolves exactly the call
//!   edges the whole-program solve would resolve for them. Static
//!   reachability over-approximates the solved call graph (indirect call
//!   sites are closed over all address-taken functions), which is what
//!   makes the transitive MOD/REF sets of `func` agree with the
//!   exhaustive run's.

use crate::analysis::{AnalysisConfig, AnalysisResult};
use crate::budget::SolveError;
use crate::modref::{mod_ref, FnModRef};
use crate::session::solve_seeded;
use crate::solver::Seed;
use std::collections::BTreeSet;
use structcast_constraints::{Constraint, ConstraintSet, ConstraintSlicer, SliceStats};
use structcast_ir::{FuncId, ObjId, ObjKind, Program};

/// One demand query: the thing a caller wants answered without paying for
/// an exhaustive solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DemandQuery {
    /// The points-to set of one top-level object.
    PointsTo {
        /// The queried pointer object.
        obj: ObjId,
    },
    /// May two objects point to a common location?
    Alias {
        /// First object.
        a: ObjId,
        /// Second object.
        b: ObjId,
    },
    /// The transitive MOD/REF sets of one function.
    ModRef {
        /// The queried function.
        func: FuncId,
    },
}

impl DemandQuery {
    /// A points-to query for the named variable; `None` if the program has
    /// no object of that name.
    pub fn points_to_named(prog: &Program, var: &str) -> Option<DemandQuery> {
        prog.object_by_name(var).map(|obj| DemandQuery::PointsTo { obj })
    }

    /// An alias query for two named variables; `None` if either name does
    /// not resolve.
    pub fn alias_named(prog: &Program, a: &str, b: &str) -> Option<DemandQuery> {
        Some(DemandQuery::Alias {
            a: prog.object_by_name(a)?,
            b: prog.object_by_name(b)?,
        })
    }

    /// A MOD/REF query for the named function; `None` if the program has
    /// no function of that name.
    pub fn modref_named(prog: &Program, func: &str) -> Option<DemandQuery> {
        prog.function_by_name(func)
            .map(|f| DemandQuery::ModRef { func: f.id })
    }
}

/// A demand solve's output: the analysis result of the slice (query it
/// exactly like an exhaustive [`AnalysisResult`], restricted to the
/// demanded pointers/function), plus the slice-size accounting that
/// benches, the server's demand metrics, and `scast --demand` report.
#[derive(Debug)]
pub struct DemandResult {
    /// The solved slice. Points-to facts for the query's roots (and, for
    /// MOD/REF, everything the queried function dereferences) are
    /// byte-equal to the exhaustive solver's; facts about unrelated
    /// objects may be absent — that is the point.
    pub result: AnalysisResult,
    /// How much of the program the slice retained.
    pub stats: SliceStats,
}

impl DemandResult {
    /// The transitive MOD/REF sets of `func`, computed from the solved
    /// slice — equal to the exhaustive [`mod_ref`] sets for the function a
    /// [`DemandQuery::ModRef`] solve was rooted at.
    pub fn modref_of(&self, prog: &Program, func: FuncId) -> FnModRef {
        mod_ref(prog, &self.result, true).of(func)
    }
}

/// Roots and force-included call constraints for a MOD/REF demand on
/// `func`: walk the static over-approximate call graph (lowered direct
/// calls, parameter/return binding copies, indirect sites closed over all
/// address-taken functions) from `func`, then root every pointer its
/// reachable functions dereference and pin their call constraints.
fn modref_roots(
    prog: &Program,
    cset: &ConstraintSet,
    at: &BTreeSet<ObjId>,
    func: FuncId,
) -> (Vec<ObjId>, Vec<u32>) {
    let at_funcs: Vec<FuncId> = prog
        .functions
        .iter()
        .filter(|f| at.contains(&f.obj))
        .map(|f| f.id)
        .collect();
    let mut edges: Vec<(FuncId, FuncId)> = Vec::new();
    for (caller, callee) in &prog.direct_calls {
        if let Some(c) = caller {
            edges.push((*c, *callee));
        }
    }
    for (i, c) in cset.constraints().iter().enumerate() {
        let Some(g) = prog.stmt_funcs[i] else { continue };
        match c {
            // Bound direct calls lower to parameter/return copies; recover
            // their edges the same way MOD/REF itself does.
            Constraint::Copy { dst, src, .. } => {
                match prog.object(*dst).kind {
                    ObjKind::Param(callee, _) | ObjKind::VarArgs(callee) => {
                        edges.push((g, callee));
                    }
                    _ => {}
                }
                if let ObjKind::Ret(callee) = prog.object(src.obj).kind {
                    edges.push((g, callee));
                }
            }
            Constraint::CallDirect { fid, .. } => edges.push((g, *fid)),
            Constraint::CallIndirect { .. } => {
                // Before solving, an indirect site may reach any
                // address-taken function.
                edges.extend(at_funcs.iter().map(|&h| (g, h)));
            }
            _ => {}
        }
    }

    let mut reach: BTreeSet<FuncId> = BTreeSet::new();
    let mut stack = vec![func];
    while let Some(f) = stack.pop() {
        if !reach.insert(f) {
            continue;
        }
        stack.extend(
            edges
                .iter()
                .filter(|(a, _)| *a == f)
                .map(|(_, b)| *b)
                .filter(|b| !reach.contains(b)),
        );
    }

    let mut roots: Vec<ObjId> = Vec::new();
    let mut forced: Vec<u32> = Vec::new();
    for (i, c) in cset.constraints().iter().enumerate() {
        let in_reach = prog.stmt_funcs[i].is_some_and(|g| reach.contains(&g));
        if !in_reach {
            continue;
        }
        match c {
            Constraint::Load { ptr, .. } | Constraint::Store { ptr, .. } => roots.push(*ptr),
            Constraint::CopyAll { dst_ptr, src_ptr } => {
                roots.push(*dst_ptr);
                roots.push(*src_ptr);
            }
            Constraint::CallIndirect { ptr, .. } => {
                roots.push(*ptr);
                forced.push(i as u32);
            }
            Constraint::CallDirect { .. } => forced.push(i as u32),
            _ => {}
        }
    }
    (roots, forced)
}

/// The constraint-graph slice a demand solve of `query` would run on,
/// without solving it. The slice's `stmt_map` lists the whole-program
/// statement indices the query can see — the footprint the server's
/// incremental `update` op intersects with an edit's dirty region to
/// decide which cached demand answers survive.
pub fn slice_for_query(
    prog: &Program,
    constraints: &ConstraintSet,
    query: &DemandQuery,
) -> crate::Slice {
    let slicer = ConstraintSlicer::new(prog, constraints);
    let (roots, forced) = match query {
        DemandQuery::PointsTo { obj } => (vec![*obj], Vec::new()),
        DemandQuery::Alias { a, b } => (vec![*a, *b], Vec::new()),
        DemandQuery::ModRef { func } => {
            modref_roots(prog, constraints, slicer.address_taken(), *func)
        }
    };
    slicer.slice_with_forced(&roots, &forced)
}

/// Demand-solves `query` against an externally held constraint set: slice
/// backward from the query's roots, then run stages 2+3 on the slice only.
///
/// This is [`AnalysisSession::try_solve_demand`](crate::AnalysisSession::try_solve_demand)
/// without the session wrapper, mirroring
/// [`try_solve_compiled`](crate::session::try_solve_compiled) for callers
/// (like the query server's cache) that own `Program` and
/// [`ConstraintSet`] separately. `constraints` must have been compiled
/// from this exact `prog`.
///
/// # Errors
///
/// [`SolveError`] when `config.budget` trips before the slice's fixpoint
/// completes. The budget governs the sliced solve, so a query whose slice
/// is small can succeed under a budget the exhaustive solve would blow.
pub fn try_solve_demand_compiled(
    prog: &Program,
    constraints: &ConstraintSet,
    query: &DemandQuery,
    config: &AnalysisConfig,
) -> Result<DemandResult, SolveError> {
    let slice = slice_for_query(prog, constraints, query);
    let mut result = solve_seeded(prog, &slice.set, config, Seed::cold(slice.set.len()))?;
    // The solver records call sites by their index in the set it ran —
    // slice positions here. Remap to whole-program statement ids so
    // call-graph clients (MOD/REF) index the right statements.
    for (sid, _) in &mut result.call_edges {
        sid.0 = slice.stmt_map[sid.0 as usize];
    }
    result.call_edges.sort_unstable();
    Ok(DemandResult {
        result,
        stats: slice.stats,
    })
}

/// [`try_solve_demand_compiled`] for unlimited budgets; panics if
/// `config.budget` trips (use the `try_` form for budgeted configs).
pub fn solve_demand_compiled(
    prog: &Program,
    constraints: &ConstraintSet,
    query: &DemandQuery,
    config: &AnalysisConfig,
) -> DemandResult {
    try_solve_demand_compiled(prog, constraints, query, config)
        .expect("budgeted config solved through the infallible path; use try_solve_demand_compiled")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelKind;
    use crate::session::AnalysisSession;
    use crate::Budget;

    fn demand_pt(
        session: &AnalysisSession<'_>,
        prog: &Program,
        var: &str,
        cfg: &AnalysisConfig,
    ) -> (Vec<String>, SliceStats) {
        let q = DemandQuery::points_to_named(prog, var).unwrap();
        let d = session.solve_demand(&q, cfg);
        (d.result.points_to_names(prog, var), d.stats)
    }

    #[test]
    fn points_to_matches_exhaustive_for_all_models() {
        let src = "struct S { int *s1; int *s2; } s;\n\
                   int x, y, *p;\n\
                   void f(void) { s.s1 = &x; s.s2 = &y; p = s.s1; }";
        let prog = structcast_ir::lower_source(src).unwrap();
        let session = AnalysisSession::compile(&prog);
        for kind in ModelKind::ALL {
            let cfg = AnalysisConfig::new(kind);
            let full = session.solve(&cfg);
            let (got, _) = demand_pt(&session, &prog, "p", &cfg);
            assert_eq!(got, full.points_to_names(&prog, "p"), "{kind}");
        }
    }

    #[test]
    fn unrelated_chains_shrink_the_slice() {
        let src = "int x, *p; int a, b, *q, **qq;\n\
                   void f(void) { p = &x; q = &a; qq = &q; *qq = &b; }";
        let prog = structcast_ir::lower_source(src).unwrap();
        let session = AnalysisSession::compile(&prog);
        let cfg = AnalysisConfig::default();
        let (got, stats) = demand_pt(&session, &prog, "p", &cfg);
        assert_eq!(got, vec!["x".to_string()]);
        assert!(
            stats.slice_statements < stats.total_statements,
            "{stats:?}"
        );
        assert!(stats.ratio() < 1.0);
    }

    #[test]
    fn alias_matches_exhaustive() {
        let src = "int x, y, *p, *q, *r;\n\
                   void f(void) { p = &x; q = &x; r = &y; }";
        let prog = structcast_ir::lower_source(src).unwrap();
        let session = AnalysisSession::compile(&prog);
        let cfg = AnalysisConfig::default();
        let full = session.solve(&cfg);
        for (a, b) in [("p", "q"), ("p", "r"), ("q", "r")] {
            let q = DemandQuery::alias_named(&prog, a, b).unwrap();
            let d = session.solve_demand(&q, &cfg);
            assert_eq!(
                d.result.may_alias_named(&prog, a, b),
                full.may_alias_named(&prog, a, b),
                "{a} ~ {b}"
            );
        }
    }

    #[test]
    fn modref_matches_exhaustive_through_calls() {
        let src = r#"
            struct S { int *a; int *b; } s;
            int x, y;
            int *gp;
            void writer(int **slot) { *slot = &x; }
            void reader(void) { gp = s.a; }
            void caller(void) { writer(&s.a); }
            void main(void) { caller(); reader(); s.b = &y; }
        "#;
        let prog = structcast_ir::lower_source(src).unwrap();
        let session = AnalysisSession::compile(&prog);
        for kind in ModelKind::ALL {
            let cfg = AnalysisConfig::new(kind);
            let full = session.solve(&cfg);
            let full_mr = mod_ref(&prog, &full, true);
            for fname in ["writer", "reader", "caller", "main"] {
                let f = prog.function_by_name(fname).unwrap().id;
                let q = DemandQuery::ModRef { func: f };
                let d = session.solve_demand(&q, &cfg);
                assert_eq!(d.modref_of(&prog, f), full_mr.of(f), "{kind} {fname}");
            }
        }
    }

    #[test]
    fn modref_covers_indirect_calls() {
        let src = r#"
            int x; int *gp;
            void target(void) { gp = &x; }
            void (*fp)(void);
            void main(void) { fp = target; fp(); }
        "#;
        let prog = structcast_ir::lower_source(src).unwrap();
        let session = AnalysisSession::compile(&prog);
        let cfg = AnalysisConfig::default();
        let full = session.solve(&cfg);
        let f = prog.function_by_name("main").unwrap().id;
        let d = session.solve_demand(&DemandQuery::ModRef { func: f }, &cfg);
        assert_eq!(
            d.modref_of(&prog, f),
            mod_ref(&prog, &full, true).of(f),
            "indirect callee effects must be lifted into main"
        );
        assert!(!d.result.call_edges.is_empty());
        // The remapped call edges index whole-program statements.
        for (sid, _) in &d.result.call_edges {
            assert!((sid.0 as usize) < prog.stmts.len());
        }
    }

    #[test]
    fn named_constructors_reject_unknown_names() {
        let prog = structcast_ir::lower_source("int x, *p; void f(void) { p = &x; }").unwrap();
        assert!(DemandQuery::points_to_named(&prog, "ghost").is_none());
        assert!(DemandQuery::alias_named(&prog, "p", "ghost").is_none());
        assert!(DemandQuery::modref_named(&prog, "ghost").is_none());
        assert!(DemandQuery::points_to_named(&prog, "p").is_some());
        assert!(DemandQuery::modref_named(&prog, "f").is_some());
    }

    #[test]
    fn budgets_govern_the_sliced_solve() {
        let prog = structcast_ir::lower_source("int x, *p; void f(void) { p = &x; }").unwrap();
        let session = AnalysisSession::compile(&prog);
        let q = DemandQuery::points_to_named(&prog, "p").unwrap();
        let cfg = AnalysisConfig::default().with_budget(Budget::unlimited().with_max_edges(0));
        let err = session.try_solve_demand(&q, &cfg).unwrap_err();
        assert_eq!(err.kind(), "edge_limit");
        // The session (and an unbudgeted demand) still works afterwards.
        let ok = session
            .try_solve_demand(&q, &AnalysisConfig::default())
            .unwrap();
        assert_eq!(ok.result.points_to_names(&prog, "p"), vec!["x".to_string()]);
    }
}
