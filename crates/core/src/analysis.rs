//! The top-level analysis API: configure an instance, run it, query the
//! results.

use crate::budget::{Budget, SolveError};
use crate::facts::FactStore;
use crate::loc::Loc;
use crate::model::{FieldModel, ModelKind, ModelStats};
use crate::solver::ArithMode;
use std::collections::BTreeSet;
use std::time::Duration;
use structcast_ir::{ObjId, Program, StmtId};
use structcast_types::{CompatMode, FieldPath, Layout};

/// Configuration for one analysis run.
///
/// # Examples
///
/// ```
/// use structcast::{AnalysisConfig, ModelKind};
/// let cfg = AnalysisConfig::new(ModelKind::Offsets);
/// assert_eq!(cfg.model, ModelKind::Offsets);
/// ```
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// Which framework instance to run.
    pub model: ModelKind,
    /// Layout strategy (consulted by the Offsets instance only).
    pub layout: Layout,
    /// Type-compatibility mode for the portable instances.
    pub compat: CompatMode,
    /// Wilson–Lam stride refinement for pointer arithmetic (off = the
    /// paper's whole-object spread).
    pub arith_stride: bool,
    /// How pointer arithmetic is treated (spread vs corrupted-pointer
    /// flagging; see [`ArithMode`]).
    pub arith_mode: ArithMode,
    /// Cooperative resource budget for the solve (default unlimited).
    /// Budgeted configs must be solved through the fallible entry points
    /// ([`try_analyze`], [`AnalysisSession::try_solve`](crate::AnalysisSession::try_solve),
    /// [`try_solve_compiled`](crate::session::try_solve_compiled)); the
    /// infallible ones panic if a budget trips.
    pub budget: Budget,
}

impl AnalysisConfig {
    /// A configuration for `model` with the default layout (ILP32) and
    /// compatibility mode (structural).
    pub fn new(model: ModelKind) -> Self {
        AnalysisConfig {
            model,
            layout: Layout::ilp32(),
            compat: CompatMode::Structural,
            arith_stride: false,
            arith_mode: ArithMode::Spread,
            budget: Budget::unlimited(),
        }
    }

    /// Replaces the layout strategy.
    pub fn with_layout(mut self, layout: Layout) -> Self {
        self.layout = layout;
        self
    }

    /// Replaces the compatibility mode.
    pub fn with_compat(mut self, compat: CompatMode) -> Self {
        self.compat = compat;
        self
    }

    /// Enables/disables the stride refinement.
    pub fn with_stride(mut self, on: bool) -> Self {
        self.arith_stride = on;
        self
    }

    /// Selects the pointer-arithmetic mode.
    pub fn with_arith_mode(mut self, mode: ArithMode) -> Self {
        self.arith_mode = mode;
        self
    }

    /// Replaces the solve budget (see [`Budget`]).
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// A config list covering all four instances (paper order), sharing
    /// every other setting with `self` — the shape
    /// [`AnalysisSession::solve_all`](crate::AnalysisSession::solve_all)
    /// consumes.
    pub fn for_all_kinds(&self) -> Vec<AnalysisConfig> {
        ModelKind::ALL
            .iter()
            .map(|&k| {
                let mut c = self.clone();
                c.model = k;
                c
            })
            .collect()
    }

    /// The framework instance this config selects, built with its layout,
    /// compatibility and stride options.
    pub(crate) fn field_model(&self) -> Box<dyn FieldModel> {
        crate::models::make_model_with(
            self.model,
            &crate::models::ModelOptions {
                layout: self.layout.clone(),
                compat: self.compat,
                arith_stride: self.arith_stride,
            },
        )
    }
}

impl Default for AnalysisConfig {
    /// The most precise *portable* instance (Common Initial Sequence).
    fn default() -> Self {
        AnalysisConfig::new(ModelKind::CommonInitialSeq)
    }
}

/// Runs the analysis on a lowered program.
///
/// This is the main entry point of the crate; see the crate docs for a
/// complete example. Internally it is a one-model
/// [`AnalysisSession`](crate::AnalysisSession): compile the constraint
/// form, specialize it for `config.model`, solve. Multi-model runs should
/// hold the session themselves so the compilation is shared.
pub fn analyze(prog: &Program, config: &AnalysisConfig) -> AnalysisResult {
    crate::session::AnalysisSession::compile(prog).solve(config)
}

/// [`analyze`] for budgeted configs: returns the typed [`SolveError`] when
/// `config.budget` trips instead of panicking.
///
/// # Errors
///
/// [`SolveError`] when the deadline, edge cap, or cancellation flag of
/// `config.budget` fires before the fixpoint completes.
pub fn try_analyze(prog: &Program, config: &AnalysisConfig) -> Result<AnalysisResult, SolveError> {
    crate::session::AnalysisSession::compile(prog).try_solve(config)
}

/// Parses, lowers, and analyzes C source in one call.
///
/// # Errors
///
/// Returns the parse or lowering error.
pub fn analyze_source(
    src: &str,
    config: &AnalysisConfig,
) -> Result<(Program, AnalysisResult), structcast_ir::LowerError> {
    let prog = structcast_ir::lower_source(src)?;
    let result = analyze(&prog, config);
    Ok((prog, result))
}

/// The result of one analysis run, with the queries used by the paper's
/// evaluation (Figures 3–6) and by downstream clients.
pub struct AnalysisResult {
    /// Which instance ran.
    pub kind: ModelKind,
    /// All points-to facts (Figure 6 counts `facts.len()`).
    pub facts: FactStore,
    /// Figure 3 instrumentation.
    pub stats: ModelStats,
    /// Statement evaluations performed by the solver.
    pub iterations: u64,
    /// Indirect-call (site, callee) bindings discovered.
    pub resolved_indirect_calls: usize,
    /// Wall-clock solving time (Figure 5 reports ratios of these).
    pub elapsed: Duration,
    /// Locations flagged as possibly-corrupted pointers (only populated
    /// under [`ArithMode::FlagUnknown`]).
    pub unknown: BTreeSet<Loc>,
    /// Resolved (call-site statement, callee) pairs for indirect calls in
    /// the original program.
    pub call_edges: Vec<(StmtId, structcast_ir::FuncId)>,
    model: Box<dyn FieldModel>,
}

impl AnalysisResult {
    /// Packages a finished solver run (used by the session's solve stage).
    pub(crate) fn from_solver(
        kind: ModelKind,
        out: crate::solver::SolverOutput,
        elapsed: Duration,
    ) -> Self {
        let mut facts = out.facts;
        facts.seal();
        AnalysisResult {
            kind,
            facts,
            stats: out.stats,
            iterations: out.iterations,
            resolved_indirect_calls: out.resolved_indirect_calls,
            elapsed,
            unknown: out.unknown,
            call_edges: out.call_edges,
            model: out.model,
        }
    }

    /// Rebuilds a result from retained parts — the query server's
    /// snapshot-restore path. The facts are sealed as a solve's are; they
    /// and the counters are otherwise adopted as-is and
    /// the model is reconstructed from its configuration; no constraint is
    /// re-specialized and no fixpoint runs, so neither
    /// [`solves_on_thread`](crate::solves_on_thread) nor the constraint
    /// compile counter moves. The caller is responsible for the parts
    /// having come from a run of the same `kind` under the same options —
    /// queries against a mismatched model would normalize locations the
    /// fact store has never seen.
    #[allow(clippy::too_many_arguments)]
    pub fn from_saved(
        kind: ModelKind,
        opts: &crate::models::ModelOptions,
        facts: FactStore,
        stats: ModelStats,
        iterations: u64,
        resolved_indirect_calls: usize,
        elapsed: Duration,
        unknown: BTreeSet<Loc>,
        call_edges: Vec<(StmtId, structcast_ir::FuncId)>,
    ) -> Self {
        let mut facts = facts;
        facts.seal();
        AnalysisResult {
            kind,
            facts,
            stats,
            iterations,
            resolved_indirect_calls,
            elapsed,
            unknown,
            call_edges,
            model: crate::models::make_model_with(kind, opts),
        }
    }

    /// Normalizes `obj.path` under this run's instance.
    pub fn normalize(&self, prog: &Program, obj: ObjId, path: &FieldPath) -> Loc {
        self.model.normalize(prog, obj, path)
    }

    /// The points-to set of a top-level object.
    pub fn points_to(&self, prog: &Program, obj: ObjId) -> Vec<Loc> {
        let l = self.model.normalize(prog, obj, &FieldPath::empty());
        self.facts.points_to_vec(&l)
    }

    /// The size of [`points_to`](AnalysisResult::points_to), read from the
    /// fact store without collecting the set.
    pub fn points_to_len(&self, prog: &Program, obj: ObjId) -> usize {
        let l = self.model.normalize(prog, obj, &FieldPath::empty());
        self.facts.points_to_len(&l)
    }

    /// The points-to set of a top-level object rendered with
    /// [`Loc::display`], sorted and deduplicated: the form every points-to
    /// reply of the query server carries.
    pub fn points_to_display(&self, prog: &Program, obj: ObjId) -> Vec<String> {
        let mut shown: Vec<String> =
            self.points_to(prog, obj).iter().map(|l| l.display(prog)).collect();
        shown.sort();
        shown.dedup();
        shown
    }

    /// The points-to set of `obj.path`.
    pub fn points_to_field(&self, prog: &Program, obj: ObjId, path: &FieldPath) -> Vec<Loc> {
        let l = self.model.normalize(prog, obj, path);
        self.facts.points_to_vec(&l)
    }

    /// The names of the objects a named variable may point to (deduplicated
    /// and sorted) — convenient for tests and examples.
    pub fn points_to_names(&self, prog: &Program, var: &str) -> Vec<String> {
        let Some(obj) = prog.object_by_name(var) else {
            return Vec::new();
        };
        let mut out: BTreeSet<String> = BTreeSet::new();
        for t in self.points_to(prog, obj) {
            out.insert(prog.object(t.obj).name.clone());
        }
        out.into_iter().collect()
    }

    /// The points-to set of the named variable `var`, or `None` if the
    /// program has no object of that name. The `Loc` form (unlike
    /// [`points_to_names`](AnalysisResult::points_to_names)) keeps field
    /// positions, so two targets inside the same object stay distinct —
    /// what the alias query and the query server need.
    pub fn points_to_named(&self, prog: &Program, var: &str) -> Option<Vec<Loc>> {
        prog.object_by_name(var).map(|o| self.points_to(prog, o))
    }

    /// [`may_alias`](AnalysisResult::may_alias) by variable name; `None` if
    /// either name does not resolve to an object.
    pub fn may_alias_named(&self, prog: &Program, a: &str, b: &str) -> Option<bool> {
        let oa = prog.object_by_name(a)?;
        let ob = prog.object_by_name(b)?;
        Some(self.may_alias(prog, oa, ob))
    }

    /// Every points-to edge rendered with source-level names (via
    /// [`Loc::display`]), sorted and deduplicated — the deterministic
    /// machine-readable form shared by `scast --json` and the query
    /// server.
    pub fn edge_displays(&self, prog: &Program) -> Vec<(String, String)> {
        let mut v: Vec<(String, String)> = self
            .facts
            .iter()
            .map(|(s, t)| (s.display(prog), t.display(prog)))
            .collect();
        v.sort();
        v.dedup();
        v
    }

    /// May `a` and `b` (top-level objects) point to a common location?
    ///
    /// Locations are compared for exact equality (same object and same
    /// normalized position); overlapping-but-unequal offset ranges do not
    /// count, mirroring how the paper reports points-to facts.
    pub fn may_alias(&self, prog: &Program, a: ObjId, b: ObjId) -> bool {
        let pa = self.points_to(prog, a);
        if pa.is_empty() {
            return false;
        }
        let pb: BTreeSet<Loc> = self.points_to(prog, b).into_iter().collect();
        pa.iter().any(|l| pb.contains(l))
    }

    /// Per-dereference-site points-to set sizes: for every static pointer
    /// dereference in the program, the (weighted) size of the dereferenced
    /// pointer's points-to set. Collapse-Always struct targets are expanded
    /// to their field counts, per Figure 4's fairness note. Each distinct
    /// pointer is normalized and weighed once; its other sites reuse the
    /// size.
    pub fn deref_site_sizes(&self, prog: &Program) -> Vec<(StmtId, usize)> {
        let mut by_ptr: Vec<Option<usize>> = vec![None; prog.objects.len()];
        prog.deref_sites()
            .into_iter()
            .map(|(sid, ptr)| {
                let size = *by_ptr[ptr.0 as usize].get_or_insert_with(|| {
                    let l = self.model.normalize(prog, ptr, &FieldPath::empty());
                    self.facts
                        .points_to(&l)
                        .map(|t| self.model.target_weight(prog, t))
                        .sum()
                });
                (sid, size)
            })
            .collect()
    }

    /// The average points-to set size over all static dereference sites —
    /// the metric of Figure 4. Sites whose pointer has an empty set (never
    /// assigned) contribute zero.
    pub fn average_deref_size(&self, prog: &Program) -> f64 {
        self.deref_summary(prog).0
    }

    /// [`average_deref_size`](AnalysisResult::average_deref_size) and the
    /// number of sites it averages over, from one walk of the sites. The
    /// sizes are summed in site order.
    pub fn deref_summary(&self, prog: &Program) -> (f64, usize) {
        let sizes = self.deref_site_sizes(prog);
        if sizes.is_empty() {
            return (0.0, 0);
        }
        let sum = sizes.iter().map(|(_, s)| *s as f64).sum::<f64>();
        (sum / sizes.len() as f64, sizes.len())
    }

    /// Total number of points-to edges — the metric of Figure 6.
    pub fn edge_count(&self) -> usize {
        self.facts.len()
    }

    /// Dereference sites whose pointer may be a corrupted value (only
    /// meaningful under [`ArithMode::FlagUnknown`]): the "potential misuses
    /// of memory" the paper suggests flagging (§4.2.1).
    pub fn unknown_deref_sites(&self, prog: &Program) -> Vec<StmtId> {
        prog.deref_sites()
            .into_iter()
            .filter(|(_, ptr)| {
                let l = self.model.normalize(prog, *ptr, &FieldPath::empty());
                self.unknown.contains(&l)
            })
            .map(|(sid, _)| sid)
            .collect()
    }
}

impl std::fmt::Debug for AnalysisResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalysisResult")
            .field("kind", &self.kind)
            .field("edges", &self.facts.len())
            .field("iterations", &self.iterations)
            .field("elapsed", &self.elapsed)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const INTRO: &str = "struct S { int *s1; int *s2; } s;\n\
        int x, y, *p;\n\
        void f(void) { s.s1 = &x; s.s2 = &y; p = s.s1; }";

    #[test]
    fn analyze_source_end_to_end() {
        let cfg = AnalysisConfig::default();
        let (prog, res) = analyze_source(INTRO, &cfg).unwrap();
        assert_eq!(res.kind, ModelKind::CommonInitialSeq);
        assert_eq!(res.points_to_names(&prog, "p"), vec!["x".to_string()]);
        assert!(res.edge_count() > 0);
        assert!(res.iterations > 0);
    }

    #[test]
    fn field_queries() {
        let cfg = AnalysisConfig::new(ModelKind::Offsets);
        let (prog, res) = analyze_source(INTRO, &cfg).unwrap();
        let s = prog.object_by_name("s").unwrap();
        let x = prog.object_by_name("x").unwrap();
        let y = prog.object_by_name("y").unwrap();
        let f0 = res.points_to_field(&prog, s, &FieldPath::from_steps([0u32]));
        assert_eq!(f0, vec![Loc::off(x, 0)]);
        let f1 = res.points_to_field(&prog, s, &FieldPath::from_steps([1u32]));
        assert_eq!(f1, vec![Loc::off(y, 0)]);
    }

    #[test]
    fn may_alias_basic() {
        let src = "int x, y, *p, *q, *r;\n\
                   void f(void) { p = &x; q = &x; r = &y; }";
        let cfg = AnalysisConfig::default();
        let (prog, res) = analyze_source(src, &cfg).unwrap();
        let p = prog.object_by_name("p").unwrap();
        let q = prog.object_by_name("q").unwrap();
        let r = prog.object_by_name("r").unwrap();
        assert!(res.may_alias(&prog, p, q));
        assert!(!res.may_alias(&prog, p, r));
    }

    #[test]
    fn average_deref_size_counts_sites() {
        let src = "int x, y, *p; int **pp;\n\
                   void f(int c) { p = c ? &x : &y; pp = &p; x = **pp; }";
        let cfg = AnalysisConfig::default();
        let (prog, res) = analyze_source(src, &cfg).unwrap();
        // **pp: the inner deref of pp sees {p} (size 1); the outer deref
        // temp sees {x, y} (size 2).
        let avg = res.average_deref_size(&prog);
        assert!(avg > 0.0, "{avg}");
        assert!(!res.deref_site_sizes(&prog).is_empty());
    }

    #[test]
    fn deref_sizes_equal_a_per_site_recomputation() {
        for name in ["oop-shapes", "intrusive-list", "symtab"] {
            let src = structcast_progen::corpus_program(name).unwrap().source;
            let prog = structcast_ir::lower_source(src).unwrap();
            for kind in ModelKind::ALL {
                let res = analyze(&prog, &AnalysisConfig::new(kind));
                let naive: Vec<(StmtId, usize)> = prog
                    .deref_sites()
                    .into_iter()
                    .map(|(sid, ptr)| {
                        let l = res.model.normalize(&prog, ptr, &FieldPath::empty());
                        let w = res
                            .facts
                            .points_to(&l)
                            .map(|t| res.model.target_weight(&prog, t));
                        (sid, w.sum())
                    })
                    .collect();
                assert_eq!(res.deref_site_sizes(&prog), naive, "{name} {kind}");
                let sum: f64 = naive.iter().map(|(_, s)| *s as f64).sum();
                let (avg, sites) = res.deref_summary(&prog);
                assert_eq!(sites, naive.len(), "{name} {kind}");
                assert_eq!(
                    avg.to_bits(),
                    (sum / sites as f64).to_bits(),
                    "{name} {kind}"
                );
            }
        }
    }

    #[test]
    fn unknown_variable_name_is_empty() {
        let cfg = AnalysisConfig::default();
        let (prog, res) = analyze_source(INTRO, &cfg).unwrap();
        assert!(res.points_to_names(&prog, "nonexistent").is_empty());
    }

    #[test]
    fn named_lookup_queries() {
        let src = "int x, y, *p, *q, *r;\n\
                   void f(void) { p = &x; q = &x; r = &y; }";
        let cfg = AnalysisConfig::default();
        let (prog, res) = analyze_source(src, &cfg).unwrap();
        let pts = res.points_to_named(&prog, "p").unwrap();
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].obj, prog.object_by_name("x").unwrap());
        assert!(res.points_to_named(&prog, "no_such_var").is_none());
        assert_eq!(res.may_alias_named(&prog, "p", "q"), Some(true));
        assert_eq!(res.may_alias_named(&prog, "p", "r"), Some(false));
        assert_eq!(res.may_alias_named(&prog, "p", "ghost"), None);
    }

    #[test]
    fn edge_displays_are_sorted_and_named() {
        let cfg = AnalysisConfig::default();
        let (prog, res) = analyze_source(INTRO, &cfg).unwrap();
        let edges = res.edge_displays(&prog);
        assert!(!edges.is_empty());
        let mut sorted = edges.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(edges, sorted);
        assert!(edges.iter().any(|(s, t)| s == "p" && t == "x"), "{edges:?}");
    }

    #[test]
    fn config_builders() {
        // The full symmetric builder set: every config field has a
        // `with_*` counterpart, so no caller needs struct-field pokes.
        let cfg = AnalysisConfig::new(ModelKind::Offsets)
            .with_layout(Layout::lp64())
            .with_compat(CompatMode::TagBased)
            .with_stride(true)
            .with_arith_mode(ArithMode::FlagUnknown)
            .with_budget(Budget::unlimited().with_max_edges(10));
        assert_eq!(cfg.layout.name, "lp64");
        assert_eq!(cfg.compat, CompatMode::TagBased);
        assert!(cfg.arith_stride);
        assert_eq!(cfg.arith_mode, ArithMode::FlagUnknown);
        assert_eq!(cfg.budget.max_edges, Some(10));
    }

    #[test]
    fn for_all_kinds_shares_settings() {
        let base = AnalysisConfig::new(ModelKind::CollapseAlways)
            .with_layout(Layout::lp64())
            .with_stride(true);
        let all = base.for_all_kinds();
        assert_eq!(all.len(), 4);
        for (cfg, kind) in all.iter().zip(ModelKind::ALL) {
            assert_eq!(cfg.model, kind);
            assert_eq!(cfg.layout.name, "lp64");
            assert!(cfg.arith_stride);
        }
    }
}
