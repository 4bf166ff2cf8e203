//! The compile-once, solve-many [`AnalysisSession`].
//!
//! The paper's evaluation (Figures 4–6) runs **all four** framework
//! instances over every program. The IR walk, type resolution, and field
//! path interning are identical across instances, so a session hoists them
//! into one [`ConstraintSet`] compilation and lets each
//! [`AnalysisSession::solve`] call pay only for model specialization and
//! the fixpoint itself.
//!
//! Every solve kind reaches the fixpoint through [`solve_seeded`]: an
//! exhaustive solve runs the whole constraint set from a cold seed, a
//! demand solve runs a slice of it from a cold seed, and an incremental
//! re-solve runs the edited set from the facts that survived the edit.

use crate::analysis::{AnalysisConfig, AnalysisResult};
use crate::budget::SolveError;
use crate::solver::{Seed, Solver};
use std::time::Instant;
use structcast_constraints::ConstraintSet;
use structcast_ir::Program;

/// A compiled analysis session over one program: the model-independent
/// constraint form, computed once, plus the program it came from.
///
/// ```text
///   Program ──compile──▶ ConstraintSet ──specialize(model)──▶ solver
///            (once)                      (per solve call)
/// ```
///
/// # Examples
///
/// Solving all four instances through one session compiles the IR exactly
/// once and yields the same results as four independent
/// [`analyze`](crate::analyze) calls:
///
/// ```
/// use structcast::{AnalysisConfig, AnalysisSession, ModelKind};
///
/// let prog = structcast::lower_source(
///     "struct S { int *s1; int *s2; } s;\n\
///      int x, y, *p;\n\
///      void f(void) { s.s1 = &x; s.s2 = &y; p = s.s1; }",
/// )?;
/// let session = AnalysisSession::compile(&prog);
/// for kind in ModelKind::ALL {
///     let res = session.solve(&AnalysisConfig::new(kind));
///     assert!(res.edge_count() > 0, "{kind}");
/// }
/// // The constraint layer is inspectable: one constraint per statement.
/// assert_eq!(session.constraints().len(), prog.stmts.len());
/// # Ok::<(), structcast::LowerError>(())
/// ```
pub struct AnalysisSession<'p> {
    prog: &'p Program,
    constraints: ConstraintSet,
}

impl<'p> AnalysisSession<'p> {
    /// Stage 1: lowers `prog` into its model-independent constraint form.
    /// This is the only step that walks the IR; every subsequent
    /// [`solve`](AnalysisSession::solve) reuses the compiled set.
    pub fn compile(prog: &'p Program) -> Self {
        AnalysisSession {
            prog,
            constraints: ConstraintSet::compile(prog),
        }
    }

    /// Wraps an externally compiled constraint set (e.g. one that was just
    /// dumped or transformed) instead of recompiling `prog`.
    ///
    /// The set must have been compiled from this exact program; constraint
    /// object/type ids are meaningless against any other.
    pub fn from_parts(prog: &'p Program, constraints: ConstraintSet) -> Self {
        AnalysisSession { prog, constraints }
    }

    /// The program this session was compiled from.
    pub fn program(&self) -> &'p Program {
        self.prog
    }

    /// The shared model-independent constraint form (stage-1 output) —
    /// also the debugging seam: see [`ConstraintSet::dump`].
    pub fn constraints(&self) -> &ConstraintSet {
        &self.constraints
    }

    /// Stages 2+3: specializes the shared constraints for `config`'s
    /// instance and runs the difference-propagation solver to fixpoint.
    ///
    /// `AnalysisResult::elapsed` covers specialization + solving (the
    /// per-model cost); the one-time constraint compilation is paid by
    /// [`compile`](AnalysisSession::compile) and shared by every solve.
    pub fn solve(&self, config: &AnalysisConfig) -> AnalysisResult {
        solve_compiled(self.prog, &self.constraints, config)
    }

    /// [`solve`](AnalysisSession::solve) for budgeted configs. An aborted
    /// solve discards only its own partial state — the session (and its
    /// shared constraint set) stays valid for further solves, budgeted or
    /// not.
    ///
    /// # Errors
    ///
    /// [`SolveError`] when `config.budget` trips before the fixpoint.
    pub fn try_solve(&self, config: &AnalysisConfig) -> Result<AnalysisResult, SolveError> {
        try_solve_compiled(self.prog, &self.constraints, config)
    }

    /// Solves several configurations over the shared constraint set, up to
    /// `threads` of them concurrently — the common Figure 4–6 shape with
    /// multi-model parallelism. `threads` is an upper bound: no more
    /// workers run than there are configs or host CPUs.
    ///
    /// Results come back in `configs` order regardless of scheduling, and
    /// each is identical to a [`solve`](AnalysisSession::solve) of the same
    /// config (each worker runs the ordinary specialize+solve pipeline on
    /// plain data; nothing is shared but the read-only constraint set).
    /// One worker (`threads <= 1`, a single config or a single CPU)
    /// degenerates to a sequential map.
    /// Solves performed on the workers are credited to the calling
    /// thread's [`solves_on_thread`](crate::solves_on_thread) counter.
    pub fn solve_all(&self, configs: &[AnalysisConfig], threads: usize) -> Vec<AnalysisResult> {
        solve_compiled_parallel(self.prog, &self.constraints, configs, threads)
    }

    /// [`solve_all`](AnalysisSession::solve_all) for budgeted configs:
    /// each config's budget violation is reported in its own slot, and a
    /// tripped budget never aborts the sibling configs — the other solves
    /// run (and are cached by callers) exactly as if the failing config
    /// had not been requested.
    pub fn try_solve_all(
        &self,
        configs: &[AnalysisConfig],
        threads: usize,
    ) -> Vec<Result<AnalysisResult, SolveError>> {
        try_solve_compiled_parallel(self.prog, &self.constraints, configs, threads)
    }

    /// [`solve_all`](AnalysisSession::solve_all) over the four paper
    /// instances with default options, solved concurrently on up to one
    /// thread per model (fewer on a host with fewer CPUs).
    pub fn solve_all_kinds(&self) -> Vec<AnalysisResult> {
        let configs = AnalysisConfig::default().for_all_kinds();
        self.solve_all(&configs, configs.len())
    }

    /// Demand-driven solve: slices the shared constraint set backward from
    /// `query`'s roots and runs the fixpoint on the slice only. The answer
    /// to `query` is byte-equal to what [`solve`](AnalysisSession::solve)
    /// would report for it; see [`crate::demand`] for the slicing rules.
    pub fn solve_demand(
        &self,
        query: &crate::demand::DemandQuery,
        config: &AnalysisConfig,
    ) -> crate::demand::DemandResult {
        crate::demand::solve_demand_compiled(self.prog, &self.constraints, query, config)
    }

    /// [`solve_demand`](AnalysisSession::solve_demand) for budgeted
    /// configs. The budget governs the sliced solve, so a small-slice
    /// query can succeed under a budget an exhaustive solve would trip.
    ///
    /// # Errors
    ///
    /// [`SolveError`] when `config.budget` trips before the slice's
    /// fixpoint completes.
    pub fn try_solve_demand(
        &self,
        query: &crate::demand::DemandQuery,
        config: &AnalysisConfig,
    ) -> Result<crate::demand::DemandResult, SolveError> {
        crate::demand::try_solve_demand_compiled(self.prog, &self.constraints, query, config)
    }
}

/// Stages 2+3 against an externally held constraint set: specializes
/// `constraints` for `config`'s instance and runs the solver to fixpoint.
///
/// This is [`AnalysisSession::solve`] without the session wrapper, for
/// callers that keep `Program` and [`ConstraintSet`] in owned storage —
/// the query server's session cache holds both in one map entry and solves
/// on demand, which a borrowing `AnalysisSession<'p>` cannot express.
///
/// `constraints` must have been compiled from this exact `prog`.
pub fn solve_compiled(
    prog: &Program,
    constraints: &ConstraintSet,
    config: &AnalysisConfig,
) -> AnalysisResult {
    try_solve_compiled(prog, constraints, config)
        .expect("budgeted config solved through the infallible path; use try_solve_compiled")
}

/// [`solve_compiled`] for budgeted configs: the typed error surfaces
/// instead of panicking when `config.budget` trips.
///
/// # Errors
///
/// [`SolveError`] when the deadline, edge cap, or cancellation flag of
/// `config.budget` fires before the fixpoint completes.
pub fn try_solve_compiled(
    prog: &Program,
    constraints: &ConstraintSet,
    config: &AnalysisConfig,
) -> Result<AnalysisResult, SolveError> {
    solve_seeded(prog, constraints, config, Seed::cold(constraints.len()))
}

/// The one solve entry: builds `config`'s model, specializes `constraints`
/// against it, and runs the fixpoint from `seed` under `config.budget`.
/// `AnalysisResult::elapsed` covers specialization and solving.
pub(crate) fn solve_seeded(
    prog: &Program,
    constraints: &ConstraintSet,
    config: &AnalysisConfig,
    seed: Seed,
) -> Result<AnalysisResult, SolveError> {
    let model = config.field_model();
    let start = Instant::now();
    let out = Solver::seeded(prog, constraints, model, seed)
        .with_arith_mode(config.arith_mode)
        .run_budgeted(&config.budget)?;
    Ok(AnalysisResult::from_solver(config.model, out, start.elapsed()))
}

/// Multi-model parallelism over an externally held constraint set: solves
/// each of `configs` with [`solve_compiled`], distributing them over up to
/// `threads` scoped worker threads pulling from a shared work index.
/// `threads` is an upper bound (see [`try_solve_compiled_parallel`]).
///
/// Results are placed by config index, so the output order is `configs`
/// order no matter how the solves interleave. Worker-thread solve counts
/// are measured per worker and credited back to the calling thread, so
/// [`solves_on_thread`](crate::solves_on_thread) deltas observed by the
/// caller include every solve this call performed.
pub fn solve_compiled_parallel(
    prog: &Program,
    constraints: &ConstraintSet,
    configs: &[AnalysisConfig],
    threads: usize,
) -> Vec<AnalysisResult> {
    try_solve_compiled_parallel(prog, constraints, configs, threads)
        .into_iter()
        .map(|r| {
            r.expect("budgeted config solved through the infallible path; use try_solve_compiled_parallel")
        })
        .collect()
}

/// [`solve_compiled_parallel`] for budgeted configs: each config's budget
/// violation is reported in its own output slot, and a tripped budget never
/// aborts sibling configs — the worker that hit it just moves on to the
/// next work item.
///
/// `threads` is an upper bound: the call runs `min(threads, configs,
/// available_parallelism)` workers, since a fixpoint is CPU-bound and a
/// worker beyond the host's CPUs only adds a thread stack and allocator
/// arena. One worker solves on the calling thread.
pub fn try_solve_compiled_parallel(
    prog: &Program,
    constraints: &ConstraintSet,
    configs: &[AnalysisConfig],
    threads: usize,
) -> Vec<Result<AnalysisResult, SolveError>> {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = worker_count(threads, configs.len(), cpus);
    if workers == 1 {
        return configs
            .iter()
            .map(|c| try_solve_compiled(prog, constraints, c))
            .collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots: Vec<std::sync::Mutex<Option<Result<AnalysisResult, SolveError>>>> =
        configs.iter().map(|_| std::sync::Mutex::new(None)).collect();
    let credited: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                let slots = &slots;
                scope.spawn(move || {
                    let before = crate::solver::solves_on_thread();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(config) = configs.get(i) else { break };
                        let res = try_solve_compiled(prog, constraints, config);
                        *slots[i].lock().expect("result slot poisoned") = Some(res);
                    }
                    crate::solver::solves_on_thread() - before
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("solver worker panicked"))
            .sum()
    });
    crate::solver::credit_solves(credited);
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("every config solved")
        })
        .collect()
}

/// Solve workers for `configs` configs on a host with `cpus` CPUs: at most
/// `threads`, one per config and one per CPU, and at least one.
fn worker_count(threads: usize, configs: usize, cpus: usize) -> usize {
    threads.min(configs).min(cpus).max(1)
}

impl std::fmt::Debug for AnalysisSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalysisSession")
            .field("constraints", &self.constraints.len())
            .field("paths", &self.constraints.num_paths())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelKind;
    use structcast_constraints::compiles_on_thread;

    const SRC: &str = "struct S { int *s1; int *s2; } s;\n\
        int x, y, *p;\n\
        void f(void) { s.s1 = &x; s.s2 = &y; p = s.s1; }";

    #[test]
    fn compile_once_solve_many() {
        let prog = structcast_ir::lower_source(SRC).unwrap();
        let before = compiles_on_thread();
        let session = AnalysisSession::compile(&prog);
        let results = session.solve_all_kinds();
        assert_eq!(
            compiles_on_thread() - before,
            1,
            "4 solves must share one IR->constraint compilation"
        );
        assert_eq!(results.len(), 4);
        for (kind, res) in ModelKind::ALL.iter().zip(&results) {
            assert_eq!(res.kind, *kind);
            assert!(res.edge_count() > 0);
        }
        // CIS stays precise, Collapse-Always merges the fields.
        let names = |i: usize| results[i].points_to_names(&prog, "p");
        assert_eq!(names(2), vec!["x".to_string()]);
        assert_eq!(names(0), vec!["x".to_string(), "y".to_string()]);
    }

    #[test]
    fn solve_all_matches_sequential_solves_and_credits_the_caller() {
        let prog = structcast_ir::lower_source(SRC).unwrap();
        let session = AnalysisSession::compile(&prog);
        let configs = AnalysisConfig::default().for_all_kinds();
        let before = crate::solver::solves_on_thread();
        let seq = session.solve_all(&configs, 1);
        assert_eq!(crate::solver::solves_on_thread() - before, 4);
        // 64 exceeds the configs and the host's CPUs: capped, same answers.
        for threads in [4, 64] {
            let before = crate::solver::solves_on_thread();
            let par = session.solve_all(&configs, threads);
            assert_eq!(
                crate::solver::solves_on_thread() - before,
                4,
                "worker-thread solves must be credited to the caller"
            );
            for ((p, s), cfg) in par.iter().zip(&seq).zip(&configs) {
                assert_eq!(p.kind, cfg.model, "results must come back in config order");
                assert_eq!(p.edge_count(), s.edge_count(), "{}", cfg.model);
                assert_eq!(p.iterations, s.iterations, "{}", cfg.model);
                assert_eq!(p.stats, s.stats, "{}", cfg.model);
                assert_eq!(
                    p.edge_displays(&prog),
                    s.edge_displays(&prog),
                    "{}",
                    cfg.model
                );
            }
        }
    }

    #[test]
    fn solve_all_handles_more_threads_than_configs_and_duplicates() {
        let prog = structcast_ir::lower_source(SRC).unwrap();
        let session = AnalysisSession::compile(&prog);
        // Duplicate configs are solved independently; extra threads idle.
        let cfg = AnalysisConfig::new(ModelKind::Offsets);
        let configs = vec![cfg.clone(), cfg.clone(), cfg];
        let results = session.solve_all(&configs, 16);
        assert_eq!(results.len(), 3);
        let e = results[0].edge_count();
        assert!(results.iter().all(|r| r.edge_count() == e));
    }

    #[test]
    fn worker_count_is_bounded_by_threads_configs_and_cpus() {
        // (threads, configs, cpus) -> workers
        for (threads, configs, cpus, want) in [
            (0, 4, 8, 1),
            (1, 4, 8, 1),
            (4, 4, 8, 4),
            (4, 4, 2, 2),
            (64, 4, 8, 4),
            (64, 4, 2, 2),
            (64, 100, 16, 16),
            (8, 3, 16, 3),
            (4, 0, 8, 1),
            (4, 4, 1, 1),
        ] {
            assert_eq!(
                worker_count(threads, configs, cpus),
                want,
                "threads {threads}, configs {configs}, cpus {cpus}"
            );
        }
    }

    #[test]
    fn session_matches_independent_analyze() {
        let prog = structcast_ir::lower_source(SRC).unwrap();
        let session = AnalysisSession::compile(&prog);
        for kind in ModelKind::ALL {
            let cfg = AnalysisConfig::new(kind);
            let a = session.solve(&cfg);
            let b = crate::analysis::analyze(&prog, &cfg);
            assert_eq!(a.edge_count(), b.edge_count(), "{kind}");
            assert_eq!(a.iterations, b.iterations, "{kind}");
        }
    }

    #[test]
    fn from_parts_reuses_an_external_set(){
        let prog = structcast_ir::lower_source(SRC).unwrap();
        let cset = ConstraintSet::compile(&prog);
        let session = AnalysisSession::from_parts(&prog, cset);
        assert_eq!(session.constraints().len(), prog.stmts.len());
        assert!(session.solve(&AnalysisConfig::default()).edge_count() > 0);
        assert!(format!("{session:?}").contains("AnalysisSession"));
        assert!(std::ptr::eq(session.program(), &prog));
    }
}
