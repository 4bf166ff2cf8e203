//! Solve budgets: tripping a budget yields a typed error, completed
//! budgeted runs are identical to unbudgeted ones, and a tripped budget
//! never corrupts the session it ran in.

use std::time::Duration;
use structcast::{
    lower_source, try_analyze, AnalysisConfig, AnalysisResult, Budget, ModelKind, Program,
    SolveError,
};
use structcast_progen::{generate, GenConfig};

/// A program heavy enough that every model derives well past one edge.
fn heavy() -> Program {
    lower_source(&generate(&GenConfig::medium(11))).expect("progen output lowers")
}

fn config(model: ModelKind, budget: Budget) -> AnalysisConfig {
    AnalysisConfig::new(model).with_budget(budget)
}

#[test]
fn edge_limit_is_identical_at_every_thread_count() {
    let prog = heavy();
    for model in ModelKind::ALL {
        let err = try_analyze(&prog, &config(model, Budget::unlimited().with_max_edges(1)))
            .expect_err("one edge cannot fit any model's fixpoint");
        assert_eq!(err, SolveError::EdgeLimit { limit: 1 }, "{model:?}");
    }
}

#[test]
fn zero_deadline_fails_without_corrupting_the_session() {
    let prog = heavy();
    let session = structcast::AnalysisSession::compile(&prog);
    let dead = config(
        ModelKind::CommonInitialSeq,
        Budget::unlimited().with_deadline_in(Duration::ZERO),
    );
    let err = session.try_solve(&dead).expect_err("zero deadline trips instantly");
    assert_eq!(err, SolveError::DeadlineExceeded);
    // The compiled session is untouched by the failed attempt: a normal
    // solve still succeeds and matches a fresh analysis.
    let ok = session
        .try_solve(&AnalysisConfig::new(ModelKind::CommonInitialSeq))
        .expect("unbudgeted solve succeeds after failures");
    let fresh = try_analyze(&prog, &AnalysisConfig::new(ModelKind::CommonInitialSeq)).unwrap();
    assert_eq!(edges(&prog, &ok), edges(&prog, &fresh));
}

fn edges(prog: &Program, res: &AnalysisResult) -> Vec<(String, String)> {
    res.edge_displays(prog)
}

#[test]
fn completed_budgeted_runs_match_unbudgeted_ones_exactly() {
    let prog = heavy();
    for model in ModelKind::ALL {
        let free = try_analyze(&prog, &AnalysisConfig::new(model)).unwrap();
        // A budget generous enough to complete must not perturb the result:
        // checks are read-only, so the edge set is identical byte for byte.
        let roomy = Budget::unlimited()
            .with_max_edges(free.edge_count())
            .with_deadline_in(Duration::from_secs(600));
        let budgeted = try_analyze(&prog, &config(model, roomy))
            .expect("budget exactly at the fixpoint size completes");
        assert_eq!(edges(&prog, &free), edges(&prog, &budgeted), "{model:?}");
        // One edge fewer and the same run trips the limit instead.
        let tight = Budget::unlimited().with_max_edges(free.edge_count() - 1);
        let err = try_analyze(&prog, &config(model, tight))
            .expect_err("one edge under the fixpoint size trips");
        assert_eq!(
            err,
            SolveError::EdgeLimit { limit: free.edge_count() - 1 },
            "{model:?}"
        );
    }
}

#[test]
fn a_pre_set_cancel_flag_stops_the_run() {
    let prog = heavy();
    let budget = Budget::unlimited();
    budget.cancel_handle().store(true, std::sync::atomic::Ordering::Relaxed);
    let err = try_analyze(&prog, &config(ModelKind::Offsets, budget))
        .expect_err("a cancelled run never completes");
    assert_eq!(err, SolveError::Cancelled);
}

#[test]
fn budget_errors_skip_only_their_own_config_in_solve_all() {
    let prog = heavy();
    let session = structcast::AnalysisSession::compile(&prog);
    let configs = [
        AnalysisConfig::new(ModelKind::CollapseAlways),
        config(ModelKind::CollapseOnCast, Budget::unlimited().with_max_edges(1)),
        AnalysisConfig::new(ModelKind::Offsets),
    ];
    let results = session.try_solve_all(&configs, 2);
    assert!(results[0].is_ok(), "sibling before the failure survives");
    assert_eq!(results[1].as_ref().err(), Some(&SolveError::EdgeLimit { limit: 1 }));
    assert!(results[2].is_ok(), "sibling after the failure survives");
}
