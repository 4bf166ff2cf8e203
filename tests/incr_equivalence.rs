//! Incremental-vs-cold equivalence harness.
//!
//! The incremental pipeline's contract is *byte-equality*: after any
//! source edit, `diff_programs` + `compile_incremental` +
//! `resolve_incremental` must produce exactly the constraint set and
//! exactly the solved edge set a cold compile-and-solve of the edited
//! program produces — under every model. This harness checks the contract
//! two ways:
//!
//! * **Seeded edit traces** over `progen` programs: chains of
//!   single-function edits (retargets, inserts, swaps, dups, constant
//!   changes) where each step re-solves incrementally *from the previous
//!   incremental result* — so translation errors would compound and show;
//! * **Corpus programs** (all 20, including the 12 cast-heavy ones):
//!   identity updates plus appended-function edits, exercising the
//!   added-object paths on hand-written program shapes the generator
//!   doesn't produce.
//!
//! Determinism: every trace names its seed, so failures reproduce.

use structcast::incr::resolve_incremental;
use structcast::{
    compile_incremental, diff_programs, AnalysisConfig, AnalysisResult, ConstraintSet, ModelKind,
    Program,
};
use structcast_progen::{corpus, edit_trace, generate, GenConfig};

/// Asserts the full incremental contract for one `old -> new` edit under
/// one config, returning the incremental result for chaining.
fn check_edit(
    label: &str,
    old_prog: &Program,
    old_set: &ConstraintSet,
    old_res: &AnalysisResult,
    new_src: &str,
    cfg: &AnalysisConfig,
) -> (Program, ConstraintSet, AnalysisResult) {
    let new_prog = structcast_ir::lower_source(new_src)
        .unwrap_or_else(|e| panic!("{label}: edited source must lower: {e}"));
    let diff = diff_programs(old_prog, &new_prog);
    let (new_set, _reuse) = compile_incremental(old_prog, old_set, &new_prog, &diff);

    // Layer 1: the reused constraint set is byte-identical to a cold
    // compile of the new program.
    let cold_set = ConstraintSet::compile(&new_prog);
    assert_eq!(
        new_set.dump(&new_prog),
        cold_set.dump(&new_prog),
        "{label}: incremental compile diverged from cold"
    );

    // Layer 2: the seeded re-solve is byte-identical to a cold solve.
    let inc = resolve_incremental(old_prog, old_set, old_res, &new_prog, &new_set, &diff, cfg)
        .unwrap_or_else(|e| panic!("{label}: incremental solve failed: {e}"));
    let cold = structcast::solve_compiled(&new_prog, &cold_set, cfg);
    assert_eq!(
        inc.result.edge_displays(&new_prog),
        cold.edge_displays(&new_prog),
        "{label}: incremental edges diverged from cold (stats {:?})",
        inc.stats
    );
    assert_eq!(
        inc.result.call_edges, cold.call_edges,
        "{label}: call edges diverged"
    );
    assert_eq!(
        inc.result.unknown, cold.unknown,
        "{label}: unknown sets diverged"
    );
    (new_prog, new_set, inc.result)
}

fn check_trace(label: &str, base: &str, seed: u64, steps: usize, kind: ModelKind) {
    let cfg = AnalysisConfig::new(kind);
    let mut prog = structcast_ir::lower_source(base).unwrap();
    let mut set = ConstraintSet::compile(&prog);
    let mut res = structcast::solve_compiled(&prog, &set, &cfg);
    for (k, step) in edit_trace(base, seed, steps).iter().enumerate() {
        let step_label = format!(
            "{label} seed={seed} step={k} ({} in {}) model={kind}",
            step.kind.label(),
            step.function
        );
        // Chain: the incremental result becomes the next step's baseline.
        (prog, set, res) = check_edit(&step_label, &prog, &set, &res, &step.source, &cfg);
    }
}

#[test]
fn progen_traces_match_cold_all_models() {
    for (i, kind) in ModelKind::ALL.into_iter().enumerate() {
        let mut gen = GenConfig::small(0x1ec5_0000 + i as u64);
        gen.functions = 5;
        gen.stmts_per_function = 10;
        gen.cast_ratio = [0.0, 0.4, 0.8, 1.0][i % 4];
        let base = generate(&gen);
        check_trace("progen", &base, 11 + i as u64, 6, kind);
    }
}

#[test]
fn progen_casty_trace_matches_cold() {
    let base = generate(&GenConfig::small(0xCA57).with_cast_ratio(1.0));
    for kind in ModelKind::ALL {
        check_trace("casty", &base, 23, 4, kind);
    }
}

#[test]
fn progen_malloc_heavy_trace_matches_cold() {
    let mut gen = GenConfig::small(0xA110C);
    gen.malloc_ratio = 0.9;
    gen.functions = 5;
    let base = generate(&gen);
    for kind in ModelKind::ALL {
        check_trace("mallocy", &base, 31, 4, kind);
    }
}

/// Corpus programs get identity updates and appended-function edits: the
/// hand-written shapes (unions, void* callbacks, intrusive lists) cover
/// object kinds the generator never emits.
#[test]
fn corpus_identity_and_append_match_cold() {
    // Fresh names that no corpus program uses.
    const APPEND: &str = "\nint zz_x; int *zz_p;\nvoid zz_edit(void) { zz_p = &zz_x; }\n";
    for cp in corpus() {
        let prog = structcast_ir::lower_source(cp.source).unwrap();
        let set = ConstraintSet::compile(&prog);
        for kind in ModelKind::ALL {
            let cfg = AnalysisConfig::new(kind);
            let res = structcast::solve_compiled(&prog, &set, &cfg);
            // Identity edit: everything must be reused, nothing retracted.
            let diff = diff_programs(&prog, &prog);
            let (iset, _) = compile_incremental(&prog, &set, &prog, &diff);
            let inc = resolve_incremental(&prog, &set, &res, &prog, &iset, &diff, &cfg).unwrap();
            assert_eq!(
                inc.result.edge_displays(&prog),
                res.edge_displays(&prog),
                "{} identity ({kind})",
                cp.name
            );
            assert_eq!(inc.stats.retracted_edges, 0, "{} identity ({kind})", cp.name);
            assert_eq!(inc.stats.dirty_statements, 0, "{} identity ({kind})", cp.name);
            // Appended function: new globals + function, old facts survive.
            let label = format!("{} append ({kind})", cp.name);
            let new_src = format!("{}{APPEND}", cp.source);
            check_edit(&label, &prog, &set, &res, &new_src, &cfg);
        }
    }
}

/// Region locality: over a chained live-editing trace on a medium
/// program, single-function edits must touch well under 20% of the
/// statements on average (the headline incremental claim, asserted
/// end-to-end rather than only in the bench). Each step diffs against
/// the previous step's program — one edit per measured update, as the
/// server's `update` op sees them.
#[test]
fn single_function_edits_stay_local_on_medium() {
    let base = generate(&GenConfig::medium(0x10CA1));
    let cfg = AnalysisConfig::default();
    let mut prog = structcast_ir::lower_source(&base).unwrap();
    let mut set = ConstraintSet::compile(&prog);
    let mut res = structcast::solve_compiled(&prog, &set, &cfg);
    let mut ratios = Vec::new();
    for step in edit_trace(&base, 41, 12) {
        let new_prog = structcast_ir::lower_source(&step.source).unwrap();
        let diff = diff_programs(&prog, &new_prog);
        let (new_set, _) = compile_incremental(&prog, &set, &new_prog, &diff);
        let inc = resolve_incremental(&prog, &set, &res, &new_prog, &new_set, &diff, &cfg).unwrap();
        assert!(inc.stats.fallback.is_none(), "{:?}", inc.stats);
        assert!(inc.stats.reused_fns > 0, "{:?}", inc.stats);
        ratios.push(inc.stats.region_statements as f64 / inc.stats.total_statements.max(1) as f64);
        (prog, set, res) = (new_prog, new_set, inc.result);
    }
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    assert!(
        mean < 0.20,
        "single-function edits should re-run <20% of statements on average, got {mean:.3} ({ratios:?})"
    );
}
