//! Generative differential soundness harness.
//!
//! A seeded loop generates cast/struct-heavy programs with `progen`, runs
//! each one concretely under the `interp` pointer-provenance interpreter,
//! and asserts that every pointer fact the execution actually produced is
//! covered by **all four** model instances' points-to sets. The models are
//! solved through one shared [`AnalysisSession`] with multi-model
//! parallelism, so the harness also exercises the parallel solving layer
//! end to end on every program.
//!
//! Determinism: program `i` is generated from a fixed function of `i`, so
//! a failure report's seed reproduces the exact program. The iteration
//! count defaults to 100 and scales with `SCAST_FUZZ_ITERS` (long local
//! runs).

use std::collections::HashSet;
use structcast::{
    AnalysisConfig, AnalysisSession, DemandQuery, FieldRep, Layout, ModelKind, ObjId, Program,
};
use structcast_interp::{run_source_with_budget, ConcreteFact, ConcreteId};
use structcast_progen::{generate, GenConfig};

fn iterations() -> usize {
    std::env::var("SCAST_FUZZ_ITERS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(100)
}

/// The generator shape for fuzz program `i`: a deterministic sweep over
/// seeds crossed with cast- and malloc-ratio ladders, biased toward the
/// cast-heavy corner the paper's models disagree on.
fn fuzz_config(i: usize) -> GenConfig {
    let mut cfg = GenConfig::small(0x5eed_0000 + 131 * i as u64);
    // Keep each program small enough that 100 interpret+4-solve rounds
    // stay CI-friendly; the shapes still cover structs, casts, struct
    // pointers, and heap allocation.
    cfg.functions = 4;
    cfg.stmts_per_function = 10;
    cfg.cast_ratio = [0.0, 0.3, 0.6, 1.0][i % 4];
    cfg.malloc_ratio = [0.0, 0.15, 0.3][i % 3];
    cfg
}

/// Maps a concrete identity to the static object, if it has one.
fn static_obj(prog: &Program, id: &ConcreteId) -> Option<ObjId> {
    match id {
        ConcreteId::Var(name) => prog.object_by_name(name),
        ConcreteId::Heap(span_start) => prog.heap_object_at(*span_start),
        ConcreteId::Func(name) => prog.function_by_name(name).map(|f| f.obj),
        ConcreteId::Str => None, // string literals are not name-matched
    }
}

/// Checks one generated program; returns the number of concrete facts it
/// contributed (0 = the run produced nothing checkable).
fn check_one(label: &str, src: &str) -> usize {
    let run = run_source_with_budget(src, 1_000_000)
        .unwrap_or_else(|e| panic!("{label}: interpreter setup failed: {e}\n{src}"));
    if run.facts.is_empty() {
        return 0;
    }
    let prog = structcast::lower_source(src)
        .unwrap_or_else(|e| panic!("{label}: lowering failed: {e}"));
    let layout = Layout::ilp32();

    let resolved: Vec<(&ConcreteFact, ObjId, ObjId)> = run
        .facts
        .iter()
        .filter_map(|f| {
            let s = static_obj(&prog, &f.src.0)?;
            let t = static_obj(&prog, &f.tgt.0)?;
            Some((f, s, t))
        })
        .collect();

    // Compile once, solve the 4 models concurrently: the determinism of
    // the parallel layer is what lets a failure here be attributed to a
    // model rather than to scheduling.
    let session = AnalysisSession::compile(&prog);
    let configs: Vec<AnalysisConfig> = AnalysisConfig::default()
        .with_layout(layout.clone())
        .for_all_kinds();
    let results = session.solve_all(&configs, configs.len());

    for res in &results {
        let kind = res.kind;
        let static_objs: HashSet<(String, String)> = res
            .facts
            .iter()
            .map(|(a, b)| {
                (
                    prog.object(a.obj).name.clone(),
                    prog.object(b.obj).name.clone(),
                )
            })
            .collect();
        let static_offsets: HashSet<(String, u64, String, u64)> = res
            .facts
            .iter()
            .filter_map(|(a, b)| match (&a.field, &b.field) {
                (FieldRep::Off(ao), FieldRep::Off(bo)) => Some((
                    prog.object(a.obj).name.clone(),
                    *ao,
                    prog.object(b.obj).name.clone(),
                    *bo,
                )),
                _ => None,
            })
            .collect();

        for (f, s, t) in &resolved {
            let sname = prog.object(*s).name.clone();
            let tname = prog.object(*t).name.clone();
            assert!(
                static_objs.contains(&(sname.clone(), tname.clone())),
                "{label} under {kind}: concrete fact {sname}(+{}) -> {tname}(+{}) \
                 not covered at object level",
                f.src.1,
                f.tgt.1
            );
            if kind == ModelKind::Offsets {
                let soff = layout.canonical_offset(&prog.types, prog.type_of(*s), f.src.1);
                let toff = layout.canonical_offset(&prog.types, prog.type_of(*t), f.tgt.1);
                assert!(
                    static_offsets.contains(&(sname.clone(), soff, tname.clone(), toff)),
                    "{label} under Offsets: concrete fact {sname}+{soff} -> {tname}+{toff} \
                     (raw +{} -> +{}) not covered at offset level",
                    f.src.1,
                    f.tgt.1
                );
            }
        }
    }
    resolved.len()
}

#[test]
fn generated_programs_are_covered_by_all_models() {
    let n = iterations();
    let mut with_facts = 0usize;
    let mut total_facts = 0usize;
    for i in 0..n {
        let cfg = fuzz_config(i);
        let src = generate(&cfg);
        let facts = check_one(&format!("fuzz[{i}] (seed={})", cfg.seed), &src);
        if facts > 0 {
            with_facts += 1;
            total_facts += facts;
        }
    }
    // The harness is only meaningful if the generator/interpreter combo
    // actually produces pointer traffic; guard against silent decay.
    assert!(
        with_facts * 2 >= n,
        "only {with_facts}/{n} generated programs produced concrete pointer \
         facts — generator or interpreter regressed"
    );
    assert!(
        total_facts >= n,
        "suspiciously few concrete facts ({total_facts}) across {n} programs"
    );
}

/// Demand-mode arm: for each seeded program, the sliced demand solve must
/// return the exact exhaustive answer for 3 deterministic pointers under
/// all 4 model instances. This fuzzes the slicing layer (reachability,
/// forced roots, address-taken closure) against the same generator the
/// coverage harness uses — a slice that drops a needed constraint shows
/// up as a missing target here long before a user query would hit it.
#[test]
fn demand_answers_equal_exhaustive_under_all_models() {
    let n = iterations();
    let mut queried = 0usize;
    for i in 0..n {
        let cfg = fuzz_config(i);
        let src = generate(&cfg);
        let label = format!("fuzz-demand[{i}] (seed={})", cfg.seed);
        let prog = structcast::lower_source(&src)
            .unwrap_or_else(|e| panic!("{label}: lowering failed: {e}"));
        let session = AnalysisSession::compile(&prog);
        let configs: Vec<AnalysisConfig> = AnalysisConfig::default()
            .with_layout(Layout::ilp32())
            .for_all_kinds();
        let results = session.solve_all(&configs, configs.len());
        // 3 deterministic pointers: the first named variables (in object
        // order) whose exhaustive set is nonempty under any model —
        // nonemptiness keeps the comparison meaningful, object order
        // keeps a failing seed reproducible.
        let pointers: Vec<ObjId> = (0..prog.objects.len() as u32)
            .map(ObjId)
            .filter(|&o| {
                prog.object(o).kind.is_named_variable()
                    && results.iter().any(|r| !r.points_to(&prog, o).is_empty())
            })
            .take(3)
            .collect();
        for (config, full) in configs.iter().zip(&results) {
            for &obj in &pointers {
                let d = session.solve_demand(&DemandQuery::PointsTo { obj }, config);
                assert_eq!(
                    d.result.points_to(&prog, obj),
                    full.points_to(&prog, obj),
                    "{label} under {:?}: demand diverged from exhaustive for `{}`",
                    full.kind,
                    prog.object(obj).name
                );
                queried += 1;
            }
        }
    }
    assert!(
        queried >= n,
        "suspiciously few demand queries ({queried}) across {n} programs"
    );
}
