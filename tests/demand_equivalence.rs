//! Demand-vs-exhaustive equivalence harness.
//!
//! The demand mode's contract is *byte-equality*: for any queried pointer,
//! the sliced solve must report exactly the points-to set the exhaustive
//! solver reports, under every model. This harness cross-checks that
//! contract three ways:
//!
//! * 27 seeded `progen` programs (cast/malloc ladders like
//!   `fuzz_soundness`), querying **every** abstract object — temps,
//!   params, return slots included — under all 4 models;
//! * the cast-heavy corpus programs (the paper's Figure 4–6 rows),
//!   querying every named object under all 4 models;
//! * alias and MOD/REF demand queries spot-checked against the exhaustive
//!   answers on both program sources.
//!
//! Determinism: program `i` comes from a fixed function of `i`, so any
//! failure names a reproducible seed.

use structcast::demand::{DemandQuery, DemandResult};
use structcast::modref::mod_ref;
use structcast::{AnalysisConfig, AnalysisResult, AnalysisSession, ModelKind, ObjId, Program};
use structcast_progen::{casty_corpus, generate, GenConfig};

const PROGEN_PROGRAMS: usize = 27;

/// The generator shape for program `i`: seeds crossed with cast- and
/// malloc-ratio ladders, biased toward the casty corner where the models
/// disagree (and where a wrong slice would show).
fn eq_config(i: usize) -> GenConfig {
    let mut cfg = GenConfig::small(0xde3a_0000 + 257 * i as u64);
    cfg.functions = 4;
    cfg.stmts_per_function = 10;
    cfg.cast_ratio = [0.0, 0.3, 0.6, 1.0][i % 4];
    cfg.malloc_ratio = [0.0, 0.15, 0.3][i % 3];
    cfg
}

/// Demand answer == exhaustive answer, compared on the raw `Loc` sets (the
/// strongest form: same objects, same field representations, same order).
fn check_points_to(
    label: &str,
    prog: &Program,
    session: &AnalysisSession<'_>,
    full: &AnalysisResult,
    cfg: &AnalysisConfig,
    obj: ObjId,
) -> DemandResult {
    let d = session.solve_demand(&DemandQuery::PointsTo { obj }, cfg);
    assert_eq!(
        d.result.points_to(prog, obj),
        full.points_to(prog, obj),
        "{label}: demand points-to for `{}` (obj {obj:?}, model {}) diverged from exhaustive",
        prog.object(obj).name,
        cfg.model,
    );
    assert!(
        d.stats.slice_statements <= d.stats.total_statements,
        "{label}: slice bigger than the program?"
    );
    d
}

fn check_program(label: &str, src: &str, every: usize) {
    let prog = match structcast::lower_source(src) {
        Ok(p) => p,
        Err(e) => panic!("{label}: lowering failed: {e}"),
    };
    let session = AnalysisSession::compile(&prog);
    for kind in ModelKind::ALL {
        let cfg = AnalysisConfig::new(kind);
        let full = session.solve(&cfg);

        // Points-to: every `every`-th object (1 = all of them).
        for i in (0..prog.objects.len()).step_by(every) {
            check_points_to(label, &prog, &session, &full, &cfg, ObjId(i as u32));
        }

        // Alias: the first few object pairs with nonempty sets.
        let pointers: Vec<ObjId> = (0..prog.objects.len() as u32)
            .map(ObjId)
            .filter(|&o| !full.points_to(&prog, o).is_empty())
            .take(4)
            .collect();
        for (i, &a) in pointers.iter().enumerate() {
            for &b in &pointers[i + 1..] {
                let d = session.solve_demand(&DemandQuery::Alias { a, b }, &cfg);
                assert_eq!(
                    d.result.may_alias(&prog, a, b),
                    full.may_alias(&prog, a, b),
                    "{label}: demand alias `{}` ~ `{}` ({kind}) diverged",
                    prog.object(a).name,
                    prog.object(b).name,
                );
            }
        }

        // MOD/REF: every defined function's transitive sets.
        let full_mr = mod_ref(&prog, &full, true);
        for f in prog.functions.iter().filter(|f| f.defined) {
            let d = session.solve_demand(&DemandQuery::ModRef { func: f.id }, &cfg);
            assert_eq!(
                d.modref_of(&prog, f.id),
                full_mr.of(f.id),
                "{label}: demand MOD/REF for `{}` ({kind}) diverged",
                f.name,
            );
        }
    }
}

#[test]
fn progen_programs_demand_equals_exhaustive() {
    for i in 0..PROGEN_PROGRAMS {
        let cfg = eq_config(i);
        let src = generate(&cfg);
        check_program(&format!("progen[{i}] (seed={})", cfg.seed), &src, 1);
    }
}

#[test]
fn casty_corpus_demand_equals_exhaustive() {
    for p in casty_corpus() {
        // Corpus programs are bigger; stride the object list to keep the
        // run CI-friendly while still sampling temps and named state.
        check_program(&format!("corpus[{}]", p.name), p.source, 3);
    }
}

#[test]
fn corpus_named_globals_demand_equals_exhaustive() {
    // The queries users actually ask: named (non-temp) objects, exact.
    for p in casty_corpus().into_iter().take(4) {
        let prog = structcast::lower_source(p.source).unwrap();
        let session = AnalysisSession::compile(&prog);
        for kind in ModelKind::ALL {
            let cfg = AnalysisConfig::new(kind);
            let full = session.solve(&cfg);
            for (i, o) in prog.objects.iter().enumerate() {
                if o.name.contains('$') {
                    continue;
                }
                check_points_to(
                    &format!("corpus[{}]", p.name),
                    &prog,
                    &session,
                    &full,
                    &cfg,
                    ObjId(i as u32),
                );
            }
        }
    }
}
