//! Cross-instance properties: the four instances form a precision ladder,
//! and that ordering must hold on arbitrary (generated) programs, not just
//! the worked examples.
//!
//! Key invariants checked here:
//!
//! * **CIS refines CoC fact-wise**: both use the same path locations, and
//!   every CIS `lookup`/`resolve` result is a subset of the CoC result, so
//!   the whole CIS fact set must be a subset of the CoC fact set.
//! * **Object-level coverage**: projecting facts to objects, the precise
//!   instances never discover an (object → object) edge that Collapse
//!   Always misses, and Offsets never finds one the portable instances
//!   miss (portable results are safe for *every* layout).
//! * **Determinism**: re-running an analysis yields identical results.

use std::collections::BTreeSet;
use structcast::{analyze, AnalysisConfig, AnalysisSession, Layout, ModelKind, Program};
use structcast_progen::{corpus, generate, GenConfig};

fn obj_edges(prog: &Program, kind: ModelKind, layout: Layout) -> BTreeSet<(u32, u32)> {
    let cfg = AnalysisConfig::new(kind).with_layout(layout);
    let res = analyze(prog, &cfg);
    res.facts
        .iter()
        .map(|(s, t)| (s.obj.0, t.obj.0))
        .collect()
}

/// Object edges restricted to *named-variable* sources: the user-visible
/// answers. Internal address temporaries may legitimately differ between
/// instances — e.g. `&(*p).f` through a mismatched cast can land in an
/// object's trailing padding, which the Offsets instance represents as a
/// concrete offset while the portable instances (per the paper's `lookup`)
/// have no field there at all. Loads through such addresses find nothing,
/// so named-variable facts still agree.
fn named_obj_edges(prog: &Program, kind: ModelKind, layout: Layout) -> BTreeSet<(u32, u32)> {
    let cfg = AnalysisConfig::new(kind).with_layout(layout);
    let res = analyze(prog, &cfg);
    res.facts
        .iter()
        .filter(|(s, _)| prog.object(s.obj).kind.is_named_variable())
        .map(|(s, t)| (s.obj.0, t.obj.0))
        .collect()
}

fn loc_edges(prog: &Program, kind: ModelKind) -> BTreeSet<(String, String)> {
    let res = analyze(prog, &AnalysisConfig::new(kind));
    res.facts
        .iter()
        .map(|(s, t)| (format!("{s:?}"), format!("{t:?}")))
        .collect()
}

fn test_programs() -> Vec<(String, Program)> {
    let mut out = Vec::new();
    for p in corpus() {
        out.push((
            p.name.to_string(),
            structcast::lower_source(p.source).unwrap(),
        ));
    }
    for seed in [11u64, 23, 37] {
        for ratio in [0.0, 0.5, 1.0] {
            let src = generate(&GenConfig::small(seed).with_cast_ratio(ratio));
            out.push((
                format!("gen-{seed}-{ratio}"),
                structcast::lower_source(&src).unwrap(),
            ));
        }
    }
    out
}

#[test]
fn cis_facts_are_subset_of_collapse_on_cast_facts() {
    for (name, prog) in test_programs() {
        let cis = loc_edges(&prog, ModelKind::CommonInitialSeq);
        let coc = loc_edges(&prog, ModelKind::CollapseOnCast);
        let extra: Vec<_> = cis.difference(&coc).take(5).collect();
        assert!(
            extra.is_empty(),
            "{name}: CIS found facts CoC missed: {extra:?}"
        );
    }
}

#[test]
fn object_level_refinement_ladder() {
    for (name, prog) in test_programs() {
        let ca = obj_edges(&prog, ModelKind::CollapseAlways, Layout::ilp32());
        let coc = obj_edges(&prog, ModelKind::CollapseOnCast, Layout::ilp32());
        let cis = obj_edges(&prog, ModelKind::CommonInitialSeq, Layout::ilp32());
        let cis_named = named_obj_edges(&prog, ModelKind::CommonInitialSeq, Layout::ilp32());
        let off_named = named_obj_edges(&prog, ModelKind::Offsets, Layout::ilp32());
        for (finer, coarser, label) in [
            (&coc, &ca, "CoC ⊆ CollapseAlways"),
            (&cis, &coc, "CIS ⊆ CoC"),
            (&off_named, &cis_named, "Offsets ⊆ CIS (named variables)"),
        ] {
            let extra: Vec<_> = finer.difference(coarser).take(5).collect();
            assert!(
                extra.is_empty(),
                "{name}: {label} violated; extra object edges {extra:?}"
            );
        }
    }
}

#[test]
fn offsets_under_any_layout_covered_by_portable_instances() {
    // The whole point of portability: portable results are safe for every
    // conforming layout, so each layout-specific result must be covered.
    for (name, prog) in test_programs().into_iter().take(12) {
        let cis = named_obj_edges(&prog, ModelKind::CommonInitialSeq, Layout::ilp32());
        for layout in [Layout::ilp32(), Layout::lp64(), Layout::packed32()] {
            let off = named_obj_edges(&prog, ModelKind::Offsets, layout.clone());
            let extra: Vec<_> = off.difference(&cis).take(5).collect();
            assert!(
                extra.is_empty(),
                "{name} under {}: offsets edges not covered by CIS: {extra:?}",
                layout.name
            );
        }
    }
}

#[test]
fn analysis_is_deterministic() {
    for (name, prog) in test_programs().into_iter().take(6) {
        for kind in ModelKind::ALL {
            let a = analyze(&prog, &AnalysisConfig::new(kind));
            let b = analyze(&prog, &AnalysisConfig::new(kind));
            assert_eq!(a.edge_count(), b.edge_count(), "{name} {kind}");
            assert_eq!(
                a.average_deref_size(&prog),
                b.average_deref_size(&prog),
                "{name} {kind}"
            );
            let ea: BTreeSet<String> =
                a.facts.iter().map(|(s, t)| format!("{s:?}->{t:?}")).collect();
            let eb: BTreeSet<String> =
                b.facts.iter().map(|(s, t)| format!("{s:?}->{t:?}")).collect();
            assert_eq!(ea, eb, "{name} {kind}");
        }
    }
}

/// The precision ladder on the *fuzz-harness-style* generated corpus,
/// solved through one session with multi-model parallelism: the ordering
/// properties must hold on the exact results the parallel layer hands
/// back, not only on independent sequential `analyze` calls.
#[test]
fn generated_corpus_ladder_holds_under_parallel_solving() {
    for seed in [0x5eed_0101u64, 0x5eed_0202, 0x5eed_0303, 0x5eed_0404] {
        for ratio in [0.4, 0.9] {
            let name = format!("gen-{seed:#x}-{ratio}");
            let mut cfg = GenConfig::small(seed).with_cast_ratio(ratio);
            cfg.malloc_ratio = 0.2;
            let src = generate(&cfg);
            let prog = structcast::lower_source(&src).unwrap();
            let session = AnalysisSession::compile(&prog);
            let configs = AnalysisConfig::default().for_all_kinds();
            let results = session.solve_all(&configs, configs.len());

            // Collapse-Always object edges over-approximate the CoC and
            // CIS projections (the paper's lattice, coarsest at the top).
            let proj = |i: usize| -> BTreeSet<(u32, u32)> {
                results[i]
                    .facts
                    .iter()
                    .map(|(s, t)| (s.obj.0, t.obj.0))
                    .collect()
            };
            let (ca, coc, cis) = (proj(0), proj(1), proj(2));
            for (finer, label) in [(&coc, "CoC"), (&cis, "CIS")] {
                let extra: Vec<_> = finer.difference(&ca).take(5).collect();
                assert!(
                    extra.is_empty(),
                    "{name}: {label} object edges outside Collapse-Always: {extra:?}"
                );
            }
            let extra: Vec<_> = cis.difference(&coc).take(5).collect();
            assert!(extra.is_empty(), "{name}: CIS ⊄ CoC: {extra:?}");

            // Per-deref average sizes are monotone down the ladder.
            let sizes: Vec<f64> = results
                .iter()
                .map(|r| r.average_deref_size(&prog))
                .collect();
            assert!(
                sizes[0] >= sizes[1] - 1e-9,
                "{name}: CollapseAlways {} < CoC {}",
                sizes[0],
                sizes[1]
            );
            assert!(
                sizes[1] >= sizes[2] - 1e-9,
                "{name}: CoC {} < CIS {}",
                sizes[1],
                sizes[2]
            );
        }
    }
}

#[test]
fn average_deref_sizes_follow_the_ladder() {
    // Weighted per-site sizes: Collapse-Always (expanded) must dominate the
    // field-sensitive instances on every program.
    for (name, prog) in test_programs() {
        let sizes: Vec<f64> = ModelKind::ALL
            .iter()
            .map(|k| analyze(&prog, &AnalysisConfig::new(*k)).average_deref_size(&prog))
            .collect();
        let (ca, coc, cis, _off) = (sizes[0], sizes[1], sizes[2], sizes[3]);
        assert!(
            ca >= coc - 1e-9,
            "{name}: CollapseAlways {ca} < CollapseOnCast {coc}"
        );
        assert!(coc >= cis - 1e-9, "{name}: CoC {coc} < CIS {cis}");
    }
}
