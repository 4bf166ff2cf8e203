//! Property analysis tests: the framework's algebraic invariants must
//! hold on randomly generated programs (arbitrary seeds and casting
//! ratios), not just the corpus.
//!
//! Cases draw (seed, ratio) pairs from the deterministic [`Rng64`], so
//! the suite is hermetic and each case is reproducible from its index.

use structcast::models::make_model;
use structcast::{analyze, AnalysisConfig, CompatMode, FieldPath, Layout, Loc, ModelKind};
use structcast_progen::{generate, GenConfig};
use structcast_types::rng::Rng64;

fn gen_program(seed: u64, ratio: f64) -> structcast::Program {
    let src = generate(&GenConfig::small(seed).with_cast_ratio(ratio));
    structcast::lower_source(&src).expect("generated programs always lower")
}

/// Each case runs several full analyses; keep the count moderate.
const CASES: u64 = 24;

/// Yields `CASES` random (program-seed, cast-ratio) pairs.
fn case_params(salt: u64) -> Vec<(u64, f64)> {
    let mut rng = Rng64::seed_from_u64(0xA11A5 ^ salt);
    (0..CASES)
        .map(|_| {
            let seed = rng.gen_range(0..10_000) as u64;
            let pct = rng.gen_range(0..101) as f64;
            (seed, pct / 100.0)
        })
        .collect()
}

#[test]
fn precision_ladder_on_random_programs() {
    for (seed, ratio) in case_params(1) {
        let prog = gen_program(seed, ratio);
        let sizes: Vec<f64> = ModelKind::ALL
            .iter()
            .map(|k| analyze(&prog, &AnalysisConfig::new(*k)).average_deref_size(&prog))
            .collect();
        // CollapseAlways ≥ CollapseOnCast ≥ CIS (weighted per-site sizes).
        assert!(sizes[0] >= sizes[1] - 1e-9, "CA {} < CoC {}", sizes[0], sizes[1]);
        assert!(sizes[1] >= sizes[2] - 1e-9, "CoC {} < CIS {}", sizes[1], sizes[2]);
    }
}

#[test]
fn cis_facts_subset_of_coc_on_random_programs() {
    for (seed, ratio) in case_params(2) {
        let prog = gen_program(seed, ratio);
        let cis = analyze(&prog, &AnalysisConfig::new(ModelKind::CommonInitialSeq));
        let coc = analyze(&prog, &AnalysisConfig::new(ModelKind::CollapseOnCast));
        let coc_set: std::collections::HashSet<(Loc, Loc)> =
            coc.facts.iter().map(|(s, t)| (*s, *t)).collect();
        for (s, t) in cis.facts.iter() {
            assert!(
                coc_set.contains(&(*s, *t)),
                "CIS-only fact {} -> {}",
                s.display(&prog),
                t.display(&prog)
            );
        }
    }
}

#[test]
fn normalize_is_idempotent_for_every_object() {
    for (seed, _) in case_params(3) {
        let prog = gen_program(seed, 0.5);
        for kind in ModelKind::ALL {
            let model = make_model(kind, Layout::ilp32(), CompatMode::Structural);
            for i in 0..prog.objects.len() {
                let obj = structcast::ObjId(i as u32);
                let l1 = model.normalize(&prog, obj, &FieldPath::empty());
                // Re-normalizing the normalized path must be stable.
                if let Some(p) = l1.path(&prog) {
                    let l2 = model.normalize(&prog, obj, &FieldPath::from_steps(p.iter().copied()));
                    assert_eq!(&l1, &l2, "{kind} not idempotent");
                }
            }
        }
    }
}

#[test]
fn solver_is_deterministic_on_random_programs() {
    for (seed, _) in case_params(4) {
        let prog = gen_program(seed, 0.7);
        for kind in [ModelKind::CommonInitialSeq, ModelKind::Offsets] {
            let a = analyze(&prog, &AnalysisConfig::new(kind));
            let b = analyze(&prog, &AnalysisConfig::new(kind));
            assert_eq!(a.edge_count(), b.edge_count());
        }
    }
}

#[test]
fn offsets_facts_lie_within_objects() {
    for (seed, ratio) in case_params(5) {
        // Every offset-instance fact must name a position inside its
        // object's actual extent (Assumption-1 bookkeeping).
        let prog = gen_program(seed, ratio);
        let layout = Layout::ilp32();
        let res = analyze(
            &prog,
            &AnalysisConfig::new(ModelKind::Offsets).with_layout(layout.clone()),
        );
        for (s, t) in res.facts.iter() {
            for l in [s, t] {
                if let structcast::FieldRep::Off(o) = l.field {
                    let size = layout.size_of(&prog.types, prog.type_of(l.obj)).max(1);
                    assert!(
                        o < size,
                        "{} at offset {o} outside object of size {size}",
                        prog.object(l.obj).name
                    );
                }
            }
        }
    }
}

#[test]
fn steensgaard_covers_collapse_always_object_edges() {
    for (seed, _) in case_params(6) {
        // Unification merges aggressively: any (named pointer → object)
        // edge the inclusion Collapse-Always analysis finds must also be
        // found by Steensgaard.
        let prog = gen_program(seed, 0.4);
        let ca = analyze(&prog, &AnalysisConfig::new(ModelKind::CollapseAlways));
        let st = structcast::steensgaard::steensgaard(&prog);
        for (i, obj) in prog.objects.iter().enumerate() {
            if !obj.kind.is_named_variable() {
                continue;
            }
            let id = structcast::ObjId(i as u32);
            let ca_objs: std::collections::HashSet<u32> = ca
                .points_to(&prog, id)
                .into_iter()
                .map(|l| l.obj.0)
                .collect();
            if ca_objs.is_empty() {
                continue;
            }
            let st_objs: std::collections::HashSet<u32> = st
                .points_to_objects(id)
                .into_iter()
                .map(|o| o.0)
                .collect();
            for o in &ca_objs {
                assert!(
                    st_objs.contains(o),
                    "{}: inclusion found edge to {} that unification missed",
                    obj.name,
                    prog.object(structcast::ObjId(*o)).name
                );
            }
        }
    }
}

/// Every location a Collapse on Cast or CIS solve produces — each fact's
/// source and target, and each flagged location — is a leaf of its
/// object's type: its index is in range, and its path is the one the
/// path-walking reference enumerates at that index and normalizes to
/// itself. Over the corpus and random programs, with both arithmetic
/// modes and the stride refinement.
#[test]
fn leaf_locations_are_leaves_of_their_objects() {
    use structcast::{ArithMode, FieldRep};
    use structcast_types::{leaves, normalize_path};

    let corpus = structcast_progen::corpus()
        .iter()
        .map(|p| structcast::lower_source(p.source).expect("corpus programs lower"));
    let random = case_params(7).into_iter().map(|(seed, ratio)| gen_program(seed, ratio));
    for prog in corpus.chain(random) {
        for kind in [ModelKind::CollapseOnCast, ModelKind::CommonInitialSeq] {
            let modes = [
                (ArithMode::Spread, false),
                (ArithMode::Spread, true),
                (ArithMode::FlagUnknown, false),
            ];
            for (arith, stride) in modes {
                let cfg = AnalysisConfig::new(kind).with_arith_mode(arith).with_stride(stride);
                let res = analyze(&prog, &cfg);
                let facts = res.facts.iter().flat_map(|(s, t)| [s, t]);
                for l in facts.chain(&res.unknown) {
                    let FieldRep::Leaf(i) = l.field else {
                        panic!("{kind}: {} is not a leaf location", l.display(&prog));
                    };
                    let ty = prog.type_of(l.obj);
                    let all = leaves(&prog.types, ty);
                    let leaf = all.get(i as usize).unwrap_or_else(|| {
                        panic!("{kind}: leaf {i} of {} out of range", l.display(&prog))
                    });
                    assert_eq!(l.path(&prog), Some(leaf.steps()), "{kind}");
                    assert_eq!(&normalize_path(&prog.types, ty, leaf), leaf, "{kind}");
                }
            }
        }
    }
}
