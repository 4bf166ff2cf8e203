//! Equivalence suite: the delta-propagating interned solver must compute
//! *byte-identical* sorted edge sets to the original statement-set
//! semantics for every model, over the progen corpus and the hand-written
//! casty corpus.
//!
//! The reference implementation below is a deliberately naive chaotic
//! iteration: it sweeps **every** statement applying the seed solver's
//! rule bodies verbatim (full `points_to_vec` snapshots, no cursors, no
//! interning in the driver loop) until a whole sweep adds nothing. Both
//! solvers compute the least fixpoint of the same monotone rule system,
//! so any bookkeeping bug in the delta engine — a missed subscription, a
//! cursor advanced too far, a stale compiled operand — shows up as an
//! edge-set diff here.

use structcast::models::make_model;
use structcast::{
    lower_source, ArithMode, CompatMode, FactStore, FieldModel, FieldPath, Layout, Loc, ModelKind,
    ModelStats, Program, Solver, Stmt,
};
use structcast_ir::{Callee, FuncId, ObjId};
use structcast_progen::{casty_corpus, generate, GenConfig};
use std::collections::{BTreeSet, HashSet};

/// The seed solver's semantics, restated as chaotic iteration over the
/// statement set (plus call bindings synthesized into it).
struct Reference<'p> {
    prog: &'p Program,
    model: Box<dyn FieldModel>,
    facts: FactStore,
    stats: ModelStats,
    stmts: Vec<Stmt>,
    bound_calls: HashSet<(usize, FuncId)>,
    arith_mode: ArithMode,
    unknown: BTreeSet<Loc>,
}

impl<'p> Reference<'p> {
    fn new(prog: &'p Program, model: Box<dyn FieldModel>, arith_mode: ArithMode) -> Self {
        Reference {
            prog,
            model,
            facts: FactStore::new(),
            stats: ModelStats::default(),
            stmts: prog.stmts.clone(),
            bound_calls: HashSet::new(),
            arith_mode,
            unknown: BTreeSet::new(),
        }
    }

    fn norm(&self, obj: ObjId, path: &FieldPath) -> Loc {
        self.model.normalize(self.prog, obj, path)
    }

    fn norm_top(&self, obj: ObjId) -> Loc {
        self.norm(obj, &FieldPath::empty())
    }

    /// Declared pointee with the seed's per-call `char` scan fallback.
    fn pointee(&self, ptr: ObjId) -> structcast::TypeId {
        self.prog.pointee_of(ptr).unwrap_or_else(|| {
            let k = structcast_types::TypeKind::Int(structcast_types::IntKind::Char);
            (0..self.prog.types.len() as u32)
                .map(structcast::TypeId)
                .find(|t| self.prog.types.kind(*t) == &k)
                .unwrap_or_else(|| self.prog.type_of(ptr))
        })
    }

    fn copy_facts(&mut self, dst: &Loc, src: &Loc) {
        for t in self.facts.points_to_vec(src) {
            self.facts.insert(*dst, t);
        }
        if self.unknown.contains(src) {
            self.unknown.insert(*dst);
        }
    }

    fn process(&mut self, idx: usize) {
        let stmt = self.stmts[idx].clone();
        match stmt {
            Stmt::AddrOf { dst, src, path } => {
                let d = self.norm_top(dst);
                let t = self.norm(src, &path);
                self.facts.insert(d, t);
            }
            Stmt::AddrField { dst, ptr, path } => {
                let p = self.norm_top(ptr);
                let tau_p = self.pointee(ptr);
                let d = self.norm_top(dst);
                for tgt in self.facts.points_to_vec(&p) {
                    let mut results = Vec::new();
                    self.model
                        .lookup(self.prog, tau_p, &path, &tgt, &mut self.stats, &mut results);
                    for r in results {
                        self.facts.insert(d, r);
                    }
                }
            }
            Stmt::Copy { dst, src, path } => {
                let d = self.norm_top(dst);
                let s = self.norm(src, &path);
                let tau = self.prog.type_of(dst);
                let mut pairs = Vec::new();
                self.model.resolve(
                    self.prog,
                    &d,
                    &s,
                    tau,
                    &self.facts,
                    &mut self.stats,
                    &mut pairs,
                );
                for (dl, sl) in pairs {
                    self.copy_facts(&dl, &sl);
                }
            }
            Stmt::Load { dst, ptr } => {
                let p = self.norm_top(ptr);
                let d = self.norm_top(dst);
                let tau = self.prog.type_of(dst);
                for tgt in self.facts.points_to_vec(&p) {
                    let mut pairs = Vec::new();
                    self.model.resolve(
                        self.prog,
                        &d,
                        &tgt,
                        tau,
                        &self.facts,
                        &mut self.stats,
                        &mut pairs,
                    );
                    for (dl, sl) in pairs {
                        self.copy_facts(&dl, &sl);
                    }
                }
            }
            Stmt::Store { ptr, src } => {
                let p = self.norm_top(ptr);
                let s = self.norm_top(src);
                let tau_p = self.pointee(ptr);
                for tgt in self.facts.points_to_vec(&p) {
                    let mut pairs = Vec::new();
                    self.model.resolve(
                        self.prog,
                        &tgt,
                        &s,
                        tau_p,
                        &self.facts,
                        &mut self.stats,
                        &mut pairs,
                    );
                    for (dl, sl) in pairs {
                        self.copy_facts(&dl, &sl);
                    }
                }
            }
            Stmt::PtrArith { dst, src } => {
                let s = self.norm_top(src);
                let d = self.norm_top(dst);
                match self.arith_mode {
                    ArithMode::Spread => {
                        let pointee = self.prog.pointee_of(src);
                        for tgt in self.facts.points_to_vec(&s) {
                            let mut spread = Vec::new();
                            self.model.spread(self.prog, &tgt, pointee, &mut spread);
                            for l in spread {
                                self.facts.insert(d, l);
                            }
                        }
                    }
                    ArithMode::FlagUnknown => {
                        self.unknown.insert(d);
                    }
                }
            }
            Stmt::CopyAll { dst_ptr, src_ptr } => {
                let dp = self.norm_top(dst_ptr);
                let sp = self.norm_top(src_ptr);
                for dt in self.facts.points_to_vec(&dp) {
                    for st in self.facts.points_to_vec(&sp) {
                        let mut pairs = Vec::new();
                        self.model.resolve_all(
                            self.prog,
                            &dt,
                            &st,
                            &self.facts,
                            &mut self.stats,
                            &mut pairs,
                        );
                        for (dl, sl) in pairs {
                            self.copy_facts(&dl, &sl);
                        }
                    }
                }
            }
            Stmt::Call { callee, args, ret } => match callee {
                Callee::Direct(fid) => self.bind_call(idx, fid, &args, ret),
                Callee::Indirect(fp) => {
                    let p = self.norm_top(fp);
                    for tgt in self.facts.points_to_vec(&p) {
                        if let Some(fid) = self.prog.as_function(tgt.obj) {
                            self.bind_call(idx, fid, &args, ret);
                        }
                    }
                }
            },
        }
    }

    fn bind_call(&mut self, idx: usize, fid: FuncId, args: &[ObjId], ret: Option<ObjId>) {
        if !self.bound_calls.insert((idx, fid)) {
            return;
        }
        let f = self.prog.function(fid);
        for (i, &arg) in args.iter().enumerate() {
            if let Some(&param) = f.params.get(i) {
                self.stmts.push(Stmt::Copy {
                    dst: param,
                    src: arg,
                    path: FieldPath::empty(),
                });
            } else if let Some(va) = f.varargs {
                self.stmts.push(Stmt::Copy {
                    dst: va,
                    src: arg,
                    path: FieldPath::empty(),
                });
            }
        }
        if let (Some(r), Some(rs)) = (ret, f.ret_slot) {
            self.stmts.push(Stmt::Copy {
                dst: r,
                src: rs,
                path: FieldPath::empty(),
            });
        }
    }

    /// Chaotic iteration: sweep everything until a sweep changes nothing.
    fn run(mut self) -> (FactStore, BTreeSet<Loc>, HashSet<(usize, FuncId)>) {
        loop {
            let before = (
                self.facts.len(),
                self.unknown.len(),
                self.bound_calls.len(),
                self.stmts.len(),
            );
            let mut i = 0;
            while i < self.stmts.len() {
                self.process(i);
                i += 1;
            }
            let after = (
                self.facts.len(),
                self.unknown.len(),
                self.bound_calls.len(),
                self.stmts.len(),
            );
            if before == after {
                return (self.facts, self.unknown, self.bound_calls);
            }
        }
    }
}

/// All edges of a store as a sorted `(src, tgt)` list — the canonical form
/// both solvers must agree on byte-for-byte.
fn sorted_edges(facts: &FactStore) -> Vec<(Loc, Loc)> {
    let mut v: Vec<(Loc, Loc)> = facts.iter().map(|(s, t)| (*s, *t)).collect();
    v.sort();
    v
}

fn assert_equivalent(prog: &Program, kind: ModelKind, mode: ArithMode, what: &str) {
    let mk = || make_model(kind, Layout::ilp32(), CompatMode::Structural);
    let out = Solver::new(prog, mk()).with_arith_mode(mode).run();
    let (ref_facts, ref_unknown, ref_bound) =
        Reference::new(prog, mk(), mode).run();

    let got = sorted_edges(&out.facts);
    let want = sorted_edges(&ref_facts);
    assert_eq!(
        got.len(),
        want.len(),
        "{what}/{kind}: edge count {} vs reference {}",
        got.len(),
        want.len()
    );
    for (g, w) in got.iter().zip(want.iter()) {
        assert_eq!(g, w, "{what}/{kind}: first differing edge");
    }
    assert_eq!(out.unknown, ref_unknown, "{what}/{kind}: unknown set");
    assert_eq!(
        out.resolved_indirect_calls,
        ref_bound.len(),
        "{what}/{kind}: bound (site, callee) pairs"
    );
}

#[test]
fn casty_corpus_matches_reference_for_all_models() {
    for p in casty_corpus() {
        let prog = lower_source(p.source).expect("corpus program lowers");
        for kind in ModelKind::ALL {
            assert_equivalent(&prog, kind, ArithMode::Spread, p.name);
        }
    }
}

#[test]
fn progen_programs_match_reference_for_all_models() {
    for seed in [7u64, 97, 2026] {
        for ratio in [0.0, 0.5, 1.0] {
            let cfg = GenConfig::small(seed).with_cast_ratio(ratio);
            let src = generate(&cfg);
            let prog = lower_source(&src).expect("generated program lowers");
            let what = format!("progen(seed={seed}, r={ratio})");
            for kind in ModelKind::ALL {
                assert_equivalent(&prog, kind, ArithMode::Spread, &what);
            }
        }
    }
}

/// A store's sorted edge list rendered to bytes, for literal byte-identity
/// comparisons across solve paths.
fn edge_bytes(facts: &FactStore) -> Vec<u8> {
    let mut s = String::new();
    for (src, tgt) in sorted_edges(facts) {
        s.push_str(&format!("{src:?}->{tgt:?}\n"));
    }
    s.into_bytes()
}

/// The compile-once, solve-many session must (a) perform the IR→constraint
/// compilation exactly once for a 4-model run, and (b) produce edge sets
/// byte-identical to four independent `analyze` calls — over both corpus
/// and generated programs.
#[test]
fn session_compile_once_matches_independent_analyze() {
    use structcast::{analyze, AnalysisConfig, AnalysisSession};

    let corpus: Vec<(String, String)> = casty_corpus()
        .iter()
        .take(3)
        .map(|p| (p.name.to_string(), p.source.to_string()))
        .collect();
    let generated = (
        "progen(seed=11, r=0.5)".to_string(),
        generate(&GenConfig::small(11).with_cast_ratio(0.5)),
    );
    for (name, src) in corpus.into_iter().chain([generated]) {
        let prog = lower_source(&src).expect("program lowers");

        // Compile-once: the counter is thread-local, so only this test's
        // own compilations are visible here.
        let before = structcast::constraints::compiles_on_thread();
        let session = AnalysisSession::compile(&prog);
        let shared: Vec<_> = ModelKind::ALL
            .iter()
            .map(|kind| session.solve(&AnalysisConfig::new(*kind)))
            .collect();
        assert_eq!(
            structcast::constraints::compiles_on_thread() - before,
            1,
            "{name}: a 4-model session run must compile constraints exactly once"
        );

        for (kind, from_session) in ModelKind::ALL.iter().zip(&shared) {
            let independent = analyze(&prog, &AnalysisConfig::new(*kind));
            assert_eq!(
                edge_bytes(&from_session.facts),
                edge_bytes(&independent.facts),
                "{name}/{kind}: session vs independent analyze edge sets"
            );
            assert_eq!(
                from_session.iterations, independent.iterations,
                "{name}/{kind}: iteration counts"
            );
            assert_eq!(
                from_session.resolved_indirect_calls, independent.resolved_indirect_calls,
                "{name}/{kind}: indirect-call bindings"
            );
        }
    }
}

/// `AnalysisSession::solve` must honor every `ModelOptions` knob, not just
/// the defaults: for each non-default (layout, compat, stride) combination
/// the session path must produce edge sets byte-identical to a direct
/// `Solver::new(prog, make_model_with(...))` run. A specialization bug that
/// drops an option (e.g. always building the ilp32 model) shows up here as
/// a byte diff on the layout-sensitive Offsets model or the
/// compat-sensitive CIS/cast models.
#[test]
fn session_solve_honors_non_default_model_options() {
    use structcast::models::{make_model_with, ModelOptions};
    use structcast::{AnalysisConfig, AnalysisSession};

    let option_grid = [
        ("lp64", Layout::lp64(), CompatMode::Structural, false),
        ("packed32", Layout::packed32(), CompatMode::Structural, false),
        ("tag-based", Layout::ilp32(), CompatMode::TagBased, false),
        ("stride", Layout::ilp32(), CompatMode::Structural, true),
        ("lp64+tag+stride", Layout::lp64(), CompatMode::TagBased, true),
    ];
    let programs: Vec<(String, String)> = casty_corpus()
        .iter()
        .take(2)
        .map(|p| (p.name.to_string(), p.source.to_string()))
        .chain([(
            "progen(seed=23, r=0.7)".to_string(),
            generate(&GenConfig::small(23).with_cast_ratio(0.7)),
        )])
        .collect();
    for (name, src) in &programs {
        let prog = lower_source(src).expect("program lowers");
        let session = AnalysisSession::compile(&prog);
        for (what, layout, compat, stride) in &option_grid {
            for kind in ModelKind::ALL {
                let cfg = AnalysisConfig::new(kind)
                    .with_layout(layout.clone())
                    .with_compat(*compat)
                    .with_stride(*stride);
                let from_session = session.solve(&cfg);
                let opts = ModelOptions {
                    layout: layout.clone(),
                    compat: *compat,
                    arith_stride: *stride,
                };
                let direct = Solver::new(&prog, make_model_with(kind, &opts)).run();
                assert_eq!(
                    edge_bytes(&from_session.facts),
                    edge_bytes(&direct.facts),
                    "{name}/{kind}/{what}: session vs direct solver edge sets"
                );
                assert_eq!(
                    from_session.iterations, direct.iterations,
                    "{name}/{kind}/{what}: iteration counts"
                );
            }
        }
    }
}

#[test]
fn flag_unknown_mode_matches_reference() {
    let cfg = GenConfig::small(42).with_cast_ratio(0.6);
    let src = generate(&cfg);
    let prog = lower_source(&src).expect("generated program lowers");
    for kind in ModelKind::ALL {
        assert_equivalent(&prog, kind, ArithMode::FlagUnknown, "flag-unknown");
    }
}
