//! MOD/REF equivalence harness.
//!
//! [`mod_ref`] condenses the call graph into strongly connected components
//! and propagates dense object bitsets callees first, in one pass. The
//! oracle below is the earlier round-based algorithm, kept verbatim: it
//! re-walks every `(caller, callee)` edge until no set grows. Both must
//! report the same sets for every function, under every instance, with and
//! without `transitive`, on:
//!
//! * every corpus program;
//! * seeded progen medium programs at cast ratios 0, 0.5 and 1;
//! * hand-written call-graph shapes: self-recursion, a two-function
//!   mutual-recursion component, a cycle closed through a function
//!   pointer, and a caller whose only effects are inherited.
//!
//! A last test runs the transitive pass over a 20 000-deep call chain on a
//! small stack, which a recursive SCC walk could not survive.

use std::collections::{BTreeMap, BTreeSet};
use structcast::modref::{mod_ref, FnModRef, ModRef};
use structcast::{AnalysisConfig, AnalysisResult, FuncId, ModelKind, ObjId, Program, Stmt};
use structcast_ir::ObjKind;
use structcast_progen::{corpus, generate, GenConfig};

fn is_stateful(prog: &Program, obj: ObjId) -> bool {
    matches!(
        prog.object(obj).kind,
        ObjKind::Global | ObjKind::Local(_) | ObjKind::Param(_, _) | ObjKind::Heap(_)
    )
}

/// The round-based MOD/REF algorithm `mod_ref` replaced, as the oracle.
fn oracle(prog: &Program, result: &AnalysisResult, transitive: bool) -> BTreeMap<FuncId, FnModRef> {
    let mut per_fn: BTreeMap<FuncId, FnModRef> = BTreeMap::new();
    let mut calls: BTreeSet<(FuncId, FuncId)> = BTreeSet::new();

    // Pointer targets of `ptr`, restricted to stateful objects.
    let targets = |ptr: ObjId| -> Vec<ObjId> {
        result
            .points_to(prog, ptr)
            .into_iter()
            .map(|l| l.obj)
            .filter(|o| is_stateful(prog, *o))
            .collect()
    };

    for (i, s) in prog.stmts.iter().enumerate() {
        let Some(f) = prog.stmt_funcs[i] else {
            continue; // global initializers belong to no function
        };
        let entry = per_fn.entry(f).or_default();
        match s {
            Stmt::Copy { dst, src, .. } => {
                // Direct effects on named state; also recover direct call
                // edges from parameter/return bindings.
                if is_stateful(prog, *dst) {
                    entry.mods.insert(*dst);
                }
                if is_stateful(prog, *src) {
                    entry.refs.insert(*src);
                }
                match prog.object(*dst).kind {
                    ObjKind::Param(callee, _) | ObjKind::VarArgs(callee) if callee != f => {
                        calls.insert((f, callee));
                    }
                    _ => {}
                }
                if let ObjKind::Ret(callee) = prog.object(*src).kind {
                    if callee != f {
                        calls.insert((f, callee));
                    }
                }
            }
            Stmt::AddrOf { src, .. } => {
                // Taking an address is not an access, but reading a field
                // value in form 3 was already covered; nothing here.
                let _ = src;
            }
            Stmt::AddrField { .. } => {}
            Stmt::Load { ptr, .. } => {
                for t in targets(*ptr) {
                    entry.refs.insert(t);
                }
            }
            Stmt::Store { ptr, .. } => {
                for t in targets(*ptr) {
                    entry.mods.insert(t);
                }
            }
            Stmt::PtrArith { src, .. } => {
                if is_stateful(prog, *src) {
                    entry.refs.insert(*src);
                }
            }
            Stmt::CopyAll { dst_ptr, src_ptr } => {
                for t in targets(*dst_ptr) {
                    entry.mods.insert(t);
                }
                for t in targets(*src_ptr) {
                    entry.refs.insert(t);
                }
            }
            Stmt::Call { .. } => {}
        }
    }

    // Direct call edges recorded during lowering (covers calls that bind
    // nothing, e.g. `void f(void)`).
    for (caller, callee) in &prog.direct_calls {
        if let Some(c) = caller {
            if c != callee {
                calls.insert((*c, *callee));
            }
        }
    }

    // Indirect call edges discovered by the solver.
    for (sid, callee) in &result.call_edges {
        if let Some(f) = prog.stmt_funcs[sid.0 as usize] {
            if f != *callee {
                calls.insert((f, *callee));
            }
        }
    }

    if transitive {
        // Propagate callee effects to callers to a fixpoint (the call
        // graph is small; a simple iteration suffices).
        loop {
            let mut changed = false;
            for (caller, callee) in &calls {
                let callee_sets = per_fn.get(callee).cloned().unwrap_or_default();
                let entry = per_fn.entry(*caller).or_default();
                for m in callee_sets.mods {
                    changed |= entry.mods.insert(m);
                }
                for r in callee_sets.refs {
                    changed |= entry.refs.insert(r);
                }
            }
            if !changed {
                break;
            }
        }
    }

    // Drop each function's own locals/params/temps from its public sets:
    // callers cannot observe them (heap objects stay).
    for (f, sets) in per_fn.iter_mut() {
        let keep = |o: &ObjId| match prog.object(*o).kind {
            ObjKind::Local(owner) | ObjKind::Param(owner, _) => owner != *f,
            _ => true,
        };
        sets.mods.retain(keep);
        sets.refs.retain(keep);
    }

    per_fn
}

/// `mod_ref` == oracle for every function, instance and `transitive`
/// value; returns the transitive CIS answer for further assertions.
fn check_program(label: &str, src: &str) -> (Program, ModRef) {
    let prog = structcast::lower_source(src).unwrap_or_else(|e| panic!("{label}: {e}"));
    let mut cis = None;
    for kind in ModelKind::ALL {
        let res = structcast::analyze(&prog, &AnalysisConfig::new(kind));
        for transitive in [false, true] {
            let want = oracle(&prog, &res, transitive);
            let got = mod_ref(&prog, &res, transitive);
            for f in &prog.functions {
                assert_eq!(
                    got.of(f.id),
                    want.get(&f.id).cloned().unwrap_or_default(),
                    "{label}: `{}` ({kind}, transitive={transitive})",
                    f.name,
                );
            }
            let listed: BTreeMap<FuncId, FnModRef> =
                got.iter().map(|(f, s)| (*f, s.clone())).collect();
            assert_eq!(
                listed, want,
                "{label}: iter() ({kind}, transitive={transitive})"
            );
            if kind == ModelKind::CommonInitialSeq && transitive {
                cis = Some(got);
            }
        }
    }
    (prog, cis.expect("CIS is one of the instances"))
}

fn names(prog: &Program, set: &BTreeSet<ObjId>) -> BTreeSet<String> {
    set.iter().map(|o| prog.object(*o).name.clone()).collect()
}

#[test]
fn corpus_programs_match_the_oracle() {
    for p in corpus() {
        check_program(p.name, p.source);
    }
}

#[test]
fn progen_medium_programs_match_the_oracle() {
    for (seed, cast_ratio) in [(1, 0.0), (2, 0.5), (3, 1.0)] {
        let src = generate(&GenConfig::medium(seed).with_cast_ratio(cast_ratio));
        check_program(&format!("medium seed={seed} cast={cast_ratio}"), &src);
    }
}

#[test]
fn self_recursion() {
    let src = r#"
        int x; int *gp, *gq;
        void self(int *n) { int *loc; loc = n; gp = loc; if (gq) self(gq); }
        void main(void) { self(&x); }
    "#;
    let (prog, mr) = check_program("self-recursion", src);
    let s = mr.of_named(&prog, "self");
    assert_eq!(names(&prog, &s.mods), BTreeSet::from(["gp".to_string()]));
    assert_eq!(names(&prog, &s.refs), BTreeSet::from(["gq".to_string()]));
}

#[test]
fn mutual_recursion_keeps_the_other_members_locals() {
    let src = r#"
        int y; int *gp, *gq;
        void mb(int **q);
        void ma(int **p) { int *la; la = gq; mb(&la); }
        void mb(int **q) { int *lb; lb = gp; *q = &y; ma(&lb); }
        void main(void) { ma(&gp); }
    "#;
    let (prog, mr) = check_program("mutual recursion", src);
    let a = names(&prog, &mr.of_named(&prog, "ma").mods);
    let b = names(&prog, &mr.of_named(&prog, "mb").mods);
    assert!(a.contains("mb::lb") && a.contains("mb::q"), "{a:?}");
    assert!(!a.contains("ma::la") && !a.contains("ma::p"), "{a:?}");
    assert!(b.contains("ma::la") && b.contains("ma::p"), "{b:?}");
    assert!(!b.contains("mb::lb") && !b.contains("mb::q"), "{b:?}");
}

#[test]
fn cycle_closed_through_a_function_pointer() {
    let src = r#"
        int x; int *gp, *gq;
        void (*fp)(void);
        void pa(void) { gq = gp; fp(); }
        void pb(void) { gp = &x; pa(); }
        void main(void) { fp = pb; pb(); }
    "#;
    let (prog, mr) = check_program("function-pointer cycle", src);
    let res = structcast::analyze(&prog, &AnalysisConfig::new(ModelKind::CommonInitialSeq));
    let pb = prog.function_by_name("pb").unwrap().id;
    assert!(
        res.call_edges.iter().any(|(_, f)| *f == pb),
        "fp() must resolve to pb"
    );
    let a = mr.of_named(&prog, "pa");
    let b = mr.of_named(&prog, "pb");
    assert_eq!(a, b, "one component, one answer");
    assert_eq!(
        names(&prog, &a.mods),
        BTreeSet::from(["gp".to_string(), "gq".to_string()])
    );
}

#[test]
fn caller_with_only_inherited_effects() {
    let src = r#"
        int x; int *gp;
        void leaf(void) { gp = &x; }
        void mid(void) { leaf(); }
        void main(void) { mid(); }
    "#;
    let (prog, mr) = check_program("inherited only", src);
    let mid = mr.of_named(&prog, "mid");
    assert_eq!(names(&prog, &mid.mods), BTreeSet::from(["gp".to_string()]));
}

#[test]
fn deep_call_chain_does_not_overflow() {
    const DEPTH: usize = 20_000;
    // Prototypes first, so function ids follow the chain and a walk from
    // `f0` descends all 20 000 levels.
    let mut src = String::from("int x; int *g;\n");
    for i in 0..DEPTH {
        src.push_str(&format!("void f{i}(void);\n"));
    }
    for i in 0..DEPTH {
        if i + 1 == DEPTH {
            src.push_str(&format!("void f{i}(void) {{ g = &x; }}\n"));
        } else {
            src.push_str(&format!("void f{i}(void) {{ f{}(); }}\n", i + 1));
        }
    }
    let prog = structcast::lower_source(&src).unwrap();
    let res = structcast::analyze(&prog, &AnalysisConfig::new(ModelKind::CommonInitialSeq));
    let mods = std::thread::scope(|s| {
        std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn_scoped(s, || mod_ref(&prog, &res, true).of_named(&prog, "f0").mods)
            .unwrap()
            .join()
            .expect("mod_ref finishes on a 256 KiB stack")
    });
    assert!(
        names(&prog, &mods).contains("g"),
        "f0 inherits f{}'s store",
        DEPTH - 1
    );
}
