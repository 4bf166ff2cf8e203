//! Incremental re-solving: fact retraction plus a seeded fixpoint.
//!
//! Stage 2 of the incremental pipeline (stage 1 — diffing and constraint
//! reuse — lives in `structcast_constraints::incr`). Given the previous
//! solve's [`AnalysisResult`] and a [`ProgramDiff`] against the edited
//! program, [`resolve_incremental`] computes which facts can survive the
//! edit, discards the rest, and re-runs the difference-propagation
//! fixpoint over only the *dirty region* of the constraint graph. The
//! result is byte-identical to a cold
//! [`solve_compiled`](crate::session::solve_compiled) of the new program.
//!
//! # Retraction soundness
//!
//! Facts are retracted at **object granularity**: the edit seeds a set of
//! dirty objects (everything a *genuinely removed* statement wrote, and
//! every object with no stable identity across the edit), and dirtiness
//! propagates through the constraint graph — any statement *reading* a
//! dirty object marks the objects it *writes* dirty too, to a fixpoint.
//! All facts rooted in dirty objects are dropped; the rest are kept.
//!
//! Two refinements keep the seeds minimal without weakening soundness:
//! an **added** statement never seeds dirtiness (the solver is monotone,
//! so a new derivation can only add facts — the statement is queued and
//! its consequences propagate forward), and a removed statement whose
//! translated constraint still exists verbatim in the new program (a
//! swapped line, a deleted duplicate) seeds nothing, because every
//! derivation it contributed is still contributed by its twin.
//!
//! Keeping a fact `o.f -> t` for a clean `o` is sound in both directions:
//!
//! * **No stale facts**: induct over the old solve's derivation order.
//!   The statement that derived the fact still exists (a removed
//!   statement's writes are dirty seeds, and `o` is clean) and every
//!   input of that derivation is rooted in a clean object (a dirty input
//!   would have propagated to `o`), so by induction each input is itself
//!   still derivable and the cold solve re-derives the fact. Kept facts
//!   are therefore a subset of the cold fixpoint.
//! * **No missing facts**: the solver is monotone, so seeding a subset of
//!   the cold fixpoint and re-running to fixpoint reaches the same least
//!   fixpoint — *provided* every statement re-fires when its inputs grow.
//!   Statements in the dirty region are queued outright; every dormant
//!   statement is statically pre-subscribed to its read objects (and to
//!   the objects behind its seeded dereference targets), so facts growing
//!   on clean objects wake exactly the consumers a cold run would have
//!   woken. Calls inside the region re-synthesize their parameter/return
//!   bindings from scratch; calls outside it have their old call edges
//!   *pre-bound* — the binding copies exist (dormant, watching their
//!   sources for growth) and the reported call-edge set stays identical
//!   to the cold run's without the call constraint ever firing. A
//!   dormant call's function pointer is clean by construction, so its
//!   cold callee set can only extend the carried-over one, and the
//!   subscription on the pointer binds any extension when it appears.
//!
//! When the diff reports a [`ProgramDiff::fallback`] (e.g. a record
//! definition changed, invalidating normalized layouts wholesale), the
//! incremental path degenerates to an honest cold solve and says so in
//! its stats.

use crate::analysis::{AnalysisConfig, AnalysisResult};
use crate::budget::SolveError;
use crate::facts::FactStore;
use crate::loc::Loc;
use crate::session::{solve_seeded, try_solve_compiled};
use crate::solver::Seed;
use structcast_constraints::{removed_survivors, Constraint, ConstraintSet, ProgramDiff};
use structcast_ir::{Callee, ObjId, ObjKind, Program, Stmt};
use structcast_types::FieldPath;

/// Accounting for one incremental re-solve, reported by the server's
/// `update` op and the edit-trace bench.
#[derive(Debug, Clone)]
pub struct IncrStats {
    /// Functions whose constraints were reused wholesale.
    pub reused_fns: usize,
    /// Name-matched functions that changed.
    pub dirty_fns: usize,
    /// New-program statements with no old counterpart.
    pub dirty_statements: usize,
    /// Statements in the re-run region (dirty, or reading/writing a
    /// dirty object).
    pub region_statements: usize,
    /// Total statements in the new program.
    pub total_statements: usize,
    /// Old facts dropped by retraction.
    pub retracted_edges: usize,
    /// Old facts carried into the seeded fixpoint.
    pub kept_edges: usize,
    /// `Some(reason)` when the diff forced a cold full solve.
    pub fallback: Option<String>,
}

/// An incremental re-solve: the (cold-identical) analysis result plus the
/// retraction accounting.
#[derive(Debug)]
pub struct IncrSolve {
    /// The re-solved result — byte-identical to a cold solve of the new
    /// program under the same config.
    pub result: AnalysisResult,
    /// What the edit cost.
    pub stats: IncrStats,
    /// New-program statement indices of the re-run region (every
    /// statement in [0, total) under a fallback). A cached answer whose
    /// footprint avoids this set is still valid after the edit — the
    /// serving tier intersects demand slices with it to decide which
    /// cached demand answers survive an update.
    pub region: Vec<u32>,
}

/// Re-solves the edited program from the previous result, retracting only
/// the facts the edit can reach. `old_set` must be the constraint set
/// `old_result` was solved over, `new_set` the new program's compiled
/// constraints (typically from
/// [`compile_incremental`](structcast_constraints::compile_incremental)
/// over the same `diff`), and `old_result` must come from a solve of
/// `old_prog` under this exact `config` (model, layout, compat, stride,
/// and arith mode all participate in fact normalization).
///
/// # Errors
///
/// [`SolveError`] when `config.budget` trips before the region's fixpoint
/// completes.
pub fn resolve_incremental(
    old_prog: &Program,
    old_set: &ConstraintSet,
    old_result: &AnalysisResult,
    new_prog: &Program,
    new_set: &ConstraintSet,
    diff: &ProgramDiff,
    config: &AnalysisConfig,
) -> Result<IncrSolve, SolveError> {
    let total = new_set.len();
    if let Some(reason) = &diff.fallback {
        let result = try_solve_compiled(new_prog, new_set, config)?;
        return Ok(IncrSolve {
            result,
            stats: IncrStats {
                reused_fns: 0,
                dirty_fns: diff.dirty_fns,
                dirty_statements: total,
                region_statements: total,
                total_statements: total,
                retracted_edges: old_result.facts.len(),
                kept_edges: 0,
                fallback: Some(reason.clone()),
            },
            region: (0..total as u32).collect(),
        });
    }

    let inv = diff.inverse_obj_map(new_prog.objects.len());
    let empty = FieldPath::empty();
    let map_old = |o: ObjId| -> Option<ObjId> { diff.obj_map[o.0 as usize] };
    // Old top-level points-to targets of an *old* object, as new ids.
    let old_pts_of_old = |o: ObjId| -> Vec<ObjId> {
        let l = old_result.normalize(old_prog, o, &empty);
        old_result
            .facts
            .points_to(&l)
            .filter_map(|t| map_old(t.obj))
            .collect()
    };
    // The same for a *new* pointer object, through the inverse map.
    let old_pts_of_new = |n: ObjId| -> Vec<ObjId> {
        match inv[n.0 as usize] {
            Some(o) => old_pts_of_old(o),
            None => Vec::new(),
        }
    };
    // Old resolved callees of an old call site, as new function ids.
    let old_callees = |old_idx: u32| -> Vec<structcast_ir::FuncId> {
        old_result
            .call_edges
            .iter()
            .filter(|(sid, _)| sid.0 == old_idx)
            .filter_map(|(_, fid)| {
                new_prog.as_function(map_old(old_prog.function(*fid).obj)?)
            })
            .collect()
    };

    // Object-granular dataflow rules per new constraint. Each rule is an
    // independent `reads -> writes` edge: a dirty read taints exactly that
    // rule's writes. Calls decompose into one rule *per binding* (arg_k ->
    // param_k, ret_slot -> ret dst), so a single dirty argument does not
    // taint every parameter of the callee — only its own. Dereference
    // writes (Store, CopyAll) use the *old* points-to sets of the pointer;
    // targets the re-run discovers beyond them are handled by the solver's
    // subscriptions, not by the static region.
    struct Rule {
        reads: Vec<ObjId>,
        writes: Vec<ObjId>,
    }
    fn binding_rules(f: &structcast_ir::Function, args: &[ObjId], ret: Option<ObjId>) -> Vec<Rule> {
        let mut rules = Vec::new();
        for (k, &arg) in args.iter().enumerate() {
            let writes = match f.params.get(k) {
                Some(&p) => vec![p],
                None => f.varargs.iter().copied().collect(),
            };
            if !writes.is_empty() {
                rules.push(Rule { reads: vec![arg], writes });
            }
        }
        if let (Some(slot), Some(dst)) = (f.ret_slot, ret) {
            rules.push(Rule { reads: vec![slot], writes: vec![dst] });
        }
        rules
    }
    let pair_of_new = diff.pair_of_new(total);
    let mut rules: Vec<Vec<Rule>> = Vec::with_capacity(total);
    for (i, c) in new_set.constraints().iter().enumerate() {
        let rs = match c {
            Constraint::AddrOf { dst, .. } => {
                vec![Rule { reads: Vec::new(), writes: vec![*dst] }]
            }
            Constraint::AddrField { dst, ptr, .. } => {
                vec![Rule { reads: vec![*ptr], writes: vec![*dst] }]
            }
            Constraint::Copy { dst, src, .. } => {
                vec![Rule { reads: vec![src.obj], writes: vec![*dst] }]
            }
            Constraint::Load { dst, ptr, .. } => {
                let mut r = vec![*ptr];
                r.extend(old_pts_of_new(*ptr));
                vec![Rule { reads: r, writes: vec![*dst] }]
            }
            Constraint::Store { ptr, src, .. } => {
                vec![Rule { reads: vec![*ptr, *src], writes: old_pts_of_new(*ptr) }]
            }
            Constraint::PtrArith { dst, src, .. } => {
                vec![Rule { reads: vec![*src], writes: vec![*dst] }]
            }
            Constraint::CopyAll { dst_ptr, src_ptr } => {
                let mut r = vec![*dst_ptr, *src_ptr];
                r.extend(old_pts_of_new(*src_ptr));
                vec![Rule { reads: r, writes: old_pts_of_new(*dst_ptr) }]
            }
            Constraint::CallDirect { fid, args, ret } => {
                binding_rules(new_prog.function(*fid), args, *ret)
            }
            Constraint::CallIndirect { ptr, args, ret } => {
                // Per-binding rules against the old resolution, plus a
                // gating rule: a dirty function pointer may change the
                // callee set, so it taints every binding target.
                let mut rs = Vec::new();
                let mut gated: Vec<ObjId> = ret.iter().copied().collect();
                if let Some(oi) = pair_of_new[i] {
                    for fid in old_callees(oi) {
                        let f = new_prog.function(fid);
                        gated.extend(f.params.iter().copied());
                        gated.extend(f.varargs);
                        rs.extend(binding_rules(f, args, *ret));
                    }
                }
                rs.push(Rule { reads: vec![*ptr], writes: gated });
                rs
            }
        };
        rules.push(rs);
    }

    // Dirty-object seeds. Only *deleted derivations* can invalidate old
    // facts — solving is monotone, so an added statement needs no
    // retraction at all (it is queued and its consequences propagate
    // forward). Seeds are therefore: objects with no cross-edit identity
    // (their facts cannot be kept anyway, and their writers must re-run),
    // and everything a *genuinely* removed old statement wrote. A removed
    // statement whose translated constraint still exists verbatim in the
    // new program (a swapped line, a deleted duplicate) deleted nothing.
    let survivors = removed_survivors(old_prog, old_set, new_prog, new_set, diff);
    // Unnamed objects (temps, heap sites, string literals) that appear
    // *only* in added statements are pure additions: they carry no old
    // facts, all their derivations are queued, and nothing dormant can
    // bind them — so they need no retraction seed. An unmapped unnamed
    // object that a *paired* statement touches is different: the pairing
    // may have crossed identities, so it stays a seed.
    let mut is_dirty_stmt = vec![false; total];
    for &j in &diff.dirty_stmts {
        is_dirty_stmt[j as usize] = true;
    }
    let mut fresh = vec![true; new_prog.objects.len()];
    for (i, c) in new_set.constraints().iter().enumerate() {
        if is_dirty_stmt[i] {
            continue;
        }
        for o in constraint_operands(c) {
            fresh[o.0 as usize] = false;
        }
    }
    let mut dirty = vec![false; new_prog.objects.len()];
    for (j, o) in inv.iter().enumerate() {
        if o.is_some() {
            continue;
        }
        let unnamed = matches!(
            new_prog.objects[j].kind,
            ObjKind::Temp(_) | ObjKind::Heap(_) | ObjKind::StringLit
        );
        if !(unnamed && fresh[j]) {
            dirty[j] = true;
        }
    }
    for (k, &oi) in diff.removed_stmts.iter().enumerate() {
        if survivors.get(k).copied().unwrap_or(false) {
            continue;
        }
        for w in removed_stmt_writes(old_prog, oi, &map_old, &old_pts_of_old, &old_callees, new_prog)
        {
            dirty[w.0 as usize] = true;
        }
    }

    // Propagate: a statement reading a dirty object taints its writes.
    // Then defensively re-dirty sources whose kept facts point at objects
    // with no new identity (those facts cannot be translated, so their
    // root must be re-derived), and iterate until stable.
    loop {
        loop {
            let mut changed = false;
            for rs in &rules {
                for rule in rs {
                    if rule.reads.iter().any(|o| dirty[o.0 as usize]) {
                        for w in &rule.writes {
                            let wi = w.0 as usize;
                            if !dirty[wi] {
                                dirty[wi] = true;
                                changed = true;
                            }
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        let mut extra = false;
        for (src, tgt) in old_result.facts.iter() {
            let Some(ns) = map_old(src.obj) else { continue };
            if !dirty[ns.0 as usize] && map_old(tgt.obj).is_none() {
                dirty[ns.0 as usize] = true;
                extra = true;
            }
        }
        if !extra {
            break;
        }
    }

    // The re-run region: dirty (new/changed) statements plus anything
    // touching a dirty object. Calls outside the region keep their old
    // resolution: the translated call edges are pre-bound in the seeded
    // solver, so their bindings exist (dormant, source-subscribed) and
    // the reported call-edge set stays complete without re-firing them.
    let mut in_region = vec![false; total];
    for &j in &diff.dirty_stmts {
        in_region[j as usize] = true;
    }
    for (i, rs) in rules.iter().enumerate() {
        if rs.iter().any(|rule| {
            rule.reads.iter().any(|o| dirty[o.0 as usize])
                || rule.writes.iter().any(|o| dirty[o.0 as usize])
        }) {
            in_region[i] = true;
        }
    }
    let mut bound: Vec<(u32, structcast_ir::FuncId)> = Vec::new();
    for (i, c) in new_set.constraints().iter().enumerate() {
        if in_region[i] {
            continue;
        }
        match c {
            Constraint::CallDirect { fid, .. } => bound.push((i as u32, *fid)),
            Constraint::CallIndirect { .. } => {
                if let Some(oi) = pair_of_new[i] {
                    bound.extend(old_callees(oi).into_iter().map(|f| (i as u32, f)));
                }
            }
            _ => {}
        }
    }
    let queue: Vec<u32> = (0..total as u32)
        .filter(|&i| in_region[i as usize])
        .collect();
    let region = queue.clone();
    let region_statements = queue.len();

    // Retraction: keep facts rooted in clean objects, translated.
    let mut kept = FactStore::new();
    let mut kept_edges = 0usize;
    for (src, tgt) in old_result.facts.iter() {
        let (Some(ns), Some(nt)) = (map_old(src.obj), map_old(tgt.obj)) else { continue };
        if dirty[ns.0 as usize] {
            continue;
        }
        kept.insert(
            Loc { obj: ns, field: src.field.clone() },
            Loc { obj: nt, field: tgt.field.clone() },
        );
        kept_edges += 1;
    }
    let retracted_edges = old_result.facts.len() - kept_edges;
    let unknown: Vec<Loc> = old_result
        .unknown
        .iter()
        .filter_map(|l| {
            let ns = map_old(l.obj)?;
            (!dirty[ns.0 as usize]).then(|| Loc { obj: ns, field: l.field.clone() })
        })
        .collect();

    let seed = Seed { facts: kept, unknown, queue, bound };
    let result = solve_seeded(new_prog, new_set, config, seed)?;
    Ok(IncrSolve {
        result,
        stats: IncrStats {
            reused_fns: diff.reused_fns,
            dirty_fns: diff.dirty_fns,
            dirty_statements: diff.dirty_stmts.len(),
            region_statements,
            total_statements: total,
            retracted_edges,
            kept_edges,
            fallback: None,
        },
        region,
    })
}

/// The syntactic operand objects of one constraint (no dereference
/// expansion — this is the "does a paired statement touch this object at
/// all" test behind the fresh-object seed exclusion).
fn constraint_operands(c: &Constraint) -> Vec<ObjId> {
    match c {
        Constraint::AddrOf { dst, src } => vec![*dst, src.obj],
        Constraint::AddrField { dst, ptr, .. } => vec![*dst, *ptr],
        Constraint::Copy { dst, src, .. } => vec![*dst, src.obj],
        Constraint::Load { dst, ptr, .. } => vec![*dst, *ptr],
        Constraint::Store { ptr, src, .. } => vec![*ptr, *src],
        Constraint::PtrArith { dst, src, .. } => vec![*dst, *src],
        Constraint::CopyAll { dst_ptr, src_ptr } => vec![*dst_ptr, *src_ptr],
        Constraint::CallDirect { args, ret, .. } => {
            let mut v = args.clone();
            v.extend(ret.iter().copied());
            v
        }
        Constraint::CallIndirect { ptr, args, ret } => {
            let mut v = vec![*ptr];
            v.extend(args.iter().copied());
            v.extend(ret.iter().copied());
            v
        }
    }
}

/// The (new-id) objects a removed old statement wrote — dirty seeds,
/// since their old derivations no longer exist. Dereference writes use
/// the old solve's points-to sets; call writes use the old resolved call
/// edges (both translated through the object map; targets without a new
/// identity need no seeding — they don't exist to hold stale facts).
fn removed_stmt_writes(
    old_prog: &Program,
    oi: u32,
    map_old: &impl Fn(ObjId) -> Option<ObjId>,
    old_pts_of_old: &impl Fn(ObjId) -> Vec<ObjId>,
    old_callees: &impl Fn(u32) -> Vec<structcast_ir::FuncId>,
    new_prog: &Program,
) -> Vec<ObjId> {
    match &old_prog.stmts[oi as usize] {
        Stmt::AddrOf { dst, .. }
        | Stmt::AddrField { dst, .. }
        | Stmt::Copy { dst, .. }
        | Stmt::Load { dst, .. }
        | Stmt::PtrArith { dst, .. } => map_old(*dst).into_iter().collect(),
        Stmt::Store { ptr, .. } => old_pts_of_old(*ptr),
        Stmt::CopyAll { dst_ptr, .. } => old_pts_of_old(*dst_ptr),
        Stmt::Call { callee, ret, .. } => {
            let mut w: Vec<ObjId> = ret.iter().filter_map(|r| map_old(*r)).collect();
            let mut callees = old_callees(oi);
            if let Callee::Direct(f) = callee {
                if let Some(nf) = map_old(old_prog.function(*f).obj).and_then(|o| new_prog.as_function(o)) {
                    callees.push(nf);
                }
            }
            for fid in callees {
                let f = new_prog.function(fid);
                w.extend(f.params.iter().copied());
                w.extend(f.varargs);
            }
            w
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelKind;
    use crate::session::solve_compiled;
    use structcast_constraints::{compile_incremental, diff_programs};

    fn check_edit(old_src: &str, new_src: &str) -> IncrStats {
        let old = structcast_ir::lower_source(old_src).unwrap();
        let new = structcast_ir::lower_source(new_src).unwrap();
        let old_set = ConstraintSet::compile(&old);
        let new_cold_set = ConstraintSet::compile(&new);
        let diff = diff_programs(&old, &new);
        let (new_set, _) = compile_incremental(&old, &old_set, &new, &diff);
        let mut last = None;
        for kind in ModelKind::ALL {
            let cfg = AnalysisConfig::new(kind);
            let old_res = solve_compiled(&old, &old_set, &cfg);
            let inc = resolve_incremental(&old, &old_set, &old_res, &new, &new_set, &diff, &cfg).unwrap();
            let cold = solve_compiled(&new, &new_cold_set, &cfg);
            assert_eq!(
                inc.result.edge_displays(&new),
                cold.edge_displays(&new),
                "{kind}: incremental edges must match cold"
            );
            assert_eq!(inc.result.call_edges, cold.call_edges, "{kind}");
            assert_eq!(inc.result.unknown, cold.unknown, "{kind}");
            last = Some(inc.stats);
        }
        last.unwrap()
    }

    const BASE: &str = "struct S { int *s1; int *s2; } s;\n\
         int x, y, z, *p, *q;\n\
         void f(void) { s.s1 = &x; p = s.s1; }\n\
         void g(void) { q = &y; }";

    #[test]
    fn no_edit_keeps_everything() {
        let stats = check_edit(BASE, BASE);
        assert_eq!(stats.retracted_edges, 0, "{stats:?}");
        assert_eq!(stats.dirty_statements, 0);
        assert!(stats.kept_edges > 0);
        assert!(stats.fallback.is_none());
    }

    #[test]
    fn single_function_edit_resolves_incrementally() {
        let edited = "struct S { int *s1; int *s2; } s;\n\
             int x, y, z, *p, *q;\n\
             void f(void) { s.s1 = &x; p = s.s1; }\n\
             void g(void) { q = &z; }";
        let stats = check_edit(BASE, edited);
        assert_eq!(stats.reused_fns, 1, "{stats:?}");
        assert_eq!(stats.dirty_fns, 1);
        assert!(stats.retracted_edges > 0, "{stats:?}");
        assert!(stats.kept_edges > 0, "f's facts survive: {stats:?}");
        assert!(
            stats.region_statements < stats.total_statements,
            "{stats:?}"
        );
    }

    #[test]
    fn edits_through_calls_and_function_pointers() {
        let old_src = "int x, y; int *gp;\n\
             int *mk(void) { return &x; }\n\
             int *(*fp)(void);\n\
             void main(void) { fp = mk; gp = fp(); }";
        let new_src = "int x, y; int *gp;\n\
             int *mk(void) { return &y; }\n\
             int *(*fp)(void);\n\
             void main(void) { fp = mk; gp = fp(); }";
        let stats = check_edit(old_src, new_src);
        assert!(stats.fallback.is_none(), "{stats:?}");
    }

    #[test]
    fn record_change_falls_back_to_cold() {
        let edited = "struct S { int *s1; } s;\n\
             int x, y, z, *p, *q;\n\
             void f(void) { s.s1 = &x; p = s.s1; }\n\
             void g(void) { q = &y; }";
        let stats = check_edit(BASE, edited);
        assert!(stats.fallback.is_some(), "{stats:?}");
        assert_eq!(stats.kept_edges, 0);
    }

    #[test]
    fn heap_and_store_edits_stay_equivalent() {
        let old_src = "struct N { struct N *next; int *d; };\n\
             struct N *head; int a, b;\n\
             void push(void) {\n\
               struct N *n = (struct N*)malloc(16);\n\
               n->d = &a; n->next = head; head = n;\n\
             }\n\
             void other(void) { head->d = &a; }";
        let new_src = "struct N { struct N *next; int *d; };\n\
             struct N *head; int a, b;\n\
             void push(void) {\n\
               struct N *n = (struct N*)malloc(16);\n\
               n->d = &b; n->next = head; head = n;\n\
             }\n\
             void other(void) { head->d = &a; }";
        let stats = check_edit(old_src, new_src);
        assert!(stats.fallback.is_none(), "{stats:?}");
    }

    #[test]
    fn flag_unknown_mode_stays_equivalent() {
        use crate::solver::ArithMode;
        let old_src = "int buf[8]; int *p, *q; void f(void) { p = buf; q = p + 1; }";
        let new_src = "int buf[8]; int *p, *q, *r; void f(void) { p = buf; q = p + 1; r = q; }";
        let old = structcast_ir::lower_source(old_src).unwrap();
        let new = structcast_ir::lower_source(new_src).unwrap();
        let old_set = ConstraintSet::compile(&old);
        let diff = diff_programs(&old, &new);
        let (new_set, _) = compile_incremental(&old, &old_set, &new, &diff);
        for kind in ModelKind::ALL {
            let cfg = AnalysisConfig::new(kind).with_arith_mode(ArithMode::FlagUnknown);
            let old_res = solve_compiled(&old, &old_set, &cfg);
            let inc = resolve_incremental(&old, &old_set, &old_res, &new, &new_set, &diff, &cfg).unwrap();
            let cold = solve_compiled(&new, &ConstraintSet::compile(&new), &cfg);
            assert_eq!(inc.result.edge_displays(&new), cold.edge_displays(&new), "{kind}");
            assert_eq!(inc.result.unknown, cold.unknown, "{kind}");
        }
    }
}
