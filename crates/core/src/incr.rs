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
use crate::loc::{Loc, LocId};
use crate::session::{solve_seeded, try_solve_compiled};
use crate::solver::Seed;
use structcast_constraints::{removed_survivors, Constraint, ConstraintSet, OpRef, ProgramDiff};
use structcast_ir::{Callee, FuncId, ObjId, ObjKind, Program, Stmt};
use structcast_types::idhash::IdHashMap;
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
        });
    }

    let inv = diff.inverse_obj_map(new_prog.objects.len());
    let empty = FieldPath::empty();
    let map_old = |o: ObjId| -> Option<ObjId> { diff.obj_map[o.0 as usize] };
    let old_facts = &old_result.facts;
    // Old top-level points-to targets of an *old* object, as new ids.
    let old_pts_of_old = |o: ObjId| -> Vec<ObjId> {
        let l = old_result.normalize(old_prog, o, &empty);
        old_facts
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
    // Old resolved callees per old call site, as new function ids, in
    // call-edge order.
    let mut callees_at: IdHashMap<u32, Vec<FuncId>> = IdHashMap::default();
    for (sid, fid) in &old_result.call_edges {
        let f = map_old(old_prog.function(*fid).obj).and_then(|o| new_prog.as_function(o));
        if let Some(f) = f {
            callees_at.entry(sid.0).or_default().push(f);
        }
    }
    let old_callees =
        |old_idx: u32| -> &[FuncId] { callees_at.get(&old_idx).map_or(&[], Vec::as_slice) };

    // Object-granular dataflow rules per new constraint. Each rule is an
    // independent `reads -> writes` edge: a dirty read taints exactly that
    // rule's writes. Calls decompose into one rule *per binding* (arg_k ->
    // param_k, ret_slot -> ret dst), so a single dirty argument does not
    // taint every parameter of the callee — only its own. Dereference
    // writes (Store, CopyAll) use the *old* points-to sets of the pointer;
    // targets the re-run discovers beyond them are handled by the solver's
    // subscriptions, not by the static region.
    let pair_of_new = diff.pair_of_new(total);
    let mut rules = Rules::with_capacity(total);
    for (i, c) in new_set.constraints().iter().enumerate() {
        rules.begin_stmt();
        match c {
            Constraint::AddrOf { dst, .. } => rules.push([], [*dst]),
            Constraint::AddrField { dst, ptr, .. } => rules.push([*ptr], [*dst]),
            Constraint::Copy { dst, src, .. } => rules.push([src.obj], [*dst]),
            Constraint::Load { dst, ptr, .. } => {
                rules.push(std::iter::once(*ptr).chain(old_pts_of_new(*ptr)), [*dst]);
            }
            Constraint::Store { ptr, src, .. } => rules.push([*ptr, *src], old_pts_of_new(*ptr)),
            Constraint::PtrArith { dst, src, .. } => rules.push([*src], [*dst]),
            Constraint::CopyAll { dst_ptr, src_ptr } => rules.push(
                [*dst_ptr, *src_ptr]
                    .into_iter()
                    .chain(old_pts_of_new(*src_ptr)),
                old_pts_of_new(*dst_ptr),
            ),
            Constraint::CallDirect { fid, args, ret } => {
                rules.push_bindings(new_prog.function(*fid), args, *ret);
            }
            Constraint::CallIndirect { ptr, args, ret } => {
                // Per-binding rules against the old resolution, plus a
                // gating rule: a dirty function pointer may change the
                // callee set, so it taints every binding target.
                let mut gated: Vec<ObjId> = ret.iter().copied().collect();
                if let Some(oi) = pair_of_new[i] {
                    for &fid in old_callees(oi) {
                        let f = new_prog.function(fid);
                        gated.extend(f.params.iter().copied());
                        gated.extend(f.varargs);
                        rules.push_bindings(f, args, *ret);
                    }
                }
                rules.push([*ptr], gated);
            }
        }
    }
    rules.begin_stmt();

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
        if !is_dirty_stmt[i] {
            for_each_operand(c, |o| fresh[o.0 as usize] = false);
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

    // Each old location's object in the new program (`None`: no identity),
    // and the new roots of old facts whose target has no identity: those
    // facts cannot be translated, so a clean root must be re-derived.
    let loc_obj: Vec<Option<ObjId>> = (0..old_facts.num_locs())
        .map(|l| map_old(old_facts.obj_of(LocId(l as u32))))
        .collect();
    let mut untranslatable_roots: Vec<ObjId> = old_facts
        .iter_ids()
        .filter(|(_, t)| loc_obj[t.index()].is_none())
        .filter_map(|(s, _)| loc_obj[s.index()])
        .collect();
    untranslatable_roots.dedup();

    // Propagate: a statement reading a dirty object taints its writes.
    // Then defensively re-dirty the untranslatable roots, and iterate
    // until stable.
    loop {
        loop {
            let mut changed = false;
            for (reads, writes) in rules.iter() {
                if reads.iter().any(|o| dirty[o.0 as usize]) {
                    for w in writes {
                        changed |= !std::mem::replace(&mut dirty[w.0 as usize], true);
                    }
                }
            }
            if !changed {
                break;
            }
        }
        let mut extra = false;
        for ns in &untranslatable_roots {
            extra |= !std::mem::replace(&mut dirty[ns.0 as usize], true);
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
    let in_region: Vec<bool> = (0..total)
        .map(|i| {
            is_dirty_stmt[i]
                || rules
                    .of_stmt(i)
                    .any(|(reads, writes)| reads.iter().chain(writes).any(|o| dirty[o.0 as usize]))
        })
        .collect();
    let mut bound: Vec<(u32, FuncId)> = Vec::new();
    for (i, c) in new_set.constraints().iter().enumerate() {
        if in_region[i] {
            continue;
        }
        match c {
            Constraint::CallDirect { fid, .. } => bound.push((i as u32, *fid)),
            Constraint::CallIndirect { .. } => {
                if let Some(oi) = pair_of_new[i] {
                    bound.extend(old_callees(oi).iter().map(|&f| (i as u32, f)));
                }
            }
            _ => {}
        }
    }
    let queue: Vec<u32> = (0..total as u32)
        .filter(|&i| in_region[i as usize])
        .collect();
    let region_statements = queue.len();

    // Retraction: keep the facts rooted in clean objects. Each surviving
    // old location is translated and interned once, on first use, in the
    // order the kept facts name them (source, then target), so the kept
    // store assigns exactly the `LocId`s and fact order that re-inserting
    // every kept fact by `Loc` would; each fact then goes in by id.
    const UNSEEN: u32 = u32::MAX;
    let mut new_loc = vec![UNSEEN; old_facts.num_locs()];
    let mut kept = FactStore::with_capacity(old_facts.num_locs(), old_facts.len());
    let mut carry = |l: LocId, kept: &mut FactStore, obj: ObjId| -> LocId {
        let slot = &mut new_loc[l.index()];
        if *slot == UNSEEN {
            let field = old_facts.loc(l).field;
            *slot = kept.intern(Loc { obj, field }).0;
        }
        LocId(*slot)
    };
    let mut kept_edges = 0usize;
    for (s, t) in old_facts.iter_ids() {
        let (Some(ns), Some(nt)) = (loc_obj[s.index()], loc_obj[t.index()]) else {
            continue;
        };
        if dirty[ns.0 as usize] {
            continue;
        }
        let s = carry(s, &mut kept, ns);
        let t = carry(t, &mut kept, nt);
        kept.insert_ids(s, t);
        kept_edges += 1;
    }
    let retracted_edges = old_facts.len() - kept_edges;
    let unknown: Vec<Loc> = old_result
        .unknown
        .iter()
        .filter_map(|l| {
            let ns = map_old(l.obj)?;
            (!dirty[ns.0 as usize]).then_some(Loc { obj: ns, field: l.field })
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
    })
}

/// Object-granular `reads -> writes` dataflow rules, grouped by statement,
/// in flat storage: one object array, one `(reads, writes)` start pair per
/// rule and one first-rule index per statement. A rule's writes end where
/// the next rule's reads start; a statement's rules end where the next
/// statement's start.
struct Rules {
    objs: Vec<ObjId>,
    rules: Vec<(u32, u32)>,
    stmts: Vec<u32>,
}

impl Rules {
    fn with_capacity(stmts: usize) -> Rules {
        Rules {
            objs: Vec::with_capacity(stmts * 3),
            rules: Vec::with_capacity(stmts + stmts / 4),
            stmts: Vec::with_capacity(stmts + 1),
        }
    }

    /// Starts the next statement's rules (and, once more after the last
    /// statement, closes the table).
    fn begin_stmt(&mut self) {
        self.stmts.push(self.rules.len() as u32);
    }

    fn push(
        &mut self,
        reads: impl IntoIterator<Item = ObjId>,
        writes: impl IntoIterator<Item = ObjId>,
    ) {
        let r = self.objs.len() as u32;
        self.objs.extend(reads);
        let w = self.objs.len() as u32;
        self.objs.extend(writes);
        self.rules.push((r, w));
    }

    /// One rule per binding of a call to `f`: argument `k` to parameter `k`
    /// (or to the varargs object, when `f` has one), and the return slot
    /// to the call's result.
    fn push_bindings(&mut self, f: &structcast_ir::Function, args: &[ObjId], ret: Option<ObjId>) {
        for (k, &arg) in args.iter().enumerate() {
            if let Some(w) = f.params.get(k).copied().or(f.varargs) {
                self.push([arg], [w]);
            }
        }
        if let (Some(slot), Some(dst)) = (f.ret_slot, ret) {
            self.push([slot], [dst]);
        }
    }

    fn rule(&self, k: usize) -> (&[ObjId], &[ObjId]) {
        let (r, w) = self.rules[k];
        let end = self
            .rules
            .get(k + 1)
            .map_or(self.objs.len(), |n| n.0 as usize);
        (
            &self.objs[r as usize..w as usize],
            &self.objs[w as usize..end],
        )
    }

    fn iter(&self) -> impl Iterator<Item = (&[ObjId], &[ObjId])> + '_ {
        (0..self.rules.len()).map(|k| self.rule(k))
    }

    /// Statement `i`'s rules.
    fn of_stmt(&self, i: usize) -> impl Iterator<Item = (&[ObjId], &[ObjId])> + '_ {
        (self.stmts[i] as usize..self.stmts[i + 1] as usize).map(|k| self.rule(k))
    }
}

/// Visits the syntactic operand objects of one constraint (no dereference
/// expansion — this is the "does a paired statement touch this object at
/// all" test behind the fresh-object seed exclusion).
fn for_each_operand(c: &Constraint, mut f: impl FnMut(ObjId)) {
    match c {
        Constraint::AddrOf {
            dst: a,
            src: OpRef { obj: b, .. },
        }
        | Constraint::AddrField { dst: a, ptr: b, .. }
        | Constraint::Copy {
            dst: a,
            src: OpRef { obj: b, .. },
            ..
        }
        | Constraint::Load { dst: a, ptr: b, .. }
        | Constraint::Store { ptr: a, src: b, .. }
        | Constraint::PtrArith { dst: a, src: b, .. }
        | Constraint::CopyAll {
            dst_ptr: a,
            src_ptr: b,
        } => {
            f(*a);
            f(*b);
        }
        Constraint::CallDirect { args, ret, .. } => {
            args.iter().chain(ret).for_each(|o| f(*o));
        }
        Constraint::CallIndirect { ptr, args, ret } => {
            std::iter::once(ptr)
                .chain(args)
                .chain(ret)
                .for_each(|o| f(*o));
        }
    }
}

/// The (new-id) objects a removed old statement wrote — dirty seeds,
/// since their old derivations no longer exist. Dereference writes use
/// the old solve's points-to sets; call writes use the old resolved call
/// edges (both translated through the object map; targets without a new
/// identity need no seeding — they don't exist to hold stale facts).
fn removed_stmt_writes<'c>(
    old_prog: &Program,
    oi: u32,
    map_old: &impl Fn(ObjId) -> Option<ObjId>,
    old_pts_of_old: &impl Fn(ObjId) -> Vec<ObjId>,
    old_callees: &dyn Fn(u32) -> &'c [FuncId],
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
            let direct = match callee {
                Callee::Direct(f) => {
                    map_old(old_prog.function(*f).obj).and_then(|o| new_prog.as_function(o))
                }
                Callee::Indirect(_) => None,
            };
            for &fid in old_callees(oi).iter().chain(&direct) {
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
