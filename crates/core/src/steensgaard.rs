//! A Steensgaard-style *unification-based* pointer analysis, provided as an
//! ablation baseline (paper §6 discusses Steensgaard's algorithm as the
//! closest portable relative of the "Common Initial Sequence" instance).
//!
//! This is the classic almost-linear-time equality analysis: every
//! assignment `x = y` *unifies* the pointees of `x` and `y` instead of
//! adding a subset edge, so points-to sets are equivalence classes. It is
//! field-insensitive (structures collapsed), making it comparable to the
//! "Collapse Always" instance but strictly coarser — the ablation bench
//! quantifies the gap against the paper's inclusion-based framework.
//!
//! Simplifications vs. Steensgaard's original (documented in DESIGN.md):
//! pointee nodes are created eagerly on demand rather than tracked with
//! conditional joins, and indirect calls are resolved by iterating the
//! unification pass until no new (site, callee) binding appears.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};
use structcast_ir::{Callee, FuncId, ObjId, Program, Stmt};
use structcast_types::idhash::{IdHashMap, IdHashSet};
use structcast_types::TypeKind;

/// Union-find over ECRs (equivalence-class representatives) with a pointee
/// edge per class.
#[derive(Debug, Default)]
struct Ecr {
    parent: Vec<u32>,
    /// pointee ECR of each class root (entries keyed by *some* historical
    /// root; always re-resolved through `find`).
    pointee: IdHashMap<u32, u32>,
}

impl Ecr {
    fn add_node(&mut self) -> u32 {
        let id = self.parent.len() as u32;
        self.parent.push(id);
        id
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    /// Unifies two classes, recursively unifying their pointees.
    fn union(&mut self, a: u32, b: u32) {
        let a = self.find(a);
        let b = self.find(b);
        if a == b {
            return;
        }
        self.parent[b as usize] = a;
        let pa = self.pointee.remove(&a);
        let pb = self.pointee.remove(&b);
        match (pa, pb) {
            (Some(x), Some(y)) => {
                self.pointee.insert(a, x);
                // Linking first guarantees termination on cyclic graphs.
                self.union(x, y);
            }
            (Some(x), None) | (None, Some(x)) => {
                self.pointee.insert(a, x);
            }
            (None, None) => {}
        }
    }

    /// The pointee class of `x`, created fresh if absent.
    fn pts(&mut self, x: u32) -> u32 {
        let r = self.find(x);
        if let Some(&p) = self.pointee.get(&r) {
            return self.find(p);
        }
        let fresh = self.add_node();
        // `add_node` cannot have changed r's root.
        self.pointee.insert(r, fresh);
        fresh
    }

    fn pointee_of(&mut self, x: u32) -> Option<u32> {
        let r = self.find(x);
        self.pointee.get(&r).copied().map(|p| self.find(p))
    }
}

/// The result of a Steensgaard run.
pub struct SteensgaardResult {
    ecr: std::cell::RefCell<Ecr>,
    n_objects: usize,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
    /// Number of distinct (call site, callee) bindings discovered.
    pub resolved_indirect_calls: usize,
    /// Number of unification passes needed to stabilize call bindings.
    pub passes: usize,
}

/// Runs the unification-based analysis over a lowered program.
pub fn steensgaard(prog: &Program) -> SteensgaardResult {
    let start = Instant::now();
    let mut ecr = Ecr::default();
    for _ in 0..prog.objects.len() {
        ecr.add_node();
    }

    let mut bound: IdHashSet<(usize, FuncId)> = IdHashSet::default();
    let mut extra: Vec<(ObjId, ObjId)> = Vec::new(); // copy bindings for calls
    let mut passes = 0;
    loop {
        passes += 1;
        for (i, s) in prog.stmts.iter().enumerate() {
            process(&mut ecr, prog, i, s, &mut bound, &mut extra);
        }
        for &(d, s) in &extra {
            let pd = ecr.pts(d.0);
            let ps = ecr.pts(s.0);
            ecr.union(pd, ps);
        }
        // Iterate until the callee bindings are stable (cheap: binding set
        // only grows and is bounded by sites × functions).
        let before = bound.len();
        for (i, s) in prog.stmts.iter().enumerate() {
            if let Stmt::Call { callee: Callee::Indirect(fp), .. } = s {
                let _ = discover_callees(&mut ecr, prog, i, *fp, s, &mut bound, &mut extra);
            }
        }
        if bound.len() == before && passes > 1 {
            break;
        }
        if passes > prog.stmts.len() + 2 {
            break; // safety net; cannot trigger on monotone binding growth
        }
    }

    SteensgaardResult {
        ecr: std::cell::RefCell::new(ecr),
        n_objects: prog.objects.len(),
        elapsed: start.elapsed(),
        resolved_indirect_calls: bound.len(),
        passes,
    }
}

fn process(
    ecr: &mut Ecr,
    prog: &Program,
    idx: usize,
    s: &Stmt,
    bound: &mut IdHashSet<(usize, FuncId)>,
    extra: &mut Vec<(ObjId, ObjId)>,
) {
    match s {
        Stmt::AddrOf { dst, src, .. } | Stmt::AddrField { dst, ptr: src, .. } => {
            // Field-insensitive: &t.β is &t; &(*p).α makes dst point into
            // whatever p points to.
            match s {
                Stmt::AddrOf { .. } => {
                    let p = ecr.pts(dst.0);
                    ecr.union(p, src.0);
                }
                _ => {
                    let pd = ecr.pts(dst.0);
                    let pp = ecr.pts(src.0);
                    ecr.union(pd, pp);
                }
            }
        }
        Stmt::Copy { dst, src, .. } | Stmt::PtrArith { dst, src } => {
            let pd = ecr.pts(dst.0);
            let ps = ecr.pts(src.0);
            ecr.union(pd, ps);
        }
        Stmt::Load { dst, ptr } => {
            let pp = ecr.pts(ptr.0);
            let ppp = ecr.pts(pp);
            let pd = ecr.pts(dst.0);
            ecr.union(pd, ppp);
        }
        Stmt::Store { ptr, src } => {
            let pp = ecr.pts(ptr.0);
            let ppp = ecr.pts(pp);
            let ps = ecr.pts(src.0);
            ecr.union(ppp, ps);
        }
        Stmt::CopyAll { dst_ptr, src_ptr } => {
            let pd = ecr.pts(dst_ptr.0);
            let ppd = ecr.pts(pd);
            let ps = ecr.pts(src_ptr.0);
            let pps = ecr.pts(ps);
            ecr.union(ppd, pps);
        }
        Stmt::Call { callee, args, ret } => match callee {
            Callee::Direct(fid) => {
                bind_call(prog, idx, *fid, args, *ret, bound, extra);
            }
            Callee::Indirect(fp) => {
                let _ = discover_callees(ecr, prog, idx, *fp, s, bound, extra);
            }
        },
    }
}

fn discover_callees(
    ecr: &mut Ecr,
    prog: &Program,
    idx: usize,
    fp: ObjId,
    s: &Stmt,
    bound: &mut IdHashSet<(usize, FuncId)>,
    extra: &mut Vec<(ObjId, ObjId)>,
) -> usize {
    let Stmt::Call { args, ret, .. } = s else {
        return 0;
    };
    let Some(target_class) = ecr.pointee_of(fp.0) else {
        return 0;
    };
    let mut found = 0;
    for (oid, obj) in prog.objects.iter().enumerate() {
        if let structcast_ir::ObjKind::Function(fid) = obj.kind {
            if ecr.find(oid as u32) == target_class
                && bind_call(prog, idx, fid, args, *ret, bound, extra) {
                    found += 1;
                }
        }
    }
    found
}

fn bind_call(
    prog: &Program,
    idx: usize,
    fid: FuncId,
    args: &[ObjId],
    ret: Option<ObjId>,
    bound: &mut IdHashSet<(usize, FuncId)>,
    extra: &mut Vec<(ObjId, ObjId)>,
) -> bool {
    if !bound.insert((idx, fid)) {
        return false;
    }
    let f = prog.function(fid);
    for (i, &arg) in args.iter().enumerate() {
        if let Some(&param) = f.params.get(i) {
            extra.push((param, arg));
        } else if let Some(va) = f.varargs {
            extra.push((va, arg));
        }
    }
    if let (Some(r), Some(rs)) = (ret, f.ret_slot) {
        extra.push((r, rs));
    }
    true
}

impl SteensgaardResult {
    /// The objects `obj` may point to: all objects in the equivalence class
    /// of `pts(obj)`.
    pub fn points_to_objects(&self, obj: ObjId) -> Vec<ObjId> {
        let mut ecr = self.ecr.borrow_mut();
        let Some(cls) = ecr.pointee_of(obj.0) else {
            return Vec::new();
        };
        (0..self.n_objects as u32)
            .filter(|&o| ecr.find(o) == cls)
            .map(ObjId)
            .collect()
    }

    /// Sorted names of the objects a named variable may point to.
    pub fn points_to_names(&self, prog: &Program, var: &str) -> Vec<String> {
        let Some(obj) = prog.object_by_name(var) else {
            return Vec::new();
        };
        let set: BTreeSet<String> = self
            .points_to_objects(obj)
            .into_iter()
            .map(|o| prog.object(o).name.clone())
            .collect();
        set.into_iter().collect()
    }

    /// May `a` and `b` point to a common location (same pointee class)?
    pub fn may_alias(&self, a: ObjId, b: ObjId) -> bool {
        let mut ecr = self.ecr.borrow_mut();
        match (ecr.pointee_of(a.0), ecr.pointee_of(b.0)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }

    /// The Figure 4 metric under this analysis: average weighted points-to
    /// set size per static dereference site, with struct targets expanded
    /// to their leaf counts (the same fairness rule as Collapse-Always).
    pub fn average_deref_size(&self, prog: &Program) -> f64 {
        let sites = prog.deref_sites();
        if sites.is_empty() {
            return 0.0;
        }
        let total: usize = sites
            .iter()
            .map(|(_, ptr)| {
                self.points_to_objects(*ptr)
                    .iter()
                    .map(|&o| {
                        let ty = prog.type_of(o);
                        let stripped = prog.types.strip_arrays(ty);
                        if matches!(prog.types.kind(stripped), TypeKind::Record(_)) {
                            structcast_types::leaves(&prog.types, stripped).len().max(1)
                        } else {
                            1
                        }
                    })
                    .sum::<usize>()
            })
            .sum();
        total as f64 / sites.len() as f64
    }

    /// Number of equivalence classes that contain at least one program
    /// object (a coarse size measure comparable to edge counts).
    pub fn class_count(&self) -> usize {
        let mut ecr = self.ecr.borrow_mut();
        let mut roots = IdHashSet::default();
        for o in 0..self.n_objects as u32 {
            roots.insert(ecr.find(o));
        }
        roots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use structcast_ir::lower_source;

    #[test]
    fn basic_address_flow() {
        let prog = lower_source("int x, *p, *q; void f(void) { p = &x; q = p; }").unwrap();
        let r = steensgaard(&prog);
        assert_eq!(r.points_to_names(&prog, "p"), vec!["x".to_string()]);
        assert_eq!(r.points_to_names(&prog, "q"), vec!["x".to_string()]);
        let p = prog.object_by_name("p").unwrap();
        let q = prog.object_by_name("q").unwrap();
        assert!(r.may_alias(p, q));
    }

    #[test]
    fn unification_merges_unlike_inclusion() {
        // p = &x; p = &y; q = &x — unification puts x and y in one class,
        // so q "points to" both; inclusion (the paper's framework) keeps
        // q → {x} precise. This is the expected precision gap.
        let prog =
            lower_source("int x, y, *p, *q; void f(void) { p = &x; p = &y; q = &x; }").unwrap();
        let r = steensgaard(&prog);
        let q_pts = r.points_to_names(&prog, "q");
        assert!(q_pts.contains(&"x".to_string()));
        assert!(q_pts.contains(&"y".to_string()), "{q_pts:?}");
    }

    #[test]
    fn loads_and_stores() {
        let prog = lower_source(
            "int x, *p, **pp, *q; void f(void) { p = &x; pp = &p; q = *pp; }",
        )
        .unwrap();
        let r = steensgaard(&prog);
        assert!(r
            .points_to_names(&prog, "q")
            .contains(&"x".to_string()));
    }

    #[test]
    fn indirect_calls_resolve() {
        let prog = lower_source(
            "int x; int *get(void) { return &x; }\n\
             int *(*fp)(void); int *r;\n\
             void f(void) { fp = get; r = fp(); }",
        )
        .unwrap();
        let r = steensgaard(&prog);
        assert!(r.resolved_indirect_calls >= 1);
        assert!(r.points_to_names(&prog, "r").contains(&"x".to_string()));
    }

    #[test]
    fn terminates_on_cycles() {
        let prog = lower_source(
            "struct N { struct N *next; } a, b;\n\
             void f(void) { a.next = &b; b.next = &a; a.next = b.next; }",
        )
        .unwrap();
        let r = steensgaard(&prog);
        assert!(r.class_count() > 0);
    }

    #[test]
    fn deref_metric_is_finite() {
        let prog = lower_source(
            "struct S { int *a; int *b; } s, *p; int x;\n\
             void f(void) { p = &s; p->a = &x; }",
        )
        .unwrap();
        let r = steensgaard(&prog);
        let avg = r.average_deref_size(&prog);
        assert!(avg >= 1.0, "{avg}");
    }
}
