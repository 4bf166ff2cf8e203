//! Incremental re-compilation: function-granular diffing of two lowered
//! programs and constraint reuse across the edit.
//!
//! The serving tier caches whole programs by source hash, so a one-line
//! edit used to recompile and re-solve everything. This module is stage 1
//! of the incremental pipeline: given the *old* program (with its compiled
//! [`ConstraintSet`]) and the freshly lowered *new* program, it
//!
//! 1. renders every function body (and the global-initializer section) to
//!    a **normalized form** that is stable under edits elsewhere — temps,
//!    heap sites, and string literals are numbered per function in first-
//!    appearance order instead of by their global counters, and every
//!    operand carries its structural type rendering;
//! 2. matches functions by name and their statements by normalized
//!    rendering (whole-body match for clean functions, longest common
//!    prefix/suffix for edited ones), producing a stable old→new
//!    remapping of object ids ([`ProgramDiff::obj_map`]);
//! 3. re-uses the old set's compiled constraints verbatim for every
//!    matched statement — object ids remapped, field paths re-interned,
//!    type ids translated structurally — and freshly lowers only the
//!    dirty statements ([`compile_incremental`]).
//!
//! The result is **exactly** the set [`ConstraintSet::compile`] would
//! produce for the new program (same constraints, same path-interning
//! order), which is what lets stage 2 (`structcast-core`'s incremental
//! solver) seed a fixpoint from surviving facts and still reach the cold
//! solve's edge set byte-for-byte.
//!
//! Record types are *nominal* in this IR (duplicate tags are allowed, and
//! displays don't expose field lists), so the diff first fingerprints the
//! two record tables index-by-index; any mismatch — a changed struct
//! definition invalidates interned field paths and normalized layouts
//! wholesale — makes the diff report a [`ProgramDiff::fallback`] and
//! callers do a cold compile+solve instead.

use crate::{Builder, Constraint, ConstraintSet, OpRef, PathId};
use std::collections::{HashMap, HashSet};
use structcast_ir::{Callee, FuncId, Function, ObjId, ObjKind, Program, Stmt};
use structcast_types::idhash::{IdHashMap, IdHashSet};
use structcast_types::{FuncSig, IntKind, TypeId, TypeKind, TypeTable};

/// The outcome of diffing two lowered programs: a stable old→new object
/// remapping plus the statement pairing that drives constraint reuse and
/// fact retraction.
#[derive(Debug, Clone)]
pub struct ProgramDiff {
    /// Old object id → new object id, `None` when the object disappeared
    /// or could not be matched unambiguously. Facts rooted in unmapped
    /// objects are not carried across the edit.
    pub obj_map: Vec<Option<ObjId>>,
    /// Matched `(old statement, new statement)` index pairs. A pair's two
    /// statements have identical normalized renderings, so the old
    /// compiled constraint can be reused for the new statement.
    pub pairs: Vec<(u32, u32)>,
    /// New-program statements with no old counterpart (edited or added).
    pub dirty_stmts: Vec<u32>,
    /// Old-program statements with no new counterpart (edited or removed).
    pub removed_stmts: Vec<u32>,
    /// Functions whose header and body matched entirely.
    pub reused_fns: usize,
    /// Name-matched functions whose header or body changed.
    pub dirty_fns: usize,
    /// Whether the global-initializer statement section changed.
    pub globals_dirty: bool,
    /// When set, the programs could not be diffed soundly (e.g. a record
    /// definition changed) and callers must fall back to a cold
    /// compile+solve. All other fields are in their "everything dirty"
    /// state.
    pub fallback: Option<String>,
}

impl ProgramDiff {
    /// An "everything dirty" diff carrying a fallback reason.
    fn fallback(old: &Program, new: &Program, reason: String) -> ProgramDiff {
        ProgramDiff {
            obj_map: vec![None; old.objects.len()],
            pairs: Vec::new(),
            dirty_stmts: (0..new.stmts.len() as u32).collect(),
            removed_stmts: (0..old.stmts.len() as u32).collect(),
            reused_fns: 0,
            dirty_fns: new.functions.len(),
            globals_dirty: true,
            fallback: Some(reason),
        }
    }

    /// For each new statement, the old statement it was paired with.
    pub fn pair_of_new(&self, n_new: usize) -> Vec<Option<u32>> {
        let mut v = vec![None; n_new];
        for &(o, n) in &self.pairs {
            v[n as usize] = Some(o);
        }
        v
    }

    /// The new object each old object maps to, inverted: new id → old id.
    pub fn inverse_obj_map(&self, n_new: usize) -> Vec<Option<ObjId>> {
        let mut v = vec![None; n_new];
        for (o, m) in self.obj_map.iter().enumerate() {
            if let Some(n) = m {
                v[n.0 as usize] = Some(ObjId(o as u32));
            }
        }
        v
    }
}

/// How much of the constraint compilation was reused across an edit.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompileReuse {
    /// Constraints translated verbatim from the previous set.
    pub reused_constraints: usize,
    /// Constraints freshly lowered from the new IR.
    pub fresh_constraints: usize,
}

// ---------------------------------------------------------------------
// Normalized rendering
// ---------------------------------------------------------------------

/// Structural rendering of a type, for operand tokens. Unlike
/// `TypeTable::display` this refers to records by *index* (`#rec3`), not
/// tag — the record tables are verified identical index-by-index before
/// any rendering is compared, so equal renderings imply structurally
/// identical types across the two programs.
fn render_type(types: &TypeTable, t: TypeId) -> String {
    match types.kind(t) {
        TypeKind::Void => "void".into(),
        TypeKind::Int(k) => format!("i{k:?}"),
        TypeKind::Float(k) => format!("f{k:?}"),
        TypeKind::Enum(tag) => format!("enum:{}", tag.as_deref().unwrap_or("?")),
        TypeKind::Pointer(p) => format!("{}*", render_type(types, *p)),
        TypeKind::Array(e, n) => match n {
            Some(n) => format!("{}[{n}]", render_type(types, *e)),
            None => format!("{}[]", render_type(types, *e)),
        },
        TypeKind::Function(sig) => {
            let params: Vec<String> = sig.params.iter().map(|p| render_type(types, *p)).collect();
            format!(
                "{}({}{})",
                render_type(types, sig.ret),
                params.join(","),
                if sig.variadic { ",..." } else { "" }
            )
        }
        TypeKind::Record(r) => format!("#rec{}", r.0),
    }
}

/// Per-render-unit operand tokenizer. Named objects render by qualified
/// name; compiler-generated ones (temps, heap sites, string literals)
/// render *anonymously* — by kind and structural type only, with no
/// ordinal. An ordinal (even a per-unit one) makes every statement after
/// an inserted temp render differently, collapsing suffix pairing for the
/// whole rest of the function. Anonymous tokens keep pairing positional;
/// identity is recovered through the paired statements' operand
/// proposals, and any mis-proposal is caught downstream (conflicting
/// proposals demote the object; removed statements that don't survive
/// translation seed retraction of whatever they wrote).
struct Renderer<'p> {
    prog: &'p Program,
}

impl<'p> Renderer<'p> {
    fn new(prog: &'p Program) -> Self {
        Renderer { prog }
    }

    fn token(&mut self, o: ObjId) -> String {
        let ob = self.prog.object(o);
        let tyr = render_type(&self.prog.types, ob.ty);
        match ob.kind {
            ObjKind::Global => format!("g:{}:{tyr}", ob.name),
            ObjKind::Local(_) => format!("l:{}:{tyr}", ob.name),
            ObjKind::Param(_, i) => format!("p{i}:{}:{tyr}", ob.name),
            ObjKind::Function(_) => format!("f:{}:{tyr}", ob.name),
            ObjKind::Ret(_) => format!("r:{}:{tyr}", ob.name),
            ObjKind::VarArgs(_) => format!("v:{}:{tyr}", ob.name),
            ObjKind::Temp(_) => format!("%t:{tyr}"),
            ObjKind::Heap(_) => format!("%h:{tyr}"),
            ObjKind::StringLit => format!("%s:{}:{tyr}", ob.name),
        }
    }

    fn stmt(&mut self, s: &Stmt) -> String {
        match s {
            Stmt::AddrOf { dst, src, path } => {
                format!("addrof {} {} {path}", self.token(*dst), self.token(*src))
            }
            Stmt::AddrField { dst, ptr, path } => {
                format!("addrfield {} {} {path}", self.token(*dst), self.token(*ptr))
            }
            Stmt::Copy { dst, src, path } => {
                format!("copy {} {} {path}", self.token(*dst), self.token(*src))
            }
            Stmt::Load { dst, ptr } => format!("load {} {}", self.token(*dst), self.token(*ptr)),
            Stmt::Store { ptr, src } => format!("store {} {}", self.token(*ptr), self.token(*src)),
            Stmt::PtrArith { dst, src } => {
                format!("arith {} {}", self.token(*dst), self.token(*src))
            }
            Stmt::CopyAll { dst_ptr, src_ptr } => {
                format!("copyall {} {}", self.token(*dst_ptr), self.token(*src_ptr))
            }
            Stmt::Call { callee, args, ret } => {
                let c = match callee {
                    Callee::Direct(f) => {
                        format!("D{}", self.token(self.prog.function(*f).obj))
                    }
                    Callee::Indirect(p) => format!("I{}", self.token(*p)),
                };
                let args: Vec<String> = args.iter().map(|a| self.token(*a)).collect();
                let r = match ret {
                    Some(r) => self.token(*r),
                    None => "-".into(),
                };
                format!("call {c} ({}) -> {r}", args.join(" "))
            }
        }
    }
}

/// The statement operands, in a fixed order matching the rendering's
/// token order (used for positional pairing of unnamed objects).
fn operands(prog: &Program, s: &Stmt) -> Vec<ObjId> {
    match s {
        Stmt::AddrOf { dst, src, .. } => vec![*dst, *src],
        Stmt::AddrField { dst, ptr, .. } => vec![*dst, *ptr],
        Stmt::Copy { dst, src, .. } => vec![*dst, *src],
        Stmt::Load { dst, ptr } => vec![*dst, *ptr],
        Stmt::Store { ptr, src } => vec![*ptr, *src],
        Stmt::PtrArith { dst, src } => vec![*dst, *src],
        Stmt::CopyAll { dst_ptr, src_ptr } => vec![*dst_ptr, *src_ptr],
        Stmt::Call { callee, args, ret } => {
            let mut v = vec![match callee {
                Callee::Direct(f) => prog.function(*f).obj,
                Callee::Indirect(p) => *p,
            }];
            v.extend(args.iter().copied());
            v.extend(ret.iter().copied());
            v
        }
    }
}

/// The function's signature-level rendering: a change here invalidates the
/// object mapping of its params/ret/varargs (the body statements of every
/// caller change rendering too, via the operand tokens).
fn render_header(prog: &Program, f: &Function) -> String {
    let params: Vec<String> = f
        .params
        .iter()
        .map(|&p| {
            let ob = prog.object(p);
            format!("{}:{}", ob.name, render_type(&prog.types, ob.ty))
        })
        .collect();
    format!(
        "fn {} ty={} params=[{}] variadic={} defined={} ret={} varargs={}",
        f.name,
        render_type(&prog.types, f.ty),
        params.join(","),
        f.variadic,
        f.defined,
        f.ret_slot.is_some(),
        f.varargs.is_some(),
    )
}

/// Renders the statements of one unit (a function body, or the global
/// initializers for `fid == None`) with a fresh per-unit [`Renderer`].
fn render_unit(prog: &Program, fid: Option<FuncId>) -> Vec<(u32, String)> {
    let mut r = Renderer::new(prog);
    prog.stmts
        .iter()
        .enumerate()
        .filter(|(i, _)| prog.stmt_funcs[*i] == fid)
        .map(|(i, s)| (i as u32, r.stmt(s)))
        .collect()
}

/// Index-by-index fingerprint of the two record tables. Any difference —
/// count, tag, unionness, completeness, field names or structural field
/// types — means interned paths and normalized layouts from the old
/// program are unsound against the new one.
fn records_differ(old: &TypeTable, new: &TypeTable) -> Option<String> {
    if old.record_count() != new.record_count() {
        return Some(format!(
            "record count changed ({} -> {})",
            old.record_count(),
            new.record_count()
        ));
    }
    for i in 0..old.record_count() as u32 {
        let rid = structcast_types::RecordId(i);
        let (a, b) = (old.record(rid), new.record(rid));
        let same = a.tag == b.tag
            && a.is_union == b.is_union
            && a.complete == b.complete
            && a.fields.len() == b.fields.len()
            && a.fields.iter().zip(&b.fields).all(|(fa, fb)| {
                fa.name == fb.name
                    && fa.anonymous == fb.anonymous
                    && render_type(old, fa.ty) == render_type(new, fb.ty)
            });
        if !same {
            return Some(format!(
                "record #{i} ({:?}) changed definition",
                b.tag.as_deref().unwrap_or("<anon>")
            ));
        }
    }
    None
}

/// Pairs two rendered statement sequences: longest common prefix and
/// suffix first, then the unmatched middles are content-matched by
/// identical rendering (greedy, in order, injective). The analysis is
/// flow-insensitive, so a statement that merely *moved* within its unit —
/// a swapped or reordered line — contributes the same constraint from its
/// new position; content-matching the middle keeps such edits free
/// instead of treating them as a removal (whose retraction cone can be
/// the statement's whole points-to closure) plus an addition. Whatever
/// still doesn't match stays dirty/removed. Returns whether both sides
/// paired completely.
fn pair_prefix_suffix(
    old: &[(u32, String)],
    new: &[(u32, String)],
    pairs: &mut Vec<(u32, u32)>,
) -> bool {
    let mut lo = 0;
    while lo < old.len() && lo < new.len() && old[lo].1 == new[lo].1 {
        pairs.push((old[lo].0, new[lo].0));
        lo += 1;
    }
    let mut hi = 0;
    while hi < old.len() - lo && hi < new.len() - lo {
        let (a, b) = (&old[old.len() - 1 - hi], &new[new.len() - 1 - hi]);
        if a.1 != b.1 {
            break;
        }
        pairs.push((a.0, b.0));
        hi += 1;
    }
    let mut by_render: HashMap<&str, std::collections::VecDeque<u32>> = HashMap::new();
    for (nj, s) in &new[lo..new.len() - hi] {
        by_render.entry(s.as_str()).or_default().push_back(*nj);
    }
    let mut matched_mid = 0;
    for (oi, s) in &old[lo..old.len() - hi] {
        if let Some(nj) = by_render.get_mut(s.as_str()).and_then(|q| q.pop_front()) {
            pairs.push((*oi, nj));
            matched_mid += 1;
        }
    }
    lo + hi + matched_mid == old.len() && lo + hi + matched_mid == new.len()
}

/// Name → object index for objects passing `keep`, names that appear more
/// than once removed (they cannot be matched by name).
fn unique_names(prog: &Program, keep: impl Fn(&ObjKind) -> bool) -> HashMap<&str, ObjId> {
    let mut map: HashMap<&str, ObjId> = HashMap::new();
    let mut dup: HashSet<&str> = HashSet::new();
    for (i, o) in prog.objects.iter().enumerate() {
        if !keep(&o.kind) {
            continue;
        }
        if map.insert(o.name.as_str(), ObjId(i as u32)).is_some() {
            dup.insert(o.name.as_str());
        }
    }
    for d in dup {
        map.remove(d);
    }
    map
}

/// Diffs two independently lowered programs (the previous session's and
/// the edited source's), producing the object remapping and statement
/// pairing that [`compile_incremental`] and the incremental solver
/// consume. Matching is conservative: anything ambiguous is left
/// unmapped/dirty, which costs reuse but never soundness.
pub fn diff_programs(old: &Program, new: &Program) -> ProgramDiff {
    if let Some(why) = records_differ(&old.types, &new.types) {
        return ProgramDiff::fallback(old, new, why);
    }

    let mut obj_map: Vec<Option<ObjId>> = vec![None; old.objects.len()];
    let mut used: IdHashSet<u32> = IdHashSet::default();
    let map = |obj_map: &mut Vec<Option<ObjId>>, used: &mut IdHashSet<u32>, o: ObjId, n: ObjId| {
        if used.insert(n.0) {
            obj_map[o.0 as usize] = Some(n);
        }
    };

    // Globals: by unique name, requiring an identical structural type.
    let new_globals = unique_names(new, |k| matches!(k, ObjKind::Global));
    for (i, ob) in old.objects.iter().enumerate() {
        if !matches!(ob.kind, ObjKind::Global) {
            continue;
        }
        if let Some(&n) = new_globals.get(ob.name.as_str()) {
            if render_type(&old.types, ob.ty) == render_type(&new.types, new.type_of(n)) {
                map(&mut obj_map, &mut used, ObjId(i as u32), n);
            }
        }
    }

    // Functions: matched by name. The function *object* maps whenever the
    // name survives (any statement whose meaning depends on the
    // function's type or signature renders differently and goes dirty, so
    // keeping `p -> f` facts through the map is always consistent with
    // the cold solve).
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    let mut reused_fns = 0usize;
    let mut dirty_fns = 0usize;
    for f_old in &old.functions {
        let Some(f_new) = new.function_by_name(&f_old.name) else {
            continue; // removed function: all its statements stay unpaired
        };
        map(&mut obj_map, &mut used, f_old.obj, f_new.obj);
        if render_header(old, f_old) != render_header(new, f_new) {
            dirty_fns += 1;
            continue;
        }
        for (&po, &pn) in f_old.params.iter().zip(&f_new.params) {
            map(&mut obj_map, &mut used, po, pn);
        }
        if let (Some(ro), Some(rn)) = (f_old.ret_slot, f_new.ret_slot) {
            map(&mut obj_map, &mut used, ro, rn);
        }
        if let (Some(vo), Some(vn)) = (f_old.varargs, f_new.varargs) {
            map(&mut obj_map, &mut used, vo, vn);
        }
        // Locals by (unique) qualified name with identical type.
        let new_locals = unique_names(new, |k| *k == ObjKind::Local(f_new.id));
        let old_locals = unique_names(old, |k| *k == ObjKind::Local(f_old.id));
        for (name, &o) in &old_locals {
            if let Some(&n) = new_locals.get(name) {
                if render_type(&old.types, old.type_of(o)) == render_type(&new.types, new.type_of(n))
                {
                    map(&mut obj_map, &mut used, o, n);
                }
            }
        }
        let body_old = render_unit(old, Some(f_old.id));
        let body_new = render_unit(new, Some(f_new.id));
        if pair_prefix_suffix(&body_old, &body_new, &mut pairs) {
            reused_fns += 1;
        } else {
            dirty_fns += 1;
        }
    }

    // Global-initializer statements, paired like a function body.
    let init_old = render_unit(old, None);
    let init_new = render_unit(new, None);
    let globals_dirty = !pair_prefix_suffix(&init_old, &init_new, &mut pairs);

    // Unnamed objects (temps, heap sites, string literals — and shadowed
    // locals the name maps skipped): positional proposals over the paired
    // statements, applied only when consistent and injective.
    let mut proposals: IdHashMap<u32, IdHashSet<u32>> = IdHashMap::default();
    let mut demote: IdHashSet<u32> = IdHashSet::default();
    for &(oi, nj) in &pairs {
        let oo = operands(old, &old.stmts[oi as usize]);
        let no = operands(new, &new.stmts[nj as usize]);
        debug_assert_eq!(oo.len(), no.len(), "paired statements must agree in form");
        for (&o, &n) in oo.iter().zip(&no) {
            match obj_map[o.0 as usize] {
                // A name-mapped object positionally matched to a different
                // target: ambiguous (duplicate names); drop its mapping.
                Some(m) if m != n => {
                    demote.insert(o.0);
                }
                Some(_) => {}
                None => {
                    proposals.entry(o.0).or_default().insert(n.0);
                }
            }
        }
    }
    let mut claims: IdHashMap<u32, u32> = IdHashMap::default(); // target -> #claimants
    for set in proposals.values() {
        if let [t] = *set.iter().copied().collect::<Vec<_>>().as_slice() {
            *claims.entry(t).or_default() += 1;
        }
    }
    for (o, set) in &proposals {
        let one: Vec<u32> = set.iter().copied().collect();
        if let [t] = *one.as_slice() {
            if claims[&t] == 1 && used.insert(t) {
                obj_map[*o as usize] = Some(ObjId(t));
            }
        }
    }
    for o in demote {
        obj_map[o as usize] = None;
    }

    let paired_old: IdHashSet<u32> = pairs.iter().map(|&(o, _)| o).collect();
    let paired_new: IdHashSet<u32> = pairs.iter().map(|&(_, n)| n).collect();
    ProgramDiff {
        obj_map,
        dirty_stmts: (0..new.stmts.len() as u32)
            .filter(|i| !paired_new.contains(i))
            .collect(),
        removed_stmts: (0..old.stmts.len() as u32)
            .filter(|i| !paired_old.contains(i))
            .collect(),
        pairs,
        reused_fns,
        dirty_fns,
        globals_dirty,
        fallback: None,
    }
}

// ---------------------------------------------------------------------
// Incremental constraint compilation
// ---------------------------------------------------------------------

/// Structural old→new type-id translation, memoized. Record ids map by
/// identity (the tables were fingerprinted equal); everything else maps
/// by translating the inner ids and looking the rebuilt kind up in the
/// new table. `None` when the new table never interned the kind — the
/// caller freshly lowers that statement instead.
fn translate_type(
    old: &TypeTable,
    new: &TypeTable,
    t: TypeId,
    memo: &mut IdHashMap<TypeId, Option<TypeId>>,
) -> Option<TypeId> {
    if let Some(&m) = memo.get(&t) {
        return m;
    }
    let kind = match old.kind(t) {
        k @ (TypeKind::Void | TypeKind::Int(_) | TypeKind::Float(_) | TypeKind::Enum(_)) => {
            k.clone()
        }
        TypeKind::Record(r) => TypeKind::Record(*r),
        TypeKind::Pointer(p) => match translate_type(old, new, *p, memo) {
            Some(p) => TypeKind::Pointer(p),
            None => {
                memo.insert(t, None);
                return None;
            }
        },
        TypeKind::Array(e, n) => match translate_type(old, new, *e, memo) {
            Some(e) => TypeKind::Array(e, *n),
            None => {
                memo.insert(t, None);
                return None;
            }
        },
        TypeKind::Function(sig) => {
            let ret = translate_type(old, new, sig.ret, memo);
            let params: Option<Vec<TypeId>> = sig
                .params
                .iter()
                .map(|p| translate_type(old, new, *p, memo))
                .collect();
            match (ret, params) {
                (Some(ret), Some(params)) => TypeKind::Function(FuncSig {
                    ret,
                    params,
                    variadic: sig.variadic,
                }),
                _ => {
                    memo.insert(t, None);
                    return None;
                }
            }
        }
    };
    let id = new.lookup(&kind);
    memo.insert(t, id);
    id
}

/// Translation context for reusing one old constraint against the new
/// program.
struct Translator<'a> {
    old_prog: &'a Program,
    old_set: &'a ConstraintSet,
    new_prog: &'a Program,
    obj_map: &'a [Option<ObjId>],
    type_memo: IdHashMap<TypeId, Option<TypeId>>,
}

impl Translator<'_> {
    fn obj(&self, o: ObjId) -> Option<ObjId> {
        self.obj_map.get(o.0 as usize).copied().flatten()
    }

    fn ty(&mut self, t: TypeId) -> Option<TypeId> {
        translate_type(
            &self.old_prog.types,
            &self.new_prog.types,
            t,
            &mut self.type_memo,
        )
    }

    fn func(&self, f: FuncId) -> Option<FuncId> {
        self.new_prog.as_function(self.obj(self.old_prog.function(f).obj)?)
    }

    /// Reuses one old constraint: objects remapped, the field path
    /// re-interned in `b`, types translated. `None` (unmatched object or
    /// type) means the caller lowers the statement fresh — provably the
    /// same result, just without reuse.
    fn constraint(&mut self, c: &Constraint, b: &mut Builder<'_>) -> Option<Constraint> {
        let out = match c {
            Constraint::AddrOf { dst, src } => Constraint::AddrOf {
                dst: self.obj(*dst)?,
                src: OpRef {
                    obj: self.obj(src.obj)?,
                    path: b.path_id(self.old_set.path(src.path)),
                },
            },
            Constraint::AddrField {
                dst,
                ptr,
                tau_p,
                path,
            } => Constraint::AddrField {
                dst: self.obj(*dst)?,
                ptr: self.obj(*ptr)?,
                tau_p: self.ty(*tau_p)?,
                path: b.path_id(self.old_set.path(*path)),
            },
            Constraint::Copy { dst, src, tau } => Constraint::Copy {
                dst: self.obj(*dst)?,
                src: OpRef {
                    obj: self.obj(src.obj)?,
                    path: b.path_id(self.old_set.path(src.path)),
                },
                tau: self.ty(*tau)?,
            },
            Constraint::Load { dst, ptr, tau } => Constraint::Load {
                dst: self.obj(*dst)?,
                ptr: self.obj(*ptr)?,
                tau: self.ty(*tau)?,
            },
            Constraint::Store { ptr, src, tau_p } => Constraint::Store {
                ptr: self.obj(*ptr)?,
                src: self.obj(*src)?,
                tau_p: self.ty(*tau_p)?,
            },
            Constraint::PtrArith { dst, src, pointee } => Constraint::PtrArith {
                dst: self.obj(*dst)?,
                src: self.obj(*src)?,
                pointee: match pointee {
                    Some(p) => Some(self.ty(*p)?),
                    None => None,
                },
            },
            Constraint::CopyAll { dst_ptr, src_ptr } => Constraint::CopyAll {
                dst_ptr: self.obj(*dst_ptr)?,
                src_ptr: self.obj(*src_ptr)?,
            },
            Constraint::CallDirect { fid, args, ret } => Constraint::CallDirect {
                fid: self.func(*fid)?,
                args: args.iter().map(|a| self.obj(*a)).collect::<Option<_>>()?,
                ret: match ret {
                    Some(r) => Some(self.obj(*r)?),
                    None => None,
                },
            },
            Constraint::CallIndirect { ptr, args, ret } => Constraint::CallIndirect {
                ptr: self.obj(*ptr)?,
                args: args.iter().map(|a| self.obj(*a)).collect::<Option<_>>()?,
                ret: match ret {
                    Some(r) => Some(self.obj(*r)?),
                    None => None,
                },
            },
        };
        Some(out)
    }
}

/// Compiles the new program's [`ConstraintSet`] by reusing the old set's
/// constraints for every statement `diff` paired, lowering only the dirty
/// remainder. The result is exactly what [`ConstraintSet::compile`] would
/// produce (same constraints, same path-interning order) — only cheaper,
/// and without bumping the per-thread compile counter on the reuse path.
///
/// With a [`ProgramDiff::fallback`](field@ProgramDiff::fallback) diff
/// this degenerates to a full
/// [`ConstraintSet::compile`] with zero reuse.
pub fn compile_incremental(
    old_prog: &Program,
    old_set: &ConstraintSet,
    new_prog: &Program,
    diff: &ProgramDiff,
) -> (ConstraintSet, CompileReuse) {
    if diff.fallback.is_some() {
        let set = ConstraintSet::compile(new_prog);
        let reuse = CompileReuse {
            reused_constraints: 0,
            fresh_constraints: new_prog.stmts.len(),
        };
        return (set, reuse);
    }
    let char_kind = TypeKind::Int(IntKind::Char);
    let char_ty = (0..new_prog.types.len() as u32)
        .map(TypeId)
        .find(|t| new_prog.types.kind(*t) == &char_kind);
    let mut b = Builder {
        prog: new_prog,
        char_ty,
        paths: Vec::new(),
        path_ids: IdHashMap::default(),
    };
    let mut tr = Translator {
        old_prog,
        old_set,
        new_prog,
        obj_map: &diff.obj_map,
        type_memo: IdHashMap::default(),
    };
    let pair_of_new = diff.pair_of_new(new_prog.stmts.len());
    let mut reuse = CompileReuse::default();
    let constraints: Vec<Constraint> = new_prog
        .stmts
        .iter()
        .enumerate()
        .map(|(j, stmt)| {
            if let Some(oi) = pair_of_new[j] {
                if let Some(c) = tr.constraint(&old_set.constraints[oi as usize], &mut b) {
                    reuse.reused_constraints += 1;
                    return c;
                }
            }
            reuse.fresh_constraints += 1;
            b.lower(stmt)
        })
        .collect();
    let set = ConstraintSet {
        constraints,
        paths: b.paths,
        char_ty,
    };
    (set, reuse)
}

/// For each entry of `diff.removed_stmts`, whether the removed old
/// statement's constraint — objects remapped, types translated, path
/// re-interned against the new set — still exists verbatim somewhere in
/// `new_set`. A surviving removal (a swapped line, a deleted duplicate of
/// a statement that still exists elsewhere) preserves every derivation
/// the removed statement contributed, so the incremental solver need not
/// retract anything for it. `false` entries are genuine removals (or
/// untranslatable ones), which must seed retraction.
pub fn removed_survivors(
    old_prog: &Program,
    old_set: &ConstraintSet,
    new_prog: &Program,
    new_set: &ConstraintSet,
    diff: &ProgramDiff,
) -> Vec<bool> {
    if diff.fallback.is_some() {
        return vec![false; diff.removed_stmts.len()];
    }
    // A builder whose path table starts as the new set's, so translated
    // path ids are comparable with the new constraints' ids (paths the
    // new set never interned get fresh ids and compare unequal, which is
    // the right answer: no new constraint can reference them).
    let mut b = Builder {
        prog: new_prog,
        char_ty: new_set.char_ty,
        paths: new_set.paths.clone(),
        path_ids: new_set
            .paths
            .iter()
            .enumerate()
            .map(|(i, p)| (p.clone(), PathId(i as u32)))
            .collect(),
    };
    let mut tr = Translator {
        old_prog,
        old_set,
        new_prog,
        obj_map: &diff.obj_map,
        type_memo: IdHashMap::default(),
    };
    diff.removed_stmts
        .iter()
        .map(|&oi| {
            tr.constraint(&old_set.constraints[oi as usize], &mut b)
                .is_some_and(|c| new_set.constraints.contains(&c))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(src: &str) -> Program {
        structcast_ir::lower_source(src).unwrap()
    }

    /// The incremental compile must be indistinguishable from a cold one.
    fn assert_incremental_matches_cold(old_src: &str, new_src: &str) -> (ProgramDiff, CompileReuse) {
        let old = lower(old_src);
        let new = lower(new_src);
        let old_set = ConstraintSet::compile(&old);
        let diff = diff_programs(&old, &new);
        let (inc, reuse) = compile_incremental(&old, &old_set, &new, &diff);
        let cold = ConstraintSet::compile(&new);
        assert_eq!(inc.dump(&new), cold.dump(&new), "diff: {diff:?}");
        assert_eq!(inc.num_paths(), cold.num_paths());
        (diff, reuse)
    }

    const BASE: &str = "struct S { int *s1; int *s2; } s;\n\
         int x, y, *p, *q;\n\
         void f(void) { s.s1 = &x; p = s.s1; }\n\
         void g(void) { q = &y; }";

    #[test]
    fn identical_programs_pair_everything() {
        let (diff, reuse) = assert_incremental_matches_cold(BASE, BASE);
        assert!(diff.fallback.is_none());
        assert!(diff.dirty_stmts.is_empty(), "{diff:?}");
        assert!(diff.removed_stmts.is_empty());
        assert_eq!(diff.reused_fns, 2);
        assert_eq!(diff.dirty_fns, 0);
        assert!(!diff.globals_dirty);
        assert_eq!(reuse.fresh_constraints, 0);
        assert!(reuse.reused_constraints > 0);
    }

    #[test]
    fn single_function_edit_keeps_the_other_clean() {
        let edited = "struct S { int *s1; int *s2; } s;\n\
             int x, y, *p, *q;\n\
             void f(void) { s.s1 = &x; p = s.s1; }\n\
             void g(void) { q = &x; }";
        let (diff, reuse) = assert_incremental_matches_cold(BASE, edited);
        assert!(diff.fallback.is_none());
        assert_eq!(diff.reused_fns, 1, "{diff:?}");
        assert_eq!(diff.dirty_fns, 1);
        assert!(!diff.dirty_stmts.is_empty());
        assert!(reuse.reused_constraints > 0);
        // The edit touched one statement; everything else is reused.
        assert!(
            diff.dirty_stmts.len() <= 2,
            "prefix/suffix pairing should isolate the edit: {diff:?}"
        );
    }

    #[test]
    fn added_and_removed_functions_diff_cleanly() {
        let grown = "struct S { int *s1; int *s2; } s;\n\
             int x, y, *p, *q;\n\
             void f(void) { s.s1 = &x; p = s.s1; }\n\
             void g(void) { q = &y; }\n\
             void h(void) { p = &y; }";
        let (diff, _) = assert_incremental_matches_cold(BASE, grown);
        assert_eq!(diff.reused_fns, 2);
        assert!(!diff.dirty_stmts.is_empty(), "h's statements are new");
        // And shrinking back: h's statements become removals.
        let (diff, _) = assert_incremental_matches_cold(grown, BASE);
        assert_eq!(diff.reused_fns, 2);
        assert!(!diff.removed_stmts.is_empty());
    }

    #[test]
    fn temp_and_heap_counters_do_not_leak_across_functions() {
        // Editing f shifts the global temp/heap counters used while
        // lowering g; the per-unit ordinals must keep g clean.
        let old_src = "struct N { struct N *next; } *h1, *h2;\n\
             void f(void) { h1 = (struct N*)malloc(8); }\n\
             void g(void) { h2 = (struct N*)malloc(8); h2->next = h2; }";
        let new_src = "struct N { struct N *next; } *h1, *h2;\n\
             void f(void) { h1 = (struct N*)malloc(8); h1 = (struct N*)malloc(8); }\n\
             void g(void) { h2 = (struct N*)malloc(8); h2->next = h2; }";
        let (diff, reuse) = assert_incremental_matches_cold(old_src, new_src);
        assert_eq!(diff.reused_fns, 1, "g must stay clean: {diff:?}");
        assert!(reuse.reused_constraints > 0);
    }

    #[test]
    fn record_definition_change_falls_back() {
        let changed = "struct S { int *s1; int *s2; int *s3; } s;\n\
             int x, y, *p, *q;\n\
             void f(void) { s.s1 = &x; p = s.s1; }\n\
             void g(void) { q = &y; }";
        let old = lower(BASE);
        let new = lower(changed);
        let diff = diff_programs(&old, &new);
        assert!(diff.fallback.is_some(), "{diff:?}");
        // Fallback still compiles correctly (cold path).
        let old_set = ConstraintSet::compile(&old);
        let (inc, reuse) = compile_incremental(&old, &old_set, &new, &diff);
        assert_eq!(inc.dump(&new), ConstraintSet::compile(&new).dump(&new));
        assert_eq!(reuse.reused_constraints, 0);
    }

    #[test]
    fn global_type_change_unmaps_the_global() {
        let changed = "struct S { int *s1; int *s2; } s;\n\
             int x, y, **p, *q;\n\
             void f(void) { s.s1 = &x; }\n\
             void g(void) { q = &y; }";
        let old = lower(
            "struct S { int *s1; int *s2; } s;\n\
             int x, y, *p, *q;\n\
             void f(void) { s.s1 = &x; }\n\
             void g(void) { q = &y; }",
        );
        let new = lower(changed);
        let diff = diff_programs(&old, &new);
        assert!(diff.fallback.is_none());
        let p_old = old.object_by_name("p").unwrap();
        assert_eq!(diff.obj_map[p_old.0 as usize], None, "type changed");
        let x_old = old.object_by_name("x").unwrap();
        assert!(diff.obj_map[x_old.0 as usize].is_some());
    }

    #[test]
    fn string_literals_and_indirect_calls_survive_the_diff() {
        let src = "int x; int *target(void) { return &x; }\n\
             int *(*fp)(void); int *r; char *msg;\n\
             void f(void) { fp = target; r = fp(); msg = \"hello\"; }";
        let (diff, reuse) = assert_incremental_matches_cold(src, src);
        assert!(diff.dirty_stmts.is_empty(), "{diff:?}");
        assert_eq!(reuse.fresh_constraints, 0);
    }
}
