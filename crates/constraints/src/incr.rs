//! Incremental re-compilation: function-granular diffing of two lowered
//! programs and constraint reuse across the edit.
//!
//! The serving tier caches whole programs by source hash, so a one-line
//! edit used to recompile and re-solve everything. This module is stage 1
//! of the incremental pipeline: given the *old* program (with its compiled
//! [`ConstraintSet`]) and the freshly lowered *new* program, it
//!
//! 1. gives every statement of both programs a compact **statement key**
//!    that is stable under edits elsewhere: its variant tag, one token id
//!    per operand, the field path's steps and, for a call, its arity and
//!    result. A token is keyed by the object's kind (a parameter's with
//!    its position), its name — empty for temps and heap sites, which key
//!    anonymously — and its type's structural *shape*. One interner serves
//!    both programs, so ids compare across them; each object's token and
//!    each type's shape is built once per program, in one pass, and
//!    nothing recurses over type depth;
//! 2. matches functions by name and their statements by key (whole-body
//!    match for clean functions, longest common prefix/suffix for edited
//!    ones), producing a stable old→new remapping of object ids
//!    ([`ProgramDiff::obj_map`]);
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
//!
//! # Keys are exact
//!
//! Keys replace a rendering of every statement to text, and two keys are
//! equal exactly when the two renderings were. The rendering is a
//! function of the key; conversely each part of it reads back to one key
//! part: the variant is its first word, a call's arity is its argument
//! count, a path renders `ε` or `.i.j`, a type renders as a postfix term
//! over base names that contain none of `*[](,` (so it parses to one
//! shape), and a token's prefix fixes its kind class and parameter
//! position. The one text two shapes shared — `enum:?`, for an untagged
//! enum and for an enum tagged `?` — is one shape here too, because shapes
//! key enums by their rendered tag. `tests/diff_oracle.rs` keeps the
//! renderer as an oracle and checks whole diffs against it.

use crate::{Builder, Constraint, ConstraintSet, OpRef, PathId};
use std::collections::{HashMap, VecDeque};
use structcast_ir::{Callee, FuncId, Function, ObjId, ObjKind, Program, Stmt};
use structcast_types::idhash::{IdHashMap, IdHashSet};
use structcast_types::{FloatKind, FuncSig, IntKind, TypeId, TypeKind, TypeTable};

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
// Statement keys
// ---------------------------------------------------------------------

/// A type's structure with each component type replaced by its shape id,
/// so equal shape ids mean structurally identical types across the two
/// programs. Records are referred to by *index* (the record tables are
/// verified identical index-by-index before any key is compared) and
/// enums by their rendered tag (`?` when untagged).
#[derive(PartialEq, Eq, Hash)]
enum Shape<'a> {
    Void,
    Int(IntKind),
    Float(FloatKind),
    Enum(&'a str),
    Pointer(u32),
    Array(u32, Option<u64>),
    Function(u32, Vec<u32>, bool),
    Record(u32),
}

/// An operand token. Named objects are keyed by kind class (a parameter's
/// class carries its position), name and type shape; compiler-generated
/// ones (temps, heap sites) by kind class and type shape only, with an
/// empty name. No ordinal, not even a per-unit one: an ordinal makes
/// every statement after an inserted temp key differently, collapsing
/// suffix pairing for the whole rest of the function. Anonymous tokens
/// keep pairing positional; identity is recovered through the paired
/// statements' operand proposals, and any mis-proposal is caught
/// downstream (conflicting proposals demote the object; removed statements
/// that don't survive translation seed retraction of whatever they wrote).
#[derive(PartialEq, Eq, Hash)]
struct Token<'a> {
    class: u32,
    name: &'a str,
    shape: u32,
}

/// The shape and token interner both programs of one diff share, so ids
/// compare across them. Both key source text (tags, names) and keep std's
/// hasher.
#[derive(Default)]
struct Interner<'a> {
    shapes: HashMap<Shape<'a>, u32>,
    tokens: HashMap<Token<'a>, u32>,
}

fn intern<K: std::hash::Hash + Eq>(ids: &mut HashMap<K, u32>, key: K) -> u32 {
    let next = ids.len() as u32;
    *ids.entry(key).or_insert(next)
}

/// Statement-key variant tags.
const K_ADDROF: u32 = 0;
const K_ADDRFIELD: u32 = 1;
const K_COPY: u32 = 2;
const K_LOAD: u32 = 3;
const K_STORE: u32 = 4;
const K_ARITH: u32 = 5;
const K_COPYALL: u32 = 6;
const K_CALL_DIRECT: u32 = 7;
const K_CALL_INDIRECT: u32 = 8;
/// A call key's return slot when the call has no result.
const NO_RET: u32 = u32::MAX;

/// Scope of the file-scope entries in [`Keyed::names`].
const GLOBAL_SCOPE: u32 = u32::MAX;

/// One program, keyed for diffing: every type's shape id, every object's
/// token id and every statement's key, plus the per-unit statement lists
/// and name tables the matcher needs — each built in one pass.
struct Keyed<'a> {
    prog: &'a Program,
    /// `TypeId` → shape id.
    shape: Vec<u32>,
    /// `ObjId` → token id.
    token: Vec<u32>,
    /// Every statement's key, concatenated: statement `i`'s key is
    /// `keys[at[i]..at[i + 1]]`.
    keys: Vec<u32>,
    at: Vec<u32>,
    /// Statement indices per unit: function `f`'s body at index `f`, the
    /// global initializers last.
    units: Vec<Vec<u32>>,
    /// Locals per function, in object order.
    locals: Vec<Vec<ObjId>>,
    /// `(scope, name)` → object for globals ([`GLOBAL_SCOPE`]) and locals
    /// (their function's id); `None` when the name repeats in its scope
    /// (it cannot be matched by name).
    names: HashMap<(u32, &'a str), Option<ObjId>>,
}

impl<'a> Keyed<'a> {
    /// Shapes every type of `prog`. A type is interned only after its
    /// components, so one pass in id order meets every component first and
    /// nothing recurses over type depth.
    fn shapes(prog: &'a Program, it: &mut Interner<'a>) -> Vec<u32> {
        let mut shape: Vec<u32> = Vec::with_capacity(prog.types.len());
        for t in 0..prog.types.len() as u32 {
            let s = match prog.types.kind(TypeId(t)) {
                TypeKind::Void => Shape::Void,
                TypeKind::Int(k) => Shape::Int(*k),
                TypeKind::Float(k) => Shape::Float(*k),
                TypeKind::Enum(tag) => Shape::Enum(tag.as_deref().unwrap_or("?")),
                TypeKind::Pointer(p) => Shape::Pointer(shape[p.0 as usize]),
                TypeKind::Array(e, n) => Shape::Array(shape[e.0 as usize], *n),
                TypeKind::Function(sig) => Shape::Function(
                    shape[sig.ret.0 as usize],
                    sig.params.iter().map(|p| shape[p.0 as usize]).collect(),
                    sig.variadic,
                ),
                TypeKind::Record(r) => Shape::Record(r.0),
            };
            shape.push(intern(&mut it.shapes, s));
        }
        shape
    }

    /// Keys `prog`'s objects and statements against `it`, given its shapes.
    fn new(prog: &'a Program, shape: Vec<u32>, it: &mut Interner<'a>) -> Keyed<'a> {
        let nf = prog.functions.len();
        let mut locals: Vec<Vec<ObjId>> = vec![Vec::new(); nf];
        let mut names: HashMap<(u32, &str), Option<ObjId>> = HashMap::new();
        let mut token = Vec::with_capacity(prog.objects.len());
        for (i, ob) in prog.objects.iter().enumerate() {
            let id = ObjId(i as u32);
            let (class, named) = match ob.kind {
                ObjKind::Global => (0, true),
                ObjKind::Local(_) => (1, true),
                ObjKind::Function(_) => (2, true),
                ObjKind::Ret(_) => (3, true),
                ObjKind::VarArgs(_) => (4, true),
                ObjKind::StringLit => (5, true),
                ObjKind::Temp(_) => (6, false),
                ObjKind::Heap(_) => (7, false),
                ObjKind::Param(_, k) => (8 + k, true),
            };
            let name = if named { ob.name.as_str() } else { "" };
            let shape = shape[ob.ty.0 as usize];
            token.push(intern(&mut it.tokens, Token { class, name, shape }));
            let scope = match ob.kind {
                ObjKind::Global => GLOBAL_SCOPE,
                ObjKind::Local(f) => {
                    locals[f.0 as usize].push(id);
                    f.0
                }
                _ => continue,
            };
            names
                .entry((scope, ob.name.as_str()))
                .and_modify(|o| *o = None)
                .or_insert(Some(id));
        }
        let mut k = Keyed {
            prog,
            shape,
            token,
            keys: Vec::with_capacity(prog.stmts.len() * 4),
            at: Vec::with_capacity(prog.stmts.len() + 1),
            units: vec![Vec::new(); nf + 1],
            locals,
            names,
        };
        for (i, s) in prog.stmts.iter().enumerate() {
            k.at.push(k.keys.len() as u32);
            k.push_key(s);
            let unit = prog.stmt_funcs[i].map_or(nf, |f| f.0 as usize);
            k.units[unit].push(i as u32);
        }
        k.at.push(k.keys.len() as u32);
        k
    }

    /// Appends one statement's key: its variant tag, its operand tokens and,
    /// for the forms that carry one, its field path's steps; a call also
    /// records its arity and (possibly absent) result.
    fn push_key(&mut self, s: &Stmt) {
        let t = |o: &ObjId| self.token[o.0 as usize];
        let mut key = |head: [u32; 3], steps: &[u32]| {
            self.keys.extend_from_slice(&head);
            self.keys.extend_from_slice(steps);
        };
        match s {
            Stmt::AddrOf { dst, src, path } => key([K_ADDROF, t(dst), t(src)], path.steps()),
            Stmt::AddrField { dst, ptr, path } => key([K_ADDRFIELD, t(dst), t(ptr)], path.steps()),
            Stmt::Copy { dst, src, path } => key([K_COPY, t(dst), t(src)], path.steps()),
            Stmt::Load { dst, ptr } => key([K_LOAD, t(dst), t(ptr)], &[]),
            Stmt::Store { ptr, src } => key([K_STORE, t(ptr), t(src)], &[]),
            Stmt::PtrArith { dst, src } => key([K_ARITH, t(dst), t(src)], &[]),
            Stmt::CopyAll { dst_ptr, src_ptr } => key([K_COPYALL, t(dst_ptr), t(src_ptr)], &[]),
            Stmt::Call { callee, args, ret } => {
                let (tag, c) = match callee {
                    Callee::Direct(f) => (K_CALL_DIRECT, t(&self.prog.function(*f).obj)),
                    Callee::Indirect(p) => (K_CALL_INDIRECT, t(p)),
                };
                key([tag, c, args.len() as u32], &[]);
                self.keys.extend(args.iter().map(t));
                self.keys.push(ret.as_ref().map_or(NO_RET, t));
            }
        }
    }

    /// Statement `i`'s key.
    fn key(&self, i: u32) -> &[u32] {
        &self.keys[self.at[i as usize] as usize..self.at[i as usize + 1] as usize]
    }

    fn shape_of(&self, t: TypeId) -> u32 {
        self.shape[t.0 as usize]
    }

    /// The shape of an object's type.
    fn obj_shape(&self, o: ObjId) -> u32 {
        self.shape_of(self.prog.type_of(o))
    }

    /// The object uniquely named `name` in `scope`, if any.
    fn unique(&self, scope: u32, name: &str) -> Option<ObjId> {
        self.names.get(&(scope, name)).copied().flatten()
    }

    /// The global-initializer unit's statements.
    fn globals_unit(&self) -> &[u32] {
        self.units.last().expect("the globals unit")
    }
}

/// The statement operands, in key token order (used for positional
/// pairing of unnamed objects), into `out`.
fn operands(prog: &Program, s: &Stmt, out: &mut Vec<ObjId>) {
    out.clear();
    match s {
        Stmt::AddrOf { dst: a, src: b, .. }
        | Stmt::AddrField { dst: a, ptr: b, .. }
        | Stmt::Copy { dst: a, src: b, .. }
        | Stmt::Load { dst: a, ptr: b }
        | Stmt::Store { ptr: a, src: b }
        | Stmt::PtrArith { dst: a, src: b }
        | Stmt::CopyAll {
            dst_ptr: a,
            src_ptr: b,
        } => out.extend([*a, *b]),
        Stmt::Call { callee, args, ret } => {
            out.push(match callee {
                Callee::Direct(f) => prog.function(*f).obj,
                Callee::Indirect(p) => *p,
            });
            out.extend(args.iter().copied());
            out.extend(ret.iter().copied());
        }
    }
}

/// Whether two name-matched functions agree in signature: type, parameter
/// names and types, variadicness, definedness and which slots exist. A
/// change here invalidates the object mapping of its params/ret/varargs
/// (the body statements of every caller key differently too, via the
/// operand tokens).
fn same_header(o: &Keyed, n: &Keyed, fo: &Function, fnew: &Function) -> bool {
    o.shape_of(fo.ty) == n.shape_of(fnew.ty)
        && fo.params.len() == fnew.params.len()
        && fo.params.iter().zip(&fnew.params).all(|(&a, &b)| {
            o.prog.object(a).name == n.prog.object(b).name && o.obj_shape(a) == n.obj_shape(b)
        })
        && fo.variadic == fnew.variadic
        && fo.defined == fnew.defined
        && fo.ret_slot.is_some() == fnew.ret_slot.is_some()
        && fo.varargs.is_some() == fnew.varargs.is_some()
}

/// Index-by-index fingerprint of the two record tables. Any difference —
/// count, tag, unionness, completeness, field names or structural field
/// types — means interned paths and normalized layouts from the old
/// program are unsound against the new one.
fn records_differ(old: &TypeTable, new: &TypeTable, so: &[u32], sn: &[u32]) -> Option<String> {
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
                    && so[fa.ty.0 as usize] == sn[fb.ty.0 as usize]
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

/// Pairs two units' statement sequences by key: longest common prefix and
/// suffix first, then the unmatched middles are content-matched by
/// identical key (greedy, in order, injective). The analysis is
/// flow-insensitive, so a statement that merely *moved* within its unit —
/// a swapped or reordered line — contributes the same constraint from its
/// new position; content-matching the middle keeps such edits free
/// instead of treating them as a removal (whose retraction cone can be
/// the statement's whole points-to closure) plus an addition. Whatever
/// still doesn't match stays dirty/removed. Returns whether both sides
/// paired completely.
fn pair_prefix_suffix(
    o: &Keyed,
    n: &Keyed,
    old: &[u32],
    new: &[u32],
    pairs: &mut Vec<(u32, u32)>,
) -> bool {
    let mut lo = 0;
    while lo < old.len() && lo < new.len() && o.key(old[lo]) == n.key(new[lo]) {
        pairs.push((old[lo], new[lo]));
        lo += 1;
    }
    let mut hi = 0;
    while hi < old.len() - lo && hi < new.len() - lo {
        let (a, b) = (old[old.len() - 1 - hi], new[new.len() - 1 - hi]);
        if o.key(a) != n.key(b) {
            break;
        }
        pairs.push((a, b));
        hi += 1;
    }
    let (old_mid, new_mid) = (&old[lo..old.len() - hi], &new[lo..new.len() - hi]);
    if old_mid.is_empty() || new_mid.is_empty() {
        return old_mid.len() == new_mid.len();
    }
    let mut by_key: IdHashMap<&[u32], VecDeque<u32>> = IdHashMap::default();
    for &nj in new_mid {
        by_key.entry(n.key(nj)).or_default().push_back(nj);
    }
    let mut matched_mid = 0;
    for &oi in old_mid {
        if let Some(nj) = by_key.get_mut(o.key(oi)).and_then(|q| q.pop_front()) {
            pairs.push((oi, nj));
            matched_mid += 1;
        }
    }
    matched_mid == old_mid.len() && matched_mid == new_mid.len()
}

/// Diffs two independently lowered programs (the previous session's and
/// the edited source's), producing the object remapping and statement
/// pairing that [`compile_incremental`] and the incremental solver
/// consume. Matching is conservative: anything ambiguous is left
/// unmapped/dirty, which costs reuse but never soundness.
pub fn diff_programs(old: &Program, new: &Program) -> ProgramDiff {
    let mut it = Interner::default();
    let (so, sn) = (Keyed::shapes(old, &mut it), Keyed::shapes(new, &mut it));
    if let Some(why) = records_differ(&old.types, &new.types, &so, &sn) {
        return ProgramDiff::fallback(old, new, why);
    }
    let o = Keyed::new(old, so, &mut it);
    let n = Keyed::new(new, sn, &mut it);

    let mut obj_map: Vec<Option<ObjId>> = vec![None; old.objects.len()];
    let mut used = vec![false; new.objects.len()];
    let map = |obj_map: &mut Vec<Option<ObjId>>, used: &mut Vec<bool>, o: ObjId, n: ObjId| {
        if !std::mem::replace(&mut used[n.0 as usize], true) {
            obj_map[o.0 as usize] = Some(n);
        }
    };

    // Globals: by unique name, requiring an identical structural type.
    for (i, ob) in old.objects.iter().enumerate() {
        if !matches!(ob.kind, ObjKind::Global) {
            continue;
        }
        if let Some(m) = n.unique(GLOBAL_SCOPE, &ob.name) {
            if o.shape_of(ob.ty) == n.obj_shape(m) {
                map(&mut obj_map, &mut used, ObjId(i as u32), m);
            }
        }
    }

    // Functions: matched by name. The function *object* maps whenever the
    // name survives (any statement whose meaning depends on the
    // function's type or signature keys differently and goes dirty, so
    // keeping `p -> f` facts through the map is always consistent with
    // the cold solve).
    let new_fns: HashMap<&str, &Function> = new
        .functions
        .iter()
        .rev()
        .map(|f| (f.name.as_str(), f))
        .collect();
    let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(new.stmts.len());
    let mut reused_fns = 0usize;
    let mut dirty_fns = 0usize;
    for f_old in &old.functions {
        let Some(&f_new) = new_fns.get(f_old.name.as_str()) else {
            continue; // removed function: all its statements stay unpaired
        };
        map(&mut obj_map, &mut used, f_old.obj, f_new.obj);
        if !same_header(&o, &n, f_old, f_new) {
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
        for &lo in &o.locals[f_old.id.0 as usize] {
            let name = old.object(lo).name.as_str();
            if o.unique(f_old.id.0, name) != Some(lo) {
                continue;
            }
            if let Some(ln) = n.unique(f_new.id.0, name) {
                if o.obj_shape(lo) == n.obj_shape(ln) {
                    map(&mut obj_map, &mut used, lo, ln);
                }
            }
        }
        let (body_old, body_new) = (&o.units[f_old.id.0 as usize], &n.units[f_new.id.0 as usize]);
        if pair_prefix_suffix(&o, &n, body_old, body_new, &mut pairs) {
            reused_fns += 1;
        } else {
            dirty_fns += 1;
        }
    }

    // Global-initializer statements, paired like a function body.
    let globals_dirty = !pair_prefix_suffix(&o, &n, o.globals_unit(), n.globals_unit(), &mut pairs);

    // Unnamed objects (temps, heap sites, string literals — and shadowed
    // locals the name maps skipped): positional proposals over the paired
    // statements, applied only when consistent and injective.
    let mut proposals: IdHashMap<u32, IdHashSet<u32>> = IdHashMap::default();
    let mut demote: IdHashSet<u32> = IdHashSet::default();
    let (mut oo, mut no) = (Vec::new(), Vec::new());
    for &(oi, nj) in &pairs {
        operands(old, &old.stmts[oi as usize], &mut oo);
        operands(new, &new.stmts[nj as usize], &mut no);
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
    let single = |set: &IdHashSet<u32>| match set.len() {
        1 => set.iter().next().copied(),
        _ => None,
    };
    let mut claims: IdHashMap<u32, u32> = IdHashMap::default(); // target -> #claimants
    for t in proposals.values().filter_map(single) {
        *claims.entry(t).or_default() += 1;
    }
    for (o, set) in &proposals {
        if let Some(t) = single(set) {
            if claims[&t] == 1 && !std::mem::replace(&mut used[t as usize], true) {
                obj_map[*o as usize] = Some(ObjId(t));
            }
        }
    }
    for o in demote {
        obj_map[o as usize] = None;
    }

    let mut paired_old = vec![false; old.stmts.len()];
    let mut paired_new = vec![false; new.stmts.len()];
    for &(oi, nj) in &pairs {
        paired_old[oi as usize] = true;
        paired_new[nj as usize] = true;
    }
    let unpaired = |paired: Vec<bool>| -> Vec<u32> {
        (0..paired.len() as u32)
            .filter(|&i| !paired[i as usize])
            .collect()
    };
    ProgramDiff {
        obj_map,
        dirty_stmts: unpaired(paired_new),
        removed_stmts: unpaired(paired_old),
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
