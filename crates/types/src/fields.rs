//! Field paths and the path-level operations of the portable analysis
//! instances ("Collapse on Cast" and "Common Initial Sequence"), walked
//! over the type on every call. The instances read the same answers from
//! the shape tables (`shape.rs`); these walks are the reference the tables
//! are tested against.
//!
//! A [`FieldPath`] is a sequence of field *indices* relative to an object's
//! declared type. The paper writes `s.α` where `α` is a sequence of field
//! names; we use indices so paths are compact and comparisons are cheap.
//!
//! Key operations (paper §4.3):
//!
//! * [`normalize_path`] — map a structure reference to its innermost first
//!   field (the paper's portable `normalize`);
//! * [`leaves`] — the flattened normalized field positions of a type, in
//!   declaration order;
//! * [`following_leaves`] — the paper's `followingFields`, including the
//!   array wrap-around rule from footnote 6.

use crate::repr::{TypeId, TypeKind, TypeTable};
use std::fmt;

/// A path of field indices, relative to some base type.
///
/// The empty path denotes the object itself.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct FieldPath(Vec<u32>);

impl FieldPath {
    /// The empty path (the whole object).
    pub fn empty() -> Self {
        FieldPath(Vec::new())
    }

    /// Builds a path from field indices.
    pub fn from_steps(steps: impl IntoIterator<Item = u32>) -> Self {
        FieldPath(steps.into_iter().collect())
    }

    /// The field indices.
    pub fn steps(&self) -> &[u32] {
        &self.0
    }

    /// True for the empty path.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Path extended by one more field index.
    pub fn child(&self, idx: u32) -> FieldPath {
        let mut v = self.0.clone();
        v.push(idx);
        FieldPath(v)
    }

    /// Concatenation `self.other` (the paper's `α.β`).
    pub fn concat(&self, other: &FieldPath) -> FieldPath {
        let mut v = self.0.clone();
        v.extend_from_slice(&other.0);
        FieldPath(v)
    }

    /// The first `n` steps.
    pub fn prefix(&self, n: usize) -> FieldPath {
        FieldPath(self.0[..n].to_vec())
    }

    /// True if `self` starts with `other`.
    pub fn starts_with(&self, other: &FieldPath) -> bool {
        self.0.len() >= other.0.len() && self.0[..other.0.len()] == other.0[..]
    }
}

impl fmt::Display for FieldPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return write!(f, "ε");
        }
        let parts: Vec<String> = self.0.iter().map(|i| i.to_string()).collect();
        write!(f, ".{}", parts.join("."))
    }
}

/// The type reached by following `path` from `base`, stripping array layers
/// as they are traversed (arrays are single representative elements).
///
/// Returns `None` if the path steps into a non-record or out-of-range field.
pub fn type_of_path(table: &TypeTable, base: TypeId, path: &FieldPath) -> Option<TypeId> {
    let mut cur = base;
    for &idx in path.steps() {
        cur = table.strip_arrays(cur);
        let rid = table.as_record(cur)?;
        let rec = table.record(rid);
        cur = rec.fields.get(idx as usize)?.ty;
    }
    Some(cur)
}

/// Like [`type_of_path`] but returns the types *at* each prefix of the path
/// (length `path.len() + 1`, starting with `base`), without stripping the
/// final array layer, so callers can see which prefixes are arrays.
pub fn prefix_types(table: &TypeTable, base: TypeId, path: &FieldPath) -> Option<Vec<TypeId>> {
    let mut out = Vec::with_capacity(path.len() + 1);
    let mut cur = base;
    out.push(cur);
    for &idx in path.steps() {
        let stripped = table.strip_arrays(cur);
        let rid = table.as_record(stripped)?;
        let rec = table.record(rid);
        cur = rec.fields.get(idx as usize)?.ty;
        out.push(cur);
    }
    Some(out)
}

/// The paper's portable `normalize`: maps a structure reference to its
/// innermost first field, recursively.
///
/// Unions are single collapsed locations in the path models (DESIGN.md
/// §3): paths are truncated at the first step that would enter a union
/// member, and the descent below never enters a union either. Descent
/// also stops at incomplete or empty records and at scalars.
pub fn normalize_path(table: &TypeTable, base: TypeId, path: &FieldPath) -> FieldPath {
    // Truncate the given path at a union boundary.
    let mut walk = table.strip_arrays(base);
    let mut kept = Vec::with_capacity(path.len());
    for &idx in path.steps() {
        match table.kind(walk) {
            TypeKind::Record(rid) => {
                let rec = table.record(*rid);
                if rec.is_union {
                    break; // the union itself is the location
                }
                let Some(f) = rec.fields.get(idx as usize) else {
                    break;
                };
                kept.push(idx);
                walk = table.strip_arrays(f.ty);
            }
            _ => break,
        }
    }
    let path = &FieldPath::from_steps(kept);
    let mut cur = match type_of_path(table, base, path) {
        Some(t) => t,
        None => return path.clone(),
    };
    let mut out = path.clone();
    loop {
        cur = table.strip_arrays(cur);
        match table.kind(cur) {
            TypeKind::Record(rid) => {
                let rec = table.record(*rid);
                if rec.is_union || !rec.complete || rec.fields.is_empty() {
                    return out;
                }
                out = out.child(0);
                cur = rec.fields[0].ty;
            }
            _ => return out,
        }
    }
}

/// The flattened, normalized leaf positions of `ty`, in declaration order.
///
/// A *leaf* is a position [`normalize_path`] maps to itself: a scalar,
/// pointer, function, union, or empty/incomplete record. Every normalized
/// path of `ty` appears exactly once.
pub fn leaves(table: &TypeTable, ty: TypeId) -> Vec<FieldPath> {
    let mut out = Vec::new();
    collect(table, ty, FieldPath::empty(), &mut out);
    return out;

    fn collect(table: &TypeTable, ty: TypeId, at: FieldPath, out: &mut Vec<FieldPath>) {
        let stripped = table.strip_arrays(ty);
        match table.kind(stripped) {
            TypeKind::Record(rid) => {
                let rec = table.record(*rid);
                if rec.is_union || !rec.complete || rec.fields.is_empty() {
                    out.push(at);
                    return;
                }
                let fields: Vec<TypeId> = rec.fields.iter().map(|f| f.ty).collect();
                for (i, fty) in fields.into_iter().enumerate() {
                    collect(table, fty, at.child(i as u32), out);
                }
            }
            _ => out.push(at),
        }
    }
}

/// The paper's `followingFields`, at leaf granularity: all leaves of `ty`
/// at or after `beta` in declaration order, **plus** (footnote 6) every
/// leaf inside the outermost array enclosing `beta`, since an array is a
/// single representative element and pointers can wrap within it.
///
/// `beta` must be a leaf of `ty` (i.e. already normalized); if it is not
/// found, all leaves are returned (safe over-approximation).
pub fn following_leaves(table: &TypeTable, ty: TypeId, beta: &FieldPath) -> Vec<FieldPath> {
    let all = leaves(table, ty);
    let idx = match all.iter().position(|l| l == beta) {
        Some(i) => i,
        None => return all,
    };
    let mut out: Vec<FieldPath> = all[idx..].to_vec();
    // Array wrap-around: find the shortest prefix of beta whose type is an
    // array; all leaves under it are also reachable.
    if let Some(ptys) = prefix_types(table, ty, beta) {
        for (plen, pty) in ptys.iter().enumerate() {
            if matches!(table.kind(*pty), TypeKind::Array(_, _)) {
                let prefix = beta.prefix(plen);
                for l in &all[..idx] {
                    if l.starts_with(&prefix) && !out.contains(l) {
                        out.push(l.clone());
                    }
                }
                break;
            }
        }
    }
    out
}

/// The candidate enclosing positions `δ` such that `normalize(t.δ) = t.β̂`
/// (where `β̂` is already normalized): exactly the prefixes of `β̂` whose
/// remaining steps are all first-field (index 0) descents through structs.
///
/// Returned longest-first (β̂ itself first, outermost candidate last).
pub fn enclosing_candidates(table: &TypeTable, ty: TypeId, beta: &FieldPath) -> Vec<FieldPath> {
    let mut out = Vec::new();
    for plen in (0..=beta.len()).rev() {
        let p = beta.prefix(plen);
        if normalize_path(table, ty, &p) == *beta {
            out.push(p);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repr::Field;
    use crate::TypeTable;

    fn field(name: &str, ty: TypeId) -> Field {
        Field {
            name: name.into(),
            ty,
            anonymous: false,
        }
    }

    /// struct S { int s1; char s2; };
    /// struct T { struct S t1; int t2; char t3; };
    fn nested(t: &mut TypeTable) -> (TypeId, TypeId) {
        let int = t.int();
        let ch = t.char();
        let (srid, sty) = t.new_record(Some("S".into()), false);
        t.complete_record(srid, vec![field("s1", int), field("s2", ch)]);
        let (trid, tty) = t.new_record(Some("T".into()), false);
        t.complete_record(
            trid,
            vec![field("t1", sty), field("t2", int), field("t3", ch)],
        );
        (sty, tty)
    }

    #[test]
    fn path_basics() {
        let p = FieldPath::from_steps([1u32, 0, 2]);
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
        assert!(p.starts_with(&FieldPath::from_steps([1u32])));
        assert!(!p.starts_with(&FieldPath::from_steps([0u32])));
        assert_eq!(p.prefix(2), FieldPath::from_steps([1u32, 0]));
        assert_eq!(
            FieldPath::from_steps([1u32]).concat(&FieldPath::from_steps([2u32])),
            FieldPath::from_steps([1u32, 2])
        );
        assert_eq!(p.to_string(), ".1.0.2");
        assert_eq!(FieldPath::empty().to_string(), "ε");
    }

    #[test]
    fn type_of_path_traversal() {
        let mut t = TypeTable::new();
        let (sty, tty) = nested(&mut t);
        assert_eq!(
            type_of_path(&t, tty, &FieldPath::from_steps([0u32])),
            Some(sty)
        );
        let int = t.int();
        assert_eq!(
            type_of_path(&t, tty, &FieldPath::from_steps([0u32, 0])),
            Some(int)
        );
        assert_eq!(type_of_path(&t, tty, &FieldPath::from_steps([9u32])), None);
        assert_eq!(
            type_of_path(&t, int, &FieldPath::from_steps([0u32])),
            None
        );
    }

    #[test]
    fn normalize_descends_to_innermost_first_field() {
        let mut t = TypeTable::new();
        let (_sty, tty) = nested(&mut t);
        // normalize(t) = t.t1.s1
        assert_eq!(
            normalize_path(&t, tty, &FieldPath::empty()),
            FieldPath::from_steps([0u32, 0])
        );
        // normalize(t.t1) = t.t1.s1
        assert_eq!(
            normalize_path(&t, tty, &FieldPath::from_steps([0u32])),
            FieldPath::from_steps([0u32, 0])
        );
        // scalar fields normalize to themselves
        assert_eq!(
            normalize_path(&t, tty, &FieldPath::from_steps([1u32])),
            FieldPath::from_steps([1u32])
        );
    }

    #[test]
    fn normalize_stops_at_unions() {
        let mut t = TypeTable::new();
        let int = t.int();
        let (urid, uty) = t.new_record(Some("U".into()), true);
        t.complete_record(urid, vec![field("a", int), field("b", int)]);
        let (orid, oty) = t.new_record(Some("O".into()), false);
        t.complete_record(orid, vec![field("u", uty), field("x", int)]);
        // normalize(o) descends into o.u but not into the union's members.
        assert_eq!(
            normalize_path(&t, oty, &FieldPath::empty()),
            FieldPath::from_steps([0u32])
        );
    }

    #[test]
    fn leaves_enumeration() {
        let mut t = TypeTable::new();
        let (_sty, tty) = nested(&mut t);
        let ls = leaves(&t, tty);
        assert_eq!(
            ls,
            vec![
                FieldPath::from_steps([0u32, 0]),
                FieldPath::from_steps([0u32, 1]),
                FieldPath::from_steps([1u32]),
                FieldPath::from_steps([2u32]),
            ]
        );
        let int = t.int();
        assert_eq!(leaves(&t, int), vec![FieldPath::empty()]);
    }

    #[test]
    fn leaves_of_array_of_struct() {
        let mut t = TypeTable::new();
        let (sty, _tty) = nested(&mut t);
        let arr = t.array_of(sty, Some(4));
        // The representative element's fields.
        assert_eq!(leaves(&t, arr).len(), 2);
    }

    #[test]
    fn following_leaves_basic() {
        let mut t = TypeTable::new();
        let (_sty, tty) = nested(&mut t);
        let from = FieldPath::from_steps([1u32]); // t.t2
        let fl = following_leaves(&t, tty, &from);
        assert_eq!(
            fl,
            vec![FieldPath::from_steps([1u32]), FieldPath::from_steps([2u32])]
        );
    }

    #[test]
    fn following_leaves_array_wraparound() {
        // struct A { struct S elems[3]; int tail; } — a leaf inside elems
        // must also reach the *earlier* leaves of elems (footnote 6).
        let mut t = TypeTable::new();
        let (sty, _) = nested(&mut t);
        let int = t.int();
        let arr = t.array_of(sty, Some(3));
        let (arid, aty) = t.new_record(Some("A".into()), false);
        t.complete_record(arid, vec![field("elems", arr), field("tail", int)]);
        // beta = a.elems[*].s2 = path [0, 1]
        let beta = FieldPath::from_steps([0u32, 1]);
        let fl = following_leaves(&t, aty, &beta);
        // .0.1 (itself), .1 (tail), plus wrap-around .0.0 (s1 within array)
        assert!(fl.contains(&FieldPath::from_steps([0u32, 1])));
        assert!(fl.contains(&FieldPath::from_steps([1u32])));
        assert!(fl.contains(&FieldPath::from_steps([0u32, 0])));
        assert_eq!(fl.len(), 3);
    }

    #[test]
    fn following_leaves_unknown_beta_returns_all() {
        let mut t = TypeTable::new();
        let (_sty, tty) = nested(&mut t);
        let bogus = FieldPath::from_steps([7u32, 7]);
        assert_eq!(following_leaves(&t, tty, &bogus).len(), 4);
    }

    #[test]
    fn enclosing_candidates_chain() {
        let mut t = TypeTable::new();
        let (_sty, tty) = nested(&mut t);
        // β̂ = t.t1.s1; candidates are [0,0] (itself), [0] (t.t1), [] (t).
        let beta = FieldPath::from_steps([0u32, 0]);
        let cands = enclosing_candidates(&t, tty, &beta);
        assert_eq!(
            cands,
            vec![
                FieldPath::from_steps([0u32, 0]),
                FieldPath::from_steps([0u32]),
                FieldPath::empty(),
            ]
        );
        // β̂ = t.t2 is not a first field: only itself.
        let beta = FieldPath::from_steps([1u32]);
        assert_eq!(enclosing_candidates(&t, tty, &beta), vec![beta]);
    }
}
