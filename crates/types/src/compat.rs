//! ISO C *compatible types* (C90 §6.3.2.3 / C99 §6.2.7), the relation the
//! paper's layout guarantees are phrased in.
//!
//! Two modes are provided:
//!
//! * [`CompatMode::TagBased`] — records are compatible only if they are the
//!   *same declaration* (the single-translation-unit ISO rule);
//! * [`CompatMode::Structural`] — records are compatible if they have the
//!   same struct/union-ness, the same number of fields, matching field
//!   names, and pairwise-compatible field types (the cross-translation-unit
//!   rule, coinductive on recursive types). This is the default for
//!   experiments, matching the paper's motivation of matching "similar but
//!   not identical" declarations from different translation units.

use crate::idhash::IdHashSet;
use crate::repr::{RecordId, TypeId, TypeKind, TypeTable};
use std::cell::RefCell;

thread_local! {
    /// The coinductive record pairs of the comparison in progress, reused
    /// across calls so that `compatible` does not allocate on the solver's
    /// hot path. `compat_rec` removes every pair it inserts, so the set is
    /// empty between calls and only its capacity carries over.
    static ASSUMED: RefCell<IdHashSet<(RecordId, RecordId)>> =
        RefCell::new(IdHashSet::default());
}

/// How struct/union compatibility is decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CompatMode {
    /// Same nominal declaration required.
    TagBased,
    /// Structural matching (coinductive on cycles).
    #[default]
    Structural,
}

/// True if `a` and `b` are compatible types under `mode`.
///
/// Qualifiers were dropped during parsing, so this checks the unqualified
/// relation. Enumerations are compatible with each other and with `int`
/// (the paper's reading of the implementation-defined rule).
///
/// # Examples
///
/// ```
/// use structcast_types::{TypeTable, CompatMode, compatible};
/// let mut t = TypeTable::new();
/// let int = t.int();
/// let uint = t.uint();
/// let pi = t.pointer_to(int);
/// let pi2 = t.pointer_to(int);
/// assert!(compatible(&t, pi, pi2, CompatMode::Structural));
/// assert!(!compatible(&t, int, uint, CompatMode::Structural));
/// ```
pub fn compatible(table: &TypeTable, a: TypeId, b: TypeId, mode: CompatMode) -> bool {
    // Compatible types have the same by-value structure, so the same
    // number of leaves (no record contains itself by value, so the
    // coinductive assumption below only ever spans a pointer, which is one
    // leaf): a count mismatch answers without the structural walk, which
    // would otherwise descend as deep as the shallower type.
    if a != b && table.leaf_count(a) != table.leaf_count(b) {
        return false;
    }
    ASSUMED.with(|cell| {
        let mut assumed = cell.borrow_mut();
        if !assumed.is_empty() {
            // Left over only by a panic inside an earlier call.
            assumed.clear();
        }
        compat_rec(table, a, b, mode, &mut assumed)
    })
}

fn compat_rec(
    table: &TypeTable,
    a: TypeId,
    b: TypeId,
    mode: CompatMode,
    assumed: &mut IdHashSet<(RecordId, RecordId)>,
) -> bool {
    if a == b {
        return true;
    }
    use TypeKind::*;
    match (table.kind(a), table.kind(b)) {
        (Void, Void) => true,
        (Int(x), Int(y)) => x == y,
        (Float(x), Float(y)) => x == y,
        // Enums are compatible with each other and with int.
        (Enum(_), Enum(_)) => true,
        (Enum(_), Int(crate::IntKind::Int)) | (Int(crate::IntKind::Int), Enum(_)) => true,
        (Pointer(x), Pointer(y)) => compat_rec(table, *x, *y, mode, assumed),
        (Array(x, nx), Array(y, ny)) => {
            let sizes_ok = match (nx, ny) {
                (Some(n), Some(m)) => n == m,
                _ => true, // unspecified size matches anything
            };
            sizes_ok && compat_rec(table, *x, *y, mode, assumed)
        }
        (Function(sx), Function(sy)) => {
            sx.variadic == sy.variadic
                && sx.params.len() == sy.params.len()
                && compat_rec(table, sx.ret, sy.ret, mode, assumed)
                && sx
                    .params
                    .iter()
                    .zip(&sy.params)
                    .all(|(&p, &q)| compat_rec(table, p, q, mode, assumed))
        }
        (Record(rx), Record(ry)) => match mode {
            CompatMode::TagBased => rx == ry,
            CompatMode::Structural => {
                if rx == ry {
                    return true;
                }
                // Coinductive: assume compatible while checking members.
                let key = (*rx.min(ry), *rx.max(ry));
                if !assumed.insert(key) {
                    return true;
                }
                let ra = table.record(*rx);
                let rb = table.record(*ry);
                let ok = ra.is_union == rb.is_union
                    && ra.complete
                    && rb.complete
                    && ra.fields.len() == rb.fields.len()
                    && ra.fields.iter().zip(&rb.fields).all(|(f, g)| {
                        f.name == g.name && compat_rec(table, f.ty, g.ty, mode, assumed)
                    });
                assumed.remove(&key);
                ok
            }
        },
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repr::Field;

    fn field(name: &str, ty: TypeId) -> Field {
        Field {
            name: name.into(),
            ty,
            anonymous: false,
        }
    }

    #[test]
    fn scalar_rules() {
        let mut t = TypeTable::new();
        let int = t.int();
        let ch = t.char();
        let en = t.intern(TypeKind::Enum(Some("E".into())));
        let en2 = t.intern(TypeKind::Enum(Some("F".into())));
        assert!(compatible(&t, int, int, CompatMode::Structural));
        assert!(!compatible(&t, int, ch, CompatMode::Structural));
        assert!(compatible(&t, en, int, CompatMode::Structural));
        assert!(compatible(&t, en, en2, CompatMode::Structural));
        let long = t.long();
        assert!(!compatible(&t, int, long, CompatMode::Structural));
    }

    #[test]
    fn pointer_depth_matters() {
        let mut t = TypeTable::new();
        let int = t.int();
        let p = t.pointer_to(int);
        let pp = t.pointer_to(p);
        let ch = t.char();
        let pc = t.pointer_to(ch);
        assert!(!compatible(&t, p, pp, CompatMode::Structural));
        assert!(!compatible(&t, p, pc, CompatMode::Structural));
    }

    #[test]
    fn arrays_with_unspecified_size() {
        let mut t = TypeTable::new();
        let int = t.int();
        let a3 = t.array_of(int, Some(3));
        let a4 = t.array_of(int, Some(4));
        let au = t.array_of(int, None);
        assert!(!compatible(&t, a3, a4, CompatMode::Structural));
        assert!(compatible(&t, a3, au, CompatMode::Structural));
    }

    #[test]
    fn structural_vs_tag_based_records() {
        let mut t = TypeTable::new();
        let int = t.int();
        let ip = t.pointer_to(int);
        let (r1, t1) = t.new_record(Some("A".into()), false);
        t.complete_record(r1, vec![field("p", ip), field("n", int)]);
        let (r2, t2) = t.new_record(Some("B".into()), false);
        t.complete_record(r2, vec![field("p", ip), field("n", int)]);
        assert!(compatible(&t, t1, t2, CompatMode::Structural));
        assert!(!compatible(&t, t1, t2, CompatMode::TagBased));
    }

    #[test]
    fn structural_requires_same_field_names() {
        let mut t = TypeTable::new();
        let int = t.int();
        let (r1, t1) = t.new_record(Some("A".into()), false);
        t.complete_record(r1, vec![field("x", int)]);
        let (r2, t2) = t.new_record(Some("B".into()), false);
        t.complete_record(r2, vec![field("y", int)]);
        assert!(!compatible(&t, t1, t2, CompatMode::Structural));
    }

    #[test]
    fn recursive_types_are_coinductive() {
        // struct L1 { struct L1 *next; int v; }
        // struct L2 { struct L2 *next; int v; }
        let mut t = TypeTable::new();
        let int = t.int();
        let (r1, t1) = t.new_record(Some("L1".into()), false);
        let p1 = t.pointer_to(t1);
        t.complete_record(r1, vec![field("next", p1), field("v", int)]);
        let (r2, t2) = t.new_record(Some("L2".into()), false);
        let p2 = t.pointer_to(t2);
        t.complete_record(r2, vec![field("next", p2), field("v", int)]);
        assert!(compatible(&t, t1, t2, CompatMode::Structural));
        assert!(!compatible(&t, t1, t2, CompatMode::TagBased));
    }

    #[test]
    fn mutually_recursive_incompatible_tail() {
        // struct M1 { struct M1 *next; int v; }
        // struct M2 { struct M2 *next; char v; }  — differs in tail
        let mut t = TypeTable::new();
        let int = t.int();
        let ch = t.char();
        let (r1, t1) = t.new_record(Some("M1".into()), false);
        let p1 = t.pointer_to(t1);
        t.complete_record(r1, vec![field("next", p1), field("v", int)]);
        let (r2, t2) = t.new_record(Some("M2".into()), false);
        let p2 = t.pointer_to(t2);
        t.complete_record(r2, vec![field("next", p2), field("v", ch)]);
        assert!(!compatible(&t, t1, t2, CompatMode::Structural));
    }

    #[test]
    fn union_vs_struct_never_compatible() {
        let mut t = TypeTable::new();
        let int = t.int();
        let (r1, t1) = t.new_record(Some("X".into()), false);
        t.complete_record(r1, vec![field("a", int)]);
        let (r2, t2) = t.new_record(Some("X".into()), true);
        t.complete_record(r2, vec![field("a", int)]);
        assert!(!compatible(&t, t1, t2, CompatMode::Structural));
    }

    #[test]
    fn function_signatures() {
        let mut t = TypeTable::new();
        let int = t.int();
        let ch = t.char();
        let f1 = t.function(crate::FuncSig {
            ret: int,
            params: vec![int, ch],
            variadic: false,
        });
        let f2 = t.function(crate::FuncSig {
            ret: int,
            params: vec![int, ch],
            variadic: false,
        });
        let f3 = t.function(crate::FuncSig {
            ret: int,
            params: vec![int],
            variadic: false,
        });
        assert!(compatible(&t, f1, f2, CompatMode::Structural));
        assert!(!compatible(&t, f1, f3, CompatMode::Structural));
    }
}
