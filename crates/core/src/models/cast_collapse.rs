//! The "Collapse on Cast" instance (paper §4.3.2): fields are kept intact
//! unless an object is accessed as a type different from its declared type;
//! then the accessed position and everything after it are lumped together.

use super::util::{counted_lookup, counted_resolve, following_pairs, Alpha, Leaves, Portable};
use crate::facts::FactStore;
use crate::loc::Loc;
use crate::model::{FieldModel, ModelKind, ModelStats};
use structcast_ir::{ObjId, Program};
use structcast_types::{compatible, CompatMode, FieldPath, Shape, TypeId};

/// The "Collapse on Cast" model.
#[derive(Debug, Clone)]
pub struct CollapseOnCastModel {
    compat: CompatMode,
    arith_stride: bool,
}

impl CollapseOnCastModel {
    /// Creates the model with the given type-compatibility mode.
    pub fn new(compat: CompatMode) -> Self {
        CollapseOnCastModel {
            compat,
            arith_stride: false,
        }
    }

    /// Enables the Wilson–Lam stride refinement for pointer arithmetic.
    pub fn with_stride(mut self, on: bool) -> Self {
        self.arith_stride = on;
        self
    }

    fn type_matches(&self, prog: &Program, a: TypeId, b: TypeId) -> bool {
        if a == b {
            return true;
        }
        let sa = prog.types.strip_arrays(a);
        let sb = prog.types.strip_arrays(b);
        compatible(&prog.types, sa, sb, self.compat)
            // A union location counts as matched when the access type is
            // any member's type (accessing a union via a member is not a
            // cast; all members share the collapsed location).
            || super::util::union_member_matches(prog, sa, sb, self.compat)
    }
}

/// `lookup` (§4.3.2): the innermost candidate whose type matches `τ`, or
/// `None` on a type mismatch.
impl Portable for CollapseOnCastModel {
    type Landing = Option<TypeId>;

    fn land(&self, prog: &Program, tau: TypeId, shape: &Shape, beta: u32) -> Option<TypeId> {
        shape
            .candidates(beta)
            .find(|n| self.type_matches(prog, n.ty, tau))
            .map(|n| n.ty)
    }

    fn follow(
        prog: &Program,
        _shape: &Shape,
        landing: Option<TypeId>,
        beta: u32,
        alpha: Alpha,
    ) -> (Leaves, bool) {
        match landing {
            // t.δ has an α field; it normalizes to β plus α's leaf in δ.
            Some(dty) => (Leaves::One(beta + alpha.leaf_in(prog, dty)), false),
            // Type mismatch: all fields of t from β onward (Complication 1
            // means the α field may lie beyond the bounds of the
            // substructure at β).
            None => (Leaves::From(beta), true),
        }
    }
}

impl FieldModel for CollapseOnCastModel {
    fn kind(&self) -> ModelKind {
        ModelKind::CollapseOnCast
    }

    fn normalize(&self, prog: &Program, obj: ObjId, path: &FieldPath) -> Loc {
        let ty = prog.type_of(obj);
        Loc::leaf(obj, prog.types.leaf_of_path(ty, path.steps()))
    }

    fn lookup(
        &self,
        prog: &Program,
        tau: TypeId,
        alpha: &FieldPath,
        target: &Loc,
        stats: &mut ModelStats,
        out: &mut Vec<Loc>,
    ) {
        counted_lookup(self, prog, tau, alpha, target, stats, out);
    }

    fn resolve(
        &self,
        prog: &Program,
        dst: &Loc,
        src: &Loc,
        tau: TypeId,
        _facts: &FactStore,
        stats: &mut ModelStats,
        out: &mut Vec<(Loc, Loc)>,
    ) {
        counted_resolve(self, prog, dst, src, tau, stats, out);
    }

    /// Pure: a lookup reads only the target's object type and leaf, and
    /// returns locations inside the target's object.
    fn resolve_is_pure(&self) -> bool {
        true
    }

    fn resolve_all(
        &self,
        prog: &Program,
        dst: &Loc,
        src: &Loc,
        _facts: &FactStore,
        _stats: &mut ModelStats,
        out: &mut Vec<(Loc, Loc)>,
    ) {
        following_pairs(prog, dst, src, out);
    }

    fn spread(&self, prog: &Program, target: &Loc, pointee: Option<TypeId>, out: &mut Vec<Loc>) {
        super::util::path_spread(prog, target, pointee, self.arith_stride, self.compat, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::util;
    use structcast_ir::lower_source;

    /// [`util::lookup_leaves`] into a fresh vector.
    fn lookup_leaves(
        m: &CollapseOnCastModel,
        prog: &Program,
        tau: TypeId,
        alpha: &FieldPath,
        target: &Loc,
    ) -> (Vec<Loc>, bool) {
        let mut out = Vec::new();
        let mismatch = util::lookup_leaves(m, prog, tau, alpha, target, &mut out);
        (out, mismatch)
    }

    /// [`util::resolve_leaves`] into a fresh vector.
    fn resolve_leaves(
        m: &CollapseOnCastModel,
        prog: &Program,
        dst: &Loc,
        src: &Loc,
        tau: TypeId,
    ) -> (Vec<(Loc, Loc)>, bool) {
        let mut out = Vec::new();
        let mismatch = util::resolve_leaves(m, prog, dst, src, tau, &mut out);
        (out, mismatch)
    }

    /// The location of `obj`'s leaf with field path `steps`.
    fn at(prog: &Program, obj: ObjId, steps: &[u32]) -> Loc {
        let shape = prog.types.shape(prog.type_of(obj));
        Loc::leaf(obj, shape.leaf_at(steps).expect("a leaf path"))
    }

    /// The paper's §4.3.2 example program.
    fn example() -> Program {
        lower_source(
            "struct S { int s1; char s2; } *p, *q;\n\
             struct T { struct S t1; int t2; char t3; } t;\n\
             char *x, *y;\n\
             void f(void) {\n\
               p = &t.t1;\n\
               x = &(*p).s2;\n\
               q = (struct S *)&t.t2;\n\
               y = &(*q).s2;\n\
             }",
        )
        .unwrap()
    }

    #[test]
    fn paper_432_lookup_matching_type() {
        let prog = example();
        let m = CollapseOnCastModel::new(CompatMode::Structural);
        let t = prog.object_by_name("t").unwrap();
        // normalize(t.t1) = t.t1.s1
        let norm = m.normalize(&prog, t, &FieldPath::from_steps([0u32]));
        assert_eq!(norm, at(&prog, t, &[0u32, 0]));
        // lookup(struct S, s2, t.t1.s1) = { t.t1.s2 }
        let s_ty = {
            let p = prog.object_by_name("p").unwrap();
            prog.pointee_of(p).unwrap()
        };
        let (locs, mismatch) =
            lookup_leaves(&m, &prog, s_ty, &FieldPath::from_steps([1u32]), &norm);
        assert!(!mismatch);
        assert_eq!(locs, vec![at(&prog, t, &[0u32, 1])]);
    }

    #[test]
    fn paper_432_lookup_mismatched_type() {
        let prog = example();
        let m = CollapseOnCastModel::new(CompatMode::Structural);
        let t = prog.object_by_name("t").unwrap();
        // lookup(struct S, s2, t.t2): t2 is not a first field → all fields
        // of t from t2 on: { t.t2, t.t3 }.
        let s_ty = {
            let p = prog.object_by_name("p").unwrap();
            prog.pointee_of(p).unwrap()
        };
        let tgt = at(&prog, t, &[1u32]);
        let (locs, mismatch) =
            lookup_leaves(&m, &prog, s_ty, &FieldPath::from_steps([1u32]), &tgt);
        assert!(mismatch);
        assert_eq!(
            locs,
            vec![
                at(&prog, t, &[1u32]),
                at(&prog, t, &[2u32]),
            ]
        );
    }

    #[test]
    fn resolve_same_types_pairs_fields() {
        let prog = lower_source("struct S { int *a; int *b; } s, t;").unwrap();
        let m = CollapseOnCastModel::new(CompatMode::Structural);
        let s = prog.object_by_name("s").unwrap();
        let t = prog.object_by_name("t").unwrap();
        let sty = prog.type_of(s);
        let (pairs, mismatch) = resolve_leaves(
            &m,
            &prog,
            &m.normalize(&prog, s, &FieldPath::empty()),
            &m.normalize(&prog, t, &FieldPath::empty()),
            sty,
        );
        assert!(!mismatch);
        // Field-wise: (s.a, t.a), (s.b, t.b).
        assert_eq!(pairs.len(), 2);
        assert_eq!(
            pairs[0],
            (
                at(&prog, s, &[0u32]),
                at(&prog, t, &[0u32])
            )
        );
    }

    #[test]
    fn resolve_mismatched_types_cross_products() {
        // s = (struct S)u where u: struct U with incompatible layout.
        let prog = lower_source(
            "struct S { int *a; int *b; } s;\n\
             struct U { char c; int *u1; } u;",
        )
        .unwrap();
        let m = CollapseOnCastModel::new(CompatMode::Structural);
        let s = prog.object_by_name("s").unwrap();
        let u = prog.object_by_name("u").unwrap();
        let sty = prog.type_of(s);
        let (pairs, mismatch) = resolve_leaves(
            &m,
            &prog,
            &m.normalize(&prog, s, &FieldPath::empty()),
            &m.normalize(&prog, u, &FieldPath::empty()),
            sty,
        );
        assert!(mismatch);
        // Dst side matches exactly (s is a struct S) → 2 dst fields;
        // src side mismatches → both fields of u each time → 4 pairs.
        assert_eq!(pairs.len(), 4);
    }

    #[test]
    fn spread_covers_all_leaves() {
        let prog = lower_source("struct S { int *a; struct Inner { int *x; } i; } s;").unwrap();
        let m = CollapseOnCastModel::new(CompatMode::Structural);
        let s = prog.object_by_name("s").unwrap();
        let mut spread = Vec::new();
        let whole = m.normalize(&prog, s, &FieldPath::empty());
        m.spread(&prog, &whole, None, &mut spread);
        assert_eq!(spread.len(), 2);
    }
}
