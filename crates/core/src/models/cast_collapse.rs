//! The "Collapse on Cast" instance (paper §4.3.2): fields are kept intact
//! unless an object is accessed as a type different from its declared type;
//! then the accessed position and everything after it are lumped together.

use super::util::{fields_of, involves_structs, path_of};
use crate::facts::FactStore;
use crate::loc::Loc;
use crate::model::{FieldModel, ModelKind, ModelStats};
use structcast_ir::{ObjId, Program};
use structcast_types::{
    compatible, enclosing_candidates, following_leaves, normalize_path, type_of_path, CompatMode,
    FieldPath, TypeId,
};

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

    /// Core of the paper's `lookup` (§4.3.2). Returns the result locations
    /// and whether the types failed to match (casting was involved).
    ///
    /// `β̂` (the target's path) is normalized; candidates `δ` with
    /// `normalize(t.δ) = t.β̂` are exactly the first-field prefixes of `β̂`.
    pub(crate) fn lookup_impl(
        &self,
        prog: &Program,
        tau: TypeId,
        alpha: &FieldPath,
        target: &Loc,
    ) -> (Vec<Loc>, bool) {
        let t_ty = prog.type_of(target.obj);
        let beta = path_of(target);
        for delta in enclosing_candidates(&prog.types, t_ty, beta) {
            let Some(dty) = type_of_path(&prog.types, t_ty, &delta) else {
                continue;
            };
            if self.type_matches(prog, dty, tau) {
                // t.δ has an α field; return it, normalized.
                let full = delta.concat(alpha);
                let norm = normalize_path(&prog.types, t_ty, &full);
                return (vec![Loc::path(target.obj, norm)], false);
            }
        }
        // Type mismatch: all fields of t from β onward (Complication 1 means
        // the α field may lie beyond the bounds of the substructure at β).
        let locs = following_leaves(&prog.types, t_ty, beta)
            .into_iter()
            .map(|l| Loc::path(target.obj, l))
            .collect();
        (locs, true)
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

    fn resolve_impl(
        &self,
        prog: &Program,
        dst: &Loc,
        src: &Loc,
        tau: TypeId,
    ) -> (Vec<(Loc, Loc)>, bool) {
        let mut pairs = Vec::new();
        let mut mismatch = false;
        for delta in fields_of(prog, tau) {
            let (gs, m1) = self.lookup_impl(prog, tau, &delta, dst);
            let (hs, m2) = self.lookup_impl(prog, tau, &delta, src);
            mismatch |= m1 || m2;
            for g in &gs {
                for h in &hs {
                    let pair = (g.clone(), h.clone());
                    if !pairs.contains(&pair) {
                        pairs.push(pair);
                    }
                }
            }
        }
        (pairs, mismatch)
    }
}

impl FieldModel for CollapseOnCastModel {
    fn kind(&self) -> ModelKind {
        ModelKind::CollapseOnCast
    }

    fn normalize(&self, prog: &Program, obj: ObjId, path: &FieldPath) -> Loc {
        let ty = prog.type_of(obj);
        Loc::path(obj, normalize_path(&prog.types, ty, path))
    }

    fn lookup(
        &self,
        prog: &Program,
        tau: TypeId,
        alpha: &FieldPath,
        target: &Loc,
        stats: &mut ModelStats,
    ) -> Vec<Loc> {
        stats.lookup_calls += 1;
        let structy = involves_structs(prog, tau, &[target]);
        if structy {
            stats.lookup_struct += 1;
        }
        let (locs, mismatch) = self.lookup_impl(prog, tau, alpha, target);
        if structy && mismatch {
            stats.lookup_mismatch += 1;
        }
        locs
    }

    fn resolve(
        &self,
        prog: &Program,
        dst: &Loc,
        src: &Loc,
        tau: TypeId,
        _facts: &FactStore,
        stats: &mut ModelStats,
    ) -> Vec<(Loc, Loc)> {
        stats.resolve_calls += 1;
        let structy = involves_structs(prog, tau, &[dst, src]);
        if structy {
            stats.resolve_struct += 1;
        }
        let (pairs, mismatch) = self.resolve_impl(prog, dst, src, tau);
        if structy && mismatch {
            stats.resolve_mismatch += 1;
        }
        pairs
    }

    /// Pure: `lookup_impl` reads only the target's object type and path,
    /// and returns locations inside the target's object.
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
    ) -> Vec<(Loc, Loc)> {
        // Unknown-length bulk copy: cross product of everything from dst
        // onward with everything from src onward (safe over-approximation).
        let d_ty = prog.type_of(dst.obj);
        let s_ty = prog.type_of(src.obj);
        let ds = following_leaves(&prog.types, d_ty, path_of(dst));
        let ss = following_leaves(&prog.types, s_ty, path_of(src));
        let mut out = Vec::with_capacity(ds.len() * ss.len());
        for d in &ds {
            for s in &ss {
                out.push((
                    Loc::path(dst.obj, d.clone()),
                    Loc::path(src.obj, s.clone()),
                ));
            }
        }
        out
    }

    fn spread(&self, prog: &Program, target: &Loc, pointee: Option<TypeId>) -> Vec<Loc> {
        super::util::path_spread(prog, target, pointee, self.arith_stride, self.compat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use structcast_ir::lower_source;

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
        assert_eq!(norm, Loc::path(t, FieldPath::from_steps([0u32, 0])));
        // lookup(struct S, s2, t.t1.s1) = { t.t1.s2 }
        let s_ty = {
            let p = prog.object_by_name("p").unwrap();
            prog.pointee_of(p).unwrap()
        };
        let (locs, mismatch) =
            m.lookup_impl(&prog, s_ty, &FieldPath::from_steps([1u32]), &norm);
        assert!(!mismatch);
        assert_eq!(locs, vec![Loc::path(t, FieldPath::from_steps([0u32, 1]))]);
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
        let tgt = Loc::path(t, FieldPath::from_steps([1u32]));
        let (locs, mismatch) =
            m.lookup_impl(&prog, s_ty, &FieldPath::from_steps([1u32]), &tgt);
        assert!(mismatch);
        assert_eq!(
            locs,
            vec![
                Loc::path(t, FieldPath::from_steps([1u32])),
                Loc::path(t, FieldPath::from_steps([2u32])),
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
        let (pairs, mismatch) = m.resolve_impl(
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
                Loc::path(s, FieldPath::from_steps([0u32])),
                Loc::path(t, FieldPath::from_steps([0u32]))
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
        let (pairs, mismatch) = m.resolve_impl(
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
        assert_eq!(m.spread(&prog, &Loc::path(s, FieldPath::empty()), None).len(), 2);
    }
}
