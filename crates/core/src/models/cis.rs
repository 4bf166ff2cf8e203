//! The "Common Initial Sequence" instance (paper §4.3.3): like "Collapse on
//! Cast", but exploits the ISO C guarantee that structs sharing a compatible
//! initial sequence of fields lay those fields out identically — so accesses
//! within the shared prefix stay field-precise even across casts.

use super::util::{counted_lookup, counted_resolve, following_pairs, Alpha, Leaves, Portable};
use crate::facts::FactStore;
use crate::loc::Loc;
use crate::model::{FieldModel, ModelKind, ModelStats};
use structcast_ir::{ObjId, Program};
use structcast_types::{
    common_initial_len, compatible, CompatMode, FieldPath, RecordId, Shape, TypeId, TypeKind,
};

/// The "Common Initial Sequence" model.
#[derive(Debug, Clone)]
pub struct CommonInitialSeqModel {
    compat: CompatMode,
    arith_stride: bool,
}

/// Where a pointer declared to point to `τ` lands at a target leaf `β`:
/// which enclosing candidate `δ` (with `normalize(t.δ) = t.β̂`) it is read
/// as. The choice does not depend on the field path `α` that follows.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Landing {
    /// An exact, cast-free match at a candidate of this type.
    Exact(TypeId),
    /// The candidate of type `ty` (record `dr`, last leaf before `end`)
    /// shares a common initial sequence of `n` fields with `τ`; `full`
    /// when the two records are fully compatible.
    Cis {
        ty: TypeId,
        dr: RecordId,
        n: usize,
        full: bool,
        end: u32,
    },
    /// No candidate fits: collapse from `β` onward.
    Collapse,
}

impl CommonInitialSeqModel {
    /// Creates the model with the given type-compatibility mode.
    pub fn new(compat: CompatMode) -> Self {
        CommonInitialSeqModel {
            compat,
            arith_stride: false,
        }
    }

    /// Enables the Wilson–Lam stride refinement for pointer arithmetic.
    pub fn with_stride(mut self, on: bool) -> Self {
        self.arith_stride = on;
        self
    }
}

/// `lookup` (§4.3.3): candidates are tried innermost first.
impl Portable for CommonInitialSeqModel {
    type Landing = Landing;

    fn land(&self, prog: &Program, tau: TypeId, shape: &Shape, beta: u32) -> Landing {
        let types = &prog.types;
        let tau_s = types.strip_arrays(tau);

        // Union candidates: a union location accessed at the union's own
        // type or at any member's type is an exact (cast-free) access, and
        // the result is the collapsed union location itself.
        for node in shape.candidates(beta) {
            let dty_s = types.strip_arrays(node.ty);
            if super::util::union_member_matches(prog, node.ty, tau_s, self.compat)
                || (types
                    .as_record(dty_s)
                    .is_some_and(|r| types.record(r).is_union)
                    && compatible(types, dty_s, tau_s, self.compat))
            {
                return Landing::Exact(node.ty);
            }
        }

        // Scalar τ: behave like Collapse-on-Cast's exact matching — there is
        // no initial sequence to exploit.
        let TypeKind::Record(tau_rec) = types.kind(tau_s) else {
            return shape
                .candidates(beta)
                .find(|n| {
                    let dty_s = types.strip_arrays(n.ty);
                    dty_s == tau_s || compatible(types, dty_s, tau_s, self.compat)
                })
                .map_or(Landing::Collapse, |n| Landing::Exact(n.ty));
        };

        // The candidate δ with the longest common initial sequence with τ
        // (ties → innermost; the paper's examples have a unique candidate —
        // see DESIGN.md §3).
        let mut best: Option<(TypeId, RecordId, usize, u32)> = None;
        for node in shape.candidates(beta) {
            if let TypeKind::Record(dr) = types.kind(types.strip_arrays(node.ty)) {
                let n = common_initial_len(types, *tau_rec, *dr, self.compat);
                if n > 0 && best.is_none_or(|b| n > b.2) {
                    best = Some((node.ty, *dr, n, node.end));
                }
            }
        }
        let Some((ty, dr, n, end)) = best else {
            // No common initial sequence anywhere: collapse from β onward.
            return Landing::Collapse;
        };
        // "Matched" (no cast effect) only when the two record types are
        // fully compatible.
        let full = n == types.record(*tau_rec).fields.len() && n == types.record(dr).fields.len();
        Landing::Cis {
            ty,
            dr,
            n,
            full,
            end,
        }
    }

    /// The mismatch flag is false only when the access stayed fully
    /// type-correct: the candidate is *completely* compatible with `τ`.
    fn follow(
        prog: &Program,
        shape: &Shape,
        landing: Landing,
        beta: u32,
        alpha: Alpha,
    ) -> (Leaves, bool) {
        let types = &prog.types;
        match landing {
            Landing::Exact(ty) => (Leaves::One(beta + alpha.leaf_in(prog, ty)), false),
            Landing::Collapse => (Leaves::From(beta), true),
            Landing::Cis {
                ty,
                dr,
                n,
                full,
                end,
            } => match alpha.path.first() {
                // α within the CIS: same index path is valid in δ's record.
                Some(&head) if (head as usize) < n => {
                    (Leaves::One(beta + alpha.leaf_in(prog, ty)), !full)
                }
                // Empty α (whole-object use by resolve): the start of the CIS.
                None => (Leaves::One(beta), !full),
                // α beyond the CIS: collapse from the first leaf of t that
                // follows the common initial sequence — field `n` of δ's
                // record, or, if the CIS covers all of it, the first leaf
                // after the δ subtree (nothing if there is none).
                Some(_) => {
                    let start = if n < types.record(dr).fields.len() {
                        Some(beta + types.field_leaf_start(dr, n as u32))
                    } else {
                        (end < shape.len()).then_some(end)
                    };
                    (start.map_or(Leaves::Nothing, Leaves::From), true)
                }
            },
        }
    }
}

impl FieldModel for CommonInitialSeqModel {
    fn kind(&self) -> ModelKind {
        ModelKind::CommonInitialSeq
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
    fn lookup_leaves<M: util::Portable>(
        m: &M,
        prog: &Program,
        tau: TypeId,
        alpha: &FieldPath,
        target: &Loc,
    ) -> (Vec<Loc>, bool) {
        let mut out = Vec::new();
        let mismatch = util::lookup_leaves(m, prog, tau, alpha, target, &mut out);
        (out, mismatch)
    }

    /// The location of `obj`'s leaf with field path `steps`.
    fn at(prog: &Program, obj: ObjId, steps: &[u32]) -> Loc {
        let shape = prog.types.shape(prog.type_of(obj));
        Loc::leaf(obj, shape.leaf_at(steps).expect("a leaf path"))
    }

    /// The paper's §4.3.3 example program.
    fn example() -> Program {
        lower_source(
            "struct S { int s1; int s2; int s3; } *p;\n\
             struct T { int t1; int t2; char t3; int t4; } t;\n\
             int *x, *y;\n\
             void f(void) {\n\
               p = (struct S *)&t;\n\
               x = &(*p).s2;\n\
               y = &(*p).s3;\n\
             }",
        )
        .unwrap()
    }

    #[test]
    fn paper_433_lookup_within_cis() {
        let prog = example();
        let m = CommonInitialSeqModel::new(CompatMode::Structural);
        let t = prog.object_by_name("t").unwrap();
        let s_ty = prog
            .pointee_of(prog.object_by_name("p").unwrap())
            .unwrap();
        // normalize(t) = t.t1 (leaf path [0]); s2 = field index 1, within
        // the 2-field CIS → { t.t2 }.
        let tgt = m.normalize(&prog, t, &FieldPath::empty());
        assert_eq!(tgt, at(&prog, t, &[0u32]));
        let (locs, mismatch) =
            lookup_leaves(&m, &prog, s_ty, &FieldPath::from_steps([1u32]), &tgt);
        assert!(mismatch, "S and T are not fully compatible");
        assert_eq!(locs, vec![at(&prog, t, &[1u32])]);
    }

    #[test]
    fn paper_433_lookup_beyond_cis() {
        let prog = example();
        let m = CommonInitialSeqModel::new(CompatMode::Structural);
        let t = prog.object_by_name("t").unwrap();
        let s_ty = prog
            .pointee_of(prog.object_by_name("p").unwrap())
            .unwrap();
        let tgt = m.normalize(&prog, t, &FieldPath::empty());
        // s3 = field index 2, beyond the CIS → { t.t3, t.t4 }.
        let (locs, mismatch) =
            lookup_leaves(&m, &prog, s_ty, &FieldPath::from_steps([2u32]), &tgt);
        assert!(mismatch);
        assert_eq!(
            locs,
            vec![
                at(&prog, t, &[2u32]),
                at(&prog, t, &[3u32]),
            ]
        );
    }

    #[test]
    fn cis_more_precise_than_collapse_on_cast() {
        // The §4.3.3 "within CIS" case: CoC collapses (mismatched type),
        // CIS keeps the single field.
        let prog = example();
        let cis = CommonInitialSeqModel::new(CompatMode::Structural);
        let coc = super::super::CollapseOnCastModel::new(CompatMode::Structural);
        let t = prog.object_by_name("t").unwrap();
        let s_ty = prog
            .pointee_of(prog.object_by_name("p").unwrap())
            .unwrap();
        let tgt = at(&prog, t, &[0u32]);
        let alpha = FieldPath::from_steps([1u32]);
        let (cis_locs, _) = lookup_leaves(&cis, &prog, s_ty, &alpha, &tgt);
        let (coc_locs, _) = lookup_leaves(&coc, &prog, s_ty, &alpha, &tgt);
        assert_eq!(cis_locs.len(), 1);
        assert!(coc_locs.len() > cis_locs.len());
    }

    #[test]
    fn identical_types_are_exact_with_no_mismatch() {
        let prog = lower_source(
            "struct S { int *a; int *b; } s, *p; void f(void) { p = &s; }",
        )
        .unwrap();
        let m = CommonInitialSeqModel::new(CompatMode::Structural);
        let s = prog.object_by_name("s").unwrap();
        let s_ty = prog.type_of(s);
        let tgt = m.normalize(&prog, s, &FieldPath::empty());
        let (locs, mismatch) =
            lookup_leaves(&m, &prog, s_ty, &FieldPath::from_steps([1u32]), &tgt);
        assert!(!mismatch);
        assert_eq!(locs, vec![at(&prog, s, &[1u32])]);
    }

    #[test]
    fn cis_covering_whole_record_continues_in_outer() {
        // struct Small { int a; }; struct Big { struct Small s; int b; };
        // A Small* pointing at big.s, accessing beyond field a: continues
        // at big.b.
        let prog = lower_source(
            "struct Small { int a; int z; } *p;\n\
             struct Wrap { int a; } w;\n\
             struct Big { struct Wrap s; int b; } big;",
        )
        .unwrap();
        let m = CommonInitialSeqModel::new(CompatMode::Structural);
        let big = prog.object_by_name("big").unwrap();
        let small_ty = prog
            .pointee_of(prog.object_by_name("p").unwrap())
            .unwrap();
        // target = normalize(big.s) = big.s.a = [0,0]; candidates include
        // big.s (struct Wrap), CIS(Small, Wrap) = 1 (int a).
        let tgt = at(&prog, big, &[0u32, 0]);
        // Field z (index 1) is beyond Wrap's single field: the first leaf
        // after the whole .0 subtree is big.b ([1]).
        let (locs, mismatch) =
            lookup_leaves(&m, &prog, small_ty, &FieldPath::from_steps([1u32]), &tgt);
        assert!(mismatch);
        assert_eq!(locs, vec![at(&prog, big, &[1u32])]);
    }
}
