//! The "Common Initial Sequence" instance (paper §4.3.3): like "Collapse on
//! Cast", but exploits the ISO C guarantee that structs sharing a compatible
//! initial sequence of fields lay those fields out identically — so accesses
//! within the shared prefix stay field-precise even across casts.

use super::util::{fields_of, involves_structs, path_of};
use crate::facts::FactStore;
use crate::loc::Loc;
use crate::model::{FieldModel, ModelKind, ModelStats};
use structcast_ir::{ObjId, Program};
use structcast_types::{
    common_initial_len, compatible, enclosing_candidates, following_leaves, leaves,
    normalize_path, type_of_path, CompatMode, FieldPath, TypeId, TypeKind,
};

/// The "Common Initial Sequence" model.
#[derive(Debug, Clone)]
pub struct CommonInitialSeqModel {
    compat: CompatMode,
    arith_stride: bool,
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

    /// Core of the §4.3.3 `lookup`. Returns the result locations and the
    /// mismatch flag (false only when the access stayed fully type-correct,
    /// i.e. the matched candidate is *completely* compatible with `τ`).
    pub(crate) fn lookup_impl(
        &self,
        prog: &Program,
        tau: TypeId,
        alpha: &FieldPath,
        target: &Loc,
    ) -> (Vec<Loc>, bool) {
        let t_ty = prog.type_of(target.obj);
        let beta = path_of(target);
        let tau_s = prog.types.strip_arrays(tau);

        // Union candidates: a union location accessed at the union's own
        // type or at any member's type is an exact (cast-free) access, and
        // the result is the collapsed union location itself.
        for delta in enclosing_candidates(&prog.types, t_ty, beta) {
            if let Some(dty) = type_of_path(&prog.types, t_ty, &delta) {
                if super::util::union_member_matches(prog, dty, tau_s, self.compat)
                    || (prog
                        .types
                        .as_record(prog.types.strip_arrays(dty))
                        .is_some_and(|r| prog.types.record(r).is_union)
                        && compatible(
                            &prog.types,
                            prog.types.strip_arrays(dty),
                            tau_s,
                            self.compat,
                        ))
                {
                    let full = delta.concat(alpha);
                    let norm = normalize_path(&prog.types, t_ty, &full);
                    return (vec![Loc::path(target.obj, norm)], false);
                }
            }
        }

        // Scalar τ: behave like Collapse-on-Cast's exact matching — there is
        // no initial sequence to exploit.
        let TypeKind::Record(tau_rec) = prog.types.kind(tau_s) else {
            for delta in enclosing_candidates(&prog.types, t_ty, beta) {
                if let Some(dty) = type_of_path(&prog.types, t_ty, &delta) {
                    let dty_s = prog.types.strip_arrays(dty);
                    if dty_s == tau_s || compatible(&prog.types, dty_s, tau_s, self.compat) {
                        let full = delta.concat(alpha);
                        let norm = normalize_path(&prog.types, t_ty, &full);
                        return (vec![Loc::path(target.obj, norm)], false);
                    }
                }
            }
            let locs = following_leaves(&prog.types, t_ty, beta)
                .into_iter()
                .map(|l| Loc::path(target.obj, l))
                .collect();
            return (locs, true);
        };
        let tau_rec = *tau_rec;

        // Find the enclosing candidate δ with the longest common initial
        // sequence with τ (ties → innermost; the paper's examples have a
        // unique candidate — see DESIGN.md §3).
        let mut best: Option<(FieldPath, structcast_types::RecordId, usize)> = None;
        for delta in enclosing_candidates(&prog.types, t_ty, beta) {
            let Some(dty) = type_of_path(&prog.types, t_ty, &delta) else {
                continue;
            };
            let dty_s = prog.types.strip_arrays(dty);
            if let TypeKind::Record(dr) = prog.types.kind(dty_s) {
                let n = common_initial_len(&prog.types, tau_rec, *dr, self.compat);
                if n > 0 && best.as_ref().is_none_or(|b| n > b.2) {
                    best = Some((delta, *dr, n));
                }
            }
        }

        let Some((delta, dr, n)) = best else {
            // No common initial sequence anywhere: collapse from β onward.
            let locs = following_leaves(&prog.types, t_ty, beta)
                .into_iter()
                .map(|l| Loc::path(target.obj, l))
                .collect();
            return (locs, true);
        };

        // "Matched" (no cast effect) only when the two record types are
        // fully compatible.
        let full_match = n == prog.types.record(tau_rec).fields.len()
            && n == prog.types.record(dr).fields.len();

        match alpha.steps().first() {
            // α within the CIS: same index path is valid in δ's record.
            Some(&head) if (head as usize) < n => {
                let full = delta.concat(alpha);
                let norm = normalize_path(&prog.types, t_ty, &full);
                (vec![Loc::path(target.obj, norm)], !full_match)
            }
            // Empty α (whole-object use by resolve): the start of the CIS.
            None => {
                let norm = normalize_path(&prog.types, t_ty, &delta);
                (vec![Loc::path(target.obj, norm)], !full_match)
            }
            // α beyond the CIS: collapse from the first field of t that
            // follows the common initial sequence.
            Some(_) => {
                let start = self.first_leaf_after_cis(prog, t_ty, &delta, dr, n);
                let locs = match start {
                    Some(leaf) => following_leaves(&prog.types, t_ty, &leaf)
                        .into_iter()
                        .map(|l| Loc::path(target.obj, l))
                        .collect(),
                    None => Vec::new(), // nothing after the CIS: no fields
                };
                (locs, true)
            }
        }
    }

    /// The first leaf of `t_ty` that follows the common initial sequence of
    /// length `n` inside the substructure at `delta` (of record `dr`); if
    /// the CIS covers all of `dr`, the first leaf after the whole `delta`
    /// subtree.
    fn first_leaf_after_cis(
        &self,
        prog: &Program,
        t_ty: TypeId,
        delta: &FieldPath,
        dr: structcast_types::RecordId,
        n: usize,
    ) -> Option<FieldPath> {
        let nfields = prog.types.record(dr).fields.len();
        if n < nfields {
            // First leaf under δ whose top-level field index is n.
            let dty = type_of_path(&prog.types, t_ty, delta)?;
            let dty_s = prog.types.strip_arrays(dty);
            let first_local = leaves(&prog.types, dty_s)
                .into_iter()
                .find(|l| l.steps().first().is_some_and(|&h| h as usize >= n))?;
            Some(delta.concat(&first_local))
        } else {
            // First leaf of t after the entire δ subtree.
            let all = leaves(&prog.types, t_ty);
            let last_in_delta = all.iter().rposition(|l| l.starts_with(delta))?;
            all.get(last_in_delta + 1).cloned()
        }
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

impl FieldModel for CommonInitialSeqModel {
    fn kind(&self) -> ModelKind {
        ModelKind::CommonInitialSeq
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
        assert_eq!(tgt, Loc::path(t, FieldPath::from_steps([0u32])));
        let (locs, mismatch) =
            m.lookup_impl(&prog, s_ty, &FieldPath::from_steps([1u32]), &tgt);
        assert!(mismatch, "S and T are not fully compatible");
        assert_eq!(locs, vec![Loc::path(t, FieldPath::from_steps([1u32]))]);
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
            m.lookup_impl(&prog, s_ty, &FieldPath::from_steps([2u32]), &tgt);
        assert!(mismatch);
        assert_eq!(
            locs,
            vec![
                Loc::path(t, FieldPath::from_steps([2u32])),
                Loc::path(t, FieldPath::from_steps([3u32])),
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
        let tgt = Loc::path(t, FieldPath::from_steps([0u32]));
        let alpha = FieldPath::from_steps([1u32]);
        let (cis_locs, _) = cis.lookup_impl(&prog, s_ty, &alpha, &tgt);
        let (coc_locs, _) = coc.lookup_impl(&prog, s_ty, &alpha, &tgt);
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
            m.lookup_impl(&prog, s_ty, &FieldPath::from_steps([1u32]), &tgt);
        assert!(!mismatch);
        assert_eq!(locs, vec![Loc::path(s, FieldPath::from_steps([1u32]))]);
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
        let tgt = Loc::path(big, FieldPath::from_steps([0u32, 0]));
        // Field z (index 1) is beyond Wrap's single field: the first leaf
        // after the whole .0 subtree is big.b ([1]).
        let (locs, mismatch) =
            m.lookup_impl(&prog, small_ty, &FieldPath::from_steps([1u32]), &tgt);
        assert!(mismatch);
        assert_eq!(locs, vec![Loc::path(big, FieldPath::from_steps([1u32]))]);
    }
}
