//! The "Offsets" instance (paper §4.2.2): locations are byte offsets under
//! one concrete [`Layout`]. The most precise instance; its results are only
//! safe for that layout strategy (not portable).
//!
//! ```text
//! normalize(s.α)       = ⟨s, offsetof(τ_s, α)⟩
//! lookup(τ, α, t.k)    = { t.(k + offsetof(τ, α)) }
//! resolve(s.j, t.k, τ) = { ⟨s.(j+i), t.(k+i)⟩ | 0 ≤ i < sizeof(τ) }
//! ```
//!
//! `resolve`'s per-byte pairs are realized lazily against the fact store:
//! only source offsets that currently hold facts produce pairs, and the
//! solver re-fires the statement when new facts appear in the source object
//! — semantically identical to the eager per-byte enumeration.

use super::util::involves_structs;
use crate::facts::FactStore;
use crate::loc::{FieldRep, Loc};
use crate::model::{FieldModel, ModelKind, ModelStats};
use structcast_ir::{ObjId, Program};
use structcast_types::{FieldPath, Layout, LayoutTable, TypeId};

/// The "Offsets" model.
#[derive(Debug, Clone)]
pub struct OffsetsModel {
    layout: Layout,
    arith_stride: bool,
}

impl OffsetsModel {
    /// Creates the model for a concrete layout strategy.
    pub fn new(layout: Layout) -> Self {
        OffsetsModel {
            layout,
            arith_stride: false,
        }
    }

    /// Enables the Wilson–Lam stride refinement for pointer arithmetic.
    pub fn with_stride(mut self, on: bool) -> Self {
        self.arith_stride = on;
        self
    }

    /// The layout this instance analyzes under.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// This layout's size and offset table for `prog`'s types, built once
    /// per program.
    fn table<'p>(&self, prog: &'p Program) -> &'p LayoutTable {
        prog.types.layout_table(&self.layout)
    }

    fn off_of(loc: &Loc) -> u64 {
        match loc.field {
            FieldRep::Off(o) => o,
            ref other => panic!("offsets model received non-offset location {other:?}"),
        }
    }
}

impl FieldModel for OffsetsModel {
    fn kind(&self) -> ModelKind {
        ModelKind::Offsets
    }

    fn normalize(&self, prog: &Program, obj: ObjId, path: &FieldPath) -> Loc {
        let ty = prog.type_of(obj);
        let off = self.table(prog).offset_of_path(&prog.types, ty, path.steps());
        Loc::off(obj, off)
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
        stats.lookup_calls += 1;
        if involves_structs(prog, tau, &[target]) {
            stats.lookup_struct += 1;
        }
        let table = self.table(prog);
        let k = Self::off_of(target);
        let field_off = table.offset_of_path(&prog.types, tau, alpha.steps());
        let n = k + field_off;
        let t_ty = prog.type_of(target.obj);
        let size = table.size_of(t_ty);
        if size > 0 && n >= size {
            // Beyond the actual object: invalid under Assumption 1; dropped.
            stats.out_of_bounds += 1;
            return;
        }
        let canon = table.canonical_offset(&prog.types, t_ty, n);
        out.push(Loc::off(target.obj, canon));
    }

    fn resolve(
        &self,
        prog: &Program,
        dst: &Loc,
        src: &Loc,
        tau: TypeId,
        facts: &FactStore,
        stats: &mut ModelStats,
        out: &mut Vec<(Loc, Loc)>,
    ) {
        stats.resolve_calls += 1;
        if involves_structs(prog, tau, &[dst, src]) {
            stats.resolve_struct += 1;
        }
        let len = self.table(prog).size_of(tau).max(1);
        self.byte_range_pairs(prog, dst, src, len, facts, stats, out);
    }

    /// Not pure: the byte range is enumerated against the offsets that
    /// currently hold facts, so the pair set grows with the store.
    fn resolve_is_pure(&self) -> bool {
        false
    }

    fn resolve_all(
        &self,
        prog: &Program,
        dst: &Loc,
        src: &Loc,
        facts: &FactStore,
        stats: &mut ModelStats,
        out: &mut Vec<(Loc, Loc)>,
    ) {
        self.byte_range_pairs(prog, dst, src, u64::MAX, facts, stats, out);
    }

    fn spread(&self, prog: &Program, target: &Loc, pointee: Option<TypeId>, out: &mut Vec<Loc>) {
        let obj = target.obj;
        let table = self.table(prog);
        let offs = table.spread_offsets(&prog.types, prog.type_of(obj));
        // Wilson–Lam stride refinement (related work §6): a `T*` moved by
        // ±k stays at offsets congruent to the start modulo `sizeof(T)`.
        // Implemented as a *filter* of the whole-object spread, so it is a
        // strict refinement; if nothing survives (e.g. a byte-blob target),
        // the unrefined spread stands.
        if self.arith_stride {
            if let (Some(p), FieldRep::Off(start)) = (pointee, target.field) {
                let s = table.size_of(p).max(1);
                let start_len = out.len();
                out.extend(
                    offs.iter()
                        .filter(|&&o| o % s == start % s)
                        .map(|&o| Loc::off(obj, o)),
                );
                if out.len() > start_len {
                    return;
                }
            }
        }
        out.extend(offs.iter().map(|&o| Loc::off(obj, o)));
    }
}

impl OffsetsModel {
    /// The pairs of a `len`-byte copy from `src` to `dst`: one per source
    /// location of `src.obj` holding facts in `[k, k + len)`, visited in
    /// place in the store's first-fact order.
    #[allow(clippy::too_many_arguments)]
    fn byte_range_pairs(
        &self,
        prog: &Program,
        dst: &Loc,
        src: &Loc,
        len: u64,
        facts: &FactStore,
        stats: &mut ModelStats,
        out: &mut Vec<(Loc, Loc)>,
    ) {
        let j = Self::off_of(dst);
        let k = Self::off_of(src);
        let hi = k.saturating_add(len);
        let table = self.table(prog);
        let d_ty = prog.type_of(dst.obj);
        let d_size = table.size_of(d_ty);
        for src_loc in facts.sources_in(src.obj) {
            let n = match src_loc.field {
                FieldRep::Off(n) if n >= k && n < hi => n,
                _ => continue,
            };
            let m = j + (n - k);
            if d_size > 0 && m >= d_size {
                stats.out_of_bounds += 1;
                continue;
            }
            let m = table.canonical_offset(&prog.types, d_ty, m);
            out.push((Loc::off(dst.obj, m), *src_loc));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use structcast_ir::lower_source;

    fn prog_and_model() -> (Program, OffsetsModel) {
        let prog = lower_source(
            "struct S { int *s1; int s2; char *s3; } s, *p;\n\
             struct T { int *t1; int *t2; char *t3; } t;\n\
             int x;",
        )
        .unwrap();
        (prog, OffsetsModel::new(Layout::ilp32()))
    }

    #[test]
    fn normalize_maps_paths_to_offsets() {
        let (prog, m) = prog_and_model();
        let s = prog.object_by_name("s").unwrap();
        assert_eq!(m.normalize(&prog, s, &FieldPath::empty()), Loc::off(s, 0));
        assert_eq!(
            m.normalize(&prog, s, &FieldPath::from_steps([2u32])),
            Loc::off(s, 8)
        );
    }

    #[test]
    fn lookup_adds_field_offset() {
        // Problem 2's example: p: struct S* points at t: struct T;
        // (*p).s3 refers to byte 8 of t, which is t.t3 — under this layout
        // the two third fields coincide.
        let (prog, m) = prog_and_model();
        let t = prog.object_by_name("t").unwrap();
        let p = prog.object_by_name("p").unwrap();
        let s_ty = prog.pointee_of(p).unwrap();
        let mut stats = ModelStats::default();
        let mut locs = Vec::new();
        m.lookup(
            &prog,
            s_ty,
            &FieldPath::from_steps([2u32]),
            &Loc::off(t, 0),
            &mut stats,
            &mut locs,
        );
        assert_eq!(locs, vec![Loc::off(t, 8)]);
        assert_eq!(stats.lookup_struct, 1);
    }

    #[test]
    fn lookup_out_of_bounds_is_dropped() {
        let (prog, m) = prog_and_model();
        let x = prog.object_by_name("x").unwrap(); // int, size 4
        let p = prog.object_by_name("p").unwrap();
        let s_ty = prog.pointee_of(p).unwrap();
        let mut stats = ModelStats::default();
        // (*p).s3 when p points at a lone int: offset 8 ≥ sizeof(int).
        let mut locs = Vec::new();
        m.lookup(
            &prog,
            s_ty,
            &FieldPath::from_steps([2u32]),
            &Loc::off(x, 0),
            &mut stats,
            &mut locs,
        );
        assert!(locs.is_empty());
        assert_eq!(stats.out_of_bounds, 1);
    }

    #[test]
    fn resolve_transfers_facts_in_range() {
        let (prog, m) = prog_and_model();
        let s = prog.object_by_name("s").unwrap();
        let t = prog.object_by_name("t").unwrap();
        let x = prog.object_by_name("x").unwrap();
        let mut facts = FactStore::new();
        // t.t1 (offset 0) and t.t3 (offset 8) hold pointers to x.
        facts.insert(Loc::off(t, 0), Loc::off(x, 0));
        facts.insert(Loc::off(t, 8), Loc::off(x, 0));
        let s_ty = prog.type_of(s);
        let mut stats = ModelStats::default();
        // s = (struct S)t copies sizeof(struct S) = 12 bytes.
        let mut pairs = Vec::new();
        m.resolve(
            &prog,
            &Loc::off(s, 0),
            &Loc::off(t, 0),
            s_ty,
            &facts,
            &mut stats,
            &mut pairs,
        );
        assert_eq!(pairs.len(), 2);
        assert!(pairs.contains(&(Loc::off(s, 0), Loc::off(t, 0))));
        assert!(pairs.contains(&(Loc::off(s, 8), Loc::off(t, 8))));
    }

    #[test]
    fn resolve_respects_copy_length() {
        // Complication 4: *p = (struct T)s with p: struct T* — only
        // sizeof(struct T) bytes are copied.
        let prog = lower_source(
            "struct R { int *r1; int *r2; char *r3; } r;\n\
             struct S3 { int *s1; int *s2; int *s3; } s;\n\
             struct T2 { int *t1; int *t2; } t;\n\
             int x;",
        )
        .unwrap();
        let m = OffsetsModel::new(Layout::ilp32());
        let r = prog.object_by_name("r").unwrap();
        let s = prog.object_by_name("s").unwrap();
        let t2 = prog.object_by_name("t").unwrap();
        let x = prog.object_by_name("x").unwrap();
        let mut facts = FactStore::new();
        for off in [0u64, 4, 8] {
            facts.insert(Loc::off(s, off), Loc::off(x, 0));
        }
        let t_ty = prog.type_of(t2);
        let mut stats = ModelStats::default();
        let (r0, s0) = (Loc::off(r, 0), Loc::off(s, 0));
        let mut pairs = Vec::new();
        m.resolve(&prog, &r0, &s0, t_ty, &facts, &mut stats, &mut pairs);
        // sizeof(struct T2) = 8: only offsets 0 and 4 transfer.
        assert_eq!(pairs.len(), 2);
        assert!(pairs.iter().all(|(_, sl)| Loc::off(s, 8) != *sl));
    }

    #[test]
    fn spread_lists_leaf_offsets() {
        let (prog, m) = prog_and_model();
        let s = prog.object_by_name("s").unwrap();
        let mut spread = Vec::new();
        m.spread(&prog, &Loc::off(s, 0), None, &mut spread);
        let offs: Vec<u64> = spread
            .into_iter()
            .map(|l| match l.field {
                FieldRep::Off(o) => o,
                _ => panic!(),
            })
            .collect();
        assert_eq!(offs, vec![0, 4, 8]);
    }

    #[test]
    fn lp64_changes_offsets() {
        let prog = lower_source("struct S { char c; int *p; } s;").unwrap();
        let s = prog.object_by_name("s").unwrap();
        let m32 = OffsetsModel::new(Layout::ilp32());
        let m64 = OffsetsModel::new(Layout::lp64());
        let p = FieldPath::from_steps([1u32]);
        assert_eq!(m32.normalize(&prog, s, &p), Loc::off(s, 4));
        assert_eq!(m64.normalize(&prog, s, &p), Loc::off(s, 8));
    }
}
