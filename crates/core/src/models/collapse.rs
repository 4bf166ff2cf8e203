//! The "Collapse Always" instance (paper §4.3.1): every structure is one
//! variable. Portable, least precise, fastest.
//!
//! ```text
//! normalize(s.α)        = s
//! lookup(τ, α, t.β)     = { t }
//! resolve(s.α, t.β, τ)  = { ⟨s, t⟩ }
//! ```

use super::util::involves_structs;
use crate::facts::FactStore;
use crate::loc::Loc;
use crate::model::{FieldModel, ModelKind, ModelStats};
use structcast_ir::{ObjId, Program};
use structcast_types::{FieldPath, TypeId};

/// The "Collapse Always" model.
#[derive(Debug, Clone, Default)]
pub struct CollapseAlwaysModel;

impl CollapseAlwaysModel {
    /// Creates the model.
    pub fn new() -> Self {
        CollapseAlwaysModel
    }
}

impl FieldModel for CollapseAlwaysModel {
    fn kind(&self) -> ModelKind {
        ModelKind::CollapseAlways
    }

    fn normalize(&self, _prog: &Program, obj: ObjId, _path: &FieldPath) -> Loc {
        Loc::whole(obj)
    }

    fn lookup(
        &self,
        prog: &Program,
        tau: TypeId,
        _alpha: &FieldPath,
        target: &Loc,
        stats: &mut ModelStats,
        out: &mut Vec<Loc>,
    ) {
        stats.lookup_calls += 1;
        if involves_structs(prog, tau, &[target]) {
            stats.lookup_struct += 1;
        }
        out.push(Loc::whole(target.obj));
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
        stats.resolve_calls += 1;
        if involves_structs(prog, tau, &[dst, src]) {
            stats.resolve_struct += 1;
        }
        out.push((Loc::whole(dst.obj), Loc::whole(src.obj)));
    }

    /// Pure: both pairs are the whole objects, and the Figure 3 class reads
    /// only `τ` and the two object types.
    fn resolve_is_pure(&self) -> bool {
        true
    }

    fn resolve_all(
        &self,
        _prog: &Program,
        dst: &Loc,
        src: &Loc,
        _facts: &FactStore,
        _stats: &mut ModelStats,
        out: &mut Vec<(Loc, Loc)>,
    ) {
        out.push((Loc::whole(dst.obj), Loc::whole(src.obj)));
    }

    fn spread(&self, _prog: &Program, target: &Loc, _pointee: Option<TypeId>, out: &mut Vec<Loc>) {
        out.push(Loc::whole(target.obj));
    }

    /// Figure 4's fairness expansion: a collapsed struct target stands for
    /// all of its leaf fields.
    fn target_weight(&self, prog: &Program, loc: &Loc) -> usize {
        prog.types.leaf_count(prog.type_of(loc.obj)) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use structcast_ir::lower_source;

    #[test]
    fn everything_collapses() {
        let prog = lower_source(
            "struct S { int *a; int *b; } s; int x;\n\
             void f(void) { s.a = &x; }",
        )
        .unwrap();
        let m = CollapseAlwaysModel::new();
        let s = prog.object_by_name("s").unwrap();
        let n = m.normalize(&prog, s, &FieldPath::from_steps([1u32]));
        assert_eq!(n, Loc::whole(s));
        let mut stats = ModelStats::default();
        let sty = prog.type_of(s);
        let mut looked = Vec::new();
        let alpha = FieldPath::from_steps([0u32]);
        m.lookup(&prog, sty, &alpha, &n, &mut stats, &mut looked);
        assert_eq!(looked, vec![Loc::whole(s)]);
        assert_eq!(stats.lookup_calls, 1);
        assert_eq!(stats.lookup_struct, 1);
    }

    #[test]
    fn struct_targets_expand_for_fairness() {
        let prog = lower_source("struct S { int *a; int *b; int c; } s; int x;").unwrap();
        let m = CollapseAlwaysModel::new();
        let s = prog.object_by_name("s").unwrap();
        let x = prog.object_by_name("x").unwrap();
        assert_eq!(m.target_weight(&prog, &Loc::whole(s)), 3);
        assert_eq!(m.target_weight(&prog, &Loc::whole(x)), 1);
    }
}
