//! The `normalize`/`lookup`/`resolve` framework interface (paper §4.2).
//!
//! A [`FieldModel`] supplies the three functions that parameterize the
//! inference rules. The four instances from the paper are in
//! [`crate::models`]; picking one picks an analysis algorithm.

use crate::facts::FactStore;
use crate::loc::Loc;
use structcast_ir::{ObjId, Program};
use structcast_types::{FieldPath, TypeId};

/// Which instance of the framework to run (paper §4.2.2 and §4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Collapse every structure to one blob (portable, least precise).
    CollapseAlways,
    /// Keep fields; collapse from the accessed position onward when an
    /// object is accessed at a mismatched type (portable).
    CollapseOnCast,
    /// Like Collapse-on-Cast, but exploit ISO C's common-initial-sequence
    /// layout guarantee (portable, most precise of the portables).
    CommonInitialSeq,
    /// Concrete byte offsets under a chosen layout (most precise, not
    /// portable across layout strategies).
    Offsets,
}

impl ModelKind {
    /// All four instances, in the paper's presentation order.
    pub const ALL: [ModelKind; 4] = [
        ModelKind::CollapseAlways,
        ModelKind::CollapseOnCast,
        ModelKind::CommonInitialSeq,
        ModelKind::Offsets,
    ];

    /// The paper's display name for the instance.
    pub fn paper_name(&self) -> &'static str {
        match self {
            ModelKind::CollapseAlways => "Collapse Always",
            ModelKind::CollapseOnCast => "Collapse on Cast",
            ModelKind::CommonInitialSeq => "Common Initial Sequence",
            ModelKind::Offsets => "Offsets",
        }
    }

    /// True for the instances whose results are safe under every
    /// ANSI-conforming layout strategy.
    pub fn is_portable(&self) -> bool {
        !matches!(self, ModelKind::Offsets)
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.paper_name())
    }
}

/// Instrumentation counters for Figure 3: how many `lookup`/`resolve` calls
/// involved structures, and how many of those involved a type mismatch
/// (i.e. casting). Calls made *by* `resolve` to `lookup` are not counted,
/// matching the paper's footnote 7.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModelStats {
    /// Total counted calls to `lookup` (rule 2).
    pub lookup_calls: u64,
    /// ... of which involved structures.
    pub lookup_struct: u64,
    /// ... of which (among struct calls) had mismatched types.
    pub lookup_mismatch: u64,
    /// Total counted calls to `resolve` (rules 3, 4, 5).
    pub resolve_calls: u64,
    /// ... of which involved structures.
    pub resolve_struct: u64,
    /// ... of which (among struct calls) had mismatched types.
    pub resolve_mismatch: u64,
    /// Offset-instance accesses that fell outside the target object and
    /// were dropped under Assumption 1.
    pub out_of_bounds: u64,
}

impl ModelStats {
    /// Percentage of lookup calls involving structures (Fig 3 col 5).
    pub fn lookup_struct_pct(&self) -> f64 {
        pct(self.lookup_struct, self.lookup_calls)
    }

    /// Percentage of resolve calls involving structures (Fig 3 col 6).
    pub fn resolve_struct_pct(&self) -> f64 {
        pct(self.resolve_struct, self.resolve_calls)
    }

    /// Percentage of struct-involving lookups with a type mismatch (col 7).
    pub fn lookup_mismatch_pct(&self) -> f64 {
        pct(self.lookup_mismatch, self.lookup_struct)
    }

    /// Percentage of struct-involving resolves with a type mismatch (col 8).
    pub fn resolve_mismatch_pct(&self) -> f64 {
        pct(self.resolve_mismatch, self.resolve_struct)
    }
}

/// Field-wise sum: adds a stored increment to a running total.
impl std::ops::AddAssign for ModelStats {
    fn add_assign(&mut self, o: ModelStats) {
        self.lookup_calls += o.lookup_calls;
        self.lookup_struct += o.lookup_struct;
        self.lookup_mismatch += o.lookup_mismatch;
        self.resolve_calls += o.resolve_calls;
        self.resolve_struct += o.resolve_struct;
        self.resolve_mismatch += o.resolve_mismatch;
        self.out_of_bounds += o.out_of_bounds;
    }
}

/// The counts accrued between two readings of one running total (`after -
/// before`); every field of `before` must be at most the same field of
/// `after`.
impl std::ops::Sub for ModelStats {
    type Output = ModelStats;

    fn sub(self, o: ModelStats) -> ModelStats {
        ModelStats {
            lookup_calls: self.lookup_calls - o.lookup_calls,
            lookup_struct: self.lookup_struct - o.lookup_struct,
            lookup_mismatch: self.lookup_mismatch - o.lookup_mismatch,
            resolve_calls: self.resolve_calls - o.resolve_calls,
            resolve_struct: self.resolve_struct - o.resolve_struct,
            resolve_mismatch: self.resolve_mismatch - o.resolve_mismatch,
            out_of_bounds: self.out_of_bounds - o.out_of_bounds,
        }
    }
}

fn pct(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        100.0 * n as f64 / d as f64
    }
}

/// One instance of the paper's framework: the three auxiliary functions
/// plus the two extension hooks (pointer-arithmetic spread and bulk copy).
///
/// All methods receive the [`Program`] for type information; locations
/// passed in are already normalized (solver invariant).
///
/// The four hooks that produce locations (`lookup`, `resolve`,
/// `resolve_all`, `spread`) **append** their results to a caller-owned
/// `out` buffer and never clear it or read what it held before. The solver
/// owns one buffer per result type and reuses it across every call of a
/// run, so a firing allocates nothing for its results.
///
/// Instances are plain data (`Send + Sync`): multi-model solving ships
/// solved results between threads and the query server shares them
/// across its workers, so every model must be safely shareable. All methods
/// take `&self`; mutable instrumentation goes through the explicit
/// [`ModelStats`] parameter instead.
pub trait FieldModel: Send + Sync {
    /// Which instance this is.
    fn kind(&self) -> ModelKind;

    /// The paper's `normalize`: canonicalize the structure reference
    /// `obj.path` (where `path` is a declared-type field path).
    fn normalize(&self, prog: &Program, obj: ObjId, path: &FieldPath) -> Loc;

    /// The paper's `lookup(τ, α, t.β̂)`: appends to `out` the field(s) of
    /// the pointed-to location `target` actually referenced when a pointer
    /// declared to point to `tau` is dereferenced with field path `alpha`.
    ///
    /// `stats` classifies the call for Figure 3.
    fn lookup(
        &self,
        prog: &Program,
        tau: TypeId,
        alpha: &FieldPath,
        target: &Loc,
        stats: &mut ModelStats,
        out: &mut Vec<Loc>,
    );

    /// The paper's `resolve(s.ĵ, t.k̂, τ)`: appends to `out` the pairs
    /// `(dst_loc, src_loc)` such that the value at `src_loc` is copied to
    /// `dst_loc` when `sizeof(τ)` bytes are copied from `src` to `dst`.
    ///
    /// The offset instance consults `facts` to enumerate the byte range
    /// lazily (semantically identical to the paper's per-byte pairs).
    ///
    /// **Purity contract.** When [`FieldModel::resolve_is_pure`] returns
    /// true, the pairs appended and the `stats` increment must be a
    /// function of `(type_of(dst.obj), dst.field, type_of(src.obj),
    /// src.field, τ)` alone: `facts` is not read, and every pair lies in
    /// `dst.obj` × `src.obj`. The solver then calls `resolve` at most once
    /// per such type-level key and replays the stored pairs and `stats`
    /// increment for every later call. Collapse Always, Collapse on Cast
    /// and Common Initial Sequence meet the contract; Offsets does not.
    #[allow(clippy::too_many_arguments)]
    fn resolve(
        &self,
        prog: &Program,
        dst: &Loc,
        src: &Loc,
        tau: TypeId,
        facts: &FactStore,
        stats: &mut ModelStats,
        out: &mut Vec<(Loc, Loc)>,
    );

    /// Whether [`FieldModel::resolve`] meets its purity contract (it ignores
    /// `facts` and depends only on the two locations' types and fields and
    /// on `τ`), so the solver may memoize it per type-level key.
    fn resolve_is_pure(&self) -> bool;

    /// Bulk copy of unknown length (`memcpy`): appends to `out` the pairs
    /// covering everything from `src` onward into `dst` onward.
    fn resolve_all(
        &self,
        prog: &Program,
        dst: &Loc,
        src: &Loc,
        facts: &FactStore,
        stats: &mut ModelStats,
        out: &mut Vec<(Loc, Loc)>,
    );

    /// Pointer-arithmetic spread (§4.2.1): appends to `out` the normalized
    /// positions of the outermost object that the result of arithmetic on
    /// a pointer to `target` could address.
    ///
    /// `pointee` is the declared pointee type of the pointer being moved;
    /// models built with the Wilson–Lam stride refinement (related work §6)
    /// use it to confine the spread to positions reachable in multiples of
    /// `sizeof(pointee)` — without it, every position of the outermost
    /// object is possible.
    fn spread(&self, prog: &Program, target: &Loc, pointee: Option<TypeId>, out: &mut Vec<Loc>);

    /// How many concrete locations a points-to *target* stands for, used to
    /// expand Collapse-Always struct targets when comparing set sizes
    /// (Figure 4's fairness note). All field-sensitive instances return 1.
    fn target_weight(&self, _prog: &Program, _loc: &Loc) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_kind_names_and_portability() {
        assert_eq!(ModelKind::Offsets.paper_name(), "Offsets");
        assert!(!ModelKind::Offsets.is_portable());
        assert!(ModelKind::CommonInitialSeq.is_portable());
        assert_eq!(ModelKind::ALL.len(), 4);
        assert_eq!(format!("{}", ModelKind::CollapseOnCast), "Collapse on Cast");
    }

    #[test]
    fn stats_percentages() {
        let s = ModelStats {
            lookup_calls: 10,
            lookup_struct: 5,
            lookup_mismatch: 2,
            resolve_calls: 0,
            resolve_struct: 0,
            resolve_mismatch: 0,
            out_of_bounds: 0,
        };
        assert!((s.lookup_struct_pct() - 50.0).abs() < 1e-9);
        assert!((s.lookup_mismatch_pct() - 40.0).abs() < 1e-9);
        assert_eq!(s.resolve_struct_pct(), 0.0);
    }

    #[test]
    fn stats_add_and_subtract_fieldwise() {
        let one = ModelStats {
            lookup_calls: 1,
            lookup_struct: 2,
            lookup_mismatch: 3,
            resolve_calls: 4,
            resolve_struct: 5,
            resolve_mismatch: 6,
            out_of_bounds: 7,
        };
        let mut sum = one;
        sum += one;
        assert_eq!(
            sum,
            ModelStats {
                lookup_calls: 2,
                lookup_struct: 4,
                lookup_mismatch: 6,
                resolve_calls: 8,
                resolve_struct: 10,
                resolve_mismatch: 12,
                out_of_bounds: 14,
            }
        );
        assert_eq!(sum - one, one);
        assert_eq!(one - one, ModelStats::default());
    }
}
