//! The four instances of the framework (paper §4.2.2 and §4.3).

mod cast_collapse;
mod cis;
mod collapse;
mod offsets;

pub use cast_collapse::CollapseOnCastModel;
pub use cis::CommonInitialSeqModel;
pub use collapse::CollapseAlwaysModel;
pub use offsets::OffsetsModel;

use crate::model::{FieldModel, ModelKind};
use structcast_types::{CompatMode, Layout};

/// Options shared by all model constructors.
#[derive(Debug, Clone)]
pub struct ModelOptions {
    /// Layout strategy (Offsets instance only).
    pub layout: Layout,
    /// Type-compatibility mode (portable instances).
    pub compat: CompatMode,
    /// Wilson–Lam stride refinement for pointer arithmetic (related work
    /// §6): confine arithmetic spreads to positions reachable in multiples
    /// of the pointer's pointee size.
    pub arith_stride: bool,
}

impl Default for ModelOptions {
    fn default() -> Self {
        ModelOptions {
            layout: Layout::ilp32(),
            compat: CompatMode::Structural,
            arith_stride: false,
        }
    }
}

/// Builds the model for `kind` with the given layout (used by the Offsets
/// instance only) and compatibility mode (used by the portable instances).
pub fn make_model(kind: ModelKind, layout: Layout, compat: CompatMode) -> Box<dyn FieldModel> {
    make_model_with(
        kind,
        &ModelOptions {
            layout,
            compat,
            arith_stride: false,
        },
    )
}

/// Builds the model for `kind` with full options.
pub fn make_model_with(kind: ModelKind, opts: &ModelOptions) -> Box<dyn FieldModel> {
    match kind {
        ModelKind::CollapseAlways => Box::new(CollapseAlwaysModel::new()),
        ModelKind::CollapseOnCast => {
            Box::new(CollapseOnCastModel::new(opts.compat).with_stride(opts.arith_stride))
        }
        ModelKind::CommonInitialSeq => {
            Box::new(CommonInitialSeqModel::new(opts.compat).with_stride(opts.arith_stride))
        }
        ModelKind::Offsets => {
            Box::new(OffsetsModel::new(opts.layout.clone()).with_stride(opts.arith_stride))
        }
    }
}

pub(crate) mod util {
    //! Helpers shared by the path-based instances, over the shape tables
    //! of `structcast_types` (a location's field is a leaf index).

    use crate::loc::{FieldRep, Loc};
    use crate::model::ModelStats;
    use std::iter::Chain;
    use std::ops::Range;
    use structcast_ir::Program;
    use structcast_types::idhash::IdHashSet;
    use structcast_types::{FieldPath, Shape, TypeId};

    /// The leaf index of a path-model location.
    ///
    /// # Panics
    ///
    /// Panics if the location is not leaf-based (solver invariant: a model
    /// only ever sees locations it produced itself).
    pub fn leaf_of(loc: &Loc) -> u32 {
        match loc.field {
            FieldRep::Leaf(i) => i,
            other => panic!("path model received non-leaf location {other:?}"),
        }
    }

    /// The shape table of a location's object.
    pub fn shape_of<'p>(prog: &'p Program, loc: &Loc) -> &'p Shape {
        prog.types.shape(prog.type_of(loc.obj))
    }

    /// The leaves of a target object that one portable `lookup` names.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum Leaves {
        /// Exactly one leaf.
        One(u32),
        /// The paper's `followingFields` of a leaf: a type mismatch
        /// collapses every position from there on.
        From(u32),
        /// No position at all.
        Nothing,
    }

    impl Leaves {
        /// The leaf indices, in the order the lookup returns them.
        pub fn indices(self, shape: &Shape) -> Chain<Range<u32>, Range<u32>> {
            match self {
                Leaves::One(i) => (i..i + 1).chain(0..0),
                Leaves::From(i) => shape.following(i),
                Leaves::Nothing => (0..0).chain(0..0),
            }
        }

        /// Appends the leaves to `out` as locations of `obj`.
        pub fn push_locs(self, obj: structcast_ir::ObjId, shape: &Shape, out: &mut Vec<Loc>) {
            out.extend(self.indices(shape).map(|i| Loc::leaf(obj, i)));
        }
    }

    /// The field path `α` a portable `lookup` follows from the candidate it
    /// lands on.
    #[derive(Debug, Clone, Copy)]
    pub struct Alpha<'a> {
        /// The steps of `α`.
        pub path: &'a [u32],
        /// For `resolve`'s walk over a copy type: `τ` with arrays stripped,
        /// and the leaf of `τ` whose path `α` is.
        pub tau_leaf: Option<(TypeId, u32)>,
    }

    impl Alpha<'_> {
        /// The leaf `α` names inside a candidate of type `dty`, relative to
        /// the candidate's first leaf. A leaf path of `τ` itself names the
        /// same leaf in `τ`, so that case needs no walk.
        pub fn leaf_in(&self, prog: &Program, dty: TypeId) -> u32 {
            match self.tau_leaf {
                Some((tau_s, leaf)) if prog.types.strip_arrays(dty) == tau_s => leaf,
                _ => prog.types.leaf_of_path(dty, self.path),
            }
        }
    }

    /// The field paths `resolve` walks for a copy of type `tau`: each leaf
    /// of `tau` (a single empty path for a scalar or a union, so scalar
    /// copies such as `*p = q` with `p: int**` resolve uniformly).
    pub fn copy_alphas(prog: &Program, tau: TypeId) -> impl ExactSizeIterator<Item = Alpha<'_>> {
        let tau_s = prog.types.strip_arrays(tau);
        let shape = prog.types.shape(tau_s);
        (0..shape.len()).map(move |a| Alpha {
            path: shape.path(a),
            tau_leaf: Some((tau_s, a)),
        })
    }

    /// The instance-specific half of a portable `lookup` (§4.3): where a
    /// pointer declared to point to `τ` lands among the candidates `δ`
    /// (with `normalize(t.δ) = t.β̂`) of a target leaf `β`, and which leaves
    /// a field path `α` names from there. The landing depends on `τ` and
    /// the target only, so `resolve` lands each side once and follows only
    /// `α` per leaf of `τ`.
    pub(crate) trait Portable {
        /// The candidate chosen, with what following `α` needs of it.
        type Landing: Copy;

        /// Picks the candidate for `tau` at leaf `beta` of `shape`.
        fn land(&self, prog: &Program, tau: TypeId, shape: &Shape, beta: u32) -> Self::Landing;

        /// The leaves `alpha` names from `landing` at `beta`, and whether
        /// the access involved a type mismatch (casting).
        fn follow(
            prog: &Program,
            shape: &Shape,
            landing: Self::Landing,
            beta: u32,
            alpha: Alpha,
        ) -> (Leaves, bool);
    }

    /// The paper's `lookup(τ, α, t.β̂)` for a portable instance: appends
    /// the result locations to `out` and returns whether the types failed
    /// to match.
    pub fn lookup_leaves<M: Portable>(
        m: &M,
        prog: &Program,
        tau: TypeId,
        alpha: &FieldPath,
        target: &Loc,
        out: &mut Vec<Loc>,
    ) -> bool {
        let shape = shape_of(prog, target);
        let beta = leaf_of(target);
        let landing = m.land(prog, tau, shape, beta);
        let alpha = Alpha {
            path: alpha.steps(),
            tau_leaf: None,
        };
        let (leaves, mismatch) = M::follow(prog, shape, landing, beta, alpha);
        leaves.push_locs(target.obj, shape, out);
        mismatch
    }

    /// The paper's `resolve(s.ĵ, t.k̂, τ)` for a portable instance:
    /// `lookup(τ, δ, ·)` on both sides for every leaf `δ` of `τ`, the
    /// cross product of each `δ`'s two leaf sets in `δ` order, each pair
    /// kept at its first occurrence, appended to `out`; returns whether
    /// any lookup mismatched.
    pub fn resolve_leaves<M: Portable>(
        m: &M,
        prog: &Program,
        dst: &Loc,
        src: &Loc,
        tau: TypeId,
        out: &mut Vec<(Loc, Loc)>,
    ) -> bool {
        let (dshape, sshape) = (shape_of(prog, dst), shape_of(prog, src));
        let (bd, bs) = (leaf_of(dst), leaf_of(src));
        let (ld, ls) = (m.land(prog, tau, dshape, bd), m.land(prog, tau, sshape, bs));
        let mut mismatch = false;
        let alphas = copy_alphas(prog, tau);
        // One `δ` (a scalar copy) has one cross product, with no repeats:
        // the dedup sets stay empty and allocate nothing.
        let dedup = alphas.len() > 1;
        let mut seen_sides = IdHashSet::default();
        let mut seen = IdHashSet::default();
        for delta in alphas {
            let (g, m1) = M::follow(prog, dshape, ld, bd, delta);
            let (h, m2) = M::follow(prog, sshape, ls, bs, delta);
            mismatch |= m1 || m2;
            // A `δ` whose two sets repeat an earlier `δ`'s adds no pair.
            if dedup && !seen_sides.insert((g, h)) {
                continue;
            }
            for d in g.indices(dshape) {
                for s in h.indices(sshape) {
                    if !dedup || seen.insert((d, s)) {
                        out.push((Loc::leaf(dst.obj, d), Loc::leaf(src.obj, s)));
                    }
                }
            }
        }
        mismatch
    }

    /// [`lookup_leaves`] with the call classified for Figure 3.
    pub fn counted_lookup<M: Portable>(
        m: &M,
        prog: &Program,
        tau: TypeId,
        alpha: &FieldPath,
        target: &Loc,
        stats: &mut ModelStats,
        out: &mut Vec<Loc>,
    ) {
        stats.lookup_calls += 1;
        let structy = involves_structs(prog, tau, &[target]);
        if structy {
            stats.lookup_struct += 1;
        }
        let mismatch = lookup_leaves(m, prog, tau, alpha, target, out);
        if structy && mismatch {
            stats.lookup_mismatch += 1;
        }
    }

    /// [`resolve_leaves`] with the call classified for Figure 3.
    pub fn counted_resolve<M: Portable>(
        m: &M,
        prog: &Program,
        dst: &Loc,
        src: &Loc,
        tau: TypeId,
        stats: &mut ModelStats,
        out: &mut Vec<(Loc, Loc)>,
    ) {
        stats.resolve_calls += 1;
        let structy = involves_structs(prog, tau, &[dst, src]);
        if structy {
            stats.resolve_struct += 1;
        }
        let mismatch = resolve_leaves(m, prog, dst, src, tau, out);
        if structy && mismatch {
            stats.resolve_mismatch += 1;
        }
    }

    /// Bulk copy of unknown length: appends everything from `dst` onward
    /// paired with everything from `src` onward (a safe
    /// over-approximation).
    pub fn following_pairs(prog: &Program, dst: &Loc, src: &Loc, out: &mut Vec<(Loc, Loc)>) {
        let (ds, ss) = (shape_of(prog, dst), shape_of(prog, src));
        let (d, s) = (leaf_of(dst), leaf_of(src));
        out.reserve(ds.following_len(d) * ss.following_len(s));
        for dl in ds.following(d) {
            for sl in ss.following(s) {
                out.push((Loc::leaf(dst.obj, dl), Loc::leaf(src.obj, sl)));
            }
        }
    }

    /// True if `ty` is (after array stripping) a struct or union.
    pub fn is_structy(prog: &Program, ty: TypeId) -> bool {
        prog.types.is_record_like(ty)
    }

    /// Whether a lookup/resolve call "involves structures" for Figure 3:
    /// the declared type or the target object's type is a record.
    pub fn involves_structs(prog: &Program, tau: TypeId, objs: &[&Loc]) -> bool {
        if is_structy(prog, tau) {
            return true;
        }
        objs.iter()
            .any(|l| is_structy(prog, prog.type_of(l.obj)))
    }

    /// A union location is accessed "at its own type" whenever the access
    /// type matches the union itself **or any of its members** — reading or
    /// writing a union through a member-typed lvalue is the normal,
    /// cast-free case, and all members share one collapsed location.
    pub fn union_member_matches(
        prog: &Program,
        union_ty: TypeId,
        tau: TypeId,
        compat: structcast_types::CompatMode,
    ) -> bool {
        let stripped = prog.types.strip_arrays(union_ty);
        let Some(rid) = prog.types.as_record(stripped) else {
            return false;
        };
        let rec = prog.types.record(rid);
        if !rec.is_union {
            return false;
        }
        let tau_s = prog.types.strip_arrays(tau);
        rec.fields.iter().any(|f| {
            let fs = prog.types.strip_arrays(f.ty);
            fs == tau_s || structcast_types::compatible(&prog.types, fs, tau_s, compat)
        })
    }

    /// Pointer-arithmetic spread for the path-based instances.
    ///
    /// Without the stride refinement: every leaf of the outermost object
    /// (the paper's §4.2.1 rule under Assumption 1). With it: only the
    /// leaves whose type is compatible with the pointer's pointee — a path-
    /// level approximation of Wilson–Lam's "multiples of the element size"
    /// rule (a `T*` stepped by ±k lands on `T`-shaped positions). If no
    /// leaf matches (e.g. a `char*` walking a struct), all leaves are used.
    pub fn path_spread(
        prog: &Program,
        target: &Loc,
        pointee: Option<TypeId>,
        stride: bool,
        compat: structcast_types::CompatMode,
        out: &mut Vec<Loc>,
    ) {
        let shape = shape_of(prog, target);
        let leaf = |i| Loc::leaf(target.obj, i);
        if let (Some(pointee), true) = (pointee, stride) {
            let p = prog.types.strip_arrays(pointee);
            let start = out.len();
            out.extend(
                (0..shape.len())
                    .filter(|&i| {
                        let lt = prog.types.strip_arrays(shape.leaf_type(i));
                        lt == p || structcast_types::compatible(&prog.types, lt, p, compat)
                    })
                    .map(leaf),
            );
            if out.len() > start {
                return;
            }
        }
        out.extend((0..shape.len()).map(leaf));
    }
}
