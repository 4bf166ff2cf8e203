//! # structcast-constraints
//!
//! The **model-independent constraint layer** of the structcast pipeline.
//!
//! The paper's evaluation runs all four framework instances — Offsets,
//! Collapse Always, Collapse on Cast, CIS — over every program. The work
//! that does *not* depend on the instance (walking the IR, resolving
//! declared/pointee types, locating the `char` fallback type, cloning
//! operand field paths) is hoisted here and performed **once** per
//! program: [`ConstraintSet::compile`] lowers a [`Program`] into a flat
//! list of [`Constraint`]s with interned field paths and pre-resolved
//! types. A per-model *specialization* stage (in the `structcast` core
//! crate) then maps each constraint's `(object, path)` operands through
//! the chosen instance's `normalize` function without ever re-walking
//! the IR, and the difference-propagation solver consumes the result.
//!
//! ```text
//!   Program ──compile──▶ ConstraintSet ──specialize(model)──▶ solver
//!            (once)                      (per instance, cheap)
//! ```
//!
//! The set has a stable, deterministic [`ConstraintSet::dump`] (and
//! [`ConstraintSet::to_json`]) used by `scast --dump-constraints`, the
//! golden-file tests, and as the seam for future incremental / parallel
//! solving.
//!
//! ```
//! use structcast_constraints::ConstraintSet;
//!
//! let prog = structcast_ir::lower_source("int x, *p; void f(void) { p = &x; }")?;
//! let cset = ConstraintSet::compile(&prog);
//! assert_eq!(cset.len(), prog.stmts.len());
//! assert!(cset.dump(&prog).contains("addrof"));
//! # Ok::<(), structcast_ir::LowerError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod incr;
mod slice;

pub use incr::{
    compile_incremental, diff_programs, removed_survivors, CompileReuse, ProgramDiff,
};
pub use slice::{ConstraintSlicer, Slice, SliceStats};

use std::cell::Cell;
use std::fmt::Write as _;
use structcast_ir::{Callee, FuncId, ObjId, Program, Stmt};
use structcast_types::idhash::IdHashMap;
use structcast_types::{FieldPath, IntKind, TypeId, TypeKind};

thread_local! {
    /// IR→constraint compilations performed on this thread (see
    /// [`compiles_on_thread`]).
    static COMPILES: Cell<u64> = const { Cell::new(0) };
}

/// Number of [`ConstraintSet::compile`] calls performed **on the current
/// thread** since it started.
///
/// Thread-local on purpose: tests assert that a compile-once,
/// solve-many session performs exactly one compilation without racing
/// against compilations on other test threads.
pub fn compiles_on_thread() -> u64 {
    COMPILES.with(|c| c.get())
}

/// Dense id of a [`FieldPath`] interned in a [`ConstraintSet`].
///
/// Ids are assigned in first-use order during compilation and are only
/// meaningful against the set that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PathId(pub u32);

impl PathId {
    /// The id as a vector index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A pre-normalized operand: the structure reference `obj.path`, with the
/// path interned in the owning [`ConstraintSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpRef {
    /// The referenced object.
    pub obj: ObjId,
    /// Field path within the object's declared type (interned).
    pub path: PathId,
}

/// One model-independent constraint, mirroring the paper's five normalized
/// assignment forms (§2) plus the extensions. Every declared type a rule
/// consults (`τ`, `τ_p`, arithmetic pointee) is resolved here, at
/// compile time, so no instance re-derives types during solving.
#[derive(Debug, Clone, PartialEq)]
pub enum Constraint {
    /// Rule 1: `dst = (τ)&src.β`.
    AddrOf {
        /// Destination (top-level object).
        dst: ObjId,
        /// The object (or field) whose address is taken.
        src: OpRef,
    },
    /// Rule 2: `dst = (τ)&(*ptr).α`.
    AddrField {
        /// Destination.
        dst: ObjId,
        /// The dereferenced pointer.
        ptr: ObjId,
        /// `ptr`'s declared pointee type (with the `char` fallback already
        /// applied), the paper's `τ_p`.
        tau_p: TypeId,
        /// Field path relative to `tau_p` (interned).
        path: PathId,
    },
    /// Rule 3: `dst = (τ)src.β`.
    Copy {
        /// Destination.
        dst: ObjId,
        /// Source operand.
        src: OpRef,
        /// The copy-sizing type `τ` (declared type of `dst`).
        tau: TypeId,
    },
    /// Rule 4: `dst = (τ)*ptr`.
    Load {
        /// Destination.
        dst: ObjId,
        /// The dereferenced pointer.
        ptr: ObjId,
        /// The copy-sizing type `τ` (declared type of `dst`).
        tau: TypeId,
    },
    /// Rule 5: `*ptr = (τ_p)src`.
    Store {
        /// The dereferenced pointer.
        ptr: ObjId,
        /// Source (top-level).
        src: ObjId,
        /// `ptr`'s declared pointee type (`char` fallback applied).
        tau_p: TypeId,
    },
    /// Extension: pointer arithmetic (§4.2.1).
    PtrArith {
        /// Destination.
        dst: ObjId,
        /// The pointer operand.
        src: ObjId,
        /// Declared pointee of `src`, if it is a pointer (drives the
        /// Wilson–Lam stride refinement; no fallback, mirroring the
        /// solver's historical behaviour).
        pointee: Option<TypeId>,
    },
    /// Extension: `memcpy`-style bulk copy.
    CopyAll {
        /// Pointer to the destination block.
        dst_ptr: ObjId,
        /// Pointer to the source block.
        src_ptr: ObjId,
    },
    /// A deferred direct call: bindings synthesized by the solver once.
    CallDirect {
        /// The callee.
        fid: FuncId,
        /// Evaluated argument objects, in order.
        args: Vec<ObjId>,
        /// Where the return value goes, if used.
        ret: Option<ObjId>,
    },
    /// An indirect call: callees discovered from the function pointer's
    /// points-to set during solving.
    CallIndirect {
        /// The function pointer.
        ptr: ObjId,
        /// Evaluated argument objects, in order.
        args: Vec<ObjId>,
        /// Where the return value goes, if used.
        ret: Option<ObjId>,
    },
}

impl Constraint {
    /// Short kind tag used by the dumps (stable; golden tests rely on it).
    pub fn kind_name(&self) -> &'static str {
        match self {
            Constraint::AddrOf { .. } => "addrof",
            Constraint::AddrField { .. } => "addrfield",
            Constraint::Copy { .. } => "copy",
            Constraint::Load { .. } => "load",
            Constraint::Store { .. } => "store",
            Constraint::PtrArith { .. } => "ptrarith",
            Constraint::CopyAll { .. } => "copyall",
            Constraint::CallDirect { .. } => "call",
            Constraint::CallIndirect { .. } => "icall",
        }
    }
}

/// The compiled, model-independent form of a program: one [`Constraint`]
/// per IR statement (order preserved), with field paths interned and the
/// `char` fallback type resolved once.
#[derive(Debug, Clone)]
pub struct ConstraintSet {
    constraints: Vec<Constraint>,
    paths: Vec<FieldPath>,
    /// The interned `char` type, if the program's type table has one — the
    /// byte fallback for pointees of non-pointer values.
    char_ty: Option<TypeId>,
}

impl ConstraintSet {
    /// Lowers `prog` into constraints. This is the **only** place the IR
    /// statement list is walked; everything downstream (per-model
    /// specialization, solving, dumps) works off the returned set.
    pub fn compile(prog: &Program) -> ConstraintSet {
        COMPILES.with(|c| c.set(c.get() + 1));
        let char_kind = TypeKind::Int(IntKind::Char);
        let char_ty = (0..prog.types.len() as u32)
            .map(TypeId)
            .find(|t| prog.types.kind(*t) == &char_kind);
        let mut b = Builder {
            prog,
            char_ty,
            paths: Vec::new(),
            path_ids: IdHashMap::default(),
        };
        let constraints = prog.stmts.iter().map(|s| b.lower(s)).collect();
        ConstraintSet {
            constraints,
            paths: b.paths,
            char_ty,
        }
    }

    /// The constraints, in statement order.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Iterates over the constraints in statement order.
    pub fn iter(&self) -> impl Iterator<Item = &Constraint> + '_ {
        self.constraints.iter()
    }

    /// Number of constraints (one per IR statement).
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// True if the program had no statements.
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }

    /// The field path behind an interned id.
    pub fn path(&self, id: PathId) -> &FieldPath {
        &self.paths[id.index()]
    }

    /// Number of distinct interned field paths.
    pub fn num_paths(&self) -> usize {
        self.paths.len()
    }

    /// Renders one operand as `name` / `name.0.1` with source names.
    fn fmt_op(&self, prog: &Program, op: OpRef) -> String {
        let name = esc_name(&prog.object(op.obj).name);
        let p = self.path(op.path);
        if p.is_empty() {
            name
        } else {
            format!("{name}{p}")
        }
    }

    /// Renders one constraint as a single dump line (without index).
    pub fn display_constraint(&self, prog: &Program, c: &Constraint) -> String {
        let name = |o: &ObjId| esc_name(&prog.object(*o).name);
        let ty = |t: &TypeId| prog.types.display(*t);
        match c {
            Constraint::AddrOf { dst, src } => {
                format!("addrof    {} = &{}", name(dst), self.fmt_op(prog, *src))
            }
            Constraint::AddrField { dst, ptr, tau_p, path } => format!(
                "addrfield {} = &(*{}){}  [tau_p: {}]",
                name(dst),
                name(ptr),
                self.path(*path),
                ty(tau_p)
            ),
            Constraint::Copy { dst, src, tau } => format!(
                "copy      {} = {}  [tau: {}]",
                name(dst),
                self.fmt_op(prog, *src),
                ty(tau)
            ),
            Constraint::Load { dst, ptr, tau } => {
                format!("load      {} = *{}  [tau: {}]", name(dst), name(ptr), ty(tau))
            }
            Constraint::Store { ptr, src, tau_p } => {
                format!("store     *{} = {}  [tau_p: {}]", name(ptr), name(src), ty(tau_p))
            }
            Constraint::PtrArith { dst, src, pointee } => format!(
                "ptrarith  {} = {} +- n  [pointee: {}]",
                name(dst),
                name(src),
                pointee.map_or_else(|| "-".to_string(), |p| ty(&p))
            ),
            Constraint::CopyAll { dst_ptr, src_ptr } => {
                format!("copyall   *{} <= *{}", name(dst_ptr), name(src_ptr))
            }
            Constraint::CallDirect { fid, args, ret } => format!(
                "call      {}({}){}",
                prog.function(*fid).name,
                args.iter().map(&name).collect::<Vec<_>>().join(", "),
                ret.map_or_else(String::new, |r| format!(" -> {}", name(&r)))
            ),
            Constraint::CallIndirect { ptr, args, ret } => format!(
                "icall     (*{})({}){}",
                name(ptr),
                args.iter().map(&name).collect::<Vec<_>>().join(", "),
                ret.map_or_else(String::new, |r| format!(" -> {}", name(&r)))
            ),
        }
    }

    /// The deterministic plain-text dump: a fixed header followed by one
    /// line per constraint, sorted by (zero-padded) constraint index so
    /// the lexicographic and statement orders coincide. Stable across
    /// runs for a given program — the golden-file tests and
    /// `scast --dump-constraints` both print exactly this.
    pub fn dump(&self, prog: &Program) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "# structcast-constraints v1");
        let _ = writeln!(
            s,
            "# constraints={} paths={} objects={} functions={}",
            self.len(),
            self.num_paths(),
            prog.objects.len(),
            prog.functions.len()
        );
        let width = self.len().saturating_sub(1).to_string().len().max(4);
        for (i, c) in self.constraints.iter().enumerate() {
            let _ = writeln!(s, "c{i:0width$} {}", self.display_constraint(prog, c));
        }
        s
    }

    /// The dump as a JSON array (one object per constraint, statement
    /// order), for tooling that would rather not parse the text form.
    pub fn to_json(&self, prog: &Program) -> String {
        let esc = |x: &str| x.replace('\\', "\\\\").replace('"', "\\\"");
        let mut s = String::from("[\n");
        for (i, c) in self.constraints.iter().enumerate() {
            let line = self.display_constraint(prog, c);
            let text = esc(line.split_whitespace().skip(1).collect::<Vec<_>>().join(" ").as_str());
            let _ = write!(
                s,
                "  {{\"idx\": {i}, \"kind\": \"{}\", \"text\": \"{text}\"}}",
                c.kind_name()
            );
            s.push_str(if i + 1 == self.constraints.len() { "\n" } else { ",\n" });
        }
        s.push_str("]\n");
        s
    }
}

/// Escapes control characters in an object name so every constraint
/// renders as exactly one dump line (string-literal objects can carry
/// embedded `\n`/`\t` from the source program).
fn esc_name(name: &str) -> String {
    if !name.contains(|ch: char| ch.is_control()) {
        return name.to_string();
    }
    let mut out = String::with_capacity(name.len() + 4);
    for ch in name.chars() {
        match ch {
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c.is_control() => {
                let _ = write!(out, "\\u{{{:04x}}}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Compilation state: path interner + type resolution helpers.
struct Builder<'p> {
    prog: &'p Program,
    char_ty: Option<TypeId>,
    paths: Vec<FieldPath>,
    path_ids: IdHashMap<FieldPath, PathId>,
}

impl<'p> Builder<'p> {
    fn path_id(&mut self, path: &FieldPath) -> PathId {
        if let Some(&id) = self.path_ids.get(path) {
            return id;
        }
        let id = PathId(self.paths.len() as u32);
        self.paths.push(path.clone());
        self.path_ids.insert(path.clone(), id);
        id
    }

    fn op(&mut self, obj: ObjId, path: &FieldPath) -> OpRef {
        OpRef {
            obj,
            path: self.path_id(path),
        }
    }

    /// The declared pointee type of `ptr`, with the byte (`char`) fallback
    /// for values whose declared type is not a pointer.
    fn pointee(&self, ptr: ObjId) -> TypeId {
        match self.prog.pointee_of(ptr) {
            Some(t) => t,
            None => self.char_ty.unwrap_or_else(|| self.prog.type_of(ptr)),
        }
    }

    fn lower(&mut self, stmt: &Stmt) -> Constraint {
        match stmt {
            Stmt::AddrOf { dst, src, path } => Constraint::AddrOf {
                dst: *dst,
                src: self.op(*src, path),
            },
            Stmt::AddrField { dst, ptr, path } => Constraint::AddrField {
                dst: *dst,
                ptr: *ptr,
                tau_p: self.pointee(*ptr),
                path: self.path_id(path),
            },
            Stmt::Copy { dst, src, path } => Constraint::Copy {
                dst: *dst,
                src: self.op(*src, path),
                tau: self.prog.type_of(*dst),
            },
            Stmt::Load { dst, ptr } => Constraint::Load {
                dst: *dst,
                ptr: *ptr,
                tau: self.prog.type_of(*dst),
            },
            Stmt::Store { ptr, src } => Constraint::Store {
                ptr: *ptr,
                src: *src,
                tau_p: self.pointee(*ptr),
            },
            Stmt::PtrArith { dst, src } => Constraint::PtrArith {
                dst: *dst,
                src: *src,
                pointee: self.prog.pointee_of(*src),
            },
            Stmt::CopyAll { dst_ptr, src_ptr } => Constraint::CopyAll {
                dst_ptr: *dst_ptr,
                src_ptr: *src_ptr,
            },
            Stmt::Call { callee, args, ret } => match callee {
                Callee::Direct(fid) => Constraint::CallDirect {
                    fid: *fid,
                    args: args.clone(),
                    ret: *ret,
                },
                Callee::Indirect(fp) => Constraint::CallIndirect {
                    ptr: *fp,
                    args: args.clone(),
                    ret: *ret,
                },
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "struct S { int *s1; int *s2; } s;\n\
        int x, y, *p; int **pp;\n\
        void f(void) { s.s1 = &x; s.s2 = &y; p = s.s1; pp = &p; p = *pp; }";

    fn compile(src: &str) -> (Program, ConstraintSet) {
        let prog = structcast_ir::lower_source(src).unwrap();
        let cset = ConstraintSet::compile(&prog);
        (prog, cset)
    }

    #[test]
    fn one_constraint_per_statement_in_order() {
        let (prog, cset) = compile(SRC);
        assert_eq!(cset.len(), prog.stmts.len());
        assert!(!cset.is_empty());
        // Kinds line up with the statement forms positionally.
        for (stmt, c) in prog.stmts.iter().zip(cset.iter()) {
            let expect = match stmt {
                Stmt::AddrOf { .. } => "addrof",
                Stmt::AddrField { .. } => "addrfield",
                Stmt::Copy { .. } => "copy",
                Stmt::Load { .. } => "load",
                Stmt::Store { .. } => "store",
                Stmt::PtrArith { .. } => "ptrarith",
                Stmt::CopyAll { .. } => "copyall",
                Stmt::Call { callee: Callee::Direct(_), .. } => "call",
                Stmt::Call { callee: Callee::Indirect(_), .. } => "icall",
            };
            assert_eq!(c.kind_name(), expect);
        }
    }

    #[test]
    fn paths_are_interned_and_deduplicated() {
        let (_prog, cset) = compile(SRC);
        // The empty path and the two struct field paths, at minimum, but
        // each distinct path appears exactly once.
        assert!(cset.num_paths() >= 2);
        for i in 0..cset.num_paths() {
            for j in (i + 1)..cset.num_paths() {
                assert_ne!(
                    cset.path(PathId(i as u32)),
                    cset.path(PathId(j as u32)),
                    "duplicate interned path"
                );
            }
        }
    }

    #[test]
    fn dump_is_deterministic_and_indexed() {
        let (prog, cset) = compile(SRC);
        let d1 = cset.dump(&prog);
        let d2 = ConstraintSet::compile(&prog).dump(&prog);
        assert_eq!(d1, d2, "dump must be deterministic");
        assert!(d1.starts_with("# structcast-constraints v1\n"));
        assert!(d1.contains("addrof"));
        assert!(d1.contains("copy"));
        let lines: Vec<&str> = d1.lines().skip(2).collect();
        assert_eq!(lines.len(), cset.len());
        // Zero-padded indices make lexicographic order == statement order.
        let mut sorted = lines.clone();
        sorted.sort();
        assert_eq!(lines, sorted);
    }

    #[test]
    fn json_dump_has_one_record_per_constraint() {
        let (prog, cset) = compile(SRC);
        let j = cset.to_json(&prog);
        assert_eq!(j.matches("\"idx\"").count(), cset.len());
        assert!(j.contains("\"kind\": \"addrof\""));
    }

    #[test]
    fn compile_counter_counts_this_thread() {
        let (prog, _) = compile(SRC);
        let before = compiles_on_thread();
        let _ = ConstraintSet::compile(&prog);
        let _ = ConstraintSet::compile(&prog);
        assert_eq!(compiles_on_thread() - before, 2);
    }

    #[test]
    fn types_are_resolved_at_compile_time() {
        let (prog, cset) = compile(
            "int x, *p, **pp; void f(void) { pp = &p; *pp = &x; }",
        );
        let store = cset
            .iter()
            .find(|c| matches!(c, Constraint::Store { .. }))
            .expect("store constraint");
        if let Constraint::Store { tau_p, .. } = store {
            assert_eq!(prog.types.display(*tau_p), "int *");
        }
    }
}
