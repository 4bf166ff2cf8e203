//! Demand-driven slicing of a compiled [`ConstraintSet`].
//!
//! A query about one pointer does not need the whole-program fixpoint: it
//! needs exactly the constraints that can *produce* facts rooted at the
//! queried object, transitively. [`ConstraintSlicer`] extracts that
//! sub-[`ConstraintSet`] with a backward reachability pass over the
//! pre-resolved dependency structure, at **object granularity**: the four
//! framework instances' `normalize`/`lookup`/`resolve` hooks never move a
//! location out of its object (a field path or byte offset stays within
//! the object that owns it), so "which constraints can write object `o`"
//! is model-independent and can be answered once, here, from the
//! stage-1 constraints.
//!
//! Per constraint kind, the write/read sets are:
//!
//! | kind        | writes (fact roots)                   | reads (fact roots)            |
//! |-------------|---------------------------------------|-------------------------------|
//! | `addrof`    | `dst`                                 | — (the target is an address)  |
//! | `addrfield` | `dst`                                 | `ptr`                         |
//! | `copy`      | `dst`                                 | `src`                         |
//! | `load`      | `dst`                                 | `ptr` + contents of pointees  |
//! | `store`     | contents of pointees of `ptr`         | `ptr`, `src`                  |
//! | `ptrarith`  | `dst`                                 | `src`                         |
//! | `copyall`   | contents of pointees of `dst_ptr`     | both ptrs + pointee contents  |
//! | `call`      | callee params/varargs, `ret`          | args, callee return slot      |
//! | `icall`     | params of any address-taken function, `ret` | `ptr`, args, their return slots |
//!
//! "Pointees" cannot be known without solving, but they are bounded: every
//! object a points-to set can ever contain enters the relation through an
//! `addrof` source (heap allocations, string literals, `&f` function
//! values and `&x` all lower to `AddrOf`). That **address-taken set** is
//! computed statically, and the slicer closes over it conservatively:
//!
//! * once any address-taken object is relevant, every `store`/`copyall`
//!   joins the slice (each may write that object's contents), and
//! * once a `load`/`copyall` joins the slice, every address-taken object
//!   becomes relevant (the pointee whose contents it reads is among them).
//!
//! The closure makes the slice sound and *complete* for the relevant
//! objects: the least fixpoint of the slice agrees with the whole-program
//! fixpoint on every fact rooted at a relevant object, for all four field
//! models — casts included, because cast sensitivity only changes how a
//! model normalizes paths *within* an object, never which object a
//! constraint touches.

use crate::{Constraint, ConstraintSet};
use std::collections::BTreeSet;
use structcast_ir::{ObjId, Program};
use structcast_types::idhash::IdHashMap;

/// Size accounting for one slice, reported by benches, the server's
/// demand metrics, and `scast --demand`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceStats {
    /// Constraints in the full program.
    pub total_statements: usize,
    /// Constraints the slice retained.
    pub slice_statements: usize,
    /// Objects the backward pass marked relevant.
    pub relevant_objects: usize,
    /// Size of the program's address-taken set.
    pub address_taken: usize,
}

impl SliceStats {
    /// `slice_statements / total_statements` (0 for an empty program).
    pub fn ratio(&self) -> f64 {
        if self.total_statements == 0 {
            0.0
        } else {
            self.slice_statements as f64 / self.total_statements as f64
        }
    }
}

/// A demand slice: the sub-[`ConstraintSet`] to solve, plus the mapping
/// back to whole-program statement indices.
#[derive(Debug, Clone)]
pub struct Slice {
    /// The retained constraints, in original statement order, sharing the
    /// parent set's interned paths (a `PathId` means the same thing in
    /// both sets).
    pub set: ConstraintSet,
    /// `stmt_map[i]` is the original constraint index of the slice's
    /// `i`-th constraint (strictly increasing). Call edges discovered
    /// while solving the slice are remapped through this.
    pub stmt_map: Vec<u32>,
    /// Size accounting.
    pub stats: SliceStats,
}

/// Backward-reachability slicer over a compiled [`ConstraintSet`]; see
/// the module docs for the per-kind rules. Construction precomputes the
/// write-dependency index and the address-taken set once; each
/// [`slice`](ConstraintSlicer::slice) call is then a worklist pass over
/// that index.
pub struct ConstraintSlicer<'a> {
    prog: &'a Program,
    cset: &'a ConstraintSet,
    /// Objects whose address is taken (`AddrOf` sources): the universe of
    /// possible points-to targets.
    at: BTreeSet<ObjId>,
    /// Constraint indices whose write set includes a given object.
    writers: IdHashMap<ObjId, Vec<u32>>,
    /// `store`/`copyall` indices: they write *through* pointers, into
    /// address-taken objects unknown before solving.
    indirect_writers: Vec<u32>,
    /// Return slots of address-taken functions (read by `icall` returns).
    at_ret_slots: Vec<ObjId>,
}

impl<'a> ConstraintSlicer<'a> {
    /// Builds the dependency index for `cset` (compiled from `prog`).
    pub fn new(prog: &'a Program, cset: &'a ConstraintSet) -> ConstraintSlicer<'a> {
        let mut at: BTreeSet<ObjId> = BTreeSet::new();
        for c in &cset.constraints {
            if let Constraint::AddrOf { src, .. } = c {
                at.insert(src.obj);
            }
        }
        // Params/varargs of address-taken functions: what an indirect
        // call can write before its callees are resolved.
        let at_funcs: Vec<&structcast_ir::Function> =
            prog.functions.iter().filter(|f| at.contains(&f.obj)).collect();
        let at_params: Vec<ObjId> = at_funcs
            .iter()
            .flat_map(|f| f.params.iter().copied().chain(f.varargs))
            .collect();
        let at_ret_slots: Vec<ObjId> = at_funcs.iter().filter_map(|f| f.ret_slot).collect();

        let mut writers: IdHashMap<ObjId, Vec<u32>> = IdHashMap::default();
        let mut indirect_writers: Vec<u32> = Vec::new();
        for (idx, c) in cset.constraints.iter().enumerate() {
            let idx = idx as u32;
            let mut add = |o: ObjId| writers.entry(o).or_default().push(idx);
            match c {
                Constraint::AddrOf { dst, .. }
                | Constraint::AddrField { dst, .. }
                | Constraint::Copy { dst, .. }
                | Constraint::Load { dst, .. }
                | Constraint::PtrArith { dst, .. } => add(*dst),
                Constraint::Store { .. } | Constraint::CopyAll { .. } => {
                    indirect_writers.push(idx);
                }
                Constraint::CallDirect { fid, ret, .. } => {
                    let f = prog.function(*fid);
                    for &p in &f.params {
                        add(p);
                    }
                    if let Some(va) = f.varargs {
                        add(va);
                    }
                    if let Some(r) = *ret {
                        add(r);
                    }
                }
                Constraint::CallIndirect { ret, .. } => {
                    for &p in &at_params {
                        add(p);
                    }
                    if let Some(r) = *ret {
                        add(r);
                    }
                }
            }
        }
        ConstraintSlicer {
            prog,
            cset,
            at,
            writers,
            indirect_writers,
            at_ret_slots,
        }
    }

    /// The address-taken set (every possible points-to target).
    pub fn address_taken(&self) -> &BTreeSet<ObjId> {
        &self.at
    }

    /// Pushes the fact roots constraint `c` reads onto `out`; returns
    /// whether it also reads the *contents* of pointee objects (which
    /// triggers the address-taken closure).
    fn reads_into(&self, c: &Constraint, out: &mut Vec<ObjId>) -> bool {
        match c {
            Constraint::AddrOf { .. } => false,
            Constraint::AddrField { ptr, .. } => {
                out.push(*ptr);
                false
            }
            Constraint::Copy { src, .. } => {
                out.push(src.obj);
                false
            }
            Constraint::Load { ptr, .. } => {
                out.push(*ptr);
                true
            }
            Constraint::Store { ptr, src, .. } => {
                out.push(*ptr);
                out.push(*src);
                false
            }
            Constraint::PtrArith { src, .. } => {
                out.push(*src);
                false
            }
            Constraint::CopyAll { dst_ptr, src_ptr } => {
                out.push(*dst_ptr);
                out.push(*src_ptr);
                true
            }
            Constraint::CallDirect { fid, args, ret } => {
                out.extend(args.iter().copied());
                if ret.is_some() {
                    out.extend(self.prog.function(*fid).ret_slot);
                }
                false
            }
            Constraint::CallIndirect { ptr, args, ret } => {
                out.push(*ptr);
                out.extend(args.iter().copied());
                if ret.is_some() {
                    out.extend(self.at_ret_slots.iter().copied());
                }
                false
            }
        }
    }

    /// The backward slice rooted at `roots` (see module docs).
    pub fn slice(&self, roots: &[ObjId]) -> Slice {
        self.slice_with_forced(roots, &[])
    }

    /// [`slice`](ConstraintSlicer::slice), with `forced` constraint
    /// indices unconditionally included (their reads join the closure).
    /// Demand MOD/REF uses this to pin the call sites of the statically
    /// reachable functions, so the slice resolves the same call edges the
    /// whole-program solve would.
    pub fn slice_with_forced(&self, roots: &[ObjId], forced: &[u32]) -> Slice {
        let n = self.cset.len();
        let mut included = vec![false; n];
        let mut relevant: BTreeSet<ObjId> = BTreeSet::new();
        let mut obj_queue: Vec<ObjId> = roots.to_vec();
        let mut stmt_queue: Vec<u32> =
            forced.iter().copied().filter(|&i| (i as usize) < n).collect();
        // Closure flags (each fires at most once): `need_at` marks that a
        // retained constraint reads pointee contents, `at_relevant` that
        // some address-taken object is relevant.
        let mut need_at = false;
        let mut at_expanded = false;
        let mut at_relevant = false;
        let mut stores_included = false;

        loop {
            if need_at && !at_expanded {
                at_expanded = true;
                obj_queue.extend(self.at.iter().copied());
            }
            if at_relevant && !stores_included {
                stores_included = true;
                stmt_queue.extend(self.indirect_writers.iter().copied());
            }
            if let Some(i) = stmt_queue.pop() {
                let idx = i as usize;
                if included[idx] {
                    continue;
                }
                included[idx] = true;
                need_at |= self.reads_into(&self.cset.constraints[idx], &mut obj_queue);
                continue;
            }
            if let Some(o) = obj_queue.pop() {
                if !relevant.insert(o) {
                    continue;
                }
                if self.at.contains(&o) {
                    at_relevant = true;
                }
                if let Some(ws) = self.writers.get(&o) {
                    stmt_queue.extend(ws.iter().copied());
                }
                continue;
            }
            // Queues drained; loop once more if a closure step is pending.
            if (need_at && !at_expanded) || (at_relevant && !stores_included) {
                continue;
            }
            break;
        }

        let stmt_map: Vec<u32> = (0..n as u32).filter(|&i| included[i as usize]).collect();
        let constraints: Vec<Constraint> = stmt_map
            .iter()
            .map(|&i| self.cset.constraints[i as usize].clone())
            .collect();
        let stats = SliceStats {
            total_statements: n,
            slice_statements: constraints.len(),
            relevant_objects: relevant.len(),
            address_taken: self.at.len(),
        };
        Slice {
            set: ConstraintSet {
                constraints,
                paths: self.cset.paths.clone(),
                char_ty: self.cset.char_ty,
            },
            stmt_map,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile(src: &str) -> (Program, ConstraintSet) {
        let prog = structcast_ir::lower_source(src).unwrap();
        let cset = ConstraintSet::compile(&prog);
        (prog, cset)
    }

    fn obj(prog: &Program, name: &str) -> ObjId {
        prog.object_by_name(name).unwrap()
    }

    #[test]
    fn independent_chains_do_not_join_the_slice() {
        let (prog, cset) = compile(
            "int x, y, *p, *q; void f(void) { p = &x; q = &y; }",
        );
        let slicer = ConstraintSlicer::new(&prog, &cset);
        let slice = slicer.slice(&[obj(&prog, "p")]);
        assert_eq!(slice.stats.total_statements, cset.len());
        // Only p's chain (addrof through the lowering temp) is retained.
        assert!(slice.stats.slice_statements < cset.len());
        assert!(slice.set.dump(&prog).contains("&x"));
        assert!(!slice.set.dump(&prog).contains("&y"));
        // The queried pointer and its addrof target are relevant.
        assert!(slice.stats.relevant_objects >= 1);
    }

    #[test]
    fn copy_chains_are_followed_backward() {
        let (prog, cset) = compile(
            "int x, *a, *b, *c, *other; int z;\n\
             void f(void) { a = &x; b = a; c = b; other = &z; }",
        );
        let slicer = ConstraintSlicer::new(&prog, &cset);
        let slice = slicer.slice(&[obj(&prog, "c")]);
        let dump = slice.set.dump(&prog);
        assert!(dump.contains("&x"), "{dump}");
        assert!(!dump.contains("other"), "{dump}");
        assert!(!dump.contains("&z"), "{dump}");
        assert!(slice.stats.slice_statements < cset.len());
        // stmt_map is a strictly increasing subsequence of the original.
        for w in slice.stmt_map.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert_eq!(slice.stmt_map.len(), slice.set.len());
    }

    #[test]
    fn loads_pull_in_the_address_taken_closure() {
        let (prog, cset) = compile(
            "int x, *p, **pp, *out; int far, *unrelated;\n\
             void f(void) { pp = &p; p = &x; out = *pp; unrelated = &far; }",
        );
        let slicer = ConstraintSlicer::new(&prog, &cset);
        let slice = slicer.slice(&[obj(&prog, "out")]);
        let dump = slice.set.dump(&prog);
        // The load and the pointer chain feeding it (through lowering
        // temps) are retained: out's value comes from *pp, whose pointee
        // p holds &x.
        assert!(dump.contains("load"), "{dump}");
        assert!(dump.contains("&p"), "{dump}");
        assert!(dump.contains("&x"), "{dump}");
        // The closure marks all address-taken objects relevant.
        assert!(slice.stats.relevant_objects >= slice.stats.address_taken);
    }

    #[test]
    fn stores_join_once_an_address_taken_object_is_relevant() {
        let (prog, cset) = compile(
            "int x, *p, **pp; void f(void) { pp = &p; *pp = &x; }",
        );
        let slicer = ConstraintSlicer::new(&prog, &cset);
        // p is written only through *pp; querying p must retain the store
        // and, transitively, pp's addrof.
        let slice = slicer.slice(&[obj(&prog, "p")]);
        let dump = slice.set.dump(&prog);
        assert!(dump.contains("store"), "{dump}");
        assert!(dump.contains("&p"), "{dump}");
        assert!(dump.contains("&x"), "{dump}");
    }

    #[test]
    fn calls_bind_params_and_returns() {
        let (prog, cset) = compile(
            "int x, *g;\n\
             int *id(int *a) { return a; }\n\
             void f(void) { g = id(&x); }",
        );
        let slicer = ConstraintSlicer::new(&prog, &cset);
        let slice = slicer.slice(&[obj(&prog, "g")]);
        let dump = slice.set.dump(&prog);
        // The lowering binds this call with explicit copies; the slice
        // follows g ← ret slot ← param ← &x across the function boundary.
        assert!(dump.contains("id::$ret"), "{dump}");
        assert!(dump.contains("id::a"), "{dump}");
        assert!(dump.contains("&x"), "{dump}");
    }

    #[test]
    fn empty_roots_and_forced_inclusion() {
        let (prog, cset) = compile(
            "int x, *p, *q; void f(void) { p = &x; q = p; }",
        );
        let slicer = ConstraintSlicer::new(&prog, &cset);
        let empty = slicer.slice(&[]);
        assert_eq!(empty.stats.slice_statements, 0);
        assert_eq!(empty.stats.ratio(), 0.0);
        assert!(empty.set.is_empty());
        // Forcing an index includes it and closes over its reads.
        let q_idx = cset
            .constraints()
            .iter()
            .position(|c| matches!(c, Constraint::Copy { .. }))
            .unwrap() as u32;
        let forced = slicer.slice_with_forced(&[], &[q_idx]);
        assert_eq!(forced.stats.slice_statements, 2, "{}", forced.set.dump(&prog));
        // Out-of-range forced indices are ignored.
        let oob = slicer.slice_with_forced(&[], &[u32::MAX]);
        assert_eq!(oob.stats.slice_statements, 0);
    }

    #[test]
    fn slice_shares_interned_paths() {
        let (prog, cset) = compile(
            "struct S { int *a; int *b; } s; int x, *p;\n\
             void f(void) { s.a = &x; p = s.a; }",
        );
        let slicer = ConstraintSlicer::new(&prog, &cset);
        let slice = slicer.slice(&[obj(&prog, "p")]);
        assert_eq!(slice.set.num_paths(), cset.num_paths());
        // Path ids in retained constraints resolve to the same paths.
        for (&orig, c) in slice.stmt_map.iter().zip(slice.set.iter()) {
            assert_eq!(c, &cset.constraints()[orig as usize]);
        }
    }

    #[test]
    fn address_taken_set_matches_addrof_sources() {
        let (prog, cset) = compile(
            "int x, y, *p; void g(void) {} void (*fp)(void);\n\
             void f(void) { p = &x; fp = g; }",
        );
        let slicer = ConstraintSlicer::new(&prog, &cset);
        let at = slicer.address_taken();
        assert!(at.contains(&obj(&prog, "x")));
        let g = prog.function_by_name("g").unwrap();
        assert!(at.contains(&g.obj), "function values are address-taken");
        assert!(!at.contains(&obj(&prog, "y")));
    }
}
