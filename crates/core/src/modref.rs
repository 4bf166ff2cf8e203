//! MOD/REF side-effect analysis — a downstream *client* of the pointer
//! analysis, in the spirit of the modification-side-effects work the paper
//! cites (Ryder et al., \[SRL98\]) and of its own motivation: "the precision of pointer
//! analysis significantly affects the precision of subsequent
//! static-analysis phases".
//!
//! For each function the client computes the sets of abstract objects the
//! function may **modify** and may **reference**:
//!
//! * direct effects — named objects read or written without a pointer;
//! * pointer effects — the points-to sets of dereferenced pointers at
//!   store/load sites (this is where the chosen analysis instance's
//!   precision shows up);
//! * optionally, **transitive** effects through the call graph (direct
//!   calls recovered from parameter/return bindings, indirect calls from
//!   the solver's resolved call edges).
//!
//! The computation runs in one pass, with no rounds:
//!
//! 1. a per-statement walk fills each function's *local* MOD and REF sets,
//!    held as dense bitsets over [`ObjId`], and collects the call graph as
//!    per-function successor lists;
//! 2. with `transitive`, an iterative Tarjan condenses the call graph into
//!    strongly connected components and yields them callees first. Every
//!    function of one component has the same transitive sets: the OR of
//!    the members' local sets and of the already-final sets of the
//!    component's callees;
//! 3. each function's own locals and parameters are dropped (callers
//!    cannot observe them) and the bitsets are decoded into `BTreeSet`s.
//!
//! Cost: O(statements + points-to reads + call edges × objects / 64). No
//! step recurses, so a deep call chain cannot overflow the stack.
//!
//! The experiment harness compares MOD-set sizes across the four instances
//! to demonstrate the downstream impact of field sensitivity.

use crate::analysis::AnalysisResult;
use std::collections::{BTreeMap, BTreeSet};
use structcast_ir::{FuncId, ObjId, ObjKind, Program, Stmt};

/// MOD/REF sets for one function.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FnModRef {
    /// Objects the function may write.
    pub mods: BTreeSet<ObjId>,
    /// Objects the function may read.
    pub refs: BTreeSet<ObjId>,
}

/// The sets of a function with no recorded effects.
static NO_EFFECTS: FnModRef = FnModRef {
    mods: BTreeSet::new(),
    refs: BTreeSet::new(),
};

/// MOD/REF sets for the whole program.
#[derive(Debug, Clone)]
pub struct ModRef {
    per_fn: BTreeMap<FuncId, FnModRef>,
}

impl ModRef {
    /// The sets for `f` (empty sets if the function has no effects).
    pub fn of(&self, f: FuncId) -> FnModRef {
        self.sets(f).clone()
    }

    /// Borrows the sets for `f` (empty sets if the function has no
    /// effects) — [`of`](ModRef::of) without the copy.
    pub fn sets(&self, f: FuncId) -> &FnModRef {
        self.per_fn.get(&f).unwrap_or(&NO_EFFECTS)
    }

    /// Looks a function up by name.
    pub fn of_named(&self, prog: &Program, name: &str) -> FnModRef {
        prog.function_by_name(name)
            .map(|f| self.of(f.id))
            .unwrap_or_default()
    }

    /// Iterates over `(function, sets)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&FuncId, &FnModRef)> + '_ {
        self.per_fn.iter()
    }

    /// Average MOD-set size over all defined functions (an experiment
    /// metric: smaller is more precise).
    pub fn average_mod_size(&self, prog: &Program) -> f64 {
        let defined: Vec<&structcast_ir::Function> =
            prog.functions.iter().filter(|f| f.defined).collect();
        if defined.is_empty() {
            return 0.0;
        }
        let total: usize = defined.iter().map(|f| self.sets(f.id).mods.len()).sum();
        total as f64 / defined.len() as f64
    }

    /// The sorted names of the objects `f` may modify.
    pub fn mod_names(&self, prog: &Program, f: FuncId) -> Vec<String> {
        self.sets(f)
            .mods
            .iter()
            .map(|o| prog.object(*o).name.clone())
            .collect()
    }
}

/// Is this an object a user would consider program state (not a compiler
/// temp or binding slot)?
fn is_stateful(prog: &Program, obj: ObjId) -> bool {
    matches!(
        prog.object(obj).kind,
        ObjKind::Global | ObjKind::Local(_) | ObjKind::Param(_, _) | ObjKind::Heap(_)
    )
}

/// A dense set of objects: bit `o` of the word vector is set iff `ObjId(o)`
/// is a member.
#[derive(Clone, Default)]
struct ObjBits(Vec<u64>);

impl ObjBits {
    fn new(objects: usize) -> ObjBits {
        ObjBits(vec![0; objects.div_ceil(64)])
    }

    fn insert(&mut self, o: ObjId) {
        self.0[o.0 as usize / 64] |= 1 << (o.0 % 64);
    }

    fn union_with(&mut self, other: &ObjBits) {
        for (w, o) in self.0.iter_mut().zip(&other.0) {
            *w |= o;
        }
    }

    /// The members, ascending.
    fn iter(&self) -> impl Iterator<Item = ObjId> + '_ {
        self.0.iter().enumerate().flat_map(|(i, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros();
                rest &= rest - 1;
                Some(ObjId(i as u32 * 64 + bit))
            })
        })
    }
}

/// A function's MOD and REF sets while they are being computed.
#[derive(Clone, Default)]
struct Effects {
    mods: ObjBits,
    refs: ObjBits,
}

impl Effects {
    fn union_with(&mut self, other: &Effects) {
        self.mods.union_with(&other.mods);
        self.refs.union_with(&other.refs);
    }
}

/// The strongly connected components of the graph `succs` (node `v`'s
/// successors are `succs[v]`), each component listed after every
/// component it reaches — for a call graph, callees first. This is
/// Tarjan's algorithm with an explicit DFS stack instead of recursion.
fn sccs_callees_first(succs: &[Vec<u32>]) -> Vec<Vec<u32>> {
    const UNVISITED: u32 = u32::MAX;
    let n = succs.len();
    let mut index = vec![UNVISITED; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    // DFS frames: (node, position of its next successor to visit).
    let mut frames: Vec<(u32, usize)> = Vec::new();
    let mut next_index = 0u32;
    let mut out = Vec::new();
    for root in 0..n as u32 {
        if index[root as usize] != UNVISITED {
            continue;
        }
        let mut enter = Some(root);
        loop {
            if let Some(v) = enter.take() {
                index[v as usize] = next_index;
                low[v as usize] = next_index;
                next_index += 1;
                on_stack[v as usize] = true;
                stack.push(v);
                frames.push((v, 0));
            }
            let Some(frame) = frames.last_mut() else {
                break;
            };
            let v = frame.0 as usize;
            if let Some(&w) = succs[v].get(frame.1) {
                frame.1 += 1;
                if index[w as usize] == UNVISITED {
                    enter = Some(w);
                } else if on_stack[w as usize] {
                    low[v] = low[v].min(index[w as usize]);
                }
                continue;
            }
            frames.pop();
            if let Some(&(parent, _)) = frames.last() {
                low[parent as usize] = low[parent as usize].min(low[v]);
            }
            if low[v] == index[v] {
                let at = stack.iter().rposition(|&w| w as usize == v);
                let comp = stack.split_off(at.expect("v is on the stack"));
                for &w in &comp {
                    on_stack[w as usize] = false;
                }
                out.push(comp);
            }
        }
    }
    out
}

/// Computes MOD/REF for every function, using `result`'s points-to facts
/// for pointer-mediated effects. With `transitive`, callee effects are
/// propagated to callers over the (direct + resolved-indirect) call graph,
/// one strongly connected component at a time, callees first.
pub fn mod_ref(prog: &Program, result: &AnalysisResult, transitive: bool) -> ModRef {
    let nfuncs = prog.functions.len();
    // Each function's local sets; with `transitive`, its transitive sets.
    let mut sets = vec![
        Effects {
            mods: ObjBits::new(prog.objects.len()),
            refs: ObjBits::new(prog.objects.len()),
        };
        nfuncs
    ];
    // Functions that get an entry in the result: those with statements
    // and, when transitive, those that call something.
    let mut present = vec![false; nfuncs];
    let mut succs: Vec<Vec<u32>> = vec![Vec::new(); nfuncs];
    let mut call = |caller: FuncId, callee: FuncId| {
        if caller != callee {
            succs[caller.0 as usize].push(callee.0);
        }
    };

    // Pointer targets of `ptr`, restricted to stateful objects.
    let targets = |ptr: ObjId| {
        result
            .points_to(prog, ptr)
            .into_iter()
            .map(|l| l.obj)
            .filter(|o| is_stateful(prog, *o))
    };

    for (i, s) in prog.stmts.iter().enumerate() {
        let Some(f) = prog.stmt_funcs[i] else {
            continue; // global initializers belong to no function
        };
        present[f.0 as usize] = true;
        let entry = &mut sets[f.0 as usize];
        match s {
            Stmt::Copy { dst, src, .. } => {
                // Direct effects on named state; also recover direct call
                // edges from parameter/return bindings.
                if is_stateful(prog, *dst) {
                    entry.mods.insert(*dst);
                }
                if is_stateful(prog, *src) {
                    entry.refs.insert(*src);
                }
                if let ObjKind::Param(callee, _) | ObjKind::VarArgs(callee) = prog.object(*dst).kind
                {
                    call(f, callee);
                }
                if let ObjKind::Ret(callee) = prog.object(*src).kind {
                    call(f, callee);
                }
            }
            // Taking an address is not an access; calls count through
            // their bindings and call edges.
            Stmt::AddrOf { .. } | Stmt::AddrField { .. } | Stmt::Call { .. } => {}
            Stmt::Load { ptr, .. } => targets(*ptr).for_each(|t| entry.refs.insert(t)),
            Stmt::Store { ptr, .. } => targets(*ptr).for_each(|t| entry.mods.insert(t)),
            Stmt::PtrArith { src, .. } => {
                if is_stateful(prog, *src) {
                    entry.refs.insert(*src);
                }
            }
            Stmt::CopyAll { dst_ptr, src_ptr } => {
                targets(*dst_ptr).for_each(|t| entry.mods.insert(t));
                targets(*src_ptr).for_each(|t| entry.refs.insert(t));
            }
        }
    }

    if transitive {
        // Direct call edges recorded during lowering (covers calls that
        // bind nothing, e.g. `void f(void)`).
        for (caller, callee) in &prog.direct_calls {
            if let Some(c) = caller {
                call(*c, *callee);
            }
        }
        // Indirect call edges discovered by the solver.
        for (sid, callee) in &result.call_edges {
            if let Some(f) = prog.stmt_funcs[sid.0 as usize] {
                call(f, *callee);
            }
        }
        for (f, out) in succs.iter_mut().enumerate() {
            out.sort_unstable();
            out.dedup();
            present[f] |= !out.is_empty();
        }
        // Every member's successors are either callees outside the
        // component, whose sets are final by now, or members, whose sets
        // are still local. In a component of two or more functions every
        // member is some member's successor, so joining the successors'
        // sets into the head's local set covers all members' local sets.
        for comp in sccs_callees_first(&succs) {
            let head = comp[0] as usize;
            let mut joined = std::mem::take(&mut sets[head]);
            for &f in &comp {
                for &g in &succs[f as usize] {
                    joined.union_with(&sets[g as usize]);
                }
            }
            for &f in &comp[1..] {
                sets[f as usize] = joined.clone();
            }
            sets[head] = joined;
        }
    }

    // Drop each function's own locals/params/temps from its public sets:
    // callers cannot observe them (heap objects stay).
    let mut per_fn = BTreeMap::new();
    for (i, effects) in sets.iter().enumerate() {
        if !present[i] {
            continue;
        }
        let f = FuncId(i as u32);
        let keep = |o: &ObjId| match prog.object(*o).kind {
            ObjKind::Local(owner) | ObjKind::Param(owner, _) => owner != f,
            _ => true,
        };
        let fn_sets = FnModRef {
            mods: effects.mods.iter().filter(keep).collect(),
            refs: effects.refs.iter().filter(keep).collect(),
        };
        per_fn.insert(f, fn_sets);
    }

    ModRef { per_fn }
}

/// Renders the points-to relation as a GraphViz `dot` graph (named
/// variables and heap objects only), for visual inspection of analysis
/// results.
pub fn to_dot(prog: &Program, result: &AnalysisResult) -> String {
    use std::fmt::Write as _;
    let mut s = String::from("digraph pointsto {\n  rankdir=LR;\n  node [shape=box];\n");
    let mut edges: BTreeSet<(String, String)> = BTreeSet::new();
    for (a, b) in result.facts.iter() {
        if is_stateful(prog, a.obj) && is_stateful(prog, b.obj) {
            edges.insert((a.display(prog), b.display(prog)));
        }
    }
    for (a, b) in edges {
        let _ = writeln!(s, "  \"{a}\" -> \"{b}\";");
    }
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze_source, AnalysisConfig, ModelKind};

    const SRC: &str = r#"
        struct S { int *a; int *b; } s;
        int x, y;
        int *gp;

        void writer(int **slot) { *slot = &x; }
        void reader(void) { gp = s.a; }
        void caller(void) { writer(&s.a); }
        void main(void) { caller(); reader(); s.b = &y; }
    "#;

    fn run(kind: ModelKind, transitive: bool) -> (Program, ModRef) {
        let (prog, res) = analyze_source(SRC, &AnalysisConfig::new(kind)).unwrap();
        let mr = mod_ref(&prog, &res, transitive);
        (prog, mr)
    }

    #[test]
    fn writer_modifies_through_pointer() {
        let (prog, mr) = run(ModelKind::CommonInitialSeq, false);
        let w = mr.of_named(&prog, "writer");
        let names: Vec<String> = w
            .mods
            .iter()
            .map(|o| prog.object(*o).name.clone())
            .collect();
        assert!(names.contains(&"s".to_string()), "{names:?}");
    }

    #[test]
    fn own_locals_are_hidden() {
        let (prog, mr) = run(ModelKind::CommonInitialSeq, false);
        let w = mr.of_named(&prog, "writer");
        // writer's own parameter `slot` must not appear in its public sets.
        for o in w.mods.iter().chain(w.refs.iter()) {
            assert_ne!(prog.object(*o).name, "writer::slot");
        }
    }

    #[test]
    fn transitive_closure_lifts_callee_effects() {
        let (prog, flat) = run(ModelKind::CommonInitialSeq, false);
        let (prog2, trans) = run(ModelKind::CommonInitialSeq, true);
        let c_flat = flat.of_named(&prog, "caller");
        let c_trans = trans.of_named(&prog2, "caller");
        // Flat: caller itself writes nothing user-visible except binding
        // temps; transitive: inherits writer's mod of s.
        let names: Vec<String> = c_trans
            .mods
            .iter()
            .map(|o| prog2.object(*o).name.clone())
            .collect();
        assert!(names.contains(&"s".to_string()), "{names:?}");
        assert!(c_trans.mods.len() >= c_flat.mods.len());
        // And main inherits everything.
        let m = trans.of_named(&prog2, "main");
        let mains: Vec<String> = m
            .mods
            .iter()
            .map(|o| prog2.object(*o).name.clone())
            .collect();
        assert!(mains.contains(&"s".to_string()), "{mains:?}");
        assert!(mains.contains(&"gp".to_string()), "{mains:?}");
    }

    #[test]
    fn collapse_always_inflates_mod_sets() {
        // With a cast-heavy workload the imprecise instance must report
        // MOD sets at least as large as the precise one.
        let p = structcast_progen::corpus_program("symtab").unwrap();
        let prog = crate::lower_source(p.source).unwrap();
        let ca = crate::analyze(&prog, &AnalysisConfig::new(ModelKind::CollapseAlways));
        let cis = crate::analyze(&prog, &AnalysisConfig::new(ModelKind::CommonInitialSeq));
        let mr_ca = mod_ref(&prog, &ca, true);
        let mr_cis = mod_ref(&prog, &cis, true);
        assert!(
            mr_ca.average_mod_size(&prog) >= mr_cis.average_mod_size(&prog),
            "{} < {}",
            mr_ca.average_mod_size(&prog),
            mr_cis.average_mod_size(&prog)
        );
    }

    #[test]
    fn indirect_calls_contribute_edges() {
        let src = r#"
            int x; int *gp;
            void target(void) { gp = &x; }
            void (*fp)(void);
            void main(void) { fp = target; fp(); }
        "#;
        let (prog, res) =
            analyze_source(src, &AnalysisConfig::new(ModelKind::CommonInitialSeq)).unwrap();
        assert!(!res.call_edges.is_empty());
        let mr = mod_ref(&prog, &res, true);
        let m = mr.of_named(&prog, "main");
        let names: Vec<String> = m
            .mods
            .iter()
            .map(|o| prog.object(*o).name.clone())
            .collect();
        assert!(names.contains(&"gp".to_string()), "{names:?}");
    }

    #[test]
    fn dot_export_contains_edges() {
        let (prog, res) = analyze_source(
            "int x, *p; void main(void) { p = &x; }",
            &AnalysisConfig::new(ModelKind::CommonInitialSeq),
        )
        .unwrap();
        let dot = to_dot(&prog, &res);
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("\"main::p\" -> \"x\"") || dot.contains("\"p\" -> \"x\""), "{dot}");
    }
}
