//! Pairing oracle for `diff_programs`.
//!
//! `diff_programs` pairs statements by compact keys built from interned
//! type shapes and operand tokens. The oracle below is the earlier
//! string-rendering diff, with its renderings and matching steps
//! unchanged: it renders every statement of both programs to text and
//! pairs equal texts. The two must produce identical [`ProgramDiff`]s — object map,
//! pairs (in order), dirty and removed statements, function counts,
//! globals flag and fallback reason — on:
//!
//! * the 20 corpus programs against themselves, and with a function
//!   appended;
//! * chained progen edit traces on medium programs, several seeds;
//! * the trace `scbench`'s `live_edit` workload replays (its base program
//!   and seed 1);
//! * hand-written edits that change only a field path, a parameter name,
//!   a local's type or a record.

use std::collections::{HashMap, HashSet, VecDeque};
use structcast_constraints::{diff_programs, ProgramDiff};
use structcast_ir::{Callee, FuncId, Function, ObjId, ObjKind, Program, Stmt};
use structcast_progen::{corpus, edit_trace, generate, GenConfig};
use structcast_types::idhash::{IdHashMap, IdHashSet};
use structcast_types::{RecordId, TypeId, TypeKind, TypeTable};

// ---------------------------------------------------------------------
// The oracle: the string-rendering diff
// ---------------------------------------------------------------------

fn render_type(types: &TypeTable, t: TypeId) -> String {
    match types.kind(t) {
        TypeKind::Void => "void".into(),
        TypeKind::Int(k) => format!("i{k:?}"),
        TypeKind::Float(k) => format!("f{k:?}"),
        TypeKind::Enum(tag) => format!("enum:{}", tag.as_deref().unwrap_or("?")),
        TypeKind::Pointer(p) => format!("{}*", render_type(types, *p)),
        TypeKind::Array(e, n) => match n {
            Some(n) => format!("{}[{n}]", render_type(types, *e)),
            None => format!("{}[]", render_type(types, *e)),
        },
        TypeKind::Function(sig) => {
            let params: Vec<String> = sig.params.iter().map(|p| render_type(types, *p)).collect();
            format!(
                "{}({}{})",
                render_type(types, sig.ret),
                params.join(","),
                if sig.variadic { ",..." } else { "" }
            )
        }
        TypeKind::Record(r) => format!("#rec{}", r.0),
    }
}

fn token(prog: &Program, o: ObjId) -> String {
    let ob = prog.object(o);
    let tyr = render_type(&prog.types, ob.ty);
    match ob.kind {
        ObjKind::Global => format!("g:{}:{tyr}", ob.name),
        ObjKind::Local(_) => format!("l:{}:{tyr}", ob.name),
        ObjKind::Param(_, i) => format!("p{i}:{}:{tyr}", ob.name),
        ObjKind::Function(_) => format!("f:{}:{tyr}", ob.name),
        ObjKind::Ret(_) => format!("r:{}:{tyr}", ob.name),
        ObjKind::VarArgs(_) => format!("v:{}:{tyr}", ob.name),
        ObjKind::Temp(_) => format!("%t:{tyr}"),
        ObjKind::Heap(_) => format!("%h:{tyr}"),
        ObjKind::StringLit => format!("%s:{}:{tyr}", ob.name),
    }
}

fn render_stmt(prog: &Program, s: &Stmt) -> String {
    let t = |o: &ObjId| token(prog, *o);
    match s {
        Stmt::AddrOf { dst, src, path } => format!("addrof {} {} {path}", t(dst), t(src)),
        Stmt::AddrField { dst, ptr, path } => format!("addrfield {} {} {path}", t(dst), t(ptr)),
        Stmt::Copy { dst, src, path } => format!("copy {} {} {path}", t(dst), t(src)),
        Stmt::Load { dst, ptr } => format!("load {} {}", t(dst), t(ptr)),
        Stmt::Store { ptr, src } => format!("store {} {}", t(ptr), t(src)),
        Stmt::PtrArith { dst, src } => format!("arith {} {}", t(dst), t(src)),
        Stmt::CopyAll { dst_ptr, src_ptr } => format!("copyall {} {}", t(dst_ptr), t(src_ptr)),
        Stmt::Call { callee, args, ret } => {
            let c = match callee {
                Callee::Direct(f) => format!("D{}", t(&prog.function(*f).obj)),
                Callee::Indirect(p) => format!("I{}", t(p)),
            };
            let args: Vec<String> = args.iter().map(t).collect();
            let r = ret.as_ref().map_or_else(|| "-".into(), t);
            format!("call {c} ({}) -> {r}", args.join(" "))
        }
    }
}

fn operands(prog: &Program, s: &Stmt) -> Vec<ObjId> {
    match s {
        Stmt::AddrOf { dst, src, .. } => vec![*dst, *src],
        Stmt::AddrField { dst, ptr, .. } => vec![*dst, *ptr],
        Stmt::Copy { dst, src, .. } => vec![*dst, *src],
        Stmt::Load { dst, ptr } => vec![*dst, *ptr],
        Stmt::Store { ptr, src } => vec![*ptr, *src],
        Stmt::PtrArith { dst, src } => vec![*dst, *src],
        Stmt::CopyAll { dst_ptr, src_ptr } => vec![*dst_ptr, *src_ptr],
        Stmt::Call { callee, args, ret } => {
            let mut v = vec![match callee {
                Callee::Direct(f) => prog.function(*f).obj,
                Callee::Indirect(p) => *p,
            }];
            v.extend(args.iter().copied());
            v.extend(ret.iter().copied());
            v
        }
    }
}

fn render_header(prog: &Program, f: &Function) -> String {
    let params: Vec<String> = f
        .params
        .iter()
        .map(|&p| {
            let ob = prog.object(p);
            format!("{}:{}", ob.name, render_type(&prog.types, ob.ty))
        })
        .collect();
    format!(
        "fn {} ty={} params=[{}] variadic={} defined={} ret={} varargs={}",
        f.name,
        render_type(&prog.types, f.ty),
        params.join(","),
        f.variadic,
        f.defined,
        f.ret_slot.is_some(),
        f.varargs.is_some(),
    )
}

fn render_unit(prog: &Program, fid: Option<FuncId>) -> Vec<(u32, String)> {
    prog.stmts
        .iter()
        .enumerate()
        .filter(|(i, _)| prog.stmt_funcs[*i] == fid)
        .map(|(i, s)| (i as u32, render_stmt(prog, s)))
        .collect()
}

fn records_differ(old: &TypeTable, new: &TypeTable) -> Option<String> {
    if old.record_count() != new.record_count() {
        return Some(format!(
            "record count changed ({} -> {})",
            old.record_count(),
            new.record_count()
        ));
    }
    for i in 0..old.record_count() as u32 {
        let (a, b) = (old.record(RecordId(i)), new.record(RecordId(i)));
        let same = a.tag == b.tag
            && a.is_union == b.is_union
            && a.complete == b.complete
            && a.fields.len() == b.fields.len()
            && a.fields.iter().zip(&b.fields).all(|(fa, fb)| {
                fa.name == fb.name
                    && fa.anonymous == fb.anonymous
                    && render_type(old, fa.ty) == render_type(new, fb.ty)
            });
        if !same {
            return Some(format!(
                "record #{i} ({:?}) changed definition",
                b.tag.as_deref().unwrap_or("<anon>")
            ));
        }
    }
    None
}

fn pair_prefix_suffix(
    old: &[(u32, String)],
    new: &[(u32, String)],
    pairs: &mut Vec<(u32, u32)>,
) -> bool {
    let mut lo = 0;
    while lo < old.len() && lo < new.len() && old[lo].1 == new[lo].1 {
        pairs.push((old[lo].0, new[lo].0));
        lo += 1;
    }
    let mut hi = 0;
    while hi < old.len() - lo && hi < new.len() - lo {
        let (a, b) = (&old[old.len() - 1 - hi], &new[new.len() - 1 - hi]);
        if a.1 != b.1 {
            break;
        }
        pairs.push((a.0, b.0));
        hi += 1;
    }
    let mut by_render: HashMap<&str, VecDeque<u32>> = HashMap::new();
    for (nj, s) in &new[lo..new.len() - hi] {
        by_render.entry(s.as_str()).or_default().push_back(*nj);
    }
    let mut matched_mid = 0;
    for (oi, s) in &old[lo..old.len() - hi] {
        if let Some(nj) = by_render.get_mut(s.as_str()).and_then(|q| q.pop_front()) {
            pairs.push((*oi, nj));
            matched_mid += 1;
        }
    }
    lo + hi + matched_mid == old.len() && lo + hi + matched_mid == new.len()
}

fn unique_names(prog: &Program, keep: impl Fn(&ObjKind) -> bool) -> HashMap<&str, ObjId> {
    let mut map: HashMap<&str, ObjId> = HashMap::new();
    let mut dup: HashSet<&str> = HashSet::new();
    for (i, o) in prog.objects.iter().enumerate() {
        if !keep(&o.kind) {
            continue;
        }
        if map.insert(o.name.as_str(), ObjId(i as u32)).is_some() {
            dup.insert(o.name.as_str());
        }
    }
    for d in dup {
        map.remove(d);
    }
    map
}

fn oracle(old: &Program, new: &Program) -> ProgramDiff {
    if let Some(why) = records_differ(&old.types, &new.types) {
        return ProgramDiff {
            obj_map: vec![None; old.objects.len()],
            pairs: Vec::new(),
            dirty_stmts: (0..new.stmts.len() as u32).collect(),
            removed_stmts: (0..old.stmts.len() as u32).collect(),
            reused_fns: 0,
            dirty_fns: new.functions.len(),
            globals_dirty: true,
            fallback: Some(why),
        };
    }

    let mut obj_map: Vec<Option<ObjId>> = vec![None; old.objects.len()];
    let mut used: IdHashSet<u32> = IdHashSet::default();
    let map = |obj_map: &mut Vec<Option<ObjId>>, used: &mut IdHashSet<u32>, o: ObjId, n: ObjId| {
        if used.insert(n.0) {
            obj_map[o.0 as usize] = Some(n);
        }
    };

    let new_globals = unique_names(new, |k| matches!(k, ObjKind::Global));
    for (i, ob) in old.objects.iter().enumerate() {
        if !matches!(ob.kind, ObjKind::Global) {
            continue;
        }
        if let Some(&n) = new_globals.get(ob.name.as_str()) {
            if render_type(&old.types, ob.ty) == render_type(&new.types, new.type_of(n)) {
                map(&mut obj_map, &mut used, ObjId(i as u32), n);
            }
        }
    }

    let mut pairs: Vec<(u32, u32)> = Vec::new();
    let mut reused_fns = 0usize;
    let mut dirty_fns = 0usize;
    for f_old in &old.functions {
        let Some(f_new) = new.function_by_name(&f_old.name) else {
            continue;
        };
        map(&mut obj_map, &mut used, f_old.obj, f_new.obj);
        if render_header(old, f_old) != render_header(new, f_new) {
            dirty_fns += 1;
            continue;
        }
        for (&po, &pn) in f_old.params.iter().zip(&f_new.params) {
            map(&mut obj_map, &mut used, po, pn);
        }
        if let (Some(ro), Some(rn)) = (f_old.ret_slot, f_new.ret_slot) {
            map(&mut obj_map, &mut used, ro, rn);
        }
        if let (Some(vo), Some(vn)) = (f_old.varargs, f_new.varargs) {
            map(&mut obj_map, &mut used, vo, vn);
        }
        let new_locals = unique_names(new, |k| *k == ObjKind::Local(f_new.id));
        let old_locals = unique_names(old, |k| *k == ObjKind::Local(f_old.id));
        for (name, &o) in &old_locals {
            if let Some(&n) = new_locals.get(name) {
                if render_type(&old.types, old.type_of(o))
                    == render_type(&new.types, new.type_of(n))
                {
                    map(&mut obj_map, &mut used, o, n);
                }
            }
        }
        let body_old = render_unit(old, Some(f_old.id));
        let body_new = render_unit(new, Some(f_new.id));
        if pair_prefix_suffix(&body_old, &body_new, &mut pairs) {
            reused_fns += 1;
        } else {
            dirty_fns += 1;
        }
    }

    let init_old = render_unit(old, None);
    let init_new = render_unit(new, None);
    let globals_dirty = !pair_prefix_suffix(&init_old, &init_new, &mut pairs);

    let mut proposals: IdHashMap<u32, IdHashSet<u32>> = IdHashMap::default();
    let mut demote: IdHashSet<u32> = IdHashSet::default();
    for &(oi, nj) in &pairs {
        let oo = operands(old, &old.stmts[oi as usize]);
        let no = operands(new, &new.stmts[nj as usize]);
        for (&o, &n) in oo.iter().zip(&no) {
            match obj_map[o.0 as usize] {
                Some(m) if m != n => {
                    demote.insert(o.0);
                }
                Some(_) => {}
                None => {
                    proposals.entry(o.0).or_default().insert(n.0);
                }
            }
        }
    }
    let mut claims: IdHashMap<u32, u32> = IdHashMap::default();
    for set in proposals.values() {
        if let [t] = *set.iter().copied().collect::<Vec<_>>().as_slice() {
            *claims.entry(t).or_default() += 1;
        }
    }
    for (o, set) in &proposals {
        let one: Vec<u32> = set.iter().copied().collect();
        if let [t] = *one.as_slice() {
            if claims[&t] == 1 && used.insert(t) {
                obj_map[*o as usize] = Some(ObjId(t));
            }
        }
    }
    for o in demote {
        obj_map[o as usize] = None;
    }

    let paired_old: IdHashSet<u32> = pairs.iter().map(|&(o, _)| o).collect();
    let paired_new: IdHashSet<u32> = pairs.iter().map(|&(_, n)| n).collect();
    ProgramDiff {
        obj_map,
        dirty_stmts: (0..new.stmts.len() as u32)
            .filter(|i| !paired_new.contains(i))
            .collect(),
        removed_stmts: (0..old.stmts.len() as u32)
            .filter(|i| !paired_old.contains(i))
            .collect(),
        pairs,
        reused_fns,
        dirty_fns,
        globals_dirty,
        fallback: None,
    }
}

// ---------------------------------------------------------------------
// The comparison
// ---------------------------------------------------------------------

fn lower(label: &str, src: &str) -> Program {
    structcast_ir::lower_source(src).unwrap_or_else(|e| panic!("{label}: {e}"))
}

/// Asserts that the keyed diff and the oracle agree field by field.
fn assert_same_diff(label: &str, old: &Program, new: &Program) {
    let (got, want) = (diff_programs(old, new), oracle(old, new));
    assert_eq!(got.fallback, want.fallback, "{label}: fallback");
    assert_eq!(got.obj_map, want.obj_map, "{label}: obj_map");
    assert_eq!(got.pairs, want.pairs, "{label}: pairs");
    assert_eq!(got.dirty_stmts, want.dirty_stmts, "{label}: dirty_stmts");
    assert_eq!(
        got.removed_stmts, want.removed_stmts,
        "{label}: removed_stmts"
    );
    assert_eq!(got.reused_fns, want.reused_fns, "{label}: reused_fns");
    assert_eq!(got.dirty_fns, want.dirty_fns, "{label}: dirty_fns");
    assert_eq!(
        got.globals_dirty, want.globals_dirty,
        "{label}: globals_dirty"
    );
}

/// Diffs each step of a chained edit trace against the step before it.
fn assert_trace(label: &str, base: &str, seed: u64, steps: usize) {
    let mut prev = lower(label, base);
    for (k, step) in edit_trace(base, seed, steps).iter().enumerate() {
        let label = format!("{label} seed={seed} step={k} ({})", step.kind.label());
        let next = lower(&label, &step.source);
        assert_same_diff(&label, &prev, &next);
        prev = next;
    }
}

#[test]
fn corpus_programs_diff_like_the_oracle() {
    const APPEND: &str = "\nint zz_x; int *zz_p;\nvoid zz_edit(void) { zz_p = &zz_x; }\n";
    for cp in corpus() {
        let prog = lower(cp.name, cp.source);
        assert_same_diff(cp.name, &prog, &prog);
        let grown = lower(cp.name, &format!("{}{APPEND}", cp.source));
        assert_same_diff(&format!("{} append", cp.name), &prog, &grown);
        assert_same_diff(&format!("{} shrink", cp.name), &grown, &prog);
    }
}

#[test]
fn progen_traces_diff_like_the_oracle() {
    for seed in [3, 17, 29] {
        let base = generate(&GenConfig::medium(0xD1FF_0000 + seed));
        assert_trace("progen", &base, seed, 30);
    }
    let casty = generate(&GenConfig::small(0xCA57).with_cast_ratio(1.0));
    assert_trace("casty", &casty, 23, 30);
}

#[test]
fn live_edit_trace_diffs_like_the_oracle() {
    let base = generate(&GenConfig::medium(0x11FE_0000));
    assert_trace("live_edit", &base, 1, 60);
}

#[test]
fn hand_written_edits_diff_like_the_oracle() {
    const BASE: &str = "struct S { int *s1; int *s2; } s;\n\
         int x, y, *p, *q;\n\
         void f(int *a) { int *l; s.s1 = &x; p = s.s1; l = a; }\n\
         void g(void) { q = &y; f(q); }";
    let edits = [
        // Only a field path changes.
        BASE.replace("s.s1 = &x", "s.s2 = &x"),
        BASE.replace("p = s.s1", "p = s.s2"),
        // A parameter's name, then a local's type.
        BASE.replace("int *a)", "int *b)").replace("l = a", "l = b"),
        BASE.replace("int *l;", "int **l;")
            .replace("l = a", "l = &a"),
        // A record definition (falls back).
        BASE.replace("int *s2; }", "int *s2; int *s3; }"),
        // A new string literal and an indirect call.
        format!(
            "{BASE}\nchar *m; void (*fp)(int *);\n\
             void h(void) {{ m = \"a b:c\"; fp = f; fp(p); }}"
        ),
    ];
    let base = lower("base", BASE);
    for (i, src) in edits.iter().enumerate() {
        let edited = lower(&format!("edit {i}"), src);
        assert_same_diff(&format!("edit {i}"), &base, &edited);
        assert_same_diff(&format!("edit {i} reversed"), &edited, &base);
    }
}
