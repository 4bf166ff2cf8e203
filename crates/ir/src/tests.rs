//! Lowering tests: the paper's worked examples and the lowering invariants
//! the analysis relies on.

use crate::ir::*;
use crate::lower::lower_source;
use structcast_types::TypeKind;

fn stmts_of(prog: &Program) -> Vec<String> {
    prog.stmts.iter().map(|s| prog.display_stmt(s)).collect()
}

/// The §3 example: `s.s1 = &x` must normalize to
/// `tmp1 = &s.s1; tmp2 = &x; *tmp1 = tmp2`.
#[test]
fn paper_section3_normalization() {
    let prog = lower_source(
        "struct S { int *s1; int *s2; } s; int x, *p;\n\
         void f(void) { s.s1 = &x; p = s.s1; }",
    )
    .unwrap();
    let ss = stmts_of(&prog);
    // tmp = &s.s1 (AddrOf with path .0)
    assert!(
        ss.iter().any(|s| s.contains("= &s.0")),
        "expected AddrOf of s.s1, got:\n{}",
        ss.join("\n")
    );
    // tmp2 = &x
    assert!(ss.iter().any(|s| s.contains("= &x")));
    // *tmp = tmp2
    assert!(prog.stmts.iter().any(|s| matches!(s, Stmt::Store { .. })));
    // p = s.s1 is a direct Copy (form 3), no deref needed.
    let p = prog.object_by_name("p").unwrap();
    assert!(prog
        .stmts
        .iter()
        .any(|s| matches!(s, Stmt::Copy { dst, path, .. } if *dst == p && !path.is_empty())));
}

#[test]
fn load_through_pointer_field() {
    // x = p->f lowers to taddr = &(*p).f; x = *taddr
    let prog = lower_source(
        "struct S { int f; int *g; } *p; int *x;\n\
         void f(void) { x = p->g; }",
    )
    .unwrap();
    assert!(prog
        .stmts
        .iter()
        .any(|s| matches!(s, Stmt::AddrField { .. })));
    assert!(prog.stmts.iter().any(|s| matches!(s, Stmt::Load { .. })));
}

#[test]
fn deref_sites_counted() {
    let prog = lower_source(
        "int *p, *q, x;\n\
         void f(void) { *p = 0; x = *q; }",
    )
    .unwrap();
    // *p = 0 stores a scalar: no Store emitted (no pointer payload), but
    // x = *q is a Load. Deref sites counted from emitted statements.
    assert!(prog.stmts.iter().any(|s| matches!(s, Stmt::Load { .. })));
    assert_eq!(prog.deref_sites().len(), 1);
}

#[test]
fn scalar_stores_have_no_pointer_effect() {
    let prog = lower_source("int *p; void f(void) { *p = 42; }").unwrap();
    assert!(!prog.stmts.iter().any(|s| matches!(s, Stmt::Store { .. })));
}

#[test]
fn address_of_field_through_pointer() {
    // q = &p->f is form 2 (AddrField), not a Load.
    let prog = lower_source(
        "struct S { int a; int b; } *p; int *q;\n\
         void f(void) { q = &p->b; }",
    )
    .unwrap();
    assert!(prog
        .stmts
        .iter()
        .any(|s| matches!(s, Stmt::AddrField { .. })));
    assert!(!prog.stmts.iter().any(|s| matches!(s, Stmt::Load { .. })));
}

#[test]
fn casts_become_typed_temporaries() {
    let prog = lower_source(
        "struct A { int *a1; } a; struct B { int *b1; } *pb;\n\
         void f(void) { pb = (struct B *)&a; }",
    )
    .unwrap();
    // Find the temp holding &a and check some temp has type struct B *.
    let has_bp_temp = prog.objects.iter().any(|o| {
        matches!(o.kind, ObjKind::Temp(_))
            && prog.types.display(o.ty) == "struct B *"
    });
    assert!(has_bp_temp, "{}", prog.dump());
}

#[test]
fn malloc_creates_heap_object_with_sizeof_type() {
    let prog = lower_source(
        "struct T { int *f; } *p;\n\
         void f(void) { p = malloc(sizeof(struct T)); }",
    )
    .unwrap();
    let heap = prog
        .objects
        .iter()
        .find(|o| matches!(o.kind, ObjKind::Heap(_)))
        .expect("heap object");
    // Typed as struct T[] via the sizeof heuristic.
    match prog.types.kind(heap.ty) {
        TypeKind::Array(elem, None) => {
            assert_eq!(prog.types.display(*elem), "struct T");
        }
        other => panic!("heap type should be unsized array, got {other:?}"),
    }
}

#[test]
fn malloc_cast_refines_type() {
    let prog = lower_source(
        "struct T { int *f; } *p;\n\
         void f(void) { p = (struct T *)malloc(64); }",
    )
    .unwrap();
    let heap = prog
        .objects
        .iter()
        .find(|o| matches!(o.kind, ObjKind::Heap(_)))
        .unwrap();
    match prog.types.kind(heap.ty) {
        TypeKind::Array(elem, None) => assert_eq!(prog.types.display(*elem), "struct T"),
        other => panic!("{other:?}"),
    }
}

#[test]
fn malloc_without_hints_is_byte_blob() {
    let prog = lower_source("void *v; void f(void) { v = malloc(10); }").unwrap();
    let heap = prog
        .objects
        .iter()
        .find(|o| matches!(o.kind, ObjKind::Heap(_)))
        .unwrap();
    assert_eq!(prog.types.display(heap.ty), "char[]");
}

#[test]
fn each_malloc_site_is_distinct() {
    let prog = lower_source(
        "int *a, *b; void f(void) { a = malloc(4); b = malloc(4); }",
    )
    .unwrap();
    let heaps: Vec<_> = prog
        .objects
        .iter()
        .filter(|o| matches!(o.kind, ObjKind::Heap(_)))
        .collect();
    assert_eq!(heaps.len(), 2);
    assert_ne!(heaps[0].name, heaps[1].name);
}

#[test]
fn direct_calls_bind_params_and_return() {
    let prog = lower_source(
        "int x; int *id(int *q) { return q; } \n\
         void f(void) { int *r; r = id(&x); }",
    )
    .unwrap();
    let f = prog.function_by_name("id").unwrap();
    let param = f.params[0];
    let ret = f.ret_slot.unwrap();
    // Argument bound to parameter.
    assert!(prog
        .stmts
        .iter()
        .any(|s| matches!(s, Stmt::Copy { dst, .. } if *dst == param)));
    // Return value read from the slot.
    assert!(prog
        .stmts
        .iter()
        .any(|s| matches!(s, Stmt::Copy { src, .. } if *src == ret)));
}

#[test]
fn function_pointers_and_indirect_calls() {
    let prog = lower_source(
        "int g(int a) { return a; } int (*fp)(int);\n\
         void f(void) { fp = g; fp(3); (*fp)(4); }",
    )
    .unwrap();
    // fp = g creates AddrOf of the function object.
    let g = prog.function_by_name("g").unwrap();
    assert!(prog
        .stmts
        .iter()
        .any(|s| matches!(s, Stmt::AddrOf { src, .. } if *src == g.obj)));
    // Both calls are indirect through fp.
    let calls: Vec<_> = prog
        .stmts
        .iter()
        .filter(|s| matches!(s, Stmt::Call { callee: Callee::Indirect(_), .. }))
        .collect();
    assert_eq!(calls.len(), 2);
}

#[test]
fn unknown_extern_warns_but_lowers() {
    let prog = lower_source("void f(void) { frobnicate(1); frobnicate(2); }").unwrap();
    assert_eq!(prog.warnings.len(), 1, "{:?}", prog.warnings);
    assert!(prog.warnings[0].contains("frobnicate"));
}

#[test]
fn memcpy_summary_emits_copyall() {
    let prog = lower_source(
        "struct S { int *p; } a, b;\n\
         void f(void) { memcpy(&a, &b, sizeof(struct S)); }",
    )
    .unwrap();
    assert!(prog
        .stmts
        .iter()
        .any(|s| matches!(s, Stmt::CopyAll { .. })));
}

#[test]
fn qsort_summary_calls_comparator() {
    let prog = lower_source(
        "int cmp(const void *a, const void *b) { return 0; }\n\
         int arr[10];\n\
         void f(void) { qsort(arr, 10, sizeof(int), cmp); }",
    )
    .unwrap();
    assert!(prog
        .stmts
        .iter()
        .any(|s| matches!(s, Stmt::Call { callee: Callee::Indirect(_), .. })));
}

#[test]
fn pointer_arithmetic_becomes_ptrarith() {
    let prog = lower_source("int a[10], *p; void f(void) { p = p + 3; p++; --p; }").unwrap();
    let n = prog
        .stmts
        .iter()
        .filter(|s| matches!(s, Stmt::PtrArith { .. }))
        .count();
    assert_eq!(n, 3);
}

#[test]
fn array_indexing_is_not_arithmetic() {
    // a[i] uses the representative element: Load/Store through the decayed
    // pointer, no PtrArith spread.
    let prog = lower_source(
        "int *a[10]; int *x; void f(int i) { x = a[i]; a[i] = x; }",
    )
    .unwrap();
    assert!(!prog
        .stmts
        .iter()
        .any(|s| matches!(s, Stmt::PtrArith { .. })));
    assert!(prog.stmts.iter().any(|s| matches!(s, Stmt::Load { .. })));
    assert!(prog.stmts.iter().any(|s| matches!(s, Stmt::Store { .. })));
}

#[test]
fn string_literals_are_objects() {
    let prog = lower_source("char *s; void f(void) { s = \"hello\"; }").unwrap();
    assert!(prog
        .objects
        .iter()
        .any(|o| matches!(o.kind, ObjKind::StringLit)));
}

#[test]
fn global_initializers_lowered() {
    let prog = lower_source("int x; int *p = &x; struct S { int *a; int *b; } s = { &x, 0 };")
        .unwrap();
    // p = &x plus tmp = &x; for s.a (via AddrOf+Store).
    let addr_ofs = prog
        .stmts
        .iter()
        .filter(|s| matches!(s, Stmt::AddrOf { .. }))
        .count();
    assert!(addr_ofs >= 2, "{}", prog.dump());
    assert!(prog.stmts.iter().any(|s| matches!(s, Stmt::Store { .. })));
}

#[test]
fn local_initializers_and_shadowing() {
    let prog = lower_source(
        "int x; void f(void) { int *p = &x; { int x; int *q = &x; } }",
    )
    .unwrap();
    // Two distinct AddrOf sources: global x and local x.
    let mut srcs = std::collections::HashSet::new();
    for s in &prog.stmts {
        if let Stmt::AddrOf { src, .. } = s {
            srcs.insert(*src);
        }
    }
    assert_eq!(srcs.len(), 2);
}

#[test]
fn conditional_joins_both_arms() {
    let prog = lower_source(
        "int x, y, *p; void f(int c) { p = c ? &x : &y; }",
    )
    .unwrap();
    // The join temp receives copies from both arm temps.
    let copies = prog
        .stmts
        .iter()
        .filter(|s| matches!(s, Stmt::Copy { .. }))
        .count();
    assert!(copies >= 2, "{}", prog.dump());
}

#[test]
fn return_flows_to_ret_slot() {
    let prog = lower_source("int x; int *f(void) { return &x; }").unwrap();
    let f = prog.function_by_name("f").unwrap();
    let rs = f.ret_slot.unwrap();
    assert!(prog
        .stmts
        .iter()
        .any(|s| matches!(s, Stmt::Copy { dst, .. } if *dst == rs)));
}

#[test]
fn variadic_extra_args_flow_to_varargs_object() {
    let prog = lower_source(
        "int x; void log2(int n, ...); void log2(int n, ...) { }\n\
         void f(void) { log2(1, &x); }",
    )
    .unwrap();
    let va = prog
        .objects
        .iter()
        .position(|o| matches!(o.kind, ObjKind::VarArgs(_)))
        .map(|i| ObjId(i as u32))
        .expect("varargs object");
    assert!(prog
        .stmts
        .iter()
        .any(|s| matches!(s, Stmt::Copy { dst, .. } if *dst == va)));
}

#[test]
fn prototype_then_definition_share_params() {
    let prog = lower_source(
        "void g(int *p); int x;\n\
         void f(void) { g(&x); }\n\
         void g(int *q) { int *r; r = q; }",
    )
    .unwrap();
    let g = prog.function_by_name("g").unwrap();
    assert_eq!(g.params.len(), 1);
    let param = g.params[0];
    // Caller binds into the same object the body reads from.
    assert!(prog
        .stmts
        .iter()
        .any(|s| matches!(s, Stmt::Copy { dst, .. } if *dst == param)));
    assert!(prog
        .stmts
        .iter()
        .any(|s| matches!(s, Stmt::Copy { src, .. } if *src == param)));
}

#[test]
fn struct_copy_is_single_copy_stmt() {
    let prog = lower_source(
        "struct S { int *a; int *b; } s, t; void f(void) { s = t; }",
    )
    .unwrap();
    let s = prog.object_by_name("s").unwrap();
    let t = prog.object_by_name("t").unwrap();
    assert!(prog
        .stmts
        .iter()
        .any(|st| matches!(st, Stmt::Copy { dst, src, path } if *dst == s && *src == t && path.is_empty())));
}

#[test]
fn anonymous_struct_member_access() {
    let prog = lower_source(
        "struct O { struct { int *inner; }; int *outer; } o; int x;\n\
         void f(void) { o.inner = &x; }",
    )
    .unwrap();
    // The write goes through path .0.0 (anon member, then inner).
    let ss = stmts_of(&prog);
    assert!(
        ss.iter().any(|s| s.contains("&o.0.0")),
        "{}",
        ss.join("\n")
    );
}

#[test]
fn enum_constants_fold() {
    let prog = lower_source(
        "enum E { A = 2, B, C = B + 5 }; int arr[C]; void f(void) { }",
    )
    .unwrap();
    let arr = prog.object_by_name("arr").unwrap();
    match prog.types.kind(prog.type_of(arr)) {
        TypeKind::Array(_, Some(n)) => assert_eq!(*n, 8),
        other => panic!("{other:?}"),
    }
}

#[test]
fn recursive_struct_types() {
    let prog = lower_source(
        "struct Node { struct Node *next; int v; };\n\
         struct Node a, b; void f(void) { a.next = &b; b.next = a.next; }",
    )
    .unwrap();
    assert!(prog.stmts.len() >= 4);
}

#[test]
fn undeclared_identifier_is_error() {
    let err = lower_source("void f(void) { x = 3; }").unwrap_err();
    assert!(err.message().contains("undeclared"), "{err}");
}

#[test]
fn bad_member_is_error() {
    let err = lower_source(
        "struct S { int a; } s; void f(void) { s.b = 1; }",
    )
    .unwrap_err();
    assert!(err.message().contains("no member"), "{err}");
}

#[test]
fn typedef_resolution() {
    let prog = lower_source(
        "typedef struct S { int *f; } S, *SP; SP p; S s; int x;\n\
         void f(void) { p = &s; p->f = &x; }",
    )
    .unwrap();
    assert!(prog.stmts.iter().any(|s| matches!(s, Stmt::Store { .. })));
}

#[test]
fn assignment_count_matches_paper_forms() {
    let prog = lower_source(
        "int x, *p, *q; void f(void) { p = &x; q = p; p = q + 1; }",
    )
    .unwrap();
    // p = &x (AddrOf), q = p (Copy), plus PtrArith (not a paper form) and
    // the copy of its result.
    assert!(prog.assignment_count() >= 2);
    assert!(prog.assignment_count() < prog.stmts.len());
}

/// A record containing itself (or a record not yet complete) by value has
/// no layout; it is a typed error naming the member, not an unbounded
/// recursion in layout or field enumeration.
#[test]
fn incomplete_by_value_members_are_errors() {
    for (src, at) in [
        (
            "struct S { int *p; struct S s; } v;",
            "member `s` has incomplete type at line 1, column 29",
        ),
        (
            "struct A { struct B b[2]; } v; struct B { int *q; };",
            "member `b` has incomplete type at line 1, column 21",
        ),
    ] {
        assert_eq!(lower_source(src).unwrap_err().to_string(), at);
    }
    // Behind a pointer the record may be incomplete, or the record itself.
    lower_source("struct N { struct N *next; struct M *m; } v; struct M { int x; };").unwrap();
}
