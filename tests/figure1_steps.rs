//! Fact-level reproduction of the paper's §3 derivation: the three
//! inference steps that compute `p → {x}` for the running example, checked
//! against the solver's actual fact store (not just the final query).
//!
//! ```text
//! 3:  tmp1 = &s.s1;      Step 1: pointsTo(tmp1, s.s1), pointsTo(tmp2, x)
//! 4:  tmp2 = &x;         Step 2: pointsTo(s.s1, x)      (rule 5 on *tmp1 = tmp2)
//! 5:  *tmp1 = tmp2;      Step 3: pointsTo(p, x)         (rule 3 on p = s.s1)
//! 9:  p = s.s1;
//! ```

use structcast::{analyze_source, AnalysisConfig, FieldPath, FieldRep, Loc, ModelKind};

const SRC: &str = r#"
    struct S { int *s1; int *s2; } s;
    int x, y, *p;
    void main(void) {
        s.s1 = &x;
        s.s2 = &y;
        p = s.s1;
    }
"#;

/// All facts as display strings for a given instance.
fn facts(kind: ModelKind) -> (structcast::Program, Vec<(String, String)>) {
    let (prog, res) = analyze_source(SRC, &AnalysisConfig::new(kind)).unwrap();
    let fs = res
        .facts
        .iter()
        .map(|(a, b)| (a.display(&prog), b.display(&prog)))
        .collect();
    (prog, fs)
}

#[test]
fn step1_address_temporaries_point_at_field_and_variable() {
    // Rule 1 products: some temp → s.s1 (the normalized field position)
    // and some temp → x.
    let (_prog, fs) = facts(ModelKind::Offsets);
    assert!(
        fs.iter().any(|(a, b)| a.starts_with("t$") && b == "s"),
        "a temporary must point at s+0 (= s.s1): {fs:?}"
    );
    assert!(
        fs.iter().any(|(a, b)| a.starts_with("t$") && b == "x"),
        "a temporary must point at x: {fs:?}"
    );
}

#[test]
fn step2_field_fact_is_derived() {
    // Rule 5 product: pointsTo(s.s1, x) — the field itself holds &x.
    for (kind, field_rep) in [
        (ModelKind::Offsets, "s"),          // offset 0 displays as plain `s`
        (ModelKind::CommonInitialSeq, "s.0"),
        (ModelKind::CollapseOnCast, "s.0"),
    ] {
        let (_prog, fs) = facts(kind);
        assert!(
            fs.iter().any(|(a, b)| a == field_rep && b == "x"),
            "{kind}: expected pointsTo({field_rep}, x) in {fs:?}"
        );
    }
    // And the second field holds &y, at its own position.
    let (_prog, fs) = facts(ModelKind::CommonInitialSeq);
    assert!(
        fs.iter().any(|(a, b)| a == "s.1" && b == "y"),
        "pointsTo(s.s2, y) missing: {fs:?}"
    );
}

#[test]
fn step3_final_fact_for_p() {
    // Rule 3 product: pointsTo(p, x) — and for the field-sensitive
    // instances, *not* pointsTo(p, y).
    for kind in [
        ModelKind::Offsets,
        ModelKind::CommonInitialSeq,
        ModelKind::CollapseOnCast,
    ] {
        let (prog, res) = analyze_source(SRC, &AnalysisConfig::new(kind)).unwrap();
        let p = prog.object_by_name("p").unwrap();
        let x = prog.object_by_name("x").unwrap();
        let y = prog.object_by_name("y").unwrap();
        let targets = res.points_to(&prog, p);
        assert!(targets.iter().any(|l| l.obj == x), "{kind}");
        assert!(
            !targets.iter().any(|l| l.obj == y),
            "{kind}: p must not point at y"
        );
    }
}

#[test]
fn field_positions_are_distinct_locations() {
    // The two fields of s are different normalized locations in every
    // field-sensitive instance (the whole point of Figure 1's rules).
    let (prog, res) =
        analyze_source(SRC, &AnalysisConfig::new(ModelKind::CommonInitialSeq)).unwrap();
    let s = prog.object_by_name("s").unwrap();
    let f0 = res.normalize(&prog, s, &FieldPath::from_steps([0u32]));
    let f1 = res.normalize(&prog, s, &FieldPath::from_steps([1u32]));
    assert_ne!(f0, f1);
    assert_eq!(f0, Loc::leaf(s, 0));
    assert_eq!(f1.path(&prog), Some(&[1u32][..]));
    // And in Collapse-Always they are the same location.
    let (prog, res) =
        analyze_source(SRC, &AnalysisConfig::new(ModelKind::CollapseAlways)).unwrap();
    let s = prog.object_by_name("s").unwrap();
    let f0 = res.normalize(&prog, s, &FieldPath::from_steps([0u32]));
    let f1 = res.normalize(&prog, s, &FieldPath::from_steps([1u32]));
    assert_eq!(f0, f1);
    assert_eq!(f0.field, FieldRep::Whole);
}

#[test]
fn naive_rule3_extension_problem_is_solved() {
    // §3's closing example: with only Figure 1's rules, `b = (struct B)a`
    // would derive the nonsensical pointsTo(b.a1, x) and miss
    // pointsTo(b.b1, x). The framework's resolve-based rule 3 must derive
    // the sensible fact instead.
    let src = r#"
        struct A { int *a1; } a;
        struct B { int *b1; } b;
        int x;
        void main(void) {
            a.a1 = &x;
            b = *(struct B *)&a;    /* the paper's b = (struct B)a */
        }
    "#;
    for kind in ModelKind::ALL {
        let (prog, res) = analyze_source(src, &AnalysisConfig::new(kind)).unwrap();
        let b = prog.object_by_name("b").unwrap();
        let f0 = res.points_to_field(&prog, b, &FieldPath::from_steps([0u32]));
        let names: Vec<String> = f0
            .iter()
            .map(|l| prog.object(l.obj).name.clone())
            .collect();
        assert!(
            names.contains(&"x".to_string()),
            "{kind}: pointsTo(b.b1, x) must be derivable, got {names:?}"
        );
    }
}
