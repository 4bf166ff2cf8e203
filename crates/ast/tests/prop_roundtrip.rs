//! Property parser tests: printing a random AST and re-parsing it must be
//! a fixed point of the printer (print ∘ parse ∘ print = print), and the
//! lexer must handle arbitrary identifier/number shapes.
//!
//! Inputs are generated with the workspace's deterministic [`Rng64`], so
//! the suite runs hermetically and each failing case is reproducible from
//! its seed.

use structcast_ast::{parse, print_translation_unit, Lexer, TokenKind};
use structcast_types::rng::Rng64;

/// Random expression text over a fixed set of declared names, built
/// bottom-up so it is always syntactically valid.
fn random_expr(rng: &mut Rng64, depth: u32) -> String {
    if depth == 0 || rng.gen_bool(0.35) {
        return match rng.gen_range(0..5) {
            0 => "x".to_string(),
            1 => "y".to_string(),
            2 => "p".to_string(),
            3 => "s".to_string(),
            _ => rng.gen_range(0..1000).to_string(),
        };
    }
    match rng.gen_range(0..6) {
        0 => {
            let a = random_expr(rng, depth - 1);
            let b = random_expr(rng, depth - 1);
            format!("({a} + {b})")
        }
        1 => {
            let a = random_expr(rng, depth - 1);
            let b = random_expr(rng, depth - 1);
            format!("({a} * {b})")
        }
        2 => {
            let a = random_expr(rng, depth - 1);
            let b = random_expr(rng, depth - 1);
            format!("({a} == {b})")
        }
        3 => format!("(-{})", random_expr(rng, depth - 1)),
        4 => format!("(!{})", random_expr(rng, depth - 1)),
        _ => {
            let c = random_expr(rng, depth - 1);
            let t = random_expr(rng, depth - 1);
            let e = random_expr(rng, depth - 1);
            format!("({c} ? {t} : {e})")
        }
    }
}

/// Random statement bodies using the expression generator.
fn random_stmt(rng: &mut Rng64) -> String {
    match rng.gen_range(0..9) {
        0 => format!("x = {};", random_expr(rng, 3)),
        1 => format!("if ({}) y = 1; else y = 2;", random_expr(rng, 3)),
        2 => format!("while ({}) break;", random_expr(rng, 3)),
        3 => {
            let a = random_expr(rng, 3);
            let b = random_expr(rng, 3);
            format!("for (x = {a}; x < {b}; x++) y = y + 1;")
        }
        4 => format!("return {};", random_expr(rng, 3)),
        5 => "p = &x;".to_string(),
        6 => "x = *p;".to_string(),
        7 => "s.f = &x;".to_string(),
        _ => "y = s.f != 0;".to_string(),
    }
}

fn random_program(rng: &mut Rng64) -> String {
    let n = rng.gen_range(1..12);
    let stmts: Vec<String> = (0..n).map(|_| random_stmt(rng)).collect();
    format!(
        "struct S {{ int *f; int g; }} s;\nint x, y, *p;\nint main(void) {{\n{}\n}}\n",
        stmts.join("\n")
    )
}

/// Random identifier matching `[a-zA-Z_][a-zA-Z0-9_]{0,20}`.
fn random_ident(rng: &mut Rng64) -> String {
    const FIRST: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_";
    const REST: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_";
    let mut s = String::new();
    s.push(FIRST[rng.gen_range(0..FIRST.len())] as char);
    for _ in 0..rng.gen_range(0..21) {
        s.push(REST[rng.gen_range(0..REST.len())] as char);
    }
    s
}

fn random_text(rng: &mut Rng64, alphabet: &[u8], max_len: usize) -> String {
    let len = rng.gen_range(0..max_len + 1);
    (0..len)
        .map(|_| alphabet[rng.gen_range(0..alphabet.len())] as char)
        .collect()
}

#[test]
fn print_is_a_fixed_point_of_parse() {
    for case in 0..192u64 {
        let mut rng = Rng64::seed_from_u64(0x50AA + case);
        let src = random_program(&mut rng);
        let tu1 = parse(&src).expect("generated program must parse");
        let p1 = print_translation_unit(&tu1);
        let tu2 = parse(&p1).unwrap_or_else(|e| panic!("reparse failed: {e}\n{p1}"));
        let p2 = print_translation_unit(&tu2);
        assert_eq!(p1, p2);
    }
}

#[test]
fn lexer_handles_arbitrary_identifiers() {
    for case in 0..192u64 {
        let mut rng = Rng64::seed_from_u64(0x1DE0 + case);
        let name = random_ident(&mut rng);
        let (toks, syms) = Lexer::new(&name).lex().unwrap();
        assert_eq!(toks.len(), 2); // the word + EOF
        match &toks[0].kind {
            TokenKind::Ident(s) => assert_eq!(syms.text(*s), name),
            k => {
                // Keywords lex as keywords; that is fine too.
                assert!(TokenKind::keyword(&name).as_ref() == Some(k));
            }
        }
    }
}

#[test]
fn lexer_round_trips_decimal_integers() {
    let mut rng = Rng64::seed_from_u64(0x1234);
    let mut values: Vec<i64> = (0..192).map(|_| (rng.next_u64() >> 1) as i64).collect();
    values.extend([0, 1, i64::MAX]);
    for n in values {
        let src = n.to_string();
        let toks = Lexer::new(&src).tokenize().unwrap();
        assert_eq!(&toks[0].kind, &TokenKind::IntLit(n));
    }
}

#[test]
fn lexer_never_panics_on_ascii_soup() {
    // Arbitrary printable-ASCII input: must return Ok or Err, not panic.
    let alphabet: Vec<u8> = (b' '..=b'~').chain([b'\n', b'\t']).collect();
    for case in 0..192u64 {
        let mut rng = Rng64::seed_from_u64(0x50FA + case);
        let s = random_text(&mut rng, &alphabet, 80);
        let _ = Lexer::new(&s).tokenize();
    }
}

#[test]
fn parser_never_panics_on_token_soup() {
    let alphabet = b"abcdefghijklmnopqrstuvwxyz0123456789;(){}*&=+,<>[] ";
    for case in 0..192u64 {
        let mut rng = Rng64::seed_from_u64(0x70CA + case);
        let s = random_text(&mut rng, alphabet, 60);
        let _ = parse(&s);
    }
}
