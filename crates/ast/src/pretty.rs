//! A pretty-printer that renders the AST back to compilable C.
//!
//! Used for debugging, for golden tests, and by `structcast-progen` to
//! verify that generated programs round-trip through the parser.

use crate::ast::*;
use crate::symbol::{Sym, Symbols};
use std::fmt::Write as _;

/// Renders a translation unit as C source.
pub fn print_translation_unit(tu: &TranslationUnit) -> String {
    let mut p = Printer::new(&tu.symbols);
    for d in &tu.decls {
        match d {
            ExternalDecl::Function(f) => p.function(f),
            ExternalDecl::Declaration(d) => {
                p.declaration(d);
                p.out.push('\n');
            }
        }
    }
    p.out
}

/// Renders a single expression as C source; `syms` is the table of the
/// unit it came from.
pub fn print_expr(e: &Expr, syms: &Symbols) -> String {
    let mut p = Printer::new(syms);
    p.expr(e);
    p.out
}

/// Renders a type applied to an optional declarator name, e.g.
/// `print_type(ty, "x", syms)` gives `"int *x"` for pointer-to-int.
pub fn print_type(ty: &AstType, name: &str, syms: &Symbols) -> String {
    let mut p = Printer::new(syms);
    p.typed_name(ty, name)
}

struct Printer<'a> {
    out: String,
    indent: usize,
    syms: &'a Symbols,
}

impl<'a> Printer<'a> {
    fn new(syms: &'a Symbols) -> Self {
        Printer {
            out: String::new(),
            indent: 0,
            syms,
        }
    }

    fn text(&self, s: Sym) -> &'a str {
        self.syms.text(s)
    }

    /// The text of an optional name; empty for `None`.
    fn name(&self, s: Option<Sym>) -> &'a str {
        s.map_or("", |s| self.text(s))
    }

    fn nl(&mut self) {
        self.out.push('\n');
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
    }

    fn function(&mut self, f: &FunctionDef) {
        if f.storage == Storage::Static {
            self.out.push_str("static ");
        }
        let sig = self.typed_name(&f.ty, self.text(f.name));
        self.out.push_str(&sig);
        self.out.push(' ');
        self.stmt(&f.body);
        self.out.push('\n');
    }

    fn declaration(&mut self, d: &Declaration) {
        match d.storage {
            Storage::Static => self.out.push_str("static "),
            Storage::Extern => self.out.push_str("extern "),
            Storage::Typedef => self.out.push_str("typedef "),
            _ => {}
        }
        if d.items.is_empty() {
            let s = self.typed_name(&d.base, "");
            self.out.push_str(s.trim_end());
            self.out.push(';');
            return;
        }
        // Print the shared base once, then comma-separated declarators.
        let base_str = Printer::new(self.syms).typed_name(&d.base, "");
        self.out.push_str(base_str.trim_end());
        self.out.push(' ');
        for (i, item) in d.items.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            let s = self.declarator_only(&item.ty, self.text(item.name));
            self.out.push_str(&s);
            if let Some(init) = &item.init {
                self.out.push_str(" = ");
                self.initializer(init);
            }
        }
        self.out.push(';');
    }

    fn initializer(&mut self, i: &Initializer) {
        match i {
            Initializer::Expr(e) => self.expr(e),
            Initializer::List(items) => {
                self.out.push_str("{ ");
                for (n, it) in items.iter().enumerate() {
                    if n > 0 {
                        self.out.push_str(", ");
                    }
                    self.initializer(it);
                }
                self.out.push_str(" }");
            }
        }
    }

    /// Prints just the declarator part of `ty` around `name`, omitting the
    /// innermost base type (used when the base was already printed once for
    /// a comma-separated declarator list).
    fn declarator_only(&mut self, ty: &AstType, name: &str) -> String {
        fn go(p: &Printer, ty: &AstType, inner: String) -> String {
            match ty {
                AstType::Base(_) => inner,
                AstType::Pointer(t) => {
                    let needs_paren = matches!(**t, AstType::Array(_, _) | AstType::Function { .. });
                    let s = format!("*{inner}");
                    let s = if needs_paren { format!("({s})") } else { s };
                    go(p, t, s)
                }
                AstType::Array(t, n) => {
                    let dim = match n {
                        Some(e) => print_expr(e, p.syms),
                        None => String::new(),
                    };
                    go(p, t, format!("{inner}[{dim}]"))
                }
                AstType::Function {
                    ret,
                    params,
                    variadic,
                } => {
                    let mut ps = Vec::new();
                    for param in params {
                        let mut pp = Printer::new(p.syms);
                        ps.push(pp.typed_name(&param.ty, p.name(param.name)));
                    }
                    if *variadic {
                        ps.push("...".to_string());
                    }
                    if ps.is_empty() {
                        ps.push("void".to_string());
                    }
                    go(p, ret, format!("{inner}({})", ps.join(", ")))
                }
            }
        }
        go(self, ty, name.to_string())
    }

    /// C declarator printing: builds `decl` around the name inside-out.
    fn typed_name(&mut self, ty: &AstType, name: &str) -> String {
        fn go(p: &mut Printer, ty: &AstType, inner: String) -> String {
            match ty {
                AstType::Base(spec) => {
                    let b = p.type_spec(spec);
                    if inner.is_empty() {
                        b
                    } else {
                        format!("{b} {inner}")
                    }
                }
                AstType::Pointer(t) => {
                    let needs_paren = matches!(**t, AstType::Array(_, _) | AstType::Function { .. });
                    let s = format!("*{inner}");
                    let s = if needs_paren { format!("({s})") } else { s };
                    go(p, t, s)
                }
                AstType::Array(t, n) => {
                    let dim = match n {
                        Some(e) => print_expr(e, p.syms),
                        None => String::new(),
                    };
                    go(p, t, format!("{inner}[{dim}]"))
                }
                AstType::Function {
                    ret,
                    params,
                    variadic,
                } => {
                    let mut ps = Vec::new();
                    for param in params {
                        let pname = p.name(param.name).to_string();
                        ps.push(go(p, &param.ty, pname));
                    }
                    if *variadic {
                        ps.push("...".to_string());
                    }
                    if ps.is_empty() {
                        ps.push("void".to_string());
                    }
                    go(p, ret, format!("{inner}({})", ps.join(", ")))
                }
            }
        }
        go(self, ty, name.to_string())
    }

    fn type_spec(&mut self, spec: &TypeSpec) -> String {
        use TypeSpec::*;
        match spec {
            Void => "void".into(),
            Char => "char".into(),
            SChar => "signed char".into(),
            UChar => "unsigned char".into(),
            Short => "short".into(),
            UShort => "unsigned short".into(),
            Int => "int".into(),
            UInt => "unsigned int".into(),
            Long => "long".into(),
            ULong => "unsigned long".into(),
            LongLong => "long long".into(),
            ULongLong => "unsigned long long".into(),
            Float => "float".into(),
            Double => "double".into(),
            LongDouble => "long double".into(),
            Typedef(n) => self.text(*n).to_string(),
            Struct(rs) => self.record("struct", rs),
            Union(rs) => self.record("union", rs),
            Enum(es) => {
                let mut s = "enum".to_string();
                if es.tag.is_some() {
                    let _ = write!(s, " {}", self.name(es.tag));
                }
                if let Some(items) = &es.items {
                    s.push_str(" { ");
                    for (i, (n, v)) in items.iter().enumerate() {
                        if i > 0 {
                            s.push_str(", ");
                        }
                        s.push_str(self.text(*n));
                        if let Some(e) = v {
                            let _ = write!(s, " = {}", print_expr(e, self.syms));
                        }
                    }
                    s.push_str(" }");
                }
                s
            }
        }
    }

    fn record(&mut self, kw: &str, rs: &RecordSpec) -> String {
        let mut s = kw.to_string();
        if rs.tag.is_some() {
            let _ = write!(s, " {}", self.name(rs.tag));
        }
        if let Some(fields) = &rs.fields {
            s.push_str(" { ");
            for f in fields {
                let mut fp = Printer::new(self.syms);
                s.push_str(&fp.typed_name(&f.ty, self.name(f.name)));
                if let Some(w) = &f.bit_width {
                    let _ = write!(s, " : {}", print_expr(w, self.syms));
                }
                s.push_str("; ");
            }
            s.push('}');
        }
        s
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Expr(None) => self.out.push(';'),
            Stmt::Expr(Some(e)) => {
                self.expr(e);
                self.out.push(';');
            }
            Stmt::Block(items) => {
                self.out.push('{');
                self.indent += 1;
                for it in items {
                    self.nl();
                    match it {
                        BlockItem::Decl(d) => self.declaration(d),
                        BlockItem::Stmt(s) => self.stmt(s),
                    }
                }
                self.indent -= 1;
                self.nl();
                self.out.push('}');
            }
            Stmt::If { cond, then, els } => {
                self.out.push_str("if (");
                self.expr(cond);
                self.out.push_str(") ");
                self.stmt(then);
                if let Some(e) = els {
                    self.out.push_str(" else ");
                    self.stmt(e);
                }
            }
            Stmt::While { cond, body } => {
                self.out.push_str("while (");
                self.expr(cond);
                self.out.push_str(") ");
                self.stmt(body);
            }
            Stmt::DoWhile { body, cond } => {
                self.out.push_str("do ");
                self.stmt(body);
                self.out.push_str(" while (");
                self.expr(cond);
                self.out.push_str(");");
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                self.out.push_str("for (");
                match init {
                    Some(ForInit::Decl(d)) => self.declaration(d),
                    Some(ForInit::Expr(e)) => {
                        self.expr(e);
                        self.out.push(';');
                    }
                    None => self.out.push(';'),
                }
                self.out.push(' ');
                if let Some(c) = cond {
                    self.expr(c);
                }
                self.out.push_str("; ");
                if let Some(st) = step {
                    self.expr(st);
                }
                self.out.push_str(") ");
                self.stmt(body);
            }
            Stmt::Switch { cond, body } => {
                self.out.push_str("switch (");
                self.expr(cond);
                self.out.push_str(") ");
                self.stmt(body);
            }
            Stmt::Case(v, inner) => {
                self.out.push_str("case ");
                self.expr(v);
                self.out.push_str(": ");
                self.stmt(inner);
            }
            Stmt::Default(inner) => {
                self.out.push_str("default: ");
                self.stmt(inner);
            }
            Stmt::Return(v) => {
                self.out.push_str("return");
                if let Some(e) = v {
                    self.out.push(' ');
                    self.expr(e);
                }
                self.out.push(';');
            }
            Stmt::Break => self.out.push_str("break;"),
            Stmt::Continue => self.out.push_str("continue;"),
            Stmt::Goto(l) => {
                let _ = write!(self.out, "goto {};", self.text(*l));
            }
            Stmt::Labeled(l, inner) => {
                let _ = write!(self.out, "{}: ", self.text(*l));
                self.stmt(inner);
            }
        }
    }

    fn expr(&mut self, e: &Expr) {
        use ExprKind::*;
        match &e.kind {
            IntLit(v) => {
                let _ = write!(self.out, "{v}");
            }
            FloatLit(v) => {
                let _ = write!(self.out, "{v:?}");
            }
            CharLit(v) => {
                let _ = write!(self.out, "{v}");
            }
            StrLit(s) => {
                let _ = write!(self.out, "{:?}", self.text(*s));
            }
            Ident(n) => self.out.push_str(self.text(*n)),
            Unary(op, inner) => {
                let _ = write!(self.out, "{op}");
                self.out.push('(');
                self.expr(inner);
                self.out.push(')');
            }
            PostIncDec(inner, inc) => {
                self.out.push('(');
                self.expr(inner);
                self.out.push(')');
                self.out.push_str(if *inc { "++" } else { "--" });
            }
            Binary(op, l, r) => {
                self.out.push('(');
                self.expr(l);
                let _ = write!(self.out, " {op} ");
                self.expr(r);
                self.out.push(')');
            }
            Assign(op, l, r) => {
                self.expr(l);
                let _ = write!(self.out, " {op} ");
                self.expr(r);
            }
            Cond(c, t, f) => {
                self.out.push('(');
                self.expr(c);
                self.out.push_str(" ? ");
                self.expr(t);
                self.out.push_str(" : ");
                self.expr(f);
                self.out.push(')');
            }
            Cast(ty, inner) => {
                let t = self.typed_name(ty, "");
                let _ = write!(self.out, "({t})");
                self.out.push('(');
                self.expr(inner);
                self.out.push(')');
            }
            Call(f, args) => {
                self.expr(f);
                self.out.push('(');
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    self.expr(a);
                }
                self.out.push(')');
            }
            Index(a, i) => {
                self.expr(a);
                self.out.push('[');
                self.expr(i);
                self.out.push(']');
            }
            Member(obj, f, arrow) => {
                self.out.push('(');
                self.expr(obj);
                self.out.push(')');
                self.out.push_str(if *arrow { "->" } else { "." });
                self.out.push_str(self.text(*f));
            }
            SizeofExpr(inner) => {
                self.out.push_str("sizeof(");
                self.expr(inner);
                self.out.push(')');
            }
            SizeofType(ty) => {
                let t = self.typed_name(ty, "");
                let _ = write!(self.out, "sizeof({t})");
            }
            Comma(a, b) => {
                self.out.push('(');
                self.expr(a);
                self.out.push_str(", ");
                self.expr(b);
                self.out.push(')');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    /// Parse → print → parse must succeed and produce identical output the
    /// second time (a fixed point of the printer).
    fn roundtrip(src: &str) {
        let tu1 = parse(src).unwrap();
        let printed1 = print_translation_unit(&tu1);
        let tu2 = parse(&printed1).unwrap_or_else(|e| {
            panic!("reparse failed: {e}\n--- printed ---\n{printed1}");
        });
        let printed2 = print_translation_unit(&tu2);
        assert_eq!(printed1, printed2, "printer is not a fixed point");
    }

    #[test]
    fn roundtrip_declarations() {
        roundtrip("struct S { int *s1; int *s2; } s; int x, y, *p;");
        roundtrip("typedef struct Node { struct Node *next; int v; } Node; Node *head;");
        roundtrip("int *(*f[3])(int, char *);");
        roundtrip("union U { int i; char c[4]; } u;");
        roundtrip("enum Color { RED, GREEN = 5 }; enum Color c;");
    }

    #[test]
    fn roundtrip_functions() {
        roundtrip(
            "int g; int add(int a, int b) { return a + b; } \
             void loop(void) { int i; for (i = 0; i < 10; i++) g = g + i; }",
        );
        roundtrip(
            "struct S { int *p; } s; int x; \
             void f(void) { s.p = &x; if (s.p) *s.p = 1; while (x) x--; }",
        );
    }

    #[test]
    fn roundtrip_casts_and_calls() {
        roundtrip(
            "struct A { int *a1; } a; struct B { int *b1; } b, *pb; \
             void f(void) { pb = (struct B *)(&a); b = *pb; }",
        );
    }

    #[test]
    fn print_type_examples() {
        let tu = parse("int (*fp)(void);").unwrap();
        if let ExternalDecl::Declaration(d) = &tu.decls[0] {
            let s = print_type(&d.items[0].ty, "fp", &tu.symbols);
            assert_eq!(s, "int (*fp)(void)");
        }
    }
}
