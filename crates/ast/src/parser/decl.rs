//! Declaration-specifier and declarator parsing.

use super::Parser;
use crate::ast::*;
use crate::error::Result;
use crate::span::Span;
use crate::symbol::Sym;
use crate::token::TokenKind;

/// Intermediate declarator tree; `Name` is innermost.
#[derive(Debug)]
enum Decltor {
    Name(Option<Sym>, Span),
    Pointer(Box<Decltor>),
    Array(Box<Decltor>, Option<Expr>),
    Func(Box<Decltor>, Vec<ParamDecl>, bool),
}

fn apply(d: Decltor, base: AstType) -> (Option<Sym>, AstType, Span) {
    match d {
        Decltor::Name(n, sp) => (n, base, sp),
        Decltor::Pointer(inner) => apply(*inner, AstType::Pointer(Box::new(base))),
        Decltor::Array(inner, n) => {
            apply(*inner, AstType::Array(Box::new(base), n.map(Box::new)))
        }
        Decltor::Func(inner, params, variadic) => apply(
            *inner,
            AstType::Function {
                ret: Box::new(base),
                params,
                variadic,
            },
        ),
    }
}

/// Accumulates base-type keywords (`unsigned`, `long`, ...) into a TypeSpec.
#[derive(Debug, Default)]
struct SpecBuilder {
    signed: bool,
    unsigned: bool,
    short: bool,
    long_count: u8,
    base: Option<TypeSpec>,
    saw_any: bool,
}

impl SpecBuilder {
    fn finish(self, p: &Parser) -> Result<TypeSpec> {
        use TypeSpec::*;
        if !self.saw_any {
            return Err(p.error("expected type specifier"));
        }
        let base = self.base.unwrap_or(Int);
        Ok(match base {
            Char => {
                if self.unsigned {
                    UChar
                } else if self.signed {
                    SChar
                } else {
                    Char
                }
            }
            Int => match (self.short, self.long_count, self.unsigned) {
                (true, _, false) => Short,
                (true, _, true) => UShort,
                (false, 0, false) => Int,
                (false, 0, true) => UInt,
                (false, 1, false) => Long,
                (false, 1, true) => ULong,
                (false, _, false) => LongLong,
                (false, _, true) => ULongLong,
            },
            Double => {
                if self.long_count > 0 {
                    LongDouble
                } else {
                    Double
                }
            }
            other => other,
        })
    }
}

impl Parser {
    /// Parses declaration specifiers: storage class + qualifiers + one base
    /// type. Returns the storage class and the base [`AstType`].
    ///
    /// # Errors
    ///
    /// Fails if no type specifier is present or specifiers conflict.
    pub(crate) fn parse_decl_specifiers(&mut self) -> Result<(Storage, AstType)> {
        let mut storage = Storage::None;
        let mut b = SpecBuilder::default();
        loop {
            let k = self.peek();
            match k {
                TokenKind::KwTypedef => {
                    storage = Storage::Typedef;
                    self.advance();
                }
                TokenKind::KwStatic => {
                    storage = Storage::Static;
                    self.advance();
                }
                TokenKind::KwExtern => {
                    storage = Storage::Extern;
                    self.advance();
                }
                TokenKind::KwAuto | TokenKind::KwRegister => {
                    storage = Storage::Auto;
                    self.advance();
                }
                TokenKind::KwConst | TokenKind::KwVolatile | TokenKind::KwInline => {
                    // Qualifiers are dropped: the analysis is unaffected by
                    // const/volatile (see DESIGN.md §3).
                    self.advance();
                }
                TokenKind::KwVoid => {
                    b.base = Some(TypeSpec::Void);
                    b.saw_any = true;
                    self.advance();
                }
                TokenKind::KwChar => {
                    b.base = Some(TypeSpec::Char);
                    b.saw_any = true;
                    self.advance();
                }
                TokenKind::KwInt => {
                    b.base = Some(TypeSpec::Int);
                    b.saw_any = true;
                    self.advance();
                }
                TokenKind::KwFloat => {
                    b.base = Some(TypeSpec::Float);
                    b.saw_any = true;
                    self.advance();
                }
                TokenKind::KwDouble => {
                    b.base = Some(TypeSpec::Double);
                    b.saw_any = true;
                    self.advance();
                }
                TokenKind::KwShort => {
                    b.short = true;
                    b.saw_any = true;
                    self.advance();
                }
                TokenKind::KwLong => {
                    b.long_count += 1;
                    b.saw_any = true;
                    self.advance();
                }
                TokenKind::KwSigned => {
                    b.signed = true;
                    b.saw_any = true;
                    self.advance();
                }
                TokenKind::KwUnsigned => {
                    b.unsigned = true;
                    b.saw_any = true;
                    self.advance();
                }
                TokenKind::KwStruct | TokenKind::KwUnion => {
                    if b.saw_any {
                        return Err(self.error("conflicting type specifiers"));
                    }
                    let is_union = k == TokenKind::KwUnion;
                    let spec = self.parse_record_spec()?;
                    return Ok((
                        storage,
                        AstType::Base(if is_union {
                            TypeSpec::Union(spec)
                        } else {
                            TypeSpec::Struct(spec)
                        }),
                    ));
                }
                TokenKind::KwEnum => {
                    if b.saw_any {
                        return Err(self.error("conflicting type specifiers"));
                    }
                    let spec = self.parse_enum_spec()?;
                    return Ok((storage, AstType::Base(TypeSpec::Enum(spec))));
                }
                TokenKind::Ident(name) if !b.saw_any && self.is_typedef_name(name) => {
                    self.advance();
                    // Qualifiers may trail the typedef name.
                    while matches!(
                        self.peek(),
                        TokenKind::KwConst | TokenKind::KwVolatile
                    ) {
                        self.advance();
                    }
                    return Ok((storage, AstType::Base(TypeSpec::Typedef(name))));
                }
                _ => break,
            }
        }
        let spec = b.finish(self)?;
        Ok((storage, AstType::Base(spec)))
    }

    fn parse_record_spec(&mut self) -> Result<RecordSpec> {
        let start = self.peek_span();
        self.advance(); // struct / union
        let tag = match self.peek() {
            TokenKind::Ident(n) => {
                self.advance();
                Some(n)
            }
            _ => None,
        };
        let fields = if self.eat(TokenKind::LBrace) {
            let mut fields = Vec::new();
            while !self.check(TokenKind::RBrace) {
                self.nested(|p| p.parse_field_group(&mut fields))?;
            }
            self.expect(TokenKind::RBrace)?;
            Some(fields)
        } else {
            if tag.is_none() {
                return Err(self.error("struct/union without tag or body"));
            }
            None
        };
        Ok(RecordSpec {
            tag,
            fields,
            span: start.merge(self.prev_span()),
        })
    }

    fn parse_field_group(&mut self, out: &mut Vec<FieldDecl>) -> Result<()> {
        let (_storage, base) = self.parse_decl_specifiers()?;
        // Anonymous struct/union member without declarator: `struct {...};`
        if self.check(TokenKind::Semi) {
            self.advance();
            out.push(FieldDecl {
                name: None,
                ty: base,
                bit_width: None,
                span: self.prev_span(),
            });
            return Ok(());
        }
        loop {
            if self.check(TokenKind::Colon) {
                // Unnamed bit-field.
                self.advance();
                let w = self.parse_conditional_expr()?;
                out.push(FieldDecl {
                    name: None,
                    ty: base.clone(),
                    bit_width: Some(w),
                    span: self.prev_span(),
                });
            } else {
                let (name, ty, span) = self.parse_named_declarator(base.clone())?;
                let bit_width = if self.eat(TokenKind::Colon) {
                    Some(self.parse_conditional_expr()?)
                } else {
                    None
                };
                out.push(FieldDecl {
                    name: Some(name),
                    ty,
                    bit_width,
                    span,
                });
            }
            if !self.eat(TokenKind::Comma) {
                break;
            }
        }
        self.expect(TokenKind::Semi)?;
        Ok(())
    }

    fn parse_enum_spec(&mut self) -> Result<EnumSpec> {
        let start = self.peek_span();
        self.advance(); // enum
        let tag = match self.peek() {
            TokenKind::Ident(n) => {
                self.advance();
                Some(n)
            }
            _ => None,
        };
        let items = if self.eat(TokenKind::LBrace) {
            let mut items = Vec::new();
            while !self.check(TokenKind::RBrace) {
                let (name, _) = self.expect_ident()?;
                let val = if self.eat(TokenKind::Assign) {
                    Some(self.parse_conditional_expr()?)
                } else {
                    None
                };
                // Enumerators are ordinary (non-typedef) names.
                self.declare_name(name, false);
                items.push((name, val));
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
            self.expect(TokenKind::RBrace)?;
            Some(items)
        } else {
            if tag.is_none() {
                return Err(self.error("enum without tag or body"));
            }
            None
        };
        Ok(EnumSpec {
            tag,
            items,
            span: start.merge(self.prev_span()),
        })
    }

    /// Parses a declarator that must have a name; returns
    /// `(name, full type, name span)`.
    pub(crate) fn parse_named_declarator(&mut self, base: AstType) -> Result<(Sym, AstType, Span)> {
        let d = self.parse_declarator(false)?;
        let (name, ty, span) = apply(d, base);
        match name {
            Some(n) => Ok((n, ty, span)),
            None => Err(self.error("expected a name in declarator")),
        }
    }

    /// Parses a possibly-abstract declarator (name optional).
    fn parse_abstract_declarator(&mut self, base: AstType) -> Result<(Option<Sym>, AstType, Span)> {
        let d = self.parse_declarator(true)?;
        Ok(apply(d, base))
    }

    fn parse_declarator(&mut self, allow_abstract: bool) -> Result<Decltor> {
        // Pointer prefix (with ignored qualifiers).
        if self.eat(TokenKind::Star) {
            while matches!(self.peek(), TokenKind::KwConst | TokenKind::KwVolatile) {
                self.advance();
            }
            let inner = self.nested(|p| p.parse_declarator(allow_abstract))?;
            return Ok(Decltor::Pointer(Box::new(inner)));
        }
        self.parse_direct_declarator(allow_abstract)
    }

    fn parse_direct_declarator(&mut self, allow_abstract: bool) -> Result<Decltor> {
        self.left_deep(|p| p.parse_declarator_suffixes(allow_abstract))
    }

    fn parse_declarator_suffixes(&mut self, allow_abstract: bool) -> Result<Decltor> {
        let mut d = match self.peek() {
            TokenKind::Ident(name) => {
                let sp = self.peek_span();
                self.advance();
                Decltor::Name(Some(name), sp)
            }
            TokenKind::LParen if self.paren_is_grouping(allow_abstract) => {
                self.advance();
                let inner = self.nested(|p| p.parse_declarator(allow_abstract))?;
                self.expect(TokenKind::RParen)?;
                inner
            }
            _ if allow_abstract => Decltor::Name(None, self.peek_span()),
            other => {
                return Err(self.error(format!(
                    "expected declarator, found {}",
                    self.describe(other)
                )))
            }
        };
        // Suffixes.
        loop {
            if self.eat(TokenKind::LBracket) {
                let size = if self.check(TokenKind::RBracket) {
                    None
                } else {
                    Some(self.nested(Self::parse_conditional_expr)?)
                };
                self.expect(TokenKind::RBracket)?;
                d = Decltor::Array(Box::new(d), size);
            } else if self.check(TokenKind::LParen) {
                self.advance();
                let (params, variadic) = self.nested(Self::parse_param_list)?;
                d = Decltor::Func(Box::new(d), params, variadic);
            } else {
                break;
            }
            self.grow()?;
        }
        Ok(d)
    }

    /// In an abstract declarator, `(` could start either a grouped declarator
    /// (`(*)(...)`) or a parameter list (`(int)`). It's a grouping paren iff
    /// the next token cannot start a parameter declaration and isn't `)`.
    fn paren_is_grouping(&self, allow_abstract: bool) -> bool {
        if !allow_abstract {
            return true;
        }
        match self.peek_nth(1) {
            TokenKind::RParen => false,
            k if k.is_decl_spec_keyword() => false,
            TokenKind::Ident(n) => !self.is_typedef_name(n),
            _ => true,
        }
    }

    fn parse_param_list(&mut self) -> Result<(Vec<ParamDecl>, bool)> {
        let mut params = Vec::new();
        let mut variadic = false;
        if self.eat(TokenKind::RParen) {
            // `()` — unspecified parameters; treat as an empty list.
            return Ok((params, false));
        }
        // `(void)`
        if self.check(TokenKind::KwVoid) && self.peek_nth(1) == TokenKind::RParen {
            self.advance();
            self.advance();
            return Ok((params, false));
        }
        loop {
            if self.eat(TokenKind::Ellipsis) {
                variadic = true;
                break;
            }
            let start = self.peek_span();
            let (_storage, base) = self.parse_decl_specifiers()?;
            let (name, ty, span) = self.parse_abstract_declarator(base)?;
            // Arrays in parameters decay to pointers.
            let ty = decay_param_type(ty);
            params.push(ParamDecl {
                name,
                ty,
                span: start.merge(span),
            });
            if !self.eat(TokenKind::Comma) {
                break;
            }
        }
        self.expect(TokenKind::RParen)?;
        Ok((params, variadic))
    }

    /// Parses a type-name (for casts and `sizeof`): specifiers plus an
    /// abstract declarator.
    pub(crate) fn parse_type_name(&mut self) -> Result<AstType> {
        let (_storage, base) = self.parse_decl_specifiers()?;
        let (name, ty, _span) = self.parse_abstract_declarator(base)?;
        if name.is_some() {
            return Err(self.error("unexpected name in type-name"));
        }
        Ok(ty)
    }
}

/// Array-of-T parameters decay to pointer-to-T; function parameters decay to
/// function pointers.
fn decay_param_type(ty: AstType) -> AstType {
    match ty {
        AstType::Array(elem, _) => AstType::Pointer(elem),
        f @ AstType::Function { .. } => AstType::Pointer(Box::new(f)),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use crate::ast::*;
    use crate::parser::parse;

    fn first_ty(src: &str) -> AstType {
        let tu = parse(src).unwrap();
        match &tu.decls[0] {
            ExternalDecl::Declaration(d) => d.items[0].ty.clone(),
            _ => panic!("expected declaration"),
        }
    }

    #[test]
    fn builtin_combinations() {
        assert_eq!(first_ty("unsigned x;"), AstType::Base(TypeSpec::UInt));
        assert_eq!(first_ty("unsigned long x;"), AstType::Base(TypeSpec::ULong));
        assert_eq!(
            first_ty("long long x;"),
            AstType::Base(TypeSpec::LongLong)
        );
        assert_eq!(first_ty("signed char x;"), AstType::Base(TypeSpec::SChar));
        assert_eq!(
            first_ty("long double x;"),
            AstType::Base(TypeSpec::LongDouble)
        );
        assert_eq!(first_ty("short int x;"), AstType::Base(TypeSpec::Short));
    }

    #[test]
    fn struct_with_fields() {
        let tu = parse("struct S { int *s1; char s2; } s;").unwrap();
        let ExternalDecl::Declaration(d) = &tu.decls[0] else {
            panic!("expected declaration")
        };
        match d.items[0].ty.clone() {
            AstType::Base(TypeSpec::Struct(rs)) => {
                assert_eq!(rs.tag, tu.symbols.get("S"));
                let fields = rs.fields.unwrap();
                assert_eq!(fields.len(), 2);
                assert_eq!(fields[0].name, tu.symbols.get("s1"));
                assert!(matches!(fields[0].ty, AstType::Pointer(_)));
            }
            other => panic!("expected struct, got {other:?}"),
        }
    }

    #[test]
    fn nested_struct_reference() {
        let src = "struct R { int r1; }; struct W { int w1; struct R r; } w;";
        let tu = parse(src).unwrap();
        assert_eq!(tu.decls.len(), 2);
    }

    #[test]
    fn union_and_enum() {
        let ty = first_ty("union U { int i; float f; } u;");
        assert!(matches!(ty, AstType::Base(TypeSpec::Union(_))));
        let tu = parse("enum E { A, B = 5, C } e;").unwrap();
        let ExternalDecl::Declaration(d) = &tu.decls[0] else {
            panic!("expected declaration")
        };
        match d.items[0].ty.clone() {
            AstType::Base(TypeSpec::Enum(es)) => {
                let items = es.items.unwrap();
                assert_eq!(items.len(), 3);
                assert_eq!(tu.symbols.text(items[1].0), "B");
                assert!(items[1].1.is_some());
            }
            other => panic!("expected enum, got {other:?}"),
        }
    }

    #[test]
    fn bitfields_parse_and_width_is_recorded() {
        let ty = first_ty("struct B { int flags : 3; int : 2; int rest; } b;");
        match ty {
            AstType::Base(TypeSpec::Struct(rs)) => {
                let fs = rs.fields.unwrap();
                assert_eq!(fs.len(), 3);
                assert!(fs[0].bit_width.is_some());
                assert!(fs[1].name.is_none());
                assert!(fs[2].bit_width.is_none());
            }
            _ => panic!(),
        }
    }

    #[test]
    fn function_prototype_params_decay() {
        let ty = first_ty("void f(int a[10], void g(void));");
        match ty {
            AstType::Function { params, .. } => {
                assert!(matches!(params[0].ty, AstType::Pointer(_)));
                assert!(matches!(params[1].ty, AstType::Pointer(_)));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn variadic_prototype() {
        let ty = first_ty("int printf(const char *fmt, ...);");
        match ty {
            AstType::Function { variadic, params, .. } => {
                assert!(variadic);
                assert_eq!(params.len(), 1);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn complex_declarator() {
        // f: array of 3 pointers to function(void) returning pointer to int
        let ty = first_ty("int *(*f[3])(void);");
        match ty {
            AstType::Array(inner, _) => match *inner {
                AstType::Pointer(inner2) => {
                    assert!(inner2.is_function());
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn qualifiers_are_dropped() {
        assert_eq!(
            first_ty("const volatile int x;"),
            AstType::Base(TypeSpec::Int)
        );
        assert!(matches!(
            first_ty("const char * const p;"),
            AstType::Pointer(_)
        ));
    }

    #[test]
    fn anonymous_struct_member() {
        let ty = first_ty("struct O { struct { int a; }; int b; } o;");
        match ty {
            AstType::Base(TypeSpec::Struct(rs)) => {
                let fs = rs.fields.unwrap();
                assert_eq!(fs.len(), 2);
                assert!(fs[0].name.is_none());
            }
            _ => panic!(),
        }
    }
}
