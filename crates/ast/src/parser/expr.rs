//! Expression parsing (precedence climbing).

use super::Parser;
use crate::ast::*;
use crate::error::Result;
use crate::token::TokenKind;

/// Binding powers for binary operators, higher binds tighter.
fn binop_for(tok: TokenKind) -> Option<(BinOp, u8)> {
    use BinOp::*;
    use TokenKind as T;
    Some(match tok {
        T::PipePipe => (LogOr, 1),
        T::AmpAmp => (LogAnd, 2),
        T::Pipe => (BitOr, 3),
        T::Caret => (BitXor, 4),
        T::Amp => (BitAnd, 5),
        T::EqEq => (Eq, 6),
        T::Ne => (Ne, 6),
        T::Lt => (Lt, 7),
        T::Gt => (Gt, 7),
        T::Le => (Le, 7),
        T::Ge => (Ge, 7),
        T::Shl => (Shl, 8),
        T::Shr => (Shr, 8),
        T::Plus => (Add, 9),
        T::Minus => (Sub, 9),
        T::Star => (Mul, 10),
        T::Slash => (Div, 10),
        T::Percent => (Rem, 10),
        _ => return None,
    })
}

fn assign_op_for(tok: TokenKind) -> Option<AssignOp> {
    use AssignOp::*;
    use TokenKind as T;
    Some(match tok {
        T::Assign => Simple,
        T::PlusAssign => Add,
        T::MinusAssign => Sub,
        T::StarAssign => Mul,
        T::SlashAssign => Div,
        T::PercentAssign => Rem,
        T::ShlAssign => Shl,
        T::ShrAssign => Shr,
        T::AmpAssign => And,
        T::PipeAssign => Or,
        T::CaretAssign => Xor,
        _ => return None,
    })
}

impl Parser {
    /// Parses a full expression (including comma operators).
    pub(crate) fn parse_expr(&mut self) -> Result<Expr> {
        self.left_deep(|p| {
            let mut e = p.parse_assignment_expr()?;
            while p.check(TokenKind::Comma) {
                p.advance();
                let rhs = p.parse_assignment_expr()?;
                p.grow()?;
                let span = e.span.merge(rhs.span);
                e = Expr::new(ExprKind::Comma(Box::new(e), Box::new(rhs)), span);
            }
            Ok(e)
        })
    }

    /// Parses an assignment-expression (no top-level comma).
    pub(crate) fn parse_assignment_expr(&mut self) -> Result<Expr> {
        let lhs = self.parse_conditional_expr()?;
        if let Some(op) = assign_op_for(self.peek()) {
            self.advance();
            let rhs = self.nested(Self::parse_assignment_expr)?;
            let span = lhs.span.merge(rhs.span);
            return Ok(Expr::new(
                ExprKind::Assign(op, Box::new(lhs), Box::new(rhs)),
                span,
            ));
        }
        Ok(lhs)
    }

    /// Parses a conditional-expression (`?:` and below).
    pub(crate) fn parse_conditional_expr(&mut self) -> Result<Expr> {
        let cond = self.parse_binary_expr(0)?;
        if self.eat(TokenKind::Question) {
            let then = self.nested(Self::parse_expr)?;
            self.expect(TokenKind::Colon)?;
            let els = self.nested(Self::parse_conditional_expr)?;
            let span = cond.span.merge(els.span);
            return Ok(Expr::new(
                ExprKind::Cond(Box::new(cond), Box::new(then), Box::new(els)),
                span,
            ));
        }
        Ok(cond)
    }

    fn parse_binary_expr(&mut self, min_bp: u8) -> Result<Expr> {
        self.left_deep(|p| {
            let mut lhs = p.parse_cast_expr()?;
            while let Some((op, bp)) = binop_for(p.peek()) {
                if bp < min_bp {
                    break;
                }
                p.advance();
                let rhs = p.parse_binary_expr(bp + 1)?;
                p.grow()?;
                let span = lhs.span.merge(rhs.span);
                lhs = Expr::new(ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)), span);
            }
            Ok(lhs)
        })
    }

    /// True if `(` at the current position begins a cast, i.e. the token
    /// after it starts a type-name.
    fn lparen_starts_cast(&self) -> bool {
        if !self.check(TokenKind::LParen) {
            return false;
        }
        match self.peek_nth(1) {
            k if k.is_decl_spec_keyword() => true,
            TokenKind::Ident(n) => self.is_typedef_name(n),
            _ => false,
        }
    }

    pub(crate) fn parse_cast_expr(&mut self) -> Result<Expr> {
        if self.lparen_starts_cast() {
            let start = self.peek_span();
            self.advance(); // (
            return self.nested(|p| {
                let ty = p.parse_type_name()?;
                p.expect(TokenKind::RParen)?;
                let inner = p.parse_cast_expr()?;
                let span = start.merge(inner.span);
                Ok(Expr::new(
                    ExprKind::Cast(Box::new(ty), Box::new(inner)),
                    span,
                ))
            });
        }
        self.parse_unary_expr()
    }

    fn parse_unary_expr(&mut self) -> Result<Expr> {
        let start = self.peek_span();
        let un = |k: TokenKind| -> Option<UnOp> {
            use TokenKind as T;
            use UnOp::*;
            Some(match k {
                T::Minus => Neg,
                T::Plus => Plus,
                T::Bang => Not,
                T::Tilde => BitNot,
                T::Amp => AddrOf,
                T::Star => Deref,
                _ => return None,
            })
        };
        if let Some(op) = un(self.peek()) {
            self.advance();
            let inner = self.nested(Self::parse_cast_expr)?;
            let span = start.merge(inner.span);
            return Ok(Expr::new(ExprKind::Unary(op, Box::new(inner)), span));
        }
        match self.peek() {
            TokenKind::PlusPlus => {
                self.advance();
                let inner = self.nested(Self::parse_unary_expr)?;
                let span = start.merge(inner.span);
                Ok(Expr::new(
                    ExprKind::Unary(UnOp::PreInc, Box::new(inner)),
                    span,
                ))
            }
            TokenKind::MinusMinus => {
                self.advance();
                let inner = self.nested(Self::parse_unary_expr)?;
                let span = start.merge(inner.span);
                Ok(Expr::new(
                    ExprKind::Unary(UnOp::PreDec, Box::new(inner)),
                    span,
                ))
            }
            TokenKind::KwSizeof => {
                self.advance();
                self.nested(|p| {
                    if p.lparen_starts_cast() {
                        p.advance(); // (
                        let ty = p.parse_type_name()?;
                        p.expect(TokenKind::RParen)?;
                        Ok(Expr::new(
                            ExprKind::SizeofType(Box::new(ty)),
                            start.merge(p.prev_span()),
                        ))
                    } else {
                        let inner = p.parse_unary_expr()?;
                        let span = start.merge(inner.span);
                        Ok(Expr::new(ExprKind::SizeofExpr(Box::new(inner)), span))
                    }
                })
            }
            _ => self.parse_postfix_expr(),
        }
    }

    fn parse_postfix_expr(&mut self) -> Result<Expr> {
        self.left_deep(Self::parse_postfix_chain)
    }

    fn parse_postfix_chain(&mut self) -> Result<Expr> {
        let mut e = self.parse_primary_expr()?;
        loop {
            match self.peek() {
                TokenKind::LParen => {
                    self.advance();
                    let args = self.nested(|p| {
                        let mut args = Vec::new();
                        if !p.check(TokenKind::RParen) {
                            loop {
                                args.push(p.parse_assignment_expr()?);
                                if !p.eat(TokenKind::Comma) {
                                    break;
                                }
                            }
                        }
                        Ok(args)
                    })?;
                    self.expect(TokenKind::RParen)?;
                    let span = e.span.merge(self.prev_span());
                    e = Expr::new(ExprKind::Call(Box::new(e), args), span);
                }
                TokenKind::LBracket => {
                    self.advance();
                    let idx = self.nested(Self::parse_expr)?;
                    self.expect(TokenKind::RBracket)?;
                    let span = e.span.merge(self.prev_span());
                    e = Expr::new(ExprKind::Index(Box::new(e), Box::new(idx)), span);
                }
                TokenKind::Dot => {
                    self.advance();
                    let (name, sp) = self.expect_ident()?;
                    let span = e.span.merge(sp);
                    e = Expr::new(ExprKind::Member(Box::new(e), name, false), span);
                }
                TokenKind::Arrow => {
                    self.advance();
                    let (name, sp) = self.expect_ident()?;
                    let span = e.span.merge(sp);
                    e = Expr::new(ExprKind::Member(Box::new(e), name, true), span);
                }
                TokenKind::PlusPlus => {
                    self.advance();
                    let span = e.span.merge(self.prev_span());
                    e = Expr::new(ExprKind::PostIncDec(Box::new(e), true), span);
                }
                TokenKind::MinusMinus => {
                    self.advance();
                    let span = e.span.merge(self.prev_span());
                    e = Expr::new(ExprKind::PostIncDec(Box::new(e), false), span);
                }
                _ => break,
            }
            self.grow()?;
        }
        Ok(e)
    }

    fn parse_primary_expr(&mut self) -> Result<Expr> {
        let span = self.peek_span();
        match self.peek() {
            TokenKind::IntLit(v) => {
                self.advance();
                Ok(Expr::new(ExprKind::IntLit(v), span))
            }
            TokenKind::FloatLit(v) => {
                self.advance();
                Ok(Expr::new(ExprKind::FloatLit(v), span))
            }
            TokenKind::CharLit(v) => {
                self.advance();
                Ok(Expr::new(ExprKind::CharLit(v), span))
            }
            TokenKind::StrLit(s) => {
                self.advance();
                Ok(Expr::new(ExprKind::StrLit(s), span))
            }
            TokenKind::Ident(name) => {
                self.advance();
                Ok(Expr::new(ExprKind::Ident(name), span))
            }
            TokenKind::LParen => {
                self.advance();
                let e = self.nested(Self::parse_expr)?;
                self.expect(TokenKind::RParen)?;
                Ok(e)
            }
            other => Err(self.error(format!(
                "expected expression, found {}",
                self.describe(other)
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::ast::*;
    use crate::parser::parse;

    /// Parses `src` as the body of a function and returns the first
    /// expression statement.
    fn expr(src: &str) -> Expr {
        expr_in(src).0
    }

    /// [`expr`] and the table its names index.
    fn expr_in(src: &str) -> (Expr, crate::Symbols) {
        let tu = parse(&format!(
            "typedef int T; struct S {{ int f; struct S *next; }}; \
             int x, y, *p; struct S s, *sp; int a[10]; int g(int); \
             void test(void) {{ {src}; }}"
        ))
        .unwrap();
        for d in &tu.decls {
            if let ExternalDecl::Function(f) = d {
                if tu.symbols.text(f.name) == "test" {
                    if let Stmt::Block(items) = &f.body {
                        for it in items {
                            if let BlockItem::Stmt(Stmt::Expr(Some(e))) = it {
                                return (e.clone(), tu.symbols.clone());
                            }
                        }
                    }
                }
            }
        }
        panic!("no expression found");
    }

    #[test]
    fn precedence() {
        // x = 1 + 2 * 3  parses as  x = (1 + (2 * 3))
        let e = expr("x = 1 + 2 * 3");
        match e.kind {
            ExprKind::Assign(AssignOp::Simple, _, rhs) => match rhs.kind {
                ExprKind::Binary(BinOp::Add, _, mul) => {
                    assert!(matches!(mul.kind, ExprKind::Binary(BinOp::Mul, _, _)));
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn assignment_is_right_associative() {
        let e = expr("x = y = 1");
        match e.kind {
            ExprKind::Assign(_, _, rhs) => {
                assert!(matches!(rhs.kind, ExprKind::Assign(_, _, _)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn casts_vs_parenthesized_expr() {
        let e = expr("x = (T)y");
        match e.kind {
            ExprKind::Assign(_, _, rhs) => {
                assert!(matches!(rhs.kind, ExprKind::Cast(_, _)));
            }
            other => panic!("{other:?}"),
        }
        let e = expr("x = (y)");
        match e.kind {
            ExprKind::Assign(_, _, rhs) => {
                assert!(matches!(rhs.kind, ExprKind::Ident(_)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn cast_of_cast_and_deref() {
        let e = expr("x = *(int *)(char *)p");
        match e.kind {
            ExprKind::Assign(_, _, rhs) => match rhs.kind {
                ExprKind::Unary(UnOp::Deref, inner) => {
                    assert!(matches!(inner.kind, ExprKind::Cast(_, _)));
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn member_chains() {
        let (e, syms) = expr_in("x = sp->next->f");
        match e.kind {
            ExprKind::Assign(_, _, rhs) => match rhs.kind {
                ExprKind::Member(obj, f, arrow) => {
                    assert_eq!(syms.text(f), "f");
                    assert!(arrow);
                    assert!(matches!(obj.kind, ExprKind::Member(_, _, true)));
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn address_of_field() {
        let e = expr("p = &s.f");
        match e.kind {
            ExprKind::Assign(_, _, rhs) => match rhs.kind {
                ExprKind::Unary(UnOp::AddrOf, inner) => {
                    assert!(matches!(inner.kind, ExprKind::Member(_, _, false)));
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sizeof_forms() {
        assert!(matches!(
            expr("x = sizeof(struct S)").kind,
            ExprKind::Assign(_, _, _)
        ));
        let e = expr("x = sizeof x");
        match e.kind {
            ExprKind::Assign(_, _, rhs) => {
                assert!(matches!(rhs.kind, ExprKind::SizeofExpr(_)));
            }
            _ => panic!(),
        }
        let e = expr("x = sizeof(x)");
        match e.kind {
            ExprKind::Assign(_, _, rhs) => {
                // (x) is an expression, not a type
                assert!(matches!(rhs.kind, ExprKind::SizeofExpr(_)));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn calls_and_indexing() {
        let e = expr("x = g(a[2])");
        match e.kind {
            ExprKind::Assign(_, _, rhs) => match rhs.kind {
                ExprKind::Call(f, args) => {
                    assert!(matches!(f.kind, ExprKind::Ident(_)));
                    assert_eq!(args.len(), 1);
                    assert!(matches!(args[0].kind, ExprKind::Index(_, _)));
                }
                other => panic!("{other:?}"),
            },
            _ => panic!(),
        }
    }

    #[test]
    fn conditional_and_comma() {
        let e = expr("x = y ? 1 : 2");
        match e.kind {
            ExprKind::Assign(_, _, rhs) => assert!(matches!(rhs.kind, ExprKind::Cond(_, _, _))),
            _ => panic!(),
        }
        let e = expr("x = 1, y = 2");
        assert!(matches!(e.kind, ExprKind::Comma(_, _)));
    }

    #[test]
    fn unary_chain() {
        let e = expr("x = -~!*p");
        match e.kind {
            ExprKind::Assign(_, _, rhs) => {
                assert!(matches!(rhs.kind, ExprKind::Unary(UnOp::Neg, _)));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn pre_and_post_incdec() {
        assert!(matches!(
            expr("++x").kind,
            ExprKind::Unary(UnOp::PreInc, _)
        ));
        assert!(matches!(expr("x++").kind, ExprKind::PostIncDec(_, true)));
        assert!(matches!(expr("x--").kind, ExprKind::PostIncDec(_, false)));
    }

    #[test]
    fn ampersand_binary_vs_unary() {
        let e = expr("x = x & y");
        match e.kind {
            ExprKind::Assign(_, _, rhs) => {
                assert!(matches!(rhs.kind, ExprKind::Binary(BinOp::BitAnd, _, _)));
            }
            _ => panic!(),
        }
    }
}
