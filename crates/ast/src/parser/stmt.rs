//! Statement parsing.

use super::Parser;
use crate::ast::*;
use crate::error::Result;
use crate::token::TokenKind;

impl Parser {
    /// Parses a `{ ... }` block (current token must be `{`).
    pub(crate) fn parse_block(&mut self) -> Result<Stmt> {
        self.expect(TokenKind::LBrace)?;
        self.push_scope();
        let mut items = Vec::new();
        while !self.check(TokenKind::RBrace) && !self.check(TokenKind::Eof) {
            if self.starts_declaration() {
                items.push(BlockItem::Decl(self.parse_local_declaration()?));
            } else {
                items.push(BlockItem::Stmt(self.parse_stmt()?));
            }
        }
        self.expect(TokenKind::RBrace)?;
        self.pop_scope();
        Ok(Stmt::Block(items))
    }

    fn parse_local_declaration(&mut self) -> Result<Declaration> {
        let start = self.peek_span();
        let (storage, base) = self.parse_decl_specifiers()?;
        if self.check(TokenKind::Semi) {
            self.advance();
            return Ok(Declaration {
                storage,
                base,
                items: vec![],
                span: start.merge(self.prev_span()),
            });
        }
        let (name, ty, span) = self.parse_named_declarator(base.clone())?;
        self.finish_declaration(storage, base, name, ty, span, start)
    }

    /// Parses one statement, one nesting level below its parent.
    pub(crate) fn parse_stmt(&mut self) -> Result<Stmt> {
        self.nested(Self::parse_stmt_here)
    }

    /// Dispatches on the first token. Each compound form has its own
    /// out-of-line function: every nesting level pays this frame, and
    /// inlining all forms' temporaries into it made it ~4 KiB.
    fn parse_stmt_here(&mut self) -> Result<Stmt> {
        use TokenKind as T;
        match self.peek() {
            T::LBrace => self.parse_block(),
            T::KwIf => self.parse_if(),
            T::KwWhile | T::KwSwitch => self.parse_while_or_switch(),
            T::KwDo => self.parse_do(),
            T::KwFor => self.parse_for(),
            T::KwCase | T::KwDefault => self.parse_case(),
            // Label: `ident :` (but not `ident ::` etc.)
            T::Ident(_) if self.peek_nth(1) == T::Colon => self.parse_labeled(),
            _ => self.parse_simple_stmt(),
        }
    }

    #[inline(never)]
    fn parse_if(&mut self) -> Result<Stmt> {
        use TokenKind as T;
        self.advance();
        self.expect(T::LParen)?;
        let cond = self.parse_expr()?;
        self.expect(T::RParen)?;
        let then = Box::new(self.parse_stmt()?);
        let els = if self.eat(T::KwElse) {
            Some(Box::new(self.parse_stmt()?))
        } else {
            None
        };
        Ok(Stmt::If { cond, then, els })
    }

    #[inline(never)]
    fn parse_while_or_switch(&mut self) -> Result<Stmt> {
        use TokenKind as T;
        let is_while = self.advance().kind == T::KwWhile;
        self.expect(T::LParen)?;
        let cond = self.parse_expr()?;
        self.expect(T::RParen)?;
        let body = Box::new(self.parse_stmt()?);
        Ok(if is_while {
            Stmt::While { cond, body }
        } else {
            Stmt::Switch { cond, body }
        })
    }

    #[inline(never)]
    fn parse_do(&mut self) -> Result<Stmt> {
        use TokenKind as T;
        self.advance();
        let body = Box::new(self.parse_stmt()?);
        self.expect(T::KwWhile)?;
        self.expect(T::LParen)?;
        let cond = self.parse_expr()?;
        self.expect(T::RParen)?;
        self.expect(T::Semi)?;
        Ok(Stmt::DoWhile { body, cond })
    }

    #[inline(never)]
    fn parse_for(&mut self) -> Result<Stmt> {
        use TokenKind as T;
        self.advance();
        self.expect(T::LParen)?;
        self.push_scope();
        let init = if self.check(T::Semi) {
            self.advance();
            None
        } else if self.starts_declaration() {
            Some(ForInit::Decl(Box::new(self.parse_local_declaration()?)))
        } else {
            let e = self.parse_expr()?;
            self.expect(T::Semi)?;
            Some(ForInit::Expr(e))
        };
        let cond = if self.check(T::Semi) {
            None
        } else {
            Some(self.parse_expr()?)
        };
        self.expect(T::Semi)?;
        let step = if self.check(T::RParen) {
            None
        } else {
            Some(self.parse_expr()?)
        };
        self.expect(T::RParen)?;
        let body = Box::new(self.parse_stmt()?);
        self.pop_scope();
        Ok(Stmt::For {
            init,
            cond,
            step,
            body,
        })
    }

    #[inline(never)]
    fn parse_case(&mut self) -> Result<Stmt> {
        use TokenKind as T;
        if self.advance().kind == T::KwDefault {
            self.expect(T::Colon)?;
            return Ok(Stmt::Default(Box::new(self.parse_stmt()?)));
        }
        let val = self.parse_conditional_expr()?;
        self.expect(T::Colon)?;
        let inner = Box::new(self.parse_stmt()?);
        Ok(Stmt::Case(val, inner))
    }

    #[inline(never)]
    fn parse_labeled(&mut self) -> Result<Stmt> {
        let (name, _) = self.expect_ident()?;
        self.advance(); // :
        let inner = Box::new(self.parse_stmt()?);
        Ok(Stmt::Labeled(name, inner))
    }

    /// The forms that hold no statement: `;`, jumps and expressions.
    #[inline(never)]
    fn parse_simple_stmt(&mut self) -> Result<Stmt> {
        use TokenKind as T;
        let stmt = match self.peek() {
            T::Semi => Stmt::Expr(None),
            T::KwReturn => {
                self.advance();
                if self.check(T::Semi) {
                    Stmt::Return(None)
                } else {
                    Stmt::Return(Some(self.parse_expr()?))
                }
            }
            T::KwBreak => {
                self.advance();
                Stmt::Break
            }
            T::KwContinue => {
                self.advance();
                Stmt::Continue
            }
            T::KwGoto => {
                self.advance();
                Stmt::Goto(self.expect_ident()?.0)
            }
            _ => Stmt::Expr(Some(self.parse_expr()?)),
        };
        self.expect(T::Semi)?;
        Ok(stmt)
    }
}

#[cfg(test)]
mod tests {
    use crate::ast::*;
    use crate::parser::parse;

    fn body(src: &str) -> Vec<BlockItem> {
        let tu = parse(&format!("int x, y; void f(void) {{ {src} }}")).unwrap();
        for d in &tu.decls {
            if let ExternalDecl::Function(f) = d {
                if let Stmt::Block(items) = &f.body {
                    return items.clone();
                }
            }
        }
        panic!("no body");
    }

    #[test]
    fn if_else_chain() {
        let items = body("if (x) y = 1; else if (y) x = 2; else x = 3;");
        assert_eq!(items.len(), 1);
        match &items[0] {
            BlockItem::Stmt(Stmt::If { els, .. }) => {
                assert!(matches!(els.as_deref(), Some(Stmt::If { .. })));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn loops() {
        let items = body(
            "while (x) x = x - 1; \
             do y = y + 1; while (y < 10); \
             for (x = 0; x < 3; x++) y = y + x; \
             for (;;) break;",
        );
        assert_eq!(items.len(), 4);
        assert!(matches!(items[0], BlockItem::Stmt(Stmt::While { .. })));
        assert!(matches!(items[1], BlockItem::Stmt(Stmt::DoWhile { .. })));
        assert!(matches!(items[2], BlockItem::Stmt(Stmt::For { .. })));
        if let BlockItem::Stmt(Stmt::For { init, cond, step, .. }) = &items[3] {
            assert!(init.is_none() && cond.is_none() && step.is_none());
        } else {
            panic!();
        }
    }

    #[test]
    fn for_with_declaration() {
        let items = body("for (int i = 0; i < 3; i++) x = i;");
        match &items[0] {
            BlockItem::Stmt(Stmt::For { init, .. }) => {
                assert!(matches!(init, Some(ForInit::Decl(_))));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn switch_cases() {
        let items = body(
            "switch (x) { case 1: y = 1; break; case 2: case 3: y = 2; break; default: y = 0; }",
        );
        assert!(matches!(items[0], BlockItem::Stmt(Stmt::Switch { .. })));
    }

    #[test]
    fn goto_and_labels() {
        let tu = parse("int x; void f(void) { again: x = x + 1; if (x < 3) goto again; }").unwrap();
        let again = tu.symbols.get("again");
        let ExternalDecl::Function(f) = &tu.decls[1] else {
            panic!("expected function")
        };
        let Stmt::Block(items) = &f.body else {
            panic!("expected block")
        };
        assert!(matches!(
            items[0],
            BlockItem::Stmt(Stmt::Labeled(l, _)) if Some(l) == again
        ));
    }

    #[test]
    fn return_forms() {
        let items = body("if (x) return; return;");
        assert_eq!(items.len(), 2);
        let tu = parse("int f(void) { return 3; }").unwrap();
        if let ExternalDecl::Function(f) = &tu.decls[0] {
            if let Stmt::Block(items) = &f.body {
                assert!(matches!(items[0], BlockItem::Stmt(Stmt::Return(Some(_)))));
            }
        }
    }

    #[test]
    fn local_declarations_with_inits() {
        let items = body("int a = 1, *b = &a; a = *b;");
        assert!(matches!(items[0], BlockItem::Decl(ref d) if d.items.len() == 2));
    }

    #[test]
    fn nested_blocks_scope() {
        // Inner T shadows outer typedef only within its block.
        let src = "typedef int T; void f(void) { { int T; T = 1; } T q; q = 2; }";
        parse(src).unwrap();
    }
}
