//! Recursive-descent parser for the supported C subset.
//!
//! The parser keeps a scope table of names, indexed by symbol, so that
//! typedef names can be distinguished from ordinary identifiers (the
//! classic "lexer hack", done in the parser). Declarations are parsed with
//! the standard inside-out declarator algorithm, so `int (*f[3])(void)` and
//! friends work.

mod decl;
mod expr;
mod stmt;

use crate::ast::*;
use crate::error::{ParseError, Result};
use crate::lexer::Lexer;
use crate::scope::Scopes;
use crate::span::Span;
use crate::symbol::{Sym, Symbols};
use crate::token::{Token, TokenKind};

/// Deepest nesting the parser accepts. A level is one AST node that
/// parsing, lowering or `Drop` recurses through — a parenthesis, an
/// operator, a statement, a declarator or an initializer brace. Deeper
/// input is a [`ParseError`] at the token that crossed the budget, never
/// a stack overflow.
///
/// Sized by measurement (`tests/nesting_budget.rs`): the costliest shape,
/// nested parentheses at ~2.5 KiB of parser stack per level in a release
/// build, reaches ~800 levels on a server worker's 2 MiB stack, so 128
/// levels leave a margin above 6×.
pub const MAX_NESTING: usize = 128;

/// Parses a complete translation unit from C source text.
///
/// This is the main entry point of the crate.
///
/// # Errors
///
/// Returns the first lexing or parsing error encountered.
///
/// # Examples
///
/// ```
/// let tu = structcast_ast::parse("struct S { int *p; } s; int x;")?;
/// assert_eq!(tu.decls.len(), 2);
/// # Ok::<(), structcast_ast::ParseError>(())
/// ```
pub fn parse(src: &str) -> Result<TranslationUnit> {
    Lexer::new(src)
        .lex()
        .and_then(|(tokens, symbols)| Parser::new(tokens, symbols).parse_translation_unit())
        .map_err(|e| e.locate(src))
}

/// The parser state.
#[derive(Debug)]
pub struct Parser {
    toks: Vec<Token>,
    pos: usize,
    /// The text of the tokens' names, moved into the parsed unit.
    symbols: Symbols,
    /// Whether each declared name in scope is a typedef name.
    typedefs: Scopes<bool>,
    /// Nesting levels open above the node being parsed.
    depth: usize,
    /// Deepest level a node of the current left-deep tree reaches.
    reach: usize,
}

impl Parser {
    /// Creates a parser over a pre-lexed token stream (must end with Eof)
    /// and the symbols its names index (see [`Lexer::lex`]).
    pub fn new(toks: Vec<Token>, symbols: Symbols) -> Self {
        Parser {
            toks,
            pos: 0,
            typedefs: Scopes::with_symbols(symbols.len()),
            symbols,
            depth: 0,
            reach: 0,
        }
    }

    /// Parses the whole token stream as a translation unit.
    ///
    /// # Errors
    ///
    /// Returns the first parse error encountered.
    pub fn parse_translation_unit(mut self) -> Result<TranslationUnit> {
        let mut decls = Vec::new();
        while !self.check(TokenKind::Eof) {
            // Tolerate stray semicolons at top level.
            if self.eat(TokenKind::Semi) {
                continue;
            }
            decls.push(self.parse_external_decl()?);
        }
        Ok(TranslationUnit {
            decls,
            symbols: self.symbols,
        })
    }

    // ----- token helpers -----

    pub(crate) fn peek(&self) -> TokenKind {
        self.toks[self.pos.min(self.toks.len() - 1)].kind
    }

    pub(crate) fn peek_nth(&self, n: usize) -> TokenKind {
        self.toks[(self.pos + n).min(self.toks.len() - 1)].kind
    }

    pub(crate) fn peek_span(&self) -> Span {
        self.toks[self.pos.min(self.toks.len() - 1)].span
    }

    pub(crate) fn prev_span(&self) -> Span {
        self.toks[self.pos.saturating_sub(1).min(self.toks.len() - 1)].span
    }

    pub(crate) fn advance(&mut self) -> Token {
        let t = self.toks[self.pos.min(self.toks.len() - 1)];
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    pub(crate) fn check(&self, kind: TokenKind) -> bool {
        self.peek() == kind
    }

    pub(crate) fn eat(&mut self, kind: TokenKind) -> bool {
        if self.check(kind) {
            self.advance();
            true
        } else {
            false
        }
    }

    pub(crate) fn expect(&mut self, kind: TokenKind) -> Result<Token> {
        if self.check(kind) {
            Ok(self.advance())
        } else {
            Err(self.error(format!(
                "expected {}, found {}",
                self.describe(kind),
                self.describe(self.peek())
            )))
        }
    }

    pub(crate) fn expect_ident(&mut self) -> Result<(Sym, Span)> {
        match self.peek() {
            TokenKind::Ident(name) => Ok((name, self.advance().span)),
            other => Err(self.error(format!(
                "expected identifier, found {}",
                self.describe(other)
            ))),
        }
    }

    /// `kind` as error messages name it.
    pub(crate) fn describe(&self, kind: TokenKind) -> String {
        kind.describe(&self.symbols)
    }

    pub(crate) fn error(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(msg, self.peek_span())
    }

    // ----- nesting budget -----

    /// Parses `f` one nesting level below the current one. Every recursive
    /// production goes through here, which bounds the recursion of the
    /// parser, and of lowering and `Drop` after it, by [`MAX_NESTING`].
    pub(crate) fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        self.depth += 1;
        let r = self.reach_level(self.depth).and_then(|()| f(self));
        self.depth -= 1;
        r
    }

    /// Runs `f`, a loop that builds a left-deep tree (`a + b + c`,
    /// `p->f->g`, `a[1][2]`) without recursing: while it runs, `reach`
    /// tracks that tree alone, and each [`grow`](Parser::grow) wraps the
    /// tree in one more node.
    pub(crate) fn left_deep<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        let outer = std::mem::replace(&mut self.reach, self.depth);
        let r = f(self);
        self.reach = self.reach.max(outer);
        r
    }

    /// Wraps the current left-deep tree in one more node.
    pub(crate) fn grow(&mut self) -> Result<()> {
        self.reach_level(self.reach + 1)
    }

    fn reach_level(&mut self, level: usize) -> Result<()> {
        if level > MAX_NESTING {
            return Err(self.error(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.reach = self.reach.max(level);
        Ok(())
    }

    // ----- scopes / typedef tracking -----

    pub(crate) fn push_scope(&mut self) {
        self.typedefs.push();
    }

    pub(crate) fn pop_scope(&mut self) {
        self.typedefs.pop();
    }

    pub(crate) fn declare_name(&mut self, name: Sym, is_typedef: bool) {
        self.typedefs.bind(name, is_typedef);
    }

    /// True if `name` currently resolves to a typedef name.
    pub(crate) fn is_typedef_name(&self, name: Sym) -> bool {
        self.typedefs.get(name) == Some(true)
    }

    /// True if the current token can begin a declaration.
    pub(crate) fn starts_declaration(&self) -> bool {
        match self.peek() {
            k if k.is_decl_spec_keyword() => true,
            TokenKind::Ident(name) => {
                // A typedef name starts a declaration only if what follows
                // looks like a declarator, not an expression (e.g. `T x;` vs
                // `T = 3;` where a variable shadows a typedef is handled by
                // the scope lookup itself).
                self.is_typedef_name(name)
            }
            _ => false,
        }
    }

    fn parse_external_decl(&mut self) -> Result<ExternalDecl> {
        let start_span = self.peek_span();
        let (storage, base) = self.parse_decl_specifiers()?;

        // Tag-only declaration: `struct S { ... };`
        if self.check(TokenKind::Semi) {
            self.advance();
            return Ok(ExternalDecl::Declaration(Declaration {
                storage,
                base,
                items: vec![],
                span: start_span.merge(self.prev_span()),
            }));
        }

        let (name, ty, name_span) = self.parse_named_declarator(base.clone())?;

        if ty.is_function() && self.check(TokenKind::LBrace) {
            // Function definition.
            self.declare_name(name, false);
            self.push_scope();
            if let AstType::Function { ref params, .. } = ty {
                for p in params {
                    if let Some(n) = p.name {
                        self.declare_name(n, false);
                    }
                }
            }
            let body = self.parse_block()?;
            self.pop_scope();
            return Ok(ExternalDecl::Function(Box::new(FunctionDef {
                name,
                ty,
                storage,
                body,
                span: name_span,
            })));
        }

        // Ordinary declaration list.
        let decl = self.finish_declaration(storage, base, name, ty, name_span, start_span)?;
        Ok(ExternalDecl::Declaration(decl))
    }

    /// Parses the init-declarator tail (`= init`, `, more`, `;`) after the
    /// first declarator has already been read.
    pub(crate) fn finish_declaration(
        &mut self,
        storage: Storage,
        base: AstType,
        first_name: Sym,
        first_ty: AstType,
        first_span: Span,
        start_span: Span,
    ) -> Result<Declaration> {
        let mut items = Vec::new();
        let is_typedef = storage == Storage::Typedef;
        self.declare_name(first_name, is_typedef);
        let init = if self.eat(TokenKind::Assign) {
            Some(self.parse_initializer()?)
        } else {
            None
        };
        items.push(InitDeclarator {
            name: first_name,
            ty: first_ty,
            init,
            span: first_span,
        });
        while self.eat(TokenKind::Comma) {
            let (name, ty, span) = self.parse_named_declarator(base.clone())?;
            self.declare_name(name, is_typedef);
            let init = if self.eat(TokenKind::Assign) {
                Some(self.parse_initializer()?)
            } else {
                None
            };
            items.push(InitDeclarator { name, ty, init, span });
        }
        self.expect(TokenKind::Semi)?;
        Ok(Declaration {
            storage,
            base,
            items,
            span: start_span.merge(self.prev_span()),
        })
    }

    pub(crate) fn parse_initializer(&mut self) -> Result<Initializer> {
        if self.eat(TokenKind::LBrace) {
            let mut elems = Vec::new();
            if !self.check(TokenKind::RBrace) {
                loop {
                    elems.push(self.nested(Self::parse_initializer)?);
                    if !self.eat(TokenKind::Comma) {
                        break;
                    }
                    if self.check(TokenKind::RBrace) {
                        break; // trailing comma
                    }
                }
            }
            self.expect(TokenKind::RBrace)?;
            Ok(Initializer::List(elems))
        } else {
            Ok(Initializer::Expr(self.parse_assignment_expr()?))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_translation_unit() {
        let tu = parse("").unwrap();
        assert!(tu.decls.is_empty());
        let tu = parse(";;;").unwrap();
        assert!(tu.decls.is_empty());
    }

    #[test]
    fn global_and_function() {
        let tu = parse("int g; void f(void) { g = 1; }").unwrap();
        assert_eq!(tu.decls.len(), 2);
        assert!(matches!(tu.decls[0], ExternalDecl::Declaration(_)));
        assert!(matches!(tu.decls[1], ExternalDecl::Function(_)));
    }

    #[test]
    fn typedef_names_parse_as_types() {
        let tu = parse("typedef int myint; myint x; myint *p;").unwrap();
        assert_eq!(tu.decls.len(), 3);
        if let ExternalDecl::Declaration(d) = &tu.decls[2] {
            assert!(matches!(d.items[0].ty, AstType::Pointer(_)));
        } else {
            panic!("expected declaration");
        }
    }

    #[test]
    fn typedef_shadowed_by_variable() {
        // Inside f, `T` is an int variable, so `T * x` is a multiplication.
        let src = "typedef int T; int x; void f(void) { int T; T = 3; x = T * x; }";
        parse(src).unwrap();
    }

    #[test]
    fn function_pointer_declarator() {
        let tu = parse("int (*handler)(int, char *);").unwrap();
        if let ExternalDecl::Declaration(d) = &tu.decls[0] {
            match &d.items[0].ty {
                AstType::Pointer(inner) => assert!(inner.is_function()),
                other => panic!("expected pointer to function, got {other:?}"),
            }
        } else {
            panic!()
        }
    }

    #[test]
    fn array_of_pointers_vs_pointer_to_array() {
        let tu = parse("int *a[3]; int (*b)[3];").unwrap();
        let tys: Vec<_> = tu
            .decls
            .iter()
            .map(|d| match d {
                ExternalDecl::Declaration(d) => d.items[0].ty.clone(),
                _ => panic!(),
            })
            .collect();
        assert!(matches!(tys[0], AstType::Array(_, _)));
        if let AstType::Array(inner, _) = &tys[0] {
            assert!(matches!(**inner, AstType::Pointer(_)));
        }
        assert!(matches!(tys[1], AstType::Pointer(_)));
        if let AstType::Pointer(inner) = &tys[1] {
            assert!(matches!(**inner, AstType::Array(_, _)));
        }
    }

    #[test]
    fn nesting_past_the_budget_is_a_typed_error() {
        // Parenthesis 128 opens level 129: the error names its column.
        let src = format!(
            "int x, *p;\nvoid f(void) {{ p = {}&x; }}",
            "(".repeat(200_000)
        );
        let err = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || parse(&src).unwrap_err())
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(
            err.to_string(),
            format!("nesting deeper than {MAX_NESTING} levels at line 2, column 147")
        );
        assert!(parse(&format!("int {}p;", "*".repeat(MAX_NESTING))).is_ok());
        assert!(parse(&format!("int {}p;", "*".repeat(MAX_NESTING + 1))).is_err());
    }

    #[test]
    fn error_reports_expected_token() {
        let err = parse("int x").unwrap_err();
        assert!(err.message().contains("expected"), "{err}");
    }
}
