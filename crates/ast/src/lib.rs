//! # structcast-ast
//!
//! Lexer, parser, and abstract syntax tree for the C subset analyzed by the
//! [structcast](https://example.org/structcast) pointer-analysis framework —
//! a reproduction of *"Pointer Analysis for Programs with Structures and
//! Casting"* (Yong, Horwitz & Reps, PLDI 1999).
//!
//! This crate replaces the SUIF front end the paper's implementation used.
//! It understands a substantial C89 subset: struct/union/enum declarations,
//! typedefs, pointers, arrays, function pointers, casts, initializers, and
//! the full statement grammar. Preprocessor lines are skipped (sources are
//! expected to be self-contained or paired with a prelude of extern
//! declarations; see `structcast-ir`).
//!
//! Names are interned: the lexer stores each distinct identifier and
//! string literal once in the unit's [`Symbols`], and tokens and AST nodes
//! carry a [`Sym`] index into it (so a [`Token`] is `Copy`). Read a name's
//! text with `tu.symbols.text(sym)`; index per-name tables by symbol, as
//! [`Scopes`] does for block-scoped namespaces.
//!
//! ## Quickstart
//!
//! ```
//! use structcast_ast::{parse, ExternalDecl};
//!
//! let tu = parse(r#"
//!     struct S { int *s1; int *s2; } s;
//!     int x, y, *p;
//!     void main(void) {
//!         s.s1 = &x;
//!         s.s2 = &y;
//!         p = s.s1;
//!     }
//! "#)?;
//! assert_eq!(tu.decls.len(), 3);
//! let ExternalDecl::Function(f) = &tu.decls[2] else { unreachable!() };
//! assert_eq!(tu.symbols.text(f.name), "main");
//! # Ok::<(), structcast_ast::ParseError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod ast;
mod error;
mod lexer;
mod parser;
mod preprocess;
mod pretty;
mod scope;
mod span;
mod symbol;
mod token;

pub use ast::{
    AssignOp, AstType, BinOp, BlockItem, Declaration, EnumSpec, Expr, ExprKind, ExternalDecl,
    FieldDecl, ForInit, FunctionDef, InitDeclarator, Initializer, ParamDecl, RecordSpec, Stmt,
    Storage, TranslationUnit, TypeSpec, UnOp,
};
pub use error::{ParseError, Result};
pub use lexer::Lexer;
pub use parser::{parse, Parser, MAX_NESTING};
pub use preprocess::{preprocess, IncludeResolver};
pub use pretty::{print_expr, print_translation_unit, print_type};
pub use scope::Scopes;
pub use span::Span;
pub use symbol::{Sym, Symbols};
pub use token::{Token, TokenKind};
