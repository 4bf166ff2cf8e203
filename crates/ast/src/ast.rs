//! Abstract syntax tree for the supported C subset.
//!
//! The AST is deliberately *syntactic*: types are represented as written
//! ([`AstType`]), with typedefs unresolved and struct bodies attached where
//! they appeared. Semantic types are built by the `structcast-ir` crate.
//! Names and string literals are [`Sym`]s; their text is in the unit's
//! [`Symbols`].

use crate::span::Span;
use crate::symbol::{Sym, Symbols};
use std::fmt;

/// A whole translation unit (one `.c` file after lexing/parsing).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TranslationUnit {
    /// Top-level declarations and function definitions, in source order.
    pub decls: Vec<ExternalDecl>,
    /// The text of every name and string literal the declarations hold.
    pub symbols: Symbols,
}

/// A top-level item.
#[derive(Debug, Clone, PartialEq)]
pub enum ExternalDecl {
    /// A function definition with a body (boxed: far larger than the other
    /// variant).
    Function(Box<FunctionDef>),
    /// Any other declaration: globals, prototypes, typedefs, tag declarations.
    Declaration(Declaration),
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionDef {
    /// Function name.
    pub name: Sym,
    /// The function's type; always [`AstType::Function`].
    pub ty: AstType,
    /// Storage class as written (`static`, `extern`, or none).
    pub storage: Storage,
    /// The body block.
    pub body: Stmt,
    /// Span of the function name.
    pub span: Span,
}

/// Storage-class specifiers (qualifiers we track; the rest are dropped).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Storage {
    /// No storage class written.
    #[default]
    None,
    /// `static`
    Static,
    /// `extern`
    Extern,
    /// `typedef` — the declared names are type aliases.
    Typedef,
    /// `auto` or `register` (treated identically).
    Auto,
}

/// A declaration: one specifier group with zero or more declarators.
#[derive(Debug, Clone, PartialEq)]
pub struct Declaration {
    /// Storage class.
    pub storage: Storage,
    /// The base type shared by all declarators (with struct/enum bodies).
    pub base: AstType,
    /// The declared names, each with its full derived type and initializer.
    pub items: Vec<InitDeclarator>,
    /// Span of the whole declaration.
    pub span: Span,
}

/// One declared name inside a [`Declaration`].
#[derive(Debug, Clone, PartialEq)]
pub struct InitDeclarator {
    /// The declared identifier.
    pub name: Sym,
    /// Its complete type (base type transformed by the declarator).
    pub ty: AstType,
    /// Optional initializer.
    pub init: Option<Initializer>,
    /// Span of the name.
    pub span: Span,
}

/// An initializer: a single expression or a brace-enclosed list.
#[derive(Debug, Clone, PartialEq)]
pub enum Initializer {
    /// `= expr`
    Expr(Expr),
    /// `= { a, b, ... }` (possibly nested)
    List(Vec<Initializer>),
}

/// A syntactic type, as written in the source.
#[derive(Debug, Clone, PartialEq)]
pub enum AstType {
    /// A base type: builtin, struct/union/enum, or typedef name.
    Base(TypeSpec),
    /// `T *` (qualifiers on the pointer are dropped).
    Pointer(Box<AstType>),
    /// `T [n]`; `None` means unsized (`T []`).
    Array(Box<AstType>, Option<Box<Expr>>),
    /// A function type.
    Function {
        /// Return type.
        ret: Box<AstType>,
        /// Parameters, in order.
        params: Vec<ParamDecl>,
        /// Whether the parameter list ends in `...`.
        variadic: bool,
    },
}

impl AstType {
    /// Convenience: pointer to `self`.
    pub fn ptr(self) -> AstType {
        AstType::Pointer(Box::new(self))
    }

    /// True if this is syntactically a function type.
    pub fn is_function(&self) -> bool {
        matches!(self, AstType::Function { .. })
    }
}

/// A parameter in a function declarator.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamDecl {
    /// Parameter name; `None` in prototypes like `int f(int, char *)`.
    pub name: Option<Sym>,
    /// Parameter type.
    pub ty: AstType,
    /// Span of the parameter.
    pub span: Span,
}

/// Base type specifiers.
#[derive(Debug, Clone, PartialEq)]
pub enum TypeSpec {
    /// `void`
    Void,
    /// Plain `char` (treated as signed).
    Char,
    /// `signed char`
    SChar,
    /// `unsigned char`
    UChar,
    /// `short` / `signed short`
    Short,
    /// `unsigned short`
    UShort,
    /// `int` / `signed`
    Int,
    /// `unsigned` / `unsigned int`
    UInt,
    /// `long`
    Long,
    /// `unsigned long`
    ULong,
    /// `long long`
    LongLong,
    /// `unsigned long long`
    ULongLong,
    /// `float`
    Float,
    /// `double`
    Double,
    /// `long double`
    LongDouble,
    /// A struct type reference or definition.
    Struct(RecordSpec),
    /// A union type reference or definition.
    Union(RecordSpec),
    /// An enum type reference or definition.
    Enum(EnumSpec),
    /// A typedef name (resolved during lowering).
    Typedef(Sym),
}

/// A struct or union specifier: `struct tag { ... }`, `struct tag`, or an
/// anonymous definition `struct { ... }`.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordSpec {
    /// The tag, if named.
    pub tag: Option<Sym>,
    /// Field declarations if a body was written; `None` for a bare reference.
    pub fields: Option<Vec<FieldDecl>>,
    /// Span of the specifier.
    pub span: Span,
}

/// One field inside a struct/union body.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldDecl {
    /// Field name. Anonymous bit-field padding gets `None`.
    pub name: Option<Sym>,
    /// Field type.
    pub ty: AstType,
    /// Bit-field width, if written. **Parsed but ignored by the analysis**
    /// (fields are treated as full objects of their declared type).
    pub bit_width: Option<Expr>,
    /// Span of the field.
    pub span: Span,
}

/// An enum specifier.
#[derive(Debug, Clone, PartialEq)]
pub struct EnumSpec {
    /// The tag, if named.
    pub tag: Option<Sym>,
    /// Enumerators (name, optional explicit value) if a body was written.
    pub items: Option<Vec<(Sym, Option<Expr>)>>,
    /// Span of the specifier.
    pub span: Span,
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `expr;` or `;` (None).
    Expr(Option<Expr>),
    /// `{ ... }`
    Block(Vec<BlockItem>),
    /// `if (cond) then else els`
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then: Box<Stmt>,
        /// Else branch, if any.
        els: Option<Box<Stmt>>,
    },
    /// `while (cond) body`
    While {
        /// Condition.
        cond: Expr,
        /// Loop body.
        body: Box<Stmt>,
    },
    /// `do body while (cond);`
    DoWhile {
        /// Loop body.
        body: Box<Stmt>,
        /// Condition.
        cond: Expr,
    },
    /// `for (init; cond; step) body`
    For {
        /// Initializer clause.
        init: Option<ForInit>,
        /// Condition clause.
        cond: Option<Expr>,
        /// Step clause.
        step: Option<Expr>,
        /// Loop body.
        body: Box<Stmt>,
    },
    /// `switch (cond) body`
    Switch {
        /// Scrutinee.
        cond: Expr,
        /// Body (cases appear as labeled statements inside).
        body: Box<Stmt>,
    },
    /// `case expr: stmt`
    Case(Expr, Box<Stmt>),
    /// `default: stmt`
    Default(Box<Stmt>),
    /// `return expr;`
    Return(Option<Expr>),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// `goto label;`
    Goto(Sym),
    /// `label: stmt`
    Labeled(Sym, Box<Stmt>),
}

/// An item inside a block: a local declaration or a statement.
#[derive(Debug, Clone, PartialEq)]
pub enum BlockItem {
    /// Local declaration.
    Decl(Declaration),
    /// Statement.
    Stmt(Stmt),
}

/// The first clause of a `for` statement.
#[derive(Debug, Clone, PartialEq)]
pub enum ForInit {
    /// A declaration (C99-style `for (int i = 0; ...)`, accepted), boxed
    /// so that it does not widen every [`Stmt`].
    Decl(Box<Declaration>),
    /// An expression.
    Expr(Expr),
}

/// An expression node: kind plus source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// What kind of expression.
    pub kind: ExprKind,
    /// Source location.
    pub span: Span,
}

impl Expr {
    /// Creates an expression node.
    pub fn new(kind: ExprKind, span: Span) -> Self {
        Expr { kind, span }
    }
}

/// Expression kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Integer constant.
    IntLit(i64),
    /// Floating constant.
    FloatLit(f64),
    /// Character constant (numeric value).
    CharLit(i64),
    /// String literal.
    StrLit(Sym),
    /// Identifier reference.
    Ident(Sym),
    /// Unary operator application.
    Unary(UnOp, Box<Expr>),
    /// Postfix `++` (true) or `--` (false).
    PostIncDec(Box<Expr>, bool),
    /// Binary operator application.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Assignment (simple or compound).
    Assign(AssignOp, Box<Expr>, Box<Expr>),
    /// Conditional `c ? t : e`.
    Cond(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Cast `(T) e` (the type boxed: it is far larger than the other
    /// variants, and every expression node is as large as its largest).
    Cast(Box<AstType>, Box<Expr>),
    /// Function call.
    Call(Box<Expr>, Vec<Expr>),
    /// Array index `a[i]`.
    Index(Box<Expr>, Box<Expr>),
    /// Member access `e.f` (arrow = false) or `e->f` (arrow = true).
    Member(Box<Expr>, Sym, bool),
    /// `sizeof expr`
    SizeofExpr(Box<Expr>),
    /// `sizeof (T)`
    SizeofType(Box<AstType>),
    /// Comma expression `a, b`.
    Comma(Box<Expr>, Box<Expr>),
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// `-e`
    Neg,
    /// `+e`
    Plus,
    /// `!e`
    Not,
    /// `~e`
    BitNot,
    /// `&e`
    AddrOf,
    /// `*e`
    Deref,
    /// `++e`
    PreInc,
    /// `--e`
    PreDec,
}

/// Binary operators (excluding assignment, which is [`ExprKind::Assign`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `&`
    BitAnd,
    /// `|`
    BitOr,
    /// `^`
    BitXor,
    /// `&&`
    LogAnd,
    /// `||`
    LogOr,
}

impl BinOp {
    /// True for operators whose result is boolean-like (never a pointer).
    pub fn is_comparison(&self) -> bool {
        use BinOp::*;
        matches!(self, Lt | Gt | Le | Ge | Eq | Ne | LogAnd | LogOr)
    }
}

/// Assignment operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AssignOp {
    /// `=`
    Simple,
    /// `+=`
    Add,
    /// `-=`
    Sub,
    /// `*=`
    Mul,
    /// `/=`
    Div,
    /// `%=`
    Rem,
    /// `<<=`
    Shl,
    /// `>>=`
    Shr,
    /// `&=`
    And,
    /// `|=`
    Or,
    /// `^=`
    Xor,
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use UnOp::*;
        let s = match self {
            Neg => "-",
            Plus => "+",
            Not => "!",
            BitNot => "~",
            AddrOf => "&",
            Deref => "*",
            PreInc => "++",
            PreDec => "--",
        };
        write!(f, "{s}")
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use BinOp::*;
        let s = match self {
            Add => "+",
            Sub => "-",
            Mul => "*",
            Div => "/",
            Rem => "%",
            Shl => "<<",
            Shr => ">>",
            Lt => "<",
            Gt => ">",
            Le => "<=",
            Ge => ">=",
            Eq => "==",
            Ne => "!=",
            BitAnd => "&",
            BitOr => "|",
            BitXor => "^",
            LogAnd => "&&",
            LogOr => "||",
        };
        write!(f, "{s}")
    }
}

impl fmt::Display for AssignOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use AssignOp::*;
        let s = match self {
            Simple => "=",
            Add => "+=",
            Sub => "-=",
            Mul => "*=",
            Div => "/=",
            Rem => "%=",
            Shl => "<<=",
            Shr => ">>=",
            And => "&=",
            Or => "|=",
            Xor => "^=",
        };
        write!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_builders() {
        let t = AstType::Base(TypeSpec::Int).ptr();
        assert!(matches!(t, AstType::Pointer(_)));
        assert!(!t.is_function());
        let f = AstType::Function {
            ret: Box::new(AstType::Base(TypeSpec::Void)),
            params: vec![],
            variadic: false,
        };
        assert!(f.is_function());
    }

    #[test]
    fn comparison_classification() {
        assert!(BinOp::Eq.is_comparison());
        assert!(BinOp::LogAnd.is_comparison());
        assert!(!BinOp::Add.is_comparison());
    }

    #[test]
    fn operator_display() {
        assert_eq!(UnOp::AddrOf.to_string(), "&");
        assert_eq!(BinOp::Shl.to_string(), "<<");
        assert_eq!(AssignOp::Xor.to_string(), "^=");
    }

    #[test]
    fn stmt_stays_within_its_size_bound() {
        // Every `Box<Stmt>` and `BlockItem` pays this size; an inline
        // `Declaration` in `ForInit` made it 200 bytes.
        let size = std::mem::size_of::<Stmt>();
        assert!(size <= 152, "Stmt is {size} bytes");
    }
}
