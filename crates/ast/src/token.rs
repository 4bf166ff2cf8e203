//! Token definitions for the C lexer.

use crate::span::Span;
use crate::symbol::{Sym, Symbols};

/// A lexical token: its kind plus the source span it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Token {
    /// What kind of token this is (keyword, punctuation, literal, ...).
    pub kind: TokenKind,
    /// Where in the source it came from.
    pub span: Span,
}

impl Token {
    /// Creates a token.
    pub fn new(kind: TokenKind, span: Span) -> Self {
        Token { kind, span }
    }
}

/// The kinds of tokens produced by [`crate::lexer::Lexer`].
///
/// Keyword variants are named `Kw<Keyword>`; punctuation variants are named
/// after their glyph (see [`TokenKind::describe`] for the rendering).
/// Names and string literals are [`Sym`]s into the lexer's [`Symbols`].
#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(missing_docs)] // keyword/punctuation variants are self-describing
pub enum TokenKind {
    // ----- literals & names -----
    /// An identifier or typedef name (disambiguated by the parser).
    Ident(Sym),
    /// An integer constant (decimal, octal, or hex; suffixes consumed).
    IntLit(i64),
    /// A floating constant.
    FloatLit(f64),
    /// A character constant, stored as its numeric value.
    CharLit(i64),
    /// A string literal with escapes resolved (adjacent literals merged).
    StrLit(Sym),

    // ----- keywords -----
    KwAuto,
    KwBreak,
    KwCase,
    KwChar,
    KwConst,
    KwContinue,
    KwDefault,
    KwDo,
    KwDouble,
    KwElse,
    KwEnum,
    KwExtern,
    KwFloat,
    KwFor,
    KwGoto,
    KwIf,
    KwInt,
    KwLong,
    KwRegister,
    KwReturn,
    KwShort,
    KwSigned,
    KwSizeof,
    KwStatic,
    KwStruct,
    KwSwitch,
    KwTypedef,
    KwUnion,
    KwUnsigned,
    KwVoid,
    KwVolatile,
    KwWhile,
    /// `inline` (C99, accepted and ignored).
    KwInline,

    // ----- punctuation & operators -----
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Semi,
    Comma,
    Dot,
    Arrow,
    Ellipsis,
    Question,
    Colon,
    /// `++`
    PlusPlus,
    /// `--`
    MinusMinus,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Amp,
    Pipe,
    Caret,
    Tilde,
    Bang,
    Shl,
    Shr,
    Lt,
    Gt,
    Le,
    Ge,
    EqEq,
    Ne,
    AmpAmp,
    PipePipe,
    Assign,
    PlusAssign,
    MinusAssign,
    StarAssign,
    SlashAssign,
    PercentAssign,
    ShlAssign,
    ShrAssign,
    AmpAssign,
    PipeAssign,
    CaretAssign,

    /// End of input.
    Eof,
}

impl TokenKind {
    /// Returns the keyword token for `word`, if it is a C keyword we support.
    pub fn keyword(word: &str) -> Option<TokenKind> {
        use TokenKind::*;
        Some(match word {
            "auto" => KwAuto,
            "break" => KwBreak,
            "case" => KwCase,
            "char" => KwChar,
            "const" => KwConst,
            "continue" => KwContinue,
            "default" => KwDefault,
            "do" => KwDo,
            "double" => KwDouble,
            "else" => KwElse,
            "enum" => KwEnum,
            "extern" => KwExtern,
            "float" => KwFloat,
            "for" => KwFor,
            "goto" => KwGoto,
            "if" => KwIf,
            "int" => KwInt,
            "long" => KwLong,
            "register" => KwRegister,
            "return" => KwReturn,
            "short" => KwShort,
            "signed" => KwSigned,
            "sizeof" => KwSizeof,
            "static" => KwStatic,
            "struct" => KwStruct,
            "switch" => KwSwitch,
            "typedef" => KwTypedef,
            "union" => KwUnion,
            "unsigned" => KwUnsigned,
            "void" => KwVoid,
            "volatile" => KwVolatile,
            "while" => KwWhile,
            "inline" | "__inline" | "__inline__" => KwInline,
            _ => return None,
        })
    }

    /// True for tokens that can begin a declaration-specifier list
    /// (not counting typedef names, which need symbol-table context).
    pub fn is_decl_spec_keyword(&self) -> bool {
        use TokenKind::*;
        matches!(
            self,
            KwAuto
                | KwChar
                | KwConst
                | KwDouble
                | KwEnum
                | KwExtern
                | KwFloat
                | KwInt
                | KwLong
                | KwRegister
                | KwShort
                | KwSigned
                | KwStatic
                | KwStruct
                | KwTypedef
                | KwUnion
                | KwUnsigned
                | KwVoid
                | KwVolatile
                | KwInline
        )
    }

    /// A short human-readable description, used in error messages;
    /// `syms` holds the text of names and string literals.
    pub fn describe(&self, syms: &Symbols) -> String {
        use TokenKind::*;
        match *self {
            Ident(s) => format!("identifier `{}`", syms.text(s)),
            IntLit(v) => format!("integer `{v}`"),
            FloatLit(v) => format!("float `{v}`"),
            CharLit(v) => format!("char constant `{v}`"),
            StrLit(s) => format!("string literal {:?}", syms.text(s)),
            Eof => "end of input".to_string(),
            other => format!("`{}`", other.punct_str()),
        }
    }

    fn punct_str(&self) -> &'static str {
        use TokenKind::*;
        match self {
            KwAuto => "auto",
            KwBreak => "break",
            KwCase => "case",
            KwChar => "char",
            KwConst => "const",
            KwContinue => "continue",
            KwDefault => "default",
            KwDo => "do",
            KwDouble => "double",
            KwElse => "else",
            KwEnum => "enum",
            KwExtern => "extern",
            KwFloat => "float",
            KwFor => "for",
            KwGoto => "goto",
            KwIf => "if",
            KwInt => "int",
            KwLong => "long",
            KwRegister => "register",
            KwReturn => "return",
            KwShort => "short",
            KwSigned => "signed",
            KwSizeof => "sizeof",
            KwStatic => "static",
            KwStruct => "struct",
            KwSwitch => "switch",
            KwTypedef => "typedef",
            KwUnion => "union",
            KwUnsigned => "unsigned",
            KwVoid => "void",
            KwVolatile => "volatile",
            KwWhile => "while",
            KwInline => "inline",
            LParen => "(",
            RParen => ")",
            LBrace => "{",
            RBrace => "}",
            LBracket => "[",
            RBracket => "]",
            Semi => ";",
            Comma => ",",
            Dot => ".",
            Arrow => "->",
            Ellipsis => "...",
            Question => "?",
            Colon => ":",
            PlusPlus => "++",
            MinusMinus => "--",
            Plus => "+",
            Minus => "-",
            Star => "*",
            Slash => "/",
            Percent => "%",
            Amp => "&",
            Pipe => "|",
            Caret => "^",
            Tilde => "~",
            Bang => "!",
            Shl => "<<",
            Shr => ">>",
            Lt => "<",
            Gt => ">",
            Le => "<=",
            Ge => ">=",
            EqEq => "==",
            Ne => "!=",
            AmpAmp => "&&",
            PipePipe => "||",
            Assign => "=",
            PlusAssign => "+=",
            MinusAssign => "-=",
            StarAssign => "*=",
            SlashAssign => "/=",
            PercentAssign => "%=",
            ShlAssign => "<<=",
            ShrAssign => ">>=",
            AmpAssign => "&=",
            PipeAssign => "|=",
            CaretAssign => "^=",
            Ident(_) | IntLit(_) | FloatLit(_) | CharLit(_) | StrLit(_) | Eof => "",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_lookup() {
        assert_eq!(TokenKind::keyword("while"), Some(TokenKind::KwWhile));
        assert_eq!(TokenKind::keyword("int"), Some(TokenKind::KwInt));
        assert_eq!(TokenKind::keyword("__inline__"), Some(TokenKind::KwInline));
        assert_eq!(TokenKind::keyword("frobnicate"), None);
    }

    #[test]
    fn decl_spec_classification() {
        assert!(TokenKind::KwStruct.is_decl_spec_keyword());
        assert!(TokenKind::KwTypedef.is_decl_spec_keyword());
        assert!(!TokenKind::KwWhile.is_decl_spec_keyword());
        assert!(!TokenKind::Plus.is_decl_spec_keyword());
    }

    #[test]
    fn describe_is_nonempty() {
        let mut syms = Symbols::default();
        for k in [
            TokenKind::Arrow,
            TokenKind::Ellipsis,
            TokenKind::Eof,
            TokenKind::Ident(syms.intern("x")),
            TokenKind::StrLit(syms.intern("hi")),
        ] {
            assert!(!k.describe(&syms).is_empty());
        }
        assert_eq!(
            TokenKind::Ident(syms.intern("x")).describe(&syms),
            "identifier `x`"
        );
    }
}
