//! A hand-written lexer for the C subset understood by structcast.
//!
//! Differences from a full C lexer, chosen to keep the pipeline
//! self-contained (no preprocessor):
//!
//! * Lines beginning with `#` (after optional whitespace) are skipped
//!   entirely, so sources containing `#include`/`#define` lines still lex;
//!   callers are expected to provide needed declarations via a prelude.
//! * Both `/* ... */` and `// ...` comments are supported.
//! * Adjacent string literals are concatenated, as in C.
//!
//! Identifiers and string literals are interned into a [`Symbols`] table
//! as they are read, so a token is `Copy` and names allocate once per
//! distinct spelling.

use crate::error::{ParseError, Result};
use crate::span::Span;
use crate::symbol::Symbols;
use crate::token::{Token, TokenKind};

/// Streaming lexer over a source string.
///
/// # Examples
///
/// ```
/// use structcast_ast::{Lexer, TokenKind};
/// let (toks, syms) = Lexer::new("int x = 0x1f;").lex()?;
/// assert_eq!(toks[0].kind, TokenKind::KwInt);
/// assert_eq!(toks[1].kind, TokenKind::Ident(syms.get("x").unwrap()));
/// assert_eq!(toks[3].kind, TokenKind::IntLit(31));
/// # Ok::<(), structcast_ast::ParseError>(())
/// ```
#[derive(Debug)]
pub struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    symbols: Symbols,
    /// Decoded text of the string literal being read.
    buf: String,
}

impl<'a> Lexer<'a> {
    /// Creates a lexer over `src`.
    pub fn new(src: &'a str) -> Self {
        Lexer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            line: 1,
            symbols: Symbols::default(),
            buf: String::new(),
        }
    }

    /// Lexes the entire input, returning the token stream terminated by
    /// a single [`TokenKind::Eof`] token, and the table its names and
    /// string literals index.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] on malformed literals, unterminated
    /// comments/strings, or bytes that are not part of any token.
    pub fn lex(mut self) -> Result<(Vec<Token>, Symbols)> {
        let mut out = Vec::new();
        loop {
            let tok = self.next_token()?;
            out.push(tok);
            if tok.kind == TokenKind::Eof {
                return Ok((out, self.symbols));
            }
        }
    }

    /// Lexes the entire input like [`Lexer::lex`], for callers that need
    /// the tokens but not the text of their names.
    ///
    /// # Errors
    ///
    /// As [`Lexer::lex`].
    pub fn tokenize(self) -> Result<Vec<Token>> {
        self.lex().map(|(toks, _)| toks)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.bytes.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        Some(b)
    }

    fn skip_trivia(&mut self) -> Result<()> {
        loop {
            match self.peek() {
                Some(b' ') | Some(b'\t') | Some(b'\r') | Some(b'\n') => {
                    self.bump();
                }
                Some(b'#') if self.at_line_start() => {
                    // Preprocessor line: skip to end of line, honoring
                    // backslash-newline continuations.
                    loop {
                        match self.bump() {
                            None | Some(b'\n') => break,
                            Some(b'\\') => {
                                if self.peek() == Some(b'\r') {
                                    self.bump();
                                }
                                if self.peek() == Some(b'\n') {
                                    self.bump();
                                }
                            }
                            _ => {}
                        }
                    }
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(b) = self.peek() {
                        if b == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    let start = self.pos as u32;
                    let line = self.line;
                    self.bump();
                    self.bump();
                    loop {
                        match self.peek() {
                            None => {
                                return Err(ParseError::new(
                                    "unterminated block comment",
                                    Span::new(start, self.pos as u32, line),
                                ))
                            }
                            Some(b'*') if self.peek2() == Some(b'/') => {
                                self.bump();
                                self.bump();
                                break;
                            }
                            _ => {
                                self.bump();
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn at_line_start(&self) -> bool {
        let mut i = self.pos;
        while i > 0 {
            match self.bytes[i - 1] {
                b' ' | b'\t' => i -= 1,
                b'\n' => return true,
                _ => return false,
            }
        }
        true
    }

    fn next_token(&mut self) -> Result<Token> {
        self.skip_trivia()?;
        let start = self.pos as u32;
        let line = self.line;
        let span = |end: usize| Span::new(start, end as u32, line);

        let b = match self.peek() {
            None => return Ok(Token::new(TokenKind::Eof, span(self.pos))),
            Some(b) => b,
        };

        if b.is_ascii_alphabetic() || b == b'_' {
            return self.lex_ident(start, line);
        }
        if b.is_ascii_digit() || (b == b'.' && self.peek2().is_some_and(|c| c.is_ascii_digit())) {
            return self.lex_number(start, line);
        }
        if b == b'"' {
            return self.lex_string(start, line);
        }
        if b == b'\'' {
            return self.lex_char(start, line);
        }

        use TokenKind::*;
        self.bump();
        // Multi-character operators: try longest-first.
        let kind = match b {
            b'(' => LParen,
            b')' => RParen,
            b'{' => LBrace,
            b'}' => RBrace,
            b'[' => LBracket,
            b']' => RBracket,
            b';' => Semi,
            b',' => Comma,
            b'?' => Question,
            b':' => Colon,
            b'~' => Tilde,
            b'.' => {
                if self.peek() == Some(b'.') && self.peek2() == Some(b'.') {
                    self.bump();
                    self.bump();
                    Ellipsis
                } else {
                    Dot
                }
            }
            b'+' => match self.peek() {
                Some(b'+') => {
                    self.bump();
                    PlusPlus
                }
                Some(b'=') => {
                    self.bump();
                    PlusAssign
                }
                _ => Plus,
            },
            b'-' => match self.peek() {
                Some(b'-') => {
                    self.bump();
                    MinusMinus
                }
                Some(b'=') => {
                    self.bump();
                    MinusAssign
                }
                Some(b'>') => {
                    self.bump();
                    Arrow
                }
                _ => Minus,
            },
            b'*' => {
                if self.peek() == Some(b'=') {
                    self.bump();
                    StarAssign
                } else {
                    Star
                }
            }
            b'/' => {
                if self.peek() == Some(b'=') {
                    self.bump();
                    SlashAssign
                } else {
                    Slash
                }
            }
            b'%' => {
                if self.peek() == Some(b'=') {
                    self.bump();
                    PercentAssign
                } else {
                    Percent
                }
            }
            b'^' => {
                if self.peek() == Some(b'=') {
                    self.bump();
                    CaretAssign
                } else {
                    Caret
                }
            }
            b'!' => {
                if self.peek() == Some(b'=') {
                    self.bump();
                    Ne
                } else {
                    Bang
                }
            }
            b'=' => {
                if self.peek() == Some(b'=') {
                    self.bump();
                    EqEq
                } else {
                    Assign
                }
            }
            b'&' => match self.peek() {
                Some(b'&') => {
                    self.bump();
                    AmpAmp
                }
                Some(b'=') => {
                    self.bump();
                    AmpAssign
                }
                _ => Amp,
            },
            b'|' => match self.peek() {
                Some(b'|') => {
                    self.bump();
                    PipePipe
                }
                Some(b'=') => {
                    self.bump();
                    PipeAssign
                }
                _ => Pipe,
            },
            b'<' => match self.peek() {
                Some(b'<') => {
                    self.bump();
                    if self.peek() == Some(b'=') {
                        self.bump();
                        ShlAssign
                    } else {
                        Shl
                    }
                }
                Some(b'=') => {
                    self.bump();
                    Le
                }
                _ => Lt,
            },
            b'>' => match self.peek() {
                Some(b'>') => {
                    self.bump();
                    if self.peek() == Some(b'=') {
                        self.bump();
                        ShrAssign
                    } else {
                        Shr
                    }
                }
                Some(b'=') => {
                    self.bump();
                    Ge
                }
                _ => Gt,
            },
            other => {
                return Err(ParseError::new(
                    format!("unexpected character `{}`", other as char),
                    span(self.pos),
                ))
            }
        };
        Ok(Token::new(kind, span(self.pos)))
    }

    fn lex_ident(&mut self, start: u32, line: u32) -> Result<Token> {
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || b == b'_' {
                self.bump();
            } else {
                break;
            }
        }
        let text = &self.src[start as usize..self.pos];
        let span = Span::new(start, self.pos as u32, line);
        let kind =
            TokenKind::keyword(text).unwrap_or_else(|| TokenKind::Ident(self.symbols.intern(text)));
        Ok(Token::new(kind, span))
    }

    fn lex_number(&mut self, start: u32, line: u32) -> Result<Token> {
        let s = start as usize;
        // Hex?
        if self.peek() == Some(b'0') && matches!(self.peek2(), Some(b'x') | Some(b'X')) {
            self.bump();
            self.bump();
            let digits_start = self.pos;
            while self.peek().is_some_and(|b| b.is_ascii_hexdigit()) {
                self.bump();
            }
            if self.pos == digits_start {
                return Err(ParseError::new(
                    "missing digits in hex literal",
                    Span::new(start, self.pos as u32, line),
                ));
            }
            let text = &self.src[digits_start..self.pos];
            self.skip_int_suffix();
            let v = u64::from_str_radix(text, 16).map_err(|_| {
                ParseError::new("hex literal too large", Span::new(start, self.pos as u32, line))
            })?;
            return Ok(Token::new(
                TokenKind::IntLit(v as i64),
                Span::new(start, self.pos as u32, line),
            ));
        }

        let mut is_float = false;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.bump();
        }
        if self.peek() == Some(b'.') && !matches!(self.peek2(), Some(b'.')) {
            is_float = true;
            self.bump();
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.bump();
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E'))
            && (self.peek2().is_some_and(|b| b.is_ascii_digit())
                || (matches!(self.peek2(), Some(b'+') | Some(b'-'))
                    && self.bytes.get(self.pos + 2).is_some_and(|b| b.is_ascii_digit())))
        {
            is_float = true;
            self.bump();
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.bump();
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.bump();
            }
        }
        let text = &self.src[s..self.pos];
        let span_end = |l: &Self| Span::new(start, l.pos as u32, line);
        if is_float {
            // Optional f/F/l/L suffix.
            if matches!(self.peek(), Some(b'f') | Some(b'F') | Some(b'l') | Some(b'L')) {
                self.bump();
            }
            let v: f64 = text
                .parse()
                .map_err(|_| ParseError::new("malformed float literal", span_end(self)))?;
            Ok(Token::new(TokenKind::FloatLit(v), span_end(self)))
        } else {
            self.skip_int_suffix();
            // Octal if it starts with 0 and has more digits.
            let v = if text.len() > 1 && text.starts_with('0') && text.bytes().all(|b| (b'0'..=b'7').contains(&b))
            {
                u64::from_str_radix(&text[1..], 8)
                    .map_err(|_| ParseError::new("octal literal too large", span_end(self)))?
            } else {
                text.parse::<u64>()
                    .map_err(|_| ParseError::new("integer literal too large", span_end(self)))?
            };
            Ok(Token::new(TokenKind::IntLit(v as i64), span_end(self)))
        }
    }

    fn skip_int_suffix(&mut self) {
        while matches!(self.peek(), Some(b'u') | Some(b'U') | Some(b'l') | Some(b'L')) {
            self.bump();
        }
    }

    fn lex_escape(&mut self, line: u32) -> Result<i64> {
        let start = self.pos as u32;
        let c = self
            .bump()
            .ok_or_else(|| ParseError::new("unterminated escape", Span::new(start, start, line)))?;
        Ok(match c {
            b'n' => b'\n' as i64,
            b't' => b'\t' as i64,
            b'r' => b'\r' as i64,
            b'0'..=b'7' => {
                let mut v = (c - b'0') as i64;
                for _ in 0..2 {
                    match self.peek() {
                        Some(d @ b'0'..=b'7') => {
                            v = v * 8 + (d - b'0') as i64;
                            self.bump();
                        }
                        _ => break,
                    }
                }
                v
            }
            b'x' => {
                let mut v: i64 = 0;
                while let Some(d) = self.peek() {
                    if d.is_ascii_hexdigit() {
                        v = v * 16 + (d as char).to_digit(16).unwrap() as i64;
                        self.bump();
                    } else {
                        break;
                    }
                }
                v
            }
            b'\\' => b'\\' as i64,
            b'\'' => b'\'' as i64,
            b'"' => b'"' as i64,
            b'a' => 7,
            b'b' => 8,
            b'f' => 12,
            b'v' => 11,
            other => other as i64,
        })
    }

    /// Reads a string literal and every literal adjacent to it, as one
    /// token spanning them all.
    fn lex_string(&mut self, start: u32, line: u32) -> Result<Token> {
        self.buf.clear();
        let (mut at, mut at_line) = (start, line);
        loop {
            self.lex_one_string(at, at_line)?;
            let end = self.pos as u32;
            self.skip_trivia()?;
            if self.peek() != Some(b'"') {
                let sym = self.symbols.intern(&self.buf);
                return Ok(Token::new(
                    TokenKind::StrLit(sym),
                    Span::new(start, end, line),
                ));
            }
            (at, at_line) = (self.pos as u32, self.line);
        }
    }

    /// Appends the decoded text of the literal at the cursor to `buf`.
    fn lex_one_string(&mut self, start: u32, line: u32) -> Result<()> {
        self.bump(); // opening quote
        loop {
            match self.bump() {
                None | Some(b'\n') => {
                    return Err(ParseError::new(
                        "unterminated string literal",
                        Span::new(start, self.pos as u32, line),
                    ))
                }
                Some(b'"') => return Ok(()),
                Some(b'\\') => {
                    let v = self.lex_escape(line)?;
                    self.buf.push((v as u8) as char);
                }
                Some(b) => self.buf.push(b as char),
            }
        }
    }

    fn lex_char(&mut self, start: u32, line: u32) -> Result<Token> {
        self.bump(); // opening quote
        let v = match self.bump() {
            None => {
                return Err(ParseError::new(
                    "unterminated char constant",
                    Span::new(start, self.pos as u32, line),
                ))
            }
            Some(b'\\') => self.lex_escape(line)?,
            Some(b) => b as i64,
        };
        if self.bump() != Some(b'\'') {
            return Err(ParseError::new(
                "unterminated char constant",
                Span::new(start, self.pos as u32, line),
            ));
        }
        Ok(Token::new(
            TokenKind::CharLit(v),
            Span::new(start, self.pos as u32, line),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use TokenKind::*;

    /// A token kind with its name or literal text resolved.
    #[derive(Debug, PartialEq)]
    enum K {
        T(TokenKind),
        Id(String),
        Str(String),
    }

    fn kinds(src: &str) -> Vec<K> {
        let (toks, syms) = Lexer::new(src).lex().unwrap();
        toks.into_iter()
            .map(|t| match t.kind {
                Ident(s) => K::Id(syms.text(s).to_string()),
                StrLit(s) => K::Str(syms.text(s).to_string()),
                k => K::T(k),
            })
            .collect()
    }

    fn id(s: &str) -> K {
        K::Id(s.into())
    }

    #[test]
    fn basic_declaration() {
        assert_eq!(
            kinds("int *p;"),
            vec![K::T(KwInt), K::T(Star), id("p"), K::T(Semi), K::T(Eof)]
        );
    }

    #[test]
    fn multi_char_operators() {
        assert_eq!(
            kinds("a->b ... <<= >>= == != <= >= && || ++ --"),
            vec![
                id("a"),
                K::T(Arrow),
                id("b"),
                K::T(Ellipsis),
                K::T(ShlAssign),
                K::T(ShrAssign),
                K::T(EqEq),
                K::T(Ne),
                K::T(Le),
                K::T(Ge),
                K::T(AmpAmp),
                K::T(PipePipe),
                K::T(PlusPlus),
                K::T(MinusMinus),
                K::T(Eof),
            ]
        );
    }

    #[test]
    fn integer_bases_and_suffixes() {
        assert_eq!(
            kinds("0x1F 017 42 42UL 0"),
            vec![
                K::T(IntLit(31)),
                K::T(IntLit(15)),
                K::T(IntLit(42)),
                K::T(IntLit(42)),
                K::T(IntLit(0)),
                K::T(Eof),
            ]
        );
    }

    #[test]
    fn floats() {
        assert_eq!(
            kinds("1.5 2. .5 1e3 1.5e-2f"),
            vec![
                K::T(FloatLit(1.5)),
                K::T(FloatLit(2.0)),
                K::T(FloatLit(0.5)),
                K::T(FloatLit(1000.0)),
                K::T(FloatLit(0.015)),
                K::T(Eof),
            ]
        );
    }

    #[test]
    fn dot_vs_float_vs_ellipsis() {
        assert_eq!(
            kinds("s.f a...b 1.5"),
            vec![
                id("s"),
                K::T(Dot),
                id("f"),
                id("a"),
                K::T(Ellipsis),
                id("b"),
                K::T(FloatLit(1.5)),
                K::T(Eof),
            ]
        );
    }

    #[test]
    fn comments_and_preprocessor_lines() {
        let src = "#include <stdio.h>\n// line comment\nint /* block\ncomment */ x;\n#define FOO 1\n";
        assert_eq!(
            kinds(src),
            vec![K::T(KwInt), id("x"), K::T(Semi), K::T(Eof)]
        );
    }

    #[test]
    fn string_and_char_literals() {
        assert_eq!(
            kinds(r#""hi\n" 'a' '\n' '\0' '\x41'"#),
            vec![
                K::Str("hi\n".into()),
                K::T(CharLit(97)),
                K::T(CharLit(10)),
                K::T(CharLit(0)),
                K::T(CharLit(65)),
                K::T(Eof),
            ]
        );
    }

    #[test]
    fn adjacent_strings_concatenate() {
        assert_eq!(
            kinds(r#""foo" "bar""#),
            vec![K::Str("foobar".into()), K::T(Eof)]
        );
        let (toks, _) = Lexer::new("x = \"a\" /* c */\n \"b\";").lex().unwrap();
        assert_eq!(toks[2].span, Span::new(4, 20, 1));
        assert!(Lexer::new("\"a\"\n\"b").tokenize().is_err());
    }

    #[test]
    fn names_intern_once_per_spelling() {
        let (toks, syms) = Lexer::new("p = q; q = \"p\";").lex().unwrap();
        assert_eq!(syms.len(), 2);
        assert_eq!(toks[0].kind, Ident(syms.get("p").unwrap()));
        assert_eq!(toks[2].kind, toks[4].kind);
        assert_eq!(toks[6].kind, StrLit(syms.get("p").unwrap()));
    }

    #[test]
    fn line_numbers_advance() {
        let toks = Lexer::new("int\nx\n;").tokenize().unwrap();
        assert_eq!(toks[0].span.line, 1);
        assert_eq!(toks[1].span.line, 2);
        assert_eq!(toks[2].span.line, 3);
    }

    #[test]
    fn unterminated_comment_errors() {
        assert!(Lexer::new("/* never closed").tokenize().is_err());
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(Lexer::new("\"oops").tokenize().is_err());
        assert!(Lexer::new("'x").tokenize().is_err());
    }

    #[test]
    fn unexpected_character_errors() {
        let e = Lexer::new("int $x;").tokenize().unwrap_err();
        assert!(e.message().contains('$'));
    }

    #[test]
    fn hash_mid_line_is_error_not_directive() {
        // `#` only starts a directive at the beginning of a line.
        assert!(Lexer::new("int x; # not a directive").tokenize().is_err());
    }

    #[test]
    fn preprocessor_continuation_lines() {
        let src = "#define M(a) \\\n  (a + 1)\nint y;";
        assert_eq!(
            kinds(src),
            vec![K::T(KwInt), id("y"), K::T(Semi), K::T(Eof)]
        );
    }

    #[test]
    fn keywords_are_not_identifiers() {
        assert_eq!(kinds("sizeof"), vec![K::T(KwSizeof), K::T(Eof)]);
        assert_eq!(kinds("sizeofx"), vec![id("sizeofx"), K::T(Eof)]);
    }
}
