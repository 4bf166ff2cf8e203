//! Error types for lexing and parsing.

use crate::span::Span;
use std::fmt;

/// An error produced while lexing or parsing C source.
///
/// Carries a message and the [`Span`] where the problem was detected;
/// errors from [`parse`](crate::parse) also carry the column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    message: String,
    span: Span,
    column: Option<u32>,
}

impl ParseError {
    /// Creates a new error at `span`.
    pub fn new(message: impl Into<String>, span: Span) -> Self {
        ParseError {
            message: message.into(),
            span,
            column: None,
        }
    }

    /// Fills in the 1-based column of the span's start within `src`, the
    /// text the span indexes.
    pub(crate) fn locate(mut self, src: &str) -> Self {
        let before = src.get(..self.span.start as usize).unwrap_or(src);
        let line_start = before.rfind('\n').map_or(0, |i| i + 1);
        self.column = Some(before[line_start..].chars().count() as u32 + 1);
        self
    }

    /// The human-readable message (lowercase, no trailing punctuation).
    pub fn message(&self) -> &str {
        &self.message
    }

    /// Where the error occurred.
    pub fn span(&self) -> Span {
        self.span
    }

    /// The 1-based column of the span's start, when known.
    pub fn column(&self) -> Option<u32> {
        self.column
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at {}", self.message, self.span)?;
        match self.column {
            Some(c) => write!(f, ", column {c}"),
            None => Ok(()),
        }
    }
}

impl std::error::Error for ParseError {}

/// Convenience alias for parse results.
pub type Result<T> = std::result::Result<T, ParseError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_line() {
        let e = ParseError::new("unexpected `;`", Span::new(10, 11, 3));
        assert_eq!(e.to_string(), "unexpected `;` at line 3");
        assert_eq!(e.message(), "unexpected `;`");
        assert_eq!(e.span().line, 3);
        let e = e.locate("int x;\n\n  ;");
        assert_eq!(e.to_string(), "unexpected `;` at line 3, column 3");
    }

    #[test]
    fn error_trait_object() {
        let e = ParseError::new("boom", Span::dummy());
        let b: Box<dyn std::error::Error> = Box::new(e);
        assert!(b.to_string().contains("boom"));
    }
}
