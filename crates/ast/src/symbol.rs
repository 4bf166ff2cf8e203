//! Interned names.
//!
//! The lexer interns every identifier and string literal once per distinct
//! spelling into a [`Symbols`] table that the [`TranslationUnit`] owns;
//! tokens and AST nodes carry a [`Sym`], a dense index into that table.
//! Everything after the lexer compares and indexes names by symbol (see
//! [`Scopes`](crate::Scopes)) and reads the text back only to build an
//! output string or an error message.
//!
//! [`TranslationUnit`]: crate::TranslationUnit

use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::BuildHasher;

/// An interned spelling: an index into its unit's [`Symbols`], dense from 0
/// in order of first appearance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(pub u32);

impl Sym {
    /// The symbol's index, for tables indexed by symbol.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Slot value of an empty bucket in [`Symbols::buckets`].
const EMPTY: u32 = u32::MAX;

/// The interned spellings of one translation unit.
///
/// All text lives back to back in one `String`, so interning allocates
/// only when a buffer doubles, never per name. Lookup is open addressing
/// over std's SipHash with per-table random keys: the text comes from the
/// analysed program, which a client chooses.
///
/// # Examples
///
/// ```
/// use structcast_ast::Symbols;
/// let mut syms = Symbols::default();
/// let a = syms.intern("head");
/// let b = syms.intern("next");
/// assert_eq!(syms.intern("head"), a);
/// assert_ne!(a, b);
/// assert_eq!(syms.text(b), "next");
/// assert_eq!(syms.get("tail"), None);
/// ```
#[derive(Clone, Default)]
pub struct Symbols {
    /// Every spelling, in symbol order.
    text: String,
    /// End offset in `text` of each symbol; it starts where the previous
    /// one ends.
    ends: Vec<u32>,
    /// Hash of each symbol's text, kept for probing and regrowth.
    hashes: Vec<u64>,
    /// Open-addressing buckets holding a symbol index or [`EMPTY`]; the
    /// length is zero or a power of two at most half full.
    buckets: Vec<u32>,
    state: RandomState,
}

impl Symbols {
    /// Number of distinct spellings.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The text of `sym`.
    ///
    /// # Panics
    ///
    /// If `sym` did not come from this table.
    pub fn text(&self, sym: Sym) -> &str {
        let i = sym.index();
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.text[start..self.ends[i] as usize]
    }

    /// The symbol for `text`, interning it if it is new.
    pub fn intern(&mut self, text: &str) -> Sym {
        let hash = self.state.hash_one(text);
        match self.probe(text, hash) {
            Ok(sym) => sym,
            Err(bucket) => {
                let sym = Sym(self.ends.len() as u32);
                self.text.push_str(text);
                self.ends.push(self.text.len() as u32);
                self.hashes.push(hash);
                if (self.ends.len() - 1) * 2 >= self.buckets.len() {
                    self.grow();
                } else {
                    self.buckets[bucket] = sym.0;
                }
                sym
            }
        }
    }

    /// The symbol for `text`, if it was interned.
    pub fn get(&self, text: &str) -> Option<Sym> {
        self.probe(text, self.state.hash_one(text)).ok()
    }

    /// `Ok(sym)` if `text` is interned, else `Err(bucket)` with the empty
    /// bucket where it would go (meaningless when there are no buckets).
    fn probe(&self, text: &str, hash: u64) -> Result<Sym, usize> {
        if self.buckets.is_empty() {
            return Err(0);
        }
        let mask = self.buckets.len() - 1;
        let mut b = hash as usize & mask;
        loop {
            match self.buckets[b] {
                EMPTY => return Err(b),
                s if self.hashes[s as usize] == hash && self.text(Sym(s)) == text => {
                    return Ok(Sym(s))
                }
                _ => b = (b + 1) & mask,
            }
        }
    }

    /// Doubles the buckets (at least 64) and reinserts every symbol.
    fn grow(&mut self) {
        let n = (self.buckets.len() * 2).max(64);
        self.buckets.clear();
        self.buckets.resize(n, EMPTY);
        let mask = n - 1;
        for (s, &hash) in self.hashes.iter().enumerate() {
            let mut b = hash as usize & mask;
            while self.buckets[b] != EMPTY {
                b = (b + 1) & mask;
            }
            self.buckets[b] = s as u32;
        }
    }
}

/// Two tables are equal when they hold the same spellings in the same
/// order, whatever their hash keys.
impl PartialEq for Symbols {
    fn eq(&self, other: &Self) -> bool {
        self.ends == other.ends && self.text == other.text
    }
}

impl fmt::Debug for Symbols {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries((0..self.len() as u32).map(|s| self.text(Sym(s))))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut syms = Symbols::default();
        let names: Vec<String> = (0..1000).map(|i| format!("v{i}")).collect();
        let ids: Vec<Sym> = names.iter().map(|n| syms.intern(n)).collect();
        for (i, (n, &s)) in names.iter().zip(&ids).enumerate() {
            assert_eq!(s, Sym(i as u32));
            assert_eq!(syms.intern(n), s);
            assert_eq!(syms.get(n), Some(s));
            assert_eq!(syms.text(s), n);
        }
        assert_eq!(syms.len(), 1000);
        assert_eq!(syms.get("v1000"), None);
    }

    #[test]
    fn empty_and_prefix_spellings_are_distinct() {
        let mut syms = Symbols::default();
        let e = syms.intern("");
        let a = syms.intern("a");
        let ab = syms.intern("ab");
        assert_eq!(syms.text(e), "");
        assert_eq!(syms.text(a), "a");
        assert_eq!(syms.text(ab), "ab");
        assert_eq!(syms.intern(""), e);
    }

    #[test]
    fn equality_ignores_hash_keys() {
        let mut a = Symbols::default();
        let mut b = Symbols::default();
        for n in ["x", "y", "x"] {
            a.intern(n);
            b.intern(n);
        }
        assert_eq!(a, b);
        b.intern("z");
        assert_ne!(a, b);
    }
}
