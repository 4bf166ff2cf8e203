//! Block-scoped name tables indexed by symbol.

use crate::symbol::Sym;

/// A binding stack for one C namespace (ordinary names, typedefs, tags):
/// the innermost binding of each symbol in a slot indexed by [`Sym`], plus
/// an undo list of the bindings each open scope shadowed. A lookup is one
/// index; leaving a scope restores what it shadowed.
///
/// Depth 0 is the outermost scope and is never closed.
///
/// # Examples
///
/// ```
/// use structcast_ast::{Scopes, Sym};
/// let x = Sym(0);
/// let mut s = Scopes::with_symbols(1);
/// s.bind(x, 1);
/// s.push();
/// assert_eq!(s.get(x), Some(1));
/// assert_eq!(s.get_innermost(x), None);
/// s.bind(x, 2);
/// assert_eq!(s.get(x), Some(2));
/// s.pop();
/// assert_eq!(s.get(x), Some(1));
/// ```
#[derive(Debug, Clone)]
pub struct Scopes<T> {
    /// Innermost binding per symbol and the depth it was made at.
    slots: Vec<Option<(T, u32)>>,
    /// Bindings shadowed by the open scopes, innermost last.
    undo: Vec<(Sym, Option<(T, u32)>)>,
    /// `undo` length when each open scope was entered.
    marks: Vec<usize>,
}

impl<T: Copy> Scopes<T> {
    /// An empty table at depth 0, sized for symbols below `n`.
    pub fn with_symbols(n: usize) -> Self {
        Scopes {
            slots: vec![None; n],
            undo: Vec::new(),
            marks: Vec::new(),
        }
    }

    fn depth(&self) -> u32 {
        self.marks.len() as u32
    }

    /// Enters a scope.
    pub fn push(&mut self) {
        self.marks.push(self.undo.len());
    }

    /// Leaves the innermost scope, restoring the bindings it shadowed.
    ///
    /// # Panics
    ///
    /// At depth 0.
    pub fn pop(&mut self) {
        let mark = self.marks.pop().expect("cannot pop the outermost scope");
        for (s, old) in self.undo.drain(mark..).rev() {
            self.slots[s.index()] = old;
        }
    }

    /// The innermost binding of `s`.
    pub fn get(&self, s: Sym) -> Option<T> {
        self.slots.get(s.index()).copied().flatten().map(|(v, _)| v)
    }

    /// The binding of `s` made in the innermost scope, if any.
    pub fn get_innermost(&self, s: Sym) -> Option<T> {
        match self.slots.get(s.index()).copied().flatten() {
            Some((v, d)) if d == self.depth() => Some(v),
            _ => None,
        }
    }

    /// Binds `s` to `v` in the innermost scope, replacing a binding made
    /// there and shadowing any outer one.
    pub fn bind(&mut self, s: Sym, v: T) {
        let depth = self.depth();
        let slot = self.slot(s);
        let old = *slot;
        *slot = Some((v, depth));
        if depth > 0 && old.is_none_or(|(_, d)| d != depth) {
            self.undo.push((s, old));
        }
    }

    /// Binds `s`, which no scope binds, in the outermost scope, where it
    /// outlives the open scopes.
    pub fn bind_outermost(&mut self, s: Sym, v: T) {
        let slot = self.slot(s);
        debug_assert!(slot.is_none(), "{s:?} is already bound");
        *slot = Some((v, 0));
    }

    fn slot(&mut self, s: Sym) -> &mut Option<(T, u32)> {
        if s.index() >= self.slots.len() {
            self.slots.resize(s.index() + 1, None);
        }
        &mut self.slots[s.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shadowing_and_scope_exit() {
        let (a, b) = (Sym(0), Sym(1));
        let mut s = Scopes::with_symbols(2);
        s.bind(a, 'g');
        s.push();
        s.bind(a, 'l');
        s.bind(a, 'm'); // rebinding in the same scope replaces
        s.bind(b, 'b');
        assert_eq!(s.get(a), Some('m'));
        s.push();
        assert_eq!(s.get_innermost(a), None);
        s.bind(a, 'n');
        assert_eq!(s.get_innermost(a), Some('n'));
        s.pop();
        assert_eq!(s.get(a), Some('m'));
        s.pop();
        assert_eq!(s.get(a), Some('g'));
        assert_eq!(s.get(b), None);
    }

    #[test]
    fn outermost_bindings_outlive_open_scopes() {
        let t = Sym(5);
        let mut s = Scopes::with_symbols(0);
        s.push();
        s.push();
        s.bind_outermost(t, 7);
        assert_eq!(s.get(t), Some(7));
        assert_eq!(s.get_innermost(t), None);
        s.pop();
        s.pop();
        assert_eq!(s.get(t), Some(7));
        assert_eq!(s.get_innermost(t), Some(7));
    }
}
