//! Abstract locations.
//!
//! A [`Loc`] is a *normalized* structure reference: an abstract object plus
//! a field representation whose shape depends on the analysis instance —
//! whole-object for "Collapse Always", a leaf index for the portable
//! instances (the normalized field path's position among the type's
//! leaves), a byte offset for "Offsets". Every form is a fixed-size `Copy`
//! value.

use structcast_ir::{ObjId, Program};

/// Dense id of an interned [`Loc`].
///
/// Ids are assigned by the fact store's interner in first-use order and
/// are stable *within one solver run* — a `LocId` from one `FactStore`
/// must never be used against another. The solver's hot path works
/// entirely in ids (4-byte copies) and converts back to `Loc`s only at
/// the query boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LocId(pub(crate) u32);

impl LocId {
    /// The id as a vector index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The field component of a normalized location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FieldRep {
    /// The whole object (the "Collapse Always" instance collapses every
    /// structure to this).
    Whole,
    /// A normalized field position of the "Collapse on Cast" and "Common
    /// Initial Sequence" instances, as the index of its leaf in the shape
    /// table of the object's declared type
    /// ([`TypeTable::shape`](structcast_types::TypeTable::shape)). Leaf
    /// order is the order of the leaves' field paths, so two positions of
    /// one object compare as their paths do.
    Leaf(u32),
    /// A byte offset under a concrete layout, used by "Offsets".
    Off(u64),
}

/// A normalized abstract location: `obj.field`.
///
/// The paper writes these `s.α̂` (path instances) or `s.j` (offset
/// instance); a `pointsTo(a, b)` fact is stored as `b ∈ pts(a)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Loc {
    /// The containing object.
    pub obj: ObjId,
    /// The normalized field component.
    pub field: FieldRep,
}

impl Loc {
    /// A whole-object location.
    pub fn whole(obj: ObjId) -> Self {
        Loc {
            obj,
            field: FieldRep::Whole,
        }
    }

    /// A leaf location: leaf `leaf` of the object's declared type.
    pub fn leaf(obj: ObjId, leaf: u32) -> Self {
        Loc {
            obj,
            field: FieldRep::Leaf(leaf),
        }
    }

    /// An offset location.
    pub fn off(obj: ObjId, off: u64) -> Self {
        Loc {
            obj,
            field: FieldRep::Off(off),
        }
    }

    /// The field path of a leaf location within its object's declared
    /// type (`None` for the other field kinds).
    pub fn path<'p>(&self, prog: &'p Program) -> Option<&'p [u32]> {
        match self.field {
            FieldRep::Leaf(i) => Some(prog.types.shape(prog.type_of(self.obj)).path(i)),
            _ => None,
        }
    }

    /// Renders the location with the object's source name, e.g. `s.0.1`,
    /// `t+4`, or `x`.
    pub fn display(&self, prog: &Program) -> String {
        let mut out = prog.object(self.obj).name.clone();
        match self.field {
            FieldRep::Whole | FieldRep::Off(0) => {}
            FieldRep::Leaf(_) => {
                for step in self.path(prog).unwrap_or_default() {
                    out.push('.');
                    out.push_str(&step.to_string());
                }
            }
            FieldRep::Off(o) => {
                out.push('+');
                out.push_str(&o.to_string());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use structcast_ir::lower_source;

    #[test]
    fn constructors_and_ordering() {
        let a = Loc::whole(ObjId(1));
        let b = Loc::off(ObjId(1), 4);
        let c = Loc::leaf(ObjId(2), 0);
        assert_ne!(a, b);
        assert!(a < c); // ordered by object id first (derive order: obj then field)
        assert!(Loc::leaf(ObjId(2), 1) < Loc::leaf(ObjId(2), 2));
        assert_eq!(Loc::off(ObjId(1), 4), b);
    }

    #[test]
    fn display_forms() {
        let prog =
            lower_source("struct S { int *a; struct { int *b; int *c; } in; } s; int x;").unwrap();
        let s = prog.object_by_name("s").unwrap();
        let x = prog.object_by_name("x").unwrap();
        assert_eq!(Loc::whole(s).display(&prog), "s");
        assert_eq!(Loc::off(s, 0).display(&prog), "s");
        assert_eq!(Loc::off(s, 8).display(&prog), "s+8");
        assert_eq!(Loc::leaf(s, 0).display(&prog), "s.0");
        assert_eq!(Loc::leaf(s, 2).display(&prog), "s.1.1");
        assert_eq!(Loc::leaf(s, 2).path(&prog), Some(&[1u32, 1][..]));
        assert_eq!(Loc::leaf(x, 0).display(&prog), "x");
        assert_eq!(Loc::whole(x).path(&prog), None);
    }
}
