//! Semantic type representation: interned types plus nominal records.
//!
//! Types ([`TypeId`]) are hash-consed in a [`TypeTable`]; struct/union
//! declarations are *nominal* ([`RecordId`]) and may be completed after
//! creation to support forward references and recursive types.

use crate::shape::Tables;
use std::collections::HashMap;
use std::fmt;

/// An interned type handle. Cheap to copy and compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TypeId(pub u32);

/// A nominal struct/union declaration handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordId(pub u32);

/// Integer kinds (plain `char` is its own kind, as in C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntKind {
    /// `char`
    Char,
    /// `signed char`
    SChar,
    /// `unsigned char`
    UChar,
    /// `short`
    Short,
    /// `unsigned short`
    UShort,
    /// `int`
    Int,
    /// `unsigned int`
    UInt,
    /// `long`
    Long,
    /// `unsigned long`
    ULong,
    /// `long long`
    LongLong,
    /// `unsigned long long`
    ULongLong,
}

/// Number of [`IntKind`]s.
const INT_KINDS: usize = IntKind::ULongLong as usize + 1;
/// Number of scalar kinds: `void`, the integers and the floats.
const SCALAR_KINDS: usize = 1 + INT_KINDS + FloatKind::LongDouble as usize + 1;

/// Floating-point kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FloatKind {
    /// `float`
    Float,
    /// `double`
    Double,
    /// `long double`
    LongDouble,
}

/// A function signature.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FuncSig {
    /// Return type.
    pub ret: TypeId,
    /// Parameter types, in order.
    pub params: Vec<TypeId>,
    /// Whether the signature ends in `...`.
    pub variadic: bool,
}

/// The structure of a type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TypeKind {
    /// `void`
    Void,
    /// An integer type.
    Int(IntKind),
    /// A floating-point type.
    Float(FloatKind),
    /// An enumeration (represented like `int`; the tag is kept for display).
    Enum(Option<String>),
    /// Pointer to another type.
    Pointer(TypeId),
    /// Array of a type; `None` length means unspecified (`T[]`).
    Array(TypeId, Option<u64>),
    /// A function type.
    Function(FuncSig),
    /// A struct or union, by nominal identity.
    Record(RecordId),
}

/// One field of a record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Field name (synthesized `__anonN` for anonymous members).
    pub name: String,
    /// Field type.
    pub ty: TypeId,
    /// True if this field came from an anonymous struct/union member, so
    /// member lookup may descend into it transparently.
    pub anonymous: bool,
}

/// A struct or union declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// The tag, if declared with one.
    pub tag: Option<String>,
    /// True for `union`, false for `struct`.
    pub is_union: bool,
    /// Fields in declaration order (empty while incomplete).
    pub fields: Vec<Field>,
    /// Whether a body has been attached.
    pub complete: bool,
}

/// The type table: interned [`TypeKind`]s plus the record arena.
///
/// # Examples
///
/// ```
/// use structcast_types::{TypeTable, TypeKind, IntKind};
/// let mut t = TypeTable::new();
/// let int = t.int();
/// let p1 = t.pointer_to(int);
/// let p2 = t.pointer_to(int);
/// assert_eq!(p1, p2); // hash-consed
/// assert!(matches!(t.kind(p1), TypeKind::Pointer(_)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct TypeTable {
    kinds: Vec<TypeKind>,
    intern: HashMap<TypeKind, TypeId>,
    /// Ids of the scalar kinds interned so far: `void`, then each
    /// [`IntKind`], then each [`FloatKind`].
    scalars: [Option<TypeId>; SCALAR_KINDS],
    records: Vec<Record>,
    /// Shape and layout tables, built on first use (see `shape.rs`).
    pub(crate) tables: Tables,
}

impl TypeTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        TypeTable::default()
    }

    /// Interns `kind`, returning its id.
    pub fn intern(&mut self, kind: TypeKind) -> TypeId {
        if let Some(&id) = self.intern.get(&kind) {
            return id;
        }
        self.clear_tables();
        let id = TypeId(self.kinds.len() as u32);
        self.kinds.push(kind.clone());
        self.intern.insert(kind, id);
        id
    }

    /// Looks up an already-interned kind without mutating the table —
    /// the read-only counterpart of [`intern`](TypeTable::intern), used
    /// when translating type ids between two independently built tables.
    pub fn lookup(&self, kind: &TypeKind) -> Option<TypeId> {
        self.intern.get(kind).copied()
    }

    /// The structure of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this table.
    pub fn kind(&self, id: TypeId) -> &TypeKind {
        &self.kinds[id.0 as usize]
    }

    /// Number of distinct interned types.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// True if no types have been interned.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    // ----- convenience constructors -----

    /// The id of a scalar kind, interned on first use and cached after, so
    /// the scalar constructors below hash nothing.
    fn scalar(&mut self, slot: usize, kind: TypeKind) -> TypeId {
        if let Some(id) = self.scalars[slot] {
            return id;
        }
        let id = self.intern(kind);
        self.scalars[slot] = Some(id);
        id
    }

    /// `void`
    pub fn void(&mut self) -> TypeId {
        self.scalar(0, TypeKind::Void)
    }

    /// The integer type of kind `k`.
    pub fn integer(&mut self, k: IntKind) -> TypeId {
        self.scalar(1 + k as usize, TypeKind::Int(k))
    }

    /// The floating type of kind `k`.
    pub fn floating(&mut self, k: FloatKind) -> TypeId {
        self.scalar(1 + INT_KINDS + k as usize, TypeKind::Float(k))
    }

    /// `char`
    pub fn char(&mut self) -> TypeId {
        self.integer(IntKind::Char)
    }

    /// `int`
    pub fn int(&mut self) -> TypeId {
        self.integer(IntKind::Int)
    }

    /// `unsigned int`
    pub fn uint(&mut self) -> TypeId {
        self.integer(IntKind::UInt)
    }

    /// `long`
    pub fn long(&mut self) -> TypeId {
        self.integer(IntKind::Long)
    }

    /// `unsigned long`
    pub fn ulong(&mut self) -> TypeId {
        self.integer(IntKind::ULong)
    }

    /// `double`
    pub fn double(&mut self) -> TypeId {
        self.floating(FloatKind::Double)
    }

    /// `float`
    pub fn float(&mut self) -> TypeId {
        self.floating(FloatKind::Float)
    }

    /// Pointer to `inner`.
    pub fn pointer_to(&mut self, inner: TypeId) -> TypeId {
        self.intern(TypeKind::Pointer(inner))
    }

    /// `void *`
    pub fn void_ptr(&mut self) -> TypeId {
        let v = self.void();
        self.pointer_to(v)
    }

    /// `char *`
    pub fn char_ptr(&mut self) -> TypeId {
        let c = self.char();
        self.pointer_to(c)
    }

    /// Array of `elem`, length `n`.
    pub fn array_of(&mut self, elem: TypeId, n: Option<u64>) -> TypeId {
        self.intern(TypeKind::Array(elem, n))
    }

    /// Function type from a signature.
    pub fn function(&mut self, sig: FuncSig) -> TypeId {
        self.intern(TypeKind::Function(sig))
    }

    // ----- records -----

    /// Creates a new (incomplete) record and returns both its nominal id and
    /// the interned `Record` type referring to it.
    pub fn new_record(&mut self, tag: Option<String>, is_union: bool) -> (RecordId, TypeId) {
        self.clear_tables();
        let rid = RecordId(self.records.len() as u32);
        self.records.push(Record {
            tag,
            is_union,
            fields: Vec::new(),
            complete: false,
        });
        let tid = self.intern(TypeKind::Record(rid));
        (rid, tid)
    }

    /// Attaches a body to a record created by [`TypeTable::new_record`].
    ///
    /// # Panics
    ///
    /// Panics if the record is already complete.
    pub fn complete_record(&mut self, rid: RecordId, fields: Vec<Field>) {
        self.clear_tables();
        let rec = &mut self.records[rid.0 as usize];
        assert!(!rec.complete, "record completed twice");
        rec.fields = fields;
        rec.complete = true;
    }

    /// The record behind `rid`.
    pub fn record(&self, rid: RecordId) -> &Record {
        &self.records[rid.0 as usize]
    }

    /// Number of records declared.
    pub fn record_count(&self) -> usize {
        self.records.len()
    }

    /// If `ty` is a (possibly array-wrapped) record type, its id.
    pub fn as_record(&self, ty: TypeId) -> Option<RecordId> {
        match self.kind(ty) {
            TypeKind::Record(r) => Some(*r),
            _ => None,
        }
    }

    /// Strips any number of array layers: `T[3][4]` → `T`.
    ///
    /// The analysis treats every array as a single representative element
    /// (paper §2), so most consumers want the element type.
    pub fn strip_arrays(&self, mut ty: TypeId) -> TypeId {
        while let TypeKind::Array(e, _) = self.kind(ty) {
            ty = *e;
        }
        ty
    }

    /// True if `ty` (after stripping arrays) is a struct or union.
    pub fn is_record_like(&self, ty: TypeId) -> bool {
        matches!(self.kind(self.strip_arrays(ty)), TypeKind::Record(_))
    }

    /// True if `ty` is a pointer.
    pub fn is_pointer(&self, ty: TypeId) -> bool {
        matches!(self.kind(ty), TypeKind::Pointer(_))
    }

    /// The pointee of a pointer type, if `ty` is one.
    pub fn pointee(&self, ty: TypeId) -> Option<TypeId> {
        match self.kind(ty) {
            TypeKind::Pointer(p) => Some(*p),
            _ => None,
        }
    }

    /// Looks up a (non-anonymous-aware) direct field by name.
    pub fn field_index(&self, rid: RecordId, name: &str) -> Option<u32> {
        self.record(rid)
            .fields
            .iter()
            .position(|f| f.name == name)
            .map(|i| i as u32)
    }

    /// Resolves a member name in `rid`, descending into anonymous members.
    ///
    /// Returns the path of field indices leading to the named member.
    pub fn resolve_member(&self, rid: RecordId, name: &str) -> Option<Vec<u32>> {
        let rec = self.record(rid);
        for (i, f) in rec.fields.iter().enumerate() {
            if f.name == name && !f.anonymous {
                return Some(vec![i as u32]);
            }
        }
        // Descend into anonymous members.
        for (i, f) in rec.fields.iter().enumerate() {
            if f.anonymous {
                if let TypeKind::Record(inner) = self.kind(self.strip_arrays(f.ty)) {
                    if let Some(mut rest) = self.resolve_member(*inner, name) {
                        let mut path = vec![i as u32];
                        path.append(&mut rest);
                        return Some(path);
                    }
                }
            }
        }
        None
    }

    /// Renders `ty` for diagnostics, e.g. `"struct S *"`.
    pub fn display(&self, ty: TypeId) -> String {
        match self.kind(ty) {
            TypeKind::Void => "void".into(),
            TypeKind::Int(k) => format!("{k:?}").to_lowercase(),
            TypeKind::Float(k) => format!("{k:?}").to_lowercase(),
            TypeKind::Enum(tag) => match tag {
                Some(t) => format!("enum {t}"),
                None => "enum <anon>".into(),
            },
            TypeKind::Pointer(p) => format!("{} *", self.display(*p)),
            TypeKind::Array(e, n) => match n {
                Some(n) => format!("{}[{n}]", self.display(*e)),
                None => format!("{}[]", self.display(*e)),
            },
            TypeKind::Function(sig) => {
                let ps: Vec<_> = sig.params.iter().map(|p| self.display(*p)).collect();
                format!("{}({})", self.display(sig.ret), ps.join(", "))
            }
            TypeKind::Record(r) => {
                let rec = self.record(*r);
                let kw = if rec.is_union { "union" } else { "struct" };
                match &rec.tag {
                    Some(t) => format!("{kw} {t}"),
                    None => format!("{kw} <anon#{}>", r.0),
                }
            }
        }
    }
}

impl fmt::Display for TypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ty{}", self.0)
    }
}

impl fmt::Display for RecordId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rec{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_dedupes() {
        let mut t = TypeTable::new();
        let a = t.int();
        let b = t.intern(TypeKind::Int(IntKind::Int));
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
        let p = t.pointer_to(a);
        assert_ne!(p, a);
        assert_eq!(t.pointer_to(a), p);
    }

    #[test]
    fn records_are_nominal() {
        let mut t = TypeTable::new();
        let (r1, t1) = t.new_record(Some("S".into()), false);
        let (r2, t2) = t.new_record(Some("S".into()), false);
        assert_ne!(r1, r2);
        assert_ne!(t1, t2);
    }

    #[test]
    fn complete_record_and_lookup() {
        let mut t = TypeTable::new();
        let int = t.int();
        let (rid, _) = t.new_record(Some("S".into()), false);
        t.complete_record(
            rid,
            vec![
                Field {
                    name: "a".into(),
                    ty: int,
                    anonymous: false,
                },
                Field {
                    name: "b".into(),
                    ty: int,
                    anonymous: false,
                },
            ],
        );
        assert!(t.record(rid).complete);
        assert_eq!(t.field_index(rid, "b"), Some(1));
        assert_eq!(t.field_index(rid, "zz"), None);
        assert_eq!(t.resolve_member(rid, "a"), Some(vec![0]));
    }

    #[test]
    #[should_panic(expected = "completed twice")]
    fn double_complete_panics() {
        let mut t = TypeTable::new();
        let (rid, _) = t.new_record(None, false);
        t.complete_record(rid, vec![]);
        t.complete_record(rid, vec![]);
    }

    #[test]
    fn anonymous_member_resolution() {
        let mut t = TypeTable::new();
        let int = t.int();
        let (inner, inner_ty) = t.new_record(None, false);
        t.complete_record(
            inner,
            vec![Field {
                name: "x".into(),
                ty: int,
                anonymous: false,
            }],
        );
        let (outer, _) = t.new_record(Some("O".into()), false);
        t.complete_record(
            outer,
            vec![
                Field {
                    name: "__anon0".into(),
                    ty: inner_ty,
                    anonymous: true,
                },
                Field {
                    name: "y".into(),
                    ty: int,
                    anonymous: false,
                },
            ],
        );
        assert_eq!(t.resolve_member(outer, "x"), Some(vec![0, 0]));
        assert_eq!(t.resolve_member(outer, "y"), Some(vec![1]));
    }

    #[test]
    fn strip_arrays_and_helpers() {
        let mut t = TypeTable::new();
        let int = t.int();
        let a = t.array_of(int, Some(3));
        let aa = t.array_of(a, Some(2));
        assert_eq!(t.strip_arrays(aa), int);
        let p = t.pointer_to(int);
        assert!(t.is_pointer(p));
        assert_eq!(t.pointee(p), Some(int));
        assert_eq!(t.pointee(int), None);
    }

    #[test]
    fn display_rendering() {
        let mut t = TypeTable::new();
        let int = t.int();
        let p = t.pointer_to(int);
        assert_eq!(t.display(p), "int *");
        let (rid, st) = t.new_record(Some("S".into()), false);
        t.complete_record(rid, vec![]);
        assert_eq!(t.display(st), "struct S");
        let arr = t.array_of(int, Some(4));
        assert_eq!(t.display(arr), "int[4]");
    }
}
