//! Shape tables: each type's flattened structure, built once per
//! [`TypeTable`] and read by the analysis instead of re-walking the type.
//!
//! The portable instances name a position inside an object by its **leaf
//! index**: where its normalized field path falls among the type's
//! [`leaves`](crate::leaves), in declaration order. This is the field-index
//! scheme of Pearce, Kelly and Hankin ("Efficient field-sensitive pointer
//! analysis of C", TOPLAS 2007). Leaves are enumerated depth-first, so
//! within one type leaf order is the lexicographic order of the leaf paths.
//!
//! Three tables answer the paper's §4.3 operations without a type walk:
//!
//! * per record, the leaf index at which each field starts, so
//!   [`TypeTable::leaf_of_path`] (the portable `normalize`) adds one entry
//!   per path step;
//! * per type, a [`Shape`]: every leaf's path and type, the nodes each leaf
//!   is the first leaf of (the candidates `δ` of `lookup`, with their types
//!   and end leaves), and the leaf range of the outermost array enclosing
//!   each leaf (footnote 6's wrap-around), so `followingFields` is two index
//!   ranges;
//! * per [`Layout`] in use, a [`LayoutTable`]: every type's size and
//!   alignment and every record's field offsets, for the Offsets instance.
//!
//! Every table is built lazily, at most once per type table, and dropped
//! when the table is mutated. The path-walking functions in `fields.rs`
//! and the `Layout` methods remain as the reference the tables are tested
//! against.

use crate::layout::Layout;
use crate::repr::{RecordId, TypeId, TypeKind, TypeTable};
use std::iter::Chain;
use std::ops::Range;
use std::sync::OnceLock;

/// The lazily built tables of one [`TypeTable`].
#[derive(Default)]
pub(crate) struct Tables {
    leaves: OnceLock<RecordLeaves>,
    /// One slot per type id; boxed, so an untouched type costs one word.
    shapes: OnceLock<Box<[OnceLock<Box<Shape>>]>>,
    layouts: LayoutSlot,
}

/// A clone starts empty: the tables are a cache of the type table's
/// contents and are rebuilt on first use.
impl Clone for Tables {
    fn clone(&self) -> Self {
        Tables::default()
    }
}

impl std::fmt::Debug for Tables {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Tables { .. }")
    }
}

/// Per-record leaf counts and field start indices.
struct RecordLeaves {
    /// Leaves of each record's type (1 for a union, an incomplete or an
    /// empty record, which are leaves themselves).
    count: Vec<u32>,
    /// `starts[start_at[r] + i]`: leaves before field `i` of record `r`.
    start_at: Vec<u32>,
    starts: Vec<u32>,
}

/// A record whose fields are separate positions: a complete, non-empty
/// struct. Unions, incomplete and empty records are single leaves.
fn expanded(table: &TypeTable, rid: RecordId) -> bool {
    let rec = table.record(rid);
    !rec.is_union && rec.complete && !rec.fields.is_empty()
}

impl RecordLeaves {
    fn build(table: &TypeTable) -> RecordLeaves {
        let n = table.record_count();
        let mut count: Vec<Option<u32>> = vec![None; n];
        for r in 0..n {
            record_count(table, RecordId(r as u32), &mut count);
        }
        let count: Vec<u32> = count
            .into_iter()
            .map(|c| c.expect("every record counted"))
            .collect();
        let mut start_at = Vec::with_capacity(n + 1);
        let mut starts = Vec::new();
        for r in 0..n {
            start_at.push(starts.len() as u32);
            let rid = RecordId(r as u32);
            if expanded(table, rid) {
                let mut at = 0u32;
                for f in &table.record(rid).fields {
                    starts.push(at);
                    at = at.saturating_add(type_count(table, f.ty, &count));
                }
            }
        }
        start_at.push(starts.len() as u32);
        return RecordLeaves {
            count,
            start_at,
            starts,
        };

        fn record_count(table: &TypeTable, rid: RecordId, memo: &mut Vec<Option<u32>>) -> u32 {
            if let Some(c) = memo[rid.0 as usize] {
                return c;
            }
            let c = if expanded(table, rid) {
                let mut c = 0u32;
                for f in &table.record(rid).fields {
                    let fc = match table.kind(table.strip_arrays(f.ty)) {
                        TypeKind::Record(r) => record_count(table, *r, memo),
                        _ => 1,
                    };
                    c = c.saturating_add(fc);
                }
                c
            } else {
                1
            };
            memo[rid.0 as usize] = Some(c);
            c
        }

        fn type_count(table: &TypeTable, ty: TypeId, count: &[u32]) -> u32 {
            match table.kind(table.strip_arrays(ty)) {
                TypeKind::Record(r) => count[r.0 as usize],
                _ => 1,
            }
        }
    }
}

/// A position `t.δ` listed under the leaf it normalizes to (its first
/// leaf): one of the candidates of the paper's `lookup`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Node {
    /// The length of `δ`.
    pub depth: u32,
    /// One past the last leaf under the node.
    pub end: u32,
    /// The type at `δ`, array layers kept (as
    /// [`type_of_path`](crate::type_of_path) returns it).
    pub ty: TypeId,
}

/// The flattened structure of one type: its leaves in declaration order
/// and, for each leaf, the nodes it is the first leaf of and the leaves it
/// can wrap to inside an array.
#[derive(Debug, Default)]
pub struct Shape {
    /// Leaf `i`'s path is `steps[path_at[i]..path_at[i + 1]]`.
    steps: Vec<u32>,
    path_at: Vec<u32>,
    /// Leaf `i`'s type, array layers kept.
    leaf_ty: Vec<TypeId>,
    /// First leaf of the outermost array enclosing leaf `i` (`i` itself
    /// when no array encloses it).
    wrap: Vec<u32>,
    /// Every node in preorder. The nodes whose first leaf is `i` are the
    /// run `nodes[node_at[i]..node_at[i + 1]]`, outermost first, ending
    /// with the leaf itself.
    nodes: Vec<Node>,
    node_at: Vec<u32>,
}

impl Shape {
    fn build(table: &TypeTable, ty: TypeId) -> Shape {
        let mut s = Shape {
            path_at: vec![0],
            node_at: vec![0],
            ..Shape::default()
        };
        s.visit(table, ty, &mut Vec::new(), None);
        s
    }

    fn visit(&mut self, table: &TypeTable, ty: TypeId, path: &mut Vec<u32>, wrap: Option<u32>) {
        let first = self.leaf_ty.len() as u32;
        let wrap = wrap.or_else(|| matches!(table.kind(ty), TypeKind::Array(..)).then_some(first));
        let node = self.nodes.len();
        self.nodes.push(Node {
            depth: path.len() as u32,
            end: first,
            ty,
        });
        match table.kind(table.strip_arrays(ty)) {
            TypeKind::Record(rid) if expanded(table, *rid) => {
                for (i, f) in table.record(*rid).fields.iter().enumerate() {
                    path.push(i as u32);
                    self.visit(table, f.ty, path, wrap);
                    path.pop();
                }
            }
            _ => {
                self.steps.extend_from_slice(path);
                self.path_at.push(self.steps.len() as u32);
                self.leaf_ty.push(ty);
                self.wrap.push(wrap.unwrap_or(first));
                self.node_at.push(self.nodes.len() as u32);
            }
        }
        self.nodes[node].end = self.leaf_ty.len() as u32;
    }

    /// Number of leaves (at least 1).
    pub fn len(&self) -> u32 {
        self.leaf_ty.len() as u32
    }

    /// Always false: every type has at least one leaf.
    pub fn is_empty(&self) -> bool {
        self.leaf_ty.is_empty()
    }

    /// Leaf `leaf`'s field path.
    pub fn path(&self, leaf: u32) -> &[u32] {
        let i = leaf as usize;
        &self.steps[self.path_at[i] as usize..self.path_at[i + 1] as usize]
    }

    /// The leaf whose path is exactly `steps`, if there is one. Leaf order
    /// is path order, so this is a binary search.
    pub fn leaf_at(&self, steps: &[u32]) -> Option<u32> {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.path(mid).cmp(steps) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(mid),
            }
        }
        None
    }

    /// Leaf `leaf`'s type, array layers kept.
    pub fn leaf_type(&self, leaf: u32) -> TypeId {
        self.leaf_ty[leaf as usize]
    }

    /// The nodes whose normalized form is `leaf`, innermost (the leaf
    /// itself) first: [`enclosing_candidates`](crate::enclosing_candidates)
    /// with each candidate's type and end leaf.
    pub fn candidates(&self, leaf: u32) -> impl Iterator<Item = &Node> + '_ {
        let i = leaf as usize;
        self.nodes[self.node_at[i] as usize..self.node_at[i + 1] as usize]
            .iter()
            .rev()
    }

    /// The paper's `followingFields` of `leaf`: every leaf from `leaf` on,
    /// then the earlier leaves of the outermost array enclosing it
    /// (footnote 6), in [`following_leaves`](crate::following_leaves)
    /// order.
    pub fn following(&self, leaf: u32) -> Chain<Range<u32>, Range<u32>> {
        (leaf..self.len()).chain(self.wrap[leaf as usize]..leaf)
    }

    /// The number of leaves [`Shape::following`] yields.
    pub fn following_len(&self, leaf: u32) -> usize {
        (self.len() - self.wrap[leaf as usize]) as usize
    }
}

/// A type's sizes and offsets under one [`Layout`], for every type of the
/// table it was built from.
#[derive(Debug)]
pub struct LayoutTable {
    layout: Layout,
    /// `(sizeof, alignof)` per type id.
    size_align: Vec<(u64, u64)>,
    /// `field_off[off_at[r] + i]`: offset of field `i` of record `r`.
    off_at: Vec<u32>,
    field_off: Vec<u64>,
    /// Per type id, the offsets its pointer-arithmetic spread ranges over,
    /// built on first use.
    spread: Box<[OnceLock<Box<[u64]>>]>,
}

impl LayoutTable {
    fn build(table: &TypeTable, layout: Layout) -> LayoutTable {
        let mut memo: Vec<Option<(u64, u64)>> = vec![None; table.len()];
        let size_align: Vec<(u64, u64)> = (0..table.len())
            .map(|i| measure(table, &layout, TypeId(i as u32), &mut memo))
            .collect();
        let mut off_at = Vec::with_capacity(table.record_count() + 1);
        let mut field_off = Vec::new();
        for r in 0..table.record_count() {
            off_at.push(field_off.len() as u32);
            let rec = table.record(RecordId(r as u32));
            let mut offset = 0u64;
            for f in &rec.fields {
                let (fs, fa) = size_align[f.ty.0 as usize];
                if rec.is_union {
                    field_off.push(0);
                } else {
                    offset = round_up(offset, fa);
                    field_off.push(offset);
                    offset = offset.saturating_add(fs);
                }
            }
        }
        off_at.push(field_off.len() as u32);
        return LayoutTable {
            layout,
            size_align,
            off_at,
            field_off,
            spread: (0..table.len()).map(|_| OnceLock::new()).collect(),
        };

        fn measure(
            table: &TypeTable,
            layout: &Layout,
            ty: TypeId,
            memo: &mut Vec<Option<(u64, u64)>>,
        ) -> (u64, u64) {
            if let Some(sa) = memo[ty.0 as usize] {
                return sa;
            }
            let sa = match table.kind(ty) {
                TypeKind::Array(elem, n) => {
                    let (es, ea) = measure(table, layout, *elem, memo);
                    (es.saturating_mul(n.unwrap_or(1).max(1)), ea)
                }
                TypeKind::Record(rid) => {
                    let rec = table.record(*rid);
                    if !rec.complete {
                        (0, 1)
                    } else {
                        let mut size = 0u64;
                        let mut align = 1u64;
                        for f in &rec.fields {
                            let (fs, fa) = measure(table, layout, f.ty, memo);
                            size = if rec.is_union {
                                size.max(fs)
                            } else {
                                round_up(size, fa).saturating_add(fs)
                            };
                            align = align.max(fa);
                        }
                        (round_up(size, align), align)
                    }
                }
                _ => layout.size_align(table, ty),
            };
            memo[ty.0 as usize] = Some(sa);
            sa
        }
    }

    /// `sizeof(ty)`, as [`Layout::size_of`] computes it.
    pub fn size_of(&self, ty: TypeId) -> u64 {
        self.size_align[ty.0 as usize].0
    }

    /// `alignof(ty)`, as [`Layout::align_of`] computes it.
    pub fn align_of(&self, ty: TypeId) -> u64 {
        self.size_align[ty.0 as usize].1
    }

    /// The offsets of `rid`'s fields, in declaration order (empty while
    /// the record is incomplete).
    pub fn field_offsets(&self, rid: RecordId) -> &[u64] {
        let r = rid.0 as usize;
        &self.field_off[self.off_at[r] as usize..self.off_at[r + 1] as usize]
    }

    /// [`Layout::offset_of_path`]: the sum of the field offsets along
    /// `steps`, array layers stripped.
    ///
    /// # Panics
    ///
    /// Panics if a step enters a non-record type or names no field.
    pub fn offset_of_path(&self, table: &TypeTable, ty: TypeId, steps: &[u32]) -> u64 {
        let mut cur = table.strip_arrays(ty);
        let mut off = 0;
        for &i in steps {
            let rid = table
                .as_record(cur)
                .expect("field path step into non-record type");
            off += self.field_offsets(rid)[i as usize];
            cur = table.strip_arrays(table.record(rid).fields[i as usize].ty);
        }
        off
    }

    /// [`Layout::canonical_offset`] read from the table: an offset inside
    /// an array folds into its first element, recursively.
    pub fn canonical_offset(&self, table: &TypeTable, ty: TypeId, off: u64) -> u64 {
        match table.kind(ty) {
            TypeKind::Array(elem, len) => {
                let es = self.size_of(*elem);
                if es == 0 {
                    return off;
                }
                if let Some(n) = len {
                    if off >= es.saturating_mul((*n).max(1)) {
                        return off;
                    }
                }
                self.canonical_offset(table, *elem, off % es)
            }
            TypeKind::Record(rid) => {
                let rec = table.record(*rid);
                if rec.is_union || !rec.complete {
                    return off;
                }
                // Struct fields do not overlap and their offsets never
                // decrease, so only the last field starting at or before
                // `off` can contain it.
                let offs = self.field_offsets(*rid);
                let i = offs.partition_point(|&fo| fo <= off);
                if i == 0 {
                    return off;
                }
                let (fo, fty) = (offs[i - 1], rec.fields[i - 1].ty);
                if off < fo.saturating_add(self.size_of(fty)) {
                    fo + self.canonical_offset(table, fty, off - fo)
                } else {
                    off
                }
            }
            _ => off,
        }
    }

    /// The offsets a pointer into an object of type `ty` can reach by
    /// arithmetic: 0 and the offset of every scalar leaf
    /// ([`Layout::leaf_offsets`]), sorted and without repeats.
    pub fn spread_offsets(&self, table: &TypeTable, ty: TypeId) -> &[u64] {
        self.spread[ty.0 as usize].get_or_init(|| {
            let mut offs = vec![0];
            self.collect_leaf_offsets(table, ty, 0, &mut offs);
            offs.sort_unstable();
            offs.dedup();
            offs.into_boxed_slice()
        })
    }

    fn collect_leaf_offsets(&self, table: &TypeTable, ty: TypeId, base: u64, out: &mut Vec<u64>) {
        match table.kind(ty) {
            TypeKind::Array(elem, _) => self.collect_leaf_offsets(table, *elem, base, out),
            TypeKind::Record(rid) => {
                let rec = table.record(*rid);
                if !rec.complete || rec.fields.is_empty() {
                    out.push(base);
                    return;
                }
                for (f, &fo) in rec.fields.iter().zip(self.field_offsets(*rid)) {
                    self.collect_leaf_offsets(table, f.ty, base + fo, out);
                }
            }
            _ => out.push(base),
        }
    }
}

fn round_up(v: u64, align: u64) -> u64 {
    v.div_ceil(align).saturating_mul(align)
}

/// One layout table per layout in use, in an append-only chain so a
/// reader holds a plain reference and never takes a lock.
#[derive(Default)]
struct LayoutSlot {
    table: OnceLock<LayoutTable>,
    next: OnceLock<Box<LayoutSlot>>,
}

impl TypeTable {
    fn record_leaves(&self) -> &RecordLeaves {
        self.tables.leaves.get_or_init(|| RecordLeaves::build(self))
    }

    /// Drops every table built so far; called by each mutation. Lowering
    /// interns types one by one before any table exists, so the common
    /// call finds nothing to drop.
    pub(crate) fn clear_tables(&mut self) {
        let t = &self.tables;
        if t.leaves.get().is_some() || t.shapes.get().is_some() || t.layouts.table.get().is_some() {
            self.tables = Tables::default();
        }
    }

    /// The number of leaves of `ty` (at least 1).
    pub fn leaf_count(&self, ty: TypeId) -> u32 {
        match self.kind(self.strip_arrays(ty)) {
            TypeKind::Record(rid) => self.record_leaves().count[rid.0 as usize],
            _ => 1,
        }
    }

    /// The number of leaves before field `field` of a complete, non-empty
    /// struct `rid`.
    ///
    /// # Panics
    ///
    /// Panics if `rid` is a union, incomplete or empty, or has no such
    /// field.
    pub fn field_leaf_start(&self, rid: RecordId, field: u32) -> u32 {
        let rl = self.record_leaves();
        let r = rid.0 as usize;
        let at = &rl.starts[rl.start_at[r] as usize..rl.start_at[r + 1] as usize];
        at[field as usize]
    }

    /// The portable `normalize` as a leaf index: the leaf of `ty` that
    /// [`normalize_path`](crate::normalize_path) maps `steps` to. Steps
    /// past a union, a scalar or a missing field are dropped, and a
    /// structure normalizes to its first leaf.
    pub fn leaf_of_path(&self, ty: TypeId, steps: &[u32]) -> u32 {
        let rl = self.record_leaves();
        let mut cur = self.strip_arrays(ty);
        let mut leaf = 0u32;
        for &i in steps {
            let TypeKind::Record(rid) = self.kind(cur) else {
                break;
            };
            let rec = self.record(*rid);
            if rec.is_union {
                break;
            }
            let Some(f) = rec.fields.get(i as usize) else {
                break;
            };
            let r = rid.0 as usize;
            leaf = leaf.saturating_add(rl.starts[rl.start_at[r] as usize + i as usize]);
            cur = self.strip_arrays(f.ty);
        }
        leaf
    }

    /// The shape table of `ty`, built on first use.
    pub fn shape(&self, ty: TypeId) -> &Shape {
        let shapes = self
            .tables
            .shapes
            .get_or_init(|| (0..self.len()).map(|_| OnceLock::new()).collect());
        shapes[ty.0 as usize].get_or_init(|| Box::new(Shape::build(self, ty)))
    }

    /// The size and offset table of this type table under `layout`, built
    /// on first use.
    pub fn layout_table(&self, layout: &Layout) -> &LayoutTable {
        let mut slot = &self.tables.layouts;
        loop {
            let t = slot
                .table
                .get_or_init(|| LayoutTable::build(self, layout.clone()));
            if t.layout == *layout {
                return t;
            }
            slot = slot.next.get_or_init(Box::default);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::repr::Field;
    use crate::{following_leaves, leaves, normalize_path, FieldPath, Layout, TypeId, TypeTable};

    fn field(name: &str, ty: TypeId) -> Field {
        Field {
            name: name.into(),
            ty,
            anonymous: false,
        }
    }

    /// struct S { int s1; char s2; }; struct A { struct S e[3]; int tail; }
    fn array_struct(t: &mut TypeTable) -> TypeId {
        let int = t.int();
        let ch = t.char();
        let (s, sty) = t.new_record(Some("S".into()), false);
        t.complete_record(s, vec![field("s1", int), field("s2", ch)]);
        let arr = t.array_of(sty, Some(3));
        let (a, aty) = t.new_record(Some("A".into()), false);
        t.complete_record(a, vec![field("e", arr), field("tail", int)]);
        aty
    }

    #[test]
    fn leaves_paths_and_following_match_the_path_walk() {
        let mut t = TypeTable::new();
        let aty = array_struct(&mut t);
        let shape = t.shape(aty);
        let paths = leaves(&t, aty);
        assert_eq!(shape.len() as usize, paths.len());
        for (i, p) in paths.iter().enumerate() {
            assert_eq!(shape.path(i as u32), p.steps());
            assert_eq!(shape.leaf_at(p.steps()), Some(i as u32));
            assert_eq!(t.leaf_of_path(aty, p.steps()) as usize, i);
            let want: Vec<u32> = following_leaves(&t, aty, p)
                .iter()
                .map(|l| t.leaf_of_path(aty, l.steps()))
                .collect();
            assert_eq!(shape.following(i as u32).collect::<Vec<_>>(), want);
        }
        // normalize(a) = a.e.s1, a.e = leaf 0, a.tail = leaf 2.
        assert_eq!(t.leaf_of_path(aty, &[]), 0);
        assert_eq!(t.leaf_of_path(aty, &[1]), 2);
        assert_eq!(shape.leaf_at(&[0]), None, "a.e is not a leaf");
        let n = normalize_path(&t, aty, &FieldPath::from_steps([0u32]));
        assert_eq!(t.leaf_of_path(aty, n.steps()), 0);
        // Leaf 0 is the first leaf of a, a.e and a.e.s1.
        let depths: Vec<u32> = shape.candidates(0).map(|n| n.depth).collect();
        assert_eq!(depths, vec![2, 1, 0]);
        assert_eq!(shape.candidates(0).last().map(|n| n.end), Some(3));
    }

    #[test]
    fn a_mutation_drops_the_tables() {
        let mut t = TypeTable::new();
        let (r, rty) = t.new_record(Some("R".into()), false);
        assert_eq!(t.leaf_count(rty), 1, "incomplete: one leaf");
        assert_eq!(t.shape(rty).len(), 1);
        let int = t.int();
        t.complete_record(r, vec![field("a", int), field("b", int)]);
        assert_eq!(t.leaf_count(rty), 2);
        assert_eq!(t.shape(rty).len(), 2);
    }

    #[test]
    fn one_table_per_layout() {
        let mut t = TypeTable::new();
        let aty = array_struct(&mut t);
        let (ilp, lp, packed) = (Layout::ilp32(), Layout::lp64(), Layout::packed32());
        for l in [&ilp, &lp, &packed, &ilp] {
            let lt = t.layout_table(l);
            assert_eq!(lt.layout, *l);
            assert_eq!(lt.size_of(aty), l.size_of(&t, aty));
        }
        assert!(std::ptr::eq(t.layout_table(&lp), t.layout_table(&lp)));
        assert!(!std::ptr::eq(t.layout_table(&lp), t.layout_table(&ilp)));
    }
}
