//! The points-to fact store.
//!
//! Facts are edges `pointsTo(src, tgt)` between normalized [`Loc`]s. The
//! store owns an interner mapping each distinct `Loc` to a dense
//! [`LocId`], and keeps one append-ordered target list per source id plus
//! a global edge set for O(1) dedup. Append order is what makes the
//! solver's *difference propagation* work: a subscriber remembers how far
//! into a target list it has read (its cursor) and `targets_from` hands it
//! exactly the facts added since, each drained once.
//!
//! The target lists, and the per-object lists of source locations, live in
//! two [`ListArena`]s: one flat buffer each, not one heap block per key.
//! Sealing a finished store drops the edge set and compacts both arenas,
//! so a cached result holds a fixed number of heap blocks however many
//! sources it has.
//!
//! The `Loc`-keyed query API of the original `HashMap<Loc, BTreeSet<Loc>>`
//! store is preserved on top of the id layer, so clients (the driver, the
//! figure benches, MOD/REF) are unchanged.

use crate::arena::ListArena;
use crate::loc::{Loc, LocId};
use structcast_ir::ObjId;
use structcast_types::idhash::{IdHashMap, IdHashSet};

/// A set of `pointsTo` facts with source-object indexing and dense
/// location interning.
#[derive(Debug, Clone, Default)]
pub struct FactStore {
    /// `Loc` → dense id.
    intern: IdHashMap<Loc, LocId>,
    /// Reverse side table: id → `Loc` (ids are indices).
    locs: Vec<Loc>,
    /// Per-source target list in *append order*, deduplicated via
    /// `edge_set`. Keyed by source `LocId`.
    targets: ListArena<LocId>,
    /// All `(src, tgt)` pairs, packed as `src << 32 | tgt`.
    edge_set: IdHashSet<u64>,
    /// Source locations that have at least one fact, keyed by object, in
    /// first-fact order.
    sources_by_obj: ListArena<LocId>,
    edges: usize,
}

impl FactStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        FactStore::default()
    }

    /// Creates an empty store with room for `locs` locations and `edges`
    /// facts.
    pub(crate) fn with_capacity(locs: usize, edges: usize) -> Self {
        FactStore {
            intern: IdHashMap::with_capacity_and_hasher(locs, Default::default()),
            locs: Vec::with_capacity(locs),
            targets: ListArena::with_capacity(locs, edges),
            edge_set: IdHashSet::with_capacity_and_hasher(edges, Default::default()),
            ..FactStore::default()
        }
    }

    // ----- interner -----

    /// Interns `loc`, returning its dense id. Ids are assigned in first-use
    /// order and are stable for the lifetime of the store (one solver run).
    pub fn intern(&mut self, loc: Loc) -> LocId {
        if let Some(&id) = self.intern.get(&loc) {
            return id;
        }
        let id = LocId(self.locs.len() as u32);
        self.intern.insert(loc, id);
        self.locs.push(loc);
        id
    }

    /// The id of `loc`, if it has been interned.
    pub fn try_id(&self, loc: &Loc) -> Option<LocId> {
        self.intern.get(loc).copied()
    }

    /// The location behind an id (reverse side table).
    pub fn loc(&self, id: LocId) -> &Loc {
        &self.locs[id.index()]
    }

    /// The containing object of an interned location.
    pub fn obj_of(&self, id: LocId) -> ObjId {
        self.locs[id.index()].obj
    }

    /// Number of interned locations.
    pub fn num_locs(&self) -> usize {
        self.locs.len()
    }

    // ----- id-level fact API (the solver's hot path) -----

    /// Records `pointsTo(src, tgt)` by id. Returns true if the fact is new.
    pub fn insert_ids(&mut self, src: LocId, tgt: LocId) -> bool {
        if self.edge_set.len() != self.edges {
            self.rebuild_edge_set();
        }
        let key = ((src.0 as u64) << 32) | tgt.0 as u64;
        if !self.edge_set.insert(key) {
            return false;
        }
        self.edges += 1;
        if self.targets.len_of(src.index()) == 0 {
            let obj = self.locs[src.index()].obj;
            self.sources_by_obj.push(obj.0 as usize, src);
        }
        self.targets.push(src.index(), tgt);
        true
    }

    /// Drops the dedup set, about a third of the store's memory, and
    /// compacts the lists once a solve is finished and the store is only
    /// read; a later insert rebuilds the set from the target lists.
    pub(crate) fn seal(&mut self) {
        self.edge_set = IdHashSet::default();
        self.targets.seal();
        self.sources_by_obj.seal();
    }

    fn rebuild_edge_set(&mut self) {
        let edges: IdHashSet<u64> = self
            .iter_ids()
            .map(|(s, t)| ((s.0 as u64) << 32) | t.0 as u64)
            .collect();
        self.edge_set = edges;
    }

    /// Number of targets of `src` so far (a subscriber's cursor bound).
    pub fn targets_len(&self, src: LocId) -> usize {
        self.targets.len_of(src.index())
    }

    /// The `k`-th target of `src` in append order.
    pub fn target_at(&self, src: LocId, k: usize) -> LocId {
        self.targets.get(src.index())[k]
    }

    /// The targets of `src` added at or after position `from` — the
    /// *delta* a subscriber whose cursor is `from` has not consumed yet.
    pub fn targets_from(&self, src: LocId, from: usize) -> &[LocId] {
        &self.targets.get(src.index())[from..]
    }

    // ----- Loc-level API (queries and clients; unchanged surface) -----

    /// Records `pointsTo(src, tgt)`. Returns true if the fact is new.
    pub fn insert(&mut self, src: Loc, tgt: Loc) -> bool {
        let s = self.intern(src);
        let t = self.intern(tgt);
        self.insert_ids(s, t)
    }

    /// The points-to set of `src` (empty if none), in append order.
    pub fn points_to(&self, src: &Loc) -> impl Iterator<Item = &Loc> + '_ {
        self.try_id(src)
            .into_iter()
            .flat_map(move |id| self.targets.get(id.index()).iter().map(|t| self.loc(*t)))
    }

    /// Number of targets of `src`.
    pub fn points_to_len(&self, src: &Loc) -> usize {
        self.try_id(src).map_or(0, |id| self.targets_len(id))
    }

    /// A snapshot of the points-to set of `src`, sorted by location (the
    /// order the original `BTreeSet`-backed store produced).
    pub fn points_to_vec(&self, src: &Loc) -> Vec<Loc> {
        let mut v: Vec<Loc> = self.points_to(src).cloned().collect();
        v.sort();
        v
    }

    /// All source locations within `obj` that currently have facts, in
    /// first-fact order.
    pub fn sources_in(&self, obj: ObjId) -> impl Iterator<Item = &Loc> + '_ {
        self.sources_by_obj
            .get(obj.0 as usize)
            .iter()
            .map(|&i| &self.locs[i.index()])
    }

    /// Total number of points-to edges (Figure 6's metric).
    pub fn len(&self) -> usize {
        self.edges
    }

    /// True if no facts have been recorded.
    pub fn is_empty(&self) -> bool {
        self.edges == 0
    }

    /// Iterates over all `(src, tgt)` edges.
    pub fn iter(&self) -> impl Iterator<Item = (&Loc, &Loc)> + '_ {
        self.iter_ids()
            .map(move |(s, t)| (self.loc(s), self.loc(t)))
    }

    /// Iterates over all edges by id, in [`iter`](FactStore::iter) order.
    pub(crate) fn iter_ids(&self) -> impl Iterator<Item = (LocId, LocId)> + '_ {
        (0..self.targets.num_keys()).flat_map(move |s| {
            self.targets
                .get(s)
                .iter()
                .map(move |&t| (LocId(s as u32), t))
        })
    }

    /// All distinct source locations with at least one fact.
    pub fn sources(&self) -> impl Iterator<Item = &Loc> + '_ {
        (0..self.targets.num_keys())
            .filter(|&s| self.targets.len_of(s) > 0)
            .map(move |s| &self.locs[s])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loc::FieldRep;

    fn l(o: u32, off: u64) -> Loc {
        Loc::off(ObjId(o), off)
    }

    #[test]
    fn insert_dedupes_and_counts() {
        let mut fs = FactStore::new();
        assert!(fs.insert(l(0, 0), l(1, 0)));
        assert!(!fs.insert(l(0, 0), l(1, 0)));
        assert!(fs.insert(l(0, 0), l(2, 4)));
        assert_eq!(fs.len(), 2);
        assert_eq!(fs.points_to_len(&l(0, 0)), 2);
        assert_eq!(fs.points_to_len(&l(9, 0)), 0);
        assert!(!fs.is_empty());
    }

    #[test]
    fn range_queries() {
        let mut fs = FactStore::new();
        fs.insert(l(0, 8), l(1, 0));
        fs.insert(l(0, 0), l(1, 0));
        fs.insert(l(2, 4), l(1, 0));
        fs.insert(l(0, 8), l(2, 0));
        fs.insert(l(0, 4), l(1, 0));
        // The Offsets instance's byte-range walk over one object.
        let in_range: Vec<Loc> = fs
            .sources_in(ObjId(0))
            .filter(|s| matches!(s.field, FieldRep::Off(o) if o < 8))
            .copied()
            .collect();
        assert_eq!(in_range, vec![l(0, 0), l(0, 4)]);
        let all: Vec<Loc> = fs.sources_in(ObjId(0)).copied().collect();
        assert_eq!(all, vec![l(0, 8), l(0, 0), l(0, 4)], "first-fact order");
        assert_eq!(fs.sources_in(ObjId(2)).count(), 1);
        assert_eq!(fs.sources_in(ObjId(7)).count(), 0);
    }

    #[test]
    fn range_query_skips_path_locs() {
        let mut fs = FactStore::new();
        fs.insert(Loc::leaf(ObjId(0), 0), l(1, 0));
        let offsets = fs
            .sources_in(ObjId(0))
            .filter(|s| matches!(s.field, FieldRep::Off(_)))
            .count();
        assert_eq!(offsets, 0);
        assert_eq!(fs.sources_in(ObjId(0)).count(), 1);
    }

    #[test]
    fn a_sealed_store_still_dedupes_new_facts() {
        let mut fs = FactStore::new();
        fs.insert(l(0, 0), l(1, 0));
        fs.insert(l(0, 0), l(2, 0));
        fs.seal();
        assert_eq!(fs.points_to_len(&l(0, 0)), 2);
        assert!(!fs.insert(l(0, 0), l(1, 0)), "sealed facts stay known");
        assert!(fs.insert(l(3, 0), l(1, 0)));
        assert_eq!(fs.len(), 3);
        assert_eq!(fs.iter().count(), 3);
    }

    #[test]
    fn a_sealed_store_appends_in_order() {
        let mut fs = FactStore::new();
        fs.insert(l(0, 0), l(1, 0));
        fs.insert(l(3, 0), l(1, 0));
        fs.insert(l(0, 0), l(2, 0));
        fs.seal();
        assert!(fs.insert(l(0, 0), l(4, 0)));
        assert!(!fs.insert(l(0, 0), l(2, 0)));
        let pts: Vec<Loc> = fs.points_to(&l(0, 0)).copied().collect();
        assert_eq!(pts, vec![l(1, 0), l(2, 0), l(4, 0)]);
        let edges: Vec<(Loc, Loc)> = fs.iter().map(|(s, t)| (*s, *t)).collect();
        assert_eq!(edges[3], (l(3, 0), l(1, 0)), "source order is id order");
    }

    #[test]
    fn edge_iteration() {
        let mut fs = FactStore::new();
        fs.insert(l(0, 0), l(1, 0));
        fs.insert(l(0, 0), l(2, 0));
        fs.insert(l(3, 0), l(1, 0));
        assert_eq!(fs.iter().count(), 3);
        assert_eq!(fs.sources().count(), 2);
    }

    #[test]
    fn interner_ids_are_dense_and_stable() {
        let mut fs = FactStore::new();
        let a = fs.intern(l(0, 0));
        let b = fs.intern(l(1, 4));
        let a2 = fs.intern(l(0, 0));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(fs.num_locs(), 2);
        assert_eq!(fs.loc(a), &l(0, 0));
        assert_eq!(fs.obj_of(b), ObjId(1));
        assert_eq!(fs.try_id(&l(1, 4)), Some(b));
        assert_eq!(fs.try_id(&l(9, 9)), None);
    }

    #[test]
    fn delta_drains_exactly_once_per_cursor_advance() {
        // Simulates one subscriber's wake cycle: read the delta, advance
        // the cursor to the list length, and verify nothing is re-delivered
        // until new facts arrive.
        let mut fs = FactStore::new();
        let src = fs.intern(l(0, 0));
        let t1 = fs.intern(l(1, 0));
        let t2 = fs.intern(l(2, 0));
        let t3 = fs.intern(l(3, 0));

        assert!(fs.insert_ids(src, t1));
        assert!(fs.insert_ids(src, t2));
        let mut cursor = 0usize;

        // First wake: the delta is everything so far.
        assert_eq!(fs.targets_from(src, cursor), &[t1, t2]);
        cursor = fs.targets_len(src);

        // Drained: a second read at the advanced cursor delivers nothing.
        assert!(fs.targets_from(src, cursor).is_empty());

        // Duplicate insert produces no delta...
        assert!(!fs.insert_ids(src, t1));
        assert!(fs.targets_from(src, cursor).is_empty());

        // ...a genuinely new fact produces exactly that fact, once.
        assert!(fs.insert_ids(src, t3));
        assert_eq!(fs.targets_from(src, cursor), &[t3]);
        cursor = fs.targets_len(src);
        assert!(fs.targets_from(src, cursor).is_empty());
        assert_eq!(fs.target_at(src, 2), t3);
    }
}
