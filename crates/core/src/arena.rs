//! One flat store of growable lists.
//!
//! The solver keeps many small per-key lists: the targets of each source
//! location, the sources of each object, the subscribers of each object
//! and the copy pairs of each statement. A `Vec` per list costs one heap
//! block per key plus one reallocation per doubling. A [`ListArena`] keeps
//! every list of one kind in a single `Vec<T>`, with a `(start, len, cap)`
//! head per key:
//!
//! - a push into a list with spare capacity writes in place;
//! - a full list that is the arena's last chunk grows in place;
//! - any other full list is copied to the arena's end with double the
//!   capacity, leaving its old chunk unused.
//!
//! A position is an index into one list, so it keeps its meaning when the
//! list moves: the solver's cursors and `targets_from` slices are list
//! positions. [`ListArena::seal`] compacts the arena to exactly `len`
//! entries per list in one copy, for a store that is then only read.

/// Capacity a list gets on its first push.
const MIN_CAP: u32 = 4;

/// Where one key's list lives in the arena.
#[derive(Debug, Clone, Copy, Default)]
struct Head {
    start: u32,
    len: u32,
    cap: u32,
}

/// Growable lists of `T`, one per dense key, in one flat store.
#[derive(Debug, Clone)]
pub(crate) struct ListArena<T> {
    data: Vec<T>,
    heads: Vec<Head>,
}

impl<T> Default for ListArena<T> {
    fn default() -> Self {
        ListArena {
            data: Vec::new(),
            heads: Vec::new(),
        }
    }
}

impl<T: Copy> ListArena<T> {
    /// An arena with room for `keys` lists and `items` entries.
    pub fn with_capacity(keys: usize, items: usize) -> Self {
        ListArena {
            data: Vec::with_capacity(items),
            heads: Vec::with_capacity(keys),
        }
    }

    /// One more than the largest key pushed to (keys below it without a
    /// push hold empty lists).
    pub fn num_keys(&self) -> usize {
        self.heads.len()
    }

    /// The list of `key` (empty if nothing was pushed to it).
    pub fn get(&self, key: usize) -> &[T] {
        match self.heads.get(key) {
            Some(h) => &self.data[h.start as usize..(h.start + h.len) as usize],
            None => &[],
        }
    }

    /// The list of `key`, mutably.
    pub fn get_mut(&mut self, key: usize) -> &mut [T] {
        match self.heads.get(key) {
            Some(h) => &mut self.data[h.start as usize..(h.start + h.len) as usize],
            None => &mut [],
        }
    }

    /// Length of the list of `key`.
    pub fn len_of(&self, key: usize) -> usize {
        self.heads.get(key).map_or(0, |h| h.len as usize)
    }

    /// Appends `v` to the list of `key`.
    pub fn push(&mut self, key: usize, v: T) {
        if key >= self.heads.len() {
            self.heads.resize(key + 1, Head::default());
        }
        let end = self.data.len();
        let h = &mut self.heads[key];
        if h.len == h.cap {
            let cap = h.cap.saturating_mul(2).max(MIN_CAP);
            // The last chunk grows in place; any other moves to the end.
            let in_place = (h.start + h.cap) as usize == end;
            let start = if in_place { h.start as usize } else { end };
            let new_end = start + cap as usize;
            assert!(
                new_end <= u32::MAX as usize,
                "list arena positions overflow u32"
            );
            if !in_place {
                let (s, l) = (h.start as usize, h.len as usize);
                self.data.extend_from_within(s..s + l);
                h.start = start as u32;
            }
            // The new slots are filled with `v`, which the first of them
            // holds.
            self.data.resize(new_end, v);
            h.cap = cap;
        }
        self.data[(h.start + h.len) as usize] = v;
        h.len += 1;
    }

    /// Compacts the arena to exactly the lists' entries, in key order, and
    /// drops spare capacity. A later push moves its list to the end.
    pub fn seal(&mut self) {
        let total = self.heads.iter().map(|h| h.len as usize).sum();
        let mut data = Vec::with_capacity(total);
        for h in &mut self.heads {
            let (s, l) = (h.start as usize, h.len as usize);
            // Compacted positions are below the old ones: they fit.
            h.start = data.len() as u32;
            h.cap = h.len;
            data.extend_from_slice(&self.data[s..s + l]);
        }
        self.data = data;
        self.heads.shrink_to_fit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relocation_keeps_append_order_and_positions() {
        let mut a = ListArena::default();
        // Interleave two lists so neither stays the last chunk.
        for i in 0..20u32 {
            a.push(0, i);
            a.push(1, 100 + i);
        }
        assert_eq!(a.get(0), (0..20).collect::<Vec<_>>().as_slice());
        assert_eq!(a.get(1), (100..120).collect::<Vec<_>>().as_slice());
        // A cursor taken before a move reads the same delta after it.
        let cursor = a.len_of(0);
        let start = a.heads[0].start;
        for i in 20..40 {
            a.push(0, i);
            a.push(1, 100 + i);
        }
        assert_ne!(a.heads[0].start, start, "list 0 moved");
        assert_eq!(&a.get(0)[cursor..], (20..40).collect::<Vec<_>>().as_slice());
        assert_eq!(a.get(1), (100..140).collect::<Vec<_>>().as_slice());
        assert_eq!(a.get(5), &[] as &[u32]);
        assert_eq!(a.len_of(5), 0);
    }

    #[test]
    fn the_last_chunk_grows_in_place() {
        let mut a = ListArena::default();
        a.push(0, 1u32);
        a.push(1, 1);
        for i in 0..100 {
            a.push(1, i);
        }
        assert_eq!(a.heads[1].start, MIN_CAP, "list 1 never moved");
        assert_eq!(a.data.len(), (MIN_CAP + a.heads[1].cap) as usize);
        assert_eq!(a.len_of(1), 101);
    }

    #[test]
    fn seal_leaves_exactly_the_entries() {
        let mut a = ListArena::default();
        for i in 0..10u32 {
            a.push(i as usize % 3, i);
        }
        a.push(7, 70);
        let before: Vec<Vec<u32>> = (0..8).map(|k| a.get(k).to_vec()).collect();
        a.seal();
        assert_eq!(a.data.len(), 11);
        assert_eq!(a.data.capacity(), 11);
        let after: Vec<Vec<u32>> = (0..8).map(|k| a.get(k).to_vec()).collect();
        assert_eq!(before, after);
        // A sealed list is full; a push moves it and keeps its order.
        a.push(0, 99);
        assert_eq!(a.get(0), &[0, 3, 6, 9, 99]);
        assert_eq!(a.get(1), &[1, 4, 7]);
    }

    #[test]
    fn get_mut_writes_through() {
        let mut a = ListArena::default();
        a.push(2, 5u32);
        a.push(2, 6);
        a.get_mut(2)[1] = 7;
        assert_eq!(a.get(2), &[5, 7]);
        assert!(a.get_mut(9).is_empty());
    }
}
