//! A fast, deterministic hasher for keys the analysis assigns itself.
//!
//! The solver's tables are keyed by small dense ids it hands out (object,
//! statement, location, type and field ids), by field indices and by byte
//! offsets. SipHash's flood resistance buys little there: those keys are
//! values the analysis assigns, not bytes a client picks, and a request's
//! work is bounded by its solve budget anyway. [`IdHasher`] mixes each word with one
//! rotate-xor-multiply, the scheme of rustc's `FxHasher`, and folds the
//! result in [`Hasher::finish`].
//!
//! The fold matters. A multiply carries entropy only upward, so the low
//! bits of the unfolded state depend only on the low bits of the last word
//! hashed; hashbrown picks a bucket from exactly those low bits. The fact
//! store packs an edge as `src << 32 | tgt`, so unfolded, every edge into
//! one target would land in a single bucket chain. Rotating the well-mixed
//! high bits down spreads them again.
//!
//! Keys that hold source text (names, macro bodies, rendered types) keep
//! std's SipHash: their content comes from the analysed program.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier of the per-word mix (rustc's `FxHasher` constant).
const MUL: u64 = 0x517c_c1b7_2722_0a95;

/// A rotate-xor-multiply hasher with a folded finish; see the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher {
    h: u64,
}

impl IdHasher {
    #[inline]
    fn mix(&mut self, w: u64) {
        self.h = (self.h.rotate_left(5) ^ w).wrapping_mul(MUL);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.mix(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.mix(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.h.rotate_left(26)
    }
}

/// Builds [`IdHasher`]s; stateless, so every table hashes alike.
pub type IdBuildHasher = BuildHasherDefault<IdHasher>;

/// A `HashMap` keyed by analysis-assigned values, hashed with [`IdHasher`].
pub type IdHashMap<K, V> = HashMap<K, V, IdBuildHasher>;

/// A `HashSet` of analysis-assigned values, hashed with [`IdHasher`].
pub type IdHashSet<T> = HashSet<T, IdBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(key: T) -> u64 {
        IdBuildHasher::default().hash_one(key)
    }

    /// Distinct values the low 12 bits (a 4096-bucket table's index) take
    /// over `keys`.
    fn low12_spread<T: Hash>(keys: impl Iterator<Item = T>) -> usize {
        keys.map(|k| hash(k) & 0xfff).collect::<HashSet<_>>().len()
    }

    /// Mirrors a location id: a `u32` newtype deriving `Hash`.
    #[derive(Hash)]
    struct Id(u32);

    #[test]
    fn hashes_are_deterministic_across_instances_and_threads() {
        let keys: Vec<u64> = (0..1000u64).map(|i| (i << 32) | (i * 7 % 13)).collect();
        let here: Vec<u64> = keys.iter().map(hash).collect();
        let other = IdBuildHasher::default();
        assert!(keys.iter().zip(&here).all(|(k, &h)| other.hash_one(k) == h));
        let keys2 = keys.clone();
        let there = std::thread::spawn(move || keys2.iter().map(hash).collect::<Vec<_>>())
            .join()
            .unwrap();
        assert_eq!(here, there);
        // Pinned values: a hash change is a deliberate, visible edit.
        assert_eq!(hash(1u64), 0xdc9c_882a_5545_f306);
        assert_eq!(hash((3u32 << 16) as u64), 0x987e_fc00_0114_95d5);
        assert_eq!(hash((1u32, 2u32)), 0xffe6_3eaf_21a9_2f99);
    }

    #[test]
    fn packed_edge_keys_spread_over_the_low_bits() {
        // `FactStore::edge_set` packs `src << 32 | tgt`. With `tgt` fixed
        // the unfolded hash's low 12 bits take a single value; a uniform
        // random hash would give ~2,589 of 4,096, this one ~1,983.
        for tgt in [0u64, 1, 42, 1000, 123_456] {
            let spread = low12_spread((0..4096u64).map(|src| (src << 32) | tgt));
            assert!(spread >= 1900, "tgt {tgt}: {spread} distinct");
        }
    }

    #[test]
    fn pair_keys_spread_at_any_power_of_two_stride() {
        // Ids that step by a power of two (offsets, scaled indices) leave
        // the low bits of the last word constant; unfolded, a stride of 8
        // leaves 512 distinct values.
        for k in 0..=6 {
            let s = 1u32 << k;
            let first = low12_spread((0..4096u32).map(|a| (a * s, 7u32)));
            let second = low12_spread((0..4096u32).map(|b| (7u32, b * s)));
            assert!(
                first >= 1024 && second >= 1024,
                "stride 2^{k}: {first}, {second}"
            );
        }
    }

    #[test]
    fn cursor_keys_spread_at_any_power_of_two_stride() {
        // `(stmt, dst, src)`, the solver's pair-cursor key shape.
        for k in 0..=6 {
            let s = 1u32 << k;
            let spreads = [
                low12_spread((0..4096u32).map(|a| (a * s, Id(3), Id(9)))),
                low12_spread((0..4096u32).map(|a| (3u32, Id(a * s), Id(9)))),
                low12_spread((0..4096u32).map(|a| (3u32, Id(9), Id(a * s)))),
            ];
            assert!(
                spreads.iter().all(|&n| n >= 1024),
                "stride 2^{k}: {spreads:?}"
            );
        }
    }
}
