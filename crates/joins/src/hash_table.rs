//! The hash table of the build-probe phase.
//!
//! [`BucketTable`] keeps the bucket structure of Balkesen et al.'s
//! bucket-chained table \[4\]: a power-of-two bucket array over a
//! partition small enough that the table stays cache-resident (§6.4.3),
//! which is the whole reason the radix join partitions first. Each
//! bucket's tuples are stored *contiguously* (a counting sort by bucket at
//! build time), so a probe scans one cache-sequential slice instead of
//! chasing a `next` chain, and a rebuild reuses the previous build's
//! buffers.
//!
//! As in \[4\], a bucket is addressed by the key bits just above the radix
//! bits the partitioning passes consumed: every key of a fragment shares
//! those low bits, so they would put the whole fragment in one bucket,
//! while the bits above them spread it. On the dense keys of §6.1.1 that
//! puts at most one tuple in a bucket. The table reports the chained
//! layout's footprint, so the skew handler's split and steal cost
//! decisions — and therefore every virtual-time result — are those of the
//! paper's table.

use rsj_workload::{JoinResult, Tuple};

/// A read-only hash table whose buckets are contiguous tuple runs.
///
/// Built by counting-sorting the build side by bucket: `offsets[b]..
/// offsets[b + 1]` delimits bucket `b`'s tuples inside `tuples`. Probes
/// scan that slice linearly — no `next` chain, no per-probe pointer
/// chasing, and no allocation on any probe path. [`BucketTable::rebuild`]
/// reuses the table's buffers, so a worker that builds one table per
/// partition pays no steady-state allocations either.
pub struct BucketTable<T> {
    /// Build tuples grouped by bucket.
    tuples: Vec<T>,
    /// `nbuckets + 1` prefix offsets into `tuples`.
    offsets: Vec<u32>,
    /// Scatter cursors, retained between rebuilds.
    cursors: Vec<u32>,
    /// Radix bits below the bucket address: key `k` lives in bucket
    /// `(k >> skip) & mask`.
    skip: u32,
    mask: u64,
}

impl<T: Tuple> Default for BucketTable<T> {
    /// An empty table addressing buckets from the lowest key bit, for
    /// input that was not radix-partitioned.
    fn default() -> Self {
        BucketTable::new(0)
    }
}

impl<T: Tuple> BucketTable<T> {
    /// An empty table for fragments whose keys share their low `skip`
    /// bits (the radix bits the partitioning passes consumed); buckets
    /// are addressed by the bits above them.
    ///
    /// # Panics
    /// Panics if `skip` is 64 or more.
    pub fn new(skip: u32) -> BucketTable<T> {
        assert!(skip < u64::BITS, "cannot skip {skip} key bits");
        BucketTable {
            tuples: Vec::new(),
            offsets: vec![0, 0],
            cursors: Vec::new(),
            skip,
            mask: 0,
        }
    }

    /// Build a table over `r`, whose keys share their low `skip` bits
    /// (copies the tuples in, as the original does).
    pub fn build(r: &[T], skip: u32) -> BucketTable<T> {
        let mut table = BucketTable::new(skip);
        table.rebuild(r);
        table
    }

    /// Rebuild the table over `r` in place, reusing all buffers.
    pub fn rebuild(&mut self, r: &[T]) {
        assert!(
            r.len() < u32::MAX as usize,
            "partition too large for u32 table"
        );
        let nbuckets = (r.len().max(1)).next_power_of_two();
        self.mask = (nbuckets - 1) as u64;
        let (skip, mask) = (self.skip, self.mask);
        let bucket = |t: &T| ((t.key() >> skip) & mask) as usize;
        self.offsets.clear();
        self.offsets.resize(nbuckets + 1, 0);
        for t in r {
            self.offsets[bucket(t) + 1] += 1;
        }
        let mut sum = 0;
        for offset in &mut self.offsets {
            sum += *offset;
            *offset = sum;
        }
        self.cursors.clear();
        self.cursors.extend_from_slice(&self.offsets[..nbuckets]);
        // The scatter below writes every slot exactly once, so only the
        // slots past the previous build's length are filled first.
        self.tuples.resize(r.len(), T::new(0, 0));
        for t in r {
            let cursor = &mut self.cursors[bucket(t)];
            self.tuples[*cursor as usize] = *t;
            *cursor += 1;
        }
    }

    /// Number of build-side tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Memory footprint in bytes **of the chained layout of \[4\]**: the
    /// tuples, the bucket heads and the `next` chain, `len·SIZE +
    /// nbuckets·4 + len·4`. The skew handler's table-split and steal-cost decisions are calibrated
    /// against the paper's chained table; reporting the physical layout's
    /// (smaller) footprint would shift those virtual-time decisions.
    pub fn footprint_bytes(&self) -> usize {
        self.tuples.len() * T::SIZE + (self.offsets.len() - 1) * 4 + self.tuples.len() * 4
    }

    /// Visit every build tuple matching `key`.
    #[inline]
    pub fn for_each_match(&self, key: u64, mut f: impl FnMut(&T)) {
        let b = ((key >> self.skip) & self.mask) as usize;
        let (lo, hi) = (self.offsets[b] as usize, self.offsets[b + 1] as usize);
        for t in &self.tuples[lo..hi] {
            if t.key() == key {
                f(t);
            }
        }
    }

    /// Probe the table with every tuple of `s`, invoking `f(r, s)` for
    /// every matching pair — the hook result materialization uses (§4.3).
    pub fn for_each_join(&self, s: &[T], mut f: impl FnMut(&T, &T)) {
        for t in s {
            self.for_each_match(t.key(), |r| f(r, t));
        }
    }

    /// Probe the table with every tuple of `s`, accumulating matches.
    pub fn probe_all(&self, s: &[T]) -> JoinResult {
        let mut result = JoinResult::default();
        for t in s {
            self.for_each_match(t.key(), |_r| result.add_match(t.key()));
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rsj_workload::{naive_hash_join, Tuple16};

    fn tuples(keys: impl IntoIterator<Item = u64>) -> Vec<Tuple16> {
        let keys = keys.into_iter().enumerate();
        keys.map(|(i, k)| Tuple16::new(k, i as u64)).collect()
    }

    /// The most tuples any one bucket of `table` holds.
    fn longest_bucket(table: &BucketTable<Tuple16>) -> u32 {
        let runs = table.offsets.windows(2).map(|w| w[1] - w[0]);
        runs.max().unwrap_or(0)
    }

    #[test]
    fn probe_finds_unique_matches() {
        let table = BucketTable::build(&tuples(1..=100), 0);
        let res = table.probe_all(&tuples([1, 50, 100, 101, 0]));
        assert_eq!(res.matches, 3);
        assert_eq!(res.s_key_sum, 151);
    }

    #[test]
    fn duplicate_build_keys_all_match() {
        let table = BucketTable::build(&tuples([7, 7, 7, 8]), 0);
        assert_eq!(table.probe_all(&tuples([7])).matches, 3);
    }

    #[test]
    fn empty_sides_are_fine() {
        let table = BucketTable::build(&tuples([]), 0);
        assert!(table.is_empty());
        assert_eq!(table.probe_all(&tuples([1])).matches, 0);
        let table = BucketTable::build(&tuples([1]), 0);
        assert_eq!(table.probe_all(&tuples([])).matches, 0);
    }

    #[test]
    fn bucket_table_matches_naive_join() {
        let (r, s) = (tuples([7, 7, 8, 7]), tuples([7, 8, 9]));
        let table = BucketTable::build(&r, 0);
        assert_eq!(table.probe_all(&s), naive_hash_join(&r, &s));
        assert_eq!(table.len(), r.len());
        let mut pairs = Vec::new();
        table.for_each_join(&s, |rt, st| pairs.push((rt.rid(), st.rid())));
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 0), (1, 0), (2, 1), (3, 0)]);
    }

    #[test]
    fn footprint_is_the_chained_layout() {
        // `len·SIZE + nbuckets·4 + len·4`, whatever the bucket address:
        // the skew handler's virtual-time decisions must not move.
        for skip in [0, 11] {
            let mut table = BucketTable::new(skip);
            for (n, nbuckets) in [(0u64, 1), (1, 1), (100, 128), (128, 128), (129, 256)] {
                table.rebuild(&tuples(0..n));
                let n = n as usize;
                assert_eq!(table.footprint_bytes(), n * 16 + nbuckets * 4 + n * 4);
            }
        }
    }

    #[test]
    fn bucket_table_rebuild_reuses_buffers() {
        let mut table = BucketTable::default();
        assert!(table.is_empty());
        assert_eq!(table.probe_all(&tuples([1])).matches, 0);
        let mut previous = Vec::new();
        for n in [100u64, 7, 250, 0, 31] {
            let keys: Vec<u64> = (0..n).map(|k| k * 3).collect();
            table.rebuild(&tuples(keys.iter().copied()));
            assert_eq!(table.len(), n as usize);
            assert_eq!(table.probe_all(&tuples(keys.iter().copied())).matches, n);
            // No tuple of a longer earlier build survives a shorter one.
            let gone = previous.iter().filter(|k| !keys.contains(k));
            assert_eq!(table.probe_all(&tuples(gone.copied())).matches, 0);
            previous = keys;
        }
    }

    #[test]
    fn a_dense_radix_fragment_puts_at_most_one_tuple_in_a_bucket() {
        // After 11 radix bits, a fragment of dense keys is every key
        // ≡ c (mod 2^11) in a range; the bits above the radix bits are
        // consecutive, so no two of them share a bucket.
        const BITS: u32 = 11;
        for c in [0u64, 1, 977, (1 << BITS) - 1] {
            for (first, n) in [(0u64, 1u64), (3, 500), (1, 977), (40, 1024), (7, 1500)] {
                let keys = (first..first + n).rev().map(|j| c + (j << BITS));
                let table = BucketTable::build(&tuples(keys), BITS);
                assert_eq!(longest_bucket(&table), 1, "c = {c}, {n} keys from {first}");
            }
        }
    }

    /// Keys of one `shape`, drawn from `raw`: `0` few distinct keys (many
    /// duplicates), `1` the same strided by 2^20, `2` a radix fragment's
    /// (low `skip` bits shared), `3` any bits.
    fn shaped(shape: u32, skip: u32, raw: &[(u64, u64)]) -> Vec<u64> {
        let low = 0x2A5 & ((1u64 << skip) - 1);
        let key = |&(small, wide): &(u64, u64)| match shape {
            0 => small,
            1 => small << 20,
            2 => (wide >> 40 << skip) | low,
            _ => wide,
        };
        raw.iter().map(key).collect()
    }

    proptest! {
        /// For any bucket address and any keys, the table joins as the
        /// oracle does.
        #[test]
        fn prop_bucket_table_equals_naive_join(
            skip in 0u32..=20,
            shape in 0u32..4,
            r_raw in prop::collection::vec((0u64..64, any::<u64>()), 0..200),
            s_raw in prop::collection::vec((0u64..64, any::<u64>()), 0..200),
        ) {
            let r_keys = shaped(shape, skip, &r_raw);
            // Every other build key is probed too, so wide keys match.
            let mut s_keys = shaped(shape, skip, &s_raw);
            s_keys.extend(r_keys.iter().step_by(2));
            let (r, s) = (tuples(r_keys), tuples(s_keys));
            let mut table = BucketTable::new(skip);
            table.rebuild(&r);
            prop_assert_eq!(table.probe_all(&s), naive_hash_join(&r, &s));
            prop_assert_eq!(table.len(), r.len());
        }
    }
}
