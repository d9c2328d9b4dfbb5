//! Sort-merge kernels: the building blocks of the sort-merge join the
//! paper discusses as the main alternative to hash joins (§2.2, Kim et
//! al. [19], Albutiu et al. [2], Balkesen et al. [3]).
//!
//! The paper's §7 notes that its RDMA techniques "can be used to create
//! distributed versions of many database operators like sort-merge
//! joins"; `rsj-operators` does exactly that on top of these kernels.

use rsj_workload::{JoinResult, Tuple};

/// Sort tuples by key (unstable; rids break no ties, duplicates keep
/// arbitrary relative order, which the join result is insensitive to).
pub fn sort_by_key<T: Tuple>(tuples: &mut [T]) {
    tuples.sort_unstable_by_key(|t| t.key());
}

/// Merge-join two key-sorted inputs, accumulating every matching pair.
/// Handles duplicate keys on both sides (cross product per key group).
///
/// # Panics
/// Debug builds assert the inputs are sorted — feeding unsorted data is a
/// logic error upstream, not a recoverable condition.
pub fn merge_join<T: Tuple>(r: &[T], s: &[T]) -> JoinResult {
    debug_assert!(r.windows(2).all(|w| w[0].key() <= w[1].key()), "r unsorted");
    debug_assert!(s.windows(2).all(|w| w[0].key() <= w[1].key()), "s unsorted");
    let mut result = JoinResult::default();
    let (mut i, mut j) = (0usize, 0usize);
    while i < r.len() && j < s.len() {
        let rk = r[i].key();
        let sk = s[j].key();
        match rk.cmp(&sk) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                // Extent of the key group on each side.
                let i_end = i + r[i..].iter().take_while(|t| t.key() == rk).count();
                let j_end = j + s[j..].iter().take_while(|t| t.key() == rk).count();
                for _ in i..i_end {
                    for t in &s[j..j_end] {
                        result.add_match(t.key());
                    }
                }
                i = i_end;
                j = j_end;
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rsj_workload::{naive_hash_join, Tuple16};

    fn tuples(keys: &[u64]) -> Vec<Tuple16> {
        keys.iter()
            .enumerate()
            .map(|(i, &k)| Tuple16::new(k, i as u64))
            .collect()
    }

    #[test]
    fn merge_join_unique_keys() {
        let mut r = tuples(&[5, 1, 9, 3]);
        let mut s = tuples(&[3, 9, 2, 11]);
        sort_by_key(&mut r);
        sort_by_key(&mut s);
        let res = merge_join(&r, &s);
        assert_eq!(res.matches, 2);
        assert_eq!(res.s_key_sum, 12);
    }

    #[test]
    fn merge_join_duplicates_cross_product() {
        let mut r = tuples(&[7, 7, 7]);
        let mut s = tuples(&[7, 7]);
        sort_by_key(&mut r);
        sort_by_key(&mut s);
        assert_eq!(merge_join(&r, &s).matches, 6);
    }

    #[test]
    fn merge_join_empty_sides() {
        let empty: Vec<Tuple16> = Vec::new();
        let one = tuples(&[1]);
        assert_eq!(merge_join(&empty, &one).matches, 0);
        assert_eq!(merge_join(&one, &empty).matches, 0);
    }

    proptest! {
        #[test]
        fn prop_merge_join_matches_hash_join(r_keys in prop::collection::vec(0u64..40, 0..120),
                                             s_keys in prop::collection::vec(0u64..40, 0..120)) {
            let mut r = tuples(&r_keys);
            let mut s = tuples(&s_keys);
            let expect = naive_hash_join(&r, &s);
            sort_by_key(&mut r);
            sort_by_key(&mut s);
            prop_assert_eq!(merge_join(&r, &s), expect);
        }
    }
}
