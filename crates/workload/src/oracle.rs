//! Join-result verification: the summary every join implementation in this
//! workspace produces, the generator-side oracle it is checked against,
//! and a naive reference join for exhaustive small-scale testing.

use crate::tuple::Tuple;

/// The verifiable summary of a join's output: the number of matching
/// `(r, s)` pairs and the wrapping sum of the matched outer keys.
///
/// Materializing full results is orthogonal to the paper's evaluation
/// (§7 explicitly defers result materialization to future work), so — like
/// the original code of Balkesen et al. the paper builds on — the join
/// aggregates matches into a checksum that the generator can predict.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct JoinResult {
    /// Number of matching tuple pairs.
    pub matches: u64,
    /// Wrapping sum of `s.key` over all matches.
    pub s_key_sum: u64,
}

impl JoinResult {
    /// Accumulate one match.
    #[inline]
    pub fn add_match(&mut self, s_key: u64) {
        self.matches += 1;
        self.s_key_sum = self.s_key_sum.wrapping_add(s_key);
    }

    /// Merge a partial result (e.g. from another worker).
    #[inline]
    pub fn merge(&mut self, other: JoinResult) {
        self.matches += other.matches;
        self.s_key_sum = self.s_key_sum.wrapping_add(other.s_key_sum);
    }
}

/// What the generator knows the join must produce.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct ExpectedResult {
    /// Expected number of matches.
    pub matches: u64,
    /// Expected wrapping sum of matched outer keys.
    pub s_key_sum: u64,
}

impl ExpectedResult {
    /// Assert that `result` matches the oracle.
    ///
    /// # Panics
    /// Panics with a diagnostic if either the match count or checksum
    /// deviates.
    pub fn verify(&self, result: &JoinResult) {
        assert_eq!(
            result.matches, self.matches,
            "join produced {} matches, expected {}",
            result.matches, self.matches
        );
        assert_eq!(
            result.s_key_sum, self.s_key_sum,
            "join checksum mismatch (matches were {})",
            result.matches
        );
    }
}

/// Reference implementation: a straightforward hash join used as ground
/// truth in tests. Handles duplicate keys on both sides.
pub fn naive_hash_join<T: Tuple>(r: &[T], s: &[T]) -> JoinResult {
    #[expect(
        clippy::disallowed_types,
        reason = "a per-tuple probe table that is never iterated"
    )]
    let mut table: std::collections::HashMap<u64, u64> =
        std::collections::HashMap::with_capacity(r.len());
    for t in r {
        *table.entry(t.key()).or_insert(0) += 1;
    }
    let mut result = JoinResult::default();
    for t in s {
        if let Some(&count) = table.get(&t.key()) {
            for _ in 0..count {
                result.add_match(t.key());
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::{generate_inner, generate_outer, Skew};
    use crate::tuple::Tuple16;

    #[test]
    fn naive_join_counts_duplicates() {
        let r = vec![Tuple16::new(1, 0), Tuple16::new(1, 1), Tuple16::new(2, 2)];
        let s = vec![Tuple16::new(1, 0), Tuple16::new(3, 1)];
        let res = naive_hash_join(&r, &s);
        assert_eq!(res.matches, 2); // s key 1 matches both r tuples
        assert_eq!(res.s_key_sum, 2);
    }

    #[test]
    fn oracle_matches_naive_join_on_generated_workload() {
        for skew in [Skew::None, Skew::Zipf(1.2)] {
            let r = generate_inner::<Tuple16>(512, 2, 11);
            let (s, oracle) = generate_outer::<Tuple16>(2048, 512, 2, skew, 12);
            let all_r: Vec<Tuple16> = r.iter_all().copied().collect();
            let all_s: Vec<Tuple16> = s.iter_all().copied().collect();
            let res = naive_hash_join(&all_r, &all_s);
            oracle.verify(&res);
        }
    }

    #[test]
    #[should_panic(expected = "join produced")]
    fn verify_rejects_wrong_count() {
        let oracle = ExpectedResult {
            matches: 5,
            s_key_sum: 0,
        };
        oracle.verify(&JoinResult {
            matches: 4,
            s_key_sum: 0,
        });
    }

    #[test]
    fn merge_accumulates() {
        let mut a = JoinResult::default();
        a.add_match(10);
        let mut b = JoinResult::default();
        b.add_match(u64::MAX); // wrapping behaviour
        a.merge(b);
        assert_eq!(a.matches, 2);
        assert_eq!(a.s_key_sum, 9);
    }
}
