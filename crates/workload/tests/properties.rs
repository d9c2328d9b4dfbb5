//! Property tests over the workload generators and tuple codecs.

use proptest::prelude::*;
use rsj_workload::{
    decode_all, generate_inner, generate_outer, naive_hash_join, Skew, Tuple, Tuple16, Tuple32,
    Tuple64, Zipf,
};
use std::collections::HashSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The inner generator always yields a permutation of 1‥=n, with
    /// contiguous rid ranges per machine, for any n/machines/seed.
    #[test]
    fn prop_inner_is_a_keyed_permutation(n in 1u64..3_000, machines in 1usize..6, seed in any::<u64>()) {
        let r = generate_inner::<Tuple16>(n, machines, seed);
        prop_assert_eq!(r.total_tuples(), n);
        let keys: HashSet<u64> = r.iter_all().map(|t| t.key()).collect();
        prop_assert_eq!(keys.len() as u64, n);
        prop_assert!(keys.iter().all(|&k| (1..=n).contains(&k)));
        let mut next_rid = 0u64;
        for m in 0..machines {
            for t in r.chunk(m) {
                prop_assert_eq!(t.rid(), next_rid);
                next_rid += 1;
            }
        }
    }

    /// The oracle is always the truth: for any workload shape and skew,
    /// a naive reference join of the generated relations reproduces the
    /// advertised matches and checksum.
    #[test]
    fn prop_oracle_matches_reference_join(n_r in 1u64..400, ratio in 1u64..6,
                                          machines in 1usize..4, theta in 1.01f64..1.6,
                                          zipf in any::<bool>(), seed in any::<u64>()) {
        let n_s = n_r * ratio;
        let skew = if zipf { Skew::Zipf(theta) } else { Skew::None };
        let r = generate_inner::<Tuple16>(n_r, machines, seed);
        let (s, oracle) = generate_outer::<Tuple16>(n_s, n_r, machines, skew, seed ^ 1);
        let rf: Vec<Tuple16> = r.iter_all().copied().collect();
        let sf: Vec<Tuple16> = s.iter_all().copied().collect();
        let result = naive_hash_join(&rf, &sf);
        prop_assert_eq!(result.matches, oracle.matches);
        prop_assert_eq!(result.s_key_sum, oracle.s_key_sum);
    }

    /// Tuple wire codecs round-trip for every width and key/rid pattern.
    #[test]
    fn prop_tuple_codec_roundtrip(pairs in prop::collection::vec((any::<u64>(), any::<u64>()), 0..64)) {
        fn check<T: Tuple + PartialEq + std::fmt::Debug>(pairs: &[(u64, u64)]) {
            let tuples: Vec<T> = pairs.iter().map(|&(k, r)| T::new(k, r)).collect();
            let mut buf = vec![0; tuples.len() * T::SIZE];
            for (t, out) in tuples.iter().zip(buf.chunks_exact_mut(T::SIZE)) {
                t.write_to(out);
            }
            let back: Vec<T> = decode_all(&buf);
            assert_eq!(back, tuples);
        }
        check::<Tuple16>(&pairs);
        check::<Tuple32>(&pairs);
        check::<Tuple64>(&pairs);
    }

    /// Zipf samples always land in the domain and the empirical head is
    /// at least as heavy as uniform would be.
    #[test]
    fn prop_zipf_in_domain_and_head_heavy(n in 10u64..5_000, theta in 1.01f64..1.8, seed in any::<u64>()) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let z = Zipf::new(n, theta);
        let mut rng = StdRng::seed_from_u64(seed);
        let draws = 2_000;
        let mut head = 0u64;
        for _ in 0..draws {
            let k = z.sample(&mut rng);
            prop_assert!((1..=n).contains(&k));
            if k <= n.div_ceil(10) {
                head += 1;
            }
        }
        // Uniform would put ~10% in the first decile; Zipf must beat it
        // decisively (allow slack for tiny domains / sampling noise).
        prop_assert!(head * 100 > draws * 12, "head {head} of {draws}");
    }
}
