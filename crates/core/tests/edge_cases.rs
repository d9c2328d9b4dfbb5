//! Edge-case and property tests of the distributed join driver: extreme
//! inputs, degenerate shapes, and invariants over the assignment logic.

use proptest::prelude::*;
use rsj_cluster::ClusterSpec;
use rsj_core::{
    assign_partitions, try_run_distributed_join, AssignmentPolicy, DistJoinConfig, Histogram,
    REL_R, REL_S,
};
use rsj_workload::{
    generate_inner, generate_outer, naive_hash_join, Relation, Skew, Tuple, Tuple16,
};

fn cfg(machines: usize, cores: usize, b1: u32, b2: u32) -> DistJoinConfig {
    let mut spec = ClusterSpec::fdr_cluster(machines.min(4));
    if machines > 4 {
        spec = ClusterSpec::qdr_cluster(machines);
    }
    spec.cores_per_machine = cores;
    let mut c = DistJoinConfig::new(spec);
    c.radix_bits = (b1, b2);
    c.rdma_buf_size = 256;
    c
}

fn from_keys(keys: &[u64], machines: usize) -> Relation<Tuple16> {
    let per = keys.len().div_ceil(machines).max(1);
    let chunks: Vec<Vec<Tuple16>> = (0..machines)
        .map(|m| {
            keys.iter()
                .enumerate()
                .skip(m * per)
                .take(per)
                .map(|(i, &k)| Tuple16::new(k, i as u64))
                .collect()
        })
        .collect();
    Relation::from_chunks(chunks)
}

#[test]
fn empty_relations() {
    let r = from_keys(&[], 2);
    let s = from_keys(&[], 2);
    let out = try_run_distributed_join(cfg(2, 2, 3, 2), r, s).expect("distributed join aborted");
    assert_eq!(out.result.matches, 0);
}

#[test]
fn single_tuple_each_side() {
    let r = from_keys(&[42], 2);
    let s = from_keys(&[42], 2);
    let out = try_run_distributed_join(cfg(2, 2, 3, 2), r, s).expect("distributed join aborted");
    assert_eq!(out.result.matches, 1);
    assert_eq!(out.result.s_key_sum, 42);
}

#[test]
fn all_tuples_in_one_partition() {
    // Every key congruent mod 2^b1: the whole workload lands on a single
    // machine's single partition — the most extreme imbalance possible.
    let keys: Vec<u64> = (0..2_000u64).map(|i| i * 8).collect(); // low 3 bits zero
    let r = from_keys(&keys, 4);
    let s = from_keys(&keys, 4);
    let expect = naive_hash_join(
        &r.iter_all().copied().collect::<Vec<_>>(),
        &s.iter_all().copied().collect::<Vec<_>>(),
    );
    let out = try_run_distributed_join(cfg(4, 3, 3, 2), r, s).expect("distributed join aborted");
    assert_eq!(out.result, expect);
}

#[test]
fn duplicate_heavy_key_cross_product() {
    // 50 copies of one key on each side: 2500 matches from one fragment.
    let r = from_keys(&vec![7u64; 50], 2);
    let s = from_keys(&vec![7u64; 50], 2);
    let out = try_run_distributed_join(cfg(2, 3, 3, 2), r, s).expect("distributed join aborted");
    assert_eq!(out.result.matches, 2500);
}

#[test]
fn keys_with_high_bits_set() {
    // Radix partitioning uses the LOW bits; keys with large magnitudes
    // must still route correctly.
    let keys: Vec<u64> = (0..512u64).map(|i| (i << 40) | i).collect();
    let r = from_keys(&keys, 3);
    let s = from_keys(&keys, 3);
    let expect = naive_hash_join(
        &r.iter_all().copied().collect::<Vec<_>>(),
        &s.iter_all().copied().collect::<Vec<_>>(),
    );
    let out = try_run_distributed_join(cfg(3, 3, 4, 3), r, s).expect("distributed join aborted");
    assert_eq!(out.result, expect);
}

#[test]
fn uneven_chunks_across_machines() {
    // Machine 0 holds almost everything; the histogram phase must still
    // balance partitioning by slices, and the join must verify.
    let machines = 3;
    let chunks_r = vec![
        (0..5_000u64)
            .map(|i| Tuple16::new(i + 1, i))
            .collect::<Vec<_>>(),
        vec![Tuple16::new(5_001, 5_000)],
        Vec::new(),
    ];
    let chunks_s = vec![
        Vec::new(),
        (0..5_001u64)
            .map(|i| Tuple16::new(i + 1, i))
            .collect::<Vec<_>>(),
        vec![Tuple16::new(1, 9_999)],
    ];
    let r = Relation::from_chunks(chunks_r);
    let s = Relation::from_chunks(chunks_s);
    let expect = naive_hash_join(
        &r.iter_all().copied().collect::<Vec<_>>(),
        &s.iter_all().copied().collect::<Vec<_>>(),
    );
    let out =
        try_run_distributed_join(cfg(machines, 3, 4, 2), r, s).expect("distributed join aborted");
    assert_eq!(out.result, expect);
}

#[test]
fn wide_radix_on_tiny_input() {
    // More partitions than tuples: most partitions empty everywhere.
    let r = from_keys(&[1, 2, 3], 2);
    let s = from_keys(&[2, 3, 4], 2);
    let out = try_run_distributed_join(cfg(2, 2, 8, 4), r, s).expect("distributed join aborted");
    assert_eq!(out.result.matches, 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any histogram, machine count and policy: the assignment covers all
    /// machines' indices validly and is a function of the histogram only.
    #[test]
    fn prop_assignment_is_valid_and_deterministic(
        counts in prop::collection::vec((0u64..10_000, 0u64..10_000), 1..64),
        machines in 1usize..11,
        dynamic in any::<bool>(),
    ) {
        let mut h = Histogram::zeros(counts.len());
        for (p, &(r, s)) in counts.iter().enumerate() {
            h.counts[REL_R][p] = r;
            h.counts[REL_S][p] = s;
        }
        let policy = if dynamic { AssignmentPolicy::SortedDynamic } else { AssignmentPolicy::RoundRobin };
        let a = assign_partitions(&h, machines, policy);
        let b = assign_partitions(&h, machines, policy);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.len(), counts.len());
        prop_assert!(a.iter().all(|&m| m < machines));
        // No machine gets more than ceil(parts / machines) partitions —
        // both policies deal round-robin.
        let cap = counts.len().div_ceil(machines);
        for m in 0..machines {
            prop_assert!(a.iter().filter(|&&x| x == m).count() <= cap);
        }
    }

    /// Small random workloads joined on random cluster shapes always match
    /// the reference join.
    #[test]
    fn prop_distributed_join_matches_reference(
        r_keys in prop::collection::vec(0u64..200, 1..300),
        s_keys in prop::collection::vec(0u64..200, 1..300),
        machines in 2usize..5,
        cores in 2usize..4,
    ) {
        let r = from_keys(&r_keys, machines);
        let s = from_keys(&s_keys, machines);
        let expect = naive_hash_join(
            &r.iter_all().copied().collect::<Vec<_>>(),
            &s.iter_all().copied().collect::<Vec<_>>(),
        );
        let out = try_run_distributed_join(cfg(machines, cores, 3, 2), r, s)
.expect("distributed join aborted");
        prop_assert_eq!(out.result, expect);
    }
}

#[test]
fn oracle_workloads_across_machine_counts() {
    for machines in [2usize, 3, 5, 7] {
        let r = generate_inner::<Tuple16>(3_000, machines, 900 + machines as u64);
        let (s, oracle) =
            generate_outer::<Tuple16>(9_000, 3_000, machines, Skew::None, 901 + machines as u64);
        let out = try_run_distributed_join(cfg(machines, 3, 4, 2), r, s)
            .expect("distributed join aborted");
        oracle.verify(&out.result);
    }
}
