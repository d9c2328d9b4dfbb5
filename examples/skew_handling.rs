//! Skew handling (the paper's §6.5): join a Zipf-skewed foreign-key
//! workload under both partition-assignment policies and see how the
//! dynamic sorted assignment plus intra-machine probe splitting contain
//! the damage.
//!
//! ```text
//! cargo run --release --example skew_handling
//! ```

use rsj::cluster::ClusterSpec;
use rsj::core::{try_run_distributed_join, AssignmentPolicy, DistJoinConfig};
use rsj::workload::{generate_inner, generate_outer, Skew, Tuple16};

fn run(skew: Skew, policy: AssignmentPolicy) -> rsj::core::DistJoinOutcome {
    let machines = 4;
    let mut cfg = DistJoinConfig::new(ClusterSpec::qdr_cluster(machines));
    cfg.radix_bits = (8, 4);
    cfg.assignment = policy;
    let n_r = 500_000;
    let n_s = 8_000_000;
    let r = generate_inner::<Tuple16>(n_r, machines, 3);
    let (s, oracle) = generate_outer::<Tuple16>(n_s, n_r, machines, skew, 4);
    let out = try_run_distributed_join(cfg, r, s).expect("distributed join aborted");
    oracle.verify(&out.result);
    out
}

fn main() {
    println!("500K ⋈ 8M tuples on 4 QDR machines\n");
    println!(
        "{:>12} {:>14} {:>12} {:>12} {:>14}",
        "skew", "assignment", "total", "net pass", "local+probe"
    );
    for skew in [Skew::None, Skew::Zipf(1.05), Skew::Zipf(1.20)] {
        for (label, policy) in [
            ("round-robin", AssignmentPolicy::RoundRobin),
            ("sorted-dyn", AssignmentPolicy::SortedDynamic),
        ] {
            let out = run(skew, policy);
            let skew_label = match skew {
                Skew::None => "none".to_string(),
                Skew::Zipf(z) => format!("zipf {z}"),
            };
            println!(
                "{:>12} {:>14} {:>12} {:>12} {:>14}",
                skew_label,
                label,
                format!("{}", out.phases.total()),
                format!("{}", out.phases.network_partition),
                format!("{}", out.phases.local_partition + out.phases.build_probe),
            );
        }
    }
    // The paper's future work, implemented as flagged extensions: probe
    // stealing across machines plus a parallel local pass for oversized
    // partitions.
    let extended = {
        let machines = 4;
        let mut cfg = DistJoinConfig::new(ClusterSpec::qdr_cluster(machines));
        cfg.radix_bits = (8, 4);
        cfg.assignment = AssignmentPolicy::SortedDynamic;
        cfg.inter_machine_work_sharing = true;
        cfg.parallel_local_pass = true;
        let r = generate_inner::<Tuple16>(500_000, machines, 3);
        let (s, oracle) =
            generate_outer::<Tuple16>(8_000_000, 500_000, machines, Skew::Zipf(1.20), 4);
        let out = try_run_distributed_join(cfg, r, s).expect("distributed join aborted");
        oracle.verify(&out.result);
        out
    };
    println!(
        "{:>12} {:>14} {:>12} (work sharing + parallel local pass)",
        "zipf 1.2",
        "extensions",
        format!("{}", extended.phases.total()),
    );
    println!();
    println!("Expected shape (paper Figure 8): execution time rises with the skew");
    println!("factor — the machine owning the heaviest partition dominates both the");
    println!("network pass and local processing. The dynamic assignment keeps the");
    println!("largest partitions on distinct machines; probe splitting shares the");
    println!("biggest fragments among that machine's threads. Cross-machine work");
    println!("sharing is future work in the paper; enabled via the flagged");
    println!("extensions, it cuts the heavy-skew total (last row).");
}
