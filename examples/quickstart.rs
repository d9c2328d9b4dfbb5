//! Quickstart: run one distributed RDMA radix join on a simulated
//! 4-machine FDR cluster and print the verified result with its phase
//! breakdown.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use rsj::cluster::ClusterSpec;
use rsj::core::{try_run_distributed_join, DistJoinConfig};
use rsj::workload::{generate_inner, generate_outer, Skew, Tuple16};

fn main() {
    // The paper's Figure 5a cluster: four machines on FDR InfiniBand,
    // eight cores each.
    let machines = 4;
    let mut cfg = DistJoinConfig::new(ClusterSpec::fdr_cluster(machines));
    // 2^10 network partitions (the paper's choice), 2^4 local fragments.
    cfg.radix_bits = (10, 4);

    // 4M ⋈ 16M tuples of 16 bytes — a 1:4 foreign-key workload, loaded
    // evenly across the cluster with range-partitioned rids.
    let n_r = 4_000_000;
    let n_s = 16_000_000;
    println!("generating {n_r} ⋈ {n_s} tuples over {machines} machines…");
    let r = generate_inner::<Tuple16>(n_r, machines, 1);
    let (s, oracle) = generate_outer::<Tuple16>(n_s, n_r, machines, Skew::None, 2);

    println!("running the distributed join (two-sided RDMA, interleaved)…");
    let out = try_run_distributed_join(cfg, r, s).expect("distributed join aborted");
    oracle.verify(&out.result);

    println!(
        "\nresult: {} matches (verified against the generator oracle)",
        out.result.matches
    );
    println!("phase breakdown (virtual time on the simulated cluster):");
    for (name, d) in out.phases.rows() {
        println!("  {name:>18}  {d}");
    }
    println!("  {:>18}  {}", "total", out.phases.total());
    println!("\nper-machine traffic:");
    for (i, m) in out.machines.iter().enumerate() {
        println!(
            "  machine {i}: sent {:>9} bytes, received {:>9} bytes, \
             send stalls {:.3}s",
            m.tx_bytes, m.rx_bytes, m.send_stall_seconds
        );
    }
}
