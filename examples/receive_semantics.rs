//! Receive semantics (the paper's §4.2.2): one-sided memory semantics vs
//! two-sided channel semantics for the network partitioning pass.
//!
//! One-sided: the receiver pre-registers one large region per (partition,
//! source) — sized exactly from the histograms — and senders RDMA-WRITE
//! into it; no receiver CPU, but a lot of pinned memory. Two-sided: a pool
//! of small pre-registered receive buffers and one receiver core copying
//! them out; little pinned memory, one core spent.
//!
//! ```text
//! cargo run --release --example receive_semantics
//! ```

use rsj::cluster::ClusterSpec;
use rsj::core::{try_run_distributed_join, DistJoinConfig, ReceiveMode};
use rsj::workload::{generate_inner, generate_outer, Skew, Tuple16};

fn run(receive: ReceiveMode) -> rsj::core::DistJoinOutcome {
    let machines = 4;
    let mut cfg = DistJoinConfig::new(ClusterSpec::fdr_cluster(machines));
    cfg.radix_bits = (8, 4);
    cfg.receive = receive;
    let n = 4_000_000;
    let r = generate_inner::<Tuple16>(n, machines, 9);
    let (s, oracle) = generate_outer::<Tuple16>(2 * n, n, machines, Skew::None, 10);
    let out = try_run_distributed_join(cfg, r, s).expect("distributed join aborted");
    oracle.verify(&out.result);
    out
}

fn main() {
    println!("4M ⋈ 8M tuples on 4 FDR machines\n");
    for (label, mode) in [
        ("two-sided (channel semantics)", ReceiveMode::TwoSided),
        ("one-sided (memory semantics)", ReceiveMode::OneSided),
    ] {
        let out = run(mode);
        let pinned: u64 = out.machines.iter().map(|m| m.registered_bytes).sum();
        println!("{label}:");
        println!("  total           {}", out.phases.total());
        println!("  network pass    {}", out.phases.network_partition);
        println!("  pinned memory   {pinned} bytes across the cluster");
        println!();
    }
    println!("Both modes produce the identical verified result. One-sided trades");
    println!("pinned memory (and registration time in the histogram phase) for a");
    println!("receiver-free network pass with all cores partitioning; the paper's");
    println!("evaluation uses channel semantics, and notes memory semantics are");
    println!("preferable only when memory is plentiful (§4.2.2). No significant");
    println!("performance difference between the two is expected (§3.2.2).");
}
