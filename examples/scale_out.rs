//! Scale-out study (the paper's Figures 6a/7a + the §5 model): sweep the
//! machine count on the QDR cluster, compare measured phase times against
//! the analytical model, and watch the network become the bottleneck.
//!
//! ```text
//! cargo run --release --example scale_out
//! ```

use rsj::cluster::ClusterSpec;
use rsj::core::{try_run_distributed_join, DistJoinConfig};
use rsj::model::{self, ModelInput};
use rsj::workload::{generate_inner, generate_outer, Skew, Tuple16};

fn main() {
    let n = 4_000_000u64; // tuples per relation
    println!("{n} ⋈ {n} tuples, QDR cluster, 8 cores per machine\n");
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>13} {:>9}",
        "machines", "measured", "estimated", "net pass", "est. net", "regime"
    );
    let mut t2 = None;
    let mut t10 = None;
    for machines in [2usize, 4, 6, 8, 10] {
        let spec = ClusterSpec::qdr_cluster(machines);
        let input = ModelInput::from_cluster(&spec, (n * 16) as f64, (n * 16) as f64);
        let pred = model::predict(&input);

        let mut cfg = DistJoinConfig::new(spec);
        // Example-scale tuning: at 4M tuples the paper's 2^10 partitions x
        // 64 KiB buffers would leave every message a tiny partial flush,
        // pinning the pass to the per-message floor. Fewer partitions and
        // 4 KiB buffers keep the example in the bandwidth-bound regime the
        // model describes.
        cfg.radix_bits = (5, 7);
        cfg.rdma_buf_size = 4096;
        let r = generate_inner::<Tuple16>(n, machines, 5);
        let (s, oracle) = generate_outer::<Tuple16>(n, n, machines, Skew::None, 6);
        let out = try_run_distributed_join(cfg, r, s).expect("distributed join aborted");
        oracle.verify(&out.result);

        let total = out.phases.total().as_secs_f64();
        if machines == 2 {
            t2 = Some(total);
        }
        if machines == 10 {
            t10 = Some(total);
        }
        println!(
            "{:>8} {:>11.4}s {:>11.4}s {:>11.4}s {:>12.4}s {:>9}",
            machines,
            total,
            pred.total().as_secs_f64(),
            out.phases.network_partition.as_secs_f64(),
            pred.phases.network_partition.as_secs_f64(),
            if pred.network_bound { "net" } else { "cpu" },
        );
    }
    let speedup = t2.unwrap() / t10.unwrap();
    println!(
        "\nspeed-up from 2 to 10 machines: {speedup:.2}x — sub-linear, because the\n\
         QDR network (3.4 GB/s minus congestion) cannot keep up with the\n\
         aggregate partitioning speed (the paper measures 2.91x, §6.4.3)."
    );
}
