//! The scaling rule of the experiment harness, frozen here.
//!
//! The paper's workloads are billions of tuples; the harness runs the same
//! system at `1/factor` of the data volume with every fixed per-message
//! cost shrunk by the same factor, so `virtual time x factor` is the
//! paper-scale prediction. This is a copy of `rsj_bench::Scale` as of the
//! commit that defined the benchmark: a later edit to `crates/bench` must
//! not change what the benchmark measures.

use rsj_core::DistJoinConfig;
use rsj_rdma::{FabricConfig, NicCosts};

/// Divisor applied to the paper's tuple counts.
#[derive(Copy, Clone, Debug)]
pub struct Scale(pub u64);

impl Scale {
    /// Scaled tuple count of a paper workload of `paper_millions` million
    /// tuples.
    pub fn tuples(self, paper_millions: u64) -> u64 {
        (paper_millions * 1_000_000 / self.0).max(1)
    }

    fn scale_fabric(self, mut fabric: FabricConfig) -> FabricConfig {
        fabric.msg_rate *= self.0 as f64;
        fabric.latency /= self.0 as f64;
        fabric
    }

    fn scale_nic(self, nic: NicCosts) -> NicCosts {
        let f = self.0 as f64;
        NicCosts {
            post_overhead: nic.post_overhead / f,
            mr_register_base: nic.mr_register_base / f,
            mr_register_per_page: nic.mr_register_per_page,
            tcp_syscall: nic.tcp_syscall / f,
            tcp_copy_rate: nic.tcp_copy_rate,
        }
    }

    /// Shrink a join configuration's fixed costs by the factor and pick
    /// second-pass bits that keep final fragments near 32 KiB at the
    /// scaled volume; the first pass keeps the paper's 2^10 network
    /// partitions so the communication structure is unchanged.
    pub fn scale_config(
        self,
        mut cfg: DistJoinConfig,
        total_paper_millions: u64,
    ) -> DistJoinConfig {
        cfg.rdma_buf_size = (cfg.rdma_buf_size as u64 / self.0).max(64) as usize;
        cfg.fabric_override = Some(self.scale_fabric(cfg.fabric_config()));
        cfg.cluster.cost.nic = self.scale_nic(cfg.cluster.cost.nic);
        let total_bytes = self.tuples(total_paper_millions) * 16;
        let (b1, _) = cfg.radix_bits;
        let want = (total_bytes / (32 * 1024)).max(1);
        let want_bits = 64 - u64::leading_zeros(want.next_power_of_two()) as u64 - 1;
        let b2 = want_bits.saturating_sub(b1 as u64).clamp(1, 10) as u32;
        cfg.radix_bits = (b1, b2);
        cfg.cluster.meter_quantum_ns /= self.0 as f64;
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsj_cluster::ClusterSpec;

    #[test]
    fn scaled_config_shrinks_fixed_costs_and_keeps_the_first_pass() {
        let s = Scale(256);
        assert_eq!(s.tuples(2048), 8_000_000);
        let cfg = DistJoinConfig::new(ClusterSpec::qdr_cluster(4));
        let scaled = s.scale_config(cfg.clone(), 4096);
        assert_eq!(scaled.rdma_buf_size, 256);
        let f = scaled.fabric_override.unwrap();
        assert!((f.msg_rate / cfg.fabric_config().msg_rate - 256.0).abs() < 1e-9);
        assert!(scaled.cluster.cost.nic.post_overhead < cfg.cluster.cost.nic.post_overhead);
        assert_eq!(scaled.radix_bits.0, 10);
    }
}
