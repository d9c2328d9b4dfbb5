//! Cluster topologies: the three hardware configurations of Table 2.

use rsj_rdma::FabricConfig;

use crate::cost::CostModel;

/// Which interconnect a configuration uses.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Interconnect {
    /// QDR InfiniBand (3.4 GB/s measured, with congestion — Eq. 15).
    Qdr,
    /// FDR InfiniBand (6.0 GB/s measured).
    Fdr,
    /// IP-over-InfiniBand on the FDR cluster (1.8 GB/s effective — §6.3).
    IpoIb,
    /// No network: a single multi-processor machine whose sockets are
    /// connected by QPI (8.4 GB/s peak per-core inter-socket writes).
    Qpi,
}

impl Interconnect {
    /// The fabric parameters for networked interconnects. `None` for
    /// [`Interconnect::Qpi`] (a single machine has no fabric).
    pub fn fabric_config(self) -> Option<FabricConfig> {
        match self {
            Interconnect::Qdr => Some(FabricConfig::qdr()),
            Interconnect::Fdr => Some(FabricConfig::fdr()),
            Interconnect::IpoIb => Some(FabricConfig::ipoib()),
            Interconnect::Qpi => None,
        }
    }
}

/// A concrete cluster: machine count, cores per machine, interconnect and
/// cost model.
#[derive(Clone, Debug)]
pub struct ClusterSpec {
    /// Human-readable name (for reports).
    pub name: String,
    /// Number of machines.
    pub machines: usize,
    /// Worker cores used per machine.
    pub cores_per_machine: usize,
    /// Interconnect between machines.
    pub interconnect: Interconnect,
    /// Per-thread cost model.
    pub cost: CostModel,
    /// Virtual-time quantum at which workers quantize accrued compute time
    /// (see [`Meter::DEFAULT_QUANTUM_NS`](crate::Meter::DEFAULT_QUANTUM_NS)).
    /// Scaled experiment runs shrink it alongside the data so the
    /// compute/communication interleaving granularity stays proportional.
    /// Every operator's meters draw from this field, so no binary can pin
    /// a stale quantum by constructing meters directly.
    pub meter_quantum_ns: f64,
}

impl ClusterSpec {
    /// The QDR cluster of Table 2: up to ten machines with 8 cores each
    /// (Intel Xeon E5-2609), Mellanox QDR HCAs.
    pub fn qdr_cluster(machines: usize) -> ClusterSpec {
        assert!((1..=10).contains(&machines), "the QDR cluster has 10 nodes");
        ClusterSpec {
            name: format!("qdr-{machines}"),
            machines,
            cores_per_machine: 8,
            interconnect: Interconnect::Qdr,
            cost: CostModel::cluster(),
            meter_quantum_ns: crate::Meter::DEFAULT_QUANTUM_NS,
        }
    }

    /// The FDR cluster of Table 2: up to four machines, 8 of the 40 cores
    /// used per machine in the comparison experiments (Intel Xeon E5-4650
    /// v2), Mellanox FDR HCAs.
    pub fn fdr_cluster(machines: usize) -> ClusterSpec {
        assert!((1..=4).contains(&machines), "the FDR cluster has 4 nodes");
        ClusterSpec {
            name: format!("fdr-{machines}"),
            machines,
            cores_per_machine: 8,
            interconnect: Interconnect::Fdr,
            cost: CostModel::cluster(),
            meter_quantum_ns: crate::Meter::DEFAULT_QUANTUM_NS,
        }
    }

    /// The FDR cluster running TCP/IP over IPoIB (the baseline transport
    /// of Figure 5b).
    pub fn ipoib_cluster(machines: usize) -> ClusterSpec {
        assert!((1..=4).contains(&machines), "the FDR cluster has 4 nodes");
        ClusterSpec {
            name: format!("ipoib-{machines}"),
            machines,
            cores_per_machine: 8,
            interconnect: Interconnect::IpoIb,
            cost: CostModel::cluster(),
            meter_quantum_ns: crate::Meter::DEFAULT_QUANTUM_NS,
        }
    }

    /// The high-end multi-core server of Table 2: 4 sockets, 8 of 10 cores
    /// per socket used (32 total), QPI interconnect, SIMD-tuned radix join.
    pub fn single_machine_server() -> ClusterSpec {
        ClusterSpec {
            name: "multicore-server".to_string(),
            machines: 1,
            cores_per_machine: 32,
            interconnect: Interconnect::Qpi,
            cost: CostModel::single_machine_server(),
            meter_quantum_ns: crate::Meter::DEFAULT_QUANTUM_NS,
        }
    }

    /// Total worker cores in the cluster.
    pub fn total_cores(&self) -> usize {
        self.machines * self.cores_per_machine
    }

    /// The fabric a run on this cluster uses: `fabric_override` if set,
    /// else the interconnect's preset (panics for QPI, which has none).
    pub fn fabric_config(&self, fabric_override: Option<FabricConfig>) -> FabricConfig {
        fabric_override.unwrap_or_else(|| {
            self.interconnect
                .fabric_config()
                .expect("a distributed operator needs a networked interconnect")
        })
    }

    /// Override the cores per machine (Figure 10 sweeps 4 vs 8).
    pub fn with_cores(mut self, cores: usize) -> ClusterSpec {
        assert!(
            cores >= 2,
            "need at least one partitioning + one receiver core"
        );
        self.cores_per_machine = cores;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_configurations() {
        let qdr = ClusterSpec::qdr_cluster(10);
        assert_eq!(qdr.total_cores(), 80);
        assert_eq!(qdr.interconnect, Interconnect::Qdr);

        let fdr = ClusterSpec::fdr_cluster(4);
        assert_eq!(fdr.total_cores(), 32);

        let single = ClusterSpec::single_machine_server();
        assert_eq!(single.total_cores(), 32);
        assert!(single.interconnect.fabric_config().is_none());
    }

    #[test]
    fn figure10_core_sweep() {
        let spec = ClusterSpec::qdr_cluster(6).with_cores(4);
        assert_eq!(spec.total_cores(), 24);
    }

    #[test]
    #[should_panic(expected = "10 nodes")]
    fn qdr_cluster_is_bounded() {
        ClusterSpec::qdr_cluster(11);
    }

    #[test]
    fn fabric_configs_differ_by_interconnect() {
        let q = Interconnect::Qdr.fabric_config().unwrap();
        let f = Interconnect::Fdr.fabric_config().unwrap();
        let i = Interconnect::IpoIb.fabric_config().unwrap();
        assert!(f.bandwidth > q.bandwidth);
        assert!(q.bandwidth > i.bandwidth);
    }
}
