//! Configuration of a distributed join run: cluster, transport variant,
//! partition assignment, and skew handling knobs. Partition traffic always
//! lands with the channel semantics of §4.2.2 (DESIGN.md §4 item 3).

use rsj_cluster::ClusterSpec;

/// How the network partitioning pass moves data (the three variants of
/// Figure 5b).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum TransportMode {
    /// RDMA with computation/communication interleaving: at least two
    /// buffers per (thread, partition); a thread blocks only when the
    /// buffer it wants to reuse is still in flight (§4.2.1).
    RdmaInterleaved,
    /// RDMA without interleaving: a thread posts a buffer and immediately
    /// waits for the transfer to finish (the ablation of §6.3).
    RdmaNonInterleaved,
    /// TCP/IP over IPoIB: every message costs a kernel round trip and an
    /// intermediate-buffer copy on both ends, and senders are throttled by
    /// a flow-control window (§6.3's three reasons).
    Tcp,
}

/// How the *probe* phase reaches the build side's bucket tables — the
/// dataplane choice DESIGN.md §11 documents.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Transport {
    /// The paper's dataplane: both relations are repartitioned across the
    /// wire, every machine builds and probes its owned partitions locally.
    TwoSided,
    /// One-sided dataplane: only the build relation R crosses the wire.
    /// Each owner publishes its bucket tables in registered regions with
    /// seqlock-versioned buckets; probe hosts fetch buckets with RDMA
    /// READ — no receiver CPU in the probe hot path, at the price of one
    /// wire round trip per remote bucket fetch.
    OneSided,
}

/// What happens to matching tuple pairs (§4.3: "The result containing the
/// matching tuples can either be output to a local buffer or written to
/// RDMA-enabled buffers, depending on the location where the result will
/// be further processed").
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum MaterializeMode {
    /// Count matches and checksum only — what the paper's evaluation (and
    /// the baseline code of Balkesen et al.) measures.
    CountOnly,
    /// Materialize `<r.rid, s.rid>` pairs into local buffers on the
    /// machine that produced them (the join feeds a co-located consumer).
    Local,
    /// Materialize into RDMA buffers and ship them to machine 0 — the
    /// expensive distributed-materialization case §7 points at. Result
    /// buffers are reused on send completion, like partition buffers.
    ToCoordinator,
}

/// How partitions are assigned to machines after the histogram phase
/// (§4.1).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum AssignmentPolicy {
    /// Static round-robin: partition `p` goes to machine `p mod NM`.
    RoundRobin,
    /// Dynamic: sort partitions by element count (descending), then deal
    /// them round-robin so the largest partitions land on distinct
    /// machines — the paper's skew mitigation (§6.5).
    SortedDynamic,
}

/// Full configuration of one distributed join execution.
#[derive(Clone, Debug)]
pub struct DistJoinConfig {
    /// Cluster topology and cost model.
    pub cluster: ClusterSpec,
    /// Radix bits of the network pass (b₁) and the local pass (b₂).
    pub radix_bits: (u32, u32),
    /// Size of each RDMA-enabled send buffer; the paper fixes 64 KiB after
    /// the Figure 3 sweep (§6.2).
    pub rdma_buf_size: usize,
    /// Transport variant.
    pub transport: TransportMode,
    /// Partition-to-machine assignment policy.
    pub assignment: AssignmentPolicy,
    /// Override the interconnect's fabric parameters. Used by the scaled
    /// experiment harness, which shrinks data volumes and fixed per-message
    /// costs by the same factor so that virtual times rescale exactly (see
    /// DESIGN.md §4.5).
    pub fabric_override: Option<rsj_rdma::FabricConfig>,
    /// **Extension beyond the paper** (its §6.5/§8 future work): idle
    /// machines steal whole build-probe fragments from other machines'
    /// task queues during the build-probe phase, pulling the fragment
    /// bytes over the fabric with a one-sided RDMA READ. Off by default —
    /// the paper measures the imbalance that results *without* it.
    pub inter_machine_work_sharing: bool,
    /// Smallest fragment (bytes) worth stealing across machines: below
    /// this, the READ round trip costs more than the probe work saved.
    pub work_sharing_min_bytes: usize,
    /// **Extension beyond the paper**: share the *local partitioning pass*
    /// of oversized partitions among a machine's threads (the paper's §4.3
    /// already shares build-probe this way; under heavy skew the
    /// single-threaded second pass of the giant partition is the actual
    /// serial bottleneck — see EXPERIMENTS.md's fig8ws discussion). Off by
    /// default to preserve the paper's measured imbalance.
    pub parallel_local_pass: bool,
    /// Probe dataplane: ship-and-probe-locally (two-sided, the paper's
    /// design) or publish-and-READ (one-sided, DESIGN.md §11). The join
    /// result is byte-identical either way; only the cost profile moves.
    pub probe_transport: Transport,
    /// Result materialization (§4.3 / §7).
    pub materialize: MaterializeMode,
    /// Deterministic fault schedule for the fabric (DESIGN.md §8). `None`
    /// — the default — leaves the fault plane entirely out of the event
    /// schedule: the run is event-for-event identical to a build without
    /// it. `Some(plan)` injects the plan's drops, delays, link flaps, NIC
    /// stalls and host crashes, replayed identically for the same seed.
    pub fault_plan: Option<rsj_rdma::FaultPlan>,
}

impl DistJoinConfig {
    /// Paper-default knobs for the given cluster: b₁ = b₂ = 10 (2²⁰ final
    /// partitions, §6.4.3), 64 KiB buffers (double-buffered:
    /// [`rsj_cluster::SEND_DEPTH`]), two-sided interleaved RDMA, static
    /// round-robin assignment.
    pub fn new(cluster: ClusterSpec) -> DistJoinConfig {
        DistJoinConfig {
            cluster,
            radix_bits: (10, 10),
            rdma_buf_size: 64 * 1024,
            transport: TransportMode::RdmaInterleaved,
            assignment: AssignmentPolicy::RoundRobin,
            fabric_override: None,
            inter_machine_work_sharing: false,
            work_sharing_min_bytes: 16 * 1024,
            parallel_local_pass: false,
            probe_transport: Transport::TwoSided,
            materialize: MaterializeMode::CountOnly,
            fault_plan: None,
        }
    }

    /// The fabric this run uses ([`ClusterSpec::fabric_config`]).
    pub fn fabric_config(&self) -> rsj_rdma::FabricConfig {
        self.cluster.fabric_config(self.fabric_override)
    }

    /// Number of threads that partition during the network pass: `NC/M − 1`,
    /// because core 0 of every machine is the dedicated receiver (§5.1.1).
    pub fn partitioning_workers(&self) -> usize {
        self.cluster.cores_per_machine - 1
    }

    /// Validate the configuration.
    ///
    /// # Panics
    /// Panics on inconsistent settings (e.g. a single core per machine,
    /// which leaves no partitioning worker beside the receiver, or fewer
    /// first-pass partitions than machines).
    pub fn validate(&self) {
        let (b1, b2) = self.radix_bits;
        assert!(
            b1 >= 1 && b2 >= 1 && b1 + b2 <= 32,
            "radix bits out of range"
        );
        assert!(b1 <= 20, "first-pass partition ids must fit the wire tag");
        assert!(
            (1usize << b1) >= self.cluster.machines,
            "need at least one first-pass partition per machine (Eq. 14)"
        );
        assert!(
            self.rdma_buf_size >= 64,
            "RDMA buffers unrealistically small"
        );
        assert!(
            self.cluster.cores_per_machine >= 2,
            "the network pass dedicates one core to receiving"
        );
        if self.probe_transport == Transport::OneSided {
            assert_ne!(
                self.materialize,
                MaterializeMode::ToCoordinator,
                "one-sided probe materializes locally (no result shipping path)"
            );
            assert!(
                !self.inter_machine_work_sharing,
                "work stealing assumes two-sided build-probe task queues"
            );
            assert_ne!(
                self.transport,
                TransportMode::Tcp,
                "one-sided probe needs an RDMA-capable transport"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsj_cluster::ClusterSpec;

    #[test]
    fn defaults_match_paper() {
        let cfg = DistJoinConfig::new(ClusterSpec::qdr_cluster(4));
        cfg.validate();
        assert_eq!(cfg.radix_bits, (10, 10));
        assert_eq!(cfg.rdma_buf_size, 64 * 1024);
        assert_eq!(cfg.partitioning_workers(), 7); // NC/M - 1
    }

    #[test]
    #[should_panic(expected = "Eq. 14")]
    fn too_few_partitions_is_rejected() {
        let mut cfg = DistJoinConfig::new(ClusterSpec::qdr_cluster(10));
        cfg.radix_bits = (3, 10); // 8 partitions < 10 machines
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "materializes locally")]
    fn one_sided_probe_rejects_coordinator_materialization() {
        let mut cfg = DistJoinConfig::new(ClusterSpec::qdr_cluster(4));
        cfg.probe_transport = Transport::OneSided;
        cfg.materialize = MaterializeMode::ToCoordinator;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "two-sided build-probe task queues")]
    fn one_sided_probe_rejects_work_stealing() {
        let mut cfg = DistJoinConfig::new(ClusterSpec::qdr_cluster(4));
        cfg.probe_transport = Transport::OneSided;
        cfg.inter_machine_work_sharing = true;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "dedicates one core")]
    fn two_sided_needs_two_cores() {
        let mut cfg = DistJoinConfig::new(ClusterSpec::qdr_cluster(2));
        cfg.cluster.cores_per_machine = 1;
        cfg.validate();
    }
}
