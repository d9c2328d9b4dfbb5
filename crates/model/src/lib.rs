//! # rsj-model — the analytical model of Section 5
//!
//! Closed-form predictions of the distributed join's phase times from the
//! system configuration and input sizes, exactly as derived in the paper:
//!
//! * Eq. 1 — per-thread network share `psNetwork = netMax / (NC/M − 1)`;
//! * Eq. 2 — the CPU-bound ↔ network-bound criterion;
//! * Eq. 3/5 — global speed of the network partitioning pass in each
//!   regime (with Eq. 4's effective per-thread speed when network-bound);
//! * Eq. 6/7 — local passes and the combined partitioning time;
//! * Eq. 8–11 — build and probe times;
//! * Eq. 12 — the optimal number of cores per machine;
//! * Eq. 13/14 — upper bounds on the number of machines.
//!
//! [`predict`] returns a [`PhaseTimes`] directly comparable to the
//! simulator's measured output — the comparison *is* Figure 9.

#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_types,
        clippy::unwrap_used,
        clippy::iter_over_hash_type,
        clippy::let_underscore_must_use,
        clippy::unused_result_ok,
        unused_must_use
    )
)]

use rsj_cluster::{ClusterSpec, CostModel, PhaseTimes};
use rsj_sim::SimDuration;

/// Inputs of the analytical model (the symbols of Table 1).
#[derive(Clone, Debug)]
pub struct ModelInput {
    /// Size of the inner relation in bytes (|R|).
    pub r_bytes: f64,
    /// Size of the outer relation in bytes (|S|).
    pub s_bytes: f64,
    /// Number of machines (NM).
    pub machines: usize,
    /// Processor cores per machine (NC/M).
    pub cores_per_machine: usize,
    /// Per-host network bandwidth in bytes/second (netMax), already
    /// adjusted for congestion (Eq. 15's `(NM−1)·110 MB/s` on QDR).
    pub net_max: f64,
    /// Per-thread processing rates.
    pub cost: CostModel,
    /// Total partitioning passes `p` (the paper's experiments use 2: one
    /// network pass + one local pass).
    pub passes: u32,
}

impl ModelInput {
    /// Build the model input for a [`ClusterSpec`] and relation sizes,
    /// deriving `netMax` from the interconnect's congestion-adjusted
    /// bandwidth.
    pub fn from_cluster(spec: &ClusterSpec, r_bytes: f64, s_bytes: f64) -> ModelInput {
        let fabric = spec.interconnect.fabric_config();
        ModelInput {
            r_bytes,
            s_bytes,
            machines: spec.machines,
            cores_per_machine: spec.cores_per_machine,
            net_max: fabric.effective_bandwidth(spec.machines),
            cost: spec.cost,
            passes: 2,
        }
    }
}

/// The model's output: phase times plus the intermediate quantities the
/// paper discusses.
#[derive(Clone, Debug)]
pub struct ModelPrediction {
    /// Predicted per-phase times.
    pub phases: PhaseTimes,
    /// Whether the network partitioning pass is network-bound (Eq. 2).
    pub network_bound: bool,
    /// Effective per-thread partitioning speed during the network pass
    /// (psPart when CPU-bound, Eq. 4 otherwise), bytes/second.
    pub ps_thread: f64,
    /// Global speed of the network partitioning pass (Eq. 3 or 5), B/s.
    pub ps1: f64,
    /// Global speed of a local partitioning pass (Eq. 6), B/s.
    pub ps2: f64,
}

impl ModelPrediction {
    /// Total predicted execution time.
    pub fn total(&self) -> SimDuration {
        self.phases.total()
    }
}

/// Per-thread share of the host's network bandwidth (Eq. 1).
pub fn ps_network(net_max: f64, cores_per_machine: usize) -> f64 {
    assert!(cores_per_machine >= 2, "Eq. 1 needs a receiver core");
    net_max / (cores_per_machine as f64 - 1.0)
}

/// Is the system network-bound (Eq. 2)? True when remote tuples are
/// produced faster than the network can carry them.
pub fn is_network_bound(input: &ModelInput) -> bool {
    let nm = input.machines as f64;
    if input.machines <= 1 {
        return false;
    }
    let ps_net = ps_network(input.net_max, input.cores_per_machine);
    (nm - 1.0) / nm * input.cost.partition_rate > ps_net
}

/// Effective per-thread partitioning speed in the network pass: psPart
/// when CPU-bound, Eq. 4 when network-bound.
pub fn ps_thread(input: &ModelInput) -> f64 {
    let ps_part = input.cost.partition_rate;
    if !is_network_bound(input) {
        return ps_part;
    }
    let nm = input.machines as f64;
    let ps_net = ps_network(input.net_max, input.cores_per_machine);
    nm * ps_part * ps_net / ((nm - 1.0) * ps_part + ps_net)
}

/// Predict all phase times (Eqs. 1–11, plus a histogram-phase term using
/// the same thread layout as the implementation).
pub fn predict(input: &ModelInput) -> ModelPrediction {
    assert!(input.machines >= 1 && input.passes >= 1);
    let nm = input.machines as f64;
    let nc = input.cores_per_machine as f64;
    let total_bytes = input.r_bytes + input.s_bytes;

    let network_bound = is_network_bound(input);
    let ps_t = ps_thread(input);
    // Eq. 3 / Eq. 5: NC/M − 1 partitioning threads per machine.
    let ps1 = nm * (nc - 1.0) * ps_t;
    // Eq. 6: all cores partition in local passes.
    let ps2 = nm * nc * input.cost.partition_rate;
    // Eq. 7, split into its two terms for the phase breakdown.
    let t_network = total_bytes / ps1;
    let t_local = (input.passes as f64 - 1.0) * total_bytes / ps2;
    // Eqs. 8–11.
    let t_build = input.r_bytes / (nm * nc * input.cost.build_rate);
    let t_probe = input.s_bytes / (nm * nc * input.cost.probe_rate);
    // Histogram phase (not modelled in §5 but reported in every figure):
    // the NC/M − 1 partitioning threads scan both inputs.
    let t_hist = total_bytes / (nm * (nc - 1.0) * input.cost.histogram_rate);

    ModelPrediction {
        phases: PhaseTimes {
            histogram: SimDuration::from_secs_f64(t_hist),
            network_partition: SimDuration::from_secs_f64(t_network),
            local_partition: SimDuration::from_secs_f64(t_local),
            build_probe: SimDuration::from_secs_f64(t_build + t_probe),
        },
        network_bound,
        ps_thread: ps_t,
        ps1,
        ps2,
    }
}

/// **Extension beyond the paper's §5**: a refined network-pass estimate
/// that models the pass as a pipeline instead of Eq. 4's serial sum, and
/// adds the tail the implementation necessarily pays:
///
/// * the pass finishes at `max(CPU time, wire time)` — partitioning of
///   local tuples overlaps in-flight transfers, so the Eq. 4 composition
///   over-estimates whenever a substantial fraction of the data is local;
/// * at the end of the pass, every (thread, remote partition) stream
///   flushes its final partial buffer and waits for it: a drain tail of up
///   to `threads · NP1 · S_buffer / netMax` per host (the same quantity
///   Eq. 13 bounds).
///
/// The remaining phases are identical to [`predict`]. Comparing the two
/// against the simulator quantifies how much of Figure 9's residual error
/// is pipeline structure vs. rate calibration.
pub fn predict_refined(input: &ModelInput, np1: usize, buf_bytes: usize) -> ModelPrediction {
    let base = predict(input);
    let nm = input.machines as f64;
    let nc = input.cores_per_machine as f64;
    let total_bytes = input.r_bytes + input.s_bytes;
    let threads = nc - 1.0;
    // Per-host CPU time to partition everything.
    let cpu = total_bytes / (nm * threads * input.cost.partition_rate);
    // Per-host wire time for the remote fraction.
    let remote = total_bytes / nm * (nm - 1.0) / nm;
    let wire = remote / input.net_max;
    // Final-buffer drain tail.
    let tail = threads * np1 as f64 * buf_bytes as f64 / input.net_max;
    let t_network = cpu.max(wire) + tail;
    ModelPrediction {
        phases: PhaseTimes {
            network_partition: SimDuration::from_secs_f64(t_network),
            ..base.phases
        },
        ..base
    }
}

/// Eq. 12: the number of cores per machine at which the partitioning
/// threads exactly saturate the network (`NC/M = 1 + NM/(NM−1) ·
/// netMax/psPart`). Returns a fractional core count; round up to size a
/// machine, down to avoid over-provisioning.
pub fn optimal_cores(net_max: f64, ps_part: f64, machines: usize) -> f64 {
    assert!(machines >= 2, "a single machine has no network to saturate");
    let nm = machines as f64;
    1.0 + nm / (nm - 1.0) * (net_max / ps_part)
}

/// Eq. 13: the machine count above which RDMA buffers of `buf_bytes` are
/// no longer filled before transmission, wasting bandwidth:
/// `NM ≤ |R| / (NP1 · (NC/M − 1) · S_buffer)`.
pub fn max_machines_for_full_buffers(
    r_bytes: f64,
    np1: usize,
    cores_per_machine: usize,
    buf_bytes: usize,
) -> f64 {
    r_bytes / (np1 as f64 * (cores_per_machine as f64 - 1.0) * buf_bytes as f64)
}

/// Eq. 14: every core needs at least one partition: `NC/M · NM ≤ NP1`.
pub fn enough_partitions(np1: usize, machines: usize, cores_per_machine: usize) -> bool {
    machines * cores_per_machine <= np1
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsj_cluster::ClusterSpec;

    const MB: f64 = 1.0e6;
    /// 2048 million 16-byte tuples, the workload of Figures 7a/9/10.
    const REL_2048M: f64 = 2048.0e6 * 16.0;

    fn qdr_input(machines: usize) -> ModelInput {
        ModelInput::from_cluster(&ClusterSpec::qdr_cluster(machines), REL_2048M, REL_2048M)
    }

    fn fdr_input(machines: usize) -> ModelInput {
        ModelInput::from_cluster(&ClusterSpec::fdr_cluster(machines), REL_2048M, REL_2048M)
    }

    #[test]
    fn eq15_network_speeds() {
        // psFDR = 6000/7 MB/s; psQDR(NM) = (3400 − (NM−1)·110)/7 MB/s.
        let fdr = fdr_input(4);
        assert!((ps_network(fdr.net_max, 8) - 6000.0 * MB / 7.0).abs() < 1.0);
        let qdr10 = qdr_input(10);
        assert!((ps_network(qdr10.net_max, 8) - (3400.0 - 9.0 * 110.0) * MB / 7.0).abs() < 1.0);
    }

    #[test]
    fn eq2_regimes_match_section_6_8() {
        // §6.8: "the join is CPU bound on the FDR network for two and
        // three machines"; QDR is network-bound throughout.
        assert!(!is_network_bound(&fdr_input(2)));
        assert!(!is_network_bound(&fdr_input(3)));
        for m in [4, 6, 8, 10] {
            assert!(is_network_bound(&qdr_input(m)), "QDR {m} machines");
        }
    }

    #[test]
    fn prediction_matches_paper_totals_within_ten_percent() {
        // Figure 6a/7a measured totals for 2048M ⋈ 2048M on QDR.
        for (machines, measured) in [(4usize, 7.19f64), (6, 5.36), (8, 4.46), (10, 3.84)] {
            let p = predict(&qdr_input(machines));
            let total = p.total().as_secs_f64();
            let err = (total - measured).abs() / measured;
            assert!(
                err < 0.10,
                "{machines} machines: predicted {total:.2}s vs measured {measured:.2}s"
            );
        }
        // FDR cluster, Figure 9a: 4 machines measured 5.75 s.
        let p = predict(&fdr_input(4));
        let total = p.total().as_secs_f64();
        assert!(
            (total - 5.75).abs() / 5.75 < 0.10,
            "FDR-4 predicted {total:.2}s"
        );
    }

    #[test]
    fn refined_model_is_at_most_the_base_estimate_when_network_bound() {
        // In the network-bound regime max(cpu, wire) <= Eq. 4's serial
        // composition, so with a modest tail the refined network estimate
        // stays close to (and usually under) the base one.
        for m in [4usize, 6, 8, 10] {
            let input = qdr_input(m);
            let base = predict(&input);
            let refined = predict_refined(&input, 1024, 64 * 1024);
            let b = base.phases.network_partition.as_secs_f64();
            let r = refined.phases.network_partition.as_secs_f64();
            assert!(r < 1.15 * b, "{m} machines: refined {r:.3} vs base {b:.3}");
            // Non-network phases are untouched.
            assert_eq!(base.phases.build_probe, refined.phases.build_probe);
        }
    }

    #[test]
    fn refined_tail_grows_with_buffer_size() {
        let input = qdr_input(10);
        let small = predict_refined(&input, 1024, 16 * 1024);
        let large = predict_refined(&input, 1024, 256 * 1024);
        assert!(large.phases.network_partition > small.phases.network_partition);
    }

    #[test]
    fn eq4_thread_speed_at_ten_qdr_machines() {
        // Hand-computed: netMax = 2410 MB/s, psNet = 344.3 MB/s,
        // psThread = 10·955·344.3 / (9·955 + 344.3) ≈ 367.9 MB/s.
        let p = ps_thread(&qdr_input(10));
        assert!(
            (p / MB - 367.9).abs() < 1.0,
            "psThread = {:.1} MB/s",
            p / MB
        );
    }

    #[test]
    fn eq12_optimal_cores_match_section_6_8_1() {
        // §6.8.1: four cores per machine on QDR, seven on FDR.
        let qdr = qdr_input(10);
        let opt_qdr = optimal_cores(qdr.net_max, qdr.cost.partition_rate, 10);
        assert!(
            (3.5..=4.9).contains(&opt_qdr),
            "QDR optimum {opt_qdr:.2} cores"
        );
        let fdr = fdr_input(4);
        let opt_fdr = optimal_cores(fdr.net_max, fdr.cost.partition_rate, 4);
        assert!(
            (6.5..=9.4).contains(&opt_fdr),
            "FDR optimum {opt_fdr:.2} cores"
        );
    }

    #[test]
    fn eq13_machine_bound_shrinks_with_buffer_size() {
        let r = 1024.0e6 * 16.0;
        let small = max_machines_for_full_buffers(r, 1024, 8, 16 * 1024);
        let large = max_machines_for_full_buffers(r, 1024, 8, 64 * 1024);
        assert!(small > large);
        assert!(large >= 2.0, "the evaluated configs satisfy Eq. 13");
    }

    #[test]
    fn eq14_partition_sufficiency() {
        assert!(enough_partitions(1024, 10, 8));
        assert!(!enough_partitions(64, 10, 8));
    }

    #[test]
    fn more_machines_is_never_slower_in_the_model() {
        let mut prev = f64::INFINITY;
        for m in 2..=10 {
            let t = predict(&qdr_input(m)).total().as_secs_f64();
            assert!(t < prev, "{m} machines: {t:.3}s vs previous {prev:.3}s");
            prev = t;
        }
    }

    #[test]
    fn sub_linear_speedup_on_qdr() {
        // §6.4.3: scaling 2 → 10 machines speeds up only ~2.9x because the
        // network pass is the bottleneck.
        let t2 = predict(&qdr_input(2)).total().as_secs_f64();
        let t10 = predict(&qdr_input(10)).total().as_secs_f64();
        let speedup = t2 / t10;
        assert!(
            (2.4..=3.6).contains(&speedup),
            "2→10 machine speedup {speedup:.2} (paper: 2.91)"
        );
        // The local pass and build-probe alone scale ~linearly.
        let p2 = predict(&qdr_input(2));
        let p10 = predict(&qdr_input(10));
        let local_speedup =
            p2.phases.local_partition.as_secs_f64() / p10.phases.local_partition.as_secs_f64();
        assert!((4.8..=5.2).contains(&local_speedup));
    }

    #[test]
    fn fdr_network_pass_scales_better_than_qdr() {
        // §6.6: speed-up of the network pass from 2 → 4 nodes is 1.7 on
        // FDR vs 1.3 on QDR.
        let fdr = predict(&fdr_input(2))
            .phases
            .network_partition
            .as_secs_f64()
            / predict(&fdr_input(4))
                .phases
                .network_partition
                .as_secs_f64();
        let qdr = predict(&qdr_input(2))
            .phases
            .network_partition
            .as_secs_f64()
            / predict(&qdr_input(4))
                .phases
                .network_partition
                .as_secs_f64();
        assert!(fdr > qdr, "FDR {fdr:.2}x vs QDR {qdr:.2}x");
        assert!((1.5..=2.0).contains(&fdr), "FDR scale-out {fdr:.2}");
        assert!((1.2..=1.7).contains(&qdr), "QDR scale-out {qdr:.2}");
    }
}
