//! CPU-utilization view of the interleaving argument (§3.2.1/§6.3): the
//! whole point of asynchronous RDMA is that "the processor remains
//! available for processing while a network operation is taking place".
//! This example measures it: per-machine CPU busy time, send-stall time,
//! and utilization for the interleaved and non-interleaved variants —
//! plus a rack rollup from the self-healing query service (DESIGN.md
//! §13): per-host live/fenced status, detection latency, and recovery
//! counters after a mid-batch host crash.
//!
//! ```text
//! cargo run --release --example utilization_report
//! ```

use std::sync::Arc;

use rsj::cluster::{ClusterSpec, HealingConfig, JoinRequest, QueryService, ServiceConfig};
use rsj::core::{try_run_distributed_join, DistJoinConfig, DistJoinJob, TransportMode};
use rsj::rdma::{FaultPlan, HostCrash, HostId};
use rsj::sim::SimTime;
use rsj::workload::{generate_inner, generate_outer, Skew, Tuple16};

fn run(transport: TransportMode) -> rsj::core::DistJoinOutcome {
    let machines = 4;
    let mut cfg = DistJoinConfig::new(ClusterSpec::qdr_cluster(machines));
    cfg.radix_bits = (4, 7);
    cfg.rdma_buf_size = 2048;
    cfg.transport = transport;
    let n = 3_000_000;
    let r = generate_inner::<Tuple16>(n, machines, 13);
    let (s, oracle) = generate_outer::<Tuple16>(n, n, machines, Skew::None, 14);
    let out = try_run_distributed_join(cfg, r, s).expect("distributed join aborted");
    oracle.verify(&out.result);
    out
}

fn main() {
    println!("3M ⋈ 3M tuples on 4 QDR machines, 8 cores each\n");
    for (label, transport) in [
        ("interleaved", TransportMode::RdmaInterleaved),
        ("non-interleaved", TransportMode::RdmaNonInterleaved),
    ] {
        let out = run(transport);
        let total = out.phases.total().as_secs_f64();
        println!(
            "{label}: total {} | network pass {}",
            out.phases.total(),
            out.phases.network_partition
        );
        println!(
            "  {:>8}  {:>12} {:>12} {:>12}",
            "machine", "cpu busy (s)", "stalled (s)", "utilization"
        );
        for (i, m) in out.machines.iter().enumerate() {
            println!(
                "  {:>8}  {:>12.5} {:>12.5} {:>11.1}%",
                i,
                m.cpu_busy_seconds,
                m.send_stall_seconds,
                m.cpu_busy_seconds / (8.0 * total) * 100.0
            );
        }
        println!();
    }
    println!("Expected shape: the non-interleaved variant stalls its partitioning");
    println!("threads after every posted buffer, so its send-stall column grows and");
    println!("its utilization drops — the time the interleaved variant spends");
    println!("computing under in-flight transfers (§6.3's ~35% network-pass gap).");

    healing_rollup();
}

/// Rack rollup from the self-healing service: a small mixed batch over a
/// six-host rack with one host fail-stopped mid-batch, healing armed.
fn healing_rollup() {
    let hosts = 6;
    let mut plan = FaultPlan::fault_free();
    plan.crashes = vec![HostCrash {
        host: HostId(2),
        at: SimTime::from_nanos(300_000),
    }];
    let mut cfg = ServiceConfig::qdr_rack(hosts, 2);
    cfg.max_concurrent = 4;
    cfg.fault_plan = Some(plan);
    cfg.healing = HealingConfig::armed();

    let requests: Vec<JoinRequest> = (0..8)
        .map(|q| {
            let m = 2 + (q % 2);
            let seed = 900 + q as u64 * 2;
            let r = generate_inner::<Tuple16>(2_000, m, seed);
            let (s, _) = generate_outer::<Tuple16>(6_000, 2_000, m, Skew::None, seed + 1);
            let mut jcfg = DistJoinConfig::new(ClusterSpec::qdr_cluster(m));
            jcfg.cluster.cores_per_machine = 2;
            jcfg.radix_bits = (4, 2);
            jcfg.rdma_buf_size = 1024;
            JoinRequest {
                label: format!("q{q}"),
                id: None,
                placement: None,
                job: DistJoinJob::new(jcfg, r, s) as Arc<dyn rsj::cluster::QueryJob>,
            }
        })
        .collect();
    let report = QueryService::run(&cfg, requests);

    println!("\nSelf-healing rack rollup (host 2 fail-stops at 300 µs, DESIGN.md §13):");
    println!(
        "  {} queries: {} completed, {} healed across {} re-admission(s), {} rejected typed\n",
        report.queries.len(),
        report.completed(),
        report.healed,
        report.retries,
        report.rejected
    );
    println!(
        "  {:>4}  {:>7} {:>14} {:>14} {:>10} {:>9}",
        "host", "status", "crashed at", "detected in", "recovered", "rejected"
    );
    for h in &report.hosts {
        println!(
            "  {:>4}  {:>7} {:>14} {:>14} {:>10} {:>9}",
            h.host.0,
            if h.fenced { "FENCED" } else { "live" },
            h.crashed_at.map_or_else(
                || "-".to_string(),
                |t| format!("{:.1} µs", t.as_nanos() as f64 / 1e3)
            ),
            h.detection_latency.map_or_else(
                || "-".to_string(),
                |d| format!("{:.1} µs", d.as_nanos() as f64 / 1e3)
            ),
            h.queries_recovered,
            h.queries_rejected
        );
    }
}
