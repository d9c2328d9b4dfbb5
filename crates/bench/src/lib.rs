//! # rsj-bench — experiment infrastructure
//!
//! Shared machinery for regenerating the paper's tables and figures:
//! scaled workloads, paper-equivalent time conversion, table rendering,
//! and fabric micro-measurements.
//!
//! ## Scaling
//!
//! The paper's workloads are billions of tuples (up to ~300 GB); this
//! harness runs the *same system* at `1/scale` of the data volume with all
//! fixed per-message costs shrunk by the same factor (buffer size, message
//! rate, latency, post/syscall overheads). Every cost in the simulation is
//! then linear in bytes, so `virtual_time(scaled run) × scale` equals the
//! paper-scale prediction exactly — a property covered by an integration
//! test. Reports show paper-equivalent seconds.

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

use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::Arc;

use rsj_cluster::{ClusterSpec, PhaseTimes};
use rsj_core::{try_run_distributed_join, DistJoinConfig, DistJoinOutcome};
use rsj_rdma::{Fabric, FabricConfig, HostId, NicCosts};
use rsj_sim::Simulation;
use rsj_workload::{generate_inner, generate_outer, ExpectedResult, Relation, Skew, Tuple16};

pub mod experiments;
pub mod service_stress;
pub mod sweep;

/// Default scale divisor: 2048 M tuples become 2 M. Paper-equivalent
/// times are scale-invariant (all simulated costs are linear in bytes and
/// fixed costs are scaled alongside — covered by an integration test), so
/// the default favours wall-clock speed; pass `--scale 256` for the
/// larger runs used while calibrating.
pub const DEFAULT_SCALE: u64 = 1024;

/// A scaled experiment context.
#[derive(Copy, Clone, Debug)]
pub struct Scale {
    /// Divisor applied to the paper's tuple counts.
    pub factor: u64,
}

impl Scale {
    /// A scale with the given divisor (`>= 1`).
    pub fn new(factor: u64) -> Scale {
        assert!(factor >= 1);
        Scale { factor }
    }

    /// Scaled tuple count for a paper workload of `paper_millions` million
    /// tuples.
    pub fn tuples(&self, paper_millions: u64) -> u64 {
        (paper_millions * 1_000_000 / self.factor).max(1)
    }

    /// Convert a scaled-run virtual duration to paper-equivalent seconds.
    pub fn paper_seconds(&self, d: rsj_sim::SimDuration) -> f64 {
        d.as_secs_f64() * self.factor as f64
    }

    /// Convert a full phase breakdown to paper-equivalent seconds.
    pub fn paper_phases(&self, p: &PhaseTimes) -> [f64; 5] {
        [
            self.paper_seconds(p.histogram),
            self.paper_seconds(p.network_partition),
            self.paper_seconds(p.local_partition),
            self.paper_seconds(p.build_probe),
            self.paper_seconds(p.total()),
        ]
    }

    /// Shrink a fabric's fixed per-message costs by the scale factor.
    pub fn scale_fabric(&self, mut fabric: FabricConfig) -> FabricConfig {
        fabric.msg_rate *= self.factor as f64;
        fabric.latency /= self.factor as f64;
        fabric
    }

    /// Shrink the NIC's fixed per-event CPU costs by the scale factor
    /// (per-byte rates are left untouched).
    pub fn scale_nic(&self, nic: NicCosts) -> NicCosts {
        let f = self.factor as f64;
        NicCosts {
            post_overhead: nic.post_overhead / f,
            mr_register_base: nic.mr_register_base / f,
            mr_register_per_page: nic.mr_register_per_page, // per-byte-ish
            tcp_syscall: nic.tcp_syscall / f,
            tcp_copy_rate: nic.tcp_copy_rate, // a rate, not a fixed cost
        }
    }

    /// Scaled RDMA buffer size (floored at 64 bytes).
    pub fn scale_buf(&self, buf: usize) -> usize {
        (buf as u64 / self.factor).max(64) as usize
    }

    /// Shrink a join configuration's fixed costs by the scale factor so
    /// the scaled run reproduces paper-scale times exactly (see module
    /// docs). Also picks a second-pass bit count that keeps final
    /// fragments near the paper's ~32 KiB working set at the scaled
    /// volume.
    pub fn scale_config(
        &self,
        mut cfg: DistJoinConfig,
        total_paper_millions: u64,
    ) -> DistJoinConfig {
        // Data-linear quantities.
        cfg.rdma_buf_size = self.scale_buf(cfg.rdma_buf_size);
        // Fixed per-event costs shrink with the scale.
        cfg.fabric_override = Some(self.scale_fabric(cfg.fabric_config()));
        cfg.cluster.cost.nic = self.scale_nic(cfg.cluster.cost.nic);
        // Second-pass bits: enough fragments for parallelism and ~32 KiB
        // tasks at the scaled volume; b1 stays at the paper's 2^10 network
        // partitions so the communication structure is unchanged.
        let total_bytes = self.tuples(total_paper_millions) * 16;
        let (b1, _) = cfg.radix_bits;
        let want = (total_bytes / (32 * 1024)).max(1);
        let want_bits = 64 - u64::leading_zeros(want.next_power_of_two()) as u64 - 1;
        let b2 = want_bits.saturating_sub(b1 as u64).clamp(1, 10) as u32;
        cfg.radix_bits = (b1, b2);
        cfg.cluster.meter_quantum_ns /= self.factor as f64;
        cfg
    }
}

/// A generated workload pair plus its oracle.
pub struct Workload {
    /// Inner relation.
    pub r: Relation<Tuple16>,
    /// Outer relation.
    pub s: Relation<Tuple16>,
    /// Expected result.
    pub oracle: ExpectedResult,
}

/// Generate a scaled workload of `r_millions ⋈ s_millions` (paper tuple
/// counts) across `machines`.
pub fn workload(
    scale: Scale,
    r_millions: u64,
    s_millions: u64,
    machines: usize,
    skew: Skew,
) -> Workload {
    let n_r = scale.tuples(r_millions);
    let n_s = scale.tuples(s_millions);
    let r = generate_inner::<Tuple16>(n_r, machines, 0xFEED + r_millions);
    let (s, oracle) = generate_outer::<Tuple16>(n_s, n_r, machines, skew, 0xBEEF + s_millions);
    Workload { r, s, oracle }
}

/// Run a distributed join for a paper workload on `spec`, verifying the
/// result, and return the outcome.
pub fn run_scaled_join(
    scale: Scale,
    spec: ClusterSpec,
    r_millions: u64,
    s_millions: u64,
    skew: Skew,
    tweak: impl FnOnce(&mut DistJoinConfig),
) -> DistJoinOutcome {
    let machines = spec.machines;
    let mut cfg = DistJoinConfig::new(spec);
    tweak(&mut cfg);
    let cfg = scale.scale_config(cfg, r_millions + s_millions);
    let w = workload(scale, r_millions, s_millions, machines, skew);
    let out = try_run_distributed_join(cfg, w.r, w.s).expect("distributed join aborted");
    w.oracle.verify(&out.result);
    out
}

/// Measure the steady-state point-to-point bandwidth of a fabric for a
/// given message size by streaming `count` messages through the simulator
/// (the measured series of Figure 3).
pub fn measure_stream_bandwidth(cfg: FabricConfig, msg_bytes: usize, count: usize) -> f64 {
    let sim = Simulation::new();
    let fabric = Fabric::new(cfg, NicCosts::default(), 2);
    fabric.launch(&sim);
    let finish = Arc::new(Cell::new(0.0f64));
    {
        let fabric = Arc::clone(&fabric);
        sim.spawn("bw-sender", move |ctx| {
            let nic = fabric.nic(HostId(0));
            let evs: Vec<_> = (0..count)
                .map(|_| nic.post_send(ctx, HostId(1), 0, vec![0u8; msg_bytes]))
                .collect();
            for ev in evs {
                // lint: allow-fabric-panic(no fault plan installed)
                ev.wait(ctx).expect("fault-free stream send failed");
            }
            fabric.shutdown(ctx);
        });
    }
    {
        let fabric = Arc::clone(&fabric);
        let finish = Arc::clone(&finish);
        sim.spawn("bw-receiver", move |ctx| {
            let nic = fabric.nic(HostId(1));
            let mut got = 0usize;
            while let Ok(Some(c)) = nic.recv(ctx) {
                got += c.payload.len();
                nic.repost_recv(ctx);
            }
            assert_eq!(got, msg_bytes * count);
            finish.set(ctx.now().as_secs_f64());
        });
    }
    sim.run();
    let seconds = finish.get();
    (msg_bytes * count) as f64 / seconds
}

/// A plain-text table renderer for experiment reports.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                write!(out, "{:>w$}  ", c, w = widths[i]).expect("writing to a String cannot fail");
            }
            out.push('\n');
        };
        line(&self.header, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(row, &widths, &mut out);
        }
        out
    }
}

/// Format seconds with 2 decimals.
pub fn secs(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_math() {
        let s = Scale::new(256);
        assert_eq!(s.tuples(2048), 8_000_000);
        assert_eq!(s.paper_seconds(rsj_sim::SimDuration::from_millis(10)), 2.56);
    }

    #[test]
    fn scaled_config_shrinks_fixed_costs() {
        let s = Scale::new(256);
        let cfg = DistJoinConfig::new(ClusterSpec::qdr_cluster(4));
        let scaled = s.scale_config(cfg.clone(), 4096);
        assert_eq!(scaled.rdma_buf_size, 256);
        let f = scaled.fabric_override.unwrap();
        let base = cfg.fabric_config();
        assert!((f.msg_rate / base.msg_rate - 256.0).abs() < 1e-9);
        assert!(scaled.cluster.cost.nic.post_overhead < cfg.cluster.cost.nic.post_overhead);
        // b1 keeps the paper's communication structure.
        assert_eq!(scaled.radix_bits.0, 10);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["a", "long-header"]);
        t.row(vec!["1".into(), "2".into()]);
        let r = t.render();
        assert!(r.contains("long-header"));
        assert_eq!(r.lines().count(), 3);
    }

    #[test]
    fn stream_bandwidth_measurement_matches_closed_form() {
        let cfg = FabricConfig::fdr();
        let measured = measure_stream_bandwidth(cfg, 64 * 1024, 64);
        let expect = cfg.stream_bandwidth(64 * 1024, 2);
        assert!((measured - expect).abs() / expect < 0.05);
    }
}
