//! The traced pass: one rep assembled from the layers' public parts so
//! that counters and span boundaries can be read from outside, and the
//! attribution of `wall_s` to layers.

use std::sync::{Arc, Mutex};

use rsj_cluster::{phase, ClusterRun, JoinError, PhaseEvent, QueryJob, QueryService, Runtime};
use rsj_core::DistJoinJob;
use rsj_rdma::{HostId, NicStats};
use rsj_sim::SimCtx;
use rsj_workload::Tuple16;

use crate::host::Interval;
use crate::micro::{ClusterCosts, JoinRates, RdmaCosts, SimCosts};
use crate::trace::Recorder;
use crate::workloads::{
    self, Checked, Data, Input, JoinInput, Kind, Op, Raw, ServiceData, ServiceInput,
};

/// Counters and span lengths read from one traced rep. Fields that do
/// not apply to the workload stay 0.
#[derive(Clone, Debug, Default)]
pub struct RepTrace {
    /// Messages the NICs sent (READ requests and responses count one
    /// each).
    pub tx_msgs: u64,
    /// Payload bytes the NICs sent.
    pub tx_bytes: u64,
    /// Egress retransmissions.
    pub retransmits: u64,
    /// Work requests completed in error.
    pub wc_errors: u64,
    /// Verbs-contract violations the validator recorded.
    pub violations: u64,
    /// Share of the run's virtual time the egress links were busy.
    pub link_busy_share: f64,
    /// Per-phase virtual seconds of the scaled run (max over machines).
    pub phase_s: PhaseSeconds,
    /// Virtual seconds partitioning threads waited for a send buffer.
    pub send_stall_s: f64,
    /// Virtual CPU seconds charged / (cores x virtual seconds).
    pub cpu_utilization: f64,
    /// Memory registered with the NICs, MB.
    pub registered_mb: f64,
    /// On-the-fly buffer registrations.
    pub fly_registrations: u64,
    /// Wall milliseconds of `Runtime::new_with_plan`.
    pub runtime_new_ms: f64,
    /// Wall milliseconds of `QueryJob::attach`.
    pub attach_ms: f64,
    /// Wall milliseconds of `Runtime::try_run`.
    pub run_ms: f64,
    /// Wall milliseconds of `QueryJob::finish`.
    pub finish_ms: f64,
    /// `ServiceReport::queue_wait_p50`, virtual ms.
    pub queue_wait_p50_ms: f64,
    /// `ServiceReport::queue_wait_p95`, virtual ms.
    pub queue_wait_p95_ms: f64,
    /// `ServiceReport::fabric_utilization`.
    pub fabric_utilization: f64,
    /// `ServiceReport::retries`.
    pub retries: u64,
    /// `ServiceReport::rejected`.
    pub rejected: u64,
}

/// Virtual seconds of each named phase.
#[derive(Copy, Clone, Debug, Default)]
pub struct PhaseSeconds {
    /// Histogram computation.
    pub histogram: f64,
    /// Network partitioning.
    pub network_partition: f64,
    /// Local partitioning (table publication on the one-sided plane).
    pub local_partition: f64,
    /// Two-sided build and probe.
    pub build_probe: f64,
    /// One-sided RDMA-READ probe.
    pub one_sided_probe: f64,
}

fn phase_seconds(events: &[PhaseEvent]) -> PhaseSeconds {
    let span = |name: &str| {
        events
            .iter()
            .filter(|e| e.name == name)
            .map(|e| e.duration().as_secs_f64())
            .fold(0.0, f64::max)
    };
    PhaseSeconds {
        histogram: span(phase::HISTOGRAM),
        network_partition: span(phase::NETWORK_PARTITION),
        local_partition: span(phase::LOCAL_PARTITION),
        build_probe: span(phase::BUILD_PROBE),
        one_sided_probe: span(phase::ONE_SIDED_PROBE),
    }
}

fn add_nic(trace: &mut RepTrace, stats: &NicStats) {
    trace.tx_msgs += stats.tx_msgs;
    trace.tx_bytes += stats.tx_bytes;
    trace.retransmits += stats.retransmits;
    trace.wc_errors += stats.wc_errors;
}

/// One join rep through `DistJoinJob::new` -> `Runtime::new_with_plan` ->
/// `attach` -> `try_run` -> `finish`: the sequence
/// `try_run_distributed_join` runs, with a span around each step and the
/// NIC counters read before the runtime is dropped.
fn traced_join(input: JoinInput, rec: &mut Recorder) -> (Raw, RepTrace) {
    let mut trace = RepTrace::default();
    let JoinInput { cfg, r, s } = input;
    let machines = cfg.cluster.machines;
    let cores = cfg.cluster.cores_per_machine;
    let fabric_cfg = cfg.fabric_config();
    let nic_costs = cfg.cluster.cost.nic;

    let (job, _) = rec.span("core.job_new", || DistJoinJob::<Tuple16>::new(cfg, r, s));
    let (rt, secs) = rec.span("cluster.runtime_new", || {
        Runtime::new_with_plan(machines, cores, fabric_cfg, nic_costs, None)
    });
    trace.runtime_new_ms = secs * 1e3;
    trace.attach_ms = rec.span("core.attach", || job.attach(&rt)).1 * 1e3;
    let worker = Arc::clone(&job);
    let (run, secs) = rec.span("core.run", || {
        rt.try_run(move |ctx, rt, mach, core| worker.run_worker(ctx, rt, mach, core))
    });
    trace.run_ms = secs * 1e3;
    let run = match run {
        Ok(run) => run,
        Err(e) => return (Raw::Join(Err(e)), trace),
    };
    trace.finish_ms = rec.span("core.finish", || job.finish(&rt, &run)).1 * 1e3;
    let outcome = job.take_outcome().expect("finish records the outcome");

    let total_s = outcome.phases.total().as_secs_f64();
    let mut busy_ns = 0;
    for m in 0..machines {
        let stats = rt.fabric.nic(HostId(m)).stats();
        add_nic(&mut trace, &stats);
        busy_ns += stats.tx_busy_ns;
    }
    trace.violations = rt.fabric.validator().violation_count();
    trace.link_busy_share = busy_ns as f64 * 1e-9 / (machines as f64 * total_s);
    trace.phase_s = phase_seconds(&run.events);
    for m in &outcome.machines {
        trace.send_stall_s += m.send_stall_seconds;
        trace.cpu_utilization += m.cpu_busy_seconds;
        trace.registered_mb += m.registered_bytes as f64 / 1e6;
        trace.fly_registrations += m.fly_registrations;
    }
    trace.cpu_utilization /= (machines * cores) as f64 * total_s;
    (Raw::Join(Ok(outcome)), trace)
}

/// NIC counters summed over the queries of a batch.
#[derive(Default)]
struct LaneTotals {
    nic: NicStats,
    violations: u64,
}

/// A `QueryJob` that forwards every call and, in `finish`, reads its
/// query's lane NICs: `QueryService` owns the fabric, so the per-query
/// runtime handed to `finish` is the one place its counters are visible
/// from outside.
struct Counted {
    inner: Arc<dyn QueryJob>,
    totals: Arc<Mutex<LaneTotals>>,
}

impl QueryJob for Counted {
    fn machines(&self) -> usize {
        self.inner.machines()
    }
    fn cores(&self) -> usize {
        self.inner.cores()
    }
    fn attach(&self, rt: &Arc<Runtime>) {
        self.inner.attach(rt);
    }
    fn run_worker(
        &self,
        ctx: &SimCtx,
        rt: &Runtime,
        machine: usize,
        core: usize,
    ) -> Result<(), JoinError> {
        self.inner.run_worker(ctx, rt, machine, core)
    }
    fn finish(&self, rt: &Runtime, run: &ClusterRun) {
        self.inner.finish(rt, run);
        let mut totals = self.totals.lock().expect("no panic holds this lock");
        for m in 0..rt.machines() {
            let stats = rt.fabric.nic(HostId(m)).stats();
            totals.nic.tx_msgs += stats.tx_msgs;
            totals.nic.tx_bytes += stats.tx_bytes;
            totals.nic.retransmits += stats.retransmits;
            totals.nic.wc_errors += stats.wc_errors;
        }
        // One validator serves the whole rack; its count only grows.
        totals.violations = totals
            .violations
            .max(rt.fabric.validator().violation_count());
    }
}

fn traced_service(mut input: ServiceInput, rec: &mut Recorder) -> (Raw, RepTrace) {
    let totals = Arc::new(Mutex::new(LaneTotals::default()));
    input.wrap_jobs(|inner| {
        Arc::new(Counted {
            inner,
            totals: Arc::clone(&totals),
        })
    });
    let (cfg, requests, handles) = input.into_parts();
    let (report, _) = rec.span("cluster.service_run", || QueryService::run(&cfg, requests));
    let totals = totals.lock().expect("no panic holds this lock");
    let mut trace = RepTrace {
        violations: totals.violations,
        link_busy_share: report.fabric_utilization,
        fabric_utilization: report.fabric_utilization,
        queue_wait_p50_ms: report.queue_wait_p50.as_secs_f64() * 1e3,
        queue_wait_p95_ms: report.queue_wait_p95.as_secs_f64() * 1e3,
        retries: report.retries as u64,
        rejected: report.rejected as u64,
        ..RepTrace::default()
    };
    add_nic(&mut trace, &totals.nic);
    (Raw::Service(report, handles), trace)
}

/// Run `input` through the assembled, span-recording path if `traced`,
/// through the plain layer call otherwise (the counters then stay 0).
pub fn run_input(input: Input, rec: &mut Recorder, traced: bool) -> (Raw, RepTrace) {
    match input {
        _ if !traced => (workloads::run(input), RepTrace::default()),
        Input::Join(i) => traced_join(i, rec),
        Input::Service(i) => traced_service(i, rec),
    }
}

/// Run one traced rep of `data`: returns the checked result, when the
/// region an untraced rep times ran and what it cost, the counters, and
/// the seconds the oracle check took.
pub fn traced_rep(data: &Data, rec: &mut Recorder) -> (Checked, Interval, RepTrace, f64) {
    let (input, _) = rec.span("workload.rep_input", || data.input());
    let ((raw, trace), rep) = Interval::of(|| {
        let open = rec.begin("rep");
        let out = run_input(input, rec, true);
        rec.end(open);
        out
    });
    let (checked, verify_s) = rec.span("workload.oracle_verify", || data.check(raw));
    (checked, rep, trace, verify_s)
}

// ---------------------------------------------------------------------
// Attribution
// ---------------------------------------------------------------------

/// Seconds of one rep each cause explains, before normalisation.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct Explained {
    /// Data kernels: tuples x passes / the kernels' bare rates.
    pub data_kernels_s: f64,
    /// Fabric: messages and READs x their micro unit costs (the handoffs
    /// inside those micros included).
    pub fabric_s: f64,
    /// Voluntary switches the fabric and service micros do not already
    /// explain x the cost of one handoff.
    pub other_handoffs_s: f64,
    /// Queries x the service's overhead per no-op query.
    pub service_s: f64,
}

/// The attribution table of one workload: five shares of `wall_s` that
/// sum to 1 by construction.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Shares {
    /// `attr.data_kernels_share`
    pub data_kernels: f64,
    /// `attr.fabric_share`
    pub fabric: f64,
    /// `attr.other_handoffs_share`
    pub other_handoffs: f64,
    /// `attr.service_share`
    pub service: f64,
    /// `attr.unattributed_share`: the remainder, never hidden, never
    /// negative.
    pub unattributed: f64,
}

impl Explained {
    /// Shares of `wall_s`. When the unit costs explain more than the
    /// whole (they are measured in isolation and overlap in the run), the
    /// four explained shares are scaled down to sum to 1 and the
    /// remainder is 0 rather than negative.
    pub fn shares(&self, wall_s: f64) -> Shares {
        let parts = [
            self.data_kernels_s,
            self.fabric_s,
            self.other_handoffs_s,
            self.service_s,
        ];
        let explained: f64 = parts.iter().sum();
        let whole = explained.max(wall_s);
        let [data_kernels, fabric, other_handoffs, service] = parts.map(|p| p / whole);
        Shares {
            data_kernels,
            fabric,
            other_handoffs,
            service,
            unattributed: (1.0 - explained / whole).max(0.0),
        }
    }
}

/// Seconds the bare data kernels need for one rep's tuples.
fn kernel_seconds(data: &Data, kind: Kind, rates: &JoinRates) -> f64 {
    let per = |tuples: u64, mtuples_per_s: f64| tuples as f64 / (mtuples_per_s * 1e6);
    match data {
        Data::Join(_) if kind == Kind::JoinRackOneSided => {
            // R is partitioned once and encoded; every S tuple decodes a
            // bucket. The codec rate prices one encode plus one decode.
            let half = data.tuples() / 2;
            per(half, rates.swwc_partition) + per(half, rates.remote_table_codec)
        }
        Data::Join(_) => {
            // Both relations: network pass, local pass, build/probe.
            let t = data.tuples();
            2.0 * per(t, rates.swwc_partition) + per(t, rates.bucket_build_probe)
        }
        Data::Service(d) => service_kernel_seconds(d, rates),
    }
}

fn service_kernel_seconds(d: &ServiceData, rates: &JoinRates) -> f64 {
    let per = |tuples: u64, mtuples_per_s: f64| tuples as f64 / (mtuples_per_s * 1e6);
    d.tuples_by_op()
        .iter()
        .map(|&(op, t, machines)| match op {
            Op::Radix => 2.0 * per(t, rates.swwc_partition) + per(t, rates.bucket_build_probe),
            Op::SortMerge => per(t, rates.swwc_partition) + per(t, rates.sort),
            Op::Aggregation => per(t, rates.swwc_partition) + per(t, rates.bucket_build_probe),
            // Every fragment of R visits every machine of the ring.
            Op::Cyclo => machines as f64 * per(t, rates.bucket_build_probe),
        })
        .sum()
}

/// What the attribution needs to know about one rep.
pub struct RepCounts {
    /// Two-sided messages sent.
    pub sends: f64,
    /// RDMA READs issued.
    pub reads: f64,
    /// Voluntary context switches of the rep.
    pub voluntary_switches: f64,
    /// Queries submitted through `QueryService` (0 on the direct path).
    pub service_queries: f64,
}

/// Multiply the rep's counters with the micro unit costs.
pub fn explain(
    data: &Data,
    kind: Kind,
    counts: &RepCounts,
    sim: &SimCosts,
    rdma: &RdmaCosts,
    cluster: &ClusterCosts,
    rates: &JoinRates,
) -> Explained {
    let fabric_s = (counts.sends * rdma.send_recv_ns_64b + counts.reads * rdma.read_ns) * 1e-9;
    let explained_switches = counts.sends * rdma.send_recv_switches
        + counts.reads * rdma.read_switches
        + counts.service_queries * cluster.service_switches_per_query;
    let other_switches = (counts.voluntary_switches - explained_switches).max(0.0);
    Explained {
        data_kernels_s: kernel_seconds(data, kind, rates),
        fabric_s,
        other_handoffs_s: other_switches * sim.handoff_ns / sim.handoff_switches.max(1e-9) * 1e-9,
        service_s: counts.service_queries * cluster.service_overhead_us_per_query * 1e-6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum(s: &Shares) -> f64 {
        s.data_kernels + s.fabric + s.other_handoffs + s.service + s.unattributed
    }

    #[test]
    fn shares_sum_to_one_with_the_remainder_shown() {
        let e = Explained {
            data_kernels_s: 0.1,
            fabric_s: 0.3,
            other_handoffs_s: 0.2,
            service_s: 0.0,
        };
        let s = e.shares(1.0);
        assert!((sum(&s) - 1.0).abs() < 1e-12);
        assert!((s.unattributed - 0.4).abs() < 1e-12);
        assert!((s.fabric - 0.3).abs() < 1e-12);
    }

    #[test]
    fn an_over_explained_rep_clamps_the_remainder_at_zero() {
        let e = Explained {
            data_kernels_s: 0.5,
            fabric_s: 1.0,
            other_handoffs_s: 0.5,
            service_s: 0.5,
        };
        let s = e.shares(1.0);
        assert_eq!(s.unattributed, 0.0);
        assert!((sum(&s) - 1.0).abs() < 1e-12);
        assert!((s.fabric - 0.4).abs() < 1e-12);
        assert!([s.data_kernels, s.fabric, s.other_handoffs, s.service]
            .iter()
            .all(|&x| x >= 0.0));
    }

    #[test]
    fn phase_spans_take_the_slowest_machine() {
        use rsj_rdma::QueryId;
        use rsj_sim::{SimDuration, SimTime};
        let at = |ns| SimTime::ZERO + SimDuration::from_nanos(ns);
        let ev = |name, machine, end| PhaseEvent {
            query: QueryId::DIRECT,
            name,
            machine,
            start: at(100),
            end: at(end),
        };
        let p = phase_seconds(&[
            ev(phase::HISTOGRAM, 0, 300),
            ev(phase::HISTOGRAM, 1, 500),
            ev(phase::ONE_SIDED_PROBE, 0, 1100),
        ]);
        assert!((p.histogram - 400e-9).abs() < 1e-15);
        assert!((p.one_sided_probe - 1000e-9).abs() < 1e-15);
        assert_eq!(p.build_probe, 0.0);
    }
}
