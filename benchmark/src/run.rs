//! One workload, one process: set-up, warm-up, the timed closed loop, and
//! (with `--trace 1`) the traced pass that yields every per-layer metric.
//!
//! The protocol is part of the benchmark and identical on both sides of
//! any comparison: one CPU, warm-up before timing, inputs rebuilt outside
//! the timed region, the timed region is the one layer call, the oracle is
//! checked after the clock stops, tracing is off for end-to-end numbers.

use std::time::Instant;

use rsj_core::Transport;
use rsj_model::{predict, ModelInput};

use crate::host::{cpu_idle_s, reset_peak_rss, HostMonitor, HostState, Interval, Pin, Usage};
use crate::layers::{explain, run_input, traced_rep, RepCounts, RepTrace};
use crate::metrics::Values;
use crate::micro::{cluster_costs, join_rates, operator_costs, rdma_costs, sim_costs, Sizes};
use crate::stats::{median, Summary};
use crate::trace::Recorder;
use crate::workloads::{self, Checked, Data, Input, Kind, Spec, SERVICE_QUERIES};

/// Fig. 6a of the paper: 2048M x 2048M on four QDR machines, seconds.
const PAPER_FIG6A_SECONDS: f64 = 7.19;

/// How much a run does. Fixed by the mode, never by the workload.
pub struct Plan {
    /// Label printed with every number; quick numbers are never compared
    /// with full ones.
    pub mode: &'static str,
    /// Times the inputs are generated (the median is reported).
    pub setup_passes: usize,
    /// Untimed reps before the timed loop: the first reps pay allocator
    /// growth and page faults that later ones do not.
    pub warmups: usize,
    /// Fewest timed reps of a run.
    pub min_reps: usize,
    /// The timed loop issues reps until this many seconds have passed.
    pub seconds: f64,
    /// With tracing on, the most plain reps that are followed by a
    /// traced one.
    pub traced_reps: usize,
    /// Whether the traced pass runs the one unpinned rep (ten times the
    /// length of a pinned one).
    pub unpinned_rep: bool,
    /// Micro sizes.
    pub sizes: Sizes,
}

impl Plan {
    /// The measured protocol.
    pub fn full(seconds: f64) -> Plan {
        Plan {
            mode: "full",
            setup_passes: 5,
            warmups: 2,
            min_reps: 7,
            seconds,
            traced_reps: usize::MAX,
            unpinned_rep: true,
            sizes: Sizes::full(),
        }
    }

    /// Smoke mode: 1 warm-up + 3 reps, one traced rep, no unpinned rep,
    /// shortened micros.
    pub fn quick() -> Plan {
        Plan {
            mode: "quick",
            setup_passes: 1,
            warmups: 1,
            min_reps: 3,
            seconds: 0.0,
            traced_reps: 1,
            unpinned_rep: false,
            sizes: Sizes::quick(),
        }
    }
}

/// What one run measured.
pub struct Outcome {
    /// End-to-end metrics (`--trace 0`) or per-layer metrics (`--trace 1`).
    pub values: Values,
    /// Operations attempted: reps of a join workload, queries of a batch,
    /// warm-ups and traced reps included.
    pub attempted: u64,
    /// Operations that failed, mismatched their oracle, or belonged to a
    /// rep whose virtual time disagreed with the first rep's.
    pub failed: u64,
    /// Every rep of the timed loop, in order.
    pub reps: Vec<RepSample>,
    /// Spans of the traced pass (empty with tracing off).
    pub recorder: Recorder,
}

/// One rep of the timed loop as measured.
#[derive(Copy, Clone, Debug)]
pub struct RepSample {
    /// Whether the rep ran through the span-recording path.
    pub traced: bool,
    /// Wall seconds of the timed call.
    pub wall_s: f64,
    /// CPU seconds the process spent in it.
    pub busy_s: f64,
    /// Mean readings of the host's state while it ran.
    pub host: HostState,
    /// `busy_s` as it would read in the reference state of the host.
    pub at_reference_s: f64,
    /// Peak resident set while it ran, MB.
    pub peak_rss_mb: f64,
}

/// Tally of checked reps: counts operations and holds every rep to the
/// first rep's virtual nanoseconds.
#[derive(Default)]
struct Tally {
    first: Option<Checked>,
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, c: Checked) {
        let first = *self.first.get_or_insert(c);
        let agrees = (c.virtual_ns, c.query_p50_ns, c.query_p95_ns)
            == (first.virtual_ns, first.query_p50_ns, first.query_p95_ns);
        self.attempted += c.attempted;
        self.failed += if agrees { c.failed } else { c.attempted };
    }

    fn add_check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Measure `spec` at `seed`. `pin` is the one-CPU pin if pinning worked.
pub fn measure(spec: &Spec, seed: u64, plan: &Plan, trace: bool, pin: Option<&Pin>) -> Outcome {
    let mut rec = Recorder::new(trace);
    let mut tally = Tally::default();
    // Reads the host's state from here to the end of the timed loop.
    let monitor = HostMonitor::start();

    // Set-up: generate inputs and oracle, build the first rep's inputs.
    let mut setup_passes = Vec::new();
    let mut generate_s = Vec::new();
    let mut prepared = None;
    for _ in 0..plan.setup_passes {
        drop(prepared.take());
        let open = rec.begin("setup");
        let ((data, input, secs), pass) = Interval::of(|| {
            let (data, secs) = rec.span("workload.generate", || Data::generate(spec, seed));
            let (input, _) = rec.span("workload.rep_input", || data.input());
            (data, input, secs)
        });
        rec.end(open);
        setup_passes.push(pass);
        generate_s.push(secs);
        prepared = Some((data, input));
    }
    let (data, first_input) = prepared.expect("at least one set-up pass");

    // `join_rack_one_sided` must produce the `JoinResult` the two-sided
    // plane produces on identical inputs.
    let reference = match (&data, spec.kind) {
        (Data::Join(d), Kind::JoinRackOneSided) => {
            let input = Input::Join(d.input_over(Transport::TwoSided));
            let open = rec.begin("reference_two_sided");
            let (raw, ref_trace) = run_input(input, &mut rec, trace);
            rec.end(open);
            Some((raw.join_result(), ref_trace))
        }
        _ => None,
    };

    // Warm-up.
    let mut warmups = Vec::new();
    let mut next_input = Some(first_input);
    for _ in 0..plan.warmups {
        let input = next_input.take().unwrap_or_else(|| data.input());
        let open = rec.begin("warmup");
        let (raw, rep) = Interval::of(|| workloads::run(input));
        rec.end(open);
        warmups.push(rep);
        if let Some((want, _)) = &reference {
            tally.add_check(want.is_some() && raw.join_result() == *want);
        }
        tally.add(data.check(raw));
    }

    // The timed closed loop. With tracing on, every plain rep is followed
    // by a traced one, so that the two medians `trace.overhead_pct`
    // compares saw the same minutes of the host.
    let idle_s = || pin.and_then(|p| cpu_idle_s(p.cpu));
    let idle_before = idle_s();
    let mut peak_per_rep = true;
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut verify_s = Vec::new();
    let mut last = RepTrace::default();
    let loop_started = Instant::now();
    while plain.len() < plan.min_reps || loop_started.elapsed().as_secs_f64() < plan.seconds {
        let input = next_input.take().unwrap_or_else(|| data.input());
        peak_per_rep &= reset_peak_rss();
        let (raw, rep) = Interval::of(|| workloads::run(input));
        tally.add(data.check(raw));
        plain.push(rep);
        if trace && traced.len() < plan.traced_reps {
            rec.set_rep(traced.len() as u32 + 1);
            let (checked, rep, rep_trace, check_s) = traced_rep(&data, &mut rec);
            rec.set_rep(0);
            tally.add(checked);
            traced.push(rep);
            verify_s.push(check_s);
            last = rep_trace;
        }
    }
    let track = monitor.finish();
    // Seconds of the loop in which the pinned CPU sat idle: every thread
    // of the process slept or waited. CPU seconds do not see them, a user
    // does, so each rep is charged its share.
    let idle_loop_s = match (idle_before, idle_s()) {
        (Some(before), Some(after)) => after - before,
        _ => 0.0,
    };
    let idle_per_rep_s = idle_loop_s / (plain.len() + traced.len()) as f64;
    let sample = |traced: bool, rep: &Interval| {
        let (busy_s, host) = (rep.usage.busy_s(), track.over(rep));
        RepSample {
            traced,
            wall_s: rep.wall_s(),
            busy_s,
            host,
            at_reference_s: busy_s * host.to_reference(spec.sensitivity),
            peak_rss_mb: rep.usage.peak_rss_mb,
        }
    };
    let at_reference_s = |reps: &[Interval]| -> Vec<f64> {
        let seconds = reps.iter().map(|rep| sample(false, rep).at_reference_s);
        seconds.collect()
    };
    let plain_reps: Vec<RepSample> = plain.iter().map(|r| sample(false, r)).collect();
    let traced_reps: Vec<RepSample> = traced.iter().map(|r| sample(true, r)).collect();
    let column =
        |reps: &[RepSample], f: fn(&RepSample) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
    let wall = Summary::of(&column(&plain_reps, |r| r.at_reference_s)).plus(idle_per_rep_s);
    let raw_wall = Summary::of(&column(&plain_reps, |r| r.wall_s));
    let raw_wall_s = raw_wall.median;
    let usage = plain.iter().fold(Usage::default(), |mut sum, rep| {
        sum.add(&rep.usage);
        sum
    });
    let looped_s: f64 = plain_reps.iter().map(|r| r.wall_s).sum();
    let loop_wall_s: f64 = looped_s + traced_reps.iter().map(|r| r.wall_s).sum::<f64>();
    let first = tally.first.expect("at least one rep ran");
    let tuples = data.tuples() as f64;

    let mut values = Values::default();
    // What the host did to the run: printed with either kind of run.
    values.set_summary("host.wall_raw_s", raw_wall);
    values.set(
        "host.core_probe_ns",
        median(&column(&plain_reps, |r| r.host.core_ns)),
    );
    values.set(
        "host.mem_probe_ns",
        median(&column(&plain_reps, |r| r.host.mem_ns)),
    );
    values.set(
        "host.off_cpu_share",
        ((looped_s - usage.busy_s()) / looped_s).max(0.0),
    );
    values.set("host.idle_share", idle_loop_s / loop_wall_s);
    if !trace {
        values.set(
            "setup_s",
            median(&at_reference_s(&setup_passes)) + at_reference_s(&warmups).iter().sum::<f64>(),
        );
        values.set_summary("wall_s", wall);
        values.set_summary(
            "tuples_per_wall_s",
            Summary {
                median: tuples / wall.median,
                q1: tuples / wall.q3,
                q3: tuples / wall.q1,
                n: wall.n,
            },
        );
        // The peak of a rep, where the kernel lets the peak be reset
        // between reps; the peak of the process otherwise.
        if peak_per_rep {
            values.set_summary(
                "peak_rss_mb",
                Summary::of(&column(&plain_reps, |r| r.peak_rss_mb)),
            );
        } else {
            values.set("peak_rss_mb", Usage::now().peak_rss_mb);
        }
    } else {
        // One rep of the handoff-bound join on every CPU the process
        // started with: what pinning protects the other numbers from.
        // Unpinned that rep takes ten times as long, so the other
        // workloads do not pay for it.
        let unpinned_ratio = if plan.unpinned_rep && spec.kind == Kind::JoinRackTwoSided {
            if let Some(pin) = pin {
                pin.original.apply().expect("restoring the original mask");
            }
            let input = data.input();
            let open = rec.begin("unpinned_rep");
            let (raw, rep) = Interval::of(|| workloads::run(input));
            rec.end(open);
            if let Some(pin) = pin {
                pin.pinned.apply().expect("re-applying the one-CPU mask");
            }
            tally.add(data.check(raw));
            rep.wall_s() / raw_wall_s
        } else {
            0.0
        };

        let z = plan.sizes;
        let sim = sim_costs(z);
        let rdma = rdma_costs(z);
        let cluster = cluster_costs(z, SERVICE_QUERIES);
        let rates = join_rates(z);
        let (ops, ops_ok) = operator_costs(z);
        tally.add_check(ops_ok);
        let stream_ok =
            (rdma.stream_bw_virtual_gbs / rdma.stream_bw_closed_form_gbs - 1.0).abs() < 0.05;
        tally.add_check(stream_ok);

        // Virtual results.
        let virtual_s = data.virtual_seconds(first.virtual_ns);
        values.set("virtual_s", virtual_s);
        values.set(
            "virtual_query_p50_s",
            data.virtual_seconds(first.query_p50_ns),
        );
        values.set(
            "virtual_query_p95_s",
            data.virtual_seconds(first.query_p95_ns),
        );
        values.set(
            "paper_error_pct",
            if spec.kind == Kind::JoinRackTwoSided {
                (virtual_s - PAPER_FIG6A_SECONDS).abs() / PAPER_FIG6A_SECONDS * 100.0
            } else {
                0.0
            },
        );

        // rsj-sim
        let ktuples = plain.len() as f64 * tuples / 1e3;
        values.set("sim.self_advance_ns", sim.self_advance_ns);
        values.set("sim.batched_advance_ns", sim.batched_advance_ns);
        values.set("sim.handoff_ns", sim.handoff_ns);
        values.set("sim.barrier_wait_ns", sim.barrier_wait_ns);
        values.set("sim.spawn_us", sim.spawn_us);
        values.set(
            "sim.voluntary_ctx_switches_per_ktuple",
            usage.voluntary as f64 / ktuples,
        );
        values.set(
            "sim.involuntary_ctx_switches_per_ktuple",
            usage.involuntary as f64 / ktuples,
        );
        values.set(
            "sim.cpu_sys_share",
            usage.sys_s / (usage.sys_s + usage.user_s),
        );
        values.set("sim.unpinned_wall_ratio", unpinned_ratio);

        // rsj-rdma
        values.set("rdma.send_recv_ns_per_msg_64b", rdma.send_recv_ns_64b);
        values.set("rdma.send_recv_ns_per_msg_64k", rdma.send_recv_ns_64k);
        values.set("rdma.write_ns_per_msg_64b", rdma.write_ns_64b);
        values.set("rdma.read_batch_ns_per_read", rdma.read_ns);
        values.set("rdma.pool_take_put_ns", rdma.pool_take_put_ns);
        values.set("rdma.stream_bw_virtual_gbs", rdma.stream_bw_virtual_gbs);
        values.set("rdma.tx_msgs", last.tx_msgs as f64);
        values.set("rdma.tx_mb", last.tx_bytes as f64 / 1e6);
        values.set("rdma.link_busy_share", last.link_busy_share);
        values.set("rdma.retransmits", last.retransmits as f64);
        values.set("rdma.wc_errors", last.wc_errors as f64);
        values.set("rdma.validator_violations", last.violations as f64);

        // rsj-cluster
        values.set("cluster.meter_charge_ns", cluster.meter_charge_ns);
        values.set("cluster.sync_named_ns", cluster.sync_named_ns);
        values.set(
            "cluster.service_overhead_us_per_query",
            cluster.service_overhead_us_per_query,
        );
        values.set("cluster.queue_wait_p50_virtual_ms", last.queue_wait_p50_ms);
        values.set("cluster.queue_wait_p95_virtual_ms", last.queue_wait_p95_ms);
        values.set("cluster.fabric_utilization", last.fabric_utilization);
        values.set("cluster.retries", last.retries as f64);
        values.set("cluster.rejected", last.rejected as f64);
        values.set("cluster.runtime_new_wall_ms", last.runtime_new_ms);

        // rsj-joins
        values.set("joins.swwc_partition_mtuples_per_s", rates.swwc_partition);
        values.set(
            "joins.bucket_build_probe_mtuples_per_s",
            rates.bucket_build_probe,
        );
        values.set(
            "joins.remote_table_codec_mtuples_per_s",
            rates.remote_table_codec,
        );
        values.set("joins.sort_mtuples_per_s", rates.sort);
        values.set("joins.bare_radix_join_mtuples_per_s", rates.bare_radix_join);

        // rsj-core: virtual rows in paper-equivalent seconds, like
        // `virtual_s`.
        let paper = |scaled_s: f64| data.virtual_seconds((scaled_s * 1e9).round() as u64);
        values.set("core.histogram_virtual_s", paper(last.phase_s.histogram));
        values.set(
            "core.network_partition_virtual_s",
            paper(last.phase_s.network_partition),
        );
        values.set(
            "core.local_partition_virtual_s",
            paper(last.phase_s.local_partition),
        );
        values.set(
            "core.build_probe_virtual_s",
            paper(last.phase_s.build_probe),
        );
        values.set(
            "core.one_sided_probe_virtual_s",
            paper(last.phase_s.one_sided_probe),
        );
        values.set("core.send_stall_virtual_s", paper(last.send_stall_s));
        values.set("core.cpu_utilization", last.cpu_utilization);
        values.set("core.registered_mb", last.registered_mb);
        values.set("core.fly_registrations", last.fly_registrations as f64);
        values.set("core.attach_wall_ms", last.attach_ms);
        values.set("core.run_wall_ms", last.run_ms);
        values.set("core.finish_wall_ms", last.finish_ms);

        // rsj-operators
        values.set("operators.sort_merge_wall_s", ops.sort_merge.wall_s);
        values.set("operators.sort_merge_virtual_s", ops.sort_merge.virtual_s);
        values.set("operators.aggregation_wall_s", ops.aggregation.wall_s);
        values.set("operators.aggregation_virtual_s", ops.aggregation.virtual_s);
        values.set("operators.cyclo_join_wall_s", ops.cyclo_join.wall_s);
        values.set("operators.cyclo_join_virtual_s", ops.cyclo_join.virtual_s);

        // rsj-workload
        values.set(
            "workload.generate_mtuples_per_s",
            tuples / median(&generate_s) / 1e6,
        );
        values.set("workload.oracle_verify_ms", median(&verify_s) * 1e3);

        // rsj-model: Section 5's closed form against the measurement.
        let (predicted_s, residual_pct) = match &data {
            Data::Join(d) => {
                let bytes = d.paper_bytes_per_side();
                let model = ModelInput::from_cluster(&d.cfg.cluster, bytes, bytes);
                let predicted = predict(&model).total().as_secs_f64();
                (predicted, (virtual_s - predicted) / predicted * 100.0)
            }
            Data::Service(_) => (0.0, 0.0),
        };
        values.set("model.predicted_virtual_s", predicted_s);
        values.set("model.residual_pct", residual_pct);

        // Attribution. On the one-sided plane only R is shipped in SENDs
        // (half of what the two-sided reference rep sent: R and S are the
        // same size); every other message is a READ request or response.
        let msgs = last.tx_msgs as f64;
        let (sends, reads) = match &reference {
            Some((_, ref_trace)) => {
                let sends = ref_trace.tx_msgs as f64 / 2.0;
                (sends, ((msgs - sends) / 2.0).max(0.0))
            }
            None => (msgs, 0.0),
        };
        let counts = RepCounts {
            sends,
            reads,
            voluntary_switches: usage.voluntary as f64 / plain.len() as f64,
            service_queries: match data {
                Data::Service(_) => data.queries() as f64,
                Data::Join(_) => 0.0,
            },
        };
        let shares =
            explain(&data, spec.kind, &counts, &sim, &rdma, &cluster, &rates).shares(raw_wall_s);
        values.set("attr.data_kernels_share", shares.data_kernels);
        values.set("attr.fabric_share", shares.fabric);
        values.set("attr.other_handoffs_share", shares.other_handoffs);
        values.set("attr.service_share", shares.service);
        values.set("attr.unattributed_share", shares.unattributed);

        let traced_s = median(&column(&traced_reps, |r| r.at_reference_s)) + idle_per_rep_s;
        values.set("trace.overhead_pct", (traced_s / wall.median - 1.0) * 100.0);
    }

    Outcome {
        values,
        attempted: tally.attempted,
        failed: tally.failed,
        reps: plain_reps.into_iter().chain(traced_reps).collect(),
        recorder: rec,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checked(virtual_ns: u64, attempted: u64, failed: u64) -> Checked {
        Checked {
            virtual_ns,
            query_p50_ns: virtual_ns,
            query_p95_ns: virtual_ns,
            attempted,
            failed,
        }
    }

    #[test]
    fn a_rep_that_disagrees_on_virtual_time_fails_whole() {
        let mut t = Tally::default();
        t.add(checked(100, 200, 0));
        t.add(checked(100, 200, 3));
        assert_eq!((t.attempted, t.failed), (400, 3));
        t.add(checked(101, 200, 0));
        assert_eq!((t.attempted, t.failed), (600, 203));
        t.add_check(true);
        t.add_check(false);
        assert_eq!((t.attempted, t.failed), (602, 204));
    }
}
