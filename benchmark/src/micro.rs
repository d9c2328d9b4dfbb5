//! Micro measurements of single layers: each times calls into public
//! functions of one product crate, pinned, and reports the median of
//! several runs. They give the unit costs the attribution table
//! multiplies the traced counters with.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use rsj_cluster::{
    phase, ClusterRun, ClusterSpec, CostModel, HealingConfig, JoinError, JoinRequest, Meter,
    QueryJob, QueryService, Runtime, ServiceConfig,
};
use rsj_joins::{
    decode_bucket, encode_remote_table, sort_by_key, BucketTable, Partitioner, RemoteDirectory,
};
use rsj_operators::{
    try_run_aggregation, try_run_cyclo_join, try_run_sort_merge_join, AggregationConfig,
    CycloJoinConfig, SortMergeConfig,
};
use rsj_rdma::{BufferPool, Fabric, FabricConfig, HostId, NicCosts};
use rsj_sim::{SimBarrier, SimChannel, SimCtx, SimDuration, Simulation};
use rsj_workload::{generate_inner, generate_outer, Skew, Tuple, Tuple16};

use crate::host::{timed, timed_with_usage};
use crate::stats::median;

/// How much work each micro run does.
#[derive(Copy, Clone)]
pub struct Sizes {
    /// Runs per micro (the median is reported).
    pub runs: usize,
    advances: u64,
    handoff_rounds: u64,
    barrier_rounds: u64,
    spawns: usize,
    msgs_small: usize,
    msgs_large: usize,
    read_batches: usize,
    pool_ops: u64,
    meter_charges: u64,
    sync_rounds: u64,
    kernel_tuples: usize,
}

impl Sizes {
    /// Sizes of a full run: every micro run lasts tens of milliseconds.
    pub fn full() -> Sizes {
        Sizes {
            runs: 5,
            advances: 1_000_000,
            handoff_rounds: 50_000,
            barrier_rounds: 1_000,
            spawns: 2_000,
            msgs_small: 20_000,
            msgs_large: 2_000,
            read_batches: 1_000,
            pool_ops: 1_000_000,
            meter_charges: 2_000_000,
            sync_rounds: 500,
            kernel_tuples: 1 << 20,
        }
    }

    /// Sizes of `--quick`: same shapes, a tenth of the work, three runs.
    pub fn quick() -> Sizes {
        Sizes {
            runs: 3,
            advances: 100_000,
            handoff_rounds: 5_000,
            barrier_rounds: 100,
            spawns: 500,
            msgs_small: 2_000,
            msgs_large: 200,
            read_batches: 100,
            pool_ops: 100_000,
            meter_charges: 200_000,
            sync_rounds: 50,
            kernel_tuples: 1 << 17,
        }
    }
}

fn median_of(runs: usize, mut f: impl FnMut() -> f64) -> f64 {
    median(&(0..runs).map(|_| f()).collect::<Vec<_>>())
}

/// Wall seconds of one simulation running `task` alone.
fn solo(task: impl FnOnce(&SimCtx) + Send + 'static) -> f64 {
    timed(|| {
        let sim = Simulation::new();
        sim.spawn("solo", task);
        std::hint::black_box(sim.run());
    })
    .1
}

// ---------------------------------------------------------------------
// rsj-sim
// ---------------------------------------------------------------------

/// Unit costs of the simulation kernel.
pub struct SimCosts {
    /// One uncontended `advance` (the self-continuation fast path).
    pub self_advance_ns: f64,
    /// One `advance_batched`, a `settle_point` every 64.
    pub batched_advance_ns: f64,
    /// One hop of a two-task channel ping-pong (a park/unpark pair).
    pub handoff_ns: f64,
    /// Voluntary context switches per hop of that ping-pong.
    pub handoff_switches: f64,
    /// One task's share of one 32-task barrier round.
    pub barrier_wait_ns: f64,
    /// One spawned-and-joined task.
    pub spawn_us: f64,
}

/// Measure the kernel's unit costs.
pub fn sim_costs(z: Sizes) -> SimCosts {
    let n = z.advances;
    let self_advance_ns = median_of(z.runs, || {
        solo(move |ctx| {
            for i in 0..n {
                ctx.advance(SimDuration::from_nanos(1 + i % 7));
            }
        }) * 1e9
            / n as f64
    });
    let batched_advance_ns = median_of(z.runs, || {
        solo(move |ctx| {
            for i in 0..n {
                ctx.advance_batched(SimDuration::from_nanos(1 + i % 7));
                if i % 64 == 63 {
                    ctx.settle_point();
                }
            }
        }) * 1e9
            / n as f64
    });

    let rounds = z.handoff_rounds;
    let mut switches = Vec::new();
    let handoff_ns = median_of(z.runs, || {
        let ((), secs, usage) = timed_with_usage(|| {
            let sim = Simulation::new();
            let ping = SimChannel::new();
            let pong = SimChannel::new();
            {
                let (ping, pong) = (Arc::clone(&ping), Arc::clone(&pong));
                sim.spawn("ping", move |ctx| {
                    for i in 0..rounds {
                        ping.send(ctx, i);
                        pong.recv(ctx);
                    }
                    ping.close(ctx);
                });
            }
            sim.spawn("pong", move |ctx| {
                while let Some(v) = ping.recv(ctx) {
                    pong.send(ctx, v);
                }
                pong.close(ctx);
            });
            std::hint::black_box(sim.run());
        });
        switches.push(usage.voluntary as f64 / (2 * rounds) as f64);
        secs * 1e9 / (2 * rounds) as f64
    });

    const BARRIER_TASKS: usize = 32;
    let barrier_rounds = z.barrier_rounds;
    let barrier_wait_ns = median_of(z.runs, || {
        timed(|| {
            let sim = Simulation::new();
            let barrier = SimBarrier::new(BARRIER_TASKS);
            for t in 0..BARRIER_TASKS {
                let barrier = Arc::clone(&barrier);
                sim.spawn(format!("b{t}"), move |ctx| {
                    for _ in 0..barrier_rounds {
                        ctx.advance(SimDuration::from_nanos(1 + t as u64));
                        barrier.wait(ctx);
                    }
                });
            }
            std::hint::black_box(sim.run());
        })
        .1 * 1e9
            / (BARRIER_TASKS as u64 * barrier_rounds) as f64
    });

    let spawns = z.spawns;
    let spawn_us = median_of(z.runs, || {
        timed(|| {
            let sim = Simulation::new();
            for t in 0..spawns {
                sim.spawn(format!("s{t}"), |ctx| {
                    ctx.advance(SimDuration::from_nanos(1))
                });
            }
            std::hint::black_box(sim.run());
        })
        .1 * 1e6
            / spawns as f64
    });

    SimCosts {
        self_advance_ns,
        batched_advance_ns,
        handoff_ns,
        handoff_switches: median(&switches),
        barrier_wait_ns,
        spawn_us,
    }
}

// ---------------------------------------------------------------------
// rsj-rdma
// ---------------------------------------------------------------------

/// Unit costs of the simulated verbs layer (wall time per operation,
/// handoffs to the fabric engines included).
pub struct RdmaCosts {
    /// `post_send` + `recv` + `repost_recv` of a 64 B message.
    pub send_recv_ns_64b: f64,
    /// Voluntary context switches per 64 B message.
    pub send_recv_switches: f64,
    /// The same for a 64 KiB message.
    pub send_recv_ns_64k: f64,
    /// `post_write` of 64 B into a registered region.
    pub write_ns_64b: f64,
    /// One READ of a 16-read doorbell batch of 64 B reads.
    pub read_ns: f64,
    /// Voluntary context switches per READ.
    pub read_switches: f64,
    /// One `BufferPool` take/put pair.
    pub pool_take_put_ns: f64,
    /// Virtual bandwidth of a 64 KiB FDR stream, GB/s.
    pub stream_bw_virtual_gbs: f64,
    /// The closed form the stream must match within 5 %.
    pub stream_bw_closed_form_gbs: f64,
}

/// Sends in flight before the sender waits for their completions.
const SEND_WINDOW: usize = 16;
/// Tasks posting sends at once.
const SENDERS: usize = 8;
/// Reads per doorbell batch.
const READ_BATCH: usize = 16;

/// Stream `count` messages of `bytes` from host 0 to host 1, posted by
/// [`SENDERS`] tasks with `window` sends in flight each; returns (wall
/// seconds, voluntary switches, virtual seconds at the receiver).
fn stream(cfg: FabricConfig, bytes: usize, count: usize, window: usize) -> (f64, u64, f64) {
    assert_eq!(count % SENDERS, 0, "message count must split evenly");
    let finish = Arc::new(std::sync::Mutex::new(0.0f64));
    let at = Arc::clone(&finish);
    let ((), secs, usage) = timed_with_usage(move || {
        let sim = Simulation::new();
        let fabric = Fabric::new(cfg, NicCosts::default(), 2);
        fabric.launch(&sim);
        let live = Arc::new(AtomicUsize::new(SENDERS));
        for t in 0..SENDERS {
            let fabric = Arc::clone(&fabric);
            let live = Arc::clone(&live);
            sim.spawn(format!("sender{t}"), move |ctx| {
                let nic = fabric.nic(HostId(0));
                let mut left = count / SENDERS;
                while left > 0 {
                    let burst = left.min(window);
                    let handles: Vec<_> = (0..burst)
                        .map(|_| nic.post_send(ctx, HostId(1), 0, vec![0u8; bytes]))
                        .collect();
                    for h in handles {
                        h.wait(ctx).expect("no fault plan is installed");
                    }
                    left -= burst;
                }
                if live.fetch_sub(1, Ordering::SeqCst) == 1 {
                    fabric.shutdown(ctx);
                }
            });
        }
        sim.spawn("receiver", move |ctx| {
            let nic = fabric.nic(HostId(1));
            let mut got = 0usize;
            while let Ok(Some(c)) = nic.recv(ctx) {
                got += c.payload.len();
                nic.repost_recv(ctx);
            }
            assert_eq!(got, bytes * count, "stream lost bytes");
            *at.lock().expect("no panic holds this lock") = ctx.now().as_secs_f64();
        });
        sim.run();
    });
    let virtual_s = *finish.lock().expect("no panic holds this lock");
    (secs, usage.voluntary, virtual_s)
}

/// Measure the verbs layer's unit costs.
pub fn rdma_costs(z: Sizes) -> RdmaCosts {
    let mut switches = Vec::new();
    let send_recv_ns_64b = median_of(z.runs, || {
        let (secs, vol, _) = stream(FabricConfig::qdr(), 64, z.msgs_small, SEND_WINDOW);
        switches.push(vol as f64 / z.msgs_small as f64);
        secs * 1e9 / z.msgs_small as f64
    });
    let send_recv_ns_64k = median_of(z.runs, || {
        stream(FabricConfig::qdr(), 64 * 1024, z.msgs_large, SEND_WINDOW).0 * 1e9
            / z.msgs_large as f64
    });

    let writes = z.msgs_small;
    let write_ns_64b = median_of(z.runs, || {
        timed(|| {
            let sim = Simulation::new();
            let fabric = Fabric::new(FabricConfig::qdr(), NicCosts::default(), 2);
            fabric.launch(&sim);
            sim.spawn("writer", move |ctx| {
                let remote = fabric
                    .nic(HostId(1))
                    .mrs
                    .register(ctx, 64 * SEND_WINDOW)
                    .remote_handle();
                let nic = fabric.nic(HostId(0));
                let mut left = writes;
                while left > 0 {
                    let burst = left.min(SEND_WINDOW);
                    let handles: Vec<_> = (0..burst)
                        .map(|i| nic.post_write(ctx, remote, 64 * i, vec![0u8; 64]))
                        .collect();
                    for h in handles {
                        h.wait(ctx).expect("no fault plan is installed");
                    }
                    left -= burst;
                }
                fabric.shutdown(ctx);
            });
            sim.run();
        })
        .1 * 1e9
            / writes as f64
    });

    let batches = z.read_batches;
    let mut read_switches = Vec::new();
    let read_ns = median_of(z.runs, || {
        let ((), secs, usage) = timed_with_usage(|| {
            let sim = Simulation::new();
            let fabric = Fabric::new(FabricConfig::qdr(), NicCosts::default(), 2);
            fabric.launch(&sim);
            sim.spawn("reader", move |ctx| {
                let mr = fabric.nic(HostId(1)).mrs.register(ctx, 64 * READ_BATCH);
                mr.fill(0, &[7u8; 64 * READ_BATCH]);
                let remote = mr.publish();
                let reads: Vec<_> = (0..READ_BATCH).map(|i| (remote, 64 * i, 64)).collect();
                let nic = fabric.nic(HostId(0));
                for _ in 0..batches {
                    for h in nic.post_read_batch(ctx, &reads) {
                        let bytes = h.wait(ctx).expect("no fault plan is installed");
                        assert_eq!(bytes.len(), 64);
                    }
                }
                mr.unpublish();
                fabric.shutdown(ctx);
            });
            sim.run();
        });
        let reads = (batches * READ_BATCH) as f64;
        read_switches.push(usage.voluntary as f64 / reads);
        secs * 1e9 / reads
    });

    let ops = z.pool_ops;
    let pool_take_put_ns = median_of(z.runs, || {
        solo(move |ctx| {
            let pool = BufferPool::new(4, 64, NicCosts::default());
            for _ in 0..ops {
                let mut buf = pool.take(ctx);
                buf.push(1);
                pool.put(std::hint::black_box(buf));
            }
        }) * 1e9
            / ops as f64
    });

    let fdr = FabricConfig::fdr();
    let (_, _, virtual_s) = stream(fdr, 64 * 1024, 64, 64);
    RdmaCosts {
        send_recv_ns_64b,
        send_recv_switches: median(&switches),
        send_recv_ns_64k,
        write_ns_64b,
        read_ns,
        read_switches: median(&read_switches),
        pool_take_put_ns,
        stream_bw_virtual_gbs: (64 * 1024 * 64) as f64 / virtual_s / 1e9,
        stream_bw_closed_form_gbs: fdr.stream_bandwidth(64 * 1024, 2) / 1e9,
    }
}

// ---------------------------------------------------------------------
// rsj-cluster
// ---------------------------------------------------------------------

/// Unit costs of the phase runtime and the query service.
pub struct ClusterCosts {
    /// One `Meter::charge_bytes` of 64 B.
    pub meter_charge_ns: f64,
    /// One worker's share of one named barrier on a 4 x 8 runtime.
    pub sync_named_ns: f64,
    /// Service overhead per query: a batch of no-op jobs through
    /// `QueryService::run`.
    pub service_overhead_us_per_query: f64,
    /// Voluntary context switches per query of that batch.
    pub service_switches_per_query: f64,
}

/// A query that does nothing: what is left is the service's own work
/// (admission, placement, lanes, arena, runtime set-up and teardown).
struct NoopJob;

impl QueryJob for NoopJob {
    fn machines(&self) -> usize {
        2
    }
    fn cores(&self) -> usize {
        2
    }
    fn attach(&self, _rt: &Arc<Runtime>) {}
    fn run_worker(&self, _: &SimCtx, _: &Runtime, _: usize, _: usize) -> Result<(), JoinError> {
        Ok(())
    }
    fn finish(&self, _rt: &Runtime, _run: &ClusterRun) {}
}

/// Measure the runtime's and the service's unit costs. `queries` is the
/// no-op batch's size (the size of the `service_mixed` batch).
pub fn cluster_costs(z: Sizes, queries: usize) -> ClusterCosts {
    let charges = z.meter_charges;
    let rate = CostModel::cluster().partition_rate;
    let meter_charge_ns = median_of(z.runs, || {
        solo(move |ctx| {
            let mut meter = Meter::new();
            for _ in 0..charges {
                meter.charge_bytes(ctx, 64, rate);
            }
            meter.flush(ctx);
            std::hint::black_box(meter.total_seconds());
        }) * 1e9
            / charges as f64
    });

    let rounds = z.sync_rounds;
    let sync_named_ns = median_of(z.runs, || {
        timed(|| {
            let rt = Runtime::new(4, 8, FabricConfig::qdr(), NicCosts::default());
            rt.run(move |ctx, rt, mach, core| {
                for _ in 0..rounds {
                    ctx.advance(SimDuration::from_nanos(1 + (mach * 8 + core) as u64));
                    rt.sync_named(ctx, phase::HISTOGRAM, mach);
                }
            });
        })
        .1 * 1e9
            / (32 * rounds) as f64
    });

    let mut switches = Vec::new();
    let service_overhead_us_per_query = median_of(z.runs, || {
        let mut cfg = ServiceConfig::qdr_rack(10, 2);
        cfg.max_concurrent = 8;
        cfg.healing = HealingConfig::armed();
        let requests = (0..queries)
            .map(|k| JoinRequest {
                label: format!("noop-{k}"),
                id: None,
                placement: None,
                job: Arc::new(NoopJob),
            })
            .collect();
        let (report, secs, usage) = timed_with_usage(|| QueryService::run(&cfg, requests));
        assert_eq!(report.completed(), queries, "a no-op query failed");
        switches.push(usage.voluntary as f64 / queries as f64);
        secs * 1e6 / queries as f64
    });

    ClusterCosts {
        meter_charge_ns,
        sync_named_ns,
        service_overhead_us_per_query,
        service_switches_per_query: median(&switches),
    }
}

// ---------------------------------------------------------------------
// rsj-joins
// ---------------------------------------------------------------------

/// Throughput of the data kernels on one thread, no simulator, in
/// million tuples per second.
pub struct JoinRates {
    /// SWWC radix partitioning, 10 bits.
    pub swwc_partition: f64,
    /// `BucketTable` rebuild + probe over cache-sized fragments (R + S).
    pub bucket_build_probe: f64,
    /// `encode_remote_table` + `decode_bucket` of every bucket.
    pub remote_table_codec: f64,
    /// `sort_by_key` over cache-sized runs.
    pub sort: f64,
    /// Partition twice + build/probe, composed: the whole radix join on
    /// one thread (R + S), the yardstick the simulation tax is measured
    /// against.
    pub bare_radix_join: f64,
}

/// Tuples of one cache-sized fragment (32 KiB of `Tuple16`).
const FRAGMENT: usize = 2048;

fn scrambled(n: usize, salt: u64) -> Vec<Tuple16> {
    (0..n as u64)
        .map(|i| {
            Tuple16::new(
                (i ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) % n as u64 + 1,
                i,
            )
        })
        .collect()
}

/// Measure the kernels' throughput.
pub fn join_rates(z: Sizes) -> JoinRates {
    let n = z.kernel_tuples;
    let r = scrambled(n, 0);
    let s = scrambled(n, 0x5EED);
    let mtps = |tuples: usize, secs: f64| tuples as f64 / secs / 1e6;

    let mut pt = Partitioner::new();
    let swwc_partition = median_of(z.runs, || {
        mtps(n, timed(|| std::hint::black_box(pt.partition(&r, 0, 10))).1)
    });

    let mut table = BucketTable::default();
    let bucket_build_probe = median_of(z.runs, || {
        let (matches, secs) = timed(|| {
            let mut matches = 0;
            for (rf, sf) in r.chunks(FRAGMENT).zip(s.chunks(FRAGMENT)) {
                table.rebuild(rf);
                matches += table.probe_all(sf).matches;
            }
            matches
        });
        std::hint::black_box(matches);
        mtps(2 * n, secs)
    });

    let remote_table_codec = median_of(z.runs, || {
        let (decoded, secs) = timed(|| {
            let mut decoded = 0;
            for rf in r.chunks(FRAGMENT) {
                let bytes = encode_remote_table(rf);
                let dir = RemoteDirectory::decode(&bytes);
                for b in 0..dir.nbuckets() {
                    decoded += decode_bucket::<Tuple16>(&bytes[dir.bucket_range(b)])
                        .expect("an unmutated table has no torn buckets")
                        .len();
                }
            }
            decoded
        });
        assert_eq!(decoded, n, "codec lost tuples");
        mtps(n, secs)
    });

    let sort = median_of(z.runs, || {
        let mut copy = r.clone();
        let ((), secs) = timed(|| {
            for run in copy.chunks_mut(FRAGMENT) {
                sort_by_key(run);
            }
        });
        std::hint::black_box(&copy);
        mtps(n, secs)
    });

    // Second-pass bits that bring 2^10 first-pass partitions down to
    // fragment size.
    let b2 = (n / 1024 / FRAGMENT).max(2).ilog2();
    let bare_radix_join = median_of(z.runs, || {
        let (matches, secs) = timed(|| {
            let (pr, ps) = (pt.partition(&r, 0, 10), pt.partition(&s, 0, 10));
            let mut matches = 0;
            for p in 0..pr.parts() {
                let (fr, fs) = (
                    pt.partition(pr.part(p), 10, b2),
                    pt.partition(ps.part(p), 10, b2),
                );
                for f in 0..fr.parts() {
                    table.rebuild(fr.part(f));
                    matches += table.probe_all(fs.part(f)).matches;
                }
            }
            matches
        });
        std::hint::black_box(matches);
        mtps(2 * n, secs)
    });

    JoinRates {
        swwc_partition,
        bucket_build_probe,
        remote_table_codec,
        sort,
        bare_radix_join,
    }
}

// ---------------------------------------------------------------------
// rsj-operators
// ---------------------------------------------------------------------

/// Wall and virtual seconds of one operator's direct entry point.
pub struct OperatorCost {
    /// Median wall seconds.
    pub wall_s: f64,
    /// Virtual seconds (identical on every run).
    pub virtual_s: f64,
}

/// The three operators outside `rsj-core`, each on the same fixed
/// 4-machine input (20 k inner, 60 k outer tuples, Zipf 1.05).
pub struct OperatorCosts {
    /// Distributed sort-merge join.
    pub sort_merge: OperatorCost,
    /// Distributed aggregation.
    pub aggregation: OperatorCost,
    /// Cyclo-join.
    pub cyclo_join: OperatorCost,
}

/// Measure each operator's direct entry. Returns the costs and whether
/// every run produced the expected result with one virtual time.
pub fn operator_costs(z: Sizes) -> (OperatorCosts, bool) {
    const MACHINES: usize = 4;
    const INNER: u64 = 20_000;
    const OUTER: u64 = 60_000;
    let spec = || ClusterSpec::qdr_cluster(MACHINES).with_cores(2);
    let inputs = || {
        let r = generate_inner::<Tuple16>(INNER, MACHINES, 11);
        let (s, oracle) = generate_outer::<Tuple16>(OUTER, INNER, MACHINES, Skew::Zipf(1.05), 12);
        (r, s, oracle)
    };
    let mut ok = true;
    let mut measure = |run: &mut dyn FnMut() -> Option<u64>| {
        let mut virtual_ns = Vec::new();
        let wall_s = median_of(z.runs, || {
            let (v, secs) = timed(&mut *run);
            virtual_ns.push(v);
            secs
        });
        ok &= virtual_ns[0].is_some() && virtual_ns.iter().all(|v| *v == virtual_ns[0]);
        OperatorCost {
            wall_s,
            virtual_s: virtual_ns[0].unwrap_or(0) as f64 * 1e-9,
        }
    };

    let sort_merge = measure(&mut || {
        let (r, s, oracle) = inputs();
        let mut cfg = SortMergeConfig::new(spec());
        cfg.radix_bits = 4;
        cfg.rdma_buf_size = 1024;
        let out = try_run_sort_merge_join(cfg, r, s).ok()?;
        (out.result.matches == oracle.matches && out.result.s_key_sum == oracle.s_key_sum)
            .then(|| out.phases.total().as_nanos())
    });
    let aggregation = measure(&mut || {
        let (_, s, _) = inputs();
        let keys: u64 = s.iter_all().fold(0, |a, t| a.wrapping_add(t.key()));
        let mut cfg = AggregationConfig::new(spec());
        cfg.radix_bits = 4;
        cfg.rdma_buf_size = 1024;
        let out = try_run_aggregation(cfg, s).ok()?;
        (out.result.key_weighted_count == keys).then(|| out.phases.total().as_nanos())
    });
    let cyclo_join = measure(&mut || {
        let (r, s, oracle) = inputs();
        let out = try_run_cyclo_join(CycloJoinConfig::new(spec()), r, s).ok()?;
        (out.result.matches == oracle.matches && out.result.s_key_sum == oracle.s_key_sum)
            .then(|| out.phases.total().as_nanos())
    });

    (
        OperatorCosts {
            sort_merge,
            aggregation,
            cyclo_join,
        },
        ok,
    )
}
