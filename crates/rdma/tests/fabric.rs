//! Whole-fabric behaviour over the public API: the wire model (bandwidth,
//! message rate, incast), the three verbs, the fault plane's
//! retransmission and error vocabulary, crash / abort / fencing wake-ups
//! and the failure detector; and the dispatch order of three fabric runs,
//! pinned as trace digests.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use rsj_rdma::{
    Fabric, FabricConfig, FabricError, FaultPlan, HostCrash, HostId, LinkFlap, NicCosts, NicStats,
    WcStatus,
};
use rsj_sim::{SimDuration, SimEvent, SimSemaphore, SimTime, Simulation};

fn two_host_fabric(cfg: FabricConfig) -> (Simulation, Arc<Fabric>) {
    let sim = Simulation::new();
    let fabric = Fabric::new(cfg, NicCosts::default(), 2);
    fabric.launch(&sim);
    (sim, fabric)
}

/// Stream `count` messages of `size` bytes from host 0 to host 1 and
/// return the achieved bandwidth in bytes per virtual second.
fn stream_bandwidth(size: usize, count: usize, cfg: FabricConfig) -> f64 {
    let (sim, fabric) = two_host_fabric(cfg);
    let done = Arc::new(Mutex::new(0.0f64));
    {
        let fabric = Arc::clone(&fabric);
        sim.spawn("sender", move |ctx| {
            let nic = fabric.nic(HostId(0));
            let mut events = Vec::new();
            for _ in 0..count {
                events.push(nic.post_send(ctx, HostId(1), 7, vec![0u8; size]));
            }
            for ev in events {
                ev.wait(ctx).unwrap();
            }
            fabric.shutdown(ctx);
        });
    }
    {
        let fabric = Arc::clone(&fabric);
        let done = Arc::clone(&done);
        sim.spawn("receiver", move |ctx| {
            let nic = fabric.nic(HostId(1));
            let mut got = 0usize;
            while let Some(c) = nic.recv(ctx).unwrap() {
                got += c.payload.len();
                nic.repost_recv(ctx);
            }
            assert_eq!(got, size * count);
            *done.lock().unwrap() = ctx.now().as_secs_f64();
        });
    }
    sim.run();
    let secs = *done.lock().unwrap();
    (size * count) as f64 / secs
}

#[test]
fn large_messages_reach_configured_bandwidth() {
    let cfg = FabricConfig::fdr();
    let bw = stream_bandwidth(512 * 1024, 64, cfg);
    // Pipelined stream: expect within a few percent of 6.0 GB/s
    // (the tail message pays ingress + latency once).
    assert!(
        (bw - cfg.bandwidth).abs() / cfg.bandwidth < 0.05,
        "got {bw:.3e}"
    );
}

#[test]
fn small_messages_are_message_rate_bound() {
    let cfg = FabricConfig::qdr();
    let bw = stream_bandwidth(256, 512, cfg);
    let expect = cfg.stream_bandwidth(256, 2);
    assert!(
        (bw - expect).abs() / expect < 0.05,
        "got {bw:.3e}, expected {expect:.3e}"
    );
    assert!(bw < 0.1 * cfg.bandwidth);
}

#[test]
fn incast_halves_per_sender_throughput() {
    // Hosts 0 and 1 both stream to host 2: the shared ingress link
    // must make the joint transfer take ~2x a single stream.
    let cfg = FabricConfig::fdr();
    let sim = Simulation::new();
    let fabric = Fabric::new(cfg, NicCosts::default(), 3);
    fabric.launch(&sim);
    const MSG: usize = 256 * 1024;
    const COUNT: usize = 32;
    for src in 0..2usize {
        let fabric = Arc::clone(&fabric);
        sim.spawn(format!("sender{src}"), move |ctx| {
            let nic = fabric.nic(HostId(src));
            let evs: Vec<_> = (0..COUNT)
                .map(|_| nic.post_send(ctx, HostId(2), 0, vec![0u8; MSG]))
                .collect();
            for ev in evs {
                ev.wait(ctx).unwrap();
            }
        });
    }
    let finish = Arc::new(Mutex::new(0.0f64));
    {
        let fabric = Arc::clone(&fabric);
        let finish = Arc::clone(&finish);
        sim.spawn("receiver", move |ctx| {
            let nic = fabric.nic(HostId(2));
            for _ in 0..2 * COUNT {
                let c = nic.recv(ctx).unwrap().expect("fabric closed early");
                assert_eq!(c.payload.len(), MSG);
                nic.repost_recv(ctx);
            }
            *finish.lock().unwrap() = ctx.now().as_secs_f64();
            fabric.shutdown(ctx);
        });
    }
    sim.run();
    let secs = *finish.lock().unwrap();
    let single = (COUNT * MSG) as f64 / cfg.bandwidth;
    assert!(
        (secs - 2.0 * single).abs() / (2.0 * single) < 0.1,
        "incast took {secs:.6}s, expected ~{:.6}s",
        2.0 * single
    );
}

#[test]
fn one_sided_write_places_data_without_receiver_cpu() {
    let (sim, fabric) = two_host_fabric(FabricConfig::fdr());
    let region_ready = SimEvent::new();
    let handle_cell = Arc::new(Mutex::new(None));
    {
        // Host 1 registers a region, then does nothing: one-sided
        // writes need no receiver involvement.
        let fabric = Arc::clone(&fabric);
        let region_ready = Arc::clone(&region_ready);
        let handle_cell = Arc::clone(&handle_cell);
        sim.spawn("owner", move |ctx| {
            let nic = fabric.nic(HostId(1));
            let mr = nic.mrs.register(ctx, 1024);
            *handle_cell.lock().unwrap() = Some((mr.remote_handle(), Arc::clone(&mr)));
            region_ready.set(ctx);
        });
    }
    {
        let fabric = Arc::clone(&fabric);
        let region_ready = Arc::clone(&region_ready);
        let handle_cell = Arc::clone(&handle_cell);
        sim.spawn("writer", move |ctx| {
            region_ready.wait(ctx);
            let (handle, mr) = handle_cell.lock().unwrap().clone().unwrap();
            let nic = fabric.nic(HostId(0));
            let ev = nic.post_write(ctx, handle, 128, vec![9u8; 64]);
            ev.wait(ctx).unwrap();
            mr.with_data(|d| {
                assert!(d[128..192].iter().all(|&b| b == 9));
                assert_eq!(d[127], 0);
                assert_eq!(d[192], 0);
            });
            fabric.shutdown(ctx);
        });
    }
    sim.run();
}

#[test]
fn send_completion_allows_buffer_reuse_only_after_delivery() {
    let (sim, fabric) = two_host_fabric(FabricConfig::qdr());
    {
        let fabric = Arc::clone(&fabric);
        sim.spawn("sender", move |ctx| {
            let nic = fabric.nic(HostId(0));
            let t0 = ctx.now();
            let ev = nic.post_send(ctx, HostId(1), 0, vec![0u8; 64 * 1024]);
            // Posting is cheap...
            let post_cost = (ctx.now() - t0).as_secs_f64();
            assert!(post_cost < 1e-6);
            // ...but the completion only fires after the wire time.
            ev.wait(ctx).unwrap();
            let elapsed = (ctx.now() - t0).as_secs_f64();
            let min_wire = 64.0 * 1024.0 / fabric.config().bandwidth;
            assert!(elapsed >= min_wire, "{elapsed} < {min_wire}");
            fabric.shutdown(ctx);
        });
    }
    {
        let fabric = Arc::clone(&fabric);
        sim.spawn("receiver", move |ctx| {
            let nic = fabric.nic(HostId(1));
            while let Some(_c) = nic.recv(ctx).unwrap() {
                nic.repost_recv(ctx);
            }
        });
    }
    sim.run();
}

#[test]
fn one_sided_read_pulls_remote_data() {
    let (sim, fabric) = two_host_fabric(FabricConfig::fdr());
    let ready = SimEvent::new();
    let handle_cell = Arc::new(Mutex::new(None));
    {
        let fabric = Arc::clone(&fabric);
        let ready = Arc::clone(&ready);
        let handle_cell = Arc::clone(&handle_cell);
        sim.spawn("owner", move |ctx| {
            let nic = fabric.nic(HostId(1));
            let mr = nic.mrs.register(ctx, 256);
            mr.fill(64, &[7u8; 128]);
            *handle_cell.lock().unwrap() = Some(mr.remote_handle());
            ready.set(ctx);
        });
    }
    {
        let fabric = Arc::clone(&fabric);
        let ready = Arc::clone(&ready);
        let handle_cell = Arc::clone(&handle_cell);
        sim.spawn("reader", move |ctx| {
            ready.wait(ctx);
            let remote = handle_cell.lock().unwrap().unwrap();
            let nic = fabric.nic(HostId(0));
            let t0 = ctx.now();
            let data = nic.post_read(ctx, remote, 64, 128).wait(ctx).unwrap();
            assert_eq!(data, vec![7u8; 128]);
            // The read paid at least one round trip plus the data leg.
            let elapsed = (ctx.now() - t0).as_secs_f64();
            let min = 2.0 * fabric.config().latency + 128.0 / fabric.config().bandwidth;
            assert!(elapsed >= min, "{elapsed} < {min}");
            fabric.shutdown(ctx);
        });
    }
    sim.run();
}

#[test]
fn stats_count_messages_and_bytes() {
    let (sim, fabric) = two_host_fabric(FabricConfig::fdr());
    {
        let fabric = Arc::clone(&fabric);
        sim.spawn("sender", move |ctx| {
            let nic = fabric.nic(HostId(0));
            for i in 0..5u32 {
                nic.post_send(ctx, HostId(1), i, vec![0u8; 1000])
                    .wait(ctx)
                    .unwrap();
            }
            fabric.shutdown(ctx);
        });
    }
    {
        let fabric = Arc::clone(&fabric);
        sim.spawn("receiver", move |ctx| {
            let nic = fabric.nic(HostId(1));
            let mut tags = Vec::new();
            while let Some(c) = nic.recv(ctx).unwrap() {
                tags.push(c.tag);
                nic.repost_recv(ctx);
            }
            assert_eq!(tags, vec![0, 1, 2, 3, 4], "in-order delivery");
        });
    }
    sim.run();
    let tx = fabric.nic(HostId(0)).stats();
    let rx = fabric.nic(HostId(1)).stats();
    assert_eq!(tx.tx_msgs, 5);
    assert_eq!(tx.tx_bytes, 5000);
    assert_eq!(rx.rx_msgs, 5);
    assert_eq!(rx.rx_bytes, 5000);
}

/// Run a fixed 0→1 stream under `plan`; returns (tags received,
/// completion results, finish time, sender stats).
fn faulted_stream(
    plan: FaultPlan,
    count: usize,
) -> (Vec<u32>, Vec<Result<(), FabricError>>, u64, NicStats) {
    let sim = Simulation::new();
    let fabric = Fabric::new_with_plan(FabricConfig::fdr(), NicCosts::default(), 2, Some(plan));
    fabric.launch(&sim);
    let results = Arc::new(Mutex::new(Vec::new()));
    let tags = Arc::new(Mutex::new(Vec::new()));
    let finish = Arc::new(Mutex::new(0u64));
    {
        let fabric = Arc::clone(&fabric);
        let results = Arc::clone(&results);
        sim.spawn("sender", move |ctx| {
            let nic = fabric.nic(HostId(0));
            let handles: Vec<_> = (0..count)
                .map(|i| nic.post_send(ctx, HostId(1), i as u32, vec![0u8; 4096]))
                .collect();
            for h in handles {
                results.lock().unwrap().push(h.wait(ctx));
            }
            fabric.shutdown(ctx);
        });
    }
    {
        let fabric = Arc::clone(&fabric);
        let tags = Arc::clone(&tags);
        let finish = Arc::clone(&finish);
        sim.spawn("receiver", move |ctx| {
            let nic = fabric.nic(HostId(1));
            while let Ok(Some(c)) = nic.recv(ctx) {
                tags.lock().unwrap().push(c.tag);
                nic.repost_recv(ctx);
            }
            *finish.lock().unwrap() = ctx.now().as_nanos();
        });
    }
    sim.run();
    let stats = fabric.nic(HostId(0)).stats();
    let tags = tags.lock().unwrap().clone();
    let results = results.lock().unwrap().clone();
    let finish = *finish.lock().unwrap();
    (tags, results, finish, stats)
}

#[test]
fn transient_drops_are_retried_and_invisible_to_the_application() {
    let mut plan = FaultPlan::fault_free();
    plan.seed = 7;
    plan.drop_per_mille = 200; // 20% per-attempt loss
    let (tags, results, _, stats) = faulted_stream(plan, 20);
    assert_eq!(tags, (0..20).collect::<Vec<u32>>(), "in-order, complete");
    assert!(results.iter().all(|r| r.is_ok()));
    assert!(stats.retransmits > 0, "faults were actually injected");
    assert_eq!(stats.wc_errors, 0);
}

#[test]
fn link_flap_is_ridden_out_by_backoff() {
    let mut plan = FaultPlan::fault_free();
    // Outage shorter than the policy's total backoff budget: every
    // message must survive via retransmission.
    plan.link_flaps.push(LinkFlap {
        host: HostId(1),
        from: SimTime::from_nanos(0),
        until: SimTime::from_nanos(200_000),
    });
    let (tags, results, finish, stats) = faulted_stream(plan, 10);
    assert_eq!(tags, (0..10).collect::<Vec<u32>>());
    assert!(results.iter().all(|r| r.is_ok()));
    assert!(stats.retransmits > 0);
    assert!(finish >= 200_000, "delivery waited out the outage");
}

#[test]
fn dead_link_exhausts_the_retry_counter_and_errors_the_qp() {
    let mut plan = FaultPlan::fault_free();
    plan.link_flaps.push(LinkFlap {
        host: HostId(1),
        from: SimTime::ZERO,
        until: SimTime::from_nanos(u64::MAX),
    });
    let (tags, results, _, stats) = faulted_stream(plan, 3);
    assert!(tags.is_empty(), "nothing crosses a dead link");
    assert!(!results.is_empty());
    assert!(matches!(
        results[0],
        Err(FabricError::QpError {
            status: WcStatus::RetryExceeded,
            ..
        })
    ));
    // Once the QP is in error, later posts flush immediately.
    assert!(results[1..].iter().all(|r| r.is_err()));
    assert!(stats.wc_errors >= 3);
}

#[test]
fn crashed_host_flushes_senders_and_wakes_its_receiver() {
    let mut plan = FaultPlan::fault_free();
    plan.crashes.push(HostCrash {
        host: HostId(1),
        at: SimTime::from_nanos(1_000),
    });
    let (tags, results, _, _) = faulted_stream(plan, 5);
    // The receiver on the crashed host wakes with HostCrashed, so the
    // tag list is cut short (possibly empty).
    assert!(tags.len() < 5);
    // The sender sees typed errors once the crash lands.
    assert!(results.iter().any(|r| {
        matches!(
            r,
            Err(FabricError::HostCrashed { host: HostId(1) }) | Err(FabricError::QpError { .. })
        )
    }));
}

#[test]
fn faulted_runs_replay_identically_from_the_same_seed() {
    let mk = || {
        let mut plan = FaultPlan::fault_free();
        plan.seed = 99;
        plan.drop_per_mille = 150;
        plan.delay_per_mille = 300;
        plan.max_delay = SimDuration::from_micros(20);
        plan
    };
    let a = faulted_stream(mk(), 25);
    let b = faulted_stream(mk(), 25);
    assert_eq!(a.0, b.0, "same delivery order");
    assert_eq!(a.2, b.2, "same virtual finish time");
    assert_eq!(a.3.retransmits, b.3.retransmits, "same fault trace");
}

#[test]
fn abort_unblocks_a_parked_receiver_with_a_typed_error() {
    let sim = Simulation::new();
    let fabric = Fabric::new_with_plan(
        FabricConfig::fdr(),
        NicCosts::default(),
        2,
        Some(FaultPlan::fault_free()),
    );
    fabric.launch(&sim);
    let saw = Arc::new(Mutex::new(None));
    {
        let fabric = Arc::clone(&fabric);
        let saw = Arc::clone(&saw);
        sim.spawn("receiver", move |ctx| {
            let nic = fabric.nic(HostId(1));
            *saw.lock().unwrap() = Some(nic.recv(ctx));
        });
    }
    {
        let fabric = Arc::clone(&fabric);
        sim.spawn("aborter", move |ctx| {
            ctx.advance(SimDuration::from_micros(5));
            fabric.abort(ctx);
        });
    }
    sim.run();
    assert_eq!(saw.lock().unwrap().take(), Some(Err(FabricError::Aborted)));
    // Posts after the abort flush immediately instead of wedging.
    assert!(fabric.aborted());
}

#[test]
fn read_in_flight_at_crash_instant_completes_with_host_crashed() {
    let sim = Simulation::new();
    let fabric = Fabric::new_with_plan(
        FabricConfig::qdr(),
        NicCosts::default(),
        2,
        Some(FaultPlan::fault_free()),
    );
    fabric.launch(&sim);
    let posted = SimEvent::new();
    let saw = Arc::new(Mutex::new(None));
    {
        let fabric = Arc::clone(&fabric);
        let posted = Arc::clone(&posted);
        let saw = Arc::clone(&saw);
        sim.spawn("reader", move |ctx| {
            // 256 KiB keeps the transfer on the wire for tens of
            // microseconds — far longer than the killer's 1 µs delay
            // after the doorbell, so the crash lands mid-flight.
            let mr = fabric.nic(HostId(1)).mrs.register(ctx, 256 << 10);
            mr.fill(0, &vec![7u8; 256 << 10]);
            let remote = mr.publish();
            let h = fabric.nic(HostId(0)).post_read(ctx, remote, 0, 256 << 10);
            posted.set(ctx);
            *saw.lock().unwrap() = Some(h.wait(ctx));
            fabric.shutdown(ctx);
        });
    }
    {
        let fabric = Arc::clone(&fabric);
        sim.spawn("killer", move |ctx| {
            posted.wait(ctx);
            ctx.advance(SimDuration::from_micros(1));
            fabric.fence_host(ctx, HostId(1));
        });
    }
    sim.run();
    assert_eq!(
        saw.lock().unwrap().take(),
        Some(Err(FabricError::HostCrashed { host: HostId(1) })),
        "an in-flight READ must flush with the crash typed, not stale bytes"
    );
}

#[test]
fn read_posted_after_fencing_is_a_typed_error_not_a_validator_panic() {
    // The fence closes the read epoch of every MR the dead host
    // published. A stale-handle READ would normally stop the run with
    // a validator panic — but a *crashed* target must win the race and
    // surface as a recoverable HostCrashed completion.
    let sim = Simulation::new();
    let fabric = Fabric::new_with_plan(
        FabricConfig::qdr(),
        NicCosts::default(),
        2,
        Some(FaultPlan::fault_free()),
    );
    fabric.launch(&sim);
    let saw = Arc::new(Mutex::new(None));
    {
        let fabric = Arc::clone(&fabric);
        let saw = Arc::clone(&saw);
        sim.spawn("reader", move |ctx| {
            let mr = fabric.nic(HostId(1)).mrs.register(ctx, 4096);
            let remote = mr.publish();
            fabric.fence_host(ctx, HostId(1));
            assert!(fabric.is_fenced(HostId(1)));
            assert_eq!(fabric.fenced_hosts(), vec![HostId(1)]);
            let h = fabric.nic(HostId(0)).post_read(ctx, remote, 0, 4096);
            *saw.lock().unwrap() = Some(h.wait(ctx));
            fabric.shutdown(ctx);
        });
    }
    sim.run();
    assert_eq!(
        saw.lock().unwrap().take(),
        Some(Err(FabricError::HostCrashed { host: HostId(1) }))
    );
}

#[test]
fn failure_detector_fences_a_crashed_host_within_its_latency_bound() {
    let run = || {
        let sim = Simulation::new();
        let mut plan = FaultPlan::fault_free();
        plan.crashes.push(HostCrash {
            host: HostId(1),
            at: SimTime::from_nanos(300_000),
        });
        let fabric = Fabric::new_with_plan(FabricConfig::qdr(), NicCosts::default(), 3, Some(plan));
        fabric.launch(&sim);
        fabric.arm_failure_detector(&sim);
        {
            let fabric = Arc::clone(&fabric);
            sim.spawn("driver", move |ctx| {
                // Keep one live host chatty so its lease renews from
                // real fabric activity, not just detector probes.
                let nic = fabric.nic(HostId(0));
                for _ in 0..20 {
                    nic.post_send(ctx, HostId(2), 7, vec![0u8; 512])
                        .wait(ctx)
                        .unwrap();
                    ctx.advance(SimDuration::from_micros(30));
                }
                fabric.disarm_failure_detector();
                ctx.advance(SimDuration::from_micros(50));
                fabric.shutdown(ctx);
            });
        }
        {
            let fabric = Arc::clone(&fabric);
            sim.spawn("sink", move |ctx| {
                let nic = fabric.nic(HostId(2));
                while let Ok(Some(_)) = nic.recv(ctx) {
                    nic.repost_recv(ctx);
                }
            });
        }
        sim.run();
        (
            fabric.is_fenced(HostId(1)),
            fabric.is_fenced(HostId(0)),
            fabric.detected_at(HostId(1)),
        )
    };
    let (fenced, live_fenced, detected) = run();
    assert!(fenced, "the crashed host must be detected and fenced");
    assert!(!live_fenced, "live hosts keep their leases");
    let detected = detected.expect("detection instant recorded");
    let crash = SimTime::from_nanos(300_000);
    assert!(detected > crash, "detection follows the crash");
    // Worst case: the 50 µs lease expires, then the third missed probe
    // of the 20 µs heartbeat lands up to one tick later.
    assert!(
        detected - crash <= SimDuration::from_micros(50 + 20 * (3 + 1)),
        "lease expiry plus miss threshold bounds detection latency: {:?}",
        detected - crash
    );
    // Detection latency is part of the deterministic replay contract.
    assert_eq!(run().2, Some(detected));
}

/// FNV-1a, 64-bit: a digest whose value is fixed by its definition, not by
/// the standard library's hasher of the day.
struct Fnv1a(u64);

impl std::hash::Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// FNV-1a over every `(time, seq, task)` of a dispatch trace.
fn trace_digest(trace: &[rsj_sim::Dispatch]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
    for d in trace {
        h.write_u64(d.time.as_nanos());
        h.write_u64(d.seq);
        d.task.hash(&mut h);
    }
    h.finish()
}

/// Every host streams 64-byte SENDs to every other host of a 4-host QDR
/// rack through a flow-control window of 4, and every host receives and
/// reposts; the last receiver shuts the fabric down.
fn traced_windowed_stream() -> Vec<rsj_sim::Dispatch> {
    const HOSTS: usize = 4;
    const PER_PEER: usize = 40;
    let sim = Simulation::new();
    sim.record_trace();
    let fabric = Fabric::new(FabricConfig::qdr(), NicCosts::default(), HOSTS);
    fabric.launch(&sim);
    let receiving = Arc::new(AtomicUsize::new(HOSTS));
    for h in 0..HOSTS {
        let nic = fabric.nic(HostId(h));
        sim.spawn(format!("sender{h}"), move |ctx| {
            let window = SimSemaphore::new(4);
            let mut sends = Vec::new();
            for i in 0..PER_PEER * (HOSTS - 1) {
                let dst = (h + 1 + i % (HOSTS - 1)) % HOSTS;
                window.acquire(ctx);
                let w = Arc::clone(&window);
                sends.push(nic.post_send_windowed(
                    ctx,
                    HostId(dst),
                    i as u32,
                    vec![h as u8; 64],
                    w,
                ));
            }
            for s in sends {
                s.wait(ctx).unwrap();
            }
        });
        let fabric = Arc::clone(&fabric);
        let receiving = Arc::clone(&receiving);
        sim.spawn(format!("receiver{h}"), move |ctx| {
            let nic = fabric.nic(HostId(h));
            for _ in 0..PER_PEER * (HOSTS - 1) {
                let c = nic.recv(ctx).unwrap().expect("fabric closed early");
                assert_eq!(c.payload.len(), 64);
                nic.repost_recv(ctx);
            }
            if receiving.fetch_sub(1, Ordering::SeqCst) == 1 {
                fabric.shutdown(ctx);
            }
        });
    }
    sim.run_traced().1
}

/// Two hosts pull doorbell-batched READs out of a region a third host
/// registered and published.
fn traced_read_batches() -> Vec<rsj_sim::Dispatch> {
    let sim = Simulation::new();
    sim.record_trace();
    let fabric = Fabric::new(FabricConfig::fdr(), NicCosts::default(), 3);
    fabric.launch(&sim);
    let published = SimEvent::new();
    let handle = Arc::new(Mutex::new(None));
    let readers_left = Arc::new(AtomicUsize::new(2));
    {
        let (fabric, published, handle) = (
            Arc::clone(&fabric),
            Arc::clone(&published),
            Arc::clone(&handle),
        );
        sim.spawn("owner", move |ctx| {
            let mr = fabric.nic(HostId(1)).mrs.register(ctx, 4096);
            let bytes: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
            mr.fill(0, &bytes);
            *handle.lock().unwrap() = Some(mr.publish());
            published.set(ctx);
        });
    }
    for reader in [0usize, 2] {
        let (fabric, published, handle) = (
            Arc::clone(&fabric),
            Arc::clone(&published),
            Arc::clone(&handle),
        );
        let readers_left = Arc::clone(&readers_left);
        sim.spawn(format!("reader{reader}"), move |ctx| {
            published.wait(ctx);
            let remote = handle.lock().unwrap().expect("published before the event");
            let nic = fabric.nic(HostId(reader));
            for round in 0..8usize {
                let reads: Vec<_> = (0..16)
                    .map(|k| (remote, (round * 16 + k) * 32 % 4000, 64))
                    .collect();
                for (h, &(_, off, len)) in nic.post_read_batch(ctx, &reads).into_iter().zip(&reads)
                {
                    let got = h.wait(ctx).unwrap();
                    assert_eq!(got.len(), len);
                    assert_eq!(got[0], (off % 251) as u8);
                }
            }
            if readers_left.fetch_sub(1, Ordering::SeqCst) == 1 {
                fabric.shutdown(ctx);
            }
        });
    }
    sim.run_traced().1
}

/// Host 0 streams to hosts 1 and 2 under a fault plan that drops a fifth
/// of all attempts (so messages are retransmitted) and crashes host 2
/// mid-stream. Returns the trace, the sender's retransmit count and how
/// many sends failed.
fn traced_faulted_run() -> (Vec<rsj_sim::Dispatch>, u64, usize) {
    let mut plan = FaultPlan::fault_free();
    plan.seed = 11;
    plan.drop_per_mille = 200;
    plan.crashes.push(HostCrash {
        host: HostId(2),
        at: SimTime::from_nanos(10_000),
    });
    let sim = Simulation::new();
    sim.record_trace();
    let fabric = Fabric::new_with_plan(FabricConfig::fdr(), NicCosts::default(), 3, Some(plan));
    fabric.launch(&sim);
    let failed = Arc::new(AtomicUsize::new(0));
    {
        let fabric = Arc::clone(&fabric);
        let failed = Arc::clone(&failed);
        sim.spawn("sender", move |ctx| {
            let nic = fabric.nic(HostId(0));
            let sends: Vec<_> = (0..200u32)
                .map(|i| nic.post_send(ctx, HostId(1 + i as usize % 2), i, vec![0u8; 1024]))
                .collect();
            for s in sends {
                if s.wait(ctx).is_err() {
                    failed.fetch_add(1, Ordering::SeqCst);
                }
            }
            fabric.shutdown(ctx);
        });
    }
    for h in [1usize, 2] {
        let fabric = Arc::clone(&fabric);
        sim.spawn(format!("receiver{h}"), move |ctx| {
            let nic = fabric.nic(HostId(h));
            while let Ok(Some(_)) = nic.recv(ctx) {
                nic.repost_recv(ctx);
            }
        });
    }
    let trace = sim.run_traced().1;
    let retransmits = fabric.nic(HostId(0)).stats().retransmits;
    assert_eq!(fabric.crashed_hosts(), [HostId(2)]);
    (trace, retransmits, failed.load(Ordering::SeqCst))
}

/// The fabric's dispatch order is pinned across commits: a windowed
/// two-sided stream on four hosts, doorbell-batched READs, and a faulted
/// run with retransmissions and a host crash. The digests were generated
/// by a release build of the lock-based simulation this one replaced;
/// moving them means a change moved the schedule, not just its cost.
#[test]
fn fabric_dispatch_trace_digests_are_pinned() {
    const PINNED: [(&str, u64); 3] = [
        ("windowed_stream", 0x9bb6_5a51_2929_ee71),
        ("read_batches", 0x2eee_89f0_ba7f_d866),
        ("faulted_run", 0x4550_823c_a6dc_32d8),
    ];
    let (faulted, retransmits, failed) = traced_faulted_run();
    assert!(retransmits > 0, "the plan dropped no attempt");
    assert!(failed > 0, "the crash came after the last send");
    let traces = [traced_windowed_stream(), traced_read_batches(), faulted];
    for (name, trace) in PINNED.iter().zip(&traces) {
        assert!(trace.len() > 100, "{name:?}: {} dispatches", trace.len());
    }
    let got: Vec<(&str, u64)> = PINNED
        .iter()
        .zip(&traces)
        .map(|(&(name, _), trace)| (name, trace_digest(trace)))
        .collect();
    assert_eq!(
        got, PINNED,
        "fabric dispatch trace digests moved: {got:#x?}"
    );
}
