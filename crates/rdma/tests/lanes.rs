//! Query lanes at the layer that implements them: `Fabric::query_view` /
//! `close_view` / a view's `abort`, exercised without a query service on
//! top. Completion demux, abort scoping, how a parked lane receiver
//! wakes, and lane-vs-root traffic accounting.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use rsj_rdma::{
    Completion, Fabric, FabricConfig, FabricError, FaultPlan, HostCrash, HostId, NicCosts,
    NicStats, QueryId,
};
use rsj_sim::{SimCtx, SimDuration, SimEvent, SimTime, Simulation};

fn rack(hosts: usize, plan: Option<FaultPlan>) -> (Simulation, Arc<Fabric>) {
    let sim = Simulation::new();
    let root = Fabric::new_with_plan(FabricConfig::fdr(), NicCosts::default(), hosts, plan);
    root.launch(&sim);
    (sim, root)
}

/// Receive on `view`'s logical machine `m` until the lane ends, reposting
/// every slot; returns what arrived and how the stream ended.
fn drain(ctx: &SimCtx, view: &Fabric, m: usize) -> (Vec<Completion>, Result<(), FabricError>) {
    let nic = view.nic(HostId(m));
    let mut got = Vec::new();
    loop {
        match nic.recv(ctx) {
            Ok(Some(c)) => {
                got.push(c);
                nic.repost_recv(ctx);
            }
            Ok(None) => return (got, Ok(())),
            Err(e) => return (got, Err(e)),
        }
    }
}

#[test]
fn queries_sharing_a_host_never_see_each_others_completions() {
    const MSGS: u32 = 12;
    let (sim, root) = rack(3, None);
    // Both queries receive on physical host 1; their senders sit on
    // hosts 0 and 2. Each query numbers its machines 0 (sender), 1.
    let views = [
        root.query_view(QueryId(1), vec![HostId(0), HostId(1)]),
        root.query_view(QueryId(2), vec![HostId(2), HostId(1)]),
    ];
    let received = Arc::new(Mutex::new(Vec::new()));
    let senders_left = Arc::new(AtomicUsize::new(views.len()));
    for (q, view) in views.iter().enumerate() {
        let base_tag = 1000 * (q as u32 + 1);
        {
            let (view, root) = (Arc::clone(view), Arc::clone(&root));
            let senders_left = Arc::clone(&senders_left);
            sim.spawn(format!("sender{q}"), move |ctx| {
                let nic = view.nic(HostId(0));
                let handles: Vec<_> = (0..MSGS)
                    .map(|i| nic.post_send(ctx, HostId(1), base_tag + i, vec![q as u8; 512]))
                    .collect();
                for h in handles {
                    h.wait(ctx).unwrap();
                }
                view.close_view(ctx);
                if senders_left.fetch_sub(1, Ordering::SeqCst) == 1 {
                    root.shutdown(ctx);
                }
            });
        }
        {
            let view = Arc::clone(view);
            let received = Arc::clone(&received);
            sim.spawn(format!("receiver{q}"), move |ctx| {
                let (got, end) = drain(ctx, &view, 1);
                assert_eq!(end, Ok(()), "close_view is a graceful end of stream");
                received.lock().push((q, base_tag, got));
            });
        }
    }
    sim.run();
    let received = received.lock();
    assert_eq!(received.len(), 2);
    for (q, base_tag, got) in received.iter() {
        let tags: Vec<u32> = got.iter().map(|c| c.tag).collect();
        let want: Vec<u32> = (0..MSGS).map(|i| base_tag + i).collect();
        assert_eq!(tags, want, "query {q}: exactly its own stream, in order");
        for c in got {
            assert_eq!(c.src, HostId(0), "sources arrive in logical numbering");
            assert_eq!(c.payload, vec![*q as u8; 512]);
        }
    }
}

#[test]
fn aborting_one_view_flushes_only_that_querys_sends() {
    const MSGS: u32 = 8;
    let (sim, root) = rack(2, None);
    let placement = vec![HostId(0), HostId(1)];
    let doomed = root.query_view(QueryId(1), placement.clone());
    let healthy = root.query_view(QueryId(2), placement);
    let doomed_results = Arc::new(Mutex::new(Vec::new()));
    let healthy_tags = Arc::new(Mutex::new(Vec::new()));
    {
        // 256 KiB keeps each message on the wire for tens of µs, so the
        // abort below lands with the whole burst still in flight.
        let doomed = Arc::clone(&doomed);
        let results = Arc::clone(&doomed_results);
        sim.spawn("doomed-sender", move |ctx| {
            let nic = doomed.nic(HostId(0));
            let handles: Vec<_> = (0..MSGS)
                .map(|i| nic.post_send(ctx, HostId(1), i, vec![0u8; 256 << 10]))
                .collect();
            for h in handles {
                results.lock().push(h.wait(ctx));
            }
            // Posting into an aborted query flushes at once.
            let late = nic.post_send(ctx, HostId(1), 99, vec![0u8; 64]);
            assert!(late.is_done());
            results.lock().push(late.wait(ctx));
        });
    }
    {
        let doomed = Arc::clone(&doomed);
        sim.spawn("aborter", move |ctx| {
            ctx.advance(SimDuration::from_micros(5));
            doomed.abort(ctx);
        });
    }
    {
        let (healthy, root) = (Arc::clone(&healthy), Arc::clone(&root));
        sim.spawn("healthy-sender", move |ctx| {
            let nic = healthy.nic(HostId(0));
            let handles: Vec<_> = (0..MSGS)
                .map(|i| nic.post_send(ctx, HostId(1), i, vec![1u8; 4096]))
                .collect();
            for h in handles {
                h.wait(ctx)
                    .expect("the other query's abort must not reach this one");
            }
            healthy.close_view(ctx);
            root.shutdown(ctx);
        });
    }
    {
        let healthy = Arc::clone(&healthy);
        let tags = Arc::clone(&healthy_tags);
        sim.spawn("healthy-receiver", move |ctx| {
            let (got, end) = drain(ctx, &healthy, 1);
            assert_eq!(end, Ok(()));
            *tags.lock() = got.iter().map(|c| c.tag).collect();
        });
    }
    sim.run();
    let doomed_results = doomed_results.lock().clone();
    assert_eq!(doomed_results.len(), MSGS as usize + 1);
    assert!(
        doomed_results
            .iter()
            .all(|r| *r == Err(FabricError::Aborted)),
        "every in-flight send of the aborted query flushes typed: {doomed_results:?}"
    );
    assert_eq!(*healthy_tags.lock(), (0..MSGS).collect::<Vec<u32>>());
    assert!(doomed.aborted());
    assert!(!healthy.aborted(), "the abort is query-scoped");
    assert!(!root.aborted());
    assert_eq!(root.nic(HostId(0)).stats().wc_errors, MSGS as u64);
    assert_eq!(doomed.nic(HostId(0)).stats().wc_errors, 1, "the late post");
}

/// Park a receiver on logical machine 0 of a two-machine view over hosts
/// 1 and 2, let `retire` end the lane at 10 µs, and report how the
/// receiver woke.
fn parked_receiver_wakes_with(
    plan: Option<FaultPlan>,
    retire: impl FnOnce(&SimCtx, &Fabric) + Send + 'static,
) -> Result<Option<Completion>, FabricError> {
    let (sim, root) = rack(3, plan);
    let view = root.query_view(QueryId(7), vec![HostId(1), HostId(2)]);
    let woke = Arc::new(Mutex::new(None));
    {
        let view = Arc::clone(&view);
        let woke = Arc::clone(&woke);
        sim.spawn("parked", move |ctx| {
            *woke.lock() = Some((view.nic(HostId(0)).recv(ctx), ctx.now()));
        });
    }
    sim.spawn("retirer", move |ctx| {
        ctx.sleep_until(SimTime::from_nanos(10_000));
        retire(ctx, &view);
        root.shutdown(ctx);
    });
    sim.run();
    let (result, at) = woke.lock().take().expect("the receiver woke");
    assert_eq!(
        at,
        SimTime::from_nanos(10_000),
        "woken by the retire itself"
    );
    result
}

#[test]
fn a_parked_lane_receiver_wakes_typed_however_its_lane_ends() {
    assert_eq!(
        parked_receiver_wakes_with(None, |ctx, view| view.close_view(ctx)),
        Ok(None),
        "graceful close is end-of-stream"
    );
    assert_eq!(
        parked_receiver_wakes_with(None, |ctx, view| view.abort(ctx)),
        Err(FabricError::Aborted)
    );
    // The receiver sits on host 1; its placement peer, host 2, fail-stops.
    let mut plan = FaultPlan::fault_free();
    plan.crashes.push(HostCrash {
        host: HostId(2),
        at: SimTime::from_nanos(10_000),
    });
    assert_eq!(
        parked_receiver_wakes_with(Some(plan), |_, _| {}),
        Err(FabricError::HostCrashed { host: HostId(2) }),
        "a peer that can never answer is a typed error, not a watchdog timeout"
    );
}

#[test]
fn retiring_a_view_twice_is_a_no_op() {
    let (sim, root) = rack(2, None);
    let placement = vec![HostId(0), HostId(1)];
    let stale = root.query_view(QueryId(3), placement.clone());
    let got = Arc::new(Mutex::new(Vec::new()));
    let reopened = SimEvent::new();
    let fresh_cell = Arc::new(Mutex::new(None));
    {
        let (root, reopened) = (Arc::clone(&root), Arc::clone(&reopened));
        let fresh_cell = Arc::clone(&fresh_cell);
        sim.spawn("driver", move |ctx| {
            stale.close_view(ctx);
            // The id is free again: the same query (a retry, say) gets a
            // fresh view over the same hosts.
            let fresh = root.query_view(QueryId(3), placement);
            *fresh_cell.lock() = Some(Arc::clone(&fresh));
            reopened.set(ctx);
            // Retiring the stale view again must not tear down the lanes
            // its successor registered under the same id.
            stale.close_view(ctx);
            fresh
                .nic(HostId(0))
                .post_send(ctx, HostId(1), 5, vec![3u8; 128])
                .wait(ctx)
                .expect("the successor's lane is still registered");
            fresh.close_view(ctx);
            root.shutdown(ctx);
        });
    }
    {
        let got = Arc::clone(&got);
        sim.spawn("receiver", move |ctx| {
            reopened.wait(ctx);
            let fresh = fresh_cell.lock().clone().expect("view published");
            let (msgs, end) = drain(ctx, &fresh, 1);
            assert_eq!(end, Ok(()));
            *got.lock() = msgs.iter().map(|c| c.tag).collect();
        });
    }
    sim.run();
    assert_eq!(*got.lock(), vec![5]);
}

/// SEND ×3, WRITE ×1, READ ×1 from machine 0 to machine 1 of `fabric`
/// (the root, or a view with the identity placement); returns the
/// `tx_*`/`rx_*` counters of both machines' NICs as `fabric` reports them.
fn traffic_stats(lane: bool) -> [(u64, u64, u64, u64); 2] {
    let (sim, root) = rack(2, None);
    let fabric = if lane {
        root.query_view(QueryId(4), vec![HostId(0), HostId(1)])
    } else {
        Arc::clone(&root)
    };
    {
        let (fabric, root) = (Arc::clone(&fabric), Arc::clone(&root));
        sim.spawn("initiator", move |ctx| {
            let target = fabric.nic(HostId(1)).mrs.register(ctx, 1024);
            target.fill(0, &[5u8; 1024]);
            let remote = target.publish();
            let nic = fabric.nic(HostId(0));
            let mut sends: Vec<_> = (0..3)
                .map(|i| nic.post_send(ctx, HostId(1), i, vec![0u8; 1000]))
                .collect();
            sends.push(nic.post_write(ctx, remote, 256, vec![6u8; 512]));
            let read = nic.post_read(ctx, remote, 0, 256);
            for h in sends {
                h.wait(ctx).unwrap();
            }
            assert_eq!(read.wait(ctx).unwrap(), vec![5u8; 256]);
            fabric.close_view(ctx);
            root.shutdown(ctx);
        });
    }
    {
        let fabric = Arc::clone(&fabric);
        sim.spawn("receiver", move |ctx| {
            let (got, end) = drain(ctx, &fabric, 1);
            assert_eq!((got.len(), end), (3, Ok(())));
        });
    }
    sim.run();
    let counters = |s: NicStats| (s.tx_msgs, s.tx_bytes, s.rx_msgs, s.rx_bytes);
    [0, 1].map(|m| counters(fabric.nic(HostId(m)).stats()))
}

#[test]
fn a_lane_accounts_traffic_byte_for_byte_like_the_root_path() {
    let direct = traffic_stats(false);
    // Initiator: 3 SENDs + WRITE + READ request out, the READ response in.
    // Target: those five in, the READ response out.
    assert_eq!(direct[0], (5, 3512, 1, 256));
    assert_eq!(direct[1], (1, 256, 5, 3512));
    assert_eq!(traffic_stats(true), direct);
}
