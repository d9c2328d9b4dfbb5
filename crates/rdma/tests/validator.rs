//! Negative-path tests of the verbs-contract validator: each stereotyped
//! RDMA misuse must be detected, and legal schedules must never trip it.
//!
//! A violation stops the run with a panic, in every build. Detection
//! tests catch that panic — of `sim.run()`, of a window call or of the
//! teardown audit — and then assert on the recorded variant.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use rsj_rdma::{
    BufferPool, Fabric, FabricConfig, FabricError, FaultPlan, HostCrash, HostId, NicCosts, QueryId,
    RemoteMr, SendHandle, SendWindow, Validator, Violation,
};
use rsj_sim::{SimDuration, SimTime, Simulation};

/// A launched two-host fabric, ready for misuse.
fn two_hosts(cfg: FabricConfig) -> (Simulation, Arc<Fabric>) {
    let sim = Simulation::new();
    let fabric = Fabric::new(cfg, NicCosts::default(), 2);
    fabric.launch(&sim);
    (sim, fabric)
}

/// Run `f`, which must panic on a violation, and return what `validator`
/// recorded.
fn violations_of(validator: &Validator, f: impl FnOnce()) -> Vec<Violation> {
    let outcome = catch_unwind(AssertUnwindSafe(f));
    assert!(outcome.is_err(), "the violation must stop the run");
    validator.violations()
}

#[test]
fn oob_write_is_detected() {
    let (sim, fabric) = two_hosts(FabricConfig::fdr());
    {
        let fabric = Arc::clone(&fabric);
        sim.spawn("offender", move |ctx| {
            let remote = fabric.nic(HostId(1)).mrs.register(ctx, 64).remote_handle();
            // Straddles the end of the 64-byte region.
            fabric
                .nic(HostId(0))
                .post_write(ctx, remote, 60, vec![0xab; 16]);
            unreachable!("the faulting post must not return");
        });
    }
    let vs = violations_of(fabric.validator(), || {
        sim.run();
    });
    assert!(
        matches!(
            vs[..],
            [Violation::OutOfBoundsWrite {
                offset: 60,
                len: 16,
                region_len: 64,
                ..
            }]
        ),
        "expected an out-of-bounds write violation, got {vs:?}"
    );
}

#[test]
#[should_panic(expected = "verbs contract violation: RDMA write out of bounds")]
fn oob_write_stops_the_run_with_the_violation_message() {
    // The misuse faults at the post, like the protection fault real
    // hardware would raise; the message names the violation.
    let (sim, fabric) = two_hosts(FabricConfig::fdr());
    {
        let fabric = Arc::clone(&fabric);
        sim.spawn("offender", move |ctx| {
            let remote = fabric.nic(HostId(1)).mrs.register(ctx, 64).remote_handle();
            fabric
                .nic(HostId(0))
                .post_write(ctx, remote, 64, vec![0; 1]);
        });
    }
    sim.run();
}

#[test]
fn oob_read_is_detected() {
    let (sim, fabric) = two_hosts(FabricConfig::fdr());
    {
        let fabric = Arc::clone(&fabric);
        sim.spawn("offender", move |ctx| {
            let remote = fabric.nic(HostId(1)).mrs.register(ctx, 32).remote_handle();
            let _ = fabric.nic(HostId(0)).post_read(ctx, remote, 16, 32);
            unreachable!("the faulting post must not return");
        });
    }
    let vs = violations_of(fabric.validator(), || {
        sim.run();
    });
    assert!(
        matches!(vs[..], [Violation::OutOfBoundsRead { region_len: 32, .. }]),
        "expected an out-of-bounds read violation, got {vs:?}"
    );
}

#[test]
fn read_after_unpublish_is_detected() {
    let (sim, fabric) = two_hosts(FabricConfig::fdr());
    {
        let fabric = Arc::clone(&fabric);
        sim.spawn("straggler", move |ctx| {
            // Host 1 publishes a bucket-table epoch (DESIGN.md §11)...
            let mr = fabric.nic(HostId(1)).mrs.register(ctx, 64);
            mr.fill(0, &[7u8; 64]);
            let remote = mr.publish();
            // ...and a probe READ inside the epoch is legal and sees the
            // published bytes.
            let data = fabric
                .nic(HostId(0))
                .post_read(ctx, remote, 0, 64)
                .wait(ctx)
                .expect("in-epoch read");
            assert_eq!(data, vec![7u8; 64]);
            // The owner closes the epoch; a straggler still holding the
            // handle reads after the retraction. The registration is
            // intact, so hardware would happily return scribbled bytes —
            // the validator stops the run instead.
            mr.unpublish();
            let _ = fabric.nic(HostId(0)).post_read(ctx, remote, 0, 64);
            unreachable!("the post-epoch read must not be posted");
        });
    }
    let vs = violations_of(fabric.validator(), || {
        sim.run();
    });
    assert!(
        matches!(
            vs[..],
            [Violation::ReadAfterUnpublish {
                host: HostId(1),
                ..
            }]
        ),
        "only the post-epoch read may trip the validator, got {vs:?}"
    );
}

#[test]
fn read_after_deregister_is_use_before_register() {
    let (sim, fabric) = two_hosts(FabricConfig::fdr());
    {
        let fabric = Arc::clone(&fabric);
        sim.spawn("straggler", move |ctx| {
            let mrs = &fabric.nic(HostId(1)).mrs;
            let mr = mrs.register(ctx, 64);
            let remote = mr.publish();
            fabric
                .nic(HostId(0))
                .post_read(ctx, remote, 0, 64)
                .wait(ctx)
                .expect("read while registered");
            // A retired query unpublishes and deregisters its tables; the
            // owner's own handle stays readable locally...
            mr.unpublish();
            mrs.deregister(&mr);
            mr.with_data(|d| assert_eq!(d.len(), 64));
            // ...but the HCA no longer knows the index.
            let _ = fabric.nic(HostId(0)).post_read(ctx, remote, 0, 64);
            unreachable!("a READ of a deregistered region must not be posted");
        });
    }
    let vs = violations_of(fabric.validator(), || {
        sim.run();
    });
    assert!(
        matches!(
            vs[..],
            [Violation::UseBeforeRegister {
                host: HostId(1),
                index: 0
            }]
        ),
        "expected use-before-register, got {vs:?}"
    );
}

#[test]
fn republish_reopens_the_read_epoch() {
    let (sim, fabric) = two_hosts(FabricConfig::fdr());
    {
        let fabric = Arc::clone(&fabric);
        sim.spawn("reader", move |ctx| {
            let mr = fabric.nic(HostId(1)).mrs.register(ctx, 16);
            let remote = mr.publish();
            mr.unpublish();
            mr.fill(0, &[3u8; 16]);
            // Re-publishing opens a fresh epoch: the same handle is legal
            // again and observes the new bytes.
            let remote = {
                let reissued = mr.publish();
                assert_eq!(reissued.index, remote.index);
                reissued
            };
            let data = fabric
                .nic(HostId(0))
                .post_read(ctx, remote, 0, 16)
                .wait(ctx)
                .expect("re-published read");
            assert_eq!(data, vec![3u8; 16]);
            fabric.shutdown(ctx);
        });
    }
    sim.run();
    assert!(
        fabric.validator().violations().is_empty(),
        "re-published reads are legal, got {:?}",
        fabric.validator().violations()
    );
}

#[test]
fn use_before_register_is_detected() {
    let (sim, fabric) = two_hosts(FabricConfig::fdr());
    {
        let fabric = Arc::clone(&fabric);
        sim.spawn("offender", move |ctx| {
            // A forged (addr, rkey) pair: host 1 never registered MR 7.
            let forged = RemoteMr {
                host: HostId(1),
                index: 7,
                len: 64,
            };
            fabric.nic(HostId(0)).post_write(ctx, forged, 0, vec![0; 8]);
        });
    }
    let vs = violations_of(fabric.validator(), || {
        sim.run();
    });
    assert!(
        matches!(
            vs[..],
            [Violation::UseBeforeRegister {
                host: HostId(1),
                index: 7
            }]
        ),
        "expected a use-before-register violation, got {vs:?}"
    );
}

#[test]
fn stale_remote_handle_is_detected() {
    let (sim, fabric) = two_hosts(FabricConfig::fdr());
    {
        let fabric = Arc::clone(&fabric);
        sim.spawn("offender", move |ctx| {
            let real = fabric.nic(HostId(1)).mrs.register(ctx, 64).remote_handle();
            // Same region, but the handle claims twice the length — as if
            // exchanged before a re-registration.
            let stale = RemoteMr { len: 128, ..real };
            fabric.nic(HostId(0)).post_write(ctx, stale, 0, vec![0; 8]);
        });
    }
    let vs = violations_of(fabric.validator(), || {
        sim.run();
    });
    assert!(
        matches!(
            vs[..],
            [Violation::StaleRemoteHandle {
                claimed: 128,
                registered: 64,
                ..
            }]
        ),
        "expected a stale-handle violation, got {vs:?}"
    );
}

#[test]
fn repost_before_completion_is_detected() {
    // A SendWindow misused without `admit`: the second `record` displaces
    // a work request that was never waited for. The window unwinds with
    // the panic, so its drop check stays quiet.
    let validator = Validator::new();
    let v = Arc::clone(&validator);
    let vs = violations_of(&validator, move || {
        let mut window = SendWindow::<1>::new(&v);
        window.record(SendHandle::for_test().0);
        window.record(SendHandle::for_test().0);
    });
    assert!(
        matches!(
            vs[..],
            [Violation::RepostBeforeCompletion { in_flight: true }]
        ),
        "expected a repost-before-completion violation, got {vs:?}"
    );
    // Dropping a window with a send still in flight is a second,
    // distinct violation.
    let v = Arc::clone(&validator);
    let vs = violations_of(&validator, move || {
        let mut window = SendWindow::<1>::new(&v);
        window.record(SendHandle::for_test().0);
        drop(window);
    });
    assert!(
        matches!(vs[1..], [Violation::WindowNotDrained { outstanding: 1 }]),
        "expected a window-not-drained violation, got {vs:?}"
    );
}

/// A pool owned by `(query, host)` with one buffer taken and never
/// returned.
fn leaked_pool(validator: &Validator, query: u32, host: usize) -> Arc<BufferPool> {
    let pool = BufferPool::new(4, 1024, NicCosts::default());
    validator.register_pool_scoped(QueryId(query), HostId(host), &pool);
    let sim = Simulation::new();
    {
        let pool = Arc::clone(&pool);
        sim.spawn("leaker", move |ctx| {
            let kept = pool.take(ctx);
            let returned = pool.take(ctx);
            pool.put(returned);
            // `kept` goes out of scope without `pool.put` — the leak.
            drop(kept);
        });
    }
    sim.run();
    pool
}

#[test]
fn pool_leak_is_detected_at_teardown() {
    let validator = Validator::new();
    let _pool = leaked_pool(&validator, 0, 0);
    let vs = violations_of(&validator, || validator.check_teardown());
    assert!(
        matches!(vs[..], [Violation::PoolLeak { outstanding: 1 }]),
        "expected a pool-leak violation, got {vs:?}"
    );
}

#[test]
fn crashed_host_leak_is_context_not_pool_leak() {
    // The same leak as above, but the owning host fail-stops before
    // teardown: the residue must be rolled up into a `HostCrashed`
    // context note, never reported as an application `PoolLeak`.
    let validator = Validator::new();
    let _pool = leaked_pool(&validator, 0, 2);
    validator.on_host_crashed(HostId(2));
    validator.check_teardown();
    let vs = validator.violations();
    assert!(
        matches!(
            vs[..],
            [Violation::HostCrashed {
                host: HostId(2),
                undrained: 0,
                unreposted: 0,
                leaked_buffers: 1,
            }]
        ),
        "expected the leak rolled up as HostCrashed context, got {vs:?}"
    );
}

#[test]
fn one_teardown_rule_for_every_audit() {
    // Four queries leak one buffer each: query 1 on a crashed host and
    // query 4 on the same crashed host, query 2 aborted, query 3 neither.
    let validator = Validator::new();
    let _pools = [
        leaked_pool(&validator, 1, 1),
        leaked_pool(&validator, 2, 0),
        leaked_pool(&validator, 3, 0),
        leaked_pool(&validator, 4, 1),
    ];
    validator.on_host_crashed(HostId(1));
    validator.on_query_aborted(QueryId(2));
    // The per-query audit notes crash residue: one note for the host.
    validator.check_query_teardown(QueryId(1));
    // An aborted query's residue is fault fallout.
    validator.check_query_teardown(QueryId(2));
    let noted = |leaked_buffers| Violation::HostCrashed {
        host: HostId(1),
        undrained: 0,
        unreposted: 0,
        leaked_buffers,
    };
    assert_eq!(validator.violations(), vec![noted(1)]);
    // The rack audit takes what is still tracked: query 4's crash
    // residue is noted before query 3's leak stops the run.
    let vs = violations_of(&validator, || validator.check_teardown());
    assert_eq!(
        vs,
        vec![noted(1), noted(1), Violation::PoolLeak { outstanding: 1 }]
    );
    // Every audit forgets what it audited: nothing is left to judge.
    validator.check_teardown();
    assert_eq!(validator.violation_count(), 3);
}

#[test]
fn srq_exhaustion_without_repost_is_detected() {
    // A receiver that consumes in batches but sits on the receive buffers
    // before reposting: while it holds all `srq_slots` slots, arriving
    // traffic finds the SRQ empty and the wire stalls — the RNR-NAK
    // analogue the §4.2.2 reposting discipline exists to prevent.
    let mut cfg = FabricConfig::fdr();
    cfg.srq_slots = 4;
    let (sim, fabric) = two_hosts(cfg);
    const COUNT: usize = 64;
    {
        let fabric = Arc::clone(&fabric);
        sim.spawn("sender", move |ctx| {
            let nic = fabric.nic(HostId(0));
            let evs: Vec<_> = (0..COUNT)
                .map(|i| nic.post_send(ctx, HostId(1), i as u32, vec![0u8; 256]))
                .collect();
            for ev in evs {
                ev.wait(ctx).unwrap();
            }
            fabric.shutdown(ctx);
        });
    }
    {
        let fabric = Arc::clone(&fabric);
        sim.spawn("hoarder", move |ctx| {
            let nic = fabric.nic(HostId(1));
            let mut consumed_without_repost = 0usize;
            let mut got = 0usize;
            while let Ok(Some(_c)) = nic.recv(ctx) {
                got += 1;
                consumed_without_repost += 1;
                if consumed_without_repost == 4 {
                    // Hold every slot for a while: ingress attempts during
                    // this window find the SRQ empty with nothing pending
                    // from the CQ side.
                    ctx.advance(SimDuration::from_millis(1));
                    for _ in 0..4 {
                        nic.repost_recv(ctx);
                    }
                    consumed_without_repost = 0;
                }
            }
            for _ in 0..consumed_without_repost {
                nic.repost_recv(ctx);
            }
            assert_eq!(got, COUNT);
        });
    }
    let vs = violations_of(fabric.validator(), || {
        sim.run();
    });
    assert!(
        matches!(vs[..], [Violation::SrqExhausted { slots: 4, .. }]),
        "expected an SRQ-exhaustion violation, got {vs:?}"
    );
}

/// Two SENDs from host 0 to host 1 of `fabric` (the root, or a view), taken
/// by a receiver on host 1 that consumes `consumed` of them and reposts
/// `reposted` of those; the run ends with the engines shut down.
fn leave_residue(fabric: Arc<Fabric>, root: &Arc<Fabric>, consumed: usize, reposted: usize) {
    let sim = Simulation::new();
    root.launch(&sim);
    {
        let (fabric, root) = (Arc::clone(&fabric), Arc::clone(root));
        sim.spawn("sender", move |ctx| {
            let nic = fabric.nic(HostId(0));
            let sends: Vec<_> = (0..2)
                .map(|i| nic.post_send(ctx, HostId(1), i, vec![0u8; 256]))
                .collect();
            for h in sends {
                h.wait(ctx).unwrap();
            }
            fabric.close_view(ctx);
            root.shutdown(ctx);
        });
    }
    sim.spawn("receiver", move |ctx| {
        let nic = fabric.nic(HostId(1));
        for i in 0..consumed {
            nic.recv(ctx).unwrap().expect("a delivered completion");
            if i < reposted {
                nic.repost_recv(ctx);
            }
        }
    });
    sim.run();
}

#[test]
fn undrained_completion_is_detected_at_teardown() {
    let root = Fabric::new(FabricConfig::fdr(), NicCosts::default(), 2);
    leave_residue(Arc::clone(&root), &root, 1, 1);
    let vs = violations_of(root.validator(), || root.validator().check_teardown());
    assert_eq!(
        vs,
        vec![Violation::CompletionsNotDrained {
            host: HostId(1),
            pending: 1
        }]
    );
}

#[test]
fn consumed_but_not_reposted_is_detected_at_teardown() {
    let root = Fabric::new(FabricConfig::fdr(), NicCosts::default(), 2);
    leave_residue(Arc::clone(&root), &root, 2, 1);
    let vs = violations_of(root.validator(), || root.validator().check_teardown());
    assert_eq!(
        vs,
        vec![Violation::RecvNotReposted {
            host: HostId(1),
            held: 1
        }]
    );
}

#[test]
fn a_closed_view_is_audited_by_its_query_teardown() {
    // Logical machine 1 of the view is physical host 2; `close_view`
    // unregisters the lanes before the audit runs.
    let root = Fabric::new(FabricConfig::fdr(), NicCosts::default(), 3);
    let view = root.query_view(QueryId(5), vec![HostId(1), HostId(2)]);
    leave_residue(Arc::clone(&view), &root, 1, 1);
    // Another query's audit leaves this query's lanes alone.
    root.validator().check_query_teardown(QueryId(4));
    assert_eq!(root.validator().violation_count(), 0);
    let vs = violations_of(root.validator(), || {
        root.validator().check_query_teardown(QueryId(5))
    });
    assert_eq!(
        vs,
        vec![Violation::CompletionsNotDrained {
            host: HostId(2),
            pending: 1
        }]
    );
}

#[test]
fn crash_residue_is_noted_once_and_only_where_left() {
    // Query 1 spans hosts 0..3. Host 1's lane is left holding one
    // undrained completion and one unreposted slot; host 2's lane drains
    // cleanly. Host 1 crashes first, which unregisters the query's lanes
    // on hosts 0 and 2; host 2 crashes after.
    let mut plan = FaultPlan::fault_free();
    for (host, us) in [(1, 100), (2, 200)] {
        plan.crashes.push(HostCrash {
            host: HostId(host),
            at: SimTime::from_nanos(us * 1000),
        });
    }
    let sim = Simulation::new();
    let root = Fabric::new_with_plan(FabricConfig::fdr(), NicCosts::default(), 3, Some(plan));
    root.launch(&sim);
    let q = QueryId(1);
    let view = root.query_view(q, vec![HostId(0), HostId(1), HostId(2)]);
    {
        let view = Arc::clone(&view);
        sim.spawn("sender", move |ctx| {
            let nic = view.nic(HostId(0));
            let sends: Vec<_> = [1, 1, 2]
                .into_iter()
                .map(|m| nic.post_send(ctx, HostId(m), 0, vec![0u8; 256]))
                .collect();
            for h in sends {
                h.wait(ctx).unwrap();
            }
        });
    }
    {
        let view = Arc::clone(&view);
        sim.spawn("left", move |ctx| {
            let got = view.nic(HostId(1)).recv(ctx).unwrap();
            assert!(got.is_some(), "consumed, never reposted");
        });
    }
    {
        let view = Arc::clone(&view);
        sim.spawn("clean", move |ctx| {
            let nic = view.nic(HostId(2));
            assert!(nic.recv(ctx).unwrap().is_some());
            nic.repost_recv(ctx);
            assert_eq!(
                nic.recv(ctx),
                Err(FabricError::HostCrashed { host: HostId(1) })
            );
        });
    }
    {
        let root = Arc::clone(&root);
        sim.spawn("closer", move |ctx| {
            ctx.sleep_until(SimTime::from_nanos(300_000));
            root.shutdown(ctx);
        });
    }
    sim.run();
    let v = root.validator();
    v.check_query_teardown(q);
    let noted = Violation::HostCrashed {
        host: HostId(1),
        undrained: 1,
        unreposted: 1,
        leaked_buffers: 0,
    };
    assert_eq!(v.violations(), vec![noted]);
    // The audit forgot what it judged: neither audit finds anything new.
    v.check_query_teardown(q);
    v.check_teardown();
    assert_eq!(v.violation_count(), 1);
}

#[test]
fn srq_exhaustion_is_detected_on_a_view_lane() {
    // The hoarder of `srq_exhaustion_without_repost_is_detected`, on
    // logical machine 1 of a query view over physical hosts 0 and 1.
    let mut cfg = FabricConfig::fdr();
    cfg.srq_slots = 4;
    let sim = Simulation::new();
    let root = Fabric::new(cfg, NicCosts::default(), 2);
    root.launch(&sim);
    let view = root.query_view(QueryId(3), vec![HostId(0), HostId(1)]);
    {
        let view = Arc::clone(&view);
        sim.spawn("sender", move |ctx| {
            let nic = view.nic(HostId(0));
            let sends: Vec<_> = (0..16)
                .map(|i| nic.post_send(ctx, HostId(1), i, vec![0u8; 256]))
                .collect();
            for h in sends {
                let _ = h.wait(ctx);
            }
        });
    }
    sim.spawn("hoarder", move |ctx| {
        let nic = view.nic(HostId(1));
        for _ in 0..4 {
            nic.recv(ctx).unwrap();
        }
        ctx.advance(SimDuration::from_millis(1));
        unreachable!("the ingress engine stops the run first");
    });
    let vs = violations_of(root.validator(), || {
        sim.run();
    });
    assert_eq!(
        vs,
        vec![Violation::SrqExhausted {
            host: HostId(1),
            held: 4,
            slots: 4
        }]
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Legal schedules never trip the validator: an arbitrary two-sided
    /// exchange plus one-sided writes, all following the contract
    /// (register first, stay in bounds, repost every receive, drain the
    /// window), runs violation-free — any false positive panics the
    /// test — and the teardown audit passes too.
    #[test]
    fn prop_legal_schedules_never_trip_validator(
        msgs in 1usize..24,
        msg_size in 64usize..2048,
        writes in 0usize..12,
        region_pow in 8u32..14,
    ) {
        let region = 1usize << region_pow;
        let sim = Simulation::new();
        let fabric = Fabric::new(FabricConfig::qdr(), NicCosts::default(), 2);
        fabric.launch(&sim);
        let handle = Arc::new(Mutex::new(None::<RemoteMr>));
        {
            // The target registers its one-sided landing region up front.
            let fabric = Arc::clone(&fabric);
            let handle = Arc::clone(&handle);
            sim.spawn("target", move |ctx| {
                let nic = fabric.nic(HostId(1));
                *handle.lock().unwrap() = Some(nic.mrs.register(ctx, region).remote_handle());
                let mut got = 0;
                while let Ok(Some(_c)) = nic.recv(ctx) {
                    got += 1;
                    nic.repost_recv(ctx);
                }
                assert_eq!(got, msgs);
            });
        }
        {
            let fabric = Arc::clone(&fabric);
            let handle = Arc::clone(&handle);
            sim.spawn("initiator", move |ctx| {
                let nic = fabric.nic(HostId(0));
                let remote = loop {
                    if let Some(r) = *handle.lock().unwrap() {
                        break r;
                    }
                    ctx.advance(SimDuration::from_micros(10));
                };
                let mut window = SendWindow::<2>::new(nic.validator());
                for i in 0..msgs {
                    window.admit(ctx).unwrap();
                    let ev = nic.post_send(ctx, HostId(1), i as u32, vec![0u8; msg_size]);
                    window.record(ev);
                }
                let chunk = (region / writes.max(1)).max(1).min(msg_size);
                for w in 0..writes {
                    let offset = (w * chunk) % (region - chunk + 1);
                    nic.post_write(ctx, remote, offset, vec![w as u8; chunk])
                        .wait(ctx)
                        .unwrap();
                }
                window.drain(ctx).unwrap();
                fabric.shutdown(ctx);
            });
        }
        sim.run();
        prop_assert_eq!(fabric.validator().violation_count(), 0);
        // The teardown audit (undrained CQs, unreposted receives, leaked
        // pool buffers) must also pass cleanly.
        fabric.validator().check_teardown();
        prop_assert_eq!(fabric.validator().violation_count(), 0);
    }
}
