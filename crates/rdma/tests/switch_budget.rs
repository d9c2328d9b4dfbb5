//! Stack-switch budget of a two-sided stream. The NIC engines are step
//! slots that the scheduler calls on its own stack, so once a stream of
//! SENDs is warm no dispatch switches onto a fabric slot's stack, and the
//! posting and receiving workers together switch at most
//! [`SWITCHES_PER_MESSAGE`] times a message.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use rsj_rdma::{Fabric, FabricConfig, HostId, NicCosts};
use rsj_sim::{RunCounts, Simulation};

/// SENDs before the counted stream.
const WARMUP: usize = 1_000;
/// SENDs of the counted stream.
const MESSAGES: usize = 10_000;
/// Bytes per SEND.
const PAYLOAD: usize = 64;
/// SENDs the poster keeps in flight before it waits for the oldest.
const WINDOW: usize = 16;
/// Stack switches per counted message: 3.003 measured with the engines as
/// step slots (the poster switches at its post charge and its wait, the
/// receiver at its receive); with either engine a task, every message
/// adds at least one more.
const SWITCHES_PER_MESSAGE: f64 = 3.05;

#[test]
fn a_warm_send_stream_switches_onto_no_fabric_slot() {
    let sim = Simulation::new();
    let fabric = Fabric::new(FabricConfig::qdr(), NicCosts::default(), 2);
    fabric.launch(&sim);
    let counts: Rc<RefCell<Vec<RunCounts>>> = Rc::default();
    {
        let fabric = fabric.clone();
        let counts = Rc::clone(&counts);
        sim.spawn("poster", move |ctx| {
            let nic = fabric.nic(HostId(0));
            let mut in_flight = VecDeque::with_capacity(WINDOW + 1);
            for i in 0..WARMUP + MESSAGES {
                if i == WARMUP {
                    counts.borrow_mut().push(ctx.run_counts());
                }
                in_flight.push_back(nic.post_send(ctx, HostId(1), 7, vec![0u8; PAYLOAD]));
                if in_flight.len() > WINDOW {
                    let oldest = in_flight.pop_front().expect("a send is in flight");
                    oldest.wait(ctx).expect("fault-free send");
                }
            }
            for send in in_flight {
                send.wait(ctx).expect("fault-free send");
            }
            counts.borrow_mut().push(ctx.run_counts());
            fabric.shutdown(ctx);
        });
    }
    {
        let fabric = fabric.clone();
        sim.spawn("receiver", move |ctx| {
            let nic = fabric.nic(HostId(1));
            let mut got = 0;
            while let Some(c) = nic.recv(ctx).expect("fault-free receive") {
                assert_eq!(c.payload.len(), PAYLOAD);
                nic.repost_recv(ctx);
                got += 1;
            }
            assert_eq!(got, WARMUP + MESSAGES);
        });
    }
    sim.run();
    let counts = counts.borrow();
    let (warm, end) = (&counts[0], &counts[1]);
    let engines: Vec<_> = end
        .slots
        .iter()
        .filter(|s| s.name.starts_with("nic-"))
        .collect();
    assert_eq!(engines.len(), 4, "{:?}", end.slots);
    for engine in &engines {
        assert_eq!(engine.switches, 0, "a stack switch onto {engine:?}");
        assert!(engine.step_runs > 0, "{engine:?} never ran");
    }
    let per_message = (end.switches - warm.switches) as f64 / MESSAGES as f64;
    assert!(
        per_message <= SWITCHES_PER_MESSAGE,
        "{per_message:.3} stack switches per message (budget {SWITCHES_PER_MESSAGE}): {:?}",
        end.slots
    );
}
