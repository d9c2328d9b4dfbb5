//! Stack-switch budgets of the fabric's waits. The NIC engines are step
//! slots that the scheduler calls on its own stack, so once a stream of
//! SENDs is warm no dispatch switches onto a fabric slot's stack, and the
//! posting and receiving workers together switch at most
//! [`SWITCHES_PER_MESSAGE`] times a message. A wait that comes with
//! batched time (a copy charge) is decided at the waiter's floor, so a
//! waiter that would block there is not switched in first: a READ chain
//! waited in order costs [`SWITCHES_PER_READ`], a receiver that charges a
//! copy before each repost [`RECEIVER_SWITCHES_PER_MESSAGE`].

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use rsj_rdma::{Fabric, FabricConfig, HostId, NicCosts};
use rsj_sim::{RunCounts, SimDuration, Simulation, Step};

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
/// The copy a reader or receiver charges, batched, per READ or message.
const COPY: SimDuration = SimDuration::from_nanos(20);
/// The step of [`spawn_ticker`], shorter than [`COPY`].
const TICK: SimDuration = SimDuration::from_nanos(7);
/// READs per doorbell chain, as the one-sided probe posts them.
const CHAIN: usize = 16;
/// Chains the reader posts; the budget is checked over the second half.
const CHAINS: usize = 200;
/// Bytes per READ.
const READ: usize = 256;
/// The reader's stack switches per READ of a chain waited in order with a
/// batched copy between waits, beside a [`spawn_ticker`]: 1.125 measured,
/// one per READ (its park decided at its floor) plus two per chain (the
/// settle before the post and the post charge). A reader that settles
/// before each wait is switched in at its floor and again at the
/// completion: 2.062.
const SWITCHES_PER_READ: f64 = 1.15;
/// The receiver's stack switches per message when it charges a batched
/// copy and then reposts and receives as one wait, beside a
/// [`spawn_ticker`]: 1.000 measured. Settling, reposting and receiving in
/// turn switches it in at its floor and again at the next completion:
/// 2.000.
const RECEIVER_SWITCHES_PER_MESSAGE: f64 = 1.05;

/// A step slot that advances by [`TICK`] until `done` is set: the rest of
/// a busy rack, whose events keep a waiter's floor from ever being the
/// earliest event, so a waiter settled before it parks is switched out
/// and in at its floor.
fn spawn_ticker(sim: &Simulation, done: &Rc<Cell<bool>>) {
    let done = Rc::clone(done);
    sim.spawn_steps("ticker", move |_| {
        if done.get() {
            return Step::Exit;
        }
        Step::Advance(TICK)
    });
}

/// The switches of the slot named `name` between two counts.
fn switches_of(name: &str, from: &RunCounts, to: &RunCounts) -> u64 {
    let of = |c: &RunCounts| {
        let slot = c.slots.iter().find(|s| s.name == name);
        slot.map_or(0, |s| s.switches)
    };
    of(to) - of(from)
}

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

#[test]
fn a_read_chain_waited_in_order_switches_once_a_read() {
    let sim = Simulation::new();
    let fabric = Fabric::new(FabricConfig::qdr(), NicCosts::default(), 2);
    fabric.launch(&sim);
    let counts: Rc<RefCell<Vec<RunCounts>>> = Rc::default();
    let done = Rc::new(Cell::new(false));
    spawn_ticker(&sim, &done);
    {
        let counts = Rc::clone(&counts);
        sim.spawn("reader", move |ctx| {
            let mr = fabric.nic(HostId(1)).mrs.register(ctx, CHAIN * READ);
            let remote = mr.publish();
            let reads: Vec<_> = (0..CHAIN).map(|k| (remote, k * READ, READ)).collect();
            let nic = fabric.nic(HostId(0));
            for chain in 0..CHAINS {
                if chain == CHAINS / 2 {
                    counts.borrow_mut().push(ctx.run_counts());
                }
                ctx.settle_point();
                for h in nic.post_read_batch(ctx, &reads) {
                    let got = h.wait(ctx).expect("no fault plan is installed");
                    assert_eq!(got.len(), READ);
                    ctx.advance_batched(COPY);
                }
            }
            counts.borrow_mut().push(ctx.run_counts());
            done.set(true);
            mr.unpublish();
            fabric.shutdown(ctx);
        });
    }
    sim.run();
    let counts = counts.borrow();
    let reads = (CHAINS / 2 * CHAIN) as f64;
    let per_read = switches_of("reader", &counts[0], &counts[1]) as f64 / reads;
    assert!(
        per_read <= SWITCHES_PER_READ,
        "{per_read:.3} reader switches per READ (budget {SWITCHES_PER_READ}): {:?}",
        counts[1].slots
    );
}

#[test]
fn a_receiver_that_copies_before_each_repost_switches_once_a_message() {
    let sim = Simulation::new();
    let fabric = Fabric::new(FabricConfig::qdr(), NicCosts::default(), 2);
    fabric.launch(&sim);
    let counts: Rc<RefCell<Vec<RunCounts>>> = Rc::default();
    let done = Rc::new(Cell::new(false));
    spawn_ticker(&sim, &done);
    {
        let fabric = fabric.clone();
        sim.spawn("poster", move |ctx| {
            let nic = fabric.nic(HostId(0));
            let mut in_flight = VecDeque::with_capacity(WINDOW + 1);
            for _ in 0..WARMUP + MESSAGES {
                in_flight.push_back(nic.post_send(ctx, HostId(1), 7, vec![0u8; PAYLOAD]));
                if in_flight.len() > WINDOW {
                    let oldest = in_flight.pop_front().expect("a send is in flight");
                    oldest.wait(ctx).expect("fault-free send");
                }
            }
            for send in in_flight {
                send.wait(ctx).expect("fault-free send");
            }
            fabric.shutdown(ctx);
        });
    }
    {
        let counts = Rc::clone(&counts);
        sim.spawn("receiver", move |ctx| {
            let nic = fabric.nic(HostId(1));
            let repost = nic.repost_action(ctx);
            let mut got = 0;
            let mut next = nic.recv(ctx);
            while let Some(c) = next.expect("fault-free receive") {
                assert_eq!(c.payload.len(), PAYLOAD);
                got += 1;
                if got == WARMUP || got == WARMUP + MESSAGES {
                    counts.borrow_mut().push(ctx.run_counts());
                }
                ctx.advance_batched(COPY);
                next = nic.repost_and_recv(ctx, &repost);
            }
            assert_eq!(got, WARMUP + MESSAGES);
            done.set(true);
        });
    }
    sim.run();
    let counts = counts.borrow();
    let per_message = switches_of("receiver", &counts[0], &counts[1]) as f64 / MESSAGES as f64;
    assert!(
        per_message <= RECEIVER_SWITCHES_PER_MESSAGE,
        "{per_message:.3} receiver switches per message (budget \
         {RECEIVER_SWITCHES_PER_MESSAGE}): {:?}",
        counts[1].slots
    );
}
