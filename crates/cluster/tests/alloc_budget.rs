//! Allocation budget of a partitioned stream: once a `Scatter` →
//! `recv_stream` stream is warm, a message costs the host no heap
//! allocation. Payload buffers go back to the sender's pool, completion
//! cells back to the NIC's free list as the wire completes them, and
//! send windows keep their slots inline, so the second half of the
//! stream runs on what the first half allocated. `cell_budget.rs` holds
//! the cold case, where no lane lives long enough to warm up.
//!
//! The binary installs the counting global allocator of
//! `rsj-alloc-count` and holds one test, so nothing else allocates while
//! it counts.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

use rsj_cluster::{phase, Exchange, Meter, Runtime, Scatter, WireTag};
use rsj_rdma::{FabricConfig, NicCosts};

#[global_allocator]
static COUNTING: rsj_alloc_count::Counting = rsj_alloc_count::Counting;

const MACHINES: usize = 4;
const SENDERS: usize = 2;
/// Partitions of the one relation; partition `p` lives on machine
/// `p % MACHINES`, so each sender feeds six remote lanes.
const PARTS: usize = 8;
/// 32 eight-byte records per buffer.
const BUF: usize = 256;
/// Messages each lane carries.
const PER_LANE: usize = 64;
/// Records each sender pushes, round-robin over the partitions.
const RECORDS: usize = PER_LANE * (BUF / 8) * PARTS;

/// Counters shared by the tasks of the one simulation.
#[derive(Default)]
struct Tally {
    pushed: Cell<usize>,
    received: Cell<usize>,
    receivers_done: Cell<usize>,
    /// `(allocations, messages received)` when half the records were
    /// pushed, and when the last receiver returned.
    half: Cell<(u64, usize)>,
    end: Cell<(u64, usize)>,
}

impl Tally {
    fn now(&self) -> (u64, usize) {
        (rsj_alloc_count::allocations(), self.received.get())
    }
}

#[test]
fn a_warm_stream_allocates_nothing_per_message() {
    let rt = Runtime::new(
        MACHINES,
        SENDERS + 1,
        FabricConfig::fdr(),
        NicCosts::default(),
    );
    let pools: Arc<Vec<_>> = Arc::new(
        (0..MACHINES)
            .map(|m| rt.make_pool(m, 2 * PARTS * SENDERS, BUF))
            .collect(),
    );
    let tally = Rc::new(Tally::default());
    let t = Rc::clone(&tally);
    rt.try_run(move |ctx, rt, mach, core| {
        let ex = Exchange::new(&rt.fabric, mach, phase::NETWORK_PARTITION);
        let mut meter = Meter::new();
        if core == 0 {
            ex.recv_stream(ctx, &mut meter, SENDERS, &pools, |_, tag, bytes| {
                t.received.set(t.received.get() + 1);
                matches!(tag, WireTag::Data { part, .. } if part % MACHINES == mach)
                    && bytes.len() % 8 == 0
            })?;
            t.receivers_done.set(t.receivers_done.get() + 1);
            if t.receivers_done.get() == MACHINES {
                t.end.set(t.now());
            }
        } else {
            let mut scatter = Scatter::new(&ex, &pools[mach], PARTS, 8, Exchange::send)?;
            for i in 0..RECORDS {
                let part = i % PARTS;
                let dst = part % MACHINES;
                if dst != mach {
                    let tag = WireTag::Data { rel: 0, part };
                    meter.charge_seconds(ctx, 1e-7);
                    scatter.push(ctx, &mut meter, dst, tag, |buf| {
                        buf.copy_from_slice(&(i as u64).to_le_bytes())
                    })?;
                }
                t.pushed.set(t.pushed.get() + 1);
                if t.pushed.get() == MACHINES * SENDERS * RECORDS / 2 {
                    t.half.set(t.now());
                }
            }
            scatter.finish(ctx, &mut meter, true)?;
        }
        rt.try_sync_named(ctx, phase::NETWORK_PARTITION, mach)
            .map(|_| ())
    })
    .expect("a fault-free stream completes");

    let lanes = MACHINES * SENDERS * (PARTS - PARTS / MACHINES);
    assert_eq!(
        tally.received.get(),
        lanes * PER_LANE,
        "every message arrived"
    );
    let ((a0, m0), (a1, m1)) = (tally.half.get(), tally.end.get());
    let messages = m1 - m0;
    assert!(
        messages >= lanes * PER_LANE / 3,
        "{messages} messages in the second half"
    );
    let per_message = (a1 - a0) as f64 / messages as f64;
    assert!(
        per_message < 0.05,
        "{} heap allocations over the stream's last {messages} messages: {per_message:.3} per message",
        a1 - a0
    );
}
