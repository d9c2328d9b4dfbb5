//! Completion-cell and pool-buffer budget of a cold-lane stream: hundreds
//! of `Scatter` lanes, each carrying at most three messages, with every
//! lane's send window left open until `finish`. This is the shape of the
//! paper's network pass (§4.2.1: at least two buffers per thread and
//! partition), where a lane sends about 2.5 messages, so a lane never
//! warms up. A NIC must allocate no more completion cells than it ever had
//! sends in flight: a cell goes back when the wire completes it, not when
//! the window lets go of its handle. A machine's pool likewise allocates
//! no more buffers than it ever had sends in flight: a lane fills its
//! share of the scatter's slab and draws a pool buffer only to post it,
//! and a receiver hands each buffer back once it has copied it out. In
//! all, cells and buffers included, the stream allocates less than once
//! per ten messages, however many lanes it opens.
//!
//! The binary installs the counting global allocator of `rsj-alloc-count`
//! and holds one test, so nothing else allocates while it counts.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;

use rsj_cluster::{phase, Exchange, Lane, Meter, Posted, Runtime, Scatter, WireTag};
use rsj_rdma::{FabricConfig, HostId, NicCosts};
use rsj_sim::SimCtx;

#[global_allocator]
static COUNTING: rsj_alloc_count::Counting = rsj_alloc_count::Counting;

const MACHINES: usize = 4;
const SENDERS: usize = 2;
/// Partitions per relation; partition `p` lives on machine
/// `p % MACHINES`. Both relations stream, so each sender feeds
/// `2 * 48 = 96` remote lanes, and the rack 768.
const PARTS: usize = 64;
const LANES: usize = MACHINES * SENDERS * 2 * (PARTS - PARTS / MACHINES);
/// Eight eight-byte records per buffer.
const BUF: usize = 64;
const RECORDS_PER_BUF: usize = BUF / 8;
/// Compute per record: a sender posts a message every 8 µs, slower than
/// the wire delivers it, so few sends are ever in flight at once.
const RECORD_SECONDS: f64 = 1e-6;

/// Messages lane `(rel, part)` carries: one, two or three. The last one
/// is one record short, so `finish` posts it.
fn messages(rel: usize, part: usize) -> usize {
    1 + (rel + part) % 3
}

/// Per machine: sends posted (data and end-of-stream), data messages its
/// peers consumed, and the most posted and not yet consumed right after
/// any post. A send in flight is posted and not yet consumed, so that peak
/// bounds the sends the machine's NIC ever had in flight at once.
#[derive(Default)]
struct Tally {
    posted: [Cell<usize>; MACHINES],
    consumed: [Cell<usize>; MACHINES],
    peak: [Cell<usize>; MACHINES],
    /// Each machine's NIC's cell count, read after the stream.
    cells: RefCell<[u64; MACHINES]>,
    /// Heap allocations at the stream's first post and its last receive.
    first: Cell<u64>,
    last: Cell<u64>,
}

impl Tally {
    fn post(&self, mach: usize, n: usize) {
        if self.posted.iter().all(|p| p.get() == 0) {
            self.first.set(rsj_alloc_count::allocations());
        }
        let posted = self.posted[mach].get() + n;
        self.posted[mach].set(posted);
        let open = posted - self.consumed[mach].get();
        self.peak[mach].set(self.peak[mach].get().max(open));
    }
}

#[test]
fn a_cold_stream_allocates_no_more_cells_than_it_has_sends_in_flight() {
    let rt = Runtime::new(
        MACHINES,
        SENDERS + 1,
        FabricConfig::fdr(),
        NicCosts::default(),
    );
    let pools: Arc<Vec<_>> = Arc::new(
        (0..MACHINES)
            .map(|m| rt.make_pool(m, 4 * PARTS * SENDERS, BUF))
            .collect(),
    );
    let tally = Rc::new(Tally::default());
    let t = Rc::clone(&tally);
    let drawn = Arc::clone(&pools);
    rt.try_run(move |ctx, rt, mach, core| {
        let ex = Exchange::new(&rt.fabric, mach, phase::NETWORK_PARTITION);
        let mut meter = Meter::new();
        if core == 0 {
            ex.recv_stream(ctx, &mut meter, SENDERS, &pools, |_, _, bytes| {
                // Every record names its sending machine.
                let src = bytes[0] as usize;
                t.consumed[src].set(t.consumed[src].get() + 1);
                t.last.set(rsj_alloc_count::allocations());
                true
            })?;
        } else {
            let step = |ex: &Exchange,
                        ctx: &SimCtx,
                        meter: &mut Meter,
                        lane: &mut Lane<'_>,
                        bytes: Vec<u8>|
             -> Posted {
                let sent = Exchange::send(ex, ctx, meter, lane, bytes)?;
                t.post(mach, usize::from(sent.is_some()));
                Ok(sent)
            };
            let mut scatter = Scatter::new(&ex, &pools[mach], PARTS, 8, step)?;
            for round in 0..3 {
                for rel in 0..2 {
                    for part in (0..PARTS).filter(|p| p % MACHINES != mach) {
                        let n = messages(rel, part);
                        let records = match round {
                            r if r + 1 < n => RECORDS_PER_BUF,
                            r if r + 1 == n => RECORDS_PER_BUF - 1,
                            _ => 0,
                        };
                        let (dst, tag) = (part % MACHINES, WireTag::Data { rel, part });
                        for _ in 0..records {
                            meter.charge_seconds(ctx, RECORD_SECONDS);
                            scatter.push(ctx, &mut meter, dst, tag, |buf| {
                                buf.copy_from_slice(&(mach as u64).to_le_bytes())
                            })?;
                        }
                    }
                }
            }
            // Every window stays open until here.
            scatter.finish(ctx, &mut meter, false)?;
            t.post(mach, MACHINES - 1);
            ex.send_eos(ctx, ex.peers())?;
        }
        rt.try_sync_named(ctx, phase::NETWORK_PARTITION, mach)?;
        t.cells.borrow_mut()[mach] = rt.fabric.nic(HostId(mach)).stats().cells;
        Ok(())
    })
    .expect("a fault-free stream completes");

    let cells = *tally.cells.borrow();
    let messages: usize = tally.posted.iter().map(Cell::get).sum();
    assert!(
        messages > 2 * LANES,
        "{messages} messages over {LANES} lanes"
    );
    for (mach, (&cells, peak)) in cells.iter().zip(&tally.peak).enumerate() {
        let peak = peak.get();
        assert!(
            cells as usize <= peak,
            "machine {mach} allocated {cells} completion cells for at most {peak} sends in flight"
        );
        let buffers = drawn[mach].allocated();
        assert!(
            buffers as usize <= peak,
            "machine {mach}'s pool allocated {buffers} buffers for at most {peak} sends in flight"
        );
    }
    // In all, cells and buffers included, the stream allocates less than
    // once per ten messages, with no term per lane.
    let stream = tally.last.get() - tally.first.get();
    let bound = messages / 10;
    assert!(
        (stream as usize) < bound,
        "{stream} heap allocations over a stream of {messages} messages on {LANES} lanes \
         (bound {bound}); completion cells per machine: {cells:?}"
    );
}
