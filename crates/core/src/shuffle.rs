//! The shuffle: how partition traffic lands (DESIGN.md §14).
//!
//! The radix join, the sort-merge join and the aggregation move tuples
//! the same way in their network partitioning pass. Every partitioning
//! worker routes its share of the input by the low radix bits, keeps the
//! tuples of partitions assigned to its own machine and pushes the rest
//! into a [`Scatter`]; the owner takes in what arrives; after the pass it
//! assembles each partition from what its workers kept plus what was
//! received. A [`Landing`] is one machine's side of all three steps.
//! Partition traffic lands with the channel semantics of §4.2.2: the
//! owner's receiver core copies every buffer into per-partition staging
//! memory (DESIGN.md §4 item 3). Callers keep their post step (how one
//! full buffer reaches the wire) and their own checks.

use parking_lot::Mutex;
use rsj_cluster::{ranges, Exchange, JoinError, Lane, Meter, Posted, Scatter, WireTag};
use rsj_joins::partition_of;
use rsj_sim::SimCtx;
use rsj_workload::{decode_into, Tuple};

/// One machine's landing of a shuffle on the low `bits` radix bits.
pub struct Landing<T> {
    mach: usize,
    bits: u32,
    /// Partition → owning machine, installed once per run by [`Landing::assign`].
    assignment: Mutex<Vec<usize>>,
    /// Per partitioning worker, the tuples it kept: `[rel][part]`.
    kept: Vec<Mutex<[Vec<Vec<T>>; 2]>>,
    /// Received bytes per `[rel][part]`.
    staged: [Mutex<Vec<Vec<u8>>>; 2],
}

impl<T: Tuple> Landing<T> {
    /// Machine `mach`'s landing for `workers` partitioning workers per
    /// machine.
    pub fn new(mach: usize, bits: u32, workers: usize) -> Landing<T> {
        let staged = || Mutex::new(vec![Vec::new(); 1 << bits]);
        Landing {
            mach,
            bits,
            assignment: Mutex::new(Vec::new()),
            kept: (0..workers)
                .map(|_| Mutex::new([Vec::new(), Vec::new()]))
                .collect(),
            staged: [staged(), staged()],
        }
    }

    /// Install the partition → machine assignment every machine derived
    /// after the histogram phase; routing and receiving follow it.
    pub fn assign(&self, assignment: Vec<usize>) {
        assert_eq!(assignment.len(), 1 << self.bits, "one owner per partition");
        *self.assignment.lock() = assignment;
    }

    /// Whether partition `part` is assigned to this machine.
    pub(crate) fn owns(&self, part: usize) -> bool {
        self.assignment.lock()[part] == self.mach
    }

    /// The partitions assigned to this machine, ascending.
    pub fn owned(&self) -> Vec<usize> {
        let assignment = self.assignment.lock();
        (0..assignment.len())
            .filter(|&p| assignment[p] == self.mach)
            .collect()
    }

    /// Worker `w`'s side of the network pass: for each `(rel, chunk)` in
    /// `inputs`, charge its share of `chunk` at `rate`, keep the tuples of
    /// partitions assigned here and push the rest into `scatter`.
    pub fn route<P>(
        &self,
        ctx: &SimCtx,
        meter: &mut Meter,
        scatter: &mut Scatter<'_, P>,
        w: usize,
        rate: f64,
        inputs: &[(usize, &[T])],
    ) -> Result<(), JoinError>
    where
        P: FnMut(&Exchange, &SimCtx, &mut Meter, &mut Lane, Vec<u8>) -> Posted,
    {
        let assignment = self.assignment.lock().clone();
        let mut kept: [Vec<Vec<T>>; 2] = [Vec::new(), Vec::new()];
        for &(rel, chunk) in inputs {
            kept[rel] = vec![Vec::new(); assignment.len()];
            let range = ranges(chunk.len(), self.kept.len())[w].clone();
            for t in &chunk[range] {
                meter.charge_bytes(ctx, T::SIZE, rate);
                let part = partition_of(t.key(), 0, self.bits);
                let dst = assignment[part];
                if dst == self.mach {
                    kept[rel][part].push(*t);
                } else {
                    let tag = WireTag::Data { rel, part };
                    scatter.push(ctx, meter, dst, tag, |buf| t.write_to(buf))?;
                }
            }
        }
        *self.kept[w].lock() = kept;
        Ok(())
    }

    /// The receiver core's side of the network pass: stage every
    /// `Data` buffer of a partition assigned here after `copy` charges it,
    /// until every remote worker's `Eos`. Data for a partition owned
    /// elsewhere is a typed [`JoinError::Decode`].
    pub fn receive(
        &self,
        ctx: &SimCtx,
        meter: &mut Meter,
        ex: &Exchange,
        copy: impl Fn(&mut Meter, usize),
    ) -> Result<(), JoinError> {
        let assignment = self.assignment.lock().clone();
        ex.recv_stream(
            ctx,
            meter,
            self.kept.len(),
            |meter, tag, payload| match tag {
                WireTag::Data { rel, part } if assignment.get(part) == Some(&self.mach) => {
                    copy(meter, payload.len());
                    self.staged[rel].lock()[part].extend_from_slice(&payload);
                    true
                }
                _ => false,
            },
        )
    }

    /// Partition `part` of relation `rel`, taken out of the landing: the
    /// kept tuples in worker order, then the staged bytes in arrival
    /// order. Pointer-level assembly in the original; the copies here are
    /// simulator artifacts, so nothing is charged.
    pub fn assemble(&self, rel: usize, part: usize) -> Vec<T> {
        let mut out = Vec::new();
        for kept in &self.kept {
            if let Some(tuples) = kept.lock()[rel].get_mut(part) {
                out.append(tuples);
            }
        }
        let staged = std::mem::take(&mut self.staged[rel].lock()[part]);
        decode_into(&staged, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::histogram::{REL_R, REL_S};
    use rsj_cluster::phase;
    use rsj_rdma::{Fabric, FabricConfig, HostId, NicCosts};
    use rsj_sim::Simulation;
    use rsj_workload::Tuple16;

    fn tuples(keys: std::ops::Range<u64>) -> Vec<Tuple16> {
        keys.map(|k| Tuple16::new(k, k)).collect()
    }

    fn encode(ts: &[Tuple16]) -> Vec<u8> {
        let mut bytes = Vec::new();
        ts.iter().for_each(|t| t.write_to(&mut bytes));
        bytes
    }

    fn keys(ts: &[Tuple16]) -> Vec<u64> {
        ts.iter().map(|t| t.key()).collect()
    }

    #[test]
    fn assemble_takes_kept_by_worker_then_staged_and_leaves_nothing() {
        // Machine 0 of 2 owns partitions 0 and 2 of four.
        let landing = Landing::<Tuple16>::new(0, 2, 2);
        landing.assign(vec![0, 1, 0, 1]);
        for (w, ts) in [(0, tuples(0..2)), (1, tuples(10..13))] {
            let mut kept = landing.kept[w].lock();
            kept[REL_R] = vec![Vec::new(); 4];
            kept[REL_R][2] = ts;
        }
        landing.staged[REL_R].lock()[2] = encode(&tuples(100..102));
        assert_eq!(
            keys(&landing.assemble(REL_R, 2)),
            [0, 1, 10, 11, 12, 100, 101],
            "kept by ascending worker, then staged"
        );
        assert!(
            landing.assemble(REL_R, 2).is_empty(),
            "a second assembly of the partition is empty"
        );
    }

    #[test]
    fn receive_declines_data_for_a_partition_owned_elsewhere() {
        let sim = Simulation::new();
        let fabric = Fabric::new(FabricConfig::fdr(), NicCosts::default(), 2);
        fabric.launch(&sim);
        let stray = WireTag::Data {
            rel: REL_S,
            part: 1,
        };
        let out = Arc::new(Mutex::new(None));
        {
            let (fabric, out) = (Arc::clone(&fabric), Arc::clone(&out));
            sim.spawn("receiver", move |ctx| {
                let landing = Landing::<Tuple16>::new(0, 1, 1);
                landing.assign(vec![0, 1]);
                let ex = Exchange::new(&fabric, 0, phase::NETWORK_PARTITION);
                let got = landing.receive(ctx, &mut Meter::new(), &ex, |_, _| {});
                *out.lock() = Some((got, landing.staged[REL_S].lock()[1].len()));
            });
        }
        {
            let fabric = Arc::clone(&fabric);
            sim.spawn("misrouting sender", move |ctx| {
                let payload = encode(&tuples(0..4));
                let sent = fabric
                    .nic(HostId(1))
                    .post_send(ctx, HostId(0), stray.encode(), payload);
                sent.wait(ctx).expect("fault-free send");
                fabric.shutdown(ctx);
            });
        }
        sim.run();
        let (got, staged) = out.lock().take().expect("receiver ran");
        match got {
            Err(JoinError::Decode {
                machine: 0,
                phase: phase::NETWORK_PARTITION,
                source,
                ..
            }) => assert_eq!(source.raw, stray.encode()),
            other => panic!("expected a decode error on machine 0, got {other:?}"),
        }
        assert_eq!(staged, 0, "nothing of the stray buffer is staged");
    }
}
