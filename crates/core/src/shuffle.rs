//! The shuffle: how partition traffic lands (DESIGN.md §14).
//!
//! The radix join, the sort-merge join and the aggregation move tuples
//! the same way in their network partitioning pass. Every partitioning
//! worker routes its share of the input by the low radix bits, keeps the
//! tuples of partitions assigned to its own machine and pushes the rest
//! into a [`Scatter`]; the owner takes in what arrives; after the pass it
//! takes each partition out as what its workers kept plus what was
//! received ([`Landing::take`]), or joined into one `Vec`
//! ([`Landing::assemble`]). A [`Landing`] is one machine's side of all
//! three steps.
//! Partition traffic lands with the channel semantics of §4.2.2: the
//! owner's receiver core copies every buffer into per-partition staging
//! memory (DESIGN.md §4 item 3). Callers keep their post step (how one
//! full buffer reaches the wire) and their own checks.
//!
//! Nothing in a landing grows by doubling: the histogram phase already
//! counted every partition, so each worker's kept vectors are sized from
//! its own thread histogram ([`Landing::count`]) and the staging of a
//! partition from what the other machines announced ([`Landing::expect`]).

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use rsj_cluster::{range_of, Exchange, JoinError, Lane, Meter, Posted, Scatter, WireTag};
use rsj_joins::partition_of;
use rsj_rdma::BufferPool;
use rsj_sim::SimCtx;
use rsj_workload::{decode_into, Tuple};

use crate::histogram::Histogram;

/// One machine's landing of a shuffle on the low `bits` radix bits.
pub struct Landing<T> {
    mach: usize,
    bits: u32,
    /// Partition → owning machine, installed once per run by
    /// [`Landing::assign`] and shared by every route and receive step.
    assignment: RefCell<Rc<[usize]>>,
    /// Per partitioning worker, its thread histogram: the tuples of each
    /// `[rel][part]` in the input slice it routes.
    counts: Vec<RefCell<Option<Histogram>>>,
    /// Per partitioning worker, the tuples it kept: `[rel][part]`.
    kept: Vec<RefCell<[Vec<Vec<T>>; 2]>>,
    /// Tuples per `[rel][part]` the other machines will send here.
    remote: RefCell<Option<Histogram>>,
    /// Received bytes per `[rel][part]`.
    staged: [RefCell<Vec<Vec<u8>>>; 2],
}

impl<T: Tuple> Landing<T> {
    /// Machine `mach`'s landing for `workers` partitioning workers per
    /// machine.
    pub fn new(mach: usize, bits: u32, workers: usize) -> Landing<T> {
        let staged = || RefCell::new(vec![Vec::new(); 1 << bits]);
        Landing {
            mach,
            bits,
            assignment: RefCell::new(Rc::new([])),
            counts: (0..workers).map(|_| RefCell::new(None)).collect(),
            kept: (0..workers)
                .map(|_| RefCell::new([Vec::new(), Vec::new()]))
                .collect(),
            remote: RefCell::new(None),
            staged: [staged(), staged()],
        }
    }

    /// Worker `w`'s slice of `chunk`: the same split in the histogram
    /// phase and the network pass, so a thread histogram is exact.
    fn slice<'a>(&self, w: usize, chunk: &'a [T]) -> &'a [T] {
        &chunk[range_of(chunk.len(), self.kept.len(), w)]
    }

    /// Worker `w`'s thread histogram over its slices of `inputs`, each
    /// `(rel, chunk)`: kept for sizing its [`Landing::route`], returned for
    /// the machine histogram. Counting is host work; callers charge the
    /// scan ([`Landing::slice_len`]).
    pub fn count(&self, w: usize, inputs: &[(usize, &[T])]) -> Histogram {
        let mut hist = Histogram::zeros(1 << self.bits);
        for &(rel, chunk) in inputs {
            for t in self.slice(w, chunk) {
                hist.counts[rel][partition_of(t.key(), 0, self.bits)] += 1;
            }
        }
        *self.counts[w].borrow_mut() = Some(hist.clone());
        hist
    }

    /// How many tuples of `chunk` worker `w` scans.
    pub fn slice_len(&self, w: usize, chunk: &[T]) -> usize {
        self.slice(w, chunk).len()
    }

    /// Install the partition → machine assignment every machine derived
    /// after the histogram phase; routing and receiving follow it.
    pub fn assign(&self, assignment: Vec<usize>) {
        assert_eq!(assignment.len(), 1 << self.bits, "one owner per partition");
        *self.assignment.borrow_mut() = assignment.into();
    }

    /// Announce how many tuples of each `[rel][part]` the other machines
    /// will send here (their machine histograms, summed), so each staging
    /// buffer is reserved once, exactly, at its first arrival.
    pub fn expect(&self, remote: Histogram) {
        *self.remote.borrow_mut() = Some(remote);
    }

    /// Whether partition `part` is assigned to this machine.
    pub(crate) fn owns(&self, part: usize) -> bool {
        self.assignment.borrow()[part] == self.mach
    }

    /// The partitions assigned to this machine, ascending.
    pub fn owned(&self) -> Vec<usize> {
        let assignment = self.assignment.borrow();
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
        let assignment = Rc::clone(&self.assignment.borrow());
        let counts = self.counts[w].take();
        let mut kept: [Vec<Vec<T>>; 2] = Default::default();
        for &(rel, chunk) in inputs {
            let keeps = |p: usize| match &counts {
                Some(hist) if assignment[p] == self.mach => hist.counts[rel][p] as usize,
                _ => 0,
            };
            let parts = 0..assignment.len();
            // lint: allow-hot-alloc(once per pass and partition, sized exactly from the thread histogram)
            kept[rel] = parts.map(|p| Vec::with_capacity(keeps(p))).collect();
            for t in self.slice(w, chunk) {
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
        *self.kept[w].borrow_mut() = kept;
        Ok(())
    }

    /// The receiver core's side of the network pass: stage every
    /// `Data` buffer of a partition assigned here after `copy` charges it,
    /// until every remote worker's `Eos`, returning each buffer to its
    /// sender's pool in `pools`. Data for a partition owned elsewhere is a
    /// typed [`JoinError::Decode`].
    pub fn receive(
        &self,
        ctx: &SimCtx,
        meter: &mut Meter,
        ex: &Exchange,
        pools: &[Arc<BufferPool>],
        copy: impl Fn(&mut Meter, usize),
    ) -> Result<(), JoinError> {
        let assignment = Rc::clone(&self.assignment.borrow());
        let remote = self.remote.take();
        ex.recv_stream(
            ctx,
            meter,
            self.kept.len(),
            pools,
            |meter, tag, payload| match tag {
                WireTag::Data { rel, part } if assignment.get(part) == Some(&self.mach) => {
                    copy(meter, payload.len());
                    let staged = &mut self.staged[rel].borrow_mut()[part];
                    if let (0, Some(remote)) = (staged.capacity(), &remote) {
                        staged.reserve_exact(remote.counts[rel][part] as usize * T::SIZE);
                    }
                    staged.extend_from_slice(payload);
                    true
                }
                _ => false,
            },
        )
    }

    /// Partition `part` of relation `rel`, taken out of the landing as its
    /// pieces: each worker's kept tuples, moved out in worker order, then
    /// the staged bytes decoded in arrival order. Nothing of the partition
    /// stays allocated in the landing, and its kept tuples are not copied;
    /// a caller that reads the pieces in place
    /// ([`rsj_joins::Partitioner::partition_pieces`]) frees them when it
    /// drops them. Pointer-level in the original, so nothing is charged.
    pub fn take(&self, rel: usize, part: usize) -> Vec<Vec<T>> {
        let mut pieces = self.take_kept(rel, part);
        let staged = self.take_staged(rel, part);
        if !staged.is_empty() {
            let mut received = Vec::with_capacity(staged.len() / T::SIZE);
            decode_into(&staged, &mut received);
            pieces.push(received);
        }
        pieces
    }

    /// Partition `part` of relation `rel`, taken out of the landing as one
    /// contiguous `Vec`, for callers that sort it or hand it on whole: the
    /// pieces of [`Landing::take`], joined. A partition of exactly one kept
    /// piece and nothing staged is moved out as it is; otherwise each kept
    /// piece is freed as soon as it is copied. The copies are simulator
    /// artifacts, so nothing is charged.
    pub fn assemble(&self, rel: usize, part: usize) -> Vec<T> {
        let mut kept = self.take_kept(rel, part);
        let staged = self.take_staged(rel, part);
        if kept.len() == 1 && staged.is_empty() {
            return kept.remove(0);
        }
        let len = kept.iter().map(Vec::len).sum::<usize>() + staged.len() / T::SIZE;
        let mut out = Vec::with_capacity(len);
        for piece in kept {
            out.extend_from_slice(&piece);
        }
        decode_into(&staged, &mut out);
        out
    }

    /// The non-empty kept vectors of `[rel][part]`, moved out in worker
    /// order; each worker keeps none of their capacity.
    fn take_kept(&self, rel: usize, part: usize) -> Vec<Vec<T>> {
        self.kept
            .iter()
            .filter_map(|kept| kept.borrow_mut()[rel].get_mut(part).map(std::mem::take))
            .filter(|piece| !piece.is_empty())
            .collect()
    }

    /// The staged bytes of `[rel][part]`, moved out.
    fn take_staged(&self, rel: usize, part: usize) -> Vec<u8> {
        std::mem::take(&mut self.staged[rel].borrow_mut()[part])
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

    /// Machine 0 of 2, owning partitions 0 and 2 of four, with
    /// `kept[w]` as worker `w`'s kept tuples of partition 2 and `staged`
    /// as the bytes received for it.
    fn landed(kept: Vec<Vec<Tuple16>>, staged: &[Tuple16]) -> Landing<Tuple16> {
        let landing = Landing::<Tuple16>::new(0, 2, kept.len());
        landing.assign(vec![0, 1, 0, 1]);
        for (w, ts) in kept.into_iter().enumerate() {
            let mut kept = landing.kept[w].borrow_mut();
            kept[REL_R] = vec![Vec::new(); 4];
            kept[REL_R][2] = ts;
        }
        landing.staged[REL_R].borrow_mut()[2] = encode(staged);
        landing
    }

    /// What partition 2 still holds allocated in `landing`: every
    /// worker's kept capacity and the staged capacity.
    fn held(landing: &Landing<Tuple16>) -> (Vec<usize>, usize) {
        let kept = landing.kept.iter();
        let kept = kept.map(|k| k.borrow()[REL_R][2].capacity()).collect();
        (kept, landing.staged[REL_R].borrow()[2].capacity())
    }

    #[test]
    fn assemble_takes_kept_by_worker_then_staged_and_leaves_nothing() {
        let landing = landed(vec![tuples(0..2), tuples(10..13)], &tuples(100..102));
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
    fn assembling_a_partition_frees_its_kept_and_staged_capacity() {
        let landing = landed(
            vec![tuples(0..2), Vec::new(), tuples(10..13)],
            &tuples(100..102),
        );
        assert_eq!(landing.assemble(REL_R, 2).len(), 7);
        assert_eq!(held(&landing), (vec![0, 0, 0], 0), "copied, then freed");

        let one = tuples(10..13);
        let at = one.as_ptr();
        let landing = landed(vec![Vec::new(), one], &[]);
        let whole = landing.assemble(REL_R, 2);
        assert_eq!(keys(&whole), [10, 11, 12]);
        assert_eq!(whole.as_ptr(), at, "a lone kept piece is moved, not copied");
        assert_eq!(held(&landing), (vec![0, 0], 0));
    }

    #[test]
    fn take_moves_kept_pieces_by_worker_then_decodes_staged() {
        let kept = vec![tuples(0..2), Vec::new(), tuples(10..13)];
        let at: Vec<_> = kept.iter().map(|k| k.as_ptr()).collect();
        let landing = landed(kept, &tuples(100..102));
        let pieces = landing.take(REL_R, 2);
        let got: Vec<Vec<u64>> = pieces.iter().map(|p| keys(p)).collect();
        assert_eq!(got, [vec![0, 1], vec![10, 11, 12], vec![100, 101]]);
        assert_eq!(pieces[0].as_ptr(), at[0], "kept pieces are moved out");
        assert_eq!(pieces[1].as_ptr(), at[2]);
        assert_eq!(held(&landing), (vec![0, 0, 0], 0));
        assert!(landing.take(REL_R, 2).is_empty(), "nothing is left to take");
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
        let out = Arc::new(RefCell::new(None));
        {
            let (fabric, out) = (Arc::clone(&fabric), Arc::clone(&out));
            sim.spawn("receiver", move |ctx| {
                let landing = Landing::<Tuple16>::new(0, 1, 1);
                landing.assign(vec![0, 1]);
                let ex = Exchange::new(&fabric, 0, phase::NETWORK_PARTITION);
                let got = landing.receive(ctx, &mut Meter::new(), &ex, &[], |_, _| {});
                *out.borrow_mut() = Some((got, landing.staged[REL_S].borrow_mut()[1].len()));
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
        let (got, staged) = out.borrow_mut().take().expect("receiver ran");
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
