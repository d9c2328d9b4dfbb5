//! The shuffle: how partition traffic lands (DESIGN.md §14).
//!
//! The radix join, the sort-merge join and the aggregation move tuples
//! the same way. In the histogram phase every partitioning worker counts
//! the slice of the input it will route ([`Landing::count`]). An operator
//! that exchanges histograms (§4.1) then has core 0 sum those thread
//! histograms into the machine histogram, trade it with every peer,
//! install the partition assignment and keep the totals the other
//! machines will send ([`Landing::exchange`]). In the network pass
//! ([`Landing::shuffle`]) core 0 receives and every other core routes its
//! slice by the low radix bits: it keeps the tuples of partitions
//! assigned to its own machine and pushes the rest into a [`Scatter`].
//! After the pass each partition is taken out as what the workers kept
//! plus what was received ([`Landing::take`]), or joined into one `Vec`
//! ([`Landing::assemble`]), and checked against the histograms where they
//! were exchanged. A [`Landing`] is one machine's side of all of it.
//! Partition traffic lands with the channel semantics of §4.2.2: the
//! owner's receiver core copies every buffer into per-partition staging
//! memory (DESIGN.md §4 item 3). Callers keep their barriers, their post
//! step (how one full buffer reaches the wire), the receiver's copy
//! charge and their local work.
//!
//! A worker's kept vectors are sized exactly from its own thread
//! histogram, so they never grow by doubling. A partition's staging is
//! reserved once, at its first arrival, from the totals the other
//! machines announced; the aggregation exchanges no histogram, so its
//! staging grows as the buffers arrive.

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
    /// Tuples per `[rel][part]` the other machines will send here, once
    /// [`Landing::exchange`] has announced them.
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

    /// Worker `w`'s histogram scan: count its thread histogram over its
    /// slices of `inputs`, each `(rel, chunk)`, for sizing its route and
    /// for the machine histogram; charge the scan at `rate` and settle.
    pub fn count(
        &self,
        ctx: &SimCtx,
        meter: &mut Meter,
        w: usize,
        rate: f64,
        inputs: &[(usize, &[T])],
    ) {
        let mut hist = Histogram::zeros(1 << self.bits);
        for &(rel, chunk) in inputs {
            let slice = self.slice(w, chunk);
            for t in slice {
                hist.counts[rel][partition_of(t.key(), 0, self.bits)] += 1;
            }
            meter.charge_bytes(ctx, slice.len() * T::SIZE, rate);
        }
        *self.counts[w].borrow_mut() = Some(hist);
        meter.flush(ctx);
    }

    /// Tuples of `[rel][part]` this machine's workers counted.
    pub(crate) fn counted(&self, rel: usize, part: usize) -> u64 {
        let hists = self.counts.iter().map(|c| c.borrow());
        hists
            .filter_map(|h| h.as_ref().map(|h| h.counts[rel][part]))
            .sum()
    }

    /// Tuples of `[rel][part]` cluster-wide, which is what the
    /// partition's owner must land; `None` until [`Landing::exchange`]
    /// has announced the other machines' counts.
    pub(crate) fn total(&self, rel: usize, part: usize) -> Option<u64> {
        let remote = self.remote.borrow();
        let remote = remote.as_ref()?.counts[rel][part];
        Some(remote + self.counted(rel, part))
    }

    /// Install the partition → machine assignment every machine derives
    /// alike; routing and receiving follow it.
    pub fn assign(&self, assignment: Vec<usize>) {
        assert_eq!(assignment.len(), 1 << self.bits, "one owner per partition");
        *self.assignment.borrow_mut() = assignment.into();
    }

    /// The histogram exchange of §4.1, run by one core per machine once
    /// every worker has counted: send the machine histogram (the thread
    /// histograms, summed) to every peer and receive theirs, [assign] the
    /// partitions by `rule` over the global histogram, and keep the
    /// others' totals, which size each staging buffer once, exactly, and
    /// check what lands. Returns the global histogram.
    ///
    /// [assign]: Landing::assign
    pub fn exchange(
        &self,
        ctx: &SimCtx,
        ex: &Exchange,
        rule: impl FnOnce(&Histogram) -> Vec<usize>,
    ) -> Result<Histogram, JoinError> {
        // This machine's histogram until the others' are added.
        let mut global = Histogram::zeros(1 << self.bits);
        for hist in &self.counts {
            global.add(hist.borrow().as_ref().expect("every worker counted"));
        }
        let mut remote = Histogram::zeros(1 << self.bits);
        ex.all_to_all(
            ctx,
            WireTag::Histogram,
            ex.peers(),
            &global.encode(),
            |_, payload| remote.add(&Histogram::decode(&payload)),
        )?;
        global.add(&remote);
        self.assign(rule(&global));
        *self.remote.borrow_mut() = Some(remote);
        Ok(global)
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

    /// Core `core`'s side of the network pass. Core 0 receives: it stages
    /// every buffer of a partition assigned here after `copy` charges it,
    /// returning each to its sender's pool in `pools`. Every other core is
    /// partitioning worker `core - 1`: for each `(rel, chunk)` in
    /// `inputs` it charges its share of `chunk` at `rate`, keeps the
    /// tuples of partitions assigned here and pushes the rest into a
    /// [`Scatter`] over this machine's pool, whose full buffers go to
    /// `post`, then ends the stream. Returns the seconds the worker's send
    /// windows stalled on the network (zero on the receiver).
    #[allow(clippy::too_many_arguments)]
    pub fn shuffle<P>(
        &self,
        ctx: &SimCtx,
        meter: &mut Meter,
        ex: &Exchange,
        pools: &[Arc<BufferPool>],
        core: usize,
        rate: f64,
        inputs: &[(usize, &[T])],
        copy: impl Fn(&mut Meter, usize),
        post: P,
    ) -> Result<f64, JoinError>
    where
        P: FnMut(&Exchange, &SimCtx, &mut Meter, &mut Lane, Vec<u8>) -> Posted,
    {
        let Some(w) = core.checked_sub(1) else {
            self.receive(ctx, meter, ex, pools, copy)?;
            return Ok(0.0);
        };
        let mut scatter = Scatter::new(ex, &pools[self.mach], 1 << self.bits, post)?;
        self.route(ctx, meter, &mut scatter, w, rate, inputs)?;
        scatter.finish(ctx, meter, true)
    }

    /// Worker `w`'s side of the network pass: for each `(rel, chunk)` in
    /// `inputs`, charge its share of `chunk` at `rate`, keep the tuples of
    /// partitions assigned here and push the rest into `scatter`.
    fn route<P>(
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
        let mut kept: [Vec<Vec<T>>; 2] = Default::default();
        for &(rel, chunk) in inputs {
            {
                let counts = self.counts[w].borrow();
                let keeps = |p: usize| match &*counts {
                    Some(hist) if assignment[p] == self.mach => hist.counts[rel][p] as usize,
                    _ => 0,
                };
                let parts = 0..assignment.len();
                // lint: allow-hot-alloc(once per pass and partition, sized exactly from the thread histogram)
                kept[rel] = parts.map(|p| Vec::with_capacity(keeps(p))).collect();
            }
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
    fn receive(
        &self,
        ctx: &SimCtx,
        meter: &mut Meter,
        ex: &Exchange,
        pools: &[Arc<BufferPool>],
        copy: impl Fn(&mut Meter, usize),
    ) -> Result<(), JoinError> {
        let assignment = Rc::clone(&self.assignment.borrow());
        ex.recv_stream(
            ctx,
            meter,
            self.kept.len(),
            pools,
            |meter, tag, payload| match tag {
                WireTag::Data { rel, part } if assignment.get(part) == Some(&self.mach) => {
                    copy(meter, payload.len());
                    let staged = &mut self.staged[rel].borrow_mut()[part];
                    if let (0, Some(remote)) = (staged.capacity(), &*self.remote.borrow()) {
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
    ///
    /// # Panics
    /// Panics if histograms were exchanged and the partition holds fewer
    /// or more tuples than they announced.
    pub fn take(&self, rel: usize, part: usize) -> Vec<Vec<T>> {
        let mut pieces = self.take_kept(rel, part);
        let staged = self.take_staged(rel, part);
        if !staged.is_empty() {
            let mut received = Vec::with_capacity(staged.len() / T::SIZE);
            decode_into(&staged, &mut received);
            pieces.push(received);
        }
        self.check(rel, part, pieces.iter().map(Vec::len).sum());
        pieces
    }

    /// Partition `part` of relation `rel`, taken out of the landing as one
    /// contiguous `Vec`, for callers that sort it or hand it on whole: the
    /// pieces of [`Landing::take`], joined. A partition of exactly one kept
    /// piece and nothing staged is moved out as it is; otherwise each kept
    /// piece is freed as soon as it is copied. The copies are simulator
    /// artifacts, so nothing is charged.
    ///
    /// # Panics
    /// As [`Landing::take`].
    pub fn assemble(&self, rel: usize, part: usize) -> Vec<T> {
        let mut kept = self.take_kept(rel, part);
        let staged = self.take_staged(rel, part);
        let len = kept.iter().map(Vec::len).sum::<usize>() + staged.len() / T::SIZE;
        self.check(rel, part, len);
        if kept.len() == 1 && staged.is_empty() {
            return kept.remove(0);
        }
        let mut out = Vec::with_capacity(len);
        for piece in kept {
            out.extend_from_slice(&piece);
        }
        decode_into(&staged, &mut out);
        out
    }

    /// Where histograms were exchanged, `landed` must be exactly the
    /// tuples of `[rel][part]` they announced.
    fn check(&self, rel: usize, part: usize, landed: usize) {
        if let Some(expect) = self.total(rel, part) {
            assert_eq!(
                landed as u64, expect,
                "partition {part} of relation {rel} lost tuples in transit"
            );
        }
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

    /// [`landed`] with one worker that counted and kept three R tuples of
    /// partition 2, announced two more from machine 1, and received
    /// `staged` of them.
    fn announced(staged: &[Tuple16]) -> Landing<Tuple16> {
        let mine = vec![Tuple16::new(2, 0), Tuple16::new(6, 1), Tuple16::new(10, 2)];
        let landing = landed(vec![mine], staged);
        let (mut counted, mut remote) = (Histogram::zeros(4), Histogram::zeros(4));
        counted.counts[REL_R][2] = 3;
        remote.counts[REL_R][2] = 2;
        *landing.counts[0].borrow_mut() = Some(counted);
        *landing.remote.borrow_mut() = Some(remote);
        landing
    }

    #[test]
    fn a_partition_that_landed_whole_passes_the_check() {
        let both = [Tuple16::new(14, 3), Tuple16::new(18, 4)];
        let pieces = announced(&both).take(REL_R, 2);
        assert_eq!(pieces.iter().map(Vec::len).sum::<usize>(), 5);
        assert_eq!(announced(&both).assemble(REL_R, 2).len(), 5);
    }

    #[test]
    #[should_panic(expected = "partition 2 of relation 0 lost tuples in transit")]
    fn take_panics_on_a_partition_that_landed_short() {
        announced(&[Tuple16::new(14, 3)]).take(REL_R, 2);
    }

    #[test]
    #[should_panic(expected = "partition 2 of relation 0 lost tuples in transit")]
    fn assemble_panics_on_a_partition_that_landed_short() {
        announced(&[Tuple16::new(14, 3)]).assemble(REL_R, 2);
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
