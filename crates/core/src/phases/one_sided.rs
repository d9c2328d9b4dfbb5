//! The one-sided probe dataplane (DESIGN.md §11).
//!
//! Replaces the local-partition and build-probe phases when the join runs
//! with [`crate::Transport::OneSided`]. Only the build relation R crosses
//! the wire during the network pass; the probe relation S never moves.
//! Instead:
//!
//! 1. **Publish** ([`phase_publish_tables`], behind the
//!    `local_partition` barrier): each owner assembles its R partitions,
//!    encodes one seqlock-versioned bucket table per partition
//!    ([`rsj_joins::remote_table`]), registers it with the NIC, and
//!    publishes the handle into the cluster-wide registry.
//! 2. **Probe** ([`phase_one_sided_probe`], the `one_sided_probe`
//!    barrier): every core probes its slice of the *local* S chunk.
//!    Remote buckets are fetched with doorbell-batched RDMA READs —
//!    directories once per machine, then per-group bucket fetches with
//!    adjacent ranges coalesced up to the inline-fetch MTU. Torn
//!    snapshots (odd or mismatched seqlock versions) are retried; the
//!    retry budget exhausting is a decode error that `?`-propagates and
//!    poisons the run's barriers like any other phase failure.
//!
//! No receiver CPU is consumed anywhere in the probe hot path — the
//! owner's cores are themselves probing while their tables are read.

use std::ops::Range;
use std::sync::Arc;

use rsj_cluster::{phase, range_of, JoinError, Meter, TagError};
use rsj_joins::{
    bucket_entries, claim, encode_remote_table, partition_of, remote_dir_len, remote_nbuckets,
    RemoteDirectory, TornRead,
};
use rsj_rdma::{HostId, Mr, Nic, RemoteMr};
use rsj_sim::SimCtx;
use rsj_workload::{JoinResult, Tuple};

use crate::config::MaterializeMode;
use crate::histogram::{REL_R, REL_S};
use crate::phases::{barrier_wait, ClusterShared};
use crate::DistJoinConfig;

/// READ retries a torn bucket gets before the probe gives up. A healthy
/// publisher clears the odd version in bounded time, so exhausting this
/// means the owner died mid-mutation — surfaced as a decode error.
const TORN_RETRY_CAP: usize = 64;

/// READs chained per doorbell ring: one `post_overhead` covers this many
/// bucket fetches ([`rsj_rdma::Nic::post_read_batch`]).
const READ_DOORBELL: usize = 16;

/// Adjacent bucket ranges are coalesced into a single READ while the
/// merged span stays within this many bytes (the inline-fetch MTU of
/// DESIGN.md §11).
const ONE_SIDED_MTU: usize = 4096;

/// Publish stage: assemble the R tuples of every owned partition (as the
/// two-sided local pass does), encode the versioned bucket table,
/// register and publish it. There is no second-pass b₂ refinement —
/// bucket granularity replaces cache-sized fragments on this dataplane.
/// Its verbs calls (register, fill, publish) are infallible; only the
/// probe stage touches the wire.
pub(crate) fn phase_publish_tables<T: Tuple>(
    ctx: &SimCtx,
    sh: &ClusterShared<T>,
    mach: usize,
    _core: usize,
    meter: &mut Meter,
) -> Result<(), JoinError> {
    let cfg = &sh.cfg;
    let st = &sh.machines[mach];
    let nic = sh.fabric.nic(HostId(mach));
    let owned = st.landing.owned();

    while let Some(i) = claim(&st.next_local_task, owned.len()) {
        let p = owned[i];
        let r_p = st.landing.take(REL_R, p).concat();
        // Encoding scatters every tuple into its bucket — the same work
        // profile as building the partition's hash tables.
        meter.charge_bytes(ctx, r_p.len() * T::SIZE, cfg.cluster.cost.build_rate);
        let bytes = encode_remote_table(&r_p);
        // Registration and publication are externally visible (remote
        // probes hit the region): settle the build cost first.
        meter.flush(ctx);
        let mr = nic.mrs.register(ctx, bytes.len());
        mr.fill(0, &bytes);
        st.registered_bytes
            .set(st.registered_bytes.get() + mr.len() as u64);
        let handle = mr.publish();
        sh.table_registry.borrow_mut().insert(p, handle);
        // The owner probes its own region in place: decode the directory
        // once, here, rather than per probe group.
        // lint: allow-mr-access(the owner reads its own region through its own mapping, as fill writes it)
        let dir = mr.with_data(RemoteDirectory::decode);
        st.dirs.borrow_mut()[p] = Some(Arc::new(dir));
        st.published_tables.borrow_mut()[p] = Some(mr);
    }
    meter.flush(ctx);
    Ok(())
}

/// Probe stage. Two machine-local steps:
///
/// 1. core 0 prefetches the directories of every remote partition this
///    machine's S chunk touches (known from its own histogram — no data
///    scan), in doorbell-batched READ chains;
/// 2. after a local barrier, every core counting-sorts its slice of the
///    local S chunk by partition, then probes each partition's group:
///    owned partitions in place in the owner's own region, remote ones
///    via coalesced, doorbell-batched bucket READs with seqlock torn-read
///    retry ([`ProbeScratch`]).
pub(crate) fn phase_one_sided_probe<T: Tuple>(
    ctx: &SimCtx,
    sh: &ClusterShared<T>,
    chunks: [&[T]; 2],
    mach: usize,
    core: usize,
    meter: &mut Meter,
) -> Result<(), JoinError> {
    let cfg = &sh.cfg;
    let st = &sh.machines[mach];
    let nic = sh.fabric.nic(HostId(mach));
    let cost = &cfg.cluster.cost;
    let b1 = cfg.radix_bits.0;
    let np1 = 1usize << b1;
    let cores = cfg.cluster.cores_per_machine;

    // Cluster-wide R tuple count of partition p — fixes the bucket count,
    // and with it the directory length, without any wire traffic.
    let r_count = |p: usize| -> usize {
        let total = st.landing.total(REL_R, p);
        total.expect("histograms exchanged") as usize
    };

    if core == 0 {
        let needed: Vec<usize> = (0..np1)
            .filter(|&p| st.landing.counted(REL_S, p) > 0 && !st.landing.owns(p))
            .collect();
        for group in needed.chunks(READ_DOORBELL) {
            let reads: Vec<(RemoteMr, usize, usize)> = group
                .iter()
                .map(|&p| {
                    let remote = *sh
                        .table_registry
                        .borrow()
                        .get(&p)
                        .expect("bucket table not published");
                    (remote, 0, remote_dir_len(remote_nbuckets(r_count(p))))
                })
                .collect();
            meter.flush(ctx);
            let handles = nic.post_read_batch(ctx, &reads);
            for (&p, h) in group.iter().zip(handles) {
                let bytes = h
                    .wait(ctx)
                    .map_err(|e| JoinError::fabric(mach, phase::ONE_SIDED_PROBE, e))?;
                meter.charge_bytes(ctx, bytes.len(), cost.memcpy_rate);
                st.dirs.borrow_mut()[p] = Some(Arc::new(RemoteDirectory::decode(&bytes)));
            }
        }
        meter.flush(ctx);
    }
    barrier_wait(&st.local_barrier, ctx, phase::ONE_SIDED_PROBE)?;

    // Every core (no dedicated receiver on this dataplane) partitions its
    // slice of the local S chunk into per-partition probe groups.
    let slice = &chunks[REL_S][range_of(chunks[REL_S].len(), cores, core)];
    meter.charge_bytes(ctx, slice.len() * T::SIZE, cost.partition_rate);
    let mut scratch = ProbeScratch::new(cfg, slice, b1);

    for p in 0..np1 {
        let group = scratch.group(p);
        if group.is_empty() {
            continue;
        }
        let dir = Arc::clone(st.dirs.borrow()[p].as_ref().expect("directory known"));
        let owned = st.published_tables.borrow()[p].clone();
        match owned {
            Some(mr) => scratch.probe_owned(ctx, meter, &mr, &dir, group.clone()),
            None => {
                let remote = *sh
                    .table_registry
                    .borrow()
                    .get(&p)
                    .expect("bucket table not published");
                scratch.probe_remote(ctx, &nic, meter, mach, &dir, remote, group.clone())?;
            }
        }
        // One table per partition: one probe pass over the group (§4.3's
        // k-table multiplier with k = 1).
        meter.charge_bytes(ctx, group.len() * T::SIZE, cost.probe_rate);
    }
    meter.flush(ctx);
    if scratch.local_bytes > 0 {
        st.result_bytes_local
            .set(st.result_bytes_local.get() + scratch.local_bytes);
    }
    st.result.borrow_mut().merge(scratch.result);
    Ok(())
}

/// One core's probe state, built once per probe stage and reused by every
/// probe group, so a group, a fetched bucket and a probed tuple allocate
/// nothing once its buffers have grown.
struct ProbeScratch<'a, T> {
    cfg: &'a DistJoinConfig,
    /// The core's S slice, counting-sorted by partition (stable: slice
    /// order within a partition).
    sorted: Vec<T>,
    /// `bounds[p]..bounds[p + 1]` is partition p's group in `sorted`.
    bounds: Vec<usize>,
    /// The distinct buckets a remote group probes, ascending.
    buckets: Vec<usize>,
    /// Coalesced READs: a region byte span and the index range of the
    /// `buckets` it covers.
    spans: Vec<(Range<usize>, Range<usize>)>,
    /// One doorbell chain's `(region, offset, len)` READs.
    reads: Vec<(RemoteMr, usize, usize)>,
    /// The entry bytes of every fetched bucket, back to back.
    arena: Vec<u8>,
    /// `extents[i]` is the `arena` range of `buckets[i]`'s entries.
    extents: Vec<Range<usize>>,
    result: JoinResult,
    /// Result pair bytes written to the local output buffer.
    local_bytes: u64,
}

impl<'a, T: Tuple> ProbeScratch<'a, T> {
    /// The scratch of a core whose S slice is `slice`, counting-sorted
    /// into per-partition groups on `b1` radix bits.
    fn new(cfg: &'a DistJoinConfig, slice: &[T], b1: u32) -> ProbeScratch<'a, T> {
        let np1 = 1usize << b1;
        // Count into `bounds[p + 1]` and prefix-sum, so `bounds[p]` is
        // partition p's first slot; then scatter through a copy of those
        // cursors.
        let mut bounds = vec![0usize; np1 + 1];
        for t in slice {
            bounds[partition_of(t.key(), 0, b1) + 1] += 1;
        }
        for p in 0..np1 {
            bounds[p + 1] += bounds[p];
        }
        let mut cursors = bounds[..np1].to_vec();
        let mut sorted = slice.to_vec();
        for t in slice {
            let cursor = &mut cursors[partition_of(t.key(), 0, b1)];
            sorted[*cursor] = *t;
            *cursor += 1;
        }
        ProbeScratch {
            cfg,
            sorted,
            bounds,
            buckets: Vec::new(),
            spans: Vec::new(),
            reads: Vec::new(),
            arena: Vec::new(),
            extents: Vec::new(),
            result: JoinResult::default(),
            local_bytes: 0,
        }
    }

    /// Partition p's probe group, as a range of `sorted`.
    fn group(&self, p: usize) -> Range<usize> {
        self.bounds[p]..self.bounds[p + 1]
    }

    /// Probe an owned partition's group in place in the owner's own
    /// published region — no loopback READ, no copy.
    fn probe_owned(
        &mut self,
        ctx: &SimCtx,
        meter: &mut Meter,
        mr: &Mr,
        dir: &RemoteDirectory,
        group: Range<usize>,
    ) {
        // lint: allow-mr-access(the owner probes its own region through its own mapping; no HCA involved)
        mr.with_data(|region| {
            for t in &self.sorted[group] {
                let bucket = &region[dir.bucket_range(dir.bucket_of(t.key()))];
                let entries =
                    bucket_entries::<T>(bucket).expect("owner's stable table cannot read torn");
                probe_entries(
                    ctx,
                    meter,
                    self.cfg,
                    entries,
                    t,
                    &mut self.result,
                    &mut self.local_bytes,
                );
            }
        });
    }

    /// Probe a remote partition's group: fetch each distinct bucket once,
    /// adjacent extents coalesced up to [`ONE_SIDED_MTU`] per READ and
    /// [`READ_DOORBELL`] READs per doorbell chain, into the arena; then
    /// probe every tuple against its bucket's entries there.
    #[expect(
        clippy::too_many_arguments,
        reason = "the worker's NIC, meter and partition handles are borrows separate from the scratch"
    )]
    fn probe_remote(
        &mut self,
        ctx: &SimCtx,
        nic: &Nic,
        meter: &mut Meter,
        mach: usize,
        dir: &RemoteDirectory,
        remote: RemoteMr,
        group: Range<usize>,
    ) -> Result<(), JoinError> {
        let memcpy_rate = self.cfg.cluster.cost.memcpy_rate;
        let group = &self.sorted[group];
        self.buckets.clear();
        self.buckets
            .extend(group.iter().map(|t| dir.bucket_of(t.key())));
        self.buckets.sort_unstable();
        self.buckets.dedup();
        // Coalesce adjacent bucket extents while the merged span fits one
        // inline fetch.
        self.spans.clear();
        for (i, &b) in self.buckets.iter().enumerate() {
            let r = dir.bucket_range(b);
            match self.spans.last_mut() {
                Some((span, ids)) if span.end == r.start && r.end - span.start <= ONE_SIDED_MTU => {
                    span.end = r.end;
                    ids.end = i + 1;
                }
                _ => self.spans.push((r, i..i + 1)),
            }
        }
        self.arena.clear();
        self.extents.clear();
        for chunk in self.spans.chunks(READ_DOORBELL) {
            self.reads.clear();
            self.reads
                .extend(chunk.iter().map(|(r, _)| (remote, r.start, r.len())));
            meter.flush(ctx);
            let handles = nic.post_read_batch(ctx, &self.reads);
            for ((span, ids), h) in chunk.iter().zip(handles) {
                let bytes = h
                    .wait(ctx)
                    .map_err(|e| JoinError::fabric(mach, phase::ONE_SIDED_PROBE, e))?;
                meter.charge_bytes(ctx, bytes.len(), memcpy_rate);
                for &b in &self.buckets[ids.clone()] {
                    let r = dir.bucket_range(b);
                    let start = self.arena.len();
                    match bucket_entries::<T>(&bytes[r.start - span.start..r.end - span.start]) {
                        Ok(entries) => self.arena.extend_from_slice(entries),
                        Err(TornRead) => fetch_bucket_retry::<T>(
                            ctx,
                            nic,
                            meter,
                            memcpy_rate,
                            mach,
                            remote,
                            r,
                            &mut self.arena,
                        )?,
                    }
                    self.extents.push(start..self.arena.len());
                }
            }
        }
        for t in group {
            let i = self
                .buckets
                .binary_search(&dir.bucket_of(t.key()))
                .expect("every probed bucket was fetched");
            probe_entries(
                ctx,
                meter,
                self.cfg,
                &self.arena[self.extents[i].clone()],
                t,
                &mut self.result,
                &mut self.local_bytes,
            );
        }
        Ok(())
    }
}

/// Probe one tuple against a bucket's entry bytes in place, counting
/// matches and — in [`MaterializeMode::Local`] runs — charging and
/// counting the 16-byte `<r.rid, s.rid>` pair written to the local
/// output buffer.
#[inline]
fn probe_entries<T: Tuple>(
    ctx: &SimCtx,
    meter: &mut Meter,
    cfg: &DistJoinConfig,
    entries: &[u8],
    t: &T,
    local: &mut JoinResult,
    local_bytes: &mut u64,
) {
    for e in entries.chunks_exact(T::SIZE) {
        if T::read_from(e).key() == t.key() {
            local.add_match(t.key());
            if cfg.materialize == MaterializeMode::Local {
                meter.charge_bytes(ctx, 16, cfg.cluster.cost.memcpy_rate);
                *local_bytes += 16;
            }
        }
    }
}

/// Re-READ a bucket whose snapshot decoded as torn, up to
/// [`TORN_RETRY_CAP`] times, and append the stable snapshot's entry
/// bytes to `into`. Exhausting the budget surfaces as a
/// [`JoinError::Decode`] — the `?` in the probe loop then poisons the
/// run's barriers exactly like a fabric failure, so no peer machine is
/// left parked on the `one_sided_probe` barrier.
#[expect(
    clippy::too_many_arguments,
    reason = "a READ's NIC, target and output, plus its caller's meter and error context"
)]
fn fetch_bucket_retry<T: Tuple>(
    ctx: &SimCtx,
    nic: &Nic,
    meter: &mut Meter,
    memcpy_rate: f64,
    mach: usize,
    remote: RemoteMr,
    range: Range<usize>,
    into: &mut Vec<u8>,
) -> Result<(), JoinError> {
    for _ in 0..TORN_RETRY_CAP {
        meter.flush(ctx);
        let bytes = nic
            .post_read(ctx, remote, range.start, range.len())
            .wait(ctx)
            .map_err(|e| JoinError::fabric(mach, phase::ONE_SIDED_PROBE, e))?;
        meter.charge_bytes(ctx, bytes.len(), memcpy_rate);
        match bucket_entries::<T>(&bytes) {
            Ok(entries) => {
                into.extend_from_slice(entries);
                return Ok(());
            }
            Err(TornRead) => continue,
        }
    }
    Err(JoinError::decode(
        mach,
        phase::ONE_SIDED_PROBE,
        TagError::payload("torn bucket snapshot: READ retries exhausted"),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsj_joins::begin_bucket_mutation;
    use rsj_rdma::{Fabric, FabricConfig, NicCosts};
    use rsj_sim::{SimDuration, Simulation};
    use rsj_workload::{decode_all, Tuple16};
    use std::cell::RefCell;

    /// 64 R tuples whose keys cover several buckets; the probe target is
    /// key 5, whose bucket we tear and (optionally) heal.
    fn table() -> (Vec<u8>, RemoteDirectory) {
        let tuples: Vec<Tuple16> = (0..64u64).map(|k| Tuple16::new(k, k * 10)).collect();
        let bytes = encode_remote_table(&tuples);
        let dir = RemoteDirectory::decode(&bytes);
        (bytes, dir)
    }

    /// Publish `bytes` on host 1 and run `fetch_bucket_retry` for key 5's
    /// bucket from host 0, returning the probe outcome and the virtual
    /// time it took. `heal_after`: re-fill the region with the stable
    /// encoding after that delay, clearing the torn bucket mid-retry.
    fn run_retry(
        bytes: Vec<u8>,
        stable: Vec<u8>,
        range: Range<usize>,
        heal_after: Option<SimDuration>,
    ) -> (Result<Vec<Tuple16>, JoinError>, SimDuration) {
        let sim = Simulation::new();
        let fabric = Fabric::new(FabricConfig::qdr(), NicCosts::default(), 2);
        fabric.launch(&sim);
        let out = Arc::new(RefCell::new(None));
        {
            let fabric = Arc::clone(&fabric);
            let out = Arc::clone(&out);
            sim.spawn("prober", move |ctx| {
                let mr = fabric.nic(HostId(1)).mrs.register(ctx, bytes.len());
                mr.fill(0, &bytes);
                let remote = mr.publish();
                if let Some(delay) = heal_after {
                    let at = ctx.now() + delay;
                    ctx.spawn("healer", move |ctx| {
                        ctx.sleep_until(at);
                        // The publisher finishing its mutation: the region
                        // is rewritten with an even-version snapshot.
                        mr.fill(0, &stable);
                    });
                }
                let nic = fabric.nic(HostId(0));
                let mut meter = Meter::new();
                let start = ctx.now();
                let mut entries = Vec::new();
                let got = fetch_bucket_retry::<Tuple16>(
                    ctx,
                    &nic,
                    &mut meter,
                    1e9,
                    0,
                    remote,
                    range,
                    &mut entries,
                )
                .map(|()| decode_all(&entries));
                *out.borrow_mut() = Some((got, ctx.now() - start));
                fabric.shutdown(ctx);
            });
        }
        sim.run();
        let (got, took) = out.borrow_mut().take().expect("prober ran");
        (got, took)
    }

    #[test]
    fn torn_bucket_retries_exhaust_at_the_cap_with_a_typed_decode_error() {
        let (stable, dir) = table();
        let bucket = dir.bucket_of(5);
        let range = dir.bucket_range(bucket);
        let mut torn = stable.clone();
        // A publisher that died mid-mutation: the version stays odd
        // forever, so every one of the TORN_RETRY_CAP re-READs decodes
        // torn.
        begin_bucket_mutation(&mut torn, range.clone());
        let (got, took) = run_retry(torn, stable.clone(), range.clone(), None);
        let err = got.expect_err("permanently torn bucket must exhaust the retry budget");
        assert!(
            format!("{err}").contains("retries exhausted"),
            "unexpected error: {err}"
        );

        // The budget really was spent: a clean fetch measures one READ's
        // virtual time; exhaustion must cost at least (CAP - 1) more of
        // them (each retry re-crosses the wire; no fast-path bailout).
        let (ok, clean) = run_retry(stable.clone(), stable, range, None);
        assert!(ok.is_ok());
        assert!(clean > SimDuration::from_nanos(0));
        assert!(
            took >= SimDuration::from_nanos(clean.as_nanos() * (TORN_RETRY_CAP as u64 - 1)),
            "exhaustion took {took:?}, one READ takes {clean:?}: fewer than \
             {TORN_RETRY_CAP} wire round-trips happened"
        );
    }

    #[test]
    fn torn_bucket_heals_mid_retry_and_returns_the_stable_entries() {
        let (stable, dir) = table();
        let bucket = dir.bucket_of(5);
        let range = dir.bucket_range(bucket);
        let mut torn = stable.clone();
        begin_bucket_mutation(&mut torn, range.clone());
        let (got, took) = run_retry(torn, stable, range, Some(SimDuration::from_micros(5)));
        let entries = got.expect("retry loop must succeed once the publisher settles");
        assert!(!entries.is_empty());
        assert!(entries.iter().all(|t| t.key() == 5));
        // Healing at 5 µs means the loop spun well under the cap.
        assert!(took >= SimDuration::from_micros(5));
    }
}
