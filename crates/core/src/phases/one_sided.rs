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

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use rsj_cluster::{phase, ranges, JoinError, Meter, TagError};
use rsj_joins::{
    decode_bucket, encode_remote_table, partition_of, remote_dir_len, remote_nbuckets,
    RemoteDirectory, TornRead,
};
use rsj_rdma::{HostId, Nic, RemoteMr};
use rsj_sim::SimCtx;
use rsj_workload::{JoinResult, Tuple};

use crate::config::MaterializeMode;
use crate::histogram::{REL_R, REL_S};
use crate::phases::{assemble_checked, barrier_wait, ClusterShared};

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
    let info = Arc::clone(
        st.info
            .borrow()
            .as_ref()
            .expect("histogram phase incomplete"),
    );
    let nic = sh.fabric.nic(HostId(mach));
    let owned = st.landing.owned();

    loop {
        let i = st.next_local_task.get();
        st.next_local_task.set(i + 1);
        if i >= owned.len() {
            break;
        }
        let p = owned[i];
        let r_p = assemble_checked(st, &info, REL_R, p);
        // Encoding scatters every tuple into its bucket — the same work
        // profile as building the partition's hash tables.
        meter.charge_bytes(ctx, r_p.len() * T::SIZE, cfg.cluster.cost.build_rate);
        let bytes = encode_remote_table(&r_p);
        // Registration and publication are externally visible (remote
        // probes hit the region): settle the build cost first.
        meter.flush(ctx);
        let mr = nic.mrs.register(ctx, bytes.len());
        mr.fill(0, &bytes);
        let handle = mr.publish();
        sh.table_registry.borrow_mut().insert(p, handle);
        st.owned_table_bytes.borrow_mut().insert(p, Arc::new(bytes));
        st.published_tables.borrow_mut().push(mr);
    }
    meter.flush(ctx);
    Ok(())
}

/// Probe stage. Two machine-local steps:
///
/// 1. core 0 prefetches the directories of every remote partition this
///    machine's S chunk touches (known from its own histogram — no data
///    scan), in doorbell-batched READ chains;
/// 2. after a local barrier, every core partitions its slice of the
///    local S chunk, then probes: owned partitions against the owner's
///    local region bytes, remote partitions via coalesced,
///    doorbell-batched bucket READs with seqlock torn-read retry.
pub(crate) fn phase_one_sided_probe<T: Tuple>(
    ctx: &SimCtx,
    sh: &ClusterShared<T>,
    mach: usize,
    core: usize,
    meter: &mut Meter,
) -> Result<(), JoinError> {
    let cfg = &sh.cfg;
    let st = &sh.machines[mach];
    let info = Arc::clone(
        st.info
            .borrow()
            .as_ref()
            .expect("histogram phase incomplete"),
    );
    let nic = sh.fabric.nic(HostId(mach));
    let cost = &cfg.cluster.cost;
    let b1 = cfg.radix_bits.0;
    let np1 = 1usize << b1;
    let cores = cfg.cluster.cores_per_machine;

    // Cluster-wide R tuple count of partition p — fixes the bucket count,
    // and with it the directory length, without any wire traffic.
    let r_count = |p: usize| -> usize {
        info.machine_hists
            .iter()
            .map(|h| h.counts[REL_R][p])
            .sum::<u64>() as usize
    };

    if core == 0 {
        let needed: Vec<usize> = (0..np1)
            .filter(|&p| info.machine_hists[mach].counts[REL_S][p] > 0 && !st.landing.owns(p))
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
                st.dir_cache
                    .borrow_mut()
                    .insert(p, Arc::new(RemoteDirectory::decode(&bytes)));
            }
        }
        meter.flush(ctx);
    }
    barrier_wait(&st.local_barrier, ctx, phase::ONE_SIDED_PROBE)?;

    // Every core (no dedicated receiver on this dataplane) partitions its
    // slice of the local S chunk into per-partition probe groups.
    let range = ranges(st.s_chunk.len(), cores)[core].clone();
    let slice = &st.s_chunk[range];
    meter.charge_bytes(ctx, slice.len() * T::SIZE, cost.partition_rate);
    let mut groups: Vec<Vec<T>> = (0..np1).map(|_| Vec::new()).collect();
    for t in slice {
        groups[partition_of(t.key(), 0, b1)].push(*t);
    }

    let mut local = JoinResult::default();
    let mut local_bytes = 0u64;
    for (p, group) in groups.iter().enumerate() {
        if group.is_empty() {
            continue;
        }
        if st.landing.owns(p) {
            // Owner-local probe: straight out of the region bytes we
            // published — no loopback READ.
            let bytes = Arc::clone(
                st.owned_table_bytes
                    .borrow()
                    .get(&p)
                    .expect("owned table missing"),
            );
            let dir = RemoteDirectory::decode(&bytes);
            for t in group {
                let b = dir.bucket_of(t.key());
                let bucket: Vec<T> = decode_bucket(&bytes[dir.bucket_range(b)])
                    .expect("owner's stable table cannot read torn");
                probe_bucket(ctx, meter, cfg, &bucket, t, &mut local, &mut local_bytes);
            }
        } else {
            let dir = Arc::clone(st.dir_cache.borrow().get(&p).expect("directory prefetched"));
            let remote = *sh
                .table_registry
                .borrow()
                .get(&p)
                .expect("bucket table not published");
            let mut buckets: Vec<usize> = group.iter().map(|t| dir.bucket_of(t.key())).collect();
            buckets.sort_unstable();
            buckets.dedup();
            // Coalesce adjacent bucket extents while the merged span fits
            // one inline fetch.
            let mut spans: Vec<(Range<usize>, Vec<usize>)> = Vec::new();
            for &b in &buckets {
                let r = dir.bucket_range(b);
                match spans.last_mut() {
                    Some((span, ids))
                        if span.end == r.start && r.end - span.start <= ONE_SIDED_MTU =>
                    {
                        span.end = r.end;
                        ids.push(b);
                    }
                    _ => spans.push((r, vec![b])),
                }
            }
            let mut fetched: HashMap<usize, Vec<T>> = HashMap::new();
            for chunk in spans.chunks(READ_DOORBELL) {
                let reads: Vec<(RemoteMr, usize, usize)> = chunk
                    .iter()
                    .map(|(r, _)| (remote, r.start, r.len()))
                    .collect();
                meter.flush(ctx);
                let handles = nic.post_read_batch(ctx, &reads);
                for ((span, ids), h) in chunk.iter().zip(handles) {
                    let bytes = h
                        .wait(ctx)
                        .map_err(|e| JoinError::fabric(mach, phase::ONE_SIDED_PROBE, e))?;
                    meter.charge_bytes(ctx, bytes.len(), cost.memcpy_rate);
                    for &b in ids {
                        let r = dir.bucket_range(b);
                        let entries = match decode_bucket::<T>(
                            &bytes[r.start - span.start..r.end - span.start],
                        ) {
                            Ok(entries) => entries,
                            Err(TornRead) => fetch_bucket_retry(
                                ctx,
                                &nic,
                                meter,
                                cost.memcpy_rate,
                                mach,
                                remote,
                                r,
                            )?,
                        };
                        fetched.insert(b, entries);
                    }
                }
            }
            for t in group {
                let b = dir.bucket_of(t.key());
                probe_bucket(
                    ctx,
                    meter,
                    cfg,
                    &fetched[&b],
                    t,
                    &mut local,
                    &mut local_bytes,
                );
            }
        }
        // One table per partition: one probe pass over the group (§4.3's
        // k-table multiplier with k = 1).
        meter.charge_bytes(ctx, group.len() * T::SIZE, cost.probe_rate);
    }
    meter.flush(ctx);
    if local_bytes > 0 {
        st.result_bytes_local
            .set(st.result_bytes_local.get() + local_bytes);
    }
    st.result.borrow_mut().merge(local);
    Ok(())
}

/// Probe one tuple against a decoded bucket, counting matches and — in
/// [`MaterializeMode::Local`] runs — charging and counting the 16-byte
/// `<r.rid, s.rid>` pair written to the local output buffer.
#[inline]
fn probe_bucket<T: Tuple>(
    ctx: &SimCtx,
    meter: &mut Meter,
    cfg: &crate::DistJoinConfig,
    bucket: &[T],
    t: &T,
    local: &mut JoinResult,
    local_bytes: &mut u64,
) {
    for e in bucket {
        if e.key() == t.key() {
            local.add_match(t.key());
            if cfg.materialize == MaterializeMode::Local {
                meter.charge_bytes(ctx, 16, cfg.cluster.cost.memcpy_rate);
                *local_bytes += 16;
            }
        }
    }
}

/// Re-READ a bucket whose snapshot decoded as torn, up to
/// [`TORN_RETRY_CAP`] times. Exhausting the budget surfaces as a
/// [`JoinError::Decode`] — the `?` in the probe loop then poisons the
/// run's barriers exactly like a fabric failure, so no peer machine is
/// left parked on the `one_sided_probe` barrier.
fn fetch_bucket_retry<T: Tuple>(
    ctx: &SimCtx,
    nic: &Nic,
    meter: &mut Meter,
    memcpy_rate: f64,
    mach: usize,
    remote: RemoteMr,
    range: Range<usize>,
) -> Result<Vec<T>, JoinError> {
    for _ in 0..TORN_RETRY_CAP {
        meter.flush(ctx);
        let bytes = nic
            .post_read(ctx, remote, range.start, range.len())
            .wait(ctx)
            .map_err(|e| JoinError::fabric(mach, phase::ONE_SIDED_PROBE, e))?;
        meter.charge_bytes(ctx, bytes.len(), memcpy_rate);
        match decode_bucket(&bytes) {
            Ok(entries) => return Ok(entries),
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
    use rsj_workload::Tuple16;
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
                let got =
                    fetch_bucket_retry::<Tuple16>(ctx, &nic, &mut meter, 1e9, 0, remote, range);
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
