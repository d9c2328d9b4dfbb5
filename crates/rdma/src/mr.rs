//! Memory regions: registered, pinned buffers that the (simulated) HCA may
//! read and write directly.
//!
//! The paper stresses (§3.2.1) that registration pins pages and its cost
//! grows with the region size, so algorithms must pre-register and reuse
//! buffers instead of registering on the fly. This module makes that cost
//! explicit: [`MrTable::register`] charges virtual time on the calling
//! thread according to [`NicCosts::register_seconds`].

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use rsj_sim::{SimCtx, SimDuration};

use crate::config::{HostId, NicCosts};
use crate::validate::{Validator, Violation};

/// A handle naming a remote (or local) memory region for one-sided access —
/// the moral equivalent of an `(addr, rkey)` pair exchanged out of band.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct RemoteMr {
    /// The host owning the region.
    pub host: HostId,
    /// Index into that host's [`MrTable`].
    pub index: usize,
    /// Region length in bytes (for bounds checking on the initiator side).
    pub len: usize,
}

/// A registered memory region on one host.
pub struct Mr {
    host: HostId,
    index: usize,
    /// Registered length, fixed at registration time. Cached outside the
    /// data cell so `remote_handle`/`len` borrow nothing — they are called
    /// on every one-sided post.
    region_len: usize,
    data: RefCell<Vec<u8>>,
    validator: Arc<Validator>,
}

impl Mr {
    /// The handle by which remote initiators address this region.
    pub fn remote_handle(&self) -> RemoteMr {
        RemoteMr {
            host: self.host,
            index: self.index,
            len: self.region_len,
        }
    }

    /// Registered region length in bytes (immutable after registration).
    pub fn len(&self) -> usize {
        self.region_len
    }

    /// Whether the region was registered with zero length.
    pub fn is_empty(&self) -> bool {
        self.region_len == 0
    }

    /// DMA write into the region (performed by the simulated HCA's ingress
    /// engine — costs the *owner's CPU* nothing).
    ///
    /// An out-of-bounds write is a verbs contract violation: real
    /// hardware would raise a protection fault and kill the QP, and the
    /// validator stops the run.
    pub(crate) fn dma_write(&self, offset: usize, src: &[u8]) {
        let mut data = self.data.borrow_mut();
        let region_len = data.len();
        if offset
            .checked_add(src.len())
            .is_none_or(|end| end > region_len)
        {
            drop(data);
            self.validator.report(Violation::OutOfBoundsWrite {
                host: self.host,
                index: self.index,
                offset,
                len: src.len(),
                region_len,
            });
        }
        data[offset..offset + src.len()].copy_from_slice(src);
    }

    /// DMA read out of the region into the requester's landing buffer
    /// `into` (the responder leg of an RDMA READ). An out-of-bounds read
    /// is reported like a write fault.
    pub(crate) fn dma_read(&self, offset: usize, len: usize, into: &mut Vec<u8>) {
        let data = self.data.borrow();
        let region_len = data.len();
        if offset.checked_add(len).is_none_or(|end| end > region_len) {
            drop(data);
            self.validator.report(Violation::OutOfBoundsRead {
                host: self.host,
                index: self.index,
                offset,
                len,
                region_len,
            });
        }
        into.extend_from_slice(&data[offset..offset + len]);
    }

    /// Read the region contents by reference (local access by the owner).
    pub fn with_data<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        f(&self.data.borrow())
    }

    /// Owner-side local write into the region (no HCA involved — the
    /// owner stores through its own mapping, e.g. while building a bucket
    /// table that will be published for one-sided probes).
    ///
    /// Unlike `Mr::dma_write` this is *not* a verbs operation: an
    /// out-of-bounds store here is a plain local bug, so it panics
    /// unconditionally instead of going through the validator.
    ///
    /// ```
    /// use rsj_rdma::{Fabric, FabricConfig, HostId, NicCosts};
    /// use rsj_sim::Simulation;
    ///
    /// let sim = Simulation::new();
    /// let fabric = Fabric::new(FabricConfig::fdr(), NicCosts::default(), 2);
    /// fabric.launch(&sim);
    /// sim.spawn("owner", move |ctx| {
    ///     let mr = fabric.nic(HostId(0)).mrs.register(ctx, 8);
    ///     mr.fill(4, &[7, 7, 7, 7]);
    ///     mr.with_data(|d| assert_eq!(&d[4..], &[7, 7, 7, 7]));
    ///     fabric.shutdown(ctx);
    /// });
    /// sim.run();
    /// ```
    pub fn fill(&self, offset: usize, src: &[u8]) {
        let mut data = self.data.borrow_mut();
        let end = offset
            .checked_add(src.len())
            .expect("fill range overflows usize");
        assert!(
            end <= data.len(),
            "local fill [{offset}, {end}) out of bounds of {}-byte region",
            data.len()
        );
        data[offset..end].copy_from_slice(src);
    }

    /// Publish the region for one-sided readers and return the handle
    /// they should use — the out-of-band `(addr, rkey)` advertisement of
    /// the seqlock protocol (DESIGN.md §11). Publishing is an epoch
    /// marker for the validator's read-after-unpublish audit: a region
    /// may be published, read, unpublished and published again, but an
    /// RDMA READ posted against an *unpublished* epoch is a protocol
    /// violation even though the registration (and thus hardware-level
    /// bounds) is still valid.
    ///
    /// ```
    /// use rsj_rdma::{Fabric, FabricConfig, HostId, NicCosts};
    /// use rsj_sim::Simulation;
    ///
    /// let sim = Simulation::new();
    /// let fabric = Fabric::new(FabricConfig::fdr(), NicCosts::default(), 2);
    /// fabric.launch(&sim);
    /// sim.spawn("owner", move |ctx| {
    ///     let mr = fabric.nic(HostId(1)).mrs.register(ctx, 64);
    ///     let handle = mr.publish();
    ///     // ... hand `handle` to probe-side hosts, let them READ ...
    ///     let data = fabric.nic(HostId(0)).post_read(ctx, handle, 0, 64);
    ///     assert_eq!(data.wait(ctx).unwrap().len(), 64);
    ///     mr.unpublish(); // further READs would be flagged by the validator
    ///     fabric.shutdown(ctx);
    /// });
    /// sim.run();
    /// ```
    pub fn publish(&self) -> RemoteMr {
        self.validator.mr_published(self.host, self.index);
        self.remote_handle()
    }

    /// Retract a published region: readers must stop issuing RDMA READs
    /// against handles from the closed epoch. The validator flags any
    /// later read as [`Violation::ReadAfterUnpublish`] (see
    /// [`Mr::publish`] for the epoch rules); a subsequent
    /// [`Mr::publish`] opens a fresh epoch and clears the flag.
    pub fn unpublish(&self) {
        self.validator.mr_unpublished(self.host, self.index);
    }
}

/// Per-host registry of memory regions, with registration accounting.
pub struct MrTable {
    host: HostId,
    costs: NicCosts,
    /// Indexed by MR index; `None` once deregistered (indices are never
    /// reused).
    regions: RefCell<Vec<Option<Arc<Mr>>>>,
    registered_bytes: Cell<u64>,
    validator: Arc<Validator>,
}

impl MrTable {
    pub(crate) fn new(host: HostId, costs: NicCosts, validator: Arc<Validator>) -> MrTable {
        MrTable {
            host,
            costs,
            regions: RefCell::new(Vec::new()),
            registered_bytes: Cell::new(0),
            validator,
        }
    }

    /// Register a zero-initialized region of `len` bytes, charging the
    /// calling thread the pinning cost.
    pub fn register(&self, ctx: &SimCtx, len: usize) -> Arc<Mr> {
        ctx.advance(SimDuration::from_secs_f64(self.costs.register_seconds(len)));
        let mut regions = self.regions.borrow_mut();
        let index = regions.len();
        let mr = Arc::new(Mr {
            host: self.host,
            index,
            region_len: len,
            data: RefCell::new(vec![0u8; len]),
            validator: Arc::clone(&self.validator),
        });
        regions.push(Some(Arc::clone(&mr)));
        self.registered_bytes
            .set(self.registered_bytes.get() + len as u64);
        self.validator.mr_registered(self.host, index, len);
        mr
    }

    /// Deregister `mr` (`ibv_dereg_mr`): the HCA may no longer touch it,
    /// so a later one-sided access to its index is a use-before-register
    /// violation. Handles the owner still holds keep the bytes readable
    /// locally until they are dropped. The registered-bytes total counts
    /// every registration ever made and does not shrink.
    pub fn deregister(&self, mr: &Mr) {
        let mut regions = self.regions.borrow_mut();
        let slot = &mut regions[mr.index];
        assert!(
            slot.as_deref().is_some_and(|held| std::ptr::eq(held, mr)),
            "deregistering a region this table does not hold"
        );
        *slot = None;
        self.validator.mr_deregistered(self.host, mr.index);
    }

    /// Run `f` on the region at `index`, borrowed in place (the ingress
    /// engine's one-sided access, once per message). A miss is a
    /// use-before-register contract violation.
    pub(crate) fn with<R>(&self, index: usize, f: impl FnOnce(&Mr) -> R) -> R {
        let regions = self.regions.borrow();
        match regions.get(index).and_then(Option::as_deref) {
            Some(mr) => f(mr),
            None => self.validator.report(Violation::UseBeforeRegister {
                host: self.host,
                index,
            }),
        }
    }

    /// Close the read epoch of every region on this host — the fencing
    /// step after a crash is detected (DESIGN.md §13). One-sided probes
    /// that still hold handles from before the crash are flagged
    /// [`Violation::ReadAfterUnpublish`] instead of reading stale bytes.
    pub(crate) fn unpublish_all(&self) {
        let regions = self.regions.borrow();
        for mr in regions.iter().flatten() {
            mr.unpublish();
        }
    }

    /// Total bytes ever registered on this host — the "pinned memory"
    /// figure the paper's §4.2.2 small-memory discussion is about.
    pub fn registered_bytes(&self) -> u64 {
        self.registered_bytes.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsj_sim::Simulation;

    fn table(host: HostId) -> MrTable {
        MrTable::new(host, NicCosts::default(), Validator::new())
    }

    #[test]
    fn registration_charges_virtual_time_and_tracks_bytes() {
        let sim = Simulation::new();
        sim.spawn("reg", |ctx| {
            let table = table(HostId(0));
            let before = ctx.now();
            let mr = table.register(ctx, 1 << 20);
            let charged = (ctx.now() - before).as_secs_f64();
            let expect = NicCosts::default().register_seconds(1 << 20);
            assert!((charged - expect).abs() < 1e-9);
            assert_eq!(mr.len(), 1 << 20);
            assert_eq!(table.registered_bytes(), 1 << 20);
        });
        sim.run();
    }

    #[test]
    fn dma_write_roundtrip() {
        let sim = Simulation::new();
        sim.spawn("rw", |ctx| {
            let table = table(HostId(3));
            let mr = table.register(ctx, 16);
            mr.dma_write(4, &[1, 2, 3, 4]);
            mr.with_data(|d| {
                assert_eq!(&d[4..8], &[1, 2, 3, 4]);
                assert_eq!(d[0], 0);
            });
            let handle = mr.remote_handle();
            assert_eq!(handle.host, HostId(3));
            assert_eq!(handle.len, 16);
        });
        sim.run();
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_write_faults() {
        let sim = Simulation::new();
        sim.spawn("oob", |ctx| {
            let table = table(HostId(0));
            let mr = table.register(ctx, 8);
            mr.dma_write(6, &[0; 4]);
        });
        sim.run();
    }
}
