// Fixture: hot-alloc — `Arc::new` on a per-message path.
// Linted as crates/rdma/src/ha_arc.rs.

impl Nic {
    fn handle(&self, dst: HostId) -> SendHandle {
        let cell = Arc::new(WorkCompletion::default());
        SendHandle::new(cell, dst)
    }

    fn stats(&self) -> Arc<NicStats> {
        Arc::new(self.stats.get())
    }
}
