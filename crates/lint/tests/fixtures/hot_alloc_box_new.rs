// Fixture: hot-alloc — `Box::new` on a per-message path. The owner is
// the implementing type, also after `for` in a trait impl.
// Linted as crates/rdma/src/ha_box.rs.

impl Fabric {
    fn ingress_step(&self, ctx: &SimCtx, host: HostId) -> Step {
        while let Some(msg) = self.rx_queues[host.0].try_recv(ctx) {
            let boxed = Box::new(msg);
            self.deliver(ctx, boxed);
        }
    }
}

impl Drop for Fabric {
    fn drop(&mut self) {
        let _ = Box::new(0u8);
    }
}

impl Engine for Fabric {
    fn egress_step(&self) {
        let _ = Box::new(1u8);
    }
}
