// Fixture: hot-alloc — the per-message table names `Fabric::egress_step`,
// but the tree renamed it back to `egress_engine`. Linted as the whole
// tree, as crates/rdma/src/wire.rs.

impl Fabric {
    fn egress_engine(&self, ctx: &SimCtx, src: HostId) {
        let _ = (ctx, src);
    }

    fn ingress_step(&self, ctx: &SimCtx, eng: &mut Ingress) -> Step {
        let _ = (ctx, eng);
        Step::Exit
    }
}

#[cfg(test)]
mod tests {
    impl Fabric {
        fn place_two_sided(&self) {}
    }
}
