// Fixture: raw-exchange waiver. Linted as crates/core/src/rx_waiver.rs.

pub fn ping(ctx: &SimCtx, nic: &Nic) {
    // lint: allow-raw-exchange(liveness probe outside any partitioned stream)
    nic.post_send(ctx, PEER, 0, Vec::new());
}
