// Fixture: hot-alloc — `.to_vec()` on a per-message path; the same call
// elsewhere in the impl, or in an `impl Trait` argument position, is out
// of scope.
// Linted as crates/cluster/src/ha_to_vec.rs.

impl Exchange {
    pub fn recv_stream(&self, ctx: &SimCtx, on_msg: impl FnMut(&[u8]) -> bool) {
        let c = self.recv_one(ctx);
        let copy = c.payload.to_vec();
        on_msg(&copy);
    }

    fn post_all(&self, payload: &[u8]) -> Vec<u8> {
        payload.to_vec()
    }
}
