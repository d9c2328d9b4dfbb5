// Fixture: hot-alloc — `Vec::with_capacity` on a per-message path, not in
// a constructor of the same type.
// Linted as crates/rdma/src/ha_cap.rs.

impl BufferPool {
    pub fn take(&self, ctx: &SimCtx) -> Vec<u8> {
        self.count(ctx);
        Vec::with_capacity(self.buf_size)
    }

    pub fn new(count: usize) -> BufferPool {
        BufferPool {
            free: Vec::with_capacity(count),
        }
    }
}

impl Landing {
    pub fn route(&self, parts: usize) {
        let kept: Vec<Vec<u64>> = (0..parts).map(|_| Vec::with_capacity(8)).collect();
        self.keep(kept);
    }
}
