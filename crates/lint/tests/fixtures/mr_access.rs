// Fixture: mr-access — raw Mr byte access outside rsj-rdma. Linted as crates/core/src/m.rs.

pub fn peek(mr: &Mr) -> Vec<u8> {
    mr.with_data(|d| d.to_vec())
}
