// Fixture: expect-message — a panic that does not say what broke. Linted as
// crates/cluster/src/u.rs. (`.unwrap()` itself is clippy's `unwrap_used`.)

pub fn head(xs: &[u64]) -> u64 {
    *xs.first().expect("oops")
}

pub fn described(xs: &[u64]) -> u64 {
    *xs.first().expect("partition vector is built non-empty in plan()")
}
