// Fixture: std-sync waiver. Linted as crates/sim/src/pl_waiver.rs.

pub struct Sweep {
    // lint: allow-std-sync(shared with the sweep's second OS thread)
    done: parking_lot::Mutex<Vec<u8>>,
}
