// Fixture: std-sync negative — state inside a simulation as cells, and a
// lock only in test code. Linted as crates/cluster/src/pl_neg.rs.

use std::cell::{Cell, RefCell};

pub struct Stats {
    tx_msgs: Cell<u64>,
    lanes: RefCell<Vec<u32>>,
}

#[cfg(test)]
mod tests {
    use parking_lot::Mutex;
}
