// Fixture: std-sync — parking_lot locks in simulation state. Linted as
// crates/rdma/src/pl_pos.rs.

use parking_lot::Mutex;

pub struct Stats {
    tx_msgs: parking_lot::Mutex<u64>,
}

use parking_lot::{Mutex as Lock, RwLock};
