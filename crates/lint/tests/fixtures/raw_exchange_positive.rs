// Fixture: raw-exchange positives. Linted as crates/operators/src/rx_pos.rs.

pub fn hand_rolled_receive(ctx: &SimCtx, nic: &Nic) -> Result<(), JoinError> {
    loop {
        let c = nic.recv(ctx).map_err(fab)?;
        consume(c);
        nic.repost_recv(ctx);
    }
}

pub fn hand_rolled_send(ctx: &SimCtx, nic: &Nic, bytes: Vec<u8>) -> Result<(), JoinError> {
    let mut window = SendWindow::new(2, Arc::clone(nic.validator()));
    window.record(nic.post_send(ctx, DST, TAG, bytes));
    window.drain(ctx).map_err(fab)
}
