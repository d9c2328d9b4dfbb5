// Fixture: meter-flush negatives. Linted as
// crates/operators/src/mf_neg.rs.

pub fn flushed_before_post(ctx: &SimCtx, nic: &Nic, meter: &mut Meter) {
    meter.charge_bytes(ctx, 4096, 1e9);
    meter.flush(ctx);
    nic.post_send(ctx, SLOT, 4096);
}

pub fn receiver_flushes_before_repost(ctx: &SimCtx, nic: &Nic, meter: &mut Meter) {
    loop {
        let c = nic.recv(ctx);
        meter.charge_bytes(ctx, c.len, 1e9);
        meter.flush(ctx);
        nic.repost_recv(ctx);
    }
}

pub fn no_charges_out_of_scope(ctx: &SimCtx, nic: &Nic) {
    let c = nic.recv(ctx);
    nic.post_send(ctx, SLOT, c.len);
}

pub fn settled_by_the_shuffle(ctx: &SimCtx, rt: &Runtime, meter: &mut Meter) -> Result<(), JoinError> {
    // The shuffle ends in a receive loop or a scatter's finish, both of
    // which settle the meter.
    let copy = |meter: &mut Meter, len| meter.charge_bytes(ctx, len, 1e9);
    landing.shuffle(ctx, meter, ex, pools, core, rate, inputs, copy, Exchange::send)?;
    rt.try_sync_named(ctx, phase::NETWORK_PARTITION, 0)
}
