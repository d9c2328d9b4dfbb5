// Fixture: raw-exchange negatives. Linted as
// crates/core/src/phases/rx_neg.rs.

pub fn through_the_exchange(ctx: &SimCtx, ex: &Exchange, pool: &BufferPool) -> Result<(), JoinError> {
    // The post step handed to the scatter is where raw posts belong.
    let mut scatter = Scatter::new(ex, pool, 16, |ex, ctx, meter, lane, bytes| {
        meter.flush(ctx);
        let sent = nic.post_send(ctx, HostId(lane.dst), lane.tag.encode(), bytes);
        sent.wait(ctx).map_err(|e| ex.fabric_err(e))?;
        Ok(None)
    })?;
    scatter.finish(ctx, meter, true)?;
    // A SimChannel receive is not a NIC receive, and one-sided verbs are
    // not part of the stream protocol.
    let v = ctl.recv(sim);
    nic.post_write(ctx, remote, 0, v);
    Ok(())
}
