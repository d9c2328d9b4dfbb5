//! Property and behavioural tests of the fabric model: conservation, FIFO
//! ordering, congestion monotonicity, backpressure, and failure modes.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use rsj_rdma::{Fabric, FabricConfig, HostId, NicCosts};
use rsj_sim::Simulation;

/// All-to-all traffic: every byte sent is received, per-pair FIFO order
/// holds, and NIC counters balance.
fn all_to_all(hosts: usize, msgs_per_pair: usize, msg_size: usize) -> Vec<(u64, u64)> {
    let sim = Simulation::new();
    let fabric = Fabric::new(FabricConfig::qdr(), NicCosts::default(), hosts);
    fabric.launch(&sim);
    let done = Arc::new(Mutex::new(vec![(0u64, 0u64); hosts]));
    for h in 0..hosts {
        // Sender thread per host.
        {
            let fabric = Arc::clone(&fabric);
            sim.spawn(format!("tx{h}"), move |ctx| {
                let nic = fabric.nic(HostId(h));
                let mut evs = Vec::new();
                for seq in 0..msgs_per_pair as u32 {
                    for dst in (0..hosts).filter(|&d| d != h) {
                        evs.push(nic.post_send(ctx, HostId(dst), seq, vec![h as u8; msg_size]));
                    }
                }
                for ev in evs {
                    ev.wait(ctx).unwrap();
                }
            });
        }
        // Receiver thread per host.
        {
            let fabric = Arc::clone(&fabric);
            let done = Arc::clone(&done);
            sim.spawn(format!("rx{h}"), move |ctx| {
                let nic = fabric.nic(HostId(h));
                let expect = (hosts - 1) * msgs_per_pair;
                let mut last_seq = vec![None::<u32>; hosts];
                let mut bytes = 0u64;
                for _ in 0..expect {
                    let c = nic.recv(ctx).unwrap().expect("fabric closed early");
                    // Per-source FIFO: sequence numbers strictly increase.
                    let src = c.src.0;
                    if let Some(prev) = last_seq[src] {
                        assert!(c.tag > prev, "reordering from host {src}");
                    }
                    last_seq[src] = Some(c.tag);
                    assert!(c.payload.iter().all(|&b| b == src as u8), "corrupt payload");
                    bytes += c.payload.len() as u64;
                    nic.repost_recv(ctx);
                }
                done.lock().unwrap()[h] = (expect as u64, bytes);
            });
        }
    }
    // A closer thread: shut the fabric down once all traffic has drained.
    {
        let fabric = Arc::clone(&fabric);
        let done = Arc::clone(&done);
        sim.spawn("closer", move |ctx| {
            let expect = ((hosts - 1) * msgs_per_pair) as u64;
            loop {
                if done.lock().unwrap().iter().all(|&(n, _)| n == expect) {
                    break;
                }
                ctx.advance(rsj_sim::SimDuration::from_micros(50));
            }
            fabric.shutdown(ctx);
        });
    }
    sim.run();
    let d = done.lock().unwrap().clone();
    d
}

#[test]
fn all_to_all_conserves_and_orders() {
    let hosts = 4;
    let per_pair = 20;
    let size = 4096;
    let results = all_to_all(hosts, per_pair, size);
    for (n, bytes) in results {
        assert_eq!(n, ((hosts - 1) * per_pair) as u64);
        assert_eq!(bytes, n * size as u64);
    }
}

#[test]
fn more_hosts_mean_lower_effective_qdr_bandwidth() {
    // Eq. 15's congestion term must make the same point-to-point stream
    // slower as the (configured) cluster grows.
    let measure = |hosts: usize| {
        let cfg = FabricConfig::qdr();
        cfg.effective_bandwidth(hosts)
    };
    let mut prev = f64::INFINITY;
    for hosts in [2, 4, 6, 8, 10] {
        let bw = measure(hosts);
        assert!(bw < prev);
        prev = bw;
    }
}

#[test]
fn srq_exhaustion_backpressures_instead_of_dropping() {
    // A receiver that never reposts stalls the ingress engine after the
    // SRQ drains — messages are never dropped, and once the receiver
    // starts reposting everything flows.
    let sim = Simulation::new();
    let mut cfg = FabricConfig::fdr();
    cfg.srq_slots = 4;
    let fabric = Fabric::new(cfg, NicCosts::default(), 2);
    fabric.launch(&sim);
    const COUNT: usize = 64;
    {
        let fabric = Arc::clone(&fabric);
        sim.spawn("sender", move |ctx| {
            let nic = fabric.nic(HostId(0));
            let evs: Vec<_> = (0..COUNT)
                .map(|i| nic.post_send(ctx, HostId(1), i as u32, vec![0u8; 512]))
                .collect();
            for ev in evs {
                ev.wait(ctx).unwrap();
            }
            fabric.shutdown(ctx);
        });
    }
    {
        let fabric = Arc::clone(&fabric);
        sim.spawn("lazy-receiver", move |ctx| {
            let nic = fabric.nic(HostId(1));
            // Stall before consuming anything: the SRQ must absorb only
            // `srq_slots` messages, then block the wire.
            ctx.advance(rsj_sim::SimDuration::from_millis(5));
            let mut got = 0;
            while let Ok(Some(c)) = nic.recv(ctx) {
                assert_eq!(c.tag, got as u32, "in order despite stall");
                got += 1;
                nic.repost_recv(ctx);
            }
            assert_eq!(got, COUNT);
        });
    }
    sim.run();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Stream bandwidth through the simulated fabric matches the closed
    /// form within 10% for arbitrary message sizes.
    #[test]
    fn prop_stream_bandwidth_matches_model(shift in 6u32..18) {
        let size = 1usize << shift;
        let cfg = FabricConfig::fdr();
        let count = ((1 << 21) / size).max(16);
        let sim = Simulation::new();
        let fabric = Fabric::new(cfg, NicCosts::default(), 2);
        fabric.launch(&sim);
        let finish = Arc::new(Mutex::new(0.0f64));
        {
            let fabric = Arc::clone(&fabric);
            sim.spawn("tx", move |ctx| {
                let nic = fabric.nic(HostId(0));
                let evs: Vec<_> = (0..count)
                    .map(|_| nic.post_send(ctx, HostId(1), 0, vec![0u8; size]))
                    .collect();
                for ev in evs {
                    ev.wait(ctx).unwrap();
                }
                fabric.shutdown(ctx);
            });
        }
        {
            let fabric = Arc::clone(&fabric);
            let finish = Arc::clone(&finish);
            sim.spawn("rx", move |ctx| {
                let nic = fabric.nic(HostId(1));
                while let Ok(Some(_c)) = nic.recv(ctx) {
                    nic.repost_recv(ctx);
                }
                *finish.lock().unwrap() = ctx.now().as_secs_f64();
            });
        }
        sim.run();
        let measured = (count * size) as f64 / *finish.lock().unwrap();
        let expected = cfg.stream_bandwidth(size, 2);
        let err = (measured - expected).abs() / expected;
        prop_assert!(err < 0.10, "size {size}: {measured:.3e} vs {expected:.3e}");
    }
}
