//! Transport shootout — which transport, and which dataplane, should
//! carry the join? Three experiments, all deterministic and
//! seed-replayable:
//!
//! **Part 1 (wire transport, the paper's Figure 5b in miniature).** The
//! same join over TCP/IPoIB, non-interleaved RDMA, and interleaved RDMA:
//! upper-layer protocols cannot deliver the fabric's performance, and
//! interleaving computation with communication hides much of the
//! remaining wire time.
//!
//! **Part 2 (probe dataplane, join level).** The full radix join,
//! two-sided (partition-and-ship S, [`Transport::TwoSided`]) versus
//! one-sided (publish R as seqlock bucket tables, READ them during the
//! probe, [`Transport::OneSided`]), across probe-duplication regimes.
//! Uniform probes touch every bucket of every remote table, so fetching
//! tables moves *more* bytes than shipping S; heavily skewed probes hit
//! a few hot buckets that the per-core fetch dedup collapses, and
//! one-sided wins. The crossover is pinned by
//! `crates/core/tests/one_sided.rs::wire_traffic_crossover_tracks_probe_duplication`
//! and turned into advice by the DESIGN.md §11 transport-selection guide.
//!
//! **Part 3 (operation level).** A GET/PUT microbenchmark over the raw
//! fabric, one-sided versus RPC-emulated, swept across value sizes and
//! read fractions:
//!
//! * one-sided GET — 1 READ when the value fits the inline MTU, else a
//!   pointer chase of 2 dependent READs;
//! * one-sided PUT — WRITE + 4-byte READ-back (the seqlock version bump
//!   must be observed before the mutation counts), 2 round trips;
//! * RPC GET/PUT — SEND request, server dispatch CPU + copy, SEND
//!   response: 1 round trip but a busy receiver core.
//!
//! ```text
//! cargo run --release --example transport_shootout
//! cargo run --release --example transport_shootout -- --quick
//! cargo run --release --example transport_shootout -- \
//!     --tuples=400000 --sizes=64,512,4096,16384 --ratios=0.50,0.90,0.99 --mtu=4096
//! ```

use rsj::cluster::{ClusterSpec, Interconnect};
use rsj::core::{try_run_distributed_join, DistJoinConfig, Transport, TransportMode};
use rsj::rdma::{Fabric, FabricConfig, HostId, NicCosts};
use rsj::sim::{SimDuration, Simulation};
use rsj::workload::{generate_inner, generate_outer, Skew, Tuple16};
use std::sync::{Arc, Mutex};

/// Server-side cost of one RPC dispatch (poll completion, decode, branch).
const RPC_DISPATCH_SECONDS: f64 = 0.5e-6;
/// Rate at which the server copies a value into its response buffer.
const RPC_COPY_RATE: f64 = 20.0e9;
/// Operations per (size, ratio) cell of the part-3 sweep.
const OPS_PER_CELL: usize = 200;

struct Args {
    tuples: u64,
    sizes: Vec<usize>,
    ratios: Vec<f64>,
    mtu: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        tuples: 200_000,
        sizes: vec![64, 512, 4096, 16384],
        ratios: vec![0.50, 0.90, 0.99],
        mtu: 4096,
    };
    for a in std::env::args().skip(1) {
        if a == "--quick" {
            args.tuples = 60_000;
            args.sizes = vec![64, 4096];
            args.ratios = vec![0.50, 0.99];
        } else if let Some(v) = a.strip_prefix("--tuples=") {
            args.tuples = v.parse().expect("--tuples=N");
        } else if let Some(v) = a.strip_prefix("--mtu=") {
            args.mtu = v.parse().expect("--mtu=BYTES");
        } else if let Some(v) = a.strip_prefix("--sizes=") {
            args.sizes = v.split(',').map(|s| s.parse().expect("size")).collect();
        } else if let Some(v) = a.strip_prefix("--ratios=") {
            args.ratios = v.split(',').map(|s| s.parse().expect("ratio")).collect();
        } else {
            panic!("unknown flag {a}; see the module docs for usage");
        }
    }
    args
}

fn base_cfg(tuples: u64) -> (DistJoinConfig, u64) {
    let machines = 3;
    let mut cfg = DistJoinConfig::new(ClusterSpec::fdr_cluster(machines));
    cfg.cluster.cores_per_machine = 4;
    cfg.radix_bits = (4, 3);
    cfg.rdma_buf_size = 1024;
    let _ = tuples;
    (cfg, machines as u64)
}

fn join_inputs(
    tuples: u64,
    machines: usize,
    skew: Skew,
) -> (
    rsj::workload::Relation<Tuple16>,
    rsj::workload::Relation<Tuple16>,
    rsj::workload::ExpectedResult,
) {
    let r = generate_inner::<Tuple16>(tuples, machines, 9101);
    let (s, oracle) = generate_outer::<Tuple16>(3 * tuples, tuples, machines, skew, 9102);
    (r, s, oracle)
}

// ------------------------------------------------- part 1: wire transport

fn part1(tuples: u64) {
    println!(
        "Part 1 — wire transport: {tuples} ⋈ {} tuples, 3 machines, 4 cores\n",
        3 * tuples
    );
    let mut net = Vec::new();
    for (label, transport) in [
        ("TCP over IPoIB", TransportMode::Tcp),
        ("RDMA, non-interleaved", TransportMode::RdmaNonInterleaved),
        ("RDMA, interleaved", TransportMode::RdmaInterleaved),
    ] {
        let (mut cfg, m) = base_cfg(tuples);
        cfg.transport = transport;
        if transport == TransportMode::Tcp {
            cfg.cluster.interconnect = Interconnect::IpoIb;
        }
        let (r, s, oracle) = join_inputs(tuples, m as usize, Skew::None);
        let out = try_run_distributed_join(cfg, r, s).expect("distributed join aborted");
        oracle.verify(&out.result);
        println!(
            "{label:>22}: total {} | network pass {}",
            out.phases.total(),
            out.phases.network_partition,
        );
        net.push(out.phases.network_partition.as_secs_f64());
    }
    println!(
        "\nnetwork pass: RDMA beats TCP by {:.1}x; interleaving saves another {:.0}%\n",
        net[0] / net[1],
        (1.0 - net[2] / net[1]) * 100.0
    );
}

// ------------------------------------------------ part 2: probe dataplane

fn join_run(transport: Transport, tuples: u64, skew: Skew) -> (f64, u64) {
    let (mut cfg, m) = base_cfg(tuples);
    cfg.probe_transport = transport;
    let (r, s, oracle) = join_inputs(tuples, m as usize, skew);
    let out = try_run_distributed_join(cfg, r, s).expect("distributed join aborted");
    oracle.verify(&out.result);
    let wire: u64 = out.machines.iter().map(|x| x.tx_bytes).sum();
    (out.phases.total().as_secs_f64(), wire)
}

fn part2(tuples: u64) {
    println!(
        "Part 2 — probe dataplane: {tuples} ⋈ {} tuples, 3 machines (FDR)",
        3 * tuples
    );
    println!(
        "{:>12} {:>14} {:>12} {:>14} {:>12}   verdict (wire)",
        "probe skew", "2-sided time", "wire MB", "1-sided time", "wire MB"
    );
    for (label, skew) in [
        ("uniform", Skew::None),
        ("zipf 1.25", Skew::Zipf(1.25)),
        ("zipf 2.00", Skew::Zipf(2.0)),
    ] {
        let (t2, w2) = join_run(Transport::TwoSided, tuples, skew);
        let (t1, w1) = join_run(Transport::OneSided, tuples, skew);
        let verdict = if w1 < w2 { "one-sided" } else { "two-sided" };
        println!(
            "{label:>12} {t2:>13.4}s {:>12.2} {t1:>13.4}s {:>12.2}   {verdict}",
            w2 as f64 / 1e6,
            w1 as f64 / 1e6,
        );
    }
    println!(
        "\nShipping S costs the same regardless of its contents; fetching bucket\n\
         tables costs what the probe's *distinct-bucket footprint* costs. The\n\
         duplicate-heavy end is where the one-sided plane earns its keep.\n"
    );
}

// ----------------------------------------------- part 3: operation level

/// Wire tags for the RPC emulation.
const TAG_GET: u32 = 1;
const TAG_PUT: u32 = 2;

#[derive(Clone, Copy, PartialEq)]
enum Plane {
    OneSided,
    Rpc,
}

/// Virtual seconds for [`OPS_PER_CELL`] key-value operations of `value`
/// bytes, `read_pct` percent of them GETs, over the given dataplane.
fn kv_cell(plane: Plane, value: usize, read_pct: usize, mtu: usize) -> f64 {
    let sim = Simulation::new();
    let fabric = Fabric::new(FabricConfig::fdr(), NicCosts::default(), 2);
    fabric.launch(&sim);
    let elapsed = Arc::new(Mutex::new(0.0f64));

    // The server burns dispatch + copy CPU per RPC; on the one-sided
    // plane no request ever reaches it and it sleeps until shutdown.
    {
        let fabric = Arc::clone(&fabric);
        sim.spawn("server", move |ctx| {
            let nic = fabric.nic(HostId(1));
            while let Ok(Some(c)) = nic.recv(ctx) {
                match c.tag {
                    TAG_GET => {
                        ctx.advance(SimDuration::from_secs_f64(
                            RPC_DISPATCH_SECONDS + value as f64 / RPC_COPY_RATE,
                        ));
                        nic.post_send(ctx, c.src, TAG_GET, vec![0x5a; value]);
                    }
                    TAG_PUT => {
                        ctx.advance(SimDuration::from_secs_f64(
                            RPC_DISPATCH_SECONDS + c.payload.len() as f64 / RPC_COPY_RATE,
                        ));
                        nic.post_send(ctx, c.src, TAG_PUT, vec![0u8; 8]);
                    }
                    t => panic!("unexpected tag {t}"),
                }
                nic.repost_recv(ctx);
            }
        });
    }
    {
        let fabric = Arc::clone(&fabric);
        let elapsed = Arc::clone(&elapsed);
        sim.spawn("client", move |ctx| {
            let nic = fabric.nic(HostId(0));
            // The store region lives on host 1; the client holds the
            // published handle, exactly like a probe core holds a bucket
            // table's handle.
            let mr = fabric.nic(HostId(1)).mrs.register(ctx, value.max(64) * 2);
            mr.fill(0, &vec![0x5a; value.max(64)]);
            let remote = mr.publish();
            let t0 = ctx.now();
            for i in 0..OPS_PER_CELL {
                let is_read = i % 100 < read_pct;
                match (plane, is_read) {
                    (Plane::OneSided, true) => {
                        if value <= mtu {
                            // Inline fetch: the value fits one READ.
                            nic.post_read(ctx, remote, 0, value).wait(ctx).unwrap();
                        } else {
                            // Pointer chase: header READ, then the value.
                            nic.post_read(ctx, remote, 0, 16).wait(ctx).unwrap();
                            nic.post_read(ctx, remote, 0, value).wait(ctx).unwrap();
                        }
                    }
                    (Plane::OneSided, false) => {
                        // WRITE, then READ back the seqlock version word:
                        // the mutation does not count until the bump is
                        // observed.
                        nic.post_write(ctx, remote, 0, vec![0xa5; value])
                            .wait(ctx)
                            .unwrap();
                        nic.post_read(ctx, remote, 0, 4).wait(ctx).unwrap();
                    }
                    (Plane::Rpc, true) => {
                        nic.post_send(ctx, HostId(1), TAG_GET, vec![0u8; 16]);
                        let c = nic.recv(ctx).unwrap().expect("server reply");
                        assert_eq!(c.payload.len(), value);
                        nic.repost_recv(ctx);
                    }
                    (Plane::Rpc, false) => {
                        nic.post_send(ctx, HostId(1), TAG_PUT, vec![0xa5; value]);
                        nic.recv(ctx).unwrap().expect("server ack");
                        nic.repost_recv(ctx);
                    }
                }
            }
            *elapsed.lock().unwrap() = (ctx.now() - t0).as_secs_f64();
            mr.unpublish();
            fabric.shutdown(ctx);
        });
    }
    sim.run();
    let secs = *elapsed.lock().unwrap();
    secs
}

fn part3(args: &Args) {
    println!(
        "Part 3 — operation level: {OPS_PER_CELL} GET/PUT ops per cell, FDR \
         fabric, inline MTU {} B",
        args.mtu
    );
    println!(
        "{:>10} {:>8} {:>16} {:>12}   winner",
        "value B", "reads", "one-sided µs/op", "rpc µs/op"
    );
    let mut one_sided_wins = 0usize;
    let mut cells = 0usize;
    for &value in &args.sizes {
        for &ratio in &args.ratios {
            let read_pct = (ratio * 100.0).round() as usize;
            let one = kv_cell(Plane::OneSided, value, read_pct, args.mtu);
            let rpc = kv_cell(Plane::Rpc, value, read_pct, args.mtu);
            let us = 1e6 / OPS_PER_CELL as f64;
            let winner = if one < rpc { "one-sided" } else { "rpc" };
            if one < rpc {
                one_sided_wins += 1;
            }
            cells += 1;
            println!(
                "{value:>10} {read_pct:>7}% {:>16.3} {:>12.3}   {winner}",
                one * us,
                rpc * us
            );
        }
    }
    println!(
        "\none-sided wins {one_sided_wins}/{cells} cells: it dodges the server's \
         dispatch CPU on reads\nbut pays a second round trip per write (version \
         read-back) and per out-of-line\nvalue (pointer chase) — exactly the \
         selection guide's decision axes (DESIGN.md §11)."
    );
}

fn main() {
    let args = parse_args();
    part1(args.tuples);
    part2(args.tuples);
    part3(&args);
}
