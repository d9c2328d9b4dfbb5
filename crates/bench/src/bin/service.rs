//! Multi-query service stress scenario (DESIGN.md §9): queue hundreds of
//! joins — all four operators, mixed sizes and skews — into the
//! [`QueryService`] on a ten-host rack and report tail latency, queue
//! wait and fabric utilization. The run is fully deterministic: the
//! workload is derived from `--seed` and every query's virtual-time
//! trace depends only on `(seed, QueryId)`, never on host scheduling.
//!
//! ```text
//! service                      # 200 queries, 10 hosts, 4 concurrent
//! service --short              # 24-query smoke run for CI
//! service --queries 500 --max-concurrent 8 --seed 7
//! ```

#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_types,
        clippy::unwrap_used,
        clippy::iter_over_hash_type,
        clippy::let_underscore_must_use,
        clippy::unused_result_ok,
        unused_must_use
    )
)]

use rsj_bench::service_stress::stress_batch;
use rsj_cluster::{QueryService, ServiceConfig};
use rsj_sim::SimDuration;

struct Opts {
    queries: usize,
    hosts: usize,
    cores: usize,
    max_concurrent: usize,
    seed: u64,
    short: bool,
}

impl Opts {
    fn parse(args: Vec<String>) -> Opts {
        let mut o = Opts {
            queries: 200,
            hosts: 10,
            cores: 2,
            max_concurrent: 4,
            seed: 1,
            short: false,
        };
        let mut i = 0;
        while i < args.len() {
            let need = |i: usize| {
                args.get(i + 1)
                    .cloned()
                    .unwrap_or_else(|| die(&format!("{} needs a value", args[i])))
            };
            match args[i].as_str() {
                "--queries" => {
                    o.queries = parse_positive(&args[i], &need(i));
                    i += 1;
                }
                "--hosts" => {
                    o.hosts = parse_u64(&need(i)) as usize;
                    i += 1;
                }
                "--cores" => {
                    o.cores = parse_positive(&args[i], &need(i));
                    i += 1;
                }
                "--max-concurrent" => {
                    o.max_concurrent = parse_positive(&args[i], &need(i));
                    i += 1;
                }
                "--seed" => {
                    o.seed = parse_u64(&need(i));
                    i += 1;
                }
                "--short" => o.short = true,
                other => die(&format!("unknown flag {other}")),
            }
            i += 1;
        }
        if o.short {
            o.queries = o.queries.min(24);
        }
        if o.hosts < 3 {
            die("--hosts must be at least 3 (the batch places up to 5-machine queries)");
        }
        o
    }
}

fn parse_u64(s: &str) -> u64 {
    s.parse()
        .unwrap_or_else(|_| die(&format!("not a number: {s}")))
}

fn parse_positive(flag: &str, s: &str) -> usize {
    s.parse()
        .ok()
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| die(&format!("{flag} needs a positive integer")))
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: service [--queries N] [--hosts H] [--cores C] \
         [--max-concurrent K] [--seed S] [--short]"
    );
    std::process::exit(2)
}

fn ms(d: SimDuration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn main() {
    let opts = Opts::parse(std::env::args().skip(1).collect());
    let mut cfg = ServiceConfig::qdr_rack(opts.hosts, opts.cores);
    cfg.max_concurrent = opts.max_concurrent;

    let batch = stress_batch(opts.queries, opts.seed, opts.hosts, opts.cores);
    println!(
        "service: {} queries, {} hosts x {} cores, {} concurrent, seed {}",
        opts.queries, opts.hosts, opts.cores, opts.max_concurrent, opts.seed
    );
    let mut batch = batch;
    let requests = std::mem::take(&mut batch.requests);
    let report = QueryService::run(&cfg, requests);

    // Every query must complete (no fault plan) with the oracle's answer.
    assert_eq!(report.aborted, 0, "fault-free batch must not abort");
    let verified = batch.verify_all();
    assert_eq!(verified, opts.queries);

    println!(
        "  makespan        {:>10.3} ms  (virtual)",
        ms(report.makespan)
    );
    println!(
        "  latency         p50 {:>8.3} ms   p95 {:>8.3} ms   p99 {:>8.3} ms",
        ms(report.latency_p50),
        ms(report.latency_p95),
        ms(report.latency_p99)
    );
    println!(
        "  queue wait      p50 {:>8.3} ms   p95 {:>8.3} ms   p99 {:>8.3} ms",
        ms(report.queue_wait_p50),
        ms(report.queue_wait_p95),
        ms(report.queue_wait_p99)
    );
    println!(
        "  fabric util     {:>10.3} %   ({} hosts busy-share over the makespan)",
        report.fabric_utilization * 100.0,
        opts.hosts
    );
    println!(
        "  completed       {:>10}      all verified against generator oracles",
        report.completed()
    );
}
