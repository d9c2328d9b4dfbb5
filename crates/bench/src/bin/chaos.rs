//! Seeded chaos harness (DESIGN.md §8): sweep deterministic fault
//! schedules across every distributed operator and check the recovery
//! contract — each run completes byte-correct or aborts with a
//! structured error, and replaying a seed reproduces the identical
//! outcome. A hang is the one forbidden outcome; ci.sh runs this binary
//! under a global watchdog timeout so a wedged schedule fails the build
//! instead of stalling it.
//!
//! ```text
//! chaos --chaos-seed 42            # one seed, all operators
//! chaos --seeds 32 --machines 4    # sweep seeds 0..32 on 4 machines
//! chaos --soak                     # 200-query healing soak (--short: 24)
//! ```
//!
//! `--soak` drives the self-healing [`QueryService`] (DESIGN.md §13)
//! instead of single direct runs: a large mixed batch over a rack with
//! scheduled host crashes, healing armed. The contract is stricter than
//! the per-operator sweep — every query must end `Completed`
//! (byte-correct vs its oracle) or typed `Rejected`, never hung and never
//! aborted untyped, and the whole service report must replay
//! byte-identically from the seed.

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

use std::sync::Arc;

use rsj_cluster::{ClusterSpec, HealingConfig, JoinRequest, QueryService, ServiceConfig};
use rsj_core::{try_run_distributed_join, DistJoinConfig, DistJoinJob, JoinError};
use rsj_operators::{
    try_run_aggregation, try_run_cyclo_join, try_run_sort_merge_join, AggregationConfig,
    CycloJoinConfig, SortMergeConfig,
};
use rsj_rdma::{FaultPlan, HostCrash, HostId};
use rsj_sim::SimTime;
use rsj_workload::{generate_inner, generate_outer, ExpectedResult, Skew, Tuple16};

struct Opts {
    seed: Option<u64>,
    seeds: u64,
    machines: usize,
    operator: String,
    soak: bool,
    short: bool,
}

impl Opts {
    fn parse(args: Vec<String>) -> Opts {
        let mut o = Opts {
            seed: None,
            seeds: 16,
            machines: 3,
            operator: "all".to_string(),
            soak: false,
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
                "--chaos-seed" => {
                    o.seed = Some(parse_u64(&need(i)));
                    i += 1;
                }
                "--seeds" => {
                    o.seeds = parse_u64(&need(i));
                    i += 1;
                }
                "--machines" => {
                    o.machines = parse_u64(&need(i)) as usize;
                    i += 1;
                }
                "--operator" => {
                    o.operator = need(i);
                    i += 1;
                }
                "--soak" => o.soak = true,
                "--short" => o.short = true,
                other => die(&format!("unknown flag {other}")),
            }
            i += 1;
        }
        if o.machines < 2 {
            die("--machines must be at least 2 (faults need a peer to notice)");
        }
        if o.seeds == 0 {
            die("--seeds must be at least 1 (a sweep over no seeds checks nothing)");
        }
        // The soak is one fixed batch: a sweep flag given with it would be
        // silently ignored, and a typo in a CI lane should fail, not pass.
        if o.soak {
            for flag in ["--seeds", "--machines", "--operator"] {
                if args.iter().any(|a| a == flag) {
                    die(&format!("{flag} does not apply to --soak"));
                }
            }
        }
        o
    }
}

fn parse_u64(s: &str) -> u64 {
    s.parse()
        .unwrap_or_else(|_| die(&format!("not a number: {s}")))
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: chaos [--chaos-seed N] [--seeds K] [--machines M] \
         [--operator hash|sortmerge|aggregation|cyclo|all] \
         | chaos --soak [--short] [--chaos-seed N]"
    );
    std::process::exit(2)
}

/// One query's replay-comparable outcome in a soak run.
#[derive(PartialEq, Debug)]
struct SoakLine {
    id: u32,
    attempts: u32,
    completed_ns: u64,
    outcome: Result<(u64, u64), String>,
}

/// Crash/recovery soak through the self-healing service: `queries` small
/// radix joins rotated over a `hosts`-machine rack while the fault plan
/// fail-stops two distinct hosts mid-batch. Returns the per-query
/// fingerprint plus the batch-level healing counters.
fn soak_run(seed: u64, hosts: usize, queries: usize) -> (Vec<SoakLine>, usize, usize, usize) {
    let c1 = (seed as usize) % hosts;
    let c2 = {
        let c = (seed as usize / 3 + hosts / 2) % hosts;
        if c == c1 {
            (c + 1) % hosts
        } else {
            c
        }
    };
    let mut plan = FaultPlan::fault_free();
    plan.seed = seed;
    plan.crashes = vec![
        HostCrash {
            host: HostId(c1),
            at: SimTime::from_nanos(200_000),
        },
        HostCrash {
            host: HostId(c2),
            at: SimTime::from_nanos(1_000_000),
        },
    ];

    let mut oracles: Vec<ExpectedResult> = Vec::new();
    let mut jobs: Vec<Arc<DistJoinJob<Tuple16>>> = Vec::new();
    let mut requests = Vec::new();
    for q in 0..queries {
        let m = 2 + (q % 2);
        let jseed = seed.wrapping_mul(1_000).wrapping_add(q as u64 * 2);
        let r = generate_inner::<Tuple16>(2_000, m, jseed);
        let (s, oracle) = generate_outer::<Tuple16>(6_000, 2_000, m, Skew::None, jseed + 1);
        let mut cfg = DistJoinConfig::new(ClusterSpec::fdr_cluster(m));
        cfg.cluster.cores_per_machine = 2;
        cfg.radix_bits = (4, 2);
        cfg.rdma_buf_size = 1024;
        let job = DistJoinJob::new(cfg, r, s);
        oracles.push(oracle);
        jobs.push(Arc::clone(&job));
        requests.push(JoinRequest {
            label: format!("soak-{q}"),
            id: None,
            placement: None,
            job,
        });
    }

    let mut cfg = ServiceConfig::qdr_rack(hosts, 2);
    cfg.max_concurrent = 4;
    cfg.fault_plan = Some(plan);
    cfg.healing = HealingConfig::armed();
    let report = QueryService::run(&cfg, requests);

    assert_eq!(report.queries.len(), queries, "a query went missing");
    let mut lines = Vec::new();
    for q in &report.queries {
        let idx = (q.id.0 - 1) as usize;
        let outcome = match &q.result {
            Ok(()) => {
                let out = jobs[idx]
                    .take_outcome()
                    .expect("completed query has an outcome");
                // Byte-correct or bust: a healed re-execution must land on
                // the same result a fault-free run would have produced.
                oracles[idx].verify(&out.result);
                Ok((out.result.matches, out.result.s_key_sum))
            }
            Err(e) => {
                let reason = q
                    .rejected
                    .as_ref()
                    .unwrap_or_else(|| panic!("query {} aborted untyped: {e}", q.id.0));
                Err(format!("{reason}"))
            }
        };
        lines.push(SoakLine {
            id: q.id.0,
            attempts: q.attempts,
            completed_ns: q.completed.as_nanos(),
            outcome,
        });
    }
    (lines, report.healed, report.retries, report.rejected)
}

fn soak(opts: &Opts) -> ! {
    let hosts = 6;
    let queries = if opts.short { 24 } else { 200 };
    let seed = opts.seed.unwrap_or(42);
    let (first, healed, retries, rejected) = soak_run(seed, hosts, queries);
    let (again, ..) = soak_run(seed, hosts, queries);
    let completed = first.iter().filter(|l| l.outcome.is_ok()).count();
    println!(
        "chaos --soak: seed {seed}, {hosts} hosts, {queries} queries: \
         {completed} completed byte-correct, {rejected} rejected typed, \
         {healed} healed across {retries} re-admission(s)"
    );
    if healed == 0 {
        eprintln!("error: the crash schedule touched no query — the soak proved nothing");
        std::process::exit(1);
    }
    if first != again {
        eprintln!("error: the soak report did not replay byte-identically");
        std::process::exit(1);
    }
    std::process::exit(0)
}

/// Outcome fingerprint: completed runs collapse to verified counters so
/// two runs of one seed can be compared for replay identity.
type Fingerprint = Result<(u64, u64), JoinError>;
type Runner = fn(usize, FaultPlan) -> Fingerprint;

fn hash_join(machines: usize, plan: FaultPlan) -> Fingerprint {
    let r = generate_inner::<Tuple16>(30_000, machines, 9001);
    let (s, oracle) = generate_outer::<Tuple16>(90_000, 30_000, machines, Skew::Zipf(1.05), 9002);
    let mut cfg = DistJoinConfig::new(ClusterSpec::fdr_cluster(machines));
    cfg.cluster.cores_per_machine = 2;
    cfg.radix_bits = (4, 3);
    cfg.rdma_buf_size = 1024;
    cfg.fault_plan = Some(plan);
    try_run_distributed_join(cfg, r, s).map(|out| {
        oracle.verify(&out.result);
        (out.result.matches, out.result.s_key_sum)
    })
}

fn sort_merge(machines: usize, plan: FaultPlan) -> Fingerprint {
    let r = generate_inner::<Tuple16>(20_000, machines, 9003);
    let (s, oracle) = generate_outer::<Tuple16>(60_000, 20_000, machines, Skew::None, 9004);
    let mut spec = ClusterSpec::fdr_cluster(machines);
    spec.cores_per_machine = 3;
    let mut cfg = SortMergeConfig::new(spec);
    cfg.radix_bits = 4;
    cfg.rdma_buf_size = 1024;
    cfg.fault_plan = Some(plan);
    try_run_sort_merge_join(cfg, r, s).map(|out| {
        oracle.verify(&out.result);
        (out.result.matches, out.result.s_key_sum)
    })
}

fn aggregation(machines: usize, plan: FaultPlan) -> Fingerprint {
    let (s, _) = generate_outer::<Tuple16>(60_000, 2_000, machines, Skew::Zipf(1.1), 9005);
    let mut spec = ClusterSpec::fdr_cluster(machines);
    spec.cores_per_machine = 3;
    let mut cfg = AggregationConfig::new(spec);
    cfg.radix_bits = 4;
    cfg.rdma_buf_size = 1024;
    cfg.fault_plan = Some(plan);
    try_run_aggregation(cfg, s).map(|out| (out.result.groups, out.result.rid_sum))
}

fn cyclo(machines: usize, plan: FaultPlan) -> Fingerprint {
    let r = generate_inner::<Tuple16>(5_000, machines, 9006);
    let (s, oracle) = generate_outer::<Tuple16>(60_000, 5_000, machines, Skew::None, 9007);
    let mut spec = ClusterSpec::fdr_cluster(machines);
    spec.cores_per_machine = 2;
    let mut cfg = CycloJoinConfig::new(spec);
    cfg.fault_plan = Some(plan);
    try_run_cyclo_join(cfg, r, s).map(|out| {
        oracle.verify(&out.result);
        (out.result.matches, out.result.s_key_sum)
    })
}

fn main() {
    let opts = Opts::parse(std::env::args().skip(1).collect());
    if opts.soak {
        soak(&opts);
    }
    let all: Vec<(&str, Runner)> = vec![
        ("hash", hash_join),
        ("sortmerge", sort_merge),
        ("aggregation", aggregation),
        ("cyclo", cyclo),
    ];
    let ops: Vec<_> = match opts.operator.as_str() {
        "all" => all,
        name => {
            let hit: Vec<_> = all.into_iter().filter(|(n, _)| *n == name).collect();
            if hit.is_empty() {
                die(&format!("unknown operator {name}"));
            }
            hit
        }
    };
    let seeds: Vec<u64> = match opts.seed {
        Some(s) => vec![s],
        None => (0..opts.seeds).collect(),
    };

    let mut completed = 0u64;
    let mut aborted = 0u64;
    let mut broken = 0u64;
    for &seed in &seeds {
        let plan = FaultPlan::chaos(seed, opts.machines);
        let mut armed = Vec::new();
        if !plan.link_flaps.is_empty() {
            armed.push("flap");
        }
        if !plan.nic_stalls.is_empty() {
            armed.push("stall");
        }
        if !plan.crashes.is_empty() {
            armed.push("crash");
        }
        for (name, run) in &ops {
            let first = run(opts.machines, plan.clone());
            let again = run(opts.machines, plan.clone());
            let replayed = first == again;
            if !replayed {
                broken += 1;
            }
            let verdict = match &first {
                Ok((a, b)) => {
                    completed += 1;
                    format!("ok ({a}, {b})")
                }
                Err(e) => {
                    aborted += 1;
                    format!("abort: {e}")
                }
            };
            println!(
                "seed {seed:>4} {name:<12} drop {:>2}‰ [{}] -> {verdict}{}",
                plan.drop_per_mille,
                armed.join("+"),
                if replayed { "" } else { "  REPLAY MISMATCH" }
            );
        }
    }
    println!(
        "chaos: {} run(s): {completed} completed byte-correct, {aborted} aborted clean, \
         {broken} replay mismatch(es)",
        completed + aborted
    );
    if broken > 0 {
        eprintln!("error: some seeds did not replay deterministically");
        std::process::exit(1);
    }
}
