//! The four pinned workloads: what each generates from the seed, the one
//! layer call a rep times, and how a rep's output is checked.
//!
//! All four are closed loops with one client: the driver issues the next
//! rep when the previous one has returned. Inputs are generated once per
//! set-up and copied for every rep outside the timed region; the product
//! crates only ever see generated inputs, never the seed.

use std::collections::HashSet;
use std::sync::Arc;

use rsj_cluster::{
    ClusterSpec, HealingConfig, JoinError, JoinRequest, QueryJob, QueryService, ServiceConfig,
    ServiceReport,
};
use rsj_core::{try_run_distributed_join, DistJoinConfig, DistJoinJob, DistJoinOutcome, Transport};
use rsj_operators::{
    AggregateResult, AggregationConfig, AggregationJob, CycloJoinConfig, CycloJoinJob,
    SortMergeConfig, SortMergeJob,
};
use rsj_workload::{
    generate_inner, generate_outer, ExpectedResult, JoinResult, Relation, Skew, Tuple, Tuple16,
};

use crate::host::Sensitivity;
use crate::scale::Scale;

/// A relation of the narrow 16-byte tuples every workload uses.
pub type Rel = Relation<Tuple16>;

/// Which of the four workloads.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Radix join on one simulated machine: no fabric traffic.
    JoinLocal,
    /// The paper's dataplane on four QDR machines.
    JoinRackTwoSided,
    /// The same inputs over the RDMA-READ probe dataplane.
    JoinRackOneSided,
    /// A mixed-operator batch through the query service.
    ServiceMixed,
}

/// A workload the benchmark can run; `BENCHMARK.json` says why each was
/// chosen.
pub struct Spec {
    /// Name on the command line and in every report.
    pub name: &'static str,
    /// Which workload.
    pub kind: Kind,
    /// How a rep's time follows the host's state. Fitted over reps that
    /// saw the host move, at the commit that defined the benchmark
    /// (README, "The host's state").
    pub sensitivity: Sensitivity,
}

/// The workloads, in the order a full run executes them.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "join_local",
        kind: Kind::JoinLocal,
        sensitivity: Sensitivity {
            core: 0.5,
            mem: 0.45,
        },
    },
    Spec {
        name: "join_rack_two_sided",
        kind: Kind::JoinRackTwoSided,
        sensitivity: Sensitivity {
            core: 0.9,
            mem: 0.4,
        },
    },
    Spec {
        name: "join_rack_one_sided",
        kind: Kind::JoinRackOneSided,
        sensitivity: Sensitivity {
            core: 0.9,
            mem: 0.8,
        },
    },
    Spec {
        name: "service_mixed",
        kind: Kind::ServiceMixed,
        sensitivity: Sensitivity {
            core: 0.75,
            mem: 0.95,
        },
    },
];

/// Look a workload up by name: its place in the run order, and the
/// workload.
pub fn find(name: &str) -> Option<(usize, &'static Spec)> {
    WORKLOADS.iter().enumerate().find(|(_, w)| w.name == name)
}

/// Paper tuple count (millions) of each side of the join workloads.
const JOIN_MILLIONS: u64 = 2048;
/// Scale divisor of `join_local`: 2M + 2M tuples.
const LOCAL_SCALE: u64 = 1024;
/// Scale divisor of the two rack joins: 0.25M + 0.25M tuples. Buffers are
/// floored at 64 B from scale 1024 up, so work per tuple is the same as at
/// smaller divisors; this one keeps a rep near 1-2 s so that a run of the
/// contract's length holds enough reps for a steady median.
const RACK_SCALE: u64 = 8192;
/// Machines of the rack joins.
const RACK_MACHINES: usize = 4;

/// Queries in the service batch.
pub const SERVICE_QUERIES: usize = 200;
const SERVICE_HOSTS: usize = 10;
const SERVICE_CORES: usize = 2;
const SERVICE_CONCURRENT: usize = 8;

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn copy_rel(rel: &Rel) -> Rel {
    Relation::from_chunks((0..rel.machines()).map(|m| rel.chunk(m).to_vec()).collect())
}

// ---------------------------------------------------------------------
// Join workloads
// ---------------------------------------------------------------------

/// Generated inputs of a join workload.
pub struct JoinData {
    /// The scaled configuration every rep runs under.
    pub cfg: DistJoinConfig,
    /// Scale divisor (virtual time x this = paper-equivalent seconds).
    pub scale: Scale,
    r: Rel,
    s: Rel,
    oracle: ExpectedResult,
}

/// One rep's private copy of the inputs.
pub struct JoinInput {
    /// Configuration.
    pub cfg: DistJoinConfig,
    /// Inner relation.
    pub r: Rel,
    /// Outer relation.
    pub s: Rel,
}

impl JoinData {
    fn generate(kind: Kind, seed: u64) -> JoinData {
        let (machines, scale, transport) = match kind {
            Kind::JoinLocal => (1, Scale(LOCAL_SCALE), Transport::TwoSided),
            Kind::JoinRackTwoSided => (RACK_MACHINES, Scale(RACK_SCALE), Transport::TwoSided),
            Kind::JoinRackOneSided => (RACK_MACHINES, Scale(RACK_SCALE), Transport::OneSided),
            Kind::ServiceMixed => unreachable!("not a join workload"),
        };
        let mut cfg = DistJoinConfig::new(ClusterSpec::qdr_cluster(machines));
        cfg.probe_transport = transport;
        let cfg = scale.scale_config(cfg, 2 * JOIN_MILLIONS);
        let n = scale.tuples(JOIN_MILLIONS);
        let r = generate_inner::<Tuple16>(n, machines, splitmix64(seed ^ 0xA11CE));
        let (s, oracle) =
            generate_outer::<Tuple16>(n, n, machines, Skew::None, splitmix64(seed ^ 0xB0B));
        JoinData {
            cfg,
            scale,
            r,
            s,
            oracle,
        }
    }

    /// A fresh copy of the inputs for one rep.
    pub fn input(&self) -> JoinInput {
        JoinInput {
            cfg: self.cfg.clone(),
            r: copy_rel(&self.r),
            s: copy_rel(&self.s),
        }
    }

    /// The same inputs over the other probe dataplane (the reference rep
    /// `join_rack_one_sided` compares its `JoinResult` with).
    pub fn input_over(&self, transport: Transport) -> JoinInput {
        let mut input = self.input();
        input.cfg.probe_transport = transport;
        input
    }

    /// Whether `result` is what the generator says the join must produce.
    pub fn matches_oracle(&self, result: &JoinResult) -> bool {
        result.matches == self.oracle.matches && result.s_key_sum == self.oracle.s_key_sum
    }

    /// Bytes of each relation at paper scale.
    pub fn paper_bytes_per_side(&self) -> f64 {
        JOIN_MILLIONS as f64 * 1e6 * Tuple16::SIZE as f64
    }
}

// ---------------------------------------------------------------------
// The service batch (frozen from `rsj_bench::service_stress::stress_batch`)
// ---------------------------------------------------------------------

/// Operator of one query; rotates with the query id.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Op {
    /// Distributed radix hash join.
    Radix,
    /// Distributed sort-merge join.
    SortMerge,
    /// Distributed group-by aggregation.
    Aggregation,
    /// Ring-topology cyclo-join.
    Cyclo,
}

enum Expect {
    Join(ExpectedResult),
    Aggregate(AggregateResult),
}

struct QueryData {
    id: u32,
    op: Op,
    machines: usize,
    r: Option<Rel>,
    s: Rel,
    expect: Expect,
}

/// Generated inputs of `service_mixed`.
pub struct ServiceData {
    cfg: ServiceConfig,
    queries: Vec<QueryData>,
}

enum Handle {
    Radix(Arc<DistJoinJob<Tuple16>>),
    SortMerge(Arc<SortMergeJob<Tuple16>>),
    Aggregation(Arc<AggregationJob<Tuple16>>),
    Cyclo(Arc<CycloJoinJob<Tuple16>>),
}

/// One rep's fresh requests, plus the handles their outcomes are read
/// back through.
pub struct ServiceInput {
    cfg: ServiceConfig,
    requests: Vec<JoinRequest>,
    handles: Vec<Handle>,
}

impl ServiceInput {
    /// Replace every request's job with `wrap(job)` (the traced pass
    /// wraps jobs to read their lane NICs).
    pub fn wrap_jobs(&mut self, wrap: impl Fn(Arc<dyn QueryJob>) -> Arc<dyn QueryJob>) {
        for req in &mut self.requests {
            req.job = wrap(Arc::clone(&req.job));
        }
    }

    /// The arguments of `QueryService::run`, and the handles to check the
    /// outcomes through.
    pub fn into_parts(self) -> (ServiceConfig, Vec<JoinRequest>, ServiceHandles) {
        (self.cfg, self.requests, ServiceHandles(self.handles))
    }
}

fn service_spec(machines: usize) -> ClusterSpec {
    let mut spec = ClusterSpec::qdr_cluster(machines);
    spec.cores_per_machine = SERVICE_CORES;
    spec
}

/// What the aggregation must produce over `s`: `AggregateResult` documents
/// each field as a function of the input alone.
fn aggregate_oracle(s: &Rel) -> AggregateResult {
    let mut keys = HashSet::new();
    let mut out = AggregateResult::default();
    for t in s.iter_all() {
        keys.insert(t.key());
        out.key_weighted_count = out.key_weighted_count.wrapping_add(t.key());
        out.rid_sum = out.rid_sum.wrapping_add(t.rid());
    }
    out.groups = keys.len() as u64;
    out
}

/// Seed of the batch's shape. `--seed` changes the tuples of every query
/// but not which queries are asked: the shapes below make a batch's work
/// differ by a tenth from one draw to the next, which would be read as
/// noise between runs at different seeds.
const SHAPE_SEED: u64 = 1;

/// Query `id` of the batch: the operator rotates through all four kinds
/// while machine count (2-5), inner size (1-4 k), outer multiple (2-4x)
/// and skew (none / Zipf 1.05 / Zipf 1.2) are drawn from the query's own
/// `(SHAPE_SEED, id)` stream, and its tuples from its `(seed, id)` stream.
fn generate_query(id: u32, seed: u64) -> QueryData {
    let stream = |seed: u64| splitmix64(seed ^ (id as u64).wrapping_mul(0xA5A5_5A5A_5A5A_A5A5));
    let rng = stream(SHAPE_SEED);
    let machines = 2 + (rng % (SERVICE_HOSTS.min(5) as u64 - 1)) as usize;
    let inner = 1_000 + (splitmix64(rng) % 4) * 1_000;
    let outer = inner * (2 + splitmix64(rng ^ 1) % 3);
    let skew = match splitmix64(rng ^ 2) % 3 {
        0 => Skew::None,
        1 => Skew::Zipf(1.05),
        _ => Skew::Zipf(1.2),
    };
    let gen_seed = splitmix64(stream(seed) ^ 3);
    let op = [Op::Radix, Op::SortMerge, Op::Aggregation, Op::Cyclo][id as usize % 4];
    let (r, s, expect) = match op {
        Op::Radix | Op::SortMerge => {
            let r = generate_inner::<Tuple16>(inner, machines, gen_seed);
            let (s, o) = generate_outer::<Tuple16>(outer, inner, machines, skew, gen_seed + 1);
            (Some(r), s, Expect::Join(o))
        }
        Op::Aggregation => {
            let (s, _) = generate_outer::<Tuple16>(outer, 500, machines, skew, gen_seed);
            let expect = Expect::Aggregate(aggregate_oracle(&s));
            (None, s, expect)
        }
        Op::Cyclo => {
            let r = generate_inner::<Tuple16>(inner, machines, gen_seed);
            let (s, o) =
                generate_outer::<Tuple16>(outer, inner, machines, Skew::None, gen_seed + 1);
            (Some(r), s, Expect::Join(o))
        }
    };
    QueryData {
        id,
        op,
        machines,
        r,
        s,
        expect,
    }
}

impl QueryData {
    fn request(&self) -> (JoinRequest, Handle) {
        let spec = service_spec(self.machines);
        let r = || {
            copy_rel(
                self.r
                    .as_ref()
                    .expect("join queries carry an inner relation"),
            )
        };
        let s = copy_rel(&self.s);
        let (label, job, handle): (&str, Arc<dyn QueryJob>, Handle) = match self.op {
            Op::Radix => {
                let mut cfg = DistJoinConfig::new(spec);
                cfg.radix_bits = (4, 2);
                cfg.rdma_buf_size = 1024;
                let job = DistJoinJob::new(cfg, r(), s);
                ("radix", Arc::clone(&job) as _, Handle::Radix(job))
            }
            Op::SortMerge => {
                let mut cfg = SortMergeConfig::new(spec);
                cfg.radix_bits = 4;
                cfg.rdma_buf_size = 1024;
                let job = SortMergeJob::new(cfg, r(), s);
                ("sortmerge", Arc::clone(&job) as _, Handle::SortMerge(job))
            }
            Op::Aggregation => {
                let mut cfg = AggregationConfig::new(spec);
                cfg.radix_bits = 4;
                cfg.rdma_buf_size = 1024;
                let job = AggregationJob::new(cfg, s);
                (
                    "aggregation",
                    Arc::clone(&job) as _,
                    Handle::Aggregation(job),
                )
            }
            Op::Cyclo => {
                let job = CycloJoinJob::new(CycloJoinConfig::new(spec), r(), s);
                ("cyclo", Arc::clone(&job) as _, Handle::Cyclo(job))
            }
        };
        let req = JoinRequest {
            label: format!("{label}-{}", self.id),
            id: Some(self.id),
            placement: None,
            job,
        };
        (req, handle)
    }

    fn tuples(&self) -> u64 {
        self.r.as_ref().map_or(0, Rel::total_tuples) + self.s.total_tuples()
    }

    /// Whether the finished job behind `handle` recorded the expected
    /// result.
    fn verified(&self, handle: &Handle) -> bool {
        let join = |res: Option<JoinResult>| match (&self.expect, res) {
            (Expect::Join(o), Some(res)) => {
                res.matches == o.matches && res.s_key_sum == o.s_key_sum
            }
            _ => false,
        };
        match handle {
            Handle::Radix(job) => join(job.take_outcome().map(|o| o.result)),
            Handle::SortMerge(job) => join(job.take_outcome().map(|o| o.result)),
            Handle::Cyclo(job) => join(job.take_outcome().map(|o| o.result)),
            Handle::Aggregation(job) => match (&self.expect, job.take_outcome()) {
                (Expect::Aggregate(want), Some(out)) => out.result == *want,
                _ => false,
            },
        }
    }
}

impl ServiceData {
    fn generate(seed: u64) -> ServiceData {
        let mut cfg = ServiceConfig::qdr_rack(SERVICE_HOSTS, SERVICE_CORES);
        cfg.max_concurrent = SERVICE_CONCURRENT;
        cfg.healing = HealingConfig::armed();
        ServiceData {
            cfg,
            queries: (1..=SERVICE_QUERIES as u32)
                .map(|id| generate_query(id, seed))
                .collect(),
        }
    }

    fn input(&self) -> ServiceInput {
        let (requests, handles) = self.queries.iter().map(QueryData::request).unzip();
        ServiceInput {
            cfg: self.cfg.clone(),
            requests,
            handles,
        }
    }

    /// Input tuples per operator (the attribution table prices each
    /// operator's passes separately).
    pub fn tuples_by_op(&self) -> [(Op, u64, usize); 4] {
        [Op::Radix, Op::SortMerge, Op::Aggregation, Op::Cyclo].map(|op| {
            let of_op = self.queries.iter().filter(|q| q.op == op);
            let tuples: u64 = of_op.clone().map(QueryData::tuples).sum();
            let machine_weighted: u64 = of_op.map(|q| q.tuples() * q.machines as u64).sum();
            (
                op,
                tuples,
                (machine_weighted / tuples.max(1)).max(1) as usize,
            )
        })
    }
}

// ---------------------------------------------------------------------
// The common surface the driver measures through
// ---------------------------------------------------------------------

/// Generated inputs of any workload.
pub enum Data {
    /// One of the three join workloads.
    Join(JoinData),
    /// `service_mixed`.
    Service(ServiceData),
}

/// One rep's inputs, ready for the timed call.
pub enum Input {
    /// Join inputs.
    Join(JoinInput),
    /// Service requests.
    Service(ServiceInput),
}

/// What the timed call returned, unchecked.
pub enum Raw {
    /// `try_run_distributed_join`'s return value.
    Join(Result<DistJoinOutcome, JoinError>),
    /// `QueryService::run`'s report and the job handles.
    Service(ServiceReport, ServiceHandles),
}

/// The job handles of one service rep (opaque outside this module).
pub struct ServiceHandles(Vec<Handle>);

impl Raw {
    /// The join's result, if this is a join rep that returned one.
    pub fn join_result(&self) -> Option<JoinResult> {
        match self {
            Raw::Join(Ok(out)) => Some(out.result),
            _ => None,
        }
    }
}

/// A checked rep. Virtual times are integer nanoseconds of the scaled
/// run, compared exactly between reps.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Checked {
    /// Virtual nanoseconds of the rep: all phases of a join, the makespan
    /// of a batch.
    pub virtual_ns: u64,
    /// Median virtual query latency (a join rep is a batch of one query).
    pub query_p50_ns: u64,
    /// 95th-percentile virtual query latency.
    pub query_p95_ns: u64,
    /// Operations attempted: 1 per join rep, 1 per query of a batch.
    pub attempted: u64,
    /// Operations that returned `Err`, were rejected, or mismatched their
    /// oracle.
    pub failed: u64,
}

impl Data {
    /// Generate the workload's inputs and oracle from `seed`.
    pub fn generate(spec: &Spec, seed: u64) -> Data {
        match spec.kind {
            Kind::ServiceMixed => Data::Service(ServiceData::generate(seed)),
            kind => Data::Join(JoinData::generate(kind, seed)),
        }
    }

    /// A fresh copy of the inputs (fresh `Relation`s, fresh
    /// `JoinRequest`s) for one rep.
    pub fn input(&self) -> Input {
        match self {
            Data::Join(d) => Input::Join(d.input()),
            Data::Service(d) => Input::Service(d.input()),
        }
    }

    /// Input tuples of one rep: R plus S, summed over queries for a batch.
    pub fn tuples(&self) -> u64 {
        match self {
            Data::Join(d) => d.r.total_tuples() + d.s.total_tuples(),
            Data::Service(d) => d.queries.iter().map(QueryData::tuples).sum(),
        }
    }

    /// Queries one rep submits.
    pub fn queries(&self) -> u64 {
        match self {
            Data::Join(_) => 1,
            Data::Service(d) => d.queries.len() as u64,
        }
    }

    /// Factor from the rep's virtual nanoseconds to reported virtual
    /// seconds: paper-equivalent for the scaled joins, as simulated for
    /// the batch (which runs unscaled).
    pub fn virtual_seconds(&self, ns: u64) -> f64 {
        let factor = match self {
            Data::Join(d) => d.scale.0 as f64,
            Data::Service(_) => 1.0,
        };
        ns as f64 * 1e-9 * factor
    }

    /// Check a rep's output against the oracle (after the clock stopped).
    pub fn check(&self, raw: Raw) -> Checked {
        match (self, raw) {
            (Data::Join(d), Raw::Join(res)) => {
                let (virtual_ns, ok) = match res {
                    Ok(out) => (out.phases.total().as_nanos(), d.matches_oracle(&out.result)),
                    Err(_) => (0, false),
                };
                Checked {
                    virtual_ns,
                    query_p50_ns: virtual_ns,
                    query_p95_ns: virtual_ns,
                    attempted: 1,
                    failed: u64::from(!ok),
                }
            }
            (Data::Service(d), Raw::Service(report, handles)) => {
                let failed = d
                    .queries
                    .iter()
                    .zip(&handles.0)
                    .filter(|(q, handle)| {
                        let finished = report
                            .queries
                            .iter()
                            .find(|r| r.id.0 == q.id)
                            .is_some_and(|r| r.result.is_ok() && r.rejected.is_none());
                        // Always read the outcome back so a failed query's
                        // job does not keep it alive.
                        !(q.verified(handle) && finished)
                    })
                    .count() as u64;
                Checked {
                    virtual_ns: report.makespan.as_nanos(),
                    query_p50_ns: report.latency_p50.as_nanos(),
                    query_p95_ns: report.latency_p95.as_nanos(),
                    attempted: d.queries.len() as u64,
                    failed,
                }
            }
            _ => unreachable!("a rep's output comes from its own workload's input"),
        }
    }
}

/// The timed region of a rep: exactly one call into the layer under test.
pub fn run(input: Input) -> Raw {
    match input {
        Input::Join(i) => Raw::Join(try_run_distributed_join(i.cfg, i.r, i.s)),
        Input::Service(i) => {
            let (cfg, requests, handles) = i.into_parts();
            Raw::Service(QueryService::run(&cfg, requests), handles)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(rel: &Rel) -> Vec<u64> {
        rel.iter_all().map(|t| t.key()).collect()
    }

    #[test]
    fn a_different_seed_changes_the_generated_inputs() {
        let join = |seed| match Data::generate(&WORKLOADS[1], seed) {
            Data::Join(d) => (keys(&d.r), keys(&d.s)),
            Data::Service(_) => unreachable!(),
        };
        let (r1, s1) = join(1);
        assert_eq!((r1.clone(), s1.clone()), join(1), "same seed, same inputs");
        let (r2, s2) = join(2);
        assert!(r1 != r2 && s1 != s2);
        assert_eq!(r1.len(), 250_000);

        let batch = |seed| match Data::generate(&WORKLOADS[3], seed) {
            Data::Service(d) => d
                .queries
                .iter()
                .map(|q| (q.machines, keys(&q.s)))
                .collect::<Vec<_>>(),
            Data::Join(_) => unreachable!(),
        };
        assert_eq!(batch(1), batch(1));
        assert_ne!(batch(1), batch(2));
    }

    #[test]
    fn the_batch_rotates_all_four_operators_over_two_to_five_machines() {
        let Data::Service(d) = Data::generate(&WORKLOADS[3], 1) else {
            unreachable!()
        };
        assert_eq!(d.queries.len(), SERVICE_QUERIES);
        for (op, tuples, machines) in d.tuples_by_op() {
            assert!(tuples > 0, "{op:?} has no input");
            assert!((2..=5).contains(&machines));
        }
        assert!(d.queries.iter().all(|q| (2..=5).contains(&q.machines)));
    }

    /// The frozen generator must keep reproducing the virtual numbers
    /// probed at the commit that defined the benchmark: a drift here means
    /// either the generator or the cost model changed.
    #[test]
    fn service_batch_at_seed_1_reproduces_the_probed_virtual_numbers() {
        let data = Data::generate(&WORKLOADS[3], 1);
        let checked = data.check(run(data.input()));
        assert_eq!(checked.failed, 0);
        assert_eq!(checked.attempted, SERVICE_QUERIES as u64);
        assert_eq!((checked.virtual_ns as f64 / 1e3).round() / 1e3, 10.259);
        assert_eq!((checked.query_p50_ns as f64 / 1e3).round() / 1e3, 5.320);
    }

    #[test]
    fn a_wrong_result_is_counted_not_panicked_on() {
        let Data::Join(d) = Data::generate(&WORKLOADS[1], 3) else {
            unreachable!()
        };
        let good = JoinResult {
            matches: d.oracle.matches,
            s_key_sum: d.oracle.s_key_sum,
        };
        assert!(d.matches_oracle(&good));
        let bad = JoinResult {
            matches: good.matches - 1,
            ..good
        };
        assert!(!d.matches_oracle(&bad));
    }
}
