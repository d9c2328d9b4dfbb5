//! The multi-query stress workload (DESIGN.md §9): a deterministic batch
//! of mixed joins for the [`QueryService`] — all four operators, sizes,
//! skews and machine counts drawn from each query's own `(seed, id)`
//! stream. Drives the `service` stress binary.
//!
//! [`QueryService`]: rsj_cluster::QueryService

use std::sync::Arc;

use rsj_cluster::{ClusterSpec, JoinRequest, QueryJob};
use rsj_core::{DistJoinConfig, DistJoinJob};
use rsj_operators::{
    AggregationConfig, AggregationJob, CycloJoinConfig, CycloJoinJob, SortMergeConfig, SortMergeJob,
};
use rsj_rdma::splitmix64;
use rsj_workload::{generate_inner, generate_outer, ExpectedResult, Skew, Tuple16};

/// One query's job handle plus its expected answer, checked after the
/// batch drains.
enum Verifier {
    Join(Arc<DistJoinJob<Tuple16>>, ExpectedResult),
    SortMerge(Arc<SortMergeJob<Tuple16>>, ExpectedResult),
    Aggregation(Arc<AggregationJob<Tuple16>>),
    Cyclo(Arc<CycloJoinJob<Tuple16>>, ExpectedResult),
}

impl Verifier {
    fn verify(&self) {
        match self {
            Verifier::Join(job, o) => o.verify(&job.take_outcome().expect("radix outcome").result),
            Verifier::SortMerge(job, o) => {
                o.verify(&job.take_outcome().expect("sortmerge outcome").result)
            }
            Verifier::Aggregation(job) => {
                let out = job.take_outcome().expect("aggregation outcome");
                assert!(out.result.groups > 0, "aggregation produced no groups");
            }
            Verifier::Cyclo(job, o) => o.verify(&job.take_outcome().expect("cyclo outcome").result),
        }
    }
}

/// A deterministic stress batch: `requests` to feed the service plus the
/// matching per-query verifiers.
pub struct StressBatch {
    /// The admission-queue requests, in submission order.
    pub requests: Vec<JoinRequest>,
    verifiers: Vec<Verifier>,
}

impl StressBatch {
    /// Check every query's outcome against its generator oracle; returns
    /// the number of queries verified. Panics on any mismatch or missing
    /// outcome, so a fault-free batch must have completed everything.
    pub fn verify_all(&self) -> usize {
        for v in &self.verifiers {
            v.verify();
        }
        self.verifiers.len()
    }
}

fn spec(machines: usize, cores: usize) -> ClusterSpec {
    let mut spec = ClusterSpec::qdr_cluster(machines);
    spec.cores_per_machine = cores;
    spec
}

/// Build query `id` of the stress batch: the operator rotates through all
/// four kinds while size, skew and machine count are drawn from the
/// query's own `(seed, id)` stream — a mixed bag by construction.
fn build_query(id: u32, seed: u64, hosts: usize, cores: usize) -> (JoinRequest, Verifier) {
    let rng = splitmix64(seed ^ (id as u64).wrapping_mul(0xA5A5_5A5A_5A5A_A5A5));
    let machines = 2 + (rng % (hosts.min(5) as u64 - 1)) as usize;
    let inner = 1_000 + (splitmix64(rng) % 4) * 1_000;
    let outer = inner * (2 + splitmix64(rng ^ 1) % 3);
    let skew = match splitmix64(rng ^ 2) % 3 {
        0 => Skew::None,
        1 => Skew::Zipf(1.05),
        _ => Skew::Zipf(1.2),
    };
    let gen_seed = splitmix64(rng ^ 3);
    let kind = id as usize % 4;
    let (label, job, verifier): (&str, Arc<dyn QueryJob>, Verifier) = match kind {
        0 => {
            let r = generate_inner::<Tuple16>(inner, machines, gen_seed);
            let (s, o) = generate_outer::<Tuple16>(outer, inner, machines, skew, gen_seed + 1);
            let mut cfg = DistJoinConfig::new(spec(machines, cores));
            cfg.radix_bits = (4, 2);
            cfg.rdma_buf_size = 1024;
            let job = DistJoinJob::new(cfg, r, s);
            ("radix", Arc::clone(&job) as _, Verifier::Join(job, o))
        }
        1 => {
            let r = generate_inner::<Tuple16>(inner, machines, gen_seed);
            let (s, o) = generate_outer::<Tuple16>(outer, inner, machines, skew, gen_seed + 1);
            let mut cfg = SortMergeConfig::new(spec(machines, cores));
            cfg.radix_bits = 4;
            cfg.rdma_buf_size = 1024;
            let job = SortMergeJob::new(cfg, r, s);
            (
                "sortmerge",
                Arc::clone(&job) as _,
                Verifier::SortMerge(job, o),
            )
        }
        2 => {
            let (s, _) = generate_outer::<Tuple16>(outer, 500, machines, skew, gen_seed);
            let mut cfg = AggregationConfig::new(spec(machines, cores));
            cfg.radix_bits = 4;
            cfg.rdma_buf_size = 1024;
            let job = AggregationJob::new(cfg, s);
            (
                "aggregation",
                Arc::clone(&job) as _,
                Verifier::Aggregation(job),
            )
        }
        _ => {
            let r = generate_inner::<Tuple16>(inner, machines, gen_seed);
            let (s, o) =
                generate_outer::<Tuple16>(outer, inner, machines, Skew::None, gen_seed + 1);
            let job = CycloJoinJob::new(CycloJoinConfig::new(spec(machines, cores)), r, s);
            ("cyclo", Arc::clone(&job) as _, Verifier::Cyclo(job, o))
        }
    };
    let req = JoinRequest {
        label: format!("{label}-{id}"),
        id: Some(id),
        placement: None, // service default: rotate the rack
        job,
    };
    (req, verifier)
}

/// Build the full `queries`-query stress batch for a `hosts`-host rack.
pub fn stress_batch(queries: usize, seed: u64, hosts: usize, cores: usize) -> StressBatch {
    assert!(
        hosts >= 3,
        "the stress batch places up to 5-machine queries"
    );
    let mut requests = Vec::with_capacity(queries);
    let mut verifiers = Vec::with_capacity(queries);
    for k in 0..queries {
        let (req, verifier) = build_query(k as u32 + 1, seed, hosts, cores);
        requests.push(req);
        verifiers.push(verifier);
    }
    StressBatch {
        requests,
        verifiers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsj_cluster::{QueryService, ServiceConfig};

    /// DESIGN.md §9: multiplexing eight queries over the shared rack must
    /// beat draining the identical batch one at a time. Virtual makespan
    /// is deterministic, so the comparison is exact.
    #[test]
    fn multiplexed_batch_has_a_smaller_virtual_makespan_than_serial() {
        let (queries, hosts, cores) = (16, 10, 2);
        let makespan = |max_concurrent: usize| {
            let mut cfg = ServiceConfig::qdr_rack(hosts, cores);
            cfg.max_concurrent = max_concurrent;
            let mut batch = stress_batch(queries, 1, hosts, cores);
            let report = QueryService::run(&cfg, std::mem::take(&mut batch.requests));
            assert_eq!(report.aborted, 0, "fault-free batch aborted");
            assert_eq!(batch.verify_all(), queries);
            report.makespan
        };
        let (serial, contended) = (makespan(1), makespan(8));
        assert!(
            contended < serial,
            "contended makespan {contended:?} is not below serial {serial:?}"
        );
    }
}
