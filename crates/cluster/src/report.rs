//! What a service run says about itself: the per-query, per-host and
//! rack-level reports, and the one fold that derives them (DESIGN.md §9,
//! §13).
//!
//! The admission task records only [`SlotFacts`]; nothing in a report is
//! assembled inside the simulation. [`ServiceReport::fold`] is a pure
//! function of those facts, the hosts' liveness and two rack totals, so
//! every number a report shows can be re-derived from recorded facts.

use rsj_rdma::{HostId, QueryId};
use rsj_sim::{SimDuration, SimTime};

use crate::error::JoinError;
use crate::phase;
use crate::phases::PhaseTimes;
use crate::service::RejectReason;

/// Per-host liveness and recovery rollup in a [`ServiceReport`].
#[derive(Clone, Debug)]
pub struct HostReport {
    /// The physical host.
    pub host: HostId,
    /// Whether the host ended the run fenced (crashed and detected).
    pub fenced: bool,
    /// When the fault plan crashed the host, if it did.
    pub crashed_at: Option<SimTime>,
    /// When the failure detector declared it dead, if it did.
    pub detected_at: Option<SimTime>,
    /// Detection latency: `detected_at - crashed_at` when both exist.
    pub detection_latency: Option<SimDuration>,
    /// Queries that lost an attempt to this host's crash and later
    /// completed on survivors.
    pub queries_recovered: usize,
    /// Queries that lost an attempt to this host's crash and ended
    /// rejected.
    pub queries_rejected: usize,
}

/// One query's outcome in the service report.
pub struct QueryReport {
    /// The query's id.
    pub id: QueryId,
    /// The request's label.
    pub label: String,
    /// When the query left the admission queue.
    pub admitted: SimTime,
    /// When its last worker retired.
    pub completed: SimTime,
    /// Time spent waiting in the admission queue (all requests are
    /// submitted at t = 0).
    pub queue_wait: SimDuration,
    /// Submission-to-completion latency.
    pub latency: SimDuration,
    /// Per-phase breakdown of the query's own named barriers.
    pub phases: PhaseTimes,
    /// `Ok` for a completed query, the typed [`JoinError`] (carrying this
    /// query's id) for an aborted one.
    pub result: Result<(), JoinError>,
    /// Admissions this query consumed (1 for an untroubled run; > 1 when
    /// the healing layer re-executed it after a host crash).
    pub attempts: u32,
    /// `Some` when the degraded-admission policy rejected the query
    /// instead of running it to completion.
    pub rejected: Option<RejectReason>,
    /// Time from the first crash-caused failure to final completion —
    /// the healing layer's time-to-recovery for this query. `None` for
    /// queries that never lost an attempt or never recovered.
    pub recovery: Option<SimDuration>,
}

/// What a whole [`QueryService::run`](crate::QueryService::run) reports.
pub struct ServiceReport {
    /// Per-query outcomes, ordered by query id.
    pub queries: Vec<QueryReport>,
    /// Virtual time from service start until the last query retired.
    pub makespan: SimDuration,
    /// Completion-latency percentiles across all queries.
    pub latency_p50: SimDuration,
    /// 95th-percentile completion latency.
    pub latency_p95: SimDuration,
    /// 99th-percentile completion latency.
    pub latency_p99: SimDuration,
    /// Queue-wait percentiles across all queries.
    pub queue_wait_p50: SimDuration,
    /// 95th-percentile queue wait.
    pub queue_wait_p95: SimDuration,
    /// 99th-percentile queue wait.
    pub queue_wait_p99: SimDuration,
    /// Fraction of the rack's total egress-wire capacity kept busy over
    /// the makespan (Σ per-host tx busy / (hosts × makespan)).
    pub fabric_utilization: f64,
    /// Queries that aborted with an error (typed rejections included).
    pub aborted: usize,
    /// Queries the degraded-admission policy rejected (subset of
    /// `aborted`, each carrying a typed [`RejectReason`]).
    pub rejected: usize,
    /// Queries that completed successfully after losing at least one
    /// attempt to a host crash.
    pub healed: usize,
    /// Total re-admissions across the batch (attempts beyond each
    /// query's first).
    pub retries: usize,
    /// Per-host liveness and recovery rollup, ordered by host id.
    pub hosts: Vec<HostReport>,
}

/// What the admission task records about one request between its first
/// admission and its retirement: the report's only per-query input.
pub(crate) struct SlotFacts {
    /// The report-facing id; retry attempts run as `id + k·stride`.
    pub id: QueryId,
    /// The request's label.
    pub label: String,
    /// Admissions consumed.
    pub attempts: u32,
    /// When the first attempt left the queue.
    pub first_admitted: Option<SimTime>,
    /// Every attempt lost to a host crash: when it retired, and the host.
    pub lost: Vec<(SimTime, HostId)>,
    /// When the query retired: its last worker's completion instant, or
    /// the instant admission refused it.
    pub completed: SimTime,
    /// How the final attempt ended (the error carries `id`).
    pub result: Result<PhaseTimes, JoinError>,
    /// Why admission retired the query instead of (re-)running it.
    pub rejected: Option<RejectReason>,
}

impl SlotFacts {
    /// A request that has not left the queue: should it never retire, it
    /// reads as aborted at admission.
    pub(crate) fn queued(id: QueryId, label: String) -> SlotFacts {
        SlotFacts {
            id,
            label,
            attempts: 0,
            first_admitted: None,
            lost: Vec::new(),
            completed: SimTime::ZERO,
            result: Err(JoinError::aborted(phase::ADMISSION).with_query(id)),
            rejected: None,
        }
    }
}

impl ServiceReport {
    /// Queries that completed successfully.
    pub fn completed(&self) -> usize {
        self.queries.len() - self.aborted
    }

    /// Derive the whole report from recorded facts: `hosts` is each host's
    /// liveness (ordered by id, tallies zero), `tx_busy_ns` the Σ of their
    /// egress busy time, `end` the instant the last query retired.
    pub(crate) fn fold(
        slots: Vec<SlotFacts>,
        mut hosts: Vec<HostReport>,
        tx_busy_ns: u64,
        end: SimTime,
    ) -> ServiceReport {
        let mut queries: Vec<QueryReport> = slots
            .into_iter()
            .map(|facts| query_report(facts, &mut hosts))
            .collect();
        queries.sort_by_key(|q| q.id);
        let sorted = |of: fn(&QueryReport) -> SimDuration| {
            let mut durations: Vec<SimDuration> = queries.iter().map(of).collect();
            durations.sort_unstable();
            durations
        };
        let (lat, qw) = (sorted(|q| q.latency), sorted(|q| q.queue_wait));
        let count = |is: fn(&QueryReport) -> bool| queries.iter().filter(|q| is(q)).count();
        let makespan = end - SimTime::ZERO;
        let capacity_ns = hosts.len() as u64 * makespan.as_nanos();
        ServiceReport {
            makespan,
            latency_p50: percentile(&lat, 50),
            latency_p95: percentile(&lat, 95),
            latency_p99: percentile(&lat, 99),
            queue_wait_p50: percentile(&qw, 50),
            queue_wait_p95: percentile(&qw, 95),
            queue_wait_p99: percentile(&qw, 99),
            fabric_utilization: if capacity_ns == 0 {
                0.0
            } else {
                tx_busy_ns as f64 / capacity_ns as f64
            },
            aborted: count(|q| q.result.is_err()),
            rejected: count(|q| q.rejected.is_some()),
            healed: count(|q| q.result.is_ok() && q.attempts > 1),
            retries: queries
                .iter()
                .map(|q| q.attempts.saturating_sub(1) as usize)
                .sum(),
            queries,
            hosts,
        }
    }
}

/// One query's report. Its recovery (completed after losing attempts) or
/// rejection is credited once to each distinct host whose crash it met;
/// a pinned placement refused for naming a fenced host, with no crash
/// history of its own, is credited to that host.
fn query_report(facts: SlotFacts, hosts: &mut [HostReport]) -> QueryReport {
    let ok = facts.result.is_ok();
    let mut blamed: Vec<HostId> = facts.lost.iter().map(|&(_, host)| host).collect();
    blamed.sort_unstable();
    blamed.dedup();
    if let (true, Some(RejectReason::PlacementUnavailable { host })) =
        (blamed.is_empty(), &facts.rejected)
    {
        blamed.push(*host);
    }
    for host in blamed {
        if ok {
            hosts[host.0].queries_recovered += 1;
        } else if facts.rejected.is_some() {
            hosts[host.0].queries_rejected += 1;
        }
    }
    let admitted = facts.first_admitted.unwrap_or(facts.completed);
    QueryReport {
        id: facts.id,
        label: facts.label,
        admitted,
        completed: facts.completed,
        queue_wait: admitted - SimTime::ZERO,
        latency: facts.completed - SimTime::ZERO,
        phases: facts.result.as_ref().copied().unwrap_or_default(),
        result: facts.result.map(|_| ()),
        attempts: facts.attempts,
        rejected: facts.rejected,
        recovery: facts
            .lost
            .first()
            .filter(|_| ok)
            .map(|&(failed, _)| facts.completed - failed),
    }
}

/// Nearest-rank percentile over an ascending-sorted slice.
fn percentile(sorted: &[SimDuration], pct: u32) -> SimDuration {
    if sorted.is_empty() {
        return SimDuration::ZERO;
    }
    let rank = (pct as usize * sorted.len()).div_ceil(100);
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn d(ns: u64) -> SimDuration {
        SimDuration::from_nanos(ns)
    }

    /// The liveness of an `n`-host rack nothing happened to.
    fn rack(n: usize) -> Vec<HostReport> {
        (0..n)
            .map(|h| HostReport {
                host: HostId(h),
                fenced: false,
                crashed_at: None,
                detected_at: None,
                detection_latency: None,
                queries_recovered: 0,
                queries_rejected: 0,
            })
            .collect()
    }

    /// Query `id`: first admitted at `admitted`, retired at `completed`
    /// as `result` after `attempts` admissions.
    fn facts(
        id: u32,
        attempts: u32,
        admitted: u64,
        completed: u64,
        result: Result<PhaseTimes, JoinError>,
    ) -> SlotFacts {
        SlotFacts {
            attempts,
            first_admitted: Some(t(admitted)),
            completed: t(completed),
            result,
            ..SlotFacts::queued(QueryId(id), format!("q{id}"))
        }
    }

    fn crash_abort() -> Result<PhaseTimes, JoinError> {
        Err(JoinError::aborted(phase::NETWORK_PARTITION))
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<SimDuration> = (1..=10).map(|i| d(i * 100)).collect();
        assert_eq!(percentile(&v, 50), d(500));
        assert_eq!(percentile(&v, 95), d(1000));
        assert_eq!(percentile(&v, 99), d(1000));
        assert_eq!(percentile(&[], 50), SimDuration::ZERO);
        assert_eq!(percentile(&v[..1], 99), d(100));
    }

    #[test]
    fn a_clean_batch_folds_into_id_order_percentiles_and_utilization() {
        // Ten queries in reverse id order: query i waits 10·i ns and
        // completes at 100·i ns.
        let slots = (1..=10)
            .rev()
            .map(|i| {
                facts(
                    i,
                    1,
                    10 * i as u64,
                    100 * i as u64,
                    Ok(PhaseTimes::default()),
                )
            })
            .collect();
        let report = ServiceReport::fold(slots, rack(4), 1_000, t(1_000));
        let ids: Vec<u32> = report.queries.iter().map(|q| q.id.0).collect();
        assert_eq!(ids, (1..=10).collect::<Vec<u32>>());
        assert_eq!(report.queries[2].queue_wait, d(30));
        assert_eq!(report.queries[2].latency, d(300));
        assert_eq!(report.makespan, d(1_000));
        assert_eq!(
            (report.latency_p50, report.latency_p95, report.latency_p99),
            (d(500), d(1_000), d(1_000))
        );
        assert_eq!(
            (report.queue_wait_p50, report.queue_wait_p95),
            (d(50), d(100))
        );
        // 1000 ns of egress busy time over 4 hosts × 1000 ns.
        assert_eq!(report.fabric_utilization, 0.25);
        assert_eq!(
            (
                report.aborted,
                report.rejected,
                report.healed,
                report.retries
            ),
            (0, 0, 0, 0)
        );
        assert_eq!(report.completed(), 10);
        assert!(report.queries.iter().all(|q| q.recovery.is_none()));

        let empty = ServiceReport::fold(Vec::new(), rack(2), 0, t(0));
        assert_eq!(empty.latency_p99, SimDuration::ZERO);
        assert_eq!(empty.fabric_utilization, 0.0);
    }

    #[test]
    fn a_healed_query_credits_each_distinct_crash_host_once() {
        let healed = SlotFacts {
            lost: vec![(t(40), HostId(1)), (t(55), HostId(2)), (t(70), HostId(1))],
            ..facts(1, 4, 0, 100, Ok(PhaseTimes::default()))
        };
        let report = ServiceReport::fold(vec![healed], rack(4), 0, t(100));
        assert_eq!((report.healed, report.retries, report.aborted), (1, 3, 0));
        assert_eq!(report.queries[0].recovery, Some(d(60)));
        let recovered: Vec<usize> = report.hosts.iter().map(|h| h.queries_recovered).collect();
        assert_eq!(recovered, [0, 1, 1, 0]);
        assert!(report.hosts.iter().all(|h| h.queries_rejected == 0));
    }

    #[test]
    fn failed_queries_credit_rejections_and_report_no_recovery() {
        let exhausted = SlotFacts {
            lost: vec![(t(40), HostId(1)), (t(60), HostId(1))],
            rejected: Some(RejectReason::RetryBudgetExhausted { attempts: 2 }),
            ..facts(1, 2, 0, 90, crash_abort())
        };
        // Refused for a fenced host it pinned, without ever running.
        let pinned = SlotFacts {
            completed: t(50),
            rejected: Some(RejectReason::PlacementUnavailable { host: HostId(2) }),
            ..SlotFacts::queued(QueryId(2), "pinned".into())
        };
        // Lost an attempt to host 3, then failed for a reason of its own:
        // an abort, but nobody's rejection.
        let aborted = SlotFacts {
            lost: vec![(t(10), HostId(3))],
            ..facts(3, 2, 0, 70, crash_abort())
        };
        let report = ServiceReport::fold(vec![exhausted, pinned, aborted], rack(4), 0, t(90));
        assert_eq!((report.aborted, report.rejected, report.healed), (3, 2, 0));
        assert_eq!(report.retries, 2);
        assert!(report.queries.iter().all(|q| q.recovery.is_none()));
        let rejected: Vec<usize> = report.hosts.iter().map(|h| h.queries_rejected).collect();
        assert_eq!(rejected, [0, 1, 1, 0]);
        assert!(report.hosts.iter().all(|h| h.queries_recovered == 0));
        // A query that never left the queue was "admitted" when refused.
        let pinned = &report.queries[1];
        assert_eq!((pinned.admitted, pinned.attempts), (t(50), 0));
        assert_eq!(
            pinned.result,
            Err(JoinError::aborted(phase::ADMISSION).with_query(QueryId(2)))
        );
    }
}
