//! The runtime verbs-contract validator.
//!
//! RDMA dataplanes fail in stereotyped ways — Rödiger et al. and the
//! Storm system both report API-contract violations as the dominant bug
//! class: posting against an unregistered region, writing past a region's
//! bounds, reusing a buffer whose work request has not completed, starving
//! the shared receive queue, leaking pooled buffers. The simulator models
//! the *cost* of the verbs contract (§3.2.1 registration, §4.2.1
//! double-buffering, §4.2.2 receive reposting); this module machine-checks
//! the contract itself.
//!
//! Every [`crate::Fabric`] owns one [`Validator`]. The memory-region
//! table, the NICs, [`crate::BufferPool`] and [`crate::SendWindow`] report
//! lifecycle transitions to it; a detected violation either panics
//! immediately ([`ValidateMode::Panic`], the default under
//! `debug_assertions`, i.e. in every test build) or is counted, recorded
//! and logged ([`ValidateMode::Record`], the release default).
//!
//! There is one build and no off switch: the validator is always
//! compiled and every check always runs. The hard memory-safety checks
//! (out-of-bounds one-sided access, unregistered MR lookup) fault in
//! both modes, exactly like the protection fault real hardware would
//! raise.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::Mutex;

use crate::config::{HostId, QueryId};
use crate::pool::BufferPool;
use crate::RemoteMr;

/// What the validator does when a contract violation is detected.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ValidateMode {
    /// Panic at the first violation (default when `debug_assertions` are
    /// on — tests and debug builds).
    Panic,
    /// Record, count and log violations without interrupting the run
    /// (default in release builds).
    Record,
}

/// A detected violation of the RDMA verbs contract, with enough context
/// to locate the offending post.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum Violation {
    /// A one-sided work request named an MR index that was never
    /// registered on the target host (§3.2.1: regions must be registered
    /// before the HCA may touch them).
    UseBeforeRegister {
        /// Target host.
        host: HostId,
        /// The unregistered MR index.
        index: usize,
    },
    /// An RDMA WRITE landed (or would land) outside the region bounds —
    /// real hardware raises a protection fault and kills the QP.
    OutOfBoundsWrite {
        /// Region owner.
        host: HostId,
        /// Region index.
        index: usize,
        /// Write offset into the region.
        offset: usize,
        /// Write length in bytes.
        len: usize,
        /// Current region length in bytes.
        region_len: usize,
    },
    /// An RDMA READ reached outside the region bounds (including reads
    /// from a region whose memory the owner already reclaimed).
    OutOfBoundsRead {
        /// Region owner.
        host: HostId,
        /// Region index.
        index: usize,
        /// Read offset into the region.
        offset: usize,
        /// Read length in bytes.
        len: usize,
        /// Current region length in bytes.
        region_len: usize,
    },
    /// An RDMA READ was posted against a region after its owner retracted
    /// the publication ([`crate::Mr::unpublish`]). The registration — and
    /// thus the hardware-level bounds check — is still valid, so real
    /// hardware would complete the read and return whatever bytes the
    /// owner has since scribbled there: a silent torn read the seqlock
    /// version protocol cannot catch once the epoch is closed. Readers
    /// must drop their handles when the owner closes the epoch.
    ReadAfterUnpublish {
        /// Region owner.
        host: HostId,
        /// Region index.
        index: usize,
    },
    /// A [`crate::RemoteMr`] handle's length disagrees with the length
    /// registered for that region — a stale or forged `(addr, rkey)` pair.
    StaleRemoteHandle {
        /// Region owner.
        host: HostId,
        /// Region index.
        index: usize,
        /// Length claimed by the handle.
        claimed: usize,
        /// Length actually registered.
        registered: usize,
    },
    /// A send buffer was posted into a [`crate::SendWindow`] slot without
    /// a preceding `admit` — i.e. re-posted while the previous work
    /// request on that slot may still be in flight, breaking the §4.2.1
    /// double-buffering discipline. `in_flight` distinguishes the
    /// dangerous case (previous WR genuinely incomplete) from a mere
    /// protocol misuse (it had completed, but nobody checked).
    RepostBeforeCompletion {
        /// Whether the displaced work request was still in flight.
        in_flight: bool,
    },
    /// Arriving traffic blocked on an empty shared receive queue while
    /// the application held every slot without reposting (§4.2.2: receive
    /// buffers must be reposted once copied out) — the analogue of an RNR
    /// NAK storm.
    SrqExhausted {
        /// Starved host.
        host: HostId,
        /// Slots held by the application (consumed, not reposted).
        held: usize,
        /// Total SRQ slots.
        slots: usize,
    },
    /// Completions were still sitting in a receive queue at teardown —
    /// the application never drained them.
    CompletionsNotDrained {
        /// Host whose completion queue was abandoned.
        host: HostId,
        /// Completions delivered but never consumed.
        pending: u64,
    },
    /// Receive buffers consumed from the SRQ were never reposted by
    /// teardown.
    RecvNotReposted {
        /// Host whose SRQ slots leaked.
        host: HostId,
        /// Consumed-but-not-reposted slot count.
        held: u64,
    },
    /// Pre-registered pool buffers were still outstanding at teardown —
    /// a buffer leak that silently shrinks the pool for the next operator.
    PoolLeak {
        /// Buffers taken but never returned.
        outstanding: usize,
    },
    /// A [`crate::SendWindow`] was dropped while work requests it tracked
    /// were still in flight — completions that will never be drained.
    WindowNotDrained {
        /// In-flight work requests at drop time.
        outstanding: usize,
    },
    /// Teardown residue attributable to a host that fail-stopped under the
    /// fault plane: undrained completions, unreposted receive slots and
    /// leaked pool buffers a crashed host could never have cleaned up.
    /// Recorded as context — never escalated to a panic — so chaos runs
    /// keep the audit trail without flagging spurious application bugs.
    HostCrashed {
        /// The crashed host.
        host: HostId,
        /// Completions delivered to the crashed host but never consumed.
        undrained: u64,
        /// Receive slots the crashed host consumed but never reposted.
        unreposted: u64,
        /// Pool buffers the crashed host still held.
        leaked_buffers: usize,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::UseBeforeRegister { host, index } => write!(
                f,
                "one-sided access to unregistered MR {index} on host {}",
                host.0
            ),
            Violation::OutOfBoundsWrite {
                host,
                index,
                offset,
                len,
                region_len,
            } => write!(
                f,
                "RDMA write out of bounds: [{offset}, {}) into region of {region_len} bytes \
                 (host {}, mr {index})",
                offset.saturating_add(*len),
                host.0
            ),
            Violation::OutOfBoundsRead {
                host,
                index,
                offset,
                len,
                region_len,
            } => write!(
                f,
                "RDMA read out of bounds: [{offset}, {}) from region of {region_len} bytes \
                 (host {}, mr {index})",
                offset.saturating_add(*len),
                host.0
            ),
            Violation::ReadAfterUnpublish { host, index } => write!(
                f,
                "RDMA read posted against unpublished region (host {}, mr {index})",
                host.0
            ),
            Violation::StaleRemoteHandle {
                host,
                index,
                claimed,
                registered,
            } => write!(
                f,
                "stale remote handle for (host {}, mr {index}): claims {claimed} bytes, \
                 {registered} registered",
                host.0
            ),
            Violation::RepostBeforeCompletion { in_flight } => write!(
                f,
                "buffer re-posted without admit; previous work request {}",
                if *in_flight {
                    "still in flight"
                } else {
                    "had completed (unchecked)"
                }
            ),
            Violation::SrqExhausted { host, held, slots } => write!(
                f,
                "SRQ exhausted on host {}: application holds {held} of {slots} receive slots \
                 without reposting",
                host.0
            ),
            Violation::CompletionsNotDrained { host, pending } => write!(
                f,
                "{pending} completion(s) never drained from host {}'s receive queue",
                host.0
            ),
            Violation::RecvNotReposted { host, held } => write!(
                f,
                "{held} receive buffer(s) consumed on host {} but never reposted",
                host.0
            ),
            Violation::PoolLeak { outstanding } => {
                write!(
                    f,
                    "pool leak: {outstanding} buffer(s) taken but never returned"
                )
            }
            Violation::WindowNotDrained { outstanding } => write!(
                f,
                "send window dropped with {outstanding} work request(s) still in flight"
            ),
            Violation::HostCrashed {
                host,
                undrained,
                unreposted,
                leaked_buffers,
            } => write!(
                f,
                "host {} crashed with {undrained} undrained completion(s), {unreposted} \
                 unreposted receive slot(s), {leaked_buffers} pool buffer(s) held",
                host.0
            ),
        }
    }
}

/// Per-host receive-path flow counters.
#[derive(Default)]
struct HostFlow {
    /// Two-sided completions placed in the receive queue.
    delivered: u64,
    /// Completions consumed by the application.
    consumed: u64,
    /// Receive-buffer slots reposted to the SRQ.
    reposted: u64,
    /// SRQ exhaustion already reported for this host.
    srq_reported: bool,
}

/// The verbs-contract state machine: tracks every memory region,
/// receive slot, pooled buffer and windowed work request of one
/// fabric through its lifecycle and reports [`Violation`]s.
pub struct Validator {
    /// `true` = [`ValidateMode::Panic`], `false` = [`ValidateMode::Record`].
    panic_on_violation: AtomicBool,
    /// Registered regions: `(host, index) → registered length`.
    mrs: Mutex<HashMap<(usize, usize), usize>>,
    /// Regions whose publication epoch is currently closed
    /// ([`crate::Mr::unpublish`] without a later re-publish). Reads
    /// against these are [`Violation::ReadAfterUnpublish`].
    /// Never-published regions are absent: plain one-sided regions
    /// (e.g. histogram-announced receive buffers) are readable
    /// without the publish protocol.
    unpublished: Mutex<HashSet<(usize, usize)>>,
    /// Receive-path flow counters, scoped per `(host, query)` lane so
    /// a query service can audit each query's teardown individually.
    flows: Mutex<HashMap<(usize, u32), HostFlow>>,
    /// Tracked pools with the `(host, query)` that owns each one, so
    /// teardown leaks can be attributed to a crashed host or audited
    /// per query.
    pools: Mutex<Vec<(usize, u32, Weak<BufferPool>)>>,
    /// Hosts the fault plane fail-stopped; their teardown residue is
    /// context, not an application bug.
    crashed: Mutex<HashSet<usize>>,
    /// Queries individually aborted (query-scoped fault fan-out);
    /// their residue is fault fallout, not an application bug.
    aborted_queries: Mutex<HashSet<u32>>,
    /// The cluster aborted: residue dropped while workers unwind is
    /// fault-plane context, not an application bug.
    aborted: AtomicBool,
    violations: Mutex<Vec<Violation>>,
    count: AtomicU64,
}

impl Validator {
    /// A fresh validator. Panics on violations in debug/test builds,
    /// records them in release builds.
    pub fn new() -> Arc<Validator> {
        Arc::new(Validator {
            panic_on_violation: AtomicBool::new(cfg!(debug_assertions)),
            mrs: Mutex::new(HashMap::new()),
            unpublished: Mutex::new(HashSet::new()),
            flows: Mutex::new(HashMap::new()),
            pools: Mutex::new(Vec::new()),
            crashed: Mutex::new(HashSet::new()),
            aborted_queries: Mutex::new(HashSet::new()),
            aborted: AtomicBool::new(false),
            violations: Mutex::new(Vec::new()),
            count: AtomicU64::new(0),
        })
    }

    /// Override the violation response (tests use
    /// [`ValidateMode::Record`] to assert on negative paths).
    pub fn set_mode(&self, mode: ValidateMode) {
        self.panic_on_violation
            .store(mode == ValidateMode::Panic, Ordering::SeqCst);
    }

    /// The current violation response.
    pub fn mode(&self) -> ValidateMode {
        if self.panic_on_violation.load(Ordering::SeqCst) {
            ValidateMode::Panic
        } else {
            ValidateMode::Record
        }
    }

    /// Report a violation: record + count it, then panic or log
    /// according to the mode.
    pub fn report(&self, v: Violation) {
        self.count.fetch_add(1, Ordering::SeqCst);
        self.violations.lock().push(v.clone());
        match self.mode() {
            ValidateMode::Panic => panic!("verbs contract violation: {v}"),
            ValidateMode::Record => eprintln!("rsj-verify: {v}"),
        }
    }

    /// Record a violation as context without ever panicking — used
    /// for fault-plane residue (e.g. [`Violation::HostCrashed`]) that
    /// documents what a crash left behind rather than accusing the
    /// application of a contract bug.
    fn note(&self, v: Violation) {
        self.count.fetch_add(1, Ordering::SeqCst);
        self.violations.lock().push(v.clone());
        eprintln!("rsj-verify: {v}");
    }

    /// The fault plane fail-stopped `host`: its teardown residue is
    /// reported as [`Violation::HostCrashed`] context from now on.
    pub fn on_host_crashed(&self, host: HostId) {
        self.crashed.lock().insert(host.0);
    }

    /// The cluster aborted the run. Residue dropped while workers
    /// unwind — e.g. a send window with flushed work requests still
    /// recorded — is fault-plane fallout, not a contract bug.
    pub fn on_abort(&self) {
        self.aborted.store(true, Ordering::SeqCst);
    }

    /// One query aborted (query-scoped fault fan-out over a shared
    /// fabric). Residue that query drops while its workers unwind is
    /// fault fallout; other queries keep full-strength auditing.
    pub fn on_query_aborted(&self, query: QueryId) {
        self.aborted_queries.lock().insert(query.0);
    }

    /// Whether in-flight residue should be attributed to the fault
    /// plane (an abort, a crashed host, or a query-scoped abort)
    /// rather than the application.
    pub(crate) fn fault_residue(&self) -> bool {
        self.aborted.load(Ordering::SeqCst)
            || !self.crashed.lock().is_empty()
            || !self.aborted_queries.lock().is_empty()
    }

    /// All violations recorded so far.
    pub fn violations(&self) -> Vec<Violation> {
        self.violations.lock().clone()
    }

    /// Number of violations detected so far.
    pub fn violation_count(&self) -> u64 {
        self.count.load(Ordering::SeqCst)
    }

    /// A region was registered (called by [`crate::MrTable`]).
    pub(crate) fn mr_registered(&self, host: HostId, index: usize, len: usize) {
        self.mrs.lock().insert((host.0, index), len);
    }

    /// A region opened a publication epoch ([`crate::Mr::publish`]):
    /// one-sided reads are sanctioned until the matching unpublish.
    pub(crate) fn mr_published(&self, host: HostId, index: usize) {
        self.unpublished.lock().remove(&(host.0, index));
    }

    /// A region closed its publication epoch
    /// ([`crate::Mr::unpublish`]): later reads against it are
    /// [`Violation::ReadAfterUnpublish`] until it is re-published.
    pub(crate) fn mr_unpublished(&self, host: HostId, index: usize) {
        self.unpublished.lock().insert((host.0, index));
    }

    /// Validate a one-sided WRITE against the registered region table
    /// before it is posted. Returns `false` (Record mode) if the post
    /// must be dropped.
    pub(crate) fn check_write(&self, remote: &RemoteMr, offset: usize, len: usize) -> bool {
        self.check_one_sided(remote, offset, len, false)
    }

    /// Validate a one-sided READ before it is posted.
    pub(crate) fn check_read(&self, remote: &RemoteMr, offset: usize, len: usize) -> bool {
        self.check_one_sided(remote, offset, len, true)
    }

    fn check_one_sided(&self, remote: &RemoteMr, offset: usize, len: usize, is_read: bool) -> bool {
        let registered = self.mrs.lock().get(&(remote.host.0, remote.index)).copied();
        let Some(region_len) = registered else {
            self.report(Violation::UseBeforeRegister {
                host: remote.host,
                index: remote.index,
            });
            return false;
        };
        if remote.len != region_len {
            self.report(Violation::StaleRemoteHandle {
                host: remote.host,
                index: remote.index,
                claimed: remote.len,
                registered: region_len,
            });
            return false;
        }
        if is_read
            && self
                .unpublished
                .lock()
                .contains(&(remote.host.0, remote.index))
        {
            self.report(Violation::ReadAfterUnpublish {
                host: remote.host,
                index: remote.index,
            });
            return false;
        }
        let in_bounds = offset.checked_add(len).is_some_and(|end| end <= region_len);
        if !in_bounds {
            let v = if is_read {
                Violation::OutOfBoundsRead {
                    host: remote.host,
                    index: remote.index,
                    offset,
                    len,
                    region_len,
                }
            } else {
                Violation::OutOfBoundsWrite {
                    host: remote.host,
                    index: remote.index,
                    offset,
                    len,
                    region_len,
                }
            };
            self.report(v);
            return false;
        }
        true
    }

    /// A two-sided completion entered `host`'s receive queue on
    /// `query`'s lane.
    pub(crate) fn on_rx_delivered(&self, host: HostId, query: QueryId) {
        self.flows
            .lock()
            .entry((host.0, query.0))
            .or_default()
            .delivered += 1;
    }

    /// The application consumed a completion on `host` (`query`'s
    /// lane).
    pub(crate) fn on_rx_consumed(&self, host: HostId, query: QueryId) {
        self.flows
            .lock()
            .entry((host.0, query.0))
            .or_default()
            .consumed += 1;
    }

    /// The application reposted a receive buffer on `host` (`query`'s
    /// lane).
    pub(crate) fn on_recv_reposted(&self, host: HostId, query: QueryId) {
        self.flows
            .lock()
            .entry((host.0, query.0))
            .or_default()
            .reposted += 1;
    }

    /// The ingress engine found `host`'s SRQ empty on `query`'s lane.
    /// A violation only if the *application* holds every slot
    /// (consumed without reposting); a full-but-undrained CQ is
    /// ordinary backpressure.
    pub(crate) fn srq_blocked(&self, host: HostId, slots: usize, query: QueryId) {
        let held = {
            let mut flows = self.flows.lock();
            let f = flows.entry((host.0, query.0)).or_default();
            let held = f.consumed.saturating_sub(f.reposted) as usize;
            if held < slots || f.srq_reported {
                return;
            }
            f.srq_reported = true;
            held
        };
        self.report(Violation::SrqExhausted { host, held, slots });
    }

    /// Track a buffer pool owned by `(host, query)` for the teardown
    /// leak check, so the pool can be audited by
    /// [`Validator::check_query_teardown`] when that query retires,
    /// independent of the rest of the fabric. The owner matters: if
    /// `host` later crashes, its leaks are reported as crash residue,
    /// not application bugs.
    pub fn register_pool_scoped(&self, query: QueryId, host: HostId, pool: &Arc<BufferPool>) {
        self.pools
            .lock()
            .push((host.0, query.0, Arc::downgrade(pool)));
    }

    /// Per-query teardown audit: when a query retires from a shared
    /// fabric, its lane flows and sub-pools are removed from the
    /// tracked state and audited in isolation — undrained completions,
    /// unreposted receive slots and leaked sub-pool buffers become
    /// violations unless the query itself aborted or the owning host
    /// crashed (fault fallout, not a contract bug). The shared fabric
    /// keeps running; other queries' state is untouched.
    pub fn check_query_teardown(&self, query: QueryId) {
        let aborted =
            self.aborted.load(Ordering::SeqCst) || self.aborted_queries.lock().contains(&query.0);
        let crashed: HashSet<usize> = self.crashed.lock().clone();
        let flow_violations: Vec<Violation> = {
            let mut flows = self.flows.lock();
            let mut keys: Vec<(usize, u32)> = flows
                .keys()
                .filter(|&&(_, q)| q == query.0)
                .copied()
                .collect();
            keys.sort_unstable();
            let mut vs = Vec::new();
            for key in keys {
                let f = flows.remove(&key).expect("key collected from map");
                if aborted || crashed.contains(&key.0) {
                    continue;
                }
                let pending = f.delivered.saturating_sub(f.consumed);
                let held = f.consumed.saturating_sub(f.reposted);
                if pending > 0 {
                    vs.push(Violation::CompletionsNotDrained {
                        host: HostId(key.0),
                        pending,
                    });
                }
                if held > 0 {
                    vs.push(Violation::RecvNotReposted {
                        host: HostId(key.0),
                        held,
                    });
                }
            }
            vs
        };
        for v in flow_violations {
            self.report(v);
        }
        let query_pools: Vec<(usize, Weak<BufferPool>)> = {
            let mut pools = self.pools.lock();
            let mut taken = Vec::new();
            pools.retain(|(h, q, w)| {
                if *q == query.0 {
                    taken.push((*h, w.clone()));
                    false
                } else {
                    true
                }
            });
            taken
        };
        for (host, weak) in query_pools {
            if aborted || crashed.contains(&host) {
                continue;
            }
            let Some(pool) = weak.upgrade() else { continue };
            let outstanding = pool.outstanding();
            if outstanding > 0 {
                self.report(Violation::PoolLeak { outstanding });
            }
        }
    }

    /// Teardown audit, called after the simulation has quiesced:
    /// undrained completion queues, unreposted receive slots, and
    /// leaked pool buffers all become violations — except on hosts the
    /// fault plane crashed, whose residue is rolled up into a single
    /// non-panicking [`Violation::HostCrashed`] context record.
    pub fn check_teardown(&self) {
        let crashed: HashSet<usize> = self.crashed.lock().clone();
        let mut crash_residue: HashMap<usize, (u64, u64, usize)> =
            crashed.iter().map(|&h| (h, (0, 0, 0))).collect();
        let flow_violations: Vec<Violation> = {
            let flows = self.flows.lock();
            let mut keys: Vec<(usize, u32)> = flows.keys().copied().collect();
            keys.sort_unstable();
            let mut vs = Vec::new();
            for key in keys {
                let f = &flows[&key];
                let pending = f.delivered.saturating_sub(f.consumed);
                let held = f.consumed.saturating_sub(f.reposted);
                if let Some(residue) = crash_residue.get_mut(&key.0) {
                    residue.0 += pending;
                    residue.1 += held;
                    continue;
                }
                if pending > 0 {
                    vs.push(Violation::CompletionsNotDrained {
                        host: HostId(key.0),
                        pending,
                    });
                }
                if held > 0 {
                    vs.push(Violation::RecvNotReposted {
                        host: HostId(key.0),
                        held,
                    });
                }
            }
            vs
        };
        for v in flow_violations {
            self.report(v);
        }
        let pools: Vec<(usize, Arc<BufferPool>)> = self
            .pools
            .lock()
            .iter()
            .filter_map(|(h, _, w)| w.upgrade().map(|p| (*h, p)))
            .collect();
        for (host, pool) in pools {
            let outstanding = pool.outstanding();
            if outstanding == 0 {
                continue;
            }
            if let Some(residue) = crash_residue.get_mut(&host) {
                residue.2 += outstanding;
            } else {
                self.report(Violation::PoolLeak { outstanding });
            }
        }
        let mut hosts: Vec<usize> = crash_residue.keys().copied().collect();
        hosts.sort_unstable();
        for host in hosts {
            let (undrained, unreposted, leaked_buffers) = crash_residue[&host];
            // A crash that left nothing behind (e.g. one that fired
            // after the run drained) needs no context record.
            if undrained == 0 && unreposted == 0 && leaked_buffers == 0 {
                continue;
            }
            self.note(Violation::HostCrashed {
                host: HostId(host),
                undrained,
                unreposted,
                leaked_buffers,
            });
        }
    }
}
