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
//! Every [`crate::Fabric`] owns one [`Validator`]. It reads the state it
//! checks where the fabric keeps it — the target host's memory-region
//! table at each one-sided post, a lane's SRQ and completion queue, the
//! tracked pools — and [`crate::SendWindow`] reports its misuse to it. A
//! detected violation is recorded, counted and then panics — in every
//! build, like the protection fault real hardware would raise: a run that
//! breaks the contract never prints a result. Teardown residue a crashed
//! host left behind is the one exception; it is recorded as a
//! [`Violation::HostCrashed`] note, because an injected crash is a fault,
//! not a bug.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::rc::{self, Rc};
use std::sync::{Arc, Weak};

use crate::config::{HostId, QueryId};
use crate::mr::{MrTable, RemoteMr};
use crate::nic::Nic;
use crate::pool::BufferPool;

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

/// What one query left behind on one host at teardown.
#[derive(Copy, Clone, Default, PartialEq)]
struct Residue {
    /// Completions delivered but never consumed.
    undrained: u64,
    /// Receive slots consumed but never reposted.
    unreposted: u64,
    /// Pool buffers taken but never returned.
    leaked: usize,
}

impl Residue {
    fn add(&mut self, other: Residue) {
        self.undrained += other.undrained;
        self.unreposted += other.unreposted;
        self.leaked += other.leaked;
    }

    /// The contract violation this residue is (`None` if it is empty).
    fn violation(&self, host: HostId) -> Option<Violation> {
        if self.undrained > 0 {
            Some(Violation::CompletionsNotDrained {
                host,
                pending: self.undrained,
            })
        } else if self.unreposted > 0 {
            Some(Violation::RecvNotReposted {
                host,
                held: self.unreposted,
            })
        } else if self.leaked > 0 {
            Some(Violation::PoolLeak {
                outstanding: self.leaked,
            })
        } else {
            None
        }
    }
}

/// An owner the teardown audit reads its residue from. The validator
/// holds it weakly: an owner already dropped left nothing to audit.
enum Tracked {
    /// A receive lane: its completion queue and SRQ permits.
    Lane(Weak<Nic>),
    /// A buffer pool: its outstanding buffers.
    Pool(Weak<BufferPool>),
}

impl Tracked {
    /// What the owner holds now. A lane's completions still queued are
    /// undrained; the SRQ permits that are neither free nor held by a
    /// queued completion were consumed and never reposted.
    fn residue(&self) -> Residue {
        match self {
            Tracked::Lane(nic) => nic.upgrade().map_or_else(Residue::default, |nic| {
                let undrained = nic.recv_cq.len();
                let unreposted = nic
                    .srq_slots
                    .saturating_sub(nic.srq.available() + undrained);
                Residue {
                    undrained: undrained as u64,
                    unreposted: unreposted as u64,
                    leaked: 0,
                }
            }),
            Tracked::Pool(pool) => Residue {
                leaked: pool.upgrade().map_or(0, |p| p.outstanding()),
                ..Residue::default()
            },
        }
    }
}

/// The verbs-contract checker of one fabric. It keeps no copy of the
/// fabric's state: the one-sided checks read the target host's region
/// table, the SRQ check reads the lane, and the teardown audit reads
/// the tracked lanes and pools. What it keeps is the fault context that
/// decides how residue is judged, and the violations it recorded.
pub struct Validator {
    /// Each host's memory-region table, in host order: a one-sided post
    /// is checked against its target's own registry, as the responder
    /// HCA checks an rkey against its MR table. The tables are
    /// single-threaded (`Rc`), so reaching one is no atomic operation.
    tables: RefCell<Vec<rc::Weak<MrTable>>>,
    /// Tracked receive lanes and pools with the `(host, query)` that owns
    /// each one, so teardown residue can be attributed to a crashed host
    /// or audited per query.
    tracked: RefCell<Vec<(usize, u32, Tracked)>>,
    /// Hosts the fault plane fail-stopped; their teardown residue is
    /// context, not an application bug.
    crashed: RefCell<BTreeSet<usize>>,
    /// Queries individually aborted (query-scoped fault fan-out);
    /// their residue is fault fallout, not an application bug.
    aborted_queries: RefCell<BTreeSet<u32>>,
    /// The cluster aborted: residue dropped while workers unwind is
    /// fault-plane context, not an application bug.
    aborted: Cell<bool>,
    violations: RefCell<Vec<Violation>>,
    count: Cell<u64>,
}

impl Validator {
    /// A fresh validator.
    pub fn new() -> Arc<Validator> {
        Arc::new(Validator {
            tables: RefCell::new(Vec::new()),
            tracked: RefCell::new(Vec::new()),
            crashed: RefCell::new(BTreeSet::new()),
            aborted_queries: RefCell::new(BTreeSet::new()),
            aborted: Cell::new(false),
            violations: RefCell::new(Vec::new()),
            count: Cell::new(0),
        })
    }

    /// Report a violation: record and count it, then panic. A release
    /// build (`panic = "abort"`) ends the process with its message.
    pub(crate) fn report(&self, v: Violation) -> ! {
        self.record(&v);
        panic!("verbs contract violation: {v}")
    }

    /// Record a violation as context without ever panicking — used
    /// for fault-plane residue ([`Violation::HostCrashed`]) that
    /// documents what a crash left behind rather than accusing the
    /// application of a contract bug.
    fn note(&self, v: Violation) {
        eprintln!("rsj-verify: {v}");
        self.record(&v);
    }

    fn record(&self, v: &Violation) {
        self.count.set(self.count.get() + 1);
        self.violations.borrow_mut().push(v.clone());
    }

    /// The fault plane fail-stopped `host`: its teardown residue is
    /// reported as [`Violation::HostCrashed`] context from now on.
    pub fn on_host_crashed(&self, host: HostId) {
        self.crashed.borrow_mut().insert(host.0);
    }

    /// The cluster aborted the run. Residue dropped while workers
    /// unwind — e.g. a send window with flushed work requests still
    /// recorded — is fault-plane fallout, not a contract bug.
    pub fn on_abort(&self) {
        self.aborted.set(true);
    }

    /// One query aborted (query-scoped fault fan-out over a shared
    /// fabric). Residue that query drops while its workers unwind is
    /// fault fallout; other queries keep full-strength auditing.
    pub fn on_query_aborted(&self, query: QueryId) {
        self.aborted_queries.borrow_mut().insert(query.0);
    }

    /// Whether in-flight residue should be attributed to the fault
    /// plane (an abort, a crashed host, or a query-scoped abort)
    /// rather than the application.
    pub(crate) fn fault_residue(&self) -> bool {
        self.aborted.get()
            || !self.crashed.borrow().is_empty()
            || !self.aborted_queries.borrow().is_empty()
    }

    /// All violations recorded so far.
    pub fn violations(&self) -> Vec<Violation> {
        self.violations.borrow().clone()
    }

    /// Number of violations detected so far.
    pub fn violation_count(&self) -> u64 {
        self.count.get()
    }

    /// Check one-sided posts to the next host against `mrs`, its region
    /// table (the fabric hands the tables over in host order).
    pub(crate) fn track_regions(&self, mrs: &Rc<MrTable>) {
        self.tables.borrow_mut().push(Rc::downgrade(mrs));
    }

    /// Check a one-sided WRITE (`is_read` false) or READ of `len` bytes
    /// at `offset` of `remote` before it is posted, against the region
    /// the target host's own table holds at that index
    /// (`Mr::check_post`); no such region is
    /// [`Violation::UseBeforeRegister`].
    pub(crate) fn check_post(&self, remote: &RemoteMr, offset: usize, len: usize, is_read: bool) {
        let (host, index) = (remote.host, remote.index);
        let Some(mrs) = self.tables.borrow().get(host.0).and_then(rc::Weak::upgrade) else {
            self.report(Violation::UseBeforeRegister { host, index });
        };
        mrs.with(index, |mr| mr.check_post(remote.len, offset, len, is_read));
    }

    /// Track the receive lane `nic` for the teardown audit of its query.
    pub(crate) fn track_lane(&self, nic: &Arc<Nic>) {
        let lane = Tracked::Lane(Arc::downgrade(nic));
        self.tracked
            .borrow_mut()
            .push((nic.host.0, nic.query.0, lane));
    }

    /// Track a buffer pool owned by `(host, query)` for the teardown
    /// leak check, so the pool can be audited by
    /// [`Validator::check_query_teardown`] when that query retires,
    /// independent of the rest of the fabric. The owner matters: if
    /// `host` later crashes, its leaks are reported as crash residue,
    /// not application bugs.
    pub fn register_pool_scoped(&self, query: QueryId, host: HostId, pool: &Arc<BufferPool>) {
        let pool = Tracked::Pool(Arc::downgrade(pool));
        self.tracked.borrow_mut().push((host.0, query.0, pool));
    }

    /// Per-query teardown audit: when `query` retires from a shared
    /// fabric, its lanes and pools are audited by the one teardown rule
    /// ([`Validator::check_teardown`]) and forgotten. The shared fabric
    /// keeps running; other queries' state is untouched.
    pub fn check_query_teardown(&self, query: QueryId) {
        self.audit(|q| q == query.0);
    }

    /// Teardown audit, called after the simulation has quiesced: every
    /// query still tracked is audited, in id order, and forgotten.
    /// Residue — undrained completions, unreposted receive slots,
    /// leaked pool buffers — is judged by one rule, in this order:
    ///
    /// 1. on a host the fault plane crashed it is context, rolled up
    ///    into one non-panicking [`Violation::HostCrashed`] note per
    ///    host;
    /// 2. otherwise, residue of an aborted query (or an aborted rack)
    ///    is fault fallout and dropped;
    /// 3. anything else is a violation.
    pub fn check_teardown(&self) {
        self.audit(|_| true);
    }

    /// The one teardown audit over the tracked queries `pick` selects.
    fn audit(&self, pick: impl Fn(u32) -> bool) {
        // Residue per `(query, host)`, in id order.
        let mut residue: BTreeMap<(u32, usize), Residue> = BTreeMap::new();
        self.tracked.borrow_mut().retain(|(host, query, owner)| {
            if !pick(*query) {
                return true;
            }
            residue
                .entry((*query, *host))
                .or_default()
                .add(owner.residue());
            false
        });

        let crashed = self.crashed.borrow().clone();
        let rack_aborted = self.aborted.get();
        let aborted_queries = self.aborted_queries.borrow().clone();
        let mut crash_residue: BTreeMap<usize, Residue> = BTreeMap::new();
        let mut first_violation = None;
        for ((query, host), r) in residue {
            if crashed.contains(&host) {
                crash_residue.entry(host).or_default().add(r);
            } else if !rack_aborted && !aborted_queries.contains(&query) {
                first_violation = first_violation.or_else(|| r.violation(HostId(host)));
            }
        }
        for (host, r) in crash_residue {
            // A crash that left nothing behind (e.g. one that fired
            // after the run drained) needs no context record.
            if r == Residue::default() {
                continue;
            }
            self.note(Violation::HostCrashed {
                host: HostId(host),
                undrained: r.undrained,
                unreposted: r.unreposted,
                leaked_buffers: r.leaked,
            });
        }
        if let Some(v) = first_violation {
            self.report(v);
        }
    }
}
