//! The deterministic fault plane: seeded, schedule-driven fabric fault
//! injection plus the IB RC error vocabulary surfaced to posters.
//!
//! The paper's evaluation (§6) assumes a healthy rack; real IB RC
//! transports define the machinery for when it is not — retransmit retry
//! counters, RNR NAK backoff, queue pairs transitioning to the error
//! state, and completions-with-error flushed back to the poster. This
//! module models that vocabulary *deterministically*: every fault decision
//! is a pure function of the plan's seed, the message coordinates and the
//! virtual clock, so replaying a seed reproduces the identical fault
//! trace (DESIGN.md §8).
//!
//! A [`FaultPlan`] is installed on a fabric before launch. With no plan
//! installed the fabric takes none of these branches and the event
//! schedule is bit-identical to a build without the fault plane.

use rsj_sim::{SimDuration, SimTime};

use crate::config::{HostId, QueryId};

/// Completion status of a posted work request — the simulator's analogue
/// of `ibv_wc_status`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum WcStatus {
    /// The work request completed successfully.
    Success,
    /// The transport retry counter was exceeded: every retransmission of
    /// the message was lost (dead link, crashed peer, or sustained drop).
    /// The queue pair transitions to the error state.
    RetryExceeded,
    /// The work request was flushed without reaching the wire: posted to a
    /// queue pair already in the error state, caught in a cluster abort,
    /// or owned by a crashed host.
    Flushed,
}

/// A typed fabric-level failure, surfaced wherever delivery used to be
/// infallible.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FabricError {
    /// A work request on the `src → dst` queue pair completed with an
    /// error status; the queue pair is now in the error state.
    QpError {
        /// Posting host.
        src: HostId,
        /// Destination host.
        dst: HostId,
        /// The completion status that killed the queue pair.
        status: WcStatus,
    },
    /// The named host crashed mid-run (fault-plan schedule).
    HostCrashed {
        /// The crashed host.
        host: HostId,
    },
    /// The cluster aborted the run; outstanding work was flushed.
    Aborted,
}

impl std::fmt::Display for FabricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FabricError::QpError { src, dst, status } => write!(
                f,
                "queue pair {} -> {} in error state ({status:?})",
                src.0, dst.0
            ),
            FabricError::HostCrashed { host } => write!(f, "host {} crashed", host.0),
            FabricError::Aborted => write!(f, "fabric aborted"),
        }
    }
}

impl std::error::Error for FabricError {}

/// Exponential backoff before retry `attempt` (1-based):
/// `min(base · 2^(attempt−1), max)`. IB RC retransmission (`wire.rs`) and
/// the healing service's re-admission both back off this way.
pub fn capped_backoff(base: SimDuration, max: SimDuration, attempt: u32) -> SimDuration {
    let shift = attempt.saturating_sub(1).min(30);
    let ns = base.as_nanos().saturating_mul(1u64 << shift);
    SimDuration::from_nanos(ns.min(max.as_nanos()))
}

/// A host's uplink/downlink is dead for a window of virtual time; every
/// message touching the host during the window is dropped (and
/// retransmitted by the sender's egress engine).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct LinkFlap {
    /// The flapping host.
    pub host: HostId,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
}

/// A NIC egress engine freezes for a span of virtual time (firmware
/// hiccup): messages queue behind the stall and drain late.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct NicStall {
    /// The stalled host.
    pub host: HostId,
    /// Instant the engine freezes.
    pub at: SimTime,
    /// How long it stays frozen.
    pub duration: SimDuration,
}

/// A host fail-stops at an instant: its queues flush with errors, peers
/// talking to it see retry-exhausted completions.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct HostCrash {
    /// The crashing host.
    pub host: HostId,
    /// Crash instant.
    pub at: SimTime,
}

/// A seeded, schedule-driven fault injection plan, owned by the fabric.
///
/// All stochastic decisions hash `(seed, src, dst, message sequence,
/// attempt)` — no global RNG state — so the fault trace is a deterministic
/// function of the plan regardless of scheduling.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed for the per-message drop/delay hashes.
    pub seed: u64,
    /// Per-attempt probability (in thousandths) that a message transmission
    /// is dropped on the wire.
    pub drop_per_mille: u32,
    /// Probability (in thousandths) that a delivered message incurs extra
    /// propagation delay.
    pub delay_per_mille: u32,
    /// Upper bound on the extra delay (uniform in `[0, max_delay]`).
    pub max_delay: SimDuration,
    /// Scheduled link outages.
    pub link_flaps: Vec<LinkFlap>,
    /// Scheduled NIC engine stalls.
    pub nic_stalls: Vec<NicStall>,
    /// Scheduled host crashes.
    pub crashes: Vec<HostCrash>,
}

impl FaultPlan {
    /// A plan that injects nothing. Installing it arms the fault plane
    /// (watchdog, error paths) without perturbing traffic — the baseline
    /// of the chaos-off perf pair and of the replay tests.
    pub fn fault_free() -> FaultPlan {
        FaultPlan {
            seed: 0,
            drop_per_mille: 0,
            delay_per_mille: 0,
            max_delay: SimDuration::ZERO,
            link_flaps: Vec::new(),
            nic_stalls: Vec::new(),
            crashes: Vec::new(),
        }
    }

    /// Derive a chaos schedule from a seed for a cluster of `hosts`
    /// machines: light random drop/delay, and (depending on the seed) a
    /// link flap, a NIC stall, or a mid-run host crash. Used by the chaos
    /// harness; the same `(seed, hosts)` pair always yields the same plan.
    pub fn chaos(seed: u64, hosts: usize) -> FaultPlan {
        let mut plan = FaultPlan::fault_free();
        plan.seed = seed;
        let r0 = splitmix64(seed ^ 0xC0A5_0FEE);
        let r1 = splitmix64(r0);
        let r2 = splitmix64(r1);
        let r3 = splitmix64(r2);
        // Light stochastic noise: up to 2% per-attempt drop, up to 10%
        // of messages delayed by up to 50 µs.
        plan.drop_per_mille = (r0 % 21) as u32;
        plan.delay_per_mille = (r1 % 101) as u32;
        plan.max_delay = SimDuration::from_micros(50);
        let host = |r: u64| HostId((r >> 8) as usize % hosts.max(1));
        // One flap on a third of seeds, sized so retransmission can ride
        // it out (well under the total backoff of every retry).
        if r2.is_multiple_of(3) {
            let from = SimTime::from_nanos(200_000 + (r2 % 2_000_000));
            plan.link_flaps.push(LinkFlap {
                host: host(r2),
                from,
                until: from + SimDuration::from_micros(300),
            });
        }
        // One engine stall on a quarter of seeds.
        if r3.is_multiple_of(4) {
            plan.nic_stalls.push(NicStall {
                host: host(r3),
                at: SimTime::from_nanos(100_000 + (r3 % 1_500_000)),
                duration: SimDuration::from_micros(200),
            });
        }
        // A fail-stop crash on one seed in five (only meaningful with a
        // peer to notice, i.e. at least two hosts).
        if hosts >= 2 && r1.is_multiple_of(5) {
            plan.crashes.push(HostCrash {
                host: host(r1),
                at: SimTime::from_nanos(300_000 + (r1 % 3_000_000)),
            });
        }
        plan
    }

    /// Whether `host`'s link is down at `now` per the flap schedule.
    pub fn link_down(&self, host: HostId, now: SimTime) -> bool {
        self.link_flaps
            .iter()
            .any(|f| f.host == host && f.from <= now && now < f.until)
    }

    /// The seed of one query's private drop/delay stream, derived from
    /// `(plan seed, QueryId)` via [`splitmix64`]. [`QueryId::DIRECT`] keeps
    /// the plan seed itself, so a fabric used outside a query service sees
    /// the exact stream it always did; admitted queries each get an
    /// independent stream, so adding a query never perturbs another
    /// query's fault schedule.
    pub fn stream_seed(&self, query: QueryId) -> u64 {
        if query == QueryId::DIRECT {
            self.seed
        } else {
            splitmix64(self.seed ^ splitmix64(0x51E5_7EAD ^ query.0 as u64))
        }
    }

    /// Whether transmission `attempt` (0-based) of message `msg_seq` on
    /// `src → dst` is dropped at `now`, decided against the stream seed
    /// of the message's query (see [`FaultPlan::stream_seed`]). Link flaps
    /// remain host-level events shared by every stream.
    pub fn attempt_drops_seeded(
        &self,
        seed: u64,
        src: HostId,
        dst: HostId,
        msg_seq: u64,
        attempt: u32,
        now: SimTime,
    ) -> bool {
        if self.link_down(src, now) || self.link_down(dst, now) {
            return true;
        }
        if self.drop_per_mille == 0 {
            return false;
        }
        let h = mix(&[
            seed,
            0xD809_94AE,
            src.0 as u64,
            dst.0 as u64,
            msg_seq,
            attempt as u64,
        ]);
        ((h % 1000) as u32) < self.drop_per_mille
    }

    /// Extra propagation delay injected into message `msg_seq` on
    /// `src → dst` of the stream with `seed` (zero for most messages).
    pub fn extra_delay_seeded(
        &self,
        seed: u64,
        src: HostId,
        dst: HostId,
        msg_seq: u64,
    ) -> SimDuration {
        if self.delay_per_mille == 0 || self.max_delay == SimDuration::ZERO {
            return SimDuration::ZERO;
        }
        let h = mix(&[seed, 0xDE1A_44BB, src.0 as u64, dst.0 as u64, msg_seq]);
        if (h % 1000) as u32 >= self.delay_per_mille {
            return SimDuration::ZERO;
        }
        let frac = splitmix64(h);
        SimDuration::from_nanos(frac % (self.max_delay.as_nanos() + 1))
    }

    /// If `host`'s egress engine is inside a scheduled stall at `now`,
    /// the instant it unfreezes.
    pub fn stall_end(&self, host: HostId, now: SimTime) -> Option<SimTime> {
        self.nic_stalls
            .iter()
            .filter(|s| s.host == host && s.at <= now && now < s.at + s.duration)
            .map(|s| s.at + s.duration)
            .max()
    }

    /// The scheduled crash instant of `host`, if any.
    pub fn crash_at(&self, host: HostId) -> Option<SimTime> {
        self.crashes
            .iter()
            .filter(|c| c.host == host)
            .map(|c| c.at)
            .min()
    }
}

/// SplitMix64 — the classic 64-bit finalizer; dependency-free and more
/// than random enough for fault decisions.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn mix(words: &[u64]) -> u64 {
    let mut acc = 0x243F_6A88_85A3_08D3u64;
    for &w in words {
        acc = splitmix64(acc ^ w);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_decisions_are_deterministic() {
        let plan = FaultPlan::chaos(42, 4);
        let again = FaultPlan::chaos(42, 4);
        assert_eq!(plan, again, "same seed, same schedule");
        for seq in 0..50u64 {
            for attempt in 0..3u32 {
                let a = plan.attempt_drops_seeded(
                    plan.seed,
                    HostId(0),
                    HostId(1),
                    seq,
                    attempt,
                    SimTime::ZERO,
                );
                let b = again.attempt_drops_seeded(
                    again.seed,
                    HostId(0),
                    HostId(1),
                    seq,
                    attempt,
                    SimTime::ZERO,
                );
                assert_eq!(a, b);
            }
            assert_eq!(
                plan.extra_delay_seeded(plan.seed, HostId(2), HostId(3), seq),
                again.extra_delay_seeded(again.seed, HostId(2), HostId(3), seq)
            );
        }
    }

    #[test]
    fn different_seeds_differ() {
        // Not a strict requirement seed-by-seed, but across many seeds the
        // schedules must not all collapse to one.
        let plans: Vec<FaultPlan> = (0..16).map(|s| FaultPlan::chaos(s, 4)).collect();
        let distinct = plans
            .iter()
            .map(|p| (p.drop_per_mille, p.link_flaps.len(), p.crashes.len()))
            .collect::<std::collections::HashSet<_>>();
        assert!(distinct.len() > 4);
    }

    #[test]
    fn fault_free_plan_injects_nothing() {
        let plan = FaultPlan::fault_free();
        assert!(!plan.attempt_drops_seeded(plan.seed, HostId(0), HostId(1), 7, 0, SimTime::ZERO));
        assert_eq!(
            plan.extra_delay_seeded(plan.seed, HostId(0), HostId(1), 7),
            SimDuration::ZERO
        );
        assert_eq!(plan.stall_end(HostId(0), SimTime::ZERO), None);
        assert_eq!(plan.crash_at(HostId(0)), None);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let backoff = |attempt| {
            capped_backoff(
                SimDuration::from_micros(10),
                SimDuration::from_micros(100),
                attempt,
            )
        };
        assert_eq!(backoff(1), SimDuration::from_micros(10));
        assert_eq!(backoff(2), SimDuration::from_micros(20));
        assert_eq!(backoff(3), SimDuration::from_micros(40));
        assert_eq!(backoff(4), SimDuration::from_micros(80));
        assert_eq!(backoff(5), SimDuration::from_micros(100), "capped");
        assert_eq!(backoff(6), SimDuration::from_micros(100));
        // Seven attempts, the IB retry counter's ceiling.
        let mut total = SimDuration::ZERO;
        for attempt in 1..=7 {
            total += backoff(attempt);
        }
        assert_eq!(total, SimDuration::from_micros(10 + 20 + 40 + 80 + 300));
        // No overflow far past the cap.
        assert_eq!(backoff(u32::MAX), SimDuration::from_micros(100));
    }

    #[test]
    fn link_flap_window_drops_every_attempt() {
        let mut plan = FaultPlan::fault_free();
        plan.link_flaps.push(LinkFlap {
            host: HostId(1),
            from: SimTime::from_nanos(1000),
            until: SimTime::from_nanos(2000),
        });
        let inside = SimTime::from_nanos(1500);
        let outside = SimTime::from_nanos(2000);
        assert!(plan.attempt_drops_seeded(plan.seed, HostId(0), HostId(1), 0, 0, inside));
        assert!(plan.attempt_drops_seeded(plan.seed, HostId(1), HostId(0), 0, 0, inside));
        assert!(!plan.attempt_drops_seeded(plan.seed, HostId(0), HostId(1), 0, 0, outside));
        assert!(!plan.attempt_drops_seeded(plan.seed, HostId(2), HostId(3), 0, 0, inside));
    }
}
