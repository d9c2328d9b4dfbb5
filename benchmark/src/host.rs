//! What the benchmark asks of the host: pin to one CPU, read the
//! process's resource counters, read the wall clock, and say what state
//! the host was in while a rep ran.
//!
//! The simulator runs one task at a time on a thread per simulated core.
//! On two CPUs every handoff is a cross-CPU futex wake and the same join
//! swings 9x in wall time, so every timed region runs pinned to one CPU
//! (threads spawned later inherit the mask).

use std::os::raw::{c_int, c_long};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Words of a Linux `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

/// A CPU affinity mask as the kernel reads it.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct CpuSet([u64; CPU_SET_WORDS]);

#[repr(C)]
struct TimeVal {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` of Linux: two `timeval`s and fourteen `long`s.
#[repr(C)]
struct RUsage {
    utime: TimeVal,
    stime: TimeVal,
    maxrss: c_long,
    _ixrss_to_nsignals: [c_long; 11],
    nvcsw: c_long,
    nivcsw: c_long,
}

const RUSAGE_SELF: c_int = 0;

extern "C" {
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
    fn getrusage(who: c_int, usage: *mut RUsage) -> c_int;
    fn sysconf(name: c_int) -> c_long;
}

/// `_SC_CLK_TCK` of Linux: the unit of the times in `/proc/stat`.
const SC_CLK_TCK: c_int = 2;

impl CpuSet {
    /// The calling thread's current affinity mask.
    pub fn current() -> Result<CpuSet, String> {
        let mut set = CpuSet([0; CPU_SET_WORDS]);
        // SAFETY: the pointer covers exactly `size_of_val(&set.0)` writable
        // bytes, which is the size passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&set.0), set.0.as_mut_ptr()) };
        if rc == 0 {
            Ok(set)
        } else {
            Err(format!(
                "sched_getaffinity: {}",
                std::io::Error::last_os_error()
            ))
        }
    }

    /// Make this mask the calling thread's affinity.
    pub fn apply(&self) -> Result<(), String> {
        // SAFETY: the pointer covers exactly `size_of_val(&self.0)` readable
        // bytes, which is the size passed; pid 0 names the calling thread.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&self.0), self.0.as_ptr()) };
        if rc == 0 {
            Ok(())
        } else {
            Err(format!(
                "sched_setaffinity: {}",
                std::io::Error::last_os_error()
            ))
        }
    }

    /// Number of CPUs in the mask.
    pub fn count(&self) -> u32 {
        self.0.iter().map(|w| w.count_ones()).sum()
    }

    /// The mask holding only this mask's highest-numbered CPU (CPU 0
    /// takes most of a small VM's interrupts, so the last one is calmer).
    fn last_cpu_only(&self) -> Option<(usize, CpuSet)> {
        let word = self.0.iter().rposition(|&w| w != 0)?;
        let bit = 63 - self.0[word].leading_zeros() as usize;
        let mut only = [0u64; CPU_SET_WORDS];
        only[word] = 1 << bit;
        Some((word * 64 + bit, CpuSet(only)))
    }
}

/// The outcome of [`pin_to_one_cpu`]: which CPU, and the mask to restore
/// for the one deliberately unpinned rep.
#[derive(Copy, Clone, Debug)]
pub struct Pin {
    /// The CPU every timed region runs on.
    pub cpu: usize,
    /// The mask the process started with.
    pub original: CpuSet,
    /// The one-CPU mask.
    pub pinned: CpuSet,
}

/// Pin the calling thread (and every thread it spawns from now on) to
/// one CPU of its current mask.
pub fn pin_to_one_cpu() -> Result<Pin, String> {
    let original = CpuSet::current()?;
    let (cpu, pinned) = original
        .last_cpu_only()
        .ok_or_else(|| "empty affinity mask".to_string())?;
    pinned.apply()?;
    Ok(Pin {
        cpu,
        original,
        pinned,
    })
}

/// Resource counters of this process, all threads, dead ones included.
#[derive(Copy, Clone, Debug, Default)]
pub struct Usage {
    /// CPU seconds in user mode.
    pub user_s: f64,
    /// CPU seconds in the kernel.
    pub sys_s: f64,
    /// Context switches the process asked for (blocking, futex waits).
    pub voluntary: u64,
    /// Context switches forced on it (preemption).
    pub involuntary: u64,
    /// Peak resident set in MB.
    pub peak_rss_mb: f64,
}

impl Usage {
    /// Read the counters now.
    pub fn now() -> Usage {
        // SAFETY: an all-zero `RUsage` is a valid value of a struct of
        // plain integers.
        let mut ru: RUsage = unsafe { std::mem::zeroed() };
        // SAFETY: `ru` is a writable `struct rusage` of the layout Linux
        // documents for 64-bit targets (two timevals, fourteen longs).
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
        let secs = |t: &TimeVal| t.sec as f64 + t.usec as f64 * 1e-6;
        Usage {
            user_s: secs(&ru.utime),
            sys_s: secs(&ru.stime),
            voluntary: ru.nvcsw as u64,
            involuntary: ru.nivcsw as u64,
            peak_rss_mb: ru.maxrss as f64 / 1024.0,
        }
    }

    /// Counters accumulated since `earlier` (peak RSS is not a delta and
    /// keeps the later reading).
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            voluntary: self.voluntary - earlier.voluntary,
            involuntary: self.involuntary - earlier.involuntary,
            peak_rss_mb: self.peak_rss_mb,
        }
    }

    /// Add another delta to this one.
    pub fn add(&mut self, other: &Usage) {
        self.user_s += other.user_s;
        self.sys_s += other.sys_s;
        self.voluntary += other.voluntary;
        self.involuntary += other.involuntary;
        self.peak_rss_mb = self.peak_rss_mb.max(other.peak_rss_mb);
    }
}

/// Make the kernel forget the process's peak resident set, so that the
/// next [`Usage::now`] reads the peak since this call. `false` where the
/// kernel does not offer it; the peak then stays the peak since start.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Seconds CPU `cpu` has sat idle since boot (`idle` and `iowait` of its
/// `/proc/stat` line). While a process pinned to that CPU runs, these are
/// the seconds in which every one of its threads slept or waited and
/// nobody else wanted the CPU: time that passes on the wall but that
/// [`Usage::busy_s`] does not see.
pub fn cpu_idle_s(cpu: usize) -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    // SAFETY: `sysconf` reads a constant of the running kernel.
    let ticks_per_s = unsafe { sysconf(SC_CLK_TCK) };
    idle_ticks(&stat, cpu).map(|ticks| ticks as f64 / ticks_per_s.max(1) as f64)
}

/// `idle + iowait` of the `cpu<N>` line of a `/proc/stat` text.
fn idle_ticks(stat: &str, cpu: usize) -> Option<u64> {
    let label = format!("cpu{cpu}");
    let mut fields = stat
        .lines()
        .find(|l| l.split_whitespace().next() == Some(label.as_str()))?
        .split_whitespace()
        .skip(4);
    let idle: u64 = fields.next()?.parse().ok()?;
    let iowait: u64 = fields.next()?.parse().ok()?;
    Some(idle + iowait)
}

/// Run `f`; return its result and the wall seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Like [`timed`], with the resource counters the call consumed.
pub fn timed_with_usage<T>(f: impl FnOnce() -> T) -> (T, f64, Usage) {
    let (out, ran) = Interval::of(f);
    (out, ran.wall_s(), ran.usage)
}

/// When a timed call ran and what it cost.
#[derive(Copy, Clone, Debug)]
pub struct Interval {
    /// When the call began.
    pub start: Instant,
    /// When it returned.
    pub end: Instant,
    /// Resource counters it consumed.
    pub usage: Usage,
}

impl Interval {
    /// Run `f` and record when it ran and what it consumed.
    pub fn of<T>(f: impl FnOnce() -> T) -> (T, Interval) {
        let before = Usage::now();
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let usage = Usage::now().since(&before);
        (out, Interval { start, end, usage })
    }

    /// Wall seconds from start to end.
    pub fn wall_s(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

impl Usage {
    /// Seconds this process's threads held a CPU. On one pinned CPU that
    /// is the wall time minus what the hypervisor stole and what other
    /// processes on the CPU took; on a quiet host the two agree to the
    /// microsecond.
    pub fn busy_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

// ---------------------------------------------------------------------
// The state of the host
// ---------------------------------------------------------------------

/// What the host gives the pinned CPU right now, as two probes read it.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct HostState {
    /// Nanoseconds per step of [`core_probe_ns`]: how fast the core
    /// retires this process's instructions.
    pub core_ns: f64,
    /// Nanoseconds per hop of [`MemProbe`]: how long a miss of the TLB
    /// and the near caches takes.
    pub mem_ns: f64,
}

/// The state the 2-vCPU sandbox sits in most of the time (3.2 GHz, a
/// quiet neighbourhood). Timings are reported as they would read in this
/// state.
pub const REFERENCE: HostState = HostState {
    core_ns: 1.39,
    mem_ns: 158.0,
};

/// How a workload's time follows the host's state: its time grows as
/// `core_ns^core * mem_ns^mem`. Fitted once per workload over reps that
/// saw the host move (README, "The host's state").
#[derive(Copy, Clone, Debug)]
pub struct Sensitivity {
    /// Exponent of [`HostState::core_ns`].
    pub core: f64,
    /// Exponent of [`HostState::mem_ns`].
    pub mem: f64,
}

impl HostState {
    /// Factor that takes seconds measured in this state to the seconds
    /// the same work takes at [`REFERENCE`].
    pub fn to_reference(self, s: Sensitivity) -> f64 {
        (REFERENCE.core_ns / self.core_ns).powf(s.core)
            * (REFERENCE.mem_ns / self.mem_ns).powf(s.mem)
    }
}

/// Nanoseconds one step of the core probe takes right now. A step is six
/// independent integer chains, four of them multiplies: enough to keep
/// the core's multiplier busy every cycle. Its time follows the core
/// clock, which on a shared host moves by a quarter for seconds at a
/// time, and it rises when something else shares the core's execution
/// units, which a single dependent chain would not notice. The fastest of
/// three short bursts, so that an interrupt in one does not count.
pub fn core_probe_ns() -> f64 {
    const STEPS: u64 = 40_000;
    const M1: u64 = 6_364_136_223_846_793_005;
    const M2: u64 = 0x9E37_79B9_7F4A_7C15;
    let burst = || {
        let t0 = Instant::now();
        let (mut a, mut b, mut c, mut d, mut e, mut f) = (1u64, 2u64, 3u64, 4u64, 5u64, 6u64);
        for i in 0..STEPS {
            let k = std::hint::black_box(i);
            a = a.wrapping_mul(M1).wrapping_add(k);
            b = b.wrapping_mul(M1) ^ k;
            c = c.wrapping_mul(M2).wrapping_add(k);
            d = d.wrapping_mul(M2) ^ k;
            e = e.wrapping_add(k).rotate_left(7) ^ a;
            f = f.wrapping_add(e) ^ (k >> 3);
        }
        std::hint::black_box(a ^ b ^ c ^ d ^ e ^ f);
        t0.elapsed().as_secs_f64() * 1e9 / STEPS as f64
    };
    burst().min(burst()).min(burst())
}

/// A pointer chase through one random cycle over a 4 MiB table: every hop
/// misses the TLB and the near caches, so its time is what the memory
/// system behind the core costs right now. That cost rises when the
/// host's other tenants press on the shared cache and memory, at a core
/// clock that has not moved.
pub struct MemProbe {
    next: Vec<u32>,
    at: u32,
}

impl MemProbe {
    const ENTRIES: usize = 1 << 20;
    const HOPS: u32 = 1_000;

    /// Build the table (Sattolo's shuffle from a fixed seed: one cycle
    /// through every entry).
    pub fn new() -> MemProbe {
        let mut next: Vec<u32> = (0..Self::ENTRIES as u32).collect();
        let mut x = 88_172_645_463_325_252u64;
        for i in (1..Self::ENTRIES).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            next.swap(i, (x % i as u64) as usize);
        }
        MemProbe { next, at: 0 }
    }

    /// Nanoseconds per hop right now: the fastest of three short bursts,
    /// each carrying on where the last one stopped.
    pub fn ns(&mut self) -> f64 {
        let mut burst = || {
            let t0 = Instant::now();
            let mut at = self.at;
            for _ in 0..Self::HOPS {
                at = self.next[at as usize];
            }
            self.at = std::hint::black_box(at);
            t0.elapsed().as_secs_f64() * 1e9 / Self::HOPS as f64
        };
        burst().min(burst()).min(burst())
    }
}

/// Pause between two readings of the [`HostMonitor`]: the host holds a
/// state for a second or more, and one reading costs 0.6 ms.
const MONITOR_PERIOD: Duration = Duration::from_millis(50);

/// A thread that reads the host's state every [`MONITOR_PERIOD`] while
/// reps run (on the pinned CPU, which it inherits: 1 % of it).
pub struct HostMonitor {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<(Instant, HostState)>>,
}

impl HostMonitor {
    /// Start reading.
    pub fn start() -> HostMonitor {
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let mut mem = MemProbe::new();
        let thread = std::thread::spawn(move || {
            let mut samples = Vec::new();
            // `Relaxed`: the flag publishes nothing but itself.
            while !stopped.load(Ordering::Relaxed) {
                let state = HostState {
                    core_ns: core_probe_ns(),
                    mem_ns: mem.ns(),
                };
                samples.push((Instant::now(), state));
                std::thread::sleep(MONITOR_PERIOD);
            }
            samples
        });
        HostMonitor { stop, thread }
    }

    /// Stop reading and hand over what was seen.
    pub fn finish(self) -> HostTrack {
        self.stop.store(true, Ordering::Relaxed);
        HostTrack(self.thread.join().expect("the host monitor does not panic"))
    }
}

/// The readings of one run, in time order.
pub struct HostTrack(Vec<(Instant, HostState)>);

impl HostTrack {
    /// Mean state over `interval`; the reading nearest to it if none fell
    /// inside.
    pub fn over(&self, interval: &Interval) -> HostState {
        let inside: Vec<&HostState> = self
            .0
            .iter()
            .filter(|(at, _)| (interval.start..=interval.end).contains(at))
            .map(|(_, state)| state)
            .collect();
        if !inside.is_empty() {
            let mean = |f: fn(&HostState) -> f64| {
                inside.iter().map(|s| f(s)).sum::<f64>() / inside.len() as f64
            };
            return HostState {
                core_ns: mean(|s| s.core_ns),
                mem_ns: mean(|s| s.mem_ns),
            };
        }
        let distance = |at: &Instant| {
            at.saturating_duration_since(interval.end)
                .max(interval.start.saturating_duration_since(*at))
        };
        self.0
            .iter()
            .min_by_key(|(at, _)| distance(at))
            .map_or(REFERENCE, |&(_, state)| state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_cpu_of_a_mask() {
        let mut words = [0u64; CPU_SET_WORDS];
        words[0] = 0b1011;
        words[1] = 0b100;
        let (cpu, only) = CpuSet(words).last_cpu_only().unwrap();
        assert_eq!(cpu, 66);
        assert_eq!(only.count(), 1);
        assert!(CpuSet([0; CPU_SET_WORDS]).last_cpu_only().is_none());
    }

    #[test]
    fn idle_time_is_read_from_the_pinned_cpus_line() {
        let stat = "cpu  9 0 9 900 90 0 0 0 0 0\n\
                    cpu1 4 0 4 400 40 0 0 7 0 0\n\
                    cpu11 5 0 5 500 50 0 0 0 0 0\nintr 1 2 3\n";
        assert_eq!(idle_ticks(stat, 1), Some(440));
        assert_eq!(idle_ticks(stat, 11), Some(550));
        assert_eq!(idle_ticks(stat, 2), None);
        let before = cpu_idle_s(0).expect("/proc/stat lists cpu0");
        assert!(cpu_idle_s(0).unwrap() >= before);
    }

    #[test]
    fn a_rep_reads_the_state_of_its_own_interval() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let rep = |from: u64, to: u64| Interval {
            start: at(from),
            end: at(to),
            usage: Usage::default(),
        };
        let state = |core_ns: f64| HostState {
            core_ns,
            mem_ns: 100.0 * core_ns,
        };
        let track = HostTrack(vec![
            (at(0), state(1.0)),
            (at(50), state(1.2)),
            (at(100), state(1.4)),
            (at(150), state(2.0)),
        ]);
        let mean = track.over(&rep(40, 110));
        assert!((mean.core_ns - 1.3).abs() < 1e-12 && (mean.mem_ns - 130.0).abs() < 1e-9);
        // No reading inside: the nearest one, on either side.
        assert_eq!(track.over(&rep(60, 70)), state(1.2));
        assert_eq!(track.over(&rep(80, 90)), state(1.4));
        assert_eq!(track.over(&rep(200, 300)), state(2.0));
        assert_eq!(HostTrack(Vec::new()).over(&rep(0, 1)), REFERENCE);
    }

    #[test]
    fn time_is_rescaled_by_each_probe_to_its_exponent() {
        let both = Sensitivity {
            core: 0.5,
            mem: 1.0,
        };
        // In the reference state nothing changes.
        assert_eq!(REFERENCE.to_reference(both), 1.0);
        // A core a quarter faster: work that follows the core one to one
        // took 1/1.25 of the reference time, so it is scaled up by 1.25 ...
        let fast = HostState {
            core_ns: REFERENCE.core_ns / 1.25,
            ..REFERENCE
        };
        let follows = |core, mem| fast.to_reference(Sensitivity { core, mem });
        assert!((follows(1.0, 0.0) - 1.25).abs() < 1e-12);
        // ... work that does not care is left alone ...
        assert_eq!(follows(0.0, 1.0), 1.0);
        // ... and the two probes multiply.
        let slow_memory = HostState {
            mem_ns: REFERENCE.mem_ns * 1.1,
            ..fast
        };
        assert!((slow_memory.to_reference(both) - 1.25f64.sqrt() / 1.1).abs() < 1e-12);
    }

    #[test]
    fn the_memory_probe_walks_one_cycle_through_the_whole_table() {
        let probe = MemProbe::new();
        let (mut at, mut hops) = (0u32, 0usize);
        loop {
            at = probe.next[at as usize];
            hops += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(hops, MemProbe::ENTRIES);
    }

    #[test]
    fn the_monitor_reads_a_plausible_state() {
        let monitor = HostMonitor::start();
        let ((), rep) = Interval::of(|| std::thread::sleep(3 * MONITOR_PERIOD));
        let state = monitor.finish().over(&rep);
        // Between 20x faster and 20x slower than the reference host.
        assert!((0.07..30.0).contains(&state.core_ns), "{state:?}");
        assert!((7.0..3000.0).contains(&state.mem_ns), "{state:?}");
        assert!(rep.wall_s() >= 0.15);
    }

    #[test]
    fn usage_deltas_are_monotone() {
        let a = Usage::now();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let d = Usage::now().since(&a);
        assert!(d.user_s >= 0.0 && d.sys_s >= 0.0);
        assert!(d.peak_rss_mb > 1.0, "ru_maxrss reads in KB on Linux");
    }
}
