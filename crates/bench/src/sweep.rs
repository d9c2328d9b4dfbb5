//! Parallel sweep engine for the `experiments` driver.
//!
//! The full `experiments all` regeneration is a sequence of completely
//! independent experiment units — each builds its own workloads and runs
//! its own [`Simulation`](rsj_sim::Simulation)s, and the units share no
//! mutable state. The engine exploits that: worker OS threads each pull
//! the next unit off a shared counter, run it to completion with its
//! report captured into a thread-local byte sink, and the main thread
//! stitches the captured buffers back together **in unit order**. The
//! output is therefore byte-identical to a serial run by construction —
//! `--jobs 1` and `--jobs N` take the exact same capture path and differ
//! only in how many units are in flight at once.
//!
//! ## Why OS threads are sound here
//!
//! The one-sim-one-thread determinism contract (crates/sim) is per
//! [`Simulation`]: a kernel's event order is a pure function of its own
//! tasks. Each unit owns whole simulations end to end; no kernel object
//! ever crosses a worker boundary, and the only cross-worker traffic is
//! the finished byte buffer. Host-level scheduling can reorder *wall
//! clock* completion, never virtual time.

use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::{experiments, Scale};

thread_local! {
    /// Capture sink for the current worker. `None` (the default) means
    /// report lines go straight to stdout — the path every direct
    /// `experiments <id>` invocation takes.
    static SINK: RefCell<Option<Vec<u8>>> = const { RefCell::new(None) };
}

/// Write one report line to the active sink (or stdout when none is
/// installed). This is `outln!`'s runtime; experiment code never calls
/// it directly.
#[doc(hidden)]
pub fn emit_line(args: std::fmt::Arguments<'_>) {
    SINK.with(|s| {
        let mut s = s.borrow_mut();
        match s.as_mut() {
            Some(buf) => {
                buf.write_fmt(args).expect("writing to a Vec cannot fail");
                buf.push(b'\n');
            }
            None => println!("{args}"),
        }
    });
}

/// `println!` for experiment reports: routed through the sweep engine's
/// capture sink so parallel workers can interleave freely while the
/// stitched output stays byte-identical to a serial run.
#[macro_export]
macro_rules! outln {
    () => { $crate::sweep::emit_line(format_args!("")) };
    ($($arg:tt)*) => { $crate::sweep::emit_line(format_args!($($arg)*)) };
}

/// One independent experiment unit of the `all` sweep.
pub struct SweepUnit {
    /// The experiment id accepted by the `experiments` binary.
    pub id: &'static str,
    /// Entry point; prints its report through [`outln!`].
    pub run: fn(Scale),
}

fn fig9a(scale: Scale) {
    experiments::fig9(scale, true);
}

fn fig9b(scale: Scale) {
    experiments::fig9(scale, false);
}

fn fig10a(scale: Scale) {
    experiments::fig10(scale, false);
}

fn fig10b(scale: Scale) {
    experiments::fig10(scale, true);
}

/// Every unit of `experiments all`, in report order. The stitched sweep
/// output is the concatenation of these units' captures in table order.
pub const UNITS: &[SweepUnit] = &[
    SweepUnit {
        id: "fig3",
        run: experiments::fig3,
    },
    SweepUnit {
        id: "fig5a",
        run: experiments::fig5a,
    },
    SweepUnit {
        id: "fig5b",
        run: experiments::fig5b,
    },
    SweepUnit {
        id: "fig6a",
        run: experiments::fig6a,
    },
    SweepUnit {
        id: "fig6b",
        run: experiments::fig6b,
    },
    SweepUnit {
        id: "fig7a",
        run: experiments::fig7a,
    },
    SweepUnit {
        id: "fig7b",
        run: experiments::fig7b,
    },
    SweepUnit {
        id: "fig8",
        run: experiments::fig8,
    },
    SweepUnit {
        id: "fig8ws",
        run: experiments::fig8_work_sharing,
    },
    SweepUnit {
        id: "fig9a",
        run: fig9a,
    },
    SweepUnit {
        id: "fig9b",
        run: fig9b,
    },
    SweepUnit {
        id: "fig10a",
        run: fig10a,
    },
    SweepUnit {
        id: "fig10b",
        run: fig10b,
    },
    SweepUnit {
        id: "wide",
        run: experiments::wide_tuples,
    },
    SweepUnit {
        id: "hardware",
        run: experiments::hardware,
    },
    SweepUnit {
        id: "optimal",
        run: experiments::optimal,
    },
    SweepUnit {
        id: "buffers",
        run: experiments::buffer_size_sweep,
    },
    SweepUnit {
        id: "operators",
        run: experiments::operators,
    },
    SweepUnit {
        id: "materialize",
        run: experiments::materialization,
    },
    SweepUnit {
        id: "shootout",
        run: experiments::shootout,
    },
];

/// Resolve a comma-separated subset list (`"fig3,hardware"`) to unit
/// indices, preserving the canonical `all` order rather than the list
/// order so a subset's bytes are a subsequence of the full sweep's.
pub fn resolve_subset(list: &str) -> Result<Vec<usize>, String> {
    let mut want: Vec<&str> = Vec::new();
    for id in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        if !UNITS.iter().any(|u| u.id == id) {
            return Err(format!("unknown experiment `{id}` in --subset"));
        }
        if !want.contains(&id) {
            want.push(id);
        }
    }
    if want.is_empty() {
        return Err("--subset selected no experiments".to_string());
    }
    Ok((0..UNITS.len())
        .filter(|&i| want.contains(&UNITS[i].id))
        .collect())
}

/// Run one unit with the capture sink installed and return its bytes.
fn capture_one(unit: usize, scale: Scale) -> Vec<u8> {
    SINK.with(|s| {
        let prev = s.borrow_mut().replace(Vec::new());
        assert!(prev.is_none(), "nested sweep capture");
    });
    (UNITS[unit].run)(scale);
    SINK.with(|s| s.borrow_mut().take())
        .expect("capture sink was installed above")
}

/// Run the given units and return their captured reports in unit order.
/// `jobs <= 1` runs them on the calling thread; `jobs > 1` fans out over
/// that many worker threads pulling units off a shared counter. Both
/// paths capture through the identical sink, so the returned bytes are
/// the same regardless of `jobs`.
pub fn capture_units(units: &[usize], scale: Scale, jobs: usize) -> Vec<Vec<u8>> {
    let jobs = jobs.max(1).min(units.len().max(1));
    if jobs <= 1 {
        return units.iter().map(|&u| capture_one(u, scale)).collect();
    }
    let next = AtomicUsize::new(0);
    // Host OS threads, not sim tasks: each unit owns whole Simulations,
    // so the kernel's determinism contract is untouched (module docs).
    // Each worker hands back the units it ran, keyed by their position.
    let mut done: Vec<(usize, Vec<u8>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    let mut ran = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&unit) = units.get(k) else { break ran };
                        ran.push((k, capture_one(unit, scale)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("a sweep worker panicked"))
            .collect()
    });
    done.sort_unstable_by_key(|&(k, _)| k);
    done.into_iter().map(|(_, buf)| buf).collect()
}

/// Run the sweep and stream the stitched reports to stdout in unit
/// order. This is the `experiments all` entry point.
pub fn run_sweep(units: &[usize], scale: Scale, jobs: usize) {
    let bufs = capture_units(units, scale, jobs);
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for buf in &bufs {
        out.write_all(buf)
            .expect("writing the sweep report to stdout failed");
    }
    out.flush().expect("flushing the sweep report failed");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_cover_the_all_sequence() {
        assert_eq!(UNITS.len(), 20);
        let ids: Vec<&str> = UNITS.iter().map(|u| u.id).collect();
        assert_eq!(ids[0], "fig3");
        assert_eq!(ids[19], "shootout");
    }

    #[test]
    fn subset_resolution_keeps_canonical_order() {
        let got = resolve_subset("hardware, fig3,optimal").expect("valid subset");
        let ids: Vec<&str> = got.iter().map(|&i| UNITS[i].id).collect();
        assert_eq!(ids, ["fig3", "hardware", "optimal"]);
        assert!(resolve_subset("fig99").is_err());
        assert!(resolve_subset(" , ").is_err());
    }

    #[test]
    fn parallel_capture_matches_serial_bytes() {
        // The two cheapest units (no joins): identical stitched bytes
        // under 1 and 3 workers.
        let units = resolve_subset("hardware,optimal").expect("valid subset");
        let scale = Scale::new(crate::DEFAULT_SCALE);
        let serial = capture_units(&units, scale, 1);
        let parallel = capture_units(&units, scale, 3);
        assert_eq!(serial, parallel);
        assert!(!serial[0].is_empty() && !serial[1].is_empty());
    }
}
