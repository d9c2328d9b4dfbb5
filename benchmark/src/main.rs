//! The repo benchmark: four pinned workloads, end-to-end wall metrics,
//! per-layer metrics measured from outside the product crates.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- [flags]
//!
//!   (no --workload)        run every workload, each in its own child
//!                          process (trace 0, then trace 1), print every
//!                          metric, write benchmark/out/result.json
//!   --workload NAME        run one workload in this process and print, as
//!                          the last line, one JSON object with `correct`,
//!                          `attempted`, `failed`, `metrics`
//!   --seed N               seed of every generator (default 1)
//!   --seconds S            length of the timed loop (default: the
//!                          `run_seconds` of BENCHMARK.json)
//!   --trace 0|1            0: end-to-end metrics, tracing off (default);
//!                          1: the traced pass, every per-layer metric
//!   --quick                smoke mode: 1 warm-up + 3 reps, short micros;
//!                          labelled `quick`, never compared with `full`
//!   --check                exit non-zero if pinning to one CPU fails
//!   --compare A.json B.json  hold run B against parent run A
//! ```
//!
//! See `README.md` for the protocol and the metric definitions.

mod compare;
mod host;
mod layers;
mod metrics;
mod micro;
mod report;
mod run;
mod scale;
mod stats;
mod trace;
mod workloads;

use std::process::{Command, ExitCode};

use serde::Value;

use report::{detail_path, out_dir, read_json, write_json, RunInfo, SCHEMA};
use workloads::WORKLOADS;

/// Default `--seed`.
const DEFAULT_SEED: u64 = 1;

struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    check: bool,
    compare: Option<(String, String)>,
}

fn usage() -> ! {
    eprintln!(
        "usage: rsj-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
         [--quick] [--check] | --compare PARENT.json CHANGE.json\nworkloads: {}",
        WORKLOADS.map(|w| w.name).join(", ")
    );
    std::process::exit(2)
}

fn parse(args: Vec<String>) -> Opts {
    let mut o = Opts {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: metrics::tables().run_seconds,
        trace: false,
        quick: false,
        check: false,
        compare: None,
    };
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => o.workload = Some(value()),
            "--seed" => o.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                o.seconds = value().parse().unwrap_or_else(|_| usage());
                if !(o.seconds.is_finite() && o.seconds >= 0.0) {
                    usage();
                }
            }
            "--trace" => {
                o.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--quick" => o.quick = true,
            "--check" => o.check = true,
            "--compare" => o.compare = Some((value(), value())),
            _ => usage(),
        }
    }
    o
}

/// Run one workload in this process (the contract's entry point).
fn run_one(o: &Opts, name: &str) -> ExitCode {
    let Some((index, spec)) = workloads::find(name) else {
        eprintln!("error: unknown workload `{name}`");
        usage();
    };
    let cpus_available = host::CpuSet::current().map_or(0, |s| s.count());
    let pin = match host::pin_to_one_cpu() {
        Ok(pin) => Some(pin),
        Err(e) => {
            eprintln!("warning: could not pin to one CPU ({e}); this run is UNPINNED");
            if o.check {
                return ExitCode::from(3);
            }
            None
        }
    };
    let plan = if o.quick {
        run::Plan::quick()
    } else {
        run::Plan::full(o.seconds)
    };
    let outcome = run::measure(spec, o.seed, &plan, o.trace, pin.as_ref());
    let (_, why) = &metrics::tables().workloads[index];
    let info = RunInfo {
        workload: spec.name,
        why,
        seed: o.seed,
        mode: plan.mode,
        seconds: plan.seconds,
        pinned_cpu: pin.map(|p| p.cpu),
        cpus_available,
    };
    report::print_human(&info, &outcome, o.trace);
    let detail = report::detail_value(&info, &outcome, o.trace);
    if let Err(e) = write_json(&detail_path(spec.name, o.trace), &detail) {
        eprintln!("warning: {e}");
    }
    println!("{}", report::result_line(&outcome, o.trace));
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Run every workload, one child process per (workload, trace) so that
/// peak RSS and the resource counters belong to one workload.
fn run_all(o: &Opts) -> ExitCode {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let mut failed = false;
    let mut workloads = Vec::new();
    for spec in &WORKLOADS {
        let mut entry = vec![("name".to_string(), Value::Str(spec.name.to_string()))];
        let (mut attempted, mut failures, mut pinned) = (0.0, 0.0, true);
        for trace in [false, true] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", spec.name])
                .args(["--seed", &o.seed.to_string()])
                .args(["--seconds", &o.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }]);
            if o.quick {
                cmd.arg("--quick");
            }
            if o.check {
                cmd.arg("--check");
            }
            // Drop a stale detail file so a crashed child cannot pass for
            // a finished one.
            let path = detail_path(spec.name, trace);
            let _ = std::fs::remove_file(&path);
            let status = cmd.status().expect("spawning a copy of this binary");
            failed |= !status.success();
            let detail = match read_json(&path) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("error: {} trace {}: {e}", spec.name, u8::from(trace));
                    failed = true;
                    continue;
                }
            };
            let count = |key: &str| detail.field(key).and_then(Value::as_f64).unwrap_or(0.0);
            attempted += count("attempted");
            failures += count("failed");
            pinned &= detail
                .field("pinned")
                .and_then(Value::as_bool)
                .unwrap_or(false);
            let metrics = detail.field("metrics").cloned().unwrap_or(Value::Null);
            entry.push((
                if trace { "per_layer" } else { "end_to_end" }.to_string(),
                metrics,
            ));
        }
        entry.push(("pinned".to_string(), Value::Bool(pinned)));
        entry.push(("attempted".to_string(), Value::Num(attempted)));
        entry.push(("failed".to_string(), Value::Num(failures)));
        workloads.push(Value::Obj(entry));
    }
    let result = serde::obj([
        ("schema", Value::Str(SCHEMA.to_string())),
        ("seed", Value::Num(o.seed as f64)),
        (
            "mode",
            Value::Str(if o.quick { "quick" } else { "full" }.to_string()),
        ),
        ("seconds", Value::Num(o.seconds)),
        ("workloads", Value::Arr(workloads)),
    ]);
    let path = out_dir().join("result.json");
    match write_json(&path, &result) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("error: {e}");
            failed = true;
        }
    }
    if failed {
        eprintln!("error: at least one workload failed; see above");
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let o = parse(std::env::args().skip(1).collect());
    if let Some((parent, change)) = &o.compare {
        return match compare::run(parent, change) {
            Ok(code) => ExitCode::from(code as u8),
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    match &o.workload {
        Some(name) => run_one(&o, name),
        None => run_all(&o),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_benchmark_owns_one_directory() {
        let json: Value =
            serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
        let paths: Vec<&str> = json
            .field("paths")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|p| p.as_str().unwrap())
            .collect();
        assert_eq!(paths, ["benchmark"]);
    }

    #[test]
    fn flags_parse() {
        let args = "--workload join_local --seed 7 --seconds 3 --trace 1 --quick";
        let o = parse(args.split(' ').map(String::from).collect());
        assert_eq!(o.workload.as_deref(), Some("join_local"));
        assert_eq!((o.seed, o.seconds, o.trace, o.quick), (7, 3.0, true, true));
        assert!(!o.check && o.compare.is_none());
    }
}
