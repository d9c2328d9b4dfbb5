//! What a run prints and writes: every metric by name with its unit for
//! people, one JSON object as the last line for the driver, and a detail
//! file under `benchmark/out/` (quartiles, sample counts, spans) for
//! `--compare`.

use std::path::{Path, PathBuf};

use serde::Value;

use crate::metrics::{tables, Def};
use crate::run::{Outcome, RepSample};
use crate::stats::Summary;

/// Schema tag of the detail and result files.
pub const SCHEMA: &str = "rsj-benchmark/v1";

/// Where a run leaves its files: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The detail file of one (workload, trace) run.
pub fn detail_path(workload: &str, trace: bool) -> PathBuf {
    out_dir().join(format!("{workload}.trace{}.json", u8::from(trace)))
}

/// The metrics a run of this kind reports, in table order.
pub fn defs(trace: bool) -> Vec<&'static Def> {
    if trace {
        tables().per_layer.iter().collect()
    } else {
        tables().end_to_end.iter().map(|m| &m.def).collect()
    }
}

/// What people are shown: the reported metrics, and with tracing off the
/// host rows as well.
fn printed_defs(trace: bool) -> Vec<&'static Def> {
    let mut defs = defs(trace);
    if !trace {
        defs.extend(tables().host());
    }
    defs
}

fn num(x: f64) -> Value {
    Value::Num(x)
}

fn metric_value(def: &Def, s: Summary, detailed: bool) -> Value {
    let mut fields = vec![
        ("value".to_string(), num(s.median)),
        ("unit".to_string(), Value::Str(def.unit.clone())),
    ];
    if detailed {
        fields.push(("q1".to_string(), num(s.q1)));
        fields.push(("q3".to_string(), num(s.q3)));
        fields.push(("n".to_string(), num(s.n as f64)));
    }
    Value::Obj(fields)
}

/// The result line carries exactly the reported metrics; the detail
/// file carries what people are shown, with quartiles and sample counts.
fn metrics_value(outcome: &Outcome, trace: bool, detailed: bool) -> Value {
    let defs = if detailed {
        printed_defs(trace)
    } else {
        defs(trace)
    };
    Value::Obj(
        defs.into_iter()
            .map(|def| {
                (
                    def.name.clone(),
                    metric_value(def, outcome.values.get(&def.name), detailed),
                )
            })
            .collect(),
    )
}

/// The contract's result object: exactly `correct`, `attempted`,
/// `failed`, `metrics`.
pub fn result_line(outcome: &Outcome, trace: bool) -> String {
    let v = serde::obj([
        ("correct", Value::Bool(outcome.failed == 0)),
        ("attempted", num(outcome.attempted as f64)),
        ("failed", num(outcome.failed as f64)),
        ("metrics", metrics_value(outcome, trace, false)),
    ]);
    serde_json::to_string(&v).expect("every metric is finite")
}

/// Facts about a run that are not metrics.
pub struct RunInfo<'a> {
    /// Workload name.
    pub workload: &'a str,
    /// Why the workload was chosen.
    pub why: &'a str,
    /// `--seed`.
    pub seed: u64,
    /// `full` or `quick`.
    pub mode: &'a str,
    /// Seconds the timed loop ran for.
    pub seconds: f64,
    /// Whether the run was pinned to one CPU, and to which.
    pub pinned_cpu: Option<usize>,
    /// CPUs the process could have used.
    pub cpus_available: u32,
}

/// Print every metric by name, with its unit and (for sampled timings)
/// quartiles and sample count.
pub fn print_human(info: &RunInfo, outcome: &Outcome, trace: bool) {
    println!(
        "workload {}  seed {}  mode {}  trace {}  pinned {}{}",
        info.workload,
        info.seed,
        info.mode,
        u8::from(trace),
        info.pinned_cpu.is_some(),
        info.pinned_cpu.map_or_else(
            || "  ** UNPINNED: wall times are not comparable **".to_string(),
            |cpu| format!(" (cpu {cpu} of {})", info.cpus_available)
        ),
    );
    println!("why: {}", info.why);
    println!(
        "timed reps {}  operations attempted {}  failed {}  failed_share {}",
        timed_reps(outcome),
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted as f64
    );
    for def in printed_defs(trace) {
        let s = outcome.values.get(&def.name);
        if s.n > 1 {
            println!(
                "  {:<42} {:>16.6} {:<10} (q1 {:.6}, q3 {:.6}, n {})",
                def.name, s.median, def.unit, s.q1, s.q3, s.n
            );
        } else {
            println!("  {:<42} {:>16.6} {}", def.name, s.median, def.unit);
        }
    }
}

/// The detail object of one run: the result plus quartiles, run facts
/// and the recorded spans.
pub fn detail_value(info: &RunInfo, outcome: &Outcome, trace: bool) -> Value {
    serde::obj([
        ("schema", Value::Str(SCHEMA.to_string())),
        ("workload", Value::Str(info.workload.to_string())),
        ("seed", num(info.seed as f64)),
        ("mode", Value::Str(info.mode.to_string())),
        ("seconds", num(info.seconds)),
        ("trace", Value::Bool(trace)),
        ("pinned", Value::Bool(info.pinned_cpu.is_some())),
        ("cpus_available", num(info.cpus_available as f64)),
        ("timed_reps", num(timed_reps(outcome) as f64)),
        ("attempted", num(outcome.attempted as f64)),
        ("failed", num(outcome.failed as f64)),
        ("metrics", metrics_value(outcome, trace, true)),
        (
            "reps",
            Value::Arr(outcome.reps.iter().map(rep_value).collect()),
        ),
        ("spans", outcome.recorder.to_value(info.workload)),
    ])
}

fn timed_reps(outcome: &Outcome) -> usize {
    outcome.reps.iter().filter(|r| !r.traced).count()
}

fn rep_value(rep: &RepSample) -> Value {
    serde::obj([
        ("traced", Value::Bool(rep.traced)),
        ("wall_s", num(rep.wall_s)),
        ("busy_s", num(rep.busy_s)),
        ("core_probe_ns", num(rep.host.core_ns)),
        ("mem_probe_ns", num(rep.host.mem_ns)),
        ("at_reference_s", num(rep.at_reference_s)),
        ("peak_rss_mb", num(rep.peak_rss_mb)),
    ])
}

/// Write `value` to `path` as one line of JSON, creating `out/`.
pub fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    let text = serde_json::to_string(value).map_err(|e| e.to_string())?;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// Read a JSON file.
pub fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}
