//! `--compare PARENT.json CHANGE.json`: hold a change's full run against
//! its parent's, one row per end-to-end metric and workload.
//!
//! Each wall metric gets the bound the benchmark fixes; a metric whose
//! spread between the parent's own reps is wider than its bound is
//! reported as *unresolved*, not as unchanged. The raw wall clock's
//! reading of a rep is held too, to a wider bound: `wall_s` is a model's
//! reading of the host, and a change must not hide behind the model. The
//! virtual results must repeat exactly. Every ratio is printed with its
//! base.

use serde::Value;

use crate::metrics::{tables, Better, RAW_WALL, RAW_WALL_BOUND, VIRTUAL_EXACT};
use crate::report::{read_json, SCHEMA};
use crate::stats::Summary;

/// What a row of the comparison says.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Worse than the parent by more than the bound.
    Regressed,
    /// The parent's own interquartile spread exceeds the bound: the
    /// comparison cannot tell.
    Unresolved,
    /// No worse than the parent by more than the bound.
    WithinBound,
    /// Better than the parent by more than the bound. Not a claim of a
    /// gain: that takes ten alternating pairs (README).
    Better,
}

/// Share of the parent's median by which `change` is worse (negative:
/// better).
pub fn worse_by(better: Better, parent: f64, change: f64) -> f64 {
    match better {
        Better::Lower => change / parent - 1.0,
        Better::Higher => 1.0 - change / parent,
    }
}

/// Apply `bound` to one metric of one workload.
pub fn judge(better: Better, bound: f64, parent: Summary, change: f64) -> Verdict {
    let worse = worse_by(better, parent.median, change);
    if parent.spread() > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

fn summary_of(metric: &Value) -> Result<Summary, String> {
    let f = |key: &str| {
        metric
            .field(key)
            .and_then(Value::as_f64)
            .map_err(|e| e.to_string())
    };
    Ok(Summary {
        median: f("value")?,
        q1: f("q1")?,
        q3: f("q3")?,
        n: f("n")? as usize,
    })
}

fn load(path: &str) -> Result<Value, String> {
    let v = read_json(std::path::Path::new(path))?;
    let schema = v
        .field("schema")
        .and_then(Value::as_str)
        .map_err(|e| e.to_string())?;
    if schema != SCHEMA {
        return Err(format!("{path}: schema `{schema}`, expected `{SCHEMA}`"));
    }
    Ok(v)
}

fn text<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    v.field(key)
        .and_then(Value::as_str)
        .map_err(|e| e.to_string())
}

fn workload<'a>(result: &'a Value, name: &str) -> Result<&'a Value, String> {
    result
        .field("workloads")
        .and_then(Value::as_arr)
        .map_err(|e| e.to_string())?
        .iter()
        .find(|w| text(w, "name") == Ok(name))
        .ok_or_else(|| format!("workload {name} is missing"))
}

/// Compare two result files of full runs; returns the process exit code
/// (1 if any row regressed or a virtual result changed).
pub fn run(parent_path: &str, change_path: &str) -> Result<i32, String> {
    let parent = load(parent_path)?;
    let change = load(change_path)?;
    for (v, path) in [(&parent, parent_path), (&change, change_path)] {
        if text(v, "mode")? != "full" {
            return Err(format!(
                "{path} is a `{}` run: only full runs are compared",
                text(v, "mode")?
            ));
        }
    }
    let seed = |v: &Value| {
        v.field("seed")
            .and_then(Value::as_f64)
            .map_err(|e| e.to_string())
    };
    let same_seed = seed(&parent)? == seed(&change)?;
    println!("parent {parent_path}\nchange {change_path}");
    println!(
        "{:<22} {:<22} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "parent", "change", "ratio", "bound", "spread"
    );
    let mut bad = false;
    let names = parent
        .field("workloads")
        .and_then(Value::as_arr)
        .map_err(|e| e.to_string())?;
    for pw in names {
        let name = text(pw, "name")?;
        let cw = workload(&change, name)?;
        for side in [pw, cw] {
            if !side
                .field("pinned")
                .and_then(Value::as_bool)
                .map_err(|e| e.to_string())?
            {
                println!("{name}: ** a side ran UNPINNED; its wall times mean nothing **");
                bad = true;
            }
        }
        let metric = |w: &Value, list: &str, m: &str| -> Result<Summary, String> {
            summary_of(
                w.field(list)
                    .and_then(|l| l.field(m))
                    .map_err(|e| format!("{name}: {e}"))?,
            )
        };
        let bounded = tables()
            .end_to_end
            .iter()
            .map(|m| (m.def.name.as_str(), m.def.better, m.bound))
            .chain([(RAW_WALL, Better::Lower, RAW_WALL_BOUND)]);
        for (metric_name, better, bound) in bounded {
            let p = metric(pw, "end_to_end", metric_name)?;
            let c = metric(cw, "end_to_end", metric_name)?;
            let verdict = judge(better, bound, p, c.median);
            bad |= verdict == Verdict::Regressed;
            println!(
                "{:<22} {:<22} {:>14.6} {:>14.6} {:>9.4} {:>6.0}% {:>7.1}%  {}",
                name,
                metric_name,
                p.median,
                c.median,
                c.median / p.median,
                bound * 100.0,
                p.spread() * 100.0,
                match verdict {
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved (parent spread exceeds the bound)",
                    Verdict::WithinBound => "within bound",
                    Verdict::Better => "better by more than the bound (not a claim)",
                }
            );
        }
        // What the host was doing on either side: read `wall_s` against it.
        for def in tables().host().filter(|d| d.name != RAW_WALL) {
            let p = metric(pw, "end_to_end", &def.name)?.median;
            let c = metric(cw, "end_to_end", &def.name)?.median;
            println!(
                "{:<22} {:<22} {:>14.6} {:>14.6} {:>9.4}  (the host; not held)",
                name,
                def.name,
                p,
                c,
                if p == 0.0 { 1.0 } else { c / p },
            );
        }
        for m in VIRTUAL_EXACT {
            let p = metric(pw, "per_layer", m)?.median;
            let c = metric(cw, "per_layer", m)?.median;
            let verdict = if !same_seed {
                "not compared (different seeds)"
            } else if p == c {
                "identical"
            } else {
                bad = true;
                "CHANGED (virtual results must repeat exactly)"
            };
            println!(
                "{:<22} {:<22} {:>14.9} {:>14.9} {:>9.6} {:>6.0}% {:>7.1}%  {}",
                name,
                m,
                p,
                c,
                if p == 0.0 { 1.0 } else { c / p },
                0.0,
                0.0,
                verdict
            );
        }
        let count = |w: &Value, key: &str| {
            w.field(key)
                .and_then(Value::as_f64)
                .map_err(|e| e.to_string())
        };
        let (pf, cf) = (count(pw, "failed")?, count(cw, "failed")?);
        println!(
            "{:<22} {:<22} {:>14} {:>14}  (of {} and {} attempted)  {}",
            name,
            "failed",
            pf,
            cf,
            count(pw, "attempted")?,
            count(cw, "attempted")?,
            if cf > 0.0 {
                "FAILED OPERATIONS"
            } else {
                "none failed"
            }
        );
        bad |= cf > 0.0;
    }
    Ok(i32::from(bad))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parent(median: f64, q1: f64, q3: f64) -> Summary {
        Summary {
            median,
            q1,
            q3,
            n: 9,
        }
    }

    #[test]
    fn a_noisy_parent_is_unresolved_not_unchanged() {
        let noisy = parent(1.0, 0.9, 1.1);
        assert_eq!(judge(Better::Lower, 0.10, noisy, 1.0), Verdict::Unresolved);
        assert_eq!(judge(Better::Lower, 0.10, noisy, 2.0), Verdict::Unresolved);
    }

    #[test]
    fn bounds_apply_in_the_metrics_direction() {
        let steady = parent(1.0, 0.99, 1.01);
        assert_eq!(
            judge(Better::Lower, 0.10, steady, 1.09),
            Verdict::WithinBound
        );
        assert_eq!(judge(Better::Lower, 0.10, steady, 1.11), Verdict::Regressed);
        assert_eq!(judge(Better::Lower, 0.10, steady, 0.85), Verdict::Better);
        assert_eq!(
            judge(Better::Higher, 0.10, steady, 0.91),
            Verdict::WithinBound
        );
        assert_eq!(
            judge(Better::Higher, 0.10, steady, 0.89),
            Verdict::Regressed
        );
        assert_eq!(judge(Better::Higher, 0.10, steady, 1.2), Verdict::Better);
        assert!((worse_by(Better::Higher, 2.0, 1.0) - 0.5).abs() < 1e-12);
    }
}
