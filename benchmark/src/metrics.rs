//! The names, units, directions and bounds of every metric the benchmark
//! prints, and its workloads' names and reasons. They are written down
//! once, in `BENCHMARK.json`, and read from there.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use serde::Value;

use crate::stats::Summary;

/// Direction in which a metric improves.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// A metric's name, unit and direction.
pub struct Def {
    /// Name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: String,
    /// Which way is better.
    pub better: Better,
}

/// An end-to-end metric and the share of the parent's median by which
/// it may worsen before a change counts as a regression.
pub struct EndToEnd {
    /// The metric.
    pub def: Def,
    /// Regression bound.
    pub bound: f64,
}

/// What `BENCHMARK.json` fixes.
pub struct Tables {
    /// `run_seconds`: the length of the timed loop.
    pub run_seconds: f64,
    /// Workload names and why each was chosen, in run order.
    pub workloads: Vec<(String, String)>,
    /// End-to-end metrics, measured with tracing off. Every one is
    /// defined and non-zero on every workload.
    pub end_to_end: Vec<EndToEnd>,
    /// Per-layer metrics, measured in the traced pass. A metric that does
    /// not apply to a workload reads 0 there.
    pub per_layer: Vec<Def>,
}

/// The virtual-time results. They are end-to-end in kind but must repeat
/// exactly rather than within a share: every rep of a run must agree on
/// them, and `--compare` reports any difference between two runs of one
/// seed as a change. Listed under `per_layer`.
pub const VIRTUAL_EXACT: [&str; 4] = [
    "virtual_s",
    "virtual_query_p50_s",
    "virtual_query_p95_s",
    "paper_error_pct",
];

/// The raw wall clock's reading of a rep. `--compare` holds it to
/// [`RAW_WALL_BOUND`] beside `wall_s`, so that a change is also held to
/// a time no model of the host has touched.
pub const RAW_WALL: &str = "host.wall_raw_s";

/// Bound of [`RAW_WALL`] in `--compare`: the widest the benchmark uses,
/// because the raw wall clock carries the host's clock swings in full.
pub const RAW_WALL_BOUND: f64 = 0.25;

fn parse(text: &str) -> Result<Tables, serde::Error> {
    let json: Value = serde_json::from_str(text)?;
    let def = |entry: &Value| -> Result<Def, serde::Error> {
        Ok(Def {
            name: entry.field("name")?.as_str()?.to_string(),
            unit: entry.field("unit")?.as_str()?.to_string(),
            better: match entry.field("better")?.as_str()? {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => return Err(serde::Error::new(format!("better: `{other}`"))),
            },
        })
    };
    Ok(Tables {
        run_seconds: json.field("run_seconds")?.as_f64()?,
        workloads: json
            .field("workloads")?
            .as_arr()?
            .iter()
            .map(|w| {
                Ok((
                    w.field("name")?.as_str()?.to_string(),
                    w.field("why")?.as_str()?.to_string(),
                ))
            })
            .collect::<Result<_, serde::Error>>()?,
        end_to_end: json
            .field("end_to_end")?
            .as_arr()?
            .iter()
            .map(|e| {
                Ok(EndToEnd {
                    def: def(e)?,
                    bound: e.field("bound")?.as_f64()?,
                })
            })
            .collect::<Result<_, serde::Error>>()?,
        per_layer: json
            .field("per_layer")?
            .as_arr()?
            .iter()
            .map(def)
            .collect::<Result<_, serde::Error>>()?,
    })
}

/// The tables of the `BENCHMARK.json` this binary was built beside.
pub fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json lists the metrics")
    })
}

impl Tables {
    /// The per-layer metrics that describe the host rather than a layer
    /// (`host.*`). They are printed with either kind of run, so that
    /// `wall_s` can always be read against what the host was doing.
    pub fn host(&self) -> impl Iterator<Item = &Def> {
        self.per_layer
            .iter()
            .filter(|d| d.name.starts_with("host."))
    }

    fn lists(&self, name: &str) -> bool {
        let mut names = self
            .end_to_end
            .iter()
            .map(|m| &m.def)
            .chain(&self.per_layer)
            .map(|d| d.name.as_str());
        names.any(|n| n == name)
    }
}

/// Measured values by metric name.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, Summary>);

impl Values {
    /// Record a value that was read once.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.set_summary(name, Summary::single(value));
    }

    /// Record a sampled value.
    pub fn set_summary(&mut self, name: &'static str, summary: Summary) {
        assert!(
            summary.median.is_finite(),
            "metric {name} is not a finite number"
        );
        assert!(
            tables().lists(name),
            "metric {name} is not listed in BENCHMARK.json"
        );
        let fresh = self.0.insert(name, summary).is_none();
        assert!(fresh, "metric {name} was set twice");
    }

    /// The value of `name`; a metric the run did not produce is a bug in
    /// the benchmark.
    pub fn get(&self, name: &str) -> Summary {
        *self
            .0
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    /// `BENCHMARK.json` obeys the rules it is checked against, names
    /// every workload the benchmark can run, and fixes the bounds the
    /// benchmark was defined with.
    #[test]
    fn benchmark_json_is_well_formed() {
        let t = tables();
        let runnable: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        let listed: Vec<&str> = t.workloads.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(listed, runnable);
        for (_, why) in &t.workloads {
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        assert!((2..=8).contains(&t.workloads.len()));
        assert!((1..=16).contains(&t.end_to_end.len()));
        assert!((1..=128).contains(&t.per_layer.len()));
        assert!((1.0..=60.0).contains(&t.run_seconds) && t.run_seconds.fract() == 0.0);

        let bound = |name: &str| {
            let m = t.end_to_end.iter().find(|m| m.def.name == name);
            m.unwrap_or_else(|| panic!("{name} is not end-to-end"))
                .bound
        };
        assert_eq!(bound("setup_s"), 0.25);
        for name in ["wall_s", "tuples_per_wall_s", "peak_rss_mb"] {
            assert_eq!(bound(name), 0.10, "{name}");
        }

        let defs = || t.end_to_end.iter().map(|m| &m.def).chain(&t.per_layer);
        let mut names: Vec<&str> = listed
            .into_iter()
            .chain(defs().map(|d| d.name.as_str()))
            .collect();
        for name in &names {
            assert!(valid_name(name), "bad name {name}");
        }
        for def in defs() {
            assert!(valid_unit(&def.unit), "bad unit {}", def.unit);
        }
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
        for name in VIRTUAL_EXACT.iter().chain([&RAW_WALL]) {
            assert!(t.per_layer.iter().any(|m| m.name == *name), "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "set twice")]
    fn a_metric_is_set_once() {
        let mut v = Values::default();
        v.set("wall_s", 1.0);
        v.set("wall_s", 2.0);
    }

    #[test]
    #[should_panic(expected = "not listed")]
    fn a_metric_that_benchmark_json_does_not_list_is_refused() {
        Values::default().set("wall_seconds", 1.0);
    }
}
