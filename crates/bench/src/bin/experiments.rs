//! Experiment runner: regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run -p rsj-bench --release --bin experiments -- <id> [--scale N]
//!     [--jobs J] [--subset ids]
//!
//! <id>         one id of `sweep::UNITS` (the usage text lists them), or `all`
//! --scale N    divide the paper's tuple counts by N (default 256)
//! --jobs J     run `all` through the parallel sweep engine with J worker
//!              threads (default 1). Output is stitched in experiment
//!              order and is byte-identical for every J.
//! --subset ids comma-separated experiment ids: restrict `all` to these
//!              units (canonical order; the CI smoke lane's knob)
//! ```

#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_types,
        clippy::unwrap_used,
        clippy::iter_over_hash_type,
        clippy::let_underscore_must_use,
        clippy::unused_result_ok,
        unused_must_use
    )
)]

use rsj_bench::{sweep, Scale, DEFAULT_SCALE};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut id: Option<String> = None;
    let mut scale = DEFAULT_SCALE;
    let mut jobs = 1usize;
    let mut subset: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| die("--scale needs a positive integer"));
            }
            "--jobs" => {
                i += 1;
                jobs = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&j| j >= 1)
                    .unwrap_or_else(|| die("--jobs needs a positive integer"));
            }
            "--subset" => {
                i += 1;
                subset = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--subset needs a comma-separated id list")),
                );
            }
            flag if flag.starts_with("--") => die(&format!("unknown flag {flag}")),
            name => {
                if id.replace(name.to_string()).is_some() {
                    die("give exactly one experiment id");
                }
            }
        }
        i += 1;
    }
    let id = id.unwrap_or_else(|| die("missing experiment id (try: all)"));
    let scale = Scale::new(scale);
    println!(
        "# experiment {id} at scale 1/{} (times reported in paper-equivalent seconds)",
        scale.factor
    );

    if id == "all" {
        let units: Vec<usize> = match subset.as_deref() {
            Some(list) => sweep::resolve_subset(list).unwrap_or_else(|e| die(&e)),
            None => (0..sweep::UNITS.len()).collect(),
        };
        sweep::run_sweep(&units, scale, jobs);
        return;
    }
    if subset.is_some() || jobs != 1 {
        die("--jobs/--subset only apply to the `all` sweep");
    }

    match sweep::UNITS.iter().find(|u| u.id == id) {
        Some(unit) => (unit.run)(scale),
        None => die(&format!("unknown experiment '{id}'")),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: experiments <id> [--scale N] [--jobs J] [--subset ids]");
    let ids: Vec<&str> = sweep::UNITS.iter().map(|u| u.id).collect();
    eprintln!("ids: {} all", ids.join(" "));
    std::process::exit(2)
}
