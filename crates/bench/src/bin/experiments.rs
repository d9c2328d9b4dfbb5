//! Experiment runner: regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run -p rsj-bench --release --bin experiments -- <id> [--scale N]
//!     [--jobs J] [--subset ids]
//!
//! ids: fig3 fig5a fig5b fig6a fig6b fig7a fig7b fig8 fig8ws fig9a fig9b
//!      fig10a fig10b wide hardware optimal buffers operators materialize all
//! --scale N    divide the paper's tuple counts by N (default 256)
//! --jobs J     run `all` through the parallel sweep engine with J worker
//!              threads (default 1). Output is stitched in experiment
//!              order and is byte-identical for every J.
//! --subset ids comma-separated experiment ids: restrict `all` to these
//!              units (canonical order; the CI smoke lane's knob)
//! ```

use rsj_bench::{experiments, sweep, Scale, DEFAULT_SCALE};

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

    match id.as_str() {
        "fig3" => experiments::fig3(scale),
        "fig5a" => experiments::fig5a(scale),
        "fig5b" => experiments::fig5b(scale),
        "fig6a" => experiments::fig6a(scale),
        "fig6b" => experiments::fig6b(scale),
        "fig7a" => experiments::fig7a(scale),
        "fig7b" => experiments::fig7b(scale),
        "fig8" => experiments::fig8(scale),
        "fig8ws" => experiments::fig8_work_sharing(scale),
        "fig9a" => experiments::fig9(scale, true),
        "fig9b" => experiments::fig9(scale, false),
        "fig10a" => experiments::fig10(scale, false),
        "fig10b" => experiments::fig10(scale, true),
        "wide" | "sec6.7" => experiments::wide_tuples(scale),
        "hardware" | "tab2" => experiments::hardware(scale),
        "optimal" | "model-opt" => experiments::optimal(scale),
        "buffers" | "ext-buffers" => experiments::buffer_size_sweep(scale),
        "operators" | "ext-operators" => experiments::operators(scale),
        "materialize" | "ext-materialize" => experiments::materialization(scale),
        other => die(&format!("unknown experiment '{other}'")),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: experiments <id> [--scale N] [--jobs J] [--subset ids]");
    eprintln!(
        "ids: fig3 fig5a fig5b fig6a fig6b fig7a fig7b fig8 fig9a fig9b \
         fig8ws fig10a fig10b wide hardware optimal buffers operators materialize all"
    );
    std::process::exit(2)
}
