//! `cargo run -p rsj-lint` — scan the workspace's `crates/` tree and
//! report rule findings. See the library docs for the rule table and the
//! waiver-marker syntax.
//!
//! ```text
//! rsj-lint [--json] [--baseline <file>] [--update-baseline]
//! ```
//!
//! * no flags — print findings, exit 1 if any *unwaived* finding exists.
//! * `--json` — print the full report (waived findings included, with
//!   reasons) as JSON on stdout; the human summary moves to stderr.
//! * `--baseline <file>` — compare against a committed baseline: exit 1
//!   for findings absent from it (new violations and new waivers), so
//!   pre-existing reviewed findings never break CI, and for stale entries
//!   that match no current finding, which would otherwise pass a later
//!   finding with the same key unreviewed. The path is resolved against
//!   the workspace root.
//! * `--update-baseline` — rewrite the baseline file from the current
//!   findings (after review) instead of failing on them.

use std::path::PathBuf;
use std::process::ExitCode;

use rsj_lint::report::{to_json, Baseline};
use rsj_lint::{find_workspace_root, lint_workspace, Finding};

struct Args {
    json: bool,
    baseline: Option<String>,
    update_baseline: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        json: false,
        baseline: None,
        update_baseline: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => args.json = true,
            "--baseline" => {
                args.baseline = Some(it.next().ok_or("--baseline needs a file argument")?);
            }
            "--update-baseline" => args.update_baseline = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.update_baseline && args.baseline.is_none() {
        args.baseline = Some("lint-baseline.json".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rsj-lint: {e}");
            eprintln!("usage: rsj-lint [--json] [--baseline <file>] [--update-baseline]");
            return ExitCode::from(2);
        }
    };
    let cwd = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("rsj-lint: cannot read current directory: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(root) = find_workspace_root(&cwd) else {
        eprintln!(
            "rsj-lint: no workspace Cargo.toml found above {}",
            cwd.display()
        );
        return ExitCode::from(2);
    };
    let findings = match lint_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            let crates_dir: PathBuf = root.join("crates");
            eprintln!("rsj-lint: failed to scan {}: {e}", crates_dir.display());
            return ExitCode::from(2);
        }
    };
    let waived = findings.iter().filter(|f| f.waived).count();
    let unwaived = findings.len() - waived;

    if args.json {
        print!("{}", to_json(&findings));
    }

    if let Some(baseline_path) = &args.baseline {
        let path = root.join(baseline_path);
        if args.update_baseline {
            if let Err(e) = std::fs::write(&path, to_json(&findings)) {
                eprintln!("rsj-lint: cannot write {}: {e}", path.display());
                return ExitCode::from(2);
            }
            eprintln!(
                "rsj-lint: baseline {} updated ({} finding(s): {unwaived} unwaived, {waived} waived)",
                path.display(),
                findings.len()
            );
            return ExitCode::SUCCESS;
        }
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("rsj-lint: cannot read baseline {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let baseline = match Baseline::from_json(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("rsj-lint: {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let new: Vec<&Finding> = baseline.new_findings(&findings);
        let stale = baseline.stale_entries(&findings);
        if new.is_empty() && stale.is_empty() {
            eprintln!(
                "rsj-lint: clean against baseline ({} finding(s): {unwaived} unwaived, {waived} waived)",
                findings.len()
            );
            return ExitCode::SUCCESS;
        }
        for f in &new {
            if !args.json {
                println!("{f}");
            } else {
                eprintln!("{f}");
            }
        }
        for ((file, rule, waived, note), n) in &stale {
            let state = if *waived { "waived" } else { "unwaived" };
            eprintln!("{file}: [{rule}] stale baseline entry ({state}, {n}x): {note}");
        }
        eprintln!(
            "rsj-lint: {} new finding(s) and {} stale entr(y/ies) against {} \
             (re-run with --update-baseline after review)",
            new.len(),
            stale.len(),
            path.display()
        );
        return ExitCode::FAILURE;
    }

    // No baseline: classic mode — any unwaived finding fails.
    if !args.json {
        for f in findings.iter().filter(|f| !f.waived) {
            println!("{f}");
        }
    }
    if unwaived == 0 {
        eprintln!("rsj-lint: clean ({waived} waived finding(s))");
        ExitCode::SUCCESS
    } else {
        eprintln!("rsj-lint: {unwaived} finding(s) ({waived} waived)");
        ExitCode::FAILURE
    }
}
