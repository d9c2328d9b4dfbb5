//! Out-of-range flag values are usage errors (exit 2, `usage:` on
//! stderr), never a library assert: under the release profile's
//! `panic = "abort"` an assert is a SIGABRT. Nor may a flag value turn a
//! gate into a no-op that exits 0.

use std::process::Command;

const CHAOS: &str = env!("CARGO_BIN_EXE_chaos");
const EXPERIMENTS: &str = env!("CARGO_BIN_EXE_experiments");
const SERVICE: &str = env!("CARGO_BIN_EXE_service");

fn assert_usage_error(bin: &str, args: &[&str]) -> String {
    let out = Command::new(bin)
        .args(args)
        .output()
        .expect("the binary under test was built by cargo");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{bin} {args:?}: {stderr}");
    stderr
}

#[test]
fn zero_valued_flags_are_usage_errors() {
    assert_usage_error(EXPERIMENTS, &["fig3", "--scale", "0"]);
    assert_usage_error(SERVICE, &["--short", "--cores", "0"]);
    assert_usage_error(SERVICE, &["--short", "--max-concurrent", "0"]);
}

/// An empty sweep, an empty batch and a flag the soak would silently
/// ignore all used to exit 0: a typo in `ci.sh` would disable the gate
/// without failing it.
#[test]
fn gates_that_would_check_nothing_are_usage_errors() {
    assert_usage_error(CHAOS, &["--seeds", "0"]);
    assert_usage_error(SERVICE, &["--queries", "0"]);
    assert_usage_error(CHAOS, &["--soak", "--short", "--machines", "4"]);
}

/// `experiments <id>` dispatches through `sweep::UNITS`, and the usage
/// text is derived from the same table: an id the sweep knows cannot be
/// missing from it.
#[test]
fn unknown_experiment_is_a_usage_error_that_lists_every_unit() {
    let usage = assert_usage_error(EXPERIMENTS, &["nonsense"]);
    for unit in rsj_bench::sweep::UNITS {
        assert!(
            usage.split_whitespace().any(|word| word == unit.id),
            "usage text lacks `{}`: {usage}",
            unit.id
        );
    }
}
