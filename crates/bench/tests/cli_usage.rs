//! Out-of-range flag values are usage errors (exit 2, `usage:` on
//! stderr), never a library assert: under the release profile's
//! `panic = "abort"` an assert is a SIGABRT.

use std::process::Command;

#[test]
fn zero_valued_flags_are_usage_errors() {
    let cases: [(&str, &[&str]); 3] = [
        (env!("CARGO_BIN_EXE_experiments"), &["fig3", "--scale", "0"]),
        (env!("CARGO_BIN_EXE_service"), &["--short", "--cores", "0"]),
        (
            env!("CARGO_BIN_EXE_service"),
            &["--short", "--max-concurrent", "0"],
        ),
    ];
    for (bin, args) in cases {
        let out = Command::new(bin)
            .args(args)
            .output()
            .expect("the binary under test was built by cargo");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{bin} {args:?}: {stderr}");
    }
}
