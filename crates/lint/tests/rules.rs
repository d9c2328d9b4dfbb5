//! Fixture-driven tests for every lint rule, plus workspace-level
//! assertions: the tree under `tests/fixtures/` holds positive, negative
//! and waiver cases; each is linted under a virtual workspace path that
//! sets its rule scope.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use rsj_lint::report::Baseline;
use rsj_lint::{lint_file, lint_tree, lint_workspace, Finding, RULES};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()))
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint sits two levels under the workspace root")
        .to_path_buf()
}

/// One fixture expectation: the file, the virtual path it is linted
/// under, the `(rule, line)` pairs of expected *unwaived* findings, and
/// the number of expected waived findings.
struct Case {
    fixture: &'static str,
    vpath: &'static str,
    expect: &'static [(&'static str, usize)],
    waived: usize,
}

const CASES: &[Case] = &[
    // -- dataflow rules --
    Case {
        fixture: "barrier_protocol_positive.rs",
        vpath: "crates/operators/src/bp_pos.rs",
        expect: &[
            ("barrier-protocol", 6),
            ("barrier-protocol", 14),
            ("barrier-protocol", 20),
            ("barrier-protocol", 27),
        ],
        waived: 0,
    },
    Case {
        fixture: "barrier_protocol_negative.rs",
        vpath: "crates/core/src/phases/bp_neg.rs",
        expect: &[],
        waived: 0,
    },
    Case {
        fixture: "barrier_protocol_waiver.rs",
        vpath: "crates/operators/src/bp_waiver.rs",
        expect: &[],
        waived: 1,
    },
    Case {
        fixture: "meter_flush_positive.rs",
        vpath: "crates/core/src/phases/mf_pos.rs",
        // The fixtures drive the fabric directly, so `raw-exchange` fires
        // on the same interaction sites.
        expect: &[
            ("meter-flush", 6),
            ("meter-flush", 12),
            ("meter-flush", 18),
            ("raw-exchange", 6),
            ("raw-exchange", 18),
            ("raw-exchange", 20),
        ],
        waived: 0,
    },
    Case {
        fixture: "meter_flush_negative.rs",
        vpath: "crates/operators/src/mf_neg.rs",
        expect: &[
            ("raw-exchange", 7),
            ("raw-exchange", 12),
            ("raw-exchange", 15),
            ("raw-exchange", 20),
            ("raw-exchange", 21),
        ],
        waived: 0,
    },
    Case {
        fixture: "meter_flush_waiver.rs",
        vpath: "crates/core/src/mf_waiver.rs",
        expect: &[("raw-exchange", 6)],
        waived: 1,
    },
    Case {
        fixture: "raw_exchange_positive.rs",
        vpath: "crates/operators/src/rx_pos.rs",
        expect: &[
            ("raw-exchange", 5),
            ("raw-exchange", 7),
            ("raw-exchange", 12),
            ("raw-exchange", 13),
        ],
        waived: 0,
    },
    Case {
        fixture: "raw_exchange_negative.rs",
        vpath: "crates/core/src/phases/rx_neg.rs",
        expect: &[],
        waived: 0,
    },
    Case {
        // The READ-probe dataplane is out of the rule's scope.
        fixture: "raw_exchange_positive.rs",
        vpath: "crates/core/src/phases/one_sided.rs",
        expect: &[],
        waived: 0,
    },
    Case {
        fixture: "raw_exchange_waiver.rs",
        vpath: "crates/core/src/rx_waiver.rs",
        expect: &[],
        waived: 1,
    },
    // -- pattern rules --
    Case {
        fixture: "mr_access.rs",
        vpath: "crates/core/src/m.rs",
        expect: &[("mr-access", 4)],
        waived: 0,
    },
    Case {
        fixture: "unwrap_expect.rs",
        vpath: "crates/cluster/src/u.rs",
        expect: &[("expect-message", 5)],
        waived: 0,
    },
    Case {
        fixture: "hot_alloc.rs",
        vpath: "crates/joins/src/h.rs",
        expect: &[("hot-alloc", 5)],
        waived: 0,
    },
    Case {
        fixture: "hot_alloc_arc_new.rs",
        vpath: "crates/rdma/src/ha_arc.rs",
        expect: &[("hot-alloc", 6)],
        waived: 0,
    },
    Case {
        fixture: "hot_alloc_rc_new.rs",
        vpath: "crates/rdma/src/ha_rc.rs",
        expect: &[("hot-alloc", 20)],
        waived: 1,
    },
    Case {
        fixture: "hot_alloc_box_new.rs",
        vpath: "crates/rdma/src/ha_box.rs",
        expect: &[("hot-alloc", 8), ("hot-alloc", 22)],
        waived: 0,
    },
    Case {
        fixture: "hot_alloc_to_vec.rs",
        vpath: "crates/cluster/src/ha_to_vec.rs",
        expect: &[("hot-alloc", 9)],
        waived: 0,
    },
    Case {
        fixture: "hot_alloc_with_capacity.rs",
        vpath: "crates/rdma/src/ha_cap.rs",
        expect: &[("hot-alloc", 8), ("hot-alloc", 20)],
        waived: 0,
    },
    Case {
        fixture: "fabric_panic.rs",
        vpath: "crates/operators/src/f.rs",
        expect: &[("fabric-panic", 4)],
        waived: 0,
    },
    Case {
        fixture: "barrier_name.rs",
        vpath: "crates/operators/src/b.rs",
        expect: &[("barrier-name", 4)],
        waived: 0,
    },
    Case {
        fixture: "masking.rs",
        vpath: "crates/core/src/masking.rs",
        expect: &[],
        waived: 0,
    },
];

fn summarize(findings: &[Finding]) -> (Vec<(String, usize)>, usize) {
    let mut unwaived: Vec<(String, usize)> = findings
        .iter()
        .filter(|f| !f.waived)
        .map(|f| (f.rule.to_string(), f.line))
        .collect();
    unwaived.sort();
    let waived = findings.iter().filter(|f| f.waived).count();
    (unwaived, waived)
}

#[test]
fn fixtures_match_expected_findings() {
    for case in CASES {
        let findings = lint_file(case.vpath, &fixture(case.fixture));
        let (unwaived, waived) = summarize(&findings);
        let mut expect: Vec<(String, usize)> = case
            .expect
            .iter()
            .map(|(r, l)| (r.to_string(), *l))
            .collect();
        expect.sort();
        assert_eq!(
            unwaived, expect,
            "{}: unwaived findings diverge\nall findings: {findings:#?}",
            case.fixture
        );
        assert_eq!(
            waived, case.waived,
            "{}: waived count diverges\nall findings: {findings:#?}",
            case.fixture
        );
    }
}

#[test]
fn every_rule_has_fixture_coverage() {
    let covered: BTreeSet<&str> = CASES
        .iter()
        .flat_map(|c| c.expect.iter().map(|(r, _)| *r))
        .collect();
    // Waiver-only coverage counts too (the rule must have fired to be
    // waived): recover those rules from the waiver fixtures by name.
    let mut covered: BTreeSet<String> = covered.iter().map(|s| s.to_string()).collect();
    for case in CASES.iter().filter(|c| c.waived > 0) {
        for rule in RULES {
            if case.fixture.starts_with(&rule.replace('-', "_")) {
                covered.insert(rule.to_string());
            }
        }
    }
    for rule in RULES {
        assert!(
            covered.contains(*rule),
            "rule {rule} has no fixture coverage"
        );
    }
}

#[test]
fn a_per_message_entry_naming_no_function_of_the_tree_is_a_finding() {
    let files = [(
        "crates/rdma/src/wire.rs".to_string(),
        fixture("hot_alloc_stale_entry.rs"),
    )];
    let stale: Vec<String> = lint_tree(&files)
        .into_iter()
        .filter(|f| f.rule == "hot-alloc" && f.file == "crates/lint/src/rules.rs")
        .map(|f| {
            assert!(!f.waived && f.line > 1, "{f}");
            f.message
        })
        .collect();
    let names = |name: &str| stale.iter().any(|m| m.contains(&format!("`{name}`")));
    assert!(
        names("Fabric::egress_step"),
        "the renamed entry: {stale:#?}"
    );
    // A test-only definition covers nothing either.
    assert!(names("Fabric::place_two_sided"), "{stale:#?}");
    assert!(
        !names("Fabric::ingress_step"),
        "a defined entry: {stale:#?}"
    );
    // A file-at-a-time lint cannot know the tree, so it never reports one.
    let single = lint_file("crates/rdma/src/wire.rs", &files[0].1);
    assert!(single.iter().all(|f| f.file != "crates/lint/src/rules.rs"));
}

#[test]
fn workspace_has_no_unwaived_findings() {
    let findings = lint_workspace(&workspace_root()).expect("workspace scan");
    let unwaived: Vec<&Finding> = findings.iter().filter(|f| !f.waived).collect();
    assert!(
        unwaived.is_empty(),
        "unwaived findings in the workspace: {unwaived:#?}"
    );
    // barrier-protocol verifies all four operators' phase sequences:
    // no findings at all, waived or not.
    assert!(
        findings.iter().all(|f| f.rule != "barrier-protocol"),
        "barrier-protocol regression"
    );
}

#[test]
fn committed_baseline_covers_the_workspace() {
    let root = workspace_root();
    let text = std::fs::read_to_string(root.join("lint-baseline.json"))
        .expect("lint-baseline.json is committed at the workspace root");
    let baseline = Baseline::from_json(&text).expect("committed baseline parses");
    let findings = lint_workspace(&root).expect("workspace scan");
    let new = baseline.new_findings(&findings);
    assert!(
        new.is_empty(),
        "findings not in lint-baseline.json (run `cargo run -p rsj-lint -- --update-baseline` \
         after review): {new:#?}"
    );
    let stale = baseline.stale_entries(&findings);
    assert!(
        stale.is_empty(),
        "lint-baseline.json entries no finding matches (run `cargo run -p rsj-lint -- \
         --update-baseline`): {stale:#?}"
    );
}

#[test]
fn canonical_phase_order_is_in_sync_with_phase_rs() {
    // The engine's built-in fallback order (used when phase.rs is not in
    // the linted file set) must match the real declaration order.
    let phase_rs = std::fs::read_to_string(workspace_root().join("crates/cluster/src/phase.rs"))
        .expect("crates/cluster/src/phase.rs exists");
    let mut names = Vec::new();
    for line in phase_rs.lines() {
        if let Some(rest) = line.trim().strip_prefix("pub const ") {
            if let Some(name) = rest.split(':').next() {
                names.push(name.trim().to_string());
            }
        }
    }
    assert_eq!(
        names,
        [
            "HISTOGRAM",
            "NETWORK_PARTITION",
            "LOCAL_PARTITION",
            "BUILD_PROBE",
            "ONE_SIDED_PROBE",
            "ADMISSION"
        ],
        "phase.rs declaration order changed; update DEFAULT_PHASE_ORDER in \
         crates/lint/src/engine.rs and re-check the operators"
    );
}
