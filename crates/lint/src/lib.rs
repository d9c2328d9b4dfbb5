//! # rsj-lint — token-level static analysis for the workspace
//!
//! A dependency-free Rust **token-stream** analyzer over `crates/` that
//! enforces rules clippy cannot express, because they are about *this*
//! project's architecture. The general determinism and hygiene rules (no
//! OS threads, no host clock, no locks, no hash-order iteration, no
//! `unwrap`, no discarded `Result`) are clippy's, configured by the
//! workspace `clippy.toml` and each crate root (DESIGN.md §10). Files are
//! lexed (raw strings, nested block comments, char literals and lifetimes
//! handled correctly — see `lexer.rs`), a workspace-wide pass collects
//! the canonical phase order, then each rule runs over each file's code
//! tokens:
//!
//! | rule | what it forbids |
//! |------|-----------------|
//! | `mr-access` | direct `Mr` byte access (`with_data` / `dma_write`) outside `rsj-rdma` — operators must go through the verbs API so the runtime validator sees every access |
//! | `expect-message` | an `.expect` whose message is shorter than ten bytes, in non-test library code — failures in phase code must say what invariant broke (`clippy::unwrap_used` bans `.unwrap()` itself) |
//! | `hot-alloc` | `vec!`, `Vec::new`, `Vec::with_capacity`, `Arc::new`, `Rc::new`, `Box::new` or `.to_vec()` inside `crates/joins` functions named `*_kernel`, `histogram*` or `scatter*` (the per-partition hot loops: allocate scratch once in the owning `Partitioner`/table and reuse it), or inside a per-message function of the dataplane (`Nic::{post, handle}`, `CellPool::take`, the completion path that hands cells back `Wc::{complete, complete_read, recycle}` and `SendHandle::drop`, `SendWindow::{admit, record}`, `Scatter::{push, post}`, `Exchange::recv_stream`, `BufferPool::{take, claim, refill}`, the NIC engines' steps `Fabric::{egress_step, ingress_step, place_two_sided, place_one_sided}`, `Landing::{route, receive}`, the per-READ `Nic::post_read_inner` and `Mr::dma_read`, the one-sided post checks `Validator::check_post` and `Mr::check_post`, the one-sided probe's per-group `ProbeScratch::{probe_owned, probe_remote}`: draw from a pool or per-core scratch and hand back); over the whole tree, also a table entry naming no such function, so a rename cannot drop the check silently |
//! | `fabric-panic` | `.unwrap()` / `.expect(` on the fabric's fallible post/poll results (`wait`/`recv`/`admit`/`drain`) in non-test library code — fault-plane errors (DESIGN.md §8) must propagate as `JoinError` so the run aborts cleanly |
//! | `barrier-name` | a raw string literal as the barrier name at a `sync_named` / `try_sync_named` call site outside `crates/cluster` — barrier names are namespaced per query (`(QueryId, name)`, DESIGN.md §9) and must come from the `rsj_cluster::phase` constants so phase attribution stays canonical |
//! | `barrier-protocol` | per operator entry point in `crates/{core,operators}`: a `phase::` barrier reachable on some control-flow paths but not others (a worker that skips it deadlocks every peer parked on the `(QueryId, name)` barrier), a plain early `return` that can skip a later barrier (only `JoinError` propagation may bypass barriers — an abort poisons them), and phase sequences that violate the canonical declaration order of `crates/cluster/src/phase.rs` |
//! | `meter-flush` | in a `crates/{core,operators}/src` function that charges a `Meter`, an interaction (park, named barrier, fabric post, `recv`) reachable with unflushed charges, on a straight-line path or around a loop — the settle-on-interaction invariant that makes lazy settlement equal eager (DESIGN.md §12) |
//! | `raw-exchange` | `post_send` / `post_send_windowed` / `repost_recv` / `.recv(ctx)` / `SendWindow::` in `crates/{core,operators}/src` — operators reach the fabric only through `rsj_cluster::exchange`, so the hand-rolled send/receive loops cannot grow back. Exempt: the post-step closure inside a `Scatter::new(…)` call, and `phases/one_sided.rs` (the READ probe is not a partitioned stream) |
//!
//! Any rule can be waived on a specific line with a justification marker
//! (in a comment — markers inside string literals do not count), on the
//! same line or the line directly above:
//!
//! ```text
//! // lint: allow-fabric-panic(no fault plan installed)
//! ev.wait(ctx).expect("fault-free stream send failed");
//! ```
//!
//! An empty reason does not count. Run with `cargo run -p rsj-lint`; add
//! `--json` for a machine-readable report and
//! `--baseline lint-baseline.json` to exit nonzero only on findings
//! absent from the committed baseline (`--update-baseline` refreshes it
//! after review). See [`report`] for the baseline semantics.

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

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

mod engine;
mod lexer;
pub mod report;
mod rules;

pub use rules::RULES;

/// One rule finding at a specific line. Waived findings are kept (with
/// `waived = true` and the marker's reason) so reports and baselines are
/// auditable; only unwaived findings fail a plain run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (one of [`RULES`]).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
    /// Was this finding waived by a `// lint: allow-<rule>(reason)` marker?
    pub waived: bool,
    /// The waiver's reason, when waived.
    pub reason: Option<String>,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )?;
        if let Some(reason) = &self.reason {
            write!(f, " (waived: {reason})")?;
        }
        Ok(())
    }
}

/// Lint a set of files together. Each entry is
/// `(workspace-relative path, contents)`; the path decides rule
/// applicability. Cross-file context (the canonical phase order for
/// `barrier-protocol`) is collected over the whole set, so linting the
/// full workspace is more precise than file-at-a-time. Findings come back sorted by
/// `(file, line, rule)` and include waived ones.
pub fn lint_files(files: &[(String, String)]) -> Vec<Finding> {
    lint(files, false)
}

/// [`lint_files`] over a set that is the whole tree, as
/// [`lint_workspace`] reads it: adds the checks that only a complete set
/// can make — a `hot-alloc` per-message table entry that names no
/// function of the tree is itself a finding.
pub fn lint_tree(files: &[(String, String)]) -> Vec<Finding> {
    lint(files, true)
}

fn lint(files: &[(String, String)], whole_tree: bool) -> Vec<Finding> {
    // The lint's own sources and fixtures would trip every rule.
    let ctxs: Vec<engine::FileCtx<'_>> = files
        .iter()
        .filter(|(rel, _)| !rel.starts_with("crates/lint/"))
        .map(|(rel, content)| engine::FileCtx::new(rel, content))
        .collect();
    let global = engine::Global::collect(&ctxs);
    let mut findings = Vec::new();
    for ctx in &ctxs {
        let mut file_findings = Vec::new();
        rules::check_file(ctx, &global, &mut file_findings);
        engine::apply_waivers(ctx, &mut file_findings);
        findings.extend(file_findings);
    }
    if whole_tree {
        findings.extend(rules::stale_per_message_fns(&ctxs));
    }
    let rule_index = |rule: &str| RULES.iter().position(|r| *r == rule).unwrap_or(RULES.len());
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, rule_index(a.rule)).cmp(&(
            b.file.as_str(),
            b.line,
            rule_index(b.rule),
        ))
    });
    findings
}

/// Lint one file's contents. `relpath` is the workspace-relative path
/// (forward slashes), which decides rule applicability. Cross-file
/// context degrades gracefully: the canonical phase order falls back to
/// the built-in default.
pub fn lint_file(relpath: &str, content: &str) -> Vec<Finding> {
    lint_files(&[(relpath.to_string(), content.to_string())])
}

/// Recursively collect `.rs` files under `dir`, sorted for stable output.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.path());
    for entry in entries {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint every `.rs` file under `<root>/crates`. `root` is the workspace
/// root (the directory holding the workspace `Cargo.toml`).
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut paths = Vec::new();
    rs_files(&root.join("crates"), &mut paths)?;
    let mut files = Vec::with_capacity(paths.len());
    for path in paths {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let content = fs::read_to_string(&path)?;
        files.push((rel, content));
    }
    Ok(lint_tree(&files))
}

/// Walk up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rule names of the unwaived findings, in order.
    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings
            .iter()
            .filter(|f| !f.waived)
            .map(|f| f.rule)
            .collect()
    }

    fn unwaived(findings: Vec<Finding>) -> Vec<Finding> {
        findings.into_iter().filter(|f| !f.waived).collect()
    }

    #[test]
    fn catches_mr_byte_access_outside_rdma() {
        let src = "fn f(mr: &Mr) { let _ = mr.with_data(|d| d.len()); }\n";
        assert_eq!(
            rules_of(&lint_file("crates/core/src/phases/local.rs", src)),
            ["mr-access"]
        );
        // Inside rsj-rdma the access is the implementation, not a bypass.
        assert!(lint_file("crates/rdma/src/mr.rs", src).is_empty());
    }

    #[test]
    fn catches_short_expect_messages_in_library_code() {
        let src = "fn f() {\n    let z = w.expect(\"oops\");\n}\n";
        let f = lint_file("crates/cluster/src/wire.rs", src);
        assert_eq!(rules_of(&f), ["expect-message"]);
        assert_eq!(f[0].line, 2);
        assert!(f[0].message.contains("non-descriptive"));
        let ok = "fn f() { let z = w.expect(\"histogram phase incomplete\"); }\n";
        assert!(lint_file("crates/cluster/src/wire.rs", ok).is_empty());
    }

    #[test]
    fn short_expect_is_allowed_in_test_modules_and_test_files() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { x.expect(\"a\"); }\n}\n";
        assert!(lint_file("crates/cluster/src/wire.rs", src).is_empty());
        let test = "fn t() { x.expect(\"a\"); }\n";
        assert!(lint_file("crates/rdma/tests/validator.rs", test).is_empty());
    }

    #[test]
    fn catches_panics_on_fabric_results_in_library_code() {
        // Even a descriptive expect is banned on fabric post/poll
        // results: library code must propagate the typed error.
        let src = "fn f() {\n    let c = nic.recv(ctx).expect(\"peer sent the histogram\");\n}\n";
        assert_eq!(
            rules_of(&lint_file("crates/cluster/src/x.rs", src)),
            ["fabric-panic"]
        );
        let src = "fn f() {\n    window.drain(ctx).unwrap();\n}\n";
        assert_eq!(
            rules_of(&lint_file("crates/operators/src/x.rs", src)),
            ["fabric-panic"]
        );
        // Propagation is clean.
        let ok = "fn f() -> Result<(), JoinError> {\n    window.drain(ctx).map_err(fab)?;\n    Ok(())\n}\n";
        assert!(lint_file("crates/operators/src/x.rs", ok).is_empty());
        // Tests stay free to unwrap.
        let test = "fn t() { nic.recv(ctx).unwrap(); }\n";
        assert!(lint_file("crates/rdma/tests/x.rs", test).is_empty());
    }

    #[test]
    fn catches_raw_barrier_name_literals_outside_cluster() {
        // A literal name bypasses the phase-constant namespace.
        let src = "fn f() -> Result<(), JoinError> {\n    rt.try_sync_named(ctx, \"histogram\", mach)?;\n    Ok(())\n}\n";
        let f = lint_file("crates/operators/src/sort_merge.rs", src);
        assert_eq!(rules_of(&f), ["barrier-name"]);
        assert_eq!(f[0].line, 2);
        // The infallible wrapper is covered by the same pattern.
        let sync = "fn f() {\n    rt.sync_named(ctx, \"drain\", mach);\n}\n";
        assert_eq!(
            rules_of(&lint_file("crates/core/src/phases/network.rs", sync)),
            ["barrier-name"]
        );
        // Naming the barrier through the phase constants is the fix.
        let ok = "fn f() -> Result<(), JoinError> {\n    rt.try_sync_named(ctx, phase::HISTOGRAM, mach)?;\n    Ok(())\n}\n";
        assert!(lint_file("crates/operators/src/sort_merge.rs", ok).is_empty());
    }

    #[test]
    fn barrier_name_rule_is_scoped_and_waivable() {
        let src = "fn f() {\n    rt.sync_named(ctx, \"alpha\", mach);\n}\n";
        // crates/cluster owns the namespace and its tests name barriers
        // freely to exercise it.
        assert!(lint_file("crates/cluster/src/runtime.rs", src).is_empty());
        // Integration tests outside the crate are exempt like every other
        // library-code rule.
        assert!(lint_file("crates/operators/tests/service.rs", src).is_empty());
        let test_mod = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
        assert!(lint_file("crates/operators/src/x.rs", &test_mod).is_empty());
        // A waiver with a reason applies; the finding is kept but waived.
        let waived = "fn f() {\n    // lint: allow-barrier-name(one-off drain point, not a phase)\n    rt.sync_named(ctx, \"drain\", mach);\n}\n";
        let f = lint_file("crates/operators/src/x.rs", waived);
        assert!(rules_of(&f).is_empty());
        assert_eq!(f.len(), 1);
        assert!(f[0].waived);
        assert_eq!(
            f[0].reason.as_deref(),
            Some("one-off drain point, not a phase")
        );
        // Mentioning sync_named in a comment does not trip the rule.
        let comment = "// call sync_named(ctx, \"name\", mach) with a phase constant\n";
        assert!(lint_file("crates/operators/src/x.rs", comment).is_empty());
    }

    #[test]
    fn marker_with_reason_waives_a_rule() {
        let same_line =
            "fn f() { let x = y.expect(\"a\"); } // lint: allow-expect-message(checked len above)\n";
        assert!(unwaived(lint_file("crates/core/src/lib.rs", same_line)).is_empty());
        let prev_line =
            "fn f() {\n    // lint: allow-expect-message(poll loop guarantees Some)\n    \
                         let x = y.expect(\"a\");\n}\n";
        assert!(unwaived(lint_file("crates/core/src/lib.rs", prev_line)).is_empty());
        // An empty reason does not count...
        let empty = "fn f() { let x = y.expect(\"a\"); } // lint: allow-expect-message()\n";
        assert_eq!(
            rules_of(&lint_file("crates/core/src/lib.rs", empty)),
            ["expect-message"]
        );
        // ...and a marker for one rule does not waive another.
        let wrong = "fn f() { mr.with_data(g); } // lint: allow-expect-message(whatever)\n";
        assert_eq!(
            rules_of(&lint_file("crates/core/src/lib.rs", wrong)),
            ["mr-access"]
        );
        // A marker inside a string literal is not a waiver.
        let in_string =
            "fn f() {\n    let s = \"lint: allow-expect-message(not a comment)\";\n    \
                         let x = y.expect(\"a\");\n}\n";
        assert_eq!(
            rules_of(&lint_file("crates/core/src/lib.rs", in_string)),
            ["expect-message"]
        );
    }

    #[test]
    fn hot_alloc_flags_allocation_in_joins_kernels() {
        let src =
            "fn scatter_pass(n: usize) {\n    let buf = Vec::new();\n    let v = vec![0; n];\n}\n";
        let f = lint_file("crates/joins/src/radix.rs", src);
        assert_eq!(rules_of(&f), ["hot-alloc", "hot-alloc"]);
        assert_eq!((f[0].line, f[1].line), (2, 3));
        // Multi-line signatures still enter the function body.
        let multi = "fn histogram_into(\n    tuples: &[u64],\n) {\n    let h = Vec::new();\n}\n";
        assert_eq!(
            rules_of(&lint_file("crates/joins/src/radix.rs", multi)),
            ["hot-alloc"]
        );
        // `*_kernel` names count too.
        let kernel = "fn probe_kernel() {\n    let v = vec![1];\n}\n";
        assert_eq!(
            rules_of(&lint_file("crates/joins/src/hash_table.rs", kernel)),
            ["hot-alloc"]
        );
    }

    #[test]
    fn hot_alloc_is_scoped_to_hot_functions_in_joins() {
        // Allocation outside the hot function is fine.
        let src = "fn scatter_one() {\n    flush();\n}\nfn setup() {\n    let v = Vec::new();\n}\n";
        assert!(lint_file("crates/joins/src/radix.rs", src).is_empty());
        // Same code outside crates/joins is out of scope.
        let hot = "fn histogram() {\n    let v = Vec::new();\n}\n";
        assert!(lint_file("crates/core/src/phases/local.rs", hot).is_empty());
        // Test modules are exempt.
        let test = "#[cfg(test)]\nmod tests {\n    fn scatter_case() { let v = vec![1]; }\n}\n";
        assert!(lint_file("crates/joins/src/radix.rs", test).is_empty());
        // A waiver with a reason applies, same as every other rule.
        let waived = "fn histogram() {\n    // lint: allow-hot-alloc(one-shot wrapper)\n    let v = Vec::new();\n}\n";
        assert!(unwaived(lint_file("crates/joins/src/radix.rs", waived)).is_empty());
    }

    #[test]
    fn literals_do_not_confuse_structure_or_rules() {
        // An unbalanced `{` in a string inside a hot kernel must not leave
        // the tracker stuck on, flagging allocations in later functions.
        let open = "fn scatter_pass() {\n    let s = \"{\";\n    flush();\n}\n\
                    fn setup() {\n    let v = Vec::new();\n}\n";
        assert!(lint_file("crates/joins/src/radix.rs", open).is_empty());
        // An unbalanced `}` in a char literal must not end the hot fn early.
        let close = "fn histogram() {\n    let c = '}';\n    let v = Vec::new();\n}\n";
        let f = lint_file("crates/joins/src/radix.rs", close);
        assert_eq!(rules_of(&f), ["hot-alloc"]);
        assert_eq!(f[0].line, 3);
        // `'\u{..}'` escapes contain braces too.
        let esc = "fn histogram() {\n    let c = '\\u{7B}';\n    let v = vec![0];\n}\n";
        assert_eq!(
            rules_of(&lint_file("crates/joins/src/radix.rs", esc)),
            ["hot-alloc"]
        );
        // Lifetimes are not char literals; the signature still opens a body.
        let lt = "fn scatter_into<'a>(out: &'a mut [u64]) {\n    let v = Vec::new();\n}\n";
        assert_eq!(
            rules_of(&lint_file("crates/joins/src/radix.rs", lt)),
            ["hot-alloc"]
        );
        // A `fn` keyword inside a string is not a declaration.
        let fake = "fn helper() {\n    let s = \"fn scatter_x() {\";\n}\n\
                    fn other() {\n    let v = Vec::new();\n}\n";
        assert!(lint_file("crates/joins/src/radix.rs", fake).is_empty());
        // Rule patterns inside raw strings do not fire (the line scanner's
        // masking bug): the raw string below contains a fabric panic and an
        // unbalanced quote that would derail a line-based masker.
        let raw = "fn f() -> String {\n    r#\"x.wait(ctx).unwrap() \" mr.with_data(g)\"#.to_string()\n}\n";
        assert!(lint_file("crates/core/src/lib.rs", raw).is_empty());
        // Same for multi-line block comments, nested ones included.
        let block = "fn f() {}\n/* x.wait(ctx).unwrap()\n   /* mr.dma_write(0, b) */\n   \
                     x.expect(\"a\") */\nfn g() {}\n";
        assert!(lint_file("crates/core/src/lib.rs", block).is_empty());
    }

    #[test]
    fn comments_and_doc_text_do_not_trip_code_rules() {
        let src = "//! Never call mr.with_data(f) in operator code.\n\
                   // a worker must not call window.drain(ctx).unwrap()\n\
                   /// or x.expect(\"a\") either\n";
        assert!(lint_file("crates/core/src/lib.rs", src).is_empty());
    }

    #[test]
    fn lint_ignores_its_own_sources() {
        let src = "fn f() { mr.with_data(|d| x.wait(ctx).unwrap()); }\n";
        assert!(lint_file("crates/lint/src/fixtures.rs", src).is_empty());
    }

    // ---- barrier-protocol ----

    #[test]
    fn barrier_protocol_flags_conditionally_reached_barriers() {
        let src = "fn worker() -> Result<(), JoinError> {\n    \
                   if is_head {\n        rt.try_sync_named(ctx, phase::HISTOGRAM, m)?;\n    }\n    \
                   rt.try_sync_named(ctx, phase::BUILD_PROBE, m)?;\n    Ok(())\n}\n";
        let f = lint_file("crates/operators/src/x.rs", src);
        assert_eq!(rules_of(&f), ["barrier-protocol"]);
        assert!(f[0].message.contains("HISTOGRAM"));
        assert!(f[0].message.contains("some control-flow paths"));
        // All barriers unconditional: clean.
        let ok = "fn worker() -> Result<(), JoinError> {\n    \
                  rt.try_sync_named(ctx, phase::HISTOGRAM, m)?;\n    \
                  rt.try_sync_named(ctx, phase::BUILD_PROBE, m)?;\n    Ok(())\n}\n";
        assert!(lint_file("crates/operators/src/x.rs", ok).is_empty());
    }

    #[test]
    fn barrier_protocol_flags_early_returns_that_skip_barriers() {
        let src = "fn worker() -> Result<(), JoinError> {\n    \
                   if input.is_empty() {\n        return Ok(());\n    }\n    \
                   rt.try_sync_named(ctx, phase::HISTOGRAM, m)?;\n    Ok(())\n}\n";
        let f = lint_file("crates/core/src/phases/x.rs", src);
        assert_eq!(rules_of(&f), ["barrier-protocol"]);
        assert!(f[0].message.contains("early `return`"));
        // `return Err(...)` aborts the query and poisons its barriers, so
        // skipping the rest is the designed behavior — exempt. Same for
        // `?` propagation (no `return` token at all).
        let err = "fn worker() -> Result<(), JoinError> {\n    \
                   if bad {\n        return Err(JoinError::fabric(q, h, e));\n    }\n    \
                   rt.try_sync_named(ctx, phase::HISTOGRAM, m)?;\n    Ok(())\n}\n";
        assert!(lint_file("crates/core/src/phases/x.rs", err).is_empty());
    }

    #[test]
    fn barrier_protocol_enforces_canonical_phase_order() {
        let src = "fn worker() -> Result<(), JoinError> {\n    \
                   rt.try_sync_named(ctx, phase::BUILD_PROBE, m)?;\n    \
                   rt.try_sync_named(ctx, phase::HISTOGRAM, m)?;\n    Ok(())\n}\n";
        let f = lint_file("crates/operators/src/x.rs", src);
        assert_eq!(rules_of(&f), ["barrier-protocol"]);
        assert!(f[0].message.contains("canonical phase order"));
        // Unknown constants are flagged too.
        let unknown = "fn worker() -> Result<(), JoinError> {\n    \
                       rt.try_sync_named(ctx, phase::SHUFFLE, m)?;\n    Ok(())\n}\n";
        let f = lint_file("crates/operators/src/x.rs", unknown);
        assert_eq!(rules_of(&f), ["barrier-protocol"]);
        assert!(f[0].message.contains("unknown phase constant"));
        // Outside crates/{core,operators} the rule does not apply.
        let elsewhere = "fn worker() -> Result<(), JoinError> {\n    \
                         if x {\n        rt.try_sync_named(ctx, phase::HISTOGRAM, m)?;\n    }\n    Ok(())\n}\n";
        assert!(lint_file("crates/workload/src/x.rs", elsewhere).is_empty());
    }

    #[test]
    fn barrier_protocol_reads_the_canonical_order_from_phase_rs() {
        // With phase.rs in the file set, its declaration order wins over
        // the built-in default.
        let phase_rs = "pub const ALPHA: &str = \"alpha\";\npub const BETA: &str = \"beta\";\n";
        let ok = "fn worker() -> Result<(), JoinError> {\n    \
                  rt.try_sync_named(ctx, phase::ALPHA, m)?;\n    \
                  rt.try_sync_named(ctx, phase::BETA, m)?;\n    Ok(())\n}\n";
        let f = lint_files(&[
            (
                "crates/cluster/src/phase.rs".to_string(),
                phase_rs.to_string(),
            ),
            ("crates/operators/src/x.rs".to_string(), ok.to_string()),
        ]);
        assert!(f.is_empty());
        let bad = "fn worker() -> Result<(), JoinError> {\n    \
                   rt.try_sync_named(ctx, phase::BETA, m)?;\n    \
                   rt.try_sync_named(ctx, phase::ALPHA, m)?;\n    Ok(())\n}\n";
        let f = lint_files(&[
            (
                "crates/cluster/src/phase.rs".to_string(),
                phase_rs.to_string(),
            ),
            ("crates/operators/src/x.rs".to_string(), bad.to_string()),
        ]);
        assert_eq!(rules_of(&f), ["barrier-protocol"]);
    }
}
