//! # rsj-lint — token-level static analysis for the workspace
//!
//! A dependency-free Rust **token-stream** analyzer over `crates/` that
//! enforces rules clippy cannot express, because they are about *this*
//! project's architecture. Files are lexed (raw strings, nested block
//! comments, char literals and lifetimes handled correctly — see
//! `lexer.rs`), a workspace-wide pass collects cross-file context
//! (hash-typed identifiers, the canonical phase order), then each rule
//! runs over each file's code tokens:
//!
//! | rule | what it forbids |
//! |------|-----------------|
//! | `std-thread` | `std::thread::spawn` in simulated code — workers must be `rsj-sim` tasks so virtual time stays deterministic |
//! | `std-sync` | `std::sync::{Mutex, Barrier, Condvar}` anywhere, and `parking_lot::{Mutex, RwLock}` in `crates/{sim,rdma,cluster,core,operators}/src` — blocking on an OS primitive invisibly to the simulation kernel deadlocks or distorts virtual time, and a simulation runs on one OS thread, so state inside it is a `RefCell`/`Cell` (a borrow held across a yield panics naming the task; a held lock deadlocks the thread) and anything that waits is an `rsj-sim` primitive |
//! | `wall-clock` | `std::time::Instant` / `SystemTime` anywhere — reading the host clock breaks run-to-run determinism, the property every experiment and test relies on |
//! | `mr-access` | direct `Mr` byte access (`with_data` / `dma_write`) outside `rsj-rdma` — operators must go through the verbs API so the runtime validator sees every access |
//! | `unwrap` | `.unwrap()` (or an `.expect` with a non-descriptive message) in non-test library code — failures in phase code must say what invariant broke |
//! | `hot-alloc` | `vec!`, `Vec::new`, `Vec::with_capacity`, `Arc::new`, `Rc::new`, `Box::new` or `.to_vec()` inside `crates/joins` functions named `*_kernel`, `histogram*` or `scatter*` (the per-partition hot loops: allocate scratch once in the owning `Partitioner`/table and reuse it), or inside a per-message function of the dataplane (`Nic::{post, handle}`, `CellPool::take`, the completion path that hands cells back `Wc::{complete, complete_read, recycle}` and `SendHandle::drop`, `SendWindow::{admit, record}`, `Scatter::{push, post}`, `Exchange::recv_stream`, `BufferPool::{take, claim, refill}`, the NIC engines' steps `Fabric::{egress_step, ingress_step, place_two_sided, place_one_sided}`, `Landing::{route, receive}`, the per-READ `Nic::post_read_inner` and `Mr::dma_read`, the one-sided probe's per-group `ProbeScratch::{probe_owned, probe_remote}`: draw from a pool or per-core scratch and hand back); over the whole tree, also a table entry naming no such function, so a rename cannot drop the check silently |
//! | `fabric-panic` | `.unwrap()` / `.expect(` on the fabric's fallible post/poll results (`wait`/`recv`/`admit`/`drain`) in non-test library code — fault-plane errors (DESIGN.md §8) must propagate as `JoinError` so the run aborts cleanly |
//! | `barrier-name` | a raw string literal as the barrier name at a `sync_named` / `try_sync_named` call site outside `crates/cluster` — barrier names are namespaced per query (`(QueryId, name)`, DESIGN.md §9) and must come from the `rsj_cluster::phase` constants so phase attribution stays canonical |
//! | `nondet-iter` | iteration (`iter`/`into_iter`/`keys`/`values`/`drain`/`retain`/…) over a `std` `HashMap`/`HashSet` in result-affecting library code — the per-process random SipHash seed makes the order vary run-to-run, breaking byte-identical replay; use `BTreeMap`/`BTreeSet` or sort before iterating. Order-independent sinks (commutative folds like `.sum()`, collecting back into a map, collect-then-sort) are recognized and not flagged. Identifier typing is cross-file and name-based |
//! | `barrier-protocol` | per operator entry point in `crates/{core,operators}`: a `phase::` barrier reachable on some control-flow paths but not others (a worker that skips it deadlocks every peer parked on the `(QueryId, name)` barrier), a plain early `return` that can skip a later barrier (only `JoinError` propagation may bypass barriers — an abort poisons them), and phase sequences that violate the canonical declaration order of `crates/cluster/src/phase.rs` |
//! | `raw-exchange` | `post_send` / `post_send_windowed` / `repost_recv` / `.recv(ctx)` / `SendWindow::` in `crates/{core,operators}/src` — operators reach the fabric only through `rsj_cluster::exchange`, so the hand-rolled send/receive loops cannot grow back. Exempt: the post-step closure inside a `Scatter::new(…)` call, and `phases/one_sided.rs` (the READ probe is not a partitioned stream) |
//! | `error-swallow` | `let _ =`, `.ok()`, or a bare statement discard on a fabric/`JoinError` result (`wait`/`recv`/`admit`/`drain`/`try_sync*`) in library code — fault-plane errors must propagate or be matched explicitly |
//!
//! Any rule can be waived on a specific line with a justification marker
//! (in a comment — markers inside string literals do not count), on the
//! same line or the line directly above:
//!
//! ```text
//! // lint: allow-unwrap(histogram exchange counted exactly m-1 messages)
//! let h = hists.pop().unwrap();
//! ```
//!
//! An empty reason does not count. Run with `cargo run -p rsj-lint`; add
//! `--json` for a machine-readable report and
//! `--baseline lint-baseline.json` to exit nonzero only on findings
//! absent from the committed baseline (`--update-baseline` refreshes it
//! after review). See [`report`] for the baseline semantics.

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
/// applicability. Cross-file context (hash-typed identifiers for
/// `nondet-iter`, the canonical phase order for `barrier-protocol`) is
/// collected over the whole set, so linting the full workspace is more
/// precise than file-at-a-time. Findings come back sorted by
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
/// the built-in default and only hash identifiers declared in this file
/// are known.
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
    fn catches_std_thread_spawn() {
        let src = "fn f() {\n    std::thread::spawn(|| {});\n}\n";
        let f = lint_file("crates/core/src/driver.rs", src);
        assert_eq!(rules_of(&f), ["std-thread"]);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn kernel_gets_the_thread_and_sync_rules_too() {
        // The kernel runs every task on one OS thread: no file is exempt.
        let src = "use std::sync::Mutex;\nstd::thread::spawn(|| {});\n";
        for file in ["crates/sim/src/kernel.rs", "crates/sim/src/lib.rs"] {
            assert_eq!(rules_of(&lint_file(file, src)), ["std-sync", "std-thread"]);
        }
    }

    #[test]
    fn catches_std_sync_primitives_outside_tests() {
        for ty in ["Mutex", "Barrier", "Condvar"] {
            let src = format!("use std::sync::{ty};\n");
            let f = lint_file("crates/joins/src/lib.rs", &src);
            assert_eq!(rules_of(&f), ["std-sync"], "{ty}");
        }
        // Brace imports are seen too (the line scanner missed these).
        let brace = "use std::sync::{Arc, Mutex};\n";
        assert_eq!(
            rules_of(&lint_file("crates/joins/src/lib.rs", brace)),
            ["std-sync"]
        );
        // Non-blocking std::sync items stay allowed.
        let ok = "use std::sync::Arc;\nuse std::sync::atomic::AtomicUsize;\n";
        assert!(lint_file("crates/joins/src/lib.rs", ok).is_empty());
    }

    #[test]
    fn catches_wall_clock_everywhere_even_in_tests() {
        let src =
            "#[cfg(test)]\nmod tests {\n    fn t() { let _ = std::time::Instant::now(); }\n}\n";
        let f = lint_file("crates/model/src/lib.rs", src);
        assert_eq!(rules_of(&f), ["wall-clock"]);
        let bench = "fn b() { let t0 = Instant::now(); }\n";
        assert_eq!(
            rules_of(&lint_file("crates/bench/benches/kernels.rs", bench)),
            ["wall-clock"]
        );
        // Duration is not a clock read.
        assert!(lint_file(
            "crates/bench/benches/kernels.rs",
            "use std::time::Duration;\n"
        )
        .is_empty());
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
    fn catches_unwrap_and_short_expect_in_library_code() {
        let src = "fn f() {\n    let x = y.unwrap();\n    let z = w.expect(\"oops\");\n}\n";
        let f = lint_file("crates/cluster/src/wire.rs", src);
        assert_eq!(rules_of(&f), ["unwrap", "unwrap"]);
        assert!(f[1].message.contains("non-descriptive"));
        let ok = "fn f() { let z = w.expect(\"histogram phase incomplete\"); }\n";
        assert!(lint_file("crates/cluster/src/wire.rs", ok).is_empty());
    }

    #[test]
    fn unwrap_is_allowed_in_test_modules_and_test_files() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        assert!(lint_file("crates/cluster/src/wire.rs", src).is_empty());
        assert!(lint_file("crates/rdma/tests/validator.rs", "fn t() { x.unwrap(); }\n").is_empty());
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
        // The generic unwrap rule fires too; the fabric rule names the fix.
        assert!(rules_of(&lint_file("crates/operators/src/x.rs", src)).contains(&"fabric-panic"));
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
        let same_line = "fn f() { let x = y.unwrap(); } // lint: allow-unwrap(checked len above)\n";
        assert!(unwaived(lint_file("crates/core/src/lib.rs", same_line)).is_empty());
        let prev_line =
            "fn f() {\n    // lint: allow-unwrap(poll loop guarantees Some)\n    let x = y.unwrap();\n}\n";
        assert!(unwaived(lint_file("crates/core/src/lib.rs", prev_line)).is_empty());
        // An empty reason does not count...
        let empty = "fn f() { let x = y.unwrap(); } // lint: allow-unwrap()\n";
        assert_eq!(
            rules_of(&lint_file("crates/core/src/lib.rs", empty)),
            ["unwrap"]
        );
        // ...and a marker for one rule does not waive another.
        let wrong = "fn f() { std::thread::spawn(g); } // lint: allow-unwrap(whatever)\n";
        assert_eq!(
            rules_of(&lint_file("crates/core/src/lib.rs", wrong)),
            ["std-thread"]
        );
        // A marker inside a string literal is not a waiver.
        let in_string =
            "fn f() {\n    let s = \"lint: allow-unwrap(not a comment)\";\n    let x = y.unwrap();\n}\n";
        assert_eq!(
            rules_of(&lint_file("crates/core/src/lib.rs", in_string)),
            ["unwrap"]
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
        // masking bug): the raw string below contains `.unwrap()` and an
        // unbalanced quote that would derail a line-based masker.
        let raw =
            "fn f() -> String {\n    r#\"x.unwrap() \" std::thread::spawn\"#.to_string()\n}\n";
        assert!(lint_file("crates/core/src/lib.rs", raw).is_empty());
        // Same for multi-line block comments, nested ones included.
        let block = "fn f() {}\n/* x.unwrap()\n   /* std::sync::Mutex */\n   Instant::now() */\nfn g() {}\n";
        assert!(lint_file("crates/core/src/lib.rs", block).is_empty());
    }

    #[test]
    fn comments_and_doc_text_do_not_trip_code_rules() {
        let src = "//! Never call std::thread::spawn in simulated code.\n\
                   // a worker must not use std::sync::Mutex\n\
                   /// or .unwrap() either\n";
        assert!(lint_file("crates/core/src/lib.rs", src).is_empty());
    }

    #[test]
    fn lint_ignores_its_own_sources() {
        let src = "std::thread::spawn(|| x.unwrap());\n";
        assert!(lint_file("crates/lint/src/fixtures.rs", src).is_empty());
    }

    // ---- nondet-iter ----

    #[test]
    fn nondet_iter_flags_hash_iteration_in_library_code() {
        let src = "fn f() {\n    let mut m: HashMap<u64, u64> = HashMap::new();\n    \
                   for (k, v) in &m {\n        emit(k, v);\n    }\n}\n";
        let f = lint_file("crates/operators/src/x.rs", src);
        assert_eq!(rules_of(&f), ["nondet-iter"]);
        assert_eq!(f[0].line, 3);
        // Draining through an iterator method is the same hazard.
        let drain = "fn f(groups: &mut HashMap<u64, u64>) {\n    \
                     for (k, v) in groups.drain() {\n        emit(k, v);\n    }\n}\n";
        assert_eq!(
            rules_of(&lint_file("crates/operators/src/x.rs", drain)),
            ["nondet-iter"]
        );
        // `.keys()` feeding an order-sensitive consumer.
        let keys = "fn f(seen: &HashSet<u64>) {\n    \
                    for k in seen.iter() {\n        emit(*k);\n    }\n}\n";
        assert_eq!(
            rules_of(&lint_file("crates/core/src/x.rs", keys)),
            ["nondet-iter"]
        );
    }

    #[test]
    fn nondet_iter_skips_ordered_containers_and_order_free_sinks() {
        // BTreeMap iteration is deterministic.
        let btree =
            "fn f(m: &BTreeMap<u64, u64>) {\n    for (k, v) in m.iter() { emit(k, v); }\n}\n";
        assert!(lint_file("crates/operators/src/x.rs", btree).is_empty());
        // Commutative chain-terminal folds are order-independent.
        let sum = "fn f(m: &HashMap<u64, u64>) -> u64 {\n    m.values().sum()\n}\n";
        assert!(lint_file("crates/operators/src/x.rs", sum).is_empty());
        // Collect-then-sort is the sanctioned pattern.
        let sorted = "fn f(m: &HashMap<u64, u64>) {\n    \
                      let mut keys: Vec<u64> = m.keys().copied().collect();\n    \
                      keys.sort_unstable();\n    for k in keys { emit(k); }\n}\n";
        assert!(lint_file("crates/core/src/x.rs", sorted).is_empty());
        // Collecting into another map is insertion, not ordered output.
        let remap = "fn f(m: &HashMap<u64, u64>) -> HashMap<u64, u64> {\n    \
                     m.iter().map(|(k, v)| (*k, v + 1)).collect::<HashMap<u64, u64>>()\n}\n";
        assert!(lint_file("crates/core/src/x.rs", remap).is_empty());
        // Tests and the sim kernel are out of scope.
        let test = "#[cfg(test)]\nmod tests {\n    fn t(m: &HashMap<u64, u64>) { for k in m.keys() { emit(k); } }\n}\n";
        assert!(lint_file("crates/operators/src/x.rs", test).is_empty());
        // A waiver applies like every other rule.
        let waived = "fn f(m: &HashMap<u64, u64>) {\n    \
                      // lint: allow-nondet-iter(order folded into a commutative checksum)\n    \
                      for (k, v) in m.iter() { fold(k, v); }\n}\n";
        assert!(unwaived(lint_file("crates/core/src/x.rs", waived)).is_empty());
    }

    #[test]
    fn nondet_iter_tracks_identifiers_across_files() {
        // The field is declared hash-typed in one file and iterated in
        // another; single-file linting cannot see that, lint_files can.
        let decl = "pub struct Registry {\n    pub slots: HashMap<u32, u64>,\n}\n";
        let user =
            "fn f(r: &Registry) {\n    for v in r.slots.values() {\n        emit(*v);\n    }\n}\n";
        let f = lint_files(&[
            ("crates/rdma/src/registry.rs".to_string(), decl.to_string()),
            ("crates/core/src/user.rs".to_string(), user.to_string()),
        ]);
        assert_eq!(rules_of(&f), ["nondet-iter"]);
        assert_eq!(f[0].file, "crates/core/src/user.rs");
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

    // ---- error-swallow ----

    #[test]
    fn error_swallow_flags_discarded_fabric_results() {
        let let_discard = "fn f() {\n    let _ = window.drain(ctx);\n}\n";
        let f = lint_file("crates/rdma/src/x.rs", let_discard);
        assert_eq!(rules_of(&f), ["error-swallow"]);
        assert_eq!(f[0].line, 2);
        let ok_swallow = "fn f() {\n    nic.recv(ctx).ok();\n}\n";
        assert_eq!(
            rules_of(&lint_file("crates/rdma/src/x.rs", ok_swallow)),
            ["error-swallow"]
        );
        let bare = "fn f() {\n    handle.wait(ctx);\n}\n";
        assert_eq!(
            rules_of(&lint_file("crates/rdma/src/x.rs", bare)),
            ["error-swallow"]
        );
        // Barrier results are in scope too.
        let barrier = "fn f() {\n    rt.try_sync_named(ctx, phase::HISTOGRAM, m).ok();\n}\n";
        assert_eq!(
            rules_of(&lint_file("crates/workload/src/x.rs", barrier)),
            ["error-swallow"]
        );
    }

    #[test]
    fn error_swallow_accepts_propagation_matching_and_tests() {
        let propagate = "fn f() -> Result<(), JoinError> {\n    \
                         let c = window.drain(ctx).map_err(fab)?;\n    use_it(c);\n    Ok(())\n}\n";
        assert!(lint_file("crates/rdma/src/x.rs", propagate).is_empty());
        let matched = "fn f() {\n    match nic.recv(ctx) {\n        Ok(c) => use_it(c),\n        \
                       Err(e) => record(e),\n    }\n}\n";
        assert!(lint_file("crates/rdma/src/x.rs", matched).is_empty());
        let bound = "fn f() {\n    let res = handle.wait(ctx);\n    inspect(res);\n}\n";
        assert!(lint_file("crates/rdma/src/x.rs", bound).is_empty());
        // Tests may discard freely.
        let test = "fn t() { let _ = window.drain(ctx); }\n";
        assert!(lint_file("crates/rdma/tests/x.rs", test).is_empty());
        // A waiver applies.
        let waived = "fn f() {\n    \
                      // lint: allow-error-swallow(teardown path, errors already recorded)\n    \
                      let _ = window.drain(ctx);\n}\n";
        assert!(unwaived(lint_file("crates/rdma/src/x.rs", waived)).is_empty());
    }
}
