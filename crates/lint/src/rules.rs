//! The rule passes. Every rule runs over a [`FileCtx`]'s code-token
//! stream with the workspace [`Global`] context in scope and pushes
//! [`Finding`]s; waivers are resolved afterwards by the engine.

use std::collections::BTreeSet;

use crate::engine::{FileCtx, Global};
use crate::lexer::TokKind;
use crate::Finding;

/// Rule identifiers in reporting order (8 ported + 5 new families).
pub const RULES: &[&str] = &[
    "std-thread",
    "std-sync",
    "wall-clock",
    "mr-access",
    "unwrap",
    "hot-alloc",
    "fabric-panic",
    "barrier-name",
    "nondet-iter",
    "barrier-protocol",
    "error-swallow",
    "meter-flush",
    "raw-exchange",
];

/// Minimum length for an `.expect("…")` message to count as descriptive.
const MIN_EXPECT_LEN: usize = 10;

/// Fabric post/poll methods returning typed `FabricError` results.
const FABRIC_METHODS: [&str; 4] = ["wait", "recv", "admit", "drain"];

/// Fallible barrier/run entry points returning `JoinError` results.
const JOIN_METHODS: [&str; 2] = ["try_sync_named", "try_sync_quiet"];

/// Iteration-order-sensitive methods on `std` hash containers.
const HASH_ITER_METHODS: [&str; 8] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
];

/// Chain-terminal folds that are order-independent, so hash iteration
/// feeding them is deterministic.
const ORDER_FREE_FOLDS: [&str; 8] = [
    "sum", "count", "min", "max", "len", "any", "all", "is_empty",
];

/// Whether `rel` is source of a crate whose state lives in a simulation.
fn in_sim_state(rel: &str) -> bool {
    ["sim", "rdma", "cluster", "core", "operators"]
        .iter()
        .any(|c| rel.starts_with(&format!("crates/{c}/src/")))
}

/// Run every rule over one file.
pub(crate) fn check_file(ctx: &FileCtx<'_>, global: &Global, out: &mut Vec<Finding>) {
    let in_rdma = ctx.rel.starts_with("crates/rdma/");
    let in_cluster = ctx.rel.starts_with("crates/cluster/");
    let in_joins = ctx.rel.starts_with("crates/joins/");
    let in_sim_state = in_sim_state(ctx.rel);
    let n = ctx.code.len();

    let push = |rule: &'static str, line: usize, message: String, out: &mut Vec<Finding>| {
        out.push(Finding {
            file: ctx.rel.to_string(),
            line,
            rule,
            message,
            waived: false,
            reason: None,
        });
    };

    for i in 0..n {
        let test = ctx.in_test(i);

        // ---- std-thread: everywhere, tests included. The short
        // `thread::spawn(` form is skipped when it is just the tail of a
        // full `std::thread::spawn` path (already matched).
        let tail_of_path = i > 0 && ctx.text(i - 1) == ":";
        if ctx.seq(i, &["std", ":", ":", "thread", ":", ":", "spawn"])
            || (!tail_of_path && ctx.seq(i, &["thread", ":", ":", "spawn", "("]))
        {
            push(
                "std-thread",
                ctx.line(i),
                "OS thread creation in simulated code; spawn an rsj-sim task instead".into(),
                out,
            );
        }

        // ---- wall-clock: everywhere, tests included.
        if ctx.seq(i, &["std", ":", ":", "time", ":", ":", "Instant"])
            || ctx.seq(i, &["std", ":", ":", "time", ":", ":", "SystemTime"])
            || (!tail_of_path
                && (ctx.seq(i, &["Instant", ":", ":", "now", "("])
                    || ctx.seq(i, &["SystemTime", ":", ":", "now", "("])))
        {
            push(
                "wall-clock",
                ctx.line(i),
                "wall-clock read breaks deterministic simulation; use SimCtx::now()".into(),
                out,
            );
        }

        if test {
            continue; // remaining rules are library-code rules
        }

        // ---- std-sync: std's blocking primitives everywhere, and locks
        // of any kind in the crates whose state lives inside a simulation.
        let hit = if ctx.seq(i, &["std", ":", ":", "sync", ":", ":"]) {
            names_any(ctx, i + 6, &["Mutex", "Barrier", "Condvar"])
        } else if in_sim_state && ctx.seq(i, &["parking_lot", ":", ":"]) {
            names_any(ctx, i + 3, &["Mutex", "RwLock"])
        } else {
            false
        };
        if hit {
            push(
                "std-sync",
                ctx.line(i),
                "lock in simulated code: a simulation runs on one OS thread, so state its tasks \
                 share is a RefCell/Cell and anything that waits is an rsj-sim primitive"
                    .into(),
                out,
            );
        }

        // ---- mr-access: outside crates/rdma.
        if !in_rdma
            && ctx.text(i) == "."
            && matches!(ctx.text(i + 1), "with_data" | "dma_write")
            && ctx.text(i + 2) == "("
        {
            push(
                "mr-access",
                ctx.line(i),
                "direct Mr byte access outside rsj-rdma bypasses the verbs contract validator"
                    .into(),
                out,
            );
        }

        // ---- unwrap / short expect.
        if ctx.seq(i, &[".", "unwrap", "(", ")"]) {
            push(
                "unwrap",
                ctx.line(i + 1),
                "unwrap() in library code; state the broken invariant with expect(), or add a \
                 lint marker with the reason it cannot fail"
                    .into(),
                out,
            );
        }
        if ctx.seq(i, &[".", "expect", "("]) && ctx.kind(i + 3) == TokKind::Str {
            let msg = str_inner(ctx.text(i + 3));
            if msg.len() < MIN_EXPECT_LEN {
                push(
                    "unwrap",
                    ctx.line(i + 1),
                    format!("non-descriptive expect message {msg:?}; say what invariant broke"),
                    out,
                );
            }
        }

        // ---- fabric-panic: panicking on fabric post/poll results.
        if ctx.text(i) == "." && FABRIC_METHODS.contains(&ctx.text(i + 1)) && ctx.text(i + 2) == "("
        {
            if let Some(close) = ctx.matching_close(i + 2) {
                if ctx.seq(close + 1, &[".", "unwrap", "("])
                    || ctx.seq(close + 1, &[".", "expect", "("])
                {
                    push(
                        "fabric-panic",
                        ctx.line(close + 2),
                        "panic on a fallible fabric post/poll result in library code; propagate \
                         the error as a JoinError so the run aborts cleanly instead of crashing"
                            .into(),
                        out,
                    );
                }
            }
        }

        // ---- barrier-name: raw string literal barrier names outside
        // crates/cluster.
        if !in_cluster
            && ctx.text(i) == "."
            && matches!(ctx.text(i + 1), "sync_named" | "try_sync_named")
            && ctx.text(i + 2) == "("
        {
            if let Some(close) = ctx.matching_close(i + 2) {
                if (i + 3..close).any(|k| ctx.kind(k) == TokKind::Str) {
                    push(
                        "barrier-name",
                        ctx.line(i + 1),
                        "raw barrier-name string at a sync_named call site; use the \
                         rsj_cluster::phase constants so the (QueryId, phase) namespace stays \
                         canonical"
                            .into(),
                        out,
                    );
                }
            }
        }

        // ---- nondet-iter: hash-container iteration in result-affecting
        // library code.
        nondet_iter_at(ctx, global, i, out);

        // ---- error-swallow.
        error_swallow_at(ctx, i, out);
    }

    // ---- hot-alloc: allocation inside designated hot kernels in
    // crates/joins and on the dataplane's per-message paths.
    if in_joins || in_sim_state {
        hot_alloc(ctx, in_joins, out);
    }

    // ---- barrier-protocol: phase-sequence verification for operator
    // entry points in crates/core and crates/operators.
    if ctx.rel.starts_with("crates/core/src/") || ctx.rel.starts_with("crates/operators/src/") {
        barrier_protocol(ctx, global, out);
    }

    // ---- meter-flush: settle-on-interaction audit for the same layer.
    if ctx.rel.starts_with("crates/core/src/") || ctx.rel.starts_with("crates/operators/src/") {
        meter_flush(ctx, out);
    }

    // ---- raw-exchange: the same layer speaks to the fabric only through
    // the exchange layer. The one-sided READ probe is not a partitioned
    // stream and keeps its own dataplane (DESIGN.md §11).
    if (ctx.rel.starts_with("crates/core/src/") || ctx.rel.starts_with("crates/operators/src/"))
        && ctx.rel != "crates/core/src/phases/one_sided.rs"
    {
        raw_exchange(ctx, out);
    }
}

/// Whether the path item at token `j` (after `::`) names one of `items`,
/// directly or inside a brace import group.
fn names_any(ctx: &FileCtx<'_>, j: usize, items: &[&str]) -> bool {
    if ctx.text(j) == "{" {
        let close = ctx.matching_close(j).unwrap_or(j);
        (j..=close).any(|k| items.contains(&ctx.text(k)))
    } else {
        items.contains(&ctx.text(j))
    }
}

/// `raw-exchange`: two-sided posts, receives, receive-slot reposts and
/// send-window construction outside `rsj_cluster::exchange`. The post step
/// an operator hands to `Scatter::new(…)`, or to the shuffle that builds
/// the scatter (`Landing::shuffle(…)`), is the one place they belong, so
/// those calls' argument lists are exempt.
fn raw_exchange(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let n = ctx.code.len().min(ctx.test_from);
    let mut i = 0;
    while i < n {
        if ctx.seq(i, &["Scatter", ":", ":", "new", "("]) {
            i = ctx.matching_close(i + 4).unwrap_or(n);
            continue;
        }
        if ctx.seq(i, &[".", "shuffle", "("]) {
            i = ctx.matching_close(i + 2).unwrap_or(n);
            continue;
        }
        let call = ctx.text(i) == "." && ctx.text(i + 2) == "(";
        let raw_call = call
            && (matches!(
                ctx.text(i + 1),
                "post_send" | "post_send_windowed" | "repost_recv"
            ) || (ctx.text(i + 1) == "recv" && ctx.text(i + 3) == "ctx"));
        if raw_call || ctx.seq(i, &["SendWindow", ":", ":"]) {
            let what = if raw_call {
                ctx.text(i + 1)
            } else {
                "SendWindow::"
            };
            out.push(Finding {
                file: ctx.rel.to_string(),
                line: ctx.line(i + 1),
                rule: "raw-exchange",
                message: format!(
                    "raw `{what}` in operator code; use rsj_cluster::exchange (all_to_all, \
                     recv_stream, Scatter) so the send/receive loops, their error mapping and \
                     their yield order live in one place"
                ),
                waived: false,
                reason: None,
            });
        }
        i += 1;
    }
}

/// The inner text of a string-literal token (quotes and prefixes
/// stripped; raw-string hash guards too).
fn str_inner(text: &str) -> &str {
    let t = text
        .trim_start_matches(['r', 'b', 'c'])
        .trim_start_matches('#')
        .trim_end_matches('#');
    t.strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .unwrap_or(t)
}

/// `nondet-iter` at one token position: a hash-iteration method call or a
/// `for … in <hash>` loop, minus order-independent sinks.
fn nondet_iter_at(ctx: &FileCtx<'_>, global: &Global, i: usize, out: &mut Vec<Finding>) {
    const MSG: &str = "iteration order of a std HashMap/HashSet varies run-to-run (per-process \
                       random SipHash seed); use BTreeMap/BTreeSet, or collect and sort the keys \
                       before iterating/draining";
    // Method form: `<hash-chain>.keys()` etc.
    if ctx.text(i) == "."
        && HASH_ITER_METHODS.contains(&ctx.text(i + 1))
        && ctx.text(i + 2) == "("
        && receiver_is_hashy(ctx, global, i)
    {
        if let Some(close) = ctx.matching_close(i + 2) {
            if !sink_is_order_free(ctx, i, close) {
                out.push(Finding {
                    file: ctx.rel.to_string(),
                    line: ctx.line(i + 1),
                    rule: "nondet-iter",
                    message: format!("`.{}()` on a std hash container: {MSG}", ctx.text(i + 1)),
                    waived: false,
                    reason: None,
                });
            }
        }
        return;
    }
    // Loop form: `for <pat> in [&][mut] <hash-path> {`.
    if ctx.text(i) == "for" && ctx.kind(i) == TokKind::Ident {
        let limit = (i + 60).min(ctx.code.len());
        let mut in_idx = None;
        for j in i + 1..limit {
            match ctx.text(j) {
                "in" if ctx.kind(j) == TokKind::Ident => {
                    in_idx = Some(j);
                    break;
                }
                "{" | ";" => break,
                "(" | "[" => {
                    // skip the pattern group
                    if let Some(c) = ctx.matching_close(j) {
                        if c >= limit {
                            break;
                        }
                    }
                }
                _ => {}
            }
        }
        let Some(in_idx) = in_idx else { return };
        let mut brace = None;
        for j in in_idx + 1..limit {
            match ctx.text(j) {
                "{" => {
                    brace = Some(j);
                    break;
                }
                ";" => break,
                "(" | "[" => {
                    if let Some(c) = ctx.matching_close(j) {
                        if c >= limit {
                            break;
                        }
                    }
                }
                _ => {}
            }
        }
        let Some(brace) = brace else { return };
        let expr: Vec<usize> = (in_idx + 1..brace).collect();
        // Ranges (`0..map.len()`) and calls are out of scope here; the
        // method form above covers explicit iterator calls.
        let has_range = expr
            .windows(2)
            .any(|w| ctx.text(w[0]) == "." && ctx.text(w[1]) == ".");
        let has_call = expr.iter().any(|&j| ctx.text(j) == "(");
        let hashy = expr
            .iter()
            .any(|&j| ctx.kind(j) == TokKind::Ident && global.hash_names.contains(ctx.text(j)));
        if hashy && !has_range && !has_call {
            out.push(Finding {
                file: ctx.rel.to_string(),
                line: ctx.line(i),
                rule: "nondet-iter",
                message: format!("`for … in` over a std hash container: {MSG}"),
                waived: false,
                reason: None,
            });
        }
    }
}

/// Walk the receiver chain left of the `.` at `dot`: does it name an
/// identifier declared with a hash-container type anywhere in the
/// workspace? Skips balanced `(…)`/`[…]` groups (`.lock()`, indexing).
fn receiver_is_hashy(ctx: &FileCtx<'_>, global: &Global, dot: usize) -> bool {
    let mut j = dot as isize - 1;
    let mut steps = 0;
    while j >= 0 && steps < 48 {
        steps += 1;
        let idx = j as usize;
        match ctx.text(idx) {
            ")" | "]" => match ctx.matching_open(idx) {
                Some(o) => j = o as isize - 1,
                None => return false,
            },
            "." => j -= 1,
            t if ctx.kind(idx) == TokKind::Ident => {
                if global.hash_names.contains(t) {
                    return true;
                }
                j -= 1;
            }
            _ if ctx.kind(idx) == TokKind::Num => j -= 1, // tuple index `.0`
            _ => return false,
        }
    }
    false
}

/// Is the flagged hash iteration feeding an order-independent sink?
/// Either a commutative chain-terminal fold, a `collect` back into an
/// unordered/ordered container in the same statement, or a collect into
/// a `let` binding that one of the next two statements sorts.
fn sink_is_order_free(ctx: &FileCtx<'_>, dot: usize, close: usize) -> bool {
    if ctx.text(close + 1) == "." && ORDER_FREE_FOLDS.contains(&ctx.text(close + 2)) {
        return true;
    }
    let (s, e) = ctx.stmt_range(dot);
    let has_collect = (s..=e).any(|j| ctx.text(j) == "collect");
    if !has_collect {
        return false;
    }
    let resorts = ["HashMap", "HashSet", "BTreeMap", "BTreeSet", "BinaryHeap"];
    if (s..=e).any(|j| resorts.contains(&ctx.text(j))) {
        return true;
    }
    // `let [mut] NAME … = ….collect();` followed shortly by `NAME.sort*`.
    let mut k = s;
    if ctx.text(k) != "let" {
        return false;
    }
    k += 1;
    if ctx.text(k) == "mut" {
        k += 1;
    }
    if ctx.kind(k) != TokKind::Ident {
        return false;
    }
    let name = ctx.text(k);
    let mut p = e + 1;
    for _ in 0..2 {
        if p >= ctx.code.len() {
            break;
        }
        let (s2, e2) = ctx.stmt_range(p);
        let mut j = s2;
        while j + 2 <= e2 {
            if ctx.text(j) == name && ctx.text(j + 1) == "." && ctx.text(j + 2).starts_with("sort")
            {
                return true;
            }
            j += 1;
        }
        p = e2 + 1;
    }
    false
}

/// `error-swallow` patterns at one token position: `let _ =` discards of
/// fabric/`JoinError` results, `.ok()` on them, and bare-semicolon
/// statement discards.
fn error_swallow_at(ctx: &FileCtx<'_>, i: usize, out: &mut Vec<Finding>) {
    let fallible = |t: &str| FABRIC_METHODS.contains(&t) || JOIN_METHODS.contains(&t);
    // `let _ = <stmt containing a fabric call>;`
    if ctx.seq(i, &["let", "_", "="]) {
        let (_, e) = ctx.stmt_range(i);
        let has_fabric = (i + 3..e)
            .any(|j| ctx.text(j) == "." && fallible(ctx.text(j + 1)) && ctx.text(j + 2) == "(");
        if has_fabric {
            out.push(Finding {
                file: ctx.rel.to_string(),
                line: ctx.line(i),
                rule: "error-swallow",
                message: "`let _ =` discards a fabric/JoinError result; fault-plane errors \
                          (DESIGN.md §8) must propagate or be matched explicitly"
                    .into(),
                waived: false,
                reason: None,
            });
        }
        return;
    }
    if ctx.text(i) == "." && fallible(ctx.text(i + 1)) && ctx.text(i + 2) == "(" {
        let Some(close) = ctx.matching_close(i + 2) else {
            return;
        };
        // `.ok()` swallows the typed error.
        if ctx.seq(close + 1, &[".", "ok", "(", ")"]) {
            out.push(Finding {
                file: ctx.rel.to_string(),
                line: ctx.line(close + 2),
                rule: "error-swallow",
                message: format!(
                    "`.ok()` on a fallible `{}` result silently drops the typed error; match it \
                     or propagate it as a JoinError",
                    ctx.text(i + 1)
                ),
                waived: false,
                reason: None,
            });
            return;
        }
        // Bare statement discard: `window.drain(ctx);` with no binding,
        // `?`, or `return` in the statement.
        if ctx.text(close + 1) == ";" {
            let (s, _) = ctx.stmt_range(i);
            let plain = !(s..close).any(|j| {
                matches!(
                    ctx.text(j),
                    "let" | "=" | "?" | "return" | "match" | "if" | "while"
                )
            });
            if plain {
                out.push(Finding {
                    file: ctx.rel.to_string(),
                    line: ctx.line(i + 1),
                    rule: "error-swallow",
                    message: format!(
                        "result of fallible `{}` is discarded; bind it, `?` it, or match it so \
                         fabric errors abort the run cleanly",
                        ctx.text(i + 1)
                    ),
                    waived: false,
                    reason: None,
                });
            }
        }
    }
}

/// The dataplane's per-message functions, as `(impl type, name)`: one
/// message of a network pass, one RDMA READ or one one-sided probe group
/// runs each of them, so an allocation in one is paid per message.
const PER_MESSAGE_FNS: [(&str, &str); 24] = [
    ("Nic", "post"),
    ("Nic", "handle"),
    ("CellPool", "take"),
    ("Wc", "complete"),
    ("Wc", "complete_read"),
    ("Wc", "recycle"),
    ("SendHandle", "drop"),
    ("SendWindow", "admit"),
    ("SendWindow", "record"),
    ("Scatter", "push"),
    ("Scatter", "post"),
    ("Exchange", "recv_stream"),
    ("BufferPool", "take"),
    ("BufferPool", "refill"),
    ("Fabric", "egress_step"),
    ("Fabric", "ingress_step"),
    ("Fabric", "place_two_sided"),
    ("Fabric", "place_one_sided"),
    ("Landing", "route"),
    ("Landing", "receive"),
    ("Nic", "post_read_inner"),
    ("Mr", "dma_read"),
    ("ProbeScratch", "probe_owned"),
    ("ProbeScratch", "probe_remote"),
];

/// Token sequences that allocate (or, `Vec::new`, stand for a buffer
/// that will).
const ALLOC_SEQS: [&[&str]; 7] = [
    &["vec", "!"],
    &["Vec", ":", ":", "new"],
    &["Vec", ":", ":", "with_capacity"],
    &["Arc", ":", ":", "new"],
    &["Rc", ":", ":", "new"],
    &["Box", ":", ":", "new"],
    &[".", "to_vec", "("],
];

/// `hot-alloc`: an allocating token sequence ([`ALLOC_SEQS`]) inside the
/// `*_kernel` / `histogram*` / `scatter*` functions of crates/joins
/// (`joins`) or a [`PER_MESSAGE_FNS`] function of the simulation-state
/// crates (non-test).
fn hot_alloc(ctx: &FileCtx<'_>, joins: bool, out: &mut Vec<Finding>) {
    for f in ctx.functions() {
        let hot = if joins {
            is_hot_kernel_name(&f.name)
        } else {
            PER_MESSAGE_FNS
                .iter()
                .any(|&(ty, name)| f.owner.as_deref() == Some(ty) && f.name == name)
        };
        if ctx.in_test(f.name_idx) || !hot {
            continue;
        }
        let Some((open, end)) = f.body else { continue };
        for i in open..=end {
            if ALLOC_SEQS.iter().any(|seq| ctx.seq(i, seq)) {
                let message = if joins {
                    "allocation inside a hot kernel; move the buffer into the owning struct \
                     (e.g. Partitioner scratch) and reuse it across calls"
                } else {
                    "allocation on a per-message path; draw the buffer or completion cell \
                     from its pool and hand it back once used"
                };
                out.push(Finding {
                    file: ctx.rel.to_string(),
                    line: ctx.line(i),
                    rule: "hot-alloc",
                    message: message.into(),
                    waived: false,
                    reason: None,
                });
            }
        }
    }
}

/// `hot-alloc`, workspace half: a [`PER_MESSAGE_FNS`] entry that names no
/// non-test function of the simulation-state crates covers nothing, so a
/// rename would drop the check silently. Each such entry is reported at
/// its line of this file.
pub(crate) fn stale_per_message_fns(ctxs: &[FileCtx<'_>]) -> Vec<Finding> {
    let mut defined = BTreeSet::new();
    for ctx in ctxs.iter().filter(|c| in_sim_state(c.rel)) {
        for f in ctx.functions() {
            if let Some(owner) = f.owner.filter(|_| !ctx.in_test(f.name_idx)) {
                defined.insert((owner, f.name));
            }
        }
    }
    PER_MESSAGE_FNS
        .iter()
        .filter(|&&(ty, name)| !defined.contains(&(ty.to_string(), name.to_string())))
        .map(|&(ty, name)| {
            let entry = format!("(\"{ty}\", \"{name}\")");
            let line = include_str!("rules.rs")
                .lines()
                .position(|l| l.trim_start().starts_with(&entry))
                .map_or(1, |i| i + 1);
            Finding {
                file: "crates/lint/src/rules.rs".to_string(),
                line,
                rule: "hot-alloc",
                message: format!(
                    "PER_MESSAGE_FNS names `{ty}::{name}`, which no non-test function of \
                     crates/{{sim,rdma,cluster,core,operators}}/src defines, so its \
                     allocation check covers nothing; point the entry at the function's \
                     current name"
                ),
                waived: false,
                reason: None,
            }
        })
        .collect()
}

/// Is this function name one of the designated hot kernels?
fn is_hot_kernel_name(name: &str) -> bool {
    name.ends_with("_kernel") || name.starts_with("histogram") || name.starts_with("scatter")
}

/// One named-barrier call site inside a function.
struct BarrierCall {
    /// Code-token index of the method name.
    idx: usize,
    /// `phase::` constant name, if the name argument is a phase constant.
    konst: Option<String>,
    /// Conditional depth relative to the function body.
    rel_cond: u32,
}

/// `barrier-protocol`: per function, extract the `phase::` constants
/// passed to `sync_named`/`try_sync_named` in control-flow order and
/// verify (a) every barrier is unconditionally reached, (b) no plain
/// early `return` can skip a later barrier, and (c) the sequence follows
/// the canonical declaration order of `crates/cluster/src/phase.rs`.
/// `?`-propagation is exempt by design: a `JoinError` path aborts the
/// query and poisons its barriers, so skipping them is safe.
fn barrier_protocol(ctx: &FileCtx<'_>, global: &Global, out: &mut Vec<Finding>) {
    for f in ctx.functions() {
        if ctx.in_test(f.name_idx) {
            continue;
        }
        let Some((open, end)) = f.body else { continue };
        if open + 1 >= end {
            continue;
        }
        let base_cond = ctx.cond[open + 1];
        let mut calls: Vec<BarrierCall> = Vec::new();
        let mut returns: Vec<usize> = Vec::new(); // conditional plain returns
        for i in open + 1..end {
            if ctx.text(i) == "."
                && matches!(ctx.text(i + 1), "sync_named" | "try_sync_named")
                && ctx.text(i + 2) == "("
            {
                let close = ctx.matching_close(i + 2).unwrap_or(end);
                let mut konst = None;
                for k in i + 3..close {
                    if ctx.seq(k, &["phase", ":", ":"]) && ctx.kind(k + 3) == TokKind::Ident {
                        konst = Some(ctx.text(k + 3).to_string());
                        break;
                    }
                }
                calls.push(BarrierCall {
                    idx: i + 1,
                    konst,
                    rel_cond: ctx.cond[i].saturating_sub(base_cond),
                });
            }
            if ctx.text(i) == "return"
                && ctx.kind(i) == TokKind::Ident
                && ctx.cond[i] > base_cond
                && ctx.text(i + 1) != "Err"
            {
                returns.push(i);
            }
        }
        if calls.is_empty() {
            continue;
        }
        // (a) Conditionally-reached barriers.
        for c in &calls {
            if c.rel_cond > 0 {
                let name = c.konst.as_deref().unwrap_or("<dynamic>");
                out.push(Finding {
                    file: ctx.rel.to_string(),
                    line: ctx.line(c.idx),
                    rule: "barrier-protocol",
                    message: format!(
                        "barrier `{name}` in `{}` is reached only on some control-flow paths \
                         (conditional depth {}); a worker that skips it deadlocks every peer \
                         parked on the (QueryId, name) barrier",
                        f.name, c.rel_cond
                    ),
                    waived: false,
                    reason: None,
                });
            }
        }
        // (b) Early plain returns that can skip a later barrier.
        for &r in &returns {
            if let Some(c) = calls.iter().find(|c| c.idx > r) {
                let name = c.konst.as_deref().unwrap_or("<dynamic>");
                out.push(Finding {
                    file: ctx.rel.to_string(),
                    line: ctx.line(r),
                    rule: "barrier-protocol",
                    message: format!(
                        "early `return` in `{}` skips barrier `{name}` on this path; only \
                         `JoinError` propagation (`?`/`return Err`) may bypass a barrier, \
                         because it aborts the query and poisons its barriers",
                        f.name
                    ),
                    waived: false,
                    reason: None,
                });
            }
        }
        // (c) Canonical order (and unknown constants).
        let mut last: Option<(usize, String)> = None;
        for c in &calls {
            let Some(name) = &c.konst else { continue };
            let Some(idx) = global.phase_index(name) else {
                out.push(Finding {
                    file: ctx.rel.to_string(),
                    line: ctx.line(c.idx),
                    rule: "barrier-protocol",
                    message: format!(
                        "unknown phase constant `phase::{name}` in `{}`; the canonical set is \
                         declared in crates/cluster/src/phase.rs ({})",
                        f.name,
                        global.phase_order.join(" → ")
                    ),
                    waived: false,
                    reason: None,
                });
                continue;
            };
            if let Some((last_idx, last_name)) = &last {
                if idx <= *last_idx {
                    out.push(Finding {
                        file: ctx.rel.to_string(),
                        line: ctx.line(c.idx),
                        rule: "barrier-protocol",
                        message: format!(
                            "barrier `{name}` after `{last_name}` in `{}` violates the canonical \
                             phase order ({}); two operators disagreeing on barrier order is a \
                             cross-query deadlock in the (QueryId, name) namespace",
                            f.name,
                            global.phase_order.join(" → ")
                        ),
                        waived: false,
                        reason: None,
                    });
                }
            }
            last = Some((idx, name.clone()));
        }
    }
}

/// Meter charge/flush/interaction call sites relevant to `meter-flush`.
#[derive(Copy, Clone, PartialEq, Eq)]
enum MeterEvent {
    /// `.charge_bytes(` / `.charge_seconds(` — accrues unflushed time.
    Charge,
    /// `.flush(` — settles accrued time with the kernel.
    Flush,
    /// A park / barrier / fabric-post / recv call whose virtual-time
    /// position other tasks observe.
    Interaction,
}

/// Methods whose call marks a kernel-visible interaction point.
const INTERACTION_METHODS: [&str; 10] = [
    "park",
    "sync_named",
    "try_sync_named",
    "try_sync_quiet",
    "post_send",
    "post_send_windowed",
    "post_write",
    "post_read",
    "post_read_batch",
    "recv",
];

/// Meter charge methods.
const CHARGE_METHODS: [&str; 2] = ["charge_bytes", "charge_seconds"];

/// Calls that leave the meter settled: `Meter::flush` itself, the
/// exchange layer's `Exchange::recv_stream` / `Scatter::finish`, which end
/// with a flush, and `Landing::shuffle`, which ends in one of them.
const SETTLE_METHODS: [&str; 4] = ["flush", "recv_stream", "finish", "shuffle"];

/// `meter-flush`: in functions that charge a [`Meter`], every
/// interaction call (park, named barrier, fabric post, recv) must be
/// preceded by a `.flush(` with no intervening charge — the
/// settle-on-interaction invariant that makes lazy settlement equivalent
/// to eager (DESIGN.md §12). Two passes: a linear control-flow-order scan,
/// plus a cyclic scan of each `loop`/`while`/`for` body so a charge at the
/// bottom of a loop reaching an interaction at its top (the receiver-loop
/// shape) is caught.
fn meter_flush(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    for f in ctx.functions() {
        if ctx.in_test(f.name_idx) {
            continue;
        }
        let Some((open, end)) = f.body else { continue };
        // Events in token order. Only functions that actually charge a
        // meter are audited; pure consumers of ctx/fabric are out of scope.
        let mut events: Vec<(usize, MeterEvent)> = Vec::new();
        for i in open + 1..end {
            if ctx.text(i) != "." || ctx.text(i + 2) != "(" {
                continue;
            }
            let m = ctx.text(i + 1);
            if CHARGE_METHODS.contains(&m) {
                events.push((i + 1, MeterEvent::Charge));
            } else if SETTLE_METHODS.contains(&m) {
                events.push((i + 1, MeterEvent::Flush));
            } else if INTERACTION_METHODS.contains(&m) {
                events.push((i + 1, MeterEvent::Interaction));
            }
        }
        if !events.iter().any(|(_, e)| *e == MeterEvent::Charge) {
            continue;
        }
        let report = |idx: usize, shape: &str, out: &mut Vec<Finding>| {
            out.push(Finding {
                file: ctx.rel.to_string(),
                line: ctx.line(idx),
                rule: "meter-flush",
                message: format!(
                    "interaction `{}` in `{}` is reachable with unflushed meter charges \
                     ({shape}); call meter.flush(ctx) first so the action's virtual-time \
                     position reflects all accrued compute (settle-on-interaction, \
                     DESIGN.md §12)",
                    ctx.text(idx),
                    f.name
                ),
                waived: false,
                reason: None,
            });
        };
        // Pass 1: linear order.
        let mut unflushed: Option<usize> = None;
        for &(idx, ev) in &events {
            match ev {
                MeterEvent::Charge => unflushed = Some(idx),
                MeterEvent::Flush => unflushed = None,
                MeterEvent::Interaction => {
                    if unflushed.take().is_some() {
                        report(idx, "straight-line path", out);
                    }
                }
            }
        }
        // Pass 2: cyclic scan per loop body. A charge with no flush before
        // the loop's bottom can wrap around to an interaction at its top.
        let mut i = open + 1;
        while i < end {
            if ctx.kind(i) == TokKind::Ident && matches!(ctx.text(i), "loop" | "while" | "for") {
                // Find the body brace of this loop header (skip groups).
                let mut j = i + 1;
                let mut brace = None;
                while j < end {
                    match ctx.text(j) {
                        "{" => {
                            brace = Some(j);
                            break;
                        }
                        ";" => break,
                        "(" | "[" => j = ctx.matching_close(j).unwrap_or(end),
                        _ => {}
                    }
                    j += 1;
                }
                if let Some(lb) = brace {
                    let le = ctx.matching_close(lb).unwrap_or(end);
                    let body: Vec<&(usize, MeterEvent)> =
                        events.iter().filter(|(k, _)| *k > lb && *k < le).collect();
                    // Unflushed charge at the loop's bottom?
                    let tail_charge = body
                        .iter()
                        .rev()
                        .take_while(|(_, e)| *e != MeterEvent::Flush)
                        .any(|(_, e)| *e == MeterEvent::Charge);
                    if tail_charge {
                        // First interaction from the loop's top before any
                        // flush is reached with that charge pending.
                        if let Some((idx, _)) = body
                            .iter()
                            .take_while(|(_, e)| *e != MeterEvent::Flush)
                            .find(|(_, e)| *e == MeterEvent::Interaction)
                        {
                            report(*idx, "wrap-around within a loop", out);
                        }
                    }
                    // Keep scanning from the header so nested loops get
                    // their own cyclic pass.
                }
            }
            i += 1;
        }
    }
}
