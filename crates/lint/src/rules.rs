//! The rule passes. Every rule runs over a [`FileCtx`]'s code-token
//! stream with the workspace [`Global`] context in scope and pushes
//! [`Finding`]s; waivers are resolved afterwards by the engine.

use std::collections::BTreeSet;

use crate::engine::{FileCtx, Global};
use crate::lexer::TokKind;
use crate::Finding;

/// Rule identifiers in reporting order.
pub const RULES: &[&str] = &[
    "mr-access",
    "expect-message",
    "hot-alloc",
    "fabric-panic",
    "barrier-name",
    "barrier-protocol",
    "meter-flush",
    "raw-exchange",
];

/// Minimum length for an `.expect("…")` message to count as descriptive.
const MIN_EXPECT_LEN: usize = 10;

/// Fabric post/poll methods returning typed `FabricError` results.
const FABRIC_METHODS: [&str; 4] = ["wait", "recv", "admit", "drain"];

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

    // Every per-token rule is a library-code rule.
    for i in (0..n).take_while(|&i| !ctx.in_test(i)) {
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

        // ---- expect-message: a panic must say what invariant broke.
        if ctx.seq(i, &[".", "expect", "("]) && ctx.kind(i + 3) == TokKind::Str {
            let msg = str_inner(ctx.text(i + 3));
            if msg.len() < MIN_EXPECT_LEN {
                push(
                    "expect-message",
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

/// The dataplane's per-message functions, as `(impl type, name)`: one
/// message of a network pass, one RDMA READ or one one-sided probe group
/// runs each of them, so an allocation in one is paid per message.
const PER_MESSAGE_FNS: [(&str, &str); 29] = [
    ("Nic", "post"),
    ("Nic", "repost_and_recv"),
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
    ("BufferPool", "claim"),
    ("BufferPool", "refill"),
    ("Fabric", "egress_step"),
    ("Fabric", "ingress_step"),
    ("Fabric", "place_two_sided"),
    ("Fabric", "place_one_sided"),
    ("Landing", "route"),
    ("Meter", "charge_run"),
    ("Landing", "receive"),
    ("Nic", "post_read_inner"),
    ("Mr", "dma_read"),
    ("Validator", "check_post"),
    ("Mr", "check_post"),
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
