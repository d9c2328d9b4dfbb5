//! The rule engine: per-file token context, structural analysis, the
//! cross-file symbol table, and waiver resolution.
//!
//! Linting is a two-pass workspace operation:
//!
//! 1. **Collect** — every file is lexed once into a [`FileCtx`]; the
//!    engine gathers the workspace-wide [`Global`] context: the canonical
//!    phase-constant order parsed from `crates/cluster/src/phase.rs` (for
//!    `barrier-protocol`).
//! 2. **Check** — each rule runs over each file's code-token stream with
//!    the global context in scope, emitting [`crate::Finding`]s.
//!
//! Waivers (`// lint: allow-<rule>(reason)`) are resolved here, against
//! *comment tokens only* — a marker inside a string literal no longer
//! counts, and a marker can never be shadowed by literal content.

use crate::lexer::{lex, Tok, TokKind};
use crate::Finding;

/// Canonical phase-constant file; its declaration order defines the
/// cluster-wide barrier protocol.
pub(crate) const PHASE_FILE: &str = "crates/cluster/src/phase.rs";

/// Fallback canonical phase order, used only when the linted file set
/// does not include [`PHASE_FILE`] (e.g. single-file invocations in
/// tests). Kept in sync by the workspace self-test.
pub(crate) const DEFAULT_PHASE_ORDER: &[&str] = &[
    "HISTOGRAM",
    "NETWORK_PARTITION",
    "LOCAL_PARTITION",
    "BUILD_PROBE",
    "ONE_SIDED_PROBE",
    "ADMISSION",
];

/// One file, lexed and structurally analyzed.
pub(crate) struct FileCtx<'a> {
    /// Workspace-relative path (forward slashes).
    pub rel: &'a str,
    /// Code tokens (comments stripped).
    pub code: Vec<Tok<'a>>,
    /// Comment tokens, for waiver markers.
    pub comments: Vec<Tok<'a>>,
    /// Conditional-block depth (enclosing `if`/`else`/`match`/`while`/
    /// `loop`/`for` braces) before each code token.
    pub cond: Vec<u32>,
    /// Code-token index of the first `#[cfg(test)]` attribute; everything
    /// from there on is test code (the workspace convention puts
    /// `mod tests` last in each file). `usize::MAX` when absent.
    pub test_from: usize,
}

impl<'a> FileCtx<'a> {
    pub(crate) fn new(rel: &'a str, content: &'a str) -> FileCtx<'a> {
        let toks = lex(content);
        let mut code = Vec::with_capacity(toks.len());
        let mut comments = Vec::new();
        for t in toks {
            if t.is_comment() {
                comments.push(t);
            } else {
                code.push(t);
            }
        }
        let mut cond = Vec::with_capacity(code.len());
        let mut stack: Vec<bool> = Vec::new();
        let mut conds: u32 = 0;
        let mut pending = false;
        let mut test_from = usize::MAX;
        for (i, t) in code.iter().enumerate() {
            cond.push(conds);
            match (t.kind, t.text) {
                (TokKind::Ident, "if" | "else" | "match" | "while" | "loop" | "for") => {
                    pending = true;
                }
                (TokKind::Punct, "{") => {
                    stack.push(pending);
                    if pending {
                        conds += 1;
                    }
                    pending = false;
                }
                (TokKind::Punct, "}") => {
                    let closed_conditional = stack.pop().unwrap_or(false);
                    if closed_conditional {
                        conds = conds.saturating_sub(1);
                    }
                }
                (TokKind::Punct, ";") => pending = false,
                _ => {}
            }
            if test_from == usize::MAX
                && t.text == "#"
                && matches_seq(&code, i, &["#", "[", "cfg", "(", "test", ")", "]"])
            {
                test_from = i;
            }
        }
        FileCtx {
            rel,
            code,
            comments,
            cond,
            test_from,
        }
    }

    /// Text of code token `i`, or `""` out of range.
    pub(crate) fn text(&self, i: usize) -> &str {
        self.code.get(i).map_or("", |t| t.text)
    }

    /// Kind of code token `i` (`Punct` out of range).
    pub(crate) fn kind(&self, i: usize) -> TokKind {
        self.code.get(i).map_or(TokKind::Punct, |t| t.kind)
    }

    /// 1-based source line of code token `i`.
    pub(crate) fn line(&self, i: usize) -> usize {
        self.code.get(i).map_or(0, |t| t.line)
    }

    /// Do the code tokens starting at `i` match `pat` textually?
    pub(crate) fn seq(&self, i: usize, pat: &[&str]) -> bool {
        matches_seq(&self.code, i, pat)
    }

    /// Is code token `i` inside test code (a `#[cfg(test)]` region or a
    /// tests/benches/examples file)?
    pub(crate) fn in_test(&self, i: usize) -> bool {
        i >= self.test_from
            || self.rel.contains("/tests/")
            || self.rel.contains("/benches/")
            || self.rel.contains("/examples/")
    }

    /// Index of the token matching the opener at `i` (`(`→`)`, `[`→`]`,
    /// `{`→`}`), or `None` if unbalanced.
    pub(crate) fn matching_close(&self, i: usize) -> Option<usize> {
        let (open, close) = match self.text(i) {
            "(" => ("(", ")"),
            "[" => ("[", "]"),
            "{" => ("{", "}"),
            _ => return None,
        };
        let mut bal = 0i32;
        for j in i..self.code.len() {
            match self.text(j) {
                t if t == open => bal += 1,
                t if t == close => {
                    bal -= 1;
                    if bal == 0 {
                        return Some(j);
                    }
                }
                _ => {}
            }
        }
        None
    }

    /// The `impl` blocks of this file: the implementing type's name (the
    /// last path segment outside generics, after `for` in a trait impl)
    /// and the body's brace indices. An `impl` counts only in item
    /// position, so `impl Trait` argument and return types do not.
    fn impl_blocks(&self) -> Vec<(String, usize, usize)> {
        let mut blocks = Vec::new();
        for i in 0..self.code.len() {
            let item = i == 0 || matches!(self.text(i - 1), "}" | ";" | "{" | "]" | "unsafe");
            if !(item && self.kind(i) == TokKind::Ident && self.text(i) == "impl") {
                continue;
            }
            let (mut depth, mut owner, mut frozen) = (0i32, None, false);
            for j in i + 1..self.code.len() {
                match self.text(j) {
                    "<" => depth += 1,
                    ">" if self.text(j - 1) != "-" => depth -= 1,
                    "{" if depth == 0 => {
                        if let (Some(owner), Some(end)) = (owner.take(), self.matching_close(j)) {
                            blocks.push((owner, j, end));
                        }
                        break;
                    }
                    ";" => break,
                    "where" if depth == 0 => frozen = true,
                    "for" if depth == 0 && !frozen => owner = None,
                    t if depth == 0 && !frozen && self.kind(j) == TokKind::Ident => {
                        owner = Some(t.to_string());
                    }
                    _ => {}
                }
            }
        }
        blocks
    }

    /// All function definitions in this file.
    pub(crate) fn functions(&self) -> Vec<FnSpan> {
        let impls = self.impl_blocks();
        let mut fns = Vec::new();
        let mut i = 0usize;
        while i < self.code.len() {
            if self.kind(i) == TokKind::Ident && self.text(i) == "fn" {
                if self.kind(i + 1) != TokKind::Ident {
                    i += 1;
                    continue; // `fn(usize) -> u64` pointer type
                }
                let name = self.text(i + 1).to_string();
                // Scan past the signature (parens balanced) to the body
                // `{` or a bodyless `;`.
                let mut j = i + 2;
                let mut body = None;
                while j < self.code.len() {
                    match self.text(j) {
                        "(" | "[" => j = self.matching_close(j).map_or(self.code.len(), |c| c),
                        "{" => {
                            let end = self.matching_close(j).unwrap_or(self.code.len() - 1);
                            body = Some((j, end));
                            break;
                        }
                        ";" => break,
                        _ => {}
                    }
                    j += 1;
                }
                // The innermost enclosing impl block names the owner.
                let owner = impls
                    .iter()
                    .filter(|&&(_, open, close)| open < i && i < close)
                    .max_by_key(|&&(_, open, _)| open)
                    .map(|(owner, _, _)| owner.clone());
                fns.push(FnSpan {
                    name,
                    owner,
                    name_idx: i + 1,
                    body,
                });
                i = j + 1;
                continue;
            }
            i += 1;
        }
        fns
    }
}

/// A function definition: its name and body token range.
pub(crate) struct FnSpan {
    /// Declared name.
    pub name: String,
    /// The type of the enclosing `impl` block, if any.
    pub owner: Option<String>,
    /// Code-token index of the name.
    pub name_idx: usize,
    /// `(open_brace, close_brace)` code-token indices, `None` for
    /// bodyless trait signatures.
    pub body: Option<(usize, usize)>,
}

fn matches_seq(code: &[Tok<'_>], i: usize, pat: &[&str]) -> bool {
    if i + pat.len() > code.len() {
        return false;
    }
    pat.iter().enumerate().all(|(k, p)| code[i + k].text == *p)
}

/// Workspace-wide context shared by all per-file rule passes.
pub(crate) struct Global {
    /// Canonical phase order: constant names from [`PHASE_FILE`] in
    /// declaration order.
    pub phase_order: Vec<String>,
}

impl Global {
    /// Collect the global context from all files.
    pub(crate) fn collect(ctxs: &[FileCtx<'_>]) -> Global {
        let mut phase_order = Vec::new();
        for ctx in ctxs {
            if ctx.rel == PHASE_FILE {
                collect_phase_order(ctx, &mut phase_order);
            }
        }
        if phase_order.is_empty() {
            phase_order = DEFAULT_PHASE_ORDER.iter().map(|s| s.to_string()).collect();
        }
        Global { phase_order }
    }

    /// Canonical index of phase constant `name`, if any.
    pub(crate) fn phase_index(&self, name: &str) -> Option<usize> {
        self.phase_order.iter().position(|p| p == name)
    }
}

/// Parse `pub const NAME: &str = "…";` declarations in order.
fn collect_phase_order(ctx: &FileCtx<'_>, out: &mut Vec<String>) {
    for i in 0..ctx.code.len() {
        if ctx.text(i) == "const" && ctx.kind(i + 1) == TokKind::Ident && ctx.text(i + 2) == ":" {
            out.push(ctx.text(i + 1).to_string());
        }
    }
}

/// Resolve waivers: a finding is waived when a comment token starting on
/// its line or the line directly above carries
/// `lint: allow-<rule>(<non-empty reason>)`.
pub(crate) fn apply_waivers(ctx: &FileCtx<'_>, findings: &mut [Finding]) {
    for f in findings.iter_mut() {
        if f.file != ctx.rel {
            continue;
        }
        let needle = format!("lint: allow-{}(", f.rule);
        for c in &ctx.comments {
            if c.line != f.line && c.line + 1 != f.line {
                continue;
            }
            if let Some(pos) = c.text.find(&needle) {
                let rest = &c.text[pos + needle.len()..];
                if let Some(close) = rest.find(')') {
                    let reason = rest[..close].trim();
                    if !reason.is_empty() {
                        f.waived = true;
                        f.reason = Some(reason.to_string());
                        break;
                    }
                }
            }
        }
    }
}
