//! # `ipdb-analyze` — workspace static analysis for the engine's safety envelope
//!
//! The engine's correctness claims (exact c-table semantics, bit-identical
//! parallel execution, readers-never-torn snapshots) rest on invariants the
//! compiler cannot check: the lifetime-erasing transmute in the morsel pool,
//! the atomic orderings scattered across the concurrency-bearing modules, and
//! the no-panic discipline on serving hot paths. This crate is those
//! invariants as *enforced tooling* — a std-only lint driver (no `syn`, no
//! crates.io: a small hand-rolled lexer that is string-, char-literal-, and
//! comment-aware) that walks every workspace `.rs` file and reports
//! violations of four named project lints:
//!
//! * [`Lint::UnsafeNeedsSafety`] (`unsafe-needs-safety`) — every `unsafe`
//!   token (block, fn, impl, trait) must carry an adjacent `// SAFETY:`
//!   comment (same line, or within the three lines above).
//! * [`Lint::RelaxedNeedsJustification`] (`relaxed-needs-justification`) —
//!   every atomic `Ordering::{Relaxed, Acquire, Release, AcqRel, SeqCst}`
//!   site in non-`#[cfg(test)]` code outside the documented `ipdb-obs`
//!   counter module must carry an adjacent `// ORDERING:` comment
//!   explaining why that ordering suffices (test scaffolding carries no
//!   cross-thread correctness claims and is exempt).
//! * [`Lint::NoPanicOnServePaths`] (`no-panic-on-serve-paths`) — no
//!   `.unwrap()`, `.expect(..)`, `panic!`, `todo!`, or `unreachable!` in
//!   non-`#[cfg(test)]` code of the serving hot-path modules (`serve.rs`,
//!   `cache.rs`, `backend.rs`, `pipeline.rs`, `morsel.rs`, and
//!   `algebra.rs`, whose `q̄` evaluator the c-table backends run).
//! * [`Lint::ForbidUnsafeDrift`] (`forbid-unsafe-drift`) — a package with no
//!   `unsafe` at all must pin that state with `#![forbid(unsafe_code)]` in
//!   its crate root, and `unsafe` is only permitted inside the audited
//!   whitelist module (`crates/engine/src/erase.rs`).
//!
//! ## Suppressions
//!
//! Every finding is individually suppressible at the site:
//!
//! ```text
//! // ipdb-lint: allow(no-panic-on-serve-paths) reason="boot-time spawn failure is unrecoverable"
//! ```
//!
//! A suppression comment ending on line *N* silences **one** finding of the
//! named lint: the one on line *N* (trailing comment) or, failing that, the
//! one on line *N + 1* (comment above the site). A suppression with a
//! missing/unknown lint name or an empty `reason` is itself reported
//! ([`Lint::BadSuppression`]) — the reason string is the audit trail.
//!
//! ## Lexing guarantees
//!
//! Lint tokens are only recognized in *code*: string literals (including
//! raw strings `r#"…"#` and byte strings), char literals (`'a'` vs the
//! lifetime `'a` is disambiguated by lookahead), and comments (line, block,
//! nested block) never produce findings. The fixture suite under
//! `tests/fixtures/` pins exact firing lines and the tricky lexing cases.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------------
// Lints and findings.
// ---------------------------------------------------------------------

/// The named project invariants this driver enforces. Each lint's wire
/// name (used in suppression comments and report lines) is its
/// [`Lint::name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lint {
    /// `unsafe` without an adjacent `// SAFETY:` comment.
    UnsafeNeedsSafety,
    /// An atomic `Ordering::*` site without an adjacent `// ORDERING:`
    /// comment (outside the whitelisted `ipdb-obs` counter module).
    RelaxedNeedsJustification,
    /// A panicking API (`unwrap`/`expect`/`panic!`/`todo!`/
    /// `unreachable!`) in non-test code of a serving hot-path module.
    NoPanicOnServePaths,
    /// A package with zero `unsafe` whose crate root lacks
    /// `#![forbid(unsafe_code)]`, or `unsafe` outside the audited
    /// whitelist module.
    ForbidUnsafeDrift,
    /// A malformed `ipdb-lint:` suppression comment (unknown lint name
    /// or missing `reason="…"`). Not itself suppressible.
    BadSuppression,
}

/// Every suppressible lint, in report order.
pub const LINTS: [Lint; 4] = [
    Lint::UnsafeNeedsSafety,
    Lint::RelaxedNeedsJustification,
    Lint::NoPanicOnServePaths,
    Lint::ForbidUnsafeDrift,
];

impl Lint {
    /// The kebab-case wire name (suppression comments use this).
    pub fn name(self) -> &'static str {
        match self {
            Lint::UnsafeNeedsSafety => "unsafe-needs-safety",
            Lint::RelaxedNeedsJustification => "relaxed-needs-justification",
            Lint::NoPanicOnServePaths => "no-panic-on-serve-paths",
            Lint::ForbidUnsafeDrift => "forbid-unsafe-drift",
            Lint::BadSuppression => "bad-suppression",
        }
    }

    /// The lint with the given wire name, if any (the suppressible ones
    /// only — `bad-suppression` cannot be allowed away).
    pub fn from_name(name: &str) -> Option<Lint> {
        LINTS.into_iter().find(|l| l.name() == name)
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One reported violation: file, 1-based line, lint, human message.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// The file the finding is in.
    pub file: PathBuf,
    /// 1-based line the finding anchors to.
    pub line: usize,
    /// Which invariant was violated.
    pub lint: Lint,
    /// What exactly is wrong at that site.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file.display(),
            self.line,
            self.lint,
            self.message
        )
    }
}

// ---------------------------------------------------------------------
// Configuration.
// ---------------------------------------------------------------------

/// What the driver enforces where. [`Config::default`] is the workspace
/// policy; tests override pieces to point lints at fixture files.
#[derive(Debug, Clone)]
pub struct Config {
    /// File *names* whose non-test code must not panic.
    pub serve_path_files: Vec<String>,
    /// Path suffixes (workspace-relative) exempt from
    /// `relaxed-needs-justification` — the documented counter module.
    pub ordering_whitelist: Vec<PathBuf>,
    /// Path suffixes where `unsafe` is permitted (still needing
    /// `// SAFETY:` comments) — the audited erase module.
    pub unsafe_whitelist: Vec<PathBuf>,
    /// Directory names never descended into during a workspace walk.
    pub skip_dirs: Vec<String>,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            serve_path_files: [
                "serve.rs",
                "cache.rs",
                "backend.rs",
                "pipeline.rs",
                "morsel.rs",
                "algebra.rs",
            ]
            .map(str::to_string)
            .to_vec(),
            ordering_whitelist: vec![PathBuf::from("crates/obs/src/lib.rs")],
            unsafe_whitelist: vec![PathBuf::from("crates/engine/src/erase.rs")],
            skip_dirs: ["target", ".git", "fixtures", "vendor-archives"]
                .map(str::to_string)
                .to_vec(),
        }
    }
}

fn suffix_matches(path: &Path, suffixes: &[PathBuf]) -> bool {
    suffixes.iter().any(|s| path.ends_with(s))
}

// ---------------------------------------------------------------------
// The lexer: code tokens + comments, strings/chars/comments skipped.
// ---------------------------------------------------------------------

/// One code token: an identifier-like word or a single punctuation
/// character, with the 1-based line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Tok {
    kind: TokKind,
    line: usize,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum TokKind {
    /// A run of `[A-Za-z0-9_]` characters.
    Word(String),
    /// Any other non-whitespace character.
    Punct(char),
}

/// One comment (line or block, doc or not) with its text and the line
/// it *ends* on — adjacency rules anchor on the end line.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Comment {
    text: String,
    end_line: usize,
}

#[derive(Debug, Default)]
struct Lexed {
    toks: Vec<Tok>,
    comments: Vec<Comment>,
}

fn is_word_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Skips an escaped string body starting *after* the opening `"`;
/// returns the index just past the closing quote.
fn skip_escaped_string(chars: &[char], mut i: usize, line: &mut usize) -> usize {
    while i < chars.len() {
        match chars[i] {
            '\\' => i += 2,
            '"' => return i + 1,
            '\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Skips a raw string starting at the first `#` or `"` after the `r`
/// (or `br`) prefix; returns the index just past the closing delimiter.
fn skip_raw_string(chars: &[char], mut i: usize, line: &mut usize) -> usize {
    let mut hashes = 0usize;
    while chars.get(i) == Some(&'#') {
        hashes += 1;
        i += 1;
    }
    debug_assert_eq!(chars.get(i), Some(&'"'));
    i += 1;
    while i < chars.len() {
        if chars[i] == '\n' {
            *line += 1;
            i += 1;
        } else if chars[i] == '"'
            && chars[i + 1..]
                .iter()
                .take(hashes)
                .filter(|&&c| c == '#')
                .count()
                == hashes
        {
            return i + 1 + hashes;
        } else {
            i += 1;
        }
    }
    i
}

/// Tokenizes Rust-enough source: words, punctuation, comments; string
/// and char literals are skipped without producing tokens, and `'a`
/// lifetimes are distinguished from `'a'` char literals by lookahead.
fn lex(src: &str) -> Lexed {
    let chars: Vec<char> = src.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1usize;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
        } else if c == '/' && chars.get(i + 1) == Some(&'/') {
            let start = i;
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
            out.comments.push(Comment {
                text: chars[start..i].iter().collect(),
                end_line: line,
            });
        } else if c == '/' && chars.get(i + 1) == Some(&'*') {
            let start = i;
            let mut depth = 1usize;
            i += 2;
            while i < chars.len() && depth > 0 {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    if chars[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
            out.comments.push(Comment {
                text: chars[start..i.min(chars.len())].iter().collect(),
                end_line: line,
            });
        } else if c == '"' {
            i = skip_escaped_string(&chars, i + 1, &mut line);
        } else if c == '\'' {
            match chars.get(i + 1) {
                // Escaped char literal: '\n', '\'', '\u{…}'.
                Some('\\') => {
                    i += 2;
                    while i < chars.len() && chars[i] != '\'' {
                        i += 1;
                    }
                    i += 1;
                }
                // 'a' (closing quote follows the word) vs 'a / 'static
                // (no closing quote: a lifetime — skip the quote only,
                // the identifier tokenizes harmlessly).
                Some(&ch) if is_word_char(ch) => {
                    let mut j = i + 2;
                    while j < chars.len() && is_word_char(chars[j]) {
                        j += 1;
                    }
                    if chars.get(j) == Some(&'\'') {
                        i = j + 1;
                    } else {
                        i += 1;
                    }
                }
                // Single-punctuation char literal: '(', ' ', '%'.
                Some(_) if chars.get(i + 2) == Some(&'\'') => i += 3,
                _ => i += 1,
            }
        } else if is_word_char(c) {
            let start = i;
            while i < chars.len() && is_word_char(chars[i]) {
                i += 1;
            }
            let word: String = chars[start..i].iter().collect();
            let next = chars.get(i);
            // Raw / byte string prefixes swallow the literal whole.
            let raw_start =
                matches!(word.as_str(), "r" | "br") && matches!(next, Some('"') | Some('#'));
            if raw_start {
                i = skip_raw_string(&chars, i, &mut line);
            } else if word == "b" && next == Some(&'"') {
                i = skip_escaped_string(&chars, i + 1, &mut line);
            } else {
                out.toks.push(Tok {
                    kind: TokKind::Word(word),
                    line,
                });
            }
        } else {
            if !c.is_whitespace() {
                out.toks.push(Tok {
                    kind: TokKind::Punct(c),
                    line,
                });
            }
            i += 1;
        }
    }
    out
}

// ---------------------------------------------------------------------
// Token-stream pattern helpers.
// ---------------------------------------------------------------------

fn word_at(toks: &[Tok], i: usize) -> Option<&str> {
    match toks.get(i).map(|t| &t.kind) {
        Some(TokKind::Word(w)) => Some(w.as_str()),
        _ => None,
    }
}

fn punct_at(toks: &[Tok], i: usize) -> Option<char> {
    match toks.get(i).map(|t| &t.kind) {
        Some(TokKind::Punct(c)) => Some(*c),
        _ => None,
    }
}

/// `#[cfg(test)]`-guarded token ranges (inclusive start, inclusive
/// end): from the attribute through the guarded item's closing brace
/// (or its `;` for brace-less items).
fn cfg_test_ranges(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i + 6 < toks.len() {
        let is_attr = punct_at(toks, i) == Some('#')
            && punct_at(toks, i + 1) == Some('[')
            && word_at(toks, i + 2) == Some("cfg")
            && punct_at(toks, i + 3) == Some('(')
            && word_at(toks, i + 4) == Some("test")
            && punct_at(toks, i + 5) == Some(')')
            && punct_at(toks, i + 6) == Some(']');
        if !is_attr {
            i += 1;
            continue;
        }
        let start = i;
        let mut j = i + 7;
        // Scan to the guarded item's extent: the matching `}` of its
        // first top-level brace, or a top-level `;` (brace-less item).
        let mut parens = 0isize;
        let mut brackets = 0isize;
        let mut braces = 0isize;
        let mut entered_braces = false;
        let mut end = toks.len().saturating_sub(1);
        while j < toks.len() {
            match punct_at(toks, j) {
                Some('(') => parens += 1,
                Some(')') => parens -= 1,
                Some('[') => brackets += 1,
                Some(']') => brackets -= 1,
                Some('{') => {
                    braces += 1;
                    entered_braces = true;
                }
                Some('}') => {
                    braces -= 1;
                    if entered_braces && braces == 0 {
                        end = j;
                        break;
                    }
                }
                Some(';') if !entered_braces && parens == 0 && brackets == 0 && braces == 0 => {
                    end = j;
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        ranges.push((start, end));
        i = end + 1;
    }
    ranges
}

fn in_ranges(ranges: &[(usize, usize)], i: usize) -> bool {
    ranges.iter().any(|&(lo, hi)| lo <= i && i <= hi)
}

/// Whether the token stream contains `#![forbid(unsafe_code)]` (or the
/// attribute with `unsafe_code` among several forbidden lints).
fn has_forbid_unsafe(toks: &[Tok]) -> bool {
    for i in 0..toks.len() {
        let is_head = punct_at(toks, i) == Some('#')
            && punct_at(toks, i + 1) == Some('!')
            && punct_at(toks, i + 2) == Some('[')
            && word_at(toks, i + 3) == Some("forbid")
            && punct_at(toks, i + 4) == Some('(');
        if is_head {
            let mut j = i + 5;
            while j < toks.len() && punct_at(toks, j) != Some(')') {
                if word_at(toks, j) == Some("unsafe_code") {
                    return true;
                }
                j += 1;
            }
        }
    }
    false
}

// ---------------------------------------------------------------------
// Suppressions.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Suppression {
    lint: Lint,
    /// The line the suppression comment ends on.
    line: usize,
}

/// Parses `ipdb-lint: allow(<name>) reason="…"` comments; malformed
/// ones become [`Lint::BadSuppression`] findings.
fn parse_suppressions(
    file: &Path,
    comments: &[Comment],
    findings: &mut Vec<Finding>,
) -> Vec<Suppression> {
    let mut out = Vec::new();
    for c in comments {
        // Doc comments *describe* the grammar; only plain comments
        // direct the driver.
        let is_doc = c.text.starts_with("///")
            || c.text.starts_with("//!")
            || c.text.starts_with("/**")
            || c.text.starts_with("/*!");
        if is_doc {
            continue;
        }
        let Some(at) = c.text.find("ipdb-lint:") else {
            continue;
        };
        let rest = c.text[at + "ipdb-lint:".len()..].trim_start();
        let bad = |msg: &str, findings: &mut Vec<Finding>| {
            findings.push(Finding {
                file: file.to_path_buf(),
                line: c.end_line,
                lint: Lint::BadSuppression,
                message: msg.to_string(),
            });
        };
        let Some(inner) = rest.strip_prefix("allow(").and_then(|r| r.split_once(')')) else {
            bad("expected `allow(<lint>)` after `ipdb-lint:`", findings);
            continue;
        };
        let (name, tail) = inner;
        let Some(lint) = Lint::from_name(name.trim()) else {
            bad(
                &format!("unknown lint {:?} in suppression", name.trim()),
                findings,
            );
            continue;
        };
        let reason = tail
            .trim_start()
            .strip_prefix("reason=\"")
            .and_then(|r| r.split_once('"'))
            .map(|(reason, _)| reason.trim());
        match reason {
            Some(r) if !r.is_empty() => out.push(Suppression {
                lint,
                line: c.end_line,
            }),
            _ => bad(
                "suppression needs a non-empty reason=\"…\" (the audit trail)",
                findings,
            ),
        }
    }
    out
}

/// Applies suppressions: each silences exactly one finding of its lint,
/// preferring the finding on its own line, else the line below.
fn apply_suppressions(findings: &mut Vec<Finding>, suppressions: &[Suppression]) {
    for s in suppressions {
        for target in [s.line, s.line + 1] {
            if let Some(k) = findings
                .iter()
                .position(|f| f.lint == s.lint && f.line == target)
            {
                findings.remove(k);
                break;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Per-file analysis.
// ---------------------------------------------------------------------

/// What one file contributes to the workspace-level checks, alongside
/// its own findings.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Findings from the per-file lints, post-suppression.
    pub findings: Vec<Finding>,
    /// Lines of `unsafe` tokens (workspace drift check input).
    pub unsafe_lines: Vec<usize>,
    /// Whether the file declares `#![forbid(unsafe_code)]`.
    pub has_forbid_unsafe: bool,
    /// Suppressions that did not match a per-file finding (still live
    /// for workspace-level findings anchored in this file).
    suppressions: Vec<Suppression>,
}

/// Comment-adjacency: a marker comment counts for a site on line `l`
/// if it (or the contiguous run of comment lines continuing it — a
/// multi-line `// SAFETY: …` block carries its marker on the first
/// line) ends on `l` itself or within the three lines above.
const ADJACENT_LINES: usize = 3;

fn has_adjacent_marker(comments: &[Comment], marker: &str, line: usize) -> bool {
    let comment_lines: std::collections::BTreeSet<usize> =
        comments.iter().map(|c| c.end_line).collect();
    comments.iter().any(|c| {
        if c.end_line > line || !c.text.contains(marker) {
            return false;
        }
        // Extend through the block's continuation lines, so the window
        // is measured from where the comment *block* ends.
        let mut end = c.end_line;
        while end < line && comment_lines.contains(&(end + 1)) {
            end += 1;
        }
        line - end <= ADJACENT_LINES
    })
}

const ATOMIC_ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Analyzes one file's source. `path` is the workspace-relative path
/// (whitelists and the serve-path file-name check key off it);
/// findings come back post-suppression, sorted by line.
pub fn analyze_source(path: &Path, src: &str, cfg: &Config) -> FileReport {
    let Lexed { toks, comments } = lex(src);
    let mut findings: Vec<Finding> = Vec::new();
    let suppressions = parse_suppressions(path, &comments, &mut findings);
    let test_ranges = cfg_test_ranges(&toks);
    let mut report = FileReport {
        has_forbid_unsafe: has_forbid_unsafe(&toks),
        ..FileReport::default()
    };

    let file_name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    let is_serve_path = cfg.serve_path_files.contains(&file_name);
    let ordering_exempt = suffix_matches(path, &cfg.ordering_whitelist);

    // One finding per (lint, line): several sites on one line share one
    // justification comment and one suppression.
    let mut seen: BTreeMap<(Lint, usize), ()> = BTreeMap::new();
    let mut push = |findings: &mut Vec<Finding>, lint: Lint, line: usize, msg: String| {
        if seen.insert((lint, line), ()).is_none() {
            findings.push(Finding {
                file: path.to_path_buf(),
                line,
                lint,
                message: msg,
            });
        }
    };

    for i in 0..toks.len() {
        let line = toks[i].line;
        match &toks[i].kind {
            TokKind::Word(w) if w == "unsafe" => {
                report.unsafe_lines.push(line);
                if !has_adjacent_marker(&comments, "SAFETY:", line) {
                    push(
                        &mut findings,
                        Lint::UnsafeNeedsSafety,
                        line,
                        "`unsafe` without an adjacent `// SAFETY:` comment".to_string(),
                    );
                }
            }
            TokKind::Word(w)
                if w == "Ordering" && !ordering_exempt && !in_ranges(&test_ranges, i) =>
            {
                let is_atomic = punct_at(&toks, i + 1) == Some(':')
                    && punct_at(&toks, i + 2) == Some(':')
                    && word_at(&toks, i + 3).is_some_and(|o| ATOMIC_ORDERINGS.contains(&o));
                if is_atomic && !has_adjacent_marker(&comments, "ORDERING:", line) {
                    let o = word_at(&toks, i + 3).unwrap_or_default();
                    push(
                        &mut findings,
                        Lint::RelaxedNeedsJustification,
                        line,
                        format!(
                            "atomic `Ordering::{o}` without an adjacent `// ORDERING:` \
                             justification"
                        ),
                    );
                }
            }
            TokKind::Word(w)
                if is_serve_path
                    && matches!(w.as_str(), "panic" | "todo" | "unreachable")
                    && punct_at(&toks, i + 1) == Some('!')
                    && !in_ranges(&test_ranges, i) =>
            {
                push(
                    &mut findings,
                    Lint::NoPanicOnServePaths,
                    line,
                    format!("`{w}!` on a serving hot path (non-test code)"),
                );
            }
            TokKind::Word(w)
                if is_serve_path
                    && matches!(w.as_str(), "unwrap" | "expect")
                    && punct_at(&toks, i.wrapping_sub(1)) == Some('.')
                    && i > 0
                    && punct_at(&toks, i + 1) == Some('(')
                    && !in_ranges(&test_ranges, i) =>
            {
                push(
                    &mut findings,
                    Lint::NoPanicOnServePaths,
                    line,
                    format!("`.{w}(..)` on a serving hot path (non-test code)"),
                );
            }
            _ => {}
        }
    }

    findings.sort();
    apply_suppressions(&mut findings, &suppressions);
    // Suppressions may also target workspace-level findings anchored in
    // this file (e.g. forbid-unsafe-drift at the crate root); keep the
    // unmatched ones around for `analyze_workspace`.
    report.suppressions = suppressions;
    report.findings = findings;
    report
}

// ---------------------------------------------------------------------
// Workspace walk and the drift check.
// ---------------------------------------------------------------------

fn walk(
    dir: &Path,
    cfg: &Config,
    rs_files: &mut Vec<PathBuf>,
    manifests: &mut Vec<PathBuf>,
) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            if !cfg.skip_dirs.contains(&name) {
                walk(&path, cfg, rs_files, manifests)?;
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            rs_files.push(path);
        } else if path.file_name().is_some_and(|n| n == "Cargo.toml") {
            manifests.push(path);
        }
    }
    Ok(())
}

/// The package directory owning `file`: the longest manifest directory
/// that is a prefix of the file's path.
fn package_of<'a>(file: &Path, package_dirs: &'a [PathBuf]) -> Option<&'a Path> {
    package_dirs
        .iter()
        .filter(|d| file.starts_with(d))
        .max_by_key(|d| d.components().count())
        .map(PathBuf::as_path)
}

/// Analyzes every `.rs` file under `root` (skipping [`Config::skip_dirs`])
/// and runs the workspace-level `forbid-unsafe-drift` check across the
/// packages found. Paths in findings are workspace-relative.
pub fn analyze_workspace(root: &Path, cfg: &Config) -> std::io::Result<Vec<Finding>> {
    let mut rs_files = Vec::new();
    let mut manifests = Vec::new();
    walk(root, cfg, &mut rs_files, &mut manifests)?;
    let package_dirs: Vec<PathBuf> = manifests
        .iter()
        .filter_map(|m| m.parent().map(Path::to_path_buf))
        .collect();

    let mut findings = Vec::new();
    // Per package: (any unsafe anywhere, crate-root report if seen).
    struct PkgState {
        unsafe_sites: Vec<(PathBuf, usize)>,
        root_file: Option<(PathBuf, bool, Vec<Suppression>)>,
    }
    let mut packages: BTreeMap<PathBuf, PkgState> = BTreeMap::new();

    for file in &rs_files {
        let rel = file.strip_prefix(root).unwrap_or(file).to_path_buf();
        let src = std::fs::read_to_string(file)?;
        let report = analyze_source(&rel, &src, cfg);
        findings.extend(report.findings);
        let Some(pkg) = package_of(file, &package_dirs) else {
            continue;
        };
        let pkg_rel = pkg.strip_prefix(root).unwrap_or(pkg).to_path_buf();
        let state = packages.entry(pkg_rel).or_insert_with(|| PkgState {
            unsafe_sites: Vec::new(),
            root_file: None,
        });
        for line in &report.unsafe_lines {
            state.unsafe_sites.push((rel.clone(), *line));
        }
        let is_root = file == &pkg.join("src/lib.rs")
            || (file == &pkg.join("src/main.rs") && !pkg.join("src/lib.rs").exists());
        if is_root {
            state.root_file = Some((rel.clone(), report.has_forbid_unsafe, report.suppressions));
        }
    }

    for (pkg, state) in &packages {
        let Some((root_file, has_forbid, suppressions)) = &state.root_file else {
            continue;
        };
        let mut drift = Vec::new();
        if state.unsafe_sites.is_empty() && !has_forbid {
            drift.push(Finding {
                file: root_file.clone(),
                line: 1,
                lint: Lint::ForbidUnsafeDrift,
                message: format!(
                    "package `{}` uses no unsafe but its crate root lacks \
                     `#![forbid(unsafe_code)]`",
                    pkg.display()
                ),
            });
        }
        for (file, line) in &state.unsafe_sites {
            if !suffix_matches(file, &cfg.unsafe_whitelist) {
                drift.push(Finding {
                    file: file.clone(),
                    line: *line,
                    lint: Lint::ForbidUnsafeDrift,
                    message: "`unsafe` outside the audited whitelist module".to_string(),
                });
            }
        }
        apply_suppressions(&mut drift, suppressions);
        findings.extend(drift);
    }

    findings.sort();
    findings.dedup();
    Ok(findings)
}

/// Analyzes one file (or every `.rs` file under one directory) without
/// the workspace-level drift check — what the CLI does for explicit
/// path arguments, and what the fixture tests drive.
pub fn analyze_path(path: &Path, cfg: &Config) -> std::io::Result<Vec<Finding>> {
    if path.is_dir() {
        let mut rs_files = Vec::new();
        let mut manifests = Vec::new();
        walk(path, cfg, &mut rs_files, &mut manifests)?;
        let mut findings = Vec::new();
        for f in rs_files {
            let src = std::fs::read_to_string(&f)?;
            findings.extend(analyze_source(&f, &src, cfg).findings);
        }
        findings.sort();
        Ok(findings)
    } else {
        let src = std::fs::read_to_string(path)?;
        Ok(analyze_source(path, &src, cfg).findings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(name: &str, src: &str) -> Vec<Finding> {
        analyze_source(Path::new(name), src, &Config::default()).findings
    }

    #[test]
    fn lexer_skips_strings_chars_and_comments() {
        let src = r##"
            fn f() {
                let a = "unsafe { Ordering::Relaxed } .unwrap()";
                let b = r#"panic! in a raw "string" with # marks"#;
                let c = 'u'; let d: &'static str = "x";
                let e = b"unsafe"; let g = b'u';
                /* unsafe /* nested .unwrap() */ still comment */
                // line comment: unreachable!()
            }
        "##;
        assert_eq!(run("serve.rs", src), Vec::new());
        let lexed = lex(src);
        assert!(lexed
            .comments
            .iter()
            .any(|c| c.text.contains("nested") && c.text.contains("still comment")));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        // `'a` must not swallow `, x: B>` as a char-literal body.
        let src = "fn f<'a, B>(x: &'a B) -> &'static str { unsafe { g(x) } }\n";
        let findings = run("lib.rs", src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].lint, Lint::UnsafeNeedsSafety);
        assert_eq!(findings[0].line, 1);
    }

    #[test]
    fn safety_comment_adjacency() {
        let with = "// SAFETY: the guard blocks until workers finish.\nunsafe { f() }\n";
        assert_eq!(run("lib.rs", with), Vec::new());
        let trailing = "unsafe { f() } // SAFETY: same line counts.\n";
        assert_eq!(run("lib.rs", trailing), Vec::new());
        let far = "// SAFETY: too far away.\n\n\n\n\nunsafe { f() }\n";
        assert_eq!(run("lib.rs", far).len(), 1);
        // A multi-line marker block counts from where the *block* ends,
        // not where the marker line sits.
        let block = "// SAFETY: a long justification that wraps across\n\
                     // several continuation lines before the site —\n\
                     // still one logical comment block.\n\
                     unsafe { f() }\n";
        assert_eq!(run("lib.rs", block), Vec::new());
    }

    #[test]
    fn atomic_orderings_need_justification_but_cmp_ordering_does_not() {
        let atomic = "x.store(true, Ordering::Relaxed);\n";
        let f = run("lib.rs", atomic);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, Lint::RelaxedNeedsJustification);
        let justified = "// ORDERING: monotonic counter, no cross-data dependency.\n\
                         x.store(true, Ordering::Relaxed);\n";
        assert_eq!(run("lib.rs", justified), Vec::new());
        // std::cmp::Ordering is not an atomic ordering.
        let cmp = "let o = Ordering::Equal; let l = Ordering::Less;\n";
        assert_eq!(run("lib.rs", cmp), Vec::new());
        // The obs counter module is whitelisted wholesale, and test
        // scaffolding is exempt.
        assert_eq!(run("crates/obs/src/lib.rs", atomic), Vec::new());
        let in_test = "#[cfg(test)]\nmod tests {\n    fn f(x: &AtomicBool) -> bool \
                       { x.load(Ordering::SeqCst) }\n}\n";
        assert_eq!(run("lib.rs", in_test), Vec::new());
    }

    #[test]
    fn serve_paths_reject_panicking_apis_outside_tests() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n\
                   #[cfg(test)]\nmod tests { fn g(x: Option<u8>) -> u8 { x.unwrap() } }\n";
        let f = run("serve.rs", src);
        assert_eq!(f.len(), 1, "test-mod unwrap must not fire: {f:?}");
        assert_eq!(f[0].line, 1);
        // Same file name elsewhere in the tree still counts; other
        // names don't.
        assert_eq!(run("crates/engine/src/cache.rs", src).len(), 1);
        assert_eq!(run("other.rs", src), Vec::new());
        // unwrap_or / expect_err are different words entirely.
        let ok = "fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }\n";
        assert_eq!(run("serve.rs", ok), Vec::new());
    }

    #[test]
    fn cfg_test_braceless_items_do_not_swallow_the_file() {
        let src = "#[cfg(test)]\nuse std::mem;\nfn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert_eq!(run("serve.rs", src).len(), 1);
    }

    #[test]
    fn suppression_silences_exactly_one_finding() {
        let src = "\
            // ipdb-lint: allow(no-panic-on-serve-paths) reason=\"first site is infallible\"\n\
            fn f(x: Option<u8>) -> u8 { x.unwrap() }\n\
            fn g(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let f = run("serve.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 3, "only the adjacent finding is silenced");
    }

    #[test]
    fn malformed_suppressions_are_findings() {
        let no_reason = "// ipdb-lint: allow(unsafe-needs-safety)\nunsafe { f() }\n";
        let f = run("lib.rs", no_reason);
        assert!(f.iter().any(|x| x.lint == Lint::BadSuppression), "{f:?}");
        assert!(f.iter().any(|x| x.lint == Lint::UnsafeNeedsSafety));
        let bad_name = "// ipdb-lint: allow(not-a-lint) reason=\"x\"\nfn f() {}\n";
        let f = run("lib.rs", bad_name);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, Lint::BadSuppression);
    }

    #[test]
    fn doc_comments_describing_the_grammar_are_not_directives() {
        let src = "/// Suppress with `ipdb-lint: allow(<lint>) reason=\"…\"`.\n\
                   //! Grammar: ipdb-lint: allow(name)\n\
                   fn f() {}\n";
        assert_eq!(run("lib.rs", src), Vec::new());
    }

    #[test]
    fn forbid_attribute_is_recognized() {
        let lexed = lex("#![forbid(unsafe_code)]\n");
        assert!(has_forbid_unsafe(&lexed.toks));
        let lexed = lex("#![forbid(missing_docs, unsafe_code)]\n");
        assert!(has_forbid_unsafe(&lexed.toks));
        let lexed = lex("#![deny(unsafe_code)]\n// #![forbid(unsafe_code)] in a comment\n");
        assert!(!has_forbid_unsafe(&lexed.toks));
    }

    #[test]
    fn lint_names_round_trip() {
        for l in LINTS {
            assert_eq!(Lint::from_name(l.name()), Some(l));
        }
        assert_eq!(Lint::from_name("bad-suppression"), None);
        assert_eq!(
            format!("{}", Lint::UnsafeNeedsSafety),
            "unsafe-needs-safety"
        );
    }
}
