//! Workspace invariant linter — the static half of the concurrency
//! conformance toolchain (the dynamic half is the lock doctor in
//! `shims/parking_lot`).
//!
//! A source-level lint over what clippy cannot see: the obs-name
//! registry, collectives issued under a rank-conditional branch, and
//! wall-clock readings in test assertions. It is built on a
//! lightweight tokenizer ([`lexer`]) and one delimiter-balanced token
//! tree ([`ast`]) that every rule reads — no `syn`, no external
//! dependencies. `cargo run --release -p analyzer` walks the workspace
//! and exits non-zero on any violation; ci.sh gates on it. The
//! invariants that are plain patterns — no std lock outside the shim,
//! no std hash container anywhere (iteration order differs per
//! process), no clock read steering the runtime crates, no panic on
//! the collective path, no wildcard arm that could swallow a
//! `CommError`, no ad-hoc thread or hardcoded duration in the runtime
//! crates, a safety argument on every `unsafe` — are clippy lints, set
//! in the root `Cargo.toml`'s `[workspace.lints]` and `clippy.toml`
//! (DESIGN.md §8). The pattern rules here live in [`rules`]:
//!
//! * `obs-names` — string literals fed straight to obs record calls
//!   instead of `obs::names` consts;
//! * `obs-dead-name` — registry consts nothing references;
//! * `allow-needs-reason` — an allow directive without justification.
//!
//! The per-function dataflow rules live in [`flow`] (DESIGN.md §13):
//!
//! * `spmd-rank-divergent-collective` — a collective op dominated by a
//!   rank-conditional branch (the runtime halves are the group's
//!   per-op `OpTag` agreement and the traced-step pin in
//!   `crates/models/tests/collective_schedule.rs`);
//! * `test-wallclock-assert` — a test assertion whose condition depends
//!   on an `Instant`/`SystemTime`/`elapsed()` reading (timing belongs in
//!   benches with budgets, not in `cargo test`).
//!
//! # Allow policy
//!
//! `// lint: allow(<rule id>) — <reason>` on the line of (or the
//! comment block immediately above) a flagged expression suppresses
//! that rule there. The reason is mandatory. A clippy lint is excepted
//! with `#[expect(<lint>, reason = "…")]` instead.

use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

pub mod ast;
pub mod flow;
pub mod lexer;
pub mod rules;

use lexer::tokenize;
use rules::{
    check_dead_names, ident_set, registry_consts, rules_for, TestRegions, RULE_ALLOW_REASON,
    RULE_OBS_DEAD_NAME,
};

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule id (`obs-names`, `spmd-rank-divergent-collective`, …).
    pub rule: &'static str,
    /// Repo-relative path, filled in by the caller that knows it.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
}

impl Violation {
    /// A violation with the file left for the walker to fill in.
    #[must_use]
    pub fn new(rule: &'static str, line: u32, message: String) -> Self {
        Violation {
            rule,
            file: String::new(),
            line,
            message,
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}:{} {}",
            self.rule, self.file, self.line, self.message
        )
    }
}

/// How a repo-relative path is treated by the rule catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// `shims/**` — the shims implement the conventions, no rules.
    Shim,
    /// `crates/obs/**` — hosts the registry itself; no name rule.
    ObsCrate,
    /// `crates/fsmoe/src/**`, `crates/models/src/**` — where the
    /// collectives are issued: the rank-divergence rule runs here.
    CommSource,
    /// Any other non-test source (src, benches, examples).
    Source,
    /// Files under a `tests/` directory.
    Test,
}

/// Classifies a repo-relative path (forward slashes).
#[must_use]
pub fn classify(rel: &str) -> FileClass {
    if rel.starts_with("shims/") {
        FileClass::Shim
    } else if rel.starts_with("crates/obs/") {
        FileClass::ObsCrate
    } else if rel.contains("/tests/") {
        FileClass::Test
    } else if rel.starts_with("crates/fsmoe/src/") || rel.starts_with("crates/models/src/") {
        FileClass::CommSource
    } else {
        FileClass::Source
    }
}

/// A `// lint: allow(<rule>) — <reason>` directive.
#[derive(Debug)]
struct AllowDirective {
    /// The rule id inside the parens.
    key: String,
    /// The directive's own line.
    line: u32,
    /// First following line that is not blank or a pure `//` comment —
    /// the code line the directive covers.
    target_line: u32,
    /// Whether any justification text followed the closing paren.
    has_reason: bool,
}

impl AllowDirective {
    fn suppresses(&self, v: &Violation) -> bool {
        v.rule == self.key && (self.line..=self.target_line).contains(&v.line)
    }
}

/// Scans raw source lines for allow directives (the tokenizer drops
/// comments, so this is a separate plain-text pass).
fn allow_directives(src: &str) -> Vec<AllowDirective> {
    let lines: Vec<&str> = src.lines().collect();
    let mut out = Vec::new();
    for (idx, raw) in lines.iter().enumerate() {
        let Some(comment_at) = raw.find("//") else {
            continue;
        };
        let comment = &raw[comment_at + 2..];
        let Some(marker) = comment.find("lint: allow(") else {
            continue;
        };
        let rest = &comment[marker + "lint: allow(".len()..];
        let Some(close) = rest.find(')') else {
            continue;
        };
        let key = rest[..close].trim().to_string();
        let reason = rest[close + 1..]
            .trim_start_matches([' ', '\t', '—', '-', ':', '.'])
            .trim();
        // The directive covers its own line through the first
        // following non-comment, non-blank line (so a justification
        // spanning several comment lines still reaches the code).
        let mut target = idx;
        for (j, later) in lines.iter().enumerate().skip(idx + 1) {
            let t = later.trim();
            if t.is_empty() || t.starts_with("//") {
                continue;
            }
            target = j;
            break;
        }
        out.push(AllowDirective {
            key,
            line: (idx + 1) as u32,
            target_line: (target + 1) as u32,
            has_reason: !reason.is_empty(),
        });
    }
    out
}

/// Lints one file's source, given its repo-relative path. Returns the
/// violations with `file` filled in, allow directives applied, and
/// reason-less directives themselves reported.
#[must_use]
pub fn check_file(rel: &str, src: &str) -> Vec<Violation> {
    let class = classify(rel);
    let checks = rules_for(class);
    let directives = allow_directives(src);
    let mut raw = Vec::new();
    if !checks.is_empty() {
        let tree = ast::build(&tokenize(src));
        let tests = if class == FileClass::Test {
            TestRegions::whole_file()
        } else {
            TestRegions::of(&tree)
        };
        for check in checks {
            check(&tree, &tests, &mut raw);
        }
    }
    let mut out: Vec<Violation> = raw
        .into_iter()
        .filter(|v| !directives.iter().any(|d| d.suppresses(v)))
        .collect();
    for d in &directives {
        if !d.has_reason {
            out.push(Violation::new(
                RULE_ALLOW_REASON,
                d.line,
                format!(
                    "lint: allow({}) without a reason — write `// lint: allow({}) — <why this is safe>`",
                    d.key, d.key
                ),
            ));
        }
    }
    for v in &mut out {
        v.file = rel.to_string();
    }
    out.sort_by_key(|v| (v.line, v.rule));
    out
}

/// Collects the workspace's lintable `.rs` files as repo-relative
/// paths. Walks `crates/`, `shims/` and `examples/`; skips `target/`,
/// hidden directories, and the analyzer's own violation fixtures.
#[must_use]
pub fn workspace_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for top in ["crates", "shims", "examples"] {
        walk(&root.join(top), root, &mut files);
    }
    files.sort();
    files
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') || name == "target" || name == "fixtures" {
            continue;
        }
        if path.is_dir() {
            walk(&path, root, out);
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
}

/// Lints the whole workspace at `root`: every file through
/// [`check_file`], plus the registry-level dead-name check.
#[must_use]
pub fn run_workspace(root: &Path) -> Vec<Violation> {
    let files = workspace_files(root);
    let mut violations = Vec::new();
    let mut used = BTreeSet::new();
    let mut registry: Vec<(String, u32)> = Vec::new();
    for rel_path in &files {
        let rel = rel_path.to_string_lossy().replace('\\', "/");
        let Ok(src) = std::fs::read_to_string(root.join(rel_path)) else {
            continue;
        };
        if rel == "crates/obs/src/names.rs" {
            registry = registry_consts(&tokenize(&src));
            continue;
        }
        used.extend(ident_set(&tokenize(&src)));
        violations.extend(check_file(&rel, &src));
    }
    let mut dead = Vec::new();
    check_dead_names(&registry, &used, &mut dead);
    for mut v in dead {
        debug_assert_eq!(v.rule, RULE_OBS_DEAD_NAME);
        v.file = "crates/obs/src/names.rs".to_string();
        violations.push(v);
    }
    violations.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    violations
}
