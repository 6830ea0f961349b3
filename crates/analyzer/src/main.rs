//! The ci.sh lint gate: lints the workspace, prints one line per
//! violation (`RULE file:line message`), exits 1 on any finding.
//!
//! Usage:
//!   `cargo run --release -p analyzer [workspace-root]`
//!
//! Any `--` flag prints the usage line and exits 2; a root whose walk
//! finds no `.rs` file exits 1, so a mistyped path cannot pass as a
//! clean tree.
//!
//! Default root: the directory two levels above this crate.

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: analyzer [workspace-root]";

fn main() -> ExitCode {
    let mut root_arg: Option<PathBuf> = None;
    for arg in std::env::args().skip(1) {
        if arg.starts_with("--") {
            eprintln!("analyzer: unknown flag `{arg}`\n{USAGE}");
            return ExitCode::from(2);
        }
        root_arg = Some(PathBuf::from(arg));
    }
    let root = root_arg.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()
            .unwrap_or_else(|_| PathBuf::from("."))
    });

    let files_scanned = analyzer::workspace_files(&root).len();
    if files_scanned == 0 {
        eprintln!("analyzer: no .rs files under {}", root.display());
        return ExitCode::FAILURE;
    }
    let violations = analyzer::run_workspace(&root);
    for v in &violations {
        println!("{v}");
    }
    if violations.is_empty() {
        println!("analyzer: {files_scanned} files clean");
        ExitCode::SUCCESS
    } else {
        eprintln!("analyzer: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}
