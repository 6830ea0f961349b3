//! The ci.sh lint gate: lints the workspace, prints one line per
//! violation (`RULE file:line message`), exits 1 on any finding.
//!
//! Usage:
//!   `cargo run --release -p analyzer [--json] [workspace-root]`
//!
//! `--json` emits the findings as a JSON array (rule id, file, line,
//! message) for one-glance triage. Any other `--` flag prints the usage
//! line and exits 2; a root whose walk finds no `.rs` file exits 1, so
//! a mistyped path cannot pass as a clean tree.
//!
//! Default root: the directory two levels above this crate. Publishes
//! `analyzer.findings` / `analyzer.files_scanned` through obs when a
//! collector is enabled.

use std::path::PathBuf;
use std::process::ExitCode;

use jsonio::Json;

const USAGE: &str = "usage: analyzer [--json] [workspace-root]";

fn main() -> ExitCode {
    let mut json = false;
    let mut root_arg: Option<PathBuf> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            flag if flag.starts_with("--") => {
                eprintln!("analyzer: unknown flag `{flag}`\n{USAGE}");
                return ExitCode::from(2);
            }
            other => root_arg = Some(PathBuf::from(other)),
        }
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
    obs::counter_add(obs::names::ANALYZER_FINDINGS, violations.len() as u64);
    obs::set_gauge(obs::names::ANALYZER_FILES_SCANNED, files_scanned as f64);

    if json {
        let arr = Json::Arr(
            violations
                .iter()
                .map(|v| {
                    Json::obj([
                        ("rule", Json::from(v.rule)),
                        ("file", Json::from(v.file.as_str())),
                        ("line", Json::from(f64::from(v.line))),
                        ("message", Json::from(v.message.as_str())),
                    ])
                })
                .collect(),
        );
        match arr.to_pretty_string() {
            Ok(t) => print!("{t}"),
            Err(e) => {
                eprintln!("analyzer: findings serialisation failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        for v in &violations {
            println!("{v}");
        }
    }
    if violations.is_empty() {
        if !json {
            println!("analyzer: {files_scanned} files clean");
        }
        ExitCode::SUCCESS
    } else {
        eprintln!("analyzer: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}
