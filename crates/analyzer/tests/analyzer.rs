//! Analyzer acceptance tests: every fixture violation is caught with
//! the right rule id, file, and line — and the real workspace is clean.

use std::collections::BTreeSet;
use std::path::PathBuf;

use analyzer::lexer::tokenize;
use analyzer::rules::{check_dead_names, registry_consts};
use analyzer::{check_file, classify, run_workspace, FileClass, Violation};

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// `(rule, line)` pairs for compact assertions.
fn keyed(violations: &[Violation]) -> Vec<(&'static str, u32)> {
    violations.iter().map(|v| (v.rule, v.line)).collect()
}

#[test]
fn allows_apply_and_need_a_reason() {
    let src = "fn f() {\n\
                   // lint: allow(obs-names) — the literal is what this site records\n\
                   obs::counter_add(\"a\", 1);\n\
                   // lint: allow(obs-names)\n\
                   obs::counter_add(\"b\", 1);\n\
                   obs::counter_add(\"c\", 1);\n\
               }\n";
    // The justified allow (line 2) suppresses its literal; the
    // reasonless allow (line 4) suppresses too but is itself flagged,
    // so CI still fails.
    assert_eq!(
        keyed(&check_file("crates/demo/src/lib.rs", src)),
        [("allow-needs-reason", 4), ("obs-names", 6)]
    );
}

#[test]
fn obs_names_fixture_is_caught() {
    let violations = check_file("crates/demo/src/lib.rs", &fixture("obs_names.rs"));
    assert_eq!(
        keyed(&violations),
        [
            ("obs-names", 4),  // "fsmoe" literal category
            ("obs-names", 6),  // "rogue.counter"
            ("obs-names", 7),  // literal inside format! inside the call
            ("obs-names", 18), // literal marker via obs::flight::annotate
        ]
    );
    assert!(violations[1].message.contains("rogue.counter"));
    assert!(
        violations[3].message.contains("flight::annotate"),
        "nested record fns report their full path: {}",
        violations[3].message
    );
}

#[test]
fn dead_name_fixture_is_caught() {
    let registry = registry_consts(&tokenize(&fixture("names_registry.rs")));
    assert_eq!(registry.len(), 2);
    let used: BTreeSet<String> = ["USED_NAME".to_string()].into_iter().collect();
    let mut violations = Vec::new();
    check_dead_names(&registry, &used, &mut violations);
    assert_eq!(violations.len(), 1);
    assert_eq!(violations[0].rule, "obs-dead-name");
    assert_eq!(violations[0].line, 7, "points at the declaration");
    assert!(violations[0].message.contains("DEAD_NAME"));
}

#[test]
fn classification_matches_the_catalog() {
    assert_eq!(classify("shims/parking_lot/src/lib.rs"), FileClass::Shim);
    assert_eq!(classify("crates/obs/src/lib.rs"), FileClass::ObsCrate);
    for rel in [
        "crates/fsmoe/src/layer.rs",
        "crates/fsmoe/src/grouped.rs",
        "crates/models/src/elastic.rs",
    ] {
        assert_eq!(classify(rel), FileClass::CommSource, "{rel}");
    }
    assert_eq!(
        classify("crates/collectives/src/group.rs"),
        FileClass::Source
    );
    assert_eq!(classify("crates/tensor/src/lib.rs"), FileClass::Source);
    assert_eq!(classify("examples/elastic_recovery.rs"), FileClass::Source);
    assert_eq!(classify("crates/models/tests/elastic.rs"), FileClass::Test);
}

#[test]
fn test_regions_exempt_cfg_test_modules() {
    let src = "fn prod() { obs::counter_add(\"a\", 1); }\n\
               #[cfg(test)]\n\
               mod tests {\n\
                   fn helper() { obs::counter_add(\"b\", 1); }\n\
               }\n";
    let violations = check_file("crates/demo/src/lib.rs", src);
    assert_eq!(keyed(&violations), [("obs-names", 1)]);
}

#[test]
fn rank_divergent_fixture_fires_on_both_arms_and_match() {
    let violations = check_file("crates/fsmoe/src/layer.rs", &fixture("rank_divergent.rs"));
    assert_eq!(
        keyed(&violations),
        [
            ("spmd-rank-divergent-collective", 6), // if rank == 0 { barrier }
            ("spmd-rank-divergent-collective", 15), // else arm all_reduce
            ("spmd-rank-divergent-collective", 21), // match self.rank arm
        ],
        "{violations:#?}"
    );
    // Outside the comm-issuing crates the rule does not run.
    assert!(check_file("crates/tensor/src/lib.rs", &fixture("rank_divergent.rs")).is_empty());
}

#[test]
fn test_wallclock_assert_fixture_fires_in_test_regions_only() {
    let fixture = fixture("test_wallclock_assert.rs");
    let violations = check_file("crates/demo/src/lib.rs", &fixture);
    assert_eq!(
        keyed(&violations),
        [
            ("test-wallclock-assert", 19), // assert!(t0.elapsed() < …)
            ("test-wallclock-assert", 27), // ms derives from start.elapsed()
            ("test-wallclock-assert", 33), // assert_eq! on a SystemTime
            ("test-wallclock-assert", 34), // prop_assert! on elapsed()
        ],
        "{violations:#?}"
    );
    assert!(violations[1].message.contains("through_a_binding"));
    // Under `tests/` the whole file is test code, so the budget in
    // `production_budget` (line 8) is a test assertion too.
    let as_test = check_file("crates/demo/tests/timing.rs", &fixture);
    assert_eq!(as_test.len(), 5, "{as_test:#?}");
    assert_eq!(as_test[0].line, 8);
    // The shims implement the conventions; no rule runs there.
    assert!(check_file("shims/demo/src/lib.rs", &fixture).is_empty());
}

/// The acceptance criterion: the analyzer exits clean on the real tree.
#[test]
fn real_workspace_is_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let violations = run_workspace(&root);
    assert!(
        violations.is_empty(),
        "workspace has lint violations:\n{}",
        violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The walker actually visits the tree (guards against a silently
/// empty walk making `real_workspace_is_clean` vacuous).
#[test]
fn workspace_walk_sees_the_known_crates() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let files = analyzer::workspace_files(&root);
    assert!(files.len() > 50, "only {} files found", files.len());
    let paths: Vec<String> = files
        .iter()
        .map(|p| p.to_string_lossy().replace('\\', "/"))
        .collect();
    for expected in [
        "crates/collectives/src/group.rs",
        "crates/fsmoe/src/dist.rs",
        "crates/obs/src/names.rs",
        "shims/parking_lot/src/lock_doctor.rs",
        "examples/elastic_recovery.rs",
    ] {
        assert!(paths.iter().any(|p| p == expected), "missing {expected}");
    }
    assert!(
        !paths.iter().any(|p| p.contains("fixtures")),
        "fixtures must not be linted"
    );
}

/// The gate cannot pass on nothing: a mistyped flag is a usage error
/// (exit 2) and a root whose walk finds no source is a failure (exit
/// 1), never `0 files clean`.
#[test]
fn cli_rejects_unknown_flags_and_empty_walks() {
    let run = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_analyzer"))
            .args(args)
            .output()
            .unwrap();
        let stderr = String::from_utf8(out.stderr).unwrap();
        (out.status.code(), stderr)
    };
    let (code, stderr) = run(&["--jsn"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("usage: analyzer"), "{stderr}");

    let manifest = env!("CARGO_MANIFEST_DIR");
    let no_crates = format!("{manifest}/tests/fixtures");
    let missing = format!("{manifest}/no-such-root");
    for root in [no_crates, missing] {
        let (code, stderr) = run(&[root.as_str()]);
        assert_eq!(code, Some(1), "{root}: {stderr}");
        assert!(stderr.contains("no .rs files"), "{root}: {stderr}");
    }
}
