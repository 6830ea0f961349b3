//! Analyzer acceptance tests: every fixture violation is caught with
//! the right rule id, file, and line — and the real workspace is clean.

use std::collections::HashSet;
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
fn std_sync_fixture_is_caught_with_location() {
    // Lint it as if it lived in a plain source crate.
    let rel = "crates/demo/src/lib.rs";
    let violations = check_file(rel, &fixture("std_sync.rs"));
    assert_eq!(
        keyed(&violations),
        [
            ("no-std-sync", 2), // use std::sync::Mutex
            ("no-std-sync", 3), // Condvar in the use-group
            ("no-std-sync", 3), // RwLock in the use-group (Arc is fine)
        ]
    );
    assert!(violations.iter().all(|v| v.file == rel));
    assert!(violations[0].message.contains("Mutex"));
}

#[test]
fn adhoc_spawn_fixture_is_caught_in_the_compute_crates_only() {
    let fixture = fixture("adhoc_spawn.rs");
    for rel in [
        "crates/tensor/src/ops.rs",
        "crates/tensor/src/par.rs",
        "crates/fsmoe/src/expert.rs",
        "crates/models/src/attention.rs",
    ] {
        assert_eq!(
            keyed(&check_file(rel, &fixture)),
            [
                ("no-adhoc-spawn", 3),  // `spawn` in the use-group
                ("no-adhoc-spawn", 6),  // std::thread::scope
                ("no-adhoc-spawn", 11), // thread::spawn
                ("no-adhoc-spawn", 12), // thread::Builder
            ],
            "{rel}: the allow on 13 covers 14, test regions are exempt"
        );
    }
    // other crates and test files may start threads
    for rel in [
        "crates/collectives/src/world.rs",
        "crates/tensor/tests/pool.rs",
        "crates/bench/benches/harness.rs",
    ] {
        assert!(
            !check_file(rel, &fixture)
                .iter()
                .any(|v| v.rule == "no-adhoc-spawn"),
            "{rel}"
        );
    }
}

#[test]
fn unwrap_fixture_is_caught_and_allows_apply() {
    let violations = check_file("crates/collectives/src/demo.rs", &fixture("unwrap.rs"));
    // The justified allow (line 12) suppresses its unwrap; the
    // reasonless allow (line 17) suppresses too but is itself flagged,
    // so CI still fails; test-module unwraps are exempt.
    assert_eq!(
        keyed(&violations),
        [
            ("no-unwrap", 4),
            ("no-unwrap", 8),
            ("allow-needs-reason", 17),
        ]
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
fn comm_wildcard_fixture_is_caught_only_on_comm_matches() {
    let violations = check_file("crates/models/src/demo.rs", &fixture("comm_wildcard.rs"));
    assert_eq!(keyed(&violations), [("comm-wildcard", 6)]);
    // The same file under a crate without the rule (e.g. collectives
    // itself, which defines CommError) is clean.
    assert!(check_file(
        "crates/collectives/src/demo.rs",
        &fixture("comm_wildcard.rs")
    )
    .is_empty());
}

#[test]
fn deadline_literals_fixture_is_caught_in_collectives_only() {
    let violations = check_file(
        "crates/collectives/src/demo.rs",
        &fixture("deadline_literals.rs"),
    );
    // POLL (line 3) and bad_budget's body (line 6) fire; the allowed
    // FAULT_DELAY is suppressed and the test module is exempt.
    assert_eq!(
        keyed(&violations),
        [("deadline-literals", 3), ("deadline-literals", 6)]
    );
    assert!(violations[0].message.contains("CommWorld::with_deadline"));
    // No collectives source is exempt, whatever its name.
    assert_eq!(
        keyed(&check_file(
            "crates/collectives/src/deadline.rs",
            &fixture("deadline_literals.rs")
        )),
        keyed(&violations)
    );
    // The rule is scoped to collectives: other crates keep literals.
    assert!(check_file(
        "crates/models/src/demo.rs",
        &fixture("deadline_literals.rs")
    )
    .is_empty());
}

#[test]
fn dead_name_fixture_is_caught() {
    let registry = registry_consts(&tokenize(&fixture("names_registry.rs")));
    assert_eq!(registry.len(), 2);
    let used: HashSet<String> = ["USED_NAME".to_string()].into_iter().collect();
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
    assert_eq!(
        classify("crates/collectives/src/group.rs"),
        FileClass::GuardedSource
    );
    assert_eq!(
        classify("crates/collectives/src/deadline.rs"),
        FileClass::GuardedSource
    );
    for file in ["dist", "layer", "order", "routing"] {
        assert_eq!(
            classify(&format!("crates/fsmoe/src/{file}.rs")),
            FileClass::GuardedCommSource
        );
    }
    assert_eq!(
        classify("crates/fsmoe/src/grouped.rs"),
        FileClass::CommMatchSource
    );
    assert_eq!(
        classify("crates/models/src/elastic.rs"),
        FileClass::CommMatchSource
    );
    assert_eq!(classify("crates/tensor/src/lib.rs"), FileClass::Source);
    assert_eq!(classify("examples/elastic_recovery.rs"), FileClass::Source);
    assert_eq!(classify("crates/models/tests/elastic.rs"), FileClass::Test);
}

#[test]
fn test_regions_exempt_cfg_test_modules() {
    let src = "fn prod(x: Option<u32>) -> u32 { x.unwrap() }\n\
               #[cfg(test)]\n\
               mod tests {\n\
                   fn helper(x: Option<u32>) -> u32 { x.unwrap() }\n\
               }\n";
    let violations = check_file("crates/collectives/src/demo.rs", src);
    assert_eq!(keyed(&violations), [("no-unwrap", 1)]);
}

#[test]
fn unordered_iteration_fixture_fires_and_respects_allows() {
    // Linted as one of the SPMD verdict modules.
    let violations = check_file(
        "crates/models/src/health.rs",
        &fixture("spmd_unordered_iter.rs"),
    );
    assert_eq!(
        keyed(&violations),
        [
            ("spmd-unordered-iteration", 6),  // scores.iter()
            ("spmd-unordered-iteration", 10), // for r in dead
        ],
        "{violations:#?}"
    );
    // The same file outside SPMD-decision scope is clean.
    assert!(check_file(
        "crates/tensor/src/lib.rs",
        &fixture("spmd_unordered_iter.rs")
    )
    .is_empty());
}

#[test]
fn unsafe_fixture_is_caught_unless_argued_or_under_a_stated_contract() {
    let fixture = fixture("unsafe_safety.rs");
    for rel in [
        "crates/collectives/src/group/plane.rs",
        "shims/rand/src/lib.rs",
    ] {
        assert_eq!(
            keyed(&check_file(rel, &fixture)),
            [
                ("unsafe-needs-safety", 5),  // unsafe impl, no comment
                ("unsafe-needs-safety", 11), // bare block
                ("unsafe-needs-safety", 25), // second statement: the comment above the first does not reach
                ("unsafe-needs-safety", 29), // unsafe fn without `# Safety`
                ("unsafe-needs-safety", 64), // method of a trait that states no contract
                ("unsafe-needs-safety", 77), // test code is not exempt
            ],
            "{rel}"
        );
    }
    // library source only: tests, benches and examples are out of scope
    for rel in [
        "crates/tensor/tests/pool.rs",
        "crates/bench/benches/harness.rs",
        "examples/demo.rs",
    ] {
        assert!(
            !check_file(rel, &fixture)
                .iter()
                .any(|v| v.rule == "unsafe-needs-safety"),
            "{rel}"
        );
    }
}

#[test]
fn float_accum_fixture_fires_and_sorted_is_clean() {
    let violations = check_file("crates/models/src/health.rs", &fixture("float_accum.rs"));
    assert_eq!(
        keyed(&violations),
        [("float-accum-order", 6)],
        "{violations:#?}"
    );
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
fn wallclock_fixture_fires_on_branch_payload_and_call_hop() {
    let violations = check_file("crates/models/src/elastic.rs", &fixture("wallclock.rs"));
    assert_eq!(
        keyed(&violations),
        [
            ("spmd-wallclock-decision", 8),  // branch on elapsed µs
            ("spmd-wallclock-decision", 17), // tainted all_reduce payload
            ("spmd-wallclock-decision", 22), // call hop into score()'s sink param
        ],
        "{violations:#?}"
    );
    // Outside the verdict modules the rule does not run: the same
    // source in a collectives file stays clean.
    assert!(check_file(
        "crates/collectives/src/deadline.rs",
        &fixture("wallclock.rs")
    )
    .is_empty());
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
    for args in [vec![no_crates.as_str()], vec!["--json", missing.as_str()]] {
        let (code, stderr) = run(&args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("no .rs files"), "{args:?}: {stderr}");
    }
}
