//! Two rules no type can hold, by plain text search: every `obs::names`
//! const is named in code (not a comment) outside `names.rs`, and no file
//! under a `tests/` directory reads a clock (timing belongs in benches).

use std::path::{Path, PathBuf};

/// Every `.rs` file under `crates/`, `shims/` and `examples/`, read.
fn sources() -> Vec<(PathBuf, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut dirs: Vec<PathBuf> = ["crates", "shims", "examples"].map(|d| root.join(d)).into();
    let mut files = Vec::new();
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).unwrap().flatten() {
            let path = entry.path();
            if path.is_dir() && entry.file_name() != "target" {
                dirs.push(path);
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                let src = std::fs::read_to_string(&path).unwrap();
                files.push((path, src));
            }
        }
    }
    assert!(files.len() > 50, "the walk found {} files", files.len());
    files
}

#[test]
fn every_registry_name_is_used_outside_the_registry() {
    let files = sources();
    let code: Vec<&str> = files
        .iter()
        .filter(|(path, _)| !path.ends_with("obs/src/names.rs"))
        .flat_map(|(_, src)| src.lines())
        .filter(|line| !line.trim_start().starts_with("//"))
        .collect();
    let dead: Vec<&str> = obs::names::ALL
        .iter()
        .copied()
        .filter(|ident| !code.iter().any(|line| line.contains(ident)))
        .collect();
    assert!(dead.is_empty(), "obs::names declares unused {dead:?}");
}

#[test]
fn no_test_file_reads_a_clock() {
    let reads = ["Instant::now", "SystemTime::now", ".elapsed()"];
    let mut offenders = Vec::new();
    for (path, src) in sources() {
        let in_tests = path.components().any(|c| c.as_os_str() == "tests");
        if !in_tests || path.ends_with("obs/tests/registry.rs") {
            continue;
        }
        for (i, line) in src.lines().enumerate() {
            if reads.iter().any(|read| line.contains(read)) {
                offenders.push(format!("{}:{}", path.display(), i + 1));
            }
        }
    }
    assert!(offenders.is_empty(), "clock reads in tests: {offenders:#?}");
}
