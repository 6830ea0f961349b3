//! The pattern rule catalog: the obs-name rules, the test regions the
//! rules exempt, and which rules run on which file. A rule is a pure
//! function over a file's token tree ([`crate::ast`]): one [`visit`]
//! over every sibling list, matching a call where it stands — the tree
//! has already balanced the delimiters, so no rule counts depth. (The
//! registry check works on the workspace-wide name table instead.)
//! DESIGN.md §8 documents rule semantics and the allow policy.

use std::collections::BTreeSet;

use crate::ast::{self, path_at, visit, Node};
use crate::lexer::{Tok, Token};
use crate::{flow, FileClass, Violation};

/// Rule id: obs record call passed a string literal instead of a
/// `obs::names` const.
pub const RULE_OBS_NAMES: &str = "obs-names";
/// Rule id: `obs::names` const that no call site uses.
pub const RULE_OBS_DEAD_NAME: &str = "obs-dead-name";
/// Rule id: a `// lint: allow(...)` directive with no justification.
pub const RULE_ALLOW_REASON: &str = "allow-needs-reason";
/// Rule id: collective op lexically dominated by a rank-conditional
/// branch ([`crate::flow`]).
pub const RULE_RANK_COLLECTIVE: &str = "spmd-rank-divergent-collective";
/// Rule id: a test assertion whose condition depends on a wall-clock
/// reading ([`crate::flow`]).
pub const RULE_TEST_WALLCLOCK: &str = "test-wallclock-assert";

/// The obs record functions whose name argument must be a registry
/// const, by path. Read-side helpers (`spans_named`, `counter_value`, …)
/// are deliberately not listed: literals there can only fail a test,
/// not silently fork the name space.
const OBS_RECORD_FNS: [&[&str]; 6] = [
    &["obs", "span"],
    &["obs", "deferred_span"],
    &["obs", "counter_add"],
    &["obs", "record_hist"],
    &["obs", "set_gauge"],
    &["obs", "flight", "annotate"],
];

/// Line spans (1-based, inclusive) covered by `#[cfg(test)]` items and
/// `#[test]` functions. Rules that exempt test code consult this.
#[derive(Debug, Default)]
pub struct TestRegions {
    spans: Vec<(u32, u32)>,
}

impl TestRegions {
    /// Whether `line` falls inside any test region.
    #[must_use]
    pub fn contains(&self, line: u32) -> bool {
        self.spans.iter().any(|&(a, b)| (a..=b).contains(&line))
    }

    /// One region covering the whole file (files under `tests/`).
    #[must_use]
    pub fn whole_file() -> TestRegions {
        TestRegions {
            spans: vec![(1, u32::MAX)],
        }
    }

    /// Finds `#[cfg(test)]` / `#[test]` attributes and marks the lines
    /// from each through the body of the item it sits on — the next
    /// brace group among the attribute's siblings (none for a bodyless
    /// item such as `mod tests;`).
    #[must_use]
    pub fn of(tree: &[Node]) -> TestRegions {
        let mut spans = Vec::new();
        visit(tree, &mut |sibs, i| {
            let attr = match (&sibs[i], sibs.get(i + 1).and_then(|n| n.group_with('['))) {
                (hash, Some(attr)) if hash.is_punct('#') => attr,
                _ => return,
            };
            let is_test = match attr.children.as_slice() {
                [name] => name.is_ident("test"),
                [cfg, Node::Group(arg)] => {
                    cfg.is_ident("cfg")
                        && matches!(arg.children.as_slice(), [t] if t.is_ident("test"))
                }
                _ => false,
            };
            let body = sibs[i + 2..]
                .iter()
                .take_while(|n| !n.is_punct(';'))
                .find_map(|n| n.group_with('{'));
            if let (true, Some(body)) = (is_test, body) {
                spans.push((sibs[i].line(), body.close_line));
            }
        });
        TestRegions { spans }
    }
}

/// [`TestRegions::of`] for callers holding only the token stream.
#[must_use]
pub fn test_regions(toks: &[Token]) -> TestRegions {
    TestRegions::of(&ast::build(toks))
}

/// `obs-names`: flags string literals anywhere inside the argument list
/// of an [`OBS_RECORD_FNS`] call outside test regions — span and marker
/// names included, not just counters. Names must come from
/// `obs::names`, the single registry the dead-name check audits.
pub fn check_obs_names(tree: &[Node], tests: &TestRegions, out: &mut Vec<Violation>) {
    visit(tree, &mut |sibs, i| {
        if !sibs[i].is_ident("obs") || tests.contains(sibs[i].line()) {
            return;
        }
        for path in OBS_RECORD_FNS {
            let Some(args) = path_at(sibs, i, path).and_then(|e| sibs.get(e)?.group_with('('))
            else {
                continue;
            };
            visit(&args.children, &mut |inner, j| {
                if let Node::Leaf(Token {
                    tok: Tok::Str(s),
                    line,
                }) = &inner[j]
                {
                    out.push(Violation::new(
                        RULE_OBS_NAMES,
                        *line,
                        format!(
                            "string literal \"{s}\" passed to {} — declare it in obs::names",
                            path.join("::")
                        ),
                    ));
                }
            });
        }
    });
}

/// Extracts the `pub const NAME` declarations from the registry module
/// (`crates/obs/src/names.rs`) as `(name, line)` pairs.
#[must_use]
pub fn registry_consts(toks: &[Token]) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    for w in toks.windows(3) {
        if w[0].is_ident("pub") && w[1].is_ident("const") {
            if let Some(name) = w[2].ident() {
                out.push((name.to_string(), w[2].line));
            }
        }
    }
    out
}

/// All identifiers in a token stream — the use-side input of the
/// dead-name check.
#[must_use]
pub fn ident_set(toks: &[Token]) -> BTreeSet<String> {
    toks.iter()
        .filter_map(|t| t.ident().map(String::from))
        .collect()
}

/// `obs-dead-name`: registry consts that no file outside the registry
/// references. A dead name means a recorder was removed (or renamed)
/// without updating the registry — the registry must stay the exact
/// vocabulary of the codebase.
pub fn check_dead_names(
    consts: &[(String, u32)],
    used: &BTreeSet<String>,
    out: &mut Vec<Violation>,
) {
    for (name, line) in consts {
        if !used.contains(name) {
            out.push(Violation::new(
                RULE_OBS_DEAD_NAME,
                *line,
                format!("obs::names::{name} is declared but never used by any recorder or test"),
            ));
        }
    }
}

/// A rule over one file's tree, exempting the given test regions.
pub type Check = fn(&[Node], &TestRegions, &mut Vec<Violation>);

/// Which rules run on a file of the given class, in order: `obs-names`
/// outside the obs crate and test files, then the rules scoped by file
/// role (DESIGN.md §13) — test assertions everywhere, rank-conditional
/// collectives wherever comm is issued.
#[must_use]
pub fn rules_for(class: FileClass) -> Vec<Check> {
    let mut checks: Vec<Check> = match class {
        FileClass::Shim => return Vec::new(),
        FileClass::ObsCrate | FileClass::Test => Vec::new(),
        FileClass::CommSource | FileClass::Source => vec![check_obs_names],
    };
    checks.push(flow::check_test_wallclock);
    if class == FileClass::CommSource {
        checks.push(flow::check_rank_divergent);
    }
    checks
}
