//! The pattern rule catalog. Each rule is a pure function over a file's
//! token tree ([`crate::ast`]): one [`visit`] over every sibling list,
//! matching a path, a call or a `match` where it stands — the tree has
//! already balanced the delimiters, so no rule counts depth. (The
//! registry check works on the workspace-wide name table instead.)
//! DESIGN.md §8 documents rule semantics and the allow policy.

use std::collections::HashSet;

use crate::ast::{self, colons_at, match_arms, path_at, visit, Node};
use crate::lexer::{Tok, Token};
use crate::{flow, FileClass, Violation};

/// Rule id: `std::sync::{Mutex,RwLock,Condvar}` outside `shims/`.
pub const RULE_STD_SYNC: &str = "no-std-sync";
/// Rule id: `.unwrap()` / `.expect(` in guarded non-test code.
pub const RULE_UNWRAP: &str = "no-unwrap";
/// Rule id: obs record call passed a string literal instead of a
/// `obs::names` const.
pub const RULE_OBS_NAMES: &str = "obs-names";
/// Rule id: `obs::names` const that no call site uses.
pub const RULE_OBS_DEAD_NAME: &str = "obs-dead-name";
/// Rule id: wildcard `_ =>` arm in a `match` over `CommError`.
pub const RULE_COMM_WILDCARD: &str = "comm-wildcard";
/// Rule id: a `// lint: allow(...)` directive with no justification.
pub const RULE_ALLOW_REASON: &str = "allow-needs-reason";
/// Rule id: hardcoded `Duration::from_*` in `collectives/src`.
pub const RULE_DEADLINE_LITERALS: &str = "deadline-literals";
/// Rule id: iteration over a std `HashMap`/`HashSet` in SPMD-decision
/// code without an order-insensitive consumer ([`crate::flow`]).
pub const RULE_UNORDERED_ITER: &str = "spmd-unordered-iteration";
/// Rule id: collective op lexically dominated by a rank-conditional
/// branch ([`crate::flow`]).
pub const RULE_RANK_COLLECTIVE: &str = "spmd-rank-divergent-collective";
/// Rule id: `Instant`/`SystemTime`-derived value flowing into a branch
/// condition or collective payload in a verdict module ([`crate::flow`]).
pub const RULE_WALLCLOCK: &str = "spmd-wallclock-decision";
/// Rule id: `sum`/`fold`/`product` reduction over an unordered
/// container ([`crate::flow`]).
pub const RULE_FLOAT_ACCUM: &str = "float-accum-order";
/// Rule id: a test assertion whose condition depends on a wall-clock
/// reading ([`crate::flow`]).
pub const RULE_TEST_WALLCLOCK: &str = "test-wallclock-assert";
/// Rule id: a thread spawned in the compute crates.
pub const RULE_ADHOC_SPAWN: &str = "no-adhoc-spawn";
/// Rule id: an `unsafe` block, `unsafe impl` or `unsafe fn` that does not
/// say why it is sound.
pub const RULE_UNSAFE_SAFETY: &str = "unsafe-needs-safety";

/// The std primitives that must come from `shims/parking_lot` instead
/// (the lock doctor instruments the shim — a std lock is invisible to
/// it, which is exactly why this rule exists).
const BANNED_SYNC: [&str; 3] = ["Mutex", "RwLock", "Condvar"];

/// The `std::thread` entry points that start a thread.
const SPAWNERS: [&str; 3] = ["scope", "spawn", "Builder"];

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

/// `no-std-sync`: flags `std :: sync :: {Mutex|RwLock|Condvar}` and
/// `std :: sync :: { … Mutex … }` use-groups. Everything outside
/// `shims/` must route locks through the shim so the lock doctor sees
/// them.
pub fn check_std_sync(tree: &[Node], _tests: &TestRegions, out: &mut Vec<Violation>) {
    visit(tree, &mut |sibs, i| {
        let Some(next) = path_at(sibs, i, &["std", "sync"]).and_then(|e| colons_at(sibs, e)) else {
            return;
        };
        let mut flag = |name: &Node, line: u32| {
            if let Some(name) = name.ident().filter(|n| BANNED_SYNC.contains(n)) {
                out.push(Violation::new(
                    RULE_STD_SYNC,
                    line,
                    format!("std::sync::{name} — use the parking_lot shim so the lock doctor can see this lock"),
                ));
            }
        };
        match sibs.get(next) {
            Some(Node::Group(names)) => {
                visit(&names.children, &mut |names, j| {
                    flag(&names[j], names[j].line())
                });
            }
            Some(name) => flag(name, sibs[i].line()),
            None => {}
        }
    });
}

/// `no-adhoc-spawn`: flags `thread :: {scope|spawn|Builder}` (however
/// the `thread` module was reached, use-groups included) outside test
/// regions. The compute crates start no threads: parallelism is one
/// thread per rank, and spawning per call is what made two threads
/// slower than one.
pub fn check_adhoc_spawn(tree: &[Node], tests: &TestRegions, out: &mut Vec<Violation>) {
    visit(tree, &mut |sibs, i| {
        let Some(next) = path_at(sibs, i, &["thread"]).and_then(|e| colons_at(sibs, e)) else {
            return;
        };
        let mut flag = |name: &Node| {
            let spawner = name.ident().filter(|n| SPAWNERS.contains(n));
            if let Some(spawner) = spawner.filter(|_| !tests.contains(name.line())) {
                out.push(Violation::new(
                    RULE_ADHOC_SPAWN,
                    name.line(),
                    format!("thread::{spawner} — the compute crates start no threads: parallelism is one thread per rank"),
                ));
            }
        };
        match sibs.get(next) {
            Some(Node::Group(names)) => visit(&names.children, &mut |names, j| flag(&names[j])),
            Some(name) => flag(name),
            None => {}
        }
    });
}

/// `no-unwrap`: flags `.unwrap()` and `.expect(` outside test regions.
/// The distributed stack's guarded crates must surface failures as
/// typed errors; provable infallibility uses the allow escape hatch.
pub fn check_unwrap(tree: &[Node], tests: &TestRegions, out: &mut Vec<Violation>) {
    visit(tree, &mut |sibs, i| {
        let (Some(name), Some(_)) = (
            sibs[i]
                .ident()
                .filter(|_| i > 0 && sibs[i - 1].is_punct('.')),
            sibs.get(i + 1).and_then(|n| n.group_with('(')),
        ) else {
            return;
        };
        if (name == "unwrap" || name == "expect") && !tests.contains(sibs[i].line()) {
            out.push(Violation::new(
                RULE_UNWRAP,
                sibs[i].line(),
                format!(".{name}( — return a typed error, or justify with `// lint: allow(unwrap) — <reason>`"),
            ));
        }
    });
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

/// Whether `nodes` name `CommError`, not looking into nested `match`
/// expressions (each is judged on its own).
fn mentions_comm_error(nodes: &[Node]) -> bool {
    let mut i = 0usize;
    while let Some(n) = nodes.get(i) {
        if n.is_ident("match") {
            i += match_body_at(&nodes[i..]).map_or(nodes.len(), |(at, _)| at + 1);
        } else if n.is_ident("CommError")
            || n.group().is_some_and(|g| mentions_comm_error(&g.children))
        {
            return true;
        } else {
            i += 1;
        }
    }
    false
}

/// The body of the `match` keyword at `nodes[0]`, with its index: the
/// first brace group of the statement (scrutinee parens and brackets
/// are groups of their own, so they cannot be mistaken for it).
fn match_body_at(nodes: &[Node]) -> Option<(usize, &ast::Group)> {
    nodes
        .iter()
        .enumerate()
        .skip(1)
        .take_while(|(_, n)| !n.is_punct(';'))
        .find_map(|(at, n)| Some((at, n.group_with('{')?)))
}

/// `comm-wildcard`: flags a `_ =>` arm at the top level of any `match`
/// whose own arms mention `CommError`. Such matches must enumerate the
/// variants so adding one (or forgetting `Reconfigured`/`Abandoned`) is
/// a compile error, not a silently swallowed case. Nested matches are
/// analyzed independently — an inner match over a different enum keeps
/// its wildcard.
pub fn check_comm_wildcard(tree: &[Node], tests: &TestRegions, out: &mut Vec<Violation>) {
    visit(tree, &mut |sibs, i| {
        if !sibs[i].is_ident("match") || tests.contains(sibs[i].line()) {
            return;
        }
        let Some((_, body)) = match_body_at(&sibs[i..]) else {
            return;
        };
        // A bare `_` at arm level, `… _ =>` or `… _ if guard =>`; a `_`
        // inside a destructuring pattern sits in a group of its own.
        let wildcard = match_arms(&body.children)
            .into_iter()
            .find_map(|(pattern, _)| {
                let guard = pattern.iter().position(|n| n.is_ident("if"));
                let bare = pattern[..guard.unwrap_or(pattern.len())].last()?;
                bare.is_ident("_").then(|| bare.line())
            });
        if let (Some(line), true) = (wildcard, mentions_comm_error(&body.children)) {
            out.push(Violation::new(
                RULE_COMM_WILDCARD,
                line,
                "wildcard `_ =>` in a match over CommError — enumerate the variants so \
                 Reconfigured/Abandoned handling can never be silently skipped"
                    .to_string(),
            ));
        }
    });
}

/// `deadline-literals`: flags `Duration :: from_*(…)` constructions in
/// the guarded collectives core outside test regions. A hardcoded
/// duration in `collectives/src` is either an op budget, which belongs
/// to the caller's `CommWorld::with_deadline`, or a genuine non-budget
/// constant that must carry a line-scoped allow naming its purpose.
pub fn check_deadline_literals(tree: &[Node], tests: &TestRegions, out: &mut Vec<Violation>) {
    visit(tree, &mut |sibs, i| {
        let ctor = path_at(sibs, i, &["Duration"])
            .and_then(|e| colons_at(sibs, e))
            .and_then(|e| sibs.get(e)?.ident());
        if let Some(name) = ctor.filter(|n| n.starts_with("from_")) {
            if !tests.contains(sibs[i].line()) {
                out.push(Violation::new(
                    RULE_DEADLINE_LITERALS,
                    sibs[i].line(),
                    format!(
                        "Duration::{name} — op budgets come from the caller's \
                         CommWorld::with_deadline; a true non-budget duration needs \
                         `// lint: allow(deadline-literals) — <what it is>`"
                    ),
                ));
            }
        }
    });
}

/// Whether the comment block directly above 1-based `line` — comment and
/// attribute lines only, no blank between — or a comment on the line
/// itself contains one of `needles`.
fn commented(lines: &[&str], line: u32, needles: &[&str]) -> bool {
    let has = |text: &str| needles.iter().any(|n| text.contains(n));
    let own = lines
        .get(line as usize - 1)
        .and_then(|l| l.split_once("//"));
    let above = lines[..line as usize - 1]
        .iter()
        .rev()
        .map(|l| l.trim_start())
        .take_while(|l| l.starts_with("//") || l.starts_with("#["));
    own.is_some_and(|(_, comment)| has(comment)) || above.into_iter().any(has)
}

/// `unsafe-needs-safety`: every `unsafe` block and `unsafe impl` is
/// directly preceded by a `// SAFETY:` comment (above the block, or above
/// the statement it is part of), and every `unsafe fn` carries a
/// `# Safety` doc section (or a `// SAFETY:` comment). Two things are
/// covered by a contract stated once: an `unsafe` block inside an
/// `unsafe fn` (it discharges nothing — the function's own contract
/// passes the obligation up), and an `unsafe fn` that is a method of, or
/// generic over, a trait of the same file whose doc carries `# Safety`
/// (`tensor::vmath`'s `Lanes`: one ISA requirement for every lane op and
/// every kernel built from them). Test code is not exempt.
pub fn check_unsafe(src: &str, tree: &[Node], out: &mut Vec<Violation>) {
    let lines: Vec<&str> = src.lines().collect();
    let mut contracts = HashSet::new();
    visit(tree, &mut |sibs, i| {
        if let (true, Some(name)) = (
            sibs[i].is_ident("trait"),
            sibs.get(i + 1).and_then(Node::ident),
        ) {
            if commented(&lines, sibs[i].line(), &["# Safety"]) {
                contracts.insert(name);
            }
        }
    });
    let mut walk = UnsafeWalk {
        lines: &lines,
        contracts: &contracts,
        out,
    };
    walk.list(tree, None, false, false);
}

/// What [`check_unsafe`]'s walk carries down unchanged.
struct UnsafeWalk<'a> {
    lines: &'a [&'a str],
    /// Traits of this file whose doc carries `# Safety`.
    contracts: &'a HashSet<&'a str>,
    out: &'a mut Vec<Violation>,
}

impl UnsafeWalk<'_> {
    /// One sibling list. `outer` is the first line of the statement this
    /// list is an expression part of (`None` in a block, where statements
    /// start afresh); `in_unsafe_fn` and `in_contract` say whether an
    /// enclosing `unsafe fn` body or contract-trait body covers what is
    /// found here.
    fn list(&mut self, nodes: &[Node], outer: Option<u32>, in_unsafe_fn: bool, in_contract: bool) {
        let contracts = self.contracts;
        let names_contract = |header: &[Node]| {
            let named = |n: &Node| n.ident().is_some_and(|id| contracts.contains(id));
            header.iter().any(named)
        };
        // the item header from `nodes[i]` up to its body or `;`
        let header = |i: usize| {
            let ends = |n: &Node| n.is_punct(';') || n.group_with('{').is_some();
            let len = nodes[i..].iter().position(ends);
            &nodes[i..len.map_or(nodes.len(), |len| i + len)]
        };
        // whether the next brace group is such a body
        let (mut unsafe_fn_body, mut contract_body) = (false, false);
        let mut stmt = outer;
        for (i, node) in nodes.iter().enumerate() {
            let start = *stmt.get_or_insert(node.line());
            if node.is_ident("trait") || node.is_ident("impl") {
                contract_body = names_contract(header(i));
            }
            if node.is_ident("unsafe") {
                let line = node.line();
                let argued = |needles: &[&str]| {
                    commented(self.lines, line, needles) || commented(self.lines, start, needles)
                };
                let next = nodes.get(i + 1);
                let what = if next.is_some_and(|n| n.group_with('{').is_some()) {
                    (!in_unsafe_fn && !argued(&["SAFETY:"])).then_some("block")
                } else if next.is_some_and(|n| n.is_ident("impl")) {
                    (!argued(&["SAFETY:"])).then_some("impl")
                } else if next.is_some_and(|n| n.is_ident("fn"))
                    && nodes.get(i + 2).is_some_and(|n| n.ident().is_some())
                {
                    unsafe_fn_body = true;
                    let signature = header(i).split(|n| n.group_with('(').is_some()).next();
                    let inherited = in_contract || signature.is_some_and(names_contract);
                    (!inherited && !argued(&["# Safety", "SAFETY:"])).then_some("fn")
                } else {
                    None // `unsafe fn(..)` pointer types, `#[unsafe(..)]`
                };
                if let Some(what) = what {
                    self.out.push(Violation::new(
                        RULE_UNSAFE_SAFETY,
                        line,
                        format!(
                            "unsafe {what} without its argument — say why it is sound in a \
                             `// SAFETY:` comment directly above (an `unsafe fn` states what \
                             its caller must guarantee under `# Safety`)"
                        ),
                    ));
                }
            }
            let block = node.group_with('{').is_some();
            if let Node::Group(g) = node {
                let in_fn = in_unsafe_fn || (block && std::mem::take(&mut unsafe_fn_body));
                let in_ct = in_contract || (block && std::mem::take(&mut contract_body));
                let outer = (!block).then_some(start);
                self.list(&g.children, outer, in_fn, in_ct);
            }
            if outer.is_none() && (block || node.is_punct(';') || node.is_punct(',')) {
                stmt = None;
            }
            if node.is_punct(';') {
                (unsafe_fn_body, contract_body) = (false, false);
            }
        }
    }
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
pub fn ident_set(toks: &[Token]) -> HashSet<String> {
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
    used: &HashSet<String>,
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

/// Which rules run on the file at `rel`, in order: the pattern rules of
/// its class, then the rules scoped by file role (DESIGN.md §13) —
/// test assertions everywhere, thread spawns in the compute crates,
/// iteration and accumulation order and wall-clock flow in verdict
/// logic, rank-conditional collectives wherever comm is issued.
#[must_use]
pub fn rules_for(class: FileClass, rel: &str) -> Vec<Check> {
    let mut checks: Vec<Check> = match class {
        FileClass::Shim => return Vec::new(),
        FileClass::ObsCrate | FileClass::Test => vec![check_std_sync],
        FileClass::GuardedSource => vec![
            check_std_sync,
            check_unwrap,
            check_obs_names,
            check_deadline_literals,
        ],
        FileClass::GuardedCommSource => vec![
            check_std_sync,
            check_unwrap,
            check_obs_names,
            check_comm_wildcard,
        ],
        FileClass::CommMatchSource => vec![check_std_sync, check_obs_names, check_comm_wildcard],
        FileClass::Source => vec![check_std_sync, check_obs_names],
    };
    checks.push(flow::check_test_wallclock);
    if crate::compute_layer(rel) {
        checks.push(check_adhoc_spawn);
    }
    if crate::spmd_decision(rel) {
        checks.push(flow::check_unordered_iteration);
        checks.push(flow::check_wallclock);
    }
    if matches!(
        class,
        FileClass::GuardedCommSource | FileClass::CommMatchSource
    ) {
        checks.push(flow::check_rank_divergent);
    }
    checks
}
