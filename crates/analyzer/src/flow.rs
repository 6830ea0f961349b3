//! Per-function dataflow for the rules a type or call ban cannot
//! express.
//!
//! Works on the token tree ([`crate::ast`]): for each function it
//! tracks which bindings hold wall-clock readings and where a
//! collective is issued. Two rules live here:
//!
//! * [`RULE_TEST_WALLCLOCK`] — a test assertion whose condition depends
//!   on an `Instant`/`SystemTime` reading, directly or through `let`
//!   and assignment bindings;
//! * [`RULE_RANK_COLLECTIVE`] — a collective op lexically dominated by
//!   a rank-conditional branch (inside its brace tree, not merely
//!   after it), the static shape of a mismatched-schedule deadlock.
//!
//! This is intraprocedural, heuristic analysis. The escape hatch for
//! anything it cannot see is an explicit
//! `// lint: allow(<rule>) — <reason>`.

use std::collections::BTreeSet;

use crate::ast::{self, functions, FnItem, Group, Node};
use crate::rules::{TestRegions, RULE_RANK_COLLECTIVE, RULE_TEST_WALLCLOCK};
use crate::Violation;

/// The collective operations a call site can name: the transport verbs
/// of `GroupComm` (an `_into` form is the same collective into a
/// caller-provided buffer, reported under the plain verb) and the
/// control-plane collectives of `Communicator`.
const COLLECTIVE_OPS: [&str; 10] = [
    "all_gather",
    "all_gather_into",
    "all_reduce",
    "all_to_all",
    "all_to_all_into",
    "barrier",
    "broadcast",
    "propose_evict",
    "reduce_scatter",
    "reduce_scatter_into",
];

/// The collective call `.op(args)` whose `.` is `nodes[i]`: the op's
/// name and its argument group.
fn collective_call_at(nodes: &[Node], i: usize) -> Option<(&str, &Group)> {
    if !nodes[i].is_punct('.') {
        return None;
    }
    let op = nodes.get(i + 1)?.ident()?;
    let args = nodes.get(i + 2)?.group_with('(')?;
    COLLECTIVE_OPS
        .contains(&op)
        .then_some((op.strip_suffix("_into").unwrap_or(op), args))
}

fn contains_ident(nodes: &[Node], pred: &dyn Fn(&str) -> bool) -> bool {
    nodes.iter().any(|n| match n {
        Node::Leaf(_) => n.ident().is_some_and(pred),
        Node::Group(g) => contains_ident(&g.children, pred),
    })
}

/// Splits a node list at top-level `sep` — statements at `;`,
/// arguments at `,` — dropping the separators and empty pieces.
fn split_on(nodes: &[Node], sep: char) -> impl Iterator<Item = &[Node]> {
    nodes
        .split(move |n| n.is_punct(sep))
        .filter(|piece| !piece.is_empty())
}

// ---------------------------------------------------------------------------
// test-wallclock-assert
// ---------------------------------------------------------------------------

/// The types whose readings are wall-clock time.
const WALLCLOCK_SOURCES: [&str; 2] = ["Instant", "SystemTime"];

/// Binding names holding wall-clock-derived values in one function:
/// seeded by `Instant::now`/`SystemTime`, propagated through `let`s
/// and assignments (including `v[i] = t` and `self.f = t`), iterated
/// until stable.
fn wallclock_taint(item: &FnItem<'_>) -> BTreeSet<String> {
    let mut tainted: BTreeSet<String> = BTreeSet::new();
    for _ in 0..8 {
        let before = tainted.len();
        propagate_taint(&item.body.children, &mut tainted);
        if tainted.len() == before {
            break;
        }
    }
    tainted
}

/// Ident containment that does not descend into `{}` blocks: a
/// binding taking a block's *value* (`let x = match … { … }`) is not
/// data-tainted by idents used inside the block — the branch-condition
/// sink inside the block catches the decision point itself.
fn value_contains(nodes: &[Node], pred: &dyn Fn(&str) -> bool) -> bool {
    nodes.iter().any(|n| match n {
        Node::Leaf(_) => n.ident().is_some_and(pred),
        Node::Group(g) if g.delim != '{' => value_contains(&g.children, pred),
        Node::Group(_) => false,
    })
}

fn propagate_taint(nodes: &[Node], tainted: &mut BTreeSet<String>) {
    for stmt in split_on(nodes, ';') {
        if let Some(eq) = stmt.iter().position(|n| n.is_punct('=')) {
            // Skip `==`, `>=`, `<=`, `!=`, `=>` comparators (compound
            // assignments like `+=` keep firing: `+` is not a
            // comparator half).
            let prev_cmp = eq > 0
                && ['<', '>', '!', '=']
                    .iter()
                    .any(|&c| stmt[eq - 1].is_punct(c));
            let next_cmp = stmt
                .get(eq + 1)
                .is_some_and(|n| n.is_punct('=') || n.is_punct('>'));
            let is_assign = !prev_cmp && !next_cmp;
            let rhs = &stmt[eq + 1..];
            let rhs_tainted = value_contains(rhs, &|id| WALLCLOCK_SOURCES.contains(&id))
                || value_contains(rhs, &|id| tainted.contains(id));
            if is_assign && rhs_tainted {
                // Target: `let [mut] x …` or the lvalue's idents
                // (`x`, `v[i]`, `self.f`).
                let lhs = &stmt[..eq];
                let start = usize::from(lhs.first().is_some_and(|n| n.is_ident("let")));
                for n in &lhs[start..] {
                    if let Some(id) = n.ident() {
                        if id != "mut" && id != "self" {
                            tainted.insert(id.to_string());
                        }
                    }
                }
            }
        }
        for n in stmt {
            if let Node::Group(g) = n {
                propagate_taint(&g.children, tainted);
            }
        }
    }
}

/// Rule `test-wallclock-assert` over one file's tree: inside a test
/// region, an `assert*!`/`debug_assert*!`/`prop_assert*!` whose
/// condition (the first argument; the first two of the `_eq`/`_ne`
/// forms) reads `Instant`/`SystemTime`, calls `elapsed()`, or names a
/// binding [`wallclock_taint`] derives from one. A reading that only
/// feeds the failure message is fine. How fast a machine runs a test is
/// not a property of the code, so such an assertion fails on a loaded
/// box; wall-clock budgets live in `benches/`.
pub fn check_test_wallclock(nodes: &[Node], tests: &TestRegions, out: &mut Vec<Violation>) {
    /// How many leading arguments of the assertion macro `name` form its
    /// condition (`None` for any other identifier).
    fn compared_args(name: &str) -> Option<usize> {
        let form = ["assert", "debug_assert", "prop_assert"]
            .iter()
            .find_map(|m| name.strip_prefix(m))?;
        match form {
            "" => Some(1),
            "_eq" | "_ne" => Some(2),
            _ => None,
        }
    }

    for item in functions(nodes) {
        if !tests.contains(item.line) {
            continue;
        }
        let tainted = wallclock_taint(&item);
        ast::visit(&item.body.children, &mut |sibs, i| {
            let (Some((name, compared)), Some(args)) = (
                sibs[i].ident().and_then(|n| Some((n, compared_args(n)?))),
                sibs.get(i + 1)
                    .filter(|n| n.is_punct('!'))
                    .and_then(|_| sibs.get(i + 2)?.group_with('(')),
            ) else {
                return;
            };
            let timed = split_on(&args.children, ',').take(compared).any(|arg| {
                contains_ident(arg, &|id| {
                    id == "elapsed" || WALLCLOCK_SOURCES.contains(&id) || tainted.contains(id)
                })
            });
            if timed {
                out.push(Violation::new(
                    RULE_TEST_WALLCLOCK,
                    sibs[i].line(),
                    format!(
                        "`{name}!` in test `{}` depends on a wall-clock reading — `cargo test` \
                         must pass on any machine under any load; move the budget to a bench, \
                         or justify with `// lint: allow(test-wallclock-assert) — <reason>`",
                        item.name
                    ),
                ));
            }
        });
    }
}

// ---------------------------------------------------------------------------
// spmd-rank-divergent-collective
// ---------------------------------------------------------------------------

/// Whether a branch header compares the local rank: any ident that is
/// `rank` or ends in `rank` (`from_rank`, `root_rank`, …).
fn is_rank_conditional(header: &[Node]) -> bool {
    contains_ident(header, &|id| id == "rank" || id.ends_with("_rank"))
}

/// Rule `spmd-rank-divergent-collective` over one file's tree: a
/// collective issued inside the brace tree of a rank-conditional
/// branch means some ranks issue it and others do not — the static
/// shape of a mismatched-schedule deadlock. Scoped by the caller to
/// the comm-issuing crates (`fsmoe`, `models`).
pub fn check_rank_divergent(nodes: &[Node], tests: &TestRegions, out: &mut Vec<Violation>) {
    ast::visit(nodes, &mut |sibs, i| {
        if !(sibs[i].is_ident("if") || sibs[i].is_ident("match")) {
            return;
        }
        let kw_line = sibs[i].line();
        let Some(body_off) = sibs[i..].iter().position(|n| n.group_with('{').is_some()) else {
            return;
        };
        if !is_rank_conditional(&sibs[i + 1..i + body_off]) {
            return;
        }
        // The branch body and every `else`/`else if` continuation:
        // whichever side holds the collective, only some ranks issue it.
        let mut j = i + body_off;
        loop {
            if let Some(body) = sibs.get(j).and_then(|n| n.group_with('{')) {
                ast::visit(&body.children, &mut |inner, k| {
                    let Some((op, _)) = collective_call_at(inner, k) else {
                        return;
                    };
                    let line = inner[k + 1].line();
                    if !tests.contains(line) {
                        out.push(Violation::new(
                            RULE_RANK_COLLECTIVE,
                            line,
                            format!(
                                "collective `{op}` is dominated by the rank-conditional \
                                 branch at line {kw_line} — ranks would disagree on the \
                                 collective schedule; hoist it out of the branch or justify \
                                 with `// lint: allow(spmd-rank-divergent-collective) — <reason>`"
                            ),
                        ));
                    }
                });
                j += 1;
            }
            if !sibs.get(j).is_some_and(|n| n.is_ident("else")) {
                break;
            }
            // Skip `else` and an `else if` header; the next `{` group
            // is that arm's body.
            j += 1;
            while j < sibs.len() && sibs[j].group_with('{').is_none() {
                j += 1;
            }
        }
    });
    out.dedup_by_key(|v| (v.rule, v.line));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::build;
    use crate::lexer::tokenize;

    fn check(src: &str, f: fn(&[Node], &TestRegions, &mut Vec<Violation>)) -> Vec<(u32, String)> {
        let toks = tokenize(src);
        let tree = build(&toks);
        let tests = crate::rules::test_regions(&toks);
        let mut out = Vec::new();
        f(&tree, &tests, &mut out);
        out.into_iter().map(|v| (v.line, v.message)).collect()
    }

    #[test]
    fn rank_conditional_collective_fires_but_hoisted_is_clean() {
        let src = "fn migrate(&self, from_rank: usize) {\n\
                   if self.rank == from_rank {\n\
                   pack();\n\
                   }\n\
                   self.comm.broadcast(from_rank, &mut buf);\n\
                   if self.rank == 0 { self.comm.barrier(); }\n\
                   }";
        let found = check(src, check_rank_divergent);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].0, 6);
        assert!(found[0].1.contains("barrier"));
    }

    #[test]
    fn rank_conditional_else_arm_is_also_flagged() {
        let src = "fn f(&self) {\n\
                   if self.rank == 0 { log(); } else { self.comm.barrier(); }\n\
                   }";
        let found = check(src, check_rank_divergent);
        assert_eq!(found.len(), 1);
    }
}
