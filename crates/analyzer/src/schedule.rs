//! Static collective-schedule extraction and symmetry checking.
//!
//! Walks the token tree of every comm-issuing crate (`collectives`,
//! `fsmoe`, `models`) and builds a per-function op-graph of collective
//! calls (`all_reduce`, `broadcast`, `propose_evict`, …) with their
//! control-flow structure: straight-line ops, branches with arms,
//! loops. From the graph it derives:
//!
//! * a machine-readable report (`analyzer --schedule-report`, emitted
//!   via `jsonio` and diffed against `results/schedule_report.json` in
//!   ci.sh) so collective-schedule drift shows up in review;
//! * a symmetry cross-check: a function that issues collectives must
//!   issue the *same op sequence on every control path*, or the
//!   divergence is named in the report. Branch arms that exit
//!   (`return`/`break`/`continue`/`panic!`) are excluded — an error
//!   path that abandons the schedule is not a divergence. A branch
//!   with no `else` is a guard: its predicate must be fleet-uniform,
//!   and the rank-conditional case is separately an error under
//!   `spmd-rank-divergent-collective` ([`crate::flow`]).

use std::collections::BTreeMap;
use std::path::Path;

use jsonio::Json;

use crate::ast::{self, build, functions, parse_fn_at, Group, Node};
use crate::lexer::tokenize;
use crate::rules::TestRegions;

/// The collective operations whose call sites form the schedule.
/// Sorted; covers both the transport verbs (`GroupComm`, whose `_into`
/// forms are reported under the plain verb — the same collective into a
/// caller-provided buffer) and the control-plane collectives
/// (`Communicator`).
pub const COLLECTIVE_OPS: [&str; 10] = [
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

/// One node of a function's collective op-graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpNode {
    /// A collective call site.
    Op {
        /// The operation name.
        op: String,
    },
    /// An `if`/`else` chain or `match`: one sub-sequence per arm.
    Branch {
        /// Line of the `if`/`match` keyword.
        line: u32,
        /// The explicit arms in source order.
        arms: Vec<Seq>,
        /// Whether the chain ends in an unconditional `else` (or is a
        /// `match`, which is exhaustive). Without one the branch is a
        /// guard, not a set of alternatives.
        has_else: bool,
    },
    /// A `for`/`while`/`loop` body.
    Loop {
        /// Ops issued per iteration.
        body: Seq,
    },
}

/// A sequence of op-graph nodes plus whether the path exits the
/// function early at this level.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Seq {
    /// The nodes in source order.
    pub nodes: Vec<OpNode>,
    /// Whether a top-level `return`/`break`/`continue`/`panic!`-family
    /// token makes this path abandon the rest of the schedule.
    pub exits: bool,
}

/// One function's extracted schedule.
#[derive(Debug)]
pub struct FnSchedule {
    /// Function name.
    pub name: String,
    /// The op-graph of its body.
    pub graph: Seq,
}

/// A named asymmetry: two non-exiting arms of one branch issue
/// different op sequences.
#[derive(Debug)]
pub struct Divergence {
    /// Repo-relative file.
    pub file: String,
    /// Function name.
    pub function: String,
    /// Line of the branch keyword.
    pub line: u32,
    /// Flattened op names per non-exiting arm.
    pub arms: Vec<Vec<String>>,
}

/// The collective call `.op(args)` whose `.` is `nodes[i]`: the op's
/// name and its argument group.
pub(crate) fn collective_call_at(nodes: &[Node], i: usize) -> Option<(&str, &Group)> {
    if !nodes[i].is_punct('.') {
        return None;
    }
    let op = nodes.get(i + 1)?.ident()?;
    let args = nodes.get(i + 2)?.group_with('(')?;
    COLLECTIVE_OPS
        .contains(&op)
        .then_some((op.strip_suffix("_into").unwrap_or(op), args))
}

fn is_exit_ident(nodes: &[Node], i: usize) -> bool {
    let Some(id) = nodes[i].ident() else {
        return false;
    };
    match id {
        "return" | "break" | "continue" => true,
        "panic" | "unreachable" | "todo" | "unimplemented" => {
            nodes.get(i + 1).is_some_and(|n| n.is_punct('!'))
        }
        _ => false,
    }
}

/// Extracts the op-graph of a node list (a function body or one arm).
#[must_use]
pub fn extract_seq(nodes: &[Node]) -> Seq {
    let mut seq = Seq::default();
    let mut i = 0usize;
    while i < nodes.len() {
        let n = &nodes[i];
        // Nested `fn` items get their own schedule; skip them here.
        if n.is_ident("fn") {
            if let Some((_, next)) = parse_fn_at(nodes, i) {
                i = next;
                continue;
            }
        }
        if is_exit_ident(nodes, i) {
            seq.exits = true;
            i += 1;
            continue;
        }
        if n.is_ident("if") || n.is_ident("match") {
            let is_match = n.is_ident("match");
            let line = n.line();
            let Some(body_off) = nodes[i..].iter().position(|n| n.group_with('{').is_some()) else {
                i += 1;
                continue;
            };
            // Ops in the header (condition / scrutinee) run on every
            // path that reaches the branch.
            let header_seq = extract_seq(&nodes[i + 1..i + body_off]);
            seq.nodes.extend(header_seq.nodes);
            let body = nodes[i + body_off].group_with('{').expect("positioned");
            if is_match {
                seq.nodes.push(OpNode::Branch {
                    line,
                    arms: match_arms(&body.children),
                    has_else: true,
                });
                i += body_off + 1;
                continue;
            }
            let mut arms = vec![extract_seq(&body.children)];
            let mut has_else = false;
            let mut j = i + body_off + 1;
            while nodes.get(j).is_some_and(|n| n.is_ident("else")) {
                if nodes.get(j + 1).is_some_and(|n| n.is_ident("if")) {
                    // else-if: its header ops belong to this arm.
                    let Some(off) = nodes[j + 1..]
                        .iter()
                        .position(|n| n.group_with('{').is_some())
                    else {
                        break;
                    };
                    let mut arm = extract_seq(&nodes[j + 2..j + 1 + off]);
                    let g = nodes[j + 1 + off].group_with('{').expect("positioned");
                    let body_seq = extract_seq(&g.children);
                    arm.nodes.extend(body_seq.nodes);
                    arm.exits = body_seq.exits;
                    arms.push(arm);
                    j += off + 2;
                } else if let Some(g) = nodes.get(j + 1).and_then(|n| n.group_with('{')) {
                    arms.push(extract_seq(&g.children));
                    has_else = true;
                    j += 2;
                    break;
                } else {
                    break;
                }
            }
            seq.nodes.push(OpNode::Branch {
                line,
                arms,
                has_else,
            });
            i = j;
            continue;
        }
        if n.is_ident("for") || n.is_ident("while") || n.is_ident("loop") {
            let Some(body_off) = nodes[i..].iter().position(|n| n.group_with('{').is_some()) else {
                i += 1;
                continue;
            };
            // `while` conditions run per iteration; fold header ops
            // into the loop body.
            let mut body = extract_seq(&nodes[i + 1..i + body_off]);
            let g = nodes[i + body_off].group_with('{').expect("positioned");
            let inner = extract_seq(&g.children);
            body.nodes.extend(inner.nodes);
            // `break`/`continue` inside the body terminate iterations,
            // not the function.
            body.exits = false;
            if !body.nodes.is_empty() {
                seq.nodes.push(OpNode::Loop { body });
            }
            i += body_off + 1;
            continue;
        }
        // `.op(args)`: argument ops evaluate first, then the call.
        if let Some((op, args)) = collective_call_at(nodes, i) {
            seq.nodes.extend(extract_seq(&args.children).nodes);
            seq.nodes.push(OpNode::Op { op: op.to_string() });
            i += 3;
            continue;
        }
        // Any other group (call args, indexing, let-else blocks, plain
        // blocks): splice its ops into the current path. Exits inside
        // a spliced sub-block (e.g. the `return` of a `let … else`)
        // leave the main path's ops intact.
        if let Node::Group(g) = n {
            let inner = extract_seq(&g.children);
            seq.nodes.extend(inner.nodes);
        }
        i += 1;
    }
    seq
}

/// The per-arm sequences of a `match` body. A block arm is its own
/// path (its exits count); an expression arm is scanned in place.
fn match_arms(body: &[Node]) -> Vec<Seq> {
    ast::match_arms(body)
        .into_iter()
        .map(|(_, value)| match value {
            [Node::Group(block)] if block.delim == '{' => extract_seq(&block.children),
            _ => extract_seq(value),
        })
        .collect()
}

/// Flattens a sequence to its canonical op-name list. Branches
/// contribute their first non-exiting arm (arms are cross-checked for
/// symmetry separately); loops contribute one iteration.
#[must_use]
pub fn flatten(seq: &Seq) -> Vec<String> {
    let mut out = Vec::new();
    for node in &seq.nodes {
        match node {
            OpNode::Op { op, .. } => out.push(op.clone()),
            OpNode::Branch { arms, .. } => {
                if let Some(arm) = arms.iter().find(|a| !a.exits) {
                    out.extend(flatten(arm));
                }
            }
            OpNode::Loop { body, .. } => out.extend(flatten(body)),
        }
    }
    out
}

/// Number of op call sites in a sequence, branches and loops included.
#[must_use]
pub fn count_sites(seq: &Seq) -> usize {
    seq.nodes
        .iter()
        .map(|n| match n {
            OpNode::Op { .. } => 1,
            OpNode::Branch { arms, .. } => arms.iter().map(count_sites).sum(),
            OpNode::Loop { body, .. } => count_sites(body),
        })
        .sum()
}

/// Collects symmetry divergences in one function's graph: any branch
/// with an unconditional alternative whose non-exiting arms flatten to
/// different op sequences.
pub fn find_divergences(file: &str, function: &str, seq: &Seq, out: &mut Vec<Divergence>) {
    for node in &seq.nodes {
        match node {
            OpNode::Op { .. } => {}
            OpNode::Branch {
                line,
                arms,
                has_else,
            } => {
                if *has_else {
                    let alive: Vec<Vec<String>> =
                        arms.iter().filter(|a| !a.exits).map(flatten).collect();
                    if alive.windows(2).any(|w| w[0] != w[1]) {
                        out.push(Divergence {
                            file: file.to_string(),
                            function: function.to_string(),
                            line: *line,
                            arms: alive,
                        });
                    }
                }
                for arm in arms {
                    find_divergences(file, function, arm, out);
                }
            }
            OpNode::Loop { body, .. } => find_divergences(file, function, body, out),
        }
    }
}

fn seq_to_json(seq: &Seq) -> Json {
    Json::Arr(seq.nodes.iter().map(node_to_json).collect())
}

fn node_to_json(node: &OpNode) -> Json {
    match node {
        OpNode::Op { op } => Json::obj([("op", Json::from(op.as_str()))]),
        OpNode::Branch { arms, has_else, .. } => Json::obj([
            ("has_else", Json::from(*has_else)),
            ("arms", Json::Arr(arms.iter().map(seq_to_json).collect())),
            (
                "arm_exits",
                Json::Arr(arms.iter().map(|a| Json::from(a.exits)).collect()),
            ),
        ]),
        OpNode::Loop { body } => Json::obj([("body", seq_to_json(body))]),
    }
}

/// Extracts the schedules of every non-test function in one file that
/// issues at least one collective.
#[must_use]
pub fn file_schedules(src: &str) -> Vec<FnSchedule> {
    let tree = build(&tokenize(src));
    let tests = TestRegions::of(&tree);
    functions(&tree)
        .into_iter()
        .filter(|f| !tests.contains(f.line))
        .map(|f| FnSchedule {
            name: f.name.clone(),
            graph: extract_seq(&f.body.children),
        })
        .filter(|s| count_sites(&s.graph) > 0)
        .collect()
}

/// One file's report entries, keyed by function name so that moving
/// code up or down a file leaves them untouched. Where several reported
/// functions share a name (trait impls of one method), each key carries
/// its 1-based ordinal among them in source order: `name#k`.
#[must_use]
pub fn file_entries(schedules: &[FnSchedule]) -> BTreeMap<String, Json> {
    let count = |name: &str| schedules.iter().filter(|s| s.name == name).count();
    let mut seen = BTreeMap::<&str, usize>::new();
    let mut entries = BTreeMap::new();
    for s in schedules {
        let key = if count(&s.name) > 1 {
            let k = seen.entry(&s.name).or_default();
            *k += 1;
            format!("{}#{k}", s.name)
        } else {
            s.name.clone()
        };
        entries.insert(
            key,
            Json::obj([
                ("graph", seq_to_json(&s.graph)),
                (
                    "sequence",
                    Json::Arr(flatten(&s.graph).into_iter().map(Json::from).collect()),
                ),
            ]),
        );
    }
    entries
}

/// The crates whose sources form the collective schedule.
const SCHEDULE_SCOPE: [&str; 3] = [
    "crates/collectives/src/",
    "crates/fsmoe/src/",
    "crates/models/src/",
];

/// Builds the full schedule report over the workspace at `root`:
/// per-file, per-function op-graphs plus the named divergences.
#[must_use]
pub fn schedule_report(root: &Path) -> Json {
    let mut files = BTreeMap::new();
    let mut divergences = Vec::new();
    let mut total_sites = 0usize;
    for rel_path in crate::workspace_files(root) {
        let rel = rel_path.to_string_lossy().replace('\\', "/");
        if !SCHEDULE_SCOPE.iter().any(|p| rel.starts_with(p)) {
            continue;
        }
        let Ok(src) = std::fs::read_to_string(root.join(&rel_path)) else {
            continue;
        };
        let schedules = file_schedules(&src);
        if schedules.is_empty() {
            continue;
        }
        for s in &schedules {
            total_sites += count_sites(&s.graph);
            find_divergences(&rel, &s.name, &s.graph, &mut divergences);
        }
        files.insert(rel, Json::Obj(file_entries(&schedules)));
    }
    divergences.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Json::obj([
        ("version", Json::from(1.0)),
        ("total_sites", Json::from(total_sites)),
        ("files", Json::Obj(files)),
        (
            "divergences",
            Json::Arr(
                divergences
                    .iter()
                    .map(|d| {
                        Json::obj([
                            ("file", Json::from(d.file.as_str())),
                            ("function", Json::from(d.function.as_str())),
                            ("line", Json::from(f64::from(d.line))),
                            (
                                "arms",
                                Json::Arr(
                                    d.arms
                                        .iter()
                                        .map(|a| {
                                            Json::Arr(
                                                a.iter().map(|s| Json::from(s.as_str())).collect(),
                                            )
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(src: &str) -> Vec<FnSchedule> {
        file_schedules(src)
    }

    #[test]
    fn straight_line_ops_in_order() {
        let s = graph("fn f(&self) { self.g.all_reduce(&mut v); self.g.barrier(); }");
        assert_eq!(s.len(), 1);
        assert_eq!(flatten(&s[0].graph), ["all_reduce", "barrier"]);
        assert_eq!(count_sites(&s[0].graph), 2);
    }

    #[test]
    fn symmetric_branch_is_not_divergent() {
        let src = "fn f(&self, x: bool) {\n\
                   if x { self.g.all_reduce(&mut a); } else { self.g.all_reduce(&mut b); }\n\
                   }";
        let s = graph(src);
        let mut d = Vec::new();
        find_divergences("t.rs", &s[0].name, &s[0].graph, &mut d);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn asymmetric_else_is_named() {
        let src = "fn f(&self, x: bool) {\n\
                   if x { self.g.all_reduce(&mut a); } else { self.g.barrier(); }\n\
                   }";
        let s = graph(src);
        let mut d = Vec::new();
        find_divergences("t.rs", &s[0].name, &s[0].graph, &mut d);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 2);
        assert_eq!(d[0].arms, [vec!["all_reduce"], vec!["barrier"]]);
    }

    #[test]
    fn exiting_arm_is_excluded_from_symmetry() {
        let src = "fn f(&self, x: bool) -> Result<(), E> {\n\
                   if x { return Ok(()); } else { self.g.barrier(); }\n\
                   self.g.all_reduce(&mut v);\n\
                   Ok(())\n\
                   }";
        let s = graph(src);
        let mut d = Vec::new();
        find_divergences("t.rs", &s[0].name, &s[0].graph, &mut d);
        assert!(d.is_empty(), "{d:?}");
        assert_eq!(flatten(&s[0].graph), ["barrier", "all_reduce"]);
    }

    #[test]
    fn guard_without_else_is_not_compared() {
        let src = "fn f(&self, warm: bool) {\n\
                   if warm { self.g.barrier(); }\n\
                   }";
        let s = graph(src);
        let mut d = Vec::new();
        find_divergences("t.rs", &s[0].name, &s[0].graph, &mut d);
        assert!(d.is_empty());
    }

    #[test]
    fn match_arms_are_compared() {
        let src = "fn f(&self, k: K) {\n\
                   match k {\n\
                   K::A => self.g.all_reduce(&mut v),\n\
                   K::B => { self.g.all_to_all(&mut v); }\n\
                   }\n\
                   }";
        let s = graph(src);
        let mut d = Vec::new();
        find_divergences("t.rs", &s[0].name, &s[0].graph, &mut d);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].arms, [vec!["all_reduce"], vec!["all_to_all"]]);
    }

    #[test]
    fn loops_and_let_else_splice_cleanly() {
        let src = "fn f(&self) -> Result<(), E> {\n\
                   let Some(g) = self.group() else { return Ok(()); };\n\
                   for _ in 0..3 { g.all_gather(&v); }\n\
                   g.reduce_scatter(&mut v)?;\n\
                   Ok(())\n\
                   }";
        let s = graph(src);
        assert_eq!(flatten(&s[0].graph), ["all_gather", "reduce_scatter"]);
        // The let-else `return` must not mark the main path as exiting.
        assert!(!s[0].graph.exits);
    }

    #[test]
    fn test_functions_are_excluded() {
        let src = "#[cfg(test)]\nmod tests {\n fn t(&self) { g.barrier(); }\n}\n";
        assert!(graph(src).is_empty());
    }
}
