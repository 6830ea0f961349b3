//! Per-function dataflow for the SPMD determinism rules.
//!
//! Works on the token tree ([`crate::ast`]): for each function it
//! tracks variable bindings (which locals hold unordered containers,
//! which hold wall-clock readings), follows method-call chains, and
//! summarises which parameters of same-file functions flow into
//! decisions. Three rules live here:
//!
//! * [`RULE_UNORDERED_ITER`] — iterating a std `HashMap`/`HashSet` in
//!   SPMD-decision code, unless the chain is order-insensitive
//!   (counted, min/max, emptiness) or re-ordered (collected into a
//!   BTree container, or collected into a `Vec` that is sorted);
//! * [`RULE_FLOAT_ACCUM`] — `sum`/`fold`/`product` reductions over an
//!   unordered container (accumulation order varies per process, so
//!   float results diverge across ranks);
//! * [`RULE_WALLCLOCK`] — `Instant::now`/`SystemTime` readings flowing
//!   into branch conditions or collective payloads, including one call
//!   hop through a same-file function whose parameter reaches a
//!   decision (param-sink summaries iterated to fixpoint);
//! * [`RULE_RANK_COLLECTIVE`] — a collective op lexically dominated by
//!   a rank-conditional branch (inside its brace tree, not merely
//!   after it), the static shape of a mismatched-schedule deadlock.
//!
//! This is intraprocedural, heuristic analysis: it tracks simple
//! `let`/assignment bindings, `self.field` accesses against same-file
//! struct declarations, and one level of cross-function flow. The
//! escape hatch for anything it cannot see is an explicit
//! `// lint: allow(<rule>) — <reason>`.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{self, functions, FnItem, Group, Node};
use crate::rules::{
    TestRegions, RULE_FLOAT_ACCUM, RULE_RANK_COLLECTIVE, RULE_TEST_WALLCLOCK, RULE_UNORDERED_ITER,
    RULE_WALLCLOCK,
};
use crate::Violation;

/// Methods that iterate a container in storage order.
const ITER_METHODS: [&str; 11] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
    "extract_if",
];

/// Chain links whose result cannot depend on iteration order.
const ORDER_INSENSITIVE: [&str; 12] = [
    "count",
    "len",
    "is_empty",
    "min",
    "max",
    "min_by",
    "max_by",
    "min_by_key",
    "max_by_key",
    "any",
    "all",
    "contains",
];

/// Chain links that accumulate in iteration order.
const ORDERED_REDUCERS: [&str; 3] = ["sum", "fold", "product"];

/// The std unordered containers.
const UNORDERED_TYPES: [&str; 2] = ["HashMap", "HashSet"];

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

fn is_unordered_type(name: &str) -> bool {
    UNORDERED_TYPES.contains(&name)
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

/// Field names declared with an unordered-container type anywhere in
/// the file (`ops: Mutex<HashMap<…>>` inside a struct body), so chains
/// rooted at `self.field` / `x.field` resolve.
fn unordered_fields(nodes: &[Node]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    ast::visit(nodes, &mut |sibs, i| {
        let body = sibs[i..]
            .iter()
            .skip(1)
            .take(8) // name + generics, then the body
            .find_map(|n| n.group_with('{'));
        let (true, Some(body)) = (sibs[i].is_ident("struct"), body) else {
            return;
        };
        let mut field: Option<&str> = None;
        let mut j = 0usize;
        while j < body.children.len() {
            let n = &body.children[j];
            if n.is_punct(':') {
                // type runs to the next top-level `,`
                let ty_end = body.children[j + 1..]
                    .iter()
                    .position(|n| n.is_punct(','))
                    .map_or(body.children.len(), |p| j + 1 + p);
                if contains_ident(&body.children[j + 1..ty_end], &is_unordered_type) {
                    out.extend(field.map(String::from));
                }
                j = ty_end;
                continue;
            }
            field = n.ident().or(field);
            j += 1;
        }
    });
    out
}

/// Binding names of unordered containers in one function: annotated or
/// constructed `let`s, plus parameters typed `HashMap`/`HashSet`.
fn unordered_bindings(item: &FnItem<'_>) -> BTreeSet<String> {
    let mut set = BTreeSet::new();
    for arg in split_on(&item.params.children, ',') {
        let Some(colon) = arg.iter().position(|n| n.is_punct(':')) else {
            continue;
        };
        if contains_ident(&arg[colon + 1..], &is_unordered_type) {
            if let Some(name) = arg[..colon].iter().rev().find_map(Node::ident) {
                set.insert(name.to_string());
            }
        }
    }
    collect_let_bindings(&item.body.children, &mut set);
    set
}

fn collect_let_bindings(nodes: &[Node], set: &mut BTreeSet<String>) {
    for stmt in split_on(nodes, ';') {
        if stmt.first().is_some_and(|n| n.is_ident("let")) {
            let mut k = 1usize;
            while stmt.get(k).is_some_and(|n| n.is_ident("mut")) {
                k += 1;
            }
            if let Some(name) = stmt.get(k).and_then(Node::ident) {
                let eq = stmt.iter().position(|n| n.is_punct('='));
                let colon = stmt.iter().position(|n| n.is_punct(':'));
                let unordered = match (colon, eq) {
                    // `let x: T = …` — trust the annotation.
                    (Some(c), Some(e)) if c < e => {
                        contains_ident(&stmt[c + 1..e], &is_unordered_type)
                    }
                    (Some(c), None) => contains_ident(&stmt[c + 1..], &is_unordered_type),
                    // `let x = …` — look for a constructor or a direct
                    // alias (`m`, `&m`, `m.clone()`) of an unordered
                    // binding already in scope.
                    (_, Some(e)) => {
                        let rhs = &stmt[e + 1..];
                        contains_ident(rhs, &is_unordered_type) || is_alias_of(rhs, set)
                    }
                    _ => false,
                };
                if unordered {
                    set.insert(name.to_string());
                }
            }
        }
        for n in stmt {
            if let Node::Group(g) = n {
                collect_let_bindings(&g.children, set);
            }
        }
    }
}

/// `m` / `&m` / `&mut m` / `m.clone()` where `m` is unordered.
fn is_alias_of(rhs: &[Node], set: &BTreeSet<String>) -> bool {
    let core: Vec<&Node> = rhs
        .iter()
        .filter(|n| !n.is_punct('&') && !n.is_ident("mut"))
        .collect();
    match core.as_slice() {
        [n] => n.ident().is_some_and(|id| set.contains(id)),
        [n, dot, m, g] => {
            n.ident().is_some_and(|id| set.contains(id))
                && dot.is_punct('.')
                && m.is_ident("clone")
                && g.group_with('(').is_some()
        }
        _ => false,
    }
}

/// One parsed postfix chain link: `.name(args?)`.
struct ChainLink<'a> {
    name: &'a str,
    line: u32,
}

/// Reads the rest of a postfix chain starting just past the link at
/// `idx` (its arg group, if any): `.m(…)` / `.field` / `?` links.
fn read_chain(nodes: &[Node], mut idx: usize) -> (Vec<ChainLink<'_>>, usize) {
    let mut links = Vec::new();
    loop {
        // optional `?`s between links
        while nodes.get(idx).is_some_and(|n| n.is_punct('?')) {
            idx += 1;
        }
        if !nodes.get(idx).is_some_and(|n| n.is_punct('.')) {
            return (links, idx);
        }
        let Some(name) = nodes.get(idx + 1).and_then(Node::ident) else {
            return (links, idx);
        };
        let line = nodes[idx + 1].line();
        let mut next = idx + 2;
        // turbofish `::<…>` then the arg group
        if nodes.get(next).is_some_and(|n| n.is_punct(':'))
            && nodes.get(next + 1).is_some_and(|n| n.is_punct(':'))
        {
            next += 2;
            let mut angle = 0i32;
            while let Some(n) = nodes.get(next) {
                if n.is_punct('<') {
                    angle += 1;
                } else if n.is_punct('>') {
                    angle -= 1;
                    if angle == 0 {
                        next += 1;
                        break;
                    }
                }
                next += 1;
            }
        }
        if nodes.get(next).and_then(|n| n.group_with('(')).is_some() {
            next += 1;
        }
        links.push(ChainLink { name, line });
        idx = next;
    }
}

/// Walks left from `idx` (exclusive) across a postfix chain to collect
/// the receiver's identifiers, leftmost last; e.g. for
/// `self.ops.lock().keys()` scanning left of `.keys` yields
/// `["lock", "ops", "self"]`.
fn receiver_idents(nodes: &[Node], idx: usize) -> Vec<&str> {
    let mut out = Vec::new();
    let mut k = idx;
    while k > 0 {
        k -= 1;
        match &nodes[k] {
            n if n.is_punct('.') || n.is_punct('?') => {}
            n if n.is_punct(':') => {} // path segments: HashMap::new
            Node::Group(g) if g.delim == '(' || g.delim == '[' => {}
            n => {
                if let Some(id) = n.ident() {
                    // A receiver continues only through `.`/`::`/call
                    // tokens; an ident preceded by e.g. `=` ends it.
                    out.push(id);
                    if k == 0 {
                        break;
                    }
                    let prev = &nodes[k - 1];
                    if !(prev.is_punct('.') || prev.is_punct(':')) {
                        break;
                    }
                } else {
                    break;
                }
            }
        }
    }
    out
}

/// Context shared by the unordered-iteration scan.
struct IterCtx<'a> {
    bindings: &'a BTreeSet<String>,
    fields: &'a BTreeSet<String>,
    /// The whole function body, for "is this Vec sorted later" checks.
    body: &'a Group,
}

impl IterCtx<'_> {
    fn receiver_is_unordered(&self, recv: &[&str]) -> bool {
        let Some(&root) = recv.last() else {
            return false;
        };
        if self.bindings.contains(root) || recv.iter().any(|id| is_unordered_type(id)) {
            return true;
        }
        // `self.field.…` / `x.field.…` with a known unordered field.
        recv.iter()
            .rev()
            .skip(1)
            .any(|id| self.fields.contains(*id))
    }

    /// Whether `name.sort*(…)` appears anywhere in the function.
    fn is_sorted_later(&self, name: &str) -> bool {
        fn scan(nodes: &[Node], name: &str) -> bool {
            nodes.windows(3).any(|w| {
                w[0].is_ident(name)
                    && w[1].is_punct('.')
                    && w[2].ident().is_some_and(|m| m.starts_with("sort"))
            }) || nodes
                .iter()
                .any(|n| n.group().is_some_and(|g| scan(&g.children, name)))
        }
        scan(&self.body.children, name)
    }
}

/// Rules `spmd-unordered-iteration` and `float-accum-order` over one
/// file's tree. Scoped by the caller to SPMD-decision files.
pub fn check_unordered_iteration(nodes: &[Node], tests: &TestRegions, out: &mut Vec<Violation>) {
    let fields = unordered_fields(nodes);
    for item in functions(nodes) {
        if tests.contains(item.line) {
            continue;
        }
        let bindings = unordered_bindings(&item);
        let ctx = IterCtx {
            bindings: &bindings,
            fields: &fields,
            body: item.body,
        };
        scan_iteration(&item.body.children, &ctx, out);
    }
    out.dedup_by_key(|v| (v.rule, v.line));
}

fn scan_iteration(nodes: &[Node], ctx: &IterCtx<'_>, out: &mut Vec<Violation>) {
    for stmt in split_on(nodes, ';') {
        scan_for_loops(stmt, ctx, out);
        for i in 0..stmt.len() {
            let Some(method) = stmt[i].ident() else {
                continue;
            };
            if !ITER_METHODS.contains(&method)
                || i == 0
                || !stmt[i - 1].is_punct('.')
                || stmt.get(i + 1).is_none_or(|n| n.group_with('(').is_none())
            {
                continue;
            }
            let recv = receiver_idents(stmt, i - 1);
            if !ctx.receiver_is_unordered(&recv) {
                continue;
            }
            let line = stmt[i].line();
            let root = recv.last().copied().unwrap_or("?");
            let (links, _) = read_chain(stmt, i + 2);
            judge_chain(stmt, method, root, line, &links, ctx, out);
        }
        for n in stmt {
            if let Node::Group(g) = n {
                scan_iteration(&g.children, ctx, out);
            }
        }
    }
}

/// Decides what a chain rooted at an unordered container amounts to.
fn judge_chain(
    stmt: &[Node],
    method: &str,
    root: &str,
    line: u32,
    links: &[ChainLink<'_>],
    ctx: &IterCtx<'_>,
    out: &mut Vec<Violation>,
) {
    if links.iter().any(|l| ORDER_INSENSITIVE.contains(&l.name)) {
        return; // counted / min-max / emptiness: order cannot matter
    }
    if let Some(red) = links.iter().find(|l| ORDERED_REDUCERS.contains(&l.name)) {
        out.push(Violation::new(
            RULE_FLOAT_ACCUM,
            red.line,
            format!(
                "`.{}()` accumulates `{root}` in {} iteration order, which differs per \
                 process — collect into a BTree container or sorted Vec first, or justify \
                 with `// lint: allow(float-accum-order) — <why commutative>`",
                red.name,
                if method == "drain" {
                    "drain"
                } else {
                    "storage"
                },
            ),
        ));
        return;
    }
    if links.iter().any(|l| l.name == "collect") {
        // Re-ordering sinks: collect into a BTree container (checked
        // via turbofish or the let annotation) or a Vec sorted later.
        let reordered = stmt
            .iter()
            .any(|n| n.is_ident("BTreeMap") || n.is_ident("BTreeSet") || n.is_ident("BinaryHeap"));
        let target = stmt.first().filter(|n| n.is_ident("let")).and_then(|_| {
            let mut k = 1usize;
            while stmt.get(k).is_some_and(|n| n.is_ident("mut")) {
                k += 1;
            }
            stmt.get(k).and_then(Node::ident)
        });
        let sorted = target.is_some_and(|t| ctx.is_sorted_later(t));
        if reordered || sorted {
            return;
        }
    }
    out.push(Violation::new(
        RULE_UNORDERED_ITER,
        line,
        format!(
            "`.{method}()` over unordered `{root}` in SPMD-decision code — iteration order \
             differs per process; use a BTree container, sort before deciding, or justify \
             with `// lint: allow(unordered-iter) — <why order-insensitive>`"
        ),
    ));
}

/// `for pat in <plain unordered binding>` (chains inside `for` headers
/// are handled by the chain scan).
fn scan_for_loops(stmt: &[Node], ctx: &IterCtx<'_>, out: &mut Vec<Violation>) {
    for (i, n) in stmt.iter().enumerate() {
        if !n.is_ident("for") {
            continue;
        }
        let Some(in_at) = stmt[i..].iter().position(|n| n.is_ident("in")) else {
            continue;
        };
        let Some(body_at) = stmt[i..].iter().position(|n| n.group_with('{').is_some()) else {
            continue;
        };
        if body_at <= in_at {
            continue;
        }
        let expr: Vec<&Node> = stmt[i + in_at + 1..i + body_at]
            .iter()
            .filter(|n| !n.is_punct('&') && !n.is_ident("mut"))
            .collect();
        let unordered = match expr.as_slice() {
            [n] => n.ident().is_some_and(|id| ctx.bindings.contains(id)),
            [s, dot, f] => {
                s.ident().is_some()
                    && dot.is_punct('.')
                    && f.ident().is_some_and(|id| ctx.fields.contains(id))
            }
            _ => false,
        };
        if unordered {
            let root = expr.iter().rev().find_map(|n| n.ident()).unwrap_or("?");
            out.push(Violation::new(
                RULE_UNORDERED_ITER,
                n.line(),
                format!(
                    "`for … in {root}` iterates an unordered container in SPMD-decision \
                     code — iteration order differs per process; use a BTree container, \
                     sort first, or justify with `// lint: allow(unordered-iter) — <reason>`"
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// spmd-wallclock-decision
// ---------------------------------------------------------------------------

const WALLCLOCK_SOURCES: [&str; 2] = ["Instant", "SystemTime"];

fn has_wallclock_source(nodes: &[Node]) -> bool {
    contains_ident(nodes, &|id| WALLCLOCK_SOURCES.contains(&id))
}

/// Which parameters of each function flow into a decision (a branch
/// condition or a collective payload), directly or through another
/// same-file call. Key: function name; value: sink positions among the
/// non-`self` parameters.
fn param_sink_summaries(nodes: &[Node]) -> BTreeMap<String, BTreeSet<usize>> {
    let items = functions(nodes);
    let mut sinks: BTreeMap<String, BTreeSet<usize>> = BTreeMap::new();
    // Fixpoint: a param is a sink if it reaches a branch/collective in
    // its own body, or a sink param of a function called from there.
    for _ in 0..8 {
        let mut changed = false;
        for item in &items {
            let params = param_names(item);
            let mut found = BTreeSet::new();
            for (pos, name) in params.iter().enumerate() {
                let tainted: BTreeSet<String> = [name.clone()].into_iter().collect();
                if reaches_decision(&item.body.children, &tainted, &sinks) {
                    found.insert(pos);
                }
            }
            let entry = sinks.entry(item.name.clone()).or_default();
            if found.iter().any(|p| !entry.contains(p)) {
                entry.extend(found);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    sinks
}

/// Non-`self` parameter names in declaration order.
fn param_names(item: &FnItem<'_>) -> Vec<String> {
    split_on(&item.params.children, ',')
        .filter_map(|arg| {
            let colon = arg.iter().position(|n| n.is_punct(':'))?;
            arg[..colon]
                .iter()
                .rev()
                .find_map(Node::ident)
                .map(String::from)
        })
        .filter(|n| n != "self")
        .collect()
}

fn set_contains_any(nodes: &[Node], set: &BTreeSet<String>) -> bool {
    contains_ident(nodes, &|id| set.contains(id))
}

/// Whether any ident in `tainted` reaches a branch condition, a
/// collective payload, or a sink param of a summarised callee.
fn reaches_decision(
    nodes: &[Node],
    tainted: &BTreeSet<String>,
    sinks: &BTreeMap<String, BTreeSet<usize>>,
) -> bool {
    !find_decision_flows(nodes, tainted, sinks).is_empty()
}

/// Each place a tainted ident flows into a decision: (line, detail).
fn find_decision_flows(
    nodes: &[Node],
    tainted: &BTreeSet<String>,
    sinks: &BTreeMap<String, BTreeSet<usize>>,
) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    ast::visit(nodes, &mut |sibs, i| {
        let n = &sibs[i];
        if let Some(kw @ ("if" | "while" | "match")) = n.ident() {
            // Header runs to the first `{` group at this level; the
            // body group is scanned when the visit reaches it.
            let end = sibs[i..]
                .iter()
                .position(|n| n.group_with('{').is_some())
                .map_or(sibs.len(), |p| i + p);
            let header = &sibs[i + 1..end];
            if set_contains_any(header, tainted) || has_wallclock_source(header) {
                out.push((n.line(), format!("`{kw}` condition at line {}", n.line())));
            }
        }
        // `.collective(args)` with a tainted payload.
        if let Some((op, args)) = collective_call_at(sibs, i) {
            if set_contains_any(&args.children, tainted) {
                let line = sibs[i + 1].line();
                out.push((line, format!("collective `{op}` payload at line {line}")));
            }
        }
        // `callee(args)` / `.callee(args)` with a tainted arg in a
        // sink position of a summarised same-file function.
        let call = n
            .ident()
            .zip(sibs.get(i + 1).and_then(|n| n.group_with('(')));
        if let Some((callee, args, positions)) =
            call.and_then(|(callee, args)| Some((callee, args, sinks.get(callee)?)))
        {
            for (pos, arg) in split_on(&args.children, ',').enumerate() {
                if positions.contains(&pos) && set_contains_any(arg, tainted) {
                    out.push((
                        n.line(),
                        format!(
                            "`{callee}` parameter {pos} (a decision input) at line {}",
                            n.line()
                        ),
                    ));
                }
            }
        }
    });
    out
}

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

/// Rule `spmd-wallclock-decision` over one file's tree. Scoped by the
/// caller to verdict modules.
pub fn check_wallclock(nodes: &[Node], tests: &TestRegions, out: &mut Vec<Violation>) {
    let sinks = param_sink_summaries(nodes);
    for item in functions(nodes) {
        if tests.contains(item.line) {
            continue;
        }
        let tainted = wallclock_taint(&item);
        if tainted.is_empty() && !has_wallclock_source(&item.body.children) {
            continue;
        }
        for (line, detail) in find_decision_flows(&item.body.children, &tainted, &sinks) {
            if tests.contains(line) {
                continue;
            }
            out.push(Violation::new(
                RULE_WALLCLOCK,
                line,
                format!(
                    "wall-clock reading flows into {detail} in `{}` — per-rank time must \
                     not steer an SPMD verdict unless it is all-reduced first; justify \
                     with `// lint: allow(wallclock-decision) — <why fleet-identical>`",
                    item.name
                ),
            ));
        }
    }
    out.dedup_by_key(|v| (v.rule, v.line));
}

// ---------------------------------------------------------------------------
// test-wallclock-assert
// ---------------------------------------------------------------------------

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
                                 with `// lint: allow(rank-divergent-collective) — <reason>`"
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
    fn hashmap_keys_iteration_fires() {
        let src = "use std::collections::HashMap;\n\
                   fn verdict(m: &HashMap<u32, f32>) -> u32 {\n\
                   for k in m.keys() { register(k); }\n\
                   0 }";
        let found = check(src, check_unordered_iteration);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].0, 3);
    }

    #[test]
    fn counted_and_btree_collected_chains_are_clean() {
        let src = "fn f(m: &std::collections::HashMap<u32, f32>) {\n\
                   let n = m.values().count();\n\
                   let o: std::collections::BTreeMap<u32, f32> = m.iter().map(|(k, v)| (*k, *v)).collect();\n\
                   let mut v: Vec<u32> = m.keys().copied().collect();\n\
                   v.sort_unstable();\n\
                   }";
        assert!(check(src, check_unordered_iteration).is_empty());
    }

    #[test]
    fn float_sum_over_hashmap_fires_as_accum_rule() {
        let src = "fn f(m: &std::collections::HashMap<u32, f32>) -> f32 {\n\
                   m.values().sum()\n\
                   }";
        let toks = tokenize(src);
        let tree = build(&toks);
        let tests = crate::rules::test_regions(&toks);
        let mut out = Vec::new();
        check_unordered_iteration(&tree, &tests, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, RULE_FLOAT_ACCUM);
        assert_eq!(out[0].line, 2);
    }

    #[test]
    fn wallclock_taint_reaches_branch_through_local_fn() {
        let src = "fn caller(&mut self) {\n\
                   let t0 = Instant::now();\n\
                   let us = t0.elapsed().as_micros() as u64;\n\
                   self.decide(us);\n\
                   }\n\
                   fn decide(&mut self, us: u64) {\n\
                   if us > 10 { evict(); }\n\
                   }";
        let found = check(src, check_wallclock);
        // line 4: tainted arg into sink param; line 7 is clean in
        // isolation (param taint only flows via the summary).
        assert!(found.iter().any(|(l, _)| *l == 4), "{found:?}");
    }

    #[test]
    fn wallclock_metrics_only_use_is_clean() {
        let src = "fn observe(&self) {\n\
                   let t0 = Instant::now();\n\
                   record_hist(NAME, t0.elapsed().as_secs_f64());\n\
                   }";
        assert!(check(src, check_wallclock).is_empty());
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
