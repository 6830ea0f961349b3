//! Token tree: the delimiter-balanced layer between the flat token
//! stream ([`crate::lexer`]) and every rule ([`crate::rules`],
//! [`crate::flow`]).
//!
//! The tree pairs every `{`/`(`/`[` with its closer and nests the
//! tokens in between, so rules ask structural questions ("is this
//! collective call inside the body of that `if`?") instead of counting depth by hand. Stray
//! closers are tolerated — a lint must never panic on the code it is
//! linting — by closing the innermost open group and dropping the
//! orphan.

use crate::lexer::{Tok, Token};

/// One node of the token tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// A non-delimiter token.
    Leaf(Token),
    /// A delimited group and everything inside it.
    Group(Group),
}

/// A delimiter-balanced group: `{ … }`, `( … )` or `[ … ]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Group {
    /// The opening delimiter: `'{'`, `'('` or `'['`.
    pub delim: char,
    /// Line of the opening delimiter.
    pub open_line: u32,
    /// Line of the closing delimiter (or of the last token when the
    /// source was truncated).
    pub close_line: u32,
    /// The nodes between the delimiters.
    pub children: Vec<Node>,
}

impl Node {
    /// The identifier text, if this is an identifier leaf.
    #[must_use]
    pub fn ident(&self) -> Option<&str> {
        match self {
            Node::Leaf(t) => t.ident(),
            Node::Group(_) => None,
        }
    }

    /// Whether this is the identifier `s`.
    #[must_use]
    pub fn is_ident(&self, s: &str) -> bool {
        self.ident() == Some(s)
    }

    /// Whether this is punct leaf `c`.
    #[must_use]
    pub fn is_punct(&self, c: char) -> bool {
        matches!(self, Node::Leaf(t) if t.is_punct(c))
    }

    /// The group, if this is one.
    #[must_use]
    pub fn group(&self) -> Option<&Group> {
        match self {
            Node::Group(g) => Some(g),
            Node::Leaf(_) => None,
        }
    }

    /// The group, if this is one with delimiter `delim`.
    #[must_use]
    pub fn group_with(&self, delim: char) -> Option<&Group> {
        self.group().filter(|g| g.delim == delim)
    }

    /// 1-based line this node starts on.
    #[must_use]
    pub fn line(&self) -> u32 {
        match self {
            Node::Leaf(t) => t.line,
            Node::Group(g) => g.open_line,
        }
    }
}

/// Calls `f(siblings, i)` for every node of the forest, each with the
/// sibling list it sits in, parents before children — the one
/// traversal the pattern rules share.
pub fn visit<'a>(nodes: &'a [Node], f: &mut impl FnMut(&'a [Node], usize)) {
    for (i, n) in nodes.iter().enumerate() {
        f(nodes, i);
        if let Node::Group(g) = n {
            visit(&g.children, f);
        }
    }
}

/// The index just past a `::` starting at `nodes[at]`, if one does.
#[must_use]
pub fn colons_at(nodes: &[Node], at: usize) -> Option<usize> {
    (nodes.get(at)?.is_punct(':') && nodes.get(at + 1)?.is_punct(':')).then_some(at + 2)
}

/// Whether `nodes[i..]` spells the path `segs[0] :: segs[1] :: …`;
/// returns the index just past its last segment.
#[must_use]
pub fn path_at(nodes: &[Node], i: usize, segs: &[&str]) -> Option<usize> {
    let mut at = i;
    for (k, seg) in segs.iter().enumerate() {
        if k > 0 {
            at = colons_at(nodes, at)?;
        }
        if !nodes.get(at)?.is_ident(seg) {
            return None;
        }
        at += 1;
    }
    Some(at)
}

fn closer(open: char) -> char {
    match open {
        '{' => '}',
        '(' => ')',
        _ => ']',
    }
}

/// Builds the token forest for a whole file.
#[must_use]
pub fn build(toks: &[Token]) -> Vec<Node> {
    let mut i = 0usize;
    parse_nodes(toks, &mut i, None)
}

/// Parses nodes until EOF or until `until` (the enclosing group's
/// closer) is seen; `i` is left past the consumed tokens but *on* the
/// closer so the caller can record its line.
fn parse_nodes(toks: &[Token], i: &mut usize, until: Option<char>) -> Vec<Node> {
    let mut out = Vec::new();
    while *i < toks.len() {
        let t = &toks[*i];
        match &t.tok {
            Tok::Punct(c @ ('{' | '(' | '[')) => {
                let open = *c;
                let open_line = t.line;
                *i += 1;
                let children = parse_nodes(toks, i, Some(closer(open)));
                let close_line = toks
                    .get(*i)
                    .map_or_else(|| toks.last().map_or(open_line, |t| t.line), |t| t.line);
                if *i < toks.len() {
                    *i += 1; // consume the closer
                }
                out.push(Node::Group(Group {
                    delim: open,
                    open_line,
                    close_line,
                    children,
                }));
            }
            Tok::Punct(c @ ('}' | ')' | ']')) => {
                if Some(*c) == until {
                    return out; // caller consumes the closer
                }
                // Orphan closer (macro soup, truncated file): drop it.
                *i += 1;
            }
            _ => {
                out.push(Node::Leaf(t.clone()));
                *i += 1;
            }
        }
    }
    out
}

/// A function item found in the tree: `fn name(params) … { body }`.
#[derive(Debug)]
pub struct FnItem<'a> {
    /// The function's name.
    pub name: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// The body `{ … }` group (absent for trait-method signatures).
    pub body: &'a Group,
}

/// Collects every function with a body, at any nesting depth (free
/// functions, impl methods, functions inside `mod` blocks). Nested
/// `fn` items inside a body are reported separately as their own
/// entries; callers that walk a body should skip nested `fn` items to
/// avoid attributing inner statements to the outer function.
#[must_use]
pub fn functions(nodes: &[Node]) -> Vec<FnItem<'_>> {
    let mut out = Vec::new();
    collect_fns(nodes, &mut out);
    out
}

fn collect_fns<'a>(nodes: &'a [Node], out: &mut Vec<FnItem<'a>>) {
    let mut i = 0usize;
    while i < nodes.len() {
        if let Some((item, next)) = parse_fn_at(nodes, i) {
            let body = item.body;
            out.push(item);
            collect_fns(&body.children, out);
            i = next;
            continue;
        }
        if let Node::Group(g) = &nodes[i] {
            collect_fns(&g.children, out);
        }
        i += 1;
    }
}

/// Tries to parse a `fn name … (params) … { body }` item starting at
/// `nodes[i]`; returns the item and the index just past the body.
fn parse_fn_at(nodes: &[Node], i: usize) -> Option<(FnItem<'_>, usize)> {
    if !nodes[i].is_ident("fn") {
        return None;
    }
    // `fn(usize) -> bool` pointer types have no name ident after `fn`.
    let name = nodes.get(i + 1)?.ident()?.to_string();
    let line = nodes[i].line();
    // Skip generics `<…>` between the name and the parameter list;
    // `->` arrows inside generic bounds must not decrement the depth.
    let mut j = i + 2;
    let mut angle = 0i32;
    loop {
        let n = nodes.get(j)?;
        if angle == 0 && n.group_with('(').is_some() {
            break;
        }
        if n.is_punct('<') {
            angle += 1;
        } else if n.is_punct('>') && !nodes.get(j - 1).is_some_and(|p| p.is_punct('-')) {
            angle -= 1;
        } else if n.is_punct(';') || n.is_punct('{') {
            return None; // malformed; bail rather than mis-parse
        }
        j += 1;
    }
    // Return type / where clause, then the body (or `;` for a
    // bodyless trait signature).
    j += 1;
    loop {
        let n = nodes.get(j)?;
        if let Some(body) = n.group_with('{') {
            return Some((FnItem { name, line, body }, j + 1));
        }
        if n.is_punct(';') {
            return None;
        }
        j += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn tree(src: &str) -> Vec<Node> {
        build(&tokenize(src))
    }

    #[test]
    fn groups_nest_and_carry_lines() {
        let nodes = tree("fn f() {\n  g(a, [b]);\n}");
        // fn, f, (), {}
        assert_eq!(nodes.len(), 4);
        let body = nodes[3].group_with('{').unwrap();
        assert_eq!(body.open_line, 1);
        assert_eq!(body.close_line, 3);
        let call = body.children[1].group_with('(').unwrap();
        assert!(call.children[2].group_with('[').is_some());
    }

    #[test]
    fn stray_closer_does_not_panic() {
        let nodes = tree("} fn f() { ) }");
        assert!(functions(&nodes).len() == 1);
    }

    #[test]
    fn functions_found_through_generics_and_impls() {
        let src = "impl<T: Fn(usize) -> bool> S<T> {\n\
                   fn m<F: Fn(u8) -> u8>(&self, f: F) -> u8 { f(0) }\n\
                   }\n\
                   fn free(x: u32) {}\n\
                   trait T2 { fn sig(&self); }";
        let nodes = tree(src);
        let fns = functions(&nodes);
        let names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["m", "free"], "sig has no body, Fn is a bound");
        assert_eq!(fns[0].line, 2);
    }

    #[test]
    fn nested_fns_are_separate_items() {
        let fns_src = "fn outer() { fn inner() { x.barrier(); } inner(); }";
        let nodes = tree(fns_src);
        let fns = functions(&nodes);
        let names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["outer", "inner"]);
    }

    #[test]
    fn visit_reaches_every_node_with_its_siblings() {
        let nodes = tree("a(b, [c]) { d }");
        let mut idents = Vec::new();
        visit(&nodes, &mut |sibs, i| idents.extend(sibs[i].ident()));
        assert_eq!(idents, ["a", "b", "c", "d"], "parents before children");
    }

    #[test]
    fn paths_match_segment_by_segment() {
        let nodes = tree("use std::sync::Mutex; Duration::from_secs(1)");
        assert_eq!(path_at(&nodes, 1, &["std", "sync"]), Some(5));
        assert_eq!(path_at(&nodes, 1, &["std", "sync", "Mutex"]), Some(8));
        assert_eq!(path_at(&nodes, 1, &["std", "cell"]), None);
        assert_eq!(colons_at(&nodes, 5), Some(7));
        assert_eq!(colons_at(&nodes, 8), None, "`;` is not `::`");
    }
}
