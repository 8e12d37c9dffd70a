//! A compact textual surface syntax for the unnamed relational algebra.
//!
//! The grammar (whitespace-insensitive):
//!
//! ```text
//! query   := prod (("union" | "diff" | "intersect") prod)*     left-assoc
//! prod    := atom ("x" atom)*                                  left-assoc
//! atom    := name | literal
//!          | "pi" "[" int ("," int)* "]" "(" query ")"
//!          | "sigma" "[" pred "]" "(" query ")"
//!          | "join" "[" onlist (";" pred)? "]" "(" query "," query ")"
//!          | "(" query ")"
//! onlist  := (keypair ("," keypair)*)?
//! keypair := "#" int "=" "#" int
//! literal := "{" ":" int "}"                  empty relation of that arity
//!          | "{" tuple ("," tuple)* "}"
//! tuple   := "(" (value ("," value)*)? ")"
//! pred    := "true" | "false" | operand ("=" | "!=") operand
//!          | "and" "(" (pred ("," pred)*)? ")"
//!          | "or"  "(" (pred ("," pred)*)? ")"
//!          | "not" "(" pred ")"
//! operand := "#" int | value
//! value   := int | "'" chars "'" | "true" | "false"
//! name    := ident other than a reserved word; "V" and "W" parse to
//!            the canonical `Input`/`Second` leaves, any other name to
//!            `Query::Rel` (see [`is_relation_name`] / [`RESERVED_WORDS`])
//! ```
//!
//! Column references `#i` and projection lists are **0-based** (matching
//! the `Pred`/`Query` constructor APIs; the paper-style `Display` of
//! those types stays 1-based). String literals escape `'` and `\` with a
//! backslash.
//!
//! [`render`] emits this syntax canonically (binary operators fully
//! parenthesized, predicates in functional form), and [`parse`] inverts
//! it exactly: `parse(render(q)) == q` for every [`Query`] — including
//! n-ary `and`/`or` predicate nodes and empty relation literals, which
//! is why the canonical form is functional rather than infix.

use std::fmt::Write as _;

use ipdb_rel::{CmpOp, Instance, Operand, Pred, Query, Tuple, Value};

use crate::error::EngineError;

// ---------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------

/// Renders a query in the canonical surface syntax accepted by [`parse`].
pub fn render(q: &Query) -> String {
    let mut s = String::new();
    render_query(q, &mut s);
    s
}

fn render_query(q: &Query, out: &mut String) {
    match q {
        Query::Input => out.push('V'),
        Query::Second => out.push('W'),
        // Valid relation names (see `is_relation_name`) re-parse to the
        // same AST; the planner rejects the rest before they can render.
        Query::Rel(name) => out.push_str(name),
        Query::Lit(i) => render_literal(i, out),
        Query::Project(cols, q) => {
            out.push_str("pi[");
            for (i, c) in cols.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{c}");
            }
            out.push_str("](");
            render_query(q, out);
            out.push(')');
        }
        Query::Select(p, q) => {
            out.push_str("sigma[");
            render_pred(p, out);
            out.push_str("](");
            render_query(q, out);
            out.push(')');
        }
        Query::Product(a, b) => render_binary(a, "x", b, out),
        Query::Join {
            on,
            residual,
            left,
            right,
        } => {
            out.push_str("join[");
            for (n, (i, j)) in on.iter().enumerate() {
                if n > 0 {
                    out.push(',');
                }
                let _ = write!(out, "#{i}=#{j}");
            }
            if let Some(p) = residual {
                out.push_str("; ");
                render_pred(p, out);
            }
            out.push_str("](");
            render_query(left, out);
            out.push_str(", ");
            render_query(right, out);
            out.push(')');
        }
        Query::Union(a, b) => render_binary(a, "union", b, out),
        Query::Diff(a, b) => render_binary(a, "diff", b, out),
        Query::Intersect(a, b) => render_binary(a, "intersect", b, out),
    }
}

fn render_binary(a: &Query, op: &str, b: &Query, out: &mut String) {
    out.push('(');
    render_query(a, out);
    let _ = write!(out, " {op} ");
    render_query(b, out);
    out.push(')');
}

fn render_literal(i: &Instance, out: &mut String) {
    if i.is_empty() {
        let _ = write!(out, "{{:{}}}", i.arity());
        return;
    }
    out.push('{');
    for (n, t) in i.iter().enumerate() {
        if n > 0 {
            out.push(',');
        }
        out.push('(');
        for (m, v) in t.values().iter().enumerate() {
            if m > 0 {
                out.push(',');
            }
            render_value(v, out);
        }
        out.push(')');
    }
    out.push('}');
}

/// Renders a predicate in the canonical (functional) surface syntax.
pub fn render_pred_string(p: &Pred) -> String {
    let mut s = String::new();
    render_pred(p, &mut s);
    s
}

fn render_pred(p: &Pred, out: &mut String) {
    match p {
        Pred::True => out.push_str("true"),
        Pred::False => out.push_str("false"),
        Pred::Cmp(op, l, r) => {
            render_operand(l, out);
            out.push_str(match op {
                CmpOp::Eq => "=",
                CmpOp::Neq => "!=",
            });
            render_operand(r, out);
        }
        Pred::And(ps) => render_connective("and", ps, out),
        Pred::Or(ps) => render_connective("or", ps, out),
        Pred::Not(p) => {
            out.push_str("not(");
            render_pred(p, out);
            out.push(')');
        }
    }
}

fn render_connective(name: &str, ps: &[Pred], out: &mut String) {
    out.push_str(name);
    out.push('(');
    for (i, p) in ps.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        render_pred(p, out);
    }
    out.push(')');
}

fn render_operand(o: &Operand, out: &mut String) {
    match o {
        Operand::Col(c) => {
            let _ = write!(out, "#{c}");
        }
        Operand::Const(v) => render_value(v, out),
    }
}

fn render_value(v: &Value, out: &mut String) {
    match v {
        Value::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::Str(s) => {
            out.push('\'');
            for ch in s.chars() {
                if ch == '\'' || ch == '\\' {
                    out.push('\\');
                }
                out.push(ch);
            }
            out.push('\'');
        }
    }
}

// ---------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Int(i64),
    Str(String),
    LParen,
    RParen,
    LBracket,
    RBracket,
    LBrace,
    RBrace,
    Comma,
    Colon,
    Semi,
    Hash,
    Eq,
    Neq,
}

impl std::fmt::Display for Tok {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "'{s}'"),
            Tok::Int(i) => write!(f, "'{i}'"),
            Tok::Str(s) => write!(f, "string '{s}'"),
            Tok::LParen => write!(f, "'('"),
            Tok::RParen => write!(f, "')'"),
            Tok::LBracket => write!(f, "'['"),
            Tok::RBracket => write!(f, "']'"),
            Tok::LBrace => write!(f, "'{{'"),
            Tok::RBrace => write!(f, "'}}'"),
            Tok::Comma => write!(f, "','"),
            Tok::Colon => write!(f, "':'"),
            Tok::Semi => write!(f, "';'"),
            Tok::Hash => write!(f, "'#'"),
            Tok::Eq => write!(f, "'='"),
            Tok::Neq => write!(f, "'!='"),
        }
    }
}

/// The largest column index / projection index / `{:n}` arity literal
/// the parser accepts. Queries wider than this are far outside any
/// realistic schema, and the cap keeps every arity computation over
/// parsed queries (sums of operand arities, projection widths) well
/// inside `usize`.
pub const MAX_INDEX: usize = u16::MAX as usize;

/// The deepest nesting the parser accepts, counting queries and
/// predicates together. Each of these is one level: an operator that
/// takes a query (`pi`, `sigma`, `join`) or a predicate (`and`, `or`,
/// `not`), a leaf, a parenthesized query, and each infix operator on a
/// left-associative chain (`V union V union V` nests two levels deep).
/// So a parsed query's [`Query::depth`], plus the depth of any
/// predicate inside it, stays within the bound.
///
/// Every later stage recurses on the tree: the optimizer, each
/// backend's evaluator, rendering and dropping it. A stack overflow
/// aborts the process instead of panicking, so without a bound one
/// request could take a server down. Past the bound the parser returns
/// [`EngineError::TooDeep`], and [`Engine::prepare`](crate::Engine::prepare)
/// checks [`Query::depth`] against the same bound.
///
/// The bound leaves a wide margin. In a debug build, on a thread with
/// the default 2 MiB stack, nested `pi`/`sigma` operators overflow at
/// about 160 levels (the parser's own frames are the largest), a `union`
/// chain at about 220 and a nested predicate at about 850; below that,
/// parsing, optimizing, rendering and running on all three backends
/// succeed. Release builds reach several times deeper. Real queries
/// nest far less: the serving benchmark's templates, about 16 levels.
pub const MAX_DEPTH: usize = 64;

/// Text that nests `n` levels deep: `pi[0](…V…)` when `pred` is false,
/// `sigma[not(…#0=1…)](V)` when it is true.
#[cfg(test)]
pub(crate) fn nested_text(n: usize, pred: bool) -> String {
    if pred {
        let k = n - 2;
        format!("sigma[{}#0=1{}](V)", "not(".repeat(k), ")".repeat(k))
    } else {
        format!("{}V{}", "pi[0](".repeat(n - 1), ")".repeat(n - 1))
    }
}

/// The identifiers the grammar claims for itself: operator keywords,
/// predicate connectives, boolean values, and the reserved relation
/// names `V`/`W` (which parse to the canonical `Input`/`Second` leaves).
/// None of these can name a [`Query::Rel`] relation.
pub const RESERVED_WORDS: [&str; 14] = [
    "V",
    "W",
    "pi",
    "sigma",
    "join",
    "union",
    "diff",
    "intersect",
    "x",
    "and",
    "or",
    "not",
    "true",
    "false",
];

/// Whether `name` can name a relation in the surface syntax: a
/// non-empty ASCII identifier (`[A-Za-z_][A-Za-z0-9_]*`) that is not a
/// [reserved word](RESERVED_WORDS). The planner enforces this on every
/// [`Query::Rel`] leaf so prepared queries always render to text that
/// re-parses to the same AST.
pub fn is_relation_name(name: &str) -> bool {
    let mut chars = name.as_bytes().iter();
    let head_ok = chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || *c == b'_');
    head_ok
        && chars.all(|c| c.is_ascii_alphanumeric() || *c == b'_')
        && !RESERVED_WORDS.contains(&name)
}

fn err(at: usize, msg: impl Into<String>) -> EngineError {
    EngineError::Parse {
        at,
        msg: msg.into(),
    }
}

fn tokenize(src: &str) -> Result<Vec<(usize, Tok)>, EngineError> {
    let bytes = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        let tok = match b {
            b' ' | b'\t' | b'\n' | b'\r' => {
                i += 1;
                continue;
            }
            b'(' => Tok::LParen,
            b')' => Tok::RParen,
            b'[' => Tok::LBracket,
            b']' => Tok::RBracket,
            b'{' => Tok::LBrace,
            b'}' => Tok::RBrace,
            b',' => Tok::Comma,
            b':' => Tok::Colon,
            b';' => Tok::Semi,
            b'#' => Tok::Hash,
            b'=' => Tok::Eq,
            b'!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push((i, Tok::Neq));
                    i += 2;
                    continue;
                }
                return Err(err(i, "expected '=' after '!'"));
            }
            b'\'' => {
                let start = i;
                i += 1;
                let mut s = String::new();
                loop {
                    match bytes.get(i) {
                        None => return Err(err(start, "unterminated string literal")),
                        Some(b'\'') => break,
                        Some(b'\\') => {
                            match bytes.get(i + 1) {
                                Some(&c @ (b'\'' | b'\\')) => s.push(c as char),
                                _ => return Err(err(i, "bad escape; only \\' and \\\\ allowed")),
                            }
                            i += 2;
                        }
                        Some(_) => {
                            // Consume one full UTF-8 character.
                            let ch = src[i..].chars().next().expect("in bounds");
                            s.push(ch);
                            i += ch.len_utf8();
                        }
                    }
                }
                toks.push((start, Tok::Str(s)));
                i += 1; // closing quote
                continue;
            }
            b'-' | b'0'..=b'9' => {
                let start = i;
                if b == b'-' {
                    i += 1;
                    if !bytes.get(i).is_some_and(u8::is_ascii_digit) {
                        return Err(err(start, "expected digits after '-'"));
                    }
                }
                while bytes.get(i).is_some_and(u8::is_ascii_digit) {
                    i += 1;
                }
                let text = &src[start..i];
                let n: i64 = text
                    .parse()
                    .map_err(|_| err(start, format!("integer '{text}' out of range")))?;
                toks.push((start, Tok::Int(n)));
                continue;
            }
            b'A'..=b'Z' | b'a'..=b'z' | b'_' => {
                let start = i;
                while bytes
                    .get(i)
                    .is_some_and(|c| c.is_ascii_alphanumeric() || *c == b'_')
                {
                    i += 1;
                }
                toks.push((start, Tok::Ident(src[start..i].to_string())));
                continue;
            }
            _ => {
                let ch = src[i..].chars().next().expect("in bounds");
                return Err(err(i, format!("unexpected character '{ch}'")));
            }
        };
        toks.push((i, tok));
        i += 1;
    }
    Ok(toks)
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

/// Parses the surface syntax into a [`Query`] AST.
///
/// ```
/// use ipdb_engine::parser::parse;
/// use ipdb_rel::{instance, Pred, Query};
/// let q = parse("pi[0](sigma[#0=#2](V x V))").unwrap();
/// let expect = Query::project(
///     Query::select(Query::product(Query::Input, Query::Input), Pred::eq_cols(0, 2)),
///     vec![0],
/// );
/// assert_eq!(q, expect);
/// assert_eq!(parse("{(1,2),(3,4)}").unwrap(), Query::Lit(instance![[1, 2], [3, 4]]));
/// ```
pub fn parse(src: &str) -> Result<Query, EngineError> {
    let toks = tokenize(src)?;
    let mut p = Parser::new(toks, src.len());
    let q = p.query()?;
    if let Some((at, t)) = p.peek_at() {
        return Err(err(at, format!("trailing input starting with {t}")));
    }
    Ok(q)
}

/// Parses a predicate in the surface syntax (the `[...]` argument of
/// `sigma`), e.g. `and(#0=#1, #2!='a')`.
pub fn parse_pred(src: &str) -> Result<Pred, EngineError> {
    let toks = tokenize(src)?;
    let mut p = Parser::new(toks, src.len());
    let pred = p.pred()?;
    if let Some((at, t)) = p.peek_at() {
        return Err(err(at, format!("trailing input starting with {t}")));
    }
    Ok(pred)
}

struct Parser {
    toks: Vec<(usize, Tok)>,
    pos: usize,
    end: usize,
    /// Levels of nesting entered and not yet left (see [`MAX_DEPTH`]).
    depth: usize,
}

impl Parser {
    fn new(toks: Vec<(usize, Tok)>, end: usize) -> Self {
        Parser {
            toks,
            pos: 0,
            end,
            depth: 0,
        }
    }

    /// Enters `levels` more levels of nesting at the current token, or
    /// fails past [`MAX_DEPTH`]. The caller leaves them again
    /// (`self.depth -= levels`) once the nested part is parsed.
    fn nest(&mut self, levels: usize) -> Result<(), EngineError> {
        if self.depth + levels > MAX_DEPTH {
            return Err(EngineError::TooDeep {
                at: self.here(),
                limit: MAX_DEPTH,
            });
        }
        self.depth += levels;
        Ok(())
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(_, t)| t)
    }

    fn peek_at(&self) -> Option<(usize, &Tok)> {
        self.toks.get(self.pos).map(|(at, t)| (*at, t))
    }

    fn here(&self) -> usize {
        self.toks.get(self.pos).map_or(self.end, |(at, _)| *at)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(_, t)| t.clone());
        self.pos += 1;
        t
    }

    fn expect(&mut self, want: &Tok) -> Result<(), EngineError> {
        let at = self.here();
        match self.bump() {
            Some(ref t) if t == want => Ok(()),
            Some(t) => Err(err(at, format!("expected {want}, found {t}"))),
            None => Err(err(at, format!("expected {want}, found end of input"))),
        }
    }

    fn expect_int(&mut self) -> Result<i64, EngineError> {
        let at = self.here();
        match self.bump() {
            Some(Tok::Int(n)) => Ok(n),
            Some(t) => Err(err(at, format!("expected an integer, found {t}"))),
            None => Err(err(at, "expected an integer, found end of input")),
        }
    }

    fn expect_index(&mut self) -> Result<usize, EngineError> {
        let at = self.here();
        let n = self.expect_int()?;
        let idx =
            usize::try_from(n).map_err(|_| err(at, format!("index {n} must be non-negative")))?;
        // Cap column refs, projection lists, and `{:n}` arity literals so
        // downstream arity arithmetic (e.g. the planner's product arity
        // `a + b`) stays far from usize overflow instead of silently
        // wrapping in release builds.
        if idx > MAX_INDEX {
            return Err(err(
                at,
                format!("index {n} too large (maximum {MAX_INDEX})"),
            ));
        }
        Ok(idx)
    }

    // query := prod (("union"|"diff"|"intersect") prod)*
    //
    // Each infix operator puts the chain so far one level deeper.
    fn query(&mut self) -> Result<Query, EngineError> {
        let mut q = self.prod()?;
        let mut ops = 0;
        while let Some(Tok::Ident(id)) = self.peek() {
            let ctor = match id.as_str() {
                "union" => Query::union,
                "diff" => Query::diff,
                "intersect" => Query::intersect,
                _ => break,
            };
            self.nest(1)?;
            ops += 1;
            self.bump();
            let rhs = self.prod()?;
            q = ctor(q, rhs);
        }
        self.depth -= ops;
        Ok(q)
    }

    // prod := atom ("x" atom)*
    fn prod(&mut self) -> Result<Query, EngineError> {
        let mut q = self.atom()?;
        let mut ops = 0;
        while matches!(self.peek(), Some(Tok::Ident(id)) if id == "x") {
            self.nest(1)?;
            ops += 1;
            self.bump();
            let rhs = self.atom()?;
            q = Query::product(q, rhs);
        }
        self.depth -= ops;
        Ok(q)
    }

    // One level of nesting: a leaf, an operator, or a parenthesized
    // query.
    fn atom(&mut self) -> Result<Query, EngineError> {
        self.nest(1)?;
        let q = self.atom_body();
        self.depth -= 1;
        q
    }

    fn atom_body(&mut self) -> Result<Query, EngineError> {
        let at = self.here();
        match self.bump() {
            Some(Tok::Ident(id)) => match id.as_str() {
                "V" => Ok(Query::Input),
                "W" => Ok(Query::Second),
                "pi" => {
                    self.expect(&Tok::LBracket)?;
                    let mut cols = Vec::new();
                    if self.peek() != Some(&Tok::RBracket) {
                        loop {
                            cols.push(self.expect_index()?);
                            if self.peek() == Some(&Tok::Comma) {
                                self.bump();
                            } else {
                                break;
                            }
                        }
                    }
                    self.expect(&Tok::RBracket)?;
                    self.expect(&Tok::LParen)?;
                    let q = self.query()?;
                    self.expect(&Tok::RParen)?;
                    Ok(Query::project(q, cols))
                }
                "sigma" => {
                    self.expect(&Tok::LBracket)?;
                    let p = self.pred()?;
                    self.expect(&Tok::RBracket)?;
                    self.expect(&Tok::LParen)?;
                    let q = self.query()?;
                    self.expect(&Tok::RParen)?;
                    Ok(Query::select(q, p))
                }
                "join" => {
                    self.expect(&Tok::LBracket)?;
                    let mut on = Vec::new();
                    if matches!(self.peek(), Some(Tok::Hash)) {
                        loop {
                            self.expect(&Tok::Hash)?;
                            let i = self.expect_index()?;
                            self.expect(&Tok::Eq)?;
                            self.expect(&Tok::Hash)?;
                            let j = self.expect_index()?;
                            on.push((i, j));
                            if self.peek() == Some(&Tok::Comma) {
                                self.bump();
                            } else {
                                break;
                            }
                        }
                    }
                    let residual = if self.peek() == Some(&Tok::Semi) {
                        self.bump();
                        Some(self.pred()?)
                    } else {
                        None
                    };
                    self.expect(&Tok::RBracket)?;
                    self.expect(&Tok::LParen)?;
                    let left = self.query()?;
                    self.expect(&Tok::Comma)?;
                    let right = self.query()?;
                    self.expect(&Tok::RParen)?;
                    Ok(Query::join(left, right, on, residual))
                }
                other if is_relation_name(other) => Ok(Query::rel(other)),
                other => Err(err(
                    at,
                    format!(
                        "expected a query (a relation name, pi, sigma, join, a literal, \
                         or '('), found reserved word '{other}'"
                    ),
                )),
            },
            Some(Tok::LParen) => {
                let q = self.query()?;
                self.expect(&Tok::RParen)?;
                Ok(q)
            }
            Some(Tok::LBrace) => self.literal(at),
            Some(t) => Err(err(at, format!("expected a query, found {t}"))),
            None => Err(err(at, "expected a query, found end of input")),
        }
    }

    // Called with the opening '{' already consumed.
    fn literal(&mut self, at: usize) -> Result<Query, EngineError> {
        if self.peek() == Some(&Tok::Colon) {
            self.bump();
            let arity = self.expect_index()?;
            self.expect(&Tok::RBrace)?;
            return Ok(Query::Lit(Instance::empty(arity)));
        }
        let mut tuples = Vec::new();
        loop {
            self.expect(&Tok::LParen)?;
            let mut vals = Vec::new();
            if self.peek() != Some(&Tok::RParen) {
                loop {
                    vals.push(self.value()?);
                    if self.peek() == Some(&Tok::Comma) {
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
            self.expect(&Tok::RParen)?;
            tuples.push(Tuple::new(vals));
            if self.peek() == Some(&Tok::Comma) {
                self.bump();
            } else {
                break;
            }
        }
        self.expect(&Tok::RBrace)?;
        let arity = tuples[0].arity();
        let inst = Instance::from_tuples(arity, tuples).map_err(|e| {
            err(
                at,
                format!("relation literal has tuples of differing arity ({e})"),
            )
        })?;
        Ok(Query::Lit(inst))
    }

    fn value(&mut self) -> Result<Value, EngineError> {
        let at = self.here();
        match self.bump() {
            Some(Tok::Int(n)) => Ok(Value::Int(n)),
            Some(Tok::Str(s)) => Ok(Value::str(s)),
            Some(Tok::Ident(id)) => match id.as_str() {
                "true" => Ok(Value::Bool(true)),
                "false" => Ok(Value::Bool(false)),
                other => Err(err(at, format!("expected a value, found '{other}'"))),
            },
            Some(t) => Err(err(at, format!("expected a value, found {t}"))),
            None => Err(err(at, "expected a value, found end of input")),
        }
    }

    // One level of nesting, shared with the query around it.
    fn pred(&mut self) -> Result<Pred, EngineError> {
        self.nest(1)?;
        let p = self.pred_body();
        self.depth -= 1;
        p
    }

    fn pred_body(&mut self) -> Result<Pred, EngineError> {
        let at = self.here();
        match self.peek().cloned() {
            Some(Tok::Ident(id)) => match id.as_str() {
                // `true`/`false` are predicates unless followed by a
                // comparison, in which case they are boolean operands
                // (e.g. `true=#0`).
                "true" | "false"
                    if !matches!(
                        self.toks.get(self.pos + 1).map(|(_, t)| t),
                        Some(Tok::Eq) | Some(Tok::Neq)
                    ) =>
                {
                    self.bump();
                    Ok(if id == "true" {
                        Pred::True
                    } else {
                        Pred::False
                    })
                }
                "and" => {
                    self.bump();
                    Ok(Pred::And(self.pred_list()?))
                }
                "or" => {
                    self.bump();
                    Ok(Pred::Or(self.pred_list()?))
                }
                "not" => {
                    self.bump();
                    self.expect(&Tok::LParen)?;
                    let p = self.pred()?;
                    self.expect(&Tok::RParen)?;
                    Ok(Pred::not(p))
                }
                _ => self.cmp(),
            },
            Some(Tok::Hash | Tok::Int(_) | Tok::Str(_)) => self.cmp(),
            Some(t) => Err(err(at, format!("expected a predicate, found {t}"))),
            None => Err(err(at, "expected a predicate, found end of input")),
        }
    }

    fn pred_list(&mut self) -> Result<Vec<Pred>, EngineError> {
        self.expect(&Tok::LParen)?;
        let mut ps = Vec::new();
        if self.peek() != Some(&Tok::RParen) {
            loop {
                ps.push(self.pred()?);
                if self.peek() == Some(&Tok::Comma) {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen)?;
        Ok(ps)
    }

    fn cmp(&mut self) -> Result<Pred, EngineError> {
        let l = self.operand()?;
        let at = self.here();
        let op = match self.bump() {
            Some(Tok::Eq) => CmpOp::Eq,
            Some(Tok::Neq) => CmpOp::Neq,
            Some(t) => return Err(err(at, format!("expected '=' or '!=', found {t}"))),
            None => return Err(err(at, "expected '=' or '!=', found end of input")),
        };
        let r = self.operand()?;
        Ok(Pred::Cmp(op, l, r))
    }

    fn operand(&mut self) -> Result<Operand, EngineError> {
        if self.peek() == Some(&Tok::Hash) {
            self.bump();
            return Ok(Operand::Col(self.expect_index()?));
        }
        Ok(Operand::Const(self.value()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipdb_rel::instance;
    use proptest::prelude::*;

    fn roundtrip(q: &Query) {
        let text = render(q);
        let back = parse(&text).unwrap_or_else(|e| panic!("re-parsing '{text}': {e}"));
        assert_eq!(&back, q, "canonical form was '{text}'");
    }

    #[test]
    fn roundtrip_every_constructor() {
        let lit = Query::Lit(instance![[1, 2], [3, 4]]);
        for q in [
            Query::Input,
            Query::Second,
            lit.clone(),
            Query::Lit(Instance::empty(3)),
            Query::Lit(instance![[true], [false]]),
            Query::project(Query::Input, vec![1, 0, 1]),
            Query::project(Query::Input, vec![]),
            Query::select(Query::Input, Pred::eq_cols(0, 1)),
            Query::product(Query::Input, lit.clone()),
            Query::union(Query::Input, lit.clone()),
            Query::diff(Query::Input, lit.clone()),
            Query::intersect(Query::Input, lit.clone()),
        ] {
            roundtrip(&q);
        }
    }

    #[test]
    fn roundtrip_every_pred_form() {
        for p in [
            Pred::True,
            Pred::False,
            Pred::eq_cols(0, 1),
            Pred::neq_const(2, -5),
            Pred::eq_const(0, "it's \\ here"),
            Pred::Cmp(CmpOp::Eq, Operand::val(true), Operand::Col(0)),
            Pred::Cmp(CmpOp::Neq, Operand::val("a"), Operand::val(3)),
            Pred::And(vec![]),
            Pred::Or(vec![]),
            Pred::And(vec![Pred::True]),
            Pred::and([
                Pred::eq_cols(0, 1),
                Pred::or([Pred::False, Pred::neq_cols(1, 2)]),
            ]),
            Pred::not(Pred::eq_const(0, 1)),
        ] {
            roundtrip(&Query::select(Query::Input, p.clone()));
            assert_eq!(parse_pred(&render_pred_string(&p)).unwrap(), p);
        }
    }

    #[test]
    fn roundtrip_join_forms() {
        let lit = Query::Lit(instance![[1, 2]]);
        for q in [
            Query::join(Query::Input, Query::Input, [(1, 2)], None),
            Query::join(Query::Input, lit.clone(), [(0, 2), (1, 3)], None),
            Query::join(
                Query::Input,
                Query::Input,
                [(1, 2)],
                Some(Pred::neq_const(0, 7)),
            ),
            Query::join(
                Query::Input,
                Query::Input,
                [(0, 2)],
                Some(Pred::and([Pred::eq_const(1, 1), Pred::neq_cols(1, 3)])),
            ),
            // Degenerate spellings the AST permits must round-trip too.
            Query::join(Query::Input, Query::Input, [], None),
            Query::join(Query::Input, Query::Input, [], Some(Pred::True)),
            // Joins nest like any other operator.
            Query::project(
                Query::join(
                    Query::join(Query::Input, Query::Input, [(1, 2)], None),
                    Query::Input,
                    [(3, 4)],
                    None,
                ),
                vec![0, 5],
            ),
        ] {
            roundtrip(&q);
        }
    }

    #[test]
    fn join_surface_syntax_parses() {
        assert_eq!(
            parse("join[#0=#2](V, V)").unwrap(),
            Query::join(Query::Input, Query::Input, [(0, 2)], None)
        );
        assert_eq!(
            parse("join[#0=#2; #1!=3](V, V)").unwrap(),
            Query::join(
                Query::Input,
                Query::Input,
                [(0, 2)],
                Some(Pred::neq_const(1, 3))
            )
        );
        assert_eq!(
            parse("join[](V, W)").unwrap(),
            Query::join(Query::Input, Query::Second, [], None)
        );
        // Whitespace-insensitive like the rest of the grammar.
        assert_eq!(
            parse(" join [ #0 = #2 , #1 = #3 ] ( V , V ) ").unwrap(),
            parse("join[#0=#2,#1=#3](V,V)").unwrap()
        );
        for (src, frag) in [
            ("join[#0=#2](V)", "expected ','"),
            ("join[#0](V, V)", "expected '='"),
            ("join[0=#1](V, V)", "expected ']'"),
            ("join[#0=#1(V, V)", "expected ']'"),
            ("join[#0=#-1](V, V)", "non-negative"),
        ] {
            match parse(src) {
                Err(EngineError::Parse { msg, .. }) => {
                    assert!(msg.contains(frag), "source '{src}': got '{msg}'")
                }
                other => panic!("source '{src}': expected parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn roundtrip_nested_query() {
        let q = Query::union(
            Query::project(
                Query::select(
                    Query::product(Query::Input, Query::product(Query::Input, Query::Second)),
                    Pred::and([Pred::eq_cols(1, 3), Pred::neq_const(0, "x")]),
                ),
                vec![0, 2],
            ),
            Query::diff(
                Query::Lit(instance![[1, 2]]),
                Query::intersect(Query::Input, Query::Input),
            ),
        );
        roundtrip(&q);
    }

    #[test]
    fn infix_is_left_associative_with_product_binding_tighter() {
        assert_eq!(
            parse("V union V union V").unwrap(),
            Query::union(Query::union(Query::Input, Query::Input), Query::Input)
        );
        assert_eq!(
            parse("V union V x V").unwrap(),
            Query::union(Query::Input, Query::product(Query::Input, Query::Input))
        );
        assert_eq!(
            parse("(V union V) x V").unwrap(),
            Query::product(Query::union(Query::Input, Query::Input), Query::Input)
        );
    }

    #[test]
    fn whitespace_is_insignificant() {
        assert_eq!(
            parse(" pi [ 0 , 1 ] ( V )\n").unwrap(),
            parse("pi[0,1](V)").unwrap()
        );
    }

    #[test]
    fn string_values_and_escapes() {
        let q = parse("sigma[#0='don\\'t']( V )").unwrap();
        assert_eq!(q, Query::select(Query::Input, Pred::eq_const(0, "don't")));
        let lit = parse("{('a\\\\b')}").unwrap();
        assert_eq!(lit, Query::Lit(instance![["a\\b"]]));
    }

    #[test]
    fn parse_errors_carry_positions() {
        for (src, frag) in [
            ("", "expected a query"),
            ("pi[0](V) garbage", "trailing"),
            ("pi[0(V)", "expected ']'"),
            ("sigma[#0](V)", "expected '=' or '!='"),
            ("sigma[#0=](V)", "expected a value"),
            ("{()", "expected '}'"),
            ("{(1),(2,3)}", "differing arity"),
            ("{:-1}", "non-negative"),
            ("sigma[#0='oops](V)", "unterminated"),
            ("V ? W", "unexpected character"),
            ("V !W", "expected '='"),
            ("sigma[#0='\\n'](V)", "bad escape"),
            ("pi[99999999999999999999](V)", "out of range"),
        ] {
            match parse(src) {
                Err(EngineError::Parse { msg, .. }) => {
                    assert!(msg.contains(frag), "source '{src}': got '{msg}'")
                }
                other => panic!("source '{src}': expected parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn numeric_edges_fail_gracefully() {
        // Oversized indexes in every index position (column refs,
        // projection lists, join keys, arity literals) are rejected with
        // a ParseError rather than flowing into usize arithmetic that
        // could silently wrap when arities are summed.
        for src in [
            "pi[65536](V)",
            "sigma[#65536=1](V)",
            "sigma[#0=#65536](V)",
            "join[#0=#65536](V, V)",
            "{:65536}",
            "{:9223372036854775807}",
        ] {
            match parse(src) {
                Err(EngineError::Parse { msg, .. }) => {
                    assert!(msg.contains("too large"), "source '{src}': got '{msg}'")
                }
                other => panic!("source '{src}': expected parse error, got {other:?}"),
            }
        }
        // Integers past i64 are caught at tokenization, in any position.
        for src in [
            "{(9223372036854775808)}",
            "sigma[#0=18446744073709551616](V)",
            "{:99999999999999999999}",
        ] {
            match parse(src) {
                Err(EngineError::Parse { msg, .. }) => {
                    assert!(msg.contains("out of range"), "source '{src}': got '{msg}'")
                }
                other => panic!("source '{src}': expected parse error, got {other:?}"),
            }
        }
        // The extremes that are in range still parse (and round-trip).
        roundtrip(&parse("{(9223372036854775807,-9223372036854775808)}").unwrap());
        let wide = parse(&format!("{{:{MAX_INDEX}}}")).unwrap();
        assert_eq!(wide, Query::Lit(Instance::empty(MAX_INDEX)));
        // Two maximal-arity literals still produce a sane product arity.
        let prod = Query::product(wide.clone(), wide);
        assert_eq!(prod.arity(1).unwrap(), 2 * MAX_INDEX);
    }

    #[test]
    fn named_relations_parse_and_roundtrip() {
        assert_eq!(parse("R").unwrap(), Query::rel("R"));
        assert_eq!(
            parse("join[#0=#2](R, S)").unwrap(),
            Query::join(Query::rel("R"), Query::rel("S"), [(0, 2)], None)
        );
        assert_eq!(
            parse("pi[0](R x Some_Table2 union V)").unwrap(),
            Query::project(
                Query::union(
                    Query::product(Query::rel("R"), Query::rel("Some_Table2")),
                    Query::Input
                ),
                vec![0]
            )
        );
        for q in [
            Query::rel("R"),
            Query::rel("_private"),
            Query::product(Query::rel("R"), Query::rel("S")),
            Query::join(Query::rel("R"), Query::Input, [(0, 2)], None),
            Query::diff(Query::rel("xs"), Query::rel("xs")),
        ] {
            roundtrip(&q);
        }
        // The alias spellings parse to the canonical leaves.
        assert_eq!(parse("V").unwrap(), Query::Input);
        assert_eq!(parse("W").unwrap(), Query::Second);
    }

    #[test]
    fn reserved_words_cannot_name_relations() {
        for src in ["union", "x", "and", "not", "true", "diff"] {
            match parse(src) {
                Err(EngineError::Parse { msg, .. }) => {
                    assert!(msg.contains("reserved"), "source '{src}': got '{msg}'")
                }
                other => panic!("source '{src}': expected parse error, got {other:?}"),
            }
        }
        // And `is_relation_name` is the same judgement, plus identifier
        // shape (the tokenizer already guarantees shape for parsed text).
        for bad in ["", "x", "pi", "V", "W", "2col", "a-b", "π", "a b"] {
            assert!(!is_relation_name(bad), "{bad:?} should be invalid");
        }
        for good in ["R", "_t", "Some_Table2", "vv", "xy"] {
            assert!(is_relation_name(good), "{good:?} should be valid");
        }
    }

    /// A pool biased toward the grammar's own metacharacters, with
    /// multibyte characters adjacent to every quoting/escape construct —
    /// any byte-boundary slip in the tokenizer panics here long before
    /// the soak case count.
    fn adversarial_source() -> impl Strategy<Value = String> {
        let pool: Vec<char> = "pisgmajoundftrx VW()[]{},:;#=!'\\-09π√é💥∪⋈\n\t"
            .chars()
            .collect();
        proptest::collection::vec(proptest::sample::select(pool), 0..32).prop_map(String::from_iter)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Acceptance criterion: the parser never panics, on any input —
        /// including non-ASCII bytes in every position. Errors are fine;
        /// successful parses must render and re-parse to the same query.
        #[test]
        fn parse_never_panics_on_adversarial_strings(src in adversarial_source()) {
            if let Ok(q) = parse(&src) {
                roundtrip(&q);
            }
            let _ = parse_pred(&src);
        }
    }

    #[test]
    fn nesting_past_the_bound_is_a_typed_error() {
        let too_deep = |src: &str| match parse(src) {
            Err(EngineError::TooDeep { at, limit }) => {
                assert_eq!(limit, MAX_DEPTH);
                at
            }
            other => panic!("{other:?}"),
        };
        for pred in [false, true] {
            let q = parse(&nested_text(MAX_DEPTH, pred)).unwrap();
            roundtrip(&q);
            let at = too_deep(&nested_text(MAX_DEPTH + 1, pred));
            assert!(at > 0);
        }
        assert_eq!(
            parse(&nested_text(MAX_DEPTH, false)).unwrap().depth(),
            MAX_DEPTH
        );
        // The innermost level is the one past the bound.
        let src = nested_text(MAX_DEPTH + 1, false);
        assert_eq!(too_deep(&src), src.find('V').unwrap());
        // Parentheses, infix chains and predicates given on their own
        // count too.
        let parens = format!("{}V{}", "(".repeat(MAX_DEPTH), ")".repeat(MAX_DEPTH));
        too_deep(&parens);
        parse(&parens[1..parens.len() - 1]).unwrap();
        let chain = vec!["V"; MAX_DEPTH + 1].join(" union ");
        too_deep(&chain);
        assert_eq!(
            parse(&vec!["V"; MAX_DEPTH].join(" x ")).unwrap().depth(),
            MAX_DEPTH
        );
        let nots = format!("{}#0=1{}", "not(".repeat(MAX_DEPTH), ")".repeat(MAX_DEPTH));
        assert!(matches!(
            parse_pred(&nots),
            Err(EngineError::TooDeep { .. })
        ));
        parse_pred(&nots[4..nots.len() - 1]).unwrap();
    }

    /// Nested texts around the bound, of every shape: each parses
    /// exactly when it nests no deeper than [`MAX_DEPTH`].
    fn deep_source() -> impl Strategy<Value = (String, bool)> {
        (MAX_DEPTH - 3..=MAX_DEPTH + 3, 0usize..4).prop_map(|(n, shape)| {
            let text = match shape {
                0 => nested_text(n, false),
                1 => nested_text(n, true),
                2 => vec!["V"; n].join(" diff "),
                _ => format!("{}V{}", "(".repeat(n - 1), ")".repeat(n - 1)),
            };
            (text, n <= MAX_DEPTH)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn deep_nesting_parses_up_to_the_bound((src, fits) in deep_source()) {
            match parse(&src) {
                Ok(q) => {
                    prop_assert!(fits);
                    prop_assert!(q.depth() <= MAX_DEPTH);
                }
                Err(e) => {
                    prop_assert!(!fits);
                    prop_assert!(matches!(e, EngineError::TooDeep { .. }), "{e:?}");
                }
            }
        }
    }

    #[test]
    fn zero_arity_tuples_parse() {
        let q = parse("{()}").unwrap();
        assert_eq!(
            q,
            Query::Lit(Instance::singleton(Tuple::new(Vec::<Value>::new())))
        );
        roundtrip(&q);
    }
}
