//! The rule-based optimizer: checks a [`Query`] against a [`Schema`],
//! then rewrites it to a fixpoint.
//!
//! [`optimize`] checks before it rewrites. The check is the validation
//! [`Query::arity_in`] performs plus three stricter rules: a `Rel` leaf
//! must be a surface-syntax relation name
//! ([`EngineError::BadRelationName`]), so every checked query renders to
//! re-parseable text; a join needs at least one key pair
//! ([`EngineError::EmptyJoinOn`]); and every pair must span the join's
//! two operands ([`EngineError::JoinArity`]). Key pairs come out
//! left-column-first with repeats dropped, so a checked join always
//! hash-executes on at least one spanning key. The rewrites are private
//! to this module, so only checked queries reach them.
//!
//! Rewrites applied (all are worldwise identities of the relational
//! algebra, so they are sound on every backend — conventional instances,
//! c-tables via Lemma 1, and pc-tables via Theorem 9):
//!
//! * **predicate fusion** — `σ_p(σ_q(e)) → σ_{q∧p}(e)` (via
//!   [`Pred::conj_all`], so conjunctions stay flat);
//! * **selection pushdown** — through `∪` (both sides), `−`/`∩` (left
//!   side), and `×` (conjuncts split by the column ranges they touch,
//!   with right-side conjuncts re-based);
//! * **equijoin recognition** — `σ_{… ∧ #i=#j ∧ …}(a × b)` with `#i=#j`
//!   spanning the product becomes a hash-executed [`Query::Join`]:
//!   spanning equality conjuncts (extracted deterministically by
//!   [`Pred::split_equijoin`]) become the key list, everything else
//!   stays as the join's residual. Selections above a join fuse into its
//!   residual, and residual conjuncts that touch only one operand are
//!   pushed down into it;
//! * **projection pruning** — `π_cols(π_inner(e)) → π_{inner∘cols}(e)`
//!   and identity projections dropped;
//! * **dead-branch elimination** — `q − q → ∅`, `σ_false(e) → ∅`, and
//!   empty-literal propagation through every operator;
//! * **idempotent set ops** — `q ∪ q → q`, `q ∩ q → q`;
//! * **constant folding** — any operator whose children are all literals
//!   is evaluated at optimization time.
//!
//! A pass runs bottom-up over a query it owns: it moves each child out
//! of its box, rewrites it, and moves the result back, so an operator no
//! rule touches costs a move, not a copy. Each node's output arity comes
//! back up the recursion with it (leaf arities come from the schema), so
//! the rules that need a width — pushdown through a product, empty
//! literals of the right arity — read it without an annotated copy of
//! the tree. Every local rule reports whether it fired, and the pass
//! reports whether any did, so the fixpoint loop stops at the first pass
//! that reports no change — without keeping the previous query to
//! compare against. (Debug builds keep it anyway and assert that a pass
//! reporting no change returned its input.)
//!
//! Upward effects (empty propagation, fusion) complete within one pass;
//! downward effects (pushdown) descend one operator per pass, so the
//! fixpoint loop is bounded using the query's [`Query::depth`] measure
//! rather than iterating blindly.

use ipdb_rel::{CmpOp, Instance, Operand, Pred, Query, RelError, Schema};

use crate::error::EngineError;
use crate::parser::{is_relation_name, render};

/// Checks `q` against `schema`, then rewrites it to fixpoint: the
/// optimized query and what the fixpoint loop did.
///
/// In debug builds, asserts that the pass bound derived from the
/// query's depth sufficed — a rewrite that oscillates or descends slower
/// than one level per pass is an optimizer bug, not a tuning matter. So
/// optimization is idempotent: a fixpoint re-optimizes to itself in one
/// pass (pinned by proptest).
pub fn optimize(q: &Query, schema: &Schema) -> Result<(Query, OptimizeStats), EngineError> {
    let (naive, _) = check(q, schema)?;
    Ok(fixpoint(naive, schema))
}

/// [`optimize`], also returning the checked naive query and its output
/// arity: `(naive, arity, optimized, stats)`, what
/// [`Engine::prepare_schema`](crate::Engine::prepare_schema) keeps.
pub(crate) fn check_and_optimize(
    q: &Query,
    schema: &Schema,
) -> Result<(Query, usize, Query, OptimizeStats), EngineError> {
    let (naive, arity) = check(q, schema)?;
    let (optimized, stats) = fixpoint(naive.clone(), schema);
    Ok((naive, arity, optimized, stats))
}

/// What the optimizer's fixpoint loop did: how many rewrite passes ran,
/// and whether the loop reached a genuine fixpoint (a pass that changed
/// nothing) before its bound ran out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptimizeStats {
    /// Number of rewrite passes executed (including the final no-op
    /// pass that certifies the fixpoint).
    pub passes: usize,
    /// Whether a no-op pass was observed within the bound. `false`
    /// means the bound was exhausted while rewrites were still firing —
    /// the returned query is sound (every rewrite is an identity) but
    /// possibly not fully optimized.
    pub converged: bool,
}

/// Checks `q` against `schema` and returns the naive query with its join
/// keys normalized, and the query's output arity (see the module docs
/// for the rules).
fn check(q: &Query, schema: &Schema) -> Result<(Query, usize), EngineError> {
    let checked = match q {
        Query::Input => (Query::Input, schema.resolve(Schema::INPUT)?),
        Query::Second => (Query::Second, schema.resolve(Schema::SECOND)?),
        Query::Rel(name) => {
            if !is_relation_name(name) {
                return Err(EngineError::BadRelationName { name: name.clone() });
            }
            (q.clone(), schema.resolve(name)?)
        }
        Query::Lit(i) => (q.clone(), i.arity()),
        Query::Project(cols, c) => {
            let (c, arity) = check(c, schema)?;
            if let Some(&col) = cols.iter().find(|&&col| col >= arity) {
                return Err(RelError::ColumnOutOfRange { col, arity }.into());
            }
            (Query::project(c, cols.clone()), cols.len())
        }
        Query::Select(p, c) => {
            let (c, arity) = check(c, schema)?;
            p.validate(arity)?;
            (Query::select(c, p.clone()), arity)
        }
        Query::Product(a, b) => {
            let ((a, la), (b, lb)) = (check(a, schema)?, check(b, schema)?);
            (Query::product(a, b), la + lb)
        }
        Query::Join {
            on,
            residual,
            left,
            right,
        } => {
            let ((left, la), (right, lb)) = (check(left, schema)?, check(right, schema)?);
            let on = join_keys(on, la, lb)?;
            if let Some(p) = residual {
                p.validate(la + lb)?;
            }
            (Query::join(left, right, on, residual.clone()), la + lb)
        }
        Query::Union(a, b) | Query::Diff(a, b) | Query::Intersect(a, b) => {
            let ((a, la), (b, lb)) = (check(a, schema)?, check(b, schema)?);
            if la != lb {
                return Err(RelError::ArityMismatch {
                    expected: la,
                    got: lb,
                }
                .into());
            }
            let q = match q {
                Query::Union(..) => Query::union(a, b),
                Query::Diff(..) => Query::diff(a, b),
                _ => Query::intersect(a, b),
            };
            (q, la)
        }
    };
    Ok(checked)
}

/// A join's key pairs over operands of arities `la` and `lb`, checked
/// and normalized: at least one pair ([`EngineError::EmptyJoinOn`]),
/// each spanning the two operands ([`EngineError::JoinArity`]), left
/// column first, repeats dropped.
fn join_keys(
    on: &[(usize, usize)],
    la: usize,
    lb: usize,
) -> Result<Vec<(usize, usize)>, EngineError> {
    if on.is_empty() {
        return Err(EngineError::EmptyJoinOn);
    }
    let mut norm: Vec<(usize, usize)> = Vec::new();
    for &(i, j) in on {
        let (lo, hi) = (i.min(j), i.max(j));
        // Spanning means lo addresses the left operand and hi the right
        // one; report the column that lands on the wrong side.
        let wrong_side = if hi >= la + lb || hi < la {
            Some(hi)
        } else if lo >= la {
            Some(lo)
        } else {
            None
        };
        if let Some(col) = wrong_side {
            return Err(EngineError::JoinArity {
                col,
                left: la,
                right: lb,
            });
        }
        if !norm.contains(&(lo, hi)) {
            norm.push((lo, hi));
        }
    }
    Ok(norm)
}

/// Rewrites a checked query to fixpoint, counting passes.
///
/// Each pass consumes the previous pass's query. The loop stops at the
/// first pass that reports no change, which certifies the fixpoint.
fn fixpoint(q: Query, schema: &Schema) -> (Query, OptimizeStats) {
    // Each pass finishes all upward rewrites and moves pushed-down
    // selections at least one level, so `depth` passes reach the
    // fixpoint. (+2: one pass to observe stability, one for rewrites
    // enabled by the final pushdown step, e.g. fusing into a child
    // selection.) One pass past the bound reports whether the last
    // rewriting pass happened to land on the fixpoint; if that pass
    // still rewrites, the loop ran out of budget and returns its query
    // unconverged.
    let bound = 2 * q.depth() + 2;
    let mut cur = q;
    let mut stats = OptimizeStats {
        passes: 0,
        converged: false,
    };
    while !stats.converged && stats.passes <= bound {
        #[cfg(debug_assertions)]
        let before = cur.clone();
        let (next, _, changed) = rewrite_pass(cur, schema);
        #[cfg(debug_assertions)]
        assert!(
            changed || next == before,
            "an optimizer pass reported no change but rewrote\n{}\ninto\n{}",
            render(&before),
            render(&next)
        );
        cur = next;
        stats.passes += 1;
        stats.converged = !changed;
    }
    debug_assert!(
        stats.converged,
        "optimizer exhausted its fixpoint bound without converging \
         ({} passes) on\n{}",
        stats.passes,
        render(&cur)
    );
    (cur, stats)
}

/// One bottom-up rewrite pass over an owned, checked query: the
/// rewritten query, its output arity, and whether any rule fired
/// (`false` exactly when the returned query equals the input).
fn rewrite_pass(mut q: Query, schema: &Schema) -> (Query, usize, bool) {
    let mut changed = false;
    // Rewrites a child in its own box and returns its arity.
    let mut child = |c: &mut Box<Query>| {
        let (next, arity, fired) = rewrite_pass(std::mem::replace(&mut **c, Query::Input), schema);
        **c = next;
        changed |= fired;
        arity
    };
    // The node's arity, and its first child's (the left operand's, for
    // a product or join).
    let (arity, first) = match &mut q {
        Query::Input => leaf_arity(schema, Schema::INPUT),
        Query::Second => leaf_arity(schema, Schema::SECOND),
        Query::Rel(name) => leaf_arity(schema, name),
        Query::Lit(i) => (i.arity(), i.arity()),
        Query::Project(cols, c) => (cols.len(), child(c)),
        Query::Select(_, c) => {
            let a = child(c);
            (a, a)
        }
        Query::Product(a, b)
        | Query::Join {
            left: a, right: b, ..
        } => {
            let la = child(a);
            (la + child(b), la)
        }
        Query::Union(a, b) | Query::Diff(a, b) | Query::Intersect(a, b) => {
            let la = child(a);
            child(b);
            (la, la)
        }
    };
    let (q, fired) = rewrite(q, arity, first, schema);
    (q, arity, changed || fired)
}

/// A leaf's arity, as `(arity, arity)` for [`rewrite_pass`].
fn leaf_arity(schema: &Schema, name: &str) -> (usize, usize) {
    let a = schema
        .arity_of(name)
        .expect("leaves are checked against the schema");
    (a, a)
}

/// Applies the first matching local rule at the root of a query whose
/// output arity is `arity` and whose first child's is `first`, and
/// reports whether one fired; a query no rule matches comes back as it
/// is.
fn rewrite(q: Query, arity: usize, first: usize, schema: &Schema) -> (Query, bool) {
    match q {
        Query::Project(cols, child) => rewrite_project(cols, child, first),
        Query::Select(pred, child) => rewrite_select(pred, child, arity, schema),
        Query::Product(a, b) => {
            if is_empty_lit(&a) || is_empty_lit(&b) {
                return (empty(arity), true);
            }
            if let (Query::Lit(x), Query::Lit(y)) = (&*a, &*b) {
                return (Query::Lit(x.product(y)), true);
            }
            (Query::Product(a, b), false)
        }
        Query::Join {
            on,
            residual,
            left,
            right,
        } => rewrite_join(on, residual, left, right, first, arity),
        Query::Union(a, b) => {
            if is_empty_lit(&a) || a == b {
                return (*b, true);
            }
            if is_empty_lit(&b) {
                return (*a, true);
            }
            if let (Query::Lit(x), Query::Lit(y)) = (&*a, &*b) {
                let u = x.union(y).expect("arities checked");
                return (Query::Lit(u), true);
            }
            (Query::Union(a, b), false)
        }
        Query::Diff(a, b) => {
            if a == b || is_empty_lit(&a) {
                return (empty(arity), true);
            }
            if is_empty_lit(&b) {
                return (*a, true);
            }
            if let (Query::Lit(x), Query::Lit(y)) = (&*a, &*b) {
                let d = x.difference(y).expect("arities checked");
                return (Query::Lit(d), true);
            }
            (Query::Diff(a, b), false)
        }
        Query::Intersect(a, b) => {
            if is_empty_lit(&a) || is_empty_lit(&b) {
                return (empty(arity), true);
            }
            if a == b {
                return (*a, true);
            }
            if let (Query::Lit(x), Query::Lit(y)) = (&*a, &*b) {
                let i = x.intersect(y).expect("arities checked");
                return (Query::Lit(i), true);
            }
            (Query::Intersect(a, b), false)
        }
        leaf => (leaf, false),
    }
}

/// Whether `q` is a constant empty relation.
fn is_empty_lit(q: &Query) -> bool {
    matches!(q, Query::Lit(i) if i.is_empty())
}

/// The empty relation of the given arity (dead branches rewrite to it).
fn empty(arity: usize) -> Query {
    Query::Lit(Instance::empty(arity))
}

fn rewrite_project(cols: Vec<usize>, child: Box<Query>, child_arity: usize) -> (Query, bool) {
    if let Query::Lit(i) = &*child {
        let projected = i.project(&cols).expect("columns checked");
        return (Query::Lit(projected), true);
    }
    // Identity projection: π_{0,1,…,n−1} of an arity-n child.
    if cols.len() == child_arity && cols.iter().enumerate().all(|(i, &c)| i == c) {
        return (*child, true);
    }
    // π_cols(π_inner(e)) → π_{composed}(e).
    if let Query::Project(inner, e) = *child {
        let composed: Vec<usize> = cols.iter().map(|&c| inner[c]).collect();
        return (Query::Project(composed, e), true);
    }
    (Query::Project(cols, child), false)
}

fn rewrite_select(pred: Pred, child: Box<Query>, arity: usize, schema: &Schema) -> (Query, bool) {
    // Normalize the conjunction structure first: `and()` is `true`,
    // `and(p)` is `p`, nested `and`s flatten, `false` absorbs. This is
    // what lets the `true`/`false` rules below fire on every spelling.
    // Only a predicate that was not already flat counts as rewritten.
    let normalized = !pred.is_flat();
    let pred = pred.into_flat();
    match pred {
        Pred::True => return (*child, true),
        Pred::False => return (empty(arity), true),
        _ => {}
    }
    if is_empty_lit(&child) {
        return (empty(arity), true);
    }
    let q = match *child {
        // Constant folding: queries are checked, so `Pred::eval` cannot
        // report out-of-range columns here.
        Query::Lit(i) => {
            let mut out = Instance::empty(i.arity());
            for t in i.iter() {
                if pred.eval(t.values()).expect("predicate validated") {
                    out.insert(t.clone()).expect("same arity");
                }
            }
            Query::Lit(out)
        }
        // Fusion: σ_p(σ_q(e)) filters by q then p, i.e. by q ∧ p.
        Query::Select(q, e) => Query::Select(Pred::conj_all([q, pred]), e),
        Query::Union(a, b) => Query::Union(
            Box::new(Query::Select(pred.clone(), a)),
            Box::new(Query::Select(pred, b)),
        ),
        // σ_p(a − b) = σ_p(a) − b and σ_p(a ∩ b) = σ_p(a) ∩ b: the
        // right side only decides membership, the surviving tuples come
        // from the left.
        Query::Diff(a, b) => Query::Diff(Box::new(Query::Select(pred, a)), b),
        Query::Intersect(a, b) => Query::Intersect(Box::new(Query::Select(pred, a)), b),
        Query::Product(a, b) => {
            // The one rule that needs a grandchild's width.
            let la = a.arity_in(schema).expect("queries are checked");
            let (q, pushed) = push_through_product(pred, a, b, la, arity);
            return (q, pushed || normalized);
        }
        // σ_p over a join fuses into the residual; the join rewrite then
        // re-partitions the enlarged residual (pushing one-sided
        // conjuncts down, promoting spanning equalities to keys).
        Query::Join {
            on,
            residual,
            left,
            right,
        } => Query::Join {
            on,
            residual: some_pred(match residual {
                Some(r) => Pred::conj_all([r, pred]),
                None => pred,
            }),
            left,
            right,
        },
        other => return (Query::select(other, pred), normalized),
    };
    (q, true)
}

/// Splits `σ_p(a × b)`, where `a` has arity `la`, by the column ranges
/// each top-level conjunct of `p` touches: left-only conjuncts move onto
/// `a`, right-only conjuncts are re-based and move onto `b`, column-free
/// conjuncts are decided now. Spanning conjuncts either *become the
/// join*: if any are column–column equalities, the product is rewritten
/// into a hash [`Query::Join`] keyed on them (the other spanning
/// conjuncts ride along as the residual) — or, with no equality to key
/// on, stay as a selection above the product. Reports whether anything
/// moved.
fn push_through_product(
    pred: Pred,
    a: Box<Query>,
    b: Box<Query>,
    la: usize,
    arity: usize,
) -> (Query, bool) {
    let mut left = Vec::new();
    let mut right = Vec::new();
    let mut rest = Vec::new();
    let mut dropped_const = false;
    for c in pred.conjuncts() {
        match (c.min_col(), c.max_col()) {
            (None, None) => {
                // Column-free: a constant truth value.
                if c.eval(&[]).expect("no column references") {
                    dropped_const = true;
                } else {
                    return (empty(arity), true);
                }
            }
            (_, Some(max)) if max < la => left.push(c),
            (Some(min), _) if min >= la => right.push(c.unshift_cols(la)),
            _ => rest.push(c),
        }
    }
    let (on, residual) = Pred::conj_all(rest).split_equijoin(la);
    if !on.is_empty() {
        let join = Query::Join {
            on,
            residual: some_pred(residual),
            left: maybe_select(Pred::conj_all(left), a),
            right: maybe_select(Pred::conj_all(right), b),
        };
        return (join, true);
    }
    if left.is_empty() && right.is_empty() && !dropped_const {
        // Nothing to push and nothing to key on: the input comes back.
        return (Query::select(Query::Product(a, b), pred), false);
    }
    let a = maybe_select(Pred::conj_all(left), a);
    let b = maybe_select(Pred::conj_all(right), b);
    (
        *maybe_select(residual, Box::new(Query::Product(a, b))),
        true,
    )
}

/// Local rules at a join node whose left operand has arity `la`: empty
/// operands annihilate, the residual is re-partitioned (one-sided
/// conjuncts push into the operands, spanning equalities promote to key
/// pairs, column-free conjuncts are decided now), and an all-literal
/// join is folded at optimization time. Reports whether any of them
/// fired.
fn rewrite_join(
    on: Vec<(usize, usize)>,
    residual: Option<Pred>,
    left: Box<Query>,
    right: Box<Query>,
    la: usize,
    arity: usize,
) -> (Query, bool) {
    if is_empty_lit(&left) || is_empty_lit(&right) {
        return (empty(arity), true);
    }
    let mut on = on;
    let mut push_left = Vec::new();
    let mut push_right = Vec::new();
    let mut rest = Vec::new();
    let mut changed = false;
    if let Some(p) = &residual {
        for c in p.conjuncts() {
            if let Pred::Cmp(CmpOp::Eq, Operand::Col(i), Operand::Col(j)) = &c {
                let (lo, hi) = (*i.min(j), *i.max(j));
                if lo < la && hi >= la {
                    // Spanning equality: promote to a key pair.
                    if !on.contains(&(lo, hi)) {
                        on.push((lo, hi));
                    }
                    changed = true;
                    continue;
                }
            }
            match (c.min_col(), c.max_col()) {
                (None, None) => {
                    if c.eval(&[]).expect("no column references") {
                        changed = true; // constant true conjunct: drop it
                    } else {
                        return (empty(arity), true);
                    }
                }
                (_, Some(max)) if max < la => {
                    push_left.push(c);
                    changed = true;
                }
                (Some(min), _) if min >= la => {
                    push_right.push(c.unshift_cols(la));
                    changed = true;
                }
                _ => rest.push(c),
            }
        }
    }
    if !changed {
        // Residual is irreducible; fold the join if both operands are
        // literals (keys and residual were checked).
        if let (Query::Lit(x), Query::Lit(y)) = (&*left, &*right) {
            let folded = x.equijoin(y, &on, residual.as_ref()).expect("join checked");
            return (Query::Lit(folded), true);
        }
        let join = Query::Join {
            on,
            residual,
            left,
            right,
        };
        return (join, false);
    }
    let join = Query::Join {
        on,
        residual: some_pred(Pred::conj_all(rest)),
        left: maybe_select(Pred::conj_all(push_left), left),
        right: maybe_select(Pred::conj_all(push_right), right),
    };
    (join, true)
}

/// `σ_pred(child)`, or `child` itself when `pred` is `true`.
fn maybe_select(pred: Pred, child: Box<Query>) -> Box<Query> {
    if pred == Pred::True {
        child
    } else {
        Box::new(Query::Select(pred, child))
    }
}

/// `None` for the trivial predicate, `Some` otherwise — the residual
/// slot's normal form (so `residual: Some(True)` never appears).
fn some_pred(p: Pred) -> Option<Pred> {
    match p {
        Pred::True => None,
        p => Some(p),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::{Backend, Catalog, Engine};
    use ipdb_rel::instance;
    use ipdb_rel::strategies::{arb_instance, arb_query};
    use proptest::prelude::*;

    fn opt(src: &str, input_arity: usize) -> String {
        opt_in(src, &Schema::single(input_arity))
    }

    fn opt_in(src: &str, schema: &Schema) -> String {
        render(&optimize(&parse(src).unwrap(), schema).unwrap().0)
    }

    #[test]
    fn fuses_stacked_selections() {
        assert_eq!(
            opt("sigma[#0=1](sigma[#1=2](V))", 2),
            "sigma[and(#1=2,#0=1)](V)"
        );
        // Three deep fuses flat, not nested.
        assert_eq!(
            opt("sigma[#0=1](sigma[#1=2](sigma[#0=#1](V)))", 2),
            "sigma[and(#0=#1,#1=2,#0=1)](V)"
        );
    }

    #[test]
    fn pushes_selection_through_product() {
        // #0 and #1 live in the left factor, #2 in the right; #1=#2 spans
        // and becomes the join key.
        assert_eq!(
            opt("sigma[and(#0=1,#2=3,#1=#2)](V x pi[0](V))", 2),
            "join[#1=#2](sigma[#0=1](V), sigma[#0=3](pi[0](V)))"
        );
        // Fully-left predicate leaves nothing above the product.
        assert_eq!(opt("sigma[#0=#1](V x V)", 2), "(sigma[#0=#1](V) x V)");
        // A spanning equality becomes a hash join.
        assert_eq!(opt("sigma[#1=#2](V x V)", 2), "join[#1=#2](V, V)");
        // A spanning *inequality* has nothing to key on and stays put.
        assert_eq!(opt("sigma[#1!=#2](V x V)", 2), "sigma[#1!=#2]((V x V))");
    }

    #[test]
    fn recognizes_equijoins_over_products() {
        // The acceptance-criterion shape: σ_{#0=#2}(R × S).
        assert_eq!(opt("sigma[#0=#2](V x V)", 2), "join[#0=#2](V, V)");
        // Multiple keys, in extraction order; spanning non-equality
        // conjuncts become the residual.
        assert_eq!(
            opt("sigma[and(#0=#2,#1=#3,#1!=#2)](V x V)", 2),
            "join[#0=#2,#1=#3; #1!=#2](V, V)"
        );
        // One-sided conjuncts still push below the join.
        assert_eq!(
            opt("sigma[and(#1=#2,#0=7)](V x V)", 2),
            "join[#1=#2](sigma[#0=7](V), V)"
        );
        // Duplicate and reversed spellings dedup into one key.
        assert_eq!(
            opt("sigma[and(#0=#2,#2=#0)](V x V)", 2),
            "join[#0=#2](V, V)"
        );
        // Two keys on one right column, over a selected right input.
        assert_eq!(
            opt("sigma[and(#1=#2,#0=#2,#1!=0)](V x sigma[#1!=1](V))", 2),
            "join[#1=#2,#0=#2](sigma[#1!=0](V), sigma[#1!=1](V))"
        );
    }

    #[test]
    fn selections_fuse_into_join_residuals() {
        // σ above a join folds into the join, re-partitioning: left-only
        // conjunct pushes down, spanning equality becomes a key.
        assert_eq!(
            opt("sigma[#0=1](join[#1=#2](V, V))", 2),
            "join[#1=#2](sigma[#0=1](V), V)"
        );
        assert_eq!(
            opt("sigma[#0=#3](join[#1=#2](V, V))", 2),
            "join[#1=#2,#0=#3](V, V)"
        );
        assert_eq!(
            opt("sigma[#0!=#3](join[#1=#2](V, V))", 2),
            "join[#1=#2; #0!=#3](V, V)"
        );
        // A user-written residual is re-partitioned the same way.
        assert_eq!(
            opt("join[#1=#2; and(#0=5,#1!=#3)](V, V)", 2),
            "join[#1=#2; #1!=#3](sigma[#0=5](V), V)"
        );
    }

    #[test]
    fn join_dead_branches_and_constant_folding() {
        assert_eq!(opt("join[#0=#1](V diff V, V)", 1), "{:2}");
        assert_eq!(opt("join[#0=#1](V, V diff V)", 1), "{:2}");
        assert_eq!(opt("join[#0=#1; false](V, V)", 1), "{:2}");
        assert_eq!(opt("join[#0=#1]({(1),(2)}, {(2),(3)})", 1), "{(2,2)}");
        // σ_eq over two literals folds all the way through the join path.
        assert_eq!(opt("sigma[#0=#1]({(1),(2)} x {(2)})", 1), "{(2,2)}");
    }

    #[test]
    fn pushes_selection_through_set_ops() {
        assert_eq!(
            opt("sigma[#0=1](V union V)", 1),
            // ∪-idempotence collapses the child first (passes run
            // bottom-up), leaving a plain selection over V.
            "sigma[#0=1](V)"
        );
        assert_eq!(
            opt("sigma[#0=1](V union pi[1](V x V))", 1),
            "(sigma[#0=1](V) union sigma[#0=1](pi[1]((V x V))))"
        );
        assert_eq!(
            opt("sigma[#0=1](pi[0](V) diff pi[1](V))", 2),
            "(sigma[#0=1](pi[0](V)) diff pi[1](V))"
        );
        assert_eq!(
            opt("sigma[#0=1](pi[0](V) intersect pi[1](V))", 2),
            "(sigma[#0=1](pi[0](V)) intersect pi[1](V))"
        );
    }

    #[test]
    fn prunes_projections() {
        assert_eq!(opt("pi[0,1](V)", 2), "V");
        assert_eq!(opt("pi[1](pi[2,0](V))", 3), "pi[0](V)");
        assert_eq!(opt("pi[0,0](pi[1](V))", 2), "pi[1,1](V)");
        // Non-identity projections survive.
        assert_eq!(opt("pi[1,0](V)", 2), "pi[1,0](V)");
    }

    #[test]
    fn eliminates_dead_branches() {
        assert_eq!(opt("V diff V", 2), "{:2}");
        assert_eq!(opt("sigma[false](V)", 2), "{:2}");
        assert_eq!(opt("V x (pi[0](V) diff pi[0](V))", 2), "{:3}");
        assert_eq!(opt("V union (V diff V)", 2), "V");
        assert_eq!(opt("V intersect (V diff V)", 2), "{:2}");
        assert_eq!(opt("pi[0](V diff V)", 2), "{:1}");
        assert_eq!(opt("(V diff V) diff V", 2), "{:2}");
        assert_eq!(opt("V diff (V diff V)", 2), "V");
        assert_eq!(opt("sigma[#0=1](V diff V)", 2), "{:2}");
    }

    #[test]
    fn idempotent_set_ops_collapse() {
        assert_eq!(opt("V union V", 2), "V");
        assert_eq!(opt("V intersect V", 2), "V");
        assert_eq!(opt("pi[0](V) union pi[0](V)", 2), "pi[0](V)");
        // Different subplans do not collapse.
        assert_eq!(
            opt("pi[0](V) union pi[1](V)", 2),
            "(pi[0](V) union pi[1](V))"
        );
    }

    #[test]
    fn trivial_selections_vanish() {
        assert_eq!(opt("sigma[true](V)", 2), "V");
        assert_eq!(opt("sigma[and()](V)", 2), "V");
        // Column-free conjuncts are decided at plan time (the remaining
        // spanning equality then keys a join).
        assert_eq!(opt("sigma[and(1=1,#0=#1)](V x V)", 1), "join[#0=#1](V, V)");
        assert_eq!(opt("sigma[and(1=2,#0=#1)](V x V)", 1), "{:2}");
    }

    #[test]
    fn folds_constant_subtrees() {
        assert_eq!(opt("{(1),(2)} union {(2),(3)}", 1), "{(1),(2),(3)}");
        assert_eq!(opt("sigma[#0=1]({(1),(2)})", 1), "{(1)}");
        assert_eq!(opt("pi[1]({(1,2)})", 1), "{(2)}");
        assert_eq!(opt("{(1)} x {(2)}", 1), "{(1,2)}");
        assert_eq!(opt("{(1),(2)} diff {(2)}", 1), "{(1)}");
        assert_eq!(opt("{(1),(2)} intersect {(2),(3)}", 1), "{(2)}");
        // Constant folding composes with the input-dependent part.
        assert_eq!(opt("V union ({(1)} diff {(1)})", 1), "V");
    }

    #[test]
    fn optimized_queries_still_evaluate_identically() {
        let i = instance![[1, 10], [2, 20], [3, 10]];
        for src in [
            "sigma[#0=1](sigma[#1=10](V))",
            "sigma[and(#1=10,#2=20,#1=#3)](V x V)",
            "pi[1](pi[1,0](V))",
            "sigma[#0=2](V union V)",
            "(V diff V) union sigma[true](V)",
            "pi[0,1](V) intersect pi[0,1](V)",
        ] {
            let q = parse(src).unwrap();
            let (o, _) = optimize(&q, &Schema::single(2)).unwrap();
            assert_eq!(q.eval(&i).unwrap(), o.eval(&i).unwrap(), "query {src}");
        }
    }

    #[test]
    fn optimize_rejects_ill_typed_input() {
        assert!(optimize(&parse("pi[9](V)").unwrap(), &Schema::single(2)).is_err());
    }

    #[test]
    fn deep_pushdown_reaches_fixpoint_within_bound() {
        // σ over a four-deep product chain: the selection must descend
        // all the way to the leftmost factor.
        let src = "sigma[#0=1](V x (V x (V x V)))";
        let out = opt(src, 1);
        assert_eq!(out, "(sigma[#0=1](V) x (V x (V x V)))");
    }

    #[test]
    fn stats_report_convergence_and_pass_counts() {
        // Already-optimal query: one certifying pass.
        let flat = parse("V").unwrap();
        let (out, stats) = optimize(&flat, &Schema::single(2)).unwrap();
        assert_eq!(out, flat);
        assert_eq!(stats.passes, 1);
        assert!(stats.converged);

        // A rewrite-heavy query converges within its bound, strictly
        // under the budget, and the pass counter says how fast.
        let v = Schema::single(1);
        let deep = parse("sigma[#0=1](sigma[#1=2](V x (V x V)))").unwrap();
        let (opt1, stats) = optimize(&deep, &v).unwrap();
        assert!(stats.converged);
        assert!(stats.passes <= 2 * deep.depth() + 2);
        // Convergence is exactly idempotence: re-optimizing is a no-op
        // that certifies in one pass.
        let (opt2, stats2) = optimize(&opt1, &v).unwrap();
        assert_eq!(opt1, opt2);
        assert_eq!(stats2.passes, 1);
    }

    #[test]
    fn optimizer_passes_through_named_relations() {
        let schema = Schema::new([("R", 2), ("S", 2)]).unwrap();
        assert_eq!(opt_in("sigma[#0=#2](R x S)", &schema), "join[#0=#2](R, S)");
        // Idempotent-set-op collapse compares whole subtrees, so two
        // *different* relations do not collapse but equal ones do.
        assert_eq!(opt_in("R union R", &schema), "R");
        assert_eq!(opt_in("R union S", &schema), "(R union S)");
        assert_eq!(opt_in("R diff R", &schema), "{:2}");
    }

    #[test]
    fn rejects_ill_typed_queries() {
        let v = Schema::single(2);
        let bad = Query::project(Query::Input, vec![5]);
        assert_eq!(
            optimize(&bad, &v),
            Err(EngineError::Rel(RelError::ColumnOutOfRange {
                col: 5,
                arity: 2
            }))
        );
        let mix = Query::union(Query::Input, Query::Lit(instance![[1]]));
        assert!(optimize(&mix, &v).is_err());
        assert!(optimize(&Query::Second, &v).is_err());
        assert_eq!(
            Engine::new()
                .prepare_schema(&Query::Second, &Schema::pair(2, 4))
                .unwrap()
                .output_arity(),
            4
        );
        let sel = Query::select(Query::Input, Pred::eq_cols(0, 7));
        assert!(optimize(&sel, &v).is_err());
    }

    #[test]
    fn join_queries_validate_and_normalize() {
        let v = Schema::single(2);
        // Reversed and duplicated pairs normalize to one (left, right) key.
        let q = Query::join(Query::Input, Query::Input, [(2, 0), (0, 2)], None);
        let stmt = Engine::new().prepare(&q, 2).unwrap();
        assert_eq!(stmt.output_arity(), 4);
        assert_eq!(
            stmt.naive_query(),
            &Query::join(Query::Input, Query::Input, [(0, 2)], None)
        );

        // Empty `on` is rejected by the check.
        let empty = Query::join(Query::Input, Query::Input, [], None);
        assert_eq!(optimize(&empty, &v), Err(EngineError::EmptyJoinOn));

        // Key out of the combined arity.
        let oob = Query::join(Query::Input, Query::Input, [(0, 9)], None);
        assert_eq!(
            optimize(&oob, &v),
            Err(EngineError::JoinArity {
                col: 9,
                left: 2,
                right: 2
            })
        );
        // Both key columns on the left side.
        let left_only = Query::join(Query::Input, Query::Input, [(0, 1)], None);
        assert_eq!(
            optimize(&left_only, &v),
            Err(EngineError::JoinArity {
                col: 1,
                left: 2,
                right: 2
            })
        );
        // Both key columns on the right side.
        let right_only = Query::join(Query::Input, Query::Input, [(2, 3)], None);
        assert_eq!(
            optimize(&right_only, &v),
            Err(EngineError::JoinArity {
                col: 2,
                left: 2,
                right: 2
            })
        );
        // Residual is arity-checked against the combined width.
        let bad_resid = Query::join(
            Query::Input,
            Query::Input,
            [(0, 2)],
            Some(Pred::eq_cols(0, 7)),
        );
        assert!(optimize(&bad_resid, &v).is_err());
    }

    #[test]
    fn empty_lit_helpers() {
        assert!(is_empty_lit(&empty(3)));
        assert_eq!(empty(3), Query::Lit(Instance::empty(3)));
        assert!(!is_empty_lit(&Query::Lit(instance![[1]])));
        assert!(!is_empty_lit(&Query::Input));
    }

    /// Runs a query's fixpoint one pass at a time, checking that each
    /// pass's change flag is exactly `output != input` and that the
    /// arity it reports is the output's; returns the number of passes,
    /// counted like [`OptimizeStats::passes`].
    fn passes_with_exact_flags(q: &Query, schema: &Schema) -> usize {
        let (mut q, arity) = check(q, schema).unwrap();
        let bound = 2 * q.depth() + 2;
        for passes in 1..=bound + 1 {
            let (next, next_arity, changed) = rewrite_pass(q.clone(), schema);
            assert_eq!(
                changed,
                next != q,
                "pass {} flag disagrees with its rewrite of\n{}",
                passes,
                render(&q)
            );
            assert_eq!(next_arity, arity, "pass {passes} arity of\n{}", render(&q));
            if !changed {
                return passes;
            }
            q = next;
        }
        panic!("fixpoint bound exhausted")
    }

    /// A comparison atom over columns `0..6` (callers wrap the numbers into
    /// their arity) or small constants, so const–const atoms occur too.
    fn arb_atom() -> BoxedStrategy<Pred> {
        let operand = || {
            prop_oneof![
                (0usize..6).prop_map(Operand::Col),
                (0i64..=3).prop_map(Operand::val),
            ]
        };
        (
            prop_oneof![Just(CmpOp::Eq), Just(CmpOp::Neq)],
            operand(),
            operand(),
        )
            .prop_map(|(op, l, r)| Pred::Cmp(op, l, r))
            .boxed()
    }

    /// A selection guard as machines write them: an `and` of 0–10 members
    /// — atoms, `true`, `false`, and nested `and`s of 0–3 atoms — so every
    /// unflattened spelling (`and()`, `and(p)`, nested, with units or an
    /// absorbing `false`) occurs.
    fn arb_wide_conj() -> BoxedStrategy<Pred> {
        let member = prop_oneof![
            10 => arb_atom(),
            1 => Just(Pred::True),
            1 => Just(Pred::False),
            3 => proptest::collection::vec(arb_atom(), 0..=3).prop_map(Pred::And),
        ];
        proptest::collection::vec(member, 0..=10)
            .prop_map(Pred::And)
            .boxed()
    }

    /// One layer stacked on a query by [`arb_guarded_query`]; column
    /// numbers are taken modulo the arity underneath.
    #[derive(Debug, Clone)]
    enum Layer {
        Select(Pred),
        Project(Vec<usize>),
    }

    /// Stacks of 1–6 selection and projection layers (σ-over-π-over-σ, the
    /// serving templates' shape) over a single-input product chain or a
    /// literal, for inputs of arity 2.
    fn arb_guarded_query() -> BoxedStrategy<Query> {
        let layer = prop_oneof![
            3 => arb_wide_conj().prop_map(Layer::Select),
            2 => proptest::collection::vec(0usize..6, 1..=3).prop_map(Layer::Project),
        ];
        (0usize..4, proptest::collection::vec(layer, 1..=6))
            .prop_map(|(base, layers)| {
                let v = || Query::Input;
                let (mut q, mut arity) = match base {
                    0 => (v(), 2),
                    1 => (Query::product(v(), v()), 4),
                    2 => (Query::product(Query::product(v(), v()), v()), 6),
                    _ => {
                        let lit = Instance::from_rows(2, [[0i64, 1], [1, 1], [2, 3]]).unwrap();
                        (Query::product(Query::Lit(lit), v()), 4)
                    }
                };
                for l in layers {
                    q = match l {
                        Layer::Select(p) => Query::select(q, p.map_cols(move |c| c % arity)),
                        Layer::Project(cols) => {
                            let cols: Vec<usize> = cols.into_iter().map(|c| c % arity).collect();
                            arity = cols.len();
                            Query::project(q, cols)
                        }
                    };
                }
                q
            })
            .boxed()
    }

    /// The text `serve_query_pool` (in `ipdb-bench`) generates for template
    /// `i` over relations `Z{a}`..`Z{d}`.
    fn serve_template(i: i64, [a, b, c, d]: [usize; 4]) -> String {
        let (g0, g1) = (
            serve_guard(0, 9_000_001 + 10 * i, ", "),
            serve_guard(1, 9_100_001 + 10 * i, ", "),
        );
        format!(
            "pi[0](sigma[and({g0})](pi[0](sigma[and({g1})](pi[0,1](\
             sigma[and(#1=#2, #3=#4, #5=#6)](((pi[0,1](sigma[and({g0})](Z{a})) x \
             pi[0,1](sigma[and({g1})](Z{b}))) x Z{c}) x pi[0,1](Z{d})))))))"
        )
    }

    /// A template's always-true 8-atom guard on column `col`, its atoms
    /// joined by `sep` (`", "` in the template text, `","` when rendered).
    fn serve_guard(col: usize, first: i64, sep: &str) -> String {
        (first..first + 8)
            .map(|k| format!("#{col}!={k}"))
            .collect::<Vec<_>>()
            .join(sep)
    }

    /// Pins the optimizer's output on three `serve_query_pool(2048, 7)`
    /// templates (indices 0–2): the guards fuse and push onto the chain's
    /// leaves, the three spanning equalities become hash joins, and the
    /// fixpoint certifies on the fourth pass.
    #[test]
    fn optimize_pins_serve_pool_templates() {
        let schema = Schema::new((0..8).map(|r| (format!("Z{r}"), 2))).unwrap();
        for (i, rels) in [(0, [0, 5, 1, 1]), (1, [0, 1, 0, 0]), (2, [1, 0, 7, 6])] {
            let [a, b, c, d] = rels;
            let (g0, g1) = (
                serve_guard(0, 9_000_001 + 10 * i, ","),
                serve_guard(1, 9_100_001 + 10 * i, ","),
            );
            let expected = format!(
                "sigma[and({g0})](pi[0](sigma[and({g1})](pi[0,1](\
                 join[#5=#6](join[#3=#4](join[#1=#2](\
                 sigma[and({g0})](Z{a}), sigma[and({g1})](Z{b})), Z{c}), Z{d})))))"
            );
            let q = parse(&serve_template(i, rels)).unwrap();
            let (out, stats) = optimize(&q, &schema).unwrap();
            assert_eq!(render(&out), expected, "template {i}");
            assert_eq!(stats.passes, 4, "template {i}");
            assert!(stats.converged);
            assert_eq!(passes_with_exact_flags(&q, &schema), 4, "template {i}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every pass of the fixpoint reports a change iff it rewrote the
        /// query, and the loop takes as many passes as the stats say.
        #[test]
        fn optimize_pass_flags_are_exact(q in arb_query(2, 3, 4, 3)) {
            let v = Schema::single(2);
            let passes = passes_with_exact_flags(&q, &v);
            prop_assert_eq!(passes, optimize(&q, &v).unwrap().1.passes);
        }

        /// The same over wide, oddly nested guards stacked σ-over-π-over-σ;
        /// the optimized query also still answers like the naive one.
        #[test]
        fn optimize_pass_flags_are_exact_on_wide_guards(
            q in arb_guarded_query(),
            i in arb_instance(2, 4, 3),
        ) {
            let v = Schema::single(2);
            let passes = passes_with_exact_flags(&q, &v);
            prop_assert_eq!(passes, optimize(&q, &v).unwrap().1.passes);
            let stmt = Engine::new().prepare(&q, 2).unwrap();
            let cat = Catalog::single(i);
            prop_assert_eq!(
                stmt.execute_catalog(&cat).unwrap(),
                Instance::run_catalog(&cat, stmt.naive_query()).unwrap()
            );
        }
    }
}
