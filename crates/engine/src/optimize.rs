//! The rule-based plan optimizer.
//!
//! Rewrites applied (all are worldwise identities of the relational
//! algebra, so they are sound on every backend — conventional instances,
//! c-tables via Lemma 1, and pc-tables via Theorem 9):
//!
//! * **predicate fusion** — `σ_p(σ_q(e)) → σ_{q∧p}(e)` (via
//!   [`Pred::conj`], so conjunctions stay flat);
//! * **selection pushdown** — through `∪` (both sides), `−`/`∩` (left
//!   side), and `×` (conjuncts split by the column ranges they touch,
//!   with right-side conjuncts re-based);
//! * **equijoin recognition** — `σ_{… ∧ #i=#j ∧ …}(a × b)` with `#i=#j`
//!   spanning the product becomes a hash-executed
//!   [`PlanNode::Join`]: spanning equality conjuncts (extracted
//!   deterministically by [`Pred::split_equijoin`]) become the key list,
//!   everything else stays as the join's residual. Selections above a
//!   join fuse into its residual, and residual conjuncts that touch only
//!   one operand are pushed down into it;
//! * **projection pruning** — `π_cols(π_inner(e)) → π_{inner∘cols}(e)`
//!   and identity projections dropped;
//! * **dead-branch elimination** — `q − q → ∅`, `σ_false(e) → ∅`, and
//!   empty-literal propagation through every operator;
//! * **idempotent set ops** — `q ∪ q → q`, `q ∩ q → q`;
//! * **constant folding** — any operator whose children are all literals
//!   is evaluated at plan time.
//!
//! A pass ([`rewrite_pass`]) runs bottom-up over a plan it owns: it
//! moves each child out, rewrites it, and moves the result back, so an
//! operator no rule touches costs a move, not a copy. Every local rule
//! reports whether it fired, and the pass reports whether any did, so
//! the fixpoint loop stops at the first pass that reports no change —
//! without keeping the previous plan to compare against. (Debug builds
//! keep it anyway and assert that a pass reporting no change returned
//! its input.)
//!
//! Upward effects (empty propagation, fusion) complete within one pass;
//! downward effects (pushdown) descend one operator per pass, so the
//! fixpoint loop is bounded using the plan's [`Query::depth`] measure
//! rather than iterating blindly.

use ipdb_rel::{CmpOp, Instance, Operand, Pred, Query, Schema};

use crate::error::EngineError;
use crate::plan::{Plan, PlanNode};

/// Optimizes a query in a single-input context: plan, rewrite to
/// fixpoint, lower back to an executable [`Query`].
pub fn optimize(q: &Query, input_arity: usize) -> Result<Query, EngineError> {
    Ok(optimize_plan(&Plan::from_query(q, input_arity)?).to_query())
}

/// Optimizes a query over an arbitrary named [`Schema`].
pub fn optimize_in(q: &Query, schema: &Schema) -> Result<Query, EngineError> {
    Ok(optimize_plan(&Plan::from_query_schema(q, schema)?).to_query())
}

/// Rewrites a plan to fixpoint.
///
/// In debug builds, asserts that the pass bound derived from the plan's
/// depth was actually sufficient — a rewrite that oscillates or
/// descends slower than one level per pass is an optimizer bug, not a
/// tuning matter. Use [`optimize_plan_stats`] to observe the pass count
/// and convergence flag directly (the idempotence property
/// `optimize_plan(optimize_plan(p)) == optimize_plan(p)` holds exactly
/// when the loop converges, and is pinned by proptest).
pub fn optimize_plan(plan: &Plan) -> Plan {
    let (optimized, stats) = optimize_plan_stats(plan);
    debug_assert!(
        stats.converged,
        "optimizer exhausted its fixpoint bound without converging \
         ({} passes on a depth-{} plan)",
        stats.passes,
        plan.depth()
    );
    optimized
}

/// What [`optimize_plan`]'s fixpoint loop did: how many rewrite passes
/// ran, and whether the loop reached a genuine fixpoint (a pass that
/// changed nothing) before its bound ran out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptimizeStats {
    /// Number of rewrite passes executed (including the final no-op
    /// pass that certifies the fixpoint).
    pub passes: usize,
    /// Whether a no-op pass was observed within the bound. `false`
    /// means the bound was exhausted while rewrites were still firing —
    /// the returned plan is sound (every rewrite is an identity) but
    /// possibly not fully optimized.
    pub converged: bool,
}

/// Rewrites a plan to fixpoint, reporting the pass counter and whether
/// the bound sufficed (see [`OptimizeStats`]).
///
/// The input is copied once; every pass then consumes the previous
/// pass's plan. The loop stops at the first pass that reports no
/// change, which certifies the fixpoint.
pub fn optimize_plan_stats(plan: &Plan) -> (Plan, OptimizeStats) {
    // Each pass finishes all upward rewrites and moves pushed-down
    // selections at least one level, so `depth` passes reach the
    // fixpoint. (+2: one pass to observe stability, one for rewrites
    // enabled by the final pushdown step, e.g. fusing into a child
    // selection.) One pass past the bound reports whether the last
    // rewriting pass happened to land on the fixpoint; if that pass
    // still rewrites, the loop ran out of budget and returns its plan
    // unconverged.
    let bound = 2 * plan.depth() + 2;
    let mut cur = plan.clone();
    for passes in 1..=bound + 1 {
        #[cfg(debug_assertions)]
        let before = cur.clone();
        let (next, changed) = rewrite_pass(cur);
        #[cfg(debug_assertions)]
        assert!(
            changed || next == before,
            "an optimizer pass reported no change but rewrote\n{}into\n{}",
            before.render_tree(),
            next.render_tree()
        );
        cur = next;
        if !changed {
            return (
                cur,
                OptimizeStats {
                    passes,
                    converged: true,
                },
            );
        }
    }
    (
        cur,
        OptimizeStats {
            passes: bound + 1,
            converged: false,
        },
    )
}

/// One bottom-up rewrite pass over an owned plan, and whether any rule
/// fired: `false` exactly when the returned plan equals the input.
pub fn rewrite_pass(plan: Plan) -> (Plan, bool) {
    let mut changed = false;
    let mut child = |p: Box<Plan>| {
        let (p, fired) = rewrite_pass(*p);
        changed |= fired;
        Box::new(p)
    };
    let node = match plan.node {
        PlanNode::Project(cols, p) => PlanNode::Project(cols, child(p)),
        PlanNode::Select(pred, p) => PlanNode::Select(pred, child(p)),
        PlanNode::Product(a, b) => PlanNode::Product(child(a), child(b)),
        PlanNode::Join {
            on,
            residual,
            left,
            right,
        } => PlanNode::Join {
            on,
            residual,
            left: child(left),
            right: child(right),
        },
        PlanNode::Union(a, b) => PlanNode::Union(child(a), child(b)),
        PlanNode::Diff(a, b) => PlanNode::Diff(child(a), child(b)),
        PlanNode::Intersect(a, b) => PlanNode::Intersect(child(a), child(b)),
        leaf => leaf,
    };
    let (plan, fired) = rewrite(Plan {
        node,
        arity: plan.arity,
    });
    (plan, changed || fired)
}

/// Applies the first matching local rule at the root and reports
/// whether one fired; a plan no rule matches comes back as it is.
fn rewrite(plan: Plan) -> (Plan, bool) {
    let arity = plan.arity;
    let kept = |node| (Plan { node, arity }, false);
    match plan.node {
        PlanNode::Project(cols, child) => rewrite_project(cols, *child),
        PlanNode::Select(pred, child) => rewrite_select(pred, *child, arity),
        PlanNode::Product(a, b) => {
            if a.is_empty_lit() || b.is_empty_lit() {
                return (Plan::empty(arity), true);
            }
            if let (PlanNode::Lit(x), PlanNode::Lit(y)) = (&a.node, &b.node) {
                return (lit(x.product(y)), true);
            }
            kept(PlanNode::Product(a, b))
        }
        PlanNode::Join {
            on,
            residual,
            left,
            right,
        } => rewrite_join(on, residual, *left, *right, arity),
        PlanNode::Union(a, b) => {
            if a.is_empty_lit() || a == b {
                return (*b, true);
            }
            if b.is_empty_lit() {
                return (*a, true);
            }
            if let (PlanNode::Lit(x), PlanNode::Lit(y)) = (&a.node, &b.node) {
                return (
                    lit(x.union(y).expect("arities checked at plan build")),
                    true,
                );
            }
            kept(PlanNode::Union(a, b))
        }
        PlanNode::Diff(a, b) => {
            if a == b || a.is_empty_lit() {
                return (Plan::empty(arity), true);
            }
            if b.is_empty_lit() {
                return (*a, true);
            }
            if let (PlanNode::Lit(x), PlanNode::Lit(y)) = (&a.node, &b.node) {
                return (
                    lit(x.difference(y).expect("arities checked at plan build")),
                    true,
                );
            }
            kept(PlanNode::Diff(a, b))
        }
        PlanNode::Intersect(a, b) => {
            if a.is_empty_lit() || b.is_empty_lit() {
                return (Plan::empty(arity), true);
            }
            if a == b {
                return (*a, true);
            }
            if let (PlanNode::Lit(x), PlanNode::Lit(y)) = (&a.node, &b.node) {
                return (
                    lit(x.intersect(y).expect("arities checked at plan build")),
                    true,
                );
            }
            kept(PlanNode::Intersect(a, b))
        }
        leaf => kept(leaf),
    }
}

fn lit(i: Instance) -> Plan {
    Plan {
        arity: i.arity(),
        node: PlanNode::Lit(i),
    }
}

fn rewrite_project(cols: Vec<usize>, child: Plan) -> (Plan, bool) {
    if let PlanNode::Lit(i) = &child.node {
        return (
            lit(i.project(&cols).expect("columns checked at plan build")),
            true,
        );
    }
    // Identity projection: π_{0,1,…,n−1} of an arity-n child.
    if cols.len() == child.arity && cols.iter().enumerate().all(|(i, &c)| i == c) {
        return (child, true);
    }
    // π_cols(π_inner(e)) → π_{composed}(e).
    if let PlanNode::Project(inner, e) = child.node {
        let composed: Vec<usize> = cols.iter().map(|&c| inner[c]).collect();
        return (
            Plan {
                arity: composed.len(),
                node: PlanNode::Project(composed, e),
            },
            true,
        );
    }
    (
        Plan {
            arity: cols.len(),
            node: PlanNode::Project(cols, Box::new(child)),
        },
        false,
    )
}

fn rewrite_select(pred: Pred, child: Plan, arity: usize) -> (Plan, bool) {
    // Normalize the conjunction structure first: `and()` is `true`,
    // `and(p)` is `p`, nested `and`s flatten, `false` absorbs. This is
    // what lets the `true`/`false` rules below fire on every spelling.
    // Only a predicate that was not already flat counts as rewritten.
    let normalized = !pred.is_flat();
    let pred = pred.into_flat();
    match pred {
        Pred::True => return (child, true),
        Pred::False => return (Plan::empty(arity), true),
        _ => {}
    }
    if child.is_empty_lit() {
        return (Plan::empty(arity), true);
    }
    let plan = match child.node {
        // Constant folding: plans are validated, so `Pred::eval` cannot
        // report out-of-range columns here.
        PlanNode::Lit(i) => {
            let mut out = Instance::empty(i.arity());
            for t in i.iter() {
                if pred.eval(t.values()).expect("predicate validated") {
                    out.insert(t.clone()).expect("same arity");
                }
            }
            lit(out)
        }
        // Fusion: σ_p(σ_q(e)) filters by q then p, i.e. by q ∧ p.
        PlanNode::Select(q, e) => Plan {
            arity,
            node: PlanNode::Select(q.conj(pred), e),
        },
        PlanNode::Union(a, b) => Plan {
            arity,
            node: PlanNode::Union(
                Box::new(select(pred.clone(), *a)),
                Box::new(select(pred, *b)),
            ),
        },
        // σ_p(a − b) = σ_p(a) − b and σ_p(a ∩ b) = σ_p(a) ∩ b: the
        // right side only decides membership, the surviving tuples come
        // from the left.
        PlanNode::Diff(a, b) => Plan {
            arity,
            node: PlanNode::Diff(Box::new(select(pred, *a)), b),
        },
        PlanNode::Intersect(a, b) => Plan {
            arity,
            node: PlanNode::Intersect(Box::new(select(pred, *a)), b),
        },
        PlanNode::Product(a, b) => {
            let (plan, pushed) = push_through_product(pred, *a, *b, arity);
            return (plan, pushed || normalized);
        }
        // σ_p over a join fuses into the residual; the join rewrite then
        // re-partitions the enlarged residual (pushing one-sided
        // conjuncts down, promoting spanning equalities to keys).
        PlanNode::Join {
            on,
            residual,
            left,
            right,
        } => Plan {
            arity,
            node: PlanNode::Join {
                on,
                residual: some_pred(match residual {
                    Some(r) => r.conj(pred),
                    None => pred,
                }),
                left,
                right,
            },
        },
        other => return (select(pred, Plan { node: other, arity }), normalized),
    };
    (plan, true)
}

fn select(pred: Pred, child: Plan) -> Plan {
    Plan {
        arity: child.arity,
        node: PlanNode::Select(pred, Box::new(child)),
    }
}

/// Splits `σ_p(a × b)` by the column ranges each top-level conjunct of
/// `p` touches: left-only conjuncts move onto `a`, right-only conjuncts
/// are re-based and move onto `b`, column-free conjuncts are decided
/// now. Spanning conjuncts either *become the join*: if any are
/// column–column equalities, the product is rewritten into a hash
/// [`PlanNode::Join`] keyed on them (the other spanning conjuncts ride
/// along as the residual) — or, with no equality to key on, stay as a
/// selection above the product. Reports whether anything moved.
fn push_through_product(pred: Pred, a: Plan, b: Plan, arity: usize) -> (Plan, bool) {
    let la = a.arity;
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
                    return (Plan::empty(arity), true);
                }
            }
            (_, Some(max)) if max < la => left.push(c),
            (Some(min), _) if min >= la => right.push(c.unshift_cols(la)),
            _ => rest.push(c),
        }
    }
    let (on, residual) = Pred::conj_all(rest).split_equijoin(la);
    if !on.is_empty() {
        let a = maybe_select(Pred::conj_all(left), a);
        let b = maybe_select(Pred::conj_all(right), b);
        let join = Plan {
            arity,
            node: PlanNode::Join {
                on,
                residual: some_pred(residual),
                left: Box::new(a),
                right: Box::new(b),
            },
        };
        return (join, true);
    }
    if left.is_empty() && right.is_empty() && !dropped_const {
        // Nothing to push and nothing to key on: the input comes back.
        let prod = Plan {
            arity,
            node: PlanNode::Product(Box::new(a), Box::new(b)),
        };
        return (select(pred, prod), false);
    }
    let a = maybe_select(Pred::conj_all(left), a);
    let b = maybe_select(Pred::conj_all(right), b);
    let prod = Plan {
        arity,
        node: PlanNode::Product(Box::new(a), Box::new(b)),
    };
    (maybe_select(residual, prod), true)
}

/// Local rules at a join node: empty operands annihilate, the residual
/// is re-partitioned (one-sided conjuncts push into the operands,
/// spanning equalities promote to key pairs, column-free conjuncts are
/// decided now), and an all-literal join is folded at plan time.
/// Reports whether any of them fired.
fn rewrite_join(
    on: Vec<(usize, usize)>,
    residual: Option<Pred>,
    left: Plan,
    right: Plan,
    arity: usize,
) -> (Plan, bool) {
    if left.is_empty_lit() || right.is_empty_lit() {
        return (Plan::empty(arity), true);
    }
    let la = left.arity;
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
                        return (Plan::empty(arity), true);
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
        // literals (keys and residual were validated at plan build).
        if let (PlanNode::Lit(x), PlanNode::Lit(y)) = (&left.node, &right.node) {
            let folded = x
                .equijoin(y, &on, residual.as_ref())
                .expect("join validated at plan build");
            return (lit(folded), true);
        }
        let join = Plan {
            arity,
            node: PlanNode::Join {
                on,
                residual,
                left: Box::new(left),
                right: Box::new(right),
            },
        };
        return (join, false);
    }
    let left = maybe_select(Pred::conj_all(push_left), left);
    let right = maybe_select(Pred::conj_all(push_right), right);
    let join = Plan {
        arity,
        node: PlanNode::Join {
            on,
            residual: some_pred(Pred::conj_all(rest)),
            left: Box::new(left),
            right: Box::new(right),
        },
    };
    (join, true)
}

fn maybe_select(pred: Pred, child: Plan) -> Plan {
    if pred == Pred::True {
        child
    } else {
        select(pred, child)
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
    use crate::parser::{parse, render};
    use ipdb_rel::instance;

    fn opt(src: &str, input_arity: usize) -> String {
        render(&optimize(&parse(src).unwrap(), input_arity).unwrap())
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
            let o = optimize(&q, 2).unwrap();
            assert_eq!(q.eval(&i).unwrap(), o.eval(&i).unwrap(), "query {src}");
        }
    }

    #[test]
    fn optimize_rejects_ill_typed_input() {
        assert!(optimize(&parse("pi[9](V)").unwrap(), 2).is_err());
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
        // Already-optimal plan: one certifying pass.
        let flat = Plan::from_query(&parse("V").unwrap(), 2).unwrap();
        let (out, stats) = optimize_plan_stats(&flat);
        assert_eq!(out, flat);
        assert_eq!(stats.passes, 1);
        assert!(stats.converged);

        // A rewrite-heavy plan converges within its bound, strictly
        // under the budget, and the pass counter says how fast.
        let deep =
            Plan::from_query(&parse("sigma[#0=1](sigma[#1=2](V x (V x V)))").unwrap(), 1).unwrap();
        let (opt1, stats) = optimize_plan_stats(&deep);
        assert!(stats.converged);
        assert!(stats.passes <= 2 * deep.depth() + 2);
        // Convergence is exactly idempotence: re-optimizing is a no-op
        // that certifies in one pass.
        let (opt2, stats2) = optimize_plan_stats(&opt1);
        assert_eq!(opt1, opt2);
        assert_eq!(stats2.passes, 1);
    }

    #[test]
    fn optimizer_passes_through_named_relations() {
        use ipdb_rel::Schema;
        let schema = Schema::new([("R", 2), ("S", 2)]).unwrap();
        let q = parse("sigma[#0=#2](R x S)").unwrap();
        let o = optimize_in(&q, &schema).unwrap();
        assert_eq!(render(&o), "join[#0=#2](R, S)");
        // Idempotent-set-op collapse compares whole subtrees, so two
        // *different* relations do not collapse but equal ones do.
        assert_eq!(opt_in("R union R", &schema), "R");
        assert_eq!(opt_in("R union S", &schema), "(R union S)");
        assert_eq!(opt_in("R diff R", &schema), "{:2}");
    }

    fn opt_in(src: &str, schema: &ipdb_rel::Schema) -> String {
        render(&optimize_in(&parse(src).unwrap(), schema).unwrap())
    }
}
