//! The logical plan IR: a [`Query`] tree with every node annotated by
//! its output arity.
//!
//! Arity annotations are what the optimizer's rewrites consume —
//! selection pushdown through a product must know the left operand's
//! width to split a predicate's conjuncts, and dead-branch elimination
//! must manufacture empty literals of the right arity. Building a
//! [`Plan`] performs the same validation as [`Query::arity`] /
//! [`Query::arity2`], so a plan is well-typed by construction.

use std::fmt;

use ipdb_rel::{Instance, Pred, Query, RelError, Schema};

use crate::error::EngineError;
use crate::parser::{is_relation_name, render_pred_string};

/// One node of a logical plan; mirrors [`Query`] with [`Plan`] children.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanNode {
    /// The input relation `V`.
    Input,
    /// The second input relation `W`.
    Second,
    /// A named relation of the prepared schema. Building a plan rejects
    /// names that are not surface-syntax identifiers (or that spell a
    /// reserved word) with [`EngineError::BadRelationName`], so a
    /// planned query always renders to re-parseable text.
    Rel(String),
    /// A constant relation.
    Lit(Instance),
    /// `π_cols`.
    Project(Vec<usize>, Box<Plan>),
    /// `σ_p`.
    Select(Pred, Box<Plan>),
    /// `×`.
    Product(Box<Plan>, Box<Plan>),
    /// `⋈` — hash equijoin, `σ_{⋀ #i=#j ∧ residual}(left × right)`
    /// executed by key hashing (see [`Query::Join`]).
    ///
    /// Stricter than the AST node: building a plan rejects an empty `on`
    /// list ([`EngineError::EmptyJoinOn`]) and key pairs that do not span
    /// the two operands ([`EngineError::JoinArity`]), and deduplicates
    /// repeated pairs — so a planned join always hash-executes on at
    /// least one spanning key.
    Join {
        /// Normalized key pairs: `(left col, right col)` in combined
        /// (global) column indexes, left component first, deduplicated.
        on: Vec<(usize, usize)>,
        /// Extra filter over the combined tuple, if any.
        residual: Option<Pred>,
        /// Left operand.
        left: Box<Plan>,
        /// Right operand.
        right: Box<Plan>,
    },
    /// `∪`.
    Union(Box<Plan>, Box<Plan>),
    /// `−`.
    Diff(Box<Plan>, Box<Plan>),
    /// `∩`.
    Intersect(Box<Plan>, Box<Plan>),
}

/// An arity-annotated logical plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// The operator at this node.
    pub node: PlanNode,
    /// Output arity of this subtree.
    pub arity: usize,
}

impl Plan {
    /// Builds (and arity-checks) a plan from a query in a single-input
    /// context.
    pub fn from_query(q: &Query, input_arity: usize) -> Result<Plan, EngineError> {
        Plan::build(q, &Schema::single(input_arity))
    }

    /// Builds a plan over an arbitrary named [`Schema`]; `Input`/`Second`
    /// resolve as the reserved names `V`/`W`.
    pub fn from_query_schema(q: &Query, schema: &Schema) -> Result<Plan, EngineError> {
        Plan::build(q, schema)
    }

    fn build(q: &Query, schema: &Schema) -> Result<Plan, EngineError> {
        let plan = match q {
            Query::Input => Plan {
                node: PlanNode::Input,
                arity: schema.resolve(Schema::INPUT)?,
            },
            Query::Second => Plan {
                node: PlanNode::Second,
                arity: schema.resolve(Schema::SECOND)?,
            },
            Query::Rel(name) => {
                if !is_relation_name(name) {
                    return Err(EngineError::BadRelationName { name: name.clone() });
                }
                Plan {
                    arity: schema.resolve(name)?,
                    node: PlanNode::Rel(name.clone()),
                }
            }
            Query::Lit(i) => Plan {
                node: PlanNode::Lit(i.clone()),
                arity: i.arity(),
            },
            Query::Project(cols, q) => {
                let child = Plan::build(q, schema)?;
                for &c in cols {
                    if c >= child.arity {
                        return Err(RelError::ColumnOutOfRange {
                            col: c,
                            arity: child.arity,
                        }
                        .into());
                    }
                }
                Plan {
                    arity: cols.len(),
                    node: PlanNode::Project(cols.clone(), Box::new(child)),
                }
            }
            Query::Select(p, q) => {
                let child = Plan::build(q, schema)?;
                p.validate(child.arity)?;
                Plan {
                    arity: child.arity,
                    node: PlanNode::Select(p.clone(), Box::new(child)),
                }
            }
            Query::Product(a, b) => {
                let (a, b) = (Plan::build(a, schema)?, Plan::build(b, schema)?);
                Plan {
                    arity: a.arity + b.arity,
                    node: PlanNode::Product(Box::new(a), Box::new(b)),
                }
            }
            Query::Join {
                on,
                residual,
                left,
                right,
            } => {
                let (a, b) = (Plan::build(left, schema)?, Plan::build(right, schema)?);
                Plan::join(a, b, on, residual.clone())?
            }
            Query::Union(a, b) | Query::Diff(a, b) | Query::Intersect(a, b) => {
                let (a, b) = (Plan::build(a, schema)?, Plan::build(b, schema)?);
                if a.arity != b.arity {
                    return Err(RelError::ArityMismatch {
                        expected: a.arity,
                        got: b.arity,
                    }
                    .into());
                }
                let arity = a.arity;
                let node = match q {
                    Query::Union(..) => PlanNode::Union(Box::new(a), Box::new(b)),
                    Query::Diff(..) => PlanNode::Diff(Box::new(a), Box::new(b)),
                    _ => PlanNode::Intersect(Box::new(a), Box::new(b)),
                };
                Plan { node, arity }
            }
        };
        Ok(plan)
    }

    /// Builds a [`PlanNode::Join`] over two planned operands, enforcing
    /// the planner's join contract: at least one key pair
    /// ([`EngineError::EmptyJoinOn`]), every pair spanning the two
    /// operands ([`EngineError::JoinArity`]). Pairs are normalized to
    /// left-column-first and deduplicated, and the residual is
    /// arity-checked against the combined width.
    pub fn join(
        left: Plan,
        right: Plan,
        on: &[(usize, usize)],
        residual: Option<Pred>,
    ) -> Result<Plan, EngineError> {
        let (la, lb) = (left.arity, right.arity);
        let total = la + lb;
        if on.is_empty() {
            return Err(EngineError::EmptyJoinOn);
        }
        let mut norm: Vec<(usize, usize)> = Vec::new();
        for &(i, j) in on {
            let (lo, hi) = (i.min(j), i.max(j));
            // Spanning means lo addresses the left operand and hi the
            // right one; report the column that lands on the wrong side.
            if hi >= total || hi < la {
                return Err(EngineError::JoinArity {
                    col: hi,
                    left: la,
                    right: lb,
                });
            }
            if lo >= la {
                return Err(EngineError::JoinArity {
                    col: lo,
                    left: la,
                    right: lb,
                });
            }
            if !norm.contains(&(lo, hi)) {
                norm.push((lo, hi));
            }
        }
        if let Some(p) = &residual {
            p.validate(total)?;
        }
        Ok(Plan {
            arity: total,
            node: PlanNode::Join {
                on: norm,
                residual,
                left: Box::new(left),
                right: Box::new(right),
            },
        })
    }

    /// Lowers the plan back to a [`Query`] AST (the executable form).
    pub fn to_query(&self) -> Query {
        match &self.node {
            PlanNode::Input => Query::Input,
            PlanNode::Second => Query::Second,
            PlanNode::Rel(name) => Query::Rel(name.clone()),
            PlanNode::Lit(i) => Query::Lit(i.clone()),
            PlanNode::Project(cols, p) => Query::project(p.to_query(), cols.clone()),
            PlanNode::Select(pred, p) => Query::select(p.to_query(), pred.clone()),
            PlanNode::Product(a, b) => Query::product(a.to_query(), b.to_query()),
            PlanNode::Join {
                on,
                residual,
                left,
                right,
            } => Query::join(
                left.to_query(),
                right.to_query(),
                on.iter().copied(),
                residual.clone(),
            ),
            PlanNode::Union(a, b) => Query::union(a.to_query(), b.to_query()),
            PlanNode::Diff(a, b) => Query::diff(a.to_query(), b.to_query()),
            PlanNode::Intersect(a, b) => Query::intersect(a.to_query(), b.to_query()),
        }
    }

    /// Height of the plan tree (same measure as [`Query::depth`]).
    pub fn depth(&self) -> usize {
        match &self.node {
            PlanNode::Input | PlanNode::Second | PlanNode::Rel(_) | PlanNode::Lit(_) => 1,
            PlanNode::Project(_, p) | PlanNode::Select(_, p) => 1 + p.depth(),
            PlanNode::Product(a, b)
            | PlanNode::Union(a, b)
            | PlanNode::Diff(a, b)
            | PlanNode::Intersect(a, b) => 1 + a.depth().max(b.depth()),
            PlanNode::Join { left, right, .. } => 1 + left.depth().max(right.depth()),
        }
    }

    /// Whether this node is a constant empty relation.
    pub fn is_empty_lit(&self) -> bool {
        matches!(&self.node, PlanNode::Lit(i) if i.is_empty())
    }

    /// An empty-relation plan of the given arity (dead branches rewrite
    /// to this).
    pub fn empty(arity: usize) -> Plan {
        Plan {
            node: PlanNode::Lit(Instance::empty(arity)),
            arity,
        }
    }

    /// Renders the plan as an indented operator tree with per-node arity
    /// annotations — the body of `explain()`.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        self.render_into(0, &mut out);
        out
    }

    fn render_into(&self, indent: usize, out: &mut String) {
        use std::fmt::Write as _;
        for _ in 0..indent {
            out.push_str("  ");
        }
        let _ = match &self.node {
            PlanNode::Input => writeln!(out, "V  (arity {})", self.arity),
            PlanNode::Second => writeln!(out, "W  (arity {})", self.arity),
            PlanNode::Rel(name) => writeln!(out, "{name}  (arity {})", self.arity),
            PlanNode::Lit(i) => {
                writeln!(out, "lit {i}  (arity {}, {} rows)", self.arity, i.len())
            }
            PlanNode::Project(cols, _) => {
                writeln!(out, "pi{cols:?}  (arity {})", self.arity)
            }
            PlanNode::Select(p, _) => {
                writeln!(
                    out,
                    "sigma[{}]  (arity {})",
                    render_pred_string(p),
                    self.arity
                )
            }
            PlanNode::Product(..) => writeln!(out, "x  (arity {})", self.arity),
            PlanNode::Join { on, residual, .. } => {
                let keys = on
                    .iter()
                    .map(|(i, j)| format!("#{i}=#{j}"))
                    .collect::<Vec<_>>()
                    .join(",");
                match residual {
                    Some(p) => writeln!(
                        out,
                        "join[{keys}; {}]  (arity {})",
                        render_pred_string(p),
                        self.arity
                    ),
                    None => writeln!(out, "join[{keys}]  (arity {})", self.arity),
                }
            }
            PlanNode::Union(..) => writeln!(out, "union  (arity {})", self.arity),
            PlanNode::Diff(..) => writeln!(out, "diff  (arity {})", self.arity),
            PlanNode::Intersect(..) => writeln!(out, "intersect  (arity {})", self.arity),
        };
        match &self.node {
            PlanNode::Input | PlanNode::Second | PlanNode::Rel(_) | PlanNode::Lit(_) => {}
            PlanNode::Project(_, p) | PlanNode::Select(_, p) => p.render_into(indent + 1, out),
            PlanNode::Product(a, b)
            | PlanNode::Union(a, b)
            | PlanNode::Diff(a, b)
            | PlanNode::Intersect(a, b) => {
                a.render_into(indent + 1, out);
                b.render_into(indent + 1, out);
            }
            PlanNode::Join { left, right, .. } => {
                left.render_into(indent + 1, out);
                right.render_into(indent + 1, out);
            }
        }
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_tree())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipdb_rel::instance;

    fn sample() -> Query {
        Query::project(
            Query::select(
                Query::product(Query::Input, Query::Lit(instance![[1], [2]])),
                Pred::eq_cols(0, 2),
            ),
            vec![0, 1],
        )
    }

    #[test]
    fn annotates_arities_and_lowers_back() {
        let q = sample();
        let plan = Plan::from_query(&q, 2).unwrap();
        assert_eq!(plan.arity, 2);
        match &plan.node {
            PlanNode::Project(_, sel) => {
                assert_eq!(sel.arity, 3);
                match &sel.node {
                    PlanNode::Select(_, prod) => assert_eq!(prod.arity, 3),
                    other => panic!("expected select, got {other:?}"),
                }
            }
            other => panic!("expected project, got {other:?}"),
        }
        assert_eq!(plan.to_query(), q);
        assert_eq!(plan.depth(), q.depth());
    }

    #[test]
    fn rejects_ill_typed_queries() {
        let bad = Query::project(Query::Input, vec![5]);
        assert_eq!(
            Plan::from_query(&bad, 2),
            Err(EngineError::Rel(RelError::ColumnOutOfRange {
                col: 5,
                arity: 2
            }))
        );
        let mix = Query::union(Query::Input, Query::Lit(instance![[1]]));
        assert!(Plan::from_query(&mix, 2).is_err());
        assert!(Plan::from_query(&Query::Second, 2).is_err());
        assert_eq!(
            Plan::from_query_schema(&Query::Second, &Schema::pair(2, 4))
                .unwrap()
                .arity,
            4
        );
        let sel = Query::select(Query::Input, Pred::eq_cols(0, 7));
        assert!(Plan::from_query(&sel, 2).is_err());
    }

    #[test]
    fn explain_tree_shows_arities() {
        let plan = Plan::from_query(&sample(), 2).unwrap();
        let tree = plan.render_tree();
        assert!(tree.contains("pi[0, 1]  (arity 2)"));
        assert!(tree.contains("sigma[#0=#2]  (arity 3)"));
        assert!(tree.contains("x  (arity 3)"));
        assert!(tree.contains("V  (arity 2)"));
        assert!(tree.contains("(arity 1, 2 rows)"));
        assert_eq!(plan.to_string(), tree);
    }

    #[test]
    fn join_plans_validate_normalize_and_roundtrip() {
        // Reversed and duplicated pairs normalize to one (left, right) key.
        let q = Query::join(Query::Input, Query::Input, [(2, 0), (0, 2)], None);
        let plan = Plan::from_query(&q, 2).unwrap();
        assert_eq!(plan.arity, 4);
        match &plan.node {
            PlanNode::Join { on, residual, .. } => {
                assert_eq!(on, &vec![(0, 2)]);
                assert!(residual.is_none());
            }
            other => panic!("expected join, got {other:?}"),
        }
        // Lowering keeps the normalized pairs.
        assert_eq!(
            plan.to_query(),
            Query::join(Query::Input, Query::Input, [(0, 2)], None)
        );
        assert_eq!(plan.depth(), 2);

        // Empty `on` is rejected at plan build.
        let empty = Query::join(Query::Input, Query::Input, [], None);
        assert_eq!(Plan::from_query(&empty, 2), Err(EngineError::EmptyJoinOn));

        // Key out of the combined arity.
        let oob = Query::join(Query::Input, Query::Input, [(0, 9)], None);
        assert_eq!(
            Plan::from_query(&oob, 2),
            Err(EngineError::JoinArity {
                col: 9,
                left: 2,
                right: 2
            })
        );
        // Both key columns on the left side.
        let left_only = Query::join(Query::Input, Query::Input, [(0, 1)], None);
        assert_eq!(
            Plan::from_query(&left_only, 2),
            Err(EngineError::JoinArity {
                col: 1,
                left: 2,
                right: 2
            })
        );
        // Both key columns on the right side.
        let right_only = Query::join(Query::Input, Query::Input, [(2, 3)], None);
        assert_eq!(
            Plan::from_query(&right_only, 2),
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
        assert!(Plan::from_query(&bad_resid, 2).is_err());
    }

    #[test]
    fn join_renders_in_explain_tree() {
        let q = Query::join(
            Query::Input,
            Query::Input,
            [(1, 2)],
            Some(Pred::neq_const(0, 3)),
        );
        let plan = Plan::from_query(&q, 2).unwrap();
        let tree = plan.render_tree();
        assert!(
            tree.contains("join[#1=#2; #0!=3]  (arity 4)"),
            "got:\n{tree}"
        );
        let bare = Plan::from_query(
            &Query::join(Query::Input, Query::Input, [(0, 2), (1, 3)], None),
            2,
        )
        .unwrap();
        assert!(bare.render_tree().contains("join[#0=#2,#1=#3]  (arity 4)"));
    }

    #[test]
    fn empty_lit_helpers() {
        assert!(Plan::empty(3).is_empty_lit());
        assert_eq!(Plan::empty(3).arity, 3);
        let nonempty = Plan::from_query(&Query::Lit(instance![[1]]), 1).unwrap();
        assert!(!nonempty.is_empty_lit());
    }
}
