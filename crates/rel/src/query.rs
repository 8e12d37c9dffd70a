//! The unnamed relational algebra.
//!
//! §2 of the paper: "We use the unnamed form of the relational algebra"
//! over a schema with a single relation name. [`Query`] is that algebra:
//! the input relation, constant relation literals (the `{c}` singletons
//! appearing throughout the constructions of Thms 1/5/6 and Prop. 4),
//! projection by index list, selection by [`Pred`], cross product, union,
//! difference, and intersection.
//!
//! Queries are arity-checked ([`Query::arity`]) before evaluation, and
//! report the operations they use ([`Query::op_set`]) so completion
//! theorems can verify fragment claims.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::error::RelError;
use crate::fragment::OpSet;
use crate::idb::IDatabase;
use crate::instance::Instance;
use crate::pred::Pred;
use crate::schema::Schema;
use crate::tuple::Tuple;

/// An unnamed relational-algebra query over one input relation.
///
/// ```
/// use ipdb_rel::{instance, Pred, Query};
/// // π₁(σ_{#1=#2}(V × V))
/// let q = Query::project(
///     Query::select(Query::product(Query::Input, Query::Input), Pred::eq_cols(0, 2)),
///     vec![0],
/// );
/// let input = instance![[1, 10], [2, 20]];
/// assert_eq!(q.eval(&input).unwrap(), instance![[1], [2]]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Query {
    /// The input relation `V`.
    Input,
    /// The second input relation `W`.
    ///
    /// The paper's §2 footnote ("everything we say can be easily
    /// reformulated for arbitrary relational schemas") is needed in
    /// earnest by the Thm 6 completion constructions, which keep a pair
    /// of tables `(S, T)`. Queries using `Second` must be evaluated with
    /// [`Query::eval2`]; single-relation evaluation reports
    /// [`RelError::NoSecondInput`].
    Second,
    /// A named relation of an arbitrary schema — the §2 footnote taken
    /// at its word. Arity-checked against a [`Schema`]
    /// ([`Query::arity_in`]) and evaluated against a name-keyed catalog
    /// of instances ([`Query::eval_catalog`]).
    ///
    /// [`Query::Input`] and [`Query::Second`] are canonical aliases for
    /// the reserved names `V` and `W` ([`Schema::INPUT`] /
    /// [`Schema::SECOND`]): every lookup context resolves all three leaf
    /// forms through the same name map. Build named leaves with
    /// [`Query::rel`], which folds `rel("V")`/`rel("W")` back to the
    /// canonical variants so equal queries compare equal.
    Rel(String),
    /// A constant relation (e.g. the singleton `{c}`); independent of the
    /// input.
    Lit(Instance),
    /// `π_cols(q)` — projection by (repeatable, reorderable) index list.
    Project(Vec<usize>, Box<Query>),
    /// `σ_p(q)`.
    Select(Pred, Box<Query>),
    /// `q₁ × q₂`.
    Product(Box<Query>, Box<Query>),
    /// `q₁ ⋈ q₂` — equijoin: `σ_{⋀(i,j)∈on #i=#j ∧ residual}(q₁ × q₂)`,
    /// executed as a hash join instead of a filtered cross product.
    ///
    /// `on` pairs are **global** column indexes into the concatenated
    /// (left ++ right) tuple, exactly as a selection over the product
    /// would write them; `residual` is an arbitrary extra filter over the
    /// combined tuple. The paper's algebra does not name a join — it is
    /// the derived `σ(×)` form used throughout (Example 2's
    /// `σ_{2=3}(V × V)` shape) — so `Join` is semantically redundant but
    /// operationally first-class: the three backends all execute it with
    /// build-side hashing on the spanning key columns.
    Join {
        /// Equality pairs over the combined tuple (deduplicated by the
        /// planner; order is the extraction order of
        /// [`Pred::split_equijoin`]).
        on: Vec<(usize, usize)>,
        /// Extra filter applied to each joined row, if any.
        residual: Option<Pred>,
        /// Left operand (its columns come first in the output).
        left: Box<Query>,
        /// Right operand.
        right: Box<Query>,
    },
    /// `q₁ ∪ q₂`.
    Union(Box<Query>, Box<Query>),
    /// `q₁ − q₂`.
    Diff(Box<Query>, Box<Query>),
    /// `q₁ ∩ q₂`.
    Intersect(Box<Query>, Box<Query>),
}

impl Query {
    /// The named relation `name`, canonicalizing the reserved names:
    /// `rel("V")` is [`Query::Input`] and `rel("W")` is
    /// [`Query::Second`], so the alias spellings cannot produce a second
    /// AST form for the same leaf.
    pub fn rel(name: impl Into<String>) -> Query {
        let name = name.into();
        match name.as_str() {
            Schema::INPUT => Query::Input,
            Schema::SECOND => Query::Second,
            _ => Query::Rel(name),
        }
    }

    /// `π_cols(q)`.
    pub fn project(q: Query, cols: Vec<usize>) -> Query {
        Query::Project(cols, Box::new(q))
    }

    /// `σ_p(q)`.
    pub fn select(q: Query, p: Pred) -> Query {
        Query::Select(p, Box::new(q))
    }

    /// `a × b`.
    pub fn product(a: Query, b: Query) -> Query {
        Query::Product(Box::new(a), Box::new(b))
    }

    /// `a ⋈_{on; residual} b` (see [`Query::Join`]).
    pub fn join(
        a: Query,
        b: Query,
        on: impl IntoIterator<Item = (usize, usize)>,
        residual: Option<Pred>,
    ) -> Query {
        Query::Join {
            on: on.into_iter().collect(),
            residual,
            left: Box::new(a),
            right: Box::new(b),
        }
    }

    /// The selection predicate a join stands for: the conjunction of its
    /// key equalities and residual. `Join{on, residual}(a, b)` is
    /// equivalent to `σ_{join_pred(on, residual)}(a × b)` — the lowering
    /// used by layers that have no native join (provenance) and by the
    /// differential join-oracle tests.
    pub fn join_pred(on: &[(usize, usize)], residual: Option<&Pred>) -> Pred {
        Pred::conj_all(
            on.iter()
                .map(|&(i, j)| Pred::eq_cols(i, j))
                .chain(residual.cloned()),
        )
    }

    /// Left-associated product of several queries; `None` if empty.
    pub fn product_all(qs: impl IntoIterator<Item = Query>) -> Option<Query> {
        qs.into_iter().reduce(Query::product)
    }

    /// `a ∪ b`.
    pub fn union(a: Query, b: Query) -> Query {
        Query::Union(Box::new(a), Box::new(b))
    }

    /// Left-associated union of several queries; `None` if empty.
    pub fn union_all(qs: impl IntoIterator<Item = Query>) -> Option<Query> {
        qs.into_iter().reduce(Query::union)
    }

    /// `a − b`.
    pub fn diff(a: Query, b: Query) -> Query {
        Query::Diff(Box::new(a), Box::new(b))
    }

    /// `a ∩ b`.
    pub fn intersect(a: Query, b: Query) -> Query {
        Query::Intersect(Box::new(a), Box::new(b))
    }

    /// The constant singleton relation `{(v…)}` used as `{c}` in the
    /// paper's constructions.
    pub fn singleton<I, V>(values: I) -> Query
    where
        I: IntoIterator<Item = V>,
        V: Into<crate::Value>,
    {
        Query::Lit(Instance::singleton(crate::Tuple::new(values)))
    }

    /// Output arity given the input relation's arity; validates column
    /// references and arity agreement along the way. Errors on queries
    /// using [`Query::Second`] (use [`Query::arity2`]) or named
    /// relations (use [`Query::arity_in`]).
    pub fn arity(&self, input_arity: usize) -> Result<usize, RelError> {
        self.arity_in(&Schema::single(input_arity))
    }

    /// Output arity in a two-relation context (`V` of arity
    /// `input_arity`, `W` of arity `second_arity`).
    pub fn arity2(&self, input_arity: usize, second_arity: usize) -> Result<usize, RelError> {
        self.arity_in(&Schema::pair(input_arity, second_arity))
    }

    /// Output arity over an arbitrary named [`Schema`]; `Input`/`Second`
    /// resolve as the reserved names `V`/`W`.
    pub fn arity_in(&self, schema: &Schema) -> Result<usize, RelError> {
        match self {
            Query::Input => schema.resolve(Schema::INPUT),
            Query::Second => schema.resolve(Schema::SECOND),
            Query::Rel(name) => schema.resolve(name),
            Query::Lit(i) => Ok(i.arity()),
            Query::Project(cols, q) => {
                let a = q.arity_in(schema)?;
                for &c in cols {
                    if c >= a {
                        return Err(RelError::ColumnOutOfRange { col: c, arity: a });
                    }
                }
                Ok(cols.len())
            }
            Query::Select(p, q) => {
                let a = q.arity_in(schema)?;
                p.validate(a)?;
                Ok(a)
            }
            Query::Product(a, b) => Ok(a.arity_in(schema)? + b.arity_in(schema)?),
            Query::Join {
                on,
                residual,
                left,
                right,
            } => {
                let total = left.arity_in(schema)? + right.arity_in(schema)?;
                for &(i, j) in on {
                    let col = i.max(j);
                    if col >= total {
                        return Err(RelError::ColumnOutOfRange { col, arity: total });
                    }
                }
                if let Some(p) = residual {
                    p.validate(total)?;
                }
                Ok(total)
            }
            Query::Union(a, b) | Query::Diff(a, b) | Query::Intersect(a, b) => {
                let aa = a.arity_in(schema)?;
                let ab = b.arity_in(schema)?;
                if aa != ab {
                    return Err(RelError::ArityMismatch {
                        expected: aa,
                        got: ab,
                    });
                }
                Ok(aa)
            }
        }
    }

    /// Evaluates the query on a conventional instance. Errors on queries
    /// using [`Query::Second`] (use [`Query::eval2`]) or named relations
    /// (use [`Query::eval_catalog`]).
    pub fn eval(&self, input: &Instance) -> Result<Instance, RelError> {
        let ctx = RelCtx::Pair {
            input,
            second: None,
        };
        self.eval_in(&ctx).map(Cow::into_owned)
    }

    /// Evaluates in a two-relation context: `V = input`, `W = second`.
    pub fn eval2(&self, input: &Instance, second: &Instance) -> Result<Instance, RelError> {
        let ctx = RelCtx::Pair {
            input,
            second: Some(second),
        };
        self.eval_in(&ctx).map(Cow::into_owned)
    }

    /// Evaluates against a named catalog of instances; `Input`/`Second`
    /// resolve as the reserved names `V`/`W`, so a catalog with those
    /// keys runs classic queries unchanged.
    pub fn eval_catalog(&self, rels: &BTreeMap<String, Instance>) -> Result<Instance, RelError> {
        self.eval_in(&RelCtx::Map(rels)).map(Cow::into_owned)
    }

    /// The row-at-a-time evaluator behind [`Query::eval`],
    /// [`Query::eval2`] and [`Query::eval_catalog`]: the reference the
    /// engine's executors are checked against, so it runs on
    /// [`Instance`]'s own row operations and calls no columnar kernel.
    /// A leaf is borrowed from `ctx` (a relation literal from the
    /// query); every operator builds its output.
    fn eval_in<'a>(&'a self, ctx: &RelCtx<'a>) -> Result<Cow<'a, Instance>, RelError> {
        Ok(match self {
            Query::Input => Cow::Borrowed(ctx.lookup(Schema::INPUT)?),
            Query::Second => Cow::Borrowed(ctx.lookup(Schema::SECOND)?),
            Query::Rel(name) => Cow::Borrowed(ctx.lookup(name)?),
            Query::Lit(i) => Cow::Borrowed(i),
            Query::Project(cols, q) => Cow::Owned(q.eval_in(ctx)?.project(cols)?),
            Query::Select(p, q) => {
                let inner = q.eval_in(ctx)?;
                p.validate(inner.arity())?;
                // The survivors of an ascending scan are ascending, so
                // the set is built in one pass.
                let kept = inner
                    .iter()
                    .filter_map(|t| match p.eval(t.values()) {
                        Ok(true) => Some(Ok(t.clone())),
                        Ok(false) => None,
                        Err(e) => Some(Err(e)),
                    })
                    .collect::<Result<BTreeSet<Tuple>, RelError>>()?;
                Cow::Owned(Instance::with_tuples(inner.arity(), kept))
            }
            Query::Product(a, b) => Cow::Owned(a.eval_in(ctx)?.product(&*b.eval_in(ctx)?)),
            Query::Join {
                on,
                residual,
                left,
                right,
            } => Cow::Owned(left.eval_in(ctx)?.equijoin(
                &*right.eval_in(ctx)?,
                on,
                residual.as_ref(),
            )?),
            Query::Union(a, b) => Cow::Owned(a.eval_in(ctx)?.union(&*b.eval_in(ctx)?)?),
            Query::Diff(a, b) => Cow::Owned(a.eval_in(ctx)?.difference(&*b.eval_in(ctx)?)?),
            Query::Intersect(a, b) => Cow::Owned(a.eval_in(ctx)?.intersect(&*b.eval_in(ctx)?)?),
        })
    }

    /// Evaluates world-by-world on a finite incomplete database — the
    /// direct image `q(I) = { q(I) | I ∈ I }` of Defs. 3/7/8.
    pub fn eval_idb(&self, input: &IDatabase) -> Result<IDatabase, RelError> {
        let out_arity = self.arity(input.arity())?;
        let mut out = IDatabase::empty(out_arity);
        for w in input.iter() {
            out.insert(self.eval(w)?)?;
        }
        Ok(out)
    }

    /// The operations used by this query (for fragment checking).
    pub fn op_set(&self) -> OpSet {
        match self {
            Query::Input | Query::Second | Query::Rel(_) => OpSet::default(),
            Query::Lit(_) => OpSet {
                literal: true,
                ..OpSet::default()
            },
            Query::Project(_, q) => OpSet {
                project: true,
                ..OpSet::default()
            }
            .merge(q.op_set()),
            Query::Select(p, q) => OpSet {
                select: true,
                nonpositive_select: !p.is_positive(),
                non_coleq_select: !p.is_col_eq_conjunction(),
                ..OpSet::default()
            }
            .merge(q.op_set()),
            Query::Product(a, b) => OpSet {
                product: true,
                ..OpSet::default()
            }
            .merge(a.op_set())
            .merge(b.op_set()),
            // A join is σ(×) in disguise: its key equalities are positive
            // column-equality atoms, so only the residual can push the
            // selection outside the col-eq / positive classes.
            Query::Join {
                residual,
                left,
                right,
                ..
            } => OpSet {
                product: true,
                select: true,
                nonpositive_select: residual.as_ref().is_some_and(|p| !p.is_positive()),
                non_coleq_select: residual
                    .as_ref()
                    .is_some_and(|p| !p.is_col_eq_conjunction()),
                ..OpSet::default()
            }
            .merge(left.op_set())
            .merge(right.op_set()),
            Query::Union(a, b) => OpSet {
                union: true,
                ..OpSet::default()
            }
            .merge(a.op_set())
            .merge(b.op_set()),
            Query::Diff(a, b) => OpSet {
                difference: true,
                ..OpSet::default()
            }
            .merge(a.op_set())
            .merge(b.op_set()),
            Query::Intersect(a, b) => OpSet {
                intersection: true,
                ..OpSet::default()
            }
            .merge(a.op_set())
            .merge(b.op_set()),
        }
    }

    /// Number of operator nodes (size of the query tree).
    pub fn size(&self) -> usize {
        match self {
            Query::Input | Query::Second | Query::Rel(_) | Query::Lit(_) => 1,
            Query::Project(_, q) | Query::Select(_, q) => 1 + q.size(),
            Query::Product(a, b)
            | Query::Union(a, b)
            | Query::Diff(a, b)
            | Query::Intersect(a, b) => 1 + a.size() + b.size(),
            Query::Join { left, right, .. } => 1 + left.size() + right.size(),
        }
    }

    /// Height of the query tree: 1 for leaves, 1 + the deepest child
    /// otherwise.
    ///
    /// [`Query::size`] and [`Query::op_set`] walk the tree but say
    /// nothing about its *depth*, which is what plan-rewriting passes
    /// need: a rewrite that only moves operators downward (e.g. selection
    /// pushdown) reaches a fixpoint within `depth()` passes, so
    /// `ipdb-engine` uses this as its fixpoint bound.
    pub fn depth(&self) -> usize {
        match self {
            Query::Input | Query::Second | Query::Rel(_) | Query::Lit(_) => 1,
            Query::Project(_, q) | Query::Select(_, q) => 1 + q.depth(),
            Query::Product(a, b)
            | Query::Union(a, b)
            | Query::Diff(a, b)
            | Query::Intersect(a, b) => 1 + a.depth().max(b.depth()),
            Query::Join { left, right, .. } => 1 + left.depth().max(right.depth()),
        }
    }
}

/// Evaluation context: where relation-name lookups resolve. The classic
/// one/two-relation entry points and the named-catalog one share the
/// same resolution rule (`Input` ≡ `V`, `Second` ≡ `W`), so the alias
/// claim is structural, not re-implemented per entry point.
enum RelCtx<'a> {
    /// The paper's positional contexts: `V` (+ optionally `W`).
    Pair {
        input: &'a Instance,
        second: Option<&'a Instance>,
    },
    /// A named catalog.
    Map(&'a BTreeMap<String, Instance>),
}

impl<'a> RelCtx<'a> {
    fn lookup(&self, name: &str) -> Result<&'a Instance, RelError> {
        let found = match self {
            RelCtx::Pair { input, .. } if name == Schema::INPUT => Some(*input),
            RelCtx::Pair { second, .. } if name == Schema::SECOND => *second,
            RelCtx::Pair { .. } => None,
            RelCtx::Map(rels) => rels.get(name),
        };
        found.ok_or_else(|| RelError::missing_relation(name))
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Query::Input => write!(f, "V"),
            Query::Second => write!(f, "W"),
            Query::Rel(name) => write!(f, "{name}"),
            Query::Lit(i) => write!(f, "{i}"),
            Query::Project(cols, q) => {
                write!(f, "π")?;
                for (i, c) in cols.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{}", c + 1)?; // 1-based like the paper
                }
                write!(f, "({q})")
            }
            Query::Select(p, q) => write!(f, "σ[{p}]({q})"),
            Query::Product(a, b) => write!(f, "({a} × {b})"),
            Query::Join {
                on,
                residual,
                left,
                right,
            } => {
                write!(f, "({left} ⋈[")?;
                for (n, (i, j)) in on.iter().enumerate() {
                    if n > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "#{}=#{}", i + 1, j + 1)?; // 1-based like the paper
                }
                if let Some(p) = residual {
                    write!(f, "; {p}")?;
                }
                write!(f, "] {right})")
            }
            Query::Union(a, b) => write!(f, "({a} ∪ {b})"),
            Query::Diff(a, b) => write!(f, "({a} − {b})"),
            Query::Intersect(a, b) => write!(f, "({a} ∩ {b})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{instance, Fragment};

    #[test]
    fn input_and_literal() {
        let i = instance![[1, 2]];
        assert_eq!(Query::Input.eval(&i).unwrap(), i);
        let lit = Query::singleton([9i64]);
        assert_eq!(lit.eval(&i).unwrap(), instance![[9]]);
    }

    #[test]
    fn rel_constructor_canonicalizes_reserved_names() {
        assert_eq!(Query::rel("V"), Query::Input);
        assert_eq!(Query::rel("W"), Query::Second);
        assert_eq!(Query::rel("R"), Query::Rel("R".into()));
        assert_eq!(Query::rel("R").to_string(), "R");
        assert_eq!(Query::rel("R").size(), 1);
        assert_eq!(Query::rel("R").depth(), 1);
        assert_eq!(Query::rel("R").op_set(), OpSet::default());
    }

    #[test]
    fn leaves_borrow_the_catalog_relation() {
        let rels: BTreeMap<String, Instance> = [
            ("V".to_string(), instance![[1, 2], [3, 4]]),
            ("S".to_string(), instance![[5]]),
        ]
        .into();
        let lit = Query::Lit(instance![[6]]);
        let map = RelCtx::Map(&rels);
        let pair = RelCtx::Pair {
            input: &rels["V"],
            second: Some(&rels["S"]),
        };
        let cases: [(&Query, &RelCtx<'_>, &Instance); 5] = [
            (&Query::Input, &map, &rels["V"]),
            (&Query::Rel("S".into()), &map, &rels["S"]),
            (&Query::Input, &pair, &rels["V"]),
            (&Query::Second, &pair, &rels["S"]),
            (
                &lit,
                &map,
                match &lit {
                    Query::Lit(i) => i,
                    _ => unreachable!(),
                },
            ),
        ];
        for (q, ctx, expected) in cases {
            match q.eval_in(ctx).unwrap() {
                Cow::Borrowed(got) => assert!(std::ptr::eq(got, expected), "{q}"),
                Cow::Owned(_) => panic!("{q} copied its relation"),
            }
        }
        // Operators build their output, from the borrowed leaf.
        let sel = Query::select(Query::Input, Pred::neq_const(1, 4));
        assert!(matches!(sel.eval_in(&map).unwrap(), Cow::Owned(_)));
        assert_eq!(sel.eval_catalog(&rels).unwrap(), instance![[1, 2]]);
    }

    #[test]
    fn named_relations_resolve_through_schema_and_catalog() {
        use crate::Schema;
        let schema = Schema::new([("R", 2), ("S", 1)]).unwrap();
        let q = Query::join(Query::rel("R"), Query::rel("S"), [(1, 2)], None);
        assert_eq!(q.arity_in(&schema).unwrap(), 3);
        assert_eq!(
            Query::rel("T").arity_in(&schema),
            Err(RelError::UnknownRelation { name: "T".into() })
        );
        // The classic entry points reject named relations gracefully.
        assert_eq!(
            Query::rel("R").arity(2),
            Err(RelError::UnknownRelation { name: "R".into() })
        );
        assert_eq!(
            Query::rel("R").eval(&instance![[1]]),
            Err(RelError::UnknownRelation { name: "R".into() })
        );

        let cat = BTreeMap::from([
            ("R".to_string(), instance![[1, 2], [3, 4]]),
            ("S".to_string(), instance![[2], [9]]),
        ]);
        assert_eq!(q.eval_catalog(&cat).unwrap(), instance![[1, 2, 2]]);
        // A catalog with the reserved names runs classic queries.
        let vcat = BTreeMap::from([("V".to_string(), instance![[7]])]);
        assert_eq!(Query::Input.eval_catalog(&vcat).unwrap(), instance![[7]]);
        assert_eq!(
            Query::Second.eval_catalog(&vcat),
            Err(RelError::NoSecondInput)
        );
        assert_eq!(
            Query::rel("R").eval_catalog(&vcat),
            Err(RelError::UnknownRelation { name: "R".into() })
        );
    }

    #[test]
    fn arity_checking() {
        let q = Query::union(Query::Input, Query::singleton([1i64]));
        assert!(q.arity(1).is_ok());
        assert!(q.arity(2).is_err());
        let p = Query::project(Query::Input, vec![3]);
        assert!(p.arity(2).is_err());
        let s = Query::select(Query::Input, Pred::eq_cols(0, 5));
        assert!(s.arity(2).is_err());
    }

    #[test]
    fn select_project_product() {
        let i = instance![[1, 10], [2, 20], [1, 30]];
        let q = Query::project(Query::select(Query::Input, Pred::eq_const(0, 1)), vec![1]);
        assert_eq!(q.eval(&i).unwrap(), instance![[10], [30]]);

        let self_join = Query::select(
            Query::product(Query::Input, Query::Input),
            Pred::eq_cols(1, 2),
        );
        // pairs (a,b),(c,d) joined on b=c: only (1,2)⋈(2,3) matches
        let chain = instance![[1, 2], [2, 3]];
        let joined = self_join.eval(&chain).unwrap();
        assert_eq!(joined, instance![[1, 2, 2, 3]]);
    }

    #[test]
    fn join_is_selected_product() {
        let chain = instance![[1, 2], [2, 3], [3, 4]];
        // V ⋈_{#1=#2} V — the Example 2 workhorse shape.
        let join = Query::join(Query::Input, Query::Input, [(1, 2)], None);
        let naive = Query::select(
            Query::product(Query::Input, Query::Input),
            Query::join_pred(&[(1, 2)], None),
        );
        assert_eq!(join.arity(2).unwrap(), 4);
        assert_eq!(join.eval(&chain).unwrap(), naive.eval(&chain).unwrap());
        assert_eq!(join.eval(&chain).unwrap().len(), 2);
        // With a residual filter.
        let resid = Pred::neq_const(0, 1);
        let join_r = Query::join(Query::Input, Query::Input, [(1, 2)], Some(resid.clone()));
        let naive_r = Query::select(
            Query::product(Query::Input, Query::Input),
            Query::join_pred(&[(1, 2)], Some(&resid)),
        );
        assert_eq!(join_r.eval(&chain).unwrap(), naive_r.eval(&chain).unwrap());
        assert_eq!(join_r.eval(&chain).unwrap().len(), 1);
    }

    #[test]
    fn join_validates_keys_and_residual() {
        let join = Query::join(Query::Input, Query::Input, [(0, 9)], None);
        assert_eq!(
            join.arity(2),
            Err(RelError::ColumnOutOfRange { col: 9, arity: 4 })
        );
        assert!(join.eval(&instance![[1, 2]]).is_err());
        let bad_resid = Query::join(
            Query::Input,
            Query::Input,
            [(0, 2)],
            Some(Pred::eq_cols(0, 7)),
        );
        assert!(bad_resid.arity(2).is_err());
        // Empty `on` is a plain (filtered) product at this level.
        let empty = Query::join(Query::Input, Query::Input, [], None);
        assert_eq!(empty.arity(1).unwrap(), 2);
        assert_eq!(
            empty.eval(&instance![[1]]).unwrap(),
            Query::product(Query::Input, Query::Input)
                .eval(&instance![[1]])
                .unwrap()
        );
    }

    #[test]
    fn join_structural_accessors() {
        let q = Query::join(Query::Input, Query::singleton([1i64]), [(0, 1)], None);
        assert_eq!(q.size(), 3);
        assert_eq!(q.depth(), 2);
        let ops = q.op_set();
        assert!(ops.product && ops.select && !ops.nonpositive_select && !ops.non_coleq_select);
        assert!(Fragment::SPJU.admits(ops));
        let neg = Query::join(
            Query::Input,
            Query::Input,
            [(0, 2)],
            Some(Pred::neq_cols(0, 1)),
        );
        assert!(neg.op_set().nonpositive_select);
        assert!(!Fragment::S_PLUS_PJ.admits(neg.op_set()));
    }

    #[test]
    fn join_display_is_paper_like() {
        let q = Query::join(
            Query::Input,
            Query::Input,
            [(1, 2)],
            Some(Pred::neq_const(0, 2)),
        );
        assert_eq!(q.to_string(), "(V ⋈[#2=#3; #1≠2] V)");
        let bare = Query::join(Query::Input, Query::Input, [(0, 2), (1, 3)], None);
        assert_eq!(bare.to_string(), "(V ⋈[#1=#3,#2=#4] V)");
    }

    #[test]
    fn set_operations() {
        let i = instance![[1], [2]];
        let q = Query::diff(Query::Input, Query::singleton([1i64]));
        assert_eq!(q.eval(&i).unwrap(), instance![[2]]);
        let r = Query::intersect(Query::Input, Query::singleton([2i64]));
        assert_eq!(r.eval(&i).unwrap(), instance![[2]]);
        let u = Query::union(Query::Input, Query::singleton([3i64]));
        assert_eq!(u.eval(&i).unwrap(), instance![[1], [2], [3]]);
    }

    #[test]
    fn eval_idb_is_worldwise_image() {
        let db = IDatabase::from_instances(1, [instance![[1]], instance![[2]]]).unwrap();
        let q = Query::union(Query::Input, Query::singleton([9i64]));
        let out = q.eval_idb(&db).unwrap();
        assert_eq!(out.len(), 2);
        assert!(out.contains(&instance![[1], [9]]));
        assert!(out.contains(&instance![[2], [9]]));
    }

    #[test]
    fn eval_idb_merges_collapsing_worlds() {
        let db = IDatabase::from_instances(2, [instance![[1, 2]], instance![[1, 3]]]).unwrap();
        let q = Query::project(Query::Input, vec![0]);
        assert_eq!(q.eval_idb(&db).unwrap().len(), 1);
    }

    #[test]
    fn op_set_and_fragments() {
        let q = Query::project(
            Query::select(
                Query::product(Query::Input, Query::singleton([1i64])),
                Pred::eq_cols(0, 1),
            ),
            vec![0],
        );
        let ops = q.op_set();
        assert!(ops.select && ops.project && ops.product && ops.literal);
        assert!(!ops.union && !ops.difference);
        assert!(Fragment::SPJU.admits(ops));
        assert!(Fragment::S_PLUS_PJ.admits(ops));
        assert!(!Fragment::SP.admits(ops));
    }

    #[test]
    fn size_counts_nodes() {
        let q = Query::union(Query::Input, Query::Input);
        assert_eq!(q.size(), 3);
    }

    #[test]
    fn depth_is_tree_height() {
        assert_eq!(Query::Input.depth(), 1);
        assert_eq!(Query::Second.depth(), 1);
        assert_eq!(Query::singleton([1i64]).depth(), 1);
        let q = Query::project(Query::select(Query::Input, Pred::True), vec![0]);
        assert_eq!(q.depth(), 3);
        // Binary nodes take the deeper side: size counts both, depth doesn't.
        let lop = Query::union(q.clone(), Query::Input);
        assert_eq!(lop.depth(), 4);
        assert_eq!(lop.size(), q.size() + 2);
        assert_eq!(Query::product(Query::Input, lop).depth(), 5);
    }

    #[test]
    fn display_is_paper_like() {
        let q = Query::project(Query::select(Query::Input, Pred::eq_cols(1, 2)), vec![0, 2]);
        assert_eq!(q.to_string(), "π1,3(σ[#2=#3](V))");
    }

    #[test]
    fn paper_example4_query_shape() {
        // q(V) := π123({1}×{2}×V) ∪ π123(σ_{2=3,4≠'2'}({3}×V)) ∪ π512(σ_{3≠'1',3≠4}({4}×{5}×V))
        // Just check it type-checks at input arity 3 with output arity 3.
        let part1 = Query::project(
            Query::product(
                Query::product(Query::singleton([1i64]), Query::singleton([2i64])),
                Query::Input,
            ),
            vec![0, 1, 2],
        );
        let part2 = Query::project(
            Query::select(
                Query::product(Query::singleton([3i64]), Query::Input),
                Pred::and([Pred::eq_cols(1, 2), Pred::neq_const(3, 2)]),
            ),
            vec![0, 1, 2],
        );
        let part3 = Query::project(
            Query::select(
                Query::product(
                    Query::product(Query::singleton([4i64]), Query::singleton([5i64])),
                    Query::Input,
                ),
                Pred::and([Pred::neq_const(2, 1), Pred::neq_cols(2, 3)]),
            ),
            vec![4, 0, 1],
        );
        let q = Query::union_all([part1, part2, part3]).unwrap();
        assert_eq!(q.arity(3).unwrap(), 3);
        assert!(Fragment::SPJU.admits_query(&q, 3).unwrap());
    }
}
