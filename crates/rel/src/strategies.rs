//! Proptest strategies for the relational substrate.
//!
//! Used by the property tests that check the paper's theorems on random
//! inputs: random values/instances, random predicates, and — crucially —
//! random *well-typed* queries confined to a chosen [`Fragment`], so that
//! closure (Thm 4) and completion (Thms 5–6) can be tested per fragment.

use proptest::prelude::*;

use crate::{
    CmpOp, Domain, Fragment, IDatabase, Instance, Operand, Pred, Query, SelectKind, Tuple, Value,
};

/// Strategy for a value drawn from a small integer universe (keeping
/// active domains overlapping so joins/selections are non-trivial).
pub fn arb_value(max_int: i64) -> impl Strategy<Value = Value> {
    (0..=max_int).prop_map(Value::Int)
}

/// Strategy for a value of any variant — `Bool`, `Int` or `Str` — from
/// a small universe, for code that treats the variants differently
/// (join-key hashing reads strings as bytes, 8 at a time). [`arb_value`]
/// stays integer-only so existing properties keep their inputs.
///
/// Strings are 0–20 bytes: one of a few shared prefixes (0, 1, 4 or 14
/// bytes) followed by a short suffix, so distinct strings often agree
/// on their first 8 bytes or more, and about a third are longer than 8
/// bytes. `"1"` is in the universe alongside `Int(1)` and `Bool(true)`.
pub fn arb_mixed_value() -> impl Strategy<Value = Value> {
    const PREFIXES: [&str; 4] = ["", "1", "key_", "shared_prefix_"];
    const SUFFIXES: [&str; 5] = ["", "1", "a", "ab", "abcdef"];
    prop_oneof![
        any::<bool>().prop_map(Value::Bool),
        (0i64..=2).prop_map(Value::Int),
        (
            proptest::sample::select(PREFIXES.to_vec()),
            proptest::sample::select(SUFFIXES.to_vec()),
        )
            .prop_map(|(p, s)| Value::str(format!("{p}{s}"))),
    ]
}

/// Strategy for an instance with up to `max_tuples` tuples over
/// [`arb_mixed_value`].
pub fn arb_mixed_instance(arity: usize, max_tuples: usize) -> impl Strategy<Value = Instance> {
    let tuple = proptest::collection::vec(arb_mixed_value(), arity).prop_map(Tuple::new);
    proptest::collection::btree_set(tuple, 0..=max_tuples)
        .prop_map(move |ts| Instance::from_tuples(arity, ts).expect("tuples share arity"))
}

/// Strategy for a tuple of the given arity over a small integer universe.
pub fn arb_tuple(arity: usize, max_int: i64) -> impl Strategy<Value = Tuple> {
    proptest::collection::vec(arb_value(max_int), arity).prop_map(Tuple::new)
}

/// Strategy for an instance with up to `max_tuples` tuples.
pub fn arb_instance(
    arity: usize,
    max_tuples: usize,
    max_int: i64,
) -> impl Strategy<Value = Instance> {
    proptest::collection::btree_set(arb_tuple(arity, max_int), 0..=max_tuples)
        .prop_map(move |ts| Instance::from_tuples(arity, ts).expect("tuples share arity"))
}

/// Strategy for a finite incomplete database with 1..=`max_worlds` worlds.
pub fn arb_idb(
    arity: usize,
    max_worlds: usize,
    max_tuples: usize,
    max_int: i64,
) -> impl Strategy<Value = IDatabase> {
    proptest::collection::btree_set(arb_instance(arity, max_tuples, max_int), 1..=max_worlds)
        .prop_map(move |ws| IDatabase::from_instances(arity, ws).expect("worlds share arity"))
}

/// Strategy for a comparison operand over `arity` columns.
fn arb_operand(arity: usize, max_int: i64) -> BoxedStrategy<Operand> {
    if arity == 0 {
        arb_value(max_int).prop_map(Operand::Const).boxed()
    } else {
        prop_oneof![
            (0..arity).prop_map(Operand::Col),
            arb_value(max_int).prop_map(Operand::Const),
        ]
        .boxed()
    }
}

/// Strategy for a selection predicate on tuples of the given arity.
///
/// When `positive_only` is set, the predicate uses only `=` atoms, `∧`,
/// `∨`, and `true` (the `S⁺` class of Thm 6).
pub fn arb_pred(arity: usize, max_int: i64, positive_only: bool) -> BoxedStrategy<Pred> {
    let atom = {
        let op = if positive_only {
            Just(CmpOp::Eq).boxed()
        } else {
            prop_oneof![Just(CmpOp::Eq), Just(CmpOp::Neq)].boxed()
        };
        (op, arb_operand(arity, max_int), arb_operand(arity, max_int))
            .prop_map(|(op, l, r)| Pred::Cmp(op, l, r))
    };
    let leaf = prop_oneof![3 => atom, 1 => Just(Pred::True)];
    leaf.prop_recursive(2, 8, 3, move |inner| {
        if positive_only {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 1..=3).prop_map(Pred::And),
                proptest::collection::vec(inner, 1..=3).prop_map(Pred::Or),
            ]
            .boxed()
        } else {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 1..=3).prop_map(Pred::And),
                proptest::collection::vec(inner.clone(), 1..=3).prop_map(Pred::Or),
                inner.prop_map(|p| Pred::Not(Box::new(p))),
            ]
            .boxed()
        }
    })
    .boxed()
}

/// Strategy for a well-typed query of a *given output arity*, confined to
/// `fragment`.
///
/// Recursion is bounded by `depth`; at depth 0 only `Input` (when the
/// arity matches) and literals remain.
pub fn arb_query_with_arity(
    input_arity: usize,
    target_arity: usize,
    depth: u32,
    fragment: Fragment,
    max_int: i64,
) -> BoxedStrategy<Query> {
    arb_query_with_arity_schema(
        vec![("V".to_string(), input_arity)],
        target_arity,
        depth,
        fragment,
        max_int,
    )
}

/// Strategy for a well-typed query of a given output arity over a
/// *named* schema (`(name, arity)` pairs; `"V"`/`"W"` canonicalize to
/// `Input`/`Second` via [`Query::rel`]).
///
/// Every schema relation whose arity matches the target is a candidate
/// leaf, so generated queries mix relations freely — the generator
/// behind the catalog differential oracles.
pub fn arb_query_with_arity_schema(
    schema: Vec<(String, usize)>,
    target_arity: usize,
    depth: u32,
    fragment: Fragment,
    max_int: i64,
) -> BoxedStrategy<Query> {
    let mut leaves: Vec<BoxedStrategy<Query>> = Vec::new();
    for (name, arity) in &schema {
        if *arity == target_arity {
            leaves.push(Just(Query::rel(name.clone())).boxed());
        }
    }
    leaves.push(
        arb_instance(target_arity, 3, max_int)
            .prop_map(Query::Lit)
            .boxed(),
    );
    let leaf = proptest::strategy::Union::new(leaves).boxed();
    if depth == 0 {
        return leaf;
    }

    let mut choices: Vec<BoxedStrategy<Query>> = vec![leaf];
    let max_rel_arity = schema.iter().map(|(_, a)| *a).max().unwrap_or(0);

    if fragment.project {
        // Project from a child of some arity ≥ max(1, needed indexes).
        let child_arities: Vec<usize> = (1..=max_rel_arity.max(target_arity).max(1) + 1).collect();
        let frag = fragment;
        let sch = schema.clone();
        choices.push(
            proptest::sample::select(child_arities)
                .prop_flat_map(move |child_arity| {
                    let cols = proptest::collection::vec(0..child_arity, target_arity);
                    (
                        arb_query_with_arity_schema(
                            sch.clone(),
                            child_arity,
                            depth - 1,
                            frag,
                            max_int,
                        ),
                        cols,
                    )
                        .prop_map(|(q, cols)| Query::project(q, cols))
                })
                .boxed(),
        );
    }

    if fragment.select != SelectKind::None {
        let kind = fragment.select;
        let frag = fragment;
        choices.push(
            arb_query_with_arity_schema(schema.clone(), target_arity, depth - 1, frag, max_int)
                .prop_flat_map(move |q| {
                    let pred: BoxedStrategy<Pred> = match kind {
                        SelectKind::ColEqOnly => {
                            if target_arity == 0 {
                                Just(Pred::True).boxed()
                            } else {
                                proptest::collection::vec(
                                    ((0..target_arity), (0..target_arity))
                                        .prop_map(|(i, j)| Pred::eq_cols(i, j)),
                                    1..=2,
                                )
                                .prop_map(Pred::And)
                                .boxed()
                            }
                        }
                        SelectKind::PositiveOnly => arb_pred(target_arity, max_int, true),
                        _ => arb_pred(target_arity, max_int, false),
                    };
                    pred.prop_map(move |p| Query::select(q.clone(), p))
                })
                .boxed(),
        );
    }

    if fragment.product && target_arity >= 2 {
        let frag = fragment;
        let sch = schema.clone();
        choices.push(
            (1..target_arity)
                .prop_flat_map(move |left| {
                    let right = target_arity - left;
                    (
                        arb_query_with_arity_schema(sch.clone(), left, depth - 1, frag, max_int),
                        arb_query_with_arity_schema(sch.clone(), right, depth - 1, frag, max_int),
                    )
                        .prop_map(|(a, b)| Query::product(a, b))
                })
                .boxed(),
        );
    }

    // Equijoin: a product with spanning key pairs (and, in the full
    // selection fragment, an arbitrary residual). Key equalities are
    // positive column-equality atoms, so any fragment admitting both
    // product and selection admits the bare join.
    if fragment.product && fragment.select != SelectKind::None && target_arity >= 2 {
        let frag = fragment;
        let sch = schema.clone();
        choices.push(
            (1..target_arity)
                .prop_flat_map(move |left| {
                    let right = target_arity - left;
                    let on = proptest::collection::vec(
                        ((0..left), (left..left + right)),
                        1..=2.min(left.min(right)),
                    );
                    let maybe = |p: BoxedStrategy<Pred>| {
                        prop_oneof![1 => Just(None), 2 => p.prop_map(Some)].boxed()
                    };
                    let residual: BoxedStrategy<Option<Pred>> = match frag.select {
                        SelectKind::Any => maybe(arb_pred(left + right, max_int, false)),
                        SelectKind::PositiveOnly => maybe(arb_pred(left + right, max_int, true)),
                        _ => Just(None).boxed(),
                    };
                    (
                        arb_query_with_arity_schema(sch.clone(), left, depth - 1, frag, max_int),
                        arb_query_with_arity_schema(sch.clone(), right, depth - 1, frag, max_int),
                        on,
                        residual,
                    )
                        .prop_map(|(a, b, on, residual)| Query::join(a, b, on, residual))
                })
                .boxed(),
        );
    }

    type BinCtor = fn(Query, Query) -> Query;
    let binary_ops: Vec<(bool, BinCtor)> = vec![
        (fragment.union, Query::union as BinCtor),
        (fragment.difference, Query::diff),
        (fragment.intersection, Query::intersect),
    ];
    for (enabled, ctor) in binary_ops {
        if enabled {
            let frag = fragment;
            let sch = schema.clone();
            choices.push(
                (
                    arb_query_with_arity_schema(
                        sch.clone(),
                        target_arity,
                        depth - 1,
                        frag,
                        max_int,
                    ),
                    arb_query_with_arity_schema(sch, target_arity, depth - 1, frag, max_int),
                )
                    .prop_map(move |(a, b)| ctor(a, b))
                    .boxed(),
            );
        }
    }

    proptest::strategy::Union::new(choices).boxed()
}

/// Strategy for a well-typed full-RA query with output arity in
/// `1..=max_arity`.
pub fn arb_query(
    input_arity: usize,
    max_arity: usize,
    depth: u32,
    max_int: i64,
) -> BoxedStrategy<Query> {
    (1..=max_arity)
        .prop_flat_map(move |target| {
            arb_query_with_arity(input_arity, target, depth, Fragment::RA, max_int)
        })
        .boxed()
}

/// Strategy for a well-typed full-RA query over a named schema, with
/// output arity in `1..=max_arity`.
pub fn arb_query_schema(
    schema: Vec<(String, usize)>,
    max_arity: usize,
    depth: u32,
    max_int: i64,
) -> BoxedStrategy<Query> {
    (1..=max_arity)
        .prop_flat_map(move |target| {
            arb_query_with_arity_schema(schema.clone(), target, depth, Fragment::RA, max_int)
        })
        .boxed()
}

/// Strategy for a random named schema of 2–3 relations (`R`, `S`, and
/// sometimes `T`) with arities in `1..=max_arity` — the schemas the
/// catalog differential oracles run over.
pub fn arb_schema(max_arity: usize) -> BoxedStrategy<Vec<(String, usize)>> {
    let arity = 1..=max_arity;
    proptest::collection::vec(arity, 2..=3)
        .prop_map(|arities| {
            ["R", "S", "T"]
                .iter()
                .zip(arities)
                .map(|(n, a)| (n.to_string(), a))
                .collect()
        })
        .boxed()
}

/// A schema, a query over it, and one payload per relation (the schema
/// has at most three relations; ignore the tail payloads when it has
/// two) — the case shape of the catalog differential oracles.
pub type CatalogCase<T> = (Vec<(String, usize)>, Query, T, T, T);

/// Strategy for a random catalog workload: a 2–3 relation schema from
/// [`arb_schema`] (arities in `1..=max_arity`), a full-RA query over it
/// with output arity in `1..=max_arity`, and one payload per relation
/// built by `per_rel` from that relation's arity. Always three
/// payloads, so one generator serves every payload type (instances,
/// c-tables, pc-tables) without a variable-length strategy.
pub fn arb_catalog_case<T: std::fmt::Debug>(
    max_arity: usize,
    query_depth: u32,
    max_int: i64,
    per_rel: impl Fn(usize) -> BoxedStrategy<T> + 'static,
) -> BoxedStrategy<CatalogCase<T>> {
    arb_schema(max_arity)
        .prop_flat_map(move |schema| {
            let arities: Vec<usize> = schema.iter().map(|(_, a)| *a).collect();
            let a = move |k: usize| arities.get(k).copied().unwrap_or(1);
            (
                Just(schema.clone()),
                arb_query_schema(schema, max_arity, query_depth, max_int),
                per_rel(a(0)),
                per_rel(a(1)),
                per_rel(a(2)),
            )
        })
        .boxed()
}

/// A small shared domain for property tests.
pub fn small_domain() -> Domain {
    Domain::ints(0..=3)
}

#[cfg(test)]
mod tests {
    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        #[test]
        fn mixed_values_cover_every_variant_and_string_shape(
            vals in proptest::collection::vec(arb_mixed_value(), 600)
        ) {
            let strs: Vec<&str> = vals
                .iter()
                .filter_map(|v| match v {
                    Value::Str(s) => Some(&**s),
                    _ => None,
                })
                .collect();
            prop_assert!(vals.iter().any(|v| matches!(v, Value::Bool(_))));
            prop_assert!(vals.iter().any(|v| matches!(v, Value::Int(_))));
            prop_assert!(strs.iter().all(|s| s.len() <= 20));
            prop_assert!(strs.contains(&"1"), "Str(\"1\") never generated");
            // Distinct strings longer than 8 bytes that share their
            // first 8 bytes.
            let long: std::collections::BTreeSet<&str> =
                strs.iter().copied().filter(|s| s.len() > 8).collect();
            prop_assert!(long.iter().filter(|s| s.starts_with("shared_p")).count() >= 2);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn generated_queries_are_well_typed(q in arb_query(2, 3, 3, 3)) {
            prop_assert!(q.arity(2).is_ok());
        }

        #[test]
        fn generated_queries_respect_fragment(
            q in arb_query_with_arity(2, 2, 3, Fragment::SPJU, 3)
        ) {
            prop_assert!(Fragment::SPJU.admits_query(&q, 2).unwrap());
        }

        #[test]
        fn positive_fragment_queries_have_positive_selects(
            q in arb_query_with_arity(2, 2, 3, Fragment::S_PLUS_PJ, 3)
        ) {
            prop_assert!(Fragment::S_PLUS_PJ.admits_query(&q, 2).unwrap());
        }

        #[test]
        fn generated_queries_evaluate(
            q in arb_query(2, 3, 3, 3),
            i in arb_instance(2, 4, 3)
        ) {
            let out = q.eval(&i).unwrap();
            prop_assert_eq!(out.arity(), q.arity(2).unwrap());
        }

        #[test]
        fn eval_idb_agrees_with_per_world_eval(
            q in arb_query(2, 2, 2, 3),
            db in arb_idb(2, 4, 3, 3)
        ) {
            let image = q.eval_idb(&db).unwrap();
            for w in db.iter() {
                prop_assert!(image.contains(&q.eval(w).unwrap()));
            }
            prop_assert!(image.len() <= db.len());
        }

        #[test]
        fn schema_queries_are_well_typed_and_evaluate(
            (schema, q, i0, i1, i2) in arb_schema(2).prop_flat_map(|schema| {
                let arities: Vec<usize> = schema.iter().map(|(_, a)| *a).collect();
                let a = move |k: usize| arities.get(k).copied().unwrap_or(1);
                (
                    Just(schema.clone()),
                    arb_query_schema(schema, 2, 3, 3),
                    arb_instance(a(0), 3, 3),
                    arb_instance(a(1), 3, 3),
                    arb_instance(a(2), 3, 3),
                )
            })
        ) {
            let s = crate::Schema::new(schema.clone()).unwrap();
            let arity = q.arity_in(&s).unwrap();
            let cat = schema
                .iter()
                .zip([i0, i1, i2])
                .map(|((n, _), i)| (n.clone(), i))
                .collect::<std::collections::BTreeMap<_, _>>();
            let out = q.eval_catalog(&cat).unwrap();
            prop_assert_eq!(out.arity(), arity);
        }

        #[test]
        fn predicates_evaluate_without_error(
            p in arb_pred(3, 3, false),
            t in arb_tuple(3, 3)
        ) {
            prop_assert!(p.eval(t.values()).is_ok());
        }

        #[test]
        fn positive_predicates_report_positive(p in arb_pred(2, 3, true)) {
            prop_assert!(p.is_positive() || matches!(p, Pred::False));
        }
    }
}
