//! Failure-injection tests: every layer reports malformed input with a
//! typed error instead of panicking or silently mis-answering.

use ipdb::prelude::*;
use ipdb::prob::FiniteSpace;
use ipdb::rel::{Query, RelError};
use ipdb::tables::TableError;

#[test]
fn rel_arity_errors_surface() {
    // Union of mismatched arities.
    let q = Query::union(Query::Input, Query::singleton([1i64, 2]));
    assert!(matches!(
        q.arity(1),
        Err(RelError::ArityMismatch {
            expected: 1,
            got: 2
        })
    ));
    // Out-of-range projection.
    let q = Query::project(Query::Input, vec![5]);
    assert!(matches!(
        q.eval(&ipdb::rel::instance![[1, 2]]),
        Err(RelError::ColumnOutOfRange { col: 5, .. })
    ));
}

#[test]
fn second_input_requires_two_relation_context() {
    let q = Query::product(Query::Input, Query::Second);
    assert!(matches!(
        q.eval(&ipdb::rel::instance![[1]]),
        Err(RelError::NoSecondInput)
    ));
    // But eval2 accepts it.
    let out = q
        .eval2(&ipdb::rel::instance![[1]], &ipdb::rel::instance![[2]])
        .unwrap();
    assert_eq!(out, ipdb::rel::instance![[1, 2]]);
}

#[test]
fn ctable_algebra_errors_surface() {
    let x = Var(0);
    let t = CTable::builder(1)
        .row([t_var(x)], Condition::True)
        .build()
        .unwrap();
    // Arity mismatch in union.
    let t2 = CTable::new(2, vec![]).unwrap();
    assert!(matches!(
        t.union_bar(&t2),
        Err(TableError::Rel(RelError::ArityMismatch { .. }))
    ));
    // Second input rejected by the single-table algebra.
    assert!(matches!(
        t.eval_query(&Query::Second),
        Err(TableError::Rel(RelError::NoSecondInput))
    ));
    // So is a named relation: the one-table context binds only `V`.
    assert_eq!(
        t.eval_query(&Query::rel("R")),
        Err(TableError::Rel(RelError::UnknownRelation {
            name: "R".into()
        }))
    );
    // Mod of a table with an unrestricted variable is infinite.
    assert!(matches!(t.mod_finite(), Err(TableError::MissingDomain(_))));
}

#[test]
fn join_errors_surface() {
    use ipdb::engine::{Engine, EngineError};

    // A join key column past the combined arity fails the schema check with
    // the dedicated JoinArity error...
    let oob = Query::join(Query::Input, Query::Input, [(0, 9)], None);
    assert_eq!(
        Engine::new().prepare(&oob, 2).unwrap_err(),
        EngineError::JoinArity {
            col: 9,
            left: 2,
            right: 2
        }
    );
    // ...and at rel-level evaluation with a ColumnOutOfRange.
    assert!(matches!(
        oob.eval(&ipdb::rel::instance![[1, 2]]),
        Err(RelError::ColumnOutOfRange { col: 9, arity: 4 })
    ));
    // Key pairs that do not span the two operands are rejected: the
    // check insists a Join can actually hash on its keys.
    let one_sided = Query::join(Query::Input, Query::Input, [(0, 1)], None);
    assert_eq!(
        Engine::new().prepare(&one_sided, 2).unwrap_err(),
        EngineError::JoinArity {
            col: 1,
            left: 2,
            right: 2
        }
    );
    // An empty `on` list is rejected by the check (write sigma(... x ...)).
    let empty = Query::join(Query::Input, Query::Input, [], None);
    assert_eq!(
        Engine::new().prepare(&empty, 2).unwrap_err(),
        EngineError::EmptyJoinOn
    );
    // The same errors surface through the surface syntax.
    assert_eq!(
        Engine::new().prepare_text("join[](V, V)", 2).unwrap_err(),
        EngineError::EmptyJoinOn
    );
    // Duplicate (and reversed) key pairs are deduplicated by the check.
    let dup = Query::join(Query::Input, Query::Input, [(0, 2), (2, 0), (0, 2)], None);
    let stmt = Engine::new().prepare(&dup, 2).unwrap();
    match stmt.naive_query() {
        Query::Join { on, .. } => assert_eq!(on, &vec![(0, 2)]),
        other => panic!("expected a Join node, got {other:?}"),
    }
    // A residual referencing a column outside the combined tuple.
    let bad_resid = Query::join(
        Query::Input,
        Query::Input,
        [(0, 2)],
        Some(Pred::eq_cols(0, 8)),
    );
    assert!(matches!(
        Engine::new().prepare(&bad_resid, 2),
        Err(EngineError::Rel(RelError::ColumnOutOfRange { col: 8, .. }))
    ));
    // The c-table algebra reports bad keys through TableError.
    let x = Var(0);
    let t = CTable::builder(1)
        .row([t_var(x)], Condition::True)
        .build()
        .unwrap();
    assert!(matches!(
        t.join_bar(&t, &[(0, 5)], None),
        Err(TableError::Rel(RelError::ColumnOutOfRange { col: 5, .. }))
    ));
}

#[test]
fn prob_validation_errors_surface() {
    use ipdb::prob::ProbError;
    // Mass ≠ 1.
    assert!(matches!(
        FiniteSpace::<i32, Rat>::new([(1, Rat::new(1, 2))]),
        Err(ProbError::MassNotOne(_))
    ));
    // Probability out of range in a p-?-table.
    let mut t: PTable<Rat> = PTable::new(1);
    assert!(matches!(
        t.push(tuple![1], Rat::new(3, 2)),
        Err(ProbError::InvalidProbability(_))
    ));
    // Missing variable distribution in a pc-table.
    let x = Var(0);
    let ct = CTable::builder(1)
        .row([t_var(x)], Condition::True)
        .build()
        .unwrap();
    assert_eq!(
        PcTable::<Rat>::new(ct, []).unwrap_err(),
        ProbError::MissingDistribution(x)
    );
}

#[test]
fn provenance_difference_rejected() {
    use ipdb::provenance::{BoolSr, KRelation, ProvError};
    let r: KRelation<BoolSr> = KRelation::new(1);
    let q = Query::diff(Query::Input, Query::Input);
    assert_eq!(
        ipdb::provenance::eval(&q, &r).unwrap_err(),
        ProvError::DifferenceNotSupported
    );
}

#[test]
fn theory_layer_errors_surface() {
    use ipdb::theory::{completion, finite_complete, CoreError};
    // Empty targets are unrepresentable everywhere.
    let empty = IDatabase::empty(1);
    assert!(matches!(
        finite_complete::theorem3_table(&empty, &mut VarGen::new()),
        Err(CoreError::Unrepresentable(_))
    ));
    assert!(matches!(
        completion::corollary1_qtable(&empty),
        Err(CoreError::Unrepresentable(_))
    ));
    // Thm 7 demands a big-enough host.
    let target =
        IDatabase::from_instances(1, [ipdb::rel::instance![[1]], ipdb::rel::instance![[2]]])
            .unwrap();
    let host = IDatabase::single(ipdb::rel::instance![[9]]);
    assert!(matches!(
        completion::theorem7_query(&host, &target),
        Err(CoreError::HostTooSmall {
            needed: 2,
            available: 1
        })
    ));
}

#[test]
fn unsatisfiable_rxor_embedding_is_reported() {
    use ipdb::tables::{RConstraint, RXorEquiv, RepresentationSystem};
    let t = RXorEquiv::new(1, vec![tuple![1]], vec![RConstraint::Xor(0, 0)]).unwrap();
    assert!(matches!(
        t.to_ctable(&mut VarGen::new()),
        Err(TableError::Unrepresentable(_))
    ));
}
