//! Fixpoint properties of condition cleanup.
//!
//! [`CTable::simplified`] runs one bottom-up pass of the condition smart
//! constructors per row, and callers rely on one pass being enough —
//! i.e. on `simplify` being idempotent — otherwise conditions would keep
//! shrinking pass over pass and "simplified" output would depend on how
//! often it was applied. These properties pin the fixpoint on raw
//! (un-smart-constructed) nested `And`/`Or`/`Not` shapes.

use proptest::prelude::*;

use ipdb_logic::strategies::arb_condition;
use ipdb_logic::{Condition, Term, Var};
use ipdb_tables::strategies::arb_ctable;
use ipdb_tables::{t_const, t_var, CTable};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `simplify` reaches its fixpoint in one pass: simplify-of-
    /// simplified is the identity on arbitrary raw condition trees.
    #[test]
    fn simplify_is_idempotent(c in arb_condition(4, 3, 4)) {
        let once = c.simplify();
        prop_assert_eq!(once.simplify(), once, "input {}", c);
    }

    /// The same fixpoint through the table-level wrapper: a second
    /// `simplified()` pass never changes any row condition.
    #[test]
    fn simplified_is_idempotent(t in arb_ctable(2, 4, 3, 2)) {
        let once = t.simplified();
        prop_assert_eq!(once.simplified(), once);
    }
}

/// Hand-picked adversarial nestings: complementary literals only
/// exposed after flattening, `Not` over compound members, constant
/// folding enabling unit laws upstream.
#[test]
fn simplify_fixpoint_on_adversarial_nestings() {
    let (x, y) = (Var(0), Var(1));
    let cases = [
        // ¬(¬(x=y ∧ ¬(x≠1)))
        Condition::Not(Box::new(Condition::Not(Box::new(Condition::And(vec![
            Condition::eq_vv(x, y),
            Condition::Not(Box::new(Condition::neq_vc(x, 1))),
        ]))))),
        // (x=y ∧ (x≠y ∨ false)) — complement surfaces after inner fold.
        Condition::And(vec![
            Condition::eq_vv(x, y),
            Condition::Or(vec![Condition::neq_vv(x, y), Condition::False]),
        ]),
        // Deep And/Or alternation with units sprinkled in.
        Condition::Or(vec![
            Condition::And(vec![
                Condition::True,
                Condition::Or(vec![Condition::eq_vc(x, 1), Condition::False]),
                Condition::And(vec![Condition::eq_vc(y, 2), Condition::True]),
            ]),
            Condition::Eq(Term::constant(3), Term::constant(3)),
        ]),
        // ¬(∅-And) and ¬(∅-Or).
        Condition::Not(Box::new(Condition::And(vec![]))),
        Condition::Not(Box::new(Condition::Or(vec![]))),
    ];
    for c in cases {
        let once = c.simplify();
        assert_eq!(once.simplify(), once, "input {c}");
    }
}

/// The table-level wrapper on a table whose rows mix all of the above.
#[test]
fn simplified_table_fixpoint_unit() {
    let (x, y) = (Var(0), Var(1));
    let t = CTable::builder(1)
        .row(
            [t_var(x)],
            Condition::Not(Box::new(Condition::And(vec![
                Condition::eq_vv(x, y),
                Condition::Not(Box::new(Condition::eq_vc(y, 0))),
            ]))),
        )
        .row(
            [t_const(1)],
            Condition::Or(vec![
                Condition::And(vec![Condition::True, Condition::eq_vc(x, 2)]),
                Condition::False,
            ]),
        )
        .build()
        .unwrap();
    let once = t.simplified();
    assert_eq!(once.simplified(), once);
}
