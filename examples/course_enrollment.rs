//! The paper's §1 running example as a probabilistic c-table.
//!
//! "Alice is taking a course that is Math with probability 0.3, Physics
//! (0.3), or Chemistry (0.4), while Bob takes the same course as Alice,
//! provided that course is Physics or Chemistry, and Theo takes Math
//! with probability 0.85."
//!
//! Run with `cargo run --example course_enrollment`.

use ipdb::prelude::*;
use ipdb::prob::FiniteSpace;
use ipdb::rel::Query;

fn main() {
    let mut vars = VarGen::new();
    let x = vars.fresh(); // Alice's course
    let t = vars.fresh(); // Theo's coin

    // Student–Course table with conditions, exactly the paper's figure.
    let table = CTable::builder(2)
        .row([t_const("Alice"), t_var(x)], Condition::True)
        .row(
            [t_const("Bob"), t_var(x)],
            Condition::or([Condition::eq_vc(x, "phys"), Condition::eq_vc(x, "chem")]),
        )
        .row([t_const("Theo"), t_const("math")], Condition::eq_vc(t, 1))
        .build()
        .unwrap();

    let x_dist = FiniteSpace::new([
        (Value::from("math"), Rat::new(3, 10)),
        (Value::from("phys"), Rat::new(3, 10)),
        (Value::from("chem"), Rat::new(4, 10)),
    ])
    .unwrap();
    let t_dist = FiniteSpace::new([
        (Value::from(0), Rat::new(15, 100)),
        (Value::from(1), Rat::new(85, 100)),
    ])
    .unwrap();
    let pc = PcTable::new(table, [(x, x_dist), (t, t_dist)]).unwrap();
    println!("{pc}");

    // The distribution over possible worlds (Def. 13: image of the
    // product space of valuations).
    let worlds = pc.mod_space().unwrap();
    println!("distribution over {} worlds:", worlds.len());
    for (world, p) in worlds.space().iter() {
        println!("  P = {p:>7} : {world}");
    }

    // Marginal tuple probabilities — the question the §7 papers asked.
    println!("\ntuple marginals:");
    for (tup, p) in worlds.marginals() {
        println!("  P[{tup}] = {p}");
    }

    // Query through Theorem 9's closure: who is taking the same course
    // as Alice? π₁(σ₂₌₄,₁≠'Alice'(V × σ₁₌'Alice'(V))).
    let q = Query::project(
        Query::select(
            Query::product(
                Query::Input,
                Query::select(Query::Input, Pred::eq_const(0, "Alice")),
            ),
            Pred::and([Pred::eq_cols(1, 3), Pred::neq_const(0, "Alice")]),
        ),
        vec![0],
    );
    println!("\nq = {q}");
    let answered = pc.eval_query(&q).unwrap();
    println!("answer marginals (via the BDD engine on q̄(T)):");
    for (tup, p) in pc.answer_dist_bdd(&q).unwrap() {
        println!("  P[{tup}] = {p}");
    }
    // Cross-check the BDD engine against enumeration on 'Bob'.
    let bob = tuple!["Bob"];
    let p_enum = answered.tuple_prob_enum(&bob).unwrap();
    let p_bdd = answered.tuple_prob_bdd(&bob).unwrap();
    assert_eq!(p_enum, p_bdd);
    assert_eq!(p_enum, Rat::new(7, 10));
    println!("\nP[Bob shares Alice's course] = {p_enum} (= 0.3 + 0.4) ✓");
}
