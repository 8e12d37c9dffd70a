//! Probabilistic schema mappings — the SHARQ motivation.
//!
//! The paper (§1) cites bio-informatics data sharing where mappings
//! between researchers' schemas are *approximate*: "the sources of
//! uncertainty include data from error-prone experiments and accepted
//! scientific hypotheses that allow for limited mismatch". This example
//! models a gene-annotation exchange as a p-`?`-table (tuple-level
//! confidence) joined with a p-or-set-table (attribute-level
//! alternatives), embeds both into probabilistic c-tables (§8), and
//! compares the safe-plan evaluator with exact lineage computation
//! (§8's discussion of Dalvi–Suciu).
//!
//! Run with `cargo run --example schema_mapping`.

use ipdb::prelude::*;
use ipdb::prob::extensional::{
    exact_prob, forced_extensional, lifted_prob, BoolCq, CqArg, CqAtom, ProbDb,
};
use ipdb::prob::FiniteSpace;

fn main() {
    // Matches(gene, pathway): mapping tuples with confidences — a
    // p-?-table (tuple-independent, §7).
    let matches = PTable::from_rows(
        2,
        [
            (tuple!["brca1", "repair"], Rat::new(9, 10)),
            (tuple!["brca1", "cycle"], Rat::new(2, 10)),
            (tuple!["tp53", "cycle"], Rat::new(8, 10)),
        ],
    )
    .unwrap();
    println!("{matches}");

    // Experiments(gene): which gene a noisy assay actually measured — a
    // p-or-set-table cell with alternatives (§7, ProbView-style).
    let assay = POrSetTable::from_rows(
        1,
        [vec![FiniteSpace::new([
            (Value::from("brca1"), Rat::new(7, 10)),
            (Value::from("brca2"), Rat::new(3, 10)),
        ])
        .unwrap()]],
    )
    .unwrap();
    println!("{assay}");

    // Both models embed into pc-tables (the paper's central point: one
    // model subsumes them all).
    let mut gen = VarGen::new();
    let matches_pc = matches.to_pctable(&mut gen).unwrap();
    let assay_pc = assay.to_pctable(&mut gen).unwrap();
    println!(
        "as pc-tables: {} + {} variables",
        matches_pc.dists().len(),
        assay_pc.dists().len()
    );

    // World distributions.
    let m_worlds = matches_pc.mod_space().unwrap();
    println!(
        "Matches has {} worlds; P[perfect mapping] = {}",
        m_worlds.len(),
        m_worlds.world_prob(&ipdb::rel::instance![
            ["brca1", "repair"],
            ["tp53", "cycle"]
        ])
    );

    // Boolean question: does the assayed gene map into the repair
    // pathway? ∃g. Assay(g) ∧ Matches(g, 'repair') — a hierarchical
    // (safe) conjunctive query over independent relations.
    let mut db = ProbDb::new();
    db.insert("Matches", matches.clone());
    db.insert(
        "Assay",
        PTable::from_rows(
            1,
            [
                (tuple!["brca1"], Rat::new(7, 10)),
                (tuple!["brca2"], Rat::new(3, 10)),
            ],
        )
        .unwrap(),
    );
    let safe_q = BoolCq::new(vec![
        CqAtom::new("Assay", vec![CqArg::Var(0)]),
        CqAtom::new(
            "Matches",
            vec![CqArg::Var(0), CqArg::Const(Value::from("repair"))],
        ),
    ]);
    println!(
        "\nq_safe = {safe_q} (hierarchical: {})",
        safe_q.is_hierarchical()
    );
    let exact = exact_prob(&safe_q, &db).unwrap();
    let lifted = lifted_prob(&safe_q, &db).unwrap();
    println!("  exact (lineage+BDD)     = {exact}");
    println!("  safe plan (extensional) = {lifted}");
    assert_eq!(exact, lifted);

    // The unsafe pattern H₀ = R(x), S(x,y), T(y): the extensional plan
    // silently gets it wrong — the dichotomy the paper points to in §8.
    let mut db2 = ProbDb::new();
    db2.insert(
        "R",
        PTable::from_rows(
            1,
            [(tuple![1], Rat::new(1, 2)), (tuple![2], Rat::new(1, 2))],
        )
        .unwrap(),
    );
    db2.insert(
        "S",
        PTable::from_rows(
            2,
            [
                (tuple![1, 10], Rat::new(1, 2)),
                (tuple![2, 10], Rat::new(1, 2)),
                (tuple![2, 20], Rat::new(1, 2)),
            ],
        )
        .unwrap(),
    );
    db2.insert(
        "T",
        PTable::from_rows(
            1,
            [(tuple![10], Rat::new(1, 2)), (tuple![20], Rat::new(1, 2))],
        )
        .unwrap(),
    );
    let h0 = BoolCq::h0();
    println!("\nH₀ = {h0} (hierarchical: {})", h0.is_hierarchical());
    let exact = exact_prob(&h0, &db2).unwrap();
    let wrong = forced_extensional(&h0, &db2).unwrap();
    println!("  exact       = {exact} ≈ {:.6}", exact.to_f64());
    println!("  forced plan = {wrong} ≈ {:.6}", wrong.to_f64());
    assert!(lifted_prob(&h0, &db2).is_err());
    assert_ne!(exact, wrong);
    println!("  safe-plan evaluator correctly refuses H₀ ✓");
}
