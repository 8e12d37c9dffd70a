//! Completeness of boolean pc-tables (paper Theorem 8).
//!
//! Any probabilistic database `(I₁:p₁, …, I_k:p_k)` is represented by a
//! boolean pc-table: put the tuples of `Iᵢ` (i < k) under condition
//! `¬x₁ ∧ … ∧ ¬x_{i−1} ∧ xᵢ`, the tuples of `I_k` under
//! `¬x₁ ∧ … ∧ ¬x_{k−1}`, and set
//! `P[xᵢ = true] = pᵢ / (1 − Σ_{j<i} pⱼ)` — a chain of conditional
//! Bernoulli choices ("pick the first world whose coin comes up").
//!
//! The construction needs exact division, which is why the probabilistic
//! layer defaults to [`crate::Rat`].

use ipdb_bdd::Weight;
use ipdb_logic::{Condition, VarGen};
use ipdb_tables::BooleanCTable;

use crate::error::ProbError;
use crate::pctable::BooleanPcTable;
use crate::pdb::PDatabase;

/// The Theorem 8 construction: a boolean pc-table `T` with
/// `Mod(T)` equal (as a distribution) to the given p-database.
///
/// ```
/// use ipdb_prob::{rat, theorem8_table, PDatabase, Rat};
/// use ipdb_rel::instance;
/// let db = PDatabase::from_outcomes(1, [
///     (instance![[1]], rat!(1, 4)),
///     (instance![[2]], rat!(3, 4)),
/// ]).unwrap();
/// let t = theorem8_table(&db, &mut ipdb_logic::VarGen::new()).unwrap();
/// assert!(t.mod_space().unwrap().same_distribution(&db));
/// ```
pub fn theorem8_table<W: Weight>(
    db: &PDatabase<W>,
    gen: &mut VarGen,
) -> Result<BooleanPcTable<W>, ProbError> {
    // Worlds with non-zero probability, in canonical order.
    let worlds: Vec<(&ipdb_rel::Instance, W)> =
        db.space().iter().map(|(i, p)| (i, p.clone())).collect();
    let k = worlds.len();
    let mut table = BooleanCTable::new(db.arity());
    let vars: Vec<_> = (0..k.saturating_sub(1)).map(|_| gen.fresh()).collect();
    let mut probs = Vec::with_capacity(vars.len());

    let mut prefix_mass = W::zero(); // Σ_{j<i} p_j
    for (i, (world, p)) in worlds.iter().enumerate() {
        let cond = if i + 1 < k {
            // ¬x₁ ∧ … ∧ ¬x_{i−1} ∧ xᵢ
            Condition::and(
                vars[..i]
                    .iter()
                    .map(|v| Condition::nbvar(*v))
                    .chain(std::iter::once(Condition::bvar(vars[i]))),
            )
        } else {
            // Last world: ¬x₁ ∧ … ∧ ¬x_{k−1}
            Condition::and(vars.iter().map(|v| Condition::nbvar(*v)))
        };
        for t in world.iter() {
            table.push(t.clone(), cond.clone())?;
        }
        if i + 1 < k {
            // P[xᵢ] = pᵢ / (1 − Σ_{j<i} pⱼ)
            let remaining = W::one().sub(&prefix_mass);
            probs.push((vars[i], p.div(&remaining)));
            prefix_mass = prefix_mass.add(p);
        }
    }
    // A world with an empty instance contributes no rows but its
    // variable/probability entry still exists — handled above. If some
    // xᵢ guards only an empty world, it never appears in a condition, so
    // give it its distribution anyway for Mod to weigh correctly.
    let used: std::collections::BTreeSet<_> = table.vars();
    let probs: Vec<_> = probs
        .into_iter()
        .filter(|(v, _)| used.contains(v))
        .collect();
    BooleanPcTable::new(table, probs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rat;
    use crate::rat::Rat;
    use ipdb_rel::{instance, Instance};

    #[test]
    fn example_three_worlds() {
        let db = PDatabase::from_outcomes(
            1,
            [
                (instance![[1]], rat!(1, 2)),
                (instance![[1], [2]], rat!(1, 3)),
                (instance![[3]], rat!(1, 6)),
            ],
        )
        .unwrap();
        let t = theorem8_table(&db, &mut VarGen::new()).unwrap();
        assert!(t.mod_space().unwrap().same_distribution(&db));
        // Conditional probabilities: x₀ = 1/2; x₁ = (1/3)/(1/2) = 2/3.
        let probs = t.true_probs();
        assert_eq!(probs[0].1, rat!(1, 2));
        assert_eq!(probs[1].1, rat!(2, 3));
    }

    #[test]
    fn single_world_needs_no_variables() {
        let db: PDatabase<Rat> = PDatabase::certain(instance![[7, 8]]);
        let t = theorem8_table(&db, &mut VarGen::new()).unwrap();
        assert!(t.true_probs().is_empty());
        assert!(t.mod_space().unwrap().same_distribution(&db));
    }

    #[test]
    fn empty_world_in_support() {
        let db = PDatabase::from_outcomes(
            1,
            [
                (Instance::empty(1), rat!(2, 5)),
                (instance![[1]], rat!(3, 5)),
            ],
        )
        .unwrap();
        let t = theorem8_table(&db, &mut VarGen::new()).unwrap();
        assert!(t.mod_space().unwrap().same_distribution(&db));
    }

    #[test]
    fn theorem8_table_is_answered_by_the_bdd_engine() {
        // The boolean pc-table of Theorem 8 needs no engine of its own:
        // its tuple marginals come out of the general BDD path exactly.
        let db = PDatabase::from_outcomes(
            1,
            [
                (instance![[1], [2]], rat!(1, 4)),
                (instance![[1], [3]], rat!(1, 4)),
                (instance![[2]], rat!(1, 2)),
            ],
        )
        .unwrap();
        let t = theorem8_table(&db, &mut VarGen::new()).unwrap();
        let marginals = t.as_pctable().marginals_bdd().unwrap();
        assert_eq!(marginals, db.marginals());
        assert_eq!(marginals.len(), 3);
        for (tuple, p) in &marginals {
            assert_eq!(t.as_pctable().tuple_prob_bdd(tuple).unwrap(), *p);
        }
    }

    #[test]
    fn worlds_sharing_tuples() {
        let db = PDatabase::from_outcomes(
            1,
            [
                (instance![[1], [2]], rat!(1, 4)),
                (instance![[1], [3]], rat!(1, 4)),
                (instance![[1]], rat!(1, 2)),
            ],
        )
        .unwrap();
        let t = theorem8_table(&db, &mut VarGen::new()).unwrap();
        assert!(t.mod_space().unwrap().same_distribution(&db));
    }
}
