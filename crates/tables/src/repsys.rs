//! The representation-system interface (paper Def. 2).
//!
//! A representation system is a set of tables plus a function `Mod`
//! mapping each table to the incomplete database it denotes. The systems
//! of §3 are all *finite* (their `Mod` is a finite set of worlds), so the
//! trait exposes `Mod` directly as an [`IDatabase`]; c-tables implement
//! it through their finite-domain restriction ([`CTable::mod_finite`]).
//!
//! Each system also knows its standard embedding into c-tables — the
//! comparisons of §3 ("finite-domain Codd tables are equivalent to
//! or-set tables", "`?`-tables are boolean c-tables with single-variable
//! conditions", …) are implemented as these conversions and tested to be
//! `Mod`-preserving.

use ipdb_logic::VarGen;
use ipdb_rel::IDatabase;

use crate::ctable::CTable;
use crate::error::TableError;

/// The presence masks of `n` rows whose presence varies: bit `i` of a
/// mask says whether row `i` is in the world. Errors with
/// [`TableError::TooManyOptionalRows`] before any world is built when
/// the masks do not fit a `u64` range (`n ≥ 64`).
pub(crate) fn presence_masks(n: usize) -> Result<std::ops::Range<u64>, TableError> {
    if n >= 64 {
        return Err(TableError::TooManyOptionalRows(n));
    }
    Ok(0..1u64 << n)
}

/// A representation system with finite semantics (Def. 2 restricted to
/// finitely many worlds, as in all systems of §3).
pub trait RepresentationSystem {
    /// The arity of the represented relation.
    fn arity(&self) -> usize;

    /// `Mod(T)`: the finite set of possible worlds.
    fn worlds(&self) -> Result<IDatabase, TableError>;

    /// The standard embedding of this table into a (finite-domain)
    /// c-table, using `gen` for any fresh variables it needs.
    ///
    /// Contract (tested per system): the embedding preserves `Mod`.
    fn to_ctable(&self, gen: &mut VarGen) -> Result<CTable, TableError>;
}

impl RepresentationSystem for CTable {
    fn arity(&self) -> usize {
        CTable::arity(self)
    }

    /// `Mod(T)` of a finite-domain c-table; errors when some variable has
    /// no finite domain (then `Mod(T)` is infinite — see
    /// [`CTable::mod_over`]).
    fn worlds(&self) -> Result<IDatabase, TableError> {
        self.mod_finite()
    }

    fn to_ctable(&self, _gen: &mut VarGen) -> Result<CTable, TableError> {
        Ok(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctable::t_var;
    use crate::{OrSetQTable, OrSetValue, QTable, RAProp, RXorEquiv};
    use ipdb_logic::{Condition, Var};
    use ipdb_rel::{Domain, Tuple};

    #[test]
    fn ctable_implements_the_trait() {
        let x = Var(0);
        let t = CTable::builder(1)
            .row([t_var(x)], Condition::True)
            .domain(x, Domain::ints(1..=3))
            .build()
            .unwrap();
        assert_eq!(RepresentationSystem::arity(&t), 1);
        assert_eq!(t.worlds().unwrap().len(), 3);
        let mut g = VarGen::new();
        assert_eq!(t.to_ctable(&mut g).unwrap(), t);
    }

    #[test]
    fn sixty_four_rows_of_varying_presence_are_refused() {
        // 2⁶⁴ presence masks do not fit a `u64` range: each system
        // errors before building a single world.
        let too_many = TableError::TooManyOptionalRows(64);
        let tuples: Vec<Tuple> = (0..64i64).map(|i| Tuple::new([i])).collect();
        let cells: Vec<Vec<OrSetValue>> = (0..64i64).map(|i| vec![OrSetValue::single(i)]).collect();
        let q = QTable::from_rows(1, tuples.iter().map(|t| (t.clone(), true))).unwrap();
        assert_eq!(q.worlds().unwrap_err(), too_many);
        let oq = OrSetQTable::from_rows(1, cells.iter().map(|r| (r.clone(), true))).unwrap();
        assert_eq!(oq.worlds().unwrap_err(), too_many);
        let x = RXorEquiv::new(1, tuples, Vec::new()).unwrap();
        assert_eq!(x.worlds().unwrap_err(), too_many);
        assert_eq!(x.to_ctable(&mut VarGen::new()).unwrap_err(), too_many);
        let a = RAProp::new(1, cells, Condition::True).unwrap();
        assert_eq!(a.worlds().unwrap_err(), too_many);
        assert_eq!(a.to_ctable(&mut VarGen::new()).unwrap_err(), too_many);
        assert!(presence_masks(63).is_ok());
    }
}
