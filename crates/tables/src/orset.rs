//! Or-set tables and or-set-`?`-tables (paper §2 Example 3, §3; \[29\]'s
//! `R_A` and `R_A?`).
//!
//! An or-set value `〈1,2,3〉` signifies that exactly one of the listed
//! values is the actual one. An or-set table is a conventional instance
//! whose cells may be or-sets; the `?` variant additionally marks rows as
//! optional. §3 shows or-set tables are *equivalent to finite-domain Codd
//! tables* — [`OrSetTable::to_ctable`] is that translation (a fresh
//! variable per multi-valued cell, `dom(x)` = the or-set), and
//! [`OrSetTable::from_codd`] is the inverse direction.

use std::collections::BTreeMap;
use std::fmt;

use ipdb_logic::{Condition, Term, VarGen};
use ipdb_rel::{Domain, IDatabase, Instance, Tuple, Value};

use crate::ctable::{CRow, CTable};
use crate::error::TableError;
use crate::repsys::{presence_masks, RepresentationSystem};

/// An or-set value: one or more candidate values, exactly one of which is
/// the (unknown) actual value. A singleton or-set is just a constant.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct OrSetValue {
    choices: Vec<Value>,
}

impl OrSetValue {
    /// Builds an or-set from candidates (deduplicated, kept sorted);
    /// errors when empty.
    pub fn new<I, V>(choices: I) -> Result<Self, TableError>
    where
        I: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        let mut choices: Vec<Value> = choices.into_iter().map(Into::into).collect();
        choices.sort_unstable();
        choices.dedup();
        if choices.is_empty() {
            return Err(TableError::EmptyOrSet);
        }
        Ok(OrSetValue { choices })
    }

    /// A singleton (certain) value.
    pub fn single(v: impl Into<Value>) -> Self {
        OrSetValue {
            choices: vec![v.into()],
        }
    }

    /// The candidate values.
    pub fn choices(&self) -> &[Value] {
        &self.choices
    }

    /// Whether the value is certain (exactly one candidate).
    pub fn is_single(&self) -> bool {
        self.choices.len() == 1
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.choices.len()
    }

    /// Or-sets are never empty, but the std convention wants the method.
    pub fn is_empty(&self) -> bool {
        false
    }
}

impl fmt::Display for OrSetValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let [only] = self.choices.as_slice() {
            return write!(f, "{only}");
        }
        write!(f, "〈")?;
        for (i, v) in self.choices.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "〉")
    }
}

impl From<Value> for OrSetValue {
    fn from(v: Value) -> Self {
        OrSetValue::single(v)
    }
}

/// An or-set table: rows of or-set values.
///
/// ```
/// use ipdb_tables::{OrSetTable, OrSetValue, RepresentationSystem};
/// let t = OrSetTable::from_rows(2, [
///     vec![OrSetValue::single(1), OrSetValue::new([1i64, 2]).unwrap()],
/// ]).unwrap();
/// assert_eq!(t.worlds().unwrap().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrSetTable {
    arity: usize,
    rows: Vec<Vec<OrSetValue>>,
}

impl OrSetTable {
    /// An empty or-set table.
    pub fn new(arity: usize) -> Self {
        OrSetTable {
            arity,
            rows: Vec::new(),
        }
    }

    /// Builds from rows of or-set values.
    pub fn from_rows(
        arity: usize,
        rows: impl IntoIterator<Item = Vec<OrSetValue>>,
    ) -> Result<Self, TableError> {
        let mut t = OrSetTable::new(arity);
        for r in rows {
            t.push(r)?;
        }
        Ok(t)
    }

    /// Appends a row.
    pub fn push(&mut self, row: Vec<OrSetValue>) -> Result<(), TableError> {
        if row.len() != self.arity {
            return Err(TableError::RowArity {
                expected: self.arity,
                got: row.len(),
            });
        }
        self.rows.push(row);
        Ok(())
    }

    /// The rows.
    pub fn rows(&self) -> &[Vec<OrSetValue>] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The §3 inverse translation: a finite-domain Codd table becomes an
    /// or-set table (each variable cell becomes the or-set `dom(x)`).
    ///
    /// Errors unless the input really is a finite-domain Codd table.
    pub fn from_codd(codd: &CTable) -> Result<OrSetTable, TableError> {
        if !codd.is_codd() {
            return Err(TableError::NotBoolean(
                "or-set translation needs a Codd table".into(),
            ));
        }
        let mut rows = Vec::with_capacity(codd.len());
        for row in codd.rows() {
            let mut out = Vec::with_capacity(codd.arity());
            for term in &row.tuple {
                out.push(match term {
                    Term::Const(v) => OrSetValue::single(v.clone()),
                    Term::Var(x) => {
                        let dom = codd.domains().get(x).ok_or(TableError::MissingDomain(*x))?;
                        OrSetValue::new(dom.iter().cloned())?
                    }
                });
            }
            rows.push(out);
        }
        OrSetTable::from_rows(codd.arity(), rows)
    }

    fn enumerate_worlds(
        rows: &[Vec<OrSetValue>],
        arity: usize,
        optional: Option<&[bool]>,
    ) -> Result<IDatabase, TableError> {
        // Odometer over per-cell choices × optional-row masks.
        let cells: Vec<&OrSetValue> = rows.iter().flatten().collect();
        let mut idx = vec![0usize; cells.len()];
        let opt_rows: Vec<usize> = optional
            .map(|o| {
                o.iter()
                    .enumerate()
                    .filter(|(_, &b)| b)
                    .map(|(i, _)| i)
                    .collect()
            })
            .unwrap_or_default();
        let masks = presence_masks(opt_rows.len())?;
        let mut out = IDatabase::empty(arity);
        loop {
            for mask in masks.clone() {
                let mut inst = Instance::empty(arity);
                for (r, row) in rows.iter().enumerate() {
                    if let Some(pos) = opt_rows.iter().position(|&i| i == r) {
                        if (mask >> pos) & 1 == 0 {
                            continue;
                        }
                    }
                    let base = rows[..r].iter().map(Vec::len).sum::<usize>();
                    let tuple: Tuple = row
                        .iter()
                        .enumerate()
                        .map(|(c, cell)| cell.choices()[idx[base + c]].clone())
                        .collect();
                    inst.insert(tuple)?;
                }
                out.insert(inst)?;
            }
            // Advance odometer.
            let mut pos = cells.len();
            loop {
                if pos == 0 {
                    return Ok(out);
                }
                pos -= 1;
                idx[pos] += 1;
                if idx[pos] < cells[pos].len() {
                    break;
                }
                idx[pos] = 0;
            }
        }
    }
}

impl RepresentationSystem for OrSetTable {
    fn arity(&self) -> usize {
        self.arity
    }

    fn worlds(&self) -> Result<IDatabase, TableError> {
        OrSetTable::enumerate_worlds(&self.rows, self.arity, None)
    }

    /// The §3 translation into a finite-domain Codd table: fresh variable
    /// per multi-valued cell, `dom(x)` = the or-set contents.
    fn to_ctable(&self, gen: &mut VarGen) -> Result<CTable, TableError> {
        let mut domains = BTreeMap::new();
        let mut rows = Vec::with_capacity(self.rows.len());
        for row in &self.rows {
            let mut terms = Vec::with_capacity(self.arity);
            for cell in row {
                if cell.is_single() {
                    terms.push(Term::Const(cell.choices()[0].clone()));
                } else {
                    let v = gen.fresh();
                    domains.insert(v, Domain::new(cell.choices().iter().cloned()));
                    terms.push(Term::Var(v));
                }
            }
            rows.push(CRow::new(terms, Condition::True));
        }
        CTable::with_domains(self.arity, rows, domains)
    }
}

impl fmt::Display for OrSetTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "or-set-table (arity {}):", self.arity)?;
        for row in &self.rows {
            write!(f, " ")?;
            for cell in row {
                write!(f, " {cell}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// An or-set-`?`-table (\[29\]'s `R_A?`): or-set rows, optionally labeled
/// "?" — the combination illustrated by the paper's Example 3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrSetQTable {
    arity: usize,
    rows: Vec<(Vec<OrSetValue>, bool)>,
}

impl OrSetQTable {
    /// An empty table.
    pub fn new(arity: usize) -> Self {
        OrSetQTable {
            arity,
            rows: Vec::new(),
        }
    }

    /// Builds from `(row, optional)` pairs.
    pub fn from_rows(
        arity: usize,
        rows: impl IntoIterator<Item = (Vec<OrSetValue>, bool)>,
    ) -> Result<Self, TableError> {
        let mut t = OrSetQTable::new(arity);
        for (r, o) in rows {
            t.push(r, o)?;
        }
        Ok(t)
    }

    /// Appends a row; `optional` marks it with "?".
    pub fn push(&mut self, row: Vec<OrSetValue>, optional: bool) -> Result<(), TableError> {
        if row.len() != self.arity {
            return Err(TableError::RowArity {
                expected: self.arity,
                got: row.len(),
            });
        }
        self.rows.push((row, optional));
        Ok(())
    }

    /// The rows with their optional flags.
    pub fn rows(&self) -> &[(Vec<OrSetValue>, bool)] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl RepresentationSystem for OrSetQTable {
    fn arity(&self) -> usize {
        self.arity
    }

    fn worlds(&self) -> Result<IDatabase, TableError> {
        let rows: Vec<Vec<OrSetValue>> = self.rows.iter().map(|(r, _)| r.clone()).collect();
        let optional: Vec<bool> = self.rows.iter().map(|(_, o)| *o).collect();
        OrSetTable::enumerate_worlds(&rows, self.arity, Some(&optional))
    }

    /// Fresh variable per multi-valued cell plus a fresh boolean guard
    /// per optional row.
    fn to_ctable(&self, gen: &mut VarGen) -> Result<CTable, TableError> {
        let mut domains = BTreeMap::new();
        let mut rows = Vec::with_capacity(self.rows.len());
        for (row, optional) in &self.rows {
            let mut terms = Vec::with_capacity(self.arity);
            for cell in row {
                if cell.is_single() {
                    terms.push(Term::Const(cell.choices()[0].clone()));
                } else {
                    let v = gen.fresh();
                    domains.insert(v, Domain::new(cell.choices().iter().cloned()));
                    terms.push(Term::Var(v));
                }
            }
            let cond = if *optional {
                let b = gen.fresh();
                domains.insert(b, Domain::bools());
                Condition::bvar(b)
            } else {
                Condition::True
            };
            rows.push(CRow::new(terms, cond));
        }
        CTable::with_domains(self.arity, rows, domains)
    }
}

impl fmt::Display for OrSetQTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "or-set-?-table (arity {}):", self.arity)?;
        for (row, o) in &self.rows {
            write!(f, " ")?;
            for cell in row {
                write!(f, " {cell}")?;
            }
            writeln!(f, "{}", if *o { " ?" } else { "" })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctable::t_var;
    use ipdb_logic::Var;
    use ipdb_rel::instance;

    fn os(vals: &[i64]) -> OrSetValue {
        OrSetValue::new(vals.iter().copied()).unwrap()
    }

    #[test]
    fn orset_value_invariants() {
        assert!(OrSetValue::new(Vec::<i64>::new()).is_err());
        let v = OrSetValue::new([2i64, 1, 2]).unwrap();
        assert_eq!(v.len(), 2);
        assert!(!v.is_single());
        assert_eq!(v.to_string(), "〈1,2〉");
        assert_eq!(OrSetValue::single(3).to_string(), "3");
    }

    #[test]
    fn worlds_product_of_choices() {
        let t = OrSetTable::from_rows(
            2,
            [vec![os(&[1, 2]), os(&[3])], vec![os(&[4]), os(&[5, 6])]],
        )
        .unwrap();
        let w = t.worlds().unwrap();
        assert_eq!(w.len(), 4);
        assert!(w.contains(&instance![[1, 3], [4, 5]]));
        assert!(w.contains(&instance![[2, 3], [4, 6]]));
    }

    #[test]
    fn example3_or_set_q_table() {
        // The paper's Example 3: T has rows
        //   (1, 2, 〈1,2〉), (3, 〈1,2〉, 〈3,4〉), (〈4,5〉, 4, 5)?
        let t = OrSetQTable::from_rows(
            3,
            [
                (vec![os(&[1]), os(&[2]), os(&[1, 2])], false),
                (vec![os(&[3]), os(&[1, 2]), os(&[3, 4])], false),
                (vec![os(&[4, 5]), os(&[4]), os(&[5])], true),
            ],
        )
        .unwrap();
        let w = t.worlds().unwrap();
        // 2 × (2×2) × (2 choices + absent... ) = 2*4*3 = 24 combinations,
        // some coinciding; the paper lists members:
        assert!(w.contains(&instance![[1, 2, 1], [3, 1, 3], [4, 4, 5]]));
        assert!(w.contains(&instance![[1, 2, 1], [3, 1, 3]]));
        assert!(w.contains(&instance![[1, 2, 2], [3, 1, 3], [4, 4, 5]]));
        assert!(w.contains(&instance![[1, 2, 2], [3, 2, 4]]));
        // Every world has 2 or 3 tuples.
        for inst in w.iter() {
            assert!(inst.len() == 2 || inst.len() == 3);
        }
    }

    #[test]
    fn to_ctable_round_trips_mod() {
        let t = OrSetTable::from_rows(
            2,
            [vec![os(&[1, 2]), os(&[7])], vec![os(&[3]), os(&[4, 5])]],
        )
        .unwrap();
        let mut g = VarGen::new();
        let c = t.to_ctable(&mut g).unwrap();
        assert!(c.is_codd());
        assert!(c.is_finite_domain());
        assert_eq!(c.mod_finite().unwrap(), t.worlds().unwrap());
    }

    #[test]
    fn orsetq_to_ctable_round_trips_mod() {
        let t = OrSetQTable::from_rows(
            2,
            [
                (vec![os(&[1, 2]), os(&[7])], true),
                (vec![os(&[3]), os(&[4])], false),
            ],
        )
        .unwrap();
        let mut g = VarGen::new();
        let c = t.to_ctable(&mut g).unwrap();
        assert_eq!(c.mod_finite().unwrap(), t.worlds().unwrap());
    }

    #[test]
    fn from_codd_round_trip() {
        let (x, y) = (Var(0), Var(1));
        let codd = CTable::builder(2)
            .row([t_var(x), crate::ctable::t_const(9)], Condition::True)
            .row([crate::ctable::t_const(8), t_var(y)], Condition::True)
            .domain(x, Domain::ints(1..=2))
            .domain(y, Domain::ints(5..=6))
            .build()
            .unwrap();
        let orset = OrSetTable::from_codd(&codd).unwrap();
        assert_eq!(orset.len(), 2);
        let mut g = VarGen::new();
        let back = orset.to_ctable(&mut g).unwrap();
        assert_eq!(back.mod_finite().unwrap(), codd.mod_finite().unwrap());
    }

    #[test]
    fn from_codd_rejects_non_codd() {
        let x = Var(0);
        let not_codd = CTable::builder(2)
            .row([t_var(x), t_var(x)], Condition::True)
            .domain(x, Domain::ints(1..=2))
            .build()
            .unwrap();
        assert!(OrSetTable::from_codd(&not_codd).is_err());
    }

    #[test]
    fn arity_checked() {
        let mut t = OrSetTable::new(2);
        assert!(t.push(vec![os(&[1])]).is_err());
        let mut q = OrSetQTable::new(1);
        assert!(q.push(vec![os(&[1]), os(&[2])], false).is_err());
    }

    #[test]
    fn empty_tables() {
        let t = OrSetTable::new(2);
        assert_eq!(t.worlds().unwrap().len(), 1);
        let q = OrSetQTable::new(2);
        assert_eq!(q.worlds().unwrap().len(), 1);
    }
}
