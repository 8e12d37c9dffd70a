//! Column-major execution batches.
//!
//! A [`ColumnarInstance`] stores a relation as per-column `Vec<Value>`
//! plus an optional *selection vector* — the classic columnar layout
//! (MonetDB/X100 style) that the execution engine batches over, as
//! opposed to the row-at-a-time `BTreeSet<Tuple>` of [`Instance`].
//!
//! The representation is **lossless** with respect to set semantics:
//! [`ColumnarInstance::from_rows`] / [`ColumnarInstance::to_rows`] round
//! trip exactly (an `Instance` is a set, and `to_rows` collapses any
//! duplicates a kernel may have produced). In between, the kernels work
//! positionally:
//!
//! * **select** — [`ColumnarInstance::eval_mask`] evaluates a [`Pred`]
//!   as a vectorized boolean mask, one column sweep per comparison atom,
//!   instead of re-walking the predicate tree per row;
//! * **project** — column gathering plus an index-sort deduplication
//!   (projection is the one operator that can merge distinct rows);
//! * **product** — positional materialization of the cross product;
//! * **equijoin** — hash join via [`JoinIndex`], always building on the
//!   smaller side. Each row's key values are hashed once, in place (no
//!   per-row key vectors), by the multiplicative key hasher the row
//!   path's [`Instance::equijoin`] shares; the bucket map takes that
//!   `u64` as is rather than hashing it again. Probes re-verify key
//!   equality, so hash collisions cost a comparison, never a wrong
//!   match.
//!
//! Columns are `Arc`-shared, so selection and projection are cheap: they
//! produce a new selection vector (or column subset) over the same
//! physical data. A stored relation's columns are built once per
//! version and cached on it ([`Instance::columnar`]), so the executor's
//! leaves are a clone of that `Arc`-shared form. `ipdb-engine` builds its morsel-parallel executor on
//! the range-based entry points ([`ColumnarInstance::eval_mask_range`],
//! [`JoinIndex::probe_range`]): every kernel's output is independent of
//! how the input rows were chunked, which is what makes parallel
//! execution bit-identical to serial execution under set semantics.

use std::collections::HashMap;
use std::sync::Arc;

use crate::error::RelError;
use crate::keyhash::{key_hash, BuildPassThrough};
use crate::pred::{normalize_join_keys, Pred};
use crate::tuple::Tuple;
use crate::value::Value;
use crate::Instance;

/// A relation stored column-major: one `Vec<Value>` per column, with an
/// optional selection vector mapping logical rows to physical rows.
///
/// Unlike [`Instance`] this is an ordered *multiset* of rows — kernels
/// may expose duplicates (only [`ColumnarInstance::project`] dedups,
/// mirroring the row path where projection is the only merging
/// operator); [`ColumnarInstance::to_rows`] collapses them back to a
/// set.
///
/// ```
/// use ipdb_rel::{instance, ColumnarInstance, Pred};
/// let i = instance![[1, 10], [2, 20], [3, 10]];
/// let c = ColumnarInstance::from_rows(&i);
/// assert_eq!(c.to_rows(), i); // lossless round trip
/// let kept = c.select(&Pred::eq_const(1, 10)).unwrap();
/// assert_eq!(kept.to_rows(), instance![[1, 10], [3, 10]]);
/// ```
#[derive(Debug, Clone)]
pub struct ColumnarInstance {
    arity: usize,
    /// Physical row count (columns may be empty when `arity == 0`).
    phys_rows: usize,
    /// One physical column per attribute, shared across derived batches.
    cols: Vec<Arc<Vec<Value>>>,
    /// Logical row `i` lives at physical row `sel[i]`; `None` means the
    /// identity selection over all physical rows.
    sel: Option<Arc<Vec<usize>>>,
}

impl ColumnarInstance {
    /// An empty batch of the given arity.
    pub fn empty(arity: usize) -> Self {
        ColumnarInstance {
            arity,
            phys_rows: 0,
            cols: (0..arity).map(|_| Arc::new(Vec::new())).collect(),
            sel: None,
        }
    }

    /// Converts a row-major instance to columns (lossless; see
    /// [`ColumnarInstance::to_rows`]).
    pub fn from_rows(i: &Instance) -> Self {
        let arity = i.arity();
        let mut cols: Vec<Vec<Value>> = (0..arity).map(|_| Vec::with_capacity(i.len())).collect();
        for t in i.iter() {
            for (c, v) in t.values().iter().enumerate() {
                cols[c].push(v.clone());
            }
        }
        ColumnarInstance {
            arity,
            phys_rows: i.len(),
            cols: cols.into_iter().map(Arc::new).collect(),
            sel: None,
        }
    }

    /// Builds a batch directly from column vectors (used by the c-table
    /// layer to expose its ground columns to the same kernels). Every
    /// column must have exactly `rows` entries.
    pub fn from_columns(columns: Vec<Vec<Value>>, rows: usize) -> Result<Self, RelError> {
        for col in &columns {
            if col.len() != rows {
                return Err(RelError::ArityMismatch {
                    expected: rows,
                    got: col.len(),
                });
            }
        }
        Ok(ColumnarInstance {
            arity: columns.len(),
            phys_rows: rows,
            cols: columns.into_iter().map(Arc::new).collect(),
            sel: None,
        })
    }

    /// Converts back to a row-major instance; duplicate rows (possible
    /// after kernels other than `project`, which dedups itself) collapse
    /// under set semantics.
    pub fn to_rows(&self) -> Instance {
        let mut out = Instance::empty(self.arity);
        for row in 0..self.len() {
            out.insert(self.tuple_at(row))
                .expect("columnar rows share the batch arity");
        }
        out
    }

    /// Arity (number of columns).
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Logical row count (after any selection vector).
    pub fn len(&self) -> usize {
        match &self.sel {
            Some(s) => s.len(),
            None => self.phys_rows,
        }
    }

    /// Whether the batch has no logical rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn phys(&self, row: usize) -> usize {
        match &self.sel {
            Some(s) => s[row],
            None => row,
        }
    }

    /// The value at (logical row, column).
    pub fn value(&self, row: usize, col: usize) -> &Value {
        &self.cols[col][self.phys(row)]
    }

    /// Materializes one logical row as a [`Tuple`].
    pub fn tuple_at(&self, row: usize) -> Tuple {
        let p = self.phys(row);
        Tuple::new(self.cols.iter().map(|c| c[p].clone()))
    }

    /// A batch of the given logical rows (any order, repeats allowed) —
    /// the selection-vector composition at the heart of `select`.
    pub fn gather_rows(&self, rows: &[usize]) -> Self {
        let sel: Vec<usize> = rows.iter().map(|&r| self.phys(r)).collect();
        ColumnarInstance {
            arity: self.arity,
            phys_rows: self.phys_rows,
            cols: self.cols.clone(),
            sel: Some(Arc::new(sel)),
        }
    }

    /// Vectorized predicate evaluation: one `bool` per logical row.
    ///
    /// Comparison atoms become column sweeps; `∧`/`∨`/`¬` combine masks.
    /// Column references are validated up front for the whole predicate,
    /// so an atom's sweep may skip the rows an earlier conjunct ruled out
    /// without hiding the only evaluation error, an out-of-range column,
    /// that the row path's short-circuit evaluation could report.
    pub fn eval_mask(&self, p: &Pred) -> Result<Vec<bool>, RelError> {
        self.eval_mask_range(p, 0, self.len())
    }

    /// [`ColumnarInstance::eval_mask`] over the logical row range
    /// `lo..hi` — the morsel-sized unit the parallel executor fans out.
    pub fn eval_mask_range(&self, p: &Pred, lo: usize, hi: usize) -> Result<Vec<bool>, RelError> {
        p.validate(self.arity)?;
        Ok(self.mask_range(p, lo, hi))
    }

    fn mask_range(&self, p: &Pred, lo: usize, hi: usize) -> Vec<bool> {
        let mut m = vec![true; hi - lo];
        self.and_mask(p, lo, &mut m);
        m
    }

    /// ANDs `p`'s mask over logical rows `lo..lo + m.len()` into `m` in
    /// place. Comparison atoms and conjunctions write straight into `m`
    /// and skip rows it has already ruled out; only `∨` and `¬` build a
    /// mask of their own.
    fn and_mask(&self, p: &Pred, lo: usize, m: &mut [bool]) {
        use crate::pred::{CmpOp, Operand};
        let hi = lo + m.len();
        match p {
            Pred::True => {}
            Pred::False => m.fill(false),
            Pred::Cmp(op, l, r) => {
                let want = *op == CmpOp::Eq;
                let rows = m.iter_mut().zip(lo..hi).filter(|(acc, _)| **acc);
                match (l, r) {
                    (Operand::Col(i), Operand::Col(j)) => {
                        for (acc, row) in rows {
                            *acc = (self.value(row, *i) == self.value(row, *j)) == want;
                        }
                    }
                    (Operand::Col(i), Operand::Const(v)) | (Operand::Const(v), Operand::Col(i)) => {
                        for (acc, row) in rows {
                            *acc = (self.value(row, *i) == v) == want;
                        }
                    }
                    (Operand::Const(a), Operand::Const(b)) => {
                        if (a == b) != want {
                            m.fill(false);
                        }
                    }
                }
            }
            Pred::And(ps) => ps.iter().for_each(|q| self.and_mask(q, lo, m)),
            Pred::Or(ps) => {
                let mut any = vec![false; m.len()];
                for q in ps {
                    for (acc, b) in any.iter_mut().zip(self.mask_range(q, lo, hi)) {
                        *acc |= b;
                    }
                }
                for (acc, b) in m.iter_mut().zip(any) {
                    *acc &= b;
                }
            }
            Pred::Not(q) => {
                for (acc, b) in m.iter_mut().zip(self.mask_range(q, lo, hi)) {
                    *acc &= !b;
                }
            }
        }
    }

    /// `σ_p`: rows whose mask bit is set, as a new selection vector over
    /// the shared columns.
    pub fn select(&self, p: &Pred) -> Result<Self, RelError> {
        let mask = self.eval_mask(p)?;
        let keep: Vec<usize> = mask
            .iter()
            .enumerate()
            .filter_map(|(row, &m)| m.then_some(row))
            .collect();
        Ok(self.gather_rows(&keep))
    }

    /// `π_cols`: column gathering plus deduplication (projection is the
    /// one kernel that can merge distinct input rows, so it dedups here
    /// to keep intermediate batch sizes aligned with the row path).
    pub fn project(&self, cols: &[usize]) -> Result<Self, RelError> {
        for &c in cols {
            if c >= self.arity {
                return Err(RelError::ColumnOutOfRange {
                    col: c,
                    arity: self.arity,
                });
            }
        }
        // Sort logical rows by their projected values so duplicates are
        // adjacent, then dedup — columnar's analogue of the row path's
        // set insertion.
        let mut order: Vec<usize> = (0..self.len()).collect();
        // An explicitly *total* lexicographic order over the projected
        // key — `Iterator::cmp` over `Value`'s derived total `Ord`,
        // with no per-column fallback step that could silently absorb
        // an incomparable pair and break sort transitivity.
        let key_cmp = |&a: &usize, &b: &usize| {
            cols.iter()
                .map(|&c| self.value(a, c))
                .cmp(cols.iter().map(|&c| self.value(b, c)))
        };
        order.sort_unstable_by(key_cmp);
        order.dedup_by(|a, b| key_cmp(a, b).is_eq());
        let sel: Vec<usize> = order.into_iter().map(|r| self.phys(r)).collect();
        Ok(ColumnarInstance {
            arity: cols.len(),
            phys_rows: self.phys_rows,
            cols: cols.iter().map(|&c| self.cols[c].clone()).collect(),
            sel: Some(Arc::new(sel)),
        })
    }

    /// `×`: positional cross product (left-major order), materialized.
    pub fn product(&self, other: &ColumnarInstance) -> ColumnarInstance {
        let (n, m) = (self.len(), other.len());
        let rows = n * m;
        let mut cols: Vec<Vec<Value>> = Vec::with_capacity(self.arity + other.arity);
        for c in 0..self.arity {
            let mut col = Vec::with_capacity(rows);
            for i in 0..n {
                let v = self.value(i, c);
                col.extend(std::iter::repeat_with(|| v.clone()).take(m));
            }
            cols.push(col);
        }
        for c in 0..other.arity {
            let mut col = Vec::with_capacity(rows);
            for _ in 0..n {
                col.extend((0..m).map(|j| other.value(j, c).clone()));
            }
            cols.push(col);
        }
        ColumnarInstance {
            arity: self.arity + other.arity,
            phys_rows: rows,
            cols: cols.into_iter().map(Arc::new).collect(),
            sel: None,
        }
    }

    /// Materializes `left ++ right` rows for matched `(left row, right
    /// row)` pairs — the gather stage of the hash join.
    pub fn concat_pairs(
        left: &ColumnarInstance,
        right: &ColumnarInstance,
        pairs: &[(usize, usize)],
    ) -> ColumnarInstance {
        let arity = left.arity + right.arity;
        let mut cols: Vec<Vec<Value>> = Vec::with_capacity(arity);
        for c in 0..left.arity {
            cols.push(
                pairs
                    .iter()
                    .map(|&(l, _)| left.value(l, c).clone())
                    .collect(),
            );
        }
        for c in 0..right.arity {
            cols.push(
                pairs
                    .iter()
                    .map(|&(_, r)| right.value(r, c).clone())
                    .collect(),
            );
        }
        ColumnarInstance {
            arity,
            phys_rows: pairs.len(),
            cols: cols.into_iter().map(Arc::new).collect(),
            sel: None,
        }
    }

    /// Vertically concatenates batches of arity `arity` into one batch,
    /// preserving row order across batch boundaries. Column storage is
    /// *moved* whenever a batch holds the sole reference to its columns
    /// and no selection vector (the common case for freshly built
    /// kernel outputs) — the merge step of the morsel executor's
    /// parallel gather, where per-morsel batches stack without
    /// re-cloning their values. A lone batch without a selection vector
    /// is returned as it is.
    pub fn vstack(
        arity: usize,
        batches: impl IntoIterator<Item = ColumnarInstance>,
    ) -> Result<ColumnarInstance, RelError> {
        let mut batches: Vec<ColumnarInstance> = batches.into_iter().collect();
        for b in &batches {
            if b.arity != arity {
                return Err(RelError::ArityMismatch {
                    expected: arity,
                    got: b.arity,
                });
            }
        }
        if batches.len() == 1 && batches[0].sel.is_none() {
            return Ok(batches.pop().expect("one batch"));
        }
        let total: usize = batches.iter().map(ColumnarInstance::len).sum();
        let mut cols: Vec<Vec<Value>> = (0..arity).map(|_| Vec::with_capacity(total)).collect();
        for b in batches {
            if b.sel.is_none() {
                for (c, col) in b.cols.into_iter().enumerate() {
                    match Arc::try_unwrap(col) {
                        Ok(owned) => cols[c].extend(owned),
                        Err(shared) => cols[c].extend_from_slice(&shared),
                    }
                }
            } else {
                for row in 0..b.len() {
                    for (c, col) in cols.iter_mut().enumerate() {
                        col.push(b.value(row, c).clone());
                    }
                }
            }
        }
        Ok(ColumnarInstance {
            arity,
            phys_rows: total,
            cols: cols.into_iter().map(Arc::new).collect(),
            sel: None,
        })
    }

    /// Hash equijoin with the same key normalization as
    /// [`Instance::equijoin`] ([`normalize_join_keys`], so the columnar
    /// and row paths can never diverge on key classification): builds a
    /// [`JoinIndex`] on the smaller side, probes with the other, and
    /// applies unhashable pairs plus `residual` as a vectorized
    /// post-filter. With no spanning keys it short-circuits to a
    /// (filtered) product.
    pub fn equijoin(
        &self,
        other: &ColumnarInstance,
        on: &[(usize, usize)],
        residual: Option<&Pred>,
    ) -> Result<ColumnarInstance, RelError> {
        let total = self.arity + other.arity;
        let (keys, extra) = normalize_join_keys(on, self.arity, total)?;
        if let Some(p) = residual {
            p.validate(total)?;
        }
        let filter = Pred::conj_all(extra.into_iter().chain(residual.cloned()));
        if keys.is_empty() {
            let prod = self.product(other);
            return if filter == Pred::True {
                Ok(prod)
            } else {
                prod.select(&filter)
            };
        }
        let build_left = self.len() <= other.len();
        let (build, probe) = if build_left {
            (self, other)
        } else {
            (other, self)
        };
        let (build_cols, probe_cols): (Vec<usize>, Vec<usize>) = if build_left {
            keys.iter().copied().unzip()
        } else {
            keys.iter().map(|&(i, j)| (j, i)).unzip()
        };
        let index = JoinIndex::build(build, build_cols);
        let mut matches = Vec::new();
        index.probe_range(build, probe, &probe_cols, 0, probe.len(), &mut matches);
        let pairs: Vec<(usize, usize)> = if build_left {
            matches
        } else {
            matches.into_iter().map(|(b, p)| (p, b)).collect()
        };
        let joined = ColumnarInstance::concat_pairs(self, other, &pairs);
        if filter == Pred::True {
            Ok(joined)
        } else {
            joined.select(&filter)
        }
    }

    /// A buffer of each logical row's key-column hash (used by
    /// [`JoinIndex::build`] and exposed so probes can be chunked).
    fn key_hashes(&self, cols: &[usize], lo: usize, hi: usize) -> Vec<u64> {
        (lo..hi)
            .map(|row| hash_cols_at(&self.cols, self.phys(row), cols))
            .collect()
    }

    fn keys_match(
        &self,
        row: usize,
        cols: &[usize],
        other: &ColumnarInstance,
        other_row: usize,
        other_cols: &[usize],
    ) -> bool {
        cols.iter()
            .zip(other_cols)
            .all(|(&i, &j)| self.value(row, i) == other.value(other_row, j))
    }
}

fn hash_cols_at(cols: &[Arc<Vec<Value>>], phys_row: usize, key_cols: &[usize]) -> u64 {
    key_hash(key_cols.iter().map(|&c| &cols[c][phys_row]))
}

/// A hash index over one batch's key columns, grouping *logical* row ids
/// by key hash. Probes re-verify key equality, so hash collisions are
/// harmless.
///
/// Rows sharing a hash form a chain through `next` rather than a `Vec`
/// per bucket, so a build allocates a fixed number of buffers, not one
/// per distinct key.
///
/// The index stores no reference to its source batch; callers pass the
/// same batch back to [`JoinIndex::probe_range`] (the engine keeps both
/// alive across the morsel fan-out).
#[derive(Debug)]
pub struct JoinIndex {
    key_cols: Vec<usize>,
    /// Key hash → the lowest row with that hash.
    heads: HashMap<u64, usize, BuildPassThrough>,
    /// `next[row]` is the next higher row with `row`'s hash, or
    /// [`JoinIndex::END`].
    next: Vec<usize>,
}

impl JoinIndex {
    /// Chain terminator in `next`.
    const END: usize = usize::MAX;

    /// Indexes `table` on `key_cols`.
    pub fn build(table: &ColumnarInstance, key_cols: Vec<usize>) -> JoinIndex {
        let n = table.len();
        let mut heads: HashMap<u64, usize, BuildPassThrough> =
            HashMap::with_capacity_and_hasher(n, BuildPassThrough::default());
        let mut next = vec![JoinIndex::END; n];
        // Insert from the last row down, so each chain runs in ascending
        // row order.
        for (row, h) in table
            .key_hashes(&key_cols, 0, n)
            .into_iter()
            .enumerate()
            .rev()
        {
            if let Some(higher) = heads.insert(h, row) {
                next[row] = higher;
            }
        }
        JoinIndex {
            key_cols,
            heads,
            next,
        }
    }

    /// Probes logical rows `lo..hi` of `probe` against the index built
    /// over `build`, appending `(build row, probe row)` matches. The
    /// output for a row range depends only on the rows themselves, so
    /// morsel-chunked probes concatenate to exactly the serial result.
    pub fn probe_range(
        &self,
        build: &ColumnarInstance,
        probe: &ColumnarInstance,
        probe_cols: &[usize],
        lo: usize,
        hi: usize,
        out: &mut Vec<(usize, usize)>,
    ) {
        for row in lo..hi {
            let h = hash_cols_at(&probe.cols, probe.phys(row), probe_cols);
            let mut b = self.heads.get(&h).copied().unwrap_or(JoinIndex::END);
            while b != JoinIndex::END {
                if build.keys_match(b, &self.key_cols, probe, row, probe_cols) {
                    out.push((b, row));
                }
                b = self.next[b];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{instance, Query};

    #[test]
    fn roundtrip_is_lossless() {
        let i = instance![[1, "a"], [2, "b"], [3, "a"]];
        let c = ColumnarInstance::from_rows(&i);
        assert_eq!(c.arity(), 2);
        assert_eq!(c.len(), 3);
        assert_eq!(c.to_rows(), i);
        // Arity-0 relations: both the empty and the singleton one.
        let unit = Instance::singleton(Tuple::empty());
        assert_eq!(ColumnarInstance::from_rows(&unit).to_rows(), unit);
        let none = Instance::empty(0);
        assert_eq!(ColumnarInstance::from_rows(&none).to_rows(), none);
        assert!(ColumnarInstance::empty(3).to_rows().is_empty());
    }

    #[test]
    fn project_key_order_is_total_across_value_types() {
        // Regression pin for the projection sort: a key column mixing
        // all three `Value` variants. A comparator with a partial or
        // non-transitive fallback would make the sort-dedup pass
        // depend on comparison order; the row path is the oracle.
        let tuples: Vec<Tuple> = [
            vec![Value::from(true), Value::from(1)],
            vec![Value::from(false), Value::from(2)],
            vec![Value::from(7), Value::from(3)],
            vec![Value::from(-7), Value::from(4)],
            vec![Value::str("b"), Value::from(5)],
            vec![Value::str("a"), Value::from(6)],
            // Duplicate keys with distinct payloads: the key-only
            // projection must dedup them, the full one must not.
            vec![Value::from(7), Value::from(3)],
            vec![Value::str("a"), Value::from(8)],
        ]
        .into_iter()
        .map(Tuple::from)
        .collect();
        let i = Instance::from_tuple_batch(2, tuples).unwrap();
        let c = ColumnarInstance::from_rows(&i);
        for cols in [vec![0], vec![0, 1], vec![1, 0], vec![0, 0]] {
            let expected = Query::project(Query::Input, cols.clone()).eval(&i).unwrap();
            assert_eq!(
                c.project(&cols).unwrap().to_rows(),
                expected,
                "cols={cols:?}"
            );
        }
        assert_eq!(c.project(&[0]).unwrap().len(), 6, "mixed keys dedup");
    }

    #[test]
    fn from_columns_checks_lengths() {
        let cols = vec![vec![Value::from(1), Value::from(2)], vec![Value::from(3)]];
        assert_eq!(
            ColumnarInstance::from_columns(cols, 2).unwrap_err(),
            RelError::ArityMismatch {
                expected: 2,
                got: 1
            }
        );
        let ok =
            ColumnarInstance::from_columns(vec![vec![Value::from(1), Value::from(2)]], 2).unwrap();
        assert_eq!(ok.to_rows(), instance![[1], [2]]);
    }

    /// Predicates covering every mask path: wide `=`/`!=`
    /// conjunctions (written in place), `and` inside `or` inside `not`
    /// (separate masks), const–const atoms, and `true`/`false` members.
    fn mask_preds() -> Vec<Pred> {
        use crate::pred::{CmpOp, Operand};
        let konst = |op, a: i64, b: i64| Pred::Cmp(op, Operand::val(a), Operand::val(b));
        vec![
            Pred::True,
            Pred::False,
            Pred::eq_const(1, 10),
            Pred::and([Pred::eq_const(1, 10), Pred::neq_const(0, 3)]),
            Pred::or([Pred::eq_const(0, 2), Pred::eq_cols(0, 1)]),
            Pred::not(Pred::eq_const(1, 10)),
            Pred::and((0..8).map(|k| Pred::neq_const(0, 100 + k))),
            Pred::and(
                (0..6)
                    .map(|k| Pred::neq_const(1, 30 + k))
                    .chain([Pred::eq_const(1, 10), Pred::neq_cols(0, 1)]),
            ),
            Pred::and([
                Pred::neq_const(0, 1),
                Pred::neq_const(0, 2),
                Pred::neq_const(0, 3),
            ]),
            Pred::not(Pred::or([
                Pred::and([Pred::eq_const(1, 10), Pred::neq_const(0, 3)]),
                Pred::and([Pred::eq_const(0, 2), Pred::not(Pred::eq_const(1, 20))]),
            ])),
            Pred::and([
                Pred::or([Pred::eq_const(0, 1), Pred::eq_const(0, 3)]),
                Pred::not(Pred::and([Pred::eq_const(1, 10), Pred::neq_cols(0, 1)])),
            ]),
            konst(CmpOp::Eq, 1, 1),
            konst(CmpOp::Neq, 1, 1),
            Pred::and([konst(CmpOp::Neq, 1, 2), Pred::eq_const(1, 10)]),
            Pred::and([Pred::eq_const(1, 10), konst(CmpOp::Eq, 1, 2)]),
            Pred::and([Pred::True, Pred::neq_const(0, 2), Pred::and([])]),
            Pred::and([Pred::neq_const(0, 2), Pred::False]),
        ]
    }

    #[test]
    fn select_matches_row_path() {
        let i = instance![[1, 10], [2, 20], [3, 10], [2, 10], [4, 4], [5, 10]];
        let c = ColumnarInstance::from_rows(&i);
        // The same rows behind a selection vector (every row but the
        // first, in physical order).
        let keep = Pred::neq_const(0, 1);
        let sub = Query::select(Query::Input, keep.clone()).eval(&i).unwrap();
        let selected = c.select(&keep).unwrap();
        assert!(selected.sel.is_some());
        for p in mask_preds() {
            let row = Query::select(Query::Input, p.clone()).eval(&i).unwrap();
            assert_eq!(c.select(&p).unwrap().to_rows(), row, "pred {p}");
            let row = Query::select(Query::Input, p.clone()).eval(&sub).unwrap();
            assert_eq!(
                selected.select(&p).unwrap().to_rows(),
                row,
                "selected, pred {p}"
            );
        }
        // Out-of-range columns are rejected up front.
        assert_eq!(
            c.select(&Pred::eq_cols(0, 9)).unwrap_err(),
            RelError::ColumnOutOfRange { col: 9, arity: 2 }
        );
    }

    #[test]
    fn project_dedups_like_the_row_path() {
        let i = instance![[1, 9], [1, 8], [2, 9]];
        let c = ColumnarInstance::from_rows(&i);
        assert_eq!(c.project(&[0]).unwrap().to_rows(), i.project(&[0]).unwrap());
        assert_eq!(
            c.project(&[1, 0, 1]).unwrap().to_rows(),
            i.project(&[1, 0, 1]).unwrap()
        );
        // Zero-column projection collapses to the 0-ary unit.
        let z = c.project(&[]).unwrap();
        assert_eq!(z.len(), 1);
        assert_eq!(z.to_rows(), i.project(&[]).unwrap());
        assert!(c.project(&[5]).is_err());
    }

    #[test]
    fn product_matches_row_path() {
        let a = instance![[1], [2]];
        let b = instance![[10, 20], [30, 40]];
        let ca = ColumnarInstance::from_rows(&a);
        let cb = ColumnarInstance::from_rows(&b);
        assert_eq!(ca.product(&cb).to_rows(), a.product(&b));
        let empty = ColumnarInstance::empty(2);
        assert_eq!(ca.product(&empty).to_rows(), a.product(&Instance::empty(2)));
    }

    #[test]
    fn equijoin_matches_row_path() {
        let l = instance![[1, 10], [2, 20], [3, 10]];
        let r = instance![[10, 7], [20, 8], [40, 9]];
        let cl = ColumnarInstance::from_rows(&l);
        let cr = ColumnarInstance::from_rows(&r);
        type JoinCase<'a> = (&'a [(usize, usize)], Option<Pred>);
        let cases: &[JoinCase] = &[
            (&[(1, 2)], None),
            (&[(1, 2)], Some(Pred::neq_const(0, 3))),
            (&[(2, 1)], None),
            (&[], None),
            (&[], Some(Pred::eq_cols(1, 2))),
            (&[(0, 1)], None), // non-spanning → filter
        ];
        for (on, residual) in cases {
            let row = l.equijoin(&r, on, residual.as_ref()).unwrap();
            let col = cl.equijoin(&cr, on, residual.as_ref()).unwrap();
            assert_eq!(col.to_rows(), row, "on {on:?}");
        }
        // Errors mirror the row path.
        assert!(cl.equijoin(&cr, &[(0, 9)], None).is_err());
        assert!(cl
            .equijoin(&cr, &[(1, 2)], Some(&Pred::eq_cols(0, 9)))
            .is_err());
    }

    #[test]
    fn equijoin_build_side_is_size_independent() {
        let small = Instance::from_rows(2, (0..3i64).map(|i| [i, i])).unwrap();
        let big = Instance::from_rows(2, (0..40i64).map(|i| [i % 5, i])).unwrap();
        for (l, r) in [(&small, &big), (&big, &small)] {
            let row = l.equijoin(r, &[(0, 2)], None).unwrap();
            let col = ColumnarInstance::from_rows(l)
                .equijoin(&ColumnarInstance::from_rows(r), &[(0, 2)], None)
                .unwrap();
            assert_eq!(col.to_rows(), row);
        }
    }

    #[test]
    fn masks_chunk_consistently() {
        // eval_mask over morsel-sized ranges concatenates to the full
        // mask — the invariant the parallel executor relies on — and any
        // `lo..hi` range is the matching slice of it, with or without a
        // selection vector underneath.
        let i = Instance::from_rows(2, (0..37i64).map(|x| [x % 5, x % 3])).unwrap();
        let c = ColumnarInstance::from_rows(&i);
        let selected = c.select(&Pred::neq_const(1, 1)).unwrap();
        let mut preds = mask_preds();
        preds.push(Pred::and([Pred::eq_cols(0, 1), Pred::neq_const(0, 2)]));
        for batch in [&c, &selected] {
            for p in &preds {
                let full = batch.eval_mask(p).unwrap();
                assert_eq!(full.len(), batch.len());
                let by_row: Vec<bool> = (0..batch.len())
                    .map(|r| p.eval(batch.tuple_at(r).values()).unwrap())
                    .collect();
                assert_eq!(full, by_row, "pred {p}");
                for chunk in [1usize, 7, 1024] {
                    let mut glued = Vec::new();
                    let mut lo = 0;
                    while lo < batch.len() {
                        let hi = (lo + chunk).min(batch.len());
                        glued.extend(batch.eval_mask_range(p, lo, hi).unwrap());
                        lo = hi;
                    }
                    assert_eq!(glued, full, "chunk {chunk}, pred {p}");
                }
                for (lo, hi) in [
                    (0, 0),
                    (3, 3),
                    (2, 9),
                    (5, batch.len()),
                    (1, batch.len() - 1),
                ] {
                    assert_eq!(
                        batch.eval_mask_range(p, lo, hi).unwrap(),
                        full[lo..hi],
                        "range {lo}..{hi}, pred {p}"
                    );
                }
            }
        }
    }

    #[test]
    fn probe_ranges_chunk_consistently() {
        let l = Instance::from_rows(2, (0..23i64).map(|x| [x % 4, x])).unwrap();
        let r = Instance::from_rows(2, (0..17i64).map(|x| [x, x % 4])).unwrap();
        let cl = ColumnarInstance::from_rows(&l);
        let cr = ColumnarInstance::from_rows(&r);
        let index = JoinIndex::build(&cl, vec![0]);
        let mut serial = Vec::new();
        index.probe_range(&cl, &cr, &[1], 0, cr.len(), &mut serial);
        for chunk in [1usize, 7, 1024] {
            let mut glued = Vec::new();
            let mut lo = 0;
            while lo < cr.len() {
                let hi = (lo + chunk).min(cr.len());
                index.probe_range(&cl, &cr, &[1], lo, hi, &mut glued);
                lo = hi;
            }
            assert_eq!(glued, serial, "chunk {chunk}");
        }
    }

    #[test]
    fn gather_rows_composes_selections() {
        let i = instance![[1], [2], [3], [4]];
        let c = ColumnarInstance::from_rows(&i);
        let odd = c
            .select(&Pred::or([Pred::eq_const(0, 1), Pred::eq_const(0, 3)]))
            .unwrap();
        // Selecting over an already-selected batch goes through the
        // composed selection vector.
        let three = odd.select(&Pred::eq_const(0, 3)).unwrap();
        assert_eq!(three.to_rows(), instance![[3]]);
        assert_eq!(odd.gather_rows(&[1, 0]).to_rows(), instance![[1], [3]]);
    }

    #[test]
    fn vstack_concatenates_batches_in_order() {
        let a = ColumnarInstance::from_rows(&instance![[1, 10], [2, 20]]);
        let b = ColumnarInstance::from_rows(&instance![[3, 30]]);
        // A selected batch (non-identity selection) exercises the
        // gather branch; the others the move branch.
        let c = ColumnarInstance::from_rows(&instance![[4, 40], [5, 50]])
            .select(&Pred::eq_const(0, 5))
            .unwrap();
        let stacked = ColumnarInstance::vstack(2, [a, b.clone(), c]).unwrap();
        assert_eq!(stacked.len(), 4);
        assert_eq!(stacked.tuple_at(0), Tuple::new([1, 10].map(Value::from)));
        assert_eq!(stacked.tuple_at(2), Tuple::new([3, 30].map(Value::from)));
        assert_eq!(stacked.tuple_at(3), Tuple::new([5, 50].map(Value::from)));
        // Shared columns survive a stack (clone instead of move).
        let _keep_alive = b.clone();
        assert_eq!(
            ColumnarInstance::vstack(2, [b.clone(), b]).unwrap().len(),
            2
        );
        // A lone batch without a selection vector comes back as it is
        // (its columns are not copied, even when shared); a lone selected
        // batch is still gathered into fresh columns.
        let lone = ColumnarInstance::from_rows(&instance![[6, 60], [7, 70]]);
        let stacked = ColumnarInstance::vstack(2, [lone.clone()]).unwrap();
        assert!(stacked.sel.is_none());
        assert!(Arc::ptr_eq(&stacked.cols[0], &lone.cols[0]));
        assert_eq!(stacked.to_rows(), lone.to_rows());
        let picked = lone.select(&Pred::eq_const(0, 7)).unwrap();
        let stacked = ColumnarInstance::vstack(2, [picked.clone()]).unwrap();
        assert!(stacked.sel.is_none());
        assert!(!Arc::ptr_eq(&stacked.cols[0], &lone.cols[0]));
        assert_eq!(stacked.len(), 1);
        assert_eq!(stacked.to_rows(), picked.to_rows());
        // Arity mismatches are rejected; arity-0 batches count rows.
        assert_eq!(
            ColumnarInstance::vstack(2, [ColumnarInstance::from_rows(&instance![[1]])])
                .unwrap_err(),
            RelError::ArityMismatch {
                expected: 2,
                got: 1
            }
        );
        let unit = ColumnarInstance::from_rows(&Instance::from_rows(0, [[0i64; 0]]).unwrap());
        assert_eq!(
            ColumnarInstance::vstack(0, [unit.clone(), unit])
                .unwrap()
                .len(),
            2
        );
    }
}
