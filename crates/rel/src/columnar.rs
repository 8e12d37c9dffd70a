//! Column-major execution batches.
//!
//! A [`ColumnarInstance`] stores a relation as per-column `Vec<Value>`
//! plus an optional *selection vector* — the classic columnar layout
//! (MonetDB/X100 style) that the execution engine batches over, as
//! opposed to the row-at-a-time `BTreeSet<Tuple>` of [`Instance`].
//!
//! The representation is **lossless** with respect to set semantics:
//! [`ColumnarInstance::from_rows`] / [`ColumnarInstance::to_rows`] round
//! trip exactly. `to_rows` is [`Instance::from_columnar`]: it collapses
//! any duplicates a kernel may have produced and lists the distinct rows
//! in canonical order under a selection vector
//! ([`ColumnarInstance::canonical`]), over the same columns, so the
//! round trip copies no value; the instance builds its tuples only when
//! it is read row-wise. In between, the kernels work
//! positionally, one column at a time. Each kernel turns its row range
//! into physical rows once per column — the range itself when there is
//! no selection vector, a slice of the selection vector when there is
//! one — and then runs one tight loop over that column's values:
//!
//! * **select** — [`ColumnarInstance::eval_mask`] evaluates a [`Pred`]
//!   as a vectorized boolean mask, one column sweep per comparison atom,
//!   instead of re-walking the predicate tree per row;
//! * **project** — column gathering plus an index-sort deduplication
//!   (projection is the one operator that can merge distinct rows);
//! * **product** — positional materialization of the cross product;
//! * **equijoin** — the hash-join kernel [`JoinIndex`]; the engine's
//!   morsel executor drives it and so does the c-table join. The
//!   executor builds the side that minimizes rows indexed plus rows
//!   probed, where a stored relation's side indexes none (its index is
//!   kept, see below); on a tie it builds the smaller side. Key hashes
//!   are computed a column at a time
//!   ([`ColumnarInstance::key_hashes`]): each key column is folded into
//!   a buffer of per-row hasher states, which are then finished. The
//!   steps are those of the row path's [`Instance::equijoin`], in the
//!   same order, so both paths give every key the same hash. The bucket
//!   map takes that `u64` as is rather than hashing it again. Probes
//!   re-verify key equality, so hash collisions cost a comparison, never
//!   a wrong match;
//! * **gather** — the join's output rows are copied column by column
//!   ([`ColumnarInstance::concat_pairs`]), after each side's physical
//!   rows are resolved once.
//!
//! Columns are `Arc`-shared, so selection and projection are cheap: they
//! produce a new selection vector (or column subset) over the same
//! physical data. A stored relation's columns are built once per
//! version and cached on it ([`Instance::columnar`]), so the executor's
//! leaves are a clone of that `Arc`-shared form. That stored form also
//! keeps the join indexes built over it, one per key-column list, each
//! built by the first join that needs it and shared by every clone
//! ([`ColumnarInstance::join_index`]); the next [`Instance::insert`]
//! drops them with the form. They cost one index, O(rows), per distinct
//! key-column list. A batch a kernel derives — a selection vector, a
//! projection, a gather — keeps no index and builds one per join.
//! `ipdb-engine` builds its morsel-parallel executor on
//! the range-based entry points ([`ColumnarInstance::eval_mask_range`],
//! [`JoinIndex::probe_range`]): every kernel's output is independent of
//! how the input rows were chunked, which is what makes parallel
//! execution bit-identical to serial execution under set semantics.

use std::collections::HashMap;
use std::fmt;
use std::hash::Hasher;
use std::sync::{Arc, Mutex, PoisonError};

use crate::error::RelError;
use crate::keyhash::{BuildPassThrough, KeyHasher};
use crate::pred::Pred;
use crate::tuple::Tuple;
use crate::value::Value;
use crate::Instance;

/// A relation stored column-major: one `Vec<Value>` per column, with an
/// optional selection vector mapping logical rows to physical rows.
///
/// Unlike [`Instance`] this is an ordered *multiset* of rows — kernels
/// may expose duplicates (only [`ColumnarInstance::project`] dedups,
/// mirroring the row path where projection is the only merging
/// operator); [`ColumnarInstance::canonical`] and
/// [`ColumnarInstance::to_rows`] collapse them back to a set.
///
/// ```
/// use ipdb_rel::{instance, ColumnarInstance, Pred};
/// let i = instance![[1, 10], [2, 20], [3, 10]];
/// let c = ColumnarInstance::from_rows(&i);
/// assert_eq!(c.to_rows(), i); // lossless round trip
/// let mask = c.eval_mask(&Pred::eq_const(1, 10)).unwrap();
/// assert_eq!(mask, [true, false, true]);
/// let kept = c.gather_rows(&[0, 2]); // σ: the rows the mask keeps
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
    /// The join indexes built over this batch. `Some` only on a stored
    /// relation's form ([`Instance::columnar`]), whose rows never change;
    /// every kernel output starts without one.
    indexes: Option<Arc<IndexCache>>,
}

/// A stored batch's join indexes, at most one per distinct key-column
/// list, each built on first use.
#[derive(Default)]
struct IndexCache(Mutex<Vec<Arc<JoinIndex>>>);

impl fmt::Debug for IndexCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let built = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        f.debug_list()
            .entries(built.iter().map(|ix| &ix.key_cols))
            .finish()
    }
}

impl ColumnarInstance {
    /// An empty batch of the given arity.
    pub fn empty(arity: usize) -> Self {
        ColumnarInstance {
            arity,
            phys_rows: 0,
            cols: (0..arity).map(|_| Arc::new(Vec::new())).collect(),
            sel: None,
            indexes: None,
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
            indexes: None,
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
            indexes: None,
        })
    }

    /// This batch as a stored relation's form, which keeps the join
    /// indexes built over it ([`ColumnarInstance::join_index`]). Only
    /// [`Instance::columnar`] makes one: its rows never change.
    pub(crate) fn stored(self) -> Self {
        ColumnarInstance {
            indexes: Some(Arc::default()),
            ..self
        }
    }

    /// The set of this batch's rows: [`Instance::from_columnar`], which
    /// collapses duplicate rows (possible after kernels other than
    /// `project`, which dedups itself) and copies no value.
    pub fn to_rows(&self) -> Instance {
        Instance::from_columnar(self)
    }

    /// This batch's rows as a set, in canonical order: the same `Arc`
    /// columns under a selection vector that lists the distinct rows,
    /// sorted by full-row order (the order of [`Tuple`]s, and so of an
    /// [`Instance`]'s rows). Rows that are already strictly ascending —
    /// a join probed in order, a selection over a sorted leaf — are
    /// checked in one pass and not sorted.
    ///
    /// When fewer than half of the physical rows remain, they are
    /// gathered into fresh columns instead, so that a small answer never
    /// pins a large relation's columns.
    ///
    /// ```
    /// use ipdb_rel::{instance, ColumnarInstance};
    /// let c = ColumnarInstance::from_rows(&instance![[1, 2], [3, 4]]);
    /// let canon = c.gather_rows(&[1, 0, 1]).canonical();
    /// assert_eq!(canon.len(), 2);
    /// assert_eq!(canon.value(0, 0), &1.into());
    /// ```
    pub fn canonical(&self) -> ColumnarInstance {
        let mut order: Vec<usize> = Vec::with_capacity(self.len());
        self.for_each_phys(0, self.len(), |_, p| order.push(p));
        let row_cmp = |&a: &usize, &b: &usize| self.cmp_phys(a, self, b);
        if !order.windows(2).all(|w| row_cmp(&w[0], &w[1]).is_lt()) {
            order.sort_unstable_by(row_cmp);
            order.dedup_by(|a, b| row_cmp(a, b).is_eq());
        }
        if order.len() * 2 < self.phys_rows {
            let cols = self
                .cols
                .iter()
                .map(|src| Arc::new(order.iter().map(|&p| src[p].clone()).collect()))
                .collect();
            return ColumnarInstance {
                arity: self.arity,
                phys_rows: order.len(),
                cols,
                sel: None,
                indexes: None,
            };
        }
        let identity =
            order.len() == self.phys_rows && order.iter().enumerate().all(|(k, &p)| k == p);
        ColumnarInstance {
            arity: self.arity,
            phys_rows: self.phys_rows,
            cols: self.cols.clone(),
            sel: (!identity).then(|| Arc::new(order)),
            indexes: None,
        }
    }

    /// The full-row order of physical row `a` of `self` against
    /// physical row `b` of `other` (of the same arity): lexicographic
    /// over `Value`'s total order, as [`Tuple`] compares. The order is
    /// explicitly *total* — `Iterator::cmp` over `Value`'s derived `Ord`,
    /// with no per-column fallback step that could absorb an
    /// incomparable pair and break the transitivity a sort relies on.
    fn cmp_phys(&self, a: usize, other: &ColumnarInstance, b: usize) -> std::cmp::Ordering {
        self.cols
            .iter()
            .map(|c| &c[a])
            .cmp(other.cols.iter().map(|c| &c[b]))
    }

    /// Whether two batches of the same arity hold the same rows in the
    /// same order, compared column by column.
    pub(crate) fn rows_eq(&self, other: &ColumnarInstance) -> bool {
        self.len() == other.len()
            && self
                .cols
                .iter()
                .zip(&other.cols)
                .all(|(a, b)| (0..self.len()).all(|k| a[self.phys(k)] == b[other.phys(k)]))
    }

    /// Every value of every logical row, row after row.
    pub(crate) fn row_major_values(&self) -> impl Iterator<Item = &Value> {
        (0..self.len()).flat_map(move |k| {
            let p = self.phys(k);
            self.cols.iter().map(move |c| &c[p])
        })
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

    /// Calls `f(k, p)` for each logical row `lo + k` of `lo..hi`, where
    /// `p` is that row's physical row. This is the one place that tells
    /// a batch without a selection vector from a selected one: a kernel
    /// passes its per-column loop body here and gets one tight loop for
    /// each case.
    #[inline]
    fn for_each_phys(&self, lo: usize, hi: usize, mut f: impl FnMut(usize, usize)) {
        match &self.sel {
            None => (lo..hi).enumerate().for_each(|(k, p)| f(k, p)),
            Some(s) => s[lo..hi].iter().enumerate().for_each(|(k, &p)| f(k, p)),
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
    /// the selection-vector composition at the heart of `σ`, which
    /// gathers the rows whose [`ColumnarInstance::eval_mask`] bit is set.
    pub fn gather_rows(&self, rows: &[usize]) -> Self {
        let sel: Vec<usize> = rows.iter().map(|&r| self.phys(r)).collect();
        ColumnarInstance {
            arity: self.arity,
            phys_rows: self.phys_rows,
            cols: self.cols.clone(),
            sel: Some(Arc::new(sel)),
            indexes: None,
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
                match (l, r) {
                    (Operand::Col(i), Operand::Col(j)) => {
                        let (a, b) = (self.cols[*i].as_slice(), self.cols[*j].as_slice());
                        self.for_each_phys(lo, hi, |k, p| {
                            if m[k] {
                                m[k] = (a[p] == b[p]) == want;
                            }
                        });
                    }
                    (Operand::Col(i), Operand::Const(v)) | (Operand::Const(v), Operand::Col(i)) => {
                        let a = self.cols[*i].as_slice();
                        self.for_each_phys(lo, hi, |k, p| {
                            if m[k] {
                                m[k] = (a[p] == *v) == want;
                            }
                        });
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

    /// `π_cols`: column gathering plus deduplication (projection is the
    /// one kernel that can merge distinct input rows, so it dedups here
    /// to keep intermediate batch sizes aligned with the row path): the
    /// chosen columns under this batch's selection, made
    /// [`ColumnarInstance::canonical`].
    pub fn project(&self, cols: &[usize]) -> Result<Self, RelError> {
        for &c in cols {
            if c >= self.arity {
                return Err(RelError::ColumnOutOfRange {
                    col: c,
                    arity: self.arity,
                });
            }
        }
        let picked = ColumnarInstance {
            arity: cols.len(),
            phys_rows: self.phys_rows,
            cols: cols.iter().map(|&c| self.cols[c].clone()).collect(),
            sel: self.sel.clone(),
            indexes: None,
        };
        Ok(picked.canonical())
    }

    /// `×`: positional cross product (left-major order), materialized.
    pub fn product(&self, other: &ColumnarInstance) -> ColumnarInstance {
        let (n, m) = (self.len(), other.len());
        let rows = n * m;
        let mut cols: Vec<Vec<Value>> = Vec::with_capacity(self.arity + other.arity);
        for src in &self.cols {
            let mut col = Vec::with_capacity(rows);
            self.for_each_phys(0, n, |_, p| {
                col.extend(std::iter::repeat_with(|| src[p].clone()).take(m));
            });
            cols.push(col);
        }
        for src in &other.cols {
            // Gather the right column's rows once, then repeat them.
            let mut once = Vec::with_capacity(m);
            other.for_each_phys(0, m, |_, p| once.push(src[p].clone()));
            let mut col = Vec::with_capacity(rows);
            for _ in 0..n {
                col.extend_from_slice(&once);
            }
            cols.push(col);
        }
        ColumnarInstance {
            arity: self.arity + other.arity,
            phys_rows: rows,
            cols: cols.into_iter().map(Arc::new).collect(),
            sel: None,
            indexes: None,
        }
    }

    /// Materializes `left ++ right` rows for matched `(left row, right
    /// row)` pairs — the gather stage of the hash join. Each side's
    /// physical rows are resolved once; the values are then copied
    /// column by column.
    pub fn concat_pairs(
        left: &ColumnarInstance,
        right: &ColumnarInstance,
        pairs: &[(usize, usize)],
    ) -> ColumnarInstance {
        let phys: Vec<(usize, usize)> = pairs
            .iter()
            .map(|&(l, r)| (left.phys(l), right.phys(r)))
            .collect();
        let left_cols = left.cols.iter().map(|src| {
            Arc::new(
                phys.iter()
                    .map(|&(l, _)| src[l].clone())
                    .collect::<Vec<Value>>(),
            )
        });
        let right_cols = right.cols.iter().map(|src| {
            Arc::new(
                phys.iter()
                    .map(|&(_, r)| src[r].clone())
                    .collect::<Vec<Value>>(),
            )
        });
        ColumnarInstance {
            arity: left.arity + right.arity,
            phys_rows: pairs.len(),
            cols: left_cols.chain(right_cols).collect(),
            sel: None,
            indexes: None,
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
                for (col, src) in cols.iter_mut().zip(&b.cols) {
                    b.for_each_phys(0, b.len(), |_, p| col.push(src[p].clone()));
                }
            }
        }
        Ok(ColumnarInstance {
            arity,
            phys_rows: total,
            cols: cols.into_iter().map(Arc::new).collect(),
            sel: None,
            indexes: None,
        })
    }

    /// Whether this batch is a stored relation's form
    /// ([`Instance::columnar`], or a clone of it), whose join indexes
    /// [`ColumnarInstance::join_index`] keeps. Kernel outputs never are.
    pub fn is_stored(&self) -> bool {
        self.indexes.is_some()
    }

    /// A [`JoinIndex`] over this batch on `key_cols`, and whether it was
    /// reused rather than built by this call. A stored batch builds the
    /// index for each key-column list once, on first use, and returns
    /// that index to every later call, from any clone of the batch; the
    /// indexes live as long as the batch, so they cost one index, O(rows),
    /// per distinct key-column list. Any other batch builds a fresh index
    /// on every call.
    ///
    /// ```
    /// use ipdb_rel::{instance, ColumnarInstance};
    /// let i = instance![[1, 10], [2, 20]];
    /// assert!(!i.columnar().join_index(vec![1]).1); // built
    /// assert!(i.columnar().join_index(vec![1]).1); // reused
    /// let fresh = ColumnarInstance::from_rows(&i);
    /// assert!(!fresh.join_index(vec![1]).1);
    /// assert!(!fresh.join_index(vec![1]).1); // never kept
    /// ```
    pub fn join_index(&self, key_cols: Vec<usize>) -> (Arc<JoinIndex>, bool) {
        let Some(cache) = &self.indexes else {
            return (Arc::new(JoinIndex::build(self, key_cols)), false);
        };
        // The lock is held across the build, so concurrent first uses
        // build the index once. A panic in the build leaves the list as
        // it was (the push comes after), so a poisoned lock is sound.
        let mut built = cache.0.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(ix) = built.iter().find(|ix| ix.key_cols == key_cols) {
            return (Arc::clone(ix), true);
        }
        let ix = Arc::new(JoinIndex::build(self, key_cols));
        built.push(Arc::clone(&ix));
        (ix, false)
    }

    /// The join-key hash of each logical row in `lo..hi`, keyed on the
    /// columns `cols` in that order (repeats allowed) — the hashes
    /// [`JoinIndex::build`] buckets and [`JoinIndex::probe_range`] looks
    /// up. Each key column is folded into a buffer of per-row hasher
    /// states in one sweep, then every state is finished. Row `lo + k`
    /// gets exactly the hash the row path's [`Instance::equijoin`] gives
    /// that row's key values.
    ///
    /// # Panics
    ///
    /// If a column in `cols` is out of range, or `lo..hi` is not a
    /// range of logical rows.
    pub fn key_hashes(&self, cols: &[usize], lo: usize, hi: usize) -> Vec<u64> {
        let mut states = vec![KeyHasher::default(); hi - lo];
        for &c in cols {
            let col = self.cols[c].as_slice();
            self.for_each_phys(lo, hi, |k, p| states[k].fold(&col[p]));
        }
        states.into_iter().map(|h| h.finish()).collect()
    }

    /// Whether physical row `p` of `self` and physical row `other_p` of
    /// `other` agree on their respective key columns.
    fn keys_match(
        &self,
        p: usize,
        cols: &[usize],
        other: &ColumnarInstance,
        other_p: usize,
        other_cols: &[usize],
    ) -> bool {
        cols.iter()
            .zip(other_cols)
            .all(|(&i, &j)| self.cols[i][p] == other.cols[j][other_p])
    }
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
        let hashes = probe.key_hashes(probe_cols, lo, hi);
        for (row, h) in (lo..hi).zip(hashes) {
            let Some(&head) = self.heads.get(&h) else {
                continue;
            };
            // Only rows with a candidate pay for resolving physical rows.
            let p = probe.phys(row);
            let mut b = head;
            while b != JoinIndex::END {
                if build.keys_match(build.phys(b), &self.key_cols, probe, p, probe_cols) {
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
    fn canonical_sorts_and_dedups_over_the_same_columns() {
        let c = ColumnarInstance::from_rows(&instance![[1, "b"], [1, "a"], [2, "a"], [3, "c"]]);
        // Out of physical order, with a repeat, keeping at least half
        // of the physical rows: a selection vector over the same columns.
        let canon = c.gather_rows(&[2, 0, 2, 1]).canonical();
        assert!(Arc::ptr_eq(&canon.cols[0], &c.cols[0]));
        assert_eq!(canon.sel.as_deref(), Some(&vec![0, 1, 2]));
        assert_eq!(canon.to_rows(), instance![[1, "a"], [1, "b"], [2, "a"]]);
        // Already canonical: the identity selection is dropped.
        let all = c.gather_rows(&[0, 1, 2, 3]).canonical();
        assert!(all.sel.is_none() && Arc::ptr_eq(&all.cols[1], &c.cols[1]));
        // Arity 0: any number of rows is the one empty tuple.
        let units = ColumnarInstance::from_columns(vec![], 5)
            .unwrap()
            .canonical();
        assert_eq!(units.len(), 1);
        assert_eq!(units.to_rows(), Instance::singleton(Tuple::empty()));
    }

    #[test]
    fn canonical_gathers_a_small_selection_into_fresh_columns() {
        let big =
            ColumnarInstance::from_columns(vec![(0..10_000i64).map(Value::from).collect()], 10_000)
                .unwrap();
        let one = big.gather_rows(&[5000]);
        for canon in [one.canonical(), one.to_rows().columnar().clone()] {
            assert!(canon.phys_rows <= 2, "{} physical rows", canon.phys_rows);
            assert!(!Arc::ptr_eq(&canon.cols[0], &big.cols[0]));
            assert_eq!(canon.to_rows(), instance![[5000]]);
        }
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
        let i = Instance::from_tuples(2, tuples).unwrap();
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
    fn concurrent_first_uses_build_one_index() {
        let i = Instance::from_rows(2, (0..1000i64).map(|k| [k, k % 7])).unwrap();
        let start = std::sync::Barrier::new(4);
        let got: Vec<(Arc<JoinIndex>, bool)> = std::thread::scope(|s| {
            let joins: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        i.columnar().join_index(vec![1])
                    })
                })
                .collect();
            joins.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(got.iter().filter(|(_, reused)| !reused).count(), 1);
        assert!(got.iter().all(|(ix, _)| Arc::ptr_eq(ix, &got[0].0)));
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
            // Column–column atoms on their own, against themselves, and
            // in place after a column–constant atom.
            Pred::eq_cols(0, 1),
            Pred::neq_cols(1, 0),
            Pred::eq_cols(1, 1),
            Pred::neq_cols(0, 0),
            Pred::and([Pred::neq_const(1, 20), Pred::eq_cols(1, 0)]),
            Pred::not(Pred::and([Pred::eq_cols(0, 1), Pred::neq_const(0, 4)])),
        ]
    }

    /// `σ_p` as the engine runs it: the rows `p`'s mask keeps, gathered.
    fn select(c: &ColumnarInstance, p: &Pred) -> Result<ColumnarInstance, RelError> {
        let mask = c.eval_mask(p)?;
        let keep: Vec<usize> = (0..mask.len()).filter(|&r| mask[r]).collect();
        Ok(c.gather_rows(&keep))
    }

    #[test]
    fn select_matches_row_path() {
        let i = instance![[1, 10], [2, 20], [3, 10], [2, 10], [4, 4], [5, 10]];
        let c = ColumnarInstance::from_rows(&i);
        // The same rows behind a selection vector (every row but the
        // first, in physical order).
        let keep = Pred::neq_const(0, 1);
        let sub = Query::select(Query::Input, keep.clone()).eval(&i).unwrap();
        let selected = select(&c, &keep).unwrap();
        assert!(selected.sel.is_some());
        // And behind a selection vector out of physical order, with a
        // repeat: the same rows as a set.
        let shuffled = c.gather_rows(&[5, 3, 1, 4, 2, 3]);
        assert_eq!(shuffled.to_rows(), sub);
        for p in mask_preds() {
            let row = Query::select(Query::Input, p.clone()).eval(&i).unwrap();
            assert_eq!(select(&c, &p).unwrap().to_rows(), row, "pred {p}");
            let row = Query::select(Query::Input, p.clone()).eval(&sub).unwrap();
            assert_eq!(
                select(&selected, &p).unwrap().to_rows(),
                row,
                "selected, pred {p}"
            );
            assert_eq!(
                select(&shuffled, &p).unwrap().to_rows(),
                row,
                "shuffled, pred {p}"
            );
        }
        // Out-of-range columns are rejected up front.
        assert_eq!(
            select(&c, &Pred::eq_cols(0, 9)).unwrap_err(),
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
        assert_eq!(empty.product(&ca).to_rows(), Instance::empty(2).product(&a));
        // Selected inputs on both sides, in left-major order.
        let sa = ca.gather_rows(&[1, 0]);
        let sb = cb.gather_rows(&[1, 0, 1]);
        let p = sa.product(&sb);
        assert_eq!(p.len(), 6);
        let expected: Vec<Tuple> = [1, 0]
            .iter()
            .flat_map(|&i| {
                [1, 0, 1].map(|j| {
                    Tuple::new(
                        ca.tuple_at(i)
                            .values()
                            .iter()
                            .chain(cb.tuple_at(j).values())
                            .cloned(),
                    )
                })
            })
            .collect();
        let got: Vec<Tuple> = (0..p.len()).map(|r| p.tuple_at(r)).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn masks_chunk_consistently() {
        // eval_mask over morsel-sized ranges concatenates to the full
        // mask — the invariant the parallel executor relies on — and any
        // `lo..hi` range is the matching slice of it, with or without a
        // selection vector underneath.
        let i = Instance::from_rows(2, (0..37i64).map(|x| [x % 5, x % 3])).unwrap();
        let c = ColumnarInstance::from_rows(&i);
        let selected = select(&c, &Pred::neq_const(1, 1)).unwrap();
        let backwards: Vec<usize> = (0..c.len()).rev().chain([3, 3, 0]).collect();
        let shuffled = c.gather_rows(&backwards);
        let mut preds = mask_preds();
        preds.push(Pred::and([Pred::eq_cols(0, 1), Pred::neq_const(0, 2)]));
        for batch in [&c, &selected, &shuffled] {
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
        // Probe batches with and without a selection vector, one of them
        // out of physical order with repeats.
        let picked = select(&cr, &Pred::neq_const(0, 1)).unwrap();
        let backwards: Vec<usize> = (0..cr.len()).rev().chain([2, 2]).collect();
        let shuffled = cr.gather_rows(&backwards);
        // One- and two-column keys, the latter in both column orders.
        let keys: [(&[usize], &[usize]); 3] =
            [(&[0], &[1]), (&[0, 1], &[1, 0]), (&[1, 0], &[0, 1])];
        for (build_cols, probe_cols) in keys {
            let index = JoinIndex::build(&cl, build_cols.to_vec());
            for probe in [&cr, &picked, &shuffled] {
                let mut serial = Vec::new();
                index.probe_range(&cl, probe, probe_cols, 0, probe.len(), &mut serial);
                // Every matching pair, in probe-row-major order.
                let brute: Vec<(usize, usize)> = (0..probe.len())
                    .flat_map(|p| (0..cl.len()).map(move |b| (b, p)))
                    .filter(|&(b, p)| {
                        build_cols
                            .iter()
                            .zip(probe_cols)
                            .all(|(&i, &j)| cl.value(b, i) == probe.value(p, j))
                    })
                    .collect();
                assert_eq!(serial, brute, "keys {build_cols:?}/{probe_cols:?}");
                assert!(!serial.is_empty());
                for chunk in [1usize, 7, 1024] {
                    let mut glued = Vec::new();
                    let mut lo = 0;
                    while lo < probe.len() {
                        let hi = (lo + chunk).min(probe.len());
                        index.probe_range(&cl, probe, probe_cols, lo, hi, &mut glued);
                        lo = hi;
                    }
                    assert_eq!(glued, serial, "chunk {chunk}, keys {build_cols:?}");
                }
            }
        }
    }

    #[test]
    fn concat_pairs_of_selected_inputs_matches_row_join() {
        let l = Instance::from_rows(2, (0..30i64).map(|x| [x % 7, x])).unwrap();
        let r = Instance::from_rows(3, (0..25i64).map(|x| [x, x % 5, x % 7])).unwrap();
        let (cl, cr) = (
            ColumnarInstance::from_rows(&l),
            ColumnarInstance::from_rows(&r),
        );
        let sl = select(&cl, &Pred::neq_const(0, 3)).unwrap();
        let sr = cr.gather_rows(
            &(0..cr.len())
                .rev()
                .filter(|x| x % 4 != 1)
                .collect::<Vec<_>>(),
        );
        let (rl, rr) = (sl.to_rows(), sr.to_rows());
        for on in [vec![(0, 4)], vec![(0, 4), (1, 2)], vec![(1, 2), (0, 4)]] {
            let expected = rl.equijoin(&rr, &on, None).unwrap();
            assert!(!expected.is_empty());
            let (lk, rk): (Vec<usize>, Vec<usize>) = on.iter().map(|&(i, j)| (i, j - 2)).unzip();
            let index = JoinIndex::build(&sl, lk);
            let mut pairs = Vec::new();
            index.probe_range(&sl, &sr, &rk, 0, sr.len(), &mut pairs);
            let joined = ColumnarInstance::concat_pairs(&sl, &sr, &pairs);
            assert_eq!(joined.len(), pairs.len());
            assert!(joined.sel.is_none());
            for (k, &(a, b)) in pairs.iter().enumerate() {
                let row: Vec<Value> = sl
                    .tuple_at(a)
                    .values()
                    .iter()
                    .chain(sr.tuple_at(b).values())
                    .cloned()
                    .collect();
                assert_eq!(joined.tuple_at(k).values(), row.as_slice());
            }
            assert_eq!(joined.to_rows(), expected);
        }
    }

    #[test]
    fn gather_rows_composes_selections() {
        let i = instance![[1], [2], [3], [4]];
        let c = ColumnarInstance::from_rows(&i);
        let odd = select(&c, &Pred::or([Pred::eq_const(0, 1), Pred::eq_const(0, 3)])).unwrap();
        // Selecting over an already-selected batch goes through the
        // composed selection vector.
        let three = select(&odd, &Pred::eq_const(0, 3)).unwrap();
        assert_eq!(three.to_rows(), instance![[3]]);
        assert_eq!(odd.gather_rows(&[1, 0]).to_rows(), instance![[1], [3]]);
    }

    #[test]
    fn vstack_concatenates_batches_in_order() {
        let a = ColumnarInstance::from_rows(&instance![[1, 10], [2, 20]]);
        let b = ColumnarInstance::from_rows(&instance![[3, 30]]);
        // A selected batch (non-identity selection) exercises the
        // gather branch; the others the move branch.
        let c = select(
            &ColumnarInstance::from_rows(&instance![[4, 40], [5, 50]]),
            &Pred::eq_const(0, 5),
        )
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
        let picked = select(&lone, &Pred::eq_const(0, 7)).unwrap();
        let stacked = ColumnarInstance::vstack(2, [picked.clone()]).unwrap();
        assert!(stacked.sel.is_none());
        assert!(!Arc::ptr_eq(&stacked.cols[0], &lone.cols[0]));
        assert_eq!(stacked.len(), 1);
        assert_eq!(stacked.to_rows(), picked.to_rows());
        // Only selected batches, out of physical order and with repeats,
        // beside an unselected one: rows stack in order, column by column.
        let wide = ColumnarInstance::from_rows(
            &Instance::from_rows(2, (0..9i64).map(|x| [x, 10 * x])).unwrap(),
        );
        let parts = [
            wide.gather_rows(&[8, 1, 1, 4]),
            wide.gather_rows(&[]),
            wide.clone(),
            wide.gather_rows(&[0, 7]),
        ];
        let expected: Vec<Tuple> = parts
            .iter()
            .flat_map(|b| (0..b.len()).map(|r| b.tuple_at(r)))
            .collect();
        let stacked = ColumnarInstance::vstack(2, parts).unwrap();
        assert!(stacked.sel.is_none());
        let got: Vec<Tuple> = (0..stacked.len()).map(|r| stacked.tuple_at(r)).collect();
        assert_eq!(got, expected);
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

    /// Column-at-a-time key hashing against [`key_hash`] of each row's
    /// key values, the row path's definition.
    #[cfg(feature = "strategies")]
    mod key_hash_props {
        use super::*;
        use crate::keyhash::key_hash;
        use crate::strategies::arb_mixed_instance;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn column_hashes_equal_row_key_hashes(
                i in arb_mixed_instance(3, 24),
                cols in proptest::collection::vec(0usize..3, 1..=3),
                selected in any::<bool>(),
                picks in proptest::collection::vec(0usize..1000, 0..40),
                (a, b) in (0usize..1000, 0usize..1000),
            ) {
                let c = ColumnarInstance::from_rows(&i);
                // A selection vector in any order, with repeats.
                let batch = if selected && !c.is_empty() {
                    let rows: Vec<usize> = picks.iter().map(|&p| p % c.len()).collect();
                    c.gather_rows(&rows)
                } else {
                    c
                };
                let n = batch.len();
                let lo = a % (n + 1);
                let hi = lo + b % (n - lo + 1);
                let hashes = batch.key_hashes(&cols, lo, hi);
                prop_assert_eq!(hashes.len(), hi - lo);
                for (k, h) in hashes.into_iter().enumerate() {
                    let row = lo + k;
                    prop_assert_eq!(h, key_hash(cols.iter().map(|&col| batch.value(row, col))));
                }
                // The full range is the concatenation of any split of it.
                let whole = batch.key_hashes(&cols, 0, n);
                let mut glued = batch.key_hashes(&cols, 0, lo);
                glued.extend(batch.key_hashes(&cols, lo, n));
                prop_assert_eq!(glued, whole);
            }
        }
    }
}
