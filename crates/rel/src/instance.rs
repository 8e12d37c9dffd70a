//! Conventional instances: finite `n`-ary relations over `D`.
//!
//! An [`Instance`] is an element of `N = { I | I ⊆ Dⁿ, I finite }` —
//! the "complete information" databases of the paper (§2). It is kept
//! canonical, so two instances are `==` exactly when they denote the
//! same relation, which is what every theorem check relies on.
//!
//! An instance holds its rows in either of two forms, or both: a
//! `BTreeSet` of [`Tuple`]s, and a canonical column batch
//! ([`Instance::columnar`]) — `Arc`-shared columns under a selection
//! vector that lists the distinct rows in lexicographic order. Each form
//! is built from the other on first use, and both are kept until the
//! next [`Instance::insert`], which drops the columnar form and the join
//! indexes built over it. Which forms exist is invisible to equality,
//! ordering, hashing and `Debug`: all of them are functions of
//! `(arity, canonical row sequence)`. The instance executor answers in
//! the columnar form ([`Instance::from_columnar`]), so an answer copies
//! no value until a consumer reads it row-wise.

use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

use crate::columnar::ColumnarInstance;
use crate::error::RelError;
use crate::keyhash::{key_hash, BuildPassThrough};
use crate::tuple::Tuple;
use crate::value::{Domain, Value};

/// A finite relation of fixed arity: one conventional possible world.
///
/// ```
/// use ipdb_rel::{tuple, Instance};
/// let i = Instance::from_tuples(2, [tuple![1, 2], tuple![3, 4]]).unwrap();
/// assert_eq!(i.len(), 2);
/// assert!(i.contains(&tuple![1, 2]));
/// ```
#[derive(Clone)]
pub struct Instance {
    arity: usize,
    /// The rows as a set, built from `columnar` on first row-wise use.
    rows: OnceLock<BTreeSet<Tuple>>,
    /// The canonical column batch, built from `rows` on first use by
    /// [`Instance::columnar`], or given by [`Instance::from_columnar`].
    /// `insert` (the only mutator) drops it.
    ///
    /// At least one of the two is always set: the struct is assembled
    /// only by [`Instance::with_tuples`] and [`Instance::with_columnar`],
    /// each of which sets one, and `insert` sets `rows` before it drops
    /// this form.
    columnar: OnceLock<Arc<ColumnarInstance>>,
}

impl Instance {
    /// The instance with these tuples and no columnar form yet.
    pub(crate) fn with_tuples(arity: usize, tuples: BTreeSet<Tuple>) -> Self {
        Instance {
            arity,
            rows: OnceLock::from(tuples),
            columnar: OnceLock::new(),
        }
    }

    /// The instance whose columnar form is `canonical` (distinct rows in
    /// canonical order, see [`ColumnarInstance::canonical`]) and whose
    /// row set is not built yet.
    fn with_columnar(canonical: ColumnarInstance) -> Self {
        Instance {
            arity: canonical.arity(),
            rows: OnceLock::new(),
            columnar: OnceLock::from(Arc::new(canonical.stored())),
        }
    }

    /// The empty relation of the given arity.
    pub fn empty(arity: usize) -> Self {
        Instance::with_tuples(arity, BTreeSet::new())
    }

    /// Builds an instance from tuples, checking that each has arity
    /// `arity`.
    pub fn from_tuples<I>(arity: usize, tuples: I) -> Result<Self, RelError>
    where
        I: IntoIterator<Item = Tuple>,
    {
        let mut rows = BTreeSet::new();
        for t in tuples {
            check_tuple_arity(arity, &t)?;
            rows.insert(t);
        }
        Ok(Instance::with_tuples(arity, rows))
    }

    /// The set of rows of a column batch: its distinct rows, under set
    /// semantics. No value is copied: the instance keeps the batch's
    /// `Arc` columns under a canonical selection vector
    /// ([`ColumnarInstance::canonical`]), and builds its tuples on first
    /// row-wise use.
    ///
    /// ```
    /// use ipdb_rel::{instance, ColumnarInstance, Instance};
    /// let c = ColumnarInstance::from_rows(&instance![[2, 1], [1, 2]]);
    /// let repeated = c.gather_rows(&[1, 0, 1]);
    /// assert_eq!(Instance::from_columnar(&repeated), instance![[1, 2], [2, 1]]);
    /// ```
    pub fn from_columnar(batch: &ColumnarInstance) -> Instance {
        Instance::with_columnar(batch.canonical())
    }

    /// Builds an instance from rows of raw values (each row must have the
    /// same length, which becomes the arity).
    ///
    /// Convenient for transcribing the paper's examples.
    pub fn from_rows<R, V>(
        arity: usize,
        rows: impl IntoIterator<Item = R>,
    ) -> Result<Self, RelError>
    where
        R: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        Instance::from_tuples(arity, rows.into_iter().map(Tuple::new))
    }

    /// The singleton instance `{t}`; its arity is `t.arity()`.
    pub fn singleton(t: Tuple) -> Self {
        let arity = t.arity();
        Instance::with_tuples(arity, BTreeSet::from([t]))
    }

    /// Arity `n` of the relation.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        match self.rows.get() {
            Some(rows) => rows.len(),
            None => self.columnar().len(),
        }
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membership test.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.tuples().contains(t)
    }

    /// Inserts a tuple, checking its arity. Returns whether it was new.
    pub fn insert(&mut self, t: Tuple) -> Result<bool, RelError> {
        check_tuple_arity(self.arity, &t)?;
        let mut rows = self.rows.take().unwrap_or_else(|| row_set(self.columnar()));
        let new = rows.insert(t);
        self.rows = OnceLock::from(rows);
        if new {
            self.columnar.take();
        }
        Ok(new)
    }

    /// The relation in column-major form, for the columnar executor.
    ///
    /// Its rows are the relation's, each once, in canonical order. It is
    /// built on the first call and cached until the next
    /// [`Instance::insert`], so a relation queried many times — a catalog
    /// leaf, a relation literal in a prepared plan — is converted once
    /// per version instead of once per query. Clones made after the
    /// first call share the cached form. An instance built by
    /// [`Instance::from_columnar`] starts with this form.
    ///
    /// Built from the row set, the cached form is a second copy of the
    /// data — 8 bytes per cell of a column that holds only integers
    /// (packed `i64`s), one `Value` (24 bytes, plus the bytes of each
    /// string, which are cloned) per cell of any other — held for as long
    /// as the instance lives.
    /// Given by `from_columnar`, it shares the batch's columns, and the
    /// row set is the copy, built on first row-wise use. It also keeps the
    /// join indexes built over it ([`ColumnarInstance::join_index`]):
    /// each is built by the first join that keys this version on its
    /// column list and reused by every later one, and they go with the
    /// form at the next `insert`. That is one index, O(rows), per
    /// distinct key-column list a query has joined this version on.
    ///
    /// ```
    /// use ipdb_rel::{instance, tuple};
    /// let mut i = instance![[1, 2]];
    /// assert_eq!(i.columnar().to_rows(), i);
    /// i.insert(tuple![3, 4]).unwrap();
    /// assert_eq!(i.columnar().len(), 2); // rebuilt after the insert
    /// ```
    pub fn columnar(&self) -> &ColumnarInstance {
        // Unset only when `rows` is set (see the field), so the builder
        // reads the row set and never comes back here.
        self.columnar
            .get_or_init(|| Arc::new(ColumnarInstance::from_rows(self).stored()))
    }

    /// Iterates over the tuples in canonical order.
    pub fn iter(&self) -> std::collections::btree_set::Iter<'_, Tuple> {
        self.tuples().iter()
    }

    /// The tuples as a set, built from the columnar form on first use.
    pub fn tuples(&self) -> &BTreeSet<Tuple> {
        // Unset only when `columnar` is set (see the field).
        self.rows.get_or_init(|| row_set(self.columnar()))
    }

    /// `self ∪ other` (arities must match).
    pub fn union(&self, other: &Instance) -> Result<Instance, RelError> {
        self.check_arity(other)?;
        Ok(Instance::with_tuples(
            self.arity,
            self.tuples().union(other.tuples()).cloned().collect(),
        ))
    }

    /// `self ∩ other` (arities must match).
    pub fn intersect(&self, other: &Instance) -> Result<Instance, RelError> {
        self.check_arity(other)?;
        Ok(Instance::with_tuples(
            self.arity,
            self.tuples()
                .intersection(other.tuples())
                .cloned()
                .collect(),
        ))
    }

    /// `self − other` (arities must match).
    pub fn difference(&self, other: &Instance) -> Result<Instance, RelError> {
        self.check_arity(other)?;
        Ok(Instance::with_tuples(
            self.arity,
            self.tuples().difference(other.tuples()).cloned().collect(),
        ))
    }

    /// Cross product `self × other`; arity is the sum of arities.
    pub fn product(&self, other: &Instance) -> Instance {
        let mut out = BTreeSet::new();
        for t1 in self.tuples() {
            for t2 in other.tuples() {
                out.insert(t1.concat(t2));
            }
        }
        Instance::with_tuples(self.arity + other.arity, out)
    }

    /// Hash equijoin: `σ_{⋀ #i=#j ∧ residual}(self × other)` computed
    /// without materializing the cross product.
    ///
    /// Each `on` pair names two columns of the combined (left ++ right)
    /// tuple that must be equal. Pairs that *span* the product (one
    /// column in each factor, in either order) become hash keys: the
    /// right side is indexed on its key columns once, and each left tuple
    /// probes the index, so the cost is `O(|L| + |R| + matches)` instead
    /// of `O(|L|·|R|)`. Pairs that do not span (both columns in one
    /// factor, or a self-pair `(i, i)`) are sound but unhashable; they
    /// are applied as a post-filter together with `residual`.
    ///
    /// ```
    /// use ipdb_rel::{instance, Instance};
    /// let l = instance![[1, 10], [2, 20]];
    /// let r = instance![[10, 7], [30, 8]];
    /// // l.#1 = r.#0, i.e. combined columns #1 = #2.
    /// let j = l.equijoin(&r, &[(1, 2)], None).unwrap();
    /// assert_eq!(j, instance![[1, 10, 10, 7]]);
    /// ```
    pub fn equijoin(
        &self,
        other: &Instance,
        on: &[(usize, usize)],
        residual: Option<&crate::Pred>,
    ) -> Result<Instance, RelError> {
        use crate::Pred;
        let la = self.arity;
        let total = la + other.arity;
        // Spanning pairs become (left col, right-local col) hash keys;
        // the rest fold into the post-filter.
        let (keys, extra) = crate::pred::normalize_join_keys(on, la, total)?;
        if let Some(p) = residual {
            p.validate(total)?;
        }
        let filter = Pred::conj_all(extra.into_iter().chain(residual.cloned()));
        let trivial_filter = filter == Pred::True;

        let mut out = BTreeSet::new();
        let mut vals: Vec<Value> = Vec::with_capacity(total);
        let emit = |out: &mut BTreeSet<Tuple>,
                    vals: &mut Vec<Value>,
                    l: &Tuple,
                    r: &Tuple|
         -> Result<(), RelError> {
            vals.clear();
            vals.extend_from_slice(l.values());
            vals.extend_from_slice(r.values());
            if trivial_filter || filter.eval(vals)? {
                out.insert(Tuple::new(std::mem::take(vals)));
            }
            Ok(())
        };

        // With no spanning keys, hashing would put every tuple in one
        // bucket; short-circuit to a (filtered) product instead.
        if keys.is_empty() {
            if trivial_filter {
                return Ok(self.product(other));
            }
            for l in self.tuples() {
                for r in other.tuples() {
                    emit(&mut out, &mut vals, l, r)?;
                }
            }
            return Ok(Instance::with_tuples(total, out));
        }

        // Index the *smaller* relation on its key columns and probe with
        // the other; output columns stay left ++ right either way. Keys
        // are hashed in place (no per-row key vector); buckets group by
        // hash, so probes re-verify the key columns for equality.
        let build_left = self.len() <= other.len();
        let (build, probe) = if build_left {
            (self, other)
        } else {
            (other, self)
        };
        // Key pairs are (left col, right-local col), so both sides'
        // indexes are already local to their own tuples.
        let (build_cols, probe_cols): (Vec<usize>, Vec<usize>) = if build_left {
            keys.iter().copied().unzip()
        } else {
            keys.iter().map(|&(i, j)| (j, i)).unzip()
        };

        let mut index: std::collections::HashMap<u64, Vec<&Tuple>, BuildPassThrough> =
            std::collections::HashMap::with_capacity_and_hasher(
                build.len(),
                BuildPassThrough::default(),
            );
        for t in build.tuples() {
            index
                .entry(hash_key_cols(t.values(), &build_cols))
                .or_default()
                .push(t);
        }
        for p in probe.tuples() {
            let Some(bucket) = index.get(&hash_key_cols(p.values(), &probe_cols)) else {
                continue;
            };
            for b in bucket {
                if !key_cols_eq(b.values(), &build_cols, p.values(), &probe_cols) {
                    continue;
                }
                let (l, r) = if build_left { (*b, p) } else { (p, *b) };
                emit(&mut out, &mut vals, l, r)?;
            }
        }
        Ok(Instance::with_tuples(total, out))
    }

    /// Projection `π_cols(self)`; columns may repeat and reorder.
    pub fn project(&self, cols: &[usize]) -> Result<Instance, RelError> {
        for &c in cols {
            if c >= self.arity {
                return Err(RelError::ColumnOutOfRange {
                    col: c,
                    arity: self.arity,
                });
            }
        }
        let mut out = BTreeSet::new();
        for t in self.tuples() {
            // Indexes were checked above, so projection cannot fail.
            out.insert(t.project(cols).expect("checked cols"));
        }
        Ok(Instance::with_tuples(cols.len(), out))
    }

    /// All values appearing in any tuple — the *active domain*, the seed
    /// of the finite domain slices used to enumerate infinite-domain
    /// tables.
    pub fn active_domain(&self) -> Domain {
        Domain::new(self.tuples().iter().flat_map(|t| t.iter().cloned()))
    }

    /// All tuples of arity `arity` over `dom` — the finite slice of `Dⁿ`.
    ///
    /// There are `|dom|^arity` of them; callers keep parameters small.
    pub fn full_relation(dom: &Domain, arity: usize) -> Instance {
        let mut out = BTreeSet::new();
        let n = dom.len();
        if arity == 0 {
            return Instance::singleton(Tuple::empty());
        }
        if n == 0 {
            return Instance::empty(arity);
        }
        // Odometer over dom^arity.
        let mut idx = vec![0usize; arity];
        loop {
            out.insert(Tuple::new(idx.iter().map(|&i| dom.values()[i].clone())));
            let mut pos = arity;
            loop {
                if pos == 0 {
                    return Instance::with_tuples(arity, out);
                }
                pos -= 1;
                idx[pos] += 1;
                if idx[pos] < n {
                    break;
                }
                idx[pos] = 0;
            }
        }
    }

    fn check_arity(&self, other: &Instance) -> Result<(), RelError> {
        if self.arity != other.arity {
            return Err(RelError::ArityMismatch {
                expected: self.arity,
                got: other.arity,
            });
        }
        Ok(())
    }
}

/// `Ok` when `t` has arity `arity`.
fn check_tuple_arity(arity: usize, t: &Tuple) -> Result<(), RelError> {
    if t.arity() != arity {
        return Err(RelError::ArityMismatch {
            expected: arity,
            got: t.arity(),
        });
    }
    Ok(())
}

/// The tuples of a canonical batch, as a set.
fn row_set(c: &ColumnarInstance) -> BTreeSet<Tuple> {
    (0..c.len()).map(|r| c.tuple_at(r)).collect()
}

/// Hashes the values at `cols` of a row with [`key_hash`], without
/// materializing a per-row key vector. Buckets built from these hashes
/// group by hash value only, so lookups must confirm with
/// [`key_cols_eq`].
fn hash_key_cols(row: &[Value], cols: &[usize]) -> u64 {
    key_hash(cols.iter().map(|&c| &row[c]))
}

/// Whether two rows agree on their respective key columns (the
/// collision check paired with [`hash_key_cols`]).
fn key_cols_eq(a: &[Value], a_cols: &[usize], b: &[Value], b_cols: &[usize]) -> bool {
    a_cols.iter().zip(b_cols).all(|(&i, &j)| a[i] == b[j])
}

// Equality, ordering, hashing and `Debug` see the relation only — never
// which of its two forms are built. Two row sets compare as sets; any
// other pair compares the canonical columnar forms, which list the same
// rows in the same order (a rows-only side builds and caches its form).

impl PartialEq for Instance {
    fn eq(&self, other: &Self) -> bool {
        self.arity == other.arity
            && self.len() == other.len()
            && match (self.rows.get(), other.rows.get()) {
                (Some(a), Some(b)) => a == b,
                _ => self.columnar().rows_eq(other.columnar()),
            }
    }
}

impl Eq for Instance {}

impl PartialOrd for Instance {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Instance {
    fn cmp(&self, other: &Self) -> Ordering {
        self.arity
            .cmp(&other.arity)
            .then_with(|| match (self.rows.get(), other.rows.get()) {
                (Some(a), Some(b)) => a.cmp(b),
                _ => {
                    let (a, b) = (self.columnar(), other.columnar());
                    // Rows share the arity, so row-major value order is
                    // row order; the length settles arity-0 relations.
                    a.row_major_values()
                        .cmp(b.row_major_values())
                        .then_with(|| a.len().cmp(&b.len()))
                }
            })
    }
}

impl Hash for Instance {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // The length, then every value in row-major order: the same
        // stream from either form.
        self.arity.hash(state);
        self.len().hash(state);
        match self.rows.get() {
            Some(rows) => rows
                .iter()
                .flat_map(Tuple::iter)
                .for_each(|v| v.hash(state)),
            None => self
                .columnar()
                .row_major_values()
                .for_each(|v| v.hash(state)),
        }
    }
}

impl fmt::Debug for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Instance")
            .field("arity", &self.arity)
            .field("tuples", self.tuples())
            .finish()
    }
}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, t) in self.tuples().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "}}")
    }
}

/// Builds an [`Instance`] from rows: `instance![\[1, 2\], \[3, 4\]]`.
///
/// The arity is taken from the first row; all rows must agree (checked at
/// runtime). `instance![arity = 2;]` builds an empty instance of a given
/// arity.
///
/// ```
/// use ipdb_rel::instance;
/// let i = instance![[1, 2], [3, 4]];
/// assert_eq!(i.arity(), 2);
/// let e = instance![arity = 3;];
/// assert!(e.is_empty());
/// ```
#[macro_export]
macro_rules! instance {
    (arity = $a:expr ;) => {
        $crate::Instance::empty($a)
    };
    ($([$($v:expr),* $(,)?]),+ $(,)?) => {{
        let rows = vec![$($crate::Tuple::new([$($crate::Value::from($v)),*])),+];
        let arity = rows[0].arity();
        $crate::Instance::from_tuples(arity, rows).expect("instance! rows must share an arity")
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::JoinIndex;
    use crate::tuple;

    #[test]
    fn equijoin_matches_filtered_product() {
        use crate::Pred;
        let l = Instance::from_rows(2, [[1i64, 10], [2, 20], [3, 10]]).unwrap();
        let r = Instance::from_rows(2, [[10i64, 7], [20, 8], [40, 9]]).unwrap();
        let on = [(1usize, 2usize)];
        let join = l.equijoin(&r, &on, None).unwrap();
        // Oracle: σ_{#1=#2}(l × r).
        let mut oracle = Instance::empty(4);
        for t in l.product(&r).iter() {
            if Pred::eq_cols(1, 2).eval(t.values()).unwrap() {
                oracle.insert(t.clone()).unwrap();
            }
        }
        assert_eq!(join, oracle);
        assert_eq!(join.len(), 3);
        // Residual filters the matched pairs.
        let resid = Pred::neq_const(0, 3);
        let filtered = l.equijoin(&r, &on, Some(&resid)).unwrap();
        assert_eq!(filtered.len(), 2);
        // Reversed pair order means the same join.
        assert_eq!(l.equijoin(&r, &[(2, 1)], None).unwrap(), join);
        // Duplicate pairs are harmless.
        assert_eq!(l.equijoin(&r, &[(1, 2), (1, 2)], None).unwrap(), join);
    }

    #[test]
    fn equijoin_degenerate_keys() {
        use crate::Pred;
        let l = Instance::from_rows(1, [[1i64], [2]]).unwrap();
        let r = Instance::from_rows(1, [[1i64], [3]]).unwrap();
        // No pairs at all: plain product.
        assert_eq!(l.equijoin(&r, &[], None).unwrap(), l.product(&r));
        // A non-spanning self-pair (i, i) is trivially true.
        assert_eq!(l.equijoin(&r, &[(0, 0)], None).unwrap(), l.product(&r));
        // A non-spanning distinct pair inside one factor is applied as a
        // filter: here both columns are the combined tuple's sides.
        let l2 = Instance::from_rows(2, [[1i64, 1], [1, 2]]).unwrap();
        let j = l2.equijoin(&r, &[(0, 1)], None).unwrap();
        assert_eq!(
            j,
            Instance::from_rows(3, [[1i64, 1, 1], [1, 1, 3]]).unwrap()
        );
        // Out-of-range key column is rejected.
        assert_eq!(
            l.equijoin(&r, &[(0, 5)], None).unwrap_err(),
            RelError::ColumnOutOfRange { col: 5, arity: 2 }
        );
        // Out-of-range residual is rejected.
        assert!(l
            .equijoin(&r, &[(0, 1)], Some(&Pred::eq_cols(0, 9)))
            .is_err());
        // Empty sides join to empty.
        assert!(Instance::empty(1)
            .equijoin(&r, &[(0, 1)], None)
            .unwrap()
            .is_empty());
        assert!(l
            .equijoin(&Instance::empty(1), &[(0, 1)], None)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn from_tuples_dedups_sorts_and_checks_arity() {
        let tuples: Vec<Tuple> = [[3, 1], [1, 2], [3, 1], [2, 0]]
            .into_iter()
            .map(|r| Tuple::new(r.map(Value::from)))
            .collect();
        let i = Instance::from_tuples(2, tuples.clone()).unwrap();
        assert_eq!(i, instance![[1, 2], [2, 0], [3, 1]]);
        let mut canonical = tuples;
        canonical.sort();
        canonical.dedup();
        assert!(i.iter().eq(&canonical));
        assert_eq!(
            Instance::from_tuples(2, [Tuple::new([Value::from(1)])]),
            Err(RelError::ArityMismatch {
                expected: 2,
                got: 1
            })
        );
        assert_eq!(Instance::from_tuples(3, []).unwrap(), Instance::empty(3));
    }

    #[test]
    fn equijoin_build_side_is_size_independent() {
        use crate::Pred;
        // Tiny left / huge right and the transpose must agree with the
        // filtered-product oracle and keep left ++ right column order,
        // whichever side the hash index is built on.
        let small = Instance::from_rows(2, (0..3i64).map(|i| [i, i])).unwrap();
        let big = Instance::from_rows(2, (0..50i64).map(|i| [i % 5, i])).unwrap();
        let oracle = |l: &Instance, r: &Instance, filter: &Pred| {
            let mut out = Instance::empty(4);
            for t in l.product(r).iter() {
                if Pred::conj_all([Pred::eq_cols(0, 2), filter.clone()])
                    .eval(t.values())
                    .unwrap()
                {
                    out.insert(t.clone()).unwrap();
                }
            }
            out
        };
        for (l, r) in [(&small, &big), (&big, &small)] {
            assert_eq!(
                l.equijoin(r, &[(0, 2)], None).unwrap(),
                oracle(l, r, &Pred::True)
            );
            let resid = Pred::neq_cols(1, 3);
            assert_eq!(
                l.equijoin(r, &[(0, 2)], Some(&resid)).unwrap(),
                oracle(l, r, &resid)
            );
        }
    }

    #[test]
    fn columnar_form_follows_inserts() {
        let mut i = instance![[1, 2]];
        assert_eq!(i.columnar().to_rows(), i);
        // A duplicate insert changes nothing and keeps the built form.
        let before: *const ColumnarInstance = i.columnar();
        assert!(!i.insert(tuple![1, 2]).unwrap());
        assert!(std::ptr::eq(before, i.columnar()));
        // A new tuple invalidates it; the rebuilt form includes the tuple.
        assert!(i.insert(tuple![3, 4]).unwrap());
        assert_eq!(i.columnar().len(), 2);
        assert_eq!(i.columnar().to_rows(), instance![[1, 2], [3, 4]]);
        // A failed insert leaves both forms alone.
        assert!(i.insert(tuple![5]).is_err());
        assert_eq!(i.columnar().to_rows(), i);
    }

    #[test]
    fn join_indexes_are_kept_per_version() {
        let mut i = instance![[1, 10], [2, 20]];
        let (first, reused) = i.columnar().join_index(vec![1]);
        assert!(!reused);
        // Clones share the stored form, and so its indexes; another key
        // list gets an index of its own.
        let copy = i.clone();
        let (again, reused) = copy.columnar().join_index(vec![1]);
        assert!(reused && Arc::ptr_eq(&first, &again));
        assert!(!i.columnar().join_index(vec![1, 0]).1);
        assert!(i.columnar().join_index(vec![1, 0]).1);
        // A duplicate insert keeps them; a new tuple drops them with the
        // form, and the clone keeps the old version's.
        assert!(!i.insert(tuple![1, 10]).unwrap());
        assert!(i.columnar().join_index(vec![1]).1);
        assert!(i.insert(tuple![3, 30]).unwrap());
        assert!(!i.columnar().join_index(vec![1]).1);
        assert!(copy.columnar().join_index(vec![1]).1);
        // Kernel outputs and batches built from rows keep none.
        let kept = i.columnar().gather_rows(&[0, 1, 2]);
        assert!(i.columnar().is_stored() && !kept.is_stored());
        assert!(!kept.join_index(vec![1]).1 && !kept.join_index(vec![1]).1);
        assert!(!ColumnarInstance::from_rows(&i).is_stored());
    }

    #[test]
    fn columnar_cache_is_invisible_to_equality_order_and_hash() {
        use std::collections::hash_map::DefaultHasher;
        fn hash_of(i: &Instance) -> u64 {
            let mut h = DefaultHasher::new();
            i.hash(&mut h);
            h.finish()
        }
        let warm = instance![[1, "a"], [2, "b"]];
        let cold = instance![[1, "a"], [2, "b"]];
        let _ = warm.columnar();
        assert_eq!(warm, cold);
        assert_eq!(warm.cmp(&cold), Ordering::Equal);
        assert_eq!(warm.partial_cmp(&cold), Some(Ordering::Equal));
        assert_eq!(hash_of(&warm), hash_of(&cold));
        assert_eq!(format!("{warm:?}"), format!("{cold:?}"));
        // A clone of a warm instance carries the cache and is still equal.
        let copy = warm.clone();
        assert_eq!(copy, cold);
        assert_eq!(copy.columnar().to_rows(), cold);
        // Ordering is still by arity, then tuples.
        assert_eq!(instance![[9]].cmp(&warm), Ordering::Less);
        assert_eq!(instance![[0, "a"]].cmp(&warm), Ordering::Less);
    }

    /// The two forms of one relation, through every public reader: a
    /// random column batch as [`Instance::from_columnar`] gives it, and
    /// the same rows inserted as tuples.
    #[cfg(feature = "strategies")]
    mod cross_form {
        use super::*;
        use crate::strategies::arb_mixed_value;
        use proptest::prelude::*;
        use std::collections::hash_map::DefaultHasher;

        /// A batch of arity `arity` whose physical rows are drawn from
        /// `pool` by `phys` (so rows repeat), under a selection vector
        /// of `picks` (out of physical order, with repeats) when
        /// `selected`.
        fn batch(
            arity: usize,
            pool: &[Vec<Value>],
            phys: &[usize],
            selected: bool,
            picks: &[usize],
        ) -> ColumnarInstance {
            let rows: Vec<&Vec<Value>> = phys.iter().map(|&k| &pool[k % pool.len()]).collect();
            let cols = (0..arity)
                .map(|c| rows.iter().map(|r| r[c].clone()).collect())
                .collect();
            let b = ColumnarInstance::from_columns(cols, rows.len()).unwrap();
            if selected && !b.is_empty() {
                b.gather_rows(&picks.iter().map(|&p| p % b.len()).collect::<Vec<_>>())
            } else {
                b
            }
        }

        /// An arity of 0–3, a pool of up to four rows of mixed values,
        /// and two batches over it: the one under test and a third
        /// relation to order it against.
        #[allow(clippy::type_complexity)]
        fn arb_case() -> impl Strategy<
            Value = (
                usize,
                Vec<Vec<Value>>,
                [(Vec<usize>, bool, Vec<usize>); 2],
                Vec<Value>,
            ),
        > {
            (0usize..=3).prop_flat_map(|arity| {
                let side = || {
                    (
                        proptest::collection::vec(0usize..4, 0..12),
                        any::<bool>(),
                        proptest::collection::vec(0usize..64, 0..12),
                    )
                };
                (
                    Just(arity),
                    proptest::collection::vec(
                        proptest::collection::vec(arb_mixed_value(), arity),
                        1..=4,
                    ),
                    (side(), side()).prop_map(|(a, b)| [a, b]),
                    proptest::collection::vec(arb_mixed_value(), arity),
                )
            })
        }

        fn hash_of(i: &Instance) -> u64 {
            let mut h = DefaultHasher::new();
            i.hash(&mut h);
            h.finish()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn columnar_and_row_forms_agree(
                (arity, pool, sides, fresh) in arb_case()
            ) {
                let [a, c] = sides.map(|(phys, selected, picks)| {
                    batch(arity, &pool, &phys, selected, &picks)
                });
                let rows_of = |b: &ColumnarInstance| -> BTreeSet<Tuple> {
                    (0..b.len()).map(|r| b.tuple_at(r)).collect()
                };
                let (set_a, set_c) = (rows_of(&a), rows_of(&c));
                // Each call builds a fresh instance, so every comparison
                // starts from the forms it names.
                let col = || Instance::from_columnar(&a);
                let row = || Instance::from_tuples(arity, set_a.clone()).unwrap();
                prop_assert_eq!(col(), row());
                prop_assert_eq!(row(), col());
                prop_assert_eq!(hash_of(&col()), hash_of(&row()));
                // Against a third relation, in either form, order and
                // equality follow the row sets'.
                let expected = set_a.cmp(&set_c);
                let third_col = || Instance::from_columnar(&c);
                let third_row = || Instance::from_tuples(arity, set_c.clone()).unwrap();
                for (x, y) in [
                    (col(), third_col()),
                    (col(), third_row()),
                    (row(), third_col()),
                    (row(), third_row()),
                ] {
                    prop_assert_eq!(x.cmp(&y), expected);
                    prop_assert_eq!(y.cmp(&x), expected.reverse());
                    prop_assert_eq!(x == y, expected.is_eq());
                    if expected.is_eq() {
                        prop_assert_eq!(hash_of(&x), hash_of(&y));
                    }
                }
                // Other arities order first by arity, in either form.
                let wider = Instance::from_tuples(arity + 1, []).unwrap();
                prop_assert_eq!(col().cmp(&wider), Ordering::Less);
                prop_assert!(col() != wider);
                // Readers.
                prop_assert_eq!(col().len(), set_a.len());
                prop_assert_eq!(col().is_empty(), set_a.is_empty());
                prop_assert!(col().iter().eq(set_a.iter()));
                prop_assert_eq!(col().tuples(), &set_a);
                prop_assert_eq!(col().to_string(), row().to_string());
                prop_assert_eq!(format!("{:?}", col()), format!("{:?}", row()));
                let candidates = pool.iter().cloned().chain([fresh]).map(Tuple::new);
                for t in candidates {
                    prop_assert_eq!(col().contains(&t), set_a.contains(&t));
                    let (mut x, mut y) = (col(), row());
                    prop_assert_eq!(x.insert(t.clone()).unwrap(), y.insert(t).unwrap());
                    prop_assert_eq!(&x, &y);
                    prop_assert_eq!(x.columnar().to_rows(), y);
                    prop_assert_eq!(hash_of(&x), hash_of(&y));
                }
            }
        }
    }

    #[test]
    fn join_keys_never_match_across_value_variants() {
        // Int(1), Bool(true) and Str("1") are distinct values; neither
        // join path may pair them, whatever their key hashes do.
        let keys = [Value::from(1), Value::from(true), Value::str("1")];
        let side = Instance::from_tuples(
            2,
            keys.iter()
                .enumerate()
                .map(|(k, v)| Tuple::new([v.clone(), Value::from(k as i64)])),
        )
        .unwrap();
        let expected = Instance::from_tuples(
            4,
            keys.iter().enumerate().map(|(k, v)| {
                let k = Value::from(k as i64);
                Tuple::new([v.clone(), k.clone(), v.clone(), k])
            }),
        )
        .unwrap();
        assert_eq!(side.equijoin(&side, &[(0, 2)], None).unwrap(), expected);
        let col = side.columnar();
        let mut pairs = Vec::new();
        JoinIndex::build(col, vec![0]).probe_range(col, col, &[0], 0, col.len(), &mut pairs);
        assert_eq!(
            ColumnarInstance::concat_pairs(col, col, &pairs).to_rows(),
            expected
        );
    }

    #[test]
    fn construction_checks_arity() {
        let err = Instance::from_tuples(2, [tuple![1, 2], tuple![1]]).unwrap_err();
        assert_eq!(
            err,
            RelError::ArityMismatch {
                expected: 2,
                got: 1
            }
        );
    }

    #[test]
    fn set_semantics_dedup() {
        let i = Instance::from_tuples(1, [tuple![1], tuple![1]]).unwrap();
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn union_intersect_difference() {
        let a = instance![[1], [2]];
        let b = instance![[2], [3]];
        assert_eq!(a.union(&b).unwrap(), instance![[1], [2], [3]]);
        assert_eq!(a.intersect(&b).unwrap(), instance![[2]]);
        assert_eq!(a.difference(&b).unwrap(), instance![[1]]);
        let c = instance![[1, 2]];
        assert!(a.union(&c).is_err());
    }

    #[test]
    fn product_concatenates() {
        let a = instance![[1], [2]];
        let b = instance![[10, 20]];
        let p = a.product(&b);
        assert_eq!(p.arity(), 3);
        assert_eq!(p, instance![[1, 10, 20], [2, 10, 20]]);
    }

    #[test]
    fn product_with_empty_is_empty() {
        let a = instance![[1]];
        let e = Instance::empty(2);
        assert!(a.product(&e).is_empty());
        assert_eq!(a.product(&e).arity(), 3);
    }

    #[test]
    fn projection() {
        let i = instance![[1, 2], [3, 4]];
        assert_eq!(i.project(&[1]).unwrap(), instance![[2], [4]]);
        assert_eq!(i.project(&[1, 0]).unwrap(), instance![[2, 1], [4, 3]]);
        assert!(i.project(&[2]).is_err());
        // Projecting to zero columns yields the 0-ary "true" relation when
        // the input is non-empty.
        let z = i.project(&[]).unwrap();
        assert_eq!(z.arity(), 0);
        assert_eq!(z.len(), 1);
    }

    #[test]
    fn projection_merges_duplicates() {
        let i = instance![[1, 9], [1, 8]];
        assert_eq!(i.project(&[0]).unwrap().len(), 1);
    }

    #[test]
    fn active_domain() {
        let i = instance![[1, 2], [2, 3]];
        assert_eq!(i.active_domain(), Domain::ints(1..=3));
    }

    #[test]
    fn full_relation_counts() {
        let d = Domain::ints(1..=3);
        assert_eq!(Instance::full_relation(&d, 2).len(), 9);
        assert_eq!(Instance::full_relation(&d, 0).len(), 1);
        assert_eq!(Instance::full_relation(&Domain::empty(), 2).len(), 0);
    }

    #[test]
    fn display() {
        assert_eq!(instance![[1, 2]].to_string(), "{(1, 2)}");
        assert_eq!(Instance::empty(1).to_string(), "{}");
    }

    #[test]
    fn singleton() {
        let s = Instance::singleton(tuple![5, 6]);
        assert_eq!(s.arity(), 2);
        assert_eq!(s.len(), 1);
    }
}
