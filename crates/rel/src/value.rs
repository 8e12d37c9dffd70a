//! Elements of the domain `D` and finite domain slices.
//!
//! The paper fixes a countably infinite domain `D` of atomic values (§2).
//! [`Value`] realizes `D` as the disjoint union of booleans, 64-bit
//! integers, and strings — unbounded, totally ordered, and cheap to
//! compare. Booleans exist mainly so that *boolean c-tables* (§3) and
//! *boolean pc-tables* (§8) can use the same machinery as every other
//! table: a boolean variable is simply a variable with domain
//! `{false, true}`.
//!
//! [`Domain`] is a finite, ordered, duplicate-free set of values. It plays
//! two roles: the `dom(x)` attached to variables of finite-domain tables
//! (Def. 6), and the *domain slices* over which we enumerate the worlds of
//! infinite-domain tables (see `ipdb-tables::worlds`).

use std::borrow::Cow;
use std::fmt;

/// An atomic value of the domain `D`.
///
/// The order is total: all booleans sort before all integers, which sort
/// before all strings. This gives instances and incomplete databases a
/// canonical form so that structural equality coincides with semantic
/// equality.
///
/// ```
/// use ipdb_rel::Value;
/// let v = Value::from(42);
/// assert!(Value::from(false) < v);
/// assert!(v < Value::from("a"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// A boolean constant; used chiefly as the two-valued domain of
    /// boolean (p)c-table variables.
    Bool(bool),
    /// An integer constant.
    Int(i64),
    /// A string constant, boxed so `Value` stays two words plus a
    /// discriminant. Strings are not interned: every clone allocates
    /// and copies the bytes.
    Str(Box<str>),
}

impl Value {
    /// Convenience constructor for string values.
    pub fn str(s: impl Into<Box<str>>) -> Self {
        Value::Str(s.into())
    }

    /// Convenience constructor for integer values.
    pub const fn int(i: i64) -> Self {
        Value::Int(i)
    }

    /// Convenience constructor for boolean values.
    pub const fn bool(b: bool) -> Self {
        Value::Bool(b)
    }

    /// Returns the boolean payload if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the integer payload if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the string payload if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A short tag naming the variant, used in error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Str(_) => "str",
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.into())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s.into())
    }
}

impl From<Cow<'_, str>> for Value {
    fn from(s: Cow<'_, str>) -> Self {
        Value::Str(s.into())
    }
}

/// A finite, ordered, duplicate-free set of [`Value`]s.
///
/// Used as the `dom(x)` of finite-domain table variables (paper Def. 6)
/// and as the finite slices of `D` over which infinite-domain tables are
/// enumerated.
///
/// ```
/// use ipdb_rel::{Domain, Value};
/// let d = Domain::ints(1..=3);
/// assert_eq!(d.len(), 3);
/// assert!(d.contains(&Value::from(2)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Domain {
    values: Vec<Value>,
}

impl Domain {
    /// Builds a domain from any value iterator; duplicates are removed and
    /// the result is sorted into canonical order.
    pub fn new<I, V>(values: I) -> Self
    where
        I: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        let mut values: Vec<Value> = values.into_iter().map(Into::into).collect();
        values.sort_unstable();
        values.dedup();
        Domain { values }
    }

    /// The empty domain. A variable with an empty domain makes every
    /// world-enumeration empty; constructors in `ipdb-tables` reject it.
    pub const fn empty() -> Self {
        Domain { values: Vec::new() }
    }

    /// The two-valued boolean domain `{false, true}` of boolean c-table
    /// variables.
    pub fn bools() -> Self {
        Domain::new([false, true])
    }

    /// An integer range domain.
    pub fn ints<I: IntoIterator<Item = i64>>(range: I) -> Self {
        Domain::new(range.into_iter().map(Value::Int))
    }

    /// Number of values in the domain.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the domain has no values.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Membership test (binary search; the vector is sorted).
    pub fn contains(&self, v: &Value) -> bool {
        self.values.binary_search(v).is_ok()
    }

    /// The values in ascending order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Iterates over the values in ascending order.
    pub fn iter(&self) -> std::slice::Iter<'_, Value> {
        self.values.iter()
    }

    /// Union of two domains.
    pub fn union(&self, other: &Domain) -> Domain {
        Domain::new(self.values.iter().chain(other.values.iter()).cloned())
    }

    /// Inserts a value, keeping canonical order.
    pub fn insert(&mut self, v: impl Into<Value>) {
        let v = v.into();
        if let Err(pos) = self.values.binary_search(&v) {
            self.values.insert(pos, v);
        }
    }

    /// Returns `k` integer values that do **not** occur in this domain.
    ///
    /// The paper's infinite `D` guarantees an endless supply of "fresh"
    /// constants; this is the finite-slice counterpart, used when deciding
    /// possible/certain membership for infinite-domain c-tables (active
    /// domain + `k` fresh constants suffices because conditions only test
    /// (in)equality).
    pub fn fresh_ints(&self, k: usize) -> Vec<Value> {
        let max = self
            .values
            .iter()
            .filter_map(Value::as_int)
            .max()
            .unwrap_or(0);
        (1..=k as i64).map(|i| Value::Int(max + i)).collect()
    }

    /// This domain extended with `k` fresh integer constants.
    pub fn with_fresh_ints(&self, k: usize) -> Domain {
        let mut d = self.clone();
        for v in self.fresh_ints(k) {
            d.insert(v);
        }
        d
    }
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "}}")
    }
}

impl<V: Into<Value>> FromIterator<V> for Domain {
    fn from_iter<I: IntoIterator<Item = V>>(iter: I) -> Self {
        Domain::new(iter)
    }
}

impl IntoIterator for Domain {
    type Item = Value;
    type IntoIter = std::vec::IntoIter<Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.values.into_iter()
    }
}

impl<'a> IntoIterator for &'a Domain {
    type Item = &'a Value;
    type IntoIter = std::slice::Iter<'a, Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.values.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_order_is_total_and_stratified() {
        let b = Value::from(true);
        let i = Value::from(-5);
        let s = Value::from("a");
        assert!(b < i && i < s);
        assert!(Value::from(false) < Value::from(true));
        assert!(Value::from(1) < Value::from(2));
        assert!(Value::from("a") < Value::from("b"));
    }

    #[test]
    fn value_display_forms() {
        assert_eq!(Value::from(7).to_string(), "7");
        assert_eq!(Value::from("x y").to_string(), "'x y'");
        assert_eq!(Value::from(true).to_string(), "true");
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::from(7).as_int(), Some(7));
        assert_eq!(Value::from(7).as_bool(), None);
        assert_eq!(Value::from("s").as_str(), Some("s"));
        assert_eq!(Value::from(true).as_bool(), Some(true));
        assert_eq!(Value::from(true).kind(), "bool");
        assert_eq!(Value::from(1).kind(), "int");
        assert_eq!(Value::from("").kind(), "str");
    }

    #[test]
    fn domain_dedups_and_sorts() {
        let d = Domain::new([3, 1, 2, 3, 1]);
        assert_eq!(d.len(), 3);
        assert_eq!(
            d.values(),
            &[Value::from(1), Value::from(2), Value::from(3)]
        );
    }

    #[test]
    fn domain_membership_and_insert() {
        let mut d = Domain::ints(1..=3);
        assert!(d.contains(&Value::from(2)));
        assert!(!d.contains(&Value::from(9)));
        d.insert(9);
        d.insert(9);
        assert!(d.contains(&Value::from(9)));
        assert_eq!(d.len(), 4);
    }

    #[test]
    fn domain_union() {
        let a = Domain::ints(1..=2);
        let b = Domain::ints(2..=3);
        assert_eq!(a.union(&b), Domain::ints(1..=3));
    }

    #[test]
    fn fresh_ints_avoid_existing_values() {
        let d = Domain::new([Value::from(10), Value::from("a")]);
        let fresh = d.fresh_ints(3);
        assert_eq!(fresh.len(), 3);
        for v in &fresh {
            assert!(!d.contains(v));
        }
        let ext = d.with_fresh_ints(2);
        assert_eq!(ext.len(), d.len() + 2);
    }

    #[test]
    fn empty_domain() {
        let d = Domain::empty();
        assert!(d.is_empty());
        assert_eq!(d.fresh_ints(1), vec![Value::from(1)]);
    }

    #[test]
    fn domain_display() {
        assert_eq!(Domain::ints(1..=2).to_string(), "{1, 2}");
        assert_eq!(Domain::empty().to_string(), "{}");
    }

    #[test]
    fn bools_domain() {
        let d = Domain::bools();
        assert_eq!(d.len(), 2);
        assert!(d.contains(&Value::from(false)) && d.contains(&Value::from(true)));
    }
}
