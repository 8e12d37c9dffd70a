//! The ROBDD node store and its operations.
//!
//! Classic Bryant-style implementation: nodes are hash-consed through a
//! unique table (so structural equality is pointer equality and the
//! diagram is canonical for a fixed variable order), and the binary
//! `apply` recursion is memoized. Variable order is simply the numeric
//! order of the variable indexes `0 < 1 < …`.

use std::cell::Cell;
use std::collections::HashMap;

use crate::error::BddError;
use crate::weight::Weight;

/// Reference to a BDD node (index into the manager's node table).
pub type NodeRef = u32;

/// The constant-false terminal.
pub const FALSE: NodeRef = 0;
/// The constant-true terminal.
pub const TRUE: NodeRef = 1;

/// Sentinel "variable" of the terminals: larger than every real variable,
/// so terminals sort below all decision nodes.
const TERMINAL_VAR: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Node {
    var: u32,
    lo: NodeRef,
    hi: NodeRef,
}

/// Binary operation tags for the apply cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Op {
    And,
    Or,
    Xor,
}

/// A store of reduced ordered BDDs sharing one variable order.
///
/// All nodes live in one arena; [`NodeRef`]s from one manager must not be
/// used with another.
///
/// ```
/// use ipdb_bdd::{BddManager, TRUE};
/// let mut m = BddManager::new();
/// let x0 = m.var(0);
/// let x1 = m.var(1);
/// let f = m.or(x0, x1);
/// let nx0 = m.not(x0);
/// let g = m.not(f);
/// let h = m.and(nx0, g);
/// // ¬(x0 ∨ x1) ∧ ¬x0 == ¬(x0 ∨ x1): canonicity makes this pointer-equal.
/// assert_eq!(h, g);
/// assert_eq!(m.sat_count(TRUE, 2).unwrap(), 4);
/// ```
#[derive(Debug)]
pub struct BddManager {
    nodes: Vec<Node>,
    unique: HashMap<(u32, NodeRef, NodeRef), NodeRef>,
    apply_cache: HashMap<(Op, NodeRef, NodeRef), NodeRef>,
    unique_hits: u64,
    unique_misses: u64,
    apply_hits: u64,
    apply_misses: u64,
    // `wmc` takes `&self` (it only reads the diagram), so its call
    // counter is interior-mutable. Managers are not `Sync`-shared.
    wmc_calls: Cell<u64>,
}

/// Lifetime counters of one [`BddManager`] — what the hash-consing and
/// memoization actually did, exposed by [`BddManager::stats`].
///
/// The counters are always on: each is a plain integer bump on a path
/// that already performs a hash-table probe, so there is no flag to
/// check and nothing to opt into.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BddStats {
    /// Decision nodes allocated (terminals excluded).
    pub nodes_allocated: u64,
    /// `mk` calls answered from the unique table (hash-consing shares).
    pub unique_hits: u64,
    /// `mk` calls that had to allocate a fresh node.
    pub unique_misses: u64,
    /// Binary `apply` calls answered from the memo cache (terminal
    /// shortcuts resolve before the cache and count as neither).
    pub apply_cache_hits: u64,
    /// Binary `apply` calls that recursed.
    pub apply_cache_misses: u64,
    /// Peak live node count, terminals included. The arena never frees,
    /// so this equals [`BddManager::node_count`] — kept as its own
    /// field so the meaning survives a garbage-collecting manager.
    pub peak_live_nodes: u64,
    /// Weighted-model-count invocations ([`BddManager::wmc`]).
    pub wmc_calls: u64,
}

impl Default for BddManager {
    fn default() -> Self {
        Self::new()
    }
}

impl BddManager {
    /// An empty manager containing only the two terminals.
    pub fn new() -> Self {
        BddManager {
            nodes: vec![
                Node {
                    var: TERMINAL_VAR,
                    lo: FALSE,
                    hi: FALSE,
                },
                Node {
                    var: TERMINAL_VAR,
                    lo: TRUE,
                    hi: TRUE,
                },
            ],
            unique: HashMap::new(),
            apply_cache: HashMap::new(),
            unique_hits: 0,
            unique_misses: 0,
            apply_hits: 0,
            apply_misses: 0,
            wmc_calls: Cell::new(0),
        }
    }

    /// This manager's lifetime counters (see [`BddStats`]).
    pub fn stats(&self) -> BddStats {
        BddStats {
            nodes_allocated: (self.nodes.len() - 2) as u64,
            unique_hits: self.unique_hits,
            unique_misses: self.unique_misses,
            apply_cache_hits: self.apply_hits,
            apply_cache_misses: self.apply_misses,
            peak_live_nodes: self.nodes.len() as u64,
            wmc_calls: self.wmc_calls.get(),
        }
    }

    /// Number of live nodes (including the two terminals).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of nodes reachable from `f`: the size of the BDD rooted there.
    pub fn reachable_count(&self, f: NodeRef) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![f];
        while let Some(n) = stack.pop() {
            if seen.insert(n) && n > TRUE {
                let node = self.nodes[n as usize];
                stack.push(node.lo);
                stack.push(node.hi);
            }
        }
        seen.len()
    }

    fn var_of(&self, f: NodeRef) -> u32 {
        self.nodes[f as usize].var
    }

    /// Hash-consed node constructor: applies the reduction rules
    /// (identical children collapse; duplicate nodes share).
    pub fn mk(&mut self, var: u32, lo: NodeRef, hi: NodeRef) -> NodeRef {
        assert!(var < TERMINAL_VAR, "variable index out of range");
        if lo == hi {
            return lo;
        }
        debug_assert!(
            var < self.var_of(lo) && var < self.var_of(hi),
            "children must be below var in the order"
        );
        if let Some(&n) = self.unique.get(&(var, lo, hi)) {
            self.unique_hits += 1;
            return n;
        }
        self.unique_misses += 1;
        let n = self.nodes.len() as NodeRef;
        self.nodes.push(Node { var, lo, hi });
        self.unique.insert((var, lo, hi), n);
        n
    }

    /// The single-variable function `xᵢ`.
    pub fn var(&mut self, i: u32) -> NodeRef {
        self.mk(i, FALSE, TRUE)
    }

    /// The negative literal `¬xᵢ`.
    pub fn nvar(&mut self, i: u32) -> NodeRef {
        self.mk(i, TRUE, FALSE)
    }

    /// Constant from a boolean.
    pub fn constant(&self, b: bool) -> NodeRef {
        if b {
            TRUE
        } else {
            FALSE
        }
    }

    /// `¬f`.
    pub fn not(&mut self, f: NodeRef) -> NodeRef {
        self.xor(f, TRUE)
    }

    /// `f ∧ g`.
    pub fn and(&mut self, f: NodeRef, g: NodeRef) -> NodeRef {
        self.apply(Op::And, f, g)
    }

    /// `f ∨ g`.
    pub fn or(&mut self, f: NodeRef, g: NodeRef) -> NodeRef {
        self.apply(Op::Or, f, g)
    }

    /// `f ⊕ g`.
    pub fn xor(&mut self, f: NodeRef, g: NodeRef) -> NodeRef {
        self.apply(Op::Xor, f, g)
    }

    fn apply(&mut self, op: Op, f: NodeRef, g: NodeRef) -> NodeRef {
        // Terminal / idempotence shortcuts.
        match op {
            Op::And => {
                if f == FALSE || g == FALSE {
                    return FALSE;
                }
                if f == TRUE {
                    return g;
                }
                if g == TRUE || f == g {
                    return f;
                }
            }
            Op::Or => {
                if f == TRUE || g == TRUE {
                    return TRUE;
                }
                if f == FALSE {
                    return g;
                }
                if g == FALSE || f == g {
                    return f;
                }
            }
            Op::Xor => {
                if f == g {
                    return FALSE;
                }
                if f == FALSE {
                    return g;
                }
                if g == FALSE {
                    return f;
                }
                if f == TRUE && g == TRUE {
                    return FALSE;
                }
            }
        }
        // Commutative: normalize operand order for cache hits.
        let key = if f <= g { (op, f, g) } else { (op, g, f) };
        if let Some(&r) = self.apply_cache.get(&key) {
            self.apply_hits += 1;
            return r;
        }
        self.apply_misses += 1;
        let (vf, vg) = (self.var_of(f), self.var_of(g));
        let top = vf.min(vg);
        let (f_lo, f_hi) = if vf == top {
            let n = self.nodes[f as usize];
            (n.lo, n.hi)
        } else {
            (f, f)
        };
        let (g_lo, g_hi) = if vg == top {
            let n = self.nodes[g as usize];
            (n.lo, n.hi)
        } else {
            (g, g)
        };
        let lo = self.apply(op, f_lo, g_lo);
        let hi = self.apply(op, f_hi, g_hi);
        let r = self.mk(top, lo, hi);
        self.apply_cache.insert(key, r);
        r
    }

    /// Restriction `f[xᵢ := b]`.
    pub fn restrict(&mut self, f: NodeRef, i: u32, b: bool) -> NodeRef {
        if f <= TRUE {
            return f;
        }
        let node = self.nodes[f as usize];
        if node.var > i {
            return f;
        }
        if node.var == i {
            return if b { node.hi } else { node.lo };
        }
        let lo = self.restrict(node.lo, i, b);
        let hi = self.restrict(node.hi, i, b);
        self.mk(node.var, lo, hi)
    }

    /// Evaluates `f` under a total assignment (index `i` holds `xᵢ`).
    pub fn eval(&self, f: NodeRef, assignment: &[bool]) -> bool {
        let mut cur = f;
        while cur > TRUE {
            let node = self.nodes[cur as usize];
            let v = assignment
                .get(node.var as usize)
                .copied()
                .unwrap_or_else(|| panic!("assignment missing x{}", node.var));
            cur = if v { node.hi } else { node.lo };
        }
        cur == TRUE
    }

    /// Exact number of satisfying assignments over variables `0..nvars`.
    ///
    /// Errors with [`BddError::VarOutOfRange`] if `f` decides a variable
    /// `≥ nvars` (the count would otherwise silently ignore it); the
    /// check rides along the memoized recursion, so each node is still
    /// visited exactly once. A count that does not fit in `u128` (up to
    /// `2^nvars` models) errors with [`BddError::Overflow`] instead of
    /// wrapping.
    pub fn sat_count(&self, f: NodeRef, nvars: u32) -> Result<u128, BddError> {
        let mut memo: HashMap<NodeRef, u128> = HashMap::new();
        // count(n) = models over variables strictly below var_of(n)'s level
        // (i.e. vars var_of(n)..nvars); terminals count 1 or 0, scaled by
        // skipped levels at each edge.
        fn scaled(skip: u32, count: u128) -> Result<u128, BddError> {
            if count == 0 {
                return Ok(0);
            }
            1u128
                .checked_shl(skip)
                .and_then(|s| s.checked_mul(count))
                .ok_or(BddError::Overflow)
        }
        fn level(mgr: &BddManager, n: NodeRef, nvars: u32) -> u32 {
            if n <= TRUE {
                nvars
            } else {
                mgr.var_of(n)
            }
        }
        fn rec(
            mgr: &BddManager,
            n: NodeRef,
            nvars: u32,
            memo: &mut HashMap<NodeRef, u128>,
        ) -> Result<u128, BddError> {
            if n == FALSE {
                return Ok(0);
            }
            if n == TRUE {
                return Ok(1);
            }
            if let Some(&c) = memo.get(&n) {
                return Ok(c);
            }
            let node = mgr.nodes[n as usize];
            if node.var >= nvars {
                return Err(BddError::VarOutOfRange {
                    var: node.var,
                    nvars,
                });
            }
            let lo = rec(mgr, node.lo, nvars, memo)?;
            let hi = rec(mgr, node.hi, nvars, memo)?;
            let lo_skip = level(mgr, node.lo, nvars) - node.var - 1;
            let hi_skip = level(mgr, node.hi, nvars) - node.var - 1;
            let c = scaled(lo_skip, lo)?
                .checked_add(scaled(hi_skip, hi)?)
                .ok_or(BddError::Overflow)?;
            memo.insert(n, c);
            Ok(c)
        }
        let count = rec(self, f, nvars, &mut memo)?;
        let root_skip = level(self, f, nvars).min(nvars);
        scaled(root_skip, count)
    }

    /// Weighted model count of `f` over variables `0..weights.len()`.
    ///
    /// `weights[i] = (w_false, w_true)` are the branch weights of `xᵢ`,
    /// and each pair must sum to 1 (a probability and its complement, as
    /// [`FdEncoding::weights_from`](crate::FdEncoding::weights_from)
    /// builds them). The count is `wf·lo + wt·hi` per node: a level the
    /// diagram skips contributes a factor of `wf + wt = 1`, so for
    /// probabilities the result is `P[f]` with no per-level scaling.
    ///
    /// Errors with [`BddError::VarOutOfRange`] if `f` decides a variable
    /// with no weight pair (instead of panicking on the index); the
    /// check rides along the memoized recursion, so each node is still
    /// visited exactly once. All weight arithmetic goes through the
    /// checked [`Weight`] operations, so exact weights that leave their
    /// representable range report [`BddError::Overflow`] instead of
    /// panicking mid-count.
    pub fn wmc<W: Weight>(&self, f: NodeRef, weights: &[(W, W)]) -> Result<W, BddError> {
        self.wmc_calls.set(self.wmc_calls.get() + 1);
        fn rec<W: Weight>(
            mgr: &BddManager,
            n: NodeRef,
            weights: &[(W, W)],
            memo: &mut HashMap<NodeRef, W>,
        ) -> Result<W, BddError> {
            if n == FALSE {
                return Ok(W::zero());
            }
            if n == TRUE {
                return Ok(W::one());
            }
            if let Some(c) = memo.get(&n) {
                return Ok(c.clone());
            }
            let node = mgr.nodes[n as usize];
            let Some((wf, wt)) = weights.get(node.var as usize) else {
                return Err(BddError::VarOutOfRange {
                    var: node.var,
                    nvars: weights.len() as u32,
                });
            };
            let lo = rec(mgr, node.lo, weights, memo)?;
            let hi = rec(mgr, node.hi, weights, memo)?;
            let c = wf
                .checked_mul(&lo)
                .zip(wt.checked_mul(&hi))
                .and_then(|(l, h)| l.checked_add(&h))
                .ok_or(BddError::Overflow)?;
            memo.insert(n, c.clone());
            Ok(c)
        }
        rec(self, f, weights, &mut HashMap::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminals_and_literals() {
        let mut m = BddManager::new();
        assert_eq!(m.constant(true), TRUE);
        assert_eq!(m.constant(false), FALSE);
        let x = m.var(0);
        assert!(m.eval(x, &[true]));
        assert!(!m.eval(x, &[false]));
        let nx = m.nvar(0);
        assert!(m.eval(nx, &[false]));
    }

    #[test]
    fn reduction_rules() {
        let mut m = BddManager::new();
        // mk with equal children collapses.
        assert_eq!(m.mk(0, TRUE, TRUE), TRUE);
        // Hash-consing: same triple, same node.
        let a = m.mk(0, FALSE, TRUE);
        let b = m.mk(0, FALSE, TRUE);
        assert_eq!(a, b);
    }

    #[test]
    fn boolean_ops_truth_tables() {
        let mut m = BddManager::new();
        let x = m.var(0);
        let y = m.var(1);
        let and = m.and(x, y);
        let or = m.or(x, y);
        let xor = m.xor(x, y);
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            let asg = [a, b];
            assert_eq!(m.eval(and, &asg), a && b);
            assert_eq!(m.eval(or, &asg), a || b);
            assert_eq!(m.eval(xor, &asg), a ^ b);
        }
    }

    #[test]
    fn not_is_involutive() {
        let mut m = BddManager::new();
        let x = m.var(0);
        let y = m.var(1);
        let f = m.and(x, y);
        let nf = m.not(f);
        assert_eq!(m.not(nf), f);
        assert_eq!(m.not(TRUE), FALSE);
    }

    #[test]
    fn canonicity_syntactic_equality() {
        let mut m = BddManager::new();
        let x = m.var(0);
        let y = m.var(1);
        // x ∧ y built two different ways is the same node.
        let a = m.and(x, y);
        let ny = m.not(y);
        let x_and_ny = m.and(x, ny);
        let b = m.xor(x_and_ny, x); // x ⊕ (x ∧ ¬y) = x ∧ y
        assert_eq!(a, b);
    }

    #[test]
    fn restrict() {
        let mut m = BddManager::new();
        let x = m.var(0);
        let y = m.var(1);
        let f = m.and(x, y);
        assert_eq!(m.restrict(f, 0, true), y);
        assert_eq!(m.restrict(f, 0, false), FALSE);
        assert_eq!(m.restrict(f, 5, true), f); // var below all of f's
    }

    #[test]
    fn sat_count_small_functions() {
        let mut m = BddManager::new();
        let x = m.var(0);
        let y = m.var(1);
        let or = m.or(x, y);
        assert_eq!(m.sat_count(or, 2).unwrap(), 3);
        let and = m.and(x, y);
        assert_eq!(m.sat_count(and, 2).unwrap(), 1);
        assert_eq!(m.sat_count(TRUE, 3).unwrap(), 8);
        assert_eq!(m.sat_count(FALSE, 3).unwrap(), 0);
        // Skipped variables are counted: f = x1 over 3 vars has 4 models.
        let y1 = m.var(1);
        assert_eq!(m.sat_count(y1, 3).unwrap(), 4);
    }

    #[test]
    fn sat_count_overflow_is_an_error() {
        // Regression: the level-skip shifts and products were unchecked,
        // so release builds wrapped (2^130 models counted as 4) and debug
        // builds panicked on the shift.
        let mut m = BddManager::new();
        let x0 = m.var(0);
        assert_eq!(m.sat_count(TRUE, 130), Err(BddError::Overflow));
        assert_eq!(m.sat_count(x0, 200), Err(BddError::Overflow));
        // The largest representable power of two still counts exactly,
        // and a zero count never overflows however many levels it skips.
        assert_eq!(m.sat_count(TRUE, 127), Ok(1 << 127));
        assert_eq!(m.sat_count(FALSE, 200), Ok(0));
    }

    #[test]
    fn sat_count_overflow_in_a_sum_is_an_error() {
        // x0 ⊕ x1 over 129 variables: each branch of the root counts
        // 2^127 models without overflowing, but their sum is 2^128.
        let mut m = BddManager::new();
        let (x0, x1) = (m.var(0), m.var(1));
        let f = m.xor(x0, x1);
        assert_eq!(m.sat_count(f, 128), Ok(1 << 127));
        assert_eq!(m.sat_count(f, 129), Err(BddError::Overflow));
    }

    #[test]
    fn wmc_matches_probability_semantics() {
        let mut m = BddManager::new();
        let x = m.var(0);
        let y = m.var(1);
        let or = m.or(x, y);
        // P[x]=0.5, P[y]=0.25 → P[x ∨ y] = 1 - 0.5*0.75 = 0.625
        let w = [(0.5, 0.5), (0.75, 0.25)];
        let p = m.wmc(or, &w).unwrap();
        assert!((p - 0.625).abs() < 1e-12);
        // Skipped var at the root: f = y alone.
        let p_y = m.wmc(y, &w).unwrap();
        assert!((p_y - 0.25).abs() < 1e-12);
        assert!((m.wmc(TRUE, &w).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(m.wmc(FALSE, &w).unwrap(), 0.0);
    }

    #[test]
    fn counting_rejects_out_of_range_variables() {
        // Regression: a node deciding x2 with only 2 declared variables
        // used to panic (wmc) or silently miscount (sat_count); both now
        // return VarOutOfRange.
        let mut m = BddManager::new();
        let x = m.var(0);
        let z = m.var(2);
        let f = m.and(x, z);
        assert_eq!(
            m.wmc(f, &[(0.5, 0.5), (0.5, 0.5)]),
            Err(BddError::VarOutOfRange { var: 2, nvars: 2 })
        );
        assert_eq!(
            m.sat_count(f, 2),
            Err(BddError::VarOutOfRange { var: 2, nvars: 2 })
        );
        // The same function over enough variables counts fine.
        assert_eq!(m.sat_count(f, 3).unwrap(), 2);
        let w3 = [(0.5, 0.5), (0.5, 0.5), (0.5, 0.5)];
        assert!((m.wmc(f, &w3).unwrap() - 0.25).abs() < 1e-12);
        // Terminals are in range for any nvars, including zero.
        assert_eq!(m.sat_count(TRUE, 0).unwrap(), 1);
        assert_eq!(m.wmc::<f64>(FALSE, &[]).unwrap(), 0.0);
    }

    #[test]
    fn stats_track_consing_memoization_and_wmc() {
        let mut m = BddManager::new();
        // A fresh manager has zero counters; only the two terminals live.
        assert_eq!(
            m.stats(),
            BddStats {
                peak_live_nodes: 2,
                ..BddStats::default()
            }
        );
        let x = m.var(0);
        let y = m.var(1);
        // Two fresh nodes so far, no sharing yet.
        let s = m.stats();
        assert_eq!(s.nodes_allocated, 2);
        assert_eq!(s.unique_misses, 2);
        assert_eq!(s.unique_hits, 0);
        assert_eq!(s.peak_live_nodes, m.node_count() as u64);
        // Rebuilding x hits the unique table.
        let x2 = m.var(0);
        assert_eq!(x2, x);
        assert_eq!(m.stats().unique_hits, 1);
        // First apply recurses (miss); repeating it hits the memo.
        let f = m.and(x, y);
        let misses = m.stats().apply_cache_misses;
        assert!(misses >= 1);
        let f2 = m.and(x, y);
        assert_eq!(f2, f);
        let s = m.stats();
        assert_eq!(s.apply_cache_hits, 1);
        assert_eq!(s.apply_cache_misses, misses);
        // Terminal shortcuts bypass the cache entirely.
        m.and(FALSE, f);
        assert_eq!(m.stats().apply_cache_hits, 1);
        // wmc takes &self and still counts.
        assert_eq!(m.stats().wmc_calls, 0);
        let w = [(0.5, 0.5), (0.5, 0.5)];
        m.wmc(f, &w).unwrap();
        m.wmc(f, &w).unwrap();
        assert_eq!(m.stats().wmc_calls, 2);
    }

    #[test]
    fn reachable_count() {
        let mut m = BddManager::new();
        let x = m.var(0);
        let y = m.var(1);
        let f = m.and(x, y);
        // Nodes: f-node, y-node, TRUE, FALSE.
        assert_eq!(m.reachable_count(f), 4);
        assert_eq!(m.reachable_count(TRUE), 1);
    }

    #[test]
    fn big_parity_function_stays_small() {
        // Parity of 16 vars: ROBDD has 2 nodes per level + terminals.
        let mut m = BddManager::new();
        let mut f = FALSE;
        for i in 0..16 {
            let x = m.var(i);
            f = m.xor(f, x);
        }
        assert!(m.reachable_count(f) <= 2 * 16 + 2);
        assert_eq!(m.sat_count(f, 16).unwrap(), 1 << 15);
    }
}
