//! Finite-domain encoding: multi-valued conditions over Boolean BDDs.
//!
//! The conditions of general (p)c-tables (§2, §8) compare variables with
//! *arbitrary* constants and with each other — not just with `true` /
//! `false` — so a variable cannot simply be one BDD variable.
//! [`FdEncoding`] uses a ladder (chain-rule) encoding instead: a variable
//! `x` with finite domain `v₀ < … < v_{d−1}` becomes `d − 1` Boolean
//! *levels*, level `i` meaning "`x = vᵢ`, given `x ∉ {v₀..vᵢ₋₁}`". The
//! atom `x = vᵢ` compiles to the cube `¬b₀ ∧ … ∧ ¬bᵢ₋₁ ∧ bᵢ`, and the
//! last value, which has no level of its own, to `¬b₀ ∧ … ∧ ¬b_{d−2}`.
//! Every Boolean assignment therefore decodes to exactly one value per
//! variable — the first level set, or else the last value — so
//! exactly-one holds by construction. Boolean conditions are the special
//! case of `{false, true}` domains, one level per variable.
//!
//! Weighted model counting then recovers `P[φ]` for a pc-table condition
//! exactly: level `i` gets the branch weights `(1 − cᵢ, cᵢ)` with
//! `cᵢ = P[x = vᵢ | x ∉ {v₀..vᵢ₋₁}]`. By the chain rule the weights along
//! the cube of `vᵢ` multiply to `P[x = vᵢ]`, so every valuation carries
//! `Π_x P[x = ν(x)]`, which is precisely the §8 product space.
//!
//! [`BddManager::wmc`] skips the levels a diagram does not test, and that
//! is exact here: each level's two weights sum to 1, so a level the
//! function ignores contributes a factor of 1 whether it is irrelevant to
//! `φ` or lies past the value the path has already decided.
//!
//! ```
//! use ipdb_bdd::{BddManager, FdEncoding};
//! use ipdb_logic::{Condition, Var};
//! use ipdb_rel::Value;
//!
//! // x over {1, 2, 3} with P = (1/4, 1/2, 1/4); φ = (x ≠ 2).
//! let x = Var(0);
//! let enc = FdEncoding::new([(x, vec![Value::from(1), Value::from(2), Value::from(3)])])
//!     .unwrap();
//! let mut m = BddManager::new();
//! let f = enc.compile(&mut m, &Condition::neq_vc(x, 2)).unwrap();
//! let weights = enc
//!     .weights_from([
//!         (x, Value::from(1), 0.25f64),
//!         (x, Value::from(2), 0.5),
//!         (x, Value::from(3), 0.25),
//!     ])
//!     .unwrap();
//! // Two levels: P[x = 1] = 1/4, then P[x = 2 | x ≠ 1] = 2/3.
//! assert_eq!(weights, vec![(0.75, 0.25), (1.0 / 3.0, 2.0 / 3.0)]);
//! assert_eq!(m.wmc(f, &weights).unwrap(), 0.5);
//! ```

use std::collections::BTreeMap;

use ipdb_logic::{Condition, Term, Valuation, Var};
use ipdb_rel::Value;

use crate::error::BddError;
use crate::manager::{BddManager, NodeRef, FALSE, TRUE};
use crate::weight::Weight;

/// One encoded variable: its first level and its domain values in
/// canonical (ascending) order. It owns levels `base..base + d − 1`.
#[derive(Debug, Clone)]
struct Block {
    base: u32,
    values: Vec<Value>,
}

impl Block {
    /// The position of `value` in the domain, if it is in it.
    fn position(&self, value: &Value) -> Option<usize> {
        self.values.binary_search(value).ok()
    }

    /// The cube `x = values[i]`: every earlier level unset, then level
    /// `i` set (or nothing more for the last value). Built bottom-up, so
    /// `mk`'s ordering invariant holds by construction.
    fn cube(&self, mgr: &mut BddManager, i: usize) -> NodeRef {
        let mut acc = if i + 1 == self.values.len() {
            TRUE
        } else {
            mgr.var(self.base + i as u32)
        };
        for j in (0..i as u32).rev() {
            acc = mgr.mk(self.base + j, acc, FALSE);
        }
        acc
    }
}

/// A ladder encoding of finite-domain variables into Boolean BDD
/// variables. It holds no diagram, so one encoding can compile into any
/// [`BddManager`].
#[derive(Debug, Clone)]
pub struct FdEncoding {
    blocks: BTreeMap<Var, Block>,
    nvars: u32,
}

impl FdEncoding {
    /// Builds the encoding: each `(variable, domain)` pair gets a block
    /// of one level per distinct domain value but the last (values are
    /// sorted and deduplicated; blocks are laid out in ascending variable
    /// order). Errors on an empty domain — a variable with no possible
    /// value makes every condition vacuous.
    pub fn new(
        domains: impl IntoIterator<Item = (Var, Vec<Value>)>,
    ) -> Result<FdEncoding, BddError> {
        let mut doms: BTreeMap<Var, Vec<Value>> = BTreeMap::new();
        for (v, mut vals) in domains {
            vals.sort();
            vals.dedup();
            if vals.is_empty() {
                return Err(BddError::EmptyDomain(v));
            }
            doms.insert(v, vals);
        }
        let mut blocks = BTreeMap::new();
        let mut base = 0u32;
        for (v, values) in doms {
            let levels = values.len() as u32 - 1;
            blocks.insert(v, Block { base, values });
            base += levels;
        }
        Ok(FdEncoding {
            blocks,
            nvars: base,
        })
    }

    /// Total number of Boolean variables (levels).
    pub fn nvars(&self) -> u32 {
        self.nvars
    }

    /// The encoded variables, in block order.
    pub fn vars(&self) -> impl Iterator<Item = Var> + '_ {
        self.blocks.keys().copied()
    }

    /// The canonical domain of an encoded variable.
    pub fn domain(&self, v: Var) -> Option<&[Value]> {
        self.blocks.get(&v).map(|b| b.values.as_slice())
    }

    /// Compiles an arbitrary finite-domain condition: atoms may compare
    /// encoded variables with any [`Value`] or with each other.
    ///
    /// A constant outside a variable's domain compiles to the
    /// constant-false atom. Errors with [`BddError::UnknownVar`] on
    /// variables missing from the encoding.
    pub fn compile(&self, mgr: &mut BddManager, cond: &Condition) -> Result<NodeRef, BddError> {
        match cond {
            Condition::True => Ok(TRUE),
            Condition::False => Ok(FALSE),
            Condition::Eq(a, b) => self.atom_eq(mgr, a, b),
            Condition::Neq(a, b) => {
                let f = self.atom_eq(mgr, a, b)?;
                Ok(mgr.not(f))
            }
            Condition::Not(c) => {
                let f = self.compile(mgr, c)?;
                Ok(mgr.not(f))
            }
            Condition::And(cs) => {
                let mut acc = TRUE;
                for c in cs {
                    let f = self.compile(mgr, c)?;
                    acc = mgr.and(acc, f);
                }
                Ok(acc)
            }
            Condition::Or(cs) => {
                let mut acc = FALSE;
                for c in cs {
                    let f = self.compile(mgr, c)?;
                    acc = mgr.or(acc, f);
                }
                Ok(acc)
            }
        }
    }

    fn block(&self, v: Var) -> Result<&Block, BddError> {
        self.blocks.get(&v).ok_or(BddError::UnknownVar(v))
    }

    fn atom_eq(&self, mgr: &mut BddManager, a: &Term, b: &Term) -> Result<NodeRef, BddError> {
        match (a, b) {
            (Term::Const(u), Term::Const(v)) => Ok(mgr.constant(u == v)),
            (Term::Var(x), Term::Const(c)) | (Term::Const(c), Term::Var(x)) => {
                let bx = self.block(*x)?;
                Ok(match bx.position(c) {
                    Some(i) => bx.cube(mgr, i),
                    // A constant outside dom(x) can never be x's value.
                    None => FALSE,
                })
            }
            (Term::Var(x), Term::Var(y)) => {
                let bx = self.block(*x)?;
                let by = self.block(*y)?;
                if x == y {
                    return Ok(TRUE);
                }
                // x = y ⇔ ⋁_{v ∈ dom(x) ∩ dom(y)} (x = v ∧ y = v).
                let mut acc = FALSE;
                for (i, v) in bx.values.iter().enumerate() {
                    if let Some(j) = by.position(v) {
                        let cx = bx.cube(mgr, i);
                        let cy = by.cube(mgr, j);
                        let both = mgr.and(cx, cy);
                        acc = mgr.or(acc, both);
                    }
                }
                Ok(acc)
            }
        }
    }

    /// Encodes a valuation of the encoded variables as a Boolean
    /// assignment (for evaluating compiled conditions with
    /// [`BddManager::eval`]): value `vᵢ` sets level `i` of its block and
    /// leaves the others unset. Every encoded variable must be bound to
    /// one of its domain values.
    pub fn encode_valuation(&self, nu: &Valuation) -> Result<Vec<bool>, BddError> {
        let mut asg = vec![false; self.nvars as usize];
        for (v, block) in &self.blocks {
            let val = nu.get(*v).ok_or(BddError::UnknownVar(*v))?;
            let i = block
                .position(val)
                .ok_or_else(|| BddError::ValueOutOfDomain(*v, val.clone()))?;
            if i + 1 < block.values.len() {
                asg[block.base as usize + i] = true;
            }
        }
        Ok(asg)
    }

    /// Builds the Boolean branch-weight vector for [`BddManager::wmc`]
    /// from a flat stream of `(variable, value, weight)` triples: level
    /// `i` of `x` gets `(w(vᵢ₊₁) + …, w(vᵢ)) / (w(vᵢ) + …)`, the
    /// conditional probability of `x = vᵢ` given `x ∉ {v₀..vᵢ₋₁}` and its
    /// complement. Each pair sums to 1, and the count is `P[f]` under each
    /// variable's weights normalized to sum to 1. A level whose value and
    /// every later one weigh zero gets `(1, 0)`.
    ///
    /// Errors on triples naming unencoded variables or out-of-domain
    /// values, if any value is left without a weight, with
    /// [`BddError::InvalidWeights`] if a variable's weights include a
    /// negative one or sum to zero, and with [`BddError::Overflow`] if
    /// exact weight arithmetic leaves its range.
    pub fn weights_from<W: Weight>(
        &self,
        weights: impl IntoIterator<Item = (Var, Value, W)>,
    ) -> Result<Vec<(W, W)>, BddError> {
        let mut given: BTreeMap<Var, Vec<Option<W>>> = self
            .blocks
            .iter()
            .map(|(v, b)| (*v, vec![None; b.values.len()]))
            .collect();
        for (v, val, w) in weights {
            let i = self
                .block(v)?
                .position(&val)
                .ok_or(BddError::ValueOutOfDomain(v, val))?;
            if w.is_below_zero() {
                return Err(BddError::InvalidWeights(v));
            }
            given.get_mut(&v).expect("every encoded variable has slots")[i] = Some(w);
        }
        let mut out = Vec::with_capacity(self.nvars as usize);
        for ((v, block), ws) in self.blocks.iter().zip(given.into_values()) {
            let missing = |i: usize| BddError::MissingValueWeight(*v, block.values[i].clone());
            // Walk the tail sums w(vᵢ) + … + w(v_{d−1}) from the last value
            // down, pushing the levels in reverse; level i divides by its
            // own tail.
            let at = out.len();
            let mut tail = ws[ws.len() - 1]
                .clone()
                .ok_or_else(|| missing(ws.len() - 1))?;
            for (i, w) in ws.iter().enumerate().rev().skip(1) {
                let w = w.as_ref().ok_or_else(|| missing(i))?;
                let rest = tail;
                tail = w.checked_add(&rest).ok_or(BddError::Overflow)?;
                out.push(if tail.is_zero() {
                    (W::one(), W::zero())
                } else {
                    let lo = rest.checked_div(&tail).ok_or(BddError::Overflow)?;
                    let hi = w.checked_div(&tail).ok_or(BddError::Overflow)?;
                    (lo, hi)
                });
            }
            if tail.is_zero() {
                return Err(BddError::InvalidWeights(*v));
            }
            out[at..].reverse();
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|v| Value::from(*v)).collect()
    }

    fn uniform_weights(enc: &FdEncoding) -> Vec<(f64, f64)> {
        enc.weights_from(enc.vars().flat_map(|v| {
            let dom = enc.domain(v).unwrap();
            let p = 1.0 / dom.len() as f64;
            dom.iter().map(move |val| (v, val.clone(), p))
        }))
        .unwrap()
    }

    #[test]
    fn blocks_are_contiguous_and_sorted() {
        let enc =
            FdEncoding::new([(Var(3), ints(&[5, 1, 5, 3])), (Var(1), ints(&[7, 2]))]).unwrap();
        // One level for Var 1's two values, two for Var 3's three.
        assert_eq!(enc.nvars(), 3);
        // Var 1 first (ascending var order), values sorted + deduped.
        assert_eq!(enc.domain(Var(1)).unwrap(), &ints(&[2, 7])[..]);
        assert_eq!(enc.domain(Var(3)).unwrap(), &ints(&[1, 3, 5])[..]);
        let asg = |a: i64, b: i64| {
            let nu = Valuation::from_iter([(Var(1), Value::from(a)), (Var(3), Value::from(b))]);
            enc.encode_valuation(&nu).unwrap()
        };
        assert_eq!(asg(2, 1), [true, true, false]);
        assert_eq!(asg(7, 3), [false, false, true]);
        assert_eq!(asg(7, 5), [false, false, false]);
    }

    #[test]
    fn empty_domain_rejected() {
        assert_eq!(
            FdEncoding::new([(Var(0), vec![])]).unwrap_err(),
            BddError::EmptyDomain(Var(0))
        );
    }

    #[test]
    fn valuation_cubes_partition_the_assignments() {
        let (x, y) = (Var(0), Var(1));
        let enc = FdEncoding::new([(x, ints(&[1, 2, 3])), (y, ints(&[0, 1]))]).unwrap();
        let mut m = BddManager::new();
        // The 3 × 2 valuation cubes are pairwise disjoint and cover all
        // 2³ assignments of the three levels: exactly one valuation each.
        let mut cubes = Vec::new();
        for a in 1..=3 {
            for b in 0..=1 {
                let c = Condition::and([Condition::eq_vc(x, a), Condition::eq_vc(y, b)]);
                cubes.push(enc.compile(&mut m, &c).unwrap());
            }
        }
        let mut union = FALSE;
        for (i, &f) in cubes.iter().enumerate() {
            for &g in &cubes[i + 1..] {
                assert_eq!(m.and(f, g), FALSE);
            }
            union = m.or(union, f);
        }
        assert_eq!(union, TRUE);
        // And the valuations carry total probability 1.
        let w = uniform_weights(&enc);
        assert!((m.wmc(TRUE, &w).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn eq_and_neq_constants() {
        let x = Var(0);
        let enc = FdEncoding::new([(x, ints(&[1, 2, 3, 4]))]).unwrap();
        let mut m = BddManager::new();
        let w = uniform_weights(&enc);
        for v in 1..=4 {
            let eq = enc.compile(&mut m, &Condition::eq_vc(x, v)).unwrap();
            assert!((m.wmc(eq, &w).unwrap() - 0.25).abs() < 1e-12, "x = {v}");
        }
        let neq = enc.compile(&mut m, &Condition::neq_vc(x, 2)).unwrap();
        assert!((m.wmc(neq, &w).unwrap() - 0.75).abs() < 1e-12);
        // Out-of-domain constants fold to false / true.
        let never = enc.compile(&mut m, &Condition::eq_vc(x, 9)).unwrap();
        assert_eq!(m.wmc(never, &w).unwrap(), 0.0);
        let always = enc.compile(&mut m, &Condition::neq_vc(x, 9)).unwrap();
        assert!((m.wmc(always, &w).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn eq_between_variables_over_shared_domain() {
        let (x, y) = (Var(0), Var(1));
        let enc = FdEncoding::new([(x, ints(&[1, 2, 3])), (y, ints(&[2, 3, 4]))]).unwrap();
        let mut m = BddManager::new();
        let w = uniform_weights(&enc);
        // P[x = y] over independent uniforms = |{2,3}| / 9.
        let f = enc.compile(&mut m, &Condition::eq_vv(x, y)).unwrap();
        let p = m.wmc(f, &w).unwrap();
        assert!((p - 2.0 / 9.0).abs() < 1e-12, "got {p}");
        let g = enc.compile(&mut m, &Condition::neq_vv(x, y)).unwrap();
        let q = m.wmc(g, &w).unwrap();
        assert!((q - 7.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn compound_conditions_match_hand_computation() {
        let (x, y) = (Var(0), Var(1));
        let enc = FdEncoding::new([(x, ints(&[0, 1])), (y, ints(&[0, 1]))]).unwrap();
        let mut m = BddManager::new();
        let w = uniform_weights(&enc);
        // (x = 0 ∨ y = 1) ∧ ¬(x = y): outcomes (0,0)✗, (0,1)✓, (1,0)✗, (1,1)✗.
        let c = Condition::and([
            Condition::or([Condition::eq_vc(x, 0), Condition::eq_vc(y, 1)]),
            Condition::Not(Box::new(Condition::eq_vv(x, y))),
        ]);
        let f = enc.compile(&mut m, &c).unwrap();
        assert!((m.wmc(f, &w).unwrap() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn boolean_domains_match_plain_literal_bdd() {
        let (a, b) = (Var(0), Var(1));
        let c = Condition::or([
            Condition::bvar(a),
            Condition::and([Condition::nbvar(a), Condition::bvar(b)]),
        ]);
        // One BDD variable per boolean variable, built by hand.
        let mut m1 = BddManager::new();
        let (la, lb, nla) = (m1.var(0), m1.var(1), m1.nvar(0));
        let rest = m1.and(nla, lb);
        let f1 = m1.or(la, rest);
        let p1 = m1.wmc(f1, &[(0.5, 0.5), (0.75, 0.25)]).unwrap();
        // Finite-domain path over {false, true}: one level each, set for
        // `false` (the first value), so the literal `a` is ¬b_a.
        let bools = vec![Value::Bool(false), Value::Bool(true)];
        let enc = FdEncoding::new([(a, bools.clone()), (b, bools)]).unwrap();
        let mut m2 = BddManager::new();
        let f2 = enc.compile(&mut m2, &c).unwrap();
        let w = enc
            .weights_from([
                (a, Value::Bool(false), 0.5f64),
                (a, Value::Bool(true), 0.5),
                (b, Value::Bool(false), 0.75),
                (b, Value::Bool(true), 0.25),
            ])
            .unwrap();
        let p2 = m2.wmc(f2, &w).unwrap();
        assert!((p1 - p2).abs() < 1e-12, "{p1} vs {p2}");
        assert!((p2 - 0.625).abs() < 1e-12);
        assert_eq!(m1.reachable_count(f1), m2.reachable_count(f2));
    }

    #[test]
    fn weights_from_gives_conditional_level_weights() {
        let (x, b, one) = (Var(0), Var(1), Var(2));
        let enc = FdEncoding::new([
            (x, ints(&[1, 2, 3])),
            (b, vec![Value::Bool(false), Value::Bool(true)]),
            (one, ints(&[7])),
        ])
        .unwrap();
        // Two levels for x, one for the Boolean b, none for the
        // single-valued variable.
        assert_eq!(enc.nvars(), 3);
        let w = enc
            .weights_from([
                (x, Value::from(1), 0.5f64),
                (x, Value::from(2), 0.125),
                (x, Value::from(3), 0.375),
                (b, Value::Bool(false), 0.25),
                (b, Value::Bool(true), 0.75),
                (one, Value::from(7), 1.0),
            ])
            .unwrap();
        // P[x = 1] = 1/2; P[x = 2 | x ≠ 1] = (1/8) / (1/2) = 1/4;
        // P[b = false] = 1/4.
        assert_eq!(w, vec![(0.5, 0.5), (0.75, 0.25), (0.75, 0.25)]);
        // A level reached only through zero weights decides nothing.
        let w = enc
            .weights_from([
                (x, Value::from(1), 1.0f64),
                (x, Value::from(2), 0.0),
                (x, Value::from(3), 0.0),
                (b, Value::Bool(false), 0.25),
                (b, Value::Bool(true), 0.75),
                (one, Value::from(7), 1.0),
            ])
            .unwrap();
        assert_eq!(w[..2], [(0.0, 1.0), (1.0, 0.0)]);
    }

    #[test]
    fn weights_from_rejects_negative_and_zero_mass() {
        let x = Var(0);
        let enc = FdEncoding::new([(x, ints(&[1, 2, 3]))]).unwrap();
        let triples = |ws: [f64; 3]| (1..=3).zip(ws).map(move |(v, w)| (x, Value::from(v), w));
        // The tail of {1/2, −1/2} sums to zero: the ladder cannot divide
        // by it, and the weights are no distribution anyway.
        assert_eq!(
            enc.weights_from(triples([1.0, 0.5, -0.5])).unwrap_err(),
            BddError::InvalidWeights(x)
        );
        assert_eq!(
            enc.weights_from(triples([0.0, 0.0, 0.0])).unwrap_err(),
            BddError::InvalidWeights(x)
        );
    }

    #[test]
    fn unknown_var_and_missing_weight_error() {
        let x = Var(0);
        let enc = FdEncoding::new([(x, ints(&[1, 2]))]).unwrap();
        let mut m = BddManager::new();
        assert_eq!(
            enc.compile(&mut m, &Condition::eq_vc(Var(9), 1))
                .unwrap_err(),
            BddError::UnknownVar(Var(9))
        );
        assert_eq!(
            enc.compile(&mut m, &Condition::eq_vv(x, Var(9)))
                .unwrap_err(),
            BddError::UnknownVar(Var(9))
        );
        // Weight triples are validated: unknown variables, out-of-domain
        // values, and incomplete coverage all error.
        assert_eq!(
            enc.weights_from([(Var(9), Value::from(1), 1.0f64)])
                .unwrap_err(),
            BddError::UnknownVar(Var(9))
        );
        assert_eq!(
            enc.weights_from([(x, Value::from(9), 1.0f64)]).unwrap_err(),
            BddError::ValueOutOfDomain(x, Value::from(9))
        );
        assert_eq!(
            enc.weights_from([(x, Value::from(1), 1.0f64)]).unwrap_err(),
            BddError::MissingValueWeight(x, Value::from(2))
        );
        let full = enc
            .weights_from([(x, Value::from(1), 0.25f64), (x, Value::from(2), 0.75)])
            .unwrap();
        assert_eq!(full, vec![(0.75, 0.25)]);
    }

    #[test]
    fn encode_valuation_round_trips_through_eval() {
        let (x, y) = (Var(0), Var(1));
        let enc = FdEncoding::new([(x, ints(&[1, 2, 3])), (y, ints(&[1, 2]))]).unwrap();
        let mut m = BddManager::new();
        let c = Condition::eq_vv(x, y);
        let f = enc.compile(&mut m, &c).unwrap();
        for a in 1..=3i64 {
            for b in 1..=2i64 {
                let nu = Valuation::from_iter([(x, Value::from(a)), (y, Value::from(b))]);
                let asg = enc.encode_valuation(&nu).unwrap();
                assert_eq!(m.eval(f, &asg), a == b, "x={a}, y={b}");
            }
        }
        let partial = Valuation::from_iter([(x, Value::from(1))]);
        assert_eq!(
            enc.encode_valuation(&partial).unwrap_err(),
            BddError::UnknownVar(y)
        );
        let outside = Valuation::from_iter([(x, Value::from(9)), (y, Value::from(1))]);
        assert_eq!(
            enc.encode_valuation(&outside).unwrap_err(),
            BddError::ValueOutOfDomain(x, Value::from(9))
        );
    }
}
