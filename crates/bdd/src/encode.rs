//! Finite-domain encoding: multi-valued conditions over Boolean BDDs.
//!
//! The conditions of general (p)c-tables (§2, §8) compare variables with
//! *arbitrary* constants and with each other — not just with `true` /
//! `false` — so a variable cannot simply be one BDD variable.
//! [`FdEncoding`] uses the standard one-hot (direct) encoding from
//! knowledge compilation instead: a variable `x` with
//! finite domain `{v₁, …, v_d}` becomes a block of `d` Boolean
//! *indicator* variables, indicator `i` meaning `x = vᵢ`, guarded by the
//! per-block **domain-consistency constraint** "exactly one indicator is
//! true". Boolean conditions are the special case of `{false, true}`
//! domains.
//!
//! Weighted model counting then recovers `P[φ]` for a pc-table condition
//! exactly: give indicator `(x, vᵢ)` the branch weights
//! `(w_false, w_true) = (1, P[x = vᵢ])` and count `φ ∧ consistency`.
//! Every consistent assignment selects one value per variable and
//! carries weight `Π_x P[x = value]`, which is precisely the §8 product
//! space; inconsistent assignments are excluded by the constraint.
//!
//! Why the generic [`BddManager::wmc`] skip-scaling is exact here even
//! though the indicator weight pairs do not sum to 1: with the
//! consistency constraint conjoined for *every* block, any restriction
//! of the function that is not identically false still depends on every
//! unassigned indicator (flipping one indicator of a block always breaks
//! exactly-one), so the ROBDD skips levels only on edges into the FALSE
//! terminal — whose contribution is zero regardless of the scaling.
//!
//! ```
//! use ipdb_bdd::{BddManager, FdEncoding};
//! use ipdb_logic::{Condition, Var};
//! use ipdb_rel::Value;
//!
//! // x uniform over {1, 2, 3}; φ = (x ≠ 2).
//! let x = Var(0);
//! let mut m = BddManager::new();
//! let enc = FdEncoding::new(
//!     &mut m,
//!     [(x, vec![Value::from(1), Value::from(2), Value::from(3)])],
//! )
//! .unwrap();
//! let f = enc.compile(&mut m, &Condition::neq_vc(x, 2)).unwrap();
//! let weights = enc
//!     .weights_from([
//!         (x, Value::from(1), 0.25f64),
//!         (x, Value::from(2), 0.5),
//!         (x, Value::from(3), 0.25),
//!     ])
//!     .unwrap();
//! assert_eq!(enc.wmc_with(&mut m, f, &weights).unwrap(), 0.5);
//! ```

use std::collections::BTreeMap;

use ipdb_logic::{Condition, Term, Valuation, Var};
use ipdb_rel::Value;

use crate::error::BddError;
use crate::manager::{BddManager, NodeRef, FALSE, TRUE};
use crate::weight::Weight;

/// One encoded variable: its first indicator index and its domain values
/// in canonical (ascending) order.
#[derive(Debug, Clone)]
struct Block {
    base: u32,
    values: Vec<Value>,
}

/// A one-hot encoding of finite-domain variables into Boolean BDD
/// variables, with the domain-consistency constraint cached.
///
/// The encoding is tied to the [`BddManager`] it was built with (the
/// consistency constraint lives in that manager's arena); all later
/// [`FdEncoding::compile`] / [`FdEncoding::wmc_with`] calls must use the
/// same manager.
#[derive(Debug, Clone)]
pub struct FdEncoding {
    blocks: BTreeMap<Var, Block>,
    nvars: u32,
    consistency: NodeRef,
}

impl FdEncoding {
    /// Builds the encoding: each `(variable, domain)` pair gets a block
    /// of one indicator per distinct domain value (values are sorted and
    /// deduplicated; blocks are laid out in ascending variable order).
    /// Errors on an empty domain — a variable with no possible value
    /// makes every condition vacuous.
    pub fn new(
        mgr: &mut BddManager,
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
            let d = values.len() as u32;
            blocks.insert(v, Block { base, values });
            base += d;
        }
        let nvars = base;
        // Exactly-one per block, conjoined. Built bottom-up from the last
        // indicator so `mk`'s ordering invariant holds by construction.
        let mut consistency = TRUE;
        for block in blocks.values().rev() {
            let d = block.values.len() as u32;
            // Linear exactly-one chain, seeded with the constraint of the
            // later blocks so the conjunction is built in one sweep:
            // one(i) = pick indicator i and none after, or skip it and
            // pick exactly one later.
            let mut one = FALSE;
            let mut none = consistency;
            for i in (0..d).rev() {
                let idx = block.base + i;
                let y = mgr.var(idx);
                let ny = mgr.nvar(idx);
                let pick = mgr.and(y, none);
                let skip = mgr.and(ny, one);
                one = mgr.or(pick, skip);
                none = mgr.and(ny, none);
            }
            consistency = one;
        }
        Ok(FdEncoding {
            blocks,
            nvars,
            consistency,
        })
    }

    /// Total number of Boolean (indicator) variables.
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

    /// The Boolean index of the indicator `x = value`, if both the
    /// variable and the value are encoded.
    pub fn indicator(&self, v: Var, value: &Value) -> Option<u32> {
        let block = self.blocks.get(&v)?;
        let i = block.values.binary_search(value).ok()?;
        Some(block.base + i as u32)
    }

    /// The conjoined exactly-one constraints of all blocks. Conjoin this
    /// with any compiled condition before counting over raw assignments;
    /// [`FdEncoding::wmc_with`] does so internally.
    pub fn consistency(&self) -> NodeRef {
        self.consistency
    }

    /// Compiles an arbitrary finite-domain condition: atoms may compare
    /// encoded variables with any [`Value`] or with each other.
    ///
    /// The result is meaningful on *consistent* assignments (one
    /// indicator per block); a constant outside a variable's domain
    /// compiles to the constant-false atom. Errors with
    /// [`BddError::UnknownVar`] on variables missing from the encoding.
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

    fn atom_eq(&self, mgr: &mut BddManager, a: &Term, b: &Term) -> Result<NodeRef, BddError> {
        match (a, b) {
            (Term::Const(u), Term::Const(v)) => Ok(mgr.constant(u == v)),
            (Term::Var(x), Term::Const(c)) | (Term::Const(c), Term::Var(x)) => {
                if !self.blocks.contains_key(x) {
                    return Err(BddError::UnknownVar(*x));
                }
                Ok(match self.indicator(*x, c) {
                    Some(idx) => mgr.var(idx),
                    // A constant outside dom(x) can never be x's value.
                    None => FALSE,
                })
            }
            (Term::Var(x), Term::Var(y)) => {
                let bx = self.blocks.get(x).ok_or(BddError::UnknownVar(*x))?;
                let by = self.blocks.get(y).ok_or(BddError::UnknownVar(*y))?;
                if x == y {
                    return Ok(TRUE);
                }
                // x = y ⇔ ⋁_{v ∈ dom(x) ∩ dom(y)} (x = v ∧ y = v).
                let mut acc = FALSE;
                for (i, v) in bx.values.iter().enumerate() {
                    if let Ok(j) = by.values.binary_search(v) {
                        let lx = mgr.var(bx.base + i as u32);
                        let ly = mgr.var(by.base + j as u32);
                        let both = mgr.and(lx, ly);
                        acc = mgr.or(acc, both);
                    }
                }
                Ok(acc)
            }
        }
    }

    /// Encodes a valuation of the encoded variables as a Boolean
    /// assignment (for evaluating compiled conditions with
    /// [`BddManager::eval`]). Every encoded variable must be bound to one
    /// of its domain values.
    pub fn encode_valuation(&self, nu: &Valuation) -> Result<Vec<bool>, BddError> {
        let mut asg = vec![false; self.nvars as usize];
        for v in self.blocks.keys() {
            let val = nu.get(*v).ok_or(BddError::UnknownVar(*v))?;
            let idx = self
                .indicator(*v, val)
                .ok_or_else(|| BddError::ValueOutOfDomain(*v, val.clone()))?;
            asg[idx as usize] = true;
        }
        Ok(asg)
    }

    /// Builds the Boolean branch-weight vector for the generic
    /// [`BddManager::wmc`] from a flat stream of
    /// `(variable, value, weight)` triples — the single home of the
    /// one-hot weight convention: indicator `(x, v)` gets
    /// `(w_false, w_true) = (1, w)`. Errors on triples naming unencoded
    /// variables or out-of-domain values, and if any indicator is left
    /// without a weight.
    pub fn weights_from<W: Weight>(
        &self,
        weights: impl IntoIterator<Item = (Var, Value, W)>,
    ) -> Result<Vec<(W, W)>, BddError> {
        let mut out: Vec<Option<(W, W)>> = vec![None; self.nvars as usize];
        for (v, val, w) in weights {
            if !self.blocks.contains_key(&v) {
                return Err(BddError::UnknownVar(v));
            }
            let idx = self
                .indicator(v, &val)
                .ok_or(BddError::ValueOutOfDomain(v, val))?;
            out[idx as usize] = Some((W::one(), w));
        }
        for (v, block) in &self.blocks {
            for (i, val) in block.values.iter().enumerate() {
                if out[block.base as usize + i].is_none() {
                    return Err(BddError::MissingValueWeight(*v, val.clone()));
                }
            }
        }
        Ok(out.into_iter().map(|o| o.expect("checked above")).collect())
    }

    /// Domain-aware weighted model count under a prebuilt Boolean weight
    /// vector (see [`FdEncoding::weights_from`]): counts
    /// `f ∧ consistency`, which over one-hot blocks equals
    /// `Σ_{ν ⊨ f} Π_x w_x(ν(x))` — for probability weights, exactly
    /// `P[f]`.
    pub fn wmc_with<W: Weight>(
        &self,
        mgr: &mut BddManager,
        f: NodeRef,
        boolean_weights: &[(W, W)],
    ) -> Result<W, BddError> {
        let g = mgr.and(f, self.consistency);
        mgr.wmc(g, boolean_weights)
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
        let mut m = BddManager::new();
        let enc = FdEncoding::new(
            &mut m,
            [(Var(3), ints(&[5, 1, 5, 3])), (Var(1), ints(&[7, 2]))],
        )
        .unwrap();
        assert_eq!(enc.nvars(), 5);
        // Var 1 first (ascending var order), values sorted + deduped.
        assert_eq!(enc.domain(Var(1)).unwrap(), &ints(&[2, 7])[..]);
        assert_eq!(enc.domain(Var(3)).unwrap(), &ints(&[1, 3, 5])[..]);
        assert_eq!(enc.indicator(Var(1), &Value::from(2)), Some(0));
        assert_eq!(enc.indicator(Var(1), &Value::from(7)), Some(1));
        assert_eq!(enc.indicator(Var(3), &Value::from(1)), Some(2));
        assert_eq!(enc.indicator(Var(3), &Value::from(9)), None);
    }

    #[test]
    fn empty_domain_rejected() {
        let mut m = BddManager::new();
        assert_eq!(
            FdEncoding::new(&mut m, [(Var(0), vec![])]).unwrap_err(),
            BddError::EmptyDomain(Var(0))
        );
    }

    #[test]
    fn consistency_counts_product_of_domain_sizes() {
        let mut m = BddManager::new();
        let enc = FdEncoding::new(
            &mut m,
            [(Var(0), ints(&[1, 2, 3])), (Var(1), ints(&[0, 1]))],
        )
        .unwrap();
        // Consistent assignments = 3 × 2 valuations.
        assert_eq!(m.sat_count(enc.consistency(), enc.nvars()).unwrap(), 6);
        // And they carry total probability 1 under any distribution.
        let w = uniform_weights(&enc);
        let p = enc.wmc_with(&mut m, TRUE, &w).unwrap();
        assert!((p - 1.0).abs() < 1e-12);
    }

    #[test]
    fn eq_and_neq_constants() {
        let x = Var(0);
        let mut m = BddManager::new();
        let enc = FdEncoding::new(&mut m, [(x, ints(&[1, 2, 3, 4]))]).unwrap();
        let w = uniform_weights(&enc);
        let eq = enc.compile(&mut m, &Condition::eq_vc(x, 2)).unwrap();
        assert!((enc.wmc_with(&mut m, eq, &w).unwrap() - 0.25).abs() < 1e-12);
        let neq = enc.compile(&mut m, &Condition::neq_vc(x, 2)).unwrap();
        assert!((enc.wmc_with(&mut m, neq, &w).unwrap() - 0.75).abs() < 1e-12);
        // Out-of-domain constants fold to false / true.
        let never = enc.compile(&mut m, &Condition::eq_vc(x, 9)).unwrap();
        assert_eq!(enc.wmc_with(&mut m, never, &w).unwrap(), 0.0);
        let always = enc.compile(&mut m, &Condition::neq_vc(x, 9)).unwrap();
        assert!((enc.wmc_with(&mut m, always, &w).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn eq_between_variables_over_shared_domain() {
        let (x, y) = (Var(0), Var(1));
        let mut m = BddManager::new();
        let enc = FdEncoding::new(&mut m, [(x, ints(&[1, 2, 3])), (y, ints(&[2, 3, 4]))]).unwrap();
        let w = uniform_weights(&enc);
        // P[x = y] over independent uniforms = |{2,3}| / 9.
        let f = enc.compile(&mut m, &Condition::eq_vv(x, y)).unwrap();
        let p = enc.wmc_with(&mut m, f, &w).unwrap();
        assert!((p - 2.0 / 9.0).abs() < 1e-12, "got {p}");
        let g = enc.compile(&mut m, &Condition::neq_vv(x, y)).unwrap();
        let q = enc.wmc_with(&mut m, g, &w).unwrap();
        assert!((q - 7.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn compound_conditions_match_hand_computation() {
        let (x, y) = (Var(0), Var(1));
        let mut m = BddManager::new();
        let enc = FdEncoding::new(&mut m, [(x, ints(&[0, 1])), (y, ints(&[0, 1]))]).unwrap();
        let w = uniform_weights(&enc);
        // (x = 0 ∨ y = 1) ∧ ¬(x = y): outcomes (0,0)✗, (0,1)✓, (1,0)✗, (1,1)✗.
        let c = Condition::and([
            Condition::or([Condition::eq_vc(x, 0), Condition::eq_vc(y, 1)]),
            Condition::Not(Box::new(Condition::eq_vv(x, y))),
        ]);
        let f = enc.compile(&mut m, &c).unwrap();
        assert!((enc.wmc_with(&mut m, f, &w).unwrap() - 0.25).abs() < 1e-12);
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
        // Finite-domain path over {false, true}.
        let bools = vec![Value::Bool(false), Value::Bool(true)];
        let mut m2 = BddManager::new();
        let enc = FdEncoding::new(&mut m2, [(a, bools.clone()), (b, bools)]).unwrap();
        let f2 = enc.compile(&mut m2, &c).unwrap();
        let w = enc
            .weights_from([
                (a, Value::Bool(false), 0.5f64),
                (a, Value::Bool(true), 0.5),
                (b, Value::Bool(false), 0.75),
                (b, Value::Bool(true), 0.25),
            ])
            .unwrap();
        let p2 = enc.wmc_with(&mut m2, f2, &w).unwrap();
        assert!((p1 - p2).abs() < 1e-12, "{p1} vs {p2}");
        assert!((p2 - 0.625).abs() < 1e-12);
    }

    #[test]
    fn unknown_var_and_missing_weight_error() {
        let x = Var(0);
        let mut m = BddManager::new();
        let enc = FdEncoding::new(&mut m, [(x, ints(&[1, 2]))]).unwrap();
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
        assert_eq!(full, vec![(1.0, 0.25), (1.0, 0.75)]);
    }

    #[test]
    fn encode_valuation_round_trips_through_eval() {
        let (x, y) = (Var(0), Var(1));
        let mut m = BddManager::new();
        let enc = FdEncoding::new(&mut m, [(x, ints(&[1, 2])), (y, ints(&[1, 2]))]).unwrap();
        let c = Condition::eq_vv(x, y);
        let f = enc.compile(&mut m, &c).unwrap();
        for (a, b) in [(1i64, 1i64), (1, 2), (2, 1), (2, 2)] {
            let nu = Valuation::from_iter([(x, Value::from(a)), (y, Value::from(b))]);
            let asg = enc.encode_valuation(&nu).unwrap();
            assert_eq!(m.eval(f, &asg), a == b, "x={a}, y={b}");
            // Every encoded valuation is consistent.
            assert!(m.eval(enc.consistency(), &asg));
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
