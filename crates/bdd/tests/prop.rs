//! Property tests: compiled conditions agree with condition semantics,
//! the counting operations agree with brute force, and the finite-domain
//! encoding agrees with enumeration. Boolean conditions compile through
//! the encoding with `{false, true}` domains.

use std::collections::BTreeMap;

use proptest::prelude::*;

use ipdb_bdd::{BddManager, FdEncoding, NodeRef};
use ipdb_logic::strategies::{arb_boolean_condition, arb_condition};
use ipdb_logic::{sat, Condition, Valuation, Var};
use ipdb_rel::{Domain, Value};

const NVARS: u32 = 4;

fn all_assignments(n: u32) -> impl Iterator<Item = Vec<bool>> {
    (0..(1u32 << n)).map(move |bits| (0..n).map(|i| (bits >> i) & 1 == 1).collect())
}

/// Compiles `c` under the ladder encoding of its variables, each over
/// `domain`.
fn compile_over(m: &mut BddManager, c: &Condition, domain: &[Value]) -> (FdEncoding, NodeRef) {
    let enc = FdEncoding::new(c.vars().into_iter().map(|v| (v, domain.to_vec()))).unwrap();
    let f = enc.compile(m, c).unwrap();
    (enc, f)
}

/// [`compile_over`] with `{false, true}` domains; also returns those
/// boolean domains.
fn compile_boolean(
    m: &mut BddManager,
    c: &Condition,
) -> (FdEncoding, NodeRef, BTreeMap<Var, Domain>) {
    let (enc, f) = compile_over(m, c, &[Value::Bool(false), Value::Bool(true)]);
    let doms = c.vars().into_iter().map(|v| (v, Domain::bools())).collect();
    (enc, f, doms)
}

/// The valuation a raw assignment decodes to: blocks of `d − 1` levels
/// in ascending variable order, each decoding to the value of its first
/// set level, or to its last value when none is set.
fn decode(enc: &FdEncoding, asg: &[bool]) -> Valuation {
    let mut base = 0;
    Valuation::from_iter(enc.vars().map(|v| {
        let dom = enc.domain(v).unwrap();
        let levels = &asg[base..base + dom.len() - 1];
        base += levels.len();
        let i = levels.iter().position(|b| *b).unwrap_or(levels.len());
        (v, dom[i].clone())
    }))
}

/// The integer domain `{0, 1, 2}` of the multi-valued properties.
fn int_domain() -> Vec<Value> {
    (0..=2i64).map(Value::from).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn compiled_bdd_agrees_with_eval(c in arb_boolean_condition(NVARS, 3)) {
        let mut m = BddManager::new();
        let (enc, f, doms) = compile_boolean(&mut m, &c);
        for nu in Valuation::all_over(&doms) {
            let asg = enc.encode_valuation(&nu).unwrap();
            prop_assert_eq!(m.eval(f, &asg), c.eval(&nu).unwrap(), "valuation {}", nu);
        }
    }

    /// A `{false, true}` variable takes one level, so raw assignments and
    /// valuations correspond one to one: `f` has exactly one model per
    /// satisfying valuation.
    #[test]
    fn bdd_sat_count_matches_logic_count(c in arb_boolean_condition(NVARS, 3)) {
        let mut m = BddManager::new();
        let (enc, f, doms) = compile_boolean(&mut m, &c);
        prop_assert_eq!(
            m.sat_count(f, enc.nvars()).unwrap(),
            sat::count_models(&c, &doms).unwrap()
        );
    }

    /// Uniform weights turn WMC into model counting: the count under
    /// the encoding's weights is the fraction of satisfying valuations,
    /// and the count under `(½, ½)` per level is the fraction of
    /// satisfying raw assignments.
    #[test]
    fn wmc_uniform_weights_match_sat_count(c in arb_boolean_condition(NVARS, 3)) {
        let mut m = BddManager::new();
        let (enc, f, doms) = compile_boolean(&mut m, &c);
        let weights = enc
            .weights_from(doms.keys().flat_map(|v| {
                [(*v, Value::Bool(false), 0.5f64), (*v, Value::Bool(true), 0.5)]
            }))
            .unwrap();
        let p = m.wmc(f, &weights).unwrap();
        let models = m.sat_count(f, enc.nvars()).unwrap() as f64;
        prop_assert!((p - models / (1u128 << doms.len()) as f64).abs() < 1e-12);
        let n = enc.nvars();
        let raw = m.wmc(f, &vec![(0.5f64, 0.5f64); n as usize]).unwrap();
        let frac = m.sat_count(f, n).unwrap() as f64 / (1u128 << n) as f64;
        prop_assert!((raw - frac).abs() < 1e-12);
    }

    /// The finite-domain encoding agrees with plain condition evaluation
    /// on every valuation of the variables over their domains.
    #[test]
    fn fd_encoding_agrees_with_eval(c in arb_condition(3, 2, 3)) {
        let domain = int_domain();
        let mut m = BddManager::new();
        let (enc, f) = compile_over(&mut m, &c, &domain);
        let doms: BTreeMap<Var, Domain> =
            c.vars().into_iter().map(|v| (v, Domain::ints(0..=2))).collect();
        for nu in Valuation::all_over(&doms) {
            let asg = enc.encode_valuation(&nu).unwrap();
            prop_assert_eq!(m.eval(f, &asg), c.eval(&nu).unwrap(), "valuation {}", nu);
        }
    }

    /// WMC over uniform weights equals the model fraction computed by
    /// the logic crate's enumeration counter.
    #[test]
    fn fd_wmc_matches_enumeration(c in arb_condition(3, 2, 3)) {
        let nvars = c.vars().len() as u32;
        let domain = int_domain();
        let mut m = BddManager::new();
        let (enc, f) = compile_over(&mut m, &c, &domain);
        let weights = enc
            .weights_from(
                c.vars()
                    .into_iter()
                    .flat_map(|v| domain.iter().map(move |val| (v, val.clone(), 1.0 / 3.0))),
            )
            .unwrap();
        let p = m.wmc(f, &weights).unwrap();
        let doms: BTreeMap<Var, Domain> =
            c.vars().into_iter().map(|v| (v, Domain::ints(0..=2))).collect();
        let models = sat::count_models(&c, &doms).unwrap() as f64;
        let frac = models / 3f64.powi(nvars as i32);
        prop_assert!((p - frac).abs() < 1e-9, "wmc {} vs fraction {}", p, frac);
    }

    /// Over multi-valued domains every raw assignment decodes to exactly
    /// one valuation (per block, the first level set, else the last
    /// value), and the compiled function agrees with the condition on
    /// it; so counting satisfying valuations through the encoding gives
    /// the logic crate's model count.
    #[test]
    fn fd_sat_count_matches_logic_count(c in arb_condition(3, 2, 3)) {
        let domain = int_domain();
        let mut m = BddManager::new();
        let (enc, f) = compile_over(&mut m, &c, &domain);
        for asg in all_assignments(enc.nvars()) {
            let nu = decode(&enc, &asg);
            prop_assert_eq!(m.eval(f, &asg), c.eval(&nu).unwrap(), "valuation {}", nu);
        }
        let doms: BTreeMap<Var, Domain> =
            c.vars().into_iter().map(|v| (v, Domain::ints(0..=2))).collect();
        let mut satisfying = 0u128;
        for nu in Valuation::all_over(&doms) {
            satisfying += u128::from(m.eval(f, &enc.encode_valuation(&nu).unwrap()));
        }
        prop_assert_eq!(satisfying, sat::count_models(&c, &doms).unwrap());
    }

    #[test]
    fn restrict_agrees_with_semantics(c in arb_boolean_condition(2, 3)) {
        let mut m = BddManager::new();
        let (enc, f, _) = compile_boolean(&mut m, &c);
        let n = enc.nvars();
        if n == 0 {
            return Ok(());
        }
        // Restrict level 0 to true; must agree with eval forcing it.
        let g = m.restrict(f, 0, true);
        for asg in all_assignments(n) {
            let mut forced = asg.clone();
            forced[0] = true;
            prop_assert_eq!(m.eval(g, &asg), m.eval(f, &forced));
        }
    }
}
