//! The `EXPLAIN ANALYZE` differential oracle.
//!
//! Instrumented execution must be a **pure observer**: for random RA
//! queries, `execute_catalog_analyzed` (and its pc-table variant
//! `answer_dist_catalog_analyzed`) returns *exactly* the output of the
//! uninstrumented path — single inputs run as `{V: input}` catalogs — on all
//! three backends, across thread counts and morsel sizes, with metrics
//! recording both off and on — and the [`QueryReport`] it attaches is
//! internally consistent:
//!
//! * the operator tree mirrors the executed query node for node;
//! * every operator's `rows_out` is exact (the root's equals the
//!   answer's cardinality) and `rows_in` is the sum of its children's
//!   outputs;
//! * timing is properly nested — children's inclusive clocks fit inside
//!   the parent's, and summing exclusive times over the tree
//!   reconstructs the root's inclusive time exactly.
//!
//! Run counts are deliberately modest for CI; soak with
//! `PROPTEST_CASES=256 cargo test -p ipdb-engine --test analyze_oracle`
//! (the vendored proptest honors the env override globally).

use proptest::prelude::*;

use ipdb_engine::{Catalog, Engine, ExecConfig, OpReport};
use ipdb_logic::Var;
use ipdb_prob::{FiniteSpace, PcTable, Rat};
use ipdb_rel::strategies::{arb_instance, arb_query};
use ipdb_rel::Value;
use ipdb_tables::strategies::arb_finite_ctable;
use ipdb_tables::CTable;

/// (threads, morsel_rows) grid for the instance-backend sweep —
/// serial, oversubscribed, and tiny-morsel corners.
const EXEC_SWEEP: [(usize, usize); 5] = [(1, 1024), (2, 1), (2, 64), (8, 7), (8, 1024)];

/// Uniform distributions over each variable's domain, making the
/// c-table a pc-table.
fn uniform_pctable(t: &CTable) -> PcTable<Rat> {
    let dists: Vec<(Var, FiniteSpace<Value, Rat>)> = t
        .domains()
        .iter()
        .map(|(v, dom)| {
            let n = dom.len() as i128;
            let d = FiniteSpace::new(dom.iter().map(|val| (val.clone(), Rat::new(1, n))))
                .expect("uniform masses sum to 1");
            (*v, d)
        })
        .collect();
    PcTable::new(t.clone(), dists).expect("every variable has a distribution")
}

/// Structural consistency of one report tree: exact cardinality
/// accounting and properly nested inclusive timing.
fn check_report(root: &OpReport) -> Result<(), proptest::test_runner::TestCaseError> {
    if !root.children.is_empty() {
        let in_sum: u64 = root.children.iter().map(|c| c.rows_out).sum();
        prop_assert_eq!(root.rows_in, in_sum, "rows_in must sum children");
        let child_ns: u64 = root.children.iter().map(|c| c.ns).sum();
        prop_assert!(
            child_ns <= root.ns,
            "children's clocks ({child_ns}ns) exceed the parent's ({}ns)",
            root.ns
        );
    }
    prop_assert_eq!(
        root.total_exclusive_ns(),
        root.ns,
        "exclusive times must sum back to the inclusive root time"
    );
    for c in &root.children {
        check_report(c)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Instance backend: `execute_catalog_analyzed` equals
    /// `execute_catalog_cfg` (and `execute`) for every sweep
    /// configuration, metrics off and on, and the report is consistent.
    #[test]
    fn analyzed_instance_matches_plain_across_configs(
        q in arb_query(2, 2, 3, 3),
        i in arb_instance(2, 6, 3),
    ) {
        let stmt = Engine::new().prepare(&q, 2).unwrap();
        let expected = stmt.execute(&i).unwrap();
        let cat: Catalog<_> = [("V", i)].into_iter().collect();
        for (threads, morsel_rows) in EXEC_SWEEP {
            for metrics in [false, true] {
                let cfg = ExecConfig { threads, morsel_rows, metrics };
                prop_assert_eq!(
                    stmt.execute_catalog_cfg(&cat, &cfg).unwrap(),
                    expected.clone(),
                    "uninstrumented run diverged at threads={} morsel={}", threads, morsel_rows
                );
                let (out, report) = stmt.execute_catalog_analyzed(&cat, &cfg).unwrap();
                prop_assert_eq!(
                    out.clone(),
                    expected.clone(),
                    "analyzed run diverged at threads={} morsel={} metrics={} on {}",
                    threads, morsel_rows, metrics, q
                );
                prop_assert_eq!(report.backend, "instance");
                prop_assert_eq!(report.root.rows_out, out.len() as u64);
                prop_assert!(report.root.ns <= report.total_ns);
                prop_assert_eq!(report.optimize, stmt.optimize_stats());
                check_report(&report.root)?;
            }
        }
    }

    /// C-table backend: the traced pruning executor returns exactly the
    /// untraced executor's table, and reports consistently.
    #[test]
    fn analyzed_ctable_matches_plain(
        q in arb_query(2, 2, 3, 3),
        t in arb_finite_ctable(2, 3, 3, 2),
    ) {
        let stmt = Engine::new().prepare(&q, 2).unwrap();
        let expected = stmt.execute(&t).unwrap();
        let cat: Catalog<_> = [("V", t)].into_iter().collect();
        let (out, report) = stmt.execute_catalog_analyzed(&cat, &ExecConfig::from_env()).unwrap();
        prop_assert_eq!(&out, &expected, "analyzed c-table run diverged on {}", q);
        prop_assert_eq!(report.backend, "c-table");
        prop_assert_eq!(report.root.rows_out, out.rows().len() as u64);
        check_report(&report.root)?;
    }

    /// Pc-table backend: the analyzed distribution equals the plain BDD
    /// fast path's, and the attached BDD counters reflect real work.
    #[test]
    fn analyzed_answer_dist_matches_plain(
        q in arb_query(2, 2, 3, 3),
        t in arb_finite_ctable(2, 2, 2, 1),
    ) {
        let pc = uniform_pctable(&t);
        let stmt = Engine::new().prepare(&q, 2).unwrap();
        let expected = stmt.answer_dist(&pc).unwrap();
        let cat: Catalog<_> = [("V", pc)].into_iter().collect();
        let (dist, report) = stmt.answer_dist_catalog_analyzed(&cat).unwrap();
        prop_assert_eq!(&dist, &expected, "analyzed answer_dist diverged on {}", q);
        prop_assert_eq!(report.backend, "pc-table");
        let bdd = report.bdd.expect("probabilistic reports carry BDD stats");
        // One WMC call per candidate tuple; zero-probability candidates
        // are counted but dropped from the distribution.
        prop_assert!(bdd.wmc_calls >= dist.len() as u64);
        check_report(&report.root)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Catalog form on the instance backend: analyzed equals plain for
    /// every configuration.
    #[test]
    fn analyzed_catalog_matches_plain_across_configs(
        q in arb_query(2, 2, 3, 3),
        i in arb_instance(2, 6, 3),
    ) {
        use ipdb_rel::Instance;
        let stmt = Engine::new().prepare(&q, 2).unwrap();
        let cat: Catalog<Instance> = [("V", i.clone())].into_iter().collect();
        let expected = stmt.execute_catalog(&cat).unwrap();
        for (threads, morsel_rows) in EXEC_SWEEP {
            let cfg = ExecConfig { threads, morsel_rows, metrics: false };
            let (out, report) = stmt.execute_catalog_analyzed(&cat, &cfg).unwrap();
            prop_assert_eq!(
                out,
                expected.clone(),
                "analyzed catalog run diverged at threads={} morsel={}", threads, morsel_rows
            );
            check_report(&report.root)?;
        }
    }
}
