//! Pins the `prune.rows` counter. It lives in its own test binary so no
//! concurrently running test shares the global metrics registry.

use ipdb_engine::{Catalog, Engine, ExecConfig, OpReport, Schema};
use ipdb_logic::{Condition, VarGen};
use ipdb_tables::{t_const, t_var, CTable};

fn pruned_total(r: &OpReport) -> u64 {
    r.rows_pruned + r.children.iter().map(pruned_total).sum::<u64>()
}

#[test]
fn prune_counter_counts_analyzed_runs_only() {
    ipdb_obs::set_enabled(true);
    let counter = ipdb_obs::counter("prune.rows");

    // R − {(2)} folds the ground row (2)'s composed condition to false;
    // the variable row survives with condition x ≠ 2.
    let mut g = VarGen::new();
    let x = g.fresh();
    let r = CTable::builder(1)
        .row([t_const(1)], Condition::True)
        .row([t_const(2)], Condition::True)
        .row([t_var(x)], Condition::True)
        .build()
        .unwrap();
    let cat: Catalog<CTable> = [("R", r)].into_iter().collect();
    let stmt = Engine::new()
        .prepare_text_schema("R diff {(2)}", &Schema::new([("R", 1)]).unwrap())
        .unwrap();

    let before = counter.get();
    let (traced, report) = stmt
        .execute_catalog_analyzed(&cat, &ExecConfig::serial())
        .unwrap();
    let pruned = pruned_total(&report.root);
    assert!(pruned > 0, "the query must prune a row: {report:?}");
    assert_eq!(counter.get() - before, pruned);

    let before = counter.get();
    assert_eq!(stmt.execute_catalog(&cat).unwrap(), traced);
    assert_eq!(counter.get(), before, "plain execution records nothing");
}
