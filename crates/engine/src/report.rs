//! `EXPLAIN ANALYZE`: per-operator execution reports.
//!
//! Where [`crate::plan::Plan::render_tree`] shows the *static* optimized
//! plan, the types here capture what actually happened when a query ran:
//! per-operator input/output cardinalities, selectivity, wall-clock
//! time, the hash join's build-side choice, and (on the c-/pc-table
//! paths) how many rows condition simplification pruned. A
//! [`QueryReport`] bundles the operator tree with whole-query totals,
//! the optimizer's pass count, and — for probabilistic answering — the
//! BDD manager's counters ([`ipdb_prob::BddStats`]).
//!
//! Timing is **inclusive**: each operator's clock starts before its
//! children evaluate and stops when its own output batch is ready, so a
//! node's `ns` always covers its subtree and the tree-wide sum of
//! [`OpReport::exclusive_ns`] equals the root's inclusive time exactly.
//!
//! The evaluators are generic over a [`TraceSink`], which sees one
//! `enter`/`exit` pair per operator. [`NoTrace`] is the zero-sized sink
//! of every plain execution: after monomorphization it reads no clock,
//! formats no label, allocates nothing and bumps no counter.
//! [`ReportSink`] builds the [`OpReport`] tree.

use std::fmt;
use std::time::Instant;

use ipdb_prob::BddStats;
use ipdb_rel::Query;

use crate::optimize::OptimizeStats;
use crate::parser::render_pred_string;

/// Receives what each operator of an executing query did. The
/// evaluators call [`TraceSink::enter`] before an operator evaluates its
/// children and [`TraceSink::exit`] once its output is ready, so calls
/// nest like the query tree and children exit before their parent.
pub trait TraceSink {
    /// What `enter` hands to the matching `exit`.
    type Mark;

    /// An operator starts (before its children evaluate).
    fn enter(&mut self) -> Self::Mark;

    /// Operator `q` finished with an output of `arity` columns and
    /// `rows_out` rows, after condition pruning removed `rows_pruned`
    /// rows; `build_left` is the hash join's build side.
    fn exit(
        &mut self,
        mark: Self::Mark,
        q: &Query,
        arity: usize,
        rows_out: u64,
        rows_pruned: u64,
        build_left: Option<bool>,
    );
}

/// The sink that records nothing: plain execution.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoTrace;

impl TraceSink for NoTrace {
    type Mark = ();

    fn enter(&mut self) {}

    fn exit(&mut self, _: (), _: &Query, _: usize, _: u64, _: u64, _: Option<bool>) {}
}

/// The `EXPLAIN ANALYZE` sink: builds the [`OpReport`] tree with
/// inclusive timings, and adds pruned rows to the `prune.rows` counter
/// when metrics are enabled.
#[derive(Debug, Default)]
pub struct ReportSink {
    /// Finished subtrees whose parent has not exited yet, in
    /// evaluation order.
    done: Vec<OpReport>,
}

impl ReportSink {
    /// The root of the executed operator tree.
    pub fn finish(mut self) -> OpReport {
        self.done.pop().unwrap_or_default()
    }
}

impl TraceSink for ReportSink {
    /// The operator's start time and the index of its first child.
    type Mark = (Instant, usize);

    fn enter(&mut self) -> Self::Mark {
        (Instant::now(), self.done.len())
    }

    fn exit(
        &mut self,
        (t0, first_child): Self::Mark,
        q: &Query,
        arity: usize,
        rows_out: u64,
        rows_pruned: u64,
        build_left: Option<bool>,
    ) {
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let children = self.done.split_off(first_child);
        if rows_pruned > 0 && ipdb_obs::enabled() {
            ipdb_obs::add("prune.rows", rows_pruned);
        }
        let rows_in = if children.is_empty() {
            rows_out
        } else {
            children.iter().map(|c| c.rows_out).sum()
        };
        self.done.push(OpReport {
            label: query_label(q),
            arity,
            rows_in,
            rows_out,
            rows_pruned,
            ns,
            build_left,
            children,
        });
    }
}

/// What one operator of an executed query did: cardinalities, timing,
/// and operator-specific annotations, with child operators nested
/// beneath it in plan order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpReport {
    /// Operator label, same vocabulary as `Plan::render_tree` (`join[…]`,
    /// `sigma[…]`, `pi[…]`, `x`, `union`, `V`, `lit …`).
    pub label: String,
    /// Output arity of the operator.
    pub arity: usize,
    /// Rows fed into the operator — the sum of its children's
    /// `rows_out`; for leaves (scans/literals) equal to `rows_out`.
    pub rows_in: u64,
    /// Rows the operator produced.
    pub rows_out: u64,
    /// Rows discarded by condition simplification (`simplified()` +
    /// `without_false_rows()`) right after this operator — always 0 on
    /// the instance path, where tuples carry no conditions.
    pub rows_pruned: u64,
    /// Inclusive wall-clock nanoseconds: this operator *and* its
    /// children (see the module docs).
    pub ns: u64,
    /// For hash joins: `Some(true)` if the left input was the build
    /// side, `Some(false)` for the right. `None` for every other
    /// operator and for joins that fell back to product + filter.
    pub build_left: Option<bool>,
    /// Child operator reports, in plan order (left before right).
    pub children: Vec<OpReport>,
}

impl OpReport {
    /// `rows_out / rows_in`, or `None` for a leaf with no input rows.
    pub fn selectivity(&self) -> Option<f64> {
        (self.rows_in > 0).then(|| self.rows_out as f64 / self.rows_in as f64)
    }

    /// Nanoseconds spent in this operator alone: inclusive time minus
    /// the children's inclusive time (saturating, in case clock
    /// granularity makes a child appear longer than its parent).
    pub fn exclusive_ns(&self) -> u64 {
        self.ns
            .saturating_sub(self.children.iter().map(|c| c.ns).sum())
    }

    /// Sum of [`OpReport::exclusive_ns`] over the whole subtree. By the
    /// inclusive-timing construction this equals `self.ns` up to the
    /// saturation in `exclusive_ns`, which is what makes the rendered
    /// per-operator times add up to the reported total.
    pub fn total_exclusive_ns(&self) -> u64 {
        self.exclusive_ns()
            + self
                .children
                .iter()
                .map(OpReport::total_exclusive_ns)
                .sum::<u64>()
    }

    /// Number of operators in the subtree (including this one).
    pub fn node_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(OpReport::node_count)
            .sum::<usize>()
    }

    fn render_into(&self, indent: usize, out: &mut String) {
        use std::fmt::Write as _;
        for _ in 0..indent {
            out.push_str("  ");
        }
        let _ = write!(
            out,
            "{}  (arity {}) rows: {} -> {}",
            self.label, self.arity, self.rows_in, self.rows_out
        );
        if let Some(sel) = self.selectivity() {
            let _ = write!(out, " (sel {sel:.3})");
        }
        let _ = write!(out, "  time: {}", fmt_ns(self.ns));
        if !self.children.is_empty() {
            let _ = write!(out, " (self {})", fmt_ns(self.exclusive_ns()));
        }
        if let Some(build_left) = self.build_left {
            let _ = write!(out, "  build={}", if build_left { "left" } else { "right" });
        }
        if self.rows_pruned > 0 {
            let _ = write!(out, "  pruned={}", self.rows_pruned);
        }
        out.push('\n');
        for c in &self.children {
            c.render_into(indent + 1, out);
        }
    }
}

/// The full `EXPLAIN ANALYZE` result for one query execution: the
/// annotated operator tree plus whole-query context.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryReport {
    /// Which backend ran the query (`"instance"`, `"c-table"`,
    /// `"pc-table"`).
    pub backend: &'static str,
    /// The executed operator tree, annotated.
    pub root: OpReport,
    /// End-to-end nanoseconds as measured by the caller — covers the
    /// operator tree *plus* final result materialization, so it is
    /// always ≥ `root.ns`.
    pub total_ns: u64,
    /// What the plan optimizer did when the query was prepared.
    pub optimize: OptimizeStats,
    /// BDD manager counters, present only on the probabilistic
    /// (`answer_dist_catalog_analyzed`) path.
    pub bdd: Option<BddStats>,
}

impl QueryReport {
    /// Renders the report: an `EXPLAIN ANALYZE` header with totals and
    /// optimizer stats, the annotated operator tree, and — when present
    /// — a BDD statistics trailer.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "EXPLAIN ANALYZE (backend: {}, total: {}, optimizer: {} pass{}{})",
            self.backend,
            fmt_ns(self.total_ns),
            self.optimize.passes,
            if self.optimize.passes == 1 { "" } else { "es" },
            if self.optimize.converged {
                ", converged"
            } else {
                ", NOT converged"
            },
        );
        self.root.render_into(0, &mut out);
        if let Some(b) = &self.bdd {
            let _ = writeln!(
                out,
                "bdd: {} nodes ({} peak live), unique table {} hit / {} miss, \
                 apply cache {} hit / {} miss, {} wmc calls",
                b.nodes_allocated,
                b.peak_live_nodes,
                b.unique_hits,
                b.unique_misses,
                b.apply_cache_hits,
                b.apply_cache_misses,
                b.wmc_calls,
            );
        }
        out
    }
}

impl fmt::Display for OpReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.render_into(0, &mut out);
        f.write_str(&out)
    }
}

impl fmt::Display for QueryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Human-scale duration: `ns` up to 10µs, then `µs`/`ms`/`s`.
pub(crate) fn fmt_ns(ns: u64) -> String {
    if ns < 10_000 {
        format!("{ns}ns")
    } else if ns < 10_000_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

/// The operator label for a query node — same vocabulary as
/// `Plan::render_tree`, but over the executed [`Query`] (the executors
/// run compiled queries, not plans).
fn query_label(q: &Query) -> String {
    match q {
        Query::Input => "V".to_string(),
        Query::Second => "W".to_string(),
        Query::Rel(name) => name.clone(),
        Query::Lit(i) => format!("lit {i}"),
        Query::Project(cols, _) => format!("pi{cols:?}"),
        Query::Select(p, _) => format!("sigma[{}]", render_pred_string(p)),
        Query::Product(..) => "x".to_string(),
        Query::Join { on, residual, .. } => {
            let keys = on
                .iter()
                .map(|(i, j)| format!("#{i}=#{j}"))
                .collect::<Vec<_>>()
                .join(",");
            match residual {
                Some(p) => format!("join[{keys}; {}]", render_pred_string(p)),
                None => format!("join[{keys}]"),
            }
        }
        Query::Union(..) => "union".to_string(),
        Query::Diff(..) => "diff".to_string(),
        Query::Intersect(..) => "intersect".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(label: &str, rows: u64, ns: u64) -> OpReport {
        OpReport {
            label: label.to_string(),
            arity: 2,
            rows_in: rows,
            rows_out: rows,
            rows_pruned: 0,
            ns,
            build_left: None,
            children: Vec::new(),
        }
    }

    fn sample() -> OpReport {
        OpReport {
            label: "join[#1=#2]".to_string(),
            arity: 4,
            rows_in: 30,
            rows_out: 12,
            rows_pruned: 2,
            ns: 10_000,
            build_left: Some(true),
            children: vec![leaf("V", 10, 3_000), leaf("W", 20, 4_000)],
        }
    }

    #[test]
    fn exclusive_times_sum_to_inclusive_root() {
        let r = sample();
        assert_eq!(r.exclusive_ns(), 3_000);
        assert_eq!(r.total_exclusive_ns(), r.ns);
        assert_eq!(r.node_count(), 3);
        assert_eq!(r.selectivity(), Some(0.4));
        assert_eq!(leaf("V", 0, 1).selectivity(), None);
    }

    #[test]
    fn exclusive_ns_saturates_on_clock_skew() {
        let mut r = sample();
        r.ns = 1; // children appear longer than the parent
        assert_eq!(r.exclusive_ns(), 0);
        assert_eq!(r.total_exclusive_ns(), 7_000);
    }

    #[test]
    fn render_annotates_tree_and_header() {
        let report = QueryReport {
            backend: "instance",
            root: sample(),
            total_ns: 15_000,
            optimize: OptimizeStats {
                passes: 2,
                converged: true,
            },
            bdd: None,
        };
        let text = report.render();
        assert!(text.starts_with(
            "EXPLAIN ANALYZE (backend: instance, total: 15.0us, optimizer: 2 passes, converged)"
        ));
        assert!(text.contains("join[#1=#2]  (arity 4) rows: 30 -> 12 (sel 0.400)"));
        assert!(text.contains("build=left"));
        assert!(text.contains("pruned=2"));
        assert!(text.contains("\n  V  (arity 2)"));
        assert_eq!(text, report.to_string());
    }

    #[test]
    fn render_includes_bdd_trailer_when_present() {
        let report = QueryReport {
            backend: "pc-table",
            root: leaf("V", 3, 500),
            total_ns: 900,
            optimize: OptimizeStats {
                passes: 1,
                converged: true,
            },
            bdd: Some(BddStats {
                nodes_allocated: 40,
                unique_hits: 7,
                unique_misses: 40,
                apply_cache_hits: 5,
                apply_cache_misses: 11,
                peak_live_nodes: 42,
                wmc_calls: 3,
            }),
        };
        let text = report.render();
        assert!(text.contains("optimizer: 1 pass,"));
        assert!(text.contains(
            "bdd: 40 nodes (42 peak live), unique table 7 hit / 40 miss, \
             apply cache 5 hit / 11 miss, 3 wmc calls"
        ));
    }

    #[test]
    fn fmt_ns_picks_scale() {
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(25_500), "25.5us");
        assert_eq!(fmt_ns(12_000_000), "12.0ms");
        assert_eq!(fmt_ns(10_500_000_000), "10.50s");
    }

    #[test]
    fn query_labels_match_plan_vocabulary() {
        use ipdb_rel::{Pred, Query};
        assert_eq!(query_label(&Query::Input), "V");
        assert_eq!(query_label(&Query::project(Query::Input, vec![0])), "pi[0]");
        let j = Query::join(
            Query::Input,
            Query::Second,
            [(0, 2)],
            Some(Pred::neq_cols(0, 3)),
        );
        let label = query_label(&j);
        assert!(label.starts_with("join[#0=#2; "), "got {label}");
    }
}
