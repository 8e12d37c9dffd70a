//! Per-operator tracing hooks shared by every query evaluator.
//!
//! An evaluator is generic over a [`TraceSink`], which sees one
//! `enter`/`exit` pair per operator. [`NoTrace`] is the zero-sized sink
//! of every plain execution: after monomorphization it reads no clock,
//! formats no label, allocates nothing and bumps no counter. The
//! `EXPLAIN ANALYZE` sink that builds an operator tree lives in
//! `ipdb-engine`.

use crate::query::Query;

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
    /// `rows_out` rows; `build` is what a hash join built.
    fn exit(
        &mut self,
        mark: Self::Mark,
        q: &Query,
        arity: usize,
        rows_out: u64,
        build: Option<JoinBuild>,
    );
}

/// A hash join's build side and where its index came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinBuild {
    /// Whether the left input was the build side.
    pub left: bool,
    /// Whether the index was reused from a stored relation
    /// ([`ColumnarInstance::join_index`](crate::ColumnarInstance::join_index))
    /// rather than built for this query.
    pub reused: bool,
}

/// The sink that records nothing: plain execution.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoTrace;

impl TraceSink for NoTrace {
    type Mark = ();

    fn enter(&mut self) {}

    fn exit(&mut self, _: (), _: &Query, _: usize, _: u64, _: Option<JoinBuild>) {}
}
