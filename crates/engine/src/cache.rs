//! The plan cache: an engine-level LRU of shared [`Prepared`]
//! statements.
//!
//! Preparing a statement (parse → schema check → optimizer fixpoint) is
//! the expensive per-request step a server pays before any tuple moves;
//! a traffic workload repeats the same handful of query texts, so
//! [`PlanCache`] memoizes [`Engine::prepare_text_schema`] behind a key
//! of two parts:
//!
//! * the **request text**, exactly as the client sent it. A hit is one
//!   lock and one map lookup, with no parse. Two spellings of one query
//!   are two entries holding equal statements;
//! * **and the [`Schema`]** — the same text prepared against different
//!   schemas yields different plans (different leaf arities, different
//!   optimizer decisions). Keying by text alone would hand a statement
//!   prepared for `{R:1}` to a request over `{R:2}`; the schema
//!   component is load-bearing, and `tests/cache_oracle.rs` pins the
//!   regression.
//!
//! Entries live in one map per schema, so the hot lookup borrows both
//! key parts and allocates nothing. Eviction is LRU by a monotonic touch
//! stamp, found by an O(entries) scan on each at-capacity miss. Misses
//! are not rare: on the benchmark's `serve_churn` trace (2048 query
//! texts against 256 entries) a quarter of reads miss. So the scan
//! compares stamps by reference and clones only the victim's key, and
//! evicted entries are freed after the cache mutex is released; a miss
//! then costs little beyond its parse and prepare. Entries are
//! `Arc<Prepared>`, so an evicted statement stays valid for requests
//! already holding it.
//!
//! Hit/miss totals are kept in local atomics (always on, race-free) and
//! mirrored into the global `ipdb-obs` registry as `serve.cache.hits` /
//! `serve.cache.misses` when metrics are [`ipdb_obs::enabled`].

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use ipdb_obs::Counter;
use ipdb_rel::Schema;

use crate::error::EngineError;
use crate::pipeline::{Engine, Prepared};

/// The `ipdb-obs` counter mirroring [`PlanCache::hits`].
pub const OBS_CACHE_HITS: &str = "serve.cache.hits";
/// The `ipdb-obs` counter mirroring [`PlanCache::misses`].
pub const OBS_CACHE_MISSES: &str = "serve.cache.misses";

/// One cached statement: the shared plan and its LRU touch stamp.
#[derive(Debug)]
struct Entry {
    plan: Arc<Prepared>,
    stamp: u64,
}

#[derive(Debug, Default)]
struct Inner {
    clock: u64,
    len: usize,
    /// Schema → request text → entry. No inner map is ever empty.
    entries: BTreeMap<Schema, BTreeMap<String, Entry>>,
}

impl Inner {
    fn touch(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Touches the entry for `(schema, text)` and returns its plan;
    /// `None` when no such entry is cached.
    fn hit(&mut self, schema: &Schema, text: &str) -> Option<Arc<Prepared>> {
        let stamp = self.touch();
        let entry = self.entries.get_mut(schema)?.get_mut(text)?;
        entry.stamp = stamp;
        Some(Arc::clone(&entry.plan))
    }

    /// The insert half of a miss: adopts the entry a racing miss on
    /// `(schema, text)` inserted first, or inserts `plan` and evicts the
    /// LRU entry if that went over `capacity`. Returns the plan to serve
    /// and the evicted entry, which the caller drops after releasing the
    /// lock.
    fn insert(
        &mut self,
        schema: &Schema,
        text: &str,
        plan: Arc<Prepared>,
        capacity: usize,
    ) -> (Arc<Prepared>, Option<Entry>) {
        if let Some(adopted) = self.hit(schema, text) {
            return (adopted, None);
        }
        let entry = Entry {
            plan: Arc::clone(&plan),
            stamp: self.touch(),
        };
        // Look the schema up by reference: only a new schema clones it.
        match self.entries.get_mut(schema) {
            Some(texts) => {
                texts.insert(text.to_string(), entry);
            }
            None => {
                let texts = BTreeMap::from([(text.to_string(), entry)]);
                self.entries.insert(schema.clone(), texts);
            }
        }
        self.len += 1;
        // `len <= capacity` held before this call added one entry, so
        // one eviction restores it; nothing loops on a failed one.
        let evicted = if self.len > capacity {
            self.evict_lru()
        } else {
            None
        };
        (plan, evicted)
    }

    /// Removes the least-recently-touched entry across all schemas and
    /// returns it. O(entries): stamps are compared by reference and only
    /// the victim's key is cloned.
    fn evict_lru(&mut self) -> Option<Entry> {
        let (schema, text) = self
            .entries
            .iter()
            .flat_map(|(schema, texts)| texts.iter().map(move |(text, e)| (e.stamp, schema, text)))
            .min_by_key(|&(stamp, _, _)| stamp)
            .map(|(_, schema, text)| (schema.clone(), text.clone()))?;
        let texts = self.entries.get_mut(&schema)?;
        let entry = texts.remove(&text)?;
        if texts.is_empty() {
            self.entries.remove(&schema);
        }
        self.len -= 1;
        Some(entry)
    }
}

/// A thread-safe LRU cache of prepared statements, keyed by
/// **(request text, [`Schema`])**. See the module docs for the design;
/// see [`PlanCache::prepare_text`] for the lookup protocol.
#[derive(Debug)]
pub struct PlanCache {
    capacity: usize,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    /// A cache holding at most `capacity` entries, one per (text,
    /// schema) key (`capacity` is clamped to at least 1).
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Maximum number of cached entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.lock().len
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total lookups answered from the cache since construction (or the
    /// last [`PlanCache::clear`]).
    pub fn hits(&self) -> u64 {
        // ORDERING: Relaxed — a monotonic statistic read on its own; no
        // other data is synchronized through it, and a count that lags a
        // concurrent lookup by one is indistinguishable from having read
        // a moment earlier.
        self.hits.load(Ordering::Relaxed)
    }

    /// Total lookups that had to run `prepare` since construction (or
    /// the last [`PlanCache::clear`]). Parse and check *errors* count as
    /// neither — nothing was cached or served.
    pub fn misses(&self) -> u64 {
        // ORDERING: Relaxed — same statistic-only contract as `hits`.
        self.misses.load(Ordering::Relaxed)
    }

    /// Drops every entry and zeroes the hit/miss counters.
    pub fn clear(&self) {
        *self.lock() = Inner::default();
        // ORDERING: Relaxed — the zeroing races benignly with concurrent
        // lookups (a count bumped around a clear lands on either side of
        // it); entry visibility is carried by the mutex above, never by
        // these counters.
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }

    /// The cached equivalent of [`Engine::prepare_text_schema`].
    ///
    /// Protocol: (1) one lock and one lookup of `(schema, text)` — a hit
    /// returns here; (2) on a miss, parse and prepare outside the lock,
    /// then insert (or adopt a racing insert of the same key), evicting
    /// the LRU entry over capacity, which is freed once the lock is
    /// released.
    pub fn prepare_text(
        &self,
        engine: &Engine,
        text: &str,
        schema: &Schema,
    ) -> Result<Arc<Prepared>, EngineError> {
        let hit = self.lock().hit(schema, text);
        if let Some(plan) = hit {
            self.record_hit();
            return Ok(plan);
        }
        // Miss: prepare outside the lock (two threads may race on the
        // same cold key and both prepare; the loser's work is identical
        // and the first insert wins).
        let plan = Arc::new(engine.prepare_text_schema(text, schema)?);
        let (plan, evicted) = self.lock().insert(schema, text, plan, self.capacity);
        // The guard is gone: freeing the evicted plan tree blocks no one.
        drop(evicted);
        self.record_miss();
        Ok(plan)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A panic while holding the lock can only come from allocation
        // failure mid-insert; the map structure itself is still sound,
        // so recover rather than poisoning every later request.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn record_hit(&self) {
        // ORDERING: Relaxed — atomicity keeps the tally exact under
        // concurrent bumps; nothing reads other data through it.
        self.hits.fetch_add(1, Ordering::Relaxed);
        if ipdb_obs::enabled() {
            static HITS: OnceLock<&'static Counter> = OnceLock::new();
            HITS.get_or_init(|| ipdb_obs::counter(OBS_CACHE_HITS))
                .incr();
        }
    }

    fn record_miss(&self) {
        // ORDERING: Relaxed — same exact-tally contract as `record_hit`.
        self.misses.fetch_add(1, Ordering::Relaxed);
        if ipdb_obs::enabled() {
            static MISSES: OnceLock<&'static Counter> = OnceLock::new();
            MISSES
                .get_or_init(|| ipdb_obs::counter(OBS_CACHE_MISSES))
                .incr();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipdb_rel::instance;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    fn engine() -> Engine {
        Engine::new()
    }

    #[test]
    fn hit_returns_the_same_arc_and_counts() {
        let cache = PlanCache::new(8);
        let schema = Schema::single(2);
        let a = cache
            .prepare_text(&engine(), "sigma[#0=1](V)", &schema)
            .unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let b = cache
            .prepare_text(&engine(), "sigma[#0=1](V)", &schema)
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b), "warm lookup must share the plan");
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn each_spelling_is_its_own_entry() {
        let cache = PlanCache::new(8);
        let schema = Schema::single(1);
        // Same query, two spellings: the key is the text as sent.
        let a = cache
            .prepare_text(&engine(), "sigma[#0=1]( V )", &schema)
            .unwrap();
        let b = cache
            .prepare_text(&engine(), "sigma[#0=1](V)", &schema)
            .unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        assert_eq!(cache.len(), 2, "one entry per spelling");
        assert_eq!(*a, *b, "both spellings prepare the same statement");
        // A repeat of either spelling hits its own entry.
        let a2 = cache
            .prepare_text(&engine(), "sigma[#0=1]( V )", &schema)
            .unwrap();
        let b2 = cache
            .prepare_text(&engine(), "sigma[#0=1](V)", &schema)
            .unwrap();
        assert!(Arc::ptr_eq(&a, &a2) && Arc::ptr_eq(&b, &b2));
        assert_eq!((cache.hits(), cache.misses()), (2, 2));
    }

    #[test]
    fn same_text_different_schemas_are_distinct_entries() {
        // The cross-schema key-collision regression: "R" means an
        // arity-1 scan under {R:1} and an arity-2 scan under {R:2}; the
        // cache must never serve one for the other.
        let cache = PlanCache::new(8);
        let s1 = Schema::new([("R", 1)]).unwrap();
        let s2 = Schema::new([("R", 2)]).unwrap();
        let p1 = cache.prepare_text(&engine(), "R", &s1).unwrap();
        let p2 = cache.prepare_text(&engine(), "R", &s2).unwrap();
        assert_eq!(cache.misses(), 2, "distinct schemas must not collide");
        assert_eq!(p1.output_arity(), 1);
        assert_eq!(p2.output_arity(), 2);
        // And the cached statements really execute at their arities.
        let c1: crate::Catalog<ipdb_rel::Instance> = [("R", instance![[7]])].into_iter().collect();
        assert_eq!(p1.execute_catalog(&c1).unwrap(), instance![[7]]);
        let c2: crate::Catalog<ipdb_rel::Instance> =
            [("R", instance![[7, 8]])].into_iter().collect();
        assert_eq!(p2.execute_catalog(&c2).unwrap(), instance![[7, 8]]);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let cache = PlanCache::new(2);
        let schema = Schema::single(1);
        cache
            .prepare_text(&engine(), "sigma[#0=1](V)", &schema)
            .unwrap();
        cache
            .prepare_text(&engine(), "sigma[#0=2](V)", &schema)
            .unwrap();
        // Touch the first so the second is now coldest.
        cache
            .prepare_text(&engine(), "sigma[#0=1](V)", &schema)
            .unwrap();
        cache
            .prepare_text(&engine(), "sigma[#0=3](V)", &schema)
            .unwrap();
        assert_eq!(cache.len(), 2);
        // #0=1 survived (still warm); #0=2 was evicted (miss again).
        cache
            .prepare_text(&engine(), "sigma[#0=1](V)", &schema)
            .unwrap();
        let misses = cache.misses();
        cache
            .prepare_text(&engine(), "sigma[#0=2](V)", &schema)
            .unwrap();
        assert_eq!(cache.misses(), misses + 1, "evicted entry must re-prepare");
    }

    #[test]
    fn capacity_one_still_serves() {
        let cache = PlanCache::new(1);
        let schema = Schema::single(1);
        let a = cache
            .prepare_text(&engine(), "sigma[#0=1]( V )", &schema)
            .unwrap();
        cache
            .prepare_text(&engine(), "sigma[#0=2](V)", &schema)
            .unwrap();
        assert_eq!(cache.len(), 1);
        let a2 = cache
            .prepare_text(&engine(), "sigma[#0=1]( V )", &schema)
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &a2), "the entry was really evicted");
        assert_eq!(*a, *a2, "but re-preparing yields an equal statement");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn parse_errors_propagate_and_count_nothing() {
        let cache = PlanCache::new(4);
        let schema = Schema::single(1);
        assert!(cache.prepare_text(&engine(), "pi[4(V)", &schema).is_err());
        // Ill-typed (well-formed but wrong arity) also propagates.
        assert!(cache.prepare_text(&engine(), "pi[4](V)", &schema).is_err());
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        assert!(cache.is_empty());
    }

    #[test]
    fn clear_resets_entries_and_counters() {
        let cache = PlanCache::new(4);
        let schema = Schema::single(1);
        cache.prepare_text(&engine(), "V", &schema).unwrap();
        cache.prepare_text(&engine(), "V", &schema).unwrap();
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        assert_eq!(cache.capacity(), 4);
    }

    #[test]
    fn adopting_a_racing_insert_serves_the_first_plan() {
        // Drives the adopt path directly: a second miss on a key some
        // other thread already inserted adopts that entry.
        let schema = Schema::single(1);
        let fresh = |text| Arc::new(engine().prepare_text_schema(text, &schema).unwrap());
        let mut inner = Inner::default();
        let text = "sigma[#0=1](V)";
        let first = fresh(text);
        let (served, evicted) = inner.insert(&schema, text, Arc::clone(&first), 1);
        assert!(Arc::ptr_eq(&served, &first) && evicted.is_none());

        let (adopted, evicted) = inner.insert(&schema, text, fresh(text), 1);
        assert!(Arc::ptr_eq(&adopted, &first), "the first insert wins");
        assert!(evicted.is_none());
        assert_eq!(inner.len, 1);
        check_invariants(&inner, 1);
    }

    /// The structural invariants of [`Inner`]: `len` counts every entry
    /// and respects `capacity`, and no per-schema map is empty.
    fn check_invariants(inner: &Inner, capacity: usize) {
        let total: usize = inner.entries.values().map(BTreeMap::len).sum();
        assert_eq!(inner.len, total, "len must count every entry");
        assert!(
            inner.len <= capacity,
            "{} entries over capacity {capacity}",
            inner.len
        );
        assert!(
            inner.entries.values().all(|texts| !texts.is_empty()),
            "empty per-schema map kept"
        );
    }

    /// Four queries, each in canonical spelling and with extra
    /// whitespace, all well-typed under both model schemas.
    const MODEL_TEXTS: [&str; 8] = [
        "V",
        " V ",
        "pi[0](V)",
        "pi[0]( V )",
        "sigma[#0=1](V)",
        "sigma[#0=1]( V )",
        "V union V",
        "V  union  V",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Model-based LRU check: after every call, hit vs miss agrees
        /// with a reference LRU over `(schema, text)` keys, and the
        /// cache's internal invariants hold.
        #[test]
        fn lru_matches_a_reference_model(
            capacity in 1usize..5,
            calls in proptest::collection::vec((0usize..MODEL_TEXTS.len(), 0usize..2), 1..40)
        ) {
            let engine = engine();
            let schemas = [Schema::single(1), Schema::single(2)];
            let cache = PlanCache::new(capacity);
            let mut model: VecDeque<(usize, usize)> = VecDeque::new();
            for key @ (text, schema) in calls {
                let expect_hit = match model.iter().position(|k| *k == key) {
                    Some(at) => {
                        model.remove(at);
                        true
                    }
                    None => false,
                };
                model.push_back(key);
                if model.len() > capacity {
                    model.pop_front();
                }
                let text = MODEL_TEXTS[text];
                let hits = cache.hits();
                cache.prepare_text(&engine, text, &schemas[schema]).unwrap();
                prop_assert_eq!(cache.hits() == hits + 1, expect_hit, "hit/miss on {:?}", text);
                prop_assert_eq!(cache.len(), model.len());
                check_invariants(&cache.lock(), capacity);
            }
        }
    }
}
