//! The plan cache: an engine-level LRU of shared [`Prepared`]
//! statements.
//!
//! Preparing a statement (parse → plan → optimizer fixpoint → lowering)
//! is the expensive per-request step a server pays before any tuple
//! moves; a traffic workload repeats the same handful of query shapes,
//! so [`PlanCache`] memoizes `prepare` behind a key that is **exactly**
//! the statement's identity:
//!
//! * the **canonical render string** — PR 2's `parse(render(q)) == q`
//!   invariant makes `render(parse(text))` a canonical form, so
//!   differently-spelled texts of the same query share one entry;
//! * **and the [`Schema`]** — the same text prepared against different
//!   schemas yields different plans (different leaf arities, different
//!   optimizer decisions). Keying by text alone would hand a statement
//!   prepared for `{R:1}` to a request over `{R:2}`; the schema
//!   component is load-bearing, and `tests/cache_oracle.rs` pins the
//!   regression.
//!
//! On top of the canonical map sits a **raw-text alias** layer: once a
//! text has been seen, the hot path resolves it with one map lookup and
//! no parse at all. Eviction is LRU by a monotonic touch stamp, found by
//! an O(entries) scan on each at-capacity miss. Misses are not rare: on
//! the benchmark's `serve_churn` trace (2048 query shapes against 256
//! entries) a quarter of reads miss. So the scan compares stamps by
//! reference and clones only the victim's key, and evicted entries are
//! freed after the cache mutex is released; a miss then costs little
//! beyond its parse and prepare. Entries are `Arc<Prepared>`, so an
//! evicted statement stays valid for requests already holding it.
//!
//! Hit/miss totals are kept in local atomics (always on, race-free) and
//! mirrored into the global `ipdb-obs` registry as `serve.cache.hits` /
//! `serve.cache.misses` when metrics are [`ipdb_obs::enabled`].

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use ipdb_obs::Counter;
use ipdb_rel::{Query, Schema};

use crate::error::EngineError;
use crate::parser;
use crate::pipeline::{Engine, Prepared};

/// The `ipdb-obs` counter mirroring [`PlanCache::hits`].
pub const OBS_CACHE_HITS: &str = "serve.cache.hits";
/// The `ipdb-obs` counter mirroring [`PlanCache::misses`].
pub const OBS_CACHE_MISSES: &str = "serve.cache.misses";

/// One cached statement: the shared plan, its LRU touch stamp, and the
/// raw texts aliased to it (removed together with it on eviction).
#[derive(Debug)]
struct Entry {
    plan: Arc<Prepared>,
    stamp: u64,
    aliases: Vec<String>,
}

/// Per-schema shard: raw text → canonical text, canonical text → entry.
/// Sharding by schema makes the hot lookup allocation-free (borrowed
/// `&Schema` then `&str` key lookups) and makes cross-schema collisions
/// structurally impossible.
#[derive(Debug, Default)]
struct Shard {
    aliases: BTreeMap<String, String>,
    entries: BTreeMap<String, Entry>,
}

#[derive(Debug, Default)]
struct Inner {
    clock: u64,
    len: usize,
    shards: BTreeMap<Schema, Shard>,
}

impl Shard {
    /// Touches the entry for `canonical` and records `alias` as one of
    /// its spellings; `None` when no such entry is cached.
    fn hit(&mut self, canonical: &str, alias: Option<&str>, stamp: u64) -> Option<Arc<Prepared>> {
        let Shard { aliases, entries } = self;
        let entry = entries.get_mut(canonical)?;
        entry.stamp = stamp;
        if let Some(alias) = alias {
            if aliases
                .insert(alias.to_string(), canonical.to_string())
                .is_none()
            {
                entry.aliases.push(alias.to_string());
            }
        }
        Some(Arc::clone(&entry.plan))
    }

    /// Serves `canonical`: adopts the entry a racing miss inserted first,
    /// or inserts `plan`; either way `alias` is recorded on the served
    /// entry. Returns the plan to serve and whether an entry was added.
    fn insert(
        &mut self,
        canonical: String,
        alias: Option<&str>,
        plan: Arc<Prepared>,
        stamp: u64,
    ) -> (Arc<Prepared>, bool) {
        if let Some(adopted) = self.hit(&canonical, alias, stamp) {
            return (adopted, false);
        }
        let mut entry = Entry {
            plan: Arc::clone(&plan),
            stamp,
            aliases: Vec::new(),
        };
        if let Some(alias) = alias {
            self.aliases.insert(alias.to_string(), canonical.clone());
            entry.aliases.push(alias.to_string());
        }
        self.entries.insert(canonical, entry);
        (plan, true)
    }
}

impl Inner {
    fn touch(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// The insert half of a miss: serves `(schema, canonical)` through
    /// [`Shard::insert`], then evicts the LRU entry if that went over
    /// `capacity`. Returns the plan to serve and the evicted entry, which
    /// the caller drops after releasing the lock.
    fn insert(
        &mut self,
        schema: &Schema,
        canonical: String,
        alias: Option<&str>,
        plan: Arc<Prepared>,
        capacity: usize,
    ) -> (Arc<Prepared>, Option<Entry>) {
        let stamp = self.touch();
        // Look the shard up by reference: only a new schema clones it.
        let (plan, inserted) = match self.shards.get_mut(schema) {
            Some(shard) => shard.insert(canonical, alias, plan, stamp),
            None => {
                let mut shard = Shard::default();
                let served = shard.insert(canonical, alias, plan, stamp);
                self.shards.insert(schema.clone(), shard);
                served
            }
        };
        if inserted {
            self.len += 1;
        }
        // `len <= capacity` held before this call added at most one
        // entry, so one eviction restores it; nothing loops on a failed one.
        let evicted = if self.len > capacity {
            self.evict_lru()
        } else {
            None
        };
        (plan, evicted)
    }

    /// Removes the least-recently-touched entry (and its aliases) across
    /// all shards and returns it. O(entries): stamps are compared by
    /// reference and only the victim's key is cloned.
    fn evict_lru(&mut self) -> Option<Entry> {
        let (schema, canon) = self
            .shards
            .iter()
            .flat_map(|(schema, shard)| {
                shard
                    .entries
                    .iter()
                    .map(move |(canon, e)| (e.stamp, schema, canon))
            })
            .min_by_key(|&(stamp, _, _)| stamp)
            .map(|(_, schema, canon)| (schema.clone(), canon.clone()))?;
        let shard = self.shards.get_mut(&schema)?;
        let entry = shard.entries.remove(&canon)?;
        for alias in &entry.aliases {
            shard.aliases.remove(alias);
        }
        if shard.entries.is_empty() {
            self.shards.remove(&schema);
        }
        self.len -= 1;
        Some(entry)
    }
}

/// A thread-safe LRU cache of prepared statements, keyed by
/// **(canonical render string, [`Schema`])**. See the module docs for
/// the design; see [`PlanCache::prepare_text`] for the lookup protocol.
#[derive(Debug)]
pub struct PlanCache {
    capacity: usize,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    /// A cache holding at most `capacity` distinct statements
    /// (`capacity` is clamped to at least 1).
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Maximum number of cached statements.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cached statements (aliases don't count).
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
    /// the last [`PlanCache::clear`]). Parse/plan *errors* count as
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
    /// Protocol: (1) one lock, alias lookup — the warm path returns
    /// here without parsing; (2) parse outside the lock, canonical
    /// lookup — a differently-spelled hit installs the new alias;
    /// (3) prepare outside the lock, insert (or adopt a racing
    /// insert of the same key), evicting LRU entries over capacity,
    /// which are freed once the lock is released.
    pub fn prepare_text(
        &self,
        engine: &Engine,
        text: &str,
        schema: &Schema,
    ) -> Result<Arc<Prepared>, EngineError> {
        // Fast path: raw text already aliased for this schema.
        {
            let mut inner = self.lock();
            let stamp = inner.touch();
            if let Some(shard) = inner.shards.get_mut(schema) {
                let Shard { aliases, entries } = shard;
                if let Some(canon) = aliases.get(text) {
                    if let Some(entry) = entries.get_mut(canon) {
                        entry.stamp = stamp;
                        let plan = Arc::clone(&entry.plan);
                        drop(inner);
                        self.record_hit();
                        return Ok(plan);
                    }
                }
            }
        }
        // Parse (outside the lock — pure) and go through the canonical
        // key, remembering the raw spelling as an alias on success.
        let q = parser::parse(text)?;
        let canonical = parser::render(&q);
        let alias = (text != canonical).then_some(text);
        self.prepare_canonical(engine, &q, canonical, alias, schema)
    }

    /// The cached equivalent of [`Engine::prepare_schema`] for an
    /// already-parsed query (no alias layer: the canonical render *is*
    /// the key).
    pub fn prepare(
        &self,
        engine: &Engine,
        q: &Query,
        schema: &Schema,
    ) -> Result<Arc<Prepared>, EngineError> {
        self.prepare_canonical(engine, q, parser::render(q), None, schema)
    }

    fn prepare_canonical(
        &self,
        engine: &Engine,
        q: &Query,
        canonical: String,
        alias: Option<&str>,
        schema: &Schema,
    ) -> Result<Arc<Prepared>, EngineError> {
        // Canonical lookup (the text was spelled differently, or this
        // is a `prepare(q)` call).
        {
            let mut inner = self.lock();
            let stamp = inner.touch();
            let hit = inner
                .shards
                .get_mut(schema)
                .and_then(|shard| shard.hit(&canonical, alias, stamp));
            if let Some(plan) = hit {
                drop(inner);
                self.record_hit();
                return Ok(plan);
            }
        }
        // Miss: prepare outside the lock (two threads may race on the
        // same cold key and both prepare; the loser's work is identical
        // and the first insert wins).
        let plan = Arc::new(engine.prepare_schema(q, schema)?);
        let (plan, evicted) = self
            .lock()
            .insert(schema, canonical, alias, plan, self.capacity);
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
    fn non_canonical_spellings_share_one_entry() {
        let cache = PlanCache::new(8);
        let schema = Schema::single(1);
        // Same query, two spellings (whitespace is not canonical).
        let a = cache
            .prepare_text(&engine(), "sigma[#0=1]( V )", &schema)
            .unwrap();
        let b = cache
            .prepare_text(&engine(), "sigma[#0=1](V)", &schema)
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1, "one statement, two aliases");
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // Both spellings are now warm (no parse, alias fast path).
        cache
            .prepare_text(&engine(), "sigma[#0=1]( V )", &schema)
            .unwrap();
        assert_eq!(cache.hits(), 2);
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
    fn capacity_one_still_serves_and_cleans_aliases() {
        let cache = PlanCache::new(1);
        let schema = Schema::single(1);
        let a = cache
            .prepare_text(&engine(), "sigma[#0=1]( V )", &schema)
            .unwrap();
        // Displace it; its alias must go with it.
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
    fn prepare_by_query_and_by_text_share_entries() {
        let cache = PlanCache::new(4);
        let schema = Schema::single(1);
        let q = parser::parse("sigma[#0=1](V)").unwrap();
        let a = cache.prepare(&engine(), &q, &schema).unwrap();
        let b = cache
            .prepare_text(&engine(), "sigma[#0=1](V)", &schema)
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
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
    fn adopting_a_racing_insert_records_the_alias_on_the_entry() {
        // Drives the adopt path directly: a second miss on a key some
        // other thread already inserted adopts that entry. The alias it
        // brings must die with the entry, not dangle after eviction.
        let schema = Schema::single(1);
        let fresh = |text| Arc::new(engine().prepare_text_schema(text, &schema).unwrap());
        let mut inner = Inner::default();
        let canon = "sigma[#0=1](V)".to_string();
        let first = fresh("sigma[#0=1](V)");
        let (served, evicted) = inner.insert(&schema, canon.clone(), None, Arc::clone(&first), 1);
        assert!(Arc::ptr_eq(&served, &first) && evicted.is_none());

        let racer = fresh("sigma[#0=1](V)");
        let (adopted, evicted) = inner.insert(&schema, canon, Some("sigma[#0=1]( V )"), racer, 1);
        assert!(Arc::ptr_eq(&adopted, &first), "the first insert wins");
        assert!(evicted.is_none());
        assert_eq!(inner.len, 1);
        check_invariants(&inner, 1);

        let (_, evicted) = inner.insert(
            &schema,
            "sigma[#0=2](V)".to_string(),
            None,
            fresh("sigma[#0=2](V)"),
            1,
        );
        assert!(evicted.is_some());
        assert!(
            inner.shards[&schema].aliases.is_empty(),
            "alias leaked past its entry"
        );
        check_invariants(&inner, 1);
    }

    /// The structural invariants of [`Inner`]: `len` counts every entry
    /// and respects `capacity`, no shard is empty, and the alias map and
    /// the entries' alias lists describe the same (alias, entry) pairs.
    fn check_invariants(inner: &Inner, capacity: usize) {
        let total: usize = inner.shards.values().map(|s| s.entries.len()).sum();
        assert_eq!(inner.len, total, "len must count every entry");
        assert!(
            inner.len <= capacity,
            "{} entries over capacity {capacity}",
            inner.len
        );
        for shard in inner.shards.values() {
            assert!(!shard.entries.is_empty(), "empty shard kept");
            for (alias, canon) in &shard.aliases {
                let entry = shard.entries.get(canon);
                assert!(
                    entry.is_some_and(|e| e.aliases.contains(alias)),
                    "alias {alias:?} does not resolve to a live entry listing it"
                );
            }
            for (canon, entry) in &shard.entries {
                for alias in &entry.aliases {
                    assert_eq!(
                        shard.aliases.get(alias),
                        Some(canon),
                        "unmapped alias {alias:?}"
                    );
                }
            }
        }
    }

    /// Four queries, each canonical and with extra whitespace (an alias),
    /// all well-typed under both model schemas.
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
        /// with a reference LRU over `(schema, canonical)` keys, and the
        /// cache's internal invariants hold.
        #[test]
        fn lru_matches_a_reference_model(
            capacity in 1usize..5,
            calls in proptest::collection::vec((0usize..MODEL_TEXTS.len(), 0usize..2), 1..40)
        ) {
            let engine = engine();
            let schemas = [Schema::single(1), Schema::single(2)];
            let cache = PlanCache::new(capacity);
            let mut model: VecDeque<(usize, String)> = VecDeque::new();
            for (text, schema) in calls {
                let text = MODEL_TEXTS[text];
                let key = (schema, parser::render(&parser::parse(text).unwrap()));
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
                let hits = cache.hits();
                cache.prepare_text(&engine, text, &schemas[schema]).unwrap();
                prop_assert_eq!(cache.hits() == hits + 1, expect_hit, "hit/miss on {:?}", text);
                prop_assert_eq!(cache.len(), model.len());
                check_invariants(&cache.lock(), capacity);
            }
        }
    }
}
