//! # `ipdb-obs` — engine-wide metrics, std-only
//!
//! The answering pipeline spans four hot subsystems (plan optimizer,
//! morsel-parallel columnar executor, c-/pc-table pruning executor, BDD
//! compile + WMC); this crate is the substrate they all report into:
//!
//! * a process-wide **counter registry** ([`counter`] / [`add`] /
//!   [`incr`]): named monotonic `AtomicU64`s, registered on first use
//!   and alive for the rest of the process;
//! * **monotonic timers** ([`Timer`]) and a lightweight **span/scope
//!   API** ([`span`]) that accumulates `<name>.ns` / `<name>.calls`
//!   pairs into the registry;
//! * **snapshots** ([`snapshot`] → [`MetricsSnapshot`]) with JSON and
//!   pretty-text export.
//!
//! ## The enabled flag, and what "zero cost when off" means
//!
//! The registry is always *callable*, but instrumented call sites are
//! expected to consult the global [`enabled`] flag (one relaxed atomic
//! load) — or an equivalent per-call knob such as the engine's
//! `ExecConfig::metrics` — before touching it, and to do so **per stage
//! or per morsel, never per row**. The flag initializes from the
//! `IPDB_METRICS` environment variable (`1`/`true`/`on`, case-
//! insensitive) and can be flipped at runtime with [`set_enabled`];
//! `bench_smoke`'s off-vs-on overhead series holds the metrics-off cost
//! of the instrumented 100k-row probe join within 5%.
//!
//! [`span`] checks the flag itself (a disabled span skips even the
//! clock read), so it is safe to leave in cold paths unconditionally.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

// ---------------------------------------------------------------------
// The global enabled flag.
// ---------------------------------------------------------------------

fn flag() -> &'static AtomicBool {
    static FLAG: OnceLock<AtomicBool> = OnceLock::new();
    FLAG.get_or_init(|| {
        let on = std::env::var("IPDB_METRICS")
            .map(|v| {
                let v = v.trim().to_ascii_lowercase();
                v == "1" || v == "true" || v == "on"
            })
            .unwrap_or(false);
        AtomicBool::new(on)
    })
}

/// Whether metrics collection is globally enabled — one relaxed atomic
/// load, the check instrumented call sites make before recording.
/// Initialized from `IPDB_METRICS` on first use.
pub fn enabled() -> bool {
    // ORDERING: Relaxed — a standalone on/off flag; call sites only skip
    // or take the recording branch, no other data is published through it.
    flag().load(Ordering::Relaxed)
}

/// Flips the global metrics flag at runtime (overriding whatever
/// `IPDB_METRICS` said). Benchmarks use this to interleave off/on runs
/// in one process.
pub fn set_enabled(on: bool) {
    // ORDERING: Relaxed — same flag-only contract as `enabled`.
    flag().store(on, Ordering::Relaxed);
}

// ---------------------------------------------------------------------
// Counters and the registry.
// ---------------------------------------------------------------------

/// A monotonic event counter; shareable across threads (relaxed atomic
/// increments — counts are exact, cross-counter ordering is not).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        // ORDERING: Relaxed — the atomic RMW keeps the tally exact under
        // concurrent bumps; cross-counter ordering is explicitly not part
        // of the contract (see the type docs).
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1 to the counter.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // ORDERING: Relaxed — a statistic read on its own; a read racing a
        // bump legitimately lands on either side of it.
        self.0.load(Ordering::Relaxed)
    }

    /// Zeroes the counter (used by [`reset`] for bench isolation).
    pub fn reset(&self) {
        // ORDERING: Relaxed — bench isolation only; callers quiesce their
        // own workload before resetting, nothing synchronizes through it.
        self.0.store(0, Ordering::Relaxed);
    }
}

type Registry = Mutex<BTreeMap<String, &'static Counter>>;

/// The locked registry. A panic while holding the lock cannot leave the
/// map half-written (every mutation is one `insert`), so a poisoned lock
/// is recovered, never propagated into the serving workers that count.
fn registry() -> MutexGuard<'static, BTreeMap<String, &'static Counter>> {
    static REG: OnceLock<Registry> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(BTreeMap::new()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// The registered counter named `name`, creating (and leaking — one
/// allocation per distinct name, alive for the process) it on first
/// use. The lookup takes the registry mutex: call per stage, not per
/// row, and gate hot paths on [`enabled`] first.
pub fn counter(name: &str) -> &'static Counter {
    let mut reg = registry();
    if let Some(c) = reg.get(name) {
        return c;
    }
    let c: &'static Counter = Box::leak(Box::new(Counter::new()));
    reg.insert(name.to_string(), c);
    c
}

/// `counter(name).add(n)` — registry convenience.
pub fn add(name: &str, n: u64) {
    counter(name).add(n);
}

/// `counter(name).incr()` — registry convenience.
pub fn incr(name: &str) {
    counter(name).incr();
}

/// Zeroes every registered counter (names stay registered). Benchmarks
/// call this between series so snapshots attribute counts to one run.
pub fn reset() {
    let reg = registry();
    for c in reg.values() {
        c.reset();
    }
}

/// A point-in-time copy of every registered counter.
pub fn snapshot() -> MetricsSnapshot {
    let reg = registry();
    MetricsSnapshot {
        entries: reg.iter().map(|(n, c)| (n.clone(), c.get())).collect(),
    }
}

// ---------------------------------------------------------------------
// Timers and spans.
// ---------------------------------------------------------------------

/// A monotonic wall-clock timer (`std::time::Instant` underneath).
#[derive(Debug, Clone, Copy)]
pub struct Timer(Instant);

impl Timer {
    /// Starts the clock.
    pub fn start() -> Timer {
        Timer(Instant::now())
    }

    /// Nanoseconds elapsed since [`Timer::start`], saturating at
    /// `u64::MAX` (≈ 584 years).
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A scope guard recording its lifetime into the registry: on drop,
/// adds the elapsed nanoseconds to `<name>.ns` and 1 to `<name>.calls`.
/// Created disarmed (no clock read, nothing recorded) when metrics are
/// globally [`enabled`]`() == false`.
#[derive(Debug)]
pub struct Span {
    name: String,
    started: Option<Timer>,
}

/// Opens a [`Span`] named `name`; see the type docs for the contract.
pub fn span(name: impl Into<String>) -> Span {
    Span {
        name: name.into(),
        started: enabled().then(Timer::start),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(t) = self.started {
            add(&format!("{}.ns", self.name), t.elapsed_ns());
            incr(&format!("{}.calls", self.name));
        }
    }
}

// ---------------------------------------------------------------------
// Snapshots.
// ---------------------------------------------------------------------

/// An immutable name → value copy of the registry, name-ordered.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    entries: BTreeMap<String, u64>,
}

impl MetricsSnapshot {
    /// The value of one counter, if it was registered at snapshot time.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.entries.get(name).copied()
    }

    /// Number of counters captured.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the snapshot captured no counters at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates `(name, value)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// The snapshot as a flat JSON object (sorted keys, one per line).
    /// Counter names never need escaping beyond `"`/`\` — they are
    /// ASCII identifiers by convention — but both are escaped anyway.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let mut first = true;
        for (name, value) in &self.entries {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let escaped = name.replace('\\', "\\\\").replace('"', "\\\"");
            out.push_str(&format!("  \"{escaped}\": {value}"));
        }
        out.push_str("\n}\n");
        out
    }

    /// Aligned `name  value` lines, for humans.
    pub fn render(&self) -> String {
        let width = self.entries.keys().map(String::len).max().unwrap_or(0);
        let mut out = String::new();
        for (name, value) in &self.entries {
            out.push_str(&format!("{name:<width$}  {value}\n"));
        }
        out
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // All tests share one process-global registry and flag — and
    // `reset()` zeroes *every* counter — so each test uses its own
    // counter names, restores the flag, and holds this lock for its
    // whole body (the harness otherwise interleaves them across
    // threads, letting one test's global `reset()` eat another's
    // in-flight increments).
    static GLOBAL_STATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn serialized() -> std::sync::MutexGuard<'static, ()> {
        GLOBAL_STATE
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn counters_register_and_accumulate() {
        let _g = serialized();
        let c = counter("test.alpha");
        c.add(3);
        c.incr();
        assert_eq!(c.get(), 4);
        // Same name → same counter.
        add("test.alpha", 1);
        assert_eq!(counter("test.alpha").get(), 5);
        // Distinct names are independent.
        incr("test.beta");
        assert_eq!(counter("test.beta").get(), 1);
        assert_eq!(counter("test.alpha").get(), 5);
    }

    #[test]
    fn snapshot_captures_and_exports() {
        let _g = serialized();
        add("test.snap.x", 7);
        add("test.snap.y", 2);
        let snap = snapshot();
        assert!(!snap.is_empty());
        assert!(snap.len() >= 2);
        assert_eq!(snap.get("test.snap.x"), Some(7));
        assert_eq!(snap.get("test.snap.missing"), None);
        let json = snap.to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.contains("\"test.snap.x\": 7"));
        assert!(json.trim_end().ends_with('}'));
        let pretty = snap.render();
        assert!(pretty.contains("test.snap.y"));
        assert_eq!(pretty, snap.to_string());
        // Names come out sorted.
        let names: Vec<&str> = snap.iter().map(|(n, _)| n).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }

    #[test]
    fn json_escapes_quotes_and_backslashes() {
        let _g = serialized();
        add("test.esc.\"q\\uote\"", 1);
        let json = snapshot().to_json();
        assert!(json.contains("\"test.esc.\\\"q\\\\uote\\\"\": 1"));
    }

    #[test]
    fn spans_record_only_when_enabled() {
        let _g = serialized();
        let was = enabled();
        set_enabled(false);
        drop(span("test.span.off"));
        let snap = snapshot();
        assert_eq!(snap.get("test.span.off.calls"), None);

        set_enabled(true);
        assert!(enabled());
        {
            let _s = span("test.span.on");
            std::hint::black_box(0u64);
        }
        let snap = snapshot();
        assert_eq!(snap.get("test.span.on.calls"), Some(1));
        assert!(snap.get("test.span.on.ns").is_some());
        set_enabled(was);
    }

    #[test]
    fn timers_are_monotonic() {
        let t = Timer::start();
        let a = t.elapsed_ns();
        let b = t.elapsed_ns();
        assert!(b >= a);
    }

    #[test]
    fn reset_zeroes_but_keeps_registration() {
        let _g = serialized();
        add("test.reset.me", 41);
        reset();
        assert_eq!(counter("test.reset.me").get(), 0);
        assert_eq!(snapshot().get("test.reset.me"), Some(0));
    }

    #[test]
    fn counters_are_exact_under_contention() {
        let _g = serialized();
        let c = counter("test.contended");
        c.reset();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
    }

    #[test]
    fn registry_survives_a_poisoning_panic() {
        let _g = serialized();
        let poisoner = std::thread::spawn(|| {
            let _reg = registry();
            panic!("poison the metrics registry");
        });
        assert!(poisoner.join().is_err());
        incr("test.poisoned");
        assert_eq!(snapshot().get("test.poisoned"), Some(1));
        reset();
        assert_eq!(snapshot().get("test.poisoned"), Some(0));
    }
}
