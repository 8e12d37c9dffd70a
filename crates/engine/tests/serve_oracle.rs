//! Serving-layer oracles: thread-safety by construction, snapshot
//! consistency under concurrent writers, and end-to-end server answers.
//!
//! The static assertions pin the `Send + Sync` bounds the serving layer
//! is built on — losing one (say, by slipping a `Rc` or a raw
//! `RefCell` into `Prepared`) should fail *compilation*, not a race.
//!
//! The concurrency property is the ISSUE's torn-read oracle: N writer
//! threads install catalog versions while M readers execute a prepared
//! query against `snapshot()`s. Every installed version `k` sets **both**
//! `R` and `S` to the single tuple `(k, k)`, and writers record `k`
//! *before* installing, so a reader's `R intersect S` answer must be
//! `{(k, k)}` for some recorded `k` — a torn read (R from one version, S
//! from another) intersects to the empty relation and fails instantly,
//! and a half-written tuple fails the `row[0] == row[1]` check. Snapshot
//! versions observed by any single reader must also be monotone.
//!
//! Run counts are deliberately modest for the tier-1 run; CI soaks this
//! suite with `cache_oracle` at 2048 cases in release ("Soak serving
//! oracles"; the vendored proptest honors `PROPTEST_CASES` globally).

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use std::thread;

use proptest::prelude::*;

use ipdb_engine::{
    Catalog, Engine, PlanCache, Prepared, Server, ServerConfig, Snapshot, SnapshotCatalog, Ticket,
};
use ipdb_rel::{instance, tuple, Instance, Schema, Value};

fn assert_send_sync<T: Send + Sync>() {}
fn assert_send<T: Send>() {}

/// The serving layer's thread-safety contract, checked at compile time.
#[test]
fn serving_types_are_send_and_sync() {
    assert_send_sync::<Prepared>();
    assert_send_sync::<Arc<Prepared>>();
    assert_send_sync::<PlanCache>();
    assert_send_sync::<Snapshot<Instance>>();
    assert_send_sync::<SnapshotCatalog<Instance>>();
    assert_send_sync::<Server<Instance>>();
    // A Ticket wraps an `mpsc::Receiver`, which is deliberately single-
    // consumer: it moves between threads but is not shared.
    assert_send::<Ticket<Instance>>();
}

/// The catalog both relations carry at version stamp `k`.
fn versioned_catalog(k: i64) -> Catalog<Instance> {
    [("R", instance![[k, k]]), ("S", instance![[k, k]])]
        .into_iter()
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// N writers, M readers, no torn reads: every reader answer matches
    /// *some* installed snapshot, versions are monotone per reader.
    #[test]
    fn readers_only_ever_see_installed_snapshots(
        writers in 1usize..=3,
        readers in 1usize..=3,
        installs in 1u64..=6,
        reads in 1usize..=12,
    ) {
        let schema = Schema::new([("R", 2), ("S", 2)]).unwrap();
        let stmt = Arc::new(
            Engine::new().prepare_text_schema("R intersect S", &schema).unwrap(),
        );
        let snaps = Arc::new(SnapshotCatalog::new(versioned_catalog(0)));
        let recorded = Arc::new(Mutex::new(BTreeSet::from([0i64])));

        let outcome: Result<(), String> = thread::scope(|scope| {
            for w in 0..writers {
                let snaps = Arc::clone(&snaps);
                let recorded = Arc::clone(&recorded);
                scope.spawn(move || {
                    for i in 0..installs {
                        let stamp = (w as i64 + 1) * 1000 + i as i64;
                        // Record *before* installing: anything visible
                        // to a reader is already in the set.
                        recorded.lock().unwrap().insert(stamp);
                        if i % 2 == 0 {
                            snaps.install(versioned_catalog(stamp));
                        } else {
                            // The copy-on-write path: mutate a clone of
                            // the current catalog, swap it in whole.
                            snaps.update(|cat| {
                                cat.insert("R", instance![[stamp, stamp]]);
                                cat.insert("S", instance![[stamp, stamp]]);
                            });
                        }
                    }
                });
            }

            let mut handles = Vec::new();
            for _ in 0..readers {
                let snaps = Arc::clone(&snaps);
                let stmt = Arc::clone(&stmt);
                let recorded = Arc::clone(&recorded);
                handles.push(scope.spawn(move || -> Result<(), String> {
                    let mut last_version = 0u64;
                    for _ in 0..reads {
                        let snap = snaps.snapshot();
                        if snap.version() < last_version {
                            return Err(format!(
                                "snapshot version went backwards: {} after {}",
                                snap.version(),
                                last_version
                            ));
                        }
                        last_version = snap.version();
                        let ans = stmt
                            .execute_catalog(snap.catalog())
                            .map_err(|e| e.to_string())?;
                        let rows: Vec<_> = ans.iter().collect();
                        // Exactly one (k, k) row — a torn R/S pair
                        // intersects to zero rows.
                        if rows.len() != 1 || rows[0].get(0) != rows[0].get(1) {
                            return Err(format!("torn snapshot answer: {ans}"));
                        }
                        let stamp = match rows[0].get(0) {
                            Some(Value::Int(k)) => *k,
                            other => return Err(format!("non-integer stamp {other:?}")),
                        };
                        if !recorded.lock().unwrap().contains(&stamp) {
                            return Err(format!("answer stamp {stamp} was never installed"));
                        }
                    }
                    Ok(())
                }));
            }
            for h in handles {
                h.join().expect("reader panicked")?;
            }
            Ok(())
        });
        prop_assert_eq!(outcome, Ok(()));
    }
}

/// End-to-end through the [`Server`]'s queue and worker pool: a client
/// hammers queries while the main thread installs new versions; every
/// answer is a whole installed version, and shutdown drains cleanly.
#[test]
fn server_answers_match_some_installed_version() {
    let server = Arc::new(Server::<Instance>::start(
        versioned_catalog(0),
        ServerConfig::with_threads(4),
    ));
    let installed = Arc::new(Mutex::new(BTreeSet::from([0i64])));

    let client = {
        let server = Arc::clone(&server);
        let installed = Arc::clone(&installed);
        thread::spawn(move || {
            for _ in 0..200 {
                let ans = server.query("R intersect S").expect("query failed");
                let rows: Vec<_> = ans.iter().collect();
                assert_eq!(rows.len(), 1, "torn server answer: {ans}");
                assert_eq!(rows[0].get(0), rows[0].get(1), "half-written row: {ans}");
                let Some(Value::Int(stamp)) = rows[0].get(0) else {
                    panic!("non-integer stamp in {ans}");
                };
                assert!(
                    installed.lock().unwrap().contains(stamp),
                    "stamp {stamp} was never installed"
                );
            }
        })
    };

    for k in 1..=20i64 {
        installed.lock().unwrap().insert(k);
        // Both relations must move together: a single atomic
        // whole-catalog install, not two queued per-relation writes.
        let before = server.snapshot().version();
        let version = server
            .install_all(versioned_catalog(k))
            .expect("install failed");
        assert!(version > before, "install did not bump the version");
        assert!(server.snapshot().version() >= version);
    }

    client.join().expect("client panicked");
    let final_answer = server.query("pi[0](R)").unwrap();
    assert_eq!(final_answer, instance![[20]]);
    match Arc::try_unwrap(server) {
        Ok(server) => server.shutdown(),
        Err(_) => panic!("client still holds the server"),
    }
}

/// Installs that replace a leaf whose columnar form queries have already
/// built: every answer after an install comes from the installed data,
/// never from a stale cached form — including when the new relation is
/// a modified clone of the warmed leaf, which carries its cache along.
#[test]
fn install_over_a_warmed_leaf_answers_from_new_data() {
    let catalog: Catalog<Instance> = [
        ("R", instance![[1, 10], [2, 20]]),
        ("S", instance![[10], [20], [30]]),
    ]
    .into_iter()
    .collect();
    let server = Server::<Instance>::start(catalog, ServerConfig::with_threads(2));
    let q = "join[#1=#2](R, S)";
    // Warm R's and S's columnar forms in the installed snapshot.
    for _ in 0..3 {
        assert_eq!(
            server.query(q).unwrap(),
            instance![[1, 10, 10], [2, 20, 20]]
        );
    }

    // A clone of the warm leaf, plus one tuple.
    let mut grown = server.snapshot().catalog().get("R").unwrap().clone();
    assert!(grown.insert(tuple![3, 30]).unwrap());
    server.install("R", grown).unwrap();
    assert_eq!(
        server.query(q).unwrap(),
        instance![[1, 10, 10], [2, 20, 20], [3, 30, 30]]
    );

    // A fresh relation under the same name, then a whole-catalog swap.
    server.install("S", instance![[20]]).unwrap();
    assert_eq!(server.query(q).unwrap(), instance![[2, 20, 20]]);
    server
        .install_all(
            [("R", instance![[7, 70]]), ("S", instance![[70]])]
                .into_iter()
                .collect(),
        )
        .unwrap();
    assert_eq!(server.query(q).unwrap(), instance![[7, 70, 70]]);
    server.shutdown();
}
