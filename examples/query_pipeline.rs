//! The query pipeline end to end: parse a textual RA query, inspect the
//! optimizer's work with `explain()`, then execute the same prepared
//! plan over a c-table (the paper's Example 2) and a pc-table (the §1
//! course-enrollment example) — one engine, three semantics.
//!
//! Run with `cargo run --example query_pipeline`.

use ipdb::engine::{parser, Engine, Server, ServerConfig};
use ipdb::prelude::*;
use ipdb::prob::{rat, FiniteSpace};

fn main() {
    // ------------------------------------------------------------------
    // Stage 1: parse. The surface syntax is compact ASCII with 0-based
    // column refs; `render` is its exact inverse.
    // ------------------------------------------------------------------
    let text = "pi[2,5](sigma[and(#0=1, #1=#4)](V x V))";
    let q = parser::parse(text).expect("well-formed query text");
    println!("parsed:       {text}");
    println!("paper form:   {q}");
    println!("canonical:    {}\n", parser::render(&q));

    // ------------------------------------------------------------------
    // Stages 2–3: plan + optimize. `explain()` shows the selection being
    // split: `#0=1` is pushed into the left product factor, while the
    // spanning join predicate `#1=#4` stays above the product.
    // ------------------------------------------------------------------
    let engine = Engine::new();
    let stmt = engine.prepare(&q, 3).expect("well-typed at arity 3");
    println!("{}", stmt.explain());

    // ------------------------------------------------------------------
    // Stage 4a: execute over Example 2's c-table S (arity 3; x, y, z).
    // ------------------------------------------------------------------
    let mut vars = VarGen::new();
    let (x, y, z) = (vars.fresh(), vars.fresh(), vars.fresh());
    let s = CTable::builder(3)
        .row([t_const(1), t_const(2), t_var(x)], Condition::True)
        .row(
            [t_const(3), t_var(x), t_var(y)],
            Condition::and([Condition::eq_vv(x, y), Condition::neq_vc(z, 2)]),
        )
        .row(
            [t_var(z), t_const(4), t_const(5)],
            Condition::or([Condition::neq_vc(x, 1), Condition::neq_vv(x, y)]),
        )
        .build()
        .expect("well-formed table");
    println!("Example 2 c-table S:\n{s}");
    // A single input runs as the catalog `{V: input}`.
    let answer = stmt
        .execute_catalog(&Catalog::single(s))
        .expect("closed under q̄ (Thm 4)");
    println!("q̄(S), with no row whose condition is false:\n{answer}");

    // ------------------------------------------------------------------
    // Stage 4b: the same pipeline over a pc-table (§1): Alice's course
    // x ~ {math: .3, phys: .3, chem: .4}; Bob takes x if x ∈ {phys,
    // chem}; Theo takes math iff t = 1 with P[t = 1] = .85.
    // ------------------------------------------------------------------
    let mut g = VarGen::new();
    let (course, toss) = (g.fresh(), g.fresh());
    let table = CTable::builder(2)
        .row([t_const("Alice"), t_var(course)], Condition::True)
        .row(
            [t_const("Bob"), t_var(course)],
            Condition::or([
                Condition::eq_vc(course, "phys"),
                Condition::eq_vc(course, "chem"),
            ]),
        )
        .row(
            [t_const("Theo"), t_const("math")],
            Condition::eq_vc(toss, 1),
        )
        .build()
        .expect("well-formed table");
    let pc = PcTable::new(
        table,
        [
            (
                course,
                FiniteSpace::new([
                    (Value::from("math"), rat!(3, 10)),
                    (Value::from("phys"), rat!(3, 10)),
                    (Value::from("chem"), rat!(4, 10)),
                ])
                .expect("sums to 1"),
            ),
            (
                toss,
                FiniteSpace::new([
                    (Value::from(0), rat!(15, 100)),
                    (Value::from(1), rat!(85, 100)),
                ])
                .expect("sums to 1"),
            ),
        ],
    )
    .expect("every variable has a distribution");

    // "Who takes the same course as Alice (and is not Alice)?"
    let who = "pi[0](sigma[and(#1=#3, #0!='Alice')](V x sigma[#0='Alice'](V)))";
    let stmt2 = engine.prepare_text(who, 2).expect("well-typed at arity 2");
    println!("query: {who}");
    println!("{}", stmt2.explain());
    let pc_cat = Catalog::single(pc);
    let out = stmt2
        .execute_catalog(&pc_cat)
        .expect("closed under q̄ (Thm 9)");
    println!("answer pc-table:\n{out}");
    let m = out.mod_space().expect("finite distributions");
    println!(
        "P[Bob answers] = {:?} (expected 7/10)",
        m.tuple_prob(&tuple!["Bob"])
    );
    assert_eq!(m.tuple_prob(&tuple!["Bob"]), rat!(7, 10));

    // The optimized and naive plans agree on every backend — here,
    // exactly, as distributions (Theorem 9 + soundness of the rewrites).
    let naive = PcTable::run_catalog(&pc_cat, stmt2.naive_query()).expect("naive evaluation");
    assert!(m.same_distribution(&naive.mod_space().expect("finite")));
    println!("optimized ≡ naive on the pc-table backend ✓");

    // ------------------------------------------------------------------
    // Named relations: the §2 footnote's "arbitrary relational schemas".
    // Prepare over a Schema, execute over a Catalog; σ(×) over two
    // *named* relations still plans to a hash join.
    // ------------------------------------------------------------------
    let schema = Schema::new([("Takes", 2), ("Passed", 2)]).expect("distinct names");
    let joined = engine
        .prepare_text_schema("pi[0,1](sigma[and(#0=#2, #1=#3)](Takes x Passed))", &schema)
        .expect("well-typed over the named schema");
    println!("\nnamed-relation query over {schema}:");
    println!("{}", joined.explain());
    let cat: Catalog<Instance> = [
        (
            "Takes",
            instance![["Alice", "math"], ["Bob", "chem"], ["Theo", "math"]],
        ),
        ("Passed", instance![["Alice", "math"], ["Bob", "phys"]]),
    ]
    .into_iter()
    .collect();
    let passed_what_they_take = joined
        .execute_catalog(&cat)
        .expect("schema matches catalog");
    println!("Takes ⋈ Passed = {passed_what_they_take}");
    assert_eq!(passed_what_they_take, instance![["Alice", "math"]]);
    println!("named-relation catalog execution ✓");

    // ------------------------------------------------------------------
    // Observability: each backend has one evaluator, generic over a
    // trace sink. Plain calls pass a no-op sink; the `_analyzed` calls
    // pass a reporting one and also return a `QueryReport` — the
    // executed operator tree annotated with exact row counts,
    // selectivities, and wall-clock timings, plus BDD-manager counters
    // on the probabilistic path. (`IPDB_METRICS=1` further streams
    // engine-wide counters into the global `ipdb::obs` registry; the
    // reports below need no flag.)
    // ------------------------------------------------------------------
    let (analyzed, report) = joined
        .execute_catalog_analyzed(&cat, &ExecConfig::default())
        .expect("schema matches catalog");
    assert_eq!(analyzed, passed_what_they_take);
    println!("\n{}", report.render());
    let (dist, prob_report) = stmt2
        .answer_dist_catalog_analyzed(&pc_cat)
        .expect("finite distributions");
    assert!(dist
        .iter()
        .any(|(t, p)| t == &tuple!["Bob"] && *p == rat!(7, 10)));
    println!("{}", prob_report.render());
    assert!(
        prob_report.bdd.is_some(),
        "pc-table reports carry BDD stats"
    );
    println!("EXPLAIN ANALYZE ✓");

    // ------------------------------------------------------------------
    // Serving: a long-lived `Server` answers many queries over the same
    // catalog through a shared LRU `PlanCache` — each distinct query
    // text is parsed, checked and optimized once, then every repeat is an
    // `Arc<Prepared>` clone. With metrics on, the per-request counters
    // land in the global `ipdb::obs` registry.
    // ------------------------------------------------------------------
    ipdb::obs::set_enabled(true);
    let server = Server::<Instance>::start(cat.clone(), ServerConfig::with_threads(2));
    let hot = [
        "pi[0,1](sigma[and(#0=#2, #1=#3)](Takes x Passed))",
        "pi[0](Takes)",
        "pi[0](sigma[#1='math'](Takes))",
    ];
    for round in 0..4 {
        for text in hot {
            let answer = server.query(text).expect("served answer");
            if round == 0 {
                println!("serve: {text} -> {answer}");
            }
        }
    }
    // A catalog install is just another request: readers swap to the new
    // snapshot atomically and the plan cache keeps serving.
    let version = server
        .install("Passed", instance![["Theo", "math"]])
        .expect("install");
    let after = server.query(hot[0]).expect("served answer");
    println!(
        "serve: after install (snapshot v{version}): {} -> {after}",
        hot[0]
    );

    let (hits, misses) = (server.cache().hits(), server.cache().misses());
    let snap = ipdb::obs::snapshot();
    println!(
        "plan cache: {hits} hits / {misses} misses ({:.0}% hit rate); \
         obs: serve.requests={} serve.cache.hits={} serve.snapshot.installs={}",
        100.0 * hits as f64 / (hits + misses) as f64,
        snap.get("serve.requests").unwrap_or(0),
        snap.get("serve.cache.hits").unwrap_or(0),
        snap.get("serve.snapshot.installs").unwrap_or(0),
    );
    assert_eq!(misses, 3, "one miss per distinct query text");
    assert!(hits >= 10, "every repeat is a cache hit");
    server.shutdown();
    println!("serving loop ✓");
}
