//! Batch comparison on the thread pool through the [`Comparator`] facade:
//! score a sweep of instance versions with `.compare_many`, demonstrate
//! config validation at `.build()` (an `Error` instead of a mid-search
//! panic on NaN λ), the signature algorithm's wall-clock budget
//! (`timed_out` / `Error::Budget` from the strict variant), and a run
//! under `obs::observe` whose span tree and counters print at the end.
//!
//! Run with: `cargo run --release --example parallel_batch`
//! Vary the worker count with `IC_POOL_THREADS=n` (or wrap calls in
//! `pool::with_threads(n, ..)`) — scores and all non-`pool.*` counters are
//! bit-identical at any setting.

use instance_comparison::core::{Comparator, Error};
use instance_comparison::model::{Catalog, Instance, RelId, Schema};
use instance_comparison::obs::{observe, MemorySink};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let mut cat = Catalog::new(Schema::single("R", &["A", "B", "C"]));
    let rel = RelId(0);

    // A chain of versions: each differs from the base in a few cells, with
    // some values unknown (labeled nulls).
    let mut versions: Vec<Instance> = Vec::new();
    for v in 0..5 {
        let mut inst = Instance::new(format!("v{v}"), &cat);
        for i in 0..400 {
            let a = cat.konst(&format!("key{i}"));
            let b = if (i + v) % 23 == 0 {
                cat.fresh_null()
            } else {
                cat.konst(&format!("b{}", (i * 7 + v) % 50))
            };
            let c = cat.konst(&format!(
                "c{}",
                (i + 11 * ((i + v) % 17 == 0) as usize) % 40
            ));
            inst.insert(rel, vec![a, b, c]);
        }
        versions.push(inst);
    }
    let pairs: Vec<(&Instance, &Instance)> = versions.windows(2).map(|w| (&w[0], &w[1])).collect();

    println!(
        "pool threads: {}",
        instance_comparison::pool::current_threads()
    );

    // Validation happens once at build(); every call through the handle
    // can then trust the configuration.
    let cmp = Comparator::new(&cat)
        .lambda(0.5)
        .build()
        .expect("default config is valid");
    let batch = cmp.compare_many(&pairs).expect("schemas match");
    for (i, c) in batch.iter().enumerate() {
        println!(
            "v{i} -> v{}: similarity {:.6}  ({} pairs, {} updated tuples)",
            i + 1,
            c.score(),
            c.outcome.best.pairs.len(),
            c.diff.updated.len()
        );
    }

    // Degenerate configs are rejected up front instead of panicking deep in
    // the search.
    match Comparator::new(&cat).lambda(f64::NAN).build() {
        Err(e) => println!("NaN lambda rejected: {e}"),
        Ok(_) => unreachable!("NaN lambda must not validate"),
    }

    // A zero budget returns the partial (here: empty) match and says so;
    // the strict variant turns the same stop into an `Error::Budget`.
    let strapped = Comparator::new(&cat)
        .budget(Duration::ZERO)
        .build()
        .expect("a zero budget is valid, just unhelpful");
    let out = strapped
        .signature(&versions[0], &versions[1])
        .expect("schemas match");
    println!(
        "zero budget: timed_out={} pairs={} score={:.3}",
        out.timed_out,
        out.best.pairs.len(),
        out.best.score()
    );
    match strapped.signature_strict(&versions[0], &versions[1]) {
        Err(e @ Error::Budget { .. }) => println!("strict variant: {e}"),
        other => unreachable!("expected a budget error, got {other:?}"),
    }

    // Observability: rerun one comparison under an observation with an
    // in-memory sink and print where the time went.
    let sink = Arc::new(MemorySink::new());
    {
        let _obs = observe("parallel_batch", sink.clone());
        cmp.compare(&versions[0], &versions[1])
            .expect("schemas match");
    }
    let report = sink.last().expect("one report per observation");
    println!("\nspan tree of v0 -> v1:\n{}", report.render_tree());
    for name in [
        "score.pairs",
        "sig.probe.candidates_found",
        "sig.probe.candidates_consumed",
    ] {
        if let Some(v) = report.counter(name) {
            println!("{name} = {v}");
        }
    }
}
