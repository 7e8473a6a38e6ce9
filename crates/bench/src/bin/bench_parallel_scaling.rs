//! Thread-scaling of the parallel hot paths: `signature_match` (parallel
//! sigmap build + candidate discovery), `score_state` (parallel pair
//! scoring, exercised inside the match), and the `compare_many` batch API.
//!
//! The same workload runs at 1, 2, 4 and 8 pool threads via
//! [`ic_pool::with_threads`]; the suite records the configured thread
//! counts and the speedup of each setting relative to the 1-thread
//! baseline as JSON metadata. Before timing, the binary asserts that every
//! multi-threaded run produces a byte-identical match (same pair list,
//! same score bits) as the sequential one — the determinism contract of
//! the pool wiring.
//!
//! Run: `cargo run -p ic-bench --release --bin bench_parallel_scaling`

use ic_bench::harness::{available_cores, Suite};
use ic_core::{signature_match, Comparator, SignatureConfig};
use ic_datagen::{mod_cell, Dataset};
use ic_model::{Catalog, Instance};

const THREAD_STEPS: [usize; 4] = [1, 2, 4, 8];

/// Asserts the outcome at `threads` is byte-identical to the baseline.
fn assert_identical(
    threads: usize,
    base: &ic_core::SignatureOutcome,
    got: &ic_core::SignatureOutcome,
) {
    assert_eq!(
        base.best.pairs, got.best.pairs,
        "pair list diverged at {threads} threads"
    );
    assert_eq!(
        base.best.score().to_bits(),
        got.best.score().to_bits(),
        "score bits diverged at {threads} threads"
    );
}

fn scaling_over(
    suite: &mut Suite,
    id_prefix: &str,
    source: &Instance,
    target: &Instance,
    catalog: &Catalog,
    cfg: &SignatureConfig,
) {
    let baseline = ic_pool::with_threads(1, || signature_match(source, target, catalog, cfg));
    let mut medians = Vec::new();
    for threads in THREAD_STEPS {
        let out = ic_pool::with_threads(threads, || signature_match(source, target, catalog, cfg));
        assert_identical(threads, &baseline, &out);
        suite.measure(&format!("{id_prefix}/threads/{threads}"), || {
            ic_pool::with_threads(threads, || signature_match(source, target, catalog, cfg))
        });
        medians.push(suite.records().last().expect("just measured").median);
    }
    for (i, threads) in THREAD_STEPS.iter().enumerate().skip(1) {
        let speedup = medians[0].as_secs_f64() / medians[i].as_secs_f64().max(f64::MIN_POSITIVE);
        suite.set_meta(
            &format!("{id_prefix}/speedup_{threads}t"),
            &format!("{speedup:.2}"),
        );
        // On a multi-core machine, adding threads must not *slow down* the
        // signature match (lenient 0.9× floor: scheduling noise). A
        // single-core box cannot honor this, so the assertion is gated on
        // the recorded core count (ROADMAP's perf caveat).
        if available_cores() > 1 {
            assert!(
                speedup >= 0.9,
                "{id_prefix}: {threads}-thread run regressed to {speedup:.2}x \
                 the sequential baseline on a {}-core machine",
                available_cores()
            );
        }
    }
}

fn main() {
    let mut suite = Suite::new("BENCH_parallel");
    suite.set_meta(
        "thread_steps",
        &THREAD_STEPS.map(|t| t.to_string()).join(","),
    );
    let cfg = SignatureConfig::default();

    // Intra-comparison parallelism: one large instance pair per dataset.
    for dataset in [Dataset::Doctors, Dataset::Bikeshare] {
        let sc = mod_cell(dataset, 2_000, 0.05, 42);
        scaling_over(
            &mut suite,
            &format!("signature/{}", dataset.short_name()),
            &sc.source,
            &sc.target,
            &sc.catalog,
            &cfg,
        );
    }

    // Batch-level parallelism: compare_many over a sweep of pairs sharing
    // one catalog (the multi-dataset sweep shape).
    let sc = mod_cell(Dataset::Doctors, 600, 0.05, 7);
    let pairs: Vec<(&Instance, &Instance)> = (0..8).map(|_| (&sc.source, &sc.target)).collect();
    let cmp = Comparator::new(&sc.catalog)
        .build()
        .expect("default config");
    let compare_many = || cmp.compare_many(&pairs).expect("schemas match");
    let batch_base = ic_pool::with_threads(1, compare_many);
    let mut medians = Vec::new();
    for threads in THREAD_STEPS {
        let batch = ic_pool::with_threads(threads, compare_many);
        for (b, g) in batch_base.iter().zip(&batch) {
            assert_identical(threads, &b.outcome, &g.outcome);
        }
        suite.measure(
            &format!("compare_many/doctors/8x600/threads/{threads}"),
            || ic_pool::with_threads(threads, compare_many),
        );
        medians.push(suite.records().last().expect("just measured").median);
    }
    for (i, threads) in THREAD_STEPS.iter().enumerate().skip(1) {
        let speedup = medians[0].as_secs_f64() / medians[i].as_secs_f64().max(f64::MIN_POSITIVE);
        suite.set_meta(
            &format!("compare_many/speedup_{threads}t"),
            &format!("{speedup:.2}"),
        );
        if available_cores() > 1 {
            assert!(
                speedup >= 0.9,
                "compare_many: {threads}-thread run regressed to {speedup:.2}x"
            );
        }
    }

    suite.set_meta("identical_across_threads", "true");
    suite.finish();
}
