//! Contracts of the `ic-obs` observability layer on real comparison
//! workloads:
//!
//! (a) every *deterministic* metric (everything but the execution-dependent
//!     `pool.*` family) is identical at any thread count,
//! (b) a span's total time dominates the sum of its children's totals in
//!     single-threaded runs, and
//! (c) the [`Comparator`] facade is bit-identical to the low-level
//!     `signature_match` / `exact_match` on random `ic-datagen` instances —
//!     observed or not.

use ic_core::obs::{observe, MemorySink, Report, SpanNode};
use ic_core::{exact_match, signature_match, Comparator, ExactConfig, MatchMode, SignatureConfig};
use ic_datagen::{build_scenario, Dataset, Scenario, ScenarioParams};
use std::sync::Arc;

fn scenario(rows: usize, seed: u64) -> Scenario {
    build_scenario(
        Dataset::Doctors,
        rows,
        &ScenarioParams {
            cell_noise: 0.08,
            random_frac: 0.05,
            redundant_frac: 0.05,
            seed,
            ..Default::default()
        },
    )
}

/// Runs one observed `compare` over `sc` pinned to `threads` workers and
/// returns the captured report.
fn observed_compare(sc: &Scenario, threads: usize) -> Report {
    let sink = Arc::new(MemorySink::new());
    let cmp = Comparator::new(&sc.catalog)
        .mode(MatchMode::general())
        .build()
        .expect("default scoring config is valid");
    {
        let _obs = observe("obs-props", sink.clone());
        ic_pool::with_threads(threads, || cmp.compare(&sc.source, &sc.target))
            .expect("schemas match");
    }
    sink.last().expect("one report per observation")
}

/// (a) Deterministic metrics do not depend on the thread count. The raw
/// reports differ (`pool.steals`, `pool.idle_nanos`, span timings), but
/// every algorithmic counter — nodes expanded, candidates consumed, cell
/// cases scored — must agree exactly between a sequential and a heavily
/// parallel run.
#[test]
fn deterministic_metrics_are_thread_count_invariant() {
    for seed in [3u64, 17, 99] {
        let sc = scenario(120, seed);
        let sequential = observed_compare(&sc, 1);
        let parallel = observed_compare(&sc, 4);
        assert_eq!(
            sequential.deterministic_metrics(),
            parallel.deterministic_metrics(),
            "seed {seed}: counters diverged between 1 and 4 threads"
        );
        // Sanity: the run actually produced the hot-path counters.
        assert!(sequential.counter("score.pairs").unwrap_or(0) > 0);
        assert!(
            sequential
                .counter("sig.probe.candidates_consumed")
                .unwrap_or(0)
                > 0
        );
    }
}

fn assert_parent_dominates(node: &SpanNode, path: &str) {
    let children: std::time::Duration = node.children.iter().map(|c| c.total).sum();
    assert!(
        node.total >= children,
        "span {path}/{}: total {:?} < child sum {:?}",
        node.name,
        node.total,
        children
    );
    for child in &node.children {
        assert_parent_dominates(child, &format!("{path}/{}", node.name));
    }
}

/// (b) In a single-threaded run every span is open for at least as long as
/// all of its children combined (children are nested strictly inside the
/// parent's enter/exit window). With workers the property would not hold —
/// pool tasks run concurrently, so merged child totals can exceed the
/// parent's wall time — which is why this pins one pool thread.
#[test]
fn span_totals_dominate_children_when_sequential() {
    let sc = scenario(100, 7);
    let report = observed_compare(&sc, 1);
    assert!(!report.spans.is_empty(), "observation captured no spans");
    for root in &report.spans {
        assert_parent_dominates(root, "");
    }
}

/// (c) The facade adds validation but must never change a result:
/// `Comparator` outputs, single and batched, run under an observation, are
/// bit-identical to the unobserved low-level `signature_match` /
/// `exact_match` on random instances.
#[test]
fn comparator_is_bit_identical_to_low_level_matchers() {
    for seed in [5u64, 23, 71] {
        let sc = scenario(80, seed);
        let sig_cfg = SignatureConfig {
            mode: MatchMode::general(),
            ..Default::default()
        };
        let exact_cfg = ExactConfig {
            mode: MatchMode::general(),
            max_nodes: Some(20_000),
            ..Default::default()
        };
        let cmp = Comparator::new(&sc.catalog)
            .mode(MatchMode::general())
            .max_nodes(20_000)
            .build()
            .unwrap();
        let pairs = [(&sc.source, &sc.target), (&sc.target, &sc.source)];
        // The facade runs observed, the free functions unobserved.
        let (facade_sig, facade_exact, facade_many) = {
            let _obs = observe("parity", Arc::new(MemorySink::new()));
            (
                cmp.signature(&sc.source, &sc.target).unwrap(),
                cmp.exact(&sc.source, &sc.target).unwrap(),
                cmp.compare_many(&pairs).unwrap(),
            )
        };

        let free_sig = signature_match(&sc.source, &sc.target, &sc.catalog, &sig_cfg);
        assert_eq!(
            facade_sig.best.score().to_bits(),
            free_sig.best.score().to_bits(),
            "seed {seed}: signature score diverged"
        );
        assert_eq!(facade_sig.best.pairs, free_sig.best.pairs);

        let free_exact = exact_match(&sc.source, &sc.target, &sc.catalog, &exact_cfg);
        assert_eq!(
            facade_exact.best.score().to_bits(),
            free_exact.best.score().to_bits(),
            "seed {seed}: exact score diverged"
        );
        assert_eq!(facade_exact.optimal, free_exact.optimal);

        assert_eq!(facade_many.len(), pairs.len());
        for (f, &(l, r)) in facade_many.iter().zip(&pairs) {
            let g = signature_match(l, r, &sc.catalog, &sig_cfg);
            assert_eq!(f.score().to_bits(), g.best.score().to_bits());
            assert_eq!(f.outcome.best.pairs, g.best.pairs);
        }
    }
}
