//! Determinism contract of the `ic-pool` wiring: every parallel hot path
//! (pair scoring, signature matching, batch comparison) must produce
//! bit-identical results at any thread count, and degenerate scoring
//! configurations must be rejected at the API boundary instead of
//! panicking mid-search.

use ic_core::{
    compare_many, score_state, signature_match, Comparator, MatchState, ScoreConfig,
    SignatureConfig,
};
use ic_model::{Catalog, Instance, RelId, Schema, Value};
use ic_testkit::{Gen, Runner};
use rand::RngExt;

#[derive(Debug, Clone, Copy)]
enum Cell {
    Const(u8),
    Null(u8),
}

fn gen_cell(g: &mut Gen) -> Cell {
    if g.rng().random_bool(0.6) {
        Cell::Const(g.rng().random_range(0..5u8))
    } else {
        Cell::Null(g.rng().random_range(0..4u8))
    }
}

fn gen_rows(g: &mut Gen, max_rows: usize) -> Vec<[Cell; 3]> {
    let n = g.rng().random_range(0..=max_rows);
    (0..n)
        .map(|_| [gen_cell(g), gen_cell(g), gen_cell(g)])
        .collect()
}

/// Materializes row descriptors; nulls with the same tag are shared within
/// one instance (so value-consistency constraints actually bind).
fn build_instance(cat: &mut Catalog, name: &str, rows: &[[Cell; 3]]) -> Instance {
    let rel = RelId(0);
    let mut nulls: Vec<Option<Value>> = vec![None; 4];
    let mut inst = Instance::new(name, cat);
    for row in rows {
        let vals: Vec<Value> = row
            .iter()
            .map(|c| match *c {
                Cell::Const(k) => cat.konst(&format!("c{k}")),
                Cell::Null(k) => *nulls[k as usize].get_or_insert_with(|| cat.fresh_null()),
            })
            .collect();
        inst.insert(rel, vals);
    }
    inst
}

/// A deterministic synthetic pair large enough to cross the pool's
/// min-chunk thresholds, with nulls sprinkled in.
fn large_pair(rows: usize) -> (Catalog, Instance, Instance) {
    let mut cat = Catalog::new(Schema::single("R", &["A", "B", "C"]));
    let rel = RelId(0);
    let mut left = Instance::new("I", &cat);
    let mut right = Instance::new("J", &cat);
    for i in 0..rows {
        let a = cat.konst(&format!("a{}", i % 97));
        let b = cat.konst(&format!("b{i}"));
        let lc = if i % 5 == 0 {
            cat.fresh_null()
        } else {
            cat.konst(&format!("c{}", i % 13))
        };
        let rc = if i % 7 == 0 {
            cat.fresh_null()
        } else {
            cat.konst(&format!("c{}", i % 13))
        };
        left.insert(rel, vec![a, b, lc]);
        right.insert(rel, vec![a, b, rc]);
    }
    (cat, left, right)
}

/// (a) `score_state` is bit-for-bit identical in parallel and sequential
/// execution, including above the 512-pair fan-out threshold.
#[test]
fn score_state_parallel_matches_sequential_bitwise() {
    let rel = RelId(0);
    let cfg = ScoreConfig::default();
    for rows in [3usize, 40, 700] {
        let (cat, left, right) = large_pair(rows);
        let mut st = MatchState::new(&left, &right);
        for (lt, rt) in left
            .tuples(rel)
            .iter()
            .zip(right.tuples(rel))
            .map(|(l, r)| (l.id(), r.id()))
        {
            // Conflicting pairs are simply skipped; the pushed set is
            // identical regardless of thread count.
            let _ = st.try_push_pair(rel, lt, rt, false);
        }
        let base = ic_pool::with_threads(1, || score_state(&st, &cfg, &cat));
        for threads in [2usize, 8] {
            let par = ic_pool::with_threads(threads, || score_state(&st, &cfg, &cat));
            assert_eq!(
                base.score.to_bits(),
                par.score.to_bits(),
                "score diverged at rows={rows} threads={threads}"
            );
        }
    }
}

/// (b) The signature algorithm returns the same match — same pair list,
/// same score bits — under `IC_POOL_THREADS` ∈ {1, 2, 8}, on random
/// instances (via the thread-local override) in both complete and partial
/// mode.
#[test]
fn signature_match_invariant_across_thread_counts() {
    Runner::new("signature_match_invariant_across_thread_counts")
        .cases(48)
        .run(
            |g| (gen_rows(g, 24), gen_rows(g, 24), g.rng().random_bool(0.3)),
            |(lrows, rrows, partial)| {
                let mut cat = Catalog::new(Schema::single("R", &["A", "B", "C"]));
                let left = build_instance(&mut cat, "I", lrows);
                let right = build_instance(&mut cat, "J", rrows);
                let cfg = SignatureConfig {
                    partial: *partial,
                    ..Default::default()
                };
                let base = ic_pool::with_threads(1, || signature_match(&left, &right, &cat, &cfg));
                for threads in [2usize, 8] {
                    let par = ic_pool::with_threads(threads, || {
                        signature_match(&left, &right, &cat, &cfg)
                    });
                    assert_eq!(base.best.pairs, par.best.pairs, "threads={threads}");
                    assert_eq!(
                        base.best.score().to_bits(),
                        par.best.score().to_bits(),
                        "threads={threads}"
                    );
                    assert_eq!(base.stats.sig_matches, par.stats.sig_matches);
                    assert_eq!(base.stats.exhaustive_matches, par.stats.exhaustive_matches);
                }
            },
        );
}

/// Same invariance on an instance pair large enough that the signature-map
/// build, the probe pass and the completion all actually fan out.
#[test]
fn signature_match_invariant_above_parallel_thresholds() {
    let (cat, left, right) = large_pair(1_500);
    let cfg = SignatureConfig::default();
    let base = ic_pool::with_threads(1, || signature_match(&left, &right, &cat, &cfg));
    assert!(!base.best.pairs.is_empty());
    for threads in [2usize, 4, 8] {
        let par = ic_pool::with_threads(threads, || signature_match(&left, &right, &cat, &cfg));
        assert_eq!(base.best.pairs, par.best.pairs, "threads={threads}");
        assert_eq!(base.best.score().to_bits(), par.best.score().to_bits());
    }
}

/// `compare_many` equals a sequential `compare` loop at every thread count.
#[test]
fn compare_many_invariant_across_thread_counts() {
    let (cat, left, right) = large_pair(200);
    let pairs: Vec<(&Instance, &Instance)> = vec![(&left, &right), (&right, &left), (&left, &left)];
    let cfg = SignatureConfig::default();
    let base = ic_pool::with_threads(1, || compare_many(&pairs, &cat, &cfg));
    for threads in [2usize, 8] {
        let par = ic_pool::with_threads(threads, || compare_many(&pairs, &cat, &cfg));
        assert_eq!(base.len(), par.len());
        for (b, p) in base.iter().zip(&par) {
            assert_eq!(
                b.outcome.best.pairs, p.outcome.best.pairs,
                "threads={threads}"
            );
            assert_eq!(b.score().to_bits(), p.score().to_bits());
        }
    }
}

/// (c) NaN and out-of-range scoring configurations are rejected with an
/// `Err` when the `Comparator` is built — no panic, no degenerate search.
#[test]
fn degenerate_configs_return_err() {
    let mut cat = Catalog::new(Schema::single("R", &["A"]));
    let rel = RelId(0);
    let a = cat.konst("a");
    let mut left = Instance::new("I", &cat);
    left.insert(rel, vec![a]);
    let right = left.clone();

    for lambda in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.1, 1.0, 7.0] {
        let score = ScoreConfig {
            lambda,
            ..Default::default()
        };
        assert!(
            score.validate().is_err(),
            "lambda={lambda} must be rejected"
        );
        assert!(
            Comparator::new(&cat).lambda(lambda).build().is_err(),
            "lambda={lambda} must be rejected at build"
        );
    }
    // The default config builds, and every algorithm runs through it.
    let cmp = Comparator::new(&cat).build().unwrap();
    assert!(cmp.exact(&left, &right).unwrap().optimal);
    assert!(!cmp.signature(&left, &right).unwrap().timed_out);
    assert_eq!(cmp.compare_many(&[(&left, &right)]).unwrap().len(), 1);
}
