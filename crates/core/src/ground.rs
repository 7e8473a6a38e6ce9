//! The PTIME special case: comparing **ground** instances (Thm. 5.11).
//!
//! Without nulls, two tuples can only be matched if they are *equal* (value
//! mappings are the identity on constants), every matched pair scores the
//! full arity, and ⊓ never penalizes. The optimization therefore
//! decomposes: per distinct tuple value `v`, match `min(count_I(v),
//! count_I'(v))` copies. The resulting similarity coincides with the
//! normalized symmetric difference Δ — exactly why the paper's Sec. 3
//! presents Δ as the ground baseline its measure generalizes.
//!
//! This module is the constructive half of the theorem: a linear-time
//! algorithm whose result provably equals the exact optimum on ground
//! inputs (see the property test in `tests/properties.rs`).

use crate::mapping::{InstanceMatch, Pair, ScoreDetails};
use ic_model::{Catalog, FxHashMap, Instance, TupleId, Value};

/// Computes the optimal instance match of two **ground** instances in
/// linear time: identical tuples are paired greedily (which is optimal —
/// every pairing of equal tuples scores identically).
///
/// # Panics
/// Panics if either instance contains a labeled null; use the exact or
/// signature algorithm for incomplete instances.
pub fn ground_match(left: &Instance, right: &Instance, catalog: &Catalog) -> InstanceMatch {
    assert!(
        left.is_ground() && right.is_ground(),
        "ground_match requires ground instances"
    );
    let mut pairs: Vec<Pair> = Vec::new();
    let mut pair_scores: Vec<f64> = Vec::new();
    let mut matched_left = 0usize;
    let mut matched_right = 0usize;
    let mut unmatched_left: Vec<TupleId> = Vec::new();
    let mut unmatched_right: Vec<TupleId> = Vec::new();
    let mut total = 0.0f64;

    for rel in catalog.schema().rel_ids() {
        let arity = catalog.schema().relation(rel).arity() as f64;
        // Bucket right tuples by value.
        let mut buckets: FxHashMap<&[Value], Vec<TupleId>> = FxHashMap::default();
        for t in right.tuples(rel) {
            buckets.entry(t.values()).or_default().push(t.id());
        }
        let mut used_right: ic_model::FxHashSet<TupleId> = ic_model::FxHashSet::default();
        for t in left.tuples(rel) {
            match buckets.get_mut(t.values()).and_then(Vec::pop) {
                Some(rid) => {
                    pairs.push(Pair {
                        rel,
                        left: t.id(),
                        right: rid,
                    });
                    pair_scores.push(arity);
                    matched_left += 1;
                    matched_right += 1;
                    used_right.insert(rid);
                    total += 2.0 * arity;
                }
                None => unmatched_left.push(t.id()),
            }
        }
        for t in right.tuples(rel) {
            if !used_right.contains(&t.id()) {
                unmatched_right.push(t.id());
            }
        }
    }

    let norm = (left.size() + right.size()) as f64;
    let matched_pairs = pairs.len();
    InstanceMatch {
        pairs,
        details: ScoreDetails {
            score: if norm == 0.0 { 1.0 } else { total / norm },
            pair_scores,
            matched_pairs,
            matched_left,
            matched_right,
            unmatched_left,
            unmatched_right,
        },
    }
}

/// The ground similarity in one call (equals
/// [`crate::symmetric_difference_similarity`] and, on ground inputs, the
/// exact optimum).
pub fn ground_similarity(left: &Instance, right: &Instance, catalog: &Catalog) -> f64 {
    ground_match(left, right, catalog).score()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{exact_match, ExactConfig};
    use crate::similarity::symmetric_difference_similarity;
    use ic_model::{RelId, Schema};

    const EPS: f64 = 1e-12;

    fn setup(rows_l: &[(&str, &str)], rows_r: &[(&str, &str)]) -> (Catalog, Instance, Instance) {
        let mut cat = Catalog::new(Schema::single("R", &["A", "B"]));
        let rel = RelId(0);
        let mut l = Instance::new("I", &cat);
        for &(a, b) in rows_l {
            let va = cat.konst(a);
            let vb = cat.konst(b);
            l.insert(rel, vec![va, vb]);
        }
        let mut r = Instance::new("J", &cat);
        for &(a, b) in rows_r {
            let va = cat.konst(a);
            let vb = cat.konst(b);
            r.insert(rel, vec![va, vb]);
        }
        (cat, l, r)
    }

    #[test]
    fn identical_instances_score_one() {
        let (cat, l, r) = setup(&[("a", "b"), ("c", "d")], &[("c", "d"), ("a", "b")]);
        let m = ground_match(&l, &r, &cat);
        assert!((m.score() - 1.0).abs() < EPS);
        assert_eq!(m.pairs.len(), 2);
    }

    #[test]
    fn equals_symmetric_difference() {
        let (cat, l, r) = setup(
            &[("a", "b"), ("a", "b"), ("c", "d")],
            &[("a", "b"), ("x", "y")],
        );
        let g = ground_similarity(&l, &r, &cat);
        let d = symmetric_difference_similarity(&l, &r);
        assert!((g - d).abs() < EPS);
        // min(2,1) matched of 5 tuples: 2/5.
        assert!((g - 0.4).abs() < EPS);
    }

    #[test]
    fn equals_exact_optimum() {
        let (cat, l, r) = setup(
            &[("a", "b"), ("a", "b"), ("c", "d"), ("e", "f")],
            &[("a", "b"), ("c", "d"), ("c", "d")],
        );
        let g = ground_similarity(&l, &r, &cat);
        let e = exact_match(&l, &r, &cat, &ExactConfig::default());
        assert!(e.optimal);
        assert!((g - e.best.score()).abs() < EPS);
    }

    #[test]
    fn duplicates_match_up_to_min_count() {
        let (cat, l, r) = setup(&[("a", "a"), ("a", "a"), ("a", "a")], &[("a", "a")]);
        let m = ground_match(&l, &r, &cat);
        assert_eq!(m.pairs.len(), 1);
        assert_eq!(m.details.unmatched_left.len(), 2);
    }

    #[test]
    #[should_panic(expected = "requires ground instances")]
    fn rejects_incomplete_instances() {
        let mut cat = Catalog::new(Schema::single("R", &["A"]));
        let rel = RelId(0);
        let n = cat.fresh_null();
        let mut l = Instance::new("I", &cat);
        l.insert(rel, vec![n]);
        let r = Instance::new("J", &cat);
        ground_match(&l, &r, &cat);
    }

    #[test]
    fn empty_instances_score_one() {
        let (cat, l, r) = setup(&[], &[]);
        assert_eq!(ground_similarity(&l, &r, &cat), 1.0);
    }
}
