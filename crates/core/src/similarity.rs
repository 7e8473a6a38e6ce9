//! The comparison bundle and the ground baseline.
//!
//! `similarity(I, I') = max_{M ∈ 𝓜}(score(M))` (Def. 3.2). The exact
//! algorithm realizes the maximum (NP-hard, Thm. 5.11); the signature
//! algorithm approximates it greedily in PTIME. Both run through
//! [`crate::Comparator`]; [`Comparison`] is what its `compare` methods
//! return.

use crate::explain::InstanceDiff;
use crate::signature::SignatureOutcome;
use ic_model::{Instance, Value};

/// A one-call comparison bundle: the similarity score, the witnessing
/// instance match, and the derived difference report.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// The signature algorithm's outcome (match + stats + timing).
    pub outcome: SignatureOutcome,
    /// The difference report derived from the match.
    pub diff: InstanceDiff,
}

impl Comparison {
    /// The similarity score.
    pub fn score(&self) -> f64 {
        self.outcome.best.score()
    }
}

/// The normalized symmetric-difference similarity for **ground** instances
/// (paper Sec. 3):
///
/// `Δ(I, I') = 1 − |(I − I') ∪ (I' − I)| / (|I| + |I'|)`
///
/// Tuples are compared by value (bag semantics: each occurrence counts).
/// This baseline ignores labeled nulls entirely — a null only equals the
/// identical null — which is exactly the deficiency (violating Eq. 2) the
/// paper's measure fixes.
pub fn symmetric_difference_similarity(left: &Instance, right: &Instance) -> f64 {
    use ic_model::FxHashMap;
    let total = left.num_tuples() + right.num_tuples();
    if total == 0 {
        return 1.0;
    }
    // Multiset intersection per relation.
    let mut common = 0usize;
    for rel_idx in 0..left.num_relations().min(right.num_relations()) {
        let rel = ic_model::RelId(rel_idx as u16);
        let mut counts: FxHashMap<&[Value], usize> = FxHashMap::default();
        for t in left.tuples(rel) {
            *counts.entry(t.values()).or_default() += 1;
        }
        for t in right.tuples(rel) {
            if let Some(c) = counts.get_mut(t.values()) {
                if *c > 0 {
                    *c -= 1;
                    common += 1;
                }
            }
        }
    }
    let sym_diff = total - 2 * common;
    1.0 - sym_diff as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{exact_match, ExactConfig};
    use crate::signature::{signature_match, SignatureConfig};
    use crate::Comparator;
    use ic_model::{Catalog, RelId, Schema};

    const EPS: f64 = 1e-9;

    fn exact_score(l: &Instance, r: &Instance, cat: &Catalog) -> f64 {
        exact_match(l, r, cat, &ExactConfig::default()).best.score()
    }

    fn signature_score(l: &Instance, r: &Instance, cat: &Catalog) -> f64 {
        signature_match(l, r, cat, &SignatureConfig::default())
            .best
            .score()
    }

    #[test]
    fn exact_and_signature_agree_on_easy_case() {
        let mut cat = Catalog::new(Schema::single("R", &["A", "B"]));
        let rel = RelId(0);
        let (a, b) = (cat.konst("a"), cat.konst("b"));
        let n = cat.fresh_null();
        let mut l = Instance::new("I", &cat);
        l.insert(rel, vec![a, b]);
        l.insert(rel, vec![b, n]);
        let r = l.clone();
        let e = exact_score(&l, &r, &cat);
        let s = signature_score(&l, &r, &cat);
        assert!((e - s).abs() < EPS);
        assert!((e - 1.0).abs() < EPS);
    }

    #[test]
    fn signature_never_exceeds_exact() {
        // Signature is a feasible match, so its score is a lower bound on
        // the optimum.
        let mut cat = Catalog::new(Schema::single("R", &["A", "B"]));
        let rel = RelId(0);
        let consts: Vec<Value> = (0..4).map(|i| cat.konst(&format!("c{i}"))).collect();
        let mut l = Instance::new("I", &cat);
        let mut r = Instance::new("J", &cat);
        for i in 0..3 {
            let n = cat.fresh_null();
            let m = cat.fresh_null();
            l.insert(rel, vec![consts[i], n]);
            r.insert(rel, vec![consts[(i + 1) % 4], m]);
        }
        let e = exact_score(&l, &r, &cat);
        let s = signature_score(&l, &r, &cat);
        assert!(s <= e + EPS, "signature {s} exceeds exact {e}");
    }

    #[test]
    fn symmetric_difference_ground() {
        let mut cat = Catalog::new(Schema::single("R", &["A"]));
        let rel = RelId(0);
        let (a, b, c) = (cat.konst("a"), cat.konst("b"), cat.konst("c"));
        let mut l = Instance::new("I", &cat);
        l.insert(rel, vec![a]);
        l.insert(rel, vec![b]);
        let mut r = Instance::new("J", &cat);
        r.insert(rel, vec![b]);
        r.insert(rel, vec![c]);
        // one shared tuple of four: Δ = 1 - 2/4 = 0.5.
        assert!((symmetric_difference_similarity(&l, &r) - 0.5).abs() < EPS);
    }

    #[test]
    fn symmetric_difference_violates_eq2_but_measure_does_not() {
        // Isomorphic incomplete instances: Δ says 0, similarity says 1.
        let mut cat = Catalog::new(Schema::single("R", &["A"]));
        let rel = RelId(0);
        let n1 = cat.fresh_null();
        let n2 = cat.fresh_null();
        let mut l = Instance::new("I", &cat);
        l.insert(rel, vec![n1]);
        let mut r = Instance::new("J", &cat);
        r.insert(rel, vec![n2]);
        assert_eq!(symmetric_difference_similarity(&l, &r), 0.0);
        let s = exact_score(&l, &r, &cat);
        assert!((s - 1.0).abs() < EPS);
    }

    #[test]
    fn symmetric_difference_bag_semantics() {
        let mut cat = Catalog::new(Schema::single("R", &["A"]));
        let rel = RelId(0);
        let a = cat.konst("a");
        let mut l = Instance::new("I", &cat);
        l.insert(rel, vec![a]);
        l.insert(rel, vec![a]);
        let mut r = Instance::new("J", &cat);
        r.insert(rel, vec![a]);
        // common = 1, total = 3, Δ = 1 - 1/3 = 2/3.
        assert!((symmetric_difference_similarity(&l, &r) - 2.0 / 3.0).abs() < EPS);
    }

    #[test]
    fn compare_bundles_score_and_diff() {
        let mut cat = Catalog::new(Schema::single("R", &["A"]));
        let rel = RelId(0);
        let a = cat.konst("a");
        let b = cat.konst("b");
        let mut l = Instance::new("I", &cat);
        l.insert(rel, vec![a]);
        l.insert(rel, vec![b]);
        let mut r = Instance::new("J", &cat);
        r.insert(rel, vec![a]);
        let c = Comparator::new(&cat)
            .build()
            .unwrap()
            .compare(&l, &r)
            .unwrap();
        assert!(c.score() > 0.0 && c.score() < 1.0);
        assert_eq!(c.diff.unchanged.len(), 1);
        assert_eq!(c.diff.deleted.len(), 1);
        assert_eq!(c.diff.inserted.len(), 0);
    }

    #[test]
    fn compare_many_matches_sequential_compare() {
        let mut cat = Catalog::new(Schema::single("R", &["A", "B"]));
        let rel = RelId(0);
        let mut instances = Vec::new();
        for v in 0..6 {
            let mut inst = Instance::new(format!("I{v}"), &cat);
            for i in 0..8 {
                let a = cat.konst(&format!("a{}", (i + v) % 5));
                let b = if (i + v) % 3 == 0 {
                    cat.fresh_null()
                } else {
                    cat.konst(&format!("b{i}"))
                };
                inst.insert(rel, vec![a, b]);
            }
            instances.push(inst);
        }
        let pairs: Vec<(&Instance, &Instance)> =
            instances.windows(2).map(|w| (&w[0], &w[1])).collect();
        let cmp = Comparator::new(&cat).build().unwrap();
        let batch = cmp.compare_many(&pairs).unwrap();
        assert_eq!(batch.len(), pairs.len());
        for (c, &(l, r)) in batch.iter().zip(&pairs) {
            let solo = cmp.compare(l, r).unwrap();
            assert_eq!(c.score().to_bits(), solo.score().to_bits());
            assert_eq!(c.outcome.best.pairs, solo.outcome.best.pairs);
        }
        // Empty input short-circuits.
        assert!(cmp.compare_many(&[]).unwrap().is_empty());
    }

    #[test]
    fn both_returns_consistent_outcomes() {
        let mut cat = Catalog::new(Schema::single("R", &["A"]));
        let rel = RelId(0);
        let a = cat.konst("a");
        let mut l = Instance::new("I", &cat);
        l.insert(rel, vec![a]);
        let r = l.clone();
        let (e, s) = Comparator::new(&cat).build().unwrap().both(&l, &r).unwrap();
        assert!(e.optimal);
        assert!((e.best.score() - s.best.score()).abs() < EPS);
    }
}
