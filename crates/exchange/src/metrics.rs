//! Baseline quality metrics for exchange solutions (paper Table 6).

use ic_core::{is_homomorphic, CandidateIndex};
use ic_model::{Catalog, Instance};

/// Whether `solution` is a *universal* solution with respect to a known
/// core: universal solutions (and only they, among solutions) map
/// homomorphically into the core. The paper highlights this check as the
/// first scalable alternative to brute force for benchmarking the chase.
pub fn is_universal(solution: &Instance, core: &Instance) -> bool {
    is_homomorphic(solution, core)
}

/// The *Row score* baseline: the ratio of tuple counts between solution and
/// gold, oriented so it lies in `[0, 1]` (the paper reports
/// `gold rows / solution rows` when the solution is larger, and 1.0 when
/// the counts coincide — which is exactly `min/max`).
pub fn row_score(solution: &Instance, gold: &Instance) -> f64 {
    let s = solution.num_tuples() as f64;
    let g = gold.num_tuples() as f64;
    if s == 0.0 && g == 0.0 {
        return 1.0;
    }
    if s.max(g) == 0.0 {
        return 0.0;
    }
    s.min(g) / s.max(g)
}

/// Number of gold tuples with no c-compatible tuple in the solution — the
/// paper's "Miss. Rows" column. A gold row counts as present if some
/// solution tuple agrees with it on every attribute where both hold
/// constants.
pub fn missing_rows(solution: &Instance, gold: &Instance, catalog: &Catalog) -> usize {
    let mut missing = 0usize;
    for rel in catalog.schema().rel_ids() {
        if gold.tuples(rel).is_empty() {
            continue;
        }
        let index = CandidateIndex::build(solution.tuples(rel));
        for t in gold.tuples(rel) {
            if index.c_compatible_candidates(solution, t).is_empty() {
                missing += 1;
            }
        }
    }
    missing
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_model::Schema;

    #[test]
    fn row_score_orientations() {
        let mut cat = Catalog::new(Schema::single("R", &["A"]));
        let rel = cat.schema().rel("R").unwrap();
        let a = cat.konst("a");
        let mut small = Instance::new("S", &cat);
        small.insert(rel, vec![a]);
        let mut big = Instance::new("B", &cat);
        big.insert(rel, vec![a]);
        big.insert(rel, vec![a]);
        assert_eq!(row_score(&big, &small), 0.5);
        assert_eq!(row_score(&small, &big), 0.5);
        assert_eq!(row_score(&small, &small), 1.0);
    }

    #[test]
    fn empty_instances_row_score() {
        let cat = Catalog::new(Schema::single("R", &["A"]));
        let e = Instance::new("E", &cat);
        assert_eq!(row_score(&e, &e), 1.0);
    }

    #[test]
    fn missing_rows_counts_unmatched_gold() {
        let mut cat = Catalog::new(Schema::single("R", &["A", "B"]));
        let rel = cat.schema().rel("R").unwrap();
        let (a, b, x) = (cat.konst("a"), cat.konst("b"), cat.konst("x"));
        let n = cat.fresh_null();
        let mut gold = Instance::new("G", &cat);
        gold.insert(rel, vec![a, b]);
        gold.insert(rel, vec![x, x]);
        let mut sol = Instance::new("S", &cat);
        sol.insert(rel, vec![a, n]); // covers (a, b) via the null
        assert_eq!(missing_rows(&sol, &gold, &cat), 1); // (x, x) missing
    }
}
