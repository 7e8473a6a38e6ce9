//! Local-search refinement of an instance match.
//!
//! The signature algorithm is greedy: once a tuple pair is committed, a
//! better partner discovered later is lost (the paper accepts this —
//! Sec. 6.2 — and its evaluation shows the gap is tiny). This module adds a
//! bounded hill-climbing pass that closes part of that gap:
//!
//! * **augment** — match still-unmatched left tuples against unmatched
//!   right tuples (value bindings from other pairs may have changed since
//!   the completion step saw them);
//! * **reassign** — for every matched pair, try swapping the right partner
//!   for an unmatched alternative and keep the swap if the total score
//!   improves (e.g. a null-null renaming beats a null-constant binding).
//!
//! The refined score is never lower than the input score, and each round
//! costs `O(pairs × candidates)` full-score evaluations — intended for
//! moderate instances or as a final polish, not for the 100k-row regime.

use crate::compat::CandidateIndex;
use crate::mapping::{InstanceMatch, MatchMode, Pair};
use crate::score::{score_state, ScoreConfig};
use crate::state::MatchState;
use ic_model::{Catalog, FxHashSet, Instance, TupleId};

/// Configuration of the refinement pass.
#[derive(Debug, Clone, Copy)]
pub struct RefineConfig {
    /// Maximum hill-climbing rounds (each round scans all moves once).
    pub max_rounds: usize,
    /// Scoring parameters (must match the ones the input match was scored
    /// with for the improvement guarantee to be meaningful).
    pub score: ScoreConfig,
    /// Tuple-mapping restrictions (refinement preserves them).
    pub mode: MatchMode,
}

impl Default for RefineConfig {
    fn default() -> Self {
        Self {
            max_rounds: 2,
            score: ScoreConfig::default(),
            mode: MatchMode::one_to_one(),
        }
    }
}

/// Evaluates a pair set from scratch; returns `None` if infeasible.
fn eval(
    left: &Instance,
    right: &Instance,
    catalog: &Catalog,
    cfg: &ScoreConfig,
    pairs: &[Pair],
) -> Option<f64> {
    let st = MatchState::replay(left, right, pairs.iter().copied(), false);
    (st.len() == pairs.len()).then(|| score_state(&st, cfg, catalog).score)
}

/// Refines `initial` by bounded hill climbing; returns a match whose score
/// is ≥ the input's. Pairs order may change.
pub fn refine_match(
    left: &Instance,
    right: &Instance,
    catalog: &Catalog,
    initial: &InstanceMatch,
    cfg: &RefineConfig,
) -> InstanceMatch {
    let mut pairs: Vec<Pair> = initial.pairs.clone();
    let mut best_score =
        eval(left, right, catalog, &cfg.score, &pairs).expect("input match must be feasible");

    // Candidate indexes per relation.
    let rels: Vec<ic_model::RelId> = catalog.schema().rel_ids().collect();
    let indexes: Vec<CandidateIndex> = rels
        .iter()
        .map(|&rel| CandidateIndex::build(right.tuples(rel)))
        .collect();

    for _ in 0..cfg.max_rounds {
        let mut improved = false;

        // Current occupancy.
        let matched_left: FxHashSet<TupleId> = pairs.iter().map(|p| p.left).collect();
        let matched_right: FxHashSet<TupleId> = pairs.iter().map(|p| p.right).collect();

        // Move 1: augment unmatched left tuples.
        for (rel_idx, &rel) in rels.iter().enumerate() {
            for t in left.tuples(rel) {
                if cfg.mode.left_injective && matched_left.contains(&t.id()) {
                    continue;
                }
                for rt in indexes[rel_idx].compatible_candidates(right, t) {
                    if cfg.mode.right_injective && matched_right.contains(&rt) {
                        continue;
                    }
                    let candidate_pair = Pair {
                        rel,
                        left: t.id(),
                        right: rt,
                    };
                    if pairs.contains(&candidate_pair) {
                        continue;
                    }
                    let mut attempt = pairs.clone();
                    attempt.push(candidate_pair);
                    if let Some(s) = eval(left, right, catalog, &cfg.score, &attempt) {
                        if s > best_score + 1e-12 {
                            pairs = attempt;
                            best_score = s;
                            improved = true;
                            break;
                        }
                    }
                }
                if improved {
                    break;
                }
            }
            if improved {
                break;
            }
        }
        if improved {
            continue; // re-scan with updated occupancy
        }

        // Move 2: reassign a matched pair's right partner.
        'outer: for i in 0..pairs.len() {
            let p = pairs[i];
            let rel_idx = rels.iter().position(|&r| r == p.rel).expect("known rel");
            let t = left.tuple(p.left).expect("left tuple exists");
            for rt in indexes[rel_idx].compatible_candidates(right, t) {
                if rt == p.right {
                    continue;
                }
                if cfg.mode.right_injective && matched_right.contains(&rt) {
                    continue;
                }
                let mut attempt = pairs.clone();
                attempt[i] = Pair { right: rt, ..p };
                if let Some(s) = eval(left, right, catalog, &cfg.score, &attempt) {
                    if s > best_score + 1e-12 {
                        pairs = attempt;
                        best_score = s;
                        improved = true;
                        break 'outer;
                    }
                }
            }
        }

        if !improved {
            break;
        }
    }

    // Realize the final match.
    let st = MatchState::replay(left, right, pairs.iter().copied(), false);
    assert_eq!(st.len(), pairs.len(), "refined pairs are feasible");
    st.to_match(&cfg.score, catalog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{exact_match, ExactConfig};
    use crate::signature::{signature_match, SignatureConfig};
    use ic_model::{Catalog, RelId, Schema};

    const EPS: f64 = 1e-9;

    #[test]
    fn reassign_fixes_a_greedy_mistake() {
        // left t1 = (a, N); right u1 = (a, b), u2 = (a, M).
        // Greedy signature matches (t1, u1) via the [A:a] signature (score
        // (1+λ)·2/6); the optimum is (t1, u2), a pure renaming (4/6).
        let mut cat = Catalog::new(Schema::single("R", &["A", "B"]));
        let rel = RelId(0);
        let (a, b) = (cat.konst("a"), cat.konst("b"));
        let n = cat.fresh_null();
        let m = cat.fresh_null();
        let mut l = Instance::new("I", &cat);
        l.insert(rel, vec![a, n]);
        let mut r = Instance::new("J", &cat);
        r.insert(rel, vec![a, b]);
        r.insert(rel, vec![a, m]);

        let greedy = signature_match(&l, &r, &cat, &SignatureConfig::default());
        let optimum = exact_match(&l, &r, &cat, &ExactConfig::default());
        let refined = refine_match(&l, &r, &cat, &greedy.best, &RefineConfig::default());
        assert!(refined.score() >= greedy.best.score() - EPS);
        assert!(
            (refined.score() - optimum.best.score()).abs() < EPS,
            "refined {} vs optimum {}",
            refined.score(),
            optimum.best.score()
        );
        assert!(optimum.best.score() > greedy.best.score() + 0.05);
    }

    #[test]
    fn refinement_never_decreases_score() {
        use ic_datagen::{mod_cell, Dataset};
        let sc = mod_cell(Dataset::Bikeshare, 120, 0.10, 31);
        let greedy = signature_match(
            &sc.source,
            &sc.target,
            &sc.catalog,
            &SignatureConfig::default(),
        );
        let refined = refine_match(
            &sc.source,
            &sc.target,
            &sc.catalog,
            &greedy.best,
            &RefineConfig::default(),
        );
        assert!(refined.score() >= greedy.best.score() - EPS);
    }

    #[test]
    fn refinement_preserves_injectivity() {
        use ic_datagen::{mod_cell, Dataset};
        let sc = mod_cell(Dataset::Iris, 60, 0.10, 33);
        let greedy = signature_match(
            &sc.source,
            &sc.target,
            &sc.catalog,
            &SignatureConfig::default(),
        );
        let refined = refine_match(
            &sc.source,
            &sc.target,
            &sc.catalog,
            &greedy.best,
            &RefineConfig::default(),
        );
        assert!(refined.is_left_injective());
        assert!(refined.is_right_injective());
    }

    #[test]
    fn zero_rounds_is_identity() {
        let mut cat = Catalog::new(Schema::single("R", &["A"]));
        let rel = RelId(0);
        let a = cat.konst("a");
        let mut l = Instance::new("I", &cat);
        l.insert(rel, vec![a]);
        let r = l.clone();
        let greedy = signature_match(&l, &r, &cat, &SignatureConfig::default());
        let cfg = RefineConfig {
            max_rounds: 0,
            ..Default::default()
        };
        let refined = refine_match(&l, &r, &cat, &greedy.best, &cfg);
        assert_eq!(refined.pairs, greedy.best.pairs);
    }
}
