//! Tuple mappings, match modes, and the realized instance-match output.
//!
//! A *tuple mapping* `m ⊆ I × I'` selects which tuples are matched
//! (Def. 4.2); a *match mode* captures the injectivity/totality restrictions
//! the paper tailors to applications (Sec. 4.3): data versioning wants fully
//! injective mappings, universal-solution comparison wants total
//! non-injective ones, repair evaluation wants complete fully-injective ones.

use crate::state::MatchState;
use ic_model::{FxHashMap, Instance, RelId, TupleId, Value};

/// Restrictions on tuple mappings (paper Sec. 4.2–4.3).
///
/// The algorithms *enforce* the injectivity flags during search and *verify*
/// the totality flags on the result (a non-total result under a total
/// requirement signals that no total match exists within the explored space).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchMode {
    /// No tuple of `I` may be matched to two tuples of `I'`
    /// (the mapping is functional on `I`).
    pub left_injective: bool,
    /// No tuple of `I'` may be matched to two tuples of `I`.
    pub right_injective: bool,
    /// Every tuple of `I` should be matched (left-total).
    pub left_total: bool,
    /// Every tuple of `I'` should be matched (right-total).
    pub right_total: bool,
}

impl MatchMode {
    /// Fully injective, non-total: the paper's "functional and injective
    /// (1 to 1)" setting used for data versioning and repair comparison.
    pub fn one_to_one() -> Self {
        Self {
            left_injective: true,
            right_injective: true,
            left_total: false,
            right_total: false,
        }
    }

    /// Unrestricted n-to-m mappings: the paper's "non-functional and
    /// non-injective" setting used for universal-solution comparison.
    pub fn general() -> Self {
        Self {
            left_injective: false,
            right_injective: false,
            left_total: false,
            right_total: false,
        }
    }

    /// Left-injective (functional) mappings: each left tuple matched at most
    /// once, right tuples may absorb several left tuples (merge scenarios).
    pub fn left_functional() -> Self {
        Self {
            left_injective: true,
            right_injective: false,
            left_total: false,
            right_total: false,
        }
    }

    /// Total fully-injective mappings — the isomorphism shape.
    pub fn bijective() -> Self {
        Self {
            left_injective: true,
            right_injective: true,
            left_total: true,
            right_total: true,
        }
    }
}

impl Default for MatchMode {
    /// Defaults to [`MatchMode::one_to_one`], the most common evaluation
    /// setting in the paper.
    fn default() -> Self {
        Self::one_to_one()
    }
}

/// One matched pair of tuples within a relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pair {
    /// Relation both tuples belong to.
    pub rel: RelId,
    /// The tuple of the left instance.
    pub left: TupleId,
    /// The tuple of the right instance.
    pub right: TupleId,
}

/// Image of a value under a realized (canonical) value mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mapped {
    /// The value maps to a constant.
    Const(ic_model::Sym),
    /// The value maps to a canonical fresh null identified by its
    /// unification-class id; equal ids mean equal images.
    CanonNull(u32),
}

/// A realized value mapping `adom(I) → Consts ∪ Vars` (Def. 4.1), rendered
/// from the canonical unification classes by
/// [`MatchState::value_mapping`]. Every value of the side's active domain
/// has an entry; a constant maps to itself.
pub type ValueMapping = FxHashMap<Value, Mapped>;

/// Detailed scoring output for an instance match (Sec. 5).
#[derive(Debug, Clone, Default)]
pub struct ScoreDetails {
    /// The normalized instance-match score in `[0, 1]` (Def. 5.3).
    pub score: f64,
    /// Per-pair scores, parallel to the pair list of the match
    /// (each in `[0, arity]`, Def. 5.5).
    pub pair_scores: Vec<f64>,
    /// Number of matched pairs.
    pub matched_pairs: usize,
    /// Number of distinct matched left tuples.
    pub matched_left: usize,
    /// Number of distinct matched right tuples.
    pub matched_right: usize,
    /// Left tuples with no match partner.
    pub unmatched_left: Vec<TupleId>,
    /// Right tuples with no match partner.
    pub unmatched_right: Vec<TupleId>,
}

/// An instance match `M = (h_l, h_r, m)` with its score — the output of
/// the exact and signature algorithms.
///
/// The match stores `m` only: the pairs fix the value mappings (Def. 4.3),
/// and [`replay`](Self::replay) rebuilds their partition, from which
/// [`MatchState::value_mapping`] renders `h_l` or `h_r`.
#[derive(Debug, Clone, Default)]
pub struct InstanceMatch {
    /// The tuple mapping `m`, in the order its pairs were pushed.
    pub pairs: Vec<Pair>,
    /// Scoring details; `details.score` is the similarity contributed by
    /// this match.
    pub details: ScoreDetails,
}

impl InstanceMatch {
    /// The similarity score of this match.
    pub fn score(&self) -> f64 {
        self.details.score
    }

    /// Rebuilds this match's partition over the instances it was computed
    /// on, with the canonical-null ids of the run that produced it.
    ///
    /// The replay runs in the partial regime, so a pair of a partial match
    /// keeps its conflicting cells misaligned; a pair of a complete match
    /// has no conflicting cell, so its unions are the same in either
    /// regime. Every pair is kept.
    pub fn replay<'a>(&self, left: &'a Instance, right: &'a Instance) -> MatchState<'a> {
        MatchState::replay(left, right, self.pairs.iter().copied(), true)
    }

    /// Whether the tuple mapping is left-injective.
    pub fn is_left_injective(&self) -> bool {
        let mut seen = ic_model::FxHashSet::default();
        self.pairs.iter().all(|p| seen.insert(p.left))
    }

    /// Whether the tuple mapping is right-injective.
    pub fn is_right_injective(&self) -> bool {
        let mut seen = ic_model::FxHashSet::default();
        self.pairs.iter().all(|p| seen.insert(p.right))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_presets() {
        let m = MatchMode::one_to_one();
        assert!(m.left_injective && m.right_injective);
        assert!(!m.left_total && !m.right_total);
        let g = MatchMode::general();
        assert!(!g.left_injective && !g.right_injective);
        let b = MatchMode::bijective();
        assert!(b.left_total && b.right_total);
        assert_eq!(MatchMode::default(), MatchMode::one_to_one());
        assert!(MatchMode::left_functional().left_injective);
        assert!(!MatchMode::left_functional().right_injective);
    }

    #[test]
    fn injectivity_checks_on_matches() {
        let p = |l: u32, r: u32| Pair {
            rel: RelId(0),
            left: TupleId(l),
            right: TupleId(r),
        };
        let m = InstanceMatch {
            pairs: vec![p(0, 0), p(1, 1)],
            ..Default::default()
        };
        assert!(m.is_left_injective() && m.is_right_injective());
        let m2 = InstanceMatch {
            pairs: vec![p(0, 0), p(0, 1)],
            ..Default::default()
        };
        assert!(!m2.is_left_injective());
        assert!(m2.is_right_injective());
    }
}
