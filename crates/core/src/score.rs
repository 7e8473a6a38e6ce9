//! Scoring of instance matches (paper Sec. 5).
//!
//! Cell scores follow Def. 5.5 with the λ penalty for mapping a null to a
//! constant and the ⊓ non-injectivity measure of Eq. 6; tuple scores average
//! over the image of the tuple mapping (Def. 5.2); the instance score
//! normalizes by `size(I) + size(I')` (Def. 5.3). The canonical value
//! mappings are those induced by the match state's unification partition —
//! they are optimal for the given tuple mapping, since any additional
//! merging only raises ⊓ and any null-to-constant mapping not forced by the
//! pairs only loses score.

use crate::mapping::ScoreDetails;
use crate::state::MatchState;
use crate::strsim::levenshtein_similarity;
use crate::universe::Side;
use ic_model::{Catalog, Tuple, Value};
use std::fmt;

/// Minimum number of matched pairs before [`score_state`] fans the
/// per-pair scoring out over the [`ic_pool`] workers; below it the
/// sequential loop is faster than the coordination overhead.
const PAR_SCORE_MIN_PAIRS: usize = 512;

/// Configuration of the scoring function.
#[derive(Debug, Clone, Copy)]
pub struct ScoreConfig {
    /// The paper's `0 ≤ λ < 1`: score of a matched (null, constant) cell
    /// pair before the ⊓ normalization. Default 0.5.
    pub lambda: f64,
    /// If set, a *misaligned* constant-constant cell of a partial match
    /// scores `weight · levenshtein_similarity` instead of 0 (Sec. 9 future
    /// work). `None` scores misaligned cells 0 (Def. 5.5 first case).
    pub string_sim_weight: Option<f64>,
}

impl Default for ScoreConfig {
    fn default() -> Self {
        Self {
            lambda: 0.5,
            string_sim_weight: None,
        }
    }
}

impl ScoreConfig {
    /// Creates a config with the given λ.
    ///
    /// # Panics
    /// Panics unless `0 ≤ λ < 1` (Def. 5.5).
    pub fn with_lambda(lambda: f64) -> Self {
        assert!((0.0..1.0).contains(&lambda), "λ must be in [0, 1)");
        Self {
            lambda,
            string_sim_weight: None,
        }
    }

    /// Checks that the configuration is usable: λ must be finite and in
    /// `[0, 1)` (Def. 5.5), and the optional string-similarity weight must
    /// be finite and non-negative. [`crate::ComparatorBuilder::build`]
    /// calls this once, so no algorithm panics mid-search on a NaN score.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.lambda.is_nan() || self.lambda.is_infinite() {
            return Err(ConfigError::NonFiniteLambda(self.lambda));
        }
        if !(0.0..1.0).contains(&self.lambda) {
            return Err(ConfigError::LambdaOutOfRange(self.lambda));
        }
        if let Some(w) = self.string_sim_weight {
            if !w.is_finite() || w < 0.0 {
                return Err(ConfigError::InvalidStringSimWeight(w));
            }
        }
        Ok(())
    }
}

/// A rejected [`ScoreConfig`]: the scoring parameters would make the
/// algorithms produce meaningless scores (NaN) or violate Def. 5.5.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// λ is NaN or ±∞.
    NonFiniteLambda(f64),
    /// λ is finite but outside the paper's `0 ≤ λ < 1` range.
    LambdaOutOfRange(f64),
    /// `string_sim_weight` is NaN, infinite, or negative.
    InvalidStringSimWeight(f64),
    /// A constraint-discovery `epsilon` is NaN, infinite, or outside
    /// `[0, 1)` (used by `ic-discovery`'s configuration validation).
    EpsilonOutOfRange(f64),
    /// A constraint-discovery LHS size limit of zero would make the search
    /// space empty (used by `ic-discovery`'s configuration validation).
    ZeroMaxLhs,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NonFiniteLambda(l) => write!(f, "λ must be finite, got {l}"),
            Self::LambdaOutOfRange(l) => write!(f, "λ must be in [0, 1), got {l}"),
            Self::InvalidStringSimWeight(w) => {
                write!(f, "string_sim_weight must be finite and ≥ 0, got {w}")
            }
            Self::EpsilonOutOfRange(e) => write!(f, "epsilon must be in [0, 1), got {e}"),
            Self::ZeroMaxLhs => write!(f, "max_lhs must be ≥ 1"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Which of the four Def. 5.5 cell cases applied, in declaration order:
/// misaligned, aligned const/const, aligned null/null, aligned null/const.
/// Indexes the `score.cells.*` counter table in [`score_state`]'s
/// instrumented path.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CellCase {
    /// Case 1: `h_l(t.A) ≠ h_r(t'.A)` — misaligned cell of a partial match.
    Misaligned = 0,
    /// Case 2: aligned equal constants.
    ConstConst = 1,
    /// Case 3: aligned nulls, scored by the ⊓ non-injectivity measure.
    NullNull = 2,
    /// Case 4: a null standing in for a constant, scored with the λ penalty.
    NullConst = 3,
}

/// Counter names for the four cell cases, indexed by [`CellCase`].
pub(crate) const CELL_CASE_COUNTERS: [&str; 4] = [
    "score.cells.case1_misaligned",
    "score.cells.case2_const_const",
    "score.cells.case3_null_null",
    "score.cells.case4_null_const",
];

/// Computes the score of one cell pair `(t.A, t'.A)` under the current
/// partition — `score(M, t, t', A)` of Def. 5.5 — together with which of
/// the definition's four cases applied.
pub(crate) fn cell_score_case(
    state: &MatchState<'_>,
    cfg: &ScoreConfig,
    catalog: &Catalog,
    a: Value,
    b: Value,
) -> (f64, CellCase) {
    let na = state.universe().node(Side::Left, a);
    let nb = state.universe().node(Side::Right, b);
    let uf = state.uf();
    if !uf.same(na, nb) {
        // h_l(t.A) ≠ h_r(t'.A): misaligned cell of a partial match.
        if let (Some(w), Value::Const(sa), Value::Const(sb)) = (cfg.string_sim_weight, a, b) {
            let s = w * levenshtein_similarity(catalog.resolve(sa), catalog.resolve(sb));
            return (s, CellCase::Misaligned);
        }
        return (0.0, CellCase::Misaligned);
    }
    match (a, b) {
        // Both constants and aligned ⇒ equal constants.
        (Value::Const(_), Value::Const(_)) => (1.0, CellCase::ConstConst),
        // Both nulls with equal images: 2 / (⊓(t.A) + ⊓(t'.A)).
        (Value::Null(_), Value::Null(_)) => {
            let da = uf.sqcap_null(na, Side::Left);
            let db = uf.sqcap_null(nb, Side::Right);
            (2.0 / (da + db) as f64, CellCase::NullNull)
        }
        // One null, one constant: 2λ / (⊓(t.A) + ⊓(t'.A)), ⊓(const) = 1.
        (Value::Null(_), Value::Const(_)) => {
            let da = uf.sqcap_null(na, Side::Left);
            (2.0 * cfg.lambda / (da + 1) as f64, CellCase::NullConst)
        }
        (Value::Const(_), Value::Null(_)) => {
            let db = uf.sqcap_null(nb, Side::Right);
            (2.0 * cfg.lambda / (1 + db) as f64, CellCase::NullConst)
        }
    }
}

/// Computes the score of one cell pair — `score(M, t, t', A)` of Def. 5.5.
#[inline]
pub(crate) fn cell_score(
    state: &MatchState<'_>,
    cfg: &ScoreConfig,
    catalog: &Catalog,
    a: Value,
    b: Value,
) -> f64 {
    cell_score_case(state, cfg, catalog, a, b).0
}

/// Computes the score of a tuple pair: the sum of its cell scores,
/// in `[0, arity]`.
pub(crate) fn pair_score(
    state: &MatchState<'_>,
    cfg: &ScoreConfig,
    catalog: &Catalog,
    lt: &Tuple,
    rt: &Tuple,
) -> f64 {
    lt.values()
        .iter()
        .zip(rt.values())
        .map(|(&a, &b)| cell_score(state, cfg, catalog, a, b))
        .sum()
}

/// [`pair_score`] with per-case cell counts, used by [`score_state`]'s
/// instrumented path: cases accumulate locally and flush as at most four
/// counter adds per pair, keeping the per-cell hot loop free of recording
/// calls.
fn pair_score_counted(
    state: &MatchState<'_>,
    cfg: &ScoreConfig,
    catalog: &Catalog,
    lt: &Tuple,
    rt: &Tuple,
) -> f64 {
    let mut cases = [0u64; 4];
    let sum = lt
        .values()
        .iter()
        .zip(rt.values())
        .map(|(&a, &b)| {
            let (s, case) = cell_score_case(state, cfg, catalog, a, b);
            cases[case as usize] += 1;
            s
        })
        .sum();
    for (name, n) in CELL_CASE_COUNTERS.iter().zip(cases) {
        crate::obs::counter(name, n);
    }
    sum
}

/// A state-independent upper bound on the score a candidate pair can ever
/// achieve under any feasible completion: equal constants score 1,
/// misaligned constants 0, null/null cells at most 1, mixed cells at most
/// λ. Shared by the exact search's admissible bound and the signature
/// algorithm's deterministic greedy tie-break.
pub(crate) fn optimistic_pair_score(lt: &Tuple, rt: &Tuple, lambda: f64) -> f64 {
    lt.values()
        .iter()
        .zip(rt.values())
        .map(|(&a, &b)| match (a, b) {
            (Value::Const(x), Value::Const(y)) => {
                if x == y {
                    1.0
                } else {
                    0.0
                }
            }
            (Value::Null(_), Value::Null(_)) => 1.0,
            _ => lambda,
        })
        .sum()
}

/// Scores the current match of `state` (Def. 5.3), returning full details.
///
/// Pair scores are independent given the frozen unification partition, so
/// large matches are scored in parallel chunks over the [`ic_pool`]
/// workers; the per-tuple sums are then reduced sequentially in push
/// order, making the result **bit-identical** at every thread count
/// (including `IC_POOL_THREADS=1`).
pub fn score_state(state: &MatchState<'_>, cfg: &ScoreConfig, catalog: &Catalog) -> ScoreDetails {
    let left = state.left();
    let right = state.right();
    let mut left_sum = vec![0.0f64; left.id_bound()];
    let mut right_sum = vec![0.0f64; right.id_bound()];

    // One flag check per batch, hoisted out of the per-pair hot loop; the
    // counted variant only runs while an observation is active on the
    // calling thread (workers inherit it via ic-pool).
    let instrument = crate::obs::active();
    let _span = crate::obs::span("score");

    let pairs: Vec<crate::mapping::Pair> = state.pairs().collect();
    let pair_scores: Vec<f64> = ic_pool::par_map_min_chunk(&pairs, PAR_SCORE_MIN_PAIRS, |pair| {
        let lt = left.tuple(pair.left).expect("left tuple");
        let rt = right.tuple(pair.right).expect("right tuple");
        if instrument {
            pair_score_counted(state, cfg, catalog, lt, rt)
        } else {
            pair_score(state, cfg, catalog, lt, rt)
        }
    });
    if instrument {
        crate::obs::counter("score.batches", 1);
        crate::obs::counter("score.pairs", pairs.len() as u64);
    }
    for (pair, &s) in pairs.iter().zip(&pair_scores) {
        left_sum[pair.left.0 as usize] += s;
        right_sum[pair.right.0 as usize] += s;
    }

    let mut total = 0.0f64;
    let mut matched_left = 0usize;
    let mut matched_right = 0usize;
    let mut unmatched_left = Vec::new();
    let mut unmatched_right = Vec::new();
    for (_, t) in left.iter_all() {
        let deg = state.left_degree(t.id());
        if deg > 0 {
            matched_left += 1;
            total += left_sum[t.id().0 as usize] / deg as f64;
        } else {
            unmatched_left.push(t.id());
        }
    }
    for (_, t) in right.iter_all() {
        let deg = state.right_degree(t.id());
        if deg > 0 {
            matched_right += 1;
            total += right_sum[t.id().0 as usize] / deg as f64;
        } else {
            unmatched_right.push(t.id());
        }
    }

    let norm = (left.size() + right.size()) as f64;
    ScoreDetails {
        score: if norm == 0.0 { 1.0 } else { total / norm },
        matched_pairs: pair_scores.len(),
        pair_scores,
        matched_left,
        matched_right,
        unmatched_left,
        unmatched_right,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_model::{Catalog, Instance, RelId, Schema};

    const EPS: f64 = 1e-12;

    /// Builds the paper's Example 5.7/5.8 schema: R(Id, Year, Org).
    fn catalog3() -> Catalog {
        Catalog::new(Schema::single("R", &["Id", "Year", "Org"]))
    }

    #[test]
    fn example_5_7_isomorphic_scores_one() {
        // I  = {(N1, 1975, VLDB End.), (N2, 1976, VLDB End.)}
        // I' = {(Na, 1975, VLDB End.), (Nb, 1976, VLDB End.)}
        let mut cat = catalog3();
        let rel = RelId(0);
        let y75 = cat.konst("1975");
        let y76 = cat.konst("1976");
        let org = cat.konst("VLDB End.");
        let (n1, n2, na, nb) = (
            cat.fresh_null(),
            cat.fresh_null(),
            cat.fresh_null(),
            cat.fresh_null(),
        );
        let mut l = Instance::new("I", &cat);
        let t1 = l.insert(rel, vec![n1, y75, org]);
        let t2 = l.insert(rel, vec![n2, y76, org]);
        let mut r = Instance::new("I'", &cat);
        let t3 = r.insert(rel, vec![na, y75, org]);
        let t4 = r.insert(rel, vec![nb, y76, org]);
        let mut st = MatchState::new(&l, &r);
        st.try_push_pair(rel, t1, t3, false).unwrap();
        st.try_push_pair(rel, t2, t4, false).unwrap();
        let d = score_state(&st, &ScoreConfig::default(), &cat);
        assert!((d.score - 1.0).abs() < EPS, "score = {}", d.score);
        assert_eq!(d.matched_pairs, 2);
        assert!(d.unmatched_left.is_empty() && d.unmatched_right.is_empty());
    }

    #[test]
    fn example_5_8_null_approximates_constant() {
        // I  = {(N1, 1975, VLDB End.), (N2, 1976, VLDB End.)}
        // I''= {(Na, 1975, V1), (Nb, 1976, V1)}  score = (8 + 4λ)/12
        let mut cat = catalog3();
        let rel = RelId(0);
        let y75 = cat.konst("1975");
        let y76 = cat.konst("1976");
        let org = cat.konst("VLDB End.");
        let (n1, n2, na, nb, v1) = (
            cat.fresh_null(),
            cat.fresh_null(),
            cat.fresh_null(),
            cat.fresh_null(),
            cat.fresh_null(),
        );
        let mut l = Instance::new("I", &cat);
        let t1 = l.insert(rel, vec![n1, y75, org]);
        let t2 = l.insert(rel, vec![n2, y76, org]);
        let mut r = Instance::new("I''", &cat);
        let t3 = r.insert(rel, vec![na, y75, v1]);
        let t4 = r.insert(rel, vec![nb, y76, v1]);
        let mut st = MatchState::new(&l, &r);
        st.try_push_pair(rel, t1, t3, false).unwrap();
        st.try_push_pair(rel, t2, t4, false).unwrap();
        for lambda in [0.0, 0.25, 0.5, 0.9] {
            let d = score_state(&st, &ScoreConfig::with_lambda(lambda), &cat);
            let expected = (8.0 + 4.0 * lambda) / 12.0;
            assert!(
                (d.score - expected).abs() < EPS,
                "λ={lambda}: {} vs {expected}",
                d.score
            );
        }
    }

    #[test]
    fn example_5_10_null_to_distinct_constants() {
        // S = {(A, Mike), (A, Laure)}, S' = {(A, N1), (A, N2)}:
        // score = (4 + 4λ)/8.
        let mut cat = Catalog::new(Schema::single("S", &["Dept", "Name"]));
        let rel = RelId(0);
        let a = cat.konst("A");
        let mike = cat.konst("Mike");
        let laure = cat.konst("Laure");
        let (x1, x2) = (cat.fresh_null(), cat.fresh_null());
        let mut s = Instance::new("S", &cat);
        let t1 = s.insert(rel, vec![a, mike]);
        let t2 = s.insert(rel, vec![a, laure]);
        let mut sp = Instance::new("S'", &cat);
        let t3 = sp.insert(rel, vec![a, x1]);
        let t4 = sp.insert(rel, vec![a, x2]);
        let mut st = MatchState::new(&s, &sp);
        st.try_push_pair(rel, t1, t3, false).unwrap();
        st.try_push_pair(rel, t2, t4, false).unwrap();
        let lambda = 0.5;
        let d = score_state(&st, &ScoreConfig::with_lambda(lambda), &cat);
        let expected = (4.0 + 4.0 * lambda) / 8.0;
        assert!((d.score - expected).abs() < EPS);
    }

    #[test]
    fn example_5_10_merged_null_scores_lower() {
        // S = {(A, Mike), (A, Laure)}, S'' = {(A, N3)}:
        // only one pair is possible; score = (1 + λ + 1 + λ)/6... with the
        // single pair (t1, t5): score = 2·(1 + λ)/6.
        let mut cat = Catalog::new(Schema::single("S", &["Dept", "Name"]));
        let rel = RelId(0);
        let a = cat.konst("A");
        let mike = cat.konst("Mike");
        let laure = cat.konst("Laure");
        let n3 = cat.fresh_null();
        let mut s = Instance::new("S", &cat);
        let t1 = s.insert(rel, vec![a, mike]);
        let _t2 = s.insert(rel, vec![a, laure]);
        let mut spp = Instance::new("S''", &cat);
        let t5 = spp.insert(rel, vec![a, n3]);
        let mut st = MatchState::new(&s, &spp);
        st.try_push_pair(rel, t1, t5, false).unwrap();
        // N3 is now bound to Mike, so (t2, t5) is incompatible.
        assert!(!st.check_pair(_t2, t5));
        let lambda = 0.5;
        let d = score_state(&st, &ScoreConfig::with_lambda(lambda), &cat);
        let expected = (2.0 * (1.0 + lambda)) / 6.0;
        assert!((d.score - expected).abs() < EPS);
        assert_eq!(d.unmatched_left.len(), 1);
        // Lower than the S,S' score from Example 5.10.
        assert!(d.score < (4.0 + 4.0 * lambda) / 8.0);
    }

    #[test]
    fn section3_merging_distinct_nulls_penalized() {
        // I = {(N1), (N2)} vs I'' = {(N5), (N5)} must score < 1 (Eq. 3):
        // the optimal match maps N1, N2 to N5 with ⊓ = 2, giving 2/3.
        let mut cat = Catalog::new(Schema::single("U", &["A"]));
        let rel = RelId(0);
        let (n1, n2, n5) = (cat.fresh_null(), cat.fresh_null(), cat.fresh_null());
        let mut l = Instance::new("I", &cat);
        let t1 = l.insert(rel, vec![n1]);
        let t2 = l.insert(rel, vec![n2]);
        let mut r = Instance::new("I''", &cat);
        let t5 = r.insert(rel, vec![n5]);
        let t6 = r.insert(rel, vec![n5]);
        let mut st = MatchState::new(&l, &r);
        st.try_push_pair(rel, t1, t5, false).unwrap();
        st.try_push_pair(rel, t2, t6, false).unwrap();
        let d = score_state(&st, &ScoreConfig::default(), &cat);
        assert!((d.score - 2.0 / 3.0).abs() < EPS, "score = {}", d.score);
    }

    #[test]
    fn example_5_9_fig6_match() {
        // Fig. 6: R(Id, Name, Year, Org); pairs (t1,t4), (t2,t5).
        // With the literal ⊓ definition the match scores (32 + 10λ)/3/24:
        // h_l maps both N1 and N2 to Va (⊓ = 2 on the Id cells) and Vb maps
        // to "VLDB End." which also occurs in I' (⊓ = 2 on the Org cell).
        // The paper's narration states (12 + 4λ)/24 — see DESIGN.md.
        let mut cat = Catalog::new(Schema::single("C", &["Id", "Name", "Year", "Org"]));
        let rel = RelId(0);
        let vldb = cat.konst("VLDB");
        let sigmod = cat.konst("SIGMOD");
        let icde = cat.konst("ICDE");
        let y75 = cat.konst("1975");
        let y76 = cat.konst("1976");
        let y77 = cat.konst("1977");
        let y84 = cat.konst("1984");
        let end = cat.konst("VLDB End.");
        let acm = cat.konst("ACM");
        let ieee = cat.konst("IEEE");
        let three = cat.konst("3");
        let (n1, n2, n3, n4) = (
            cat.fresh_null(),
            cat.fresh_null(),
            cat.fresh_null(),
            cat.fresh_null(),
        );
        let (va, vb) = (cat.fresh_null(), cat.fresh_null());
        let mut l = Instance::new("I", &cat);
        let t1 = l.insert(rel, vec![n1, vldb, y75, end]);
        let t2 = l.insert(rel, vec![n2, vldb, n4, end]);
        let _t3 = l.insert(rel, vec![n3, sigmod, y77, acm]);
        let mut r = Instance::new("I'", &cat);
        let t4 = r.insert(rel, vec![va, vldb, y75, end]);
        let t5 = r.insert(rel, vec![va, vldb, y76, vb]);
        let _t6 = r.insert(rel, vec![three, icde, y84, ieee]);
        let mut st = MatchState::new(&l, &r);
        st.try_push_pair(rel, t1, t4, false).unwrap();
        st.try_push_pair(rel, t2, t5, false).unwrap();
        let lambda = 0.5;
        let d = score_state(&st, &ScoreConfig::with_lambda(lambda), &cat);
        let expected = (32.0 + 10.0 * lambda) / 3.0 / 24.0;
        assert!(
            (d.score - expected).abs() < EPS,
            "score = {} vs {expected}",
            d.score
        );
    }

    #[test]
    fn empty_match_scores_zero() {
        let mut cat = catalog3();
        let rel = RelId(0);
        let a = cat.konst("a");
        let mut l = Instance::new("I", &cat);
        l.insert(rel, vec![a, a, a]);
        let r = Instance::new("J", &cat);
        let st = MatchState::new(&l, &r);
        let d = score_state(&st, &ScoreConfig::default(), &cat);
        assert_eq!(d.score, 0.0);
        assert_eq!(d.unmatched_left.len(), 1);
    }

    #[test]
    fn two_empty_instances_score_one() {
        let cat = catalog3();
        let l = Instance::new("I", &cat);
        let r = Instance::new("J", &cat);
        let st = MatchState::new(&l, &r);
        let d = score_state(&st, &ScoreConfig::default(), &cat);
        assert_eq!(d.score, 1.0);
    }

    #[test]
    fn n_to_m_average_over_image() {
        // One left tuple matched to two right tuples, one perfect and one
        // with a λ-cell: left tuple score is the average of the two pairs.
        let mut cat = Catalog::new(Schema::single("R", &["A"]));
        let rel = RelId(0);
        let a = cat.konst("a");
        let n = cat.fresh_null();
        let mut l = Instance::new("I", &cat);
        let t = l.insert(rel, vec![a]);
        let mut r = Instance::new("J", &cat);
        let u1 = r.insert(rel, vec![a]);
        let u2 = r.insert(rel, vec![n]);
        let mut st = MatchState::new(&l, &r);
        st.try_push_pair(rel, t, u1, false).unwrap();
        st.try_push_pair(rel, t, u2, false).unwrap();
        let lambda = 0.5;
        let d = score_state(&st, &ScoreConfig::with_lambda(lambda), &cat);
        // Pair scores: 1 and 2λ/(1+⊓(n)); constant a also occurs on the
        // right, so ⊓(n) = 2 and the second pair scores 2λ/3.
        let p2 = 2.0 * lambda / 3.0;
        let expected = ((1.0 + p2) / 2.0 + 1.0 + p2) / 3.0;
        assert!((d.score - expected).abs() < EPS);
    }

    #[test]
    fn partial_match_with_string_similarity() {
        let mut cat = Catalog::new(Schema::single("R", &["A", "B"]));
        let rel = RelId(0);
        let a = cat.konst("a");
        let x = cat.konst("kitten");
        let y = cat.konst("sitting");
        let mut l = Instance::new("I", &cat);
        let t = l.insert(rel, vec![a, x]);
        let mut r = Instance::new("J", &cat);
        let u = r.insert(rel, vec![a, y]);
        let mut st = MatchState::new(&l, &r);
        st.try_push_pair(rel, t, u, true).unwrap();
        // Without string sim: misaligned cell scores 0.
        let d0 = score_state(&st, &ScoreConfig::default(), &cat);
        assert!((d0.score - (1.0 + 1.0) / 4.0).abs() < EPS);
        // With string sim weight 1.0: it scores levenshtein_similarity.
        let cfg = ScoreConfig {
            string_sim_weight: Some(1.0),
            ..Default::default()
        };
        let d1 = score_state(&st, &cfg, &cat);
        let sim = crate::strsim::levenshtein_similarity("kitten", "sitting");
        let expected = (2.0 * (1.0 + sim)) / 4.0;
        assert!((d1.score - expected).abs() < EPS);
        assert!(d1.score > d0.score);
    }

    #[test]
    fn symmetry_of_score() {
        // score(I, I') == score(I', I) for a mirrored match.
        let mut cat = catalog3();
        let rel = RelId(0);
        let y = cat.konst("1975");
        let c = cat.konst("VLDB End.");
        let n = cat.fresh_null();
        let m = cat.fresh_null();
        let mut l = Instance::new("I", &cat);
        let t1 = l.insert(rel, vec![n, y, c]);
        let mut r = Instance::new("J", &cat);
        let t2 = r.insert(rel, vec![m, y, y]);
        let mut st = MatchState::new(&l, &r);
        st.try_push_pair(rel, t1, t2, true).unwrap();
        let d_lr = score_state(&st, &ScoreConfig::default(), &cat);
        let mut st2 = MatchState::new(&r, &l);
        st2.try_push_pair(rel, t2, t1, true).unwrap();
        let d_rl = score_state(&st2, &ScoreConfig::default(), &cat);
        assert!((d_lr.score - d_rl.score).abs() < EPS);
    }
}
