//! The exact instance-comparison algorithm (paper Alg. 1).
//!
//! The paper's formulation enumerates the powerset of compatible tuple pairs
//! and keeps the feasible instance match with the highest score; we organize
//! the same search space as a depth-first branch-and-bound over the list of
//! compatible pairs:
//!
//! * pairs are grouped by left tuple (fewest candidates first) and ordered
//!   by an optimistic per-pair score, so good incumbents appear early;
//! * every *include* decision pushes the pair onto the shared
//!   [`MatchState`], which maintains value-mapping consistency with
//!   rollback — infeasible combinations are cut immediately;
//! * an admissible bound prunes: each tuple can contribute at most the best
//!   optimistic score among its pairs, and a tuple all of whose pairs were
//!   excluded contributes nothing.
//!
//! The search is exponential in the worst case (the problem is NP-hard,
//! Thm. 5.11), so a wall-clock budget and a node limit can be set; on
//! exhaustion the best match found so far is returned with
//! [`ExactOutcome::optimal`]` = false`.

use crate::compat::CandidateIndex;
use crate::mapping::{InstanceMatch, MatchMode, Pair};
use crate::score::{optimistic_pair_score, score_state, ScoreConfig};
use crate::signature::{signature_match, SignatureConfig};
use crate::state::MatchState;
use ic_model::{Catalog, Instance, RelId, TupleId};
use std::time::{Duration, Instant};

/// Configuration of the exact algorithm.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactConfig {
    /// Injectivity/totality restrictions on the tuple mapping.
    pub mode: MatchMode,
    /// Scoring parameters (λ etc.).
    pub score: ScoreConfig,
    /// Wall-clock budget; `None` means unbounded (the paper used 8 hours).
    pub budget: Option<Duration>,
    /// Maximum number of explored search nodes; `None` means unbounded.
    pub max_nodes: Option<u64>,
}

/// Result of an exact run.
#[derive(Debug, Clone)]
pub struct ExactOutcome {
    /// The best instance match found.
    pub best: InstanceMatch,
    /// `true` iff the search space was exhausted, making `best` the true
    /// optimum; `false` if the budget or node limit stopped the search.
    pub optimal: bool,
    /// Number of search nodes explored.
    pub nodes: u64,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// Whether the returned match satisfies the mode's totality
    /// requirements. `false` with `optimal == true` proves that no total
    /// match exists.
    pub meets_totality: bool,
}

/// A candidate pair with its optimistic score (upper bound on the pair's
/// actual score under any feasible completion).
#[derive(Debug, Clone, Copy)]
struct CandPair {
    rel: RelId,
    left: TupleId,
    right: TupleId,
    optimistic: f64,
}

/// Whether `state` matches every tuple that `mode`'s totality flags require.
fn meets_totality(state: &MatchState<'_>, mode: MatchMode) -> bool {
    let left_ok = !mode.left_total
        || state
            .left()
            .iter_all()
            .all(|(_, t)| state.left_degree(t.id()) > 0);
    let right_ok = !mode.right_total
        || state
            .right()
            .iter_all()
            .all(|(_, t)| state.right_degree(t.id()) > 0);
    left_ok && right_ok
}

struct Search<'a, 'c> {
    state: MatchState<'a>,
    catalog: &'c Catalog,
    cfg: ExactConfig,
    pairs: Vec<CandPair>,
    /// Per-tuple cap: best optimistic score over the tuple's pairs.
    cap_left: Vec<f64>,
    cap_right: Vec<f64>,
    /// Number of not-yet-excluded pairs per tuple.
    alive_left: Vec<u32>,
    alive_right: Vec<u32>,
    /// Current optimistic potential (Σ caps of tuples that can still score).
    potential: f64,
    norm: f64,
    best_score: f64,
    best_pairs: Vec<Pair>,
    best_meets_totality: bool,
    nodes: u64,
    /// Subtrees cut by the admissible bound (for the `exact.bound_cuts`
    /// counter; always counted — a u64 increment is free next to the score
    /// evaluation it replaces).
    bound_cuts: u64,
    /// Include-branches rejected by value-mapping inconsistency.
    infeasible_pushes: u64,
    start: Instant,
    stopped: bool,
}

impl<'a, 'c> Search<'a, 'c> {
    fn out_of_budget(&mut self) -> bool {
        if self.stopped {
            return true;
        }
        if let Some(max) = self.cfg.max_nodes {
            if self.nodes >= max {
                self.stopped = true;
                return true;
            }
        }
        if self.nodes.is_multiple_of(256) {
            if let Some(budget) = self.cfg.budget {
                if self.start.elapsed() >= budget {
                    self.stopped = true;
                    return true;
                }
            }
        }
        false
    }

    fn consider_incumbent(&mut self) {
        let meets = meets_totality(&self.state, self.cfg.mode);
        // A totality-respecting match always beats one that is not, at equal
        // or lower score; otherwise compare scores.
        let details = score_state(&self.state, &self.cfg.score, self.catalog);
        let better = match (meets, self.best_meets_totality) {
            (true, false) => true,
            (false, true) => false,
            _ => details.score > self.best_score + 1e-15,
        };
        if better {
            self.best_score = details.score;
            self.best_pairs = self.state.pairs().collect();
            self.best_meets_totality = meets;
        }
    }

    fn dfs(&mut self, i: usize) {
        self.nodes += 1;
        if self.out_of_budget() {
            return;
        }
        if i == self.pairs.len() {
            self.consider_incumbent();
            return;
        }
        // Admissible bound: every tuple that can still be matched scores at
        // most its cap; everything else scores 0.
        if self.potential / self.norm <= self.best_score + 1e-15 && self.best_meets_totality {
            self.bound_cuts += 1;
            return;
        }
        let p = self.pairs[i];
        let mode = self.cfg.mode;

        // Branch 1: include the pair (if injectivity permits and the value
        // mappings stay consistent).
        let left_free = !mode.left_injective || self.state.left_degree(p.left) == 0;
        let right_free = !mode.right_injective || self.state.right_degree(p.right) == 0;
        if left_free && right_free {
            if self
                .state
                .try_push_pair(p.rel, p.left, p.right, false)
                .is_ok()
            {
                self.dfs(i + 1);
                self.state.pop_pair();
                if self.stopped {
                    return;
                }
            } else {
                self.infeasible_pushes += 1;
            }
        }

        // Branch 2: exclude the pair.
        let mut delta = 0.0;
        self.alive_left[p.left.0 as usize] -= 1;
        if self.alive_left[p.left.0 as usize] == 0 && self.state.left_degree(p.left) == 0 {
            delta += self.cap_left[p.left.0 as usize];
        }
        self.alive_right[p.right.0 as usize] -= 1;
        if self.alive_right[p.right.0 as usize] == 0 && self.state.right_degree(p.right) == 0 {
            delta += self.cap_right[p.right.0 as usize];
        }
        self.potential -= delta;
        self.dfs(i + 1);
        self.potential += delta;
        self.alive_left[p.left.0 as usize] += 1;
        self.alive_right[p.right.0 as usize] += 1;
    }
}

/// Runs the exact algorithm on two instances sharing `catalog`'s schema.
///
/// # Example
///
/// ```
/// use ic_model::{Catalog, Instance, Schema};
/// use ic_core::{exact_match, ExactConfig};
///
/// let mut cat = Catalog::new(Schema::single("R", &["A", "B"]));
/// let rel = cat.schema().rel("R").unwrap();
/// let a = cat.konst("a");
/// let n = cat.fresh_null();
/// let m = cat.fresh_null();
/// let mut left = Instance::new("I", &cat);
/// left.insert(rel, vec![a, n]);
/// let mut right = Instance::new("J", &cat);
/// right.insert(rel, vec![a, m]);
///
/// let out = exact_match(&left, &right, &cat, &ExactConfig::default());
/// assert!(out.optimal);
/// assert!((out.best.score() - 1.0).abs() < 1e-12); // isomorphic
/// ```
pub fn exact_match(
    left: &Instance,
    right: &Instance,
    catalog: &Catalog,
    cfg: &ExactConfig,
) -> ExactOutcome {
    let _span = crate::obs::span("exact");
    let start = Instant::now();
    let lambda = cfg.score.lambda;

    // Step 1: compatible pairs per relation (Alg. 2).
    let candidates_span = crate::obs::span("exact.candidates");
    let mut pairs: Vec<CandPair> = Vec::new();
    for rel in catalog.schema().rel_ids() {
        let index = CandidateIndex::build(right.tuples(rel));
        for t in left.tuples(rel) {
            for rt_id in index.compatible_candidates(right, t) {
                let rt = right.tuple(rt_id).expect("candidate exists");
                pairs.push(CandPair {
                    rel,
                    left: t.id(),
                    right: rt_id,
                    optimistic: optimistic_pair_score(t, rt, lambda),
                });
            }
        }
    }
    crate::obs::counter("exact.candidate_pairs", pairs.len() as u64);
    drop(candidates_span);

    // Order: group by left tuple with fewest candidates first (fail-first),
    // then by descending optimistic score (find good incumbents early).
    let mut cand_count = vec![0u32; left.id_bound()];
    for p in &pairs {
        cand_count[p.left.0 as usize] += 1;
    }
    // `total_cmp`, not `partial_cmp(..).expect(..)`: a degenerate λ that
    // slipped past validation (e.g. through the unchecked entry point)
    // must not panic mid-search — NaN sorts to a fixed position instead.
    pairs.sort_by(|a, b| {
        let ka = (cand_count[a.left.0 as usize], a.left.0);
        let kb = (cand_count[b.left.0 as usize], b.left.0);
        ka.cmp(&kb).then(b.optimistic.total_cmp(&a.optimistic))
    });

    // Per-tuple caps and alive counts for the bound.
    let mut cap_left = vec![0.0f64; left.id_bound()];
    let mut cap_right = vec![0.0f64; right.id_bound()];
    let mut alive_left = vec![0u32; left.id_bound()];
    let mut alive_right = vec![0u32; right.id_bound()];
    for p in &pairs {
        let l = p.left.0 as usize;
        let r = p.right.0 as usize;
        cap_left[l] = cap_left[l].max(p.optimistic);
        cap_right[r] = cap_right[r].max(p.optimistic);
        alive_left[l] += 1;
        alive_right[r] += 1;
    }
    let potential: f64 = cap_left.iter().sum::<f64>() + cap_right.iter().sum::<f64>();
    let norm = (left.size() + right.size()).max(1) as f64;

    let state = MatchState::new(left, right);
    let mut search = Search {
        state,
        catalog,
        cfg: *cfg,
        pairs,
        cap_left,
        cap_right,
        alive_left,
        alive_right,
        potential,
        norm,
        best_score: -1.0,
        best_pairs: Vec::new(),
        best_meets_totality: false,
        nodes: 0,
        bound_cuts: 0,
        infeasible_pushes: 0,
        start,
        stopped: false,
    };
    // The empty match is always feasible; seed the incumbent with it.
    search.consider_incumbent();
    // Warm start: the signature match is feasible for the same mode, so its
    // score is a valid incumbent and tightens the bound from the start.
    {
        let _span = crate::obs::span("exact.warm_start");
        let sig_cfg = SignatureConfig {
            mode: cfg.mode,
            score: cfg.score,
            ..Default::default()
        };
        let sig = signature_match(left, right, catalog, &sig_cfg);
        crate::obs::gauge("exact.warm_start.pairs", sig.best.pairs.len() as u64);
        // The run is complete and unbudgeted, so its outcome is the scored
        // state of its pairs: the score is `score_state`'s, and the tuples
        // of degree 0 are exactly the unmatched ones it lists.
        let details = &sig.best.details;
        let meets = (!cfg.mode.left_total || details.unmatched_left.is_empty())
            && (!cfg.mode.right_total || details.unmatched_right.is_empty());
        let better = match (meets, search.best_meets_totality) {
            (true, false) => true,
            (false, true) => false,
            _ => details.score > search.best_score + 1e-15,
        };
        if better {
            search.best_score = details.score;
            search.best_pairs = sig.best.pairs;
            search.best_meets_totality = meets;
        }
    }
    {
        let _span = crate::obs::span("exact.search");
        search.dfs(0);
    }
    crate::obs::counter("exact.nodes", search.nodes);
    crate::obs::counter("exact.bound_cuts", search.bound_cuts);
    crate::obs::counter("exact.infeasible_pushes", search.infeasible_pushes);

    // Replay the best pair set to score it in detail.
    let _replay_span = crate::obs::span("exact.replay");
    let final_state = MatchState::replay(left, right, search.best_pairs.iter().copied(), false);
    assert_eq!(
        final_state.len(),
        search.best_pairs.len(),
        "best pair set must be feasible"
    );
    let best = final_state.to_match(&cfg.score, catalog);
    ExactOutcome {
        best,
        optimal: !search.stopped,
        nodes: search.nodes,
        elapsed: start.elapsed(),
        meets_totality: search.best_meets_totality,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_model::{Schema, Value};

    #[test]
    fn bijective_mode_finds_total_match_on_isomorphic_instances() {
        let mut cat = Catalog::new(Schema::single("R", &["A", "B"]));
        let rel = RelId(0);
        let a = cat.konst("a");
        let (n1, n2, m1, m2) = (
            cat.fresh_null(),
            cat.fresh_null(),
            cat.fresh_null(),
            cat.fresh_null(),
        );
        let mut l = Instance::new("I", &cat);
        l.insert(rel, vec![n1, a]);
        l.insert(rel, vec![n2, n1]);
        let mut r = Instance::new("J", &cat);
        r.insert(rel, vec![m1, a]);
        r.insert(rel, vec![m2, m1]);
        let cfg = ExactConfig {
            mode: MatchMode::bijective(),
            ..Default::default()
        };
        let out = exact_match(&l, &r, &cat, &cfg);
        assert!(out.optimal);
        assert!(out.meets_totality);
        assert_eq!(out.best.pairs.len(), 2);
        assert!((out.best.score() - 1.0).abs() < EPS);
    }

    #[test]
    fn bijective_mode_reports_no_total_match() {
        // Different cardinalities: no bijective match exists.
        let mut cat = Catalog::new(Schema::single("R", &["A"]));
        let rel = RelId(0);
        let a = cat.konst("a");
        let mut l = Instance::new("I", &cat);
        l.insert(rel, vec![a]);
        l.insert(rel, vec![a]);
        let mut r = Instance::new("J", &cat);
        r.insert(rel, vec![a]);
        let cfg = ExactConfig {
            mode: MatchMode::bijective(),
            ..Default::default()
        };
        let out = exact_match(&l, &r, &cat, &cfg);
        assert!(out.optimal);
        assert!(!out.meets_totality);
    }

    #[test]
    fn right_total_mode_requires_covering_right() {
        // Right has one tuple compatible with both left tuples; left-total
        // is impossible but right-total is achievable in general mode.
        let mut cat = Catalog::new(Schema::single("R", &["A"]));
        let rel = RelId(0);
        let a = cat.konst("a");
        let b = cat.konst("b");
        let n = cat.fresh_null();
        let mut l = Instance::new("I", &cat);
        l.insert(rel, vec![a]);
        l.insert(rel, vec![b]);
        let mut r = Instance::new("J", &cat);
        r.insert(rel, vec![n]); // n can cover a or b, not both
        let mut mode = MatchMode::general();
        mode.right_total = true;
        let cfg = ExactConfig {
            mode,
            ..Default::default()
        };
        let out = exact_match(&l, &r, &cat, &cfg);
        assert!(out.meets_totality);
        assert_eq!(out.best.pairs.len(), 1);
    }

    const EPS: f64 = 1e-9;

    fn run(left: &Instance, right: &Instance, cat: &Catalog, mode: MatchMode) -> ExactOutcome {
        let cfg = ExactConfig {
            mode,
            ..Default::default()
        };
        exact_match(left, right, cat, &cfg)
    }

    #[test]
    fn identical_ground_instances_score_one() {
        let mut cat = Catalog::new(Schema::single("R", &["A", "B"]));
        let rel = RelId(0);
        let (a, b) = (cat.konst("a"), cat.konst("b"));
        let mut l = Instance::new("I", &cat);
        l.insert(rel, vec![a, b]);
        l.insert(rel, vec![b, a]);
        let r = l.clone();
        let out = run(&l, &r, &cat, MatchMode::one_to_one());
        assert!(out.optimal);
        assert!((out.best.score() - 1.0).abs() < EPS);
    }

    #[test]
    fn isomorphic_instances_score_one() {
        // I = {(N1, a)}, I' = {(N2, a)} — isomorphic, must score 1 (Eq. 2).
        let mut cat = Catalog::new(Schema::single("R", &["A", "B"]));
        let rel = RelId(0);
        let a = cat.konst("a");
        let n1 = cat.fresh_null();
        let n2 = cat.fresh_null();
        let mut l = Instance::new("I", &cat);
        l.insert(rel, vec![n1, a]);
        let mut r = Instance::new("J", &cat);
        r.insert(rel, vec![n2, a]);
        let out = run(&l, &r, &cat, MatchMode::one_to_one());
        assert!((out.best.score() - 1.0).abs() < EPS);
    }

    #[test]
    fn disjoint_ground_instances_score_zero() {
        let mut cat = Catalog::new(Schema::single("R", &["A"]));
        let rel = RelId(0);
        let a = cat.konst("a");
        let b = cat.konst("b");
        let mut l = Instance::new("I", &cat);
        l.insert(rel, vec![a]);
        let mut r = Instance::new("J", &cat);
        r.insert(rel, vec![b]);
        let out = run(&l, &r, &cat, MatchMode::one_to_one());
        assert!(out.optimal);
        assert_eq!(out.best.score(), 0.0);
        assert!(out.best.pairs.is_empty());
    }

    #[test]
    fn example_5_10_exact_optimum() {
        // S vs S' optimum is (4 + 4λ)/8.
        let mut cat = Catalog::new(Schema::single("S", &["Dept", "Name"]));
        let rel = RelId(0);
        let a = cat.konst("A");
        let mike = cat.konst("Mike");
        let laure = cat.konst("Laure");
        let (x1, x2) = (cat.fresh_null(), cat.fresh_null());
        let mut s = Instance::new("S", &cat);
        s.insert(rel, vec![a, mike]);
        s.insert(rel, vec![a, laure]);
        let mut sp = Instance::new("S'", &cat);
        sp.insert(rel, vec![a, x1]);
        sp.insert(rel, vec![a, x2]);
        let out = run(&s, &sp, &cat, MatchMode::one_to_one());
        let lambda = ScoreConfig::default().lambda;
        assert!(out.optimal);
        assert!(
            (out.best.score() - (4.0 + 4.0 * lambda) / 8.0).abs() < EPS,
            "got {}",
            out.best.score()
        );
    }

    #[test]
    fn example_5_10_merged_null_exact_optimum() {
        // S vs S'' optimum is (2 + 2λ)/6: only one of the two left tuples
        // can match the single right tuple.
        let mut cat = Catalog::new(Schema::single("S", &["Dept", "Name"]));
        let rel = RelId(0);
        let a = cat.konst("A");
        let mike = cat.konst("Mike");
        let laure = cat.konst("Laure");
        let n3 = cat.fresh_null();
        let mut s = Instance::new("S", &cat);
        s.insert(rel, vec![a, mike]);
        s.insert(rel, vec![a, laure]);
        let mut spp = Instance::new("S''", &cat);
        spp.insert(rel, vec![a, n3]);
        for mode in [MatchMode::one_to_one(), MatchMode::general()] {
            let out = run(&s, &spp, &cat, mode);
            let lambda = ScoreConfig::default().lambda;
            assert!(out.optimal);
            assert!(
                (out.best.score() - (2.0 + 2.0 * lambda) / 6.0).abs() < EPS,
                "got {}",
                out.best.score()
            );
        }
    }

    #[test]
    fn figure_6_exact_optimum() {
        // The Fig. 6 instances; optimal 1-1 match is {(t1,t4),(t2,t5)} with
        // score (32 + 10λ)/3/24 under the literal ⊓ definition.
        let mut cat = Catalog::new(Schema::single("C", &["Id", "Name", "Year", "Org"]));
        let rel = RelId(0);
        let vldb = cat.konst("VLDB");
        let sigmod = cat.konst("SIGMOD");
        let icde = cat.konst("ICDE");
        let (y75, y76, y77, y84) = (
            cat.konst("1975"),
            cat.konst("1976"),
            cat.konst("1977"),
            cat.konst("1984"),
        );
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
        l.insert(rel, vec![n1, vldb, y75, end]);
        l.insert(rel, vec![n2, vldb, n4, end]);
        l.insert(rel, vec![n3, sigmod, y77, acm]);
        let mut r = Instance::new("I'", &cat);
        r.insert(rel, vec![va, vldb, y75, end]);
        r.insert(rel, vec![va, vldb, y76, vb]);
        r.insert(rel, vec![three, icde, y84, ieee]);
        let lambda = 0.5;
        let cfg = ExactConfig {
            mode: MatchMode::one_to_one(),
            score: ScoreConfig::with_lambda(lambda),
            ..Default::default()
        };
        let out = exact_match(&l, &r, &cat, &cfg);
        assert!(out.optimal);
        let expected = (32.0 + 10.0 * lambda) / 3.0 / 24.0;
        assert!(
            (out.best.score() - expected).abs() < EPS,
            "got {}",
            out.best.score()
        );
        assert_eq!(out.best.pairs.len(), 2);
    }

    #[test]
    fn general_mode_can_beat_one_to_one() {
        // I = {(a, b)}, I' = {(a, N), (N', b)}: n-to-m matches both right
        // tuples to the single left tuple.
        let mut cat = Catalog::new(Schema::single("R", &["A", "B"]));
        let rel = RelId(0);
        let (a, b) = (cat.konst("a"), cat.konst("b"));
        let n = cat.fresh_null();
        let np = cat.fresh_null();
        let mut l = Instance::new("I", &cat);
        l.insert(rel, vec![a, b]);
        let mut r = Instance::new("J", &cat);
        r.insert(rel, vec![a, n]);
        r.insert(rel, vec![np, b]);
        let one = run(&l, &r, &cat, MatchMode::one_to_one());
        let gen = run(&l, &r, &cat, MatchMode::general());
        assert!(gen.best.score() >= one.best.score() - EPS);
        assert_eq!(gen.best.pairs.len(), 2);
        assert!(!gen.best.is_left_injective());
    }

    #[test]
    fn budget_zero_returns_non_optimal() {
        let mut cat = Catalog::new(Schema::single("R", &["A"]));
        let rel = RelId(0);
        let n: Vec<Value> = (0..8).map(|_| cat.fresh_null()).collect();
        let mut l = Instance::new("I", &cat);
        let mut r = Instance::new("J", &cat);
        for &v in n.iter().take(8) {
            l.insert(rel, vec![v]);
            r.insert(rel, vec![v]);
        }
        let cfg = ExactConfig {
            mode: MatchMode::general(),
            max_nodes: Some(10),
            ..Default::default()
        };
        let out = exact_match(&l, &r, &cat, &cfg);
        assert!(!out.optimal);
        assert!(out.nodes <= 11);
    }

    #[test]
    fn empty_instances() {
        let cat = Catalog::new(Schema::single("R", &["A"]));
        let l = Instance::new("I", &cat);
        let r = Instance::new("J", &cat);
        let out = run(&l, &r, &cat, MatchMode::one_to_one());
        assert!(out.optimal);
        assert_eq!(out.best.score(), 1.0);
    }

    #[test]
    fn multi_relation_matching() {
        let mut schema = Schema::new();
        schema.add_relation(ic_model::RelationSchema::new("Conf", &["Id", "Name"]));
        schema.add_relation(ic_model::RelationSchema::new("Paper", &["Title", "ConfId"]));
        let mut cat = Catalog::new(schema);
        let conf = cat.schema().rel("Conf").unwrap();
        let paper = cat.schema().rel("Paper").unwrap();
        let vldb = cat.konst("VLDB");
        let qbe = cat.konst("QBE");
        let one = cat.konst("1");
        // Left uses a surrogate null key shared across relations.
        let k = cat.fresh_null();
        let mut l = Instance::new("I", &cat);
        l.insert(conf, vec![k, vldb]);
        l.insert(paper, vec![qbe, k]);
        // Right is ground.
        let mut r = Instance::new("J", &cat);
        r.insert(conf, vec![one, vldb]);
        r.insert(paper, vec![qbe, one]);
        let out = run(&l, &r, &cat, MatchMode::one_to_one());
        assert!(out.optimal);
        assert_eq!(out.best.pairs.len(), 2);
        // k maps to "1" consistently across the two relations:
        // score: Conf pair = λ + 1, Paper pair = 1 + λ; each tuple matched.
        let lambda = ScoreConfig::default().lambda;
        let expected = (2.0 * (1.0 + lambda) + 2.0 * (1.0 + lambda)) / 8.0;
        assert!((out.best.score() - expected).abs() < EPS);
    }

    #[test]
    fn multi_relation_general_mode() {
        // Cross-relation nulls under n-to-m: both right copies absorb the
        // single left tuple per relation.
        let mut schema = Schema::new();
        schema.add_relation(ic_model::RelationSchema::new("A", &["K", "X"]));
        schema.add_relation(ic_model::RelationSchema::new("B", &["K"]));
        let mut cat = Catalog::new(schema);
        let a_rel = cat.schema().rel("A").unwrap();
        let b_rel = cat.schema().rel("B").unwrap();
        let x = cat.konst("x");
        let one = cat.konst("1");
        let k = cat.fresh_null();
        let mut l = Instance::new("I", &cat);
        l.insert(a_rel, vec![k, x]);
        l.insert(b_rel, vec![k]);
        let mut r = Instance::new("J", &cat);
        r.insert(a_rel, vec![one, x]);
        r.insert(b_rel, vec![one]);
        let cfg = ExactConfig {
            mode: MatchMode::general(),
            ..Default::default()
        };
        let out = exact_match(&l, &r, &cat, &cfg);
        assert!(out.optimal);
        assert_eq!(out.best.pairs.len(), 2);
        // k grounds to "1" consistently; scores: A pair = λ + 1, B pair = λ.
        let lambda = ScoreConfig::default().lambda;
        let expected = (2.0 * (1.0 + lambda) + 2.0 * lambda) / 6.0;
        assert!((out.best.score() - expected).abs() < EPS);
    }

    #[test]
    fn prefers_higher_scoring_candidate() {
        // Left (a, b, N); right has (a, b, c) [all consts align] and
        // (a, N', N'') — exact must choose the first.
        let mut cat = Catalog::new(Schema::single("R", &["A", "B", "C"]));
        let rel = RelId(0);
        let (a, b, c) = (cat.konst("a"), cat.konst("b"), cat.konst("c"));
        let n = cat.fresh_null();
        let n1 = cat.fresh_null();
        let n2 = cat.fresh_null();
        let mut l = Instance::new("I", &cat);
        l.insert(rel, vec![a, b, n]);
        let mut r = Instance::new("J", &cat);
        let good = r.insert(rel, vec![a, b, c]);
        r.insert(rel, vec![a, n1, n2]);
        let out = run(&l, &r, &cat, MatchMode::one_to_one());
        assert_eq!(out.best.pairs.len(), 1);
        assert_eq!(out.best.pairs[0].right, good);
    }
}
