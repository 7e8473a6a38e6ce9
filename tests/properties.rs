//! Property-based tests of the similarity measure's axioms (paper Eq. 1–5)
//! and of the exact algorithm's optimality, on randomly generated small
//! instances. Runs on `ic-testkit`: every property is seeded and
//! reproducible via the `IC_TESTKIT_SEED` environment variable.

use ic_testkit::{assume, Gen, Runner};
use instance_comparison::core::{
    exact_match, ground_similarity, score_state, signature_match, ExactConfig, MatchMode,
    MatchState, ScoreConfig, SignatureConfig,
};
use instance_comparison::model::{Catalog, Instance, RelId, Schema, TupleId, Value};
use rand::RngExt;

const EPS: f64 = 1e-9;

/// Descriptor of a random cell: constant index or null index.
#[derive(Debug, Clone, Copy)]
enum Cell {
    Const(u8),
    Null(u8),
}

fn gen_cell(g: &mut Gen) -> Cell {
    if g.rng().random_bool(0.5) {
        Cell::Const(g.rng().random_range(0..4u8))
    } else {
        Cell::Null(g.rng().random_range(0..3u8))
    }
}

/// A random instance descriptor: up to 3 tuples of arity 2 (the proptest
/// suite's `0..4` row bound), further capped by the shrinker's size.
fn gen_instance(g: &mut Gen) -> Vec<[Cell; 2]> {
    g.vec_of(3, |g| [gen_cell(g), gen_cell(g)])
}

/// Materializes a descriptor. Null indexes are instance-local (two
/// descriptors never share nulls), constants are shared via the catalog.
fn build(catalog: &mut Catalog, name: &str, desc: &[[Cell; 2]]) -> Instance {
    let rel = RelId(0);
    let mut nulls: Vec<Option<Value>> = vec![None; 4];
    let mut inst = Instance::new(name, catalog);
    for row in desc {
        let vals: Vec<Value> = row
            .iter()
            .map(|c| match *c {
                Cell::Const(k) => catalog.konst(&format!("c{k}")),
                Cell::Null(k) => *nulls[k as usize].get_or_insert_with(|| catalog.fresh_null()),
            })
            .collect();
        inst.insert(rel, vals);
    }
    inst
}

fn fresh_catalog() -> Catalog {
    Catalog::new(Schema::single("R", &["A", "B"]))
}

/// Brute force: enumerate every 1-1 tuple mapping (over all pairs, not just
/// compatible ones) and take the best feasible score.
fn brute_force_one_to_one(left: &Instance, right: &Instance, catalog: &Catalog) -> f64 {
    let rel = RelId(0);
    let lids: Vec<TupleId> = left.tuples(rel).iter().map(|t| t.id()).collect();
    let rids: Vec<TupleId> = right.tuples(rel).iter().map(|t| t.id()).collect();
    let mut best = f64::MIN;
    let cfg = ScoreConfig::default();

    #[allow(clippy::too_many_arguments)]
    fn rec(
        i: usize,
        lids: &[TupleId],
        rids: &[TupleId],
        used: &mut Vec<bool>,
        state: &mut MatchState<'_>,
        cfg: &ScoreConfig,
        catalog: &Catalog,
        best: &mut f64,
    ) {
        if i == lids.len() {
            let s = score_state(state, cfg, catalog).score;
            if s > *best {
                *best = s;
            }
            return;
        }
        // Skip tuple i.
        rec(i + 1, lids, rids, used, state, cfg, catalog, best);
        // Match tuple i with any unused right tuple.
        for (j, &rid) in rids.iter().enumerate() {
            if used[j] {
                continue;
            }
            if state.try_push_pair(RelId(0), lids[i], rid, false).is_ok() {
                used[j] = true;
                rec(i + 1, lids, rids, used, state, cfg, catalog, best);
                used[j] = false;
                state.pop_pair();
            }
        }
    }

    let mut state = MatchState::new(left, right);
    let mut used = vec![false; rids.len()];
    rec(
        0, &lids, &rids, &mut used, &mut state, &cfg, catalog, &mut best,
    );
    best
}

/// Brute force for the general (n-to-m) mode: enumerate every subset of the
/// full pair grid (capped sizes keep this 2^9 at most).
fn brute_force_general(left: &Instance, right: &Instance, catalog: &Catalog) -> f64 {
    let rel = RelId(0);
    let lids: Vec<TupleId> = left.tuples(rel).iter().map(|t| t.id()).collect();
    let rids: Vec<TupleId> = right.tuples(rel).iter().map(|t| t.id()).collect();
    let grid: Vec<(TupleId, TupleId)> = lids
        .iter()
        .flat_map(|&l| rids.iter().map(move |&r| (l, r)))
        .collect();
    assert!(grid.len() <= 12, "brute force grid too large");
    let cfg = ScoreConfig::default();
    let mut best = f64::MIN;
    let mut state = MatchState::new(left, right);

    fn rec(
        i: usize,
        grid: &[(TupleId, TupleId)],
        state: &mut MatchState<'_>,
        cfg: &ScoreConfig,
        catalog: &Catalog,
        best: &mut f64,
    ) {
        if i == grid.len() {
            let s = score_state(state, cfg, catalog).score;
            if s > *best {
                *best = s;
            }
            return;
        }
        rec(i + 1, grid, state, cfg, catalog, best);
        let (l, r) = grid[i];
        if state.try_push_pair(RelId(0), l, r, false).is_ok() {
            rec(i + 1, grid, state, cfg, catalog, best);
            state.pop_pair();
        }
    }
    rec(0, &grid, &mut state, &cfg, catalog, &mut best);
    best
}

/// Eq. 1 / Eq. 2: an instance is maximally similar to itself (comparing
/// an instance with itself is an isomorphic comparison; shared nulls
/// are implicitly renamed apart).
#[test]
fn self_similarity_is_one() {
    Runner::new("self_similarity_is_one")
        .cases(64)
        .run(gen_instance, |desc| {
            let mut cat = fresh_catalog();
            let inst = build(&mut cat, "I", desc);
            let out = exact_match(&inst, &inst, &cat, &ExactConfig::default());
            assert!(out.optimal);
            assert!(
                (out.best.score() - 1.0).abs() < EPS,
                "self similarity {}",
                out.best.score()
            );
        });
}

/// Eq. 2: isomorphic instances (nulls renamed) are maximally similar.
#[test]
fn isomorphic_instances_score_one() {
    Runner::new("isomorphic_instances_score_one")
        .cases(64)
        .run(gen_instance, |desc| {
            let mut cat = fresh_catalog();
            let left = build(&mut cat, "I", desc);
            let right = build(&mut cat, "J", desc); // same shape, fresh nulls
            let out = exact_match(&left, &right, &cat, &ExactConfig::default());
            assert!((out.best.score() - 1.0).abs() < EPS);
        });
}

/// Eq. 5: the measure is symmetric.
#[test]
fn similarity_is_symmetric() {
    Runner::new("similarity_is_symmetric").cases(64).run(
        |g| (gen_instance(g), gen_instance(g)),
        |(a, b)| {
            let mut cat = fresh_catalog();
            let left = build(&mut cat, "I", a);
            let right = build(&mut cat, "J", b);
            let lr = exact_match(&left, &right, &cat, &ExactConfig::default());
            let rl = exact_match(&right, &left, &cat, &ExactConfig::default());
            assert!(lr.optimal && rl.optimal);
            assert!(
                (lr.best.score() - rl.best.score()).abs() < EPS,
                "{} vs {}",
                lr.best.score(),
                rl.best.score()
            );
        },
    );
}

/// The score is always within [0, 1].
#[test]
fn score_in_unit_interval() {
    Runner::new("score_in_unit_interval").cases(64).run(
        |g| (gen_instance(g), gen_instance(g)),
        |(a, b)| {
            let mut cat = fresh_catalog();
            let left = build(&mut cat, "I", a);
            let right = build(&mut cat, "J", b);
            for mode in [MatchMode::one_to_one(), MatchMode::general()] {
                let cfg = ExactConfig {
                    mode,
                    ..Default::default()
                };
                let s = exact_match(&left, &right, &cat, &cfg).best.score();
                assert!((0.0..=1.0 + EPS).contains(&s), "score {s}");
            }
        },
    );
}

/// The signature algorithm produces a feasible match, so it can never
/// exceed the exact optimum; and the general mode dominates 1-1.
#[test]
fn signature_bounded_by_exact() {
    Runner::new("signature_bounded_by_exact").cases(64).run(
        |g| (gen_instance(g), gen_instance(g)),
        |(a, b)| {
            let mut cat = fresh_catalog();
            let left = build(&mut cat, "I", a);
            let right = build(&mut cat, "J", b);
            let exact = exact_match(&left, &right, &cat, &ExactConfig::default());
            let sig = signature_match(&left, &right, &cat, &SignatureConfig::default());
            assert!(exact.optimal);
            assert!(
                sig.best.score() <= exact.best.score() + EPS,
                "sig {} > exact {}",
                sig.best.score(),
                exact.best.score()
            );
            let gen = exact_match(
                &left,
                &right,
                &cat,
                &ExactConfig {
                    mode: MatchMode::general(),
                    ..Default::default()
                },
            );
            assert!(gen.best.score() + EPS >= exact.best.score());
        },
    );
}

/// The branch-and-bound equals a brute-force enumeration of all 1-1
/// matchings.
#[test]
fn exact_equals_brute_force() {
    Runner::new("exact_equals_brute_force").cases(64).run(
        |g| (gen_instance(g), gen_instance(g)),
        |(a, b)| {
            let mut cat = fresh_catalog();
            let left = build(&mut cat, "I", a);
            let right = build(&mut cat, "J", b);
            let exact = exact_match(&left, &right, &cat, &ExactConfig::default());
            let brute = brute_force_one_to_one(&left, &right, &cat);
            assert!(exact.optimal);
            assert!(
                (exact.best.score() - brute).abs() < EPS,
                "exact {} vs brute {}",
                exact.best.score(),
                brute
            );
        },
    );
}

/// The general-mode branch-and-bound equals brute-force enumeration of
/// every pair subset (tiny instances: ≤3 tuples per side).
#[test]
fn exact_general_equals_brute_force() {
    Runner::new("exact_general_equals_brute_force")
        .cases(64)
        .run(
            |g| (gen_instance(g), gen_instance(g)),
            |(a, b)| {
                assume(a.len() * b.len() <= 12);
                let mut cat = fresh_catalog();
                let left = build(&mut cat, "I", a);
                let right = build(&mut cat, "J", b);
                let exact = exact_match(
                    &left,
                    &right,
                    &cat,
                    &ExactConfig {
                        mode: MatchMode::general(),
                        ..Default::default()
                    },
                );
                let brute = brute_force_general(&left, &right, &cat);
                assert!(exact.optimal);
                assert!(
                    (exact.best.score() - brute).abs() < EPS,
                    "exact {} vs brute {}",
                    exact.best.score(),
                    brute
                );
            },
        );
}

/// Eq. 4: disjoint ground instances are minimally similar. We force
/// disjointness by using distinct constant pools.
#[test]
fn disjoint_ground_instances_score_zero() {
    Runner::new("disjoint_ground_instances_score_zero")
        .cases(64)
        .run(
            |g| {
                (
                    g.rng().random_range(1..4usize),
                    g.rng().random_range(1..4usize),
                )
            },
            |&(n, m)| {
                let mut cat = fresh_catalog();
                let rel = RelId(0);
                let mut left = Instance::new("I", &cat);
                for i in 0..n {
                    let v = cat.konst(&format!("l{i}"));
                    left.insert(rel, vec![v, v]);
                }
                let mut right = Instance::new("J", &cat);
                for i in 0..m {
                    let v = cat.konst(&format!("r{i}"));
                    right.insert(rel, vec![v, v]);
                }
                let out = exact_match(&left, &right, &cat, &ExactConfig::default());
                assert!(out.best.score().abs() < EPS);
            },
        );
}

/// A random ground-instance descriptor: rows of constant index pairs.
fn gen_ground(g: &mut Gen) -> Vec<(u8, u8)> {
    g.vec_of(3, |g| {
        (g.rng().random_range(0..4u8), g.rng().random_range(0..4u8))
    })
}

fn build_ground(cat: &mut Catalog, name: &str, rows: &[(u8, u8)]) -> Instance {
    let rel = RelId(0);
    let mut inst = Instance::new(name, cat);
    for (x, y) in rows {
        let vx = cat.konst(&format!("c{x}"));
        let vy = cat.konst(&format!("c{y}"));
        inst.insert(rel, vec![vx, vy]);
    }
    inst
}

/// Thm. 5.11's tractable case: on ground instances the linear-time
/// algorithm equals the exact optimum.
#[test]
fn ground_algorithm_equals_exact() {
    Runner::new("ground_algorithm_equals_exact").cases(64).run(
        |g| (gen_ground(g), gen_ground(g)),
        |(a, b)| {
            let mut cat = fresh_catalog();
            let left = build_ground(&mut cat, "I", a);
            let right = build_ground(&mut cat, "J", b);
            let g = ground_similarity(&left, &right, &cat);
            let e = exact_match(&left, &right, &cat, &ExactConfig::default());
            assert!(e.optimal);
            assert!(
                (g - e.best.score()).abs() < EPS,
                "ground {g} vs exact {}",
                e.best.score()
            );
        },
    );
}

/// Eq. 1 on the tractable path: a non-empty ground instance compared with
/// itself scores exactly 1 under the linear-time ground algorithm.
#[test]
fn ground_self_similarity_is_one() {
    Runner::new("ground_self_similarity_is_one").cases(64).run(
        |g| {
            let mut rows = gen_ground(g);
            if rows.is_empty() {
                rows.push((g.rng().random_range(0..4u8), g.rng().random_range(0..4u8)));
            }
            rows
        },
        |rows| {
            let mut cat = fresh_catalog();
            let inst = build_ground(&mut cat, "I", rows);
            let s = ground_similarity(&inst, &inst, &cat);
            assert!((s - 1.0).abs() < EPS, "ground self similarity {s}");
        },
    );
}

/// λ-penalty monotonicity: λ is the credit a matched null earns, so for
/// the *optimal* match the similarity is non-decreasing in λ (each fixed
/// match state's score is non-decreasing in λ, and max preserves that).
#[test]
fn lambda_penalty_is_monotone() {
    Runner::new("lambda_penalty_is_monotone").cases(64).run(
        |g| (gen_instance(g), gen_instance(g)),
        |(a, b)| {
            let mut cat = fresh_catalog();
            let left = build(&mut cat, "I", a);
            let right = build(&mut cat, "J", b);
            let mut prev = -1.0f64;
            for lambda in [0.0, 0.25, 0.5, 0.9] {
                let cfg = ExactConfig {
                    score: ScoreConfig::with_lambda(lambda),
                    ..Default::default()
                };
                let out = exact_match(&left, &right, &cat, &cfg);
                assert!(out.optimal);
                let s = out.best.score();
                assert!(
                    s + EPS >= prev,
                    "score decreased as λ grew: {prev} -> {s} at λ={lambda}"
                );
                prev = s;
            }
        },
    );
}

/// The signature algorithm always returns a *valid* match, complete or
/// partial: pairs respect the mode's injectivity, replaying the match
/// keeps every pair and rescores it to the reported score's exact bits,
/// and a complete match's pairs all push in the complete regime.
#[test]
fn signature_output_is_valid() {
    Runner::new("signature_output_is_valid").cases(64).run(
        |g| (gen_instance(g), gen_instance(g)),
        |(a, b)| {
            let mut cat = fresh_catalog();
            let left = build(&mut cat, "I", a);
            let right = build(&mut cat, "J", b);
            for mode in [
                MatchMode::one_to_one(),
                MatchMode::left_functional(),
                MatchMode::general(),
            ] {
                for partial in [false, true] {
                    let cfg = SignatureConfig {
                        mode,
                        partial,
                        ..Default::default()
                    };
                    let out = signature_match(&left, &right, &cat, &cfg);
                    if mode.left_injective {
                        assert!(out.best.is_left_injective());
                    }
                    if mode.right_injective {
                        assert!(out.best.is_right_injective());
                    }
                    let replayed = out.best.replay(&left, &right);
                    assert!(replayed.pairs().eq(out.best.pairs.iter().copied()));
                    let rescored = score_state(&replayed, &cfg.score, &cat).score;
                    assert_eq!(rescored.to_bits(), out.best.score().to_bits());
                    if !partial {
                        let pairs = out.best.pairs.iter().copied();
                        let complete = MatchState::replay(&left, &right, pairs, false);
                        assert_eq!(complete.len(), out.best.pairs.len());
                    }
                    // Determinism.
                    let again = signature_match(&left, &right, &cat, &cfg);
                    assert_eq!(out.best.pairs, again.best.pairs);
                }
            }
        },
    );
}

/// Pushing and popping pairs leaves the match state equivalent to a
/// fresh one (rollback soundness), observed through scores.
#[test]
fn push_pop_is_identity() {
    Runner::new("push_pop_is_identity").cases(64).run(
        |g| (gen_instance(g), gen_instance(g)),
        |(a, b)| {
            let mut cat = fresh_catalog();
            let left = build(&mut cat, "I", a);
            let right = build(&mut cat, "J", b);
            let rel = RelId(0);
            let cfg = ScoreConfig::default();
            let baseline = {
                let st = MatchState::new(&left, &right);
                score_state(&st, &cfg, &cat).score
            };
            let mut st = MatchState::new(&left, &right);
            let lids: Vec<TupleId> = left.tuples(rel).iter().map(|t| t.id()).collect();
            let rids: Vec<TupleId> = right.tuples(rel).iter().map(|t| t.id()).collect();
            let mut pushed = 0;
            for &l in &lids {
                for &r in &rids {
                    if st.try_push_pair(rel, l, r, false).is_ok() {
                        pushed += 1;
                    }
                }
            }
            for _ in 0..pushed {
                st.pop_pair();
            }
            let after = score_state(&st, &cfg, &cat).score;
            assert!((baseline - after).abs() < EPS);
            assert_eq!(st.uf().unions(), 0);
        },
    );
}
