//! Property tests of signature-map repair
//! (`InstanceSigMaps::repair`): for random instances and random chained
//! tuple-level deltas (inserts, deletes, cell modifications — null-introducing
//! edits included), the repaired maps must equal a fresh build, and a
//! compare seeded with them must be **bit-for-bit identical** to comparing
//! from scratch, in complete and partial signature modes, at 1 and 4 pool
//! threads, with zero-budget compares in between. Runs on
//! `ic-testkit`: seeded, reproducible via `IC_TESTKIT_SEED`, shrinking on
//! failure.

use ic_testkit::{Gen, Runner};
use instance_comparison::core::{Comparator, Delta, DeltaOp, InstanceSigMaps, Side};
use instance_comparison::model::{AttrId, Catalog, Instance, RelId, Schema, TupleId, Value};
use instance_comparison::pool::with_threads;
use rand::RngExt;
use std::time::Duration;

/// Descriptor of a random cell: shared constant or a fresh labeled null.
#[derive(Debug, Clone, Copy)]
enum Cell {
    Const(u8),
    Null,
}

/// One tuple-level edit, abstract over concrete ids: indices are resolved
/// against the live tuples at application time (modulo the live count).
#[derive(Debug, Clone, Copy)]
enum Edit {
    Insert([Cell; 2]),
    Delete(u8),
    Modify(u8, u8, Cell),
}

/// A full case: the fixed left instance, the evolving right instance, and
/// a chain of deltas B → B′ → B″ → …
type Case = (Vec<[Cell; 2]>, Vec<[Cell; 2]>, Vec<Vec<Edit>>);

fn gen_cell(g: &mut Gen) -> Cell {
    if g.rng().random_bool(0.6) {
        Cell::Const(g.rng().random_range(0..5u8))
    } else {
        Cell::Null
    }
}

fn gen_rows(g: &mut Gen) -> Vec<[Cell; 2]> {
    g.vec_of(5, |g| [gen_cell(g), gen_cell(g)])
}

fn gen_edit(g: &mut Gen) -> Edit {
    match g.rng().random_range(0..3u8) {
        0 => Edit::Insert([gen_cell(g), gen_cell(g)]),
        1 => Edit::Delete(g.rng().random_range(0..16u8)),
        _ => Edit::Modify(
            g.rng().random_range(0..16u8),
            g.rng().random_range(0..2u8),
            gen_cell(g),
        ),
    }
}

fn gen_case(g: &mut Gen) -> Case {
    let left = gen_rows(g);
    let base = gen_rows(g);
    let chain = g.vec_of(3, |g| g.vec_of(3, gen_edit));
    (left, base, chain)
}

fn value(cat: &mut Catalog, c: Cell) -> Value {
    match c {
        Cell::Const(k) => cat.konst(&format!("c{k}")),
        Cell::Null => cat.fresh_null(),
    }
}

fn build(cat: &mut Catalog, name: &str, rows: &[[Cell; 2]]) -> Instance {
    let rel = RelId(0);
    let mut inst = Instance::new(name, cat);
    for row in rows {
        let vals: Vec<Value> = row.iter().map(|&c| value(cat, c)).collect();
        inst.insert(rel, vals);
    }
    inst
}

/// Resolves one edit chain into a concrete [`Delta`] against `cur`,
/// advancing a scratch copy op by op so indices always refer to live
/// tuples ([`Delta::apply`] applies ops sequentially the same way).
fn materialize_delta(cat: &mut Catalog, cur: &Instance, edits: &[Edit]) -> Delta {
    let rel = RelId(0);
    let mut scratch = cur.clone();
    let mut ops = Vec::new();
    for e in edits {
        let live: Vec<TupleId> = scratch.tuples(rel).iter().map(|t| t.id()).collect();
        let op = match *e {
            Edit::Insert(row) => Some(DeltaOp::Insert {
                rel,
                values: row.iter().map(|&c| value(cat, c)).collect(),
            }),
            Edit::Delete(i) if !live.is_empty() => Some(DeltaOp::Delete {
                id: live[i as usize % live.len()],
            }),
            Edit::Modify(i, a, c) if !live.is_empty() => Some(DeltaOp::Modify {
                id: live[i as usize % live.len()],
                attr: AttrId(u16::from(a % 2)),
                value: value(cat, c),
            }),
            _ => None,
        };
        if let Some(op) = op {
            Delta::new(vec![op.clone()])
                .apply(&mut scratch)
                .expect("generated op is valid");
            ops.push(op);
        }
    }
    Delta::new(ops)
}

/// Materializes a case: catalog, left, base, and per-step (delta, expected
/// post-state) pairs. Everything value-creating happens here, before any
/// `Comparator` borrows the catalog.
fn materialize(case: &Case) -> (Catalog, Instance, Instance, Vec<(Delta, Instance)>) {
    let mut cat = Catalog::new(Schema::single("R", &["A", "B"]));
    let left = build(&mut cat, "L", &case.0);
    let base = build(&mut cat, "B", &case.1);
    let mut cur = base.clone();
    let mut steps = Vec::new();
    for edits in &case.2 {
        let delta = materialize_delta(&mut cat, &cur, edits);
        delta.apply(&mut cur).expect("materialized delta applies");
        steps.push((delta, cur.clone()));
    }
    (cat, left, base, steps)
}

/// The core assertion: walk the delta chain repairing the right side's
/// maps, and at every step demand that (a) the repaired maps equal a fresh
/// build, and (b) compares seeded with them at 1 and 4 pool threads are
/// bit-identical to a from-scratch compare. A zero-budget compare runs
/// on the maps before each repair; the next repair and compare must not
/// notice it.
fn assert_chain_bit_identical(case: &Case, partial: bool) {
    let (cat, left, base, steps) = materialize(case);
    let cmp = Comparator::new(&cat).partial(partial).build().unwrap();
    let strained = Comparator::new(&cat)
        .partial(partial)
        .budget(Duration::ZERO)
        .build()
        .unwrap();
    let left_maps = cmp.build_maps(&left).unwrap();
    let mut maps = cmp.build_maps(&base).unwrap();
    let mut cur = &base;
    for (step, (delta, next)) in steps.iter().enumerate() {
        strained
            .compare_with_maps(&left, cur, Some(&left_maps), Some(&maps))
            .unwrap();
        maps.repair(cur, next, delta);
        assert_eq!(
            maps,
            cmp.build_maps(next).unwrap(),
            "step {step} (partial={partial}): repaired maps differ from a fresh build"
        );
        let fresh = cmp.compare(&left, next).unwrap();
        for threads in [1, 4] {
            let seeded = with_threads(threads, || {
                cmp.compare_with_maps(&left, next, Some(&left_maps), Some(&maps))
            })
            .unwrap();
            assert_eq!(
                seeded.score().to_bits(),
                fresh.score().to_bits(),
                "step {step} (partial={partial}, threads={threads}): \
                 repaired {} vs from-scratch {}",
                seeded.score(),
                fresh.score()
            );
            let (got, want) = (&seeded.outcome.best, &fresh.outcome.best);
            assert_eq!(got.pairs, want.pairs);
            let (got, want) = (got.replay(&left, next), want.replay(&left, next));
            for side in [Side::Left, Side::Right] {
                assert_eq!(got.value_mapping(side), want.value_mapping(side));
            }
        }
        cur = next;
    }
}

/// Complete-match mode: repaired == fresh build, and seeded == from-scratch,
/// across chained random deltas.
#[test]
fn incremental_matches_scratch_complete() {
    Runner::new("incremental_matches_scratch_complete")
        .cases(48)
        .run(gen_case, |case| assert_chain_bit_identical(case, false));
}

/// Partial-match mode (subset signatures — the repair touches many buckets
/// per tuple): repaired == fresh build, and seeded == from-scratch.
#[test]
fn incremental_matches_scratch_partial() {
    Runner::new("incremental_matches_scratch_partial")
        .cases(48)
        .run(gen_case, |case| assert_chain_bit_identical(case, true));
}

/// Deadline safety: a comparator whose budget is already spent times out in
/// every matching phase, but map builds and repairs are deadline-free, so a
/// chain of maps repaired alongside zero-budget compares must seed an
/// unbudgeted run that equals from-scratch exactly.
#[test]
fn timed_out_compare_leaves_cache_consistent() {
    Runner::new("timed_out_compare_leaves_cache_consistent")
        .cases(32)
        .run(gen_case, |case| {
            let (cat, left, base, steps) = materialize(case);
            let strained = Comparator::new(&cat)
                .budget(Duration::ZERO)
                .build()
                .unwrap();
            let relaxed = Comparator::new(&cat).build().unwrap();
            let left_maps = strained.build_maps(&left).unwrap();
            let mut maps = strained.build_maps(&base).unwrap();

            let first = strained.compare(&left, &base).unwrap();
            let again = strained.compare(&left, &base).unwrap();
            assert_eq!(first.score().to_bits(), again.score().to_bits());
            let mut cur = &base;
            for (delta, expected) in &steps {
                let _ = strained
                    .compare_with_maps(&left, cur, Some(&left_maps), Some(&maps))
                    .unwrap();
                maps.repair(cur, expected, delta);
                let seeded = relaxed
                    .signature_with_maps(&left, expected, Some(&left_maps), Some(&maps))
                    .unwrap();
                let scratch = relaxed.signature(&left, expected).unwrap();
                assert!(!seeded.timed_out && !scratch.timed_out);
                assert_eq!(
                    seeded.best.score().to_bits(),
                    scratch.best.score().to_bits()
                );
                assert_eq!(seeded.best.pairs, scratch.best.pairs);
                cur = expected;
            }
        });
}

/// Thread-count independence of the whole repair pipeline: the same chain
/// walked at 1 and 4 threads, each with maps built and repaired by its own
/// comparator, yields identical bits at every step (the `IC_POOL_THREADS`
/// matrix in CI crosses this with the ambient pool).
#[test]
fn cached_chain_is_thread_count_invariant() {
    Runner::new("cached_chain_is_thread_count_invariant")
        .cases(24)
        .run(gen_case, |case| {
            let (cat, left, base, steps) = materialize(case);
            let mut per_thread_scores: Vec<Vec<u64>> = Vec::new();
            let cmp = Comparator::new(&cat).build().unwrap();
            for threads in [1, 4] {
                let scores = with_threads(threads, || {
                    let left_maps = cmp.build_maps(&left).unwrap();
                    let mut maps = cmp.build_maps(&base).unwrap();
                    let seed = |right: &Instance, maps: &InstanceSigMaps| {
                        cmp.compare_with_maps(&left, right, Some(&left_maps), Some(maps))
                            .unwrap()
                            .score()
                            .to_bits()
                    };
                    let mut scores = vec![seed(&base, &maps)];
                    let mut cur = &base;
                    for (delta, next) in &steps {
                        maps.repair(cur, next, delta);
                        scores.push(seed(next, &maps));
                        cur = next;
                    }
                    scores
                });
                per_thread_scores.push(scores);
            }
            assert_eq!(
                per_thread_scores[0], per_thread_scores[1],
                "1-thread vs 4-thread repaired chains diverged"
            );
        });
}
