//! Signature-map repair ([`ic_core::InstanceSigMaps::repair`]) vs
//! from-scratch comparison, across delta sizes, on a 1k-tuple Bikeshare
//! pair.
//!
//! For each delta size the binary measures (a) applying a fresh batch of
//! cell modifications to a copy of the right instance, repairing its
//! signature maps from the old copy to the new one, and re-comparing
//! seeded with both sides' maps, and (b) applying the same kind of batch
//! to a plain instance and comparing from scratch. Before any timing it
//! asserts the two paths agree bit for bit, and it checks the acceptance
//! criterion: a single-tuple delta performs ≥ 5× less sigmap index work
//! than a full build of the pair (recorded as `rebuild_ratio_delta1`).
//!
//! Run: `cargo run -p ic-bench --release --bin bench_incremental`

use ic_bench::harness::Suite;
use ic_core::{Comparator, Delta, DeltaOp, InstanceSigMaps};
use ic_datagen::{mod_cell, Dataset};
use ic_model::{AttrId, Instance, TupleId, Value};

const ROWS: usize = 1_000;
const DELTA_SIZES: [usize; 3] = [1, 10, 100];

/// Builds a batch of `k` cell modifications cycling over the instance's
/// tuples, attributes, and a pre-interned constant pool; `round` advances
/// so successive batches touch different cells.
fn make_delta(ids: &[TupleId], arity: usize, pool: &[Value], round: &mut usize, k: usize) -> Delta {
    let ops = (0..k)
        .map(|i| {
            let n = *round + i;
            DeltaOp::Modify {
                id: ids[n % ids.len()],
                attr: AttrId((n % arity) as u16),
                value: pool[n % pool.len()],
            }
        })
        .collect();
    *round += k;
    Delta::new(ops)
}

/// Applies `delta` to a copy of `old` and repairs `maps` from `old` to the
/// copy, as serve does for a patch. Returns the copy and the repair's
/// index operations.
fn step(maps: &mut InstanceSigMaps, old: &Instance, delta: &Delta) -> (Instance, u64) {
    let mut new = old.clone();
    delta.apply(&mut new).unwrap();
    let ops = maps.repair(old, &new, delta);
    (new, ops)
}

fn main() {
    let sc = mod_cell(Dataset::Bikeshare, ROWS, 0.05, 42);
    let mut catalog = sc.catalog;
    // Intern the replacement constants up front: the comparator holds the
    // catalog immutably for the rest of the run.
    let pool: Vec<Value> = (0..7)
        .map(|i| catalog.konst(&format!("delta-const-{i}")))
        .collect();
    let ids: Vec<TupleId> = sc.target.tuples(sc.rel).iter().map(|t| t.id()).collect();
    let arity = catalog.schema().relation(sc.rel).arity();

    let mut suite = Suite::new("BENCH_incremental");
    suite.set_meta("dataset", "bikeshare");
    suite.set_meta("rows", &ROWS.to_string());
    suite.set_meta("delta_sizes", &DELTA_SIZES.map(|k| k.to_string()).join(","));

    let cmp = Comparator::new(&catalog).build().unwrap();

    let source_maps = cmp.build_maps(&sc.source).unwrap();

    // Acceptance criterion: index work of one full sigmap build of the
    // pair vs the repair work of a single-tuple delta (unindex + reindex).
    {
        // A full build indexes every tuple of arity ≤ 128 once: here, every
        // tuple of the pair.
        assert!(arity <= 128);
        let full = (sc.source.num_tuples() + sc.target.num_tuples()) as u64;
        let mut round = 0;
        let delta = make_delta(&ids, arity, &pool, &mut round, 1);
        let mut maps = cmp.build_maps(&sc.target).unwrap();
        let (_, repair) = step(&mut maps, &sc.target, &delta);
        let ratio = full as f64 / repair.max(1) as f64;
        suite.set_meta("rebuild_ratio_delta1", &format!("{ratio:.1}"));
        assert!(
            ratio >= 5.0,
            "single-tuple delta repaired {repair} index entries vs {full} for a \
             full rebuild — expected a ≥5x saving"
        );
    }

    for k in DELTA_SIZES {
        // Repair path: maps built once, then each iteration applies a
        // fresh k-modification delta to a copy of the current instance,
        // repairs the maps and re-compares seeded with both sides' maps.
        let mut maps = cmp.build_maps(&sc.target).unwrap();
        let mut round = 0;

        // Bit-identity check outside the timed region: the repaired maps
        // equal a fresh build, and the seeded comparison equals a
        // from-scratch run on the same state.
        let delta = make_delta(&ids, arity, &pool, &mut round, k);
        let (mut cur, _) = step(&mut maps, &sc.target, &delta);
        assert!(maps == cmp.build_maps(&cur).unwrap());
        let inc = cmp
            .compare_with_maps(&sc.source, &cur, Some(&source_maps), Some(&maps))
            .unwrap();
        let fresh = cmp.compare(&sc.source, &cur).unwrap();
        assert_eq!(inc.score().to_bits(), fresh.score().to_bits());
        assert_eq!(inc.outcome.best.pairs, fresh.outcome.best.pairs);

        suite.measure(&format!("incremental/delta{k}"), || {
            let delta = make_delta(&ids, arity, &pool, &mut round, k);
            cur = step(&mut maps, &cur, &delta).0;
            cmp.compare_with_maps(&sc.source, &cur, Some(&source_maps), Some(&maps))
                .unwrap()
                .score()
        });
        let inc_median = suite.records().last().expect("just measured").median;

        // From-scratch path: same mutation applied to a plain instance,
        // full sigmap builds + matching every iteration.
        let mut cur: Instance = sc.target.clone();
        let mut round = 0;
        suite.measure(&format!("scratch/delta{k}"), || {
            let delta = make_delta(&ids, arity, &pool, &mut round, k);
            delta.apply(&mut cur).unwrap();
            cmp.compare(&sc.source, &cur).unwrap().score()
        });
        let scratch_median = suite.records().last().expect("just measured").median;

        let speedup =
            scratch_median.as_secs_f64() / inc_median.as_secs_f64().max(f64::MIN_POSITIVE);
        suite.set_meta(&format!("speedup_delta{k}"), &format!("{speedup:.2}"));
    }

    suite.finish();
}
