//! Property tests of the sketch-prefiltered search path
//! ([`CatalogIndex::topk`]): for random shared-catalog lakes of small
//! instances (labeled nulls included), `topk` with `k` = the whole catalog
//! must compare every entry and reproduce the brute-force ranking
//! **bit-for-bit** — same names in the same `(score desc, name asc)`
//! order, same score bits, same pair counts — at any comparator thread
//! count. Runs on `ic-testkit`: seeded, reproducible via
//! `IC_TESTKIT_SEED`, shrinking on failure.

use ic_testkit::{Gen, Runner};
use instance_comparison::core::Comparator;
use instance_comparison::index::CatalogIndex;
use instance_comparison::model::{Catalog, Instance, RelId, Schema};
use rand::RngExt;
use std::sync::Arc;

/// Descriptor of a random cell: shared constant or a fresh labeled null.
#[derive(Debug, Clone, Copy)]
enum Cell {
    Const(u8),
    Null,
}

/// A full case: the lake's tables (row descriptors) plus which table is
/// the query. Tables draw constants from a small pool so some pairs
/// overlap heavily, some barely, and some not at all.
type Case = (Vec<Vec<[Cell; 2]>>, u8);

fn gen_cell(g: &mut Gen) -> Cell {
    if g.rng().random_bool(0.7) {
        Cell::Const(g.rng().random_range(0..8u8))
    } else {
        Cell::Null
    }
}

fn gen_case(g: &mut Gen) -> Case {
    let mut tables = g.vec_of(6, |g| g.vec_of(5, |g| [gen_cell(g), gen_cell(g)]));
    if tables.is_empty() {
        tables.push(vec![[Cell::Const(0), Cell::Const(1)]]);
    }
    let query = g.rng().random_range(0..64u8);
    (tables, query)
}

/// Materializes a case into one catalog and zero-padded-named instances
/// (so lexicographic name order is table order, making tie-break failures
/// readable). Empty tables are legal lake entries.
fn materialize(case: &Case) -> (Catalog, Vec<Arc<Instance>>) {
    let mut cat = Catalog::new(Schema::single("R", &["A", "B"]));
    let rel = RelId(0);
    let pins = case
        .0
        .iter()
        .enumerate()
        .map(|(i, rows)| {
            let mut inst = Instance::new(&format!("t{i:02}"), &cat);
            for row in rows {
                let vals = row
                    .iter()
                    .map(|&c| match c {
                        Cell::Const(k) => cat.konst(&format!("c{k}")),
                        Cell::Null => cat.fresh_null(),
                    })
                    .collect();
                inst.insert(rel, vals);
            }
            Arc::new(inst)
        })
        .collect();
    (cat, pins)
}

/// The core assertion: `topk(k = catalog)` must compare everything and
/// order exactly like the brute-force scan, bit-identically.
fn assert_topk_is_brute_force(case: &Case, threads: usize) {
    let (cat, pins) = materialize(case);
    let index = CatalogIndex::default();
    for p in &pins {
        index.insert(p.name(), p);
    }

    let cmp = Comparator::new(&cat).threads(threads).build().unwrap();
    let query = &pins[case.1 as usize % pins.len()];
    let k = pins.len();
    let out = index.topk(query, k, &cmp, None).unwrap();
    assert_eq!(out.total, pins.len(), "index must cover the whole lake");
    assert_eq!(
        out.compared, out.total,
        "k = catalog size must defeat the prefilter entirely"
    );

    let mut brute: Vec<(String, f64, usize)> = pins
        .iter()
        .map(|p| {
            let o = cmp.signature(query, p).unwrap();
            (p.name().to_string(), o.best.score(), o.best.pairs.len())
        })
        .collect();
    brute.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

    assert_eq!(out.hits.len(), brute.len());
    for (hit, (name, score, pairs)) in out.hits.iter().zip(&brute) {
        assert_eq!(
            &hit.name, name,
            "ordering diverged (threads={threads}): index {:?} vs brute {:?}",
            out.hits, brute
        );
        assert_eq!(
            hit.score.to_bits(),
            score.to_bits(),
            "score for {name} not bit-identical (threads={threads})"
        );
        assert_eq!(
            hit.pairs, *pairs,
            "pair count for {name} (threads={threads})"
        );
    }
}

#[test]
fn topk_over_whole_catalog_is_brute_force_ranking_single_thread() {
    Runner::new("search::topk_is_brute_force::threads1")
        .cases(48)
        .run(gen_case, |case| assert_topk_is_brute_force(case, 1));
}

#[test]
fn topk_over_whole_catalog_is_brute_force_ranking_four_threads() {
    Runner::new("search::topk_is_brute_force::threads4")
        .cases(24)
        .run(gen_case, |case| assert_topk_is_brute_force(case, 4));
}
