//! Property tests of the sketch-prefiltered search path
//! ([`CatalogIndex::topk`]): for random shared-catalog lakes of small
//! instances (labeled nulls included), `topk` with `k` = the whole catalog
//! must pass every entry through the prefilter and reproduce the
//! brute-force ranking **bit-for-bit** — same names in the same `(score
//! desc, name asc)` order, same score bits, same pair counts — in every
//! match mode and at any pool thread count. Entries certified to
//! match nothing skip the full comparison, so the brute-force scan pins
//! their hits too. Runs on `ic-testkit`: seeded, reproducible via
//! `IC_TESTKIT_SEED`, shrinking on failure.

use ic_testkit::{Gen, Runner, SEED_ENV};
use instance_comparison::core::{Comparator, InstanceSigMaps, MatchMode, SignatureConfig};
use instance_comparison::index::CatalogIndex;
use instance_comparison::model::{Catalog, Instance, RelId, Schema};
use instance_comparison::pool::with_threads;
use rand::RngExt;
use std::cell::Cell as Tally;
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
            let mut inst = Instance::new(format!("t{i:02}"), &cat);
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

/// The match modes every case runs under.
const MODES: [fn() -> MatchMode; 4] = [
    MatchMode::one_to_one,
    MatchMode::general,
    MatchMode::left_functional,
    MatchMode::bijective,
];

/// The core assertion: `topk(k = catalog)` must pass everything through
/// the prefilter and order exactly like the brute-force scan,
/// bit-identically. Returns the outcome's `(compared, certified)`.
fn assert_topk_is_brute_force(case: &Case, mode: MatchMode, threads: usize) -> (usize, usize) {
    let (cat, pins) = materialize(case);
    let mut index = CatalogIndex::default();
    for p in &pins {
        let maps = InstanceSigMaps::build(p, &SignatureConfig::default());
        index.insert(p.name(), p, Arc::new(maps));
    }

    let cmp = Comparator::new(&cat).mode(mode).build().unwrap();
    let query = &pins[case.1 as usize % pins.len()];
    let k = pins.len();
    let out = index.topk(query, k, &cmp, None).unwrap();
    assert_eq!(out.total, pins.len(), "index must cover the whole lake");
    assert_eq!(
        out.compared + out.certified,
        out.total,
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
            "ordering diverged ({mode:?}, threads={threads}): index {:?} vs brute {:?}",
            out.hits, brute
        );
        assert_eq!(
            hit.score.to_bits(),
            score.to_bits(),
            "score for {name} not bit-identical ({mode:?}, threads={threads})"
        );
        assert_eq!(
            hit.pairs, *pairs,
            "pair count for {name} ({mode:?}, threads={threads})"
        );
    }
    (out.compared, out.certified)
}

/// Runs `cases` cases under every mode at `threads`, and asserts that the
/// run held both certified and fully compared survivors, so it pins both
/// paths (a reproduction of one case, under `IC_TESTKIT_SEED`, may not).
fn run_every_mode(name: &str, cases: u32, threads: usize) {
    let (compared, certified) = (Tally::new(0), Tally::new(0));
    Runner::new(name).cases(cases).run(gen_case, |case| {
        for mode in MODES {
            let (c, z) = with_threads(threads, || {
                assert_topk_is_brute_force(case, mode(), threads)
            });
            compared.set(compared.get() + c);
            certified.set(certified.get() + z);
        }
    });
    if std::env::var_os(SEED_ENV).is_none() {
        assert!(
            compared.get() > 0 && certified.get() > 0,
            "the run must hold compared and certified survivors: {} and {}",
            compared.get(),
            certified.get()
        );
    }
}

#[test]
fn topk_over_whole_catalog_is_brute_force_ranking_single_thread() {
    run_every_mode("search::topk_is_brute_force::threads1", 48, 1);
}

#[test]
fn topk_over_whole_catalog_is_brute_force_ranking_four_threads() {
    run_every_mode("search::topk_is_brute_force::threads4", 24, 4);
}
