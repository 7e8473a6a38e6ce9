//! Property tests of `ic-discovery` ([`fd_g3`]/[`key_g3`] and the lattice
//! search): for random small instances with labeled nulls, the
//! possible-world violation interval must be ordered and bounded; on
//! null-free data the interval collapses to the classical g3, which is 0
//! exactly when the FD holds; and discovery output is bit-identical at
//! any pool thread count. Runs on `ic-testkit`: seeded, reproducible via
//! `IC_TESTKIT_SEED`, shrinking on failure.

use ic_testkit::{Gen, Runner};
use instance_comparison::discovery::{discover, fd_g3, key_g3, DiscoveryConfig};
use instance_comparison::model::{AttrId, Catalog, Instance, RelId, Schema, Value};
use rand::RngExt;

const REL: RelId = RelId(0);
const ARITY: usize = 3;

/// Descriptor of a random cell: a constant from a small pool (so FDs hold
/// or nearly hold by accident often enough to be interesting) or a fresh
/// labeled null.
#[derive(Debug, Clone, Copy)]
enum Cell {
    Const(u8),
    Null,
}

type Case = Vec<[Cell; ARITY]>;

fn gen_cell(g: &mut Gen, null_ok: bool) -> Cell {
    if null_ok && g.rng().random_bool(0.2) {
        Cell::Null
    } else {
        Cell::Const(g.rng().random_range(0..4u8))
    }
}

fn gen_case_with_nulls(g: &mut Gen) -> Case {
    g.vec_of(10, |g| std::array::from_fn(|_| gen_cell(g, true)))
}

fn gen_case_null_free(g: &mut Gen) -> Case {
    g.vec_of(10, |g| std::array::from_fn(|_| gen_cell(g, false)))
}

fn materialize(case: &Case) -> (Catalog, Instance) {
    let mut cat = Catalog::new(Schema::single("R", &["A", "B", "C"]));
    let mut inst = Instance::new("I", &cat);
    for row in case {
        let vals: Vec<Value> = row
            .iter()
            .map(|&c| match c {
                Cell::Const(k) => cat.konst(&format!("c{k}")),
                Cell::Null => cat.fresh_null(),
            })
            .collect();
        inst.insert(REL, vals);
    }
    (cat, inst)
}

/// Every candidate FD/key over the schema, up to the full attribute set.
fn all_fd_candidates() -> Vec<(Vec<AttrId>, AttrId)> {
    let mut out = Vec::new();
    for mask in 1u32..(1 << ARITY) {
        let lhs: Vec<AttrId> = (0..ARITY as u16)
            .filter(|a| mask & (1 << a) != 0)
            .map(AttrId)
            .collect();
        for rhs in 0..ARITY as u16 {
            if mask & (1 << rhs) == 0 {
                out.push((lhs.clone(), AttrId(rhs)));
            }
        }
    }
    out
}

#[test]
fn g3_interval_is_ordered_and_bounded() {
    Runner::new("discovery::g3_interval_ordered")
        .cases(64)
        .run(gen_case_with_nulls, |case| {
            let (cat, inst) = materialize(case);
            for (lhs, rhs) in all_fd_candidates() {
                let g = fd_g3(&inst, &cat, REL, &lhs, rhs);
                assert!(
                    g.g3_min <= g.g3_max,
                    "interval inverted for {lhs:?} -> {rhs:?}: {g:?}"
                );
                assert!((0.0..1.0).contains(&g.g3_min), "{g:?} out of range");
                assert!((0.0..1.0).contains(&g.g3_max), "{g:?} out of range");
            }
            for mask in 1u32..(1 << ARITY) {
                let attrs: Vec<AttrId> = (0..ARITY as u16)
                    .filter(|a| mask & (1 << a) != 0)
                    .map(AttrId)
                    .collect();
                let g = key_g3(&inst, &cat, REL, &attrs);
                assert!(g.g3_min <= g.g3_max, "key interval inverted: {g:?}");
                assert!((0.0..1.0).contains(&g.g3_max), "{g:?} out of range");
            }
        });
}

/// Classical g3 removal count, computed independently of ic-discovery.
fn exact_removals(case: &Case, lhs: &[AttrId], rhs: AttrId) -> usize {
    let mut groups: std::collections::HashMap<Vec<u8>, std::collections::HashMap<u8, usize>> =
        std::collections::HashMap::new();
    for row in case {
        let key: Vec<u8> = lhs
            .iter()
            .map(|a| match row[a.0 as usize] {
                Cell::Const(k) => k,
                Cell::Null => unreachable!("null-free generator"),
            })
            .collect();
        let dep = match row[rhs.0 as usize] {
            Cell::Const(k) => k,
            Cell::Null => unreachable!("null-free generator"),
        };
        *groups.entry(key).or_default().entry(dep).or_insert(0) += 1;
    }
    groups
        .values()
        .map(|counts| {
            let total: usize = counts.values().sum();
            total - counts.values().max().copied().unwrap_or(0)
        })
        .sum()
}

#[test]
fn null_free_interval_collapses_to_classical_g3() {
    Runner::new("discovery::null_free_is_classical_g3")
        .cases(64)
        .run(gen_case_null_free, |case| {
            let (cat, inst) = materialize(case);
            let n = case.len();
            for (lhs, rhs) in all_fd_candidates() {
                let g = fd_g3(&inst, &cat, REL, &lhs, rhs);
                // An empty relation violates nothing (the library defines
                // g3 = 0 there; the naive ratio would be 0/0).
                let removed = exact_removals(case, &lhs, rhs);
                let expected = if n == 0 {
                    0.0
                } else {
                    removed as f64 / n as f64
                };
                assert_eq!(
                    g.g3_min, g.g3_max,
                    "null-free interval must collapse for {lhs:?} -> {rhs:?}"
                );
                assert_eq!(
                    g.g3_min, expected,
                    "classical g3 mismatch for {lhs:?} -> {rhs:?}"
                );
                // g3 == 0 exactly when the FD holds on the data.
                assert_eq!(g.g3_max == 0.0, removed == 0);
            }
        });
}

#[test]
fn discovery_is_bit_identical_across_pool_thread_counts() {
    Runner::new("discovery::thread_invariance")
        .cases(24)
        .run(gen_case_with_nulls, |case| {
            let (cat, inst) = materialize(case);
            let cfg = DiscoveryConfig {
                epsilon: 0.3,
                ..DiscoveryConfig::default()
            };
            let one =
                instance_comparison::pool::with_threads(1, || discover(&inst, &cat, &cfg).unwrap());
            let four =
                instance_comparison::pool::with_threads(4, || discover(&inst, &cat, &cfg).unwrap());
            assert_eq!(one.fds, four.fds, "FD output depends on thread count");
            assert_eq!(one.keys, four.keys, "key output depends on thread count");
            for (a, b) in one.fds.iter().zip(&four.fds) {
                assert_eq!(a.g3.g3_min.to_bits(), b.g3.g3_min.to_bits());
                assert_eq!(a.g3.g3_max.to_bits(), b.g3.g3_max.to_bits());
            }
        });
}
