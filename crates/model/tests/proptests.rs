//! Property-based tests of the model layer: CSV round-trips preserve
//! instance structure; permutations and removals keep the id index
//! consistent. Runs on `ic-testkit` (seeded, `IC_TESTKIT_SEED`-reproducible).

use ic_model::csv::{read_csv, write_csv, CsvOptions};
use ic_model::{Catalog, Instance, RelId, Schema, Value};
use ic_testkit::{Gen, Runner};
use rand::RngExt;

/// A random cell: a constant from a small alphabet (possibly containing CSV
/// metacharacters) or a null index shared within the instance.
#[derive(Debug, Clone)]
enum Cell {
    Const(String),
    Null(u8),
}

const ALPHABET: [&str; 6] = [
    "plain",
    "with,comma",
    "with\"quote",
    "multi\nline",
    "x",
    "1975",
];

fn gen_cell(g: &mut Gen) -> Cell {
    if g.rng().random_bool(0.5) {
        Cell::Const(g.pick(&ALPHABET).to_string())
    } else {
        Cell::Null(g.rng().random_range(0..3u8))
    }
}

/// Up to 5 rows of arity 2 (the proptest suite's `0..6` bound).
fn gen_rows(g: &mut Gen) -> Vec<[Cell; 2]> {
    g.vec_of(5, |g| [gen_cell(g), gen_cell(g)])
}

fn build(desc: &[[Cell; 2]]) -> (Catalog, Instance) {
    let mut cat = Catalog::new(Schema::single("R", &["A", "B"]));
    let mut inst = Instance::new("I", &cat);
    let mut nulls: Vec<Option<Value>> = vec![None; 3];
    for row in desc {
        let vals: Vec<Value> = row
            .iter()
            .map(|c| match c {
                Cell::Const(s) => cat.konst(s),
                Cell::Null(k) => *nulls[*k as usize].get_or_insert_with(|| cat.fresh_null()),
            })
            .collect();
        inst.insert(RelId(0), vals);
    }
    (cat, inst)
}

/// Canonical "pattern" of an instance: constants as strings, nulls replaced
/// by their first-occurrence index — invariant under null renaming.
fn pattern(cat: &Catalog, inst: &Instance) -> Vec<Vec<String>> {
    let mut next = 0usize;
    let mut seen: std::collections::HashMap<Value, usize> = std::collections::HashMap::new();
    inst.tuples(RelId(0))
        .iter()
        .map(|t| {
            t.values()
                .iter()
                .map(|&v| match v {
                    Value::Const(s) => format!("c:{}", cat.resolve(s)),
                    Value::Null(_) => {
                        let id = *seen.entry(v).or_insert_with(|| {
                            next += 1;
                            next - 1
                        });
                        format!("n:{id}")
                    }
                })
                .collect()
        })
        .collect()
}

/// write → read preserves the instance pattern exactly.
#[test]
fn csv_roundtrip_preserves_structure() {
    Runner::new("csv_roundtrip_preserves_structure")
        .cases(128)
        .run(gen_rows, |desc| {
            let (cat, inst) = build(desc);
            // Disable empty-as-null so empty-string constants survive; the
            // alphabet above never produces empty strings anyway.
            let opts = CsvOptions::default();
            let text = write_csv(&inst, &cat, RelId(0), &opts);
            let (cat2, inst2) = read_csv(&text, "R", "I2", &opts).unwrap();
            assert_eq!(pattern(&cat, &inst), pattern(&cat2, &inst2));
        });
}

/// Serialization never panics and the header always survives.
#[test]
fn csv_header_roundtrip() {
    Runner::new("csv_header_roundtrip")
        .cases(128)
        .run(gen_rows, |desc| {
            let (cat, inst) = build(desc);
            let text = write_csv(&inst, &cat, RelId(0), &CsvOptions::default());
            assert!(text.starts_with("A,B\n"));
        });
}

/// Permuting rows preserves id-based lookup.
#[test]
fn permutation_preserves_lookup() {
    Runner::new("permutation_preserves_lookup").cases(128).run(
        |g| (gen_rows(g), g.rng().random_range(0..1000u64)),
        |(desc, seed)| {
            let (cat, mut inst) = build(desc);
            let n = inst.tuples(RelId(0)).len();
            // Deterministic pseudo-random permutation from the seed.
            let mut order: Vec<usize> = (0..n).collect();
            let mut s = *seed;
            for i in (1..n).rev() {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let j = (s >> 33) as usize % (i + 1);
                order.swap(i, j);
            }
            let before: Vec<(u32, Vec<Value>)> = inst
                .tuples(RelId(0))
                .iter()
                .map(|t| (t.id().0, t.values().to_vec()))
                .collect();
            inst.permute(RelId(0), &order);
            for (id, values) in before {
                let t = inst.tuple(ic_model::TupleId(id)).expect("still present");
                assert_eq!(t.values(), values.as_slice());
            }
            let _ = cat;
        },
    );
}

/// Removing tuples keeps remaining lookups valid and sizes consistent.
#[test]
fn removal_keeps_index_consistent() {
    Runner::new("removal_keeps_index_consistent")
        .cases(128)
        .run(
            |g| (gen_rows(g), g.rng().random_range(0..6usize)),
            |(desc, victim)| {
                let (_cat, mut inst) = build(desc);
                let ids: Vec<ic_model::TupleId> =
                    inst.tuples(RelId(0)).iter().map(|t| t.id()).collect();
                if ids.is_empty() {
                    return;
                }
                let victim_id = ids[victim % ids.len()];
                let before = inst.num_tuples();
                assert!(inst.remove(victim_id));
                assert_eq!(inst.num_tuples(), before - 1);
                assert!(inst.tuple(victim_id).is_none());
                for &id in &ids {
                    if id != victim_id {
                        assert!(inst.tuple(id).is_some());
                        assert_eq!(inst.tuple(id).unwrap().id(), id);
                    }
                }
            },
        );
}

/// Instance statistics are internally consistent.
#[test]
fn stats_are_consistent() {
    Runner::new("stats_are_consistent")
        .cases(128)
        .run(gen_rows, |desc| {
            let (_cat, inst) = build(desc);
            let s = inst.stats();
            assert_eq!(s.const_cells + s.null_cells, inst.size());
            assert_eq!(s.tuples, inst.num_tuples());
            assert!(s.distinct_consts <= s.const_cells);
            assert!(s.distinct_nulls <= s.null_cells);
            assert_eq!(s.distinct_values, s.distinct_consts + s.distinct_nulls);
        });
}

/// The CSV parser never panics on arbitrary input — it either parses or
/// returns a structured error.
#[test]
fn csv_parser_never_panics() {
    Runner::new("csv_parser_never_panics")
        .cases(512)
        .max_size(200)
        .run(
            |g| {
                let cap = g.size().min(200);
                let len = g.rng().random_range(0..=cap);
                (0..len)
                    // Printable-ish ASCII plus the control chars CSV cares about.
                    .map(|_| {
                        let c = g.rng().random_range(0u32..96);
                        match c {
                            0 => '\n',
                            1 => '\r',
                            2 => '\t',
                            _ => char::from_u32(29 + c).unwrap_or('x'),
                        }
                    })
                    .collect::<String>()
            },
            |text| {
                let _ = read_csv(text, "R", "I", &CsvOptions::default());
            },
        );
}

/// Arbitrary binary-ish input with CSV metacharacters sprinkled in.
#[test]
fn csv_parser_handles_metacharacter_soup() {
    const PARTS: [&str; 6] = [",", "\"", "\n", "\r\n", "x", "_N:"];
    Runner::new("csv_parser_handles_metacharacter_soup")
        .cases(512)
        .max_size(59)
        .run(
            |g| {
                let parts = g.vec_of(59, |g| *g.pick(&PARTS));
                parts.concat()
            },
            |text| {
                let _ = read_csv(text, "R", "I", &CsvOptions::default());
            },
        );
}

/// Regression (converted from the retired `proptests.proptest-regressions`
/// file): proptest once shrank `csv_parser_handles_metacharacter_soup` to
/// `parts = [",", "\n", "\"", "\""]` — a record whose second field opens a
/// quote that closes immediately at end of input.
#[test]
fn csv_parser_regression_comma_newline_quote_quote() {
    let _ = read_csv(",\n\"\"", "R", "I", &CsvOptions::default());
}
