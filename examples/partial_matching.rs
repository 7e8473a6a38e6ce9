//! Partial matches and string similarity (paper Sec. 6.3 + Sec. 9):
//! comparing instances whose constants were perturbed by typos. Complete
//! matching drops every typo'd tuple; the partial variant keeps them and
//! the Levenshtein extension credits near-identical constants.
//!
//! Run with: `cargo run --release --example partial_matching`

use instance_comparison::core::{CellChange, Comparator};
use instance_comparison::datagen::{mod_cell_typos, Dataset};

fn main() {
    let sc = mod_cell_typos(Dataset::Bikeshare, 400, 0.20, 99);
    println!(
        "Bike-like scenario: {} vs {} tuples, 20% of cells typo'd or nulled\n",
        sc.source.num_tuples(),
        sc.target.num_tuples()
    );

    let compare = |builder: instance_comparison::core::ComparatorBuilder<'_>| {
        let cmp = builder.build().expect("valid config");
        cmp.compare(&sc.source, &sc.target).expect("schemas match")
    };
    let complete = compare(Comparator::new(&sc.catalog));
    println!(
        "complete matching:        score {:.3}  ({} matched, {} deleted, {} inserted)",
        complete.score(),
        complete.outcome.best.pairs.len(),
        complete.diff.deleted.len(),
        complete.diff.inserted.len()
    );

    let partial = compare(Comparator::new(&sc.catalog).partial(true));
    println!(
        "partial matching:         score {:.3}  ({} matched, {} updated pairs)",
        partial.score(),
        partial.outcome.best.pairs.len(),
        partial.diff.updated.len()
    );

    let strsim = compare(
        Comparator::new(&sc.catalog)
            .partial(true)
            .string_sim_weight(0.8),
    );
    println!("partial + levenshtein:    score {:.3}", strsim.score());

    // Show a couple of the conflicts the partial match surfaced.
    println!("\nexample conflicts found by the partial match:");
    let mut shown = 0;
    for p in &partial.diff.updated {
        let has_conflict = p
            .cells
            .iter()
            .any(|c| matches!(c, CellChange::ConstantConflict));
        if !has_conflict {
            continue;
        }
        let lt = sc.source.tuple(p.left).unwrap();
        let rt = sc.target.tuple(p.right).unwrap();
        for (i, c) in p.cells.iter().enumerate() {
            if matches!(c, CellChange::ConstantConflict) {
                let attr = instance_comparison::model::AttrId(i as u16);
                println!(
                    "  t{}.{} = {:?}   vs   t{}.{} = {:?}",
                    p.left.0,
                    sc.catalog.schema().relation(p.rel).attr_name(attr),
                    sc.catalog.render(lt.value(attr)),
                    p.right.0,
                    sc.catalog.schema().relation(p.rel).attr_name(attr),
                    sc.catalog.render(rt.value(attr)),
                );
            }
        }
        shown += 1;
        if shown >= 3 {
            break;
        }
    }
}
