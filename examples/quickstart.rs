//! Quickstart: compare the two incomplete Conference instances from the
//! paper's running example (Fig. 6) and inspect the resulting instance
//! match — the score, the tuple correspondences, and the value mappings
//! that explain them.
//!
//! Run with: `cargo run --release --example quickstart`

use instance_comparison::core::{
    exact_match, render_value_mapping, signature_match, ExactConfig, Side, SignatureConfig,
};
use instance_comparison::model::{display, Catalog, Instance, Schema};

fn main() {
    // Conference(Id, Name, Year, Org).
    let mut cat = Catalog::new(Schema::single("Conference", &["Id", "Name", "Year", "Org"]));
    let rel = cat.schema().rel("Conference").unwrap();

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

    // Left instance I: surrogate ids are labeled nulls; one year unknown.
    let (n1, n2, n3, n4) = (
        cat.fresh_null(),
        cat.fresh_null(),
        cat.fresh_null(),
        cat.fresh_null(),
    );
    let mut left = Instance::new("I", &cat);
    left.insert(rel, vec![n1, vldb, y75, end]);
    left.insert(rel, vec![n2, vldb, n4, end]);
    left.insert(rel, vec![n3, sigmod, y77, acm]);

    // Right instance I': different nulls, one shared surrogate (Va), one
    // unknown organizer (Vb), and an unrelated ICDE tuple.
    let (va, vb) = (cat.fresh_null(), cat.fresh_null());
    let mut right = Instance::new("I'", &cat);
    right.insert(rel, vec![va, vldb, y75, end]);
    right.insert(rel, vec![va, vldb, y76, vb]);
    right.insert(rel, vec![three, icde, y84, ieee]);

    println!("{}", display::render_instance(&left, &cat));
    println!("{}", display::render_instance(&right, &cat));

    // The PTIME signature algorithm.
    let sig = signature_match(&left, &right, &cat, &SignatureConfig::default());
    println!("Signature similarity: {:.4}", sig.best.score());
    println!(
        "  ({} signature-based matches, {} from the exhaustive step)",
        sig.stats.sig_matches, sig.stats.exhaustive_matches
    );

    // The exact algorithm agrees on this small input.
    let exact = exact_match(&left, &right, &cat, &ExactConfig::default());
    println!(
        "Exact similarity:     {:.4}  (optimal: {}, {} search nodes)",
        exact.best.score(),
        exact.optimal,
        exact.nodes
    );

    // The match explains the score: which tuples correspond...
    println!("\nTuple mapping:");
    for p in &exact.best.pairs {
        println!("  t{}  ->  t{}", p.left.0, p.right.0);
    }
    println!(
        "Unmatched left: {:?}, unmatched right: {:?}",
        exact.best.details.unmatched_left, exact.best.details.unmatched_right
    );

    // ...and how the labeled nulls were interpreted.
    println!("\nLeft value mapping (h_l) on nulls:");
    let h_l = exact.best.replay(&left, &right).value_mapping(Side::Left);
    print!("{}", render_value_mapping(&h_l, &cat));
}
