//! Dataset search and deduplication in a data lake (paper Sec. 1):
//! given a query table, rank a lake of tables by similarity without
//! comparing the query against every entry. A [`CatalogIndex`] prefilters
//! by per-instance sketches and signature-bucket overlap, then runs the
//! full signature comparison only on surviving candidates — every returned
//! score is bit-identical to the brute-force comparison of the same pair.
//!
//! The example also checks its own work: it runs the O(n) brute-force scan
//! the index replaces, reports recall@k against it, and shows how much of
//! the lake passed the prefilter: the survivors that got a full
//! comparison, and those certified to match nothing without one.
//!
//! Run with: `cargo run --release --example dataset_search`

use instance_comparison::core::{Comparator, SignatureConfig};
use instance_comparison::datagen::{generate_lake, LakeParams};
use instance_comparison::index::CatalogIndex;
use instance_comparison::model::Instance;
use instance_comparison::versioning::find_duplicate_groups_shared;
use std::sync::Arc;

fn main() {
    // A lake of 24 clusters × 4 evolved versions sharing one catalog:
    // versions within a cluster are mutual near-duplicates, clusters are
    // constant-disjoint from each other.
    let lake = generate_lake(&LakeParams {
        clusters: 24,
        versions_per_cluster: 4,
        rows: 24,
        arity: 4,
        ..LakeParams::default()
    });
    let pins: Vec<Arc<Instance>> = lake.instances.iter().cloned().map(Arc::new).collect();

    let cmp = Comparator::new(&lake.catalog).build().unwrap();
    let index = CatalogIndex::default();
    for p in &pins {
        index.insert(p.name(), p, Arc::new(cmp.build_maps(p).unwrap()));
    }

    // Search: which lake tables look like cluster 2's newest version?
    let query = &pins[lake.index_of(2, 3)];
    let k = 5;
    let out = index.topk(query, k, &cmp, None).unwrap();
    println!("query: {}  (lake of {} tables)\n", query.name(), out.total);
    println!("{:<8} {:>8} {:>7}", "table", "score", "pairs");
    for hit in &out.hits {
        println!("{:<8} {:>8.3} {:>7}", hit.name, hit.score, hit.pairs);
    }

    // Brute force the same ranking to measure recall. Scores come from the
    // same comparator, so any hit the index returns must match bit-for-bit.
    let mut brute: Vec<(String, f64)> = pins
        .iter()
        .map(|p| {
            let score = cmp.signature(query, p).unwrap().best.score();
            (p.name().to_string(), score)
        })
        .collect();
    brute.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then_with(|| a.0.cmp(&b.0)));
    let found = out
        .hits
        .iter()
        .filter(|h| {
            brute[..k]
                .iter()
                .any(|(name, score)| *name == h.name && score.to_bits() == h.score.to_bits())
        })
        .count();
    let survivors = out.compared + out.certified;
    println!(
        "\nrecall@{k}: {:.2}  (prefilter passed {survivors}/{} = {:.0}% of the lake: \
         {} full comparisons, {} certified zeros)",
        found as f64 / k as f64,
        out.total,
        100.0 * survivors as f64 / out.total as f64,
        out.compared,
        out.certified
    );

    // Deduplication: cluster near-duplicates at a 0.6 threshold. The
    // shared-catalog variant reuses signature maps and skips pairs whose
    // sketch bound already rules the threshold out.
    let tables: Vec<&Instance> = lake.instances.iter().collect();
    let groups =
        find_duplicate_groups_shared(&tables, &lake.catalog, 0.6, &SignatureConfig::default());
    println!("\nnear-duplicate groups (threshold 0.6):");
    for g in groups {
        let names: Vec<&str> = g.iter().map(|&i| lake.instances[i].name()).collect();
        println!("  {{{}}}", names.join(", "));
    }
}
