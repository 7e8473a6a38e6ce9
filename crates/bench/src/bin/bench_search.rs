//! Sketch-prefiltered top-k search ([`ic_index::CatalogIndex`]) over a
//! ~10k-instance synthetic lake: recall against the brute-force scan it
//! replaces, fraction of the catalog that gets a full comparison, and
//! query throughput.
//!
//! The lake is 625 clusters × 16 evolved versions (constant-disjoint
//! across clusters), so each query has 15 true near-duplicates and ~9.98k
//! irrelevant entries. Acceptance criteria asserted before any timing:
//! recall@10 must be 1.0 on every probe query, and the prefilter must
//! grant full comparisons to < 20% of the catalog.
//!
//! Run: `cargo run -p ic-bench --release --bin bench_search`

use ic_bench::harness::Suite;
use ic_core::Comparator;
use ic_datagen::{generate_lake, LakeParams};
use ic_index::CatalogIndex;
use ic_model::Instance;
use std::sync::Arc;
use std::time::Instant;

const CLUSTERS: usize = 625;
const VERSIONS: usize = 16;
const ROWS: usize = 12;
const K: usize = 10;
const PROBES: usize = 4;

fn main() {
    let lake = generate_lake(&LakeParams {
        clusters: CLUSTERS,
        versions_per_cluster: VERSIONS,
        rows: ROWS,
        arity: 4,
        ..LakeParams::default()
    });
    let pins: Vec<Arc<Instance>> = lake.instances.iter().cloned().map(Arc::new).collect();

    let mut suite = Suite::new("BENCH_search");
    suite.set_meta("catalog", &pins.len().to_string());
    suite.set_meta("rows", &ROWS.to_string());
    suite.set_meta("k", &K.to_string());

    let index = CatalogIndex::default();
    let t = Instant::now();
    for p in &pins {
        index.insert(p.name(), p);
    }
    suite.set_meta(
        "build_ms",
        &format!("{:.0}", t.elapsed().as_secs_f64() * 1e3),
    );

    let cmp = Comparator::new(&lake.catalog).build().unwrap();

    // Acceptance: probe queries spread across the lake. The brute-force
    // baseline scores *every* entry with the same comparator (seeded with
    // the index's cached maps, which the seeding contract keeps
    // bit-identical to from-scratch runs).
    let mut compared_total = 0usize;
    for p in 0..PROBES {
        let query = &pins[lake.index_of(p * (CLUSTERS / PROBES), p % VERSIONS)];
        let query_maps = cmp.build_maps(query).unwrap();
        let out = index.topk(query, K, &cmp, None).unwrap();
        assert_eq!(out.total, pins.len());
        compared_total += out.compared;

        let mut brute: Vec<(&str, f64)> = pins
            .iter()
            .map(|pin| {
                let maps = index.entry_maps(pin.name(), pin).expect("entry is indexed");
                let o = cmp
                    .signature_with_maps(query, pin, Some(&query_maps), Some(&maps))
                    .unwrap();
                (pin.name(), o.best.score())
            })
            .collect();
        brute.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(b.0)));

        let hit_in_brute_topk = |name: &str, score: f64| {
            brute[..K]
                .iter()
                .any(|(n, s)| *n == name && s.to_bits() == score.to_bits())
        };
        let found = out
            .hits
            .iter()
            .filter(|h| hit_in_brute_topk(&h.name, h.score))
            .count();
        assert_eq!(
            found,
            K,
            "recall@{K} must be 1.0: query {} found {found}/{K}",
            query.name()
        );
    }
    let fraction = compared_total as f64 / (PROBES * pins.len()) as f64;
    suite.set_meta("recall_at_k", "1.00");
    suite.set_meta("compared_fraction", &format!("{fraction:.4}"));
    assert!(
        fraction < 0.20,
        "prefilter let {:.1}% of the catalog through to full comparison — \
         expected < 20%",
        fraction * 100.0
    );

    // Throughput: rotate queries so no single entry's maps stay hot in a
    // way real workloads wouldn't see.
    let mut q = 0usize;
    suite.measure("search/topk", || {
        let query = &pins[(q * 997) % pins.len()];
        q += 1;
        index.topk(query, K, &cmp, None).unwrap().hits.len()
    });
    let median = suite.records().last().expect("just measured").median;
    let qps = 1.0 / median.as_secs_f64().max(f64::MIN_POSITIVE);
    suite.set_meta("queries_per_sec", &format!("{qps:.1}"));

    suite.finish();
}
