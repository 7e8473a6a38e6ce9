//! Sketch-prefiltered top-k search ([`ic_index::CatalogIndex`]) over a
//! ~10k-instance synthetic lake: recall against the brute-force scan it
//! replaces, the fractions of the catalog that the prefilter ranks, that
//! pass it, that get a full comparison and that are certified to match
//! nothing, the prefilter's time, and query throughput.
//!
//! The lake is 625 clusters × 16 evolved versions (constant-disjoint
//! across clusters), so each query has 15 true near-duplicates and ~9.98k
//! irrelevant entries. Acceptance criteria asserted before any timing:
//! recall@10 must be 1.0 on every probe query, the prefilter must pass
//! < 20% of the catalog, counting fully compared and certified survivors
//! alike, and it must rank < 1% of the catalog (`index.ranked`: only the
//! entries that share a signature bucket or a fingerprint slot with the
//! query get an exact rank).
//!
//! Run: `cargo run -p ic-bench --release --bin bench_search`

use ic_bench::harness::Suite;
use ic_core::{Comparator, InstanceSigMaps, SignatureConfig};
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
/// Queries of the observed pass that reads the prefilter's span and
/// `index.ranked` counter.
const OBSERVED: usize = 200;

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

    let mut index = CatalogIndex::default();
    let t = Instant::now();
    let maps: Vec<Arc<InstanceSigMaps>> = pins
        .iter()
        .map(|p| Arc::new(InstanceSigMaps::build(p, &SignatureConfig::default())))
        .collect();
    for (p, m) in pins.iter().zip(&maps) {
        index.insert(p.name(), p, Arc::clone(m));
    }
    suite.set_meta(
        "build_ms",
        &format!("{:.0}", t.elapsed().as_secs_f64() * 1e3),
    );

    let cmp = Comparator::new(&lake.catalog).build().unwrap();

    // Acceptance: probe queries spread across the lake. The brute-force
    // baseline scores *every* entry with the same comparator (seeded with
    // the maps the index was given, which the seeding contract keeps
    // bit-identical to from-scratch runs).
    let (mut compared_total, mut certified_total) = (0usize, 0usize);
    for p in 0..PROBES {
        let query = &pins[lake.index_of(p * (CLUSTERS / PROBES), p % VERSIONS)];
        let query_maps = cmp.build_maps(query).unwrap();
        let out = index.topk(query, K, &cmp, None).unwrap();
        assert_eq!(out.total, pins.len());
        compared_total += out.compared;
        certified_total += out.certified;

        let mut brute: Vec<(&str, f64)> = pins
            .iter()
            .zip(&maps)
            .map(|(pin, maps)| {
                let o = cmp
                    .signature_with_maps(query, pin, Some(&query_maps), Some(maps))
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
    let of_catalog = |n: usize| n as f64 / (PROBES * pins.len()) as f64;
    let fraction = of_catalog(compared_total + certified_total);
    suite.set_meta("recall_at_k", "1.00");
    suite.set_meta("survivor_fraction", &format!("{fraction:.4}"));
    suite.set_meta(
        "compared_fraction",
        &format!("{:.4}", of_catalog(compared_total)),
    );
    suite.set_meta(
        "certified_fraction",
        &format!("{:.4}", of_catalog(certified_total)),
    );
    assert!(
        fraction < 0.20,
        "prefilter let {:.1}% of the catalog through — expected < 20%",
        fraction * 100.0
    );

    // The prefilter's own split, from what it records: the
    // `index.prefilter` span and the `index.ranked` counter, summed over
    // one observation of the rotating queries the throughput pass uses.
    // Rotate queries so no single entry's maps stay hot in a way real
    // workloads wouldn't see.
    let rotation = |q: usize| &pins[(q * 997) % pins.len()];
    let sink = Arc::new(ic_obs::MemorySink::new());
    {
        let _obs = ic_obs::observe("search", Arc::clone(&sink) as Arc<dyn ic_obs::Sink>);
        for q in 0..OBSERVED {
            index.topk(rotation(q), K, &cmp, None).unwrap();
        }
    }
    let report = sink.last().expect("one report");
    let prefilter = report
        .find_span(&["index.prefilter"])
        .expect("the prefilter records its span");
    assert_eq!(prefilter.count, OBSERVED as u64);
    let prefilter_us = prefilter.total.as_secs_f64() * 1e6 / OBSERVED as f64;
    let ranked = report.counter("index.ranked").unwrap_or(0);
    let ranked_fraction = ranked as f64 / (OBSERVED * pins.len()) as f64;
    suite.set_meta("prefilter_us", &format!("{prefilter_us:.1}"));
    suite.set_meta("ranked_fraction", &format!("{ranked_fraction:.5}"));
    assert!(
        ranked_fraction < 0.01,
        "prefilter ranked {:.2}% of the catalog — expected < 1%",
        ranked_fraction * 100.0
    );

    // Throughput.
    let mut q = 0usize;
    suite.measure("search/topk", || {
        let query = rotation(q);
        q += 1;
        index.topk(query, K, &cmp, None).unwrap().hits.len()
    });
    let median = suite.records().last().expect("just measured").median;
    let qps = 1.0 / median.as_secs_f64().max(f64::MIN_POSITIVE);
    suite.set_meta("queries_per_sec", &format!("{qps:.1}"));

    suite.finish();
}
