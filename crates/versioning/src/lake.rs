//! Data-lake search and deduplication — the paper's motivating
//! applications: *"finding datasets that are similar to an already
//! discovered dataset or user-provided data example"* and *"data lake
//! deduplication aims to find duplicate or near duplicate tables"*
//! (Sec. 1, citing Koch et al.'s Xash).
//!
//! Tables in a lake rarely share a catalog or even a schema, so every
//! comparison first aligns the two tables into a union schema (padding
//! missing columns with fresh nulls, Sec. 4.3) and then runs the signature
//! algorithm. Scores are therefore comparable across heterogeneous tables.

use ic_core::{signature_match, signature_match_seeded, InstanceSigMaps, SignatureConfig};
use ic_index::Sketch;
use ic_model::{align_instances, Catalog, Instance};

// NOTE on incremental reuse: heterogeneous lake tables are aligned into a
// fresh union schema per pair, so their signature maps cannot be shared
// across pairs. Lakes whose tables already share one catalog skip the
// alignment and *can* reuse per-table maps — see
// [`find_duplicate_groups_shared`] and
// [`crate::history::similarity_matrix`].

/// A table in the lake: its own catalog plus its instance.
#[derive(Debug)]
pub struct LakeTable {
    /// The table's catalog (schema + values).
    pub catalog: Catalog,
    /// The table's data.
    pub instance: Instance,
}

impl LakeTable {
    /// Wraps a catalog/instance pair.
    pub fn new(catalog: Catalog, instance: Instance) -> Self {
        Self { catalog, instance }
    }
}

/// Compares two lake tables: aligns their schemas and runs the signature
/// algorithm, returning the similarity score.
pub fn table_similarity(a: &LakeTable, b: &LakeTable, cfg: &SignatureConfig) -> f64 {
    let aligned = align_instances(&a.catalog, &a.instance, &b.catalog, &b.instance);
    signature_match(&aligned.left, &aligned.right, &aligned.catalog, cfg)
        .best
        .score()
}

/// Ranks the lake's tables by similarity to `query`, most similar first.
/// Returns `(table index, score)` pairs.
pub fn rank_by_similarity(
    query: &LakeTable,
    lake: &[LakeTable],
    cfg: &SignatureConfig,
) -> Vec<(usize, f64)> {
    let mut scored: Vec<(usize, f64)> = lake
        .iter()
        .enumerate()
        .map(|(i, t)| (i, table_similarity(query, t, cfg)))
        .collect();
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("scores are finite"));
    scored
}

/// Groups near-duplicate tables: tables whose pairwise similarity reaches
/// `threshold` land in the same group (transitive closure — single-linkage
/// clustering). Returns the groups with ≥ 2 members, each sorted by index.
pub fn find_duplicate_groups(
    lake: &[LakeTable],
    threshold: f64,
    cfg: &SignatureConfig,
) -> Vec<Vec<usize>> {
    cluster_by_similarity(lake.len(), threshold, |i, j| {
        table_similarity(&lake[i], &lake[j], cfg)
    })
}

/// [`find_duplicate_groups`] for a lake whose tables share one `catalog`
/// (no per-pair alignment needed). Each table's signature maps are built
/// **once** and seed every comparison the table participates in (the
/// [`ic_core::signature_match_seeded`] contract: bit-identical to building
/// per pair), and each table gets an [`ic_index::Sketch`] whose
/// [`one_to_one_score_bound`](ic_index::Sketch::one_to_one_score_bound)
/// skips pairs that provably cannot reach `threshold` — without scoring
/// them at all.
///
/// The bound is only sound for fully injective matches with per-cell
/// scores ≤ 1, so pruning is gated on the configuration: both injectivity
/// flags set and no string-similarity weight (the default configuration
/// qualifies). Other configurations score every pair. Either way the
/// groups are identical to clustering a full
/// [`crate::history::similarity_matrix`]: a pruned pair's true
/// score is below `threshold`, so it could never have joined a group.
pub fn find_duplicate_groups_shared(
    tables: &[&Instance],
    catalog: &Catalog,
    threshold: f64,
    cfg: &SignatureConfig,
) -> Vec<Vec<usize>> {
    let maps: Vec<InstanceSigMaps> = tables
        .iter()
        .map(|t| InstanceSigMaps::build(t, cfg))
        .collect();
    let sketches: Vec<Sketch> = tables.iter().map(|t| Sketch::build(t)).collect();
    let prune = cfg.mode.left_injective
        && cfg.mode.right_injective
        && cfg.score.string_sim_weight.is_none();
    cluster_by_similarity(tables.len(), threshold, |i, j| {
        if prune && sketches[i].one_to_one_score_bound(&sketches[j]) < threshold {
            // Sound skip: the true one-to-one score cannot reach the
            // threshold, so this pair never links a group.
            return 0.0;
        }
        signature_match_seeded(
            tables[i],
            tables[j],
            catalog,
            cfg,
            Some(&maps[i]),
            Some(&maps[j]),
        )
        .best
        .score()
    })
}

/// Single-linkage clustering by pairwise similarity: indices whose
/// similarity reaches `threshold` join the same group (transitive
/// closure); only groups with ≥ 2 members are returned, each sorted.
fn cluster_by_similarity(
    n: usize,
    threshold: f64,
    sim: impl Fn(usize, usize) -> f64,
) -> Vec<Vec<usize>> {
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for i in 0..n {
        for j in (i + 1)..n {
            if sim(i, j) >= threshold {
                let (a, b) = (find(&mut parent, i), find(&mut parent, j));
                if a != b {
                    parent[a] = b;
                }
            }
        }
    }
    let mut groups: ic_model::FxHashMap<usize, Vec<usize>> = ic_model::FxHashMap::default();
    for i in 0..n {
        let root = find(&mut parent, i);
        groups.entry(root).or_default().push(i);
    }
    let mut out: Vec<Vec<usize>> = groups
        .into_values()
        .filter(|g| g.len() >= 2)
        .map(|mut g| {
            g.sort_unstable();
            g
        })
        .collect();
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_model::Schema;

    /// Builds a lake table with the given rows over (A, B).
    fn table(rows: &[(&str, &str)]) -> LakeTable {
        let mut cat = Catalog::new(Schema::single("T", &["A", "B"]));
        let rel = cat.schema().rel("T").unwrap();
        let mut inst = Instance::new("t", &cat);
        for &(a, b) in rows {
            let va = cat.konst(a);
            let vb = if b.is_empty() {
                cat.fresh_null()
            } else {
                cat.konst(b)
            };
            inst.insert(rel, vec![va, vb]);
        }
        LakeTable::new(cat, inst)
    }

    /// A table over a *different* schema (A only).
    fn narrow_table(rows: &[&str]) -> LakeTable {
        let mut cat = Catalog::new(Schema::single("T", &["A"]));
        let rel = cat.schema().rel("T").unwrap();
        let mut inst = Instance::new("t", &cat);
        for &a in rows {
            let va = cat.konst(a);
            inst.insert(rel, vec![va]);
        }
        LakeTable::new(cat, inst)
    }

    #[test]
    fn ranking_prefers_the_near_duplicate() {
        let query = table(&[("x1", "y1"), ("x2", "y2"), ("x3", "y3")]);
        let lake = vec![
            table(&[("u", "v")]),                               // unrelated
            table(&[("x1", "y1"), ("x2", ""), ("x3", "y3")]),   // near-dup (one null)
            table(&[("x1", "y1"), ("x2", "y2"), ("x3", "y3")]), // exact dup
        ];
        let ranked = rank_by_similarity(&query, &lake, &SignatureConfig::default());
        assert_eq!(ranked[0].0, 2);
        assert!((ranked[0].1 - 1.0).abs() < 1e-9);
        assert_eq!(ranked[1].0, 1);
        assert!(ranked[1].1 > 0.8);
        assert_eq!(ranked[2].0, 0);
        assert!(ranked[2].1 < 0.2);
    }

    #[test]
    fn cross_schema_search_works() {
        // The query has only column A; the candidate has A and B. Alignment
        // pads the query with nulls, so the shared column drives the score.
        let query = narrow_table(&["x1", "x2"]);
        let wide = table(&[("x1", "y1"), ("x2", "y2")]);
        let unrelated = table(&[("q", "r"), ("s", "t")]);
        let cfg = SignatureConfig::default();
        let s_wide = table_similarity(&query, &wide, &cfg);
        let s_unrelated = table_similarity(&query, &unrelated, &cfg);
        assert!(s_wide > s_unrelated);
        assert!(s_wide > 0.5);
    }

    #[test]
    fn duplicate_groups_cluster_transitively() {
        let lake = vec![
            table(&[("a", "1"), ("b", "2")]), // 0: group A
            table(&[("a", "1"), ("b", "")]),  // 1: near 0
            table(&[("z", "9"), ("w", "8")]), // 2: group B
            table(&[("z", "9"), ("w", "8")]), // 3: dup of 2
            table(&[("solo", "42")]),         // 4: alone
        ];
        let groups = find_duplicate_groups(&lake, 0.8, &SignatureConfig::default());
        assert_eq!(groups, vec![vec![0, 1], vec![2, 3]]);
    }

    #[test]
    fn shared_catalog_groups_match_per_pair_scores() {
        // One shared catalog: the map-reusing path must produce the same
        // groups as scoring each pair from scratch.
        let mut cat = Catalog::new(Schema::single("T", &["A", "B"]));
        let rel = cat.schema().rel("T").unwrap();
        let mut mk = |rows: &[(&str, bool)]| {
            let mut inst = Instance::new("t", &cat);
            for &(a, null_b) in rows {
                let va = cat.konst(a);
                let vb = if null_b {
                    cat.fresh_null()
                } else {
                    cat.konst(&format!("{a}!"))
                };
                inst.insert(rel, vec![va, vb]);
            }
            inst
        };
        let tables = [
            mk(&[("a", false), ("b", false)]),
            mk(&[("a", false), ("b", true)]),
            mk(&[("z", false), ("w", false)]),
            mk(&[("z", false), ("w", false)]),
            mk(&[("solo", false)]),
        ];
        let refs: Vec<&Instance> = tables.iter().collect();
        let cfg = SignatureConfig::default();
        let groups = find_duplicate_groups_shared(&refs, &cat, 0.8, &cfg);
        assert_eq!(groups, vec![vec![0, 1], vec![2, 3]]);
        // Scores agree with from-scratch signature matching, bit for bit.
        let m = crate::history::similarity_matrix(&refs, &cat, &cfg);
        for i in 0..refs.len() {
            for j in (i + 1)..refs.len() {
                let scratch = signature_match(refs[i], refs[j], &cat, &cfg).best.score();
                assert_eq!(m[i][j].to_bits(), scratch.to_bits());
            }
        }
    }

    #[test]
    fn sketch_pruned_groups_equal_full_matrix_groups() {
        // A lake of disjoint clusters plus one tiny outlier: the sketch
        // bound prunes cross-size pairs, yet the groups must equal
        // clustering the full similarity matrix — for the prunable
        // default config *and* for a general-mode config where pruning is
        // unsound and therefore disabled.
        let lake = ic_datagen::generate_lake(&ic_datagen::LakeParams {
            clusters: 3,
            versions_per_cluster: 3,
            rows: 14,
            ..ic_datagen::LakeParams::default()
        });
        let mut cat = lake.catalog;
        let mut tiny = Instance::new("tiny", &cat);
        let v = cat.konst("tiny_only");
        tiny.insert(lake.rel, vec![v, v, v, v]);
        let tables: Vec<&Instance> = lake.instances.iter().chain([&tiny]).collect();

        for cfg in [
            SignatureConfig::default(),
            SignatureConfig {
                mode: ic_core::MatchMode::general(),
                ..SignatureConfig::default()
            },
        ] {
            for threshold in [0.6, 0.9] {
                let fast = find_duplicate_groups_shared(&tables, &cat, threshold, &cfg);
                let m = crate::history::similarity_matrix(&tables, &cat, &cfg);
                let full = cluster_by_similarity(tables.len(), threshold, |i, j| m[i][j]);
                assert_eq!(fast, full, "threshold {threshold}");
            }
        }
    }

    #[test]
    fn high_threshold_yields_no_groups() {
        let lake = vec![
            table(&[("a", "1")]),
            table(&[("a", "")]), // similar but not identical
        ];
        let groups = find_duplicate_groups(&lake, 0.999, &SignatureConfig::default());
        assert!(groups.is_empty());
    }
}
