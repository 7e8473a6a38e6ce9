//! ic-index: catalog-level top-k similarity search for incomplete
//! database instances.
//!
//! Finding the most-similar instance in a catalog by brute force costs
//! O(catalog) full comparisons per query. This crate layers two cheap
//! filters in front of the full signature comparison:
//!
//! 1. **Sketches** ([`Sketch`]): a schema fingerprint plus a minhash of
//!    the constant active domain (labeled nulls excluded), hashed with the
//!    in-tree deterministic [`rand`] primitives — a coarse first cut and a
//!    domain-overlap estimate.
//! 2. **Signature inverted index** ([`CatalogIndex`]): the per-tuple
//!    `(relation, mask, key)` signature buckets that
//!    [`ic_core::InstanceSigMaps`] already computes, hashed into posting
//!    lists of one slot arena behind one `RwLock`. Entry maps are built
//!    outside the lock, so index build/lookup stays concurrent with
//!    catalog load/replace. Entries are pinned by `Arc<Instance>` pointer
//!    identity — the same invalidation discipline as ic-serve's
//!    `SigMapCache`.
//!
//! [`CatalogIndex::topk`] prefilters by signature overlap + sketch
//! estimate, then runs the full comparison **only on survivors**, seeded
//! with the index's prebuilt maps. It is two calls, so a caller can end
//! its hold on the index between them: [`CatalogIndex::prefilter`] ranks
//! every entry under one read lock and returns [`Survivors`] that own
//! their pins and maps, and [`Survivors::compare`] runs the comparisons.
//! The prefilter chooses *which* entries are compared, never *how*: every
//! returned score is bit-identical to a direct
//! [`ic_core::Comparator::compare`] of the same pair at any thread count,
//! and ties break deterministically by `(score desc, name asc)`.

mod catalog_index;
mod sketch;

pub use catalog_index::{
    CatalogIndex, DeltaApplyError, IndexStats, SearchHit, SearchOptions, SearchOutcome, Survivors,
};
pub use sketch::{apply_delta_repairing_sketch, Sketch, SketchCounts, SKETCH_SLOTS};

#[cfg(test)]
mod tests {
    use super::*;
    use ic_core::Comparator;
    use ic_model::{Catalog, Instance, RelId, Schema, Value};
    use std::sync::Arc;

    const REL: RelId = RelId(0);

    fn catalog() -> Catalog {
        Catalog::new(Schema::single("R", &["a", "b", "c"]))
    }

    /// A small clustered catalog: `clusters × versions` instances where
    /// versions within a cluster share most rows and clusters are
    /// domain-disjoint.
    fn clustered(
        cat: &mut Catalog,
        clusters: usize,
        versions: usize,
    ) -> Vec<(String, Arc<Instance>)> {
        let mut out = Vec::new();
        for c in 0..clusters {
            for v in 0..versions {
                let mut inst = Instance::new(format!("c{c}v{v}"), cat);
                for row in 0..6 {
                    let id = cat.konst(&format!("c{c}r{row}"));
                    // Version v rewrites one row's payload.
                    let payload = if row == v % 6 {
                        cat.konst(&format!("c{c}edit{v}"))
                    } else {
                        cat.konst(&format!("c{c}p{row}"))
                    };
                    let tag = cat.konst(&format!("c{c}t{}", row % 2));
                    inst.insert(REL, vec![id, payload, tag]);
                }
                out.push((inst.name().to_string(), Arc::new(inst)));
            }
        }
        out
    }

    fn indexed(entries: &[(String, Arc<Instance>)]) -> CatalogIndex {
        let index = CatalogIndex::default();
        for (name, pin) in entries {
            index.insert(name, pin);
        }
        index
    }

    #[test]
    fn topk_matches_brute_force_and_prunes() {
        let mut cat = catalog();
        let entries = clustered(&mut cat, 6, 4);
        let index = indexed(&entries);
        assert_eq!(index.stats().inserts, 24);
        assert_eq!(index.len(), 24);

        let cmp = Comparator::new(&cat).build().unwrap();
        let query = &entries[5].1; // c1v1
        let opts = SearchOptions {
            min_candidates: 4,
            oversample: 1,
            ..SearchOptions::default()
        };
        let out = index.topk(query, 4, &cmp, &opts).unwrap();
        assert_eq!(out.total, 24);
        assert!(out.compared < 24, "prefilter must cut something");

        // Brute force over everything, same ordering rule.
        let mut brute: Vec<(String, f64)> = entries
            .iter()
            .map(|(n, p)| (n.clone(), cmp.compare(query, p).unwrap().score()))
            .collect();
        brute.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        for (hit, (bn, bs)) in out.hits.iter().zip(brute.iter()) {
            assert_eq!(&hit.name, bn);
            assert_eq!(hit.score.to_bits(), bs.to_bits(), "bit-identical scores");
        }
        // The query itself is indexed and must rank first at score 1.
        assert_eq!(out.hits[0].name, "c1v1");
        assert_eq!(out.hits[0].score, 1.0);
    }

    #[test]
    fn topk_k_equals_catalog_is_exactly_brute_force() {
        let mut cat = catalog();
        let entries = clustered(&mut cat, 3, 3);
        let index = indexed(&entries);
        let cmp = Comparator::new(&cat).build().unwrap();
        let out = index
            .topk(
                &entries[0].1,
                entries.len(),
                &cmp,
                &SearchOptions::default(),
            )
            .unwrap();
        assert_eq!(out.compared, entries.len(), "k = n compares everything");
        assert_eq!(out.hits.len(), entries.len());
    }

    #[test]
    fn apply_delta_repairs_entry_to_match_fresh_build() {
        use ic_core::{Delta, DeltaOp};

        let mut cat = catalog();
        let entries = clustered(&mut cat, 2, 2);
        let index = indexed(&entries);

        let (x, y) = (cat.konst("newx"), cat.konst("newy"));
        let victim = entries[0].1.tuples(REL)[0].id();
        let delta = Delta::new(vec![
            DeltaOp::Insert {
                rel: REL,
                values: vec![x, y, x],
            },
            DeltaOp::Delete { id: victim },
        ]);
        let (new_pin, inserted) = index.apply_delta("c0v0", &delta).unwrap();
        assert_eq!(inserted.len(), 1);
        assert!(index.entry_maps("c0v0", &new_pin).is_some());
        assert!(
            index.entry_maps("c0v0", &entries[0].1).is_none(),
            "old pin no longer keys the entry"
        );

        // The repaired entry must behave exactly like a freshly indexed
        // one: seeded comparisons through its repaired maps are
        // bit-identical to comparisons through maps built from scratch.
        let cmp = Comparator::new(&cat).build().unwrap();
        let repaired_maps = index.entry_maps("c0v0", &new_pin).unwrap();
        let fresh_maps = cmp.build_maps(&new_pin).unwrap();
        let other = &entries[3].1;
        let seeded = cmp
            .signature_with_maps(&new_pin, other, Some(&repaired_maps), None)
            .unwrap();
        let fresh = cmp
            .signature_with_maps(&new_pin, other, Some(&fresh_maps), None)
            .unwrap();
        assert_eq!(seeded.best.score().to_bits(), fresh.best.score().to_bits());

        // Postings were repaired too: the mutated instance finds itself
        // through the prefilter at the exact self-similarity score.
        let out = index
            .topk(&new_pin, 1, &cmp, &SearchOptions::default())
            .unwrap();
        assert_eq!(out.hits[0].name, "c0v0");
        assert_eq!(out.hits[0].score, 1.0);

        // Failures leave the index untouched.
        assert!(matches!(
            index.apply_delta("nope", &delta),
            Err(DeltaApplyError::NotIndexed(_))
        ));
        let bad = Delta::new(vec![DeltaOp::Delete {
            id: ic_model::TupleId(u32::MAX),
        }]);
        assert!(matches!(
            index.apply_delta("c0v0", &bad),
            Err(DeltaApplyError::Op(_))
        ));
        assert!(
            index.entry_maps("c0v0", &new_pin).is_some(),
            "failed delta must not replace the entry"
        );
    }

    #[test]
    fn insert_and_remove_follow_pointer_identity() {
        let mut cat = catalog();
        let a = cat.konst("a");
        let mk = |cat: &Catalog, name: &str, v: Value| {
            let mut i = Instance::new(name, cat);
            i.insert(REL, vec![v, v, v]);
            Arc::new(i)
        };
        let x1 = mk(&cat, "x", a);
        let y = mk(&cat, "y", a);
        let index = CatalogIndex::default();
        assert!(index.insert("x", &x1));
        assert!(index.insert("y", &y));
        // Unchanged pins are no-ops.
        assert!(!index.insert("x", &x1));
        assert!(!index.insert("y", &y));
        // Same content, new Arc → replacement.
        let x2 = mk(&cat, "x", a);
        assert!(index.insert("x", &x2));
        let stats = index.stats();
        assert_eq!(
            (stats.inserts, stats.unchanged, stats.replacements),
            (2, 2, 1)
        );
        // Dropped name → removal.
        assert!(index.remove("x"));
        assert!(!index.remove("x"));
        assert_eq!(index.stats().removals, 1);
        assert_eq!(index.len(), 1);
        assert!(index.entry_maps("y", &y).is_some());
        assert!(index.entry_maps("y", &x2).is_none(), "wrong pin must miss");
        assert!(index.entry_maps("x", &x2).is_none());
    }
}
