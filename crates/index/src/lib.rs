//! ic-index: catalog-level top-k similarity search for incomplete
//! database instances.
//!
//! Finding the most-similar instance in a catalog by brute force costs
//! O(catalog) full comparisons per query. This crate layers two cheap
//! filters in front of the full signature comparison:
//!
//! 1. **Sketches** ([`Sketch`]): a minhash of the constant active domain
//!    (labeled nulls excluded), hashed with the in-tree deterministic
//!    [`rand`] primitives — a coarse first cut and a domain-overlap
//!    estimate.
//! 2. **Signature inverted index** ([`CatalogIndex`]): the per-tuple
//!    `(relation, mask, key)` signature buckets that
//!    [`ic_core::InstanceSigMaps`] already computes, hashed into posting
//!    lists of one slot arena. The caller passes each entry's maps in
//!    (ic-serve passes the maps its catalog pin carries, so compares and
//!    searches share one build). The index is a plain value that takes no
//!    lock: it changes through `&mut self` and searches read it through
//!    `&self`, so a caller that shares it guards it (ic-serve keeps it
//!    under one `RwLock` with the catalog version it reflects). Entries
//!    pin an `Arc<Instance>`, and [`CatalogIndex::insert`] rebuilds an
//!    entry whole, replacing whatever its name held; there is no other
//!    way to update one.
//!
//! [`CatalogIndex::topk`] prefilters by signature overlap + sketch
//! estimate, then scores **only the survivors**. The survivors are every
//! entry with overlap or a sketch estimate ≥ 0.5, padded by rank to at
//! least `max(4·k, 32)`; those three numbers are fixed. The prefilter
//! computes the exact rank of only the entries that share a signature
//! bucket or a sketch fingerprint slot with the query: the index keeps
//! the low 16 bits of every entry's minhash slots in one contiguous row
//! per entry (128 bytes), and a flat scan of those rows finds every entry
//! that may share a slot, since equal slots have equal low bits. Every
//! other entry has no matching slot and so estimates 0, and the padding
//! takes the entries with neither overlap nor a matching slot in name
//! order. A survivor none of whose tuples is c-compatible with a tuple of
//! the query (no attribute
//! with two distinct constants) can match nothing under the complete-match
//! semantics searches use, so it is certified and gets the empty match's
//! score; every other survivor runs the full comparison, seeded with the
//! entries' maps. The only per-search input besides the query, `k` and the
//! comparator is an optional deadline, checked before every survivor. A
//! search is two calls, so a caller can end its hold on the index between
//! them: [`CatalogIndex::prefilter`] picks the survivors and returns
//! [`Survivors`] that own their pins and maps, and [`Survivors::compare`]
//! scores them.
//! The prefilter chooses *which* entries are scored and the certificate
//! which of those skip the kernel, never *what* they score: every
//! returned hit is bit-identical to a direct
//! [`ic_core::Comparator::compare`] of the same pair at any thread count,
//! and ties break deterministically by `(score desc, name asc)`.

mod catalog_index;
mod sketch;

pub use catalog_index::{CatalogIndex, SearchHit, SearchOutcome, Survivors};
pub use sketch::{Sketch, SKETCH_SLOTS};

#[cfg(test)]
mod tests {
    use super::*;
    use ic_core::{Comparator, InstanceSigMaps, SignatureConfig};
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

    /// `pin`'s maps under the default config, as `insert` takes them.
    fn maps(pin: &Instance) -> Arc<InstanceSigMaps> {
        Arc::new(InstanceSigMaps::build(pin, &SignatureConfig::default()))
    }

    fn indexed(entries: &[(String, Arc<Instance>)]) -> CatalogIndex {
        let mut index = CatalogIndex::default();
        for (name, pin) in entries {
            index.insert(name, pin, maps(pin));
        }
        index
    }

    #[test]
    fn topk_matches_brute_force_and_prunes() {
        let mut cat = catalog();
        // 48 entries: more than the prefilter's floor of 32 at k = 4.
        let entries = clustered(&mut cat, 12, 4);
        let index = indexed(&entries);
        assert_eq!(index.len(), 48);

        let cmp = Comparator::new(&cat).build().unwrap();
        let query = &entries[5].1; // c1v1
        let out = index.topk(query, 4, &cmp, None).unwrap();
        assert_eq!(out.total, 48);
        assert!(
            out.compared + out.certified < 48,
            "prefilter must cut something"
        );

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
            .topk(&entries[0].1, entries.len(), &cmp, None)
            .unwrap();
        assert_eq!(
            out.compared + out.certified,
            entries.len(),
            "k = n passes everything"
        );
        assert_eq!(out.hits.len(), entries.len());
    }

    #[test]
    fn insert_replaces_and_remove_drops() {
        let mut cat = catalog();
        let (a, b) = (cat.konst("a"), cat.konst("b"));
        let mk = |cat: &Catalog, name: &str, v: Value| {
            let mut i = Instance::new(name, cat);
            i.insert(REL, vec![v, v, v]);
            Arc::new(i)
        };
        let x1 = mk(&cat, "x", a);
        let y = mk(&cat, "y", a);
        let mut index = CatalogIndex::default();
        index.insert("x", &x1, maps(&x1));
        index.insert("y", &y, maps(&y));
        // Another pin of other content under the same name replaces it.
        let x2 = mk(&cat, "x", b);
        index.insert("x", &x2, maps(&x2));
        assert_eq!(index.len(), 2);
        let cmp = Comparator::new(&cat).build().unwrap();
        let hits = |query: &Instance| -> Vec<(String, f64)> {
            let out = index.topk(query, 2, &cmp, None).unwrap();
            assert_eq!(out.total, 2);
            out.hits.into_iter().map(|h| (h.name, h.score)).collect()
        };
        let want = |first: &str, second: &str| vec![(first.into(), 1.0), (second.into(), 0.0)];
        assert_eq!(hits(&x2), want("x", "y"));
        assert_eq!(hits(&x1), want("y", "x"), "x answers with the new pin");
        assert!(index.remove("x"));
        assert!(!index.remove("x"));
        assert_eq!(index.len(), 1);
    }
}
